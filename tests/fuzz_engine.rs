//! Bounded fuzz sweeps plus pinned regressions for every bug the fuzzer has found.
//!
//! The sweep budget is deliberately small so `cargo test` stays fast; CI's `fuzz-smoke`
//! job and manual deep sweeps (`cargo run --release -p pocc-sim --bin fuzz_engine -- \
//! --seeds 10000 --protocol all`) provide the depth. Override the per-protocol seed
//! count with `POCC_FUZZ_SEEDS`.
//!
//! The regression cases reproduce from their seed alone (the harness replays
//! byte-identically), exactly as the shrinker printed them when the bug was live. Set
//! `POCC_FUZZ_TRACE=1` to narrate a replay step by step.

use pocc::sim::fuzz::{check_case, cross_protocol_check, run_fuzz_case, FuzzCase};
use pocc::sim::ProtocolKind;

fn sweep_seeds() -> u64 {
    std::env::var("POCC_FUZZ_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(25)
}

#[test]
fn bounded_sweep_is_clean_for_every_protocol() {
    for protocol in ProtocolKind::ALL {
        for seed in 0..sweep_seeds() {
            let case = FuzzCase {
                protocol,
                seed,
                ..FuzzCase::default()
            };
            if let Err(failure) = check_case(&case) {
                panic!("{failure}");
            }
        }
    }
}

#[test]
fn bounded_cross_protocol_sweep_converges_identically() {
    for seed in 0..sweep_seeds() {
        cross_protocol_check(seed, 200).unwrap_or_else(|err| panic!("seed {seed}: {err}"));
    }
}

/// Found by the fuzzer: POCC served a GET from a version with the same wall-clock
/// timestamp as a strictly newer one the client had already observed, because the
/// server's version vector could trail a locally stored update under coarse clocks.
/// Fixed by flooring the PUT-visibility heartbeat at the local vector entry.
#[test]
fn regression_pocc_seed_3_equal_timestamp_visibility() {
    let outcome = run_fuzz_case(&FuzzCase {
        protocol: ProtocolKind::Pocc,
        replicas: 3,
        partitions: 2,
        clients: 4,
        keys: 12,
        steps: 58,
        chaos: true,
        seed: 3,
    });
    assert!(outcome.is_clean(), "{:?}", outcome.failure_reason());
}

/// Found by the fuzzer: Cure*'s GSS-governed reads broke the session guarantees when a
/// client migrated its session to a replica whose GSS trailed the client's observed
/// dependencies. Fixed by shipping the client's full dependency vector on snapshot
/// reads and parking the GET until the GSS covers its remote entries.
#[test]
fn regression_cure_seed_10_snapshot_session_guarantees() {
    let outcome = run_fuzz_case(&FuzzCase {
        protocol: ProtocolKind::Cure,
        replicas: 3,
        partitions: 2,
        clients: 4,
        keys: 12,
        steps: 137,
        chaos: true,
        seed: 10,
    });
    assert!(outcome.is_clean(), "{:?}", outcome.failure_reason());
}

/// Found by the fuzzer: Cure*'s exchange-free GC collects under the participant's own
/// GSS, so a coordinator with a lagging GSS could assign a read-only transaction a
/// snapshot below versions a participant had already collected — the slice then served
/// a false "no version" for a key that existed. Fixed by refusing such slices against
/// the shard GC watermark and aborting the transaction ("snapshot too old") instead of
/// answering wrong.
#[test]
fn regression_cure_seed_187_gc_snapshot_race() {
    let outcome = run_fuzz_case(&FuzzCase {
        protocol: ProtocolKind::Cure,
        replicas: 3,
        partitions: 2,
        clients: 4,
        keys: 12,
        steps: 392,
        chaos: true,
        seed: 187,
    });
    assert!(outcome.is_clean(), "{:?}", outcome.failure_reason());
}
