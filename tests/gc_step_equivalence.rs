//! Differential test: garbage collection that a threaded server runs in bounded steps,
//! serving operations between them, against the serial reference cluster, whose every
//! tick runs a whole pass.
//!
//! A `ParallelServer` releases its engine between GC steps of 256 listed chains, so GETs,
//! PUTs, RO-TX slices and replicated versions run while a pass is half done. A read
//! there sees some chains trimmed and others not yet; the store's argument is that both
//! answer alike. This suite attacks that with a GC interval of a few milliseconds, and
//! with background writers that keep well over a thousand chains per server growing to
//! two versions while the checked scripts, RO-TXs included, run. The threaded cluster
//! must match the serial one on final values and order-insensitive counters, with a
//! clean exact causal checker, for all four protocols at one and two lanes.
//!
//! A sequential script alone cannot do it: a pass trims the chains that grew since the
//! last one, and in a debug build the scripted clients write a few thousand versions a
//! second, which at a 2 ms interval makes passes of a few dozen chains, never a step's
//! worth.

#[allow(dead_code)] // the scripts here are this suite's own
mod common;

use common::{
    assert_agree, check_outcome, run_cluster_under_load, run_serial, xorshift, Op, CLIENTS,
    LOAD_KEYS, PARTITIONS,
};
use pocc::prelude::*;
use pocc::storage::partition_for_key;
use std::time::Duration;

const REPLICAS: usize = 2;
const GC_INTERVAL: Duration = Duration::from_millis(2);
/// Keys each client writes, twice each.
const KEYS_PER_CLIENT: u64 = 100;
/// Keys each data center's background writer rewrites, round after round.
const LOAD_KEYS_PER_DC: u64 = 1_200;
/// Every server must hold at least this many chains that grow to two versions.
const MULTI_VERSION_CHAINS: usize = 1_000;

/// The per-client scripts: two rounds of PUTs over the client's own keys, with a GET
/// after every eighth PUT and an RO-TX after every other eighth, both over everyone's
/// keys. An RO-TX reads three keys of one partition: Cure\*'s exchange-free GC aborts a
/// transaction whose coordinator's GSS trails another partition's ("snapshot too old",
/// see `EngineCore::read_slice`), and a transaction that reads only at its coordinator
/// cannot meet that race.
fn scripts() -> Vec<Vec<Op>> {
    let key = |client: u64, i: u64| Key(client * 1_000 + i % KEYS_PER_CLIENT);
    (0..CLIENTS as u64)
        .map(|client| {
            let mut rng = 0x6a09_e667_f3bc_c908 ^ (client + 1).wrapping_mul(0xbb67_ae85_84ca_a73b);
            let mut next = move || xorshift(&mut rng);
            let mut ops = Vec::new();
            for i in 0..2 * KEYS_PER_CLIENT {
                ops.push(Op::Put(key(client, i), next()));
                match i % 8 {
                    3 => ops.push(Op::Get(key(next() % CLIENTS as u64, next()))),
                    7 => {
                        let first = key(next() % CLIENTS as u64, next());
                        let partition = partition_for_key(first, PARTITIONS);
                        let mut keys = vec![first];
                        while keys.len() < 3 {
                            let k = key(next() % CLIENTS as u64, next());
                            if partition_for_key(k, PARTITIONS) == partition {
                                keys.push(k);
                            }
                        }
                        ops.push(Op::RoTx(keys));
                    }
                    _ => {}
                }
            }
            ops
        })
        .collect()
}

fn config() -> Config {
    Config::builder()
        .num_replicas(REPLICAS)
        .num_partitions(PARTITIONS)
        .storage_shards(4)
        .gc_interval(GC_INTERVAL)
        .latency(LatencyMatrix::uniform(
            REPLICAS,
            Duration::from_micros(50),
            Duration::from_millis(2),
        ))
        .build()
        .unwrap()
}

#[test]
fn stepped_gc_passes_match_the_serial_driver() {
    // Every replica of a partition stores the background keys of both data centers.
    let load_keys = LOAD_KEYS..LOAD_KEYS + REPLICAS as u64 * LOAD_KEYS_PER_DC;
    for partition in 0..PARTITIONS {
        let keys = load_keys
            .clone()
            .filter(|k| partition_for_key(Key(*k), PARTITIONS).index() == partition)
            .count();
        assert!(
            keys >= MULTI_VERSION_CHAINS,
            "partition {partition}: only {keys} background keys"
        );
    }

    let scripts = scripts();
    for protocol in ProtocolKind::ALL {
        let serial = run_serial(protocol, &scripts, config());
        check_outcome(&format!("serial {protocol:?}"), &serial, &scripts, REPLICAS);
        for lanes in [1, 2] {
            let label = format!("{protocol:?} lanes={lanes}");
            let builder = Cluster::builder()
                .config(Config {
                    worker_lanes: lanes,
                    ..config()
                })
                .protocol(protocol);
            let parallel = run_cluster_under_load(builder, &scripts, LOAD_KEYS_PER_DC);
            check_outcome(&format!("parallel {label}"), &parallel, &scripts, REPLICAS);
            assert_agree(&label, &serial, &parallel);
        }
    }
}
