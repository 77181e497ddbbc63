//! Cross-protocol differential suite: the four engine-based servers are observationally
//! equivalent wherever the protocols promise the same outcome.
//!
//! Three layers of evidence:
//!
//! * A hand-pumped three-DC cluster driven with an identical write script through each of
//!   the four protocols: once traffic drains, every protocol must converge to
//!   byte-identical store digests and version vectors on every server — replication,
//!   heartbeats and batching are shared engine machinery, and visibility policies must
//!   never change *what state replicas build*, only what reads may see in the meantime.
//! * The same equivalence with replication batching enabled, pinning the policy-agnostic
//!   batcher flush ordering.
//! * Full simulations of all four protocols with the exact causal-consistency checker
//!   enabled: zero violations and full convergence under a real interleaved workload.

use pocc::proto::ClientRequest;
use pocc::sim::reference::{Digest, SerialCluster};
use pocc::sim::{ProtocolKind, SimConfig, Simulation};
use pocc::types::{ClientId, Config, DependencyVector, Key, ReplicaId, ServerId, Value};
use pocc::workload::WorkloadMix;
use std::collections::BTreeMap;
use std::time::Duration;

/// The deployment both the serial cluster and the simulator runs use: 3 DCs × 2
/// partitions, 4 storage shards, replication batching on or off.
fn deployment(batching: bool) -> Config {
    Config::builder()
        .num_replicas(3)
        .num_partitions(2)
        .storage_shards(4)
        .replication_batching(batching)
        .build()
        .unwrap()
}

/// Runs a small cluster of `protocol` servers to quiescence: a fixed write script spread
/// over the servers, then enough ticks to flush every batch and deliver every message.
/// Returns each server's store digest.
fn run_cluster(protocol: ProtocolKind, batching: bool) -> BTreeMap<ServerId, Digest> {
    let mut cluster = SerialCluster::new(protocol, deployment(batching));

    // 24 writes, directed at the server owning each key, round-robin over the replicas.
    for written in 0..24u64 {
        let key = Key(written);
        let partition = pocc::storage::partition_for_key(key, cluster.config().num_partitions);
        let target = ServerId::new(ReplicaId((written % 3) as u16), partition);
        cluster.clock().advance(Duration::from_millis(1));
        cluster.submit(
            ClientId(written),
            target,
            ClientRequest::Put {
                key,
                value: Value::from(written),
                dv: DependencyVector::zero(3),
            },
        );
    }

    // Drain: alternate ticks (which flush batches, emit heartbeats and run the periodic
    // protocols) with message delivery until the cluster is quiescent.
    for _ in 0..20 {
        cluster.tick_all();
        cluster.deliver_all();
    }
    cluster.digests()
}

#[test]
fn all_protocols_build_identical_replicated_state() {
    for batching in [false, true] {
        let reference = run_cluster(ProtocolKind::Pocc, batching);
        // Sanity: the script actually landed data and siblings converged.
        assert!(reference.values().any(|d| !d.is_empty()));
        for partition in 0..2u32 {
            let sample: Vec<_> = reference
                .iter()
                .filter(|(id, _)| id.partition.index() == partition as usize)
                .map(|(_, d)| d.clone())
                .collect();
            assert!(
                sample.windows(2).all(|w| w[0] == w[1]),
                "siblings of partition {partition} diverged (batching={batching})"
            );
        }
        for protocol in ProtocolKind::ALL.into_iter().skip(1) {
            let state = run_cluster(protocol, batching);
            assert_eq!(state.len(), reference.len());
            for (id, digest) in &reference {
                assert_eq!(
                    digest, &state[id],
                    "{protocol} diverged from POCC at {id} (batching={batching})"
                );
            }
        }
    }
}

fn checked_sim(protocol: ProtocolKind, batching: bool) -> pocc::sim::SimReport {
    Simulation::new(SimConfig {
        protocol,
        deployment: deployment(batching),
        clients_per_partition: 2,
        keys_per_partition: 50,
        mix: WorkloadMix::GetPut { gets_per_put: 2 },
        think_time: Duration::from_millis(5),
        warmup: Duration::from_millis(100),
        duration: Duration::from_millis(600),
        drain: Duration::from_millis(300),
        check_consistency: true,
        seed: 19,
        ..SimConfig::default()
    })
    .run()
}

#[test]
fn every_protocol_is_causally_clean_and_convergent_under_the_checker() {
    for protocol in ProtocolKind::ALL {
        for batching in [false, true] {
            let report = checked_sim(protocol, batching);
            assert!(
                report.operations_completed > 0,
                "{protocol} (batching={batching}): no operations"
            );
            assert_eq!(
                report.consistency_violations, 0,
                "{protocol} (batching={batching}): causal violations"
            );
            assert!(
                report.converged,
                "{protocol} (batching={batching}): replicas did not converge"
            );
        }
    }
}

#[test]
fn adaptive_staleness_sits_between_pocc_and_cure() {
    // Fixed seed, small keyspace (hot keys collide often): POCC never returns old data,
    // Cure* does; the adaptive fall-back engages on churny keys and stays causally clean.
    let pocc = checked_sim(ProtocolKind::Pocc, false);
    let adaptive = checked_sim(ProtocolKind::Adaptive, false);
    let cure = checked_sim(ProtocolKind::Cure, false);

    assert_eq!(pocc.server_metrics.stable_fallback_gets, 0);
    assert_eq!(cure.server_metrics.stable_fallback_gets, 0);
    assert!(
        adaptive.server_metrics.stable_fallback_gets > 0,
        "the per-key fall-back must engage under this workload"
    );
    assert_eq!(pocc.server_metrics.old_gets, 0, "POCC reads are never old");
    assert!(
        adaptive.server_metrics.old_gets <= cure.server_metrics.old_gets,
        "adaptive must not be staler than Cure* (adaptive {} vs cure {})",
        adaptive.server_metrics.old_gets,
        cure.server_metrics.old_gets
    );
}
