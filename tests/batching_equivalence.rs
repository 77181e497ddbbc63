//! Batched replication is observationally equivalent to unbatched replication.
//!
//! Two flavours of evidence:
//!
//! * A hand-pumped three-DC POCC cluster driven with identical writes, batching on vs
//!   off: once traffic drains, both runs must produce byte-identical store digests and
//!   version vectors on every server. This is the strongest statement — batching only
//!   changes *when* messages travel, never what state they build.
//! * Full simulations (POCC and Cure\*) with the exact causal-consistency checker
//!   enabled and batching on: zero violations and full convergence, i.e. deferring
//!   replication by up to a tick does not break causality or convergence under a real
//!   interleaved workload.

use pocc::proto::{ClientRequest, ServerIntrospect};
use pocc::protocol::PoccServer;
use pocc::sim::reference::{Digest, SerialCluster};
use pocc::sim::{ProtocolKind, SimConfig, Simulation};
use pocc::types::{
    ClientId, Config, DependencyVector, Key, ReplicaId, ServerId, Value, VersionVector,
};
use pocc::workload::WorkloadMix;
use std::collections::HashMap;
use std::time::Duration;

/// What a server ends up with once traffic drains: its store digest plus version vector.
type ServerState = (Digest, VersionVector);

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

/// Runs a small cluster to quiescence: 24 PUTs spread over the servers, then enough ticks
/// to flush every batch and deliver every message. Returns each server's
/// `(digest, version vector)`. The cluster holds concrete `PoccServer`s because the
/// version vector is not part of the trait surface.
fn run_cluster(batching: bool) -> HashMap<ServerId, ServerState> {
    let mut cluster = SerialCluster::with_servers(deployment(batching), |id, cfg, clock| {
        Box::new(PoccServer::new(id, cfg, clock))
    });

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

    // Drain: alternate ticks (which flush batches and emit heartbeats) with message
    // delivery until the cluster is quiescent.
    for _ in 0..20 {
        cluster.tick_all();
        cluster.deliver_all();
    }

    cluster
        .servers()
        .map(|(id, s)| (id, (s.digest(), s.core().vv.clone())))
        .collect()
}

#[test]
fn batched_cluster_reaches_identical_state_as_unbatched() {
    let unbatched = run_cluster(false);
    let batched = run_cluster(true);
    assert_eq!(unbatched.len(), batched.len());
    for (id, (digest, vv)) in &unbatched {
        let (b_digest, b_vv) = &batched[id];
        assert_eq!(digest, b_digest, "store digests differ at {id}");
        assert_eq!(&vv, &b_vv, "version vectors differ at {id}");
        assert!(
            !digest.is_empty() || id.partition.index() > 1,
            "writes must have landed"
        );
    }
    // Sibling replicas converged (sanity that the pump actually replicated).
    let sample: Vec<_> = unbatched
        .iter()
        .filter(|(id, _)| id.partition.index() == 0)
        .map(|(_, (d, _))| d.clone())
        .collect();
    assert!(sample.windows(2).all(|w| w[0] == w[1]));
}

fn checked_sim(protocol: ProtocolKind, batching: bool) -> pocc::sim::SimReport {
    Simulation::new(SimConfig {
        protocol,
        deployment: deployment(batching),
        clients_per_partition: 2,
        keys_per_partition: 200,
        mix: WorkloadMix::GetPut { gets_per_put: 3 },
        think_time: Duration::from_millis(5),
        warmup: Duration::from_millis(100),
        duration: Duration::from_millis(600),
        drain: Duration::from_millis(300),
        check_consistency: true,
        seed: 7,
        ..SimConfig::default()
    })
    .run()
}

#[test]
fn batched_pocc_simulation_stays_causal_and_converges() {
    let report = checked_sim(ProtocolKind::Pocc, true);
    assert!(report.operations_completed > 0);
    assert_eq!(report.consistency_violations, 0);
    assert!(report.converged, "replicas must converge after the drain");
    assert!(
        report.server_metrics.batches_sent > 0,
        "batching must actually engage"
    );
}

#[test]
fn batched_cure_simulation_stays_causal_and_converges() {
    let report = checked_sim(ProtocolKind::Cure, true);
    assert!(report.operations_completed > 0);
    assert_eq!(report.consistency_violations, 0);
    assert!(report.converged);
    assert!(report.server_metrics.batches_sent > 0);
}

#[test]
fn batching_does_not_change_the_throughput_envelope() {
    // Same seed, same workload: batching may shift individual message timings but the
    // completed-operation count must stay in the same ballpark (closed-loop clients).
    let off = checked_sim(ProtocolKind::Pocc, false);
    let on = checked_sim(ProtocolKind::Pocc, true);
    assert_eq!(off.consistency_violations, 0);
    let ratio = on.operations_completed as f64 / off.operations_completed.max(1) as f64;
    assert!(
        (0.8..=1.25).contains(&ratio),
        "batched/unbatched completed-op ratio {ratio:.3} out of range \
         ({} vs {})",
        on.operations_completed,
        off.operations_completed
    );
    // And it must actually reduce the number of envelopes on the wire relative to the
    // number of replicated writes.
    let m = &on.server_metrics;
    assert!(m.batches_sent > 0);
    assert!(m.batches_sent < m.replicate_sent);
}
