//! Behaviour under injected network partitions (the availability trade-off of §III-B).

use pocc::sim::{ChaosSchedule, ChaosStep, ProtocolKind, SimConfig, Simulation};
use pocc::types::ReplicaId;
use pocc::workload::WorkloadMix;
use std::time::Duration;

const GET_PUT: WorkloadMix = WorkloadMix::GetPut { gets_per_put: 3 };

fn partitioned_run(protocol: ProtocolKind, mix: WorkloadMix, heal: bool) -> pocc::sim::SimReport {
    // A detection timeout well below the partition duration, so that plain POCC actually
    // reaches the "close the session" phase of the recovery procedure during the test.
    let deployment = pocc::types::Config::builder()
        .num_replicas(3)
        .num_partitions(3)
        .partition_detection_timeout(Duration::from_millis(400))
        .build()
        .unwrap();
    let mut chaos = ChaosSchedule::new().step(ChaosStep::Partition {
        at: Duration::from_millis(800),
        a: ReplicaId(0),
        b: ReplicaId(1),
    });
    if heal {
        chaos = chaos.step(ChaosStep::Heal {
            at: Duration::from_millis(2_000),
            a: ReplicaId(0),
            b: ReplicaId(1),
        });
    }
    Simulation::new(SimConfig {
        protocol,
        deployment,
        clients_per_partition: 4,
        keys_per_partition: 200,
        mix,
        think_time: Duration::from_millis(5),
        warmup: Duration::from_millis(100),
        duration: Duration::from_secs(3),
        drain: Duration::from_secs(1),
        check_consistency: true,
        seed: 77,
        chaos,
        ..SimConfig::default()
    })
    .run()
}

#[test]
fn pocc_stays_consistent_through_a_partition_and_heal() {
    let report = partitioned_run(ProtocolKind::Pocc, GET_PUT, true);
    assert_eq!(report.consistency_violations, 0);
    // The lossless network re-delivers held traffic after the heal, so replicas converge.
    assert!(report.converged, "replicas must converge after the heal");
    assert!(report.operations_completed > 200);
}

#[test]
fn pocc_aborts_blocked_sessions_during_a_partition() {
    let report = partitioned_run(ProtocolKind::Pocc, GET_PUT, true);
    // Some clients depended on updates stuck behind the partition; their requests blocked
    // past the detection timeout and their sessions were closed (§III-B phase 1).
    assert!(
        report.sessions_reinitialized > 0,
        "expected at least one session abort during the partition"
    );
    assert!(report.server_metrics.sessions_aborted > 0);
}

#[test]
fn ha_pocc_keeps_serving_without_blocking_anomalies_during_a_partition() {
    let pocc = partitioned_run(ProtocolKind::Pocc, GET_PUT, true);
    let ha = partitioned_run(ProtocolKind::HaPocc, GET_PUT, true);
    assert_eq!(ha.consistency_violations, 0);
    assert!(ha.converged);
    // The fall-back removes the long dependency stalls, so the worst-case latency during
    // the partition is far smaller than plain POCC's (which waits until the detection
    // timeout fires).
    assert!(
        ha.latency_all.max() < pocc.latency_all.max(),
        "HA-POCC worst-case latency {:?} should be below plain POCC's {:?}",
        ha.latency_all.max(),
        pocc.latency_all.max()
    );
}

#[test]
fn ha_pocc_transactions_complete_through_the_fall_back() {
    let mix = WorkloadMix::TxPut {
        partitions_per_tx: 2,
    };
    let report = partitioned_run(ProtocolKind::HaPocc, mix, true);
    assert_eq!(report.consistency_violations, 0);
    assert!(report.converged);
    assert!(report.rotx_completed > 0);
    // The fall-back ran: sessions that predate it were closed on first contact.
    assert!(report.sessions_reinitialized > 0);
}

#[test]
fn cure_is_unaffected_by_partitions_apart_from_staleness() {
    let report = partitioned_run(ProtocolKind::Cure, GET_PUT, true);
    assert_eq!(report.consistency_violations, 0);
    assert!(report.converged);
    // The pessimistic protocol never blocks client operations, partition or not.
    assert_eq!(report.server_metrics.blocked_operations, 0);
    assert_eq!(report.sessions_reinitialized, 0);
}

#[test]
fn unhealed_partition_prevents_convergence_but_not_safety() {
    let report = partitioned_run(ProtocolKind::Pocc, GET_PUT, false);
    assert_eq!(report.consistency_violations, 0);
    // Updates held on the partitioned link were never delivered, so replicas of the same
    // partition legitimately diverge (the "lost update" discussion of §III-B).
    assert!(
        !report.converged,
        "replicas cannot converge while the partition persists"
    );
    assert!(report.network.held_messages > 0);
}
