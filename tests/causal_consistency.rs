//! Whole-system causal-consistency tests.
//!
//! Every test runs a complete simulated deployment (several data centers, partitions and
//! closed-loop clients) with the *exact* consistency checker enabled: each returned value
//! is validated against the true causal history, independently of the protocol's own
//! dependency metadata, and replicas must converge once traffic drains.

use pocc::sim::{ProtocolKind, SimConfig, Simulation};
use pocc::types::Config;
use pocc::workload::WorkloadMix;
use std::time::Duration;

fn four_partitions() -> Config {
    Config::builder().num_partitions(4).build().unwrap()
}

fn base(protocol: ProtocolKind, seed: u64) -> SimConfig {
    SimConfig {
        protocol,
        deployment: four_partitions(),
        clients_per_partition: 3,
        keys_per_partition: 200,
        think_time: Duration::from_millis(5),
        warmup: Duration::from_millis(100),
        duration: Duration::from_millis(600),
        drain: Duration::from_millis(500),
        check_consistency: true,
        seed,
        ..SimConfig::default()
    }
}

fn assert_clean(report: &pocc::sim::SimReport) {
    assert!(
        report.operations_completed > 100,
        "the run must do real work: {}",
        report.summary()
    );
    assert_eq!(
        report.consistency_violations,
        0,
        "causal consistency violated: {}",
        report.summary()
    );
    assert!(
        report.converged,
        "replicas did not converge after draining: {}",
        report.summary()
    );
}

#[test]
fn pocc_get_put_workload_is_causally_consistent_across_seeds() {
    for seed in [1, 2, 3] {
        let report = Simulation::new(SimConfig {
            mix: WorkloadMix::GetPut { gets_per_put: 4 },
            ..base(ProtocolKind::Pocc, seed)
        })
        .run();
        assert_clean(&report);
    }
}

#[test]
fn cure_get_put_workload_is_causally_consistent_across_seeds() {
    for seed in [1, 2, 3] {
        let report = Simulation::new(SimConfig {
            mix: WorkloadMix::GetPut { gets_per_put: 4 },
            ..base(ProtocolKind::Cure, seed)
        })
        .run();
        assert_clean(&report);
    }
}

#[test]
fn pocc_transactional_workload_returns_causal_snapshots() {
    let report = Simulation::new(SimConfig {
        mix: WorkloadMix::TxPut {
            partitions_per_tx: 4,
        },
        ..base(ProtocolKind::Pocc, 11)
    })
    .run();
    assert_clean(&report);
    assert!(report.rotx_completed > 50);
}

#[test]
fn cure_transactional_workload_returns_causal_snapshots() {
    let report = Simulation::new(SimConfig {
        mix: WorkloadMix::TxPut {
            partitions_per_tx: 4,
        },
        ..base(ProtocolKind::Cure, 11)
    })
    .run();
    assert_clean(&report);
    assert!(report.rotx_completed > 50);
}

#[test]
fn ha_pocc_behaves_like_pocc_during_normal_operation() {
    let report = Simulation::new(SimConfig {
        mix: WorkloadMix::GetPut { gets_per_put: 4 },
        ..base(ProtocolKind::HaPocc, 5)
    })
    .run();
    assert_clean(&report);
    // Without partitions the optimistic path serves everything: no sessions are aborted.
    assert_eq!(report.sessions_reinitialized, 0);
}

#[test]
fn write_heavy_workload_stays_consistent() {
    // 1:1 GET:PUT is the most write-intensive point of Figure 1c and the most likely to
    // expose ordering bugs in replication and visibility.
    for protocol in [ProtocolKind::Pocc, ProtocolKind::Cure] {
        let report = Simulation::new(SimConfig {
            mix: WorkloadMix::GetPut { gets_per_put: 1 },
            ..base(protocol, 23)
        })
        .run();
        assert_clean(&report);
        assert!(report.puts_completed > 100);
    }
}

#[test]
fn pocc_never_returns_old_data_on_gets_while_cure_does_under_load() {
    let run = |protocol| {
        Simulation::new(SimConfig {
            protocol,
            deployment: four_partitions(),
            clients_per_partition: 12,
            keys_per_partition: 100, // small + zipfian: heavy key contention
            mix: WorkloadMix::GetPut { gets_per_put: 2 },
            think_time: Duration::from_millis(2),
            warmup: Duration::from_millis(200),
            duration: Duration::from_secs(1),
            drain: Duration::from_millis(400),
            seed: 9,
            ..SimConfig::default()
        })
        .run()
    };
    let pocc = run(ProtocolKind::Pocc);
    let cure = run(ProtocolKind::Cure);
    // The defining freshness claim of the paper: POCC GETs always return the freshest
    // received version, so they are never "old"; the pessimistic baseline returns old data
    // whenever stabilization lags replication.
    assert_eq!(pocc.server_metrics.old_gets, 0);
    assert!(
        cure.server_metrics.old_gets > 0,
        "Cure* should observe stale reads under this contended workload"
    );
    // And conversely, only POCC ever blocks.
    assert_eq!(cure.server_metrics.blocked_operations, 0);
}

#[test]
fn clock_skew_does_not_break_consistency() {
    // Strongly skewed clocks (5 ms >> the 500 µs default) slow POCC down but must never
    // produce a consistency violation — the paper's correctness argument is skew-free.
    for protocol in [ProtocolKind::Pocc, ProtocolKind::Cure] {
        let report = Simulation::new(SimConfig {
            max_clock_skew: Duration::from_millis(5),
            drain: Duration::from_millis(600),
            ..base(protocol, 31)
        })
        .run();
        assert_clean(&report);
    }
}
