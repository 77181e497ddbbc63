//! Whole-system chaos tests: scripted and generated fault schedules under the exact
//! causal checker.
//!
//! Each test runs a full simulated deployment with a [`pocc::sim::ChaosSchedule`] —
//! partitions and heals, lag spikes, drop/duplication windows for idempotent periodic
//! traffic, and whole-DC restarts — while the exact checker validates every returned
//! value against the true causal history. Every schedule is fully over before the drain
//! starts, so the convergence assertion stays meaningful: whatever the chaos did, the
//! replicas must agree once traffic quiesces.
//!
//! The `chaos_*` scenarios of the benchmark registry reuse the same machinery (and the
//! digest corpus pins their exact behaviour); these tests keep the assertions explicit
//! and independent of the bench harness.

use pocc::sim::{ChaosGen, ChaosSchedule, ChaosStep, ProtocolKind, SimConfig, Simulation};
use pocc::types::{Config, ReplicaId};
use pocc::workload::WorkloadMix;
use std::time::Duration;

const WARMUP: Duration = Duration::from_millis(100);
const DURATION: Duration = Duration::from_millis(500);
const DRAIN: Duration = Duration::from_millis(500);

fn base(protocol: ProtocolKind, seed: u64, chaos: ChaosSchedule) -> SimConfig {
    SimConfig {
        protocol,
        deployment: Config::builder().num_partitions(2).build().unwrap(),
        clients_per_partition: 3,
        keys_per_partition: 100,
        mix: WorkloadMix::GetPut { gets_per_put: 3 },
        think_time: Duration::from_millis(5),
        warmup: WARMUP,
        duration: DURATION,
        drain: DRAIN,
        check_consistency: true,
        seed,
        chaos,
        ..SimConfig::default()
    }
}

fn assert_clean(label: &str, report: &pocc::sim::SimReport) {
    assert!(
        report.operations_completed > 100,
        "{label}: the run must do real work: {}",
        report.operations_completed
    );
    assert_eq!(
        report.consistency_violations, 0,
        "{label}: causal violations under chaos"
    );
    assert!(report.converged, "{label}: replicas did not converge");
}

#[test]
fn scripted_mixed_schedule_is_checker_clean_on_every_protocol() {
    let schedule = ChaosSchedule::new()
        .step(ChaosStep::Partition {
            at: WARMUP + Duration::from_millis(50),
            a: ReplicaId(0),
            b: ReplicaId(1),
        })
        .step(ChaosStep::Heal {
            at: WARMUP + Duration::from_millis(200),
            a: ReplicaId(0),
            b: ReplicaId(1),
        })
        .step(ChaosStep::LagSpike {
            at: WARMUP + Duration::from_millis(150),
            until: WARMUP + Duration::from_millis(350),
            a: ReplicaId(0),
            b: ReplicaId(2),
            extra: Duration::from_millis(40),
        })
        .step(ChaosStep::DropWindow {
            at: WARMUP + Duration::from_millis(250),
            until: WARMUP + Duration::from_millis(400),
            a: ReplicaId(1),
            b: ReplicaId(2),
        })
        .step(ChaosStep::DupWindow {
            at: WARMUP + Duration::from_millis(400),
            until: WARMUP + DURATION,
            a: ReplicaId(0),
            b: ReplicaId(1),
        });
    assert!(schedule.ends_by(WARMUP + DURATION));
    for protocol in ProtocolKind::ALL {
        let report = Simulation::new(base(protocol, 7, schedule.clone())).run();
        assert_clean(&format!("{protocol:?}/scripted"), &report);
    }
}

#[test]
fn generated_storms_are_checker_clean_and_reproducible() {
    for seed in [1, 2, 3] {
        let schedule = ChaosGen::new(seed, 3).sample(WARMUP, WARMUP + DURATION, 5);
        assert!(
            schedule.ends_by(WARMUP + DURATION),
            "seed {seed}: generated schedules must end inside their window"
        );
        // The generator is deterministic: same seed, same schedule.
        assert_eq!(
            schedule,
            ChaosGen::new(seed, 3).sample(WARMUP, WARMUP + DURATION, 5),
            "seed {seed}"
        );
        for protocol in [ProtocolKind::Pocc, ProtocolKind::Cure] {
            let config = base(protocol, seed, schedule.clone());
            let report = Simulation::new(config.clone()).run();
            assert_clean(&format!("{protocol:?}/storm{seed}"), &report);
            // Chaos runs replay byte-identically, so they stay regression-testable.
            let replay = Simulation::new(config).run();
            assert_eq!(
                report.operations_completed, replay.operations_completed,
                "seed {seed}: chaos replays must be deterministic"
            );
        }
    }
}

#[test]
fn whole_dc_restart_retains_state_and_recovers() {
    let schedule = ChaosSchedule::new().step(ChaosStep::Restart {
        at: WARMUP + Duration::from_millis(100),
        replica: ReplicaId(1),
        outage: Duration::from_millis(80),
    });
    for protocol in [ProtocolKind::HaPocc, ProtocolKind::Adaptive] {
        let report = Simulation::new(base(protocol, 13, schedule.clone())).run();
        assert_clean(&format!("{protocol:?}/restart"), &report);
    }
}
