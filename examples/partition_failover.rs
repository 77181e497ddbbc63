//! Availability under a network partition: plain POCC vs HA-POCC.
//!
//! The paper (§III-B) trades a little availability for freshness: a plain POCC server
//! blocks a request whose dependencies are stuck behind a network partition, and after a
//! timeout it closes the client session. HA-POCC (§IV-C, implemented in the `pocc-ha`
//! crate) detects the partition, falls back to a Cure-style pessimistic mode in which no
//! operation blocks, and promotes itself back once the partition heals.
//!
//! This example injects a WAN partition into the deterministic simulator and compares the
//! two behaviours.
//!
//! Run with (release recommended):
//! ```text
//! cargo run --release --example partition_failover
//! ```

use pocc::sim::{ChaosSchedule, ChaosStep, ProtocolKind, SimConfig, Simulation};
use pocc::types::{Config, ReplicaId};
use pocc::workload::WorkloadMix;
use std::time::Duration;

fn run(protocol: ProtocolKind) -> pocc::sim::SimReport {
    let config = SimConfig {
        protocol,
        deployment: Config::builder().num_partitions(4).build().unwrap(),
        clients_per_partition: 8,
        mix: WorkloadMix::GetPut { gets_per_put: 4 },
        keys_per_partition: 2_000,
        think_time: Duration::from_millis(10),
        warmup: Duration::from_millis(300),
        duration: Duration::from_secs(3),
        drain: Duration::from_secs(1),
        seed: 7,
        // DC0 <-> DC1 is partitioned for one second in the middle of the run.
        chaos: ChaosSchedule::new()
            .step(ChaosStep::Partition {
                at: Duration::from_millis(1_000),
                a: ReplicaId(0),
                b: ReplicaId(1),
            })
            .step(ChaosStep::Heal {
                at: Duration::from_millis(2_000),
                a: ReplicaId(0),
                b: ReplicaId(1),
            }),
        ..SimConfig::default()
    };
    Simulation::new(config).run()
}

fn main() {
    println!("injecting a 1-second partition between DC0 and DC1 (3 DCs, 4 partitions)...\n");
    let pocc = run(ProtocolKind::Pocc);
    let ha = run(ProtocolKind::HaPocc);

    println!("{:<38} {:>12} {:>12}", "metric", "POCC", "HA-POCC");
    println!("{}", "-".repeat(64));
    println!(
        "{:<38} {:>12.0} {:>12.0}",
        "throughput during the run (ops/s)", pocc.throughput_ops_per_sec, ha.throughput_ops_per_sec
    );
    println!(
        "{:<38} {:>12} {:>12}",
        "operations completed", pocc.operations_completed, ha.operations_completed
    );
    println!(
        "{:<38} {:>12} {:>12}",
        "sessions aborted + re-initialised", pocc.sessions_reinitialized, ha.sessions_reinitialized
    );
    println!(
        "{:<38} {:>12?} {:>12?}",
        "worst-case operation latency",
        pocc.latency_all.max(),
        ha.latency_all.max()
    );
    println!(
        "{:<38} {:>12.2e} {:>12.2e}",
        "blocking probability",
        pocc.server_metrics.blocking_probability(),
        ha.server_metrics.blocking_probability()
    );
    println!(
        "{:<38} {:>12} {:>12}",
        "replicas converged after heal", pocc.converged, ha.converged
    );
    println!();
    println!(
        "Plain POCC stalls requests that depend on updates stuck behind the partition and\n\
         eventually aborts those sessions; HA-POCC switches the affected servers to the\n\
         pessimistic fall-back so clients keep making progress, then recovers once the\n\
         partition heals."
    );
}
