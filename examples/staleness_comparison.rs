//! Freshness/staleness head-to-head: POCC vs Cure\* on the same simulated deployment.
//!
//! This is a miniature of the paper's Figure 2: it runs the identical workload through
//! both protocols in the deterministic simulator and prints throughput, response time,
//! POCC's blocking behaviour and Cure\*'s staleness side by side.
//!
//! Run with (release strongly recommended):
//! ```text
//! cargo run --release --example staleness_comparison
//! ```

use pocc::sim::{ProtocolKind, SimConfig, Simulation};
use pocc::types::Config;
use pocc::workload::WorkloadMix;
use std::time::Duration;

fn run(protocol: ProtocolKind) -> pocc::sim::SimReport {
    let config = SimConfig {
        protocol,
        deployment: Config::builder().num_partitions(8).build().unwrap(),
        clients_per_partition: 24,
        mix: WorkloadMix::GetPut { gets_per_put: 8 },
        keys_per_partition: 10_000,
        think_time: Duration::from_millis(10),
        warmup: Duration::from_millis(500),
        duration: Duration::from_secs(2),
        drain: Duration::from_millis(300),
        seed: 42,
        ..SimConfig::default()
    };
    Simulation::new(config).run()
}

fn main() {
    println!("simulating the same 3-DC, 8-partition, 8:1 GET:PUT workload on both systems...\n");
    let pocc = run(ProtocolKind::Pocc);
    let cure = run(ProtocolKind::Cure);

    println!("{:<34} {:>14} {:>14}", "metric", "POCC", "Cure*");
    println!("{}", "-".repeat(64));
    println!(
        "{:<34} {:>14.0} {:>14.0}",
        "throughput (ops/s)", pocc.throughput_ops_per_sec, cure.throughput_ops_per_sec
    );
    println!(
        "{:<34} {:>14?} {:>14?}",
        "avg GET latency",
        pocc.latency_get.mean(),
        cure.latency_get.mean()
    );
    println!(
        "{:<34} {:>14.2e} {:>14.2e}",
        "blocking probability",
        pocc.server_metrics.blocking_probability(),
        cure.server_metrics.blocking_probability()
    );
    println!(
        "{:<34} {:>14?} {:>14?}",
        "avg blocking time",
        pocc.server_metrics.avg_block_time(),
        cure.server_metrics.avg_block_time()
    );
    println!(
        "{:<34} {:>13.3}% {:>13.3}%",
        "GETs returning stale (old) data",
        pocc.server_metrics.old_get_fraction() * 100.0,
        cure.server_metrics.old_get_fraction() * 100.0
    );
    println!(
        "{:<34} {:>13.3}% {:>13.3}%",
        "GETs observing unmerged items",
        pocc.server_metrics.unmerged_get_fraction() * 100.0,
        cure.server_metrics.unmerged_get_fraction() * 100.0
    );
    println!(
        "{:<34} {:>14} {:>14}",
        "stabilization messages",
        pocc.server_metrics.stabilization_messages,
        cure.server_metrics.stabilization_messages
    );
    println!();
    println!(
        "POCC always returns the freshest received version (0% old GETs) at the cost of a\n\
         tiny blocking probability; Cure* never blocks but returns stale data whenever the\n\
         stabilization protocol lags behind replication."
    );
}
