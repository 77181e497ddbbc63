//! Differential suite: the threaded shard-parallel runtime against the deterministic
//! single-threaded drivers, for all four protocols.
//!
//! The same seeded, scripted workload — single writer per key, so the final value of
//! every key is determined by the script alone, not by timestamp races — runs through
//!
//! * the hand-pumped serial reference cluster (`pocc::sim::reference::SerialCluster`: one
//!   state machine per server, messages delivered deterministically), and
//! * a real [`Cluster`] with `worker_lanes = 4`, where every server routes operations to
//!   lane threads, which run them through the engine in batches.
//!
//! Both drivers must agree on everything the protocols promise: per-key final values,
//! store convergence across replicas, order-insensitive metric totals (operations served,
//! replication message counts, zero aborts) and a clean exact causal-consistency checker.
//! Interleavings, timestamps and latencies are allowed to differ — that is the point.
//!
//! The suite runs two topologies: the base two-replica deployment, and a three-replica
//! deployment where every server applies twice as many replicated versions as it writes
//! locally.

mod common;

use common::{assert_agree, check_outcome, run_cluster, run_serial, Op, Outcome, PARTITIONS};
use pocc::prelude::*;
use std::time::Duration;

const BASE_REPLICAS: usize = 2;
const MULTI_REPLICAS: usize = 3;

fn scripts() -> Vec<Vec<Op>> {
    common::scripts(0x9e37_79b9_7f4a_7c15, 0xd130_2b97_9af5_2857, 16, 60)
}

fn config(replicas: usize) -> Config {
    Config::builder()
        .num_replicas(replicas)
        .num_partitions(PARTITIONS)
        .storage_shards(4)
        .latency(LatencyMatrix::uniform(
            replicas,
            Duration::from_micros(50),
            Duration::from_millis(2),
        ))
        .build()
        .unwrap()
}

fn run_parallel(
    protocol: ProtocolKind,
    scripts: &[Vec<Op>],
    lanes: usize,
    replicas: usize,
) -> Outcome {
    let builder = Cluster::builder()
        .config(Config {
            worker_lanes: lanes,
            ..config(replicas)
        })
        .protocol(protocol);
    run_cluster(builder, scripts)
}

#[test]
fn serial_and_parallel_drivers_agree_for_every_protocol() {
    let scripts = scripts();
    for protocol in ProtocolKind::ALL {
        let serial = run_serial(protocol, &scripts, config(BASE_REPLICAS));
        check_outcome(
            &format!("serial {protocol:?}"),
            &serial,
            &scripts,
            BASE_REPLICAS,
        );

        let parallel = run_parallel(protocol, &scripts, 4, BASE_REPLICAS);
        check_outcome(
            &format!("parallel {protocol:?}"),
            &parallel,
            &scripts,
            BASE_REPLICAS,
        );

        assert_agree(&format!("{protocol:?}"), &serial, &parallel);
    }
}

#[test]
fn parallel_runtime_is_clean_at_every_lane_count() {
    let scripts = scripts();
    for lanes in [1, 2, 4] {
        let outcome = run_parallel(ProtocolKind::Pocc, &scripts, lanes, BASE_REPLICAS);
        check_outcome(
            &format!("POCC lanes={lanes}"),
            &outcome,
            &scripts,
            BASE_REPLICAS,
        );
    }
}

/// The replication-heavy differential test: a three-replica topology, where every
/// server applies twice as many replicated versions as it writes locally, pinned against
/// the serial driver for all four protocols at every lane count.
#[test]
fn multi_replica_topology_matches_the_serial_driver() {
    let scripts = scripts();
    for protocol in ProtocolKind::ALL {
        let serial = run_serial(protocol, &scripts, config(MULTI_REPLICAS));
        check_outcome(
            &format!("serial {protocol:?} x{MULTI_REPLICAS}"),
            &serial,
            &scripts,
            MULTI_REPLICAS,
        );

        for lanes in [1, 2, 4] {
            let label = format!("{protocol:?} x{MULTI_REPLICAS} lanes={lanes}");
            let parallel = run_parallel(protocol, &scripts, lanes, MULTI_REPLICAS);
            check_outcome(
                &format!("parallel {label}"),
                &parallel,
                &scripts,
                MULTI_REPLICAS,
            );
            assert_agree(&label, &serial, &parallel);
        }
    }
}
