//! Differential suite: the pluggable transports against the deterministic serial model,
//! for all four protocols.
//!
//! The same seeded, scripted workload — single writer per key, so the final value of
//! every key is determined by the script alone, not by timestamp races — runs through
//!
//! * the hand-pumped serial reference cluster (`pocc::sim::reference::SerialCluster`: one
//!   state machine per server, messages delivered deterministically),
//! * a real [`Cluster`] on the **channel transport** (threads and in-process queues with
//!   emulated WAN delays), and
//! * a real [`Cluster`] on the **TCP transport** (real localhost sockets, length-prefixed
//!   codec frames, per-connection write coalescing), and
//! * the same TCP cluster with `worker_lanes = 2`, where lanes stage replies and
//!   replication on the sockets and flush them once per batch.
//!
//! All four must agree on everything the protocols promise: per-key final values, store
//! convergence across replicas, order-insensitive metric totals and a clean exact causal
//! checker. Interleavings, timestamps and latencies are allowed to differ — that is the
//! point. The channel/TCP agreement in particular pins the socket path's framing, write
//! batching and flush ordering to the in-process semantics.

mod common;

use common::{assert_agree, check_outcome, run_cluster, run_serial, PARTITIONS};
use pocc::prelude::*;
use std::time::Duration;

const REPLICAS: usize = 2;

fn config() -> Config {
    Config::builder()
        .num_replicas(REPLICAS)
        .num_partitions(PARTITIONS)
        .latency(LatencyMatrix::uniform(
            REPLICAS,
            Duration::from_micros(50),
            Duration::from_millis(2),
        ))
        .build()
        .unwrap()
}

#[test]
fn serial_channel_and_tcp_agree_for_every_protocol() {
    let scripts = common::scripts(0xd130_2b97_9af5_2857, 0x9e37_79b9_7f4a_7c15, 12, 40);
    let on = |protocol, transport, worker_lanes| {
        Cluster::builder()
            .config(Config {
                worker_lanes,
                ..config()
            })
            .protocol(protocol)
            .transport(transport)
    };
    for protocol in ProtocolKind::ALL {
        let serial = run_serial(protocol, &scripts, config());
        check_outcome(&format!("serial {protocol:?}"), &serial, &scripts, REPLICAS);

        let channel = run_cluster(on(protocol, TransportKind::Channel, 1), &scripts);
        check_outcome(
            &format!("channel {protocol:?}"),
            &channel,
            &scripts,
            REPLICAS,
        );

        assert_agree(&format!("{protocol:?} serial/channel"), &serial, &channel);
        for lanes in [1, 2] {
            let label = format!("{protocol:?} tcp lanes={lanes}");
            let tcp = run_cluster(on(protocol, TransportKind::Tcp, lanes), &scripts);
            check_outcome(&label, &tcp, &scripts, REPLICAS);
            assert_agree(&label, &channel, &tcp);
        }
    }
}
