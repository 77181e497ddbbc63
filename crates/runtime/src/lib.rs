//! An in-process, multi-threaded cluster runtime.
//!
//! `pocc-runtime` runs the very same protocol state machines as the discrete-event
//! simulator, but on real operating-system threads connected by channels: one thread per
//! server (`M` data centers × `N` partitions), a network thread that injects configurable
//! wide-area delays between data centers, and synchronous client handles that applications
//! call like an ordinary key-value store client library.
//!
//! This is the "local multi-node deployment" mode: it demonstrates the system end-to-end
//! in real time (the examples use it) and provides a second, independent driver for the
//! protocol code (the integration tests run the same workloads through it). The wire is
//! pluggable via [`TransportKind`]: the default in-process channel transport moves
//! messages between threads with emulated WAN delays, and the TCP transport runs the very
//! same servers behind real localhost sockets with length-prefixed codec frames, serving
//! both [`ClusterClient`] handles and external load generators.
//!
//! # Example
//!
//! ```
//! use pocc_runtime::{Cluster, ProtocolKind};
//! use pocc_types::{Config, Key, ReplicaId, Value};
//! use std::time::Duration;
//!
//! let config = Config::builder()
//!     .num_replicas(2)
//!     .num_partitions(2)
//!     .latency(pocc_types::LatencyMatrix::uniform(
//!         2,
//!         Duration::from_micros(100),
//!         Duration::from_millis(5),
//!     ))
//!     .build()
//!     .unwrap();
//! let cluster = Cluster::builder()
//!     .config(config)
//!     .protocol(ProtocolKind::Pocc)
//!     .start();
//! let mut client = cluster.client(ReplicaId(0));
//! client.put(Key(1), Value::from("hello")).unwrap();
//! assert_eq!(
//!     client.get(Key(1)).unwrap().unwrap().as_slice(),
//!     b"hello"
//! );
//! cluster.shutdown();
//! ```
//!
//! Every server is a `pocc-exec` `ParallelServer` with a thread of its own, which only
//! ticks it. Traffic runs on the server on whichever thread delivers it, which then
//! flushes, on both transports: the TCP connection reader that decoded it, or, on
//! channels, the submitting client, a thread flushing the sending or the receiving
//! server, or the delay thread. A probe reads the server on the probing thread. At the
//! default `Config::worker_lanes = 1` the engine runs in place on the delivering thread;
//! above 1, client operations are key-hash routed to worker-lane threads, which run them
//! through the engine in batches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod cluster;

pub use client::ClusterClient;
pub use cluster::{Cluster, ClusterBuilder, ServerProbe};
pub use pocc_exec::ProtocolKind;
/// The name `benchmark/` (frozen by `BENCHMARK.json`) imports [`ProtocolKind`] under.
pub use pocc_exec::ProtocolKind as RuntimeProtocol;
pub use pocc_net::transport::{ClientPort, TransportKind};

/// How a running cluster routes traffic: client requests to the servers the transport
/// names, replies back to the ports that are still open, and peer messages within a
/// data center directly and across data centers after the WAN delay. The cluster's one
/// `EventSink` and each server's output sink do this routing; these tests drive it end
/// to end.
#[cfg(test)]
mod router {
    mod tests {
        use crate::cluster::server_for_key;
        use crate::{Cluster, ProtocolKind, TransportKind};
        use pocc_proto::{ClientReply, ClientRequest};
        use pocc_types::{
            Config, DependencyVector, Key, LatencyMatrix, ReplicaId, ServerId, Value,
        };
        use std::collections::BTreeSet;
        use std::time::{Duration, Instant};

        /// Two data centers of two partitions, `wan` apart, that never tick.
        fn config(wan: Duration) -> Config {
            Config::builder()
                .num_replicas(2)
                .num_partitions(2)
                .heartbeat_interval(Duration::from_secs(3600))
                .latency(LatencyMatrix::uniform(2, Duration::from_micros(10), wan))
                .build()
                .unwrap()
        }

        fn get(key: Key) -> ClientRequest {
            ClientRequest::Get {
                key,
                rdv: DependencyVector::zero(2),
            }
        }

        #[test]
        fn client_replies_route_to_open_ports_only() {
            for transport in TransportKind::all() {
                let context = transport.name();
                let cluster = Cluster::builder()
                    .config(Config {
                        worker_lanes: 2,
                        ..config(Duration::from_millis(20))
                    })
                    .protocol(ProtocolKind::Pocc)
                    .transport(*transport)
                    .start();
                let server = server_for_key(cluster.config(), ReplicaId(0), Key(1));
                let (_, mut first) = cluster.open_port();
                let (_, mut second) = cluster.open_port();
                // A port closed before its reply comes back: the reply is dropped.
                let (_, mut closed) = cluster.open_port();
                closed.submit(server, get(Key(1))).unwrap();
                closed.flush().unwrap();
                drop(closed);

                first.submit(server, get(Key(1))).unwrap();
                second.submit(server, get(Key(1))).unwrap();
                second.submit(server, get(Key(1))).unwrap();
                for (port, replies) in [(&mut first, 1), (&mut second, 2)] {
                    for _ in 0..replies {
                        let reply = port.recv_timeout(Duration::from_secs(2)).unwrap();
                        assert!(matches!(reply, ClientReply::Get(_)), "{context}: {reply:?}");
                    }
                    assert!(
                        port.recv_timeout(Duration::from_millis(20)).is_err(),
                        "{context}: a port received a reply addressed to another"
                    );
                }
                cluster.shutdown();
            }
        }

        #[test]
        fn intra_dc_messages_deliver_directly() {
            // A transaction over both partitions needs a slice request and its response
            // between the two servers of the data center. No tick fires and the WAN
            // delay outlasts the client's timeout, so the transaction completes only if
            // the delivering threads flush both messages to their peer within the data
            // center, at its own latency rather than the WAN's.
            let cluster = Cluster::builder()
                .config(config(Duration::from_secs(30)))
                .protocol(ProtocolKind::Pocc)
                .start();
            let keys: Vec<Key> = (0..8).map(Key).collect();
            let servers: BTreeSet<ServerId> = keys
                .iter()
                .map(|k| server_for_key(cluster.config(), ReplicaId(0), *k))
                .collect();
            assert_eq!(servers.len(), 2, "the keys span both partitions");
            let mut client = cluster.client(ReplicaId(0));
            let items = client.ro_tx(keys.clone()).unwrap();
            assert_eq!(items.len(), keys.len());
            assert!(items.iter().all(|(_, v)| v.is_none()));
            cluster.shutdown();
        }

        #[test]
        fn cross_dc_messages_arrive_delayed() {
            let wan = Duration::from_millis(20);
            let cluster = Cluster::builder()
                .config(config(wan))
                .protocol(ProtocolKind::Pocc)
                .start();
            let mut writer = cluster.client(ReplicaId(0));
            let mut reader = cluster.client(ReplicaId(1));
            let sent = Instant::now();
            writer.put(Key(3), Value::from("far")).unwrap();
            // Whenever the replicated PUT shows up in the other data center, it has
            // spent the WAN delay on the way.
            while reader.get(Key(3)).unwrap().is_none() {
                assert!(
                    sent.elapsed() < Duration::from_secs(2),
                    "the PUT never reached the other data center"
                );
                std::thread::sleep(Duration::from_micros(200));
            }
            assert!(sent.elapsed() >= wan, "arrived after {:?}", sent.elapsed());
            cluster.shutdown();
        }

        #[test]
        fn channel_transport_has_no_socket_addresses() {
            let cluster = Cluster::builder()
                .config(config(Duration::from_millis(20)))
                .protocol(ProtocolKind::Pocc)
                .transport(TransportKind::Channel)
                .start();
            for server in cluster.config().servers() {
                assert!(cluster.server_addr(server).is_none(), "{server}");
            }
            cluster.shutdown();
        }
    }
}
