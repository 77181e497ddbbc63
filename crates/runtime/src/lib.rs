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
//! Every server thread runs one loop in front of a `pocc-exec` `ParallelServer`. At the
//! default `Config::worker_lanes = 1` that server runs the engine in place on the server
//! thread; above 1, client operations are key-hash routed to worker-lane threads, which
//! run them through the engine in batches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod cluster;
mod router;

pub use client::ClusterClient;
pub use cluster::{Cluster, ClusterBuilder, ServerProbe};
pub use pocc_exec::ProtocolKind;
/// The name `benchmark/` (frozen by `BENCHMARK.json`) imports [`ProtocolKind`] under.
pub use pocc_exec::ProtocolKind as RuntimeProtocol;
pub use pocc_net::transport::{ClientPort, TransportKind};
pub use router::Router;
