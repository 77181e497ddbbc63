//! # POCC — Optimistic Causal Consistency for geo-replicated key-value stores
//!
//! A from-scratch Rust reproduction of *"Optimistic Causal Consistency for Geo-Replicated
//! Key-Value Stores"* (Spirovska, Didona, Zwaenepoel — ICDCS 2017), packaged as a facade
//! crate re-exporting the whole workspace:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`types`] | `pocc-types` | Ids, timestamps, version/dependency vectors, item versions, configuration |
//! | [`clock`] | `pocc-clock` | Physical clock abstractions (real, simulated, skewed, monotonic) |
//! | [`storage`] | `pocc-storage` | Multi-version store: version chains, visibility, garbage collection |
//! | [`proto`] | `pocc-proto` | Wire messages, binary codec, the sans-IO server/client API |
//! | [`engine`] | `pocc-engine` | The shared protocol engine: replication/heartbeat/GC/transaction machinery behind pluggable visibility policies |
//! | [`protocol`] | `pocc-protocol` | **POCC** — the paper's optimistic protocol (Algorithms 1 & 2) |
//! | [`cure`] | `pocc-cure` | **Cure\*** — the pessimistic baseline (GSS stabilization) |
//! | [`ha`] | `pocc-ha` | **HA-POCC** — partition detection, pessimistic fall-back, recovery |
//! | [`adaptive`] | `pocc-adaptive` | **Adaptive-POCC** — per-key optimism with a GSS-stable fall-back under remote churn |
//! | [`net`] | `pocc-net` | Simulated geo network: latency model, FIFO links, partition injection |
//! | [`workload`] | `pocc-workload` | Zipfian key choice, GET:PUT and transactional mixes |
//! | [`sim`] | `pocc-sim` | Deterministic discrete-event simulator (regenerates the paper's figures) |
//! | [`exec`] | `pocc-exec` | Threaded server runtime (worker lanes over one spine-locked engine) |
//! | [`runtime`] | `pocc-runtime` | Threaded in-process cluster with synchronous client handles |
//!
//! ## Quick start
//!
//! Run a live, multi-threaded three-data-center cluster on your machine:
//!
//! ```
//! use pocc::prelude::*;
//!
//! let cluster = Cluster::builder().protocol(ProtocolKind::Pocc).start();
//! let mut client = cluster.client(ReplicaId(0));
//! client.put(Key(1), Value::from("hello, geo-replication")).unwrap();
//! assert!(client.get(Key(1)).unwrap().is_some());
//! cluster.shutdown();
//! ```
//!
//! Every server runs the engine of the [`exec`] crate on its own thread. Pass a
//! configuration with `worker_lanes: 4` to `.config(..)` to give each one four worker-lane
//! threads: client operations are then key-hash routed to the lanes, which run them
//! through the engine in batches (see the [`exec`] crate docs for the model).
//!
//! Or reproduce a point of the paper's evaluation with the simulator:
//!
//! ```
//! use pocc::sim::{ProtocolKind, SimConfig, Simulation};
//! use pocc::types::Config;
//! use std::time::Duration;
//!
//! let report = Simulation::new(SimConfig {
//!     protocol: ProtocolKind::Pocc,
//!     deployment: Config::builder().num_partitions(4).build().unwrap(),
//!     clients_per_partition: 2,
//!     duration: Duration::from_millis(300),
//!     ..SimConfig::default()
//! })
//! .run();
//! println!("{}", report.summary());
//! ```
//!
//! See `examples/` for complete scenarios and `crates/bench` for the scenario-driven
//! benchmark harness (`runner --list` shows the registry).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use pocc_adaptive as adaptive;
pub use pocc_clock as clock;
pub use pocc_cure as cure;
pub use pocc_engine as engine;
pub use pocc_exec as exec;
pub use pocc_ha as ha;
pub use pocc_net as net;
pub use pocc_proto as proto;
pub use pocc_protocol as protocol;
pub use pocc_runtime as runtime;
pub use pocc_sim as sim;
pub use pocc_storage as storage;
pub use pocc_types as types;
pub use pocc_workload as workload;

pub use pocc_adaptive::AdaptiveServer;
pub use pocc_cure::CureServer;
pub use pocc_engine::{EngineCore, ProtocolEngine, VisibilityPolicy};
pub use pocc_exec::{ParallelServer, ProtocolKind};
pub use pocc_ha::HaPoccServer;
pub use pocc_proto::{InstrumentedServer, ProtocolClient, ProtocolServer, ServerIntrospect};
pub use pocc_protocol::{Client, PoccServer};
pub use pocc_runtime::{Cluster, ClusterBuilder, ClusterClient, ServerProbe, TransportKind};
pub use pocc_sim::{SimConfig, SimReport, Simulation};
pub use pocc_types::{Config, Key, ReplicaId, Timestamp, Value};

/// One-stop imports for applications, examples and benchmarks: the cluster builder and
/// client handles, protocol selection, the deployment configuration and its builder,
/// the simulator entry points and the common value types.
pub mod prelude {
    pub use pocc_exec::{OutputSink, ParallelServer, ProtocolKind};
    pub use pocc_proto::{InstrumentedServer, ProtocolClient, ProtocolServer, ServerIntrospect};
    pub use pocc_runtime::{Cluster, ClusterBuilder, ClusterClient, ServerProbe, TransportKind};
    pub use pocc_sim::{SimConfig, SimReport, Simulation};
    pub use pocc_types::{
        ClientId, Config, ConfigBuilder, DependencyVector, Key, LatencyMatrix, PartitionId,
        ReplicaId, ServerId, Timestamp, Value, VersionVector,
    };
}
