//! A deterministic discrete-event simulator of geo-replicated POCC / Cure\* deployments.
//!
//! This crate is the substitute for the paper's AWS test-bed (see ARCHITECTURE.md,
//! *Sans-IO state machines*): it builds a full deployment — `M` data centers × `N`
//! partitions, closed-loop clients collocated with the servers, WAN/LAN links with
//! realistic latencies, per-server CPU service times and clock skew — and drives the
//! *same protocol state machines* used by the threaded runtime through a single ordered
//! event queue.
//!
//! What the simulator measures is exactly what the paper's evaluation reports:
//! throughput, operation response times, blocking probability and blocking time (POCC),
//! data staleness (Cure\*), plus resource-accounting extras (messages, bytes, chain
//! traversals). It can also run an exact causal-consistency checker on small
//! configurations, inject and heal network partitions, and verify replica convergence —
//! which is what the integration tests in `tests/` do.
//!
//! # Example
//!
//! ```
//! use pocc_sim::{ProtocolKind, SimConfig, Simulation};
//! use pocc_types::Config;
//! use std::time::Duration;
//!
//! let config = SimConfig {
//!     protocol: ProtocolKind::Pocc,
//!     deployment: Config::builder().num_partitions(4).build().unwrap(),
//!     clients_per_partition: 2,
//!     duration: Duration::from_millis(400),
//!     seed: 7,
//!     ..SimConfig::default()
//! };
//! let report = Simulation::new(config).run();
//! assert!(report.operations_completed > 0);
//! assert_eq!(report.consistency_violations, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chaos;
mod config;
mod consistency;
mod event;
pub mod fuzz;
mod metrics;
pub mod reference;
mod report;
mod simulation;

pub use chaos::{ChaosGen, ChaosSchedule, ChaosStep};
pub use config::SimConfig;
pub use consistency::ConsistencyChecker;
pub use metrics::LatencyStats;
pub use pocc_exec::ProtocolKind;
pub use report::SimReport;
pub use simulation::Simulation;
