//! The shared protocol engine behind every server variant of this workspace.
//!
//! The paper's three systems — POCC's optimistic reads (Algorithm 2), Cure\*'s
//! GSS-pessimistic reads (§V) and the HA fall-back protocol (§III-B) — are one server
//! algorithm differing only in *which version a GET may return*. This crate makes the
//! code say that too:
//!
//! * [`EngineCore`] owns everything the protocols share: the sharded version store, the
//!   version vector, the replication apply/ship paths, the [`pocc_proto::MessageBatcher`]
//!   flush ordering, heartbeat emission, the GC-vector exchange, GSS/stabilization
//!   bookkeeping, parked-operation management, read-only transaction coordination and
//!   metrics accounting. [`ProtocolEngine`] handles every server-to-server message with
//!   it, stabilization and GC vectors included.
//! * [`VisibilityPolicy`] is the per-protocol decision surface, a constructor and four
//!   hooks: read visibility and wait behaviour per client request (freshest vs
//!   freshest-stable vs snapshot-bounded, and each RO-TX's snapshot), the unmerged-item
//!   rule of slice reads, an observation of each replicated version, and the periodic
//!   work of a tick (stabilization rounds, GC, timeouts, peer-health detection).
//! * [`ProtocolEngine`] glues a policy onto the core and implements
//!   [`pocc_proto::ProtocolServer`], so every policy runs unchanged under the
//!   deterministic simulator, the threaded runtime and the benchmark harness.
//!   `ProtocolEngine::new(id, config, clock)` builds the policy itself.
//!
//! `pocc-protocol`, `pocc-cure`, `pocc-ha` and `pocc-adaptive` are thin policy
//! implementations over this crate; each names its server as an alias of
//! `ProtocolEngine` (`PoccServer<C> = ProtocolEngine<C, PoccPolicy>`, …). Adding a
//! variant means writing a policy, not a server — see the "Adding a protocol variant"
//! how-to in `ARCHITECTURE.md`.
//!
//! # Example: the smallest possible policy
//!
//! A protocol that always serves the freshest version and never waits (causal metadata
//! is still tracked and replicated by the core):
//!
//! ```
//! use pocc_clock::{Clock, ManualClock};
//! use pocc_engine::{EngineCore, ProtocolEngine, VisibilityPolicy};
//! use pocc_proto::{ClientRequest, ProtocolServer, ServerOutput};
//! use pocc_types::{ClientId, Config, Key, ServerId, Timestamp, Value};
//!
//! struct AlwaysFresh;
//!
//! impl<C: Clock> VisibilityPolicy<C> for AlwaysFresh {
//!     fn new(_config: &Config, _now: Timestamp) -> Self {
//!         AlwaysFresh
//!     }
//!
//!     fn handle_client_request(
//!         &mut self,
//!         core: &mut EngineCore<C>,
//!         client: ClientId,
//!         request: ClientRequest,
//!     ) -> Vec<ServerOutput> {
//!         let mut outputs = Vec::new();
//!         match request {
//!             ClientRequest::Get { key, .. } => {
//!                 let out = core.serve_get_latest(client, key);
//!                 outputs.push(out);
//!             }
//!             ClientRequest::Put { key, value, dv } => {
//!                 core.serve_put(client, key, value, dv, &mut outputs);
//!             }
//!             ClientRequest::RoTx { keys, rdv } => {
//!                 let snapshot = core.vv.snapshot_with(&rdv);
//!                 core.start_ro_tx(client, keys, snapshot, &mut outputs);
//!             }
//!         }
//!         outputs
//!     }
//!
//!     fn on_tick(
//!         &mut self,
//!         core: &mut EngineCore<C>,
//!         now: Timestamp,
//!         outputs: &mut Vec<ServerOutput>,
//!     ) {
//!         core.enforce_partition_timeouts(now, outputs);
//!     }
//! }
//!
//! let config = Config::builder().num_replicas(1).num_partitions(1).build().unwrap();
//! let clock = ManualClock::new(Timestamp::from_millis(1));
//! let mut server: ProtocolEngine<_, AlwaysFresh> =
//!     ProtocolEngine::new(ServerId::new(0u16, 0u32), config, clock);
//! let outputs = server.handle_client_request(
//!     ClientId(1),
//!     ClientRequest::Put {
//!         key: Key(0),
//!         value: Value::from("hi"),
//!         dv: pocc_types::DependencyVector::zero(1),
//!     },
//! );
//! assert!(outputs.iter().any(|o| o.is_reply_to(ClientId(1))));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod core;
mod engine;
mod pending;

pub use crate::core::{EngineCore, SliceUnmergedMode};
pub use crate::engine::{ProtocolEngine, VisibilityPolicy};
pub use crate::pending::{BlockReason, PendingOp, ReadMode};
