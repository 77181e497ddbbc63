//! The generic protocol engine: [`EngineCore`] machinery driven through a
//! [`VisibilityPolicy`].

use crate::core::{EngineCore, SliceUnmergedMode};
use pocc_clock::Clock;
use pocc_proto::{
    ClientRequest, MetricsSnapshot, ProtocolServer, ServerIntrospect, ServerMessage, ServerOutput,
};
use pocc_types::{ClientId, Key, ReplicaId, ServerId, Timestamp};

/// The protocol-defining decisions layered over the shared [`EngineCore`].
///
/// The engine owns replication, batching, heartbeats, parked operations, transaction
/// coordination and metrics, and handles every server-to-server message itself (a
/// stabilization vector refreshes the GSS, a GC vector is recorded for the exchange);
/// a policy decides **which version a read may return**, what periodic stabilization
/// traffic to emit, and how to react to peer-health signals. The paper's three systems —
/// and any future variant — differ only in these four hooks; see the "Adding a protocol
/// variant" section of `ARCHITECTURE.md`.
pub trait VisibilityPolicy<C: Clock>: Send {
    /// How [`EngineCore::read_slice`] classifies unmerged transactional items under this
    /// protocol. Consulted once, at engine construction.
    fn slice_unmerged_mode(&self) -> SliceUnmergedMode {
        SliceUnmergedMode::OldIsUnmerged
    }

    /// Handles a client request (GET, PUT or RO-TX). The policy decides read visibility
    /// and wait behaviour, composing the core's serve/park helpers.
    fn handle_client_request(
        &mut self,
        core: &mut EngineCore<C>,
        client: ClientId,
        request: ClientRequest,
    ) -> Vec<ServerOutput>;

    /// Observes a replicated remote version right after it was installed (and before
    /// parked operations are re-evaluated). The Adaptive policy tracks per-key remote
    /// churn here; the default does nothing.
    fn on_replicate(&mut self, core: &mut EngineCore<C>, from: ServerId, key: Key) {
        let _ = (core, from, key);
    }

    /// Protocol-specific periodic work, run at the end of every tick (after the batcher
    /// flush and heartbeat emission): stabilization rounds, garbage collection, timeout
    /// enforcement, partition detection.
    fn on_tick(
        &mut self,
        core: &mut EngineCore<C>,
        now: Timestamp,
        outputs: &mut Vec<ServerOutput>,
    );
}

/// A protocol server assembled from the shared [`EngineCore`] and a [`VisibilityPolicy`].
///
/// `ProtocolEngine` implements [`ProtocolServer`], so any policy plugs directly into the
/// deterministic simulator, the threaded runtime and the benchmark harness. The concrete
/// protocol crates wrap it in a named type (`PoccServer`, `CureServer`, …) via
/// [`delegate_protocol_server!`](crate::delegate_protocol_server).
pub struct ProtocolEngine<C, P> {
    core: EngineCore<C>,
    policy: P,
}

impl<C: Clock, P: VisibilityPolicy<C>> ProtocolEngine<C, P> {
    /// Creates an engine for `id` with the given deployment configuration, clock and
    /// policy.
    pub fn new(id: ServerId, config: pocc_types::Config, clock: C, policy: P) -> Self {
        let core = EngineCore::new(id, config, clock, policy.slice_unmerged_mode());
        ProtocolEngine { core, policy }
    }

    /// Read access to the shared core.
    pub fn core(&self) -> &EngineCore<C> {
        &self.core
    }

    /// Read access to the policy.
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// Mutable access to core and policy together (policies are stateful: HA-POCC's mode
    /// switches need both).
    pub fn parts_mut(&mut self) -> (&mut EngineCore<C>, &mut P) {
        (&mut self.core, &mut self.policy)
    }

    /// Runs one tick (batcher flush, heartbeats, the policy's periodic work) into
    /// `outputs`, but leaves a GC pass the tick begins pending, and returns whether one
    /// is pending. A threaded server runs the pass with [`EngineCore::gc_step`] and
    /// serves operations between steps. Finishing it later cannot change the tick's
    /// outputs: a pass emits nothing, and nothing a policy does after beginning one in
    /// `on_tick` reads a chain.
    pub fn tick_leaving_gc(&mut self, outputs: &mut Vec<ServerOutput>) -> bool {
        // Ship the traffic coalesced since the last tick first, so heartbeats emitted
        // below cannot overtake buffered replication on the FIFO channels.
        self.core.flush_batcher(outputs);
        let now = self.core.clock.now();
        self.core.heartbeat_tick(now, outputs);
        self.policy.on_tick(&mut self.core, now, outputs);
        self.core.store.gc_pending()
    }

    /// Absorbs the bookkeeping half of one replicated remote version: replication
    /// accounting, the origin's version-vector advance, the policy's `on_replicate`
    /// hook and a re-evaluation of parked operations (Algorithm 2 lines 16–18 minus
    /// the store insert). The version must already be in the store, because advancing
    /// the vector claims coverage of everything from that origin up to `update_time`.
    fn absorb_remote_version(
        &mut self,
        from: ServerId,
        key: Key,
        update_time: Timestamp,
        outputs: &mut Vec<ServerOutput>,
    ) {
        self.core.metrics.replicate_received += 1;
        self.core.vv.advance(from.replica, update_time);
        self.policy.on_replicate(&mut self.core, from, key);
        self.core.unpark(outputs);
    }

    fn dispatch_message(
        &mut self,
        from: ServerId,
        message: ServerMessage,
        outputs: &mut Vec<ServerOutput>,
    ) {
        match message {
            ServerMessage::Replicate { version } => {
                // Algorithm 2 lines 16–18.
                let key = version.key;
                let update_time = version.update_time;
                self.core
                    .store
                    .insert(version)
                    .expect("replicated update routed to the wrong partition");
                self.absorb_remote_version(from, key, update_time, outputs);
            }
            ServerMessage::Heartbeat { clock } => {
                // Algorithm 2 lines 27–28.
                self.core.metrics.heartbeats_received += 1;
                self.core.vv.advance(from.replica, clock);
                self.core.unpark(outputs);
            }
            ServerMessage::SliceRequest {
                tx,
                client,
                keys,
                snapshot,
            } => {
                self.core
                    .serve_or_park_slice(Some(from), tx, client, keys, snapshot, outputs);
            }
            ServerMessage::SliceResponse { tx, items } => {
                self.core.complete_slice(tx, items, outputs);
            }
            ServerMessage::SliceAbort { tx } => {
                self.core.abort_tx_snapshot_too_old(tx, outputs);
            }
            ServerMessage::StabilizationVector { vv } => {
                // Only the protocols that run the stabilization protocol send these.
                self.core.metrics.stabilization_messages += 1;
                self.core.local_vvs.insert(from.partition, vv);
                self.core.recompute_gss();
                self.core.unpark(outputs);
            }
            ServerMessage::GcVector { vector } => {
                // A peer's contribution to the GC-vector exchange (§IV-B).
                self.core.metrics.gc_messages += 1;
                self.core.gc_contributions.insert(from.partition, vector);
            }
            ServerMessage::Batch { messages } => {
                for inner in messages {
                    self.dispatch_message(from, inner, outputs);
                }
            }
        }
    }
}

impl<C: Clock, P: VisibilityPolicy<C>> ProtocolServer for ProtocolEngine<C, P> {
    fn server_id(&self) -> ServerId {
        self.core.id
    }

    fn handle_client_request(
        &mut self,
        client: ClientId,
        request: ClientRequest,
    ) -> Vec<ServerOutput> {
        self.policy
            .handle_client_request(&mut self.core, client, request)
    }

    fn handle_server_message(
        &mut self,
        from: ServerId,
        message: ServerMessage,
    ) -> Vec<ServerOutput> {
        let mut outputs = Vec::new();
        self.dispatch_message(from, message, &mut outputs);
        outputs
    }

    /// A tick whose GC pass, if it begins one, runs whole before the tick returns:
    /// [`ProtocolEngine::tick_leaving_gc`] and then one unbounded GC step.
    fn tick(&mut self) -> Vec<ServerOutput> {
        let mut outputs = Vec::new();
        if self.tick_leaving_gc(&mut outputs) {
            self.core.gc_step(usize::MAX);
        }
        outputs
    }

    fn take_extra_work(&mut self) -> u64 {
        self.core.take_extra_work()
    }
}

impl<C: Clock, P: VisibilityPolicy<C>> ServerIntrospect for ProtocolEngine<C, P> {
    fn metrics(&self) -> MetricsSnapshot {
        self.core.metrics_snapshot()
    }

    fn digest(&self) -> Vec<(Key, Timestamp, ReplicaId)> {
        self.core.store.digest()
    }

    fn store_stats(&self) -> pocc_storage::StoreStats {
        self.core.store.stats()
    }

    fn shard_stats(&self) -> Vec<pocc_storage::StoreStats> {
        self.core.store.shard_stats()
    }
}

/// Boxed policies are policies too, so an execution layer can pick one of the four
/// protocols at runtime and still drive a single `ProtocolEngine<C, Box<dyn
/// VisibilityPolicy<C>>>` type.
impl<C: Clock> VisibilityPolicy<C> for Box<dyn VisibilityPolicy<C>> {
    fn slice_unmerged_mode(&self) -> SliceUnmergedMode {
        (**self).slice_unmerged_mode()
    }

    fn handle_client_request(
        &mut self,
        core: &mut EngineCore<C>,
        client: ClientId,
        request: ClientRequest,
    ) -> Vec<ServerOutput> {
        (**self).handle_client_request(core, client, request)
    }

    fn on_replicate(&mut self, core: &mut EngineCore<C>, from: ServerId, key: Key) {
        (**self).on_replicate(core, from, key)
    }

    fn on_tick(
        &mut self,
        core: &mut EngineCore<C>,
        now: Timestamp,
        outputs: &mut Vec<ServerOutput>,
    ) {
        (**self).on_tick(core, now, outputs)
    }
}

/// Implements [`ProtocolServer`] and [`ServerIntrospect`] for a named server wrapper
/// around a [`ProtocolEngine`] stored in a field called `engine`.
///
/// ```ignore
/// pub struct MyServer<C> {
///     engine: ProtocolEngine<C, MyPolicy>,
/// }
/// pocc_engine::delegate_protocol_server!(MyServer);
/// ```
#[macro_export]
macro_rules! delegate_protocol_server {
    ($server:ident) => {
        impl<C: $crate::reexports::Clock> $crate::reexports::ProtocolServer for $server<C> {
            fn server_id(&self) -> $crate::reexports::ServerId {
                $crate::reexports::ProtocolServer::server_id(&self.engine)
            }

            fn handle_client_request(
                &mut self,
                client: $crate::reexports::ClientId,
                request: $crate::reexports::ClientRequest,
            ) -> Vec<$crate::reexports::ServerOutput> {
                $crate::reexports::ProtocolServer::handle_client_request(
                    &mut self.engine,
                    client,
                    request,
                )
            }

            fn handle_server_message(
                &mut self,
                from: $crate::reexports::ServerId,
                message: $crate::reexports::ServerMessage,
            ) -> Vec<$crate::reexports::ServerOutput> {
                $crate::reexports::ProtocolServer::handle_server_message(
                    &mut self.engine,
                    from,
                    message,
                )
            }

            fn tick(&mut self) -> Vec<$crate::reexports::ServerOutput> {
                $crate::reexports::ProtocolServer::tick(&mut self.engine)
            }

            fn take_extra_work(&mut self) -> u64 {
                $crate::reexports::ProtocolServer::take_extra_work(&mut self.engine)
            }
        }

        impl<C: $crate::reexports::Clock> $crate::reexports::ServerIntrospect for $server<C> {
            fn metrics(&self) -> $crate::reexports::MetricsSnapshot {
                $crate::reexports::ServerIntrospect::metrics(&self.engine)
            }

            fn digest(
                &self,
            ) -> Vec<(
                $crate::reexports::Key,
                $crate::reexports::Timestamp,
                $crate::reexports::ReplicaId,
            )> {
                $crate::reexports::ServerIntrospect::digest(&self.engine)
            }

            fn store_stats(&self) -> $crate::reexports::StoreStats {
                $crate::reexports::ServerIntrospect::store_stats(&self.engine)
            }

            fn shard_stats(&self) -> Vec<$crate::reexports::StoreStats> {
                $crate::reexports::ServerIntrospect::shard_stats(&self.engine)
            }
        }
    };
}

/// Paths used by [`delegate_protocol_server!`]; not part of the public API surface.
#[doc(hidden)]
pub mod reexports {
    pub use pocc_clock::Clock;
    pub use pocc_proto::{
        ClientRequest, MetricsSnapshot, ProtocolServer, ServerIntrospect, ServerMessage,
        ServerOutput,
    };
    pub use pocc_storage::StoreStats;
    pub use pocc_types::{ClientId, Key, ReplicaId, ServerId, Timestamp};
}
