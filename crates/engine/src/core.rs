//! The shared server state and machinery every protocol variant builds on.

use crate::pending::{Parked, ReadMode};
use pocc_clock::Clock;
use pocc_proto::{
    ClientReply, GetResponse, MessageBatcher, MetricsSnapshot, ServerMessage, ServerOutput, TxId,
    TxItem,
};
use pocc_storage::{partition_for_key, ShardedStore};
use pocc_types::{
    ClientId, Config, DependencyVector, Key, PartitionId, ServerId, Timestamp, Value, Version,
    VersionVector,
};
use std::collections::HashMap;

/// How [`EngineCore::read_slice`] classifies "unmerged" transactional items.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SliceUnmergedMode {
    /// Every *old* returned item counts as unmerged too: in POCC every version older than
    /// the returned one is already merged, so "old" and "unmerged" coincide for
    /// transactional reads (§V-C).
    OldIsUnmerged,
    /// An item is unmerged when some version of it is not yet stable under the GSS
    /// (Cure\*'s definition, §V-B).
    AgainstGss,
}

/// State of a read-only transaction coordinated by this server.
#[derive(Clone, Debug)]
struct TxState {
    client: ClientId,
    /// Number of slice responses still expected (including the local slice, if parked).
    outstanding_slices: usize,
    /// Items collected so far.
    items: Vec<TxItem>,
    /// The transaction snapshot vector `TV` (contributes to the GC lower bound).
    snapshot: DependencyVector,
    /// When the transaction started (server clock), for the partition detector.
    started: Timestamp,
}

/// The state and machinery shared by every protocol variant: the sharded version store,
/// the version vector, replication shipping and application, the message batcher,
/// heartbeat emission, the GC-vector exchange, GSS/stabilization bookkeeping, parked
/// operations, read-only transaction coordination and metrics accounting.
///
/// A [`crate::VisibilityPolicy`] composes these pieces into a protocol; the core never
/// decides *which version a read may return* on its own.
pub struct EngineCore<C> {
    /// This server's identity `p^m_n`.
    pub id: ServerId,
    /// The deployment configuration, fixed at construction.
    pub config: Config,
    /// The server's physical clock.
    pub clock: C,
    /// The sharded multi-version store of this partition.
    pub store: ShardedStore,
    /// The version vector `VV^m_n`.
    pub vv: VersionVector,
    /// The Globally Stable Snapshot, maintained by policies that run a stabilization
    /// protocol (Cure\*, HA-POCC, Adaptive); stays all-zero otherwise.
    pub gss: DependencyVector,
    /// Latest version vector received from each local peer partition (GSS input).
    pub local_vvs: HashMap<PartitionId, VersionVector>,
    /// Latest garbage-collection contribution received from each local peer partition
    /// (used by the GC-vector exchange of §IV-B).
    pub gc_contributions: HashMap<PartitionId, DependencyVector>,
    /// When garbage was last collected (or the last GC exchange was initiated).
    pub last_gc: Timestamp,
    /// When the last stabilization round was initiated.
    pub last_stabilization: Timestamp,
    /// Cumulative metrics. All send paths account through [`EngineCore::send`], so the
    /// per-message counting lives in exactly one place.
    pub metrics: MetricsSnapshot,
    /// Extra CPU work units (chain elements traversed beyond the head, stabilization
    /// vector merges) since the last [`EngineCore::take_extra_work`] call.
    pub extra_work: u64,
    /// How [`EngineCore::read_slice`] counts unmerged items (protocol-specific).
    slice_unmerged: SliceUnmergedMode,
    /// Coalesces replication/GC traffic per destination when batching is enabled
    /// (`Config::replication_batching`); flushed at the start of every tick.
    batcher: MessageBatcher,
    /// The sibling replicas (same partition, every other DC), computed once: replication
    /// fans out to this list on every PUT, so it must not be rebuilt per operation.
    siblings: Vec<ServerId>,
    /// The local peers (same DC, every other partition), computed once for the same
    /// reason (stabilization and GC rounds fan out to it).
    local_peers: Vec<ServerId>,
    /// Parked operations, in arrival order.
    parked: Vec<Parked>,
    /// Read-only transactions this server coordinates.
    transactions: HashMap<TxId, TxState>,
    next_tx: TxId,
}

impl<C: Clock> EngineCore<C> {
    /// Creates the shared core for `id` with the given deployment configuration and clock.
    pub fn new(id: ServerId, config: Config, clock: C, slice_unmerged: SliceUnmergedMode) -> Self {
        let m = config.num_replicas;
        EngineCore {
            store: ShardedStore::with_shards(
                id.partition,
                config.num_partitions,
                config.storage_shards,
            ),
            vv: VersionVector::zero(m),
            gss: DependencyVector::zero(m),
            local_vvs: HashMap::new(),
            gc_contributions: HashMap::new(),
            last_gc: Timestamp::ZERO,
            last_stabilization: Timestamp::ZERO,
            metrics: MetricsSnapshot::default(),
            extra_work: 0,
            slice_unmerged,
            batcher: MessageBatcher::new(config.replication_batching),
            siblings: config
                .replicas()
                .filter(|r| *r != id.replica)
                .map(|r| id.sibling(r))
                .collect(),
            local_peers: config
                .partitions()
                .filter(|p| *p != id.partition)
                .map(|p| id.local_peer(p))
                .collect(),
            parked: Vec::new(),
            transactions: HashMap::new(),
            next_tx: TxId(0),
            id,
            config,
            clock,
        }
    }

    /// Number of currently parked operations.
    pub fn pending_len(&self) -> usize {
        self.parked.len()
    }

    /// Number of read-only transactions this server currently coordinates.
    pub fn active_transactions(&self) -> usize {
        self.transactions.len()
    }

    // -----------------------------------------------------------------------------------
    // Sending
    // -----------------------------------------------------------------------------------

    /// Builds a `Send` output while accounting for the traffic in the metrics. This is
    /// the single place per-message-kind send counters are maintained.
    pub fn send(&mut self, to: ServerId, message: ServerMessage) -> ServerOutput {
        self.metrics.bytes_sent += message.wire_size() as u64;
        match &message {
            ServerMessage::Replicate { .. } => self.metrics.replicate_sent += 1,
            ServerMessage::Heartbeat { .. } => self.metrics.heartbeats_sent += 1,
            ServerMessage::StabilizationVector { .. } => self.metrics.stabilization_messages += 1,
            ServerMessage::GcVector { .. } => self.metrics.gc_messages += 1,
            _ => {}
        }
        ServerOutput::send(to, message)
    }

    /// Sends a message through the replication batcher: delivered immediately when
    /// batching is off (or the message is latency-sensitive), deferred to the next tick's
    /// flush otherwise. Per-message metrics are accounted either way.
    fn send_via_batcher(
        &mut self,
        to: ServerId,
        message: ServerMessage,
        outputs: &mut Vec<ServerOutput>,
    ) {
        let out = self.send(to, message);
        if let Some(out) = self.batcher.stage_one(out) {
            outputs.push(out);
        }
    }

    /// Ships the traffic coalesced since the last tick. Called at the start of every
    /// tick, before heartbeats, so heartbeats cannot overtake buffered replication on
    /// the FIFO channels.
    pub fn flush_batcher(&mut self, outputs: &mut Vec<ServerOutput>) {
        self.batcher.flush_into(&mut self.metrics, outputs);
    }

    /// The sibling replicas of this server: same partition, every other data center.
    /// Computed once at construction — fan-out loops iterate it by index so they can
    /// keep calling `&mut self` send methods without cloning the list.
    pub fn siblings(&self) -> &[ServerId] {
        &self.siblings
    }

    /// The local peers of this server: same data center, every other partition.
    /// Computed once at construction, like [`EngineCore::siblings`].
    pub fn local_peers(&self) -> &[ServerId] {
        &self.local_peers
    }

    // -----------------------------------------------------------------------------------
    // Reads
    // -----------------------------------------------------------------------------------

    /// Whether the server has installed every dependency in `deps` originated at a remote
    /// data center (the wait condition of Algorithm 2 lines 2 and 6).
    pub fn covers_remote_deps(&self, deps: &DependencyVector) -> bool {
        self.vv
            .covers_dependencies_except_local(deps, self.id.replica)
    }

    /// Builds a GET payload from an optional version ("not found" uses this replica).
    pub fn response_for(&self, version: Option<&Version>) -> GetResponse {
        match version {
            Some(v) => GetResponse {
                value: Some(v.value.clone()),
                update_time: v.update_time,
                deps: v.deps.clone(),
                source_replica: v.source_replica,
            },
            None => GetResponse {
                value: None,
                update_time: Timestamp::ZERO,
                deps: DependencyVector::zero(self.config.num_replicas),
                source_replica: self.id.replica,
            },
        }
    }

    /// Serves a GET at the head of the version chain: the freshest version the server
    /// has received, stable or not (POCC, Algorithm 2 lines 3–4).
    pub fn serve_get_latest(&mut self, client: ClientId, key: Key) -> ServerOutput {
        self.metrics.gets_served += 1;
        let resp = self.response_for(self.store.latest(key).as_ref());
        ServerOutput::reply(client, ClientReply::Get(resp))
    }

    /// Serves a GET pessimistically: the freshest version in the snapshot
    /// `GSS ∨ RDV ∨ local`, never blocking, with the full staleness accounting of Cure\*
    /// (§V-B). Walking past unstable versions is the CPU cost of pessimism the paper
    /// calls out.
    ///
    /// The client's read dependency vector never delays the read — the GSS guarantees
    /// that every stable version's dependencies are installed everywhere — but it must
    /// *extend* visibility: the session may causally know versions above the GSS (its own
    /// reads and writes, and everything they transitively depend on), and serving from
    /// the GSS alone would let a GET regress below a version an earlier session-extended
    /// read (a transaction snapshot, or a plain read at a moment the GSS was further
    /// along on another entry) already returned.
    pub fn serve_get_stable(
        &mut self,
        client: ClientId,
        key: Key,
        rdv: &DependencyVector,
    ) -> ServerOutput {
        self.serve_get_snapshot(client, key, rdv)
    }

    /// Serves a GET from the snapshot `GSS ∨ RDV ∨ local`: the freshest version that is
    /// either globally stable, part of the client's own causal history, or locally
    /// originated. The Adaptive protocol's stable fall-back path: staleness is bounded by
    /// the GSS while session guarantees (and therefore causality) still hold.
    pub fn serve_get_stable_bounded(
        &mut self,
        client: ClientId,
        key: Key,
        rdv: &DependencyVector,
    ) -> ServerOutput {
        self.metrics.stable_fallback_gets += 1;
        self.serve_get_snapshot(client, key, rdv)
    }

    fn serve_get_snapshot(
        &mut self,
        client: ClientId,
        key: Key,
        rdv: &DependencyVector,
    ) -> ServerOutput {
        let local = self.id.replica;
        let mut snapshot = self.gss.joined(rdv);
        snapshot.advance(local, self.vv.get(local));
        let outcome = self.store.latest_in_snapshot(key, &snapshot);
        self.extra_work += outcome.stats.traversed.saturating_sub(1) as u64;
        self.metrics.gets_served += 1;
        if outcome.is_old() {
            self.metrics.old_gets += 1;
            self.metrics.fresher_versions_sum += outcome.stats.fresher_than_returned as u64;
        }
        let unmerged = self.store.unmerged_count(key, &self.gss, local);
        if unmerged > 0 {
            self.metrics.unmerged_gets += 1;
            self.metrics.unmerged_versions_sum += unmerged as u64;
        }
        let response = self.response_for(outcome.version.as_ref());
        ServerOutput::reply(client, ClientReply::Get(response))
    }

    // -----------------------------------------------------------------------------------
    // Parking
    // -----------------------------------------------------------------------------------

    /// Parks a GET until the version vector covers the client's read dependencies.
    pub fn park_get(&mut self, client: ClientId, key: Key, rdv: DependencyVector, mode: ReadMode) {
        self.metrics.blocked_operations += 1;
        self.parked.push(Parked::Get {
            client,
            key,
            rdv,
            mode,
            since: self.clock.now(),
        });
    }

    /// Parks a PUT until the version vector covers the client's dependencies.
    pub fn park_put(&mut self, client: ClientId, key: Key, value: Value, dv: DependencyVector) {
        self.metrics.blocked_operations += 1;
        self.parked.push(Parked::Put {
            client,
            key,
            value,
            dv,
            since: self.clock.now(),
        });
    }

    // -----------------------------------------------------------------------------------
    // PUT
    // -----------------------------------------------------------------------------------

    /// Serves a PUT whose dependency wait condition, if its protocol has one, holds
    /// (Algorithm 2 lines 7–15): assigns the update time, advances the version vector,
    /// installs the version and ships it to every sibling replica.
    pub fn serve_put(
        &mut self,
        client: ClientId,
        key: Key,
        value: Value,
        dv: DependencyVector,
        outputs: &mut Vec<ServerOutput>,
    ) {
        // Line 7: wait until the local clock exceeds every dependency timestamp, so the new
        // version's update time is strictly larger than anything it depends on. The wait is
        // bounded by the clock skew (microseconds); we account for it and jump the
        // timestamp forward instead of parking the request.
        //
        // The floor also covers the local VV entry: a heartbeat broadcast at clock T
        // promises that everything this replica sends afterwards is strictly newer than T,
        // and with a coarse clock (two events can observe the same reading) `now` alone
        // would let a version tie with an already-sent heartbeat — a sibling that applied
        // the heartbeat would serve optimistic reads claiming coverage of a version still
        // in flight. The same floor keeps update times strictly increasing per server, so
        // (update_time, replica) stays a unique version identity under any clock.
        let now = self.clock.now();
        let floor = dv.max_entry().max(self.vv.get(self.id.replica));
        let update_time = if now > floor {
            now
        } else {
            self.metrics.clock_wait_time +=
                floor.saturating_since(now) + std::time::Duration::from_micros(1);
            floor.tick()
        };

        // Line 8: advance the local entry of the version vector.
        self.vv.advance(self.id.replica, update_time);

        // Lines 9–11: create the version and insert it into the chain.
        let version = Version::new(key, value, self.id.replica, update_time, dv);
        self.store
            .insert(version.clone())
            .expect("PUT routed to the wrong partition");

        // Lines 12–14: asynchronously replicate to the sibling replicas, in timestamp order
        // (guaranteed because PUTs are processed in clock order and channels are FIFO;
        // the batcher preserves buffer order, so batching keeps the guarantee).
        for i in 0..self.siblings.len() {
            let sibling = self.siblings[i];
            let msg = ServerMessage::Replicate {
                version: version.clone(),
            };
            self.send_via_batcher(sibling, msg, outputs);
        }

        // Line 15: reply with the new update time.
        self.metrics.puts_served += 1;
        outputs.push(ServerOutput::reply(
            client,
            ClientReply::Put { update_time },
        ));
    }

    // -----------------------------------------------------------------------------------
    // Read-only transactions (coordinator side)
    // -----------------------------------------------------------------------------------

    /// Starts a read-only transaction over `keys` reading from `snapshot` (the policy
    /// decides the snapshot: POCC uses `VV ∨ RDV`, Cure\* bounds it by the GSS). Fans out
    /// slice requests to every involved partition; the local slice is served in-process,
    /// possibly parking until the snapshot is installed (Algorithm 2 lines 30–37).
    pub fn start_ro_tx(
        &mut self,
        client: ClientId,
        keys: Vec<Key>,
        snapshot: DependencyVector,
        outputs: &mut Vec<ServerOutput>,
    ) {
        if keys.is_empty() {
            self.metrics.rotx_served += 1;
            outputs.push(ServerOutput::reply(
                client,
                ClientReply::RoTx { items: Vec::new() },
            ));
            return;
        }

        // Group the requested keys by owning partition (line 30).
        let mut by_partition: HashMap<PartitionId, Vec<Key>> = HashMap::new();
        for key in keys {
            by_partition
                .entry(partition_for_key(key, self.config.num_partitions))
                .or_default()
                .push(key);
        }

        let tx = self.next_tx;
        self.next_tx = self.next_tx.next();
        self.transactions.insert(
            tx,
            TxState {
                client,
                outstanding_slices: by_partition.len(),
                items: Vec::new(),
                snapshot: snapshot.clone(),
                started: self.clock.now(),
            },
        );

        // Lines 33–37: ask every involved partition for its slice of the snapshot.
        // Deterministic fan-out order (HashMap iteration order is randomised per process).
        let mut groups: Vec<_> = by_partition.into_iter().collect();
        groups.sort_by_key(|(partition, _)| *partition);
        let mut local_keys = None;
        for (partition, keys) in groups {
            if partition == self.id.partition {
                local_keys = Some(keys);
            } else {
                let msg = ServerMessage::SliceRequest {
                    tx,
                    client,
                    keys,
                    snapshot: snapshot.clone(),
                };
                let to = self.id.local_peer(partition);
                let out = self.send(to, msg);
                outputs.push(out);
            }
        }
        if let Some(keys) = local_keys {
            self.serve_or_park_slice(None, tx, client, keys, snapshot, outputs);
        }
    }

    /// Folds a completed slice into the transaction state and replies to the client when
    /// every slice has arrived.
    pub fn complete_slice(
        &mut self,
        tx: TxId,
        items: Vec<TxItem>,
        outputs: &mut Vec<ServerOutput>,
    ) {
        let finished = {
            let Some(state) = self.transactions.get_mut(&tx) else {
                // The transaction was aborted by the partition detector; drop the late slice.
                return;
            };
            state.items.extend(items);
            state.outstanding_slices = state.outstanding_slices.saturating_sub(1);
            state.outstanding_slices == 0
        };
        if finished {
            let state = self
                .transactions
                .remove(&tx)
                .expect("transaction present while completing");
            self.metrics.rotx_served += 1;
            outputs.push(ServerOutput::reply(
                state.client,
                ClientReply::RoTx { items: state.items },
            ));
        }
    }

    // -----------------------------------------------------------------------------------
    // Slice reads (participant side)
    // -----------------------------------------------------------------------------------

    /// Serves a transactional slice read if the snapshot is installed locally, parks it
    /// otherwise (Algorithm 2 lines 39–47).
    pub fn serve_or_park_slice(
        &mut self,
        origin: Option<ServerId>,
        tx: TxId,
        client: ClientId,
        keys: Vec<Key>,
        snapshot: DependencyVector,
        outputs: &mut Vec<ServerOutput>,
    ) {
        if self.vv.covers(&snapshot) {
            self.answer_slice(origin, tx, &keys, &snapshot, outputs);
        } else {
            self.metrics.blocked_operations += 1;
            self.parked.push(Parked::Slice {
                origin,
                tx,
                client,
                keys,
                snapshot,
                since: self.clock.now(),
            });
        }
    }

    /// Answers a slice whose snapshot is installed: the items go to the remote origin, or
    /// complete the local coordinator's transaction; a slice GC has made unanswerable
    /// aborts instead.
    fn answer_slice(
        &mut self,
        origin: Option<ServerId>,
        tx: TxId,
        keys: &[Key],
        snapshot: &DependencyVector,
        outputs: &mut Vec<ServerOutput>,
    ) {
        let Some(items) = self.read_slice(keys, snapshot) else {
            return self.abort_unanswerable_slice(origin, tx, outputs);
        };
        self.metrics.slices_served += 1;
        match origin {
            Some(origin) => {
                let out = self.send(origin, ServerMessage::SliceResponse { tx, items });
                outputs.push(out);
            }
            None => self.complete_slice(tx, items, outputs),
        }
    }

    /// Reads every key of a slice within the snapshot, collecting staleness statistics
    /// (Algorithm 2 lines 41–46).
    ///
    /// Returns `None` when the slice cannot be answered exactly: garbage collection may
    /// have removed the version the snapshot needs for one of the keys ("snapshot too
    /// old"). This happens when a coordinator whose GSS lags behind this server's assigns
    /// a snapshot below versions already collected here — exchange-free GC (Cure\*'s
    /// `gc_from_gss`) cannot see transactions coordinated at other partitions, so the
    /// race is resolved at serve time by aborting the transaction instead of returning a
    /// read the snapshot cannot justify.
    pub fn read_slice(&mut self, keys: &[Key], snapshot: &DependencyVector) -> Option<Vec<TxItem>> {
        let local = self.id.replica;
        let mut items = Vec::with_capacity(keys.len());
        for &key in keys {
            let outcome = self.store.latest_in_snapshot(key, snapshot);
            if outcome.version.is_none() && self.store.snapshot_may_predate_gc(key, snapshot) {
                return None;
            }
            self.extra_work += outcome.stats.traversed.saturating_sub(1) as u64;
            self.metrics.tx_items_returned += 1;
            match self.slice_unmerged {
                SliceUnmergedMode::OldIsUnmerged => {
                    if outcome.is_old() {
                        self.metrics.old_tx_items += 1;
                        self.metrics.unmerged_tx_items += 1;
                    }
                }
                SliceUnmergedMode::AgainstGss => {
                    if outcome.is_old() {
                        self.metrics.old_tx_items += 1;
                    }
                    if self.store.has_unmerged_versions(key, &self.gss, local) {
                        self.metrics.unmerged_tx_items += 1;
                    }
                }
            }
            let response = self.response_for(outcome.version.as_ref());
            items.push(TxItem { key, response });
        }
        Some(items)
    }

    /// Resolves a slice that [`read_slice`](Self::read_slice) refused to answer: tells a
    /// remote coordinator to abort the transaction, or aborts it directly when this
    /// server coordinates it.
    fn abort_unanswerable_slice(
        &mut self,
        origin: Option<ServerId>,
        tx: TxId,
        outputs: &mut Vec<ServerOutput>,
    ) {
        match origin {
            Some(origin) => {
                let msg = ServerMessage::SliceAbort { tx };
                let out = self.send(origin, msg);
                outputs.push(out);
            }
            None => self.abort_tx_snapshot_too_old(tx, outputs),
        }
    }

    /// Aborts a coordinated transaction whose snapshot preceded garbage collection on a
    /// participant, closing the client session (§III-B: the client re-establishes its
    /// session and retries). Late aborts for already-completed transactions are ignored.
    pub fn abort_tx_snapshot_too_old(&mut self, tx: TxId, outputs: &mut Vec<ServerOutput>) {
        if let Some(state) = self.transactions.remove(&tx) {
            self.metrics.sessions_aborted += 1;
            outputs.push(ServerOutput::reply(
                state.client,
                ClientReply::SessionAborted {
                    reason: "transaction snapshot preceded garbage collection".into(),
                },
            ));
        }
    }

    // -----------------------------------------------------------------------------------
    // Unparking and timeouts
    // -----------------------------------------------------------------------------------

    /// Re-evaluates every parked operation after the version vector advanced, serving the
    /// ones whose wait condition now holds.
    pub fn unpark(&mut self, outputs: &mut Vec<ServerOutput>) {
        if self.parked.is_empty() {
            return;
        }
        let parked = std::mem::take(&mut self.parked);
        let now = self.clock.now();
        for op in parked {
            let ready = match &op {
                Parked::Get { rdv, .. } => self.covers_remote_deps(rdv),
                Parked::Put { dv, .. } => self.covers_remote_deps(dv),
                Parked::Slice { snapshot, .. } => self.vv.covers(snapshot),
            };
            if !ready {
                self.parked.push(op);
                continue;
            }
            self.metrics.total_block_time += now.saturating_since(op.since());
            match op {
                Parked::Get {
                    client,
                    key,
                    rdv,
                    mode,
                    ..
                } => {
                    let out = match mode {
                        ReadMode::Latest => self.serve_get_latest(client, key),
                        ReadMode::Stable => self.serve_get_stable(client, key, &rdv),
                        ReadMode::StableBounded => self.serve_get_stable_bounded(client, key, &rdv),
                    };
                    outputs.push(out);
                }
                Parked::Put {
                    client,
                    key,
                    value,
                    dv,
                    ..
                } => self.serve_put(client, key, value, dv, outputs),
                // Serve directly: the wait condition has just been checked. GC may have
                // run while the slice was parked, so the read can still refuse.
                Parked::Slice {
                    origin,
                    tx,
                    keys,
                    snapshot,
                    ..
                } => self.answer_slice(origin, tx, &keys, &snapshot, outputs),
            }
        }
    }

    /// Aborts parked client-facing operations and coordinated transactions that exceeded
    /// the partition-detection timeout (§III-B phase 1: the server closes the session).
    /// Expired slice reads held on behalf of remote coordinators are dropped silently —
    /// the coordinator's own timeout aborts the client session.
    pub fn enforce_partition_timeouts(&mut self, now: Timestamp, outputs: &mut Vec<ServerOutput>) {
        let timeout = self.config.partition_detection_timeout;

        let parked = std::mem::take(&mut self.parked);
        for op in parked {
            let expired = now.saturating_since(op.since()) >= timeout;
            if expired && op.is_client_facing() {
                self.metrics.sessions_aborted += 1;
                outputs.push(ServerOutput::reply(
                    op.client(),
                    ClientReply::SessionAborted {
                        reason: format!("blocked on {} beyond the partition timeout", op.reason()),
                    },
                ));
            } else if expired {
                // Dropped: a slice read on behalf of a remote coordinator.
            } else {
                self.parked.push(op);
            }
        }

        self.abort_expired_transactions(now, outputs);
    }

    /// Aborts coordinated transactions older than the partition-detection timeout,
    /// closing their client sessions.
    pub fn abort_expired_transactions(&mut self, now: Timestamp, outputs: &mut Vec<ServerOutput>) {
        let timeout = self.config.partition_detection_timeout;
        let mut expired: Vec<TxId> = self
            .transactions
            .iter()
            .filter(|(_, st)| now.saturating_since(st.started) >= timeout)
            .map(|(tx, _)| *tx)
            .collect();
        // Abort in start order: `HashMap` iteration order is randomised per process.
        expired.sort_unstable();
        for tx in expired {
            let state = self.transactions.remove(&tx).expect("tx present");
            self.metrics.sessions_aborted += 1;
            outputs.push(ServerOutput::reply(
                state.client,
                ClientReply::SessionAborted {
                    reason: "read-only transaction blocked beyond the partition timeout".into(),
                },
            ));
        }
    }

    // -----------------------------------------------------------------------------------
    // Heartbeats
    // -----------------------------------------------------------------------------------

    /// Heartbeats (Algorithm 2 lines 19–26): if no local update advanced `VV[m]` for the
    /// last ∆, broadcast the clock so sibling replicas can advance their vectors. The
    /// local entry advancing may also unblock parked operations.
    pub fn heartbeat_tick(&mut self, now: Timestamp, outputs: &mut Vec<ServerOutput>) {
        let local = self.id.replica;
        if now >= self.vv.get(local) + self.config.heartbeat_interval {
            self.vv.set(local, now);
            for i in 0..self.siblings.len() {
                let sibling = self.siblings[i];
                let msg = ServerMessage::Heartbeat { clock: now };
                let out = self.send(sibling, msg);
                outputs.push(out);
            }
            self.unpark(outputs);
        }
    }

    // -----------------------------------------------------------------------------------
    // Garbage collection (§IV-B)
    // -----------------------------------------------------------------------------------

    /// This server's contribution to the garbage-collection vector: the entry-wise minimum
    /// of the snapshot vectors of its active transactions, or its version vector when it
    /// coordinates none.
    ///
    /// The paper exchanges the aggregate *maximum* of the active snapshot vectors; we use
    /// the minimum, which is never less conservative and guarantees that no version
    /// readable by an active transaction is ever collected. GC keeps each chain down to
    /// its first version covered by the GC vector `GV`, and a snapshot `TV` reads the
    /// first version `TV` covers. With `GV <= TV` entry-wise, every version `GV` covers
    /// `TV` covers too, so the version `TV` reads is at or above the one GC keeps last. A
    /// maximum can exceed some `TV` and collect the version that transaction needs.
    pub fn gc_contribution(&self) -> DependencyVector {
        let mut contribution = DependencyVector(self.vv.as_clock_vector().clone());
        for tx in self.transactions.values() {
            contribution.meet(&tx.snapshot);
        }
        contribution
    }

    /// Runs one garbage-collection exchange round: sends this server's contribution to
    /// the local peers and, once contributions from every partition are known, begins a
    /// GC pass with their entry-wise minimum. The pass is only begun here, and
    /// [`EngineCore::gc_step`] runs it: `ProtocolServer::tick` finishes it before it
    /// returns, and a threaded server runs it in bounded steps.
    pub fn gc_exchange_round(&mut self, outputs: &mut Vec<ServerOutput>) {
        let contribution = self.gc_contribution();
        for i in 0..self.local_peers.len() {
            let peer = self.local_peers[i];
            let msg = ServerMessage::GcVector {
                vector: contribution.clone(),
            };
            self.send_via_batcher(peer, msg, outputs);
        }
        self.gc_contributions
            .insert(self.id.partition, contribution);

        if self.gc_contributions.len() == self.config.num_partitions {
            let mut gv = self
                .gc_contributions
                .values()
                .next()
                .expect("at least the local contribution")
                .clone();
            for v in self.gc_contributions.values() {
                gv.meet(v);
            }
            self.store.begin_gc(&gv);
        }
    }

    /// Begins a GC pass directly from the GSS: every version below the snapshot any
    /// future transaction could use is collectable except the newest such version
    /// (Cure\*'s GC, which needs no extra message exchange). [`EngineCore::gc_step`] runs
    /// the pass, as for [`EngineCore::gc_exchange_round`].
    pub fn gc_from_gss(&mut self) {
        let gss = self.gss.clone();
        self.store.begin_gc(&gss);
    }

    /// Runs the pending GC pass over at most `budget` listed chains (see
    /// `ShardedStore::gc_step`) and counts what it removed. Returns whether the pass is
    /// done; with no pass pending it does nothing and returns `true`. GC emits no
    /// outputs.
    pub fn gc_step(&mut self, budget: usize) -> bool {
        let step = self.store.gc_step(budget);
        self.metrics.gc_versions_removed += step.removed as u64;
        step.done
    }

    // -----------------------------------------------------------------------------------
    // Stabilization (GSS computation)
    // -----------------------------------------------------------------------------------

    /// Recomputes the GSS as the entry-wise minimum of the latest known version vectors of
    /// every partition in the local data center (including this one). The GSS only moves
    /// forward. Each merged vector costs one extra CPU work unit: Cure\* pays this every
    /// few milliseconds, HA-POCC only at its infrequent rounds.
    pub fn recompute_gss(&mut self) {
        if self.local_vvs.len() < self.config.num_partitions.saturating_sub(1) {
            // Not every peer has reported yet: the GSS cannot safely advance.
            return;
        }
        let mut gss = DependencyVector(self.vv.as_clock_vector().clone());
        for vv in self.local_vvs.values() {
            gss.0.meet(vv.as_clock_vector());
            self.extra_work += 1;
        }
        // Monotonic advance.
        self.gss.join(&gss);
    }

    /// One stabilization round: broadcast this server's version vector to the local peers
    /// and refresh the GSS from what is known so far.
    pub fn stabilization_round(&mut self, outputs: &mut Vec<ServerOutput>) {
        let vv = self.vv.clone();
        for i in 0..self.local_peers.len() {
            let peer = self.local_peers[i];
            let msg = ServerMessage::StabilizationVector { vv: vv.clone() };
            let out = self.send(peer, msg);
            outputs.push(out);
        }
        self.recompute_gss();
    }

    // -----------------------------------------------------------------------------------
    // Observability
    // -----------------------------------------------------------------------------------

    /// A snapshot of the server's cumulative metrics.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut m = self.metrics.clone();
        m.currently_blocked = self.parked.len() as u64;
        m
    }

    /// Returns and resets the accumulated extra CPU work units.
    pub fn take_extra_work(&mut self) -> u64 {
        std::mem::take(&mut self.extra_work)
    }
}
