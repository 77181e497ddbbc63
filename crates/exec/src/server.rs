//! The threaded server: worker lanes over a spine-locked protocol engine.

use crate::snapshot::PublishedVector;
use crate::{FastPathProfile, ProtocolKind};
use crossbeam::channel::{bounded, Receiver, SyncSender};
use parking_lot::Mutex;
use pocc_clock::Clock;
use pocc_engine::{ProtocolEngine, VisibilityPolicy};
use pocc_proto::{
    ClientReply, ClientRequest, GetResponse, MetricsSnapshot, ProtocolServer, ServerIntrospect,
    ServerMessage, ServerOutput, TxItem,
};
use pocc_storage::{partition_for_key, shard_for_key, ShardStats, ShardedStore, StoreStats};
use pocc_types::{
    ClientId, Config, DependencyVector, Key, ReplicaId, ServerId, Timestamp, Version,
};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Where a [`ParallelServer`] delivers its replies and server-to-server messages.
///
/// [`Sink::emit`] is called from lane threads and from whichever thread drives the
/// server's methods, sometimes while internal locks are held — it must not block
/// (staging on a transport, as the cluster runtime does, is the intended shape).
/// [`Sink::flush`] is the other half of that staging: a lane calls it once per batch,
/// before it blocks on its mailbox again, because nobody else would flush for it. The
/// thread driving the server owes its own flush before it blocks. Any
/// `Fn(ServerOutput)` closure is a sink that stages nothing.
pub trait Sink: Send + Sync {
    /// Delivers (or stages) one output.
    fn emit(&self, output: ServerOutput);

    /// Writes out whatever [`Sink::emit`] staged.
    fn flush(&self) {}
}

impl<F: Fn(ServerOutput) + Send + Sync> Sink for F {
    fn emit(&self, output: ServerOutput) {
        self(output)
    }
}

/// The shared handle a [`ParallelServer`] delivers its outputs through.
pub type OutputSink = Arc<dyn Sink>;

/// One engine driving all four protocols through a boxed policy.
type Engine<C> = ProtocolEngine<C, Box<dyn VisibilityPolicy<C>>>;

/// Mailbox capacity per lane; a full mailbox blocks the submitter (backpressure).
const MAILBOX: usize = 1024;
/// Maximum operations a lane coalesces into one batch (amortises spine locking).
const BATCH: usize = 64;
/// Drain iterations spent yielding before falling back to short parks: lanes complete
/// their slots within a few instructions of going off-lock, so a yield almost always
/// suffices; the park only triggers when the owning lane thread was descheduled.
const DRAIN_SPIN_LIMIT: u64 = 64;
/// How long a drain iteration parks once the spin budget is exhausted.
const DRAIN_PARK: std::time::Duration = std::time::Duration::from_micros(50);

/// The server has shut down and can no longer accept operations. Returned by
/// [`ParallelServer::submit_client`] after [`ParallelServer::shutdown`] (a *full*
/// mailbox is not an error — it blocks the submitter as backpressure).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServerClosed;

impl std::fmt::Display for ServerClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "the server has shut down")
    }
}

impl std::error::Error for ServerClosed {}

enum LaneMsg {
    Op(ClientId, ClientRequest),
    Remote(Arc<RemoteSlot>),
    Shutdown,
}

/// A timestamp reserved for an in-flight pipelined PUT. The lane completes the slot
/// (version installed in the store) without any lock; the spine publishes completed
/// reservations in FIFO — i.e. timestamp — order.
struct Slot {
    done: AtomicBool,
    version: Mutex<Option<Version>>,
}

struct Reservation {
    ts: Timestamp,
    slot: Arc<Slot>,
}

/// One replicated remote version on its way into the store. The payload travels to the
/// key's lane, which installs it off-spine; `claimed` lets the spine-side drain install
/// a slot itself instead of waiting on a lane that may be blocked on the spine mutex.
struct RemoteSlot {
    claimed: AtomicBool,
    done: AtomicBool,
    version: Mutex<Option<Version>>,
}

impl RemoteSlot {
    fn new(version: Version) -> Self {
        RemoteSlot {
            claimed: AtomicBool::new(false),
            done: AtomicBool::new(false),
            version: Mutex::new(Some(version)),
        }
    }

    /// Installs the version into `store` exactly once, no matter how many threads race
    /// here (the owning lane and any number of drains may all try).
    fn install(&self, store: &ShardedStore) {
        if self.claimed.swap(true, Ordering::AcqRel) {
            return;
        }
        let version = self
            .version
            .lock()
            .take()
            .expect("an unclaimed remote slot holds its version");
        store
            .insert(version)
            .expect("replicated update routed to the wrong partition");
        self.done.store(true, Ordering::Release);
    }
}

/// A queued remote version: what the sweep needs to absorb the advance once the slot's
/// payload is installed.
struct RemoteRes {
    from: ServerId,
    key: Key,
    ts: Timestamp,
    slot: Arc<RemoteSlot>,
}

/// The spine: the full protocol engine plus the write pipeline, behind one mutex.
struct Spine<C> {
    engine: Engine<C>,
    /// In-flight PUT reservations, in reservation (= timestamp) order.
    pipe: VecDeque<Reservation>,
    /// Highest timestamp ever reserved; the floor for the next reservation, so lane
    /// timestamps stay strictly increasing even across pipeline drains.
    floor: Timestamp,
}

/// Counters of operations lanes served without the spine, folded into
/// [`MetricsSnapshot`] by probes (the engine only sees spine-dispatched operations).
#[derive(Default)]
struct LaneCounters {
    gets: AtomicU64,
    rotx: AtomicU64,
    tx_items: AtomicU64,
    old_tx_items: AtomicU64,
    fast_path_hits: AtomicU64,
    fast_path_misses: AtomicU64,
    spine_acquisitions: AtomicU64,
    drain_spins: AtomicU64,
}

struct Shared<C> {
    id: ServerId,
    num_replicas: usize,
    num_partitions: usize,
    num_shards: usize,
    put_waits_for_dependencies: bool,
    profile: FastPathProfile,
    /// Handle to the same sharded store the engine owns (lanes insert, readers read).
    store: ShardedStore,
    spine: Mutex<Spine<C>>,
    /// Queued remote versions, one FIFO per origin replica (replication channels are
    /// FIFO and siblings send in timestamp order, so each queue is timestamp-ordered).
    /// Guarded by its own mutex so enqueueing never waits on a spine drain.
    /// Lock order: spine before remote, never the reverse.
    remote: Mutex<Vec<VecDeque<RemoteRes>>>,
    /// Epoch snapshot of the engine's version vector as per-replica atomics, advanced
    /// after every pipeline sweep. Snapshot-covered GET/RO-TX batches are served
    /// against it without taking any lock.
    published: PublishedVector,
    lane: LaneCounters,
    sink: OutputSink,
}

impl<C: Clock> Shared<C> {
    fn lock_spine(&self) -> parking_lot::MutexGuard<'_, Spine<C>> {
        let spine = self.spine.lock();
        self.lane.spine_acquisitions.fetch_add(1, Ordering::Relaxed);
        spine
    }

    fn try_lock_spine(&self) -> Option<parking_lot::MutexGuard<'_, Spine<C>>> {
        let spine = self.spine.try_lock()?;
        self.lane.spine_acquisitions.fetch_add(1, Ordering::Relaxed);
        Some(spine)
    }

    /// Publishes the contiguous prefix of completed local reservations and installed
    /// remote versions into the engine: version-vector advances, PUT accounting and
    /// replication fan-out for local writes, replication accounting and the policy's
    /// `on_replicate` hook for remote ones — all in per-origin timestamp order. Must be
    /// called with the spine lock held (hence `&mut Spine`).
    fn sweep(&self, spine: &mut Spine<C>) {
        let mut outputs = Vec::new();
        let mut published = false;
        while let Some(front) = spine.pipe.front() {
            if !front.slot.done.load(Ordering::Acquire) {
                break;
            }
            let res = spine.pipe.pop_front().expect("front exists");
            let version = res
                .slot
                .version
                .lock()
                .take()
                .expect("a completed reservation holds its version");
            let core = spine.engine.core_mut();
            core.vv.advance(self.id.replica, res.ts);
            core.metrics.puts_served += 1;
            for i in 0..core.siblings().len() {
                let sibling = core.siblings()[i];
                let msg = ServerMessage::Replicate {
                    version: version.clone(),
                };
                core.send_via_batcher(sibling, msg, &mut outputs);
            }
            published = true;
        }
        {
            let mut remote = self.remote.lock();
            for queue in remote.iter_mut() {
                while queue
                    .front()
                    .is_some_and(|r| r.slot.done.load(Ordering::Acquire))
                {
                    let res = queue.pop_front().expect("front exists");
                    spine
                        .engine
                        .absorb_remote_version(res.from, res.key, res.ts, &mut outputs);
                    published = true;
                }
            }
        }
        if published {
            // Local and/or origin VV entries advanced: parked operations may now be
            // servable, and lane readers get a fresher epoch snapshot.
            spine.engine.core_mut().unpark(&mut outputs);
            self.published.refresh_from(&spine.engine.core().vv);
        }
        self.ship(outputs);
    }

    /// Waits until every in-flight reservation and queued remote version has been
    /// published. Queued remote slots are installed *by this thread* (see
    /// [`RemoteSlot::install`]): their owning lane may be blocked on the spine mutex we
    /// hold, so waiting for it would deadlock. Local reservations are only ever
    /// completed off-lock, immediately after classification, so a short spin covers
    /// them; the park only triggers when the owning lane was descheduled mid-insert.
    fn drain(&self, spine: &mut Spine<C>) {
        let mut spins = 0u64;
        loop {
            self.install_queued_remote();
            self.sweep(spine);
            if spine.pipe.is_empty() && self.remote.lock().iter().all(|q| q.is_empty()) {
                break;
            }
            spins += 1;
            if spins <= DRAIN_SPIN_LIMIT {
                std::thread::yield_now();
            } else {
                std::thread::sleep(DRAIN_PARK);
            }
        }
        if spins > 0 {
            self.lane.drain_spins.fetch_add(spins, Ordering::Relaxed);
        }
    }

    /// Claims and installs every queued remote version that its lane has not picked up
    /// yet (the lane finds the slot claimed and skips it).
    fn install_queued_remote(&self) {
        let remote = self.remote.lock();
        for queue in remote.iter() {
            for res in queue.iter() {
                res.slot.install(&self.store);
            }
        }
    }

    /// Runs `f` against the engine with the pipeline fully drained — the only way any
    /// code outside the sweep may touch the engine. Outputs are shipped while the spine
    /// is still held, so replication order on the FIFO channels matches engine order.
    fn with_engine<R>(&self, f: impl FnOnce(&mut Engine<C>, &mut Vec<ServerOutput>) -> R) -> R {
        let mut spine = self.lock_spine();
        self.drain(&mut spine);
        let mut outputs = Vec::new();
        let r = f(&mut spine.engine, &mut outputs);
        // Heartbeats and handled messages may have advanced the local VV entry past the
        // reservation floor; keep future reservations above both.
        let local_vv = spine.engine.core().vv.get(self.id.replica);
        spine.floor = spine.floor.max(local_vv);
        self.published.refresh_from(&spine.engine.core().vv);
        self.ship(outputs);
        r
    }

    /// Runs `f` against the engine of a lane-less server. Nothing is ever reserved or
    /// queued there and nothing reads the publication, so there is no drain and no
    /// refresh: the spine lock is all that stands between the caller and the engine.
    fn in_place(&self, f: impl FnOnce(&mut Engine<C>) -> Vec<ServerOutput>) {
        let mut spine = self.lock_spine();
        let outputs = f(&mut spine.engine);
        self.ship(outputs);
    }

    fn ship(&self, outputs: Vec<ServerOutput>) {
        for out in outputs {
            self.sink.emit(out);
        }
    }

    /// Reserves the next PUT timestamp under the spine lock, mirroring `serve_put`'s
    /// floor rule: strictly above the client's dependencies, the local VV entry and
    /// every previous reservation.
    fn reserve(&self, spine: &mut Spine<C>, dv: &DependencyVector) -> Reservation {
        let core = spine.engine.core_mut();
        let now = core.clock.now();
        let floor = dv
            .max_entry()
            .max(core.vv.get(self.id.replica))
            .max(spine.floor);
        let ts = if now > floor {
            now
        } else {
            core.metrics.clock_wait_time +=
                floor.saturating_since(now) + std::time::Duration::from_micros(1);
            floor.tick()
        };
        spine.floor = ts;
        let slot = Arc::new(Slot {
            done: AtomicBool::new(false),
            version: Mutex::new(None),
        });
        spine.pipe.push_back(Reservation {
            ts,
            slot: Arc::clone(&slot),
        });
        Reservation { ts, slot }
    }

    /// Builds a GET payload the way the engine's `response_for` does.
    fn response_for(&self, version: Option<Version>) -> GetResponse {
        match version {
            Some(v) => GetResponse {
                value: Some(v.value),
                update_time: v.update_time,
                deps: v.deps,
                source_replica: v.source_replica,
            },
            None => GetResponse {
                value: None,
                update_time: Timestamp::ZERO,
                deps: DependencyVector::zero(self.num_replicas),
                source_replica: self.id.replica,
            },
        }
    }

    /// Serves a dependency-covered GET straight from the store (no spine).
    fn serve_lane_get(&self, client: ClientId, key: Key) {
        let response = self.response_for(self.store.latest(key));
        self.lane.gets.fetch_add(1, Ordering::Relaxed);
        self.sink
            .emit(ServerOutput::reply(client, ClientReply::Get(response)));
    }

    /// Reads every key of an entirely-local RO-TX under the published snapshot `tv`
    /// (the caller has checked `tv` covers the client's dependencies, so it is exactly
    /// the `VV ∨ RDV` snapshot POCC would pick — just from a possibly slightly older
    /// epoch). Returns `None` when GC may have removed a version the snapshot needs;
    /// the caller then defers to the spine, which owns the abort bookkeeping.
    fn lane_rotx_items(&self, keys: &[Key], tv: &DependencyVector) -> Option<Vec<TxItem>> {
        let mut items = Vec::with_capacity(keys.len());
        let mut old = 0u64;
        for &key in keys {
            let outcome = self.store.latest_in_snapshot(key, tv);
            if outcome.version.is_none() && self.store.snapshot_may_predate_gc(key, tv) {
                return None;
            }
            if outcome.is_old() {
                old += 1;
            }
            items.push(TxItem {
                key,
                response: self.response_for(outcome.version),
            });
        }
        self.lane
            .tx_items
            .fetch_add(items.len() as u64, Ordering::Relaxed);
        self.lane.old_tx_items.fetch_add(old, Ordering::Relaxed);
        Some(items)
    }
}

/// What a lane decided to do with one operation of a batch, holding the spine lock.
enum Classified {
    FastPut {
        client: ClientId,
        key: Key,
        value: pocc_types::Value,
        dv: DependencyVector,
        res: Reservation,
    },
    FastGet {
        client: ClientId,
        key: Key,
    },
    Defer {
        client: ClientId,
        request: ClientRequest,
    },
}

fn lane_loop<C: Clock + 'static>(shared: Arc<Shared<C>>, rx: Receiver<LaneMsg>) {
    loop {
        let first = match rx.recv() {
            Ok(msg) => msg,
            Err(_) => return,
        };
        let mut batch = Vec::with_capacity(BATCH);
        let mut remotes = Vec::new();
        let mut shutdown = false;
        match first {
            LaneMsg::Op(client, request) => batch.push((client, request)),
            LaneMsg::Remote(slot) => remotes.push(slot),
            LaneMsg::Shutdown => return,
        }
        while batch.len() + remotes.len() < BATCH {
            match rx.try_recv() {
                Ok(LaneMsg::Op(client, request)) => batch.push((client, request)),
                Ok(LaneMsg::Remote(slot)) => remotes.push(slot),
                Ok(LaneMsg::Shutdown) => {
                    shutdown = true;
                    break;
                }
                Err(_) => break,
            }
        }
        // Remote installs first: they are pure store inserts and unblock the spine's
        // watermark (a drain waiting on these queues claims unstarted slots itself).
        if !remotes.is_empty() {
            for slot in &remotes {
                slot.install(&shared.store);
            }
            // Opportunistically absorb the advances; if the spine is busy, whoever
            // holds it sweeps on its way out, and ticks sweep periodically.
            if let Some(mut spine) = shared.try_lock_spine() {
                shared.sweep(&mut spine);
            }
        }
        if !batch.is_empty() {
            process_batch(&shared, batch);
        }
        // Replies and replication alike: the lane is about to block on its mailbox.
        shared.sink.flush();
        if shutdown {
            return;
        }
    }
}

/// Serves a batch consisting purely of snapshot-covered GETs and entirely-local,
/// snapshot-covered RO-TXs straight from the store, without any lock. Returns `false`
/// (serving nothing) if any operation of the batch does not qualify.
fn try_serve_from_snapshot<C: Clock + 'static>(
    shared: &Shared<C>,
    batch: &[(ClientId, ClientRequest)],
) -> bool {
    let snapshot = shared.published.load();
    let covered = batch.iter().all(|(_, request)| match request {
        ClientRequest::Get { rdv, .. } => {
            snapshot.covers_dependencies_except_local(rdv, shared.id.replica)
        }
        ClientRequest::RoTx { keys, rdv } => {
            snapshot.covers(rdv)
                && keys
                    .iter()
                    .all(|&k| partition_for_key(k, shared.num_partitions) == shared.id.partition)
        }
        ClientRequest::Put { .. } => false,
    });
    if !covered {
        return false;
    }
    // Compute every reply before shipping any: an RO-TX can still lose its snapshot to
    // garbage collection, in which case the whole batch falls back to the spine path
    // (re-serving the GETs there is harmless — nothing has been shipped yet).
    let tv = snapshot.snapshot_with(&DependencyVector::zero(shared.num_replicas));
    let mut replies = Vec::with_capacity(batch.len());
    let mut rotx = 0u64;
    for (client, request) in batch {
        match request {
            ClientRequest::Get { key, .. } => replies.push((
                *client,
                ClientReply::Get(shared.response_for(shared.store.latest(*key))),
            )),
            ClientRequest::RoTx { keys, .. } => match shared.lane_rotx_items(keys, &tv) {
                Some(items) => {
                    rotx += 1;
                    replies.push((*client, ClientReply::RoTx { items }));
                }
                None => return false,
            },
            ClientRequest::Put { .. } => unreachable!("PUTs are never snapshot-covered"),
        }
    }
    // Count before shipping: a client that has its reply in hand may probe metrics
    // immediately, and must already see this batch accounted for.
    let gets = replies.len() as u64 - rotx;
    shared.lane.gets.fetch_add(gets, Ordering::Relaxed);
    shared.lane.rotx.fetch_add(rotx, Ordering::Relaxed);
    shared
        .lane
        .fast_path_hits
        .fetch_add(replies.len() as u64, Ordering::Relaxed);
    for (client, reply) in replies {
        shared.sink.emit(ServerOutput::reply(client, reply));
    }
    true
}

fn process_batch<C: Clock + 'static>(shared: &Shared<C>, batch: Vec<(ClientId, ClientRequest)>) {
    // Reader fast path: a batch of GETs and local RO-TXs all covered by the published
    // epoch snapshot is served entirely from the store, without any lock.
    if shared.profile.gets && try_serve_from_snapshot(shared, &batch) {
        return;
    }

    // Classify under the spine lock (exact, live VV), then execute off-lock.
    let classified: Vec<Classified> = {
        let mut spine = shared.lock_spine();
        shared.sweep(&mut spine);
        batch
            .into_iter()
            .map(|(client, request)| match request {
                ClientRequest::Put { key, value, dv }
                    if shared.profile.puts
                        && (!shared.profile.puts_check_deps
                            || !shared.put_waits_for_dependencies
                            || spine.engine.core().covers_remote_deps(&dv)) =>
                {
                    let res = shared.reserve(&mut spine, &dv);
                    Classified::FastPut {
                        client,
                        key,
                        value,
                        dv,
                        res,
                    }
                }
                ClientRequest::Get { key, ref rdv }
                    if shared.profile.gets && spine.engine.core().covers_remote_deps(rdv) =>
                {
                    Classified::FastGet { client, key }
                }
                request => Classified::Defer { client, request },
            })
            .collect()
    };

    // As above: account for the whole batch before any reply ships.
    let hits = classified
        .iter()
        .filter(|op| !matches!(op, Classified::Defer { .. }))
        .count() as u64;
    if hits > 0 {
        shared
            .lane
            .fast_path_hits
            .fetch_add(hits, Ordering::Relaxed);
    }
    let mut deferred = Vec::new();
    let mut reserved = false;
    for op in classified {
        match op {
            Classified::FastPut {
                client,
                key,
                value,
                dv,
                res,
            } => {
                let version = Version::new(key, value, shared.id.replica, res.ts, dv);
                shared
                    .store
                    .insert(version.clone())
                    .expect("PUT routed to the wrong partition");
                *res.slot.version.lock() = Some(version);
                res.slot.done.store(true, Ordering::Release);
                reserved = true;
                shared.sink.emit(ServerOutput::reply(
                    client,
                    ClientReply::Put {
                        update_time: res.ts,
                    },
                ));
            }
            Classified::FastGet { client, key } => shared.serve_lane_get(client, key),
            Classified::Defer { client, request } => deferred.push((client, request)),
        }
    }

    if !deferred.is_empty() {
        shared
            .lane
            .fast_path_misses
            .fetch_add(deferred.len() as u64, Ordering::Relaxed);
        // All of this lane's own reservations are completed above, so the drain inside
        // with_engine cannot wait on ourselves — and it publishes them.
        shared.with_engine(|engine, outputs| {
            for (client, request) in deferred {
                outputs.extend(engine.handle_client_request(client, request));
            }
        });
    } else if reserved {
        // Publish this batch's PUTs (version-vector advance, replication fan-out) before
        // the lane blocks again, instead of leaving them to whatever reaches the spine
        // next — possibly a tick. A reservation of another lane still in flight stops the
        // sweep short; that lane sweeps in turn once it completes, so the last one to
        // finish publishes all.
        shared.sweep(&mut shared.lock_spine());
    }
}

struct Lane {
    tx: SyncSender<LaneMsg>,
    handle: Option<JoinHandle<()>>,
}

/// A protocol server over a spine-locked [`ProtocolEngine`]; see the crate docs for the
/// concurrency story.
///
/// Replies and server-to-server messages flow through the [`OutputSink`] passed to
/// [`ParallelServer::start`]. With more than one lane, [`ParallelServer::submit_client`]
/// routes client operations to worker-lane threads, and
/// [`ParallelServer::handle_server_message`] routes replicated remote versions to them as
/// well — only genuinely-deferred messages (heartbeats, slices, stabilization, GC) and
/// ticks run on the calling thread. With one lane there are no lane threads: every call
/// runs the engine in place, on the calling thread. [`ServerIntrospect`] is implemented
/// with full-drain semantics, so probes observe a consistent engine.
pub struct ParallelServer<C> {
    shared: Arc<Shared<C>>,
    /// Empty at one lane, where the engine runs in place.
    lanes: Vec<Lane>,
    /// Set by [`ParallelServer::shutdown`], which a lane-less server has no hung-up
    /// mailbox to report.
    closed: bool,
}

impl<C: Clock + 'static> ParallelServer<C> {
    /// Starts a server for `id` running `protocol`: `config.worker_lanes` lane threads,
    /// or none at one lane.
    pub fn start(
        id: ServerId,
        config: Config,
        protocol: ProtocolKind,
        clock: C,
        sink: OutputSink,
    ) -> Self {
        let num_lanes = if config.worker_lanes > 1 {
            config.worker_lanes
        } else {
            0
        };
        let now = clock.now();
        let policy = protocol.policy::<C>(&config, now);
        let engine = ProtocolEngine::new(id, config.clone(), clock, policy);
        let shared = Arc::new(Shared {
            id,
            num_replicas: config.num_replicas,
            num_partitions: config.num_partitions,
            num_shards: config.storage_shards,
            put_waits_for_dependencies: config.put_waits_for_dependencies,
            profile: protocol.fast_path(),
            store: engine.core().store.clone(),
            published: PublishedVector::new(&engine.core().vv),
            remote: Mutex::new((0..config.num_replicas).map(|_| VecDeque::new()).collect()),
            spine: Mutex::new(Spine {
                engine,
                pipe: VecDeque::new(),
                floor: Timestamp::ZERO,
            }),
            lane: LaneCounters::default(),
            sink,
        });
        let lanes = (0..num_lanes)
            .map(|i| {
                let (tx, rx) = bounded(MAILBOX);
                let shared = Arc::clone(&shared);
                let handle = std::thread::Builder::new()
                    .name(format!("pocc-lane-{}-{}-{i}", id.replica.0, id.partition.0))
                    .spawn(move || lane_loop(shared, rx))
                    .expect("spawn lane thread");
                Lane {
                    tx,
                    handle: Some(handle),
                }
            })
            .collect();
        ParallelServer {
            shared,
            lanes,
            closed: false,
        }
    }

    /// The identity of this server.
    pub fn server_id(&self) -> ServerId {
        self.shared.id
    }

    /// Serves a client operation in place, or routes it to its key's lane. Blocks when
    /// the lane's mailbox is full (backpressure); returns [`ServerClosed`] after
    /// [`ParallelServer::shutdown`].
    pub fn submit_client(
        &self,
        client: ClientId,
        request: ClientRequest,
    ) -> Result<(), ServerClosed> {
        if self.closed {
            return Err(ServerClosed);
        }
        if self.lanes.is_empty() {
            self.shared
                .in_place(|engine| engine.handle_client_request(client, request));
            return Ok(());
        }
        let key = match &request {
            ClientRequest::Get { key, .. } | ClientRequest::Put { key, .. } => *key,
            // RO-TX is served (or deferred) wherever it lands; route by first key so
            // repeated transactions spread across lanes.
            ClientRequest::RoTx { keys, .. } => keys.first().copied().unwrap_or(Key(0)),
        };
        self.lane_for(key)
            .send(LaneMsg::Op(client, request))
            .map_err(|_| ServerClosed)
    }

    fn lane_for(&self, key: Key) -> &SyncSender<LaneMsg> {
        &self.lanes[shard_for_key(key, self.shared.num_shards) % self.lanes.len()].tx
    }

    /// Handles a message from another server: in place at one lane. With lanes,
    /// replicated versions are queued on the per-origin pipeline and routed to their
    /// key's lane, which installs them into the store off-spine; everything else is
    /// handled on the spine (pipeline drained first, so per-origin arrival order is
    /// preserved).
    pub fn handle_server_message(&self, from: ServerId, message: ServerMessage) {
        if self.lanes.is_empty() {
            return self
                .shared
                .in_place(|engine| engine.handle_server_message(from, message));
        }
        match message {
            ServerMessage::Replicate { version } => self.submit_remote(from, version),
            ServerMessage::Batch { messages } => {
                for message in messages {
                    self.handle_server_message(from, message);
                }
            }
            message => self.shared.with_engine(|engine, outputs| {
                outputs.extend(engine.handle_server_message(from, message));
            }),
        }
    }

    /// Queues one replicated remote version and hands its payload to the key's lane.
    fn submit_remote(&self, from: ServerId, version: Version) {
        let key = version.key;
        let ts = version.update_time;
        let slot = Arc::new(RemoteSlot::new(version));
        {
            let mut remote = self.shared.remote.lock();
            remote[from.replica.0 as usize].push_back(RemoteRes {
                from,
                key,
                ts,
                slot: Arc::clone(&slot),
            });
        }
        if self.lane_for(key).send(LaneMsg::Remote(slot)).is_err() {
            // Shutdown raced the message; nothing may drive the spine again, so
            // install inline to keep the queued reservation completable.
            self.shared.install_queued_remote();
        }
    }

    /// Runs one engine tick (batcher flush, heartbeats, policy periodic work).
    pub fn tick(&self) {
        self.shared.with_engine(|engine, outputs| {
            outputs.extend(engine.tick());
        });
    }
}

impl<C> ParallelServer<C> {
    /// Stops every lane and joins the threads; later submissions report
    /// [`ServerClosed`]. Called automatically on drop.
    pub fn shutdown(&mut self) {
        self.closed = true;
        for lane in &self.lanes {
            // A dead lane has already hung up; ignore the send error.
            let _ = lane.tx.send(LaneMsg::Shutdown);
        }
        for lane in &mut self.lanes {
            if let Some(handle) = lane.handle.take() {
                let _ = handle.join();
            }
        }
    }
}

impl<C> Drop for ParallelServer<C> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl<C: Clock + 'static> ServerIntrospect for ParallelServer<C> {
    fn metrics(&self) -> MetricsSnapshot {
        let mut m = self
            .shared
            .with_engine(|engine, _| ServerIntrospect::metrics(engine));
        let lane = &self.shared.lane;
        m.gets_served += lane.gets.load(Ordering::Relaxed);
        m.rotx_served += lane.rotx.load(Ordering::Relaxed);
        m.tx_items_returned += lane.tx_items.load(Ordering::Relaxed);
        // Lane RO-TXs run only under the POCC profile, whose slice-unmerged mode
        // classifies every old item as unmerged (`SliceUnmergedMode::OldIsUnmerged`).
        m.old_tx_items += lane.old_tx_items.load(Ordering::Relaxed);
        m.unmerged_tx_items += lane.old_tx_items.load(Ordering::Relaxed);
        m.lane_fast_path_hits = lane.fast_path_hits.load(Ordering::Relaxed);
        m.lane_fast_path_misses = lane.fast_path_misses.load(Ordering::Relaxed);
        m.spine_acquisitions = lane.spine_acquisitions.load(Ordering::Relaxed);
        m.drain_spins = lane.drain_spins.load(Ordering::Relaxed);
        m
    }

    fn digest(&self) -> Vec<(Key, Timestamp, ReplicaId)> {
        self.shared
            .with_engine(|engine, _| ServerIntrospect::digest(engine))
    }

    fn store_stats(&self) -> StoreStats {
        self.shared
            .with_engine(|engine, _| ServerIntrospect::store_stats(engine))
    }

    fn shard_stats(&self) -> Vec<ShardStats> {
        self.shared
            .with_engine(|engine, _| ServerIntrospect::shard_stats(engine))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;
    use pocc_clock::{MonotonicClock, SystemClock};
    use pocc_types::{PartitionId, Value};

    fn single_server_config(lanes: usize) -> Config {
        Config::builder()
            .num_replicas(1)
            .num_partitions(1)
            .worker_lanes(lanes)
            .build()
            .expect("valid config")
    }

    fn start(
        protocol: ProtocolKind,
        lanes: usize,
    ) -> (
        ParallelServer<MonotonicClock<SystemClock>>,
        Receiver<ServerOutput>,
    ) {
        start_with_config(protocol, single_server_config(lanes))
    }

    fn start_with_config(
        protocol: ProtocolKind,
        config: Config,
    ) -> (
        ParallelServer<MonotonicClock<SystemClock>>,
        Receiver<ServerOutput>,
    ) {
        let (tx, rx) = unbounded();
        let sink: OutputSink = Arc::new(move |out| {
            let _ = tx.send(out);
        });
        let server = ParallelServer::start(
            ServerId::new(ReplicaId(0), PartitionId(0)),
            config,
            protocol,
            MonotonicClock::new(SystemClock::new()),
            sink,
        );
        (server, rx)
    }

    fn recv_reply(rx: &Receiver<ServerOutput>) -> ClientReply {
        loop {
            match rx
                .recv_timeout(std::time::Duration::from_secs(5))
                .expect("an output before the timeout")
            {
                ServerOutput::Reply { reply, .. } => return reply,
                // Multi-replica servers also emit replication traffic; skip it.
                ServerOutput::Send { .. } => continue,
            }
        }
    }

    #[test]
    fn pocc_put_then_get_round_trip() {
        let (server, rx) = start(ProtocolKind::Pocc, 2);
        let client = ClientId(1);
        let dv = DependencyVector::zero(1);
        server
            .submit_client(
                client,
                ClientRequest::Put {
                    key: Key(7),
                    value: Value::from("v"),
                    dv: dv.clone(),
                },
            )
            .expect("server is running");
        let update_time = match recv_reply(&rx) {
            ClientReply::Put { update_time } => update_time,
            other => panic!("expected a PUT reply, got {other:?}"),
        };
        assert!(update_time > Timestamp::ZERO);

        server
            .submit_client(
                client,
                ClientRequest::Get {
                    key: Key(7),
                    rdv: dv,
                },
            )
            .expect("server is running");
        match recv_reply(&rx) {
            ClientReply::Get(resp) => {
                assert_eq!(resp.value, Some(Value::from("v")));
                assert_eq!(resp.update_time, update_time);
            }
            other => panic!("expected a GET reply, got {other:?}"),
        }
    }

    #[test]
    fn concurrent_puts_all_publish_with_unique_timestamps() {
        let (server, rx) = start(ProtocolKind::Pocc, 4);
        let n = 400u64;
        for i in 0..n {
            server
                .submit_client(
                    ClientId(i),
                    ClientRequest::Put {
                        key: Key(i),
                        value: Value::from(i),
                        dv: DependencyVector::zero(1),
                    },
                )
                .expect("server is running");
        }
        let mut times = Vec::new();
        for _ in 0..n {
            match recv_reply(&rx) {
                ClientReply::Put { update_time } => times.push(update_time),
                other => panic!("expected a PUT reply, got {other:?}"),
            }
        }
        times.sort();
        times.dedup();
        assert_eq!(times.len() as u64, n, "update times are unique");

        // Probes drain the pipeline, so every PUT is published by the time we look.
        let metrics = server.metrics();
        assert_eq!(metrics.puts_served, n);
        assert_eq!(server.digest().len() as u64, n);
        assert_eq!(server.store_stats().versions as u64, n);
    }

    #[test]
    fn every_protocol_serves_the_client_api() {
        for (lanes, protocol) in [1, 2]
            .into_iter()
            .flat_map(|lanes| ProtocolKind::ALL.map(|protocol| (lanes, protocol)))
        {
            let (server, rx) = start(protocol, lanes);
            let client = ClientId(9);
            let dv = DependencyVector::zero(1);
            server
                .submit_client(
                    client,
                    ClientRequest::Put {
                        key: Key(3),
                        value: Value::from("x"),
                        dv: dv.clone(),
                    },
                )
                .expect("server is running");
            assert!(matches!(recv_reply(&rx), ClientReply::Put { .. }));
            server
                .submit_client(
                    client,
                    ClientRequest::Get {
                        key: Key(3),
                        rdv: dv.clone(),
                    },
                )
                .expect("server is running");
            match recv_reply(&rx) {
                ClientReply::Get(resp) => assert_eq!(resp.value, Some(Value::from("x"))),
                other => panic!("{protocol:?}: expected a GET reply, got {other:?}"),
            }
            server
                .submit_client(
                    client,
                    ClientRequest::RoTx {
                        keys: vec![Key(3)],
                        rdv: dv,
                    },
                )
                .expect("server is running");
            match recv_reply(&rx) {
                ClientReply::RoTx { items } => assert_eq!(items.len(), 1),
                other => panic!("{protocol:?}: expected an RO-TX reply, got {other:?}"),
            }
            let m = server.metrics();
            assert_eq!(m.puts_served, 1, "{protocol:?} lanes={lanes}");
            assert_eq!(m.gets_served, 1, "{protocol:?} lanes={lanes}");
            assert_eq!(m.rotx_served, 1, "{protocol:?} lanes={lanes}");
            // Lanes classify every operation; without lanes there is no fast path.
            let classified = if lanes > 1 { 3 } else { 0 };
            assert_eq!(
                m.lane_fast_path_hits + m.lane_fast_path_misses,
                classified,
                "{protocol:?} lanes={lanes}: {m:?}"
            );
        }
    }

    #[test]
    fn ticks_interleaved_with_writes_keep_the_engine_consistent() {
        let (server, rx) = start(ProtocolKind::Pocc, 2);
        for i in 0..100u64 {
            server
                .submit_client(
                    ClientId(i),
                    ClientRequest::Put {
                        key: Key(i),
                        value: Value::from(i),
                        dv: DependencyVector::zero(1),
                    },
                )
                .expect("server is running");
            if i % 10 == 0 {
                server.tick();
            }
        }
        for _ in 0..100 {
            let _ = recv_reply(&rx);
        }
        assert_eq!(server.metrics().puts_served, 100);
        assert_eq!(server.store_stats().versions, 100);
    }

    #[test]
    fn submit_after_shutdown_reports_server_closed_instead_of_panicking() {
        for lanes in [1, 2] {
            let (mut server, _rx) = start(ProtocolKind::Pocc, lanes);
            server.shutdown();
            let result = server.submit_client(
                ClientId(1),
                ClientRequest::Get {
                    key: Key(1),
                    rdv: DependencyVector::zero(1),
                },
            );
            assert_eq!(result, Err(ServerClosed), "lanes={lanes}");
        }
    }

    #[test]
    fn remote_versions_are_applied_off_spine_and_become_visible() {
        // Alone, and interleaved one-to-two with client PUTs (what a replica of a
        // three-replica deployment sees when every replica writes at the same rate); in
        // place and through lanes.
        for (lanes, client_puts) in [(1, false), (1, true), (4, false), (4, true)] {
            let config = Config::builder()
                .num_replicas(3)
                .num_partitions(1)
                .worker_lanes(lanes)
                .build()
                .expect("valid config");
            let (server, rx) = start_with_config(ProtocolKind::Pocc, config);
            let origin_a = ServerId::new(ReplicaId(1), PartitionId(0));
            let origin_b = ServerId::new(ReplicaId(2), PartitionId(0));
            let n = 200u64;
            for i in 0..n {
                let mk = |origin: ServerId, ts: u64| ServerMessage::Replicate {
                    version: Version::new(
                        Key(i),
                        Value::from(i),
                        origin.replica,
                        Timestamp::from_micros(ts),
                        DependencyVector::zero(3),
                    ),
                };
                // Per-origin timestamps strictly increase, as FIFO replication guarantees.
                server.handle_server_message(origin_a, mk(origin_a, i + 1));
                server.handle_server_message(origin_b, mk(origin_b, i + 1));
                if client_puts {
                    let put = ClientRequest::Put {
                        key: Key(i),
                        value: Value::from(i),
                        dv: DependencyVector::zero(3),
                    };
                    server
                        .submit_client(ClientId(i), put)
                        .expect("server is running");
                }
            }
            let local = if client_puts { n } else { 0 };
            for _ in 0..local {
                assert!(matches!(recv_reply(&rx), ClientReply::Put { .. }));
            }
            // Every injected version is absorbed and counted, every PUT published.
            let metrics = server.metrics();
            assert_eq!(metrics.replicate_received, 2 * n);
            assert_eq!(metrics.puts_served, local);
            assert_eq!(server.store_stats().versions as u64, 2 * n + local);

            // A GET depending on the last remote version is served once published.
            let mut rdv = DependencyVector::zero(3);
            rdv.set(ReplicaId(1), Timestamp::from_micros(n));
            server
                .submit_client(ClientId(1), ClientRequest::Get { key: Key(0), rdv })
                .expect("server is running");
            match recv_reply(&rx) {
                ClientReply::Get(resp) => assert!(resp.value.is_some()),
                other => panic!("expected a GET reply, got {other:?}"),
            }
        }
    }

    #[test]
    fn batched_replication_interleaved_with_heartbeats_keeps_order() {
        for lanes in [1, 2] {
            let config = Config::builder()
                .num_replicas(2)
                .num_partitions(1)
                .worker_lanes(lanes)
                .build()
                .expect("valid config");
            let (server, _rx) = start_with_config(ProtocolKind::Pocc, config);
            let origin = ServerId::new(ReplicaId(1), PartitionId(0));
            let versions: Vec<ServerMessage> = (0..50u64)
                .map(|i| ServerMessage::Replicate {
                    version: Version::new(
                        Key(i),
                        Value::from(i),
                        origin.replica,
                        Timestamp::from_micros(i + 1),
                        DependencyVector::zero(2),
                    ),
                })
                .collect();
            server.handle_server_message(origin, ServerMessage::Batch { messages: versions });
            // The heartbeat's advance must not overtake the queued versions: handling it
            // drains the remote pipeline first.
            server.handle_server_message(
                origin,
                ServerMessage::Heartbeat {
                    clock: Timestamp::from_micros(1_000),
                },
            );
            let metrics = server.metrics();
            assert_eq!(metrics.replicate_received, 50, "lanes={lanes}");
            assert_eq!(metrics.heartbeats_received, 1, "lanes={lanes}");
            assert_eq!(server.store_stats().versions, 50, "lanes={lanes}");
        }
    }
}
