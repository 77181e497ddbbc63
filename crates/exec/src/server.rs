//! The threaded server: worker lanes in front of one spine-locked protocol engine.

use crate::ProtocolKind;
use crossbeam::channel::{bounded, Receiver, SyncSender};
use parking_lot::Mutex;
use pocc_clock::Clock;
use pocc_proto::{
    ClientReply, ClientRequest, InstrumentedServer, MetricsSnapshot, ServerIntrospect,
    ServerMessage, ServerOutput,
};
use pocc_storage::{partition_for_key, shard_for_key, StoreStats};
use pocc_types::{ClientId, Config, Key, ReplicaId, ServerId, Timestamp};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Where a [`ParallelServer`] delivers its replies and server-to-server messages.
///
/// [`Sink::emit`] is called from lane threads and from whichever thread drives the
/// server's methods, always while the spine is held — it must not block (staging on a
/// transport, as the cluster runtime does, is the intended shape). [`Sink::flush`] is the
/// other half of that staging: a lane calls it once per batch, before it blocks on its
/// mailbox again, because nobody else would flush for it. The thread driving the server
/// owes its own flush before it blocks. Any `Fn(ServerOutput)` closure is a sink that
/// stages nothing.
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

/// Mailbox capacity per lane; a full mailbox blocks the submitter (backpressure).
const MAILBOX: usize = 1024;
/// Maximum operations a lane runs under one spine acquisition.
const BATCH: usize = 64;
/// Listed chains one GC step trims under one spine acquisition (see
/// [`ParallelServer::tick`]).
pub const GC_STEP: usize = 256;

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

/// What the lanes and the driving thread share: the engine behind the spine mutex, the
/// contention counters of [`MetricsSnapshot`] and the sink.
struct Shared {
    spine: Mutex<Box<dyn InstrumentedServer>>,
    /// Times the spine was locked.
    spine_acquisitions: AtomicU64,
    /// Client operations the lanes ran on the engine.
    lane_ops: AtomicU64,
    sink: OutputSink,
}

impl Shared {
    /// Runs `f` against the engine under the spine and emits the outputs it collects
    /// before the lock is released, so messages leave on the FIFO links in engine order:
    /// a heartbeat can never overtake a smaller-timestamped write to the same sibling.
    fn with_engine<R>(
        &self,
        f: impl FnOnce(&mut dyn InstrumentedServer, &mut Vec<ServerOutput>) -> R,
    ) -> R {
        let mut engine = self.spine.lock();
        self.spine_acquisitions.fetch_add(1, Ordering::Relaxed);
        let mut outputs = Vec::new();
        let r = f(&mut **engine, &mut outputs);
        for output in outputs {
            self.sink.emit(output);
        }
        r
    }
}

/// A lane's body. It ends once [`ParallelServer::shutdown`] has hung up its mailbox and
/// everything queued before that has been served.
fn lane_loop(shared: Arc<Shared>, rx: Receiver<(ClientId, ClientRequest)>) {
    let mut batch = Vec::with_capacity(BATCH);
    while let Ok(op) = rx.recv() {
        batch.push(op);
        batch.extend(rx.try_iter().take(BATCH - 1));
        // Count before the replies ship: a client holding its reply may probe at once.
        shared
            .lane_ops
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        shared.with_engine(|engine, outputs| {
            for (client, request) in batch.drain(..) {
                outputs.extend(engine.handle_client_request(client, request));
            }
        });
        // Replies and replication alike: the lane is about to block on its mailbox.
        shared.sink.flush();
    }
}

struct Lane {
    tx: SyncSender<(ClientId, ClientRequest)>,
    handle: JoinHandle<()>,
}

/// A protocol server: the engine [`ProtocolKind::server`] builds, behind a mutex (the
/// *spine*), fed by worker lanes; see the crate docs.
///
/// Replies and server-to-server messages flow through the [`OutputSink`] passed to
/// [`ParallelServer::start`]. With more than one lane, [`ParallelServer::submit_client`]
/// routes client operations to worker-lane threads, each of which runs a batch under one
/// spine acquisition; server messages, ticks and probes run on the calling thread. With
/// one lane there are no lane threads: every call runs on the calling thread. Each
/// [`ServerIntrospect`] call takes the spine once, so several calls observe one engine
/// state only on a quiescent server.
pub struct ParallelServer {
    id: ServerId,
    num_partitions: usize,
    storage_shards: usize,
    shared: Arc<Shared>,
    /// Empty at one lane, where the engine runs on the calling thread.
    lanes: Vec<Lane>,
    /// Set by [`ParallelServer::shutdown`], which also empties `lanes`.
    closed: bool,
}

impl ParallelServer {
    /// Starts a server for `id` running `protocol`: `config.worker_lanes` lane threads,
    /// or none at one lane.
    pub fn start<C: Clock + 'static>(
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
        let (num_partitions, storage_shards) = (config.num_partitions, config.storage_shards);
        let shared = Arc::new(Shared {
            spine: Mutex::new(protocol.server(id, config, clock)),
            spine_acquisitions: AtomicU64::new(0),
            lane_ops: AtomicU64::new(0),
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
                Lane { tx, handle }
            })
            .collect();
        ParallelServer {
            id,
            num_partitions,
            storage_shards,
            shared,
            lanes,
            closed: false,
        }
    }

    /// The identity of this server.
    pub fn server_id(&self) -> ServerId {
        self.id
    }

    /// Serves a client operation in place, or routes it to its key's lane. Blocks when
    /// the lane's mailbox is full (backpressure); returns [`ServerClosed`] after
    /// [`ParallelServer::shutdown`].
    ///
    /// A GET or PUT for a key of another partition is answered with
    /// [`ClientReply::SessionAborted`] and never reaches the engine. An RO-TX may span
    /// partitions: this server coordinates it whatever its keys.
    pub fn submit_client(
        &self,
        client: ClientId,
        request: ClientRequest,
    ) -> Result<(), ServerClosed> {
        if self.closed {
            return Err(ServerClosed);
        }
        let key = match &request {
            ClientRequest::Get { key, .. } | ClientRequest::Put { key, .. } => {
                let owner = partition_for_key(*key, self.num_partitions);
                if owner != self.id.partition {
                    let reason = format!(
                        "key {} belongs to partition {owner}, not to server {}",
                        key.0, self.id
                    );
                    let reply = ClientReply::SessionAborted { reason };
                    self.shared.sink.emit(ServerOutput::reply(client, reply));
                    return Ok(());
                }
                *key
            }
            // Route by first key so repeated transactions spread across lanes.
            ClientRequest::RoTx { keys, .. } => keys.first().copied().unwrap_or(Key(0)),
        };
        if self.lanes.is_empty() {
            self.shared.with_engine(|engine, outputs| {
                *outputs = engine.handle_client_request(client, request);
            });
            return Ok(());
        }
        self.lanes[shard_for_key(key, self.storage_shards) % self.lanes.len()]
            .tx
            .send((client, request))
            .map_err(|_| ServerClosed)
    }

    /// Handles a message from another server, on the calling thread.
    pub fn handle_server_message(&self, from: ServerId, message: ServerMessage) {
        self.shared.with_engine(|engine, outputs| {
            *outputs = engine.handle_server_message(from, message);
        });
    }

    /// Runs one engine tick (batcher flush, heartbeats, policy periodic work) under one
    /// spine acquisition. A GC pass the tick begins then runs in steps of at most
    /// `GC_STEP` listed chains, each under a spine acquisition of its own, so lanes and
    /// delivering threads get the spine between steps instead of waiting for a whole
    /// pass. Before each step the ticking thread yields its processor: the spine is not
    /// a fair lock, and a thread that re-locks at once usually gets it back before a
    /// woken waiter runs. The pass is done when this returns, as with a serial engine's
    /// tick; an idle tick takes the spine once.
    pub fn tick(&self) {
        let mut gc_pending = self
            .shared
            .with_engine(|engine, outputs| engine.tick_leaving_gc(outputs));
        while gc_pending {
            std::thread::yield_now();
            gc_pending = !self.shared.with_engine(|engine, _| engine.gc_step(GC_STEP));
        }
    }

    /// Stops every lane and joins the threads; later submissions report
    /// [`ServerClosed`]. Called automatically on drop.
    pub fn shutdown(&mut self) {
        self.closed = true;
        for lane in self.lanes.drain(..) {
            drop(lane.tx);
            let _ = lane.handle.join();
        }
    }
}

impl Drop for ParallelServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl ServerIntrospect for ParallelServer {
    fn metrics(&self) -> MetricsSnapshot {
        let mut m = self
            .shared
            .with_engine(|engine, _| ServerIntrospect::metrics(engine));
        m.lane_fast_path_misses = self.shared.lane_ops.load(Ordering::Relaxed);
        m.spine_acquisitions = self.shared.spine_acquisitions.load(Ordering::Relaxed);
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

    fn shard_stats(&self) -> Vec<StoreStats> {
        self.shared
            .with_engine(|engine, _| ServerIntrospect::shard_stats(engine))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;
    use pocc_clock::{ManualClock, MonotonicClock, SystemClock};
    use pocc_types::{DependencyVector, PartitionId, Value, Version};
    use std::time::Duration;

    fn single_server_config(lanes: usize) -> Config {
        Config::builder()
            .num_replicas(1)
            .num_partitions(1)
            .worker_lanes(lanes)
            .build()
            .expect("valid config")
    }

    fn start(protocol: ProtocolKind, lanes: usize) -> (ParallelServer, Receiver<ServerOutput>) {
        start_with_config(protocol, single_server_config(lanes))
    }

    fn start_with_config(
        protocol: ProtocolKind,
        config: Config,
    ) -> (ParallelServer, Receiver<ServerOutput>) {
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
                .recv_timeout(Duration::from_secs(5))
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

        // A PUT is installed before it is answered, so every one is visible by now.
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
            // Lanes run every operation on the engine; without lanes there are none.
            let on_lanes = if lanes > 1 { 3 } else { 0 };
            assert_eq!(
                m.lane_fast_path_misses, on_lanes,
                "{protocol:?} lanes={lanes}"
            );
            assert_eq!(m.lane_fast_path_hits, 0, "{protocol:?} lanes={lanes}");
            assert_eq!(m.drain_spins, 0, "{protocol:?} lanes={lanes}");
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
    fn remote_versions_interleaved_with_client_puts_become_visible() {
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
            // Every injected version is absorbed and counted, every PUT installed.
            let metrics = server.metrics();
            assert_eq!(metrics.replicate_received, 2 * n);
            assert_eq!(metrics.puts_served, local);
            assert_eq!(server.store_stats().versions as u64, 2 * n + local);

            // A GET depending on the last remote version is served.
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
            // The heartbeat's advance lands after every version of the batch before it.
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

    /// Keys that each get two versions below: enough listed chains that a GC pass over
    /// them takes several steps.
    const GC_CHAINS: u64 = 1_000;

    fn spine_acquisitions(server: &ParallelServer) -> u64 {
        server.shared.spine_acquisitions.load(Ordering::Relaxed)
    }

    /// A tick whose GC pass runs in steps leaves the store, and the counters, a serial
    /// engine's tick leaves after the same writes at the same clock readings. The pass
    /// takes a spine acquisition per step on top of the tick's own; an idle tick takes
    /// one.
    #[test]
    fn a_stepped_gc_pass_leaves_what_a_serial_tick_leaves() {
        let id = ServerId::new(ReplicaId(0), PartitionId(0));
        let put = |i: u64| ClientRequest::Put {
            key: Key(i % GC_CHAINS),
            value: Value::from(i),
            dv: DependencyVector::zero(1),
        };
        let start = Timestamp::from(Duration::from_millis(10));
        for (lanes, protocol) in [1, 2]
            .into_iter()
            .flat_map(|lanes| ProtocolKind::ALL.map(|protocol| (lanes, protocol)))
        {
            let config = single_server_config(lanes);
            let gc_interval = config.gc_interval;
            let context = format!("{protocol} lanes={lanes}");

            let clock = ManualClock::new(start);
            let mut serial = protocol.server(id, config.clone(), clock.clone());
            for i in 0..2 * GC_CHAINS {
                clock.advance(Duration::from_micros(1));
                serial.handle_client_request(ClientId(i), put(i));
            }
            clock.advance(gc_interval);
            serial.tick();

            let clock = ManualClock::new(start);
            let (tx, rx) = unbounded();
            let sink: OutputSink = Arc::new(move |out| {
                let _ = tx.send(out);
            });
            let parallel = ParallelServer::start(id, config, protocol, clock.clone(), sink);
            for i in 0..2 * GC_CHAINS {
                clock.advance(Duration::from_micros(1));
                parallel.submit_client(ClientId(i), put(i)).unwrap();
                // One write at a time, so each reads the same clock the serial run did.
                while !matches!(rx.recv().unwrap(), ServerOutput::Reply { .. }) {}
            }
            assert_eq!(parallel.store_stats().max_chain_len, 2, "{context}");
            clock.advance(gc_interval);
            let before = spine_acquisitions(&parallel);
            parallel.tick();
            let pass = spine_acquisitions(&parallel) - before;
            let steps = GC_CHAINS.div_ceil(GC_STEP as u64);
            assert!(
                pass > steps,
                "{context}: {pass} acquisitions for {steps} steps"
            );

            let stats = parallel.store_stats();
            assert_eq!(stats.gc_removed as u64, GC_CHAINS, "{context}");
            assert_eq!(serial.store_stats(), stats, "{context}");
            assert_eq!(serial.digest(), parallel.digest(), "{context}");
            let metrics = MetricsSnapshot {
                lane_fast_path_misses: 0,
                spine_acquisitions: 0,
                ..parallel.metrics()
            };
            assert_eq!(serial.metrics(), metrics, "{context}");

            let before = spine_acquisitions(&parallel);
            parallel.tick();
            assert_eq!(
                spine_acquisitions(&parallel) - before,
                1,
                "{context}: idle tick"
            );
        }
    }

    fn flatten_into(message: ServerMessage, link: &mut Vec<ServerMessage>) {
        match message {
            ServerMessage::Batch { messages } => {
                for message in messages {
                    flatten_into(message, link);
                }
            }
            message => link.push(message),
        }
    }

    #[test]
    fn heartbeats_never_promise_a_timestamp_below_an_unsent_write() {
        // A heartbeat at clock T promises the sibling that every later message from this
        // replica is newer than T. So on the link, replicated update times and heartbeat
        // clocks together must strictly increase, however lanes, writers and ticks
        // interleave.
        const WRITERS: u64 = 4;
        const PUTS: u64 = 100;
        let sibling = ServerId::new(ReplicaId(1), PartitionId(0));
        for (lanes, batching) in [1, 2, 4]
            .into_iter()
            .flat_map(|lanes| [(lanes, false), (lanes, true)])
        {
            let config = Config::builder()
                .num_replicas(2)
                .num_partitions(1)
                .heartbeat_interval(Duration::from_micros(200))
                .replication_batching(batching)
                .worker_lanes(lanes)
                .build()
                .expect("valid config");
            let (server, rx) = start_with_config(ProtocolKind::Pocc, config);
            std::thread::scope(|s| {
                let writers: Vec<_> = (0..WRITERS)
                    .map(|w| {
                        let server = &server;
                        s.spawn(move || {
                            for i in 0..PUTS {
                                let put = ClientRequest::Put {
                                    key: Key(w * PUTS + i),
                                    value: Value::from(i),
                                    dv: DependencyVector::zero(2),
                                };
                                server
                                    .submit_client(ClientId(w), put)
                                    .expect("server is running");
                                // Pauses longer than the heartbeat interval let heartbeats in.
                                if i % 10 == 9 {
                                    std::thread::sleep(Duration::from_micros(500));
                                }
                            }
                        })
                    })
                    .collect();
                while !writers.iter().all(|w| w.is_finished()) {
                    server.tick();
                    std::thread::sleep(Duration::from_micros(50));
                }
            });
            let mut outputs = Vec::new();
            let mut replies = 0;
            while replies < WRITERS * PUTS {
                let output = rx
                    .recv_timeout(Duration::from_secs(5))
                    .expect("every PUT is answered");
                replies += u64::from(matches!(output, ServerOutput::Reply { .. }));
                outputs.push(output);
            }
            // A last tick past the heartbeat interval ships whatever is still batched and
            // ends the link with a heartbeat.
            std::thread::sleep(Duration::from_micros(300));
            server.tick();
            outputs.extend(rx.try_iter());

            let mut link = Vec::new();
            for output in outputs {
                if let ServerOutput::Send { to, message } = output {
                    assert_eq!(to, sibling);
                    flatten_into(message, &mut link);
                }
            }
            let stamps: Vec<(Timestamp, &str)> = link
                .iter()
                .map(|message| match message {
                    ServerMessage::Replicate { version } => (version.update_time, "replicate"),
                    ServerMessage::Heartbeat { clock } => (*clock, "heartbeat"),
                    other => panic!("unexpected message to the sibling: {other:?}"),
                })
                .collect();
            let heartbeats = stamps
                .iter()
                .filter(|(_, kind)| *kind == "heartbeat")
                .count();
            let context = format!("lanes={lanes} batching={batching}");
            assert_eq!(
                (stamps.len() - heartbeats) as u64,
                WRITERS * PUTS,
                "{context}"
            );
            assert!(heartbeats > 0, "{context}: no heartbeat was sent");
            for pair in stamps.windows(2) {
                assert!(pair[0].0 < pair[1].0, "{context}: {pair:?} out of order");
            }
        }
    }
}
