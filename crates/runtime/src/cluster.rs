//! The cluster: server threads over a pluggable transport, and lifecycle management.

use crate::client::ClusterClient;
use crate::router::{Inbound, Router, Server};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError};
use pocc_clock::{MonotonicClock, SystemClock};
use pocc_exec::{ParallelServer, ProtocolKind, Sink};
use pocc_net::transport::{ClientPort, TransportKind};
use pocc_proto::{MetricsSnapshot, ServerIntrospect, ServerOutput};
use pocc_storage::StoreStats;
use pocc_types::{ClientId, Config, Key, ReplicaId, ServerId, Timestamp};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One server's introspection surface, read on the server's own thread. The three fields
/// are read under three separate spine acquisitions, so they describe one engine state
/// only on a quiescent server: with worker lanes, a lane may run a batch in between.
#[derive(Clone, Debug)]
pub struct ServerProbe {
    /// The server's metric counters.
    pub metrics: MetricsSnapshot,
    /// `(key, update_time, source_replica)` of the latest visible version of every key.
    pub digest: Vec<(Key, Timestamp, ReplicaId)>,
    /// Aggregate version-store statistics.
    pub store_stats: StoreStats,
}

/// How many additional inbox events a server thread drains greedily after a blocking
/// receive before it flushes and looks at the clock again. Bounds how long a burst of
/// inbox events (channel-transport traffic; on TCP only probes and shutdown) can hold
/// back staged output and the next tick.
const DRAIN_BUDGET: usize = 128;

/// Builder for [`Cluster`]. Defaults to [`Config::small_test`] running POCC on the
/// in-process channel transport, each server with a thread of its own for ticks, probes
/// and (on the channel transport) traffic; set [`Config::worker_lanes`] above 1 to give
/// every server that many worker lanes, and [`ClusterBuilder::transport`] to pick the
/// transport backend. On TCP, the connection reader that decodes a request or a peer
/// message runs it on the server itself.
///
/// ```
/// use pocc_runtime::{Cluster, ProtocolKind, TransportKind};
/// use pocc_types::Config;
///
/// let cluster = Cluster::builder()
///     .config(Config {
///         worker_lanes: 2,
///         ..Config::small_test()
///     })
///     .protocol(ProtocolKind::Pocc)
///     .transport(TransportKind::Channel)
///     .start();
/// # cluster.shutdown();
/// ```
#[derive(Clone, Debug)]
pub struct ClusterBuilder {
    config: Config,
    protocol: ProtocolKind,
    transport: TransportKind,
}

impl Default for ClusterBuilder {
    fn default() -> Self {
        ClusterBuilder {
            config: Config::small_test(),
            protocol: ProtocolKind::Pocc,
            transport: TransportKind::Channel,
        }
    }
}

impl ClusterBuilder {
    /// Uses `config` as the deployment configuration.
    pub fn config(mut self, config: Config) -> Self {
        self.config = config;
        self
    }

    /// Runs `protocol` on every server.
    pub fn protocol(mut self, protocol: ProtocolKind) -> Self {
        self.protocol = protocol;
        self
    }

    /// Connects the servers through `transport` (default: in-process channels).
    pub fn transport(mut self, transport: TransportKind) -> Self {
        self.transport = transport;
        self
    }

    /// Starts the cluster: one [`ParallelServer`] and one thread per server of the
    /// configuration, all running the chosen protocol over the chosen transport. Every
    /// server is started and registered with the router before any server thread runs;
    /// each thread then holds the only strong handle to its server and drops it on exit.
    pub fn start(self) -> Cluster {
        let ClusterBuilder {
            config,
            protocol,
            transport,
        } = self;
        config.validate().expect("cluster configuration is valid");
        let (router, mut inboxes) = Router::new(config.clone(), transport);
        let running = Arc::new(AtomicBool::new(true));

        let servers: Vec<(ServerId, Arc<Server>)> = config
            .servers()
            .map(|id| {
                let clock = MonotonicClock::new(SystemClock::with_epoch(router.epoch()));
                let sink = Arc::new(RouterSink {
                    id,
                    router: router.clone(),
                });
                let server = ParallelServer::start(id, config.clone(), protocol, clock, sink);
                (id, Arc::new(server))
            })
            .collect();
        router.register_servers(
            servers
                .iter()
                .map(|(id, server)| (*id, Arc::downgrade(server)))
                .collect(),
        );

        let mut threads = Vec::new();
        for (id, server) in servers {
            let inbox = inboxes.remove(&id).expect("every server has an inbox");
            let thread_router = router.clone();
            let tick_every = config.heartbeat_interval;
            let thread_running = Arc::clone(&running);
            let handle = std::thread::Builder::new()
                .name(format!("pocc-server-{id}"))
                .spawn(move || {
                    server_thread(id, server, tick_every, thread_router, inbox, thread_running)
                })
                .expect("spawning a server thread succeeds");
            threads.push(handle);
        }

        Cluster {
            router,
            threads,
            running,
            next_client: Arc::new(AtomicU64::new(0)),
            protocol,
            transport,
        }
    }
}

/// A running in-process cluster: one thread per server, each in front of a
/// [`ParallelServer`] (plus that server's worker lanes when `worker_lanes > 1`),
/// connected by the chosen transport backend. On the channel transport the server
/// thread runs every request and peer message; on TCP the connection reader that decodes
/// one runs it on the server and flushes, and the server thread keeps ticks, probes and
/// shutdown.
///
/// Create it with [`Cluster::builder`], obtain client handles with [`Cluster::client`],
/// and stop it with [`Cluster::shutdown`] (also invoked on drop).
pub struct Cluster {
    router: Router,
    threads: Vec<JoinHandle<()>>,
    running: Arc<AtomicBool>,
    next_client: Arc<AtomicU64>,
    protocol: ProtocolKind,
    transport: TransportKind,
}

impl Cluster {
    /// Returns a builder for configuring and starting a cluster.
    pub fn builder() -> ClusterBuilder {
        ClusterBuilder::default()
    }

    /// The protocol this cluster runs.
    pub fn protocol(&self) -> ProtocolKind {
        self.protocol
    }

    /// The transport backend this cluster runs on.
    pub fn transport(&self) -> TransportKind {
        self.transport
    }

    /// The deployment configuration.
    pub fn config(&self) -> &Config {
        self.router.config()
    }

    /// The socket address of `server` — `Some` on the TCP transport (this is what
    /// external load generators connect to), `None` on the channel transport.
    pub fn server_addr(&self, server: ServerId) -> Option<SocketAddr> {
        self.router.server_addr(server)
    }

    /// Opens a client session in data center `replica`. The session is collocated with an
    /// arbitrary partition of that data center, like the clients of the paper's test-bed.
    pub fn client(&self, replica: ReplicaId) -> ClusterClient {
        let id = ClientId(self.next_client.fetch_add(1, Ordering::Relaxed));
        let partition = (id.raw() as usize % self.config().num_partitions) as u32;
        let home = ServerId::new(replica, partition);
        // Snapshot-serving protocols need the full session history in GET request
        // vectors (see `Client::new_snapshot_reads`).
        let snapshot_reads = self.protocol.snapshot_reads();
        let port = self.router.client_port(id);
        ClusterClient::new(id, home, self.config().clone(), port, snapshot_reads)
    }

    /// Opens a raw transport port paired with a fresh client id, for external drivers
    /// (load generators) that run their own protocol sessions and manage pipelining
    /// themselves. On the TCP transport the port dials real localhost sockets, exactly
    /// like an out-of-process client would.
    pub fn open_port(&self) -> (ClientId, Box<dyn ClientPort>) {
        let id = ClientId(self.next_client.fetch_add(1, Ordering::Relaxed));
        (id, self.router.client_port(id))
    }

    /// Takes an introspection snapshot of one server: metrics, convergence digest and
    /// store statistics, consistent with each other only on a quiescent server (see
    /// [`ServerProbe`]).
    pub fn probe(&self, server: ServerId) -> ServerProbe {
        let (tx, rx) = unbounded();
        self.router.probe(server, tx);
        rx.recv_timeout(Duration::from_secs(10))
            .expect("server answers introspection probes")
    }

    /// Probes every server of the cluster, in `config.servers()` order.
    pub fn probe_all(&self) -> Vec<(ServerId, ServerProbe)> {
        self.config()
            .servers()
            .collect::<Vec<_>>()
            .into_iter()
            .map(|id| (id, self.probe(id)))
            .collect()
    }

    /// Stops every thread and waits for them to exit.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.running.swap(false, Ordering::SeqCst) {
            self.router.broadcast_shutdown();
        }
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
        self.router.shutdown_transport();
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Where a server's outputs go: staged on the transport, and written out by whoever runs
/// out of input — the server thread after every drained batch and tick, a worker lane
/// after every batch of its own, and on TCP the connection reader that ran the server
/// after every `read`.
struct RouterSink {
    id: ServerId,
    router: Router,
}

impl Sink for RouterSink {
    fn emit(&self, output: ServerOutput) {
        match output {
            ServerOutput::Reply { client, reply } => self.router.reply(self.id, client, reply),
            ServerOutput::Send { to, message } => self.router.send_server(self.id, to, message),
        }
    }

    fn flush(&self) {
        self.router.flush(self.id);
    }
}

/// The per-server thread body: loop between the inbox and the periodic tick until
/// shutdown, then drop the thread's handle to the server. On the TCP transport the inbox
/// carries only probes and shutdown (connection readers run traffic on the server
/// themselves), so the thread wakes once per heartbeat; on the channel transport it also
/// carries every request and peer message. Outputs are only staged while the inbox has
/// more; the flush after every drained batch (and every tick) comes before the thread
/// blocks again, so the TCP backend's write coalescing never defers a message past the
/// handling of the inputs that produced it. Worker lanes, when there are any, flush
/// their own.
fn server_thread(
    id: ServerId,
    server: Arc<Server>,
    tick_every: Duration,
    router: Router,
    inbox: Receiver<Inbound>,
    running: Arc<AtomicBool>,
) {
    let mut next_tick = Instant::now() + tick_every;

    while running.load(Ordering::Relaxed) {
        let now = Instant::now();
        if now >= next_tick {
            server.tick();
            router.flush(id);
            next_tick = now + tick_every;
            continue;
        }
        match inbox.recv_timeout(next_tick - now) {
            Ok(first) => {
                // Greedily drain whatever else is already queued (bounded), then flush
                // once: a burst of pipelined requests becomes one write per client
                // connection and one per peer.
                let mut event = Some(first);
                let mut drained = 0;
                let mut stop = false;
                while let Some(ev) = event.take() {
                    match ev {
                        Inbound::FromClient { client, request } => {
                            // Only a lane that died refuses an operation: stop serving
                            // instead of panicking.
                            stop = server.submit_client(client, request).is_err();
                        }
                        Inbound::FromServer { from, message } => {
                            server.handle_server_message(from, message);
                        }
                        Inbound::Probe { reply } => {
                            let _ = reply.send(probe_of(server.as_ref()));
                        }
                        Inbound::Shutdown => stop = true,
                    }
                    drained += 1;
                    if stop || drained >= DRAIN_BUDGET {
                        break;
                    }
                    event = inbox.try_recv().ok();
                }
                router.flush(id);
                if stop {
                    break;
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    router.flush(id);
}

fn probe_of<S: ServerIntrospect>(server: &S) -> ServerProbe {
    ServerProbe {
        metrics: server.metrics(),
        digest: server.digest(),
        store_stats: server.store_stats(),
    }
}

/// Convenience: the server responsible for `key` in data center `replica`.
pub(crate) fn server_for_key(config: &Config, replica: ReplicaId, key: Key) -> ServerId {
    ServerId::new(
        replica,
        pocc_storage::partition_for_key(key, config.num_partitions),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pocc_proto::{ClientReply, ClientRequest};
    use pocc_types::{DependencyVector, LatencyMatrix, Value};

    fn small_config() -> Config {
        Config::builder()
            .num_replicas(2)
            .num_partitions(2)
            .latency(LatencyMatrix::uniform(
                2,
                Duration::from_micros(50),
                Duration::from_millis(3),
            ))
            .build()
            .unwrap()
    }

    #[test]
    fn put_then_get_through_a_real_cluster() {
        let cluster = Cluster::builder()
            .config(small_config())
            .protocol(ProtocolKind::Pocc)
            .start();
        let mut client = cluster.client(ReplicaId(0));
        let ut = client.put(Key(7), Value::from("v")).unwrap();
        assert!(ut > Timestamp::ZERO);
        let got = client.get(Key(7)).unwrap();
        assert_eq!(got.unwrap().as_slice(), b"v");
        cluster.shutdown();
    }

    #[test]
    fn writes_replicate_across_data_centers() {
        let cluster = Cluster::builder()
            .config(small_config())
            .protocol(ProtocolKind::Pocc)
            .start();
        let mut writer = cluster.client(ReplicaId(0));
        let mut reader = cluster.client(ReplicaId(1));
        writer.put(Key(42), Value::from("geo")).unwrap();
        // Replication crosses the (emulated) WAN; poll briefly.
        let mut found = None;
        for _ in 0..100 {
            if let Some(v) = reader.get(Key(42)).unwrap() {
                found = Some(v);
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(found.expect("value replicates").as_slice(), b"geo");
        cluster.shutdown();
    }

    #[test]
    fn tcp_cluster_serves_clients_and_replicates() {
        let cluster = Cluster::builder()
            .config(small_config())
            .protocol(ProtocolKind::Pocc)
            .transport(TransportKind::Tcp)
            .start();
        assert!(cluster.server_addr(ServerId::new(0u16, 0u32)).is_some());
        let mut writer = cluster.client(ReplicaId(0));
        let mut reader = cluster.client(ReplicaId(1));
        let ut = writer.put(Key(7), Value::from("wire")).unwrap();
        assert!(ut > Timestamp::ZERO);
        assert_eq!(writer.get(Key(7)).unwrap().unwrap().as_slice(), b"wire");
        let mut found = None;
        for _ in 0..500 {
            if let Some(v) = reader.get(Key(7)).unwrap() {
                found = Some(v);
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(found.expect("value replicates").as_slice(), b"wire");
        cluster.shutdown();
    }

    #[test]
    fn writes_replicate_without_a_tick() {
        // Whoever runs a PUT flushes its reply and its replication before it blocks
        // again: a lane after its batch, the server thread after its inbox batch, and on
        // TCP at one lane the connection reader after its `read`, peer links included.
        // No tick fires during the test, so a reply left staged would time the client
        // out, and replication left staged would never reach the other data center.
        for transport in TransportKind::all() {
            for lanes in [1, 2] {
                let config = Config::builder()
                    .num_replicas(2)
                    .num_partitions(1)
                    .heartbeat_interval(Duration::from_secs(3600))
                    .worker_lanes(lanes)
                    .build()
                    .unwrap();
                let cluster = Cluster::builder()
                    .config(config)
                    .protocol(ProtocolKind::Pocc)
                    .transport(*transport)
                    .start();
                let mut writer = cluster.client(ReplicaId(0));
                for k in 0..50u64 {
                    writer.put(Key(k), Value::from(k)).unwrap();
                    assert_eq!(writer.get(Key(k)).unwrap().unwrap(), Value::from(k));
                }
                let mut reader = cluster.client(ReplicaId(1));
                let deadline = Instant::now() + Duration::from_secs(2);
                while reader.get(Key(49)).unwrap() != Some(Value::from(49u64)) {
                    assert!(
                        Instant::now() < deadline,
                        "{} lanes={lanes}: the last PUT never reached the other data center",
                        transport.name()
                    );
                    std::thread::sleep(Duration::from_millis(2));
                }
                cluster.shutdown();
            }
        }
    }

    #[test]
    fn a_misrouted_request_is_refused_and_the_server_keeps_serving() {
        // A GET or PUT for a key of another partition is outside input the engine would
        // panic on: the server answers it with an abort and goes on serving.
        let server = ServerId::new(ReplicaId(0), 0u32);
        let key_of = |owned: bool| {
            (0..)
                .map(Key)
                .find(|&k| (pocc_storage::partition_for_key(k, 2) == server.partition) == owned)
                .unwrap()
        };
        let put = |key| ClientRequest::Put {
            key,
            value: Value::from("x"),
            dv: DependencyVector::zero(2),
        };
        for transport in TransportKind::all() {
            for lanes in [1, 2] {
                let cluster = Cluster::builder()
                    .config(Config {
                        worker_lanes: lanes,
                        ..small_config()
                    })
                    .transport(*transport)
                    .start();
                let context = format!("{} lanes={lanes}", transport.name());
                let (_, mut port) = cluster.open_port();
                let foreign = key_of(false);
                let misrouted = [
                    put(foreign),
                    ClientRequest::Get {
                        key: foreign,
                        rdv: DependencyVector::zero(2),
                    },
                ];
                for request in misrouted {
                    port.submit(server, request).unwrap();
                    let reply = port.recv_timeout(Duration::from_secs(2)).unwrap();
                    assert!(
                        matches!(reply, ClientReply::SessionAborted { .. }),
                        "{context}: got {reply:?}"
                    );
                }
                port.submit(server, put(key_of(true))).unwrap();
                let reply = port.recv_timeout(Duration::from_secs(2)).unwrap();
                assert!(
                    matches!(reply, ClientReply::Put { .. }),
                    "{context}: got {reply:?}"
                );
                drop(port);
                cluster.shutdown();
            }
        }
    }

    #[test]
    fn adaptive_cluster_serves_the_same_api() {
        let cluster = Cluster::builder()
            .config(small_config())
            .protocol(ProtocolKind::Adaptive)
            .start();
        let mut client = cluster.client(ReplicaId(0));
        client.put(Key(11), Value::from("adaptive")).unwrap();
        assert_eq!(
            client.get(Key(11)).unwrap().unwrap().as_slice(),
            b"adaptive"
        );
        let tx = client.ro_tx(vec![Key(11), Key(12)]).unwrap();
        assert_eq!(tx.len(), 2);
        cluster.shutdown();
    }

    #[test]
    fn cure_cluster_serves_the_same_api() {
        let cluster = Cluster::builder()
            .config(small_config())
            .protocol(ProtocolKind::Cure)
            .start();
        let mut client = cluster.client(ReplicaId(0));
        client.put(Key(9), Value::from("cure")).unwrap();
        assert_eq!(client.get(Key(9)).unwrap().unwrap().as_slice(), b"cure");
        let tx = client.ro_tx(vec![Key(9), Key(10)]).unwrap();
        assert_eq!(tx.len(), 2);
        cluster.shutdown();
    }

    #[test]
    fn read_only_transactions_span_partitions() {
        let cluster = Cluster::builder()
            .config(small_config())
            .protocol(ProtocolKind::Pocc)
            .start();
        let mut client = cluster.client(ReplicaId(0));
        // Write to several keys so the transaction spans both partitions.
        for k in 0..6u64 {
            client.put(Key(k), Value::from(k)).unwrap();
        }
        // The transaction snapshot is bounded by the coordinator's version vector, which
        // learns about writes on *other* partitions through heartbeats (Algorithm 2 line
        // 32 uses RDV, which does not cover the client's own writes). Give the heartbeat
        // protocol a couple of intervals to advance before taking the snapshot.
        std::thread::sleep(Duration::from_millis(10));
        let results = client.ro_tx((0..6u64).map(Key).collect()).unwrap();
        assert_eq!(results.len(), 6);
        assert!(results.iter().all(|(_, v)| v.is_some()));
        cluster.shutdown();
    }

    #[test]
    fn parallel_servers_serve_clients_and_replicate() {
        let cluster = Cluster::builder()
            .config(Config {
                worker_lanes: 4,
                ..small_config()
            })
            .protocol(ProtocolKind::Pocc)
            .start();
        let mut writer = cluster.client(ReplicaId(0));
        let mut reader = cluster.client(ReplicaId(1));
        for k in 0..16u64 {
            writer.put(Key(k), Value::from(k)).unwrap();
        }
        assert_eq!(writer.get(Key(3)).unwrap().unwrap(), Value::from(3u64));
        let mut found = None;
        for _ in 0..200 {
            if let Some(v) = reader.get(Key(15)).unwrap() {
                found = Some(v);
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(found.expect("writes replicate"), Value::from(15u64));
        // Every PUT was answered, so the writer's home DC has served all 16.
        let served: u64 = cluster
            .probe_all()
            .into_iter()
            .filter(|(id, _)| id.replica == ReplicaId(0))
            .map(|(_, probe)| probe.metrics.puts_served)
            .sum();
        assert_eq!(served, 16);
        cluster.shutdown();
    }

    #[test]
    fn probes_reach_one_lane_servers() {
        let cluster = Cluster::builder()
            .config(small_config())
            .protocol(ProtocolKind::Pocc)
            .start();
        let mut client = cluster.client(ReplicaId(0));
        client.put(Key(1), Value::from("p")).unwrap();
        let target = server_for_key(cluster.config(), ReplicaId(0), Key(1));
        let probe = cluster.probe(target);
        assert_eq!(probe.metrics.puts_served, 1);
        assert_eq!(probe.store_stats.versions, 1);
        assert_eq!(probe.digest.len(), 1);
        cluster.shutdown();
    }

    #[test]
    fn server_for_key_matches_partitioning() {
        let config = small_config();
        let s = server_for_key(&config, ReplicaId(1), Key(5));
        assert_eq!(s.replica, ReplicaId(1));
        assert_eq!(
            s.partition,
            pocc_storage::partition_for_key(Key(5), config.num_partitions)
        );
    }
}
