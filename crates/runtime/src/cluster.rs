//! The cluster: server threads over a pluggable transport, and lifecycle management.

use crate::client::ClusterClient;
use pocc_clock::{MonotonicClock, SystemClock};
use pocc_exec::{ParallelServer, ProtocolKind, Sink};
use pocc_net::transport::{
    ChannelTransport, ClientPort, EventSink, TcpTransport, Transport, TransportEvent, TransportKind,
};
use pocc_proto::{MetricsSnapshot, ServerIntrospect, ServerOutput};
use pocc_storage::StoreStats;
use pocc_types::{ClientId, Config, Key, ReplicaId, ServerId, Timestamp};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A cluster server, as the runtime runs it.
type Server = ParallelServer;

/// The servers the event sink runs events on and probes read, registered once every
/// server has started. Weak, because each server's own sink holds the transport, and so
/// the event sink: only the server's thread keeps the server alive.
type Servers = OnceLock<HashMap<ServerId, Weak<Server>>>;

/// One server's introspection surface, read on the probing thread. The three fields are
/// read under three separate spine acquisitions, so they describe one engine state only
/// on a quiescent server: a lane or a delivering thread may run the engine in between.
#[derive(Clone, Debug)]
pub struct ServerProbe {
    /// The server's metric counters.
    pub metrics: MetricsSnapshot,
    /// `(key, update_time, source_replica)` of the latest visible version of every key.
    pub digest: Vec<(Key, Timestamp, ReplicaId)>,
    /// Aggregate version-store statistics.
    pub store_stats: StoreStats,
}

/// Builder for [`Cluster`]. Defaults to [`Config::small_test`] running POCC on the
/// in-process channel transport, each server with a thread of its own that ticks it;
/// set [`Config::worker_lanes`] above 1 to give every server that many worker lanes, and
/// [`ClusterBuilder::transport`] to pick the transport backend. On either transport, the
/// thread that delivers a request or a peer message runs it on the server itself.
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
    /// server is started and registered before any server thread or client exists, so
    /// the event sink never sees an event for a server it cannot find; each thread then
    /// holds the only strong handle to its server and drops it on exit.
    pub fn start(self) -> Cluster {
        let ClusterBuilder {
            config,
            protocol,
            transport,
        } = self;
        config.validate().expect("cluster configuration is valid");
        let servers: Arc<Servers> = Arc::default();
        let sink: EventSink = {
            let servers = Arc::clone(&servers);
            Arc::new(move |to, event| {
                // A server that is gone drops the event.
                let Some(server) = servers.get().and_then(|s| s.get(&to)?.upgrade()) else {
                    return;
                };
                match event {
                    TransportEvent::Client { client, request } => {
                        // A server whose lane died refuses the request: drop it.
                        let _ = server.submit_client(client, request);
                    }
                    TransportEvent::Peer { from, message } => {
                        server.handle_server_message(from, message);
                    }
                }
            })
        };
        let wire: Arc<dyn Transport> = match transport {
            TransportKind::Channel => ChannelTransport::start(config.clone(), sink),
            TransportKind::Tcp => TcpTransport::start(&config, sink)
                .expect("binding localhost TCP listeners succeeds"),
        };

        let epoch = Instant::now();
        let started: Vec<(ServerId, Arc<Server>)> = config
            .servers()
            .map(|id| {
                let clock = MonotonicClock::new(SystemClock::with_epoch(epoch));
                let sink = Arc::new(RouterSink {
                    id,
                    transport: Arc::clone(&wire),
                });
                let server = ParallelServer::start(id, config.clone(), protocol, clock, sink);
                (id, Arc::new(server))
            })
            .collect();
        let registry = started
            .iter()
            .map(|(id, server)| (*id, Arc::downgrade(server)))
            .collect();
        assert!(servers.set(registry).is_ok(), "servers are registered once");

        let running = Arc::new(AtomicBool::new(true));
        let threads = started
            .into_iter()
            .map(|(id, server)| {
                let transport = Arc::clone(&wire);
                let tick_every = config.heartbeat_interval;
                let running = Arc::clone(&running);
                std::thread::Builder::new()
                    .name(format!("pocc-server-{id}"))
                    .spawn(move || server_thread(id, server, tick_every, transport, running))
                    .expect("spawning a server thread succeeds")
            })
            .collect();

        Cluster {
            config,
            servers,
            wire,
            threads,
            running,
            next_client: Arc::new(AtomicU64::new(0)),
            protocol,
            transport,
        }
    }
}

/// A running in-process cluster: one thread per server, which ticks a
/// [`ParallelServer`] (plus that server's worker lanes when `worker_lanes > 1`),
/// connected by the chosen transport backend. Requests and peer messages run on the
/// server on whichever thread delivers them, which then flushes: a TCP connection reader,
/// a channel client's submitting thread, a channel flusher or the channel delay thread.
///
/// Create it with [`Cluster::builder`], obtain client handles with [`Cluster::client`],
/// and stop it with [`Cluster::shutdown`] (also invoked on drop).
pub struct Cluster {
    config: Config,
    servers: Arc<Servers>,
    wire: Arc<dyn Transport>,
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
        &self.config
    }

    /// The socket address of `server` — `Some` on the TCP transport (this is what
    /// external load generators connect to), `None` on the channel transport.
    pub fn server_addr(&self, server: ServerId) -> Option<SocketAddr> {
        self.wire.addr(server)
    }

    /// Opens a client session in data center `replica`. The session is collocated with an
    /// arbitrary partition of that data center, like the clients of the paper's test-bed.
    pub fn client(&self, replica: ReplicaId) -> ClusterClient {
        let id = ClientId(self.next_client.fetch_add(1, Ordering::Relaxed));
        let partition = (id.raw() as usize % self.config().num_partitions) as u32;
        let home = ServerId::new(replica, partition);
        let session = self.protocol.session(id, home, self.config().num_replicas);
        ClusterClient::new(session, self.config().clone(), self.wire.client_port(id))
    }

    /// Opens a raw transport port paired with a fresh client id, for external drivers
    /// (load generators) that run their own protocol sessions and manage pipelining
    /// themselves. On the TCP transport the port dials real localhost sockets, exactly
    /// like an out-of-process client would.
    pub fn open_port(&self) -> (ClientId, Box<dyn ClientPort>) {
        let id = ClientId(self.next_client.fetch_add(1, Ordering::Relaxed));
        (id, self.wire.client_port(id))
    }

    /// Takes an introspection snapshot of one server on the calling thread: metrics,
    /// convergence digest and store statistics, consistent with each other only on a
    /// quiescent server (see [`ServerProbe`]).
    pub fn probe(&self, server: ServerId) -> ServerProbe {
        let server = self
            .servers
            .get()
            .and_then(|s| s.get(&server)?.upgrade())
            .expect("probed servers are running");
        probe_of(server.as_ref())
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
        self.running.store(false, Ordering::SeqCst);
        for handle in &self.threads {
            handle.thread().unpark();
        }
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
        self.wire.shutdown();
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Where a server's outputs go: staged on the transport, and written out by whoever runs
/// out of input — the server thread after every tick, a worker lane after every batch of
/// its own, and the thread that delivered an event to the server after delivering it.
struct RouterSink {
    id: ServerId,
    transport: Arc<dyn Transport>,
}

impl Sink for RouterSink {
    fn emit(&self, output: ServerOutput) {
        match output {
            ServerOutput::Reply { client, reply } => self.transport.reply(self.id, client, reply),
            ServerOutput::Send { to, message } => self.transport.send_server(self.id, to, message),
        }
    }

    fn flush(&self) {
        self.transport.flush(self.id);
    }
}

/// The per-server thread body: tick and flush once per heartbeat, parked in between,
/// until [`Cluster::shutdown`] clears `running` and unparks it. Traffic never reaches
/// this thread; it runs on whichever thread delivers it. The thread then waits until its
/// handle is the last one before dropping the server: a delivering thread upgrades a
/// `Weak` from the registry for the length of one event, and were its handle the last,
/// it would join the server's lanes there, possibly while it holds a channel link's
/// delivery lock that their final flush needs.
fn server_thread(
    id: ServerId,
    server: Arc<Server>,
    tick_every: Duration,
    transport: Arc<dyn Transport>,
    running: Arc<AtomicBool>,
) {
    let mut next_tick = Instant::now() + tick_every;
    while running.load(Ordering::Relaxed) {
        let now = Instant::now();
        if now >= next_tick {
            server.tick();
            transport.flush(id);
            next_tick = now + tick_every;
        } else {
            std::thread::park_timeout(next_tick - now);
        }
    }
    let mut server = server;
    while let Err(shared) = Arc::try_unwrap(server) {
        server = shared;
        std::thread::yield_now();
    }
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
        // again: a lane after its batch, and at one lane the thread that delivered the
        // PUT — the TCP connection reader after its `read`, the channel client after its
        // `submit`. No tick fires during the test, so a reply left staged would time the
        // client out, and replication left staged would never reach the other data
        // center. Nor does the server thread wake by itself: shutdown must unpark it.
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
                let stopping = Instant::now();
                cluster.shutdown();
                assert!(
                    stopping.elapsed() < Duration::from_secs(1),
                    "{} lanes={lanes}: shutdown waited for a tick",
                    transport.name()
                );
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
        // A probe reads the server on the calling thread, whatever the transport and the
        // lane count.
        for transport in TransportKind::all() {
            for lanes in [1, 2] {
                let cluster = Cluster::builder()
                    .config(Config {
                        worker_lanes: lanes,
                        ..small_config()
                    })
                    .protocol(ProtocolKind::Pocc)
                    .transport(*transport)
                    .start();
                let mut client = cluster.client(ReplicaId(0));
                client.put(Key(1), Value::from("p")).unwrap();
                let target = server_for_key(cluster.config(), ReplicaId(0), Key(1));
                let probe = cluster.probe(target);
                let context = format!("{} lanes={lanes}", transport.name());
                assert_eq!(probe.metrics.puts_served, 1, "{context}");
                assert_eq!(probe.store_stats.versions, 1, "{context}");
                assert_eq!(probe.digest.len(), 1, "{context}");
                cluster.shutdown();
            }
        }
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
