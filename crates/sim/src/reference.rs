//! The serial reference cluster: the one hand-pumped driver of the sans-IO servers.
//!
//! A [`SerialCluster`] owns every server of a deployment, one FIFO queue per directed
//! server-to-server link, one queue of client replies and a shared [`ManualClock`]. Nothing
//! moves unless the caller says so: a message sits on its link until it is delivered, a
//! server ticks only when told to, time passes only when the clock is advanced. That makes
//! every run a pure function of the calls made, which is what the consumers need:
//!
//! * the differential suites (`tests/parallel_equivalence.rs`,
//!   `tests/transport_equivalence.rs`) compare the threaded and TCP runtimes against it,
//! * `tests/protocol_equivalence.rs` and `tests/batching_equivalence.rs` replay one write
//!   script through it under different protocols and batching settings,
//! * the engine fuzzer ([`crate::fuzz`]) layers seeded interleavings and chaos on top of
//!   [`SerialCluster::deliver_head`], [`SerialCluster::tick`] and the link queues.

use pocc_clock::{Clock, ManualClock};
use pocc_exec::ProtocolKind;
use pocc_proto::{
    ClientReply, ClientRequest, InstrumentedServer, MetricsSnapshot, ServerMessage, ServerOutput,
};
use pocc_types::{ClientId, Config, Key, ReplicaId, ServerId, Timestamp};
use std::collections::{BTreeMap, VecDeque};
use std::time::Duration;

/// A directed server-to-server link, `(from, to)`.
pub type Link = (ServerId, ServerId);

/// A server's convergence digest (see `ServerIntrospect::digest`).
pub type Digest = Vec<(Key, Timestamp, ReplicaId)>;

/// A deployment of serial servers pumped by hand. Generic over the server type so a test
/// that needs more than the trait surface (a concrete server's version vector, say) can
/// keep the concrete type; the default holds whatever [`ProtocolKind::server`] builds.
pub struct SerialCluster<S: ?Sized = dyn InstrumentedServer> {
    config: Config,
    clock: ManualClock,
    servers: BTreeMap<ServerId, Box<S>>,
    links: BTreeMap<Link, VecDeque<ServerMessage>>,
    replies: VecDeque<(ClientId, ClientReply)>,
    narrate: bool,
}

impl SerialCluster {
    /// A cluster of `config.servers()` running `protocol`.
    pub fn new(protocol: ProtocolKind, config: Config) -> Self {
        Self::with_servers(config, |id, config, clock| {
            protocol.server(id, config, clock)
        })
    }
}

impl<S: InstrumentedServer + ?Sized> SerialCluster<S> {
    /// A cluster whose servers `build` constructs; every server gets a handle to the one
    /// shared clock, which starts at 10 ms.
    pub fn with_servers(
        config: Config,
        mut build: impl FnMut(ServerId, Config, ManualClock) -> Box<S>,
    ) -> Self {
        let clock = ManualClock::new(Timestamp::from(Duration::from_millis(10)));
        let servers = config
            .servers()
            .map(|id| (id, build(id, config.clone(), clock.clone())))
            .collect();
        SerialCluster {
            config,
            clock,
            servers,
            links: BTreeMap::new(),
            replies: VecDeque::new(),
            narrate: false,
        }
    }

    /// Narrates every delivery and every reply on stderr, stamped with the clock, at the
    /// moment it happens (the fuzzer's `POCC_FUZZ_TRACE` replay aid).
    pub fn set_narration(&mut self, on: bool) {
        self.narrate = on;
    }

    fn narrate(&self, what: impl FnOnce() -> String) {
        if self.narrate {
            eprintln!("[t={:?}] {}", self.clock.now(), what());
        }
    }

    /// The deployment configuration.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// The clock every server reads. Only [`SerialCluster::tick_all`] moves it on its
    /// own; callers advance it for everything else.
    pub fn clock(&self) -> &ManualClock {
        &self.clock
    }

    /// Every server, in `ServerId` order.
    pub fn servers(&self) -> impl Iterator<Item = (ServerId, &S)> {
        self.servers.iter().map(|(id, server)| (*id, &**server))
    }

    /// The server `id`.
    pub fn server(&self, id: ServerId) -> &S {
        &self.servers[&id]
    }

    /// The link queues, in `(from, to)` order. A link appears once it has carried a
    /// message and stays (possibly empty) from then on.
    pub fn links(&self) -> &BTreeMap<Link, VecDeque<ServerMessage>> {
        &self.links
    }

    /// The queue of `link`, for callers that drop, duplicate or reorder traffic.
    pub fn link_mut(&mut self, link: Link) -> Option<&mut VecDeque<ServerMessage>> {
        self.links.get_mut(&link)
    }

    fn route(&mut self, from: ServerId, outputs: Vec<ServerOutput>) {
        for output in outputs {
            match output {
                ServerOutput::Send { to, message } => {
                    self.links.entry((from, to)).or_default().push_back(message);
                }
                ServerOutput::Reply { client, reply } => {
                    self.narrate(|| format!("reply to {client:?}: {reply:?}"));
                    self.replies.push_back((client, reply));
                }
            }
        }
    }

    fn server_mut(&mut self, id: ServerId) -> &mut S {
        self.servers
            .get_mut(&id)
            .unwrap_or_else(|| panic!("{id} is not a server of this deployment"))
    }

    /// Hands `request` to `target` at the current clock reading.
    pub fn submit(&mut self, client: ClientId, target: ServerId, request: ClientRequest) {
        let outputs = self
            .server_mut(target)
            .handle_client_request(client, request);
        self.route(target, outputs);
    }

    /// Delivers the oldest message of `link`, if any; returns whether there was one.
    pub fn deliver_head(&mut self, link: Link) -> bool {
        let Some(message) = self.links.get_mut(&link).and_then(|q| q.pop_front()) else {
            return false;
        };
        self.narrate(|| {
            let summary = match &message {
                ServerMessage::Replicate { version } => format!(
                    "Replicate key={:?} ut={:?} src={:?}",
                    version.key, version.update_time, version.source_replica
                ),
                other => format!("{other:?}").chars().take(120).collect(),
            };
            format!("deliver {} -> {}: {}", link.0, link.1, summary)
        });
        let outputs = self
            .server_mut(link.1)
            .handle_server_message(link.0, message);
        self.route(link.1, outputs);
        true
    }

    /// Delivers until no message is in flight: link by link in `(from, to)` order, each
    /// drained in FIFO order, again for whatever those deliveries sent.
    pub fn deliver_all(&mut self) {
        loop {
            let pending: Vec<Link> = self
                .links
                .iter()
                .filter(|(_, queue)| !queue.is_empty())
                .map(|(link, _)| *link)
                .collect();
            if pending.is_empty() {
                return;
            }
            for link in pending {
                while self.deliver_head(link) {}
            }
        }
    }

    /// Ticks one server at the current clock reading.
    pub fn tick(&mut self, id: ServerId) {
        let outputs = self.server_mut(id).tick();
        self.route(id, outputs);
    }

    /// Advances the clock by one heartbeat interval, then ticks every server in
    /// `ServerId` order.
    pub fn tick_all(&mut self) {
        self.clock.advance(self.config.heartbeat_interval);
        let ids: Vec<ServerId> = self.servers.keys().copied().collect();
        for id in ids {
            self.tick(id);
        }
    }

    /// Every reply produced so far, oldest first, for callers that track their own
    /// sessions.
    pub fn take_replies(&mut self) -> VecDeque<(ClientId, ClientReply)> {
        std::mem::take(&mut self.replies)
    }

    /// The oldest reply addressed to `client`, pumping deliveries and ticks until there is
    /// one (a parked operation waits for replication and heartbeats, and the pump drives
    /// both).
    pub fn await_reply(&mut self, client: ClientId) -> ClientReply {
        for _ in 0..10_000 {
            if let Some(at) = self.replies.iter().position(|(to, _)| *to == client) {
                return self.replies.remove(at).expect("index from position").1;
            }
            self.deliver_all();
            self.tick_all();
        }
        panic!("client {client:?} never received a reply");
    }

    /// Every server's digest.
    pub fn digests(&self) -> BTreeMap<ServerId, Digest> {
        self.servers().map(|(id, s)| (id, s.digest())).collect()
    }

    /// Whether the replicas of every partition hold identical digests.
    pub fn converged(&self) -> bool {
        self.config.partitions().all(|partition| {
            let mut digests = self
                .config
                .replicas()
                .map(|replica| self.server(ServerId::new(replica, partition)).digest());
            let first = digests.next();
            digests.all(|d| Some(&d) == first.as_ref())
        })
    }

    /// The metric counters of all servers, summed.
    pub fn metric_totals(&self) -> MetricsSnapshot {
        let mut totals = MetricsSnapshot::default();
        for (_, server) in self.servers() {
            totals.merge(&server.metrics());
        }
        totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pocc_proto::ProtocolClient;
    use pocc_protocol::Client;
    use pocc_types::Value;

    fn config(replicas: usize) -> Config {
        Config::builder()
            .num_replicas(replicas)
            .num_partitions(1)
            .build()
            .unwrap()
    }

    fn session(protocol: ProtocolKind, id: u64, home: ServerId, replicas: usize) -> Client {
        if protocol.snapshot_reads() {
            Client::new_snapshot_reads(ClientId(id), home, replicas)
        } else {
            Client::new(ClientId(id), home, replicas)
        }
    }

    #[test]
    fn a_put_at_one_data_center_becomes_readable_at_another_under_every_protocol() {
        for protocol in ProtocolKind::ALL {
            let mut cluster = SerialCluster::new(protocol, config(2));
            let dc0 = ServerId::new(ReplicaId(0), 0u32);
            let dc1 = ServerId::new(ReplicaId(1), 0u32);
            let mut writer = session(protocol, 0, dc0, 2);
            let reader = session(protocol, 1, dc1, 2);

            cluster.submit(ClientId(0), dc0, writer.put(Key(7), Value::from("v")));
            let ack = cluster.await_reply(ClientId(0));
            writer.process_reply(&ack).unwrap();
            assert!(matches!(ack, ClientReply::Put { .. }), "{protocol}");

            // Replication needs one delivery; GSS-bounded reads also need the
            // stabilization rounds that ticks drive.
            for _ in 0..20 {
                cluster.deliver_all();
                cluster.tick_all();
            }
            assert!(cluster.converged(), "{protocol}");

            cluster.submit(ClientId(1), dc1, reader.get(Key(7)));
            let ClientReply::Get(resp) = cluster.await_reply(ClientId(1)) else {
                panic!("{protocol}: expected a GET reply");
            };
            assert_eq!(resp.value, Some(Value::from("v")), "{protocol}");
            assert_eq!(resp.source_replica, ReplicaId(0), "{protocol}");
            assert_eq!(cluster.metric_totals().puts_served, 1, "{protocol}");
            assert_eq!(cluster.metric_totals().replicate_received, 1, "{protocol}");
        }
    }

    #[test]
    fn deliver_head_preserves_per_link_fifo_order() {
        let mut cluster = SerialCluster::new(ProtocolKind::Pocc, config(3));
        let dc0 = ServerId::new(ReplicaId(0), 0u32);
        let dc1 = ServerId::new(ReplicaId(1), 0u32);
        let dc2 = ServerId::new(ReplicaId(2), 0u32);
        let writer = Client::new(ClientId(0), dc0, 3);
        for k in 0..3u64 {
            cluster.clock().advance(Duration::from_micros(10));
            cluster.submit(ClientId(0), dc0, writer.put(Key(k), Value::from(k)));
        }
        assert_eq!(cluster.take_replies().len(), 3);

        let queued_keys = |cluster: &SerialCluster, link: Link| -> Vec<Key> {
            cluster.links()[&link]
                .iter()
                .map(|message| match message {
                    ServerMessage::Replicate { version } => version.key,
                    other => panic!("unexpected {other:?}"),
                })
                .collect()
        };
        assert_eq!(
            queued_keys(&cluster, (dc0, dc1)),
            vec![Key(0), Key(1), Key(2)]
        );

        // Each delivery applies exactly the oldest write of that link, and leaves the
        // other link alone.
        for delivered in 1..=3usize {
            assert!(cluster.deliver_head((dc0, dc1)));
            let keys: Vec<Key> = cluster.server(dc1).digest().iter().map(|d| d.0).collect();
            let expected: Vec<Key> = (0..delivered as u64).map(Key).collect();
            assert_eq!(keys, expected);
        }
        assert!(!cluster.deliver_head((dc0, dc1)), "the link is drained");
        assert_eq!(queued_keys(&cluster, (dc0, dc2)).len(), 3);
        assert!(cluster.server(dc2).digest().is_empty());
        assert!(!cluster.converged());

        cluster.deliver_all();
        assert!(cluster.converged());
    }
}
