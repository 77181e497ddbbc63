//! The HA-POCC server as a visibility policy over the shared protocol engine: POCC plus
//! partition detection, pessimistic fall-back and recovery.

use pocc_clock::Clock;
use pocc_engine::{EngineCore, ProtocolEngine, VisibilityPolicy};
use pocc_proto::{ClientReply, ClientRequest, ServerOutput};
use pocc_protocol::PoccPolicy;
use pocc_storage::ShardedStore;
use pocc_types::{ClientId, Config, DependencyVector, Key, ServerId, Timestamp, VersionVector};
use std::collections::HashSet;

/// The operating mode of an HA-POCC server.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// Normal operation: requests are served by the optimistic protocol (plain POCC).
    Optimistic,
    /// A network partition is suspected: reads are served pessimistically from the
    /// Globally Stable Snapshot, writes do not wait for dependencies, transactions are
    /// bounded by the GSS. No operation waits on a remote data center in this mode.
    Pessimistic {
        /// When the server entered pessimistic mode (server clock).
        since: Timestamp,
    },
}

impl Mode {
    /// Whether the server is currently running the pessimistic fall-back protocol.
    pub fn is_pessimistic(&self) -> bool {
        matches!(self, Mode::Pessimistic { .. })
    }
}

/// The highly available visibility policy (§III-B and §IV-C): the optimistic POCC policy
/// augmented with an infrequent stabilization protocol, a partition detector, a
/// pessimistic fall-back mode and automatic promotion back to optimistic operation.
#[derive(Debug)]
pub struct HaPolicy {
    /// The optimistic protocol served during normal operation.
    pocc: PoccPolicy,
    mode: Mode,
    mode_switches: u64,

    /// Partition detector state: the last time each remote replica's entry of the version
    /// vector advanced.
    last_remote_advance: Vec<Timestamp>,
    prev_vv: VersionVector,
    /// `sessions_aborted` at the last tick, to detect new aborts.
    aborted_seen: u64,

    /// Clients that issued requests while the server was optimistic. Their sessions are
    /// closed at their first request after a switch to pessimistic mode, because the
    /// pessimistic protocol cannot honour dependencies on unstable items they may have
    /// observed (§III-B: "it closes the session with c").
    optimistic_clients: HashSet<ClientId>,
}

impl HaPolicy {
    /// Creates the policy in optimistic mode, with every timeout armed at `now`.
    pub fn new(config: &Config, now: Timestamp) -> Self {
        HaPolicy {
            pocc: PoccPolicy,
            mode: Mode::Optimistic,
            mode_switches: 0,
            last_remote_advance: vec![now; config.num_replicas],
            prev_vv: VersionVector::zero(config.num_replicas),
            aborted_seen: 0,
            optimistic_clients: HashSet::new(),
        }
    }

    fn enter_pessimistic(&mut self, now: Timestamp) {
        if self.mode.is_pessimistic() {
            return;
        }
        self.mode = Mode::Pessimistic { since: now };
        self.mode_switches += 1;
    }

    fn enter_optimistic(&mut self) {
        if !self.mode.is_pessimistic() {
            return;
        }
        self.mode = Mode::Optimistic;
        self.mode_switches += 1;
    }

    // -----------------------------------------------------------------------------------
    // Pessimistic operation handlers
    // -----------------------------------------------------------------------------------

    /// Whether a client carrying these dependencies can be served by the pessimistic
    /// protocol without violating its session history: every *remote* dependency must be
    /// covered by the Globally Stable Snapshot (dependencies on local items are always
    /// satisfiable, as in Cure).
    ///
    /// Clients that established dependencies on unstable items while the server was still
    /// optimistic fail this check; their session is closed, exactly as the recovery
    /// procedure of §III-B prescribes (the client re-initialises and continues
    /// pessimistically, possibly no longer seeing some versions it read before).
    fn serveable_pessimistically<C: Clock>(
        &self,
        core: &EngineCore<C>,
        deps: &DependencyVector,
    ) -> bool {
        let local = core.id.replica;
        deps.iter()
            .all(|(replica, ts)| replica == local || ts <= core.gss.get(replica))
    }

    /// Closes the session of a client whose optimistic-era dependencies cannot be served
    /// by the pessimistic fall-back.
    fn abort_session<C: Clock>(
        &mut self,
        core: &mut EngineCore<C>,
        client: ClientId,
    ) -> ServerOutput {
        core.metrics.sessions_aborted += 1;
        ServerOutput::reply(
            client,
            ClientReply::SessionAborted {
                reason: "optimistic dependencies cannot be served during the partition; \
                         re-initialise the session"
                    .into(),
            },
        )
    }

    /// A pessimistic GET: the freshest version visible under the GSS (local versions are
    /// always visible, as in Cure). Never blocks.
    ///
    /// This is not [`EngineCore::serve_get_stable`], whose snapshot is `GSS ∨ RDV ∨
    /// local`. HA sessions are POCC sessions, so a GET's `rdv` carries the client's reads
    /// but not its own writes, and a local write whose remote dependencies exceed the GSS
    /// would drop out of that snapshot: the client would not read its own write. Here
    /// every locally originated version stays visible.
    fn pessimistic_get<C: Clock>(
        &mut self,
        core: &mut EngineCore<C>,
        client: ClientId,
        key: Key,
    ) -> ServerOutput {
        let outcome = core.store.latest_stable(key, &core.gss, core.id.replica);
        core.metrics.gets_served += 1;
        if outcome.is_old() {
            core.metrics.old_gets += 1;
            core.metrics.fresher_versions_sum += outcome.stats.fresher_than_returned as u64;
        }
        let response = core.response_for(outcome.version.as_ref());
        ServerOutput::reply(client, ClientReply::Get(response))
    }

    // -----------------------------------------------------------------------------------
    // Detection and recovery
    // -----------------------------------------------------------------------------------

    /// Updates the partition detector, possibly switching modes.
    fn detect_and_recover<C: Clock>(&mut self, core: &mut EngineCore<C>, now: Timestamp) {
        let vv = core.vv.clone();
        let local = core.id.replica;
        for (replica, ts) in vv.iter() {
            if replica != local && ts > self.prev_vv.get(replica) {
                self.last_remote_advance[replica.index()] = now;
            }
        }
        self.prev_vv = vv;

        // Detection signal 1: a blocked session was aborted (only the optimistic
        // machinery aborts sessions while the server is in optimistic mode).
        let aborted = core.metrics.sessions_aborted;
        let new_aborts = aborted > self.aborted_seen;
        self.aborted_seen = aborted;

        // Detection signal 2: a remote replica has been silent (no updates, no heartbeats)
        // for longer than the partition-detection timeout.
        let silent_replica = self
            .last_remote_advance
            .iter()
            .enumerate()
            .any(|(i, last)| {
                i != local.index()
                    && now.saturating_since(*last) >= core.config.partition_detection_timeout
            });

        match self.mode {
            Mode::Optimistic => {
                if new_aborts || silent_replica {
                    self.enter_pessimistic(now);
                }
            }
            Mode::Pessimistic { since } => {
                // Recovery: every remote replica has been heard from recently and the
                // server has spent at least one detection period in pessimistic mode (to
                // avoid flapping).
                let healthy_window = core.config.heartbeat_interval * 8;
                let all_healthy = self
                    .last_remote_advance
                    .iter()
                    .enumerate()
                    .all(|(i, last)| {
                        i == local.index() || now.saturating_since(*last) <= healthy_window
                    });
                let settled =
                    now.saturating_since(since) >= core.config.partition_detection_timeout;
                if all_healthy && settled && !silent_replica {
                    self.enter_optimistic();
                }
            }
        }
    }
}

impl<C: Clock> VisibilityPolicy<C> for HaPolicy {
    fn handle_client_request(
        &mut self,
        core: &mut EngineCore<C>,
        client: ClientId,
        request: ClientRequest,
    ) -> Vec<ServerOutput> {
        if !self.mode.is_pessimistic() {
            self.optimistic_clients.insert(client);
            return self.pocc.handle_client_request(core, client, request);
        }
        // First contact from a client whose session predates the fall-back: close it, so
        // the client re-initialises and continues with a dependency-free pessimistic
        // session (phase 2 of the recovery procedure).
        if self.optimistic_clients.remove(&client) {
            return vec![self.abort_session(core, client)];
        }
        let mut outputs = Vec::new();
        match request {
            ClientRequest::Get { ref rdv, .. } | ClientRequest::RoTx { ref rdv, .. }
                if !self.serveable_pessimistically(core, rdv) =>
            {
                outputs.push(self.abort_session(core, client));
            }
            ClientRequest::Get { key, .. } => {
                outputs.push(self.pessimistic_get(core, client, key));
            }
            ClientRequest::Put { key, value, dv } => {
                // Writes never wait for their dependencies during a partition.
                core.serve_put(client, key, value, dv, &mut outputs);
                core.unpark(&mut outputs);
            }
            ClientRequest::RoTx { keys, rdv } => {
                // Cure*'s snapshot: bounded by the GSS, extended with the session history,
                // with the local entry from the version vector, so participant slices
                // never wait for remote replication.
                let mut snapshot = core.gss.joined(&rdv);
                snapshot.advance(core.id.replica, core.vv.get(core.id.replica));
                core.start_ro_tx(client, keys, snapshot, &mut outputs);
            }
        }
        outputs
    }

    fn on_tick(
        &mut self,
        core: &mut EngineCore<C>,
        now: Timestamp,
        outputs: &mut Vec<ServerOutput>,
    ) {
        // The optimistic machinery's periodic work (GC exchange, partition timeouts).
        self.pocc.on_tick(core, now, outputs);

        // The infrequent stabilization protocol: this is what makes the pessimistic
        // fall-back possible at all, and because it runs orders of magnitude less often
        // than Cure's it costs almost nothing during normal operation (§IV-C).
        if now.saturating_since(core.last_stabilization) >= core.config.ha_stabilization_interval {
            core.last_stabilization = now;
            core.stabilization_round(outputs);
        }

        self.detect_and_recover(core, now);
    }
}

/// A POCC server augmented with the availability-recovery machinery of §III-B:
/// an infrequent stabilization protocol, a partition detector, a pessimistic fall-back
/// mode and automatic promotion back to optimistic operation.
pub struct HaPoccServer<C> {
    engine: ProtocolEngine<C, HaPolicy>,
}

impl<C: Clock> HaPoccServer<C> {
    /// Creates an HA-POCC server for `id`.
    pub fn new(id: ServerId, config: Config, clock: C) -> Self {
        let now = clock.now();
        let policy = HaPolicy::new(&config, now);
        HaPoccServer {
            engine: ProtocolEngine::new(id, config, clock, policy),
        }
    }

    /// The current operating mode.
    pub fn mode(&self) -> Mode {
        self.engine.policy().mode
    }

    /// How many times the server switched between optimistic and pessimistic mode.
    pub fn mode_switches(&self) -> u64 {
        self.engine.policy().mode_switches
    }

    /// The server's current view of the Globally Stable Snapshot.
    pub fn gss(&self) -> &DependencyVector {
        &self.engine.core().gss
    }

    /// The server's current version vector.
    pub fn version_vector(&self) -> &VersionVector {
        &self.engine.core().vv
    }

    /// Read access to the underlying store.
    pub fn store(&self) -> &ShardedStore {
        &self.engine.core().store
    }

    /// Forces the server into pessimistic mode (used by tests and by operators who know a
    /// partition is coming, e.g. planned maintenance).
    pub fn force_pessimistic(&mut self) {
        let (core, policy) = self.engine.parts_mut();
        policy.enter_pessimistic(core.clock.now());
    }

    /// Forces the server back into optimistic mode.
    pub fn force_optimistic(&mut self) {
        let (_, policy) = self.engine.parts_mut();
        policy.enter_optimistic();
    }
}

pocc_engine::delegate_protocol_server!(HaPoccServer);

#[cfg(test)]
mod tests {
    use super::*;
    use pocc_clock::ManualClock;
    use pocc_proto::{expect_reply, ProtocolServer, ServerIntrospect, ServerMessage};
    use pocc_storage::partition_for_key;
    use pocc_types::{ReplicaId, Value, Version};
    use std::time::Duration;

    const MS: u64 = 1_000;

    fn config() -> Config {
        Config::builder()
            .num_replicas(3)
            .num_partitions(1)
            .partition_detection_timeout(Duration::from_millis(200))
            .ha_stabilization_interval(Duration::from_millis(50))
            .build()
            .unwrap()
    }

    fn key_in(partition: usize, num_partitions: usize) -> Key {
        (0u64..)
            .map(Key)
            .find(|k| partition_for_key(*k, num_partitions).index() == partition)
            .unwrap()
    }

    fn dv(entries: &[u64]) -> DependencyVector {
        DependencyVector::from_entries(entries.iter().map(|&e| Timestamp(e)).collect())
    }

    fn extract_reply(outputs: &[ServerOutput], client: ClientId) -> Option<ClientReply> {
        outputs.iter().find_map(|o| match o {
            ServerOutput::Reply { client: c, reply } if *c == client => Some(reply.clone()),
            _ => None,
        })
    }

    #[test]
    fn optimistic_mode_delegates_to_the_inner_server() {
        let clock = ManualClock::new(Timestamp(10 * MS));
        let mut s = HaPoccServer::new(ServerId::new(0u16, 0u32), config(), clock.clone());
        assert_eq!(s.mode(), Mode::Optimistic);
        let key = key_in(0, 1);
        let outputs = s.handle_client_request(
            ClientId(1),
            ClientRequest::Put {
                key,
                value: Value::from("x"),
                dv: dv(&[0, 0, 0]),
            },
        );
        assert!(matches!(
            extract_reply(&outputs, ClientId(1)),
            Some(ClientReply::Put { .. })
        ));
        let outputs = s.handle_client_request(
            ClientId(1),
            ClientRequest::Get {
                key,
                rdv: dv(&[0, 0, 0]),
            },
        );
        assert!(matches!(
            extract_reply(&outputs, ClientId(1)),
            Some(ClientReply::Get(_))
        ));
        assert_eq!(s.metrics().gets_served, 1);
        assert_eq!(s.metrics().puts_served, 1);
    }

    #[test]
    fn silent_replica_triggers_pessimistic_mode_and_recovery_follows() {
        let clock = ManualClock::new(Timestamp(10 * MS));
        let mut s = HaPoccServer::new(ServerId::new(0u16, 0u32), config(), clock.clone());

        // Replicas keep sending heartbeats: the server stays optimistic.
        for step in 1..=5u64 {
            clock.set(Timestamp((10 + step * 10) * MS));
            for r in [1u16, 2] {
                s.handle_server_message(
                    ServerId::new(r, 0u32),
                    ServerMessage::Heartbeat {
                        clock: Timestamp((10 + step * 10) * MS),
                    },
                );
            }
            s.tick();
            assert_eq!(s.mode(), Mode::Optimistic);
        }

        // Replica 2 goes silent for longer than the detection timeout.
        for step in 6..=10u64 {
            clock.set(Timestamp((10 + step * 10) * MS));
            s.handle_server_message(
                ServerId::new(1u16, 0u32),
                ServerMessage::Heartbeat {
                    clock: Timestamp((10 + step * 10) * MS),
                },
            );
            s.tick();
        }
        clock.set(Timestamp(400 * MS));
        s.tick();
        assert!(
            s.mode().is_pessimistic(),
            "silence must trigger the fall-back"
        );
        assert_eq!(s.mode_switches(), 1);

        // The partition heals: traffic from replica 2 resumes, and after the settle period
        // the server promotes itself back to optimistic mode.
        for step in 0..60u64 {
            let t = Timestamp((410 + step * 10) * MS);
            clock.set(t);
            for r in [1u16, 2] {
                s.handle_server_message(
                    ServerId::new(r, 0u32),
                    ServerMessage::Heartbeat { clock: t },
                );
            }
            s.tick();
        }
        assert_eq!(s.mode(), Mode::Optimistic);
        assert_eq!(s.mode_switches(), 2);
    }

    #[test]
    fn pessimistic_get_does_not_block_and_returns_stable_data() {
        let clock = ManualClock::new(Timestamp(10 * MS));
        let mut s = HaPoccServer::new(ServerId::new(0u16, 0u32), config(), clock.clone());
        let key = key_in(0, 1);

        // An unstable remote version (its dependency on replica 2 never arrives).
        s.handle_server_message(
            ServerId::new(1u16, 0u32),
            ServerMessage::Replicate {
                version: Version::new(
                    key,
                    Value::from("unstable"),
                    ReplicaId(1),
                    Timestamp(9 * MS),
                    dv(&[0, 0, 99 * MS]),
                ),
            },
        );
        s.force_pessimistic();

        // A client that depends on the missing item would block under plain POCC; the
        // pessimistic fall-back cannot honour that dependency either, so it closes the
        // session immediately instead of blocking.
        let outputs = s.handle_client_request(
            ClientId(1),
            ClientRequest::Get {
                key,
                rdv: dv(&[0, 0, 99 * MS]),
            },
        );
        assert!(matches!(
            extract_reply(&outputs, ClientId(1)),
            Some(ClientReply::SessionAborted { .. })
        ));

        // The re-initialised (dependency-free) session is served immediately: the unstable
        // remote version is hidden and "not found" comes back — but nothing blocks.
        let outputs = s.handle_client_request(
            ClientId(1),
            ClientRequest::Get {
                key,
                rdv: dv(&[0, 0, 0]),
            },
        );
        expect_reply!(
            extract_reply(&outputs, ClientId(1)),
            Some(ClientReply::Get(resp)) => {
                assert!(resp.value.is_none());
            }
        );
        assert_eq!(s.metrics().currently_blocked, 0);
        assert_eq!(s.metrics().sessions_aborted, 1);
    }

    #[test]
    fn pessimistic_put_does_not_wait_for_dependencies() {
        let clock = ManualClock::new(Timestamp(10 * MS));
        let mut s = HaPoccServer::new(ServerId::new(0u16, 0u32), config(), clock.clone());
        s.force_pessimistic();
        let outputs = s.handle_client_request(
            ClientId(1),
            ClientRequest::Put {
                key: key_in(0, 1),
                value: Value::from("w"),
                dv: dv(&[0, 0, 500 * MS]),
            },
        );
        assert!(matches!(
            extract_reply(&outputs, ClientId(1)),
            Some(ClientReply::Put { .. })
        ));
        assert_eq!(s.metrics().currently_blocked, 0);

        // Back in optimistic mode the configured wait applies again.
        s.force_optimistic();
        let outputs = s.handle_client_request(
            ClientId(2),
            ClientRequest::Put {
                key: key_in(0, 1),
                value: Value::from("w2"),
                dv: dv(&[0, 900 * MS, 0]),
            },
        );
        assert!(outputs.is_empty(), "the optimistic PUT must park again");
    }

    #[test]
    fn pessimistic_transaction_completes_from_the_stable_snapshot() {
        let cfg = Config::builder()
            .num_replicas(3)
            .num_partitions(1)
            .build()
            .unwrap();
        let clock = ManualClock::new(Timestamp(10 * MS));
        let mut s = HaPoccServer::new(ServerId::new(0u16, 0u32), cfg, clock.clone());
        let key = key_in(0, 1);
        s.handle_client_request(
            ClientId(1),
            ClientRequest::Put {
                key,
                value: Value::from("mine"),
                dv: dv(&[0, 0, 0]),
            },
        );
        s.force_pessimistic();
        // The writer's optimistic-era session is closed on first contact after the switch;
        // the client re-initialises (dropping its dependencies) and retries.
        let outputs = s.handle_client_request(
            ClientId(1),
            ClientRequest::RoTx {
                keys: vec![key],
                rdv: dv(&[0, 0, 0]),
            },
        );
        assert!(matches!(
            extract_reply(&outputs, ClientId(1)),
            Some(ClientReply::SessionAborted { .. })
        ));
        let outputs = s.handle_client_request(
            ClientId(1),
            ClientRequest::RoTx {
                keys: vec![key],
                rdv: dv(&[0, 0, 0]),
            },
        );
        expect_reply!(
            extract_reply(&outputs, ClientId(1)),
            Some(ClientReply::RoTx { items }) => {
                assert_eq!(items.len(), 1);
                // The local write is stable (it has no dependencies), so the re-initialised
                // pessimistic session still sees it.
                assert_eq!(
                    items[0].response.value.as_ref().unwrap().as_slice(),
                    b"mine"
                );
            }
        );
        assert_eq!(s.metrics().rotx_served, 1);
    }

    #[test]
    fn infrequent_stabilization_messages_are_emitted() {
        let cfg = Config::builder()
            .num_replicas(3)
            .num_partitions(4)
            .ha_stabilization_interval(Duration::from_millis(50))
            .build()
            .unwrap();
        let clock = ManualClock::new(Timestamp(100 * MS));
        let mut s = HaPoccServer::new(ServerId::new(0u16, 0u32), cfg, clock.clone());
        let outputs = s.tick();
        let stab = outputs
            .iter()
            .filter(|o| {
                matches!(
                    o,
                    ServerOutput::Send {
                        message: ServerMessage::StabilizationVector { .. },
                        ..
                    }
                )
            })
            .count();
        assert_eq!(stab, 3);
        // Not again within the (long) HA stabilization interval.
        clock.set(Timestamp(120 * MS));
        let outputs = s.tick();
        assert_eq!(
            outputs
                .iter()
                .filter(|o| matches!(
                    o,
                    ServerOutput::Send {
                        message: ServerMessage::StabilizationVector { .. },
                        ..
                    }
                ))
                .count(),
            0
        );
    }

    #[test]
    fn stabilization_vectors_from_peers_advance_the_gss() {
        let cfg = Config::builder()
            .num_replicas(3)
            .num_partitions(2)
            .build()
            .unwrap();
        let clock = ManualClock::new(Timestamp(10 * MS));
        let mut s = HaPoccServer::new(ServerId::new(0u16, 0u32), cfg, clock.clone());
        s.tick(); // own VV[0] -> 10ms
        s.handle_server_message(
            ServerId::new(0u16, 1u32),
            ServerMessage::StabilizationVector {
                vv: VersionVector::from_entries(vec![
                    Timestamp(8 * MS),
                    Timestamp(7 * MS),
                    Timestamp(6 * MS),
                ]),
            },
        );
        assert_eq!(s.gss(), &dv(&[8 * MS, 0, 0]));
    }

    #[test]
    fn pessimistic_get_reads_the_clients_own_write_above_the_gss() {
        let clock = ManualClock::new(Timestamp(10 * MS));
        let mut s = HaPoccServer::new(ServerId::new(0u16, 0u32), config(), clock.clone());
        s.force_pessimistic();
        let key = key_in(0, 1);
        // The write depends on a remote update the GSS does not cover yet.
        let outputs = s.handle_client_request(
            ClientId(1),
            ClientRequest::Put {
                key,
                value: Value::from("mine"),
                dv: dv(&[0, 0, 500 * MS]),
            },
        );
        assert!(matches!(
            extract_reply(&outputs, ClientId(1)),
            Some(ClientReply::Put { .. })
        ));
        // A POCC session's read vector holds its reads, not its writes.
        let outputs = s.handle_client_request(
            ClientId(1),
            ClientRequest::Get {
                key,
                rdv: dv(&[0, 0, 0]),
            },
        );
        expect_reply!(
            extract_reply(&outputs, ClientId(1)),
            Some(ClientReply::Get(resp)) => {
                assert_eq!(resp.value.as_ref().unwrap().as_slice(), b"mine");
            }
        );
    }

    fn two_partition_config() -> Config {
        Config::builder()
            .num_replicas(3)
            .num_partitions(2)
            .partition_detection_timeout(Duration::from_millis(200))
            .ha_stabilization_interval(Duration::from_millis(50))
            .build()
            .unwrap()
    }

    fn is_slice_request(output: &ServerOutput) -> bool {
        matches!(
            output,
            ServerOutput::Send {
                message: ServerMessage::SliceRequest { .. },
                ..
            }
        )
    }

    #[test]
    fn a_silent_participant_aborts_a_pessimistic_transaction_at_the_timeout() {
        let clock = ManualClock::new(Timestamp(10 * MS));
        let mut s = HaPoccServer::new(
            ServerId::new(0u16, 0u32),
            two_partition_config(),
            clock.clone(),
        );
        s.force_pessimistic();
        let outputs = s.handle_client_request(
            ClientId(1),
            ClientRequest::RoTx {
                keys: vec![key_in(0, 2), key_in(1, 2)],
                rdv: dv(&[0, 0, 0]),
            },
        );
        assert!(outputs.iter().any(is_slice_request));
        assert_eq!(extract_reply(&outputs, ClientId(1)), None);

        // The remote slice never arrives.
        clock.set(Timestamp(210 * MS));
        let outputs = s.tick();
        assert!(matches!(
            extract_reply(&outputs, ClientId(1)),
            Some(ClientReply::SessionAborted { .. })
        ));
        assert_eq!(s.metrics().sessions_aborted, 1);
    }

    #[test]
    fn pessimistic_traffic_is_counted_at_its_wire_size() {
        let clock = ManualClock::new(Timestamp(100 * MS));
        let mut s = HaPoccServer::new(
            ServerId::new(0u16, 0u32),
            two_partition_config(),
            clock.clone(),
        );
        s.force_pessimistic();
        // One stabilization round (plus heartbeats and a GC exchange), then a transaction
        // that sends a slice request to the other partition.
        let mut outputs = s.tick();
        assert!(outputs.iter().any(|o| matches!(
            o,
            ServerOutput::Send {
                message: ServerMessage::StabilizationVector { .. },
                ..
            }
        )));
        outputs.extend(s.handle_client_request(
            ClientId(1),
            ClientRequest::RoTx {
                keys: vec![key_in(0, 2), key_in(1, 2)],
                rdv: dv(&[0, 0, 0]),
            },
        ));
        assert!(outputs.iter().any(is_slice_request));
        let wire: u64 = outputs
            .iter()
            .filter_map(|o| match o {
                ServerOutput::Send { message, .. } => Some(message.wire_size() as u64),
                ServerOutput::Reply { .. } => None,
            })
            .sum();
        assert_eq!(s.metrics().bytes_sent, wire);
    }
}
