//! The Cure\* server as a visibility policy over the shared protocol engine.

use pocc_clock::Clock;
use pocc_engine::{EngineCore, ProtocolEngine, ReadMode, SliceUnmergedMode, VisibilityPolicy};
use pocc_proto::{ClientRequest, ServerOutput};
use pocc_storage::ShardedStore;
use pocc_types::{ClientId, Config, DependencyVector, ServerId, Timestamp, VersionVector};

/// An observability snapshot of a Cure\* server.
#[derive(Clone, Debug)]
pub struct CureStatus {
    /// The server's version vector.
    pub version_vector: VersionVector,
    /// The server's current view of the Globally Stable Snapshot.
    pub gss: DependencyVector,
    /// Number of parked transactional slice reads.
    pub pending_slices: usize,
    /// Read-only transactions currently being coordinated.
    pub active_transactions: usize,
    /// Storage statistics.
    pub store: pocc_storage::StoreStats,
}

/// The pessimistic visibility policy (Cure\*, §V): a GET returns the freshest version in
/// the snapshot `GSS ∨ RDV ∨ local` — it never waits for a version to become *stable*
/// (unstable versions outside the client's history are simply not returned), only for the
/// client's own session history to be present locally; a periodic stabilization protocol
/// exchanges version vectors every few milliseconds to advance the GSS; read-only
/// transaction snapshots are bounded by the GSS (extended with the client's session
/// history); garbage is collected from the GSS directly, with no extra message exchange.
#[derive(Clone, Copy, Debug, Default)]
pub struct CurePolicy;

impl<C: Clock> VisibilityPolicy<C> for CurePolicy {
    fn slice_unmerged_mode(&self) -> SliceUnmergedMode {
        SliceUnmergedMode::AgainstGss
    }

    fn handle_client_request(
        &mut self,
        core: &mut EngineCore<C>,
        client: ClientId,
        request: ClientRequest,
    ) -> Vec<ServerOutput> {
        let mut outputs = Vec::new();
        match request {
            ClientRequest::Get { key, rdv } => {
                // Pessimistic GET, served from the snapshot `GSS ∨ RDV ∨ local` as in
                // Cure proper (the request vector is the client's full session history,
                // see `Client::new_snapshot_reads`), so that session guarantees hold
                // across plain reads and transaction snapshots alike. The GET never
                // waits on *stability* — the GSS guarantees that every stable version's
                // dependencies are installed everywhere — but it must wait for the
                // session history to be *present* locally: the snapshot may cover a
                // version this partition has not received yet, and serving early would
                // silently fall back to an older version the client has already seen.
                if core.covers_remote_deps(&rdv) {
                    let out = core.serve_get_stable(client, key, &rdv);
                    outputs.push(out);
                } else {
                    core.park_get(client, key, rdv, ReadMode::Stable);
                }
            }
            ClientRequest::Put { key, value, dv } => {
                // Identical to POCC's PUT, minus the dependency wait.
                core.serve_put(client, key, value, dv, &mut outputs);
                core.unpark(&mut outputs);
            }
            ClientRequest::RoTx { keys, rdv } => {
                // The snapshot visible to a Cure* transaction is bounded by the items
                // *stable* at the coordinator (the GSS), extended with the client's own
                // causal history so that session guarantees hold. The local entry is
                // taken from the coordinator's version vector because locally originated
                // items are always visible in Cure.
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
        // The stabilization protocol, run every `stabilization_interval` (5 ms in §V-A).
        if now.saturating_since(core.last_stabilization) >= core.config.stabilization_interval {
            core.last_stabilization = now;
            core.stabilization_round(outputs);
        }

        // Garbage collection from the GSS: every version below the snapshot any future
        // transaction could use is collectable except the newest such version.
        if now.saturating_since(core.last_gc) >= core.config.gc_interval {
            core.last_gc = now;
            core.gc_from_gss();
        }

        // Operations blocked beyond the partition timeout abort the client session, as in
        // POCC (Cure itself would not need this, but the shared harness expects the same
        // session semantics from both systems): parked GETs waiting for session history
        // and coordinated transactions reply `SessionAborted`; expired slices held for
        // remote coordinators are dropped silently — the coordinator's own timeout
        // closes the client session.
        core.enforce_partition_timeouts(now, outputs);
    }
}

/// A Cure\* server `p^m_n`.
///
/// Implements the same [`pocc_proto::ProtocolServer`] interface as
/// [`pocc_protocol::PoccServer`], so the simulator and the threaded runtime can run
/// either protocol over identical workloads, deployments and network conditions.
pub struct CureServer<C> {
    engine: ProtocolEngine<C, CurePolicy>,
}

impl<C: Clock> CureServer<C> {
    /// Creates a Cure\* server for `id` with the given deployment configuration and clock.
    pub fn new(id: ServerId, config: Config, clock: C) -> Self {
        CureServer {
            engine: ProtocolEngine::new(id, config, clock, CurePolicy),
        }
    }

    /// The server's current version vector.
    pub fn version_vector(&self) -> &VersionVector {
        &self.engine.core().vv
    }

    /// The server's current view of the Globally Stable Snapshot.
    pub fn gss(&self) -> &DependencyVector {
        &self.engine.core().gss
    }

    /// Read access to the underlying store.
    pub fn store(&self) -> &ShardedStore {
        &self.engine.core().store
    }

    /// An observability snapshot of the server's state.
    pub fn status(&self) -> CureStatus {
        let core = self.engine.core();
        CureStatus {
            version_vector: core.vv.clone(),
            gss: core.gss.clone(),
            pending_slices: core.pending_len(),
            active_transactions: core.active_transactions(),
            store: core.store.stats(),
        }
    }
}

pocc_engine::delegate_protocol_server!(CureServer);

#[cfg(test)]
mod tests {
    use super::*;
    use pocc_clock::ManualClock;
    use pocc_proto::{
        expect_reply, ClientReply, ProtocolServer, ServerIntrospect, ServerMessage, TxId,
    };
    use pocc_storage::partition_for_key;
    use pocc_types::{Key, ReplicaId, Value, Version};
    use std::time::Duration;

    const MS: u64 = 1_000;

    fn config(replicas: usize, partitions: usize) -> Config {
        Config::builder()
            .num_replicas(replicas)
            .num_partitions(partitions)
            .stabilization_interval(Duration::from_millis(5))
            .build()
            .unwrap()
    }

    fn server(
        replica: u16,
        partition: u32,
        cfg: &Config,
        clock: &ManualClock,
    ) -> CureServer<ManualClock> {
        CureServer::new(
            ServerId::new(replica, partition),
            cfg.clone(),
            clock.clone(),
        )
    }

    fn key_in(partition: usize, num_partitions: usize) -> Key {
        (0u64..)
            .map(Key)
            .find(|k| partition_for_key(*k, num_partitions).index() == partition)
            .unwrap()
    }

    fn extract_reply(outputs: &[ServerOutput], client: ClientId) -> Option<ClientReply> {
        outputs.iter().find_map(|o| match o {
            ServerOutput::Reply { client: c, reply } if *c == client => Some(reply.clone()),
            _ => None,
        })
    }

    fn dv(entries: &[u64]) -> DependencyVector {
        DependencyVector::from_entries(entries.iter().map(|&e| Timestamp(e)).collect())
    }

    #[test]
    fn local_writes_are_immediately_visible() {
        let cfg = config(3, 1);
        let clock = ManualClock::new(Timestamp(10 * MS));
        let mut s = server(0, 0, &cfg, &clock);
        let key = key_in(0, 1);
        s.handle_client_request(
            ClientId(1),
            ClientRequest::Put {
                key,
                value: Value::from("local"),
                dv: dv(&[0, 0, 0]),
            },
        );
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
                assert_eq!(resp.value.unwrap().as_slice(), b"local");
            }
        );
        assert_eq!(s.metrics().old_gets, 0);
    }

    #[test]
    fn remote_writes_stay_invisible_until_the_gss_covers_them() {
        // This is the pessimism the paper measures: the fresh remote version exists locally
        // but the GET returns the older stable one until the stabilization protocol
        // advances the GSS.
        let cfg = config(3, 2);
        let clock = ManualClock::new(Timestamp(10 * MS));
        let mut s = server(0, 0, &cfg, &clock);
        let key = key_in(0, 2);

        // An old local version, then a fresh remote one whose stability is unknown.
        s.handle_client_request(
            ClientId(1),
            ClientRequest::Put {
                key,
                value: Value::from("old-local"),
                dv: dv(&[0, 0, 0]),
            },
        );
        let remote = Version::new(
            key,
            Value::from("fresh-remote"),
            ReplicaId(1),
            Timestamp(20 * MS),
            dv(&[0, 0, 0]),
        );
        s.handle_server_message(
            ServerId::new(1u16, 0u32),
            ServerMessage::Replicate { version: remote },
        );

        // GET: the remote version is not covered by the GSS (still zero), so the stale
        // local version is returned and the staleness counters move.
        let outputs = s.handle_client_request(
            ClientId(2),
            ClientRequest::Get {
                key,
                rdv: dv(&[0, 0, 0]),
            },
        );
        expect_reply!(
            extract_reply(&outputs, ClientId(2)),
            Some(ClientReply::Get(resp)) => {
                assert_eq!(resp.value.unwrap().as_slice(), b"old-local");
            }
        );
        let m = s.metrics();
        assert_eq!(m.old_gets, 1);
        assert_eq!(m.unmerged_gets, 1);
        assert_eq!(m.fresher_versions_sum, 1);
        assert!(s.take_extra_work() >= 1, "the chain walk must be charged");

        // The stabilization protocol runs: the peer partition reports a version vector
        // covering the remote update, the GSS advances, and the fresh version becomes
        // visible.
        s.handle_server_message(
            ServerId::new(0u16, 1u32),
            ServerMessage::StabilizationVector {
                vv: VersionVector::from_entries(vec![
                    Timestamp(30 * MS),
                    Timestamp(30 * MS),
                    Timestamp(30 * MS),
                ]),
            },
        );
        // This server's own VV must also cover it (it does: the replicate advanced entry 1,
        // and entries 0/2 advance with heartbeat/tick).
        clock.set(Timestamp(31 * MS));
        s.tick();
        s.handle_server_message(
            ServerId::new(2u16, 0u32),
            ServerMessage::Heartbeat {
                clock: Timestamp(30 * MS),
            },
        );
        s.handle_server_message(
            ServerId::new(0u16, 1u32),
            ServerMessage::StabilizationVector {
                vv: VersionVector::from_entries(vec![
                    Timestamp(31 * MS),
                    Timestamp(30 * MS),
                    Timestamp(30 * MS),
                ]),
            },
        );
        let outputs = s.handle_client_request(
            ClientId(2),
            ClientRequest::Get {
                key,
                rdv: dv(&[0, 0, 0]),
            },
        );
        expect_reply!(
            extract_reply(&outputs, ClientId(2)),
            Some(ClientReply::Get(resp)) => {
                assert_eq!(resp.value.unwrap().as_slice(), b"fresh-remote");
            }
        );
    }

    #[test]
    fn gets_wait_for_session_history_presence_not_stability() {
        let cfg = config(3, 1);
        let clock = ManualClock::new(Timestamp(10 * MS));
        let mut s = server(0, 0, &cfg, &clock);
        let key = key_in(0, 1);

        // The client's history claims a remote version this server has not received:
        // the GET parks (serving now could regress below what the client already saw).
        let outputs = s.handle_client_request(
            ClientId(1),
            ClientRequest::Get {
                key,
                rdv: dv(&[0, 20 * MS, 0]),
            },
        );
        assert!(extract_reply(&outputs, ClientId(1)).is_none());
        assert_eq!(s.metrics().blocked_operations, 1);

        // The remote version arrives (advancing VV[1] past the request vector): the GET
        // is served — and returns the *unstable* version, because the client's session
        // history extends visibility past the GSS. No stabilization round is needed.
        let remote = Version::new(
            key,
            Value::from("seen-by-client"),
            ReplicaId(1),
            Timestamp(20 * MS),
            dv(&[0, 0, 0]),
        );
        let outputs = s.handle_server_message(
            ServerId::new(1u16, 0u32),
            ServerMessage::Replicate { version: remote },
        );
        expect_reply!(
            extract_reply(&outputs, ClientId(1)),
            Some(ClientReply::Get(resp)) => {
                assert_eq!(resp.value.unwrap().as_slice(), b"seen-by-client");
            }
        );
        assert_eq!(s.gss(), &dv(&[0, 0, 0]), "nothing stabilized");
    }

    #[test]
    fn stabilization_round_broadcasts_version_vectors() {
        let cfg = config(3, 4);
        let clock = ManualClock::new(Timestamp(10 * MS));
        let mut s = server(0, 0, &cfg, &clock);
        let outputs = s.tick();
        let stab_msgs = outputs
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
        assert_eq!(stab_msgs, 3, "one stabilization message per local peer");
        // Within the same interval, no second round.
        clock.set(Timestamp(11 * MS));
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
    fn gss_is_the_minimum_over_local_partitions_and_is_monotonic() {
        let cfg = config(3, 3);
        let clock = ManualClock::new(Timestamp(10 * MS));
        let mut s = server(0, 0, &cfg, &clock);
        s.tick(); // advances own VV[0] to 10ms via heartbeat logic

        s.handle_server_message(
            ServerId::new(0u16, 1u32),
            ServerMessage::StabilizationVector {
                vv: VersionVector::from_entries(vec![
                    Timestamp(8 * MS),
                    Timestamp(5 * MS),
                    Timestamp(9 * MS),
                ]),
            },
        );
        // Only one of two peers known: the GSS must not advance yet.
        assert_eq!(s.gss(), &dv(&[0, 0, 0]));

        s.handle_server_message(
            ServerId::new(0u16, 2u32),
            ServerMessage::StabilizationVector {
                vv: VersionVector::from_entries(vec![
                    Timestamp(7 * MS),
                    Timestamp(6 * MS),
                    Timestamp(4 * MS),
                ]),
            },
        );
        // Own VV = [10ms, 0, 0]; peers as above. Minimum = [7ms, 0, 0].
        assert_eq!(s.gss(), &dv(&[7 * MS, 0, 0]));

        // A peer regressing (stale message) never moves the GSS backwards.
        s.handle_server_message(
            ServerId::new(0u16, 2u32),
            ServerMessage::StabilizationVector {
                vv: VersionVector::from_entries(vec![Timestamp(MS), Timestamp(MS), Timestamp(MS)]),
            },
        );
        assert!(s.gss().get(ReplicaId(0)) >= Timestamp(7 * MS));
    }

    #[test]
    fn single_partition_deployment_advances_gss_from_its_own_vector() {
        let cfg = config(3, 1);
        let clock = ManualClock::new(Timestamp(10 * MS));
        let mut s = server(0, 0, &cfg, &clock);
        s.handle_server_message(
            ServerId::new(1u16, 0u32),
            ServerMessage::Heartbeat {
                clock: Timestamp(9 * MS),
            },
        );
        s.handle_server_message(
            ServerId::new(2u16, 0u32),
            ServerMessage::Heartbeat {
                clock: Timestamp(8 * MS),
            },
        );
        let outputs = s.tick();
        // No peers to notify in a single-partition DC.
        assert!(outputs.iter().all(|o| !matches!(
            o,
            ServerOutput::Send {
                message: ServerMessage::StabilizationVector { .. },
                ..
            }
        )));
        assert_eq!(s.gss(), &dv(&[10 * MS, 9 * MS, 8 * MS]));
    }

    #[test]
    fn transaction_snapshot_is_bounded_by_the_gss() {
        let cfg = config(3, 1);
        let clock = ManualClock::new(Timestamp(10 * MS));
        let mut s = server(0, 0, &cfg, &clock);
        let key = key_in(0, 1);

        // A fresh remote version arrives but is not yet stable.
        let remote = Version::new(
            key,
            Value::from("unstable"),
            ReplicaId(1),
            Timestamp(20 * MS),
            dv(&[0, 0, 0]),
        );
        s.handle_server_message(
            ServerId::new(1u16, 0u32),
            ServerMessage::Replicate { version: remote },
        );

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
                // Nothing stable exists for this key yet.
                assert!(items[0].response.value.is_none());
            }
        );
        let m = s.metrics();
        assert_eq!(m.rotx_served, 1);
        assert_eq!(m.unmerged_tx_items, 1);
    }

    #[test]
    fn multi_partition_transaction_round_trip() {
        let cfg = config(3, 2);
        let clock = ManualClock::new(Timestamp(10 * MS));
        let mut coordinator = server(0, 0, &cfg, &clock);
        let mut participant = server(0, 1, &cfg, &clock);
        let k0 = key_in(0, 2);
        let k1 = key_in(1, 2);

        coordinator.handle_client_request(
            ClientId(9),
            ClientRequest::Put {
                key: k0,
                value: Value::from("a"),
                dv: dv(&[0, 0, 0]),
            },
        );
        participant.handle_client_request(
            ClientId(9),
            ClientRequest::Put {
                key: k1,
                value: Value::from("b"),
                dv: dv(&[0, 0, 0]),
            },
        );

        let client = ClientId(1);
        let outputs = coordinator.handle_client_request(
            client,
            ClientRequest::RoTx {
                keys: vec![k0, k1],
                rdv: dv(&[0, 0, 0]),
            },
        );
        let (_, req) = outputs
            .iter()
            .find_map(|o| match o {
                ServerOutput::Send {
                    to,
                    message: m @ ServerMessage::SliceRequest { .. },
                } => Some((*to, m.clone())),
                _ => None,
            })
            .expect("slice request expected");
        let outputs = participant.handle_server_message(coordinator.server_id(), req);
        let resp = outputs
            .iter()
            .find_map(|o| match o {
                ServerOutput::Send {
                    message: m @ ServerMessage::SliceResponse { .. },
                    ..
                } => Some(m.clone()),
                _ => None,
            })
            .expect("slice response expected");
        let outputs = coordinator.handle_server_message(participant.server_id(), resp);
        expect_reply!(
            extract_reply(&outputs, client),
            Some(ClientReply::RoTx { items }) => {
                assert_eq!(items.len(), 2);
                // The coordinator's local key is visible (local items always are); the
                // participant's key was written locally at the participant so it is
                // visible there too.
                assert!(items.iter().all(|i| i.response.value.is_some()));
            }
        );
    }

    #[test]
    fn garbage_collection_uses_the_gss() {
        let cfg = Config::builder()
            .num_replicas(1)
            .num_partitions(1)
            .gc_interval(Duration::from_millis(10))
            .build()
            .unwrap();
        let clock = ManualClock::new(Timestamp(10 * MS));
        let mut s = server(0, 0, &cfg, &clock);
        let key = key_in(0, 1);
        for i in 1..=4u64 {
            clock.set(Timestamp((10 + i) * MS));
            s.handle_client_request(
                ClientId(1),
                ClientRequest::Put {
                    key,
                    value: Value::from(i),
                    dv: dv(&[(10 + i - 1) * MS]),
                },
            );
        }
        assert_eq!(s.store().stats().versions, 4);
        clock.set(Timestamp(40 * MS));
        s.tick(); // stabilization advances the GSS (single partition: from own VV)
        clock.set(Timestamp(60 * MS));
        s.tick(); // GC runs with the fresh GSS
        assert_eq!(s.store().stats().versions, 1);
        assert!(s.metrics().gc_versions_removed >= 3);
    }

    #[test]
    fn slices_that_gc_refuses_abort_their_transaction() {
        let cfg = Config::builder()
            .num_replicas(2)
            .num_partitions(2)
            .gc_interval(Duration::from_millis(10))
            .build()
            .unwrap();
        let key = key_in(0, 2);
        let peer = ServerId::new(0u16, 1u32);
        let client = ClientId(1);
        for parked in [false, true] {
            for remote_origin in [false, true] {
                let case = format!("parked={parked} remote_origin={remote_origin}");
                let clock = ManualClock::new(Timestamp(30 * MS));
                let mut s = server(0, 0, &cfg, &clock);
                let version = Version::new(
                    key,
                    Value::from("r1"),
                    ReplicaId(1),
                    Timestamp(20 * MS),
                    dv(&[0, 0]),
                );
                s.handle_server_message(
                    ServerId::new(1u16, 0u32),
                    ServerMessage::Replicate { version },
                );
                s.handle_server_message(
                    peer,
                    ServerMessage::StabilizationVector {
                        vv: VersionVector::from_entries(vec![Timestamp(30 * MS); 2]),
                    },
                );
                // VV[0] reaches 30 ms, the GSS [30, 20] ms, and a GC pass runs at it.
                s.tick();

                // Entry 1 predates the GC and hides the key's one version, so the slice
                // cannot be answered; a VV of [30, 20] ms covers entry 0 at once, or only
                // from 40 ms on.
                let entry0 = if parked { 40 * MS } else { 30 * MS };
                let snapshot = dv(&[entry0, 10 * MS]);
                assert!(s.store().snapshot_may_predate_gc(key, &snapshot), "{case}");
                let mut outputs = Vec::new();
                if remote_origin {
                    let keys = vec![key];
                    let tx = TxId(7);
                    let request = ServerMessage::SliceRequest {
                        tx,
                        client,
                        keys,
                        snapshot,
                    };
                    outputs = s.handle_server_message(peer, request);
                } else {
                    let core = s.engine.parts_mut().0;
                    core.start_ro_tx(client, vec![key], snapshot, &mut outputs);
                }
                if parked {
                    assert!(outputs.is_empty(), "{case}: {outputs:?}");
                    assert_eq!(s.status().pending_slices, 1, "{case}");
                    clock.set(Timestamp(40 * MS));
                    outputs = s.tick();
                }

                assert_eq!(s.status().pending_slices, 0, "{case}");
                assert_eq!(s.metrics().slices_served, 0, "{case}");
                if remote_origin {
                    let aborts = outputs.iter().filter(|o| {
                        matches!(o, ServerOutput::Send {
                            to,
                            message: ServerMessage::SliceAbort { tx: TxId(7) },
                        } if *to == peer)
                    });
                    assert_eq!(aborts.count(), 1, "{case}: {outputs:?}");
                    assert_eq!(s.metrics().sessions_aborted, 0, "{case}");
                } else {
                    expect_reply!(
                        extract_reply(&outputs, client),
                        Some(ClientReply::SessionAborted { .. }) => {}
                    );
                    assert_eq!(s.metrics().sessions_aborted, 1, "{case}");
                    assert_eq!(s.status().active_transactions, 0, "{case}");
                }
            }
        }
    }

    #[test]
    fn metrics_report_served_operations() {
        let cfg = config(3, 1);
        let clock = ManualClock::new(Timestamp(10 * MS));
        let mut s = server(0, 0, &cfg, &clock);
        let key = key_in(0, 1);
        s.handle_client_request(
            ClientId(1),
            ClientRequest::Put {
                key,
                value: Value::from("x"),
                dv: dv(&[0, 0, 0]),
            },
        );
        s.handle_client_request(
            ClientId(1),
            ClientRequest::Get {
                key,
                rdv: dv(&[0, 0, 0]),
            },
        );
        s.handle_client_request(
            ClientId(1),
            ClientRequest::RoTx {
                keys: vec![],
                rdv: dv(&[0, 0, 0]),
            },
        );
        let m = s.metrics();
        assert_eq!(m.puts_served, 1);
        assert_eq!(m.gets_served, 1);
        assert_eq!(m.rotx_served, 1);
        assert_eq!(m.operations_served(), 3);
        assert_eq!(m.replicate_sent, 2);
    }
}
