//! The POCC server (Algorithm 2 of the paper) as a visibility policy over the shared
//! protocol engine.

use pocc_clock::Clock;
use pocc_engine::{EngineCore, ProtocolEngine, ReadMode, VisibilityPolicy};
use pocc_proto::{ClientRequest, ServerOutput};
use pocc_types::{ClientId, Config, Timestamp};

/// The optimistic visibility policy (Algorithm 2): a GET returns the *freshest* version
/// the server has received — stable or not — and parks when the client's dependencies
/// have not been installed yet; PUTs optionally wait for their dependencies; read-only
/// transactions read from `VV ∨ RDV`; garbage collection runs the vector exchange of
/// §IV-B.
#[derive(Clone, Copy, Debug, Default)]
pub struct PoccPolicy;

impl<C: Clock> VisibilityPolicy<C> for PoccPolicy {
    fn new(_config: &Config, _now: Timestamp) -> Self {
        PoccPolicy
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
                // Algorithm 2 lines 2–4: serve the chain head once the client's remote
                // dependencies are covered, park otherwise.
                if core.covers_remote_deps(&rdv) {
                    let out = core.serve_get_latest(client, key);
                    outputs.push(out);
                } else {
                    core.park_get(client, key, rdv, ReadMode::Latest);
                }
            }
            ClientRequest::Put { key, value, dv } => {
                // Lines 6–15: apply once the client's remote dependencies are covered,
                // park otherwise.
                if core.covers_remote_deps(&dv) {
                    core.serve_put(client, key, value, dv, &mut outputs);
                } else {
                    core.park_put(client, key, value, dv);
                }
                // A PUT advances the local clock entry, which can unblock parked slices.
                core.unpark(&mut outputs);
            }
            ClientRequest::RoTx { keys, rdv } => {
                // Line 32: the snapshot visible to the transaction is the entry-wise
                // maximum of the coordinator's version vector and the client's read
                // dependencies.
                let snapshot = core.vv.snapshot_with(&rdv);
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
        // Garbage collection exchange (§IV-B).
        if now.saturating_since(core.last_gc) >= core.config.gc_interval {
            core.last_gc = now;
            core.gc_exchange_round(outputs);
        }
        // Partition detection (§III-B).
        core.enforce_partition_timeouts(now, outputs);
    }
}

/// A POCC server `p^m_n`: one replica (data center `m`) of one partition (`n`).
///
/// The server is a sans-IO state machine: feed it client requests, server messages and
/// periodic ticks; it returns the replies and messages to deliver. See the crate-level
/// documentation for an end-to-end example.
pub type PoccServer<C> = ProtocolEngine<C, PoccPolicy>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Client;
    use pocc_clock::ManualClock;
    use pocc_proto::{
        expect_reply, ClientReply, ProtocolClient, ProtocolServer, ServerIntrospect, ServerMessage,
        TxId,
    };
    use pocc_storage::partition_for_key;
    use pocc_types::{DependencyVector, Key, ReplicaId, ServerId, Value, Version};
    use std::time::Duration;

    const MS: u64 = 1_000;

    fn config(replicas: usize, partitions: usize) -> Config {
        Config::builder()
            .num_replicas(replicas)
            .num_partitions(partitions)
            .partition_detection_timeout(Duration::from_millis(500))
            .build()
            .unwrap()
    }

    fn server(
        replica: u16,
        partition: u32,
        cfg: &Config,
        clock: &ManualClock,
    ) -> PoccServer<ManualClock> {
        PoccServer::new(
            ServerId::new(replica, partition),
            cfg.clone(),
            clock.clone(),
        )
    }

    /// A key owned by `partition` in a deployment of `num_partitions`.
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
    fn put_then_get_round_trip_with_replication_output() {
        let cfg = config(3, 1);
        let clock = ManualClock::new(Timestamp(10 * MS));
        let mut s = server(0, 0, &cfg, &clock);
        let c = ClientId(1);
        let key = key_in(0, 1);

        let outputs = s.handle_client_request(
            c,
            ClientRequest::Put {
                key,
                value: Value::from("v1"),
                dv: dv(&[0, 0, 0]),
            },
        );
        // One replication message per sibling replica plus the client reply.
        assert_eq!(outputs.len(), 3);
        let replicas: Vec<_> = outputs
            .iter()
            .filter(|o| matches!(o, ServerOutput::Send { .. }))
            .collect();
        assert_eq!(replicas.len(), 2);
        let ut = expect_reply!(
            extract_reply(&outputs, c),
            Some(ClientReply::Put { update_time }) => update_time,
        );
        assert_eq!(ut, Timestamp(10 * MS));
        assert_eq!(s.core().vv.get(ReplicaId(0)), ut);

        let outputs = s.handle_client_request(
            c,
            ClientRequest::Get {
                key,
                rdv: dv(&[0, 0, 0]),
            },
        );
        expect_reply!(
            extract_reply(&outputs, c),
            Some(ClientReply::Get(resp)) => {
                assert_eq!(resp.value.unwrap().as_slice(), b"v1");
                assert_eq!(resp.update_time, ut);
                assert_eq!(resp.source_replica, ReplicaId(0));
            }
        );
        let m = s.metrics();
        assert_eq!(m.puts_served, 1);
        assert_eq!(m.gets_served, 1);
        assert_eq!(m.replicate_sent, 2);
        assert_eq!(m.blocked_operations, 0);
    }

    #[test]
    fn get_of_missing_key_returns_empty_response() {
        let cfg = config(3, 1);
        let clock = ManualClock::new(Timestamp(MS));
        let mut s = server(0, 0, &cfg, &clock);
        let outputs = s.handle_client_request(
            ClientId(1),
            ClientRequest::Get {
                key: key_in(0, 1),
                rdv: dv(&[0, 0, 0]),
            },
        );
        expect_reply!(
            extract_reply(&outputs, ClientId(1)),
            Some(ClientReply::Get(resp)) => {
                assert!(resp.value.is_none());
                assert_eq!(resp.update_time, Timestamp::ZERO);
            }
        );
    }

    #[test]
    fn get_blocks_until_the_missing_dependency_arrives() {
        let cfg = config(3, 1);
        let clock = ManualClock::new(Timestamp(10 * MS));
        let mut s = server(0, 0, &cfg, &clock);
        let c = ClientId(7);
        let key = key_in(0, 1);

        // The client depends on an item from replica 1 with timestamp 20ms that this
        // server has not received yet.
        let outputs = s.handle_client_request(
            c,
            ClientRequest::Get {
                key,
                rdv: dv(&[0, 20 * MS, 0]),
            },
        );
        assert!(outputs.is_empty(), "the GET must be parked");
        assert_eq!(s.metrics().blocked_operations, 1);
        assert_eq!(s.metrics().currently_blocked, 1);
        assert_eq!(s.core().pending_len(), 1);

        // A heartbeat from replica 1 with a lower clock does not unblock it.
        clock.set(Timestamp(15 * MS));
        let outputs = s.handle_server_message(
            ServerId::new(1u16, 0u32),
            ServerMessage::Heartbeat {
                clock: Timestamp(15 * MS),
            },
        );
        assert!(outputs.is_empty());

        // The missing update arrives: the GET is served and returns the fresh value.
        clock.set(Timestamp(21 * MS));
        let version = Version::new(
            key,
            Value::from("fresh"),
            ReplicaId(1),
            Timestamp(20 * MS),
            dv(&[0, 0, 0]),
        );
        let outputs = s.handle_server_message(
            ServerId::new(1u16, 0u32),
            ServerMessage::Replicate { version },
        );
        expect_reply!(
            extract_reply(&outputs, c),
            Some(ClientReply::Get(resp)) => {
                assert_eq!(resp.value.unwrap().as_slice(), b"fresh");
            }
        );
        let m = s.metrics();
        assert_eq!(m.gets_served, 1);
        assert_eq!(m.currently_blocked, 0);
        assert!(m.total_block_time >= Duration::from_millis(10));
    }

    #[test]
    fn heartbeat_unblocks_get_without_delivering_data() {
        // The dependency is on a key of *another* partition: a heartbeat proving that
        // everything up to the dependency timestamp has been sent is enough to unblock.
        let cfg = config(3, 2);
        let clock = ManualClock::new(Timestamp(10 * MS));
        let mut s = server(0, 0, &cfg, &clock);
        let c = ClientId(7);
        let key = key_in(0, 2);

        let outputs = s.handle_client_request(
            c,
            ClientRequest::Get {
                key,
                rdv: dv(&[0, 20 * MS, 0]),
            },
        );
        assert!(outputs.is_empty());

        let outputs = s.handle_server_message(
            ServerId::new(1u16, 0u32),
            ServerMessage::Heartbeat {
                clock: Timestamp(25 * MS),
            },
        );
        assert!(matches!(
            extract_reply(&outputs, c),
            Some(ClientReply::Get(_))
        ));
    }

    #[test]
    fn put_blocks_on_missing_dependencies_when_configured() {
        let cfg = config(3, 1);
        let clock = ManualClock::new(Timestamp(10 * MS));
        let mut s = server(0, 0, &cfg, &clock);
        let c = ClientId(2);
        let key = key_in(0, 1);

        let outputs = s.handle_client_request(
            c,
            ClientRequest::Put {
                key,
                value: Value::from("w"),
                dv: dv(&[0, 0, 30 * MS]),
            },
        );
        assert!(outputs.is_empty(), "the PUT must be parked");

        // Once replica 2's heartbeat covers the dependency the PUT is applied and
        // replicated.
        let outputs = s.handle_server_message(
            ServerId::new(2u16, 0u32),
            ServerMessage::Heartbeat {
                clock: Timestamp(31 * MS),
            },
        );
        let ut = expect_reply!(
            extract_reply(&outputs, c),
            Some(ClientReply::Put { update_time }) => update_time,
        );
        // The new version's timestamp must exceed all its dependencies (Proposition 2).
        assert!(ut > Timestamp(30 * MS));
        assert_eq!(
            outputs
                .iter()
                .filter(|o| matches!(o, ServerOutput::Send { .. }))
                .count(),
            2
        );
    }

    #[test]
    fn put_timestamp_exceeds_dependencies_even_with_a_lagging_clock() {
        let cfg = config(3, 1);
        // The local clock lags behind the dependency timestamps.
        let clock = ManualClock::new(Timestamp(5 * MS));
        let mut s = server(0, 0, &cfg, &clock);
        // Dependencies are local-only so the PUT does not park.
        let outputs = s.handle_client_request(
            ClientId(1),
            ClientRequest::Put {
                key: key_in(0, 1),
                value: Value::from("w"),
                dv: dv(&[8 * MS, 0, 0]),
            },
        );
        let ut = expect_reply!(
            extract_reply(&outputs, ClientId(1)),
            Some(ClientReply::Put { update_time }) => update_time,
        );
        assert!(ut > Timestamp(8 * MS));
        assert!(s.metrics().clock_wait_time > Duration::ZERO);
    }

    #[test]
    fn replication_applies_remote_updates_and_advances_the_vector() {
        let cfg = config(3, 1);
        let clock = ManualClock::new(Timestamp(10 * MS));
        let mut s = server(0, 0, &cfg, &clock);
        let key = key_in(0, 1);
        let version = Version::new(
            key,
            Value::from("remote"),
            ReplicaId(2),
            Timestamp(9 * MS),
            dv(&[0, 0, 0]),
        );
        let outputs = s.handle_server_message(
            ServerId::new(2u16, 0u32),
            ServerMessage::Replicate { version },
        );
        assert!(outputs.is_empty());
        assert_eq!(s.core().vv.get(ReplicaId(2)), Timestamp(9 * MS));
        assert_eq!(
            s.core().store.latest(key).unwrap().value.as_slice(),
            b"remote"
        );
        assert_eq!(s.metrics().replicate_received, 1);
    }

    #[test]
    fn optimistic_get_returns_unstable_remote_version() {
        // The defining behaviour of OCC: a remote version whose dependencies are missing
        // locally is still returned to a client with no matching dependency.
        let cfg = config(3, 1);
        let clock = ManualClock::new(Timestamp(10 * MS));
        let mut s = server(0, 0, &cfg, &clock);
        let key = key_in(0, 1);
        // The replicated version depends on something from replica 2 this server lacks.
        let version = Version::new(
            key,
            Value::from("unstable"),
            ReplicaId(1),
            Timestamp(9 * MS),
            dv(&[0, 0, 50 * MS]),
        );
        s.handle_server_message(
            ServerId::new(1u16, 0u32),
            ServerMessage::Replicate { version },
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
                assert_eq!(resp.value.unwrap().as_slice(), b"unstable");
                // The client inherits the unresolved dependency through the metadata.
                assert_eq!(resp.deps, dv(&[0, 0, 50 * MS]));
            }
        );
    }

    #[test]
    fn tick_emits_heartbeats_when_idle() {
        let cfg = config(3, 1);
        let clock = ManualClock::new(Timestamp(10 * MS));
        let mut s = server(0, 0, &cfg, &clock);
        let outputs = s.tick();
        let heartbeats: Vec<_> = outputs
            .iter()
            .filter(|o| {
                matches!(
                    o,
                    ServerOutput::Send {
                        message: ServerMessage::Heartbeat { .. },
                        ..
                    }
                )
            })
            .collect();
        assert_eq!(heartbeats.len(), 2);
        assert_eq!(s.core().vv.get(ReplicaId(0)), Timestamp(10 * MS));

        // Within the same heartbeat interval no further heartbeat is sent.
        clock.set(Timestamp(10 * MS + 500));
        let outputs = s.tick();
        assert!(outputs.iter().all(|o| !matches!(
            o,
            ServerOutput::Send {
                message: ServerMessage::Heartbeat { .. },
                ..
            }
        )));
    }

    #[test]
    fn single_partition_transaction_completes_inline() {
        let cfg = config(3, 1);
        let clock = ManualClock::new(Timestamp(10 * MS));
        let mut s = server(0, 0, &cfg, &clock);
        let key = key_in(0, 1);
        s.handle_client_request(
            ClientId(1),
            ClientRequest::Put {
                key,
                value: Value::from("t"),
                dv: dv(&[0, 0, 0]),
            },
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
                assert_eq!(items[0].key, key);
                assert_eq!(items[0].response.value.as_ref().unwrap().as_slice(), b"t");
            }
        );
        assert_eq!(s.metrics().rotx_served, 1);
        assert_eq!(s.metrics().slices_served, 1);
    }

    #[test]
    fn empty_transaction_returns_immediately() {
        let cfg = config(3, 1);
        let clock = ManualClock::new(Timestamp(10 * MS));
        let mut s = server(0, 0, &cfg, &clock);
        let outputs = s.handle_client_request(
            ClientId(1),
            ClientRequest::RoTx {
                keys: vec![],
                rdv: dv(&[0, 0, 0]),
            },
        );
        assert!(matches!(
            extract_reply(&outputs, ClientId(1)),
            Some(ClientReply::RoTx { items }) if items.is_empty()
        ));
    }

    #[test]
    fn multi_partition_transaction_uses_slice_requests() {
        let cfg = config(3, 4);
        let clock = ManualClock::new(Timestamp(10 * MS));
        let mut coordinator = server(0, 0, &cfg, &clock);
        let mut participant = server(0, 1, &cfg, &clock);

        let local_key = key_in(0, 4);
        let remote_key = key_in(1, 4);

        // Seed both partitions.
        coordinator.handle_client_request(
            ClientId(9),
            ClientRequest::Put {
                key: local_key,
                value: Value::from("local"),
                dv: dv(&[0, 0, 0]),
            },
        );
        participant.handle_client_request(
            ClientId(9),
            ClientRequest::Put {
                key: remote_key,
                value: Value::from("remote"),
                dv: dv(&[0, 0, 0]),
            },
        );

        // The client asks the coordinator for both keys.
        let client = ClientId(1);
        let outputs = coordinator.handle_client_request(
            client,
            ClientRequest::RoTx {
                keys: vec![local_key, remote_key],
                rdv: dv(&[0, 0, 0]),
            },
        );
        // No reply yet: the remote slice is outstanding.
        assert!(extract_reply(&outputs, client).is_none());
        let (to, slice_req) = outputs
            .iter()
            .find_map(|o| match o {
                ServerOutput::Send {
                    to,
                    message: m @ ServerMessage::SliceRequest { .. },
                } => Some((*to, m.clone())),
                _ => None,
            })
            .expect("a slice request must be sent to the peer partition");
        assert_eq!(to, ServerId::new(0u16, 1u32));

        // The participant serves the slice...
        let outputs = participant.handle_server_message(coordinator.server_id(), slice_req);
        let (back_to, slice_resp) = outputs
            .iter()
            .find_map(|o| match o {
                ServerOutput::Send {
                    to,
                    message: m @ ServerMessage::SliceResponse { .. },
                } => Some((*to, m.clone())),
                _ => None,
            })
            .expect("a slice response must be produced");
        assert_eq!(back_to, coordinator.server_id());

        // ... and the coordinator assembles the final reply.
        let outputs = coordinator.handle_server_message(participant.server_id(), slice_resp);
        expect_reply!(
            extract_reply(&outputs, client),
            Some(ClientReply::RoTx { items }) => {
                assert_eq!(items.len(), 2);
                let mut values: Vec<_> = items
                    .iter()
                    .map(|i| i.response.value.as_ref().unwrap().as_slice().to_vec())
                    .collect();
                values.sort();
                assert_eq!(values, vec![b"local".to_vec(), b"remote".to_vec()]);
            }
        );
        assert_eq!(coordinator.metrics().rotx_served, 1);
    }

    #[test]
    fn slice_request_blocks_until_snapshot_is_installed() {
        let cfg = config(3, 2);
        let clock = ManualClock::new(Timestamp(10 * MS));
        let mut participant = server(0, 1, &cfg, &clock);
        let coordinator_id = ServerId::new(0u16, 0u32);
        let key = key_in(1, 2);

        // Snapshot requires replica 1 up to 20 ms; the participant has seen nothing.
        let outputs = participant.handle_server_message(
            coordinator_id,
            ServerMessage::SliceRequest {
                tx: TxId(1),
                client: ClientId(5),
                keys: vec![key],
                snapshot: dv(&[0, 20 * MS, 0]),
            },
        );
        assert!(outputs.is_empty());
        assert_eq!(participant.metrics().blocked_operations, 1);

        // A heartbeat from replica 1 covering the snapshot unblocks the slice. The local
        // entry of the snapshot is zero so the local clock needs no advance.
        let outputs = participant.handle_server_message(
            ServerId::new(1u16, 1u32),
            ServerMessage::Heartbeat {
                clock: Timestamp(25 * MS),
            },
        );
        assert!(outputs.iter().any(|o| matches!(
            o,
            ServerOutput::Send {
                to,
                message: ServerMessage::SliceResponse { .. },
            } if *to == coordinator_id
        )));
    }

    #[test]
    fn transaction_snapshot_excludes_versions_beyond_the_snapshot() {
        // A fresher version arriving after the snapshot was fixed must not be returned by
        // the slice read, even though a plain GET would return it.
        let cfg = config(3, 1);
        let clock = ManualClock::new(Timestamp(10 * MS));
        let mut s = server(0, 0, &cfg, &clock);
        let key = key_in(0, 1);
        s.handle_client_request(
            ClientId(1),
            ClientRequest::Put {
                key,
                value: Value::from("old"),
                dv: dv(&[0, 0, 0]),
            },
        );
        // Fix the snapshot now (VV[0] = 10ms).
        let outputs = s.handle_client_request(
            ClientId(2),
            ClientRequest::RoTx {
                keys: vec![key],
                rdv: dv(&[0, 0, 0]),
            },
        );
        expect_reply!(
            extract_reply(&outputs, ClientId(2)),
            Some(ClientReply::RoTx { items }) => {
                assert_eq!(items[0].response.value.as_ref().unwrap().as_slice(), b"old");
            }
        );

        // Now a newer write lands and a *new* transaction sees it.
        clock.set(Timestamp(20 * MS));
        s.handle_client_request(
            ClientId(1),
            ClientRequest::Put {
                key,
                value: Value::from("new"),
                dv: dv(&[10 * MS, 0, 0]),
            },
        );
        let outputs = s.handle_client_request(
            ClientId(2),
            ClientRequest::RoTx {
                keys: vec![key],
                rdv: dv(&[0, 0, 0]),
            },
        );
        expect_reply!(
            extract_reply(&outputs, ClientId(2)),
            Some(ClientReply::RoTx { items }) => {
                assert_eq!(items[0].response.value.as_ref().unwrap().as_slice(), b"new");
            }
        );
    }

    #[test]
    fn blocked_get_times_out_into_a_session_abort() {
        let cfg = config(3, 1);
        let clock = ManualClock::new(Timestamp(10 * MS));
        let mut s = server(0, 0, &cfg, &clock);
        let c = ClientId(3);
        let outputs = s.handle_client_request(
            c,
            ClientRequest::Get {
                key: key_in(0, 1),
                rdv: dv(&[0, 999 * MS, 0]),
            },
        );
        assert!(outputs.is_empty());

        // Before the timeout nothing happens.
        clock.set(Timestamp(100 * MS));
        let outputs = s.tick();
        assert!(extract_reply(&outputs, c).is_none());

        // After the partition-detection timeout the session is closed.
        clock.set(Timestamp(600 * MS));
        let outputs = s.tick();
        expect_reply!(
            extract_reply(&outputs, c),
            Some(ClientReply::SessionAborted { reason }) => {
                assert!(reason.contains("missing read dependency"));
            }
        );
        assert_eq!(s.metrics().sessions_aborted, 1);
        assert_eq!(s.metrics().currently_blocked, 0);
    }

    #[test]
    fn coordinated_transaction_times_out_into_a_session_abort() {
        let cfg = config(3, 2);
        let clock = ManualClock::new(Timestamp(10 * MS));
        let mut s = server(0, 0, &cfg, &clock);
        let c = ClientId(3);
        // The transaction involves the peer partition, whose response never arrives.
        let outputs = s.handle_client_request(
            c,
            ClientRequest::RoTx {
                keys: vec![key_in(1, 2)],
                rdv: dv(&[0, 0, 0]),
            },
        );
        assert!(extract_reply(&outputs, c).is_none());
        clock.set(Timestamp(600 * MS));
        let outputs = s.tick();
        assert!(matches!(
            extract_reply(&outputs, c),
            Some(ClientReply::SessionAborted { .. })
        ));
        // A late slice response is ignored without panicking.
        let outputs = s.handle_server_message(
            ServerId::new(0u16, 1u32),
            ServerMessage::SliceResponse {
                tx: TxId(0),
                items: vec![],
            },
        );
        assert!(outputs.is_empty());
    }

    #[test]
    fn gc_round_exchanges_vectors_and_collects_old_versions() {
        let cfg = Config::builder()
            .num_replicas(1)
            .num_partitions(2)
            .gc_interval(Duration::from_millis(10))
            .build()
            .unwrap();
        let clock = ManualClock::new(Timestamp(10 * MS));
        let mut s = server(0, 0, &cfg, &clock);
        let key = key_in(0, 2);
        for i in 1..=5u64 {
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
        assert_eq!(s.core().store.stats().versions, 5);

        // First tick initiates the GC exchange and sends the contribution to the peer.
        clock.set(Timestamp(30 * MS));
        let outputs = s.tick();
        assert!(outputs.iter().any(|o| matches!(
            o,
            ServerOutput::Send {
                message: ServerMessage::GcVector { .. },
                ..
            }
        )));

        // The peer's contribution arrives, covering everything.
        s.handle_server_message(
            ServerId::new(0u16, 1u32),
            ServerMessage::GcVector {
                vector: dv(&[100 * MS]),
            },
        );
        clock.set(Timestamp(50 * MS));
        s.tick();
        // Only the newest version survives (it is the first one covered by the GC vector).
        assert_eq!(s.core().store.stats().versions, 1);
        assert!(s.metrics().gc_versions_removed >= 4);
    }

    #[test]
    fn batched_replication_defers_to_tick_and_preserves_order() {
        let cfg = Config::builder()
            .num_replicas(2)
            .num_partitions(1)
            .replication_batching(true)
            .build()
            .unwrap();
        let clock = ManualClock::new(Timestamp(10 * MS));
        let mut sender = server(0, 0, &cfg, &clock);
        let mut receiver = PoccServer::new(ServerId::new(1u16, 0u32), cfg, clock.clone());
        let key = key_in(0, 1);

        // Two PUTs: replies come back immediately, replication is buffered.
        for (t, v) in [(10u64, "a"), (11, "b")] {
            clock.set(Timestamp(t * MS));
            let outputs = sender.handle_client_request(
                ClientId(1),
                ClientRequest::Put {
                    key,
                    value: Value::from(v),
                    dv: dv(&[0, 0]),
                },
            );
            assert!(matches!(
                extract_reply(&outputs, ClientId(1)),
                Some(ClientReply::Put { .. })
            ));
            assert!(
                !outputs
                    .iter()
                    .any(|o| matches!(o, ServerOutput::Send { .. })),
                "replication must be buffered, not sent inline"
            );
        }
        // Per-message metrics are still counted at stage time.
        assert_eq!(sender.metrics().replicate_sent, 2);
        assert_eq!(sender.metrics().batches_sent, 0);

        // The next tick flushes one batch (before any heartbeat) carrying both versions
        // in timestamp order.
        clock.set(Timestamp(12 * MS));
        let outputs = sender.tick();
        let (to, batch) = outputs
            .iter()
            .find_map(|o| match o {
                ServerOutput::Send {
                    to,
                    message: m @ ServerMessage::Batch { .. },
                } => Some((*to, m.clone())),
                _ => None,
            })
            .expect("a batch must flush on tick");
        assert_eq!(to, receiver.server_id());
        assert_eq!(sender.metrics().batches_sent, 1);
        let batch_pos = outputs
            .iter()
            .position(|o| {
                matches!(
                    o,
                    ServerOutput::Send {
                        message: ServerMessage::Batch { .. },
                        ..
                    }
                )
            })
            .unwrap();
        let hb_pos = outputs.iter().position(|o| {
            matches!(
                o,
                ServerOutput::Send {
                    message: ServerMessage::Heartbeat { .. },
                    ..
                }
            )
        });
        if let Some(hb_pos) = hb_pos {
            assert!(batch_pos < hb_pos, "the batch must precede the heartbeat");
        }

        // Applying the batch installs both versions and advances the version vector as if
        // the messages had arrived individually.
        receiver.handle_server_message(sender.server_id(), batch);
        assert_eq!(receiver.metrics().replicate_received, 2);
        assert_eq!(
            receiver.core().store.latest(key).unwrap().value.as_slice(),
            b"b"
        );
        assert_eq!(receiver.core().vv.get(ReplicaId(0)), Timestamp(11 * MS));
        assert_eq!(sender.digest(), receiver.digest());
    }

    #[test]
    fn end_to_end_client_server_session_maintains_causality_metadata() {
        // Drive a Client (Algorithm 1) against a server and check Propositions 1 and 2.
        let cfg = config(3, 1);
        let clock = ManualClock::new(Timestamp(10 * MS));
        let mut s = server(0, 0, &cfg, &clock);
        let mut client = Client::new(ClientId(1), s.server_id(), 3);
        let key = key_in(0, 1);

        // PUT X.
        let outputs =
            s.handle_client_request(client.client_id(), client.put(key, Value::from("x")));
        let reply = extract_reply(&outputs, client.client_id()).unwrap();
        client.process_reply(&reply).unwrap();
        let x_ut = match reply {
            ClientReply::Put { update_time } => update_time,
            _ => unreachable!(),
        };

        // GET X back, establishing a read dependency.
        clock.set(Timestamp(20 * MS));
        let outputs = s.handle_client_request(client.client_id(), client.get(key));
        let reply = extract_reply(&outputs, client.client_id()).unwrap();
        client.process_reply(&reply).unwrap();

        // PUT Y: its dependency vector must cover X (Proposition 1) and its timestamp must
        // exceed X's (Proposition 2).
        let outputs =
            s.handle_client_request(client.client_id(), client.put(key, Value::from("y")));
        let reply = extract_reply(&outputs, client.client_id()).unwrap();
        let y_ut = match &reply {
            ClientReply::Put { update_time } => *update_time,
            _ => unreachable!(),
        };
        client.process_reply(&reply).unwrap();
        assert!(y_ut > x_ut);
        let stored_y = s.core().store.latest(key).unwrap();
        assert!(stored_y.deps.get(ReplicaId(0)) >= x_ut);
    }
}
