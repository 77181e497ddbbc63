//! The client session state machine (Algorithm 1 of the paper).
//!
//! A client keeps two vectors with one entry per data center:
//!
//! * `DV` — the *dependency vector*: the newest item per data center the client depends
//!   on, through reads **and** its own writes. It is shipped with every PUT and stored in
//!   the created version, so that later readers inherit the dependency.
//! * `RDV` — the *read dependency vector*: the transitive dependencies established through
//!   reads only (the entry-wise maximum of the dependency vectors of every item the client
//!   has read). It is shipped with every GET and RO-TX so the server can check whether its
//!   state is consistent with the client's history.
//!
//! The same client code is used against POCC and Cure\* servers: the paper's comparison is
//! fair precisely because both systems exchange the same client-side metadata.

use pocc_proto::{ClientReply, ClientRequest, GetResponse, ProtocolClient};
use pocc_types::{ClientId, DependencyVector, Error, Key, Result, ServerId, Value};

/// A client session (Algorithm 1).
#[derive(Clone, Debug)]
pub struct Client {
    id: ClientId,
    home: ServerId,
    /// `DV_c`: dependencies established through both reads and writes.
    dv: DependencyVector,
    /// `RDV_c`: dependencies established through reads (transitively).
    rdv: DependencyVector,
    /// Ship the full `DV_c` with GETs instead of `RDV_c` (see [`Client::new_snapshot_reads`]).
    snapshot_reads: bool,
    /// Number of operations issued in this session (diagnostics only).
    ops_issued: u64,
    /// Whether the server aborted this session (partition recovery, §III-B).
    aborted: bool,
}

impl Client {
    /// Creates a new session for `id`, attached to server `home`, in a deployment of
    /// `num_replicas` data centers. GETs ship `RDV_c`, as in Algorithm 1 — the right
    /// metadata for chain-head-serving protocols (POCC, HA-POCC).
    pub fn new(id: ClientId, home: ServerId, num_replicas: usize) -> Self {
        Client {
            id,
            home,
            dv: DependencyVector::zero(num_replicas),
            rdv: DependencyVector::zero(num_replicas),
            snapshot_reads: false,
            ops_issued: 0,
            aborted: false,
        }
    }

    /// Creates a session whose GETs ship the full dependency vector `DV_c` instead of
    /// `RDV_c`, for protocols that serve reads from a *snapshot* (Cure\*, and the Adaptive
    /// protocol's stable fall-back) rather than from the head of the version chain.
    ///
    /// A snapshot read returns the freshest version *covered by the request vector* (plus
    /// the GSS and locally originated versions), so session guarantees require that
    /// vector to cover every item the client has read or written — `RDV_c` covers only
    /// their dependencies. This is the same argument that makes [`Client::ro_tx`] ship
    /// `DV_c` (see its comment); both vectors have one entry per data center, so the
    /// choice does not change the wire size.
    pub fn new_snapshot_reads(id: ClientId, home: ServerId, num_replicas: usize) -> Self {
        Client {
            snapshot_reads: true,
            ..Client::new(id, home, num_replicas)
        }
    }

    /// The client's current dependency vector (`DV_c`).
    pub fn dependency_vector(&self) -> &DependencyVector {
        &self.dv
    }

    /// The client's current read dependency vector (`RDV_c`).
    pub fn read_dependency_vector(&self) -> &DependencyVector {
        &self.rdv
    }

    /// Number of operations issued in this session.
    pub fn ops_issued(&self) -> u64 {
        self.ops_issued
    }

    /// Whether the server closed this session (the client must create a new [`Client`],
    /// which is exactly the session re-initialisation of the recovery procedure).
    pub fn is_aborted(&self) -> bool {
        self.aborted
    }

    /// Re-initialises the session after an abort, dropping all accumulated dependencies.
    ///
    /// This models the pessimistic fall-back of §III-B: the new session may not observe
    /// versions read or written by the old one.
    pub fn reinitialize(&mut self) {
        let m = self.dv.len();
        self.dv = DependencyVector::zero(m);
        self.rdv = DependencyVector::zero(m);
        self.aborted = false;
    }

    /// Folds the result of a read (GET or one item of a RO-TX) into the dependency state
    /// (Algorithm 1 lines 4–6).
    fn track_read(&mut self, resp: &GetResponse) {
        if resp.value.is_none() {
            // Reading a key that has never been written establishes no dependency.
            return;
        }
        // RDVc <- max{RDVc, DV_of_item}: transitive dependencies through the read item.
        self.rdv.join(&resp.deps);
        // DVc <- max{RDVc, DVc}.
        self.dv.join(&self.rdv);
        // DVc[sr] <- max{DVc[sr], ut}: the direct dependency on the item itself.
        self.dv.advance(resp.source_replica, resp.update_time);
    }
}

impl ProtocolClient for Client {
    fn client_id(&self) -> ClientId {
        self.id
    }

    fn home_server(&self) -> ServerId {
        self.home
    }

    fn get(&self, key: Key) -> ClientRequest {
        // Chain-head protocols need only the read dependencies (Algorithm 1 line 2);
        // snapshot-serving protocols need the whole session history in the vector (see
        // `new_snapshot_reads`).
        let rdv = if self.snapshot_reads {
            self.dv.clone()
        } else {
            self.rdv.clone()
        };
        ClientRequest::Get { key, rdv }
    }

    fn put(&self, key: Key, value: Value) -> ClientRequest {
        ClientRequest::Put {
            key,
            value,
            dv: self.dv.clone(),
        }
    }

    fn ro_tx(&self, keys: Vec<Key>) -> ClientRequest {
        // Algorithm 1 line 15 ships RDV_c with a RO-TX. RDV, however, does not cover the
        // update times of items the client itself has read or written (only their
        // dependencies), while the correctness argument of the paper's appendix relies on
        // the snapshot including "every item read or written by c". We therefore ship the
        // full dependency vector DV_c (which dominates RDV_c): the snapshot vector computed
        // by the coordinator then covers the whole session history, at the cost of a
        // slightly larger wait window on the participant partitions (bounded by the clock
        // skew plus one heartbeat interval).
        ClientRequest::RoTx {
            keys,
            rdv: self.dv.clone(),
        }
    }

    fn process_reply(&mut self, reply: &ClientReply) -> Result<()> {
        self.ops_issued += 1;
        match reply {
            ClientReply::Get(resp) => {
                self.track_read(resp);
                Ok(())
            }
            ClientReply::Put { update_time } => {
                // DVc[m] <- ut: dependency on the client's own write at the local replica
                // (Algorithm 1 line 12). The write is applied by the home server, so the
                // entry to advance is the home server's replica.
                self.dv.advance(self.home.replica, *update_time);
                Ok(())
            }
            ClientReply::RoTx { items } => {
                // Each returned item is tracked as if it were the result of a GET
                // (Algorithm 1 lines 17–19).
                for item in items {
                    self.track_read(&item.response);
                }
                Ok(())
            }
            ClientReply::SessionAborted { reason } => {
                self.aborted = true;
                Err(Error::SessionAborted {
                    client: self.id,
                    reason: reason.clone(),
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pocc_proto::TxItem;
    use pocc_types::{ReplicaId, Timestamp};

    fn dv(entries: &[u64]) -> DependencyVector {
        DependencyVector::from_entries(entries.iter().map(|&e| Timestamp(e)).collect())
    }

    fn get_response(ut: u64, sr: u16, deps: &[u64]) -> GetResponse {
        GetResponse {
            value: Some(Value::from(ut)),
            update_time: Timestamp(ut),
            deps: dv(deps),
            source_replica: ReplicaId(sr),
        }
    }

    fn client() -> Client {
        Client::new(ClientId(1), ServerId::new(0u16, 0u32), 3)
    }

    #[test]
    fn new_client_has_zero_dependencies() {
        let c = client();
        assert_eq!(c.dependency_vector(), &dv(&[0, 0, 0]));
        assert_eq!(c.read_dependency_vector(), &dv(&[0, 0, 0]));
        assert_eq!(c.client_id(), ClientId(1));
        assert_eq!(c.home_server(), ServerId::new(0u16, 0u32));
        assert!(!c.is_aborted());
        assert_eq!(c.ops_issued(), 0);
    }

    #[test]
    fn requests_carry_the_right_vectors() {
        let mut c = client();
        c.process_reply(&ClientReply::Get(get_response(10, 1, &[5, 0, 0])))
            .unwrap();
        // RDV contains only the *dependencies* of the read item; DV also contains the item.
        match c.get(Key(1)) {
            ClientRequest::Get { rdv, .. } => assert_eq!(rdv, dv(&[5, 0, 0])),
            _ => unreachable!(),
        }
        match c.put(Key(1), Value::from("x")) {
            ClientRequest::Put { dv: d, .. } => assert_eq!(d, dv(&[5, 10, 0])),
            _ => unreachable!(),
        }
        match c.ro_tx(vec![Key(1), Key(2)]) {
            ClientRequest::RoTx { rdv, keys } => {
                // RO-TX requests carry the full dependency vector (see `ro_tx`).
                assert_eq!(rdv, dv(&[5, 10, 0]));
                assert_eq!(keys.len(), 2);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn get_reply_updates_rdv_with_deps_and_dv_with_item() {
        let mut c = client();
        c.process_reply(&ClientReply::Get(get_response(20, 2, &[7, 3, 0])))
            .unwrap();
        assert_eq!(c.read_dependency_vector(), &dv(&[7, 3, 0]));
        assert_eq!(c.dependency_vector(), &dv(&[7, 3, 20]));
        assert_eq!(c.ops_issued(), 1);
    }

    #[test]
    fn reading_a_missing_key_establishes_no_dependency() {
        let mut c = client();
        let resp = GetResponse {
            value: None,
            update_time: Timestamp::ZERO,
            deps: dv(&[0, 0, 0]),
            source_replica: ReplicaId(0),
        };
        c.process_reply(&ClientReply::Get(resp)).unwrap();
        assert_eq!(c.dependency_vector(), &dv(&[0, 0, 0]));
        assert_eq!(c.read_dependency_vector(), &dv(&[0, 0, 0]));
    }

    #[test]
    fn put_reply_updates_local_entry_of_dv_only() {
        let mut c = client();
        c.process_reply(&ClientReply::Put {
            update_time: Timestamp(33),
        })
        .unwrap();
        assert_eq!(c.dependency_vector(), &dv(&[33, 0, 0]));
        assert_eq!(c.read_dependency_vector(), &dv(&[0, 0, 0]));
    }

    #[test]
    fn dependencies_accumulate_monotonically() {
        let mut c = client();
        c.process_reply(&ClientReply::Get(get_response(20, 1, &[7, 3, 0])))
            .unwrap();
        c.process_reply(&ClientReply::Get(get_response(5, 0, &[1, 1, 1])))
            .unwrap();
        // Older reads never shrink the vectors.
        assert_eq!(c.read_dependency_vector(), &dv(&[7, 3, 1]));
        assert_eq!(c.dependency_vector(), &dv(&[7, 20, 1]));
    }

    #[test]
    fn rotx_reply_tracks_every_item() {
        let mut c = client();
        let reply = ClientReply::RoTx {
            items: vec![
                TxItem {
                    key: Key(1),
                    response: get_response(10, 0, &[0, 4, 0]),
                },
                TxItem {
                    key: Key(2),
                    response: get_response(30, 2, &[0, 0, 9]),
                },
            ],
        };
        c.process_reply(&reply).unwrap();
        assert_eq!(c.read_dependency_vector(), &dv(&[0, 4, 9]));
        assert_eq!(c.dependency_vector(), &dv(&[10, 4, 30]));
    }

    #[test]
    fn paper_proposition_1_invariant_holds_through_the_client() {
        // If a client reads X and then writes Y, then Y.DV[X.sr] >= X.ut (Proposition 1).
        let mut c = client();
        let x = get_response(42, 1, &[3, 0, 0]);
        c.process_reply(&ClientReply::Get(x.clone())).unwrap();
        match c.put(Key(9), Value::from("y")) {
            ClientRequest::Put { dv: deps, .. } => {
                assert!(deps.get(ReplicaId(1)) >= x.update_time);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn session_abort_marks_the_client_and_reinitialize_clears_state() {
        let mut c = client();
        c.process_reply(&ClientReply::Get(get_response(20, 1, &[7, 3, 0])))
            .unwrap();
        let err = c
            .process_reply(&ClientReply::SessionAborted {
                reason: "partition".into(),
            })
            .unwrap_err();
        assert!(matches!(err, Error::SessionAborted { .. }));
        assert!(c.is_aborted());
        c.reinitialize();
        assert!(!c.is_aborted());
        assert_eq!(c.dependency_vector(), &dv(&[0, 0, 0]));
        assert_eq!(c.read_dependency_vector(), &dv(&[0, 0, 0]));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use pocc_types::{ReplicaId, Timestamp};
    use proptest::prelude::*;

    #[derive(Clone, Debug)]
    enum Step {
        Read { ut: u64, sr: u16, deps: Vec<u64> },
        Write { ut: u64 },
    }

    fn arb_step() -> impl Strategy<Value = Step> {
        prop_oneof![
            (
                1u64..1_000,
                0u16..3,
                proptest::collection::vec(0u64..1_000, 3)
            )
                .prop_map(|(ut, sr, deps)| Step::Read { ut, sr, deps }),
            (1u64..1_000).prop_map(|ut| Step::Write { ut }),
        ]
    }

    proptest! {
        /// The client's vectors only ever grow, and DV always dominates RDV restricted to
        /// read-established dependencies.
        #[test]
        fn prop_client_vectors_grow_monotonically(steps in proptest::collection::vec(arb_step(), 0..50)) {
            let mut c = Client::new(ClientId(7), ServerId::new(1u16, 0u32), 3);
            let mut prev_dv = c.dependency_vector().clone();
            let mut prev_rdv = c.read_dependency_vector().clone();
            for step in steps {
                match step {
                    Step::Read { ut, sr, deps } => {
                        let resp = GetResponse {
                            value: Some(Value::from(ut)),
                            update_time: Timestamp(ut),
                            deps: DependencyVector::from_entries(
                                deps.into_iter().map(Timestamp).collect()),
                            source_replica: ReplicaId(sr),
                        };
                        c.process_reply(&ClientReply::Get(resp)).unwrap();
                    }
                    Step::Write { ut } => {
                        c.process_reply(&ClientReply::Put { update_time: Timestamp(ut) }).unwrap();
                    }
                }
                prop_assert!(c.dependency_vector().dominates(&prev_dv));
                prop_assert!(c.read_dependency_vector().dominates(&prev_rdv));
                prop_assert!(c.dependency_vector().dominates(c.read_dependency_vector()));
                prev_dv = c.dependency_vector().clone();
                prev_rdv = c.read_dependency_vector().clone();
            }
        }
    }
}
