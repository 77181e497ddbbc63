//! Request, reply and server-to-server message types.

use pocc_types::{
    ClientId, DependencyVector, Key, ReplicaId, Timestamp, Value, Version, VersionVector,
};

/// Identifier of a read-only transaction, unique per coordinating server.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct TxId(pub u64);

impl TxId {
    /// The next transaction id.
    pub fn next(self) -> TxId {
        TxId(self.0 + 1)
    }
}

impl std::fmt::Display for TxId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tx{}", self.0)
    }
}

/// An operation issued by a client to the server it has a session with.
///
/// These correspond to the three operations of the paper's API (§II-C) carrying the
/// client-side dependency metadata of Algorithm 1: a GET and a RO-TX carry the read
/// dependency vector `RDV_c`, a PUT carries the full dependency vector `DV_c`.
#[derive(Clone, PartialEq, Debug)]
pub enum ClientRequest {
    /// `GET(key)` with the client's read vector.
    Get {
        /// The key to read.
        key: Key,
        /// The client's read vector: `RDV_c` for chain-head-serving protocols
        /// (Algorithm 1 line 2), the full `DV_c` for snapshot-serving protocols (both
        /// have one entry per data center, so the wire size is identical).
        rdv: DependencyVector,
    },
    /// `PUT(key, value)` with the client's dependency vector.
    Put {
        /// The key to write.
        key: Key,
        /// The value to associate with `key`.
        value: Value,
        /// The client's dependency vector `DV_c`, stored with the created version.
        dv: DependencyVector,
    },
    /// `RO-TX(keys)` with the client's read dependency vector.
    RoTx {
        /// The keys to read in a single causally consistent snapshot.
        keys: Vec<Key>,
        /// The client's read dependency vector `RDV_c`.
        rdv: DependencyVector,
    },
}

impl ClientRequest {
    /// Whether this request is an update (PUT).
    pub fn is_update(&self) -> bool {
        matches!(self, ClientRequest::Put { .. })
    }

    /// Approximate wire size of the request in bytes (key/value payloads plus metadata).
    pub fn wire_size(&self) -> usize {
        match self {
            ClientRequest::Get { rdv, .. } => 1 + 8 + rdv.wire_size(),
            ClientRequest::Put { value, dv, .. } => 1 + 8 + value.len() + dv.wire_size(),
            ClientRequest::RoTx { keys, rdv } => 1 + 4 + keys.len() * 8 + rdv.wire_size(),
        }
    }
}

/// The payload of a GET reply: `⟨value, update time, dependency vector, source replica⟩`
/// (Algorithm 1 line 3). `None` value means the key has never been written.
#[derive(Clone, PartialEq, Debug)]
pub struct GetResponse {
    /// The value read, or `None` if no version of the key exists.
    pub value: Option<Value>,
    /// Update time of the returned version (zero when no version exists).
    pub update_time: Timestamp,
    /// Dependency vector of the returned version (all-zero when no version exists).
    pub deps: DependencyVector,
    /// Source replica of the returned version (the serving replica when none exists).
    pub source_replica: ReplicaId,
}

/// One item returned by a read-only transaction.
#[derive(Clone, PartialEq, Debug)]
pub struct TxItem {
    /// The key that was read.
    pub key: Key,
    /// The read result, to be folded into the client's dependency state exactly as a GET
    /// result would be (Algorithm 1 lines 17–19).
    pub response: GetResponse,
}

/// A reply sent by a server to a client.
#[derive(Clone, PartialEq, Debug)]
pub enum ClientReply {
    /// Reply to a [`ClientRequest::Get`].
    Get(GetResponse),
    /// Reply to a [`ClientRequest::Put`]: the update time assigned to the new version.
    Put {
        /// Update time of the newly created version.
        update_time: Timestamp,
    },
    /// Reply to a [`ClientRequest::RoTx`].
    RoTx {
        /// One entry per requested key, in no particular order.
        items: Vec<TxItem>,
    },
    /// The server closed the session because a blocked request exceeded the partition
    /// detection timeout (§III-B). The client must re-initialise its session.
    SessionAborted {
        /// Human-readable reason.
        reason: String,
    },
}

impl ClientReply {
    /// Approximate wire size of the reply in bytes.
    pub fn wire_size(&self) -> usize {
        match self {
            ClientReply::Get(g) => {
                1 + g.value.as_ref().map_or(0, |v| v.len()) + 8 + g.deps.wire_size() + 2
            }
            ClientReply::Put { .. } => 1 + 8,
            ClientReply::RoTx { items } => {
                1 + items
                    .iter()
                    .map(|i| {
                        8 + i.response.value.as_ref().map_or(0, |v| v.len())
                            + 8
                            + i.response.deps.wire_size()
                            + 2
                    })
                    .sum::<usize>()
            }
            ClientReply::SessionAborted { reason } => 1 + reason.len(),
        }
    }
}

/// A message exchanged between servers.
#[derive(Clone, PartialEq, Debug)]
pub enum ServerMessage {
    /// Asynchronous replication of a local update to a sibling replica of the same
    /// partition in another data center (Algorithm 2 lines 12–13). Sent in update-timestamp
    /// order.
    Replicate {
        /// The replicated version.
        version: Version,
    },
    /// Heartbeat carrying the sender's current clock, sent when the sender has not created
    /// a local update for the heartbeat interval `∆` (Algorithm 2 lines 19–26). Sent in
    /// clock order, interleaved consistently with replication messages.
    Heartbeat {
        /// The sender's clock value when the heartbeat was emitted.
        clock: Timestamp,
    },
    /// A transaction coordinator asking a local partition to read `keys` within snapshot
    /// `snapshot` (Algorithm 2 line 34, `SliceREQ`).
    SliceRequest {
        /// Coordinator-local transaction id, echoed in the response.
        tx: TxId,
        /// The client on whose behalf the transaction runs (for metrics and diagnostics).
        client: ClientId,
        /// The keys of this slice (all owned by the destination partition).
        keys: Vec<Key>,
        /// The transaction snapshot vector `TV`.
        snapshot: DependencyVector,
    },
    /// The reply to a [`ServerMessage::SliceRequest`] (Algorithm 2 line 47, `SliceRESP`).
    SliceResponse {
        /// The transaction id from the request.
        tx: TxId,
        /// One entry per requested key.
        items: Vec<TxItem>,
    },
    /// A participant telling the coordinator that a slice cannot be answered exactly: the
    /// transaction snapshot precedes versions the participant has already garbage
    /// collected ("snapshot too old"). The coordinator aborts the transaction and closes
    /// the client session rather than returning a read the snapshot cannot justify.
    SliceAbort {
        /// The transaction id from the request.
        tx: TxId,
    },
    /// Intra-DC exchange of version vectors used by Cure's stabilization protocol (GSS
    /// computation) and, infrequently, by HA-POCC.
    StabilizationVector {
        /// The sender's current version vector.
        vv: VersionVector,
    },
    /// Intra-DC exchange of the aggregate snapshot vectors used by the garbage-collection
    /// protocol (§IV-B): each server contributes the minimum snapshot vector of its active
    /// transactions (or its version vector when it has none).
    GcVector {
        /// The sender's contribution to the garbage-collection vector.
        vector: DependencyVector,
    },
    /// A per-destination batch of coalesced messages, sent when
    /// `Config::replication_batching` is enabled: instead of one message per write, a
    /// server buffers its replication and GC traffic and ships one `Batch` per peer per
    /// tick. Batches are flat — a `Batch` never contains another `Batch` — and preserve
    /// the order the batched messages were produced in, so the FIFO timestamp-order
    /// guarantee of the replication channel carries over.
    Batch {
        /// The coalesced messages, in send order.
        messages: Vec<ServerMessage>,
    },
}

impl ServerMessage {
    /// Wire overhead of a [`ServerMessage::Batch`] envelope: the tag byte plus the
    /// 4-byte member count (must match the codec's batch encoding).
    pub const BATCH_ENVELOPE_SIZE: usize = 1 + 4;

    /// Approximate wire size of the message in bytes.
    pub fn wire_size(&self) -> usize {
        match self {
            ServerMessage::Replicate { version } => 1 + version.wire_size(),
            ServerMessage::Heartbeat { .. } => 1 + 8,
            ServerMessage::SliceRequest { keys, snapshot, .. } => {
                1 + 8 + 8 + 4 + keys.len() * 8 + snapshot.wire_size()
            }
            ServerMessage::SliceResponse { items, .. } => {
                1 + 8
                    + items
                        .iter()
                        .map(|i| {
                            8 + i.response.value.as_ref().map_or(0, |v| v.len())
                                + 8
                                + i.response.deps.wire_size()
                                + 2
                        })
                        .sum::<usize>()
            }
            ServerMessage::SliceAbort { .. } => 1 + 8,
            ServerMessage::StabilizationVector { vv } => 1 + vv.wire_size(),
            ServerMessage::GcVector { vector } => 1 + vector.wire_size(),
            ServerMessage::Batch { messages } => {
                Self::BATCH_ENVELOPE_SIZE
                    + messages.iter().map(ServerMessage::wire_size).sum::<usize>()
            }
        }
    }

    /// Whether this message advances the receiver's version vector (replication and
    /// heartbeats do; coordination messages do not; a batch does if any batched message
    /// does).
    pub fn advances_version_vector(&self) -> bool {
        match self {
            ServerMessage::Replicate { .. } | ServerMessage::Heartbeat { .. } => true,
            ServerMessage::Batch { messages } => {
                messages.iter().any(ServerMessage::advances_version_vector)
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dv(n: usize) -> DependencyVector {
        DependencyVector::zero(n)
    }

    #[test]
    fn tx_id_increments() {
        assert_eq!(TxId(0).next(), TxId(1));
        assert_eq!(TxId(41).next().to_string(), "tx42");
    }

    #[test]
    fn request_classification() {
        let get = ClientRequest::Get {
            key: Key(1),
            rdv: dv(3),
        };
        let put = ClientRequest::Put {
            key: Key(1),
            value: Value::from("v"),
            dv: dv(3),
        };
        assert!(!get.is_update());
        assert!(put.is_update());
    }

    #[test]
    fn request_wire_sizes_scale_with_metadata() {
        let get3 = ClientRequest::Get {
            key: Key(1),
            rdv: dv(3),
        };
        let get5 = ClientRequest::Get {
            key: Key(1),
            rdv: dv(5),
        };
        // The only difference is two extra vector entries (8 bytes each).
        assert_eq!(get5.wire_size() - get3.wire_size(), 16);

        let tx = ClientRequest::RoTx {
            keys: vec![Key(1), Key(2)],
            rdv: dv(3),
        };
        assert_eq!(tx.wire_size(), 1 + 4 + 16 + 24);
    }

    #[test]
    fn reply_wire_sizes_account_for_items() {
        let item = TxItem {
            key: Key(1),
            response: GetResponse {
                value: Some(Value::from("12345678")),
                update_time: Timestamp(1),
                deps: dv(3),
                source_replica: ReplicaId(0),
            },
        };
        let one = ClientReply::RoTx {
            items: vec![item.clone()],
        };
        let two = ClientReply::RoTx {
            items: vec![item.clone(), item],
        };
        assert_eq!(two.wire_size() - one.wire_size(), 8 + 8 + 8 + 24 + 2);
        assert_eq!(
            ClientReply::Put {
                update_time: Timestamp(1)
            }
            .wire_size(),
            9
        );
    }

    #[test]
    fn server_message_classification() {
        let hb = ServerMessage::Heartbeat {
            clock: Timestamp(5),
        };
        let stab = ServerMessage::StabilizationVector {
            vv: VersionVector::zero(3),
        };
        assert!(hb.advances_version_vector());
        assert!(!stab.advances_version_vector());
        assert_eq!(hb.wire_size(), 9);
        assert_eq!(stab.wire_size(), 25);
    }

    #[test]
    fn replicate_wire_size_includes_version_payload() {
        let v = Version::new(
            Key(1),
            Value::from("abcd"),
            ReplicaId(0),
            Timestamp(9),
            dv(3),
        );
        let msg = ServerMessage::Replicate { version: v.clone() };
        assert_eq!(msg.wire_size(), 1 + v.wire_size());
    }

    #[test]
    fn batch_wire_size_and_classification_aggregate_members() {
        let hb = ServerMessage::Heartbeat {
            clock: Timestamp(5),
        };
        let gc = ServerMessage::GcVector { vector: dv(3) };
        let batch = ServerMessage::Batch {
            messages: vec![hb.clone(), gc.clone()],
        };
        assert_eq!(batch.wire_size(), 1 + 4 + hb.wire_size() + gc.wire_size());
        assert!(batch.advances_version_vector(), "contains a heartbeat");
        let gc_only = ServerMessage::Batch { messages: vec![gc] };
        assert!(!gc_only.advances_version_vector());
    }
}
