//! Bookkeeping for parked (blocked) operations.
//!
//! The optimism of POCC means a server can receive a request whose causal dependencies it
//! has not installed yet. Instead of returning stale data (the pessimistic choice) the
//! server *parks* the request and serves it as soon as the missing replication traffic or
//! heartbeat arrives (§III-A, "client-assisted lazy dependency resolution").
//!
//! This module holds the internal representation of parked operations.

use pocc_proto::TxId;
use pocc_types::{ClientId, DependencyVector, Key, ServerId, Timestamp, Value};

/// Why an operation is parked, as the partition-timeout abort message names it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum BlockReason {
    /// A GET is waiting for the server's version vector to cover the client's read
    /// dependency vector (Algorithm 2 line 2).
    MissingReadDependency,
    /// A PUT is waiting for the server's version vector to cover the client's dependency
    /// vector (Algorithm 2 line 6, optional but enabled in the paper's evaluation).
    MissingWriteDependency,
    /// A transactional slice read is waiting for the server's version vector to reach the
    /// transaction snapshot vector (Algorithm 2 line 40).
    SnapshotNotInstalled,
}

impl std::fmt::Display for BlockReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            BlockReason::MissingReadDependency => "missing read dependency",
            BlockReason::MissingWriteDependency => "missing write dependency",
            BlockReason::SnapshotNotInstalled => "transaction snapshot not installed",
        };
        f.write_str(s)
    }
}

/// How a parked GET is served once its wait condition holds.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReadMode {
    /// Return the freshest version of the key (POCC, Algorithm 2 lines 3–4).
    Latest,
    /// Return the freshest version within the GSS extended by the client's session
    /// history (the Cure\* read path).
    Stable,
    /// Like [`ReadMode::Stable`] but counted as the Adaptive protocol's stable fall-back.
    StableBounded,
}

/// The internal representation of a parked operation.
#[derive(Clone, Debug)]
pub(crate) enum Parked {
    /// A GET waiting for the client's read dependencies.
    Get {
        client: ClientId,
        key: Key,
        rdv: DependencyVector,
        mode: ReadMode,
        since: Timestamp,
    },
    /// A PUT waiting for the client's dependencies.
    Put {
        client: ClientId,
        key: Key,
        value: Value,
        dv: DependencyVector,
        since: Timestamp,
    },
    /// A transactional slice read waiting for the snapshot to be installed locally.
    /// `origin` is the coordinating server, or `None` when this server coordinates the
    /// transaction itself (a "self slice").
    Slice {
        origin: Option<ServerId>,
        tx: TxId,
        client: ClientId,
        keys: Vec<Key>,
        snapshot: DependencyVector,
        since: Timestamp,
    },
}

impl Parked {
    /// The time the operation was parked.
    pub(crate) fn since(&self) -> Timestamp {
        match self {
            Parked::Get { since, .. } | Parked::Put { since, .. } | Parked::Slice { since, .. } => {
                *since
            }
        }
    }

    /// The client on whose behalf the operation runs.
    pub(crate) fn client(&self) -> ClientId {
        match self {
            Parked::Get { client, .. }
            | Parked::Put { client, .. }
            | Parked::Slice { client, .. } => *client,
        }
    }

    /// Why the operation is parked.
    pub(crate) fn reason(&self) -> BlockReason {
        match self {
            Parked::Get { .. } => BlockReason::MissingReadDependency,
            Parked::Put { .. } => BlockReason::MissingWriteDependency,
            Parked::Slice { .. } => BlockReason::SnapshotNotInstalled,
        }
    }

    /// Whether the operation directly blocks a client request (as opposed to an internal
    /// slice read on behalf of a remote coordinator).
    pub(crate) fn is_client_facing(&self) -> bool {
        !matches!(
            self,
            Parked::Slice {
                origin: Some(_),
                ..
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn views_report_reason_client_and_since() {
        let get = Parked::Get {
            client: ClientId(1),
            key: Key(2),
            rdv: DependencyVector::zero(3),
            mode: ReadMode::Latest,
            since: Timestamp(10),
        };
        let put = Parked::Put {
            client: ClientId(2),
            key: Key(2),
            value: Value::from("x"),
            dv: DependencyVector::zero(3),
            since: Timestamp(20),
        };
        let slice = Parked::Slice {
            origin: Some(ServerId::new(0u16, 1u32)),
            tx: TxId(1),
            client: ClientId(3),
            keys: vec![Key(1)],
            snapshot: DependencyVector::zero(3),
            since: Timestamp(30),
        };
        assert_eq!(get.reason(), BlockReason::MissingReadDependency);
        assert_eq!(get.client(), ClientId(1));
        assert_eq!(get.since(), Timestamp(10));
        assert_eq!(put.reason(), BlockReason::MissingWriteDependency);
        assert_eq!(slice.reason(), BlockReason::SnapshotNotInstalled);
        assert_eq!(slice.since(), Timestamp(30));
        assert_eq!(slice.client(), ClientId(3));
    }

    #[test]
    fn client_facing_classification() {
        let self_slice = Parked::Slice {
            origin: None,
            tx: TxId(1),
            client: ClientId(3),
            keys: vec![],
            snapshot: DependencyVector::zero(1),
            since: Timestamp(0),
        };
        let remote_slice = Parked::Slice {
            origin: Some(ServerId::new(0u16, 1u32)),
            tx: TxId(1),
            client: ClientId(3),
            keys: vec![],
            snapshot: DependencyVector::zero(1),
            since: Timestamp(0),
        };
        let get = Parked::Get {
            client: ClientId(1),
            key: Key(2),
            rdv: DependencyVector::zero(1),
            mode: ReadMode::Latest,
            since: Timestamp(0),
        };
        assert!(self_slice.is_client_facing());
        assert!(!remote_slice.is_client_facing());
        assert!(get.is_client_facing());
    }

    #[test]
    fn block_reasons_render_human_readable() {
        assert_eq!(
            BlockReason::MissingReadDependency.to_string(),
            "missing read dependency"
        );
        assert_eq!(
            BlockReason::MissingWriteDependency.to_string(),
            "missing write dependency"
        );
        assert_eq!(
            BlockReason::SnapshotNotInstalled.to_string(),
            "transaction snapshot not installed"
        );
    }
}
