//! Identifiers for the entities of a geo-replicated deployment.
//!
//! The paper's system model (§II-C) splits the data set into `N` partitions, each
//! replicated at `M` data centers. A *server* is one replica of one partition and is
//! therefore addressed by the pair `(replica, partition)` — the paper writes it `p^m_n`.

use std::fmt;

/// Identifier of a data center (a *replica* in the paper's terminology).
///
/// The paper's evaluation uses `M = 3` data centers (Oregon, Virginia, Ireland); the
/// protocol supports any number. Replica ids are dense indices `0..M`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ReplicaId(pub u16);

impl ReplicaId {
    /// Returns the dense index of this replica, usable to index per-replica arrays
    /// such as [`crate::VersionVector`] entries.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u16> for ReplicaId {
    fn from(v: u16) -> Self {
        ReplicaId(v)
    }
}

impl From<usize> for ReplicaId {
    fn from(v: usize) -> Self {
        ReplicaId(v as u16)
    }
}

impl fmt::Display for ReplicaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dc{}", self.0)
    }
}

/// Identifier of a data partition (a shard of the key space).
///
/// Every key is deterministically assigned to a single partition by a hash function
/// (see `pocc_storage::partition_for_key`). Partition ids are dense indices `0..N`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PartitionId(pub u32);

impl PartitionId {
    /// Returns the dense index of this partition.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for PartitionId {
    fn from(v: u32) -> Self {
        PartitionId(v)
    }
}

impl From<usize> for PartitionId {
    fn from(v: usize) -> Self {
        PartitionId(v as u32)
    }
}

impl fmt::Display for PartitionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Identifier of a server: one replica of one partition (`p^m_n` in the paper,
/// where `m` is the data center and `n` the partition).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ServerId {
    /// The data center hosting this server.
    pub replica: ReplicaId,
    /// The partition this server is responsible for.
    pub partition: PartitionId,
}

impl ServerId {
    /// Creates a server id from a replica (data center) and a partition.
    pub fn new(replica: impl Into<ReplicaId>, partition: impl Into<PartitionId>) -> Self {
        ServerId {
            replica: replica.into(),
            partition: partition.into(),
        }
    }

    /// The server holding the same partition in another data center (a *sibling replica*).
    pub fn sibling(self, replica: impl Into<ReplicaId>) -> ServerId {
        ServerId {
            replica: replica.into(),
            partition: self.partition,
        }
    }

    /// The server holding another partition in the same data center (a *local peer*).
    pub fn local_peer(self, partition: impl Into<PartitionId>) -> ServerId {
        ServerId {
            replica: self.replica,
            partition: partition.into(),
        }
    }
}

impl fmt::Display for ServerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.replica, self.partition)
    }
}

/// Identifier of a client session.
///
/// Clients connect to a node in their closest data center and issue operations in a
/// closed loop (§II-C). A client id is unique across the whole deployment.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ClientId(pub u64);

impl ClientId {
    /// Returns the raw numeric id.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl From<u64> for ClientId {
    fn from(v: u64) -> Self {
        ClientId(v)
    }
}

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replica_id_index_round_trips() {
        let r = ReplicaId::from(7usize);
        assert_eq!(r.index(), 7);
        assert_eq!(ReplicaId::from(7u16), r);
    }

    #[test]
    fn partition_id_index_round_trips() {
        let p = PartitionId::from(31usize);
        assert_eq!(p.index(), 31);
        assert_eq!(PartitionId::from(31u32), p);
    }

    #[test]
    fn server_id_sibling_keeps_partition() {
        let s = ServerId::new(0u16, 5u32);
        let sib = s.sibling(2u16);
        assert_eq!(sib.partition, s.partition);
        assert_eq!(sib.replica, ReplicaId(2));
    }

    #[test]
    fn server_id_local_peer_keeps_replica() {
        let s = ServerId::new(1u16, 5u32);
        let peer = s.local_peer(9u32);
        assert_eq!(peer.replica, s.replica);
        assert_eq!(peer.partition, PartitionId(9));
    }

    #[test]
    fn display_formats_are_compact() {
        assert_eq!(ReplicaId(2).to_string(), "dc2");
        assert_eq!(PartitionId(14).to_string(), "p14");
        assert_eq!(ServerId::new(2u16, 14u32).to_string(), "dc2/p14");
        assert_eq!(ClientId(3).to_string(), "c3");
    }

    #[test]
    fn ids_order_by_numeric_value() {
        assert!(ReplicaId(1) < ReplicaId(2));
        assert!(PartitionId(1) < PartitionId(10));
        assert!(ClientId(1) < ClientId(2));
    }

    #[test]
    fn server_id_orders_by_replica_then_partition() {
        let a = ServerId::new(0u16, 9u32);
        let b = ServerId::new(1u16, 0u32);
        assert!(a < b);
    }
}
