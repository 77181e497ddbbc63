//! The per-server partition store: version chains split across key-hashed shards.

use crate::chain::LookupOutcome;
use crate::shard::StoreShard;
use crate::{partition_for_key, shard_for_key};
use parking_lot::RwLock;
use pocc_types::{
    DependencyVector, Error, Key, PartitionId, ReplicaId, Result, Timestamp, Version,
};

/// Statistics of a [`ShardedStore`], or of one of its shards.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Number of distinct keys with at least one version.
    pub keys: usize,
    /// Total number of versions retained across all chains.
    pub versions: usize,
    /// Length of the longest version chain.
    pub max_chain_len: usize,
    /// Total number of versions removed by garbage collection since the store was created.
    pub gc_removed: usize,
    /// Approximate bytes of live version data (wire-size sum of retained versions).
    pub live_bytes: usize,
}

impl StoreStats {
    /// Accumulates another aggregate into this one (counts sum; chain length maxes).
    /// The single source of truth for combining store statistics: across a store's
    /// shards, across servers, and shard by shard across servers.
    pub fn merge(&mut self, other: &StoreStats) {
        self.keys += other.keys;
        self.versions += other.versions;
        self.max_chain_len = self.max_chain_len.max(other.max_chain_len);
        self.gc_removed += other.gc_removed;
        self.live_bytes += other.live_bytes;
    }
}

/// The storage of one server `p^m_n`: the version chains of every key owned by partition
/// `n`, as seen by the replica in data center `m`, split across `S` key-hashed shards.
///
/// Sharding is an intra-partition scalability measure: each shard owns a disjoint slice
/// of the partition's keys with its own chains, statistics and GC watermark, keeping
/// per-shard hash maps small. Shard routing ([`shard_for_key`]) is deterministic, so a
/// store with `S = 1` answers every query like one with `S > 1` — the equivalence tests
/// in `tests/` of this crate pin that down.
///
/// The store validates that inserted keys actually belong to its partition (mis-routed
/// writes are a bug in the routing layer, reported as [`Error::WrongPartition`]).
///
/// Every shard sits behind its own reader-writer lock and every method takes `&self`.
/// Lookups return owned data (cloned versions) rather than references, since references
/// cannot outlive the internal shard locks; version payloads are cheap, refcounted byte
/// buffers, so the clones are shallow.
///
/// Every read and GC pass asks one visibility rule, [`Version::covered_by`]: a snapshot
/// read returns the freshest version its snapshot covers, a stable read the freshest
/// local or GSS-covered one, and GC keeps each chain down to its first covered version.
#[derive(Debug)]
pub struct ShardedStore {
    partition: PartitionId,
    num_partitions: usize,
    shards: Vec<RwLock<StoreShard>>,
}

impl ShardedStore {
    /// Creates an empty single-shard store for `partition` in a deployment of
    /// `num_partitions` partitions.
    pub fn new(partition: PartitionId, num_partitions: usize) -> Self {
        ShardedStore::with_shards(partition, num_partitions, 1)
    }

    /// Creates an empty store with `num_shards` key-hashed shards.
    ///
    /// # Panics
    ///
    /// Panics if `num_shards` is zero.
    pub fn with_shards(partition: PartitionId, num_partitions: usize, num_shards: usize) -> Self {
        assert!(num_shards > 0, "a store has at least one shard");
        ShardedStore {
            partition,
            num_partitions,
            shards: (0..num_shards).map(|_| RwLock::default()).collect(),
        }
    }

    /// The lock guarding the shard that owns `key`.
    fn shard(&self, key: Key) -> &RwLock<StoreShard> {
        &self.shards[shard_for_key(key, self.shards.len())]
    }

    /// Checks that `key` is owned by this partition.
    fn check_ownership(&self, key: Key) -> Result<()> {
        let owner = partition_for_key(key, self.num_partitions);
        if owner == self.partition {
            Ok(())
        } else {
            Err(Error::WrongPartition {
                key,
                expected: owner,
                actual: self.partition,
            })
        }
    }

    /// Inserts a version (a local PUT or a replicated update). Returns an error if the key
    /// is not owned by this partition.
    pub fn insert(&self, version: Version) -> Result<()> {
        self.check_ownership(version.key)?;
        self.shard(version.key).write().insert(version);
        Ok(())
    }

    /// The freshest version of `key`, regardless of stability (POCC GET, Algorithm 2
    /// line 3). Returns `None` for a key that has never been written.
    pub fn latest(&self, key: Key) -> Option<Version> {
        self.shard(key).read().latest(key).cloned()
    }

    /// The freshest version of `key` covered by snapshot `tv` (RO-TX slice read,
    /// Algorithm 2 lines 43–44).
    pub fn latest_in_snapshot(&self, key: Key, tv: &DependencyVector) -> LookupOutcome {
        self.shard(key).read().lookup(key, |v| v.covered_by(tv))
    }

    /// The freshest version of `key` visible under Cure's pessimistic rule: local versions
    /// are always visible, remote versions only when covered by the GSS.
    pub fn latest_stable(
        &self,
        key: Key,
        gss: &DependencyVector,
        local: ReplicaId,
    ) -> LookupOutcome {
        self.shard(key).read().lookup(key, stable(gss, local))
    }

    /// Whether the chain of `key` contains at least one version that is **not** stable
    /// under `gss` (the paper's "unmerged item" definition, §V-B: some version of the item
    /// is not stable yet, regardless of which version is returned).
    pub fn has_unmerged_versions(
        &self,
        key: Key,
        gss: &DependencyVector,
        local: ReplicaId,
    ) -> bool {
        self.unmerged_count(key, gss, local) > 0
    }

    /// Number of versions of `key` that are not stable under `gss`.
    pub fn unmerged_count(&self, key: Key, gss: &DependencyVector, local: ReplicaId) -> usize {
        self.shard(key)
            .read()
            .count_invisible(key, stable(gss, local))
    }

    /// Whether a `None` result of [`latest_in_snapshot`](Self::latest_in_snapshot) for
    /// `key` under snapshot `tv` could be an artifact of garbage collection rather than
    /// the key's true state at `tv` ("snapshot too old").
    ///
    /// Garbage collection never empties a chain and only removes versions *older* than
    /// the newest version covered by the GC vector, so any version a lookup does return
    /// is still the correct freshest-in-snapshot answer. The one result GC can falsify
    /// is an empty one: the version `tv` needs may have been collected. That is possible
    /// only when the key has a chain, the owning shard has collected garbage, and `tv`
    /// does not cover the shard's GC watermark.
    pub fn snapshot_may_predate_gc(&self, key: Key, tv: &DependencyVector) -> bool {
        let shard = self.shard(key).read();
        match shard.watermark() {
            Some(w) => !tv.dominates(w) && shard.has_key(key),
            None => false,
        }
    }

    /// Runs garbage collection with vector `gv` over every shard (§IV-B), advancing each
    /// shard's watermark. Returns the number of versions removed in this pass.
    pub fn collect_garbage(&self, gv: &DependencyVector) -> usize {
        self.shards
            .iter()
            .map(|shard| shard.write().collect_garbage(gv))
            .sum()
    }

    /// Aggregate statistics of the store, summed over all shards.
    pub fn stats(&self) -> StoreStats {
        let mut stats = StoreStats::default();
        for shard in &self.shards {
            stats.merge(&shard.read().stats());
        }
        stats
    }

    /// Per-shard statistics, indexed by shard. Useful to check how evenly the key space
    /// spreads (the ablation bench prints these).
    pub fn shard_stats(&self) -> Vec<StoreStats> {
        self.shards
            .iter()
            .map(|shard| shard.read().stats())
            .collect()
    }

    /// A deterministic digest of the *latest* version of every key: `(key, update time,
    /// source replica)` triples sorted by key. Two replicas of the same partition have
    /// converged exactly when their digests are equal — the convergence tests rely on
    /// this. The digest is independent of the shard count.
    pub fn digest(&self) -> Vec<(Key, Timestamp, ReplicaId)> {
        let mut d: Vec<_> = self
            .shards
            .iter()
            .flat_map(|shard| shard.read().digest_entries().collect::<Vec<_>>())
            .collect();
        d.sort();
        d
    }

    /// A copy of the chain of `key`, newest-first; empty for an unknown key (used by
    /// white-box tests).
    pub fn chain(&self, key: Key) -> Vec<Version> {
        self.shard(key).read().chain(key)
    }
}

/// Cure's stable-read rule: a version is stable at replica `local` when it is local or
/// covered by the Globally Stable Snapshot `gss`.
fn stable(gss: &DependencyVector, local: ReplicaId) -> impl Fn(&Version) -> bool + '_ {
    move |v| v.source_replica == local || v.covered_by(gss)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pocc_types::Value;

    fn dv(entries: &[u64]) -> DependencyVector {
        DependencyVector::from_entries(entries.iter().map(|&d| Timestamp(d)).collect())
    }

    /// A key owned by the given partition in a `num_partitions`-way deployment.
    fn key_in(partition: usize, num_partitions: usize) -> Key {
        (0u64..)
            .map(Key)
            .find(|k| partition_for_key(*k, num_partitions).index() == partition)
            .unwrap()
    }

    fn version(key: Key, ut: u64, sr: u16, deps: &[u64]) -> Version {
        Version::new(key, Value::from(ut), ReplicaId(sr), Timestamp(ut), dv(deps))
    }

    #[test]
    fn insert_and_read_back_latest() {
        let k = key_in(0, 4);
        let store = ShardedStore::new(PartitionId(0), 4);
        store.insert(version(k, 10, 0, &[0, 0, 0])).unwrap();
        store.insert(version(k, 30, 1, &[0, 0, 0])).unwrap();
        assert_eq!(store.latest(k).unwrap().update_time, Timestamp(30));
        assert_eq!(store.latest(Key(u64::MAX)), None);
    }

    #[test]
    fn misrouted_writes_are_rejected() {
        let num = 4;
        let k = key_in(1, num);
        let store = ShardedStore::new(PartitionId(0), num);
        let err = store.insert(version(k, 10, 0, &[0, 0, 0])).unwrap_err();
        match err {
            Error::WrongPartition {
                expected, actual, ..
            } => {
                assert_eq!(expected, PartitionId(1));
                assert_eq!(actual, PartitionId(0));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn snapshot_and_stable_lookups_delegate_to_the_chain() {
        let k = key_in(0, 2);
        let store = ShardedStore::new(PartitionId(0), 2);
        store.insert(version(k, 10, 1, &[0, 0, 0])).unwrap();
        store.insert(version(k, 50, 1, &[0, 40, 0])).unwrap();

        let snap = store.latest_in_snapshot(k, &dv(&[100, 20, 100]));
        assert_eq!(snap.version.unwrap().update_time, Timestamp(10));

        let stable = store.latest_stable(k, &dv(&[0, 10, 0]), ReplicaId(0));
        assert_eq!(stable.version.clone().unwrap().update_time, Timestamp(10));
        assert!(stable.is_old());

        // Unknown keys return empty outcomes rather than panicking.
        assert!(store
            .latest_in_snapshot(Key(u64::MAX), &dv(&[0, 0, 0]))
            .version
            .is_none());
    }

    #[test]
    fn unmerged_accounting_matches_definition() {
        let k = key_in(0, 2);
        let store = ShardedStore::new(PartitionId(0), 2);
        store.insert(version(k, 10, 1, &[0, 0, 0])).unwrap();
        store.insert(version(k, 50, 1, &[0, 40, 0])).unwrap();
        let gss = dv(&[0, 10, 0]);
        assert!(store.has_unmerged_versions(k, &gss, ReplicaId(0)));
        assert_eq!(store.unmerged_count(k, &gss, ReplicaId(0)), 1);
        let gss_all = dv(&[100, 100, 100]);
        assert!(!store.has_unmerged_versions(k, &gss_all, ReplicaId(0)));
        assert!(!store.has_unmerged_versions(Key(u64::MAX), &gss, ReplicaId(0)));
    }

    #[test]
    fn garbage_collection_updates_stats() {
        let k = key_in(0, 2);
        let store = ShardedStore::new(PartitionId(0), 2);
        for i in 1..=5u64 {
            store
                .insert(version(k, i * 10, 0, &[(i - 1) * 10, 0, 0]))
                .unwrap();
        }
        assert_eq!(store.stats().versions, 5);
        let removed = store.collect_garbage(&dv(&[35, 0, 0]));
        assert_eq!(removed, 2);
        let stats = store.stats();
        assert_eq!(stats.versions, 3);
        assert_eq!(stats.gc_removed, 2);
        assert_eq!(stats.keys, 1);
        assert_eq!(stats.max_chain_len, 3);
    }

    #[test]
    fn digest_identifies_convergence() {
        let num = 2;
        let k1 = key_in(0, num);
        let k2 = (k1.raw() + 1..)
            .map(Key)
            .find(|k| partition_for_key(*k, num).index() == 0)
            .unwrap();

        let a = ShardedStore::new(PartitionId(0), num);
        let b = ShardedStore::new(PartitionId(0), num);
        for store in [&a, &b] {
            store.insert(version(k1, 10, 0, &[0, 0, 0])).unwrap();
            store.insert(version(k2, 20, 1, &[0, 0, 0])).unwrap();
        }
        assert_eq!(a.digest(), b.digest());

        // Diverge b.
        b.insert(version(k1, 30, 1, &[0, 0, 0])).unwrap();
        assert_ne!(a.digest(), b.digest());

        // Converge again by applying the same update to a (different arrival order).
        a.insert(version(k1, 30, 1, &[0, 0, 0])).unwrap();
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.stats().keys, 2);
    }

    #[test]
    fn chain_accessor_exposes_raw_chain() {
        let k = key_in(0, 2);
        let store = ShardedStore::new(PartitionId(0), 2);
        store.insert(version(k, 10, 0, &[0, 0, 0])).unwrap();
        assert_eq!(store.chain(k).len(), 1);
        assert!(store.chain(Key(u64::MAX)).is_empty());
    }

    #[test]
    fn sharded_store_spreads_keys_and_aggregates_stats() {
        let num_partitions = 1;
        let store = ShardedStore::with_shards(PartitionId(0), num_partitions, 4);
        for k in 0..256u64 {
            store.insert(version(Key(k), 10, 0, &[0, 0, 0])).unwrap();
        }
        let stats = store.stats();
        assert_eq!(stats.keys, 256);
        assert_eq!(stats.versions, 256);

        let per_shard = store.shard_stats();
        assert_eq!(per_shard.len(), 4);
        assert_eq!(per_shard.iter().map(|s| s.keys).sum::<usize>(), 256);
        // Key-hashed routing spreads a dense key space across every shard.
        assert!(per_shard.iter().all(|s| s.keys > 0));
    }

    #[test]
    fn digest_is_shard_count_independent() {
        let one = ShardedStore::new(PartitionId(0), 1);
        let eight = ShardedStore::with_shards(PartitionId(0), 1, 8);
        for k in 0..64u64 {
            let v = version(Key(k), 10 + k, (k % 3) as u16, &[0, 0, 0]);
            one.insert(v.clone()).unwrap();
            eight.insert(v).unwrap();
        }
        assert_eq!(one.digest(), eight.digest());
        assert_eq!(one.stats(), eight.stats());
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_is_a_programming_error() {
        let _ = ShardedStore::with_shards(PartitionId(0), 1, 0);
    }
}
