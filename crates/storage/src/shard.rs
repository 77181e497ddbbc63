//! A single shard of a partition's version storage.
//!
//! A [`crate::ShardedStore`] splits the key space its partition owns into `N` key-hashed
//! shards. Each [`StoreShard`] is an independent unit with its own version chains,
//! statistics and garbage-collection watermark, so shards can be worked on (inserted
//! into, read, collected) without touching — or in future work, without locking — any
//! sibling shard.
//!
//! # Memory layout
//!
//! Version payloads live in a per-shard **slab** ([`VersionSlab`]): one growable slot
//! array with a free list. A per-key chain is then just a newest-first list of `u32`
//! slot indices. Compared with storing `Version` structs directly inside per-key `Vec`s
//! this (a) turns the steady-state insert-after-GC path into free-list reuse with no
//! heap allocation at all, (b) makes the ordered insert shift 4-byte indices instead of
//! full `Version` structs, and (c) concentrates version memory in one allocation per
//! shard instead of one per key. Garbage collection returns slots to the free list, so
//! shard memory stops growing once the workload's live set stabilizes.

use crate::chain::{lookup_newest_first, LookupOutcome, VersionChain};
use pocc_types::{DependencyVector, Key, Timestamp, Version};
use std::collections::HashMap;

/// Statistics of one shard.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Number of distinct keys with at least one version in this shard.
    pub keys: usize,
    /// Total number of versions retained across the shard's chains.
    pub versions: usize,
    /// Length of the longest version chain in this shard.
    pub max_chain_len: usize,
    /// Versions removed by garbage collection from this shard since creation.
    pub gc_removed: usize,
    /// Approximate bytes of live version data (wire-size sum of retained versions).
    pub live_bytes: usize,
}

impl ShardStats {
    /// Accumulates another shard's statistics into this one (counts sum; chain length
    /// maxes). Used to combine the same shard index across servers.
    pub fn merge(&mut self, other: &ShardStats) {
        self.keys += other.keys;
        self.versions += other.versions;
        self.max_chain_len = self.max_chain_len.max(other.max_chain_len);
        self.gc_removed += other.gc_removed;
        self.live_bytes += other.live_bytes;
    }
}

/// Slot storage for the versions of one shard: a growable array of slots with a free
/// list. Indices are stable for the lifetime of the version they hold and are recycled
/// after release, so steady-state insert-after-GC traffic reuses slots instead of
/// growing the heap.
#[derive(Clone, Debug, Default)]
struct VersionSlab {
    slots: Vec<Option<Version>>,
    free: Vec<u32>,
}

impl VersionSlab {
    /// Stores a version, reusing a free slot when one exists.
    fn alloc(&mut self, version: Version) -> u32 {
        match self.free.pop() {
            Some(idx) => {
                self.slots[idx as usize] = Some(version);
                idx
            }
            None => {
                let idx = u32::try_from(self.slots.len())
                    .expect("more than u32::MAX live versions in one shard");
                self.slots.push(Some(version));
                idx
            }
        }
    }

    /// Removes and returns the version in `idx`, putting the slot on the free list.
    fn release(&mut self, idx: u32) -> Version {
        let version = self.slots[idx as usize]
            .take()
            .expect("release of an empty slab slot");
        self.free.push(idx);
        version
    }

    /// The version stored in `idx`.
    #[inline]
    fn get(&self, idx: u32) -> &Version {
        self.slots[idx as usize]
            .as_ref()
            .expect("read of an empty slab slot")
    }
}

/// The newest-first chain of one key, as slot indices into the shard's slab.
#[derive(Clone, Debug, Default)]
struct SlabChain {
    idxs: Vec<u32>,
}

/// One key-hashed shard: slab-backed version chains plus per-shard GC state.
#[derive(Clone, Debug, Default)]
pub struct StoreShard {
    slab: VersionSlab,
    chains: HashMap<Key, SlabChain>,
    gc_removed: usize,
    /// Approximate bytes of live version data, maintained incrementally on insert/GC.
    live_bytes: usize,
    /// The entry-wise maximum of every GC vector applied to this shard — the shard's
    /// garbage-collection watermark. Versions below it (except chain heads) are gone.
    watermark: Option<DependencyVector>,
}

impl StoreShard {
    /// Creates an empty shard.
    pub fn new() -> Self {
        StoreShard::default()
    }

    /// Number of distinct keys stored in this shard.
    pub fn num_keys(&self) -> usize {
        self.chains.len()
    }

    /// Whether any version of `key` is stored in this shard.
    pub fn has_key(&self, key: Key) -> bool {
        self.chains.contains_key(&key)
    }

    /// Inserts a version into the chain of its key, keeping newest-first last-writer-wins
    /// order. Duplicate `(update_time, source replica)` pairs are ignored.
    pub fn insert(&mut self, version: Version) {
        let StoreShard { slab, chains, .. } = self;
        let chain = chains.entry(version.key).or_default();
        let pos = chain
            .idxs
            .partition_point(|&i| slab.get(i).wins_over(&version));
        if let Some(&at) = chain.idxs.get(pos) {
            let existing = slab.get(at);
            if existing.update_time == version.update_time
                && existing.source_replica == version.source_replica
            {
                return;
            }
        }
        self.live_bytes += version.wire_size();
        let idx = slab.alloc(version);
        chain.idxs.insert(pos, idx);
    }

    /// Iterates the versions of one chain newest-first.
    fn chain_versions<'a>(
        &'a self,
        chain: &'a SlabChain,
    ) -> impl Iterator<Item = &'a Version> + 'a {
        chain.idxs.iter().map(move |&i| self.slab.get(i))
    }

    /// A materialized clone of the chain of `key`, if any version of it exists.
    /// This copies the chain's versions; it is a white-box inspection helper, not a
    /// hot-path read (the lookups below read the slab in place).
    pub fn chain(&self, key: Key) -> Option<VersionChain> {
        self.chains
            .get(&key)
            .map(|c| VersionChain::from_sorted(self.chain_versions(c).cloned().collect::<Vec<_>>()))
    }

    /// The freshest version of `key`, regardless of stability.
    pub fn latest(&self, key: Key) -> Option<&Version> {
        self.chains
            .get(&key)
            .and_then(|c| c.idxs.first())
            .map(|&i| self.slab.get(i))
    }

    /// The freshest version of `key` within snapshot `tv`.
    pub fn latest_in_snapshot(&self, key: Key, tv: &DependencyVector) -> LookupOutcome {
        match self.chains.get(&key) {
            Some(c) => lookup_newest_first(self.chain_versions(c), |v| {
                v.update_time <= tv.get(v.source_replica) && v.visible_under(tv)
            }),
            None => LookupOutcome::default(),
        }
    }

    /// The freshest version of `key` visible under Cure's pessimistic rule: local
    /// versions are always visible, remote versions only when covered by `gss`.
    pub fn latest_stable(
        &self,
        key: Key,
        gss: &DependencyVector,
        local: pocc_types::ReplicaId,
    ) -> LookupOutcome {
        match self.chains.get(&key) {
            Some(c) => lookup_newest_first(self.chain_versions(c), |v| {
                v.source_replica == local
                    || (v.update_time <= gss.get(v.source_replica) && v.visible_under(gss))
            }),
            None => LookupOutcome::default(),
        }
    }

    /// Number of versions of `key` that are invisible under `visible`.
    pub fn count_invisible<F>(&self, key: Key, mut visible: F) -> usize
    where
        F: FnMut(&Version) -> bool,
    {
        match self.chains.get(&key) {
            Some(c) => self.chain_versions(c).filter(|v| !visible(v)).count(),
            None => 0,
        }
    }

    /// Runs garbage collection with vector `gv` over every chain of this shard, advancing
    /// the shard watermark. Retains, per chain, every version down to and including the
    /// first one covered by `gv` (§IV-B); released versions go back to the slab free
    /// list. Returns the number of versions removed.
    pub fn collect_garbage(&mut self, gv: &DependencyVector) -> usize {
        let StoreShard { slab, chains, .. } = self;
        let mut removed = 0;
        let mut freed_bytes = 0;
        for chain in chains.values_mut() {
            let keep = chain.idxs.iter().position(|&i| {
                let v = slab.get(i);
                v.update_time <= gv.get(v.source_replica) && v.visible_under(gv)
            });
            if let Some(idx) = keep {
                if idx + 1 < chain.idxs.len() {
                    for &i in &chain.idxs[idx + 1..] {
                        freed_bytes += slab.release(i).wire_size();
                        removed += 1;
                    }
                    chain.idxs.truncate(idx + 1);
                }
            }
        }
        self.gc_removed += removed;
        self.live_bytes -= freed_bytes;
        match &mut self.watermark {
            Some(w) => w.join(gv),
            none => *none = Some(gv.clone()),
        }
        removed
    }

    /// The shard's garbage-collection watermark: the entry-wise maximum of every GC
    /// vector applied so far, or `None` if GC has never run on this shard.
    pub fn watermark(&self) -> Option<&DependencyVector> {
        self.watermark.as_ref()
    }

    /// Statistics of this shard.
    pub fn stats(&self) -> ShardStats {
        let mut stats = ShardStats {
            keys: self.chains.len(),
            gc_removed: self.gc_removed,
            live_bytes: self.live_bytes,
            ..ShardStats::default()
        };
        for chain in self.chains.values() {
            stats.versions += chain.idxs.len();
            stats.max_chain_len = stats.max_chain_len.max(chain.idxs.len());
        }
        stats
    }

    /// Iterates over the keys stored in this shard (arbitrary order).
    pub fn keys(&self) -> impl Iterator<Item = Key> + '_ {
        self.chains.keys().copied()
    }

    /// `(key, update time, source replica)` of the freshest version of every key in this
    /// shard, in arbitrary order (the store sorts the union across shards).
    pub fn digest_entries(
        &self,
    ) -> impl Iterator<Item = (Key, Timestamp, pocc_types::ReplicaId)> + '_ {
        self.chains.iter().filter_map(|(k, c)| {
            c.idxs
                .first()
                .map(|&i| self.slab.get(i))
                .map(|v| (*k, v.update_time, v.source_replica))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pocc_types::{ReplicaId, Value};

    fn dv(entries: &[u64]) -> DependencyVector {
        DependencyVector::from_entries(entries.iter().map(|&d| Timestamp(d)).collect())
    }

    fn version(key: u64, ut: u64, deps: &[u64]) -> Version {
        Version::new(
            Key(key),
            Value::from(ut),
            ReplicaId(0),
            Timestamp(ut),
            dv(deps),
        )
    }

    #[test]
    fn shard_tracks_chains_and_stats() {
        let mut shard = StoreShard::new();
        shard.insert(version(1, 10, &[0, 0]));
        shard.insert(version(1, 20, &[10, 0]));
        shard.insert(version(2, 15, &[0, 0]));
        assert_eq!(shard.num_keys(), 2);
        let stats = shard.stats();
        assert_eq!(stats.keys, 2);
        assert_eq!(stats.versions, 3);
        assert_eq!(stats.max_chain_len, 2);
        assert_eq!(shard.latest(Key(1)).unwrap().update_time, Timestamp(20));
        assert!(shard.latest(Key(9)).is_none());
        assert_eq!(shard.keys().count(), 2);
        assert_eq!(shard.digest_entries().count(), 2);
        assert!(shard.has_key(Key(1)));
        assert!(!shard.has_key(Key(9)));
    }

    #[test]
    fn gc_advances_the_watermark_monotonically() {
        let mut shard = StoreShard::new();
        for i in 1..=4u64 {
            shard.insert(version(1, i * 10, &[(i - 1) * 10, 0]));
        }
        assert!(shard.watermark().is_none());

        let removed = shard.collect_garbage(&dv(&[25, 0]));
        assert_eq!(removed, 1);
        assert_eq!(shard.watermark(), Some(&dv(&[25, 0])));
        assert_eq!(shard.stats().gc_removed, 1);

        // A later GC vector joins entry-wise; an entry regressing does not move it back.
        shard.collect_garbage(&dv(&[20, 5]));
        assert_eq!(shard.watermark(), Some(&dv(&[25, 5])));
    }

    #[test]
    fn lookups_on_missing_keys_return_empty_outcomes() {
        let shard = StoreShard::new();
        assert!(shard
            .latest_in_snapshot(Key(1), &dv(&[9, 9]))
            .version
            .is_none());
        assert!(shard
            .latest_stable(Key(1), &dv(&[9, 9]), ReplicaId(0))
            .version
            .is_none());
        assert_eq!(shard.count_invisible(Key(1), |_| false), 0);
        assert!(shard.chain(Key(1)).is_none());
    }

    #[test]
    fn duplicate_inserts_do_not_grow_the_slab_or_live_bytes() {
        let mut shard = StoreShard::new();
        shard.insert(version(1, 10, &[0, 0]));
        let bytes_after_first = shard.stats().live_bytes;
        assert!(bytes_after_first > 0);
        shard.insert(version(1, 10, &[0, 0]));
        assert_eq!(shard.stats().versions, 1);
        assert_eq!(shard.stats().live_bytes, bytes_after_first);
    }

    #[test]
    fn gc_returns_slots_to_the_free_list_and_live_bytes_shrink() {
        let mut shard = StoreShard::new();
        for i in 1..=8u64 {
            shard.insert(version(1, i * 10, &[(i - 1) * 10, 0]));
        }
        let slots_before = shard.slab.slots.len();
        let bytes_before = shard.stats().live_bytes;
        let removed = shard.collect_garbage(&dv(&[100, 100]));
        assert_eq!(removed, 7);
        assert_eq!(shard.slab.free.len(), 7);
        assert!(shard.stats().live_bytes < bytes_before);
        assert_eq!(shard.stats().max_chain_len, 1);

        // Re-inserting reuses the freed slots: the slot array does not grow.
        for i in 9..=15u64 {
            shard.insert(version(1, i * 10, &[(i - 1) * 10, 0]));
        }
        assert_eq!(shard.slab.slots.len(), slots_before);
        assert_eq!(shard.slab.free.len(), 0);
        assert_eq!(shard.stats().versions, 8);
    }

    #[test]
    fn materialized_chain_matches_slab_order() {
        let mut shard = StoreShard::new();
        shard.insert(version(1, 10, &[0, 0]));
        shard.insert(version(1, 30, &[0, 0]));
        shard.insert(version(1, 20, &[0, 0]));
        let chain = shard.chain(Key(1)).unwrap();
        let times: Vec<u64> = chain.iter().map(|v| v.update_time.as_micros()).collect();
        assert_eq!(times, vec![30, 20, 10]);
    }
}
