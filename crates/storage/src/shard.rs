//! A single shard of a partition's version storage.
//!
//! A [`crate::ShardedStore`] splits the key space its partition owns into `N` key-hashed
//! shards. Each [`StoreShard`] is an independent unit with its own version chains,
//! statistics and garbage-collection watermark, so shards can be worked on (inserted
//! into, read, collected) without touching any sibling shard.
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

use crate::chain::{lookup_newest_first, LookupOutcome};
use crate::StoreStats;
use pocc_types::{DependencyVector, Key, ReplicaId, Timestamp, Version};
use std::collections::HashMap;

/// Slot storage for the versions of one shard: a growable array of slots with a free
/// list. Indices are stable for the lifetime of the version they hold and are recycled
/// after release, so steady-state insert-after-GC traffic reuses slots instead of
/// growing the heap.
#[derive(Debug, Default)]
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

/// One key-hashed shard: per-key chains of slab slot indices, newest-first under
/// last-writer-wins, plus per-shard GC state.
#[derive(Debug, Default)]
pub(crate) struct StoreShard {
    slab: VersionSlab,
    chains: HashMap<Key, Vec<u32>>,
    /// The keys whose chain holds two or more versions, each listed once: the only
    /// chains garbage collection can shorten.
    multi_version: Vec<Key>,
    gc_removed: usize,
    /// Approximate bytes of live version data, maintained incrementally on insert/GC.
    live_bytes: usize,
    /// The entry-wise maximum of every GC vector a pass has begun with — the shard's
    /// garbage-collection watermark. Versions below it (except the first covered one
    /// of each chain) are gone, or go before the pending pass ends.
    watermark: Option<DependencyVector>,
}

impl StoreShard {
    /// Inserts a version into the chain of its key, keeping newest-first last-writer-wins
    /// order. Duplicate `(update_time, source replica)` pairs are ignored.
    pub(crate) fn insert(&mut self, version: Version) {
        let StoreShard { slab, chains, .. } = self;
        let chain = chains.entry(version.key).or_default();
        let pos = chain.partition_point(|&i| slab.get(i).wins_over(&version));
        if let Some(&at) = chain.get(pos) {
            let existing = slab.get(at);
            if existing.update_time == version.update_time
                && existing.source_replica == version.source_replica
            {
                return;
            }
        }
        self.live_bytes += version.wire_size();
        let key = version.key;
        let idx = slab.alloc(version);
        chain.insert(pos, idx);
        if chain.len() == 2 {
            self.multi_version.push(key);
        }
    }

    /// The versions of `key`, newest-first (none for an unknown key).
    fn versions(&self, key: Key) -> impl Iterator<Item = &Version> {
        let chain = self.chains.get(&key).map_or(&[][..], Vec::as_slice);
        chain.iter().map(move |&i| self.slab.get(i))
    }

    /// A copy of the chain of `key`, newest-first. An inspection helper for tests; the
    /// reads below walk the slab in place.
    pub(crate) fn chain(&self, key: Key) -> Vec<Version> {
        self.versions(key).cloned().collect()
    }

    /// Whether any version of `key` is stored in this shard.
    pub(crate) fn has_key(&self, key: Key) -> bool {
        self.chains.contains_key(&key)
    }

    /// The freshest version of `key`, regardless of visibility.
    pub(crate) fn latest(&self, key: Key) -> Option<&Version> {
        self.versions(key).next()
    }

    /// The freshest version of `key` satisfying `visible`, with read statistics.
    pub(crate) fn lookup(&self, key: Key, visible: impl FnMut(&Version) -> bool) -> LookupOutcome {
        lookup_newest_first(self.versions(key), visible)
    }

    /// Number of versions of `key` that do not satisfy `visible`.
    pub(crate) fn count_invisible(
        &self,
        key: Key,
        mut visible: impl FnMut(&Version) -> bool,
    ) -> usize {
        self.versions(key).filter(|v| !visible(v)).count()
    }

    /// Joins `gv` into the shard's garbage-collection watermark. A pass does this for
    /// every shard before it trims any chain, so a snapshot the pass's vector does not
    /// cover is refused from the moment the pass begins.
    pub(crate) fn join_watermark(&mut self, gv: &DependencyVector) {
        match &mut self.watermark {
            Some(w) => w.join(gv),
            none => *none = Some(gv.clone()),
        }
    }

    /// Trims the listed chains from position `*cursor` of the multi-version list on, at
    /// most `*budget` of them, under GC vector `gv`: each keeps every version down to and
    /// including the first one `gv` covers (§IV-B), and released versions go back to the
    /// slab free list. A chain trimmed back to one version is unlisted with `swap_remove`,
    /// which moves the last listed chain under the cursor, so the cursor only advances
    /// past chains that stay listed. Spends one unit of `budget` per chain visited and
    /// returns the number of versions removed. The shard's part of the pass is done once
    /// `*cursor` reaches [`StoreShard::listed`].
    pub(crate) fn trim_listed(
        &mut self,
        gv: &DependencyVector,
        cursor: &mut usize,
        budget: &mut usize,
    ) -> usize {
        let StoreShard {
            slab,
            chains,
            multi_version,
            ..
        } = self;
        let mut removed = 0;
        let mut freed_bytes = 0;
        while *budget > 0 && *cursor < multi_version.len() {
            *budget -= 1;
            let chain = chains
                .get_mut(&multi_version[*cursor])
                .expect("a listed key has a chain");
            if let Some(keep) = chain.iter().position(|&i| slab.get(i).covered_by(gv)) {
                for i in chain.drain(keep + 1..) {
                    freed_bytes += slab.release(i).wire_size();
                    removed += 1;
                }
            }
            if chain.len() > 1 {
                *cursor += 1;
            } else {
                multi_version.swap_remove(*cursor);
            }
        }
        self.gc_removed += removed;
        self.live_bytes -= freed_bytes;
        removed
    }

    /// Number of chains on the multi-version list: the chains a GC pass visits.
    pub(crate) fn listed(&self) -> usize {
        self.multi_version.len()
    }

    /// The shard's garbage-collection watermark: the entry-wise maximum of every GC
    /// vector applied so far, or `None` if GC has never run on this shard.
    pub(crate) fn watermark(&self) -> Option<&DependencyVector> {
        self.watermark.as_ref()
    }

    /// Statistics of this shard.
    pub(crate) fn stats(&self) -> StoreStats {
        let mut stats = StoreStats {
            keys: self.chains.len(),
            gc_removed: self.gc_removed,
            live_bytes: self.live_bytes,
            ..StoreStats::default()
        };
        for chain in self.chains.values() {
            stats.versions += chain.len();
            stats.max_chain_len = stats.max_chain_len.max(chain.len());
        }
        stats
    }

    /// `(key, update time, source replica)` of the freshest version of every key in this
    /// shard, in arbitrary order (the store sorts the union across shards).
    pub(crate) fn digest_entries(&self) -> impl Iterator<Item = (Key, Timestamp, ReplicaId)> + '_ {
        self.chains.iter().filter_map(|(k, c)| {
            c.first()
                .map(|&i| self.slab.get(i))
                .map(|v| (*k, v.update_time, v.source_replica))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pocc_types::Value;

    fn dv(entries: &[u64]) -> DependencyVector {
        DependencyVector::from_entries(entries.iter().map(|&d| Timestamp(d)).collect())
    }

    /// A whole GC pass over one shard: the watermark join, then every listed chain.
    fn collect_garbage(shard: &mut StoreShard, gv: &DependencyVector) -> usize {
        shard.join_watermark(gv);
        let mut budget = usize::MAX;
        shard.trim_listed(gv, &mut 0, &mut budget)
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
        let mut shard = StoreShard::default();
        shard.insert(version(1, 10, &[0, 0]));
        shard.insert(version(1, 20, &[10, 0]));
        shard.insert(version(2, 15, &[0, 0]));
        let stats = shard.stats();
        assert_eq!(stats.keys, 2);
        assert_eq!(stats.versions, 3);
        assert_eq!(stats.max_chain_len, 2);
        assert_eq!(shard.latest(Key(1)).unwrap().update_time, Timestamp(20));
        assert!(shard.latest(Key(9)).is_none());
        assert_eq!(shard.digest_entries().count(), 2);
        assert!(shard.has_key(Key(1)));
        assert!(!shard.has_key(Key(9)));
    }

    #[test]
    fn gc_advances_the_watermark_monotonically() {
        let mut shard = StoreShard::default();
        for i in 1..=4u64 {
            shard.insert(version(1, i * 10, &[(i - 1) * 10, 0]));
        }
        assert!(shard.watermark().is_none());

        let removed = collect_garbage(&mut shard, &dv(&[25, 0]));
        assert_eq!(removed, 1);
        assert_eq!(shard.watermark(), Some(&dv(&[25, 0])));
        assert_eq!(shard.stats().gc_removed, 1);

        // A later GC vector joins entry-wise; an entry regressing does not move it back.
        collect_garbage(&mut shard, &dv(&[20, 5]));
        assert_eq!(shard.watermark(), Some(&dv(&[25, 5])));
    }

    #[test]
    fn lookups_on_missing_keys_return_empty_outcomes() {
        let shard = StoreShard::default();
        let out = shard.lookup(Key(1), |_| true);
        assert!(out.version.is_none());
        assert_eq!(out.stats, Default::default());
        assert_eq!(shard.count_invisible(Key(1), |_| false), 0);
        assert!(shard.chain(Key(1)).is_empty());
        assert!(shard.latest(Key(1)).is_none());
    }

    #[test]
    fn duplicate_inserts_do_not_grow_the_slab_or_live_bytes() {
        let mut shard = StoreShard::default();
        shard.insert(version(1, 10, &[0, 0]));
        let bytes_after_first = shard.stats().live_bytes;
        assert!(bytes_after_first > 0);
        shard.insert(version(1, 10, &[0, 0]));
        assert_eq!(shard.stats().versions, 1);
        assert_eq!(shard.stats().live_bytes, bytes_after_first);
    }

    #[test]
    fn gc_returns_slots_to_the_free_list_and_live_bytes_shrink() {
        let mut shard = StoreShard::default();
        for i in 1..=8u64 {
            shard.insert(version(1, i * 10, &[(i - 1) * 10, 0]));
        }
        let slots_before = shard.slab.slots.len();
        let bytes_before = shard.stats().live_bytes;
        let removed = collect_garbage(&mut shard, &dv(&[100, 100]));
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

    /// How many times `key` appears on the shard's multi-version list.
    fn times_listed(shard: &StoreShard, key: u64) -> usize {
        shard
            .multi_version
            .iter()
            .filter(|&&k| k == Key(key))
            .count()
    }

    /// Every key is listed exactly once when its chain holds two or more versions, and
    /// never otherwise.
    fn assert_listed_iff_multi_version(shard: &StoreShard) {
        for (key, chain) in &shard.chains {
            let expected = usize::from(chain.len() >= 2);
            assert_eq!(times_listed(shard, key.raw()), expected, "key {key:?}");
        }
        assert!(shard
            .multi_version
            .iter()
            .all(|k| shard.chains.contains_key(k)));
    }

    #[test]
    fn single_version_keys_are_never_listed() {
        let mut shard = StoreShard::default();
        for key in 0..16u64 {
            shard.insert(version(key, 10, &[0, 0]));
        }
        assert!(shard.multi_version.is_empty());
        collect_garbage(&mut shard, &dv(&[100, 100]));
        assert!(shard.multi_version.is_empty());
        assert_listed_iff_multi_version(&shard);
    }

    #[test]
    fn growing_to_two_versions_lists_the_key_once() {
        let mut shard = StoreShard::default();
        shard.insert(version(1, 10, &[0, 0]));
        assert_eq!(times_listed(&shard, 1), 0);
        shard.insert(version(1, 20, &[10, 0]));
        assert_eq!(times_listed(&shard, 1), 1);
        // A duplicate insert returns early, and a third version does not re-list.
        shard.insert(version(1, 20, &[10, 0]));
        shard.insert(version(1, 10, &[0, 0]));
        assert_eq!(times_listed(&shard, 1), 1);
        shard.insert(version(1, 30, &[20, 0]));
        assert_eq!(times_listed(&shard, 1), 1);
        assert_listed_iff_multi_version(&shard);
    }

    #[test]
    fn gc_unlists_a_chain_only_when_it_is_back_to_one_version() {
        let mut shard = StoreShard::default();
        for i in 1..=4u64 {
            shard.insert(version(1, i * 10, &[(i - 1) * 10, 0]));
        }
        // Covers 30 but not 40: the chain keeps 40 and 30, and stays listed.
        assert_eq!(collect_garbage(&mut shard, &dv(&[35, 0])), 2);
        assert_eq!(shard.chain(Key(1)).len(), 2);
        assert_eq!(times_listed(&shard, 1), 1);
        // Covers 40: the chain is back to one version and leaves the list.
        assert_eq!(collect_garbage(&mut shard, &dv(&[45, 0])), 1);
        assert_eq!(shard.chain(Key(1)).len(), 1);
        assert_eq!(times_listed(&shard, 1), 0);
        // Growing again lists it again.
        shard.insert(version(1, 50, &[40, 0]));
        assert_eq!(times_listed(&shard, 1), 1);
        assert_listed_iff_multi_version(&shard);
    }

    #[test]
    fn a_bounded_trim_stops_at_its_budget_and_resumes_at_the_cursor() {
        let mut shard = StoreShard::default();
        for key in 0..5u64 {
            shard.insert(version(key, 10, &[0, 0]));
            shard.insert(version(key, 20, &[10, 0]));
        }
        // Key 4 keeps two versions: its newest is not covered.
        shard.insert(version(4, 30, &[20, 5]));
        let gv = dv(&[30, 0]);
        // Key 0 is trimmed to one version and unlisted, which swaps key 4 under the
        // cursor; key 4 stays listed, so the cursor moves past it.
        let (mut cursor, mut budget) = (0, 2);
        assert_eq!(shard.trim_listed(&gv, &mut cursor, &mut budget), 2);
        assert_eq!((cursor, budget, shard.listed()), (1, 0, 4));
        let mut budget = usize::MAX;
        assert_eq!(shard.trim_listed(&gv, &mut cursor, &mut budget), 3);
        assert_eq!((cursor, shard.listed()), (1, 1));
        assert_eq!(budget, usize::MAX - 3);
        assert_eq!(shard.chain(Key(4)).len(), 2);
        assert_listed_iff_multi_version(&shard);
    }

    #[test]
    fn materialized_chain_matches_slab_order() {
        let mut shard = StoreShard::default();
        shard.insert(version(1, 10, &[0, 0]));
        shard.insert(version(1, 30, &[0, 0]));
        shard.insert(version(1, 20, &[0, 0]));
        let times: Vec<u64> = shard
            .chain(Key(1))
            .iter()
            .map(|v| v.update_time.as_micros())
            .collect();
        assert_eq!(times, vec![30, 20, 10]);
    }
}
