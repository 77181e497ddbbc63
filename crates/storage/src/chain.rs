//! What a chain lookup returns, and the newest-first walk every lookup shares.

use pocc_types::Version;

/// Statistics about a single chain lookup, used by the evaluation to reproduce the
/// staleness metrics of Figures 2b and 3d.
/// * `traversed` — how many chain elements were inspected before the returned version was
///   found; Cure\* pays a CPU cost proportional to this, POCC GETs always return the head.
/// * `fresher_than_returned` — how many versions in the chain are fresher (win under
///   last-writer-wins) than the returned one: the paper's *"# Fresher vers."*.
/// * `unmerged_above` — how many of those fresher versions were invisible because they were
///   not yet stable: the paper's *"# Unmerged vers."*.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChainReadStats {
    /// Number of chain elements inspected by the lookup.
    pub traversed: usize,
    /// Number of versions fresher than the returned one.
    pub fresher_than_returned: usize,
    /// Number of fresher versions that were skipped because they were not visible.
    pub unmerged_above: usize,
}

/// The result of a chain lookup: the chosen version (if any) plus read statistics.
#[derive(Clone, Debug, Default)]
pub struct LookupOutcome {
    /// The version to return to the client, or `None` if no version qualifies.
    pub version: Option<Version>,
    /// Statistics about the lookup.
    pub stats: ChainReadStats,
}

impl LookupOutcome {
    /// Whether the returned version is *old*: at least one fresher version exists in the
    /// chain (the paper's definition of an "old" returned item, §V-B).
    pub fn is_old(&self) -> bool {
        self.version.is_some() && self.stats.fresher_than_returned > 0
    }
}

/// Newest-first lookup over any version iterator: returns the first (freshest) version
/// satisfying `visible`, with traversal and staleness statistics. Every store read
/// (snapshot, stable) walks a chain through it, so all report the paper's staleness
/// metrics identically.
pub(crate) fn lookup_newest_first<'a, F>(
    iter: impl Iterator<Item = &'a Version>,
    mut visible: F,
) -> LookupOutcome
where
    F: FnMut(&Version) -> bool,
{
    let mut stats = ChainReadStats::default();
    let mut inspected = 0;
    for (i, v) in iter.enumerate() {
        inspected = i + 1;
        stats.traversed = inspected;
        if visible(v) {
            stats.fresher_than_returned = i;
            stats.unmerged_above = i;
            return LookupOutcome {
                version: Some(v.clone()),
                stats,
            };
        }
    }
    stats.fresher_than_returned = inspected;
    stats.unmerged_above = inspected;
    LookupOutcome {
        version: None,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShardedStore;
    use pocc_types::{DependencyVector, Key, PartitionId, ReplicaId, Timestamp, Value};

    const K: Key = Key(1);

    fn version(ut: u64, sr: u16, deps: &[u64]) -> Version {
        Version::new(
            K,
            Value::from(ut),
            ReplicaId(sr),
            Timestamp(ut),
            DependencyVector::from_entries(deps.iter().map(|&d| Timestamp(d)).collect()),
        )
    }

    fn dv(entries: &[u64]) -> DependencyVector {
        DependencyVector::from_entries(entries.iter().map(|&d| Timestamp(d)).collect())
    }

    /// A one-partition store (it owns every key) holding `versions` in the chain of `K`.
    fn chain_of(versions: &[Version]) -> ShardedStore {
        let store = ShardedStore::new(PartitionId(0), 1);
        for v in versions {
            store.insert(v.clone()).unwrap();
        }
        store
    }

    fn times(store: &ShardedStore) -> Vec<u64> {
        store
            .chain(K)
            .iter()
            .map(|v| v.update_time.as_micros())
            .collect()
    }

    #[test]
    fn empty_chain_returns_nothing() {
        let store = chain_of(&[]);
        assert!(store.chain(K).is_empty());
        assert!(store.latest(K).is_none());
        let out = store.latest_in_snapshot(K, &dv(&[100, 100, 100]));
        assert!(out.version.is_none());
        assert!(!out.is_old());
    }

    #[test]
    fn insert_keeps_newest_first_order() {
        let store = chain_of(&[
            version(10, 0, &[0, 0, 0]),
            version(30, 1, &[0, 0, 0]),
            version(20, 2, &[0, 0, 0]),
        ]);
        assert_eq!(times(&store), vec![30, 20, 10]);
        assert_eq!(store.latest(K).unwrap().update_time, Timestamp(30));
    }

    #[test]
    fn insert_is_idempotent_for_duplicates() {
        let store = chain_of(&[version(10, 0, &[0, 0, 0]), version(10, 0, &[0, 0, 0])]);
        assert_eq!(store.chain(K).len(), 1);
    }

    #[test]
    fn concurrent_versions_with_equal_timestamp_order_by_replica() {
        let store = chain_of(&[version(10, 2, &[0, 0, 0]), version(10, 0, &[0, 0, 0])]);
        // Lowest replica wins the tie, so it sits at the head.
        assert_eq!(store.latest(K).unwrap().source_replica, ReplicaId(0));
        assert_eq!(store.chain(K).len(), 2);
    }

    #[test]
    fn snapshot_lookup_skips_versions_outside_the_snapshot() {
        let store = chain_of(&[
            version(10, 0, &[0, 0, 0]),
            version(20, 1, &[10, 0, 0]),
            version(30, 2, &[10, 20, 0]),
        ]);
        // Snapshot covers only up to ts 20 on every replica.
        let out = store.latest_in_snapshot(K, &dv(&[20, 20, 20]));
        let v = out.version.clone().unwrap();
        assert_eq!(v.update_time, Timestamp(20));
        assert!(out.is_old());
        assert_eq!(out.stats.fresher_than_returned, 1);
        assert_eq!(out.stats.traversed, 2);
    }

    #[test]
    fn snapshot_lookup_checks_own_timestamp_not_only_deps() {
        // Version with no dependencies but a timestamp beyond the snapshot: must be skipped.
        let store = chain_of(&[version(50, 1, &[0, 0, 0]), version(10, 0, &[0, 0, 0])]);
        let out = store.latest_in_snapshot(K, &dv(&[20, 20, 20]));
        assert_eq!(out.version.unwrap().update_time, Timestamp(10));
    }

    #[test]
    fn stable_lookup_always_sees_local_versions() {
        let local = ReplicaId(0);
        let store = chain_of(&[
            version(10, 1, &[0, 0, 0]),
            version(50, 0, &[0, 40, 0]), // local, depends on an unstable remote
        ]);
        let out = store.latest_stable(K, &dv(&[0, 0, 0]), local);
        assert_eq!(out.version.clone().unwrap().update_time, Timestamp(50));
        assert!(!out.is_old());
    }

    #[test]
    fn stable_lookup_hides_unstable_remote_versions() {
        let local = ReplicaId(0);
        let store = chain_of(&[
            version(10, 1, &[0, 0, 0]),
            version(50, 1, &[0, 40, 0]),
            version(60, 2, &[0, 50, 0]),
        ]);
        // GSS has seen everything from replica 1 up to 10 only.
        let out = store.latest_stable(K, &dv(&[0, 10, 0]), local);
        let v = out.version.clone().unwrap();
        assert_eq!(v.update_time, Timestamp(10));
        assert!(out.is_old());
        assert_eq!(out.stats.fresher_than_returned, 2);
    }

    #[test]
    fn lookup_outcome_reports_none_when_nothing_visible() {
        let store = chain_of(&[version(50, 1, &[0, 40, 0])]);
        let out = store.latest_stable(K, &dv(&[0, 0, 0]), ReplicaId(0));
        assert!(out.version.is_none());
        assert_eq!(out.stats.fresher_than_returned, 1);
    }

    #[test]
    fn count_invisible_counts_unstable_versions() {
        let store = chain_of(&[version(10, 1, &[0, 0, 0]), version(50, 1, &[0, 40, 0])]);
        assert_eq!(store.unmerged_count(K, &dv(&[0, 10, 0]), ReplicaId(0)), 1);
    }

    #[test]
    fn gc_keeps_versions_down_to_the_first_covered_one() {
        let store = chain_of(&[
            version(10, 0, &[0, 0, 0]),
            version(20, 0, &[10, 0, 0]),
            version(30, 0, &[20, 0, 0]),
            version(40, 0, &[30, 0, 0]),
        ]);
        // GC vector covers up to 25: the first covered version (newest-first) is ts 20.
        let removed = store.collect_garbage(&dv(&[25, 0, 0]));
        assert_eq!(removed, 1); // only ts 10 dropped
        assert_eq!(times(&store), vec![40, 30, 20]);
    }

    #[test]
    fn gc_is_a_noop_when_nothing_is_covered_or_chain_is_short() {
        let store = chain_of(&[version(40, 0, &[30, 0, 0])]);
        assert_eq!(store.collect_garbage(&dv(&[0, 0, 0])), 0);
        assert_eq!(store.collect_garbage(&dv(&[100, 100, 100])), 0);
        assert_eq!(store.chain(K).len(), 1);
    }

    #[test]
    fn gc_never_empties_a_chain_with_a_covered_version() {
        let store = chain_of(&[version(10, 0, &[0, 0, 0]), version(20, 0, &[10, 0, 0])]);
        store.collect_garbage(&dv(&[100, 100, 100]));
        // The newest covered version is the head itself; nothing below it is retained.
        assert_eq!(times(&store), vec![20]);
    }
}

#[cfg(test)]
mod proptests {
    use crate::ShardedStore;
    use pocc_types::{DependencyVector, Key, PartitionId, ReplicaId, Timestamp, Value, Version};
    use proptest::prelude::*;

    const K: Key = Key(7);

    fn arb_version() -> impl Strategy<Value = Version> {
        (
            0u64..1_000,
            0u16..3,
            proptest::collection::vec(0u64..1_000, 3),
        )
            .prop_map(|(ut, sr, deps)| {
                Version::new(
                    K,
                    Value::from(ut),
                    ReplicaId(sr),
                    Timestamp(ut),
                    DependencyVector::from_entries(deps.into_iter().map(Timestamp).collect()),
                )
            })
    }

    fn arb_vector() -> impl Strategy<Value = DependencyVector> {
        proptest::collection::vec(0u64..1_000, 3)
            .prop_map(|tv| DependencyVector::from_entries(tv.into_iter().map(Timestamp).collect()))
    }

    /// A one-partition store (it owns every key) holding `versions` in the chain of `K`.
    fn chain_of(versions: &[Version]) -> ShardedStore {
        let store = ShardedStore::new(PartitionId(0), 1);
        for v in versions {
            store.insert(v.clone()).unwrap();
        }
        store
    }

    /// The oracle's own statement of snapshot visibility (Algorithm 2 line 43): the
    /// snapshot covers the version's update time at its source replica and its
    /// dependencies entry-wise.
    fn in_snapshot(v: &Version, tv: &DependencyVector) -> bool {
        v.visible_under(tv) && v.update_time <= tv.get(v.source_replica)
    }

    proptest! {
        #[test]
        fn prop_chain_is_always_sorted_newest_first(vs in proptest::collection::vec(arb_version(), 0..50)) {
            let chain = chain_of(&vs).chain(K);
            for w in chain.windows(2) {
                prop_assert!(w[0].wins_over(&w[1]) || w[0].lww_cmp(&w[1]) == std::cmp::Ordering::Equal);
            }
        }

        #[test]
        fn prop_latest_wins_over_every_other_version(vs in proptest::collection::vec(arb_version(), 1..50)) {
            let store = chain_of(&vs);
            let head = store.latest(K).unwrap();
            for v in store.chain(K).iter().skip(1) {
                prop_assert!(!v.wins_over(&head));
            }
        }

        #[test]
        fn prop_insert_idempotent(vs in proptest::collection::vec(arb_version(), 0..30)) {
            let once = chain_of(&vs);
            let twice = chain_of(&[]);
            for v in &vs {
                twice.insert(v.clone()).unwrap();
                twice.insert(v.clone()).unwrap();
            }
            prop_assert_eq!(once.chain(K), twice.chain(K));
        }

        #[test]
        fn prop_snapshot_lookup_result_is_visible_and_freshest(
            vs in proptest::collection::vec(arb_version(), 0..40),
            tv in arb_vector(),
        ) {
            let store = chain_of(&vs);
            let out = store.latest_in_snapshot(K, &tv);
            if let Some(found) = &out.version {
                prop_assert!(in_snapshot(found, &tv));
                // No fresher visible version exists.
                for v in store.chain(K) {
                    if v.wins_over(found) {
                        prop_assert!(!in_snapshot(&v, &tv));
                    }
                }
            } else {
                for v in store.chain(K) {
                    prop_assert!(!in_snapshot(&v, &tv));
                }
            }
        }

        #[test]
        fn prop_gc_preserves_the_head_and_visibility(
            vs in proptest::collection::vec(arb_version(), 1..40),
            gv in arb_vector(),
        ) {
            let store = chain_of(&vs);
            let head_before = store.latest(K);
            let visible_before = store.latest_in_snapshot(K, &gv).version;
            store.collect_garbage(&gv);
            prop_assert_eq!(store.latest(K), head_before);
            // GC never removes the version a transaction running at exactly GV would read.
            prop_assert_eq!(store.latest_in_snapshot(K, &gv).version, visible_before);
        }
    }
}
