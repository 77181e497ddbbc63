//! Property tests: a sharded store is observationally equivalent to the original
//! single-map store, and key routing is stable.
//!
//! The sharding refactor must be invisible to the protocols: for any write sequence, a
//! store with `N` shards answers every read, statistic and GC query exactly like the
//! single-shard store (which is the original one-`HashMap` implementation). These tests
//! drive both configurations with identical random write/GC sequences and compare every
//! observable surface.
//!
//! Garbage collection walks only the chains that hold two or more versions, so a
//! separate test replays random inserts interleaved with GC passes against a full-scan
//! model written out below, at 1 and 8 shards.

use pocc_storage::{partition_for_key, shard_for_key, ShardedStore, StoreStats};
use pocc_types::{DependencyVector, Key, PartitionId, ReplicaId, Timestamp, Value, Version};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BTreeMap;

const REPLICAS: usize = 3;

fn dv(entries: Vec<u64>) -> DependencyVector {
    DependencyVector::from_entries(entries.into_iter().map(Timestamp).collect())
}

fn arb_version() -> impl Strategy<Value = Version> {
    (
        0u64..64,
        1u64..1_000,
        0u16..REPLICAS as u16,
        proptest::collection::vec(0u64..1_000, REPLICAS),
    )
        .prop_map(|(key, ut, sr, deps)| {
            Version::new(
                Key(key),
                Value::from(ut),
                ReplicaId(sr),
                Timestamp(ut),
                dv(deps),
            )
        })
}

fn arb_vector() -> impl Strategy<Value = DependencyVector> {
    proptest::collection::vec(0u64..1_000, REPLICAS).prop_map(dv)
}

/// Builds one single-shard and one `shards`-shard store and applies the same writes.
fn build_pair(writes: &[Version], shards: usize) -> (ShardedStore, ShardedStore) {
    let single = ShardedStore::new(PartitionId(0), 1);
    let sharded = ShardedStore::with_shards(PartitionId(0), 1, shards);
    for v in writes {
        single
            .insert(v.clone())
            .expect("partition 0 owns every key");
        sharded
            .insert(v.clone())
            .expect("partition 0 owns every key");
    }
    (single, sharded)
}

/// The full-scan model of a store: every chain newest-first under last-writer-wins, and
/// a GC pass that visits every chain. The rules are written out here rather than taken
/// from `pocc-types`, so the model does not share the store's code.
#[derive(Default)]
struct FullScanModel {
    chains: BTreeMap<Key, Vec<Version>>,
    gc_removed: usize,
    watermark: Option<Vec<u64>>,
}

fn entries(v: &DependencyVector) -> Vec<u64> {
    v.iter().map(|(_, t)| t.as_micros()).collect()
}

impl FullScanModel {
    fn insert(&mut self, v: Version) {
        let chain = self.chains.entry(v.key).or_default();
        if chain
            .iter()
            .any(|w| w.update_time == v.update_time && w.source_replica == v.source_replica)
        {
            return;
        }
        // Higher update time first; on a tie the lower source replica first.
        let rank = |w: &Version| (w.update_time, Reverse(w.source_replica));
        let pos = chain.iter().position(|w| rank(&v) > rank(w));
        chain.insert(pos.unwrap_or(chain.len()), v);
    }

    /// Keeps each chain down to its first version whose update time and dependencies
    /// `gv` covers; returns the number of versions removed.
    fn collect_garbage(&mut self, gv: &DependencyVector) -> usize {
        let gv = entries(gv);
        let covered = |v: &Version| {
            v.update_time.as_micros() <= gv[v.source_replica.index()]
                && entries(&v.deps).iter().zip(&gv).all(|(d, g)| d <= g)
        };
        let mut removed = 0;
        for chain in self.chains.values_mut() {
            if let Some(keep) = chain.iter().position(covered) {
                removed += chain.len() - (keep + 1);
                chain.truncate(keep + 1);
            }
        }
        self.gc_removed += removed;
        self.watermark = Some(match self.watermark.take() {
            Some(w) => w.iter().zip(&gv).map(|(a, b)| *a.max(b)).collect(),
            None => gv,
        });
        removed
    }

    fn stats(&self) -> StoreStats {
        let versions = self.chains.values().flatten();
        StoreStats {
            keys: self.chains.len(),
            versions: versions.clone().count(),
            max_chain_len: self.chains.values().map(Vec::len).max().unwrap_or(0),
            gc_removed: self.gc_removed,
            live_bytes: versions.map(Version::wire_size).sum(),
        }
    }

    /// Whether an empty snapshot read of `key` under `tv` could be an artifact of GC: the
    /// key has a chain and `tv` does not cover the watermark entry-wise.
    fn snapshot_may_predate_gc(&self, key: Key, tv: &DependencyVector) -> bool {
        let below = |w: &Vec<u64>| entries(tv).iter().zip(w).any(|(t, w)| t < w);
        self.watermark.as_ref().is_some_and(below) && self.chains.contains_key(&key)
    }
}

/// Every chain of `store` equals the model's, version by version.
fn assert_chains_match(store: &ShardedStore, model: &FullScanModel) {
    for key in (0u64..16).map(Key) {
        let expected = model.chains.get(&key).cloned().unwrap_or_default();
        assert_eq!(store.chain(key), expected, "chain of {key:?}");
    }
}

/// One step of a GC-interleaved script: `op` picks an insert of `version`, a re-insert
/// of an earlier version (a duplicate), or a GC pass with `gv`. Keys, update times and
/// vector entries come from small ranges, so chains grow several versions deep, update
/// times arrive out of order and tie across replicas, and GC vectors cover some of them.
fn arb_step() -> impl Strategy<Value = (u8, Version, DependencyVector)> {
    let small = || proptest::collection::vec(0u64..64, REPLICAS);
    let version =
        (0u64..16, 1u64..48, 0u16..REPLICAS as u16, small()).prop_map(|(key, ut, sr, deps)| {
            Version::new(
                Key(key),
                Value::from(ut),
                ReplicaId(sr),
                Timestamp(ut),
                dv(deps),
            )
        });
    (0u8..10, version, small().prop_map(dv))
}

proptest! {
    #[test]
    fn gc_over_listed_chains_matches_a_full_scan(
        steps in proptest::collection::vec(arb_step(), 1..160),
        probe in proptest::collection::vec(0u64..64, REPLICAS).prop_map(dv),
    ) {
        for shards in [1, 8] {
            let store = ShardedStore::with_shards(PartitionId(0), 1, shards);
            let mut model = FullScanModel::default();
            let mut inserted: Vec<Version> = Vec::new();
            for (op, version, gv) in &steps {
                if *op < 8 {
                    // Ops 6 and 7 re-insert an earlier version: a duplicate.
                    let v = match (*op, inserted.len()) {
                        (6 | 7, n) if n > 0 => {
                            inserted[version.update_time.as_micros() as usize % n].clone()
                        }
                        _ => version.clone(),
                    };
                    store.insert(v.clone()).expect("partition 0 owns every key");
                    model.insert(v.clone());
                    inserted.push(v);
                } else {
                    prop_assert_eq!(store.collect_garbage(gv), model.collect_garbage(gv));
                    assert_chains_match(&store, &model);
                }
                prop_assert_eq!(store.stats(), model.stats());
            }
            assert_chains_match(&store, &model);
            // The shard watermarks show through `snapshot_may_predate_gc`; probe below,
            // at and around the model's watermark.
            let mut probes = vec![probe.clone(), DependencyVector::zero(REPLICAS)];
            probes.extend(model.watermark.clone().map(dv));
            for key in (0u64..16).map(Key) {
                for tv in &probes {
                    prop_assert_eq!(
                        store.snapshot_may_predate_gc(key, tv),
                        model.snapshot_may_predate_gc(key, tv)
                    );
                }
            }
        }
    }

    #[test]
    fn reads_are_equivalent_after_identical_writes(
        writes in proptest::collection::vec(arb_version(), 0..80),
        shards in 2usize..9,
        tv in arb_vector(),
    ) {
        let (single, sharded) = build_pair(&writes, shards);

        for key in (0u64..64).map(Key) {
            // Head reads (POCC GET).
            prop_assert_eq!(single.latest(key), sharded.latest(key));
            // Snapshot reads (RO-TX slices), including the traversal statistics the
            // evaluation reports.
            let a = single.latest_in_snapshot(key, &tv);
            let b = sharded.latest_in_snapshot(key, &tv);
            prop_assert_eq!(a.version, b.version);
            prop_assert_eq!(a.stats, b.stats);
            // Stable reads (Cure* GET) and unmerged accounting.
            for local in (0..REPLICAS as u16).map(ReplicaId) {
                let a = single.latest_stable(key, &tv, local);
                let b = sharded.latest_stable(key, &tv, local);
                prop_assert_eq!(a.version, b.version);
                prop_assert_eq!(a.stats, b.stats);
                prop_assert_eq!(
                    single.unmerged_count(key, &tv, local),
                    sharded.unmerged_count(key, &tv, local)
                );
            }
        }
        prop_assert_eq!(single.digest(), sharded.digest());
        prop_assert_eq!(single.stats(), sharded.stats());
    }

    #[test]
    fn garbage_collection_is_equivalent(
        writes in proptest::collection::vec(arb_version(), 0..80),
        shards in 2usize..9,
        gvs in proptest::collection::vec(arb_vector(), 1..4),
    ) {
        let (single, sharded) = build_pair(&writes, shards);
        for gv in &gvs {
            prop_assert_eq!(single.collect_garbage(gv), sharded.collect_garbage(gv));
            prop_assert_eq!(single.stats(), sharded.stats());
            prop_assert_eq!(single.digest(), sharded.digest());
        }
        // Chains are identical version-by-version after GC, not just at the head.
        for key in (0u64..64).map(Key) {
            prop_assert_eq!(single.chain(key), sharded.chain(key));
        }
    }

    #[test]
    fn shard_routing_is_total_and_consistent(key in proptest::prelude::any::<u64>(), shards in 1usize..17) {
        let s = shard_for_key(Key(key), shards);
        prop_assert!(s < shards);
        prop_assert_eq!(s, shard_for_key(Key(key), shards));
    }
}

/// Routing stability: these values are load-bearing (replicas of the same partition must
/// agree on key placement across versions of this code), so changes to the hash
/// functions must be deliberate and show up as a failing test.
#[test]
fn routing_golden_values_are_stable() {
    let partitions: Vec<usize> = (0..8u64)
        .map(|k| partition_for_key(Key(k), 32).index())
        .collect();
    assert_eq!(partitions, vec![15, 1, 14, 13, 10, 26, 0, 23]);

    let shards: Vec<usize> = (0..8u64).map(|k| shard_for_key(Key(k), 8)).collect();
    assert_eq!(shards, vec![0, 6, 7, 1, 2, 4, 1, 1]);
}

/// A store keeps working through interleaved writes and GC passes with many shards, and
/// per-shard statistics always sum to the aggregate.
#[test]
fn shard_stats_always_sum_to_aggregate() {
    let store = ShardedStore::with_shards(PartitionId(0), 1, 8);
    for k in 0..512u64 {
        for round in 0..3u64 {
            store
                .insert(Version::new(
                    Key(k),
                    Value::from(round),
                    ReplicaId((k % 3) as u16),
                    Timestamp(10 + round * 10),
                    dv(vec![round * 10, 0, 0]),
                ))
                .unwrap();
        }
    }
    store.collect_garbage(&dv(vec![15, 15, 15]));

    let total = store.stats();
    let per_shard = store.shard_stats();
    assert_eq!(per_shard.iter().map(|s| s.keys).sum::<usize>(), total.keys);
    assert_eq!(
        per_shard.iter().map(|s| s.versions).sum::<usize>(),
        total.versions
    );
    assert_eq!(
        per_shard.iter().map(|s| s.gc_removed).sum::<usize>(),
        total.gc_removed
    );
    assert_eq!(
        per_shard.iter().map(|s| s.max_chain_len).max().unwrap(),
        total.max_chain_len
    );
}
