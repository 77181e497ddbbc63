//! Property tests: a sharded store is observationally equivalent to the original
//! single-map store, and key routing is stable.
//!
//! The sharding refactor must be invisible to the protocols: for any write sequence, a
//! store with `N` shards answers every read, statistic and GC query exactly like the
//! single-shard store (which is the original one-`HashMap` implementation). These tests
//! drive both configurations with identical random write/GC sequences and compare every
//! observable surface.

use pocc_storage::{partition_for_key, shard_for_key, ShardedStore};
use pocc_types::{DependencyVector, Key, PartitionId, ReplicaId, Timestamp, Value, Version};
use proptest::prelude::*;

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

proptest! {
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
