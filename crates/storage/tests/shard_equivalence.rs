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
//!
//! A pass can also run in bounded steps with reads and inserts in between. Another test
//! drives a stepped store, an untrimmed copy and a copy that runs each pass in one call
//! through the same random script, and checks that reads between steps cannot tell the
//! three apart.

use pocc_storage::{partition_for_key, shard_for_key, GcStep, ShardedStore, StoreStats};
use pocc_types::{DependencyVector, Key, PartitionId, ReplicaId, Timestamp, Value, Version};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::{BTreeMap, HashSet};

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

/// One op of a stepped-GC script: `op` picks an insert of `version`, the start of a pass
/// whose vector joins `raise` into the previous one (so vectors only grow, as a server's
/// do), a step of `budget` listed chains, or reads of `key` at a snapshot that joins
/// `raise` into the watermark.
fn arb_gc_op() -> impl Strategy<Value = (u8, Version, DependencyVector, usize, u64)> {
    let small = || proptest::collection::vec(0u64..24, REPLICAS);
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
    (0u8..16, version, small().prop_map(dv), 1usize..6, 0u64..16)
}

/// Every chain and the statistics of `a` equal those of `b`.
fn assert_same_store(a: &ShardedStore, b: &ShardedStore, context: &str) {
    for key in (0u64..16).map(Key) {
        assert_eq!(a.chain(key), b.chain(key), "{context}: chain of {key:?}");
    }
    assert_eq!(a.stats(), b.stats(), "{context}: stats");
}

proptest! {
    /// A pass run in steps, with inserts and reads between them, against an untrimmed
    /// store and a store that runs every pass in one call when the stepped one begins it:
    ///
    /// * the watermark moves when a pass begins, before any chain is trimmed;
    /// * head reads, and snapshot reads at snapshots that dominate the watermark, return
    ///   the same version from all three stores between any two steps;
    /// * a pass with no insert while it ran leaves the chains, statistics and removal
    ///   count of the one-call pass;
    /// * after a last whole pass all three stores are equal, and each removed as many
    ///   versions as it inserted minus what it keeps.
    ///
    /// A pass that begins while another is pending restarts from the first listed chain.
    #[test]
    fn a_stepped_pass_is_invisible_to_reads_between_steps(
        ops in proptest::collection::vec(arb_gc_op(), 1..200),
        probe in proptest::collection::vec(0u64..48, REPLICAS).prop_map(dv),
    ) {
        for shards in [1, 8] {
            let store = || ShardedStore::with_shards(PartitionId(0), 1, shards);
            let (stepped, untrimmed, whole) = (store(), store(), store());
            let mut gv: Option<DependencyVector> = None;
            let (mut stepped_removed, mut whole_removed) = (0, 0);
            let mut inserted = HashSet::new();
            let mut inserted_mid_pass = false;
            for (op, version, raise, budget, key) in &ops {
                let context = format!("shards={shards}");
                match op {
                    0..=6 => {
                        // Duplicates are left out: a duplicate of a version one store has
                        // trimmed and another has not is kept by one and dropped by the
                        // other, which no pass order can make equal.
                        let id = (version.key, version.update_time, version.source_replica);
                        if !inserted.insert(id) {
                            continue;
                        }
                        for s in [&stepped, &untrimmed, &whole] {
                            s.insert(version.clone()).expect("partition 0 owns every key");
                        }
                        inserted_mid_pass |= stepped.gc_pending();
                    }
                    7 | 8 => {
                        let next = match &gv {
                            Some(g) => g.joined(raise),
                            None => raise.clone(),
                        };
                        stepped.begin_gc(&next);
                        whole_removed += whole.collect_garbage(&next);
                        inserted_mid_pass = false;
                        gv = Some(next);
                        // The watermark has moved before any step has run.
                        let below = [probe.clone(), DependencyVector::zero(REPLICAS)];
                        for key in (0u64..16).map(Key) {
                            for tv in &below {
                                prop_assert_eq!(
                                    stepped.snapshot_may_predate_gc(key, tv),
                                    whole.snapshot_may_predate_gc(key, tv),
                                    "{}: {:?} at {:?} right after begin_gc", context, key, tv
                                );
                            }
                        }
                    }
                    9..=11 => {
                        let was_pending = stepped.gc_pending();
                        let step = stepped.gc_step(*budget);
                        stepped_removed += step.removed;
                        prop_assert_eq!(step.done, !stepped.gc_pending());
                        if was_pending && step.done && !inserted_mid_pass {
                            assert_same_store(&stepped, &whole, &format!("{context}: pass end"));
                            prop_assert_eq!(stepped_removed, whole_removed);
                        }
                    }
                    _ => {
                        let key = Key(*key);
                        let tv = match &gv {
                            Some(g) => g.joined(raise),
                            None => raise.clone(),
                        };
                        let head = stepped.latest(key);
                        prop_assert_eq!(&head, &untrimmed.latest(key));
                        prop_assert_eq!(&head, &whole.latest(key));
                        let read = stepped.latest_in_snapshot(key, &tv).version;
                        prop_assert_eq!(&read, &untrimmed.latest_in_snapshot(key, &tv).version);
                        prop_assert_eq!(&read, &whole.latest_in_snapshot(key, &tv).version);
                        for tv in [&tv, &probe] {
                            prop_assert_eq!(
                                stepped.snapshot_may_predate_gc(key, tv),
                                whole.snapshot_may_predate_gc(key, tv)
                            );
                        }
                    }
                }
            }
            stepped_removed += stepped.gc_step(usize::MAX).removed;
            prop_assert!(!stepped.gc_pending());
            if let Some(gv) = &gv {
                stepped_removed += stepped.collect_garbage(gv);
                whole_removed += whole.collect_garbage(gv);
                untrimmed.collect_garbage(gv);
            }
            let context = format!("shards={shards}: after a last whole pass");
            assert_same_store(&stepped, &whole, &context);
            assert_same_store(&stepped, &untrimmed, &context);
            prop_assert_eq!(stepped_removed, whole_removed);
            prop_assert_eq!(stepped_removed, inserted.len() - stepped.stats().versions);
        }
    }
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

fn chain_of_two(store: &ShardedStore, key: u64) {
    for ut in [10, 20] {
        store
            .insert(Version::new(
                Key(key),
                Value::from(ut),
                ReplicaId(0),
                Timestamp(ut),
                dv(vec![ut - 10, 0, 0]),
            ))
            .unwrap();
    }
}

/// A GC vector that arrives while a pass is pending restarts the pass with the new
/// vector: the chains already trimmed stay trimmed, the new vector trims from the first
/// listed chain on, and the chains the old pass had not reached are left to the new
/// vector alone. The watermark holds both vectors from the moment each pass begins.
#[test]
fn a_pass_begun_mid_pass_restarts_with_the_new_vector() {
    for shards in [1, 8] {
        let store = ShardedStore::with_shards(PartitionId(0), 1, shards);
        for key in 0..8 {
            chain_of_two(&store, key);
        }
        let covers_all = dv(vec![20, 0, 0]);
        let covers_none = dv(vec![0, 0, 0]);
        store.begin_gc(&covers_all);
        let first = store.gc_step(3);
        assert_eq!(
            first,
            GcStep {
                removed: 3,
                done: false
            }
        );

        // The new vector covers nothing: the five chains the first pass did not reach
        // keep both versions, and the restarted pass still visits all five.
        store.begin_gc(&covers_none);
        assert!(store.gc_pending());
        let rest = store.gc_step(5);
        assert_eq!(
            rest,
            GcStep {
                removed: 0,
                done: true
            }
        );
        assert!(!store.gc_pending());
        let stats = store.stats();
        assert_eq!((stats.versions, stats.gc_removed), (13, 3));
        for key in (0u64..8).map(Key) {
            // The first vector is in the watermark: a snapshot below it is refused
            // whether or not its chain was trimmed.
            assert!(store.snapshot_may_predate_gc(key, &dv(vec![10, 0, 0])));
        }

        // A later pass with the first vector finishes the job.
        assert_eq!(store.collect_garbage(&covers_all), 5);
        assert_eq!(store.stats().max_chain_len, 1);
    }
}

/// A step spends its budget across shards and reports done exactly when the last
/// listed chain has been visited; with no pass pending a step does nothing.
#[test]
fn steps_visit_every_listed_chain_once_across_shards() {
    for shards in [1, 8] {
        let store = ShardedStore::with_shards(PartitionId(0), 1, shards);
        assert_eq!(
            store.gc_step(1),
            GcStep {
                removed: 0,
                done: true
            }
        );
        for key in 0..40 {
            chain_of_two(&store, key);
        }
        store.begin_gc(&dv(vec![20, 0, 0]));
        let mut steps = Vec::new();
        loop {
            let step = store.gc_step(8);
            steps.push(step.removed);
            if step.done {
                break;
            }
        }
        assert_eq!(steps, vec![8; 5], "shards={shards}");
        assert_eq!(store.stats().gc_removed, 40);
    }
}
