//! Multi-version key-value storage for the POCC reproduction.
//!
//! The system model of the paper (§II-C) assumes a multiversion data store: every PUT
//! creates a new [`Version`](pocc_types::Version) of the item, versions of the same key form a *version chain*
//! ordered by the last-writer-wins rule, and the store is periodically garbage-collected.
//!
//! This crate provides:
//!
//! * [`partition_for_key`] / [`shard_for_key`] — the deterministic key → partition and
//!   key → shard assignments,
//! * [`ShardedStore`] — the per-server store: the partition's chains split across
//!   key-hashed shards, each a slab of versions with its own statistics and GC watermark.
//!   It answers the reads both protocols need — the freshest version (POCC GET), the
//!   freshest version covered by a snapshot vector (RO-TX slice reads, Algorithm 2
//!   line 43, and Cure's GET), and the freshest version stable under Cure's Globally
//!   Stable Snapshot (HA-POCC's pessimistic GET) — with the staleness statistics the
//!   evaluation reports ([`LookupOutcome`], [`ChainReadStats`]), and runs garbage
//!   collection (§IV-B) and the content digests used by convergence tests. Each shard
//!   lists its keys of two or more versions, the only chains GC can trim, so a GC pass
//!   costs O(multi-version chains + versions removed), not O(keys). A pass runs whole
//!   ([`ShardedStore::collect_garbage`]) or in bounded steps ([`ShardedStore::begin_gc`],
//!   then [`ShardedStore::gc_step`], each reporting a [`GcStep`]).
//!
//! Every read and GC pass asks one visibility rule, [`Version::covered_by`](pocc_types::Version::covered_by).
//!
//! # Example
//!
//! ```
//! use pocc_storage::{shard_for_key, ShardedStore};
//! use pocc_types::{DependencyVector, Key, PartitionId, ReplicaId, Timestamp, Value, Version};
//!
//! // A store for partition 0 of a 1-partition deployment, split into 4 shards.
//! let store = ShardedStore::with_shards(PartitionId(0), 1, 4);
//!
//! // Every PUT creates a new version; versions of one key form a chain.
//! for t in [10, 20] {
//!     store.insert(Version::new(
//!         Key(7),
//!         Value::from(t),
//!         ReplicaId(0),
//!         Timestamp(t),
//!         DependencyVector::zero(3),
//!     )).unwrap();
//! }
//!
//! // A POCC GET returns the freshest version; snapshot reads respect the snapshot.
//! assert_eq!(store.latest(Key(7)).unwrap().update_time, Timestamp(20));
//! let tv = DependencyVector::from_entries(vec![Timestamp(15), Timestamp(15), Timestamp(15)]);
//! let in_snapshot = store.latest_in_snapshot(Key(7), &tv);
//! assert_eq!(in_snapshot.version.unwrap().update_time, Timestamp(10));
//!
//! // The key lives in exactly one shard; stats aggregate across shards.
//! assert!(shard_for_key(Key(7), 4) < 4);
//! assert_eq!(store.stats().versions, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chain;
mod partitioning;
mod shard;
mod store;

pub use chain::{ChainReadStats, LookupOutcome};
pub use partitioning::{partition_for_key, shard_for_key};
pub use store::{GcStep, ShardedStore, StoreStats};
