//! The driver-facing API implemented by both protocol state machines (POCC and Cure\*).
//!
//! The discrete-event simulator and the threaded runtime only know about
//! [`ProtocolServer`]: they deliver client requests, server messages and periodic ticks,
//! and they ship the returned [`ServerOutput`]s over the (simulated or real) network.
//! Both POCC and Cure\* implement this trait, which is what makes the head-to-head
//! comparison of the paper's evaluation possible with a single harness.

use crate::{ClientRequest, ServerOutput};
use pocc_types::{ClientId, Key, ReplicaId, ServerId, Timestamp};
use std::time::Duration;

/// Counters common to both protocol implementations, snapshotted by the harness at the end
/// of a run (or periodically, to build time series).
///
/// All counters are cumulative since server creation.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Number of GET operations served (replies sent).
    pub gets_served: u64,
    /// Number of PUT operations served.
    pub puts_served: u64,
    /// Number of read-only transactions coordinated to completion.
    pub rotx_served: u64,
    /// Number of transactional slice reads served on behalf of coordinators.
    pub slices_served: u64,

    /// Number of operations (GET, PUT or slice) that blocked at least once waiting for a
    /// missing dependency. A GET blocks until the client's remote dependencies are
    /// installed locally: under POCC, Adaptive-POCC and optimistic HA-POCC, and under
    /// Cure\* too, whose snapshot GET waits for the session history to arrive. A PUT
    /// blocks on its dependencies under POCC, Adaptive-POCC and optimistic HA-POCC, never
    /// under Cure\*. A transactional slice blocks until its snapshot is installed, under
    /// every protocol. HA-POCC in pessimistic mode blocks no GET or PUT.
    pub blocked_operations: u64,
    /// Total time spent blocked across all blocked operations.
    pub total_block_time: Duration,
    /// Number of operations currently parked waiting for a dependency.
    pub currently_blocked: u64,
    /// Total time PUT handlers spent waiting for the local clock to exceed the client's
    /// dependency timestamps (Algorithm 2 line 7).
    pub clock_wait_time: Duration,

    /// GET operations that returned an *old* version (a fresher version existed in the
    /// chain). Cure\*-specific staleness metric (§V-B); always zero for POCC GETs.
    pub old_gets: u64,
    /// GET operations for which at least one version of the requested item was not yet
    /// stable (the paper's "unmerged" items).
    pub unmerged_gets: u64,
    /// Sum over old GETs of the number of fresher versions in the chain (to compute the
    /// "# Fresher vers." series of Figure 2b).
    pub fresher_versions_sum: u64,
    /// Sum over unmerged GETs of the number of unmerged versions in the chain.
    pub unmerged_versions_sum: u64,
    /// GET operations served through a GSS-stable fall-back read instead of the
    /// freshest version (the Adaptive protocol's per-key pessimism; always zero for the
    /// paper's three protocols).
    pub stable_fallback_gets: u64,
    /// Transactional read results that returned an old version (Figure 3d).
    pub old_tx_items: u64,
    /// Transactional read results for which some version of the item was unmerged.
    pub unmerged_tx_items: u64,
    /// Total transactional items returned.
    pub tx_items_returned: u64,

    /// Replication messages received from sibling replicas.
    pub replicate_received: u64,
    /// Replication messages sent to sibling replicas.
    pub replicate_sent: u64,
    /// Heartbeats received.
    pub heartbeats_received: u64,
    /// Heartbeats sent.
    pub heartbeats_sent: u64,
    /// Stabilization-protocol messages processed (sent + received). Cure\* and HA-POCC.
    pub stabilization_messages: u64,
    /// Batch envelopes sent (replication batching enabled only). The batched messages
    /// are still counted individually in `replicate_sent`/`gc_messages`.
    pub batches_sent: u64,
    /// Garbage-collection messages processed (sent + received).
    pub gc_messages: u64,
    /// Versions removed by garbage collection.
    pub gc_versions_removed: u64,

    /// Client sessions aborted by the partition-detection timeout (§III-B).
    pub sessions_aborted: u64,

    /// Total bytes of server-to-server traffic sent (wire-size estimate).
    pub bytes_sent: u64,

    /// Always zero: every client operation runs on the engine. Kept because reports and
    /// the repository benchmark read it.
    pub lane_fast_path_hits: u64,
    /// Client operations worker lanes ran on the engine (threaded runtime only; zero
    /// at one lane, where the calling thread runs them).
    pub lane_fast_path_misses: u64,
    /// Times the spine mutex was acquired (threaded runtime only).
    pub spine_acquisitions: u64,
    /// Always zero: nothing waits for work outside the spine. Kept because reports and
    /// the repository benchmark read it.
    pub drain_spins: u64,
}

impl MetricsSnapshot {
    /// Total client operations served (GET + PUT + RO-TX).
    pub fn operations_served(&self) -> u64 {
        self.gets_served + self.puts_served + self.rotx_served
    }

    /// Probability that an operation blocked, over everything this server served
    /// (the paper's "blocking probability", Figures 2a and 3c).
    pub fn blocking_probability(&self) -> f64 {
        let denom = self.operations_served() + self.slices_served;
        if denom == 0 {
            0.0
        } else {
            self.blocked_operations as f64 / denom as f64
        }
    }

    /// Average time a blocked operation spent blocked (Figures 2a and 3c).
    pub fn avg_block_time(&self) -> Duration {
        if self.blocked_operations == 0 {
            Duration::ZERO
        } else {
            self.total_block_time / self.blocked_operations as u32
        }
    }

    /// Fraction of GETs that returned an old version (Figure 2b).
    pub fn old_get_fraction(&self) -> f64 {
        if self.gets_served == 0 {
            0.0
        } else {
            self.old_gets as f64 / self.gets_served as f64
        }
    }

    /// Fraction of GETs that observed an unmerged item (Figure 2b).
    pub fn unmerged_get_fraction(&self) -> f64 {
        if self.gets_served == 0 {
            0.0
        } else {
            self.unmerged_gets as f64 / self.gets_served as f64
        }
    }

    /// Average number of fresher versions above an old returned item (Figure 2b).
    pub fn avg_fresher_versions(&self) -> f64 {
        if self.old_gets == 0 {
            0.0
        } else {
            self.fresher_versions_sum as f64 / self.old_gets as f64
        }
    }

    /// Average number of unmerged versions for GETs that observed one (Figure 2b).
    pub fn avg_unmerged_versions(&self) -> f64 {
        if self.unmerged_gets == 0 {
            0.0
        } else {
            self.unmerged_versions_sum as f64 / self.unmerged_gets as f64
        }
    }

    /// Fraction of transactional items that were old (Figure 3d).
    pub fn old_tx_fraction(&self) -> f64 {
        if self.tx_items_returned == 0 {
            0.0
        } else {
            self.old_tx_items as f64 / self.tx_items_returned as f64
        }
    }

    /// Fraction of transactional items for which some version was unmerged (Figure 3d).
    pub fn unmerged_tx_fraction(&self) -> f64 {
        if self.tx_items_returned == 0 {
            0.0
        } else {
            self.unmerged_tx_items as f64 / self.tx_items_returned as f64
        }
    }

    /// Adds every counter of `other` into `self`. Used by the harness to aggregate the
    /// snapshots of all servers of a deployment.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        self.gets_served += other.gets_served;
        self.puts_served += other.puts_served;
        self.rotx_served += other.rotx_served;
        self.slices_served += other.slices_served;
        self.blocked_operations += other.blocked_operations;
        self.total_block_time += other.total_block_time;
        self.currently_blocked += other.currently_blocked;
        self.clock_wait_time += other.clock_wait_time;
        self.old_gets += other.old_gets;
        self.unmerged_gets += other.unmerged_gets;
        self.fresher_versions_sum += other.fresher_versions_sum;
        self.unmerged_versions_sum += other.unmerged_versions_sum;
        self.stable_fallback_gets += other.stable_fallback_gets;
        self.old_tx_items += other.old_tx_items;
        self.unmerged_tx_items += other.unmerged_tx_items;
        self.tx_items_returned += other.tx_items_returned;
        self.replicate_received += other.replicate_received;
        self.replicate_sent += other.replicate_sent;
        self.heartbeats_received += other.heartbeats_received;
        self.heartbeats_sent += other.heartbeats_sent;
        self.stabilization_messages += other.stabilization_messages;
        self.batches_sent += other.batches_sent;
        self.gc_messages += other.gc_messages;
        self.gc_versions_removed += other.gc_versions_removed;
        self.sessions_aborted += other.sessions_aborted;
        self.bytes_sent += other.bytes_sent;
        self.lane_fast_path_hits += other.lane_fast_path_hits;
        self.lane_fast_path_misses += other.lane_fast_path_misses;
        self.spine_acquisitions += other.spine_acquisitions;
        self.drain_spins += other.drain_spins;
    }

    /// The difference `self - earlier`, counter by counter. Used to build per-interval
    /// time series out of cumulative snapshots.
    pub fn delta_since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            gets_served: self.gets_served - earlier.gets_served,
            puts_served: self.puts_served - earlier.puts_served,
            rotx_served: self.rotx_served - earlier.rotx_served,
            slices_served: self.slices_served - earlier.slices_served,
            blocked_operations: self.blocked_operations - earlier.blocked_operations,
            total_block_time: self.total_block_time - earlier.total_block_time,
            currently_blocked: self.currently_blocked,
            clock_wait_time: self.clock_wait_time - earlier.clock_wait_time,
            old_gets: self.old_gets - earlier.old_gets,
            unmerged_gets: self.unmerged_gets - earlier.unmerged_gets,
            fresher_versions_sum: self.fresher_versions_sum - earlier.fresher_versions_sum,
            unmerged_versions_sum: self.unmerged_versions_sum - earlier.unmerged_versions_sum,
            stable_fallback_gets: self.stable_fallback_gets - earlier.stable_fallback_gets,
            old_tx_items: self.old_tx_items - earlier.old_tx_items,
            unmerged_tx_items: self.unmerged_tx_items - earlier.unmerged_tx_items,
            tx_items_returned: self.tx_items_returned - earlier.tx_items_returned,
            replicate_received: self.replicate_received - earlier.replicate_received,
            replicate_sent: self.replicate_sent - earlier.replicate_sent,
            heartbeats_received: self.heartbeats_received - earlier.heartbeats_received,
            heartbeats_sent: self.heartbeats_sent - earlier.heartbeats_sent,
            stabilization_messages: self.stabilization_messages - earlier.stabilization_messages,
            batches_sent: self.batches_sent - earlier.batches_sent,
            gc_messages: self.gc_messages - earlier.gc_messages,
            gc_versions_removed: self.gc_versions_removed - earlier.gc_versions_removed,
            sessions_aborted: self.sessions_aborted - earlier.sessions_aborted,
            bytes_sent: self.bytes_sent - earlier.bytes_sent,
            lane_fast_path_hits: self.lane_fast_path_hits - earlier.lane_fast_path_hits,
            lane_fast_path_misses: self.lane_fast_path_misses - earlier.lane_fast_path_misses,
            spine_acquisitions: self.spine_acquisitions - earlier.spine_acquisitions,
            drain_spins: self.drain_spins - earlier.drain_spins,
        }
    }
}

/// The dispatch interface of a protocol server state machine, as seen by the driving
/// layer: client requests in, server messages in, periodic ticks — [`ServerOutput`]s out.
///
/// Implementations must be purely reactive: they perform no I/O and no sleeping; every
/// externally visible action is returned as a [`ServerOutput`]. Drivers that also need
/// observability (metrics, digests, store statistics) additionally require
/// [`ServerIntrospect`]; [`InstrumentedServer`] bundles the two for trait objects.
pub trait ProtocolServer: Send {
    /// The identity of this server (`p^m_n`).
    fn server_id(&self) -> ServerId;

    /// Handles a client request (GET, PUT or RO-TX). May return no output if the request
    /// had to be parked waiting for a missing dependency.
    fn handle_client_request(
        &mut self,
        client: ClientId,
        request: ClientRequest,
    ) -> Vec<ServerOutput>;

    /// Handles a message from another server (replication, heartbeat, slice traffic,
    /// stabilization, garbage collection).
    fn handle_server_message(
        &mut self,
        from: ServerId,
        message: crate::ServerMessage,
    ) -> Vec<ServerOutput>;

    /// Periodic maintenance: heartbeat emission, stabilization rounds, garbage collection,
    /// partition-detection timeouts, re-evaluation of clock-dependent waits. The driver
    /// calls this at least once per heartbeat interval.
    fn tick(&mut self) -> Vec<ServerOutput>;

    /// Returns and resets the number of *extra work units* performed since the last call:
    /// version-chain elements traversed beyond the head and vector merges performed by
    /// stabilization rounds. The simulator charges a fixed chain-traversal cost of CPU
    /// time per unit, which is how the resource-efficiency difference between POCC and
    /// Cure\* (§V-B "Summary of the results") shows up in the reproduced figures.
    fn take_extra_work(&mut self) -> u64 {
        0
    }
}

/// Read-only observability of a protocol server: cumulative metrics, a convergence
/// digest, and version-store statistics.
///
/// Split out of [`ProtocolServer`] so execution layers that only *drive* a server (the
/// threaded runtime's hot path) and harnesses that only *observe* one (report builders)
/// each depend on exactly the half they need.
pub trait ServerIntrospect {
    /// A snapshot of the server's cumulative metrics.
    fn metrics(&self) -> MetricsSnapshot;

    /// A digest of the freshest version of every key this server stores, used by the
    /// convergence checks: `(key, update time, source replica)` sorted by key.
    fn digest(&self) -> Vec<(Key, Timestamp, ReplicaId)>;

    /// Aggregate statistics of the server's version store (keys, retained versions,
    /// longest chain, GC removals), summed over its shards.
    fn store_stats(&self) -> pocc_storage::StoreStats;

    /// Per-shard statistics of the server's version store, indexed by shard. Used by the
    /// benchmark harness to report how evenly the key space spreads.
    fn shard_stats(&self) -> Vec<pocc_storage::StoreStats>;
}

/// A server that can be both driven and observed: the simulator and the serial runtime
/// hold their protocol servers as `Box<dyn InstrumentedServer>`.
///
/// Blanket-implemented for every type that implements both halves; never implement it
/// directly.
pub trait InstrumentedServer: ProtocolServer + ServerIntrospect {}

impl<T: ProtocolServer + ServerIntrospect + ?Sized> InstrumentedServer for T {}

/// The interface of a client session state machine: it turns application-level operations
/// into [`ClientRequest`]s and folds replies back into its dependency-tracking state.
pub trait ProtocolClient {
    /// The client id of this session.
    fn client_id(&self) -> ClientId;

    /// The server this session is attached to.
    fn home_server(&self) -> ServerId;

    /// Builds a GET request for `key`.
    fn get(&self, key: Key) -> ClientRequest;

    /// Builds a PUT request for `key`.
    fn put(&self, key: Key, value: pocc_types::Value) -> ClientRequest;

    /// Builds a RO-TX request for `keys`.
    fn ro_tx(&self, keys: Vec<Key>) -> ClientRequest;

    /// Folds a reply into the session state (dependency vectors). Returns `Err` if the
    /// session was aborted by the server and must be re-initialised.
    fn process_reply(&mut self, reply: &crate::ClientReply) -> pocc_types::Result<()>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_ratios_handle_empty_snapshots() {
        let m = MetricsSnapshot::default();
        assert_eq!(m.blocking_probability(), 0.0);
        assert_eq!(m.avg_block_time(), Duration::ZERO);
        assert_eq!(m.old_get_fraction(), 0.0);
        assert_eq!(m.unmerged_get_fraction(), 0.0);
        assert_eq!(m.avg_fresher_versions(), 0.0);
        assert_eq!(m.avg_unmerged_versions(), 0.0);
        assert_eq!(m.old_tx_fraction(), 0.0);
        assert_eq!(m.unmerged_tx_fraction(), 0.0);
        assert_eq!(m.operations_served(), 0);
    }

    #[test]
    fn derived_ratios_compute_expected_values() {
        let m = MetricsSnapshot {
            gets_served: 80,
            puts_served: 10,
            rotx_served: 10,
            slices_served: 0,
            blocked_operations: 10,
            total_block_time: Duration::from_millis(50),
            old_gets: 20,
            fresher_versions_sum: 60,
            unmerged_gets: 40,
            unmerged_versions_sum: 80,
            old_tx_items: 5,
            unmerged_tx_items: 10,
            tx_items_returned: 100,
            ..MetricsSnapshot::default()
        };
        assert_eq!(m.operations_served(), 100);
        assert!((m.blocking_probability() - 0.1).abs() < 1e-12);
        assert_eq!(m.avg_block_time(), Duration::from_millis(5));
        assert!((m.old_get_fraction() - 0.25).abs() < 1e-12);
        assert!((m.unmerged_get_fraction() - 0.5).abs() < 1e-12);
        assert!((m.avg_fresher_versions() - 3.0).abs() < 1e-12);
        assert!((m.avg_unmerged_versions() - 2.0).abs() < 1e-12);
        assert!((m.old_tx_fraction() - 0.05).abs() < 1e-12);
        assert!((m.unmerged_tx_fraction() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = MetricsSnapshot {
            gets_served: 3,
            total_block_time: Duration::from_millis(1),
            ..MetricsSnapshot::default()
        };
        let b = MetricsSnapshot {
            gets_served: 4,
            puts_served: 2,
            total_block_time: Duration::from_millis(2),
            bytes_sent: 100,
            ..MetricsSnapshot::default()
        };
        a.merge(&b);
        assert_eq!(a.gets_served, 7);
        assert_eq!(a.puts_served, 2);
        assert_eq!(a.total_block_time, Duration::from_millis(3));
        assert_eq!(a.bytes_sent, 100);
    }

    #[test]
    fn delta_since_subtracts_counters() {
        let earlier = MetricsSnapshot {
            gets_served: 10,
            puts_served: 5,
            total_block_time: Duration::from_millis(2),
            ..MetricsSnapshot::default()
        };
        let later = MetricsSnapshot {
            gets_served: 25,
            puts_served: 6,
            total_block_time: Duration::from_millis(5),
            currently_blocked: 3,
            ..MetricsSnapshot::default()
        };
        let delta = later.delta_since(&earlier);
        assert_eq!(delta.gets_served, 15);
        assert_eq!(delta.puts_served, 1);
        assert_eq!(delta.total_block_time, Duration::from_millis(3));
        // Gauges (currently_blocked) are carried over, not subtracted.
        assert_eq!(delta.currently_blocked, 3);
    }
}
