//! The result of one simulation run.

use crate::metrics::LatencyStats;
use pocc_exec::ProtocolKind;
use pocc_net::NetworkStats;
use pocc_proto::MetricsSnapshot;
use pocc_storage::StoreStats;
use std::time::Duration;

/// Everything a figure harness or test needs to know about one simulation run.
///
/// All protocol-level counters (`server_metrics`) are deltas over the measured window
/// (warm-up excluded); latencies and throughput likewise cover only the measured window.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// The protocol that was run.
    pub protocol: ProtocolKind,
    /// Number of data centers.
    pub replicas: usize,
    /// Number of partitions per data center.
    pub partitions: usize,
    /// Total closed-loop clients.
    pub clients: usize,
    /// Length of the measured window.
    pub measured_window: Duration,

    /// Client operations completed within the measured window (GET + PUT + RO-TX).
    pub operations_completed: u64,
    /// GET operations completed.
    pub gets_completed: u64,
    /// PUT operations completed.
    pub puts_completed: u64,
    /// Read-only transactions completed.
    pub rotx_completed: u64,
    /// Client sessions that were aborted and re-initialised during the measured window.
    pub sessions_reinitialized: u64,

    /// Overall throughput in operations per second.
    pub throughput_ops_per_sec: f64,
    /// Latency distribution of all operations.
    pub latency_all: LatencyStats,
    /// Latency distribution of GETs.
    pub latency_get: LatencyStats,
    /// Latency distribution of PUTs.
    pub latency_put: LatencyStats,
    /// Latency distribution of read-only transactions.
    pub latency_rotx: LatencyStats,

    /// Aggregated protocol metrics (delta over the measured window, summed over servers).
    pub server_metrics: MetricsSnapshot,
    /// Network statistics over the whole run.
    pub network: NetworkStats,
    /// End-of-run store statistics, summed over every server of the deployment.
    pub store: StoreStats,
    /// End-of-run per-shard store statistics: element `i` sums shard `i` across all
    /// servers (`max_chain_len` is the maximum). Shows how evenly the key space spreads.
    pub store_shards: Vec<StoreStats>,

    /// Number of causal-consistency violations found by the exact checker (always zero
    /// when the checker is disabled).
    pub consistency_violations: u64,
    /// Whether every replica of every partition converged to the same latest-version
    /// digest by the end of the drain period.
    pub converged: bool,
}

impl SimReport {
    /// Probability that an operation blocked on a missing dependency (POCC; Figures 2a, 3c).
    pub fn blocking_probability(&self) -> f64 {
        self.server_metrics.blocking_probability()
    }

    /// Mean time a blocked operation spent blocked (Figures 2a, 3c).
    pub fn avg_block_time(&self) -> Duration {
        self.server_metrics.avg_block_time()
    }

    /// Fraction of GETs that returned an old (non-freshest) version (Figure 2b).
    pub fn old_get_fraction(&self) -> f64 {
        self.server_metrics.old_get_fraction()
    }

    /// Fraction of GETs that observed an unmerged item (Figure 2b).
    pub fn unmerged_get_fraction(&self) -> f64 {
        self.server_metrics.unmerged_get_fraction()
    }

    /// Fraction of transactional reads that returned an old version (Figure 3d).
    pub fn old_tx_fraction(&self) -> f64 {
        self.server_metrics.old_tx_fraction()
    }

    /// Fraction of transactional reads for which some version was unmerged (Figure 3d).
    pub fn unmerged_tx_fraction(&self) -> f64 {
        self.server_metrics.unmerged_tx_fraction()
    }

    /// A one-line human-readable summary, used by the examples.
    pub fn summary(&self) -> String {
        format!(
            "{}: {:.0} ops/s ({} ops in {:?}), avg latency {:?}, blocking p={:.2e}, old GETs {:.2}%",
            self.protocol,
            self.throughput_ops_per_sec,
            self.operations_completed,
            self.measured_window,
            self.latency_all.mean(),
            self.blocking_probability(),
            self.old_get_fraction() * 100.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SimReport {
        SimReport {
            protocol: ProtocolKind::Pocc,
            replicas: 3,
            partitions: 4,
            clients: 12,
            measured_window: Duration::from_secs(1),
            operations_completed: 1000,
            gets_completed: 900,
            puts_completed: 90,
            rotx_completed: 10,
            sessions_reinitialized: 0,
            throughput_ops_per_sec: 1000.0,
            latency_all: LatencyStats::new(),
            latency_get: LatencyStats::new(),
            latency_put: LatencyStats::new(),
            latency_rotx: LatencyStats::new(),
            server_metrics: MetricsSnapshot {
                gets_served: 900,
                puts_served: 90,
                rotx_served: 10,
                blocked_operations: 10,
                old_gets: 90,
                ..MetricsSnapshot::default()
            },
            network: NetworkStats::default(),
            store: StoreStats::default(),
            store_shards: Vec::new(),
            consistency_violations: 0,
            converged: true,
        }
    }

    #[test]
    fn derived_fractions_delegate_to_the_metrics() {
        let r = report();
        assert!((r.blocking_probability() - 0.01).abs() < 1e-12);
        assert!((r.old_get_fraction() - 0.1).abs() < 1e-12);
        assert_eq!(r.avg_block_time(), Duration::ZERO);
    }

    #[test]
    fn summary_mentions_protocol_and_throughput() {
        let s = report().summary();
        assert!(s.contains("POCC"));
        assert!(s.contains("1000 ops"));
    }
}
