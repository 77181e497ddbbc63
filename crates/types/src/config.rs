//! Deployment configuration.
//!
//! [`Config`] holds what a server or the threaded runtime reads: topology (number of data
//! centers and partitions), protocol timers (heartbeat interval `∆`, Cure's stabilization
//! interval, garbage-collection interval, partition-detection timeout), network latencies,
//! and the storage-sharding, worker-lane and replication-batching settings. Every field is
//! varied by some scenario, workload or test; simulator-only costs and clock skew live in
//! `pocc_sim::SimConfig`, and a tuning value nothing sweeps stays a constant next to its
//! reader.
//!
//! The defaults mirror the experimental test-bed of §V-A of the paper: 3 data centers,
//! 32 partitions per data center, 1 ms heartbeat interval, 5 ms stabilization interval,
//! WAN latencies in the order of those between Oregon, Virginia and Ireland.

use crate::{Error, ReplicaId, Result};
use std::time::Duration;

/// Round-trip-free one-way latency matrix between data centers, plus the intra-DC latency.
///
/// Entry `[i][j]` is the one-way delay of a message sent from data center `i` to data
/// center `j`. The matrix does not have to be symmetric, although realistic deployments
/// usually are.
#[derive(Clone, PartialEq, Debug)]
pub struct LatencyMatrix {
    /// One-way delay between servers in the same data center.
    pub intra_dc: Duration,
    /// One-way delays between data centers; `inter_dc[i][j]` is from DC `i` to DC `j`.
    pub inter_dc: Vec<Vec<Duration>>,
}

impl LatencyMatrix {
    /// A matrix with the same one-way delay between every pair of distinct data centers.
    pub fn uniform(num_replicas: usize, intra_dc: Duration, inter_dc: Duration) -> Self {
        let mut m = vec![vec![Duration::ZERO; num_replicas]; num_replicas];
        for (i, row) in m.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                if i != j {
                    *cell = inter_dc;
                }
            }
        }
        LatencyMatrix {
            intra_dc,
            inter_dc: m,
        }
    }

    /// The latency matrix modelled after the paper's test-bed: Oregon (0), Virginia (1),
    /// Ireland (2), with one-way delays of roughly half the public round-trip times
    /// between those regions, and a 0.25 ms intra-DC delay.
    pub fn aws_three_dc() -> Self {
        let ms = Duration::from_millis;
        LatencyMatrix {
            intra_dc: Duration::from_micros(250),
            inter_dc: vec![
                // Oregon -> Oregon, Virginia, Ireland
                vec![Duration::ZERO, ms(36), ms(70)],
                // Virginia -> Oregon, Virginia, Ireland
                vec![ms(36), Duration::ZERO, ms(40)],
                // Ireland -> Oregon, Virginia, Ireland
                vec![ms(70), ms(40), Duration::ZERO],
            ],
        }
    }

    /// Number of data centers covered by the matrix.
    pub fn num_replicas(&self) -> usize {
        self.inter_dc.len()
    }

    /// One-way delay between two data centers (the intra-DC delay when they coincide).
    pub fn between(&self, from: ReplicaId, to: ReplicaId) -> Duration {
        if from == to {
            self.intra_dc
        } else {
            self.inter_dc[from.index()][to.index()]
        }
    }

    /// The largest inter-DC delay in the matrix. Useful for sizing quiescence periods in
    /// tests and for the partition detector's timeout heuristics.
    pub fn max_inter_dc(&self) -> Duration {
        self.inter_dc
            .iter()
            .flatten()
            .copied()
            .max()
            .unwrap_or(Duration::ZERO)
    }

    /// Validates that the matrix is square and covers `num_replicas` data centers.
    pub fn validate(&self, num_replicas: usize) -> Result<()> {
        if self.inter_dc.len() != num_replicas
            || self.inter_dc.iter().any(|row| row.len() != num_replicas)
        {
            return Err(Error::InvalidConfig {
                reason: format!(
                    "latency matrix must be {num_replicas}x{num_replicas}, got {}x{:?}",
                    self.inter_dc.len(),
                    self.inter_dc.iter().map(|r| r.len()).collect::<Vec<_>>()
                ),
            });
        }
        Ok(())
    }
}

/// Static configuration of a deployment.
#[derive(Clone, PartialEq, Debug)]
pub struct Config {
    /// Number of data centers `M`. The paper's evaluation uses 3.
    pub num_replicas: usize,
    /// Number of partitions `N` per data center. The paper's evaluation uses up to 32.
    pub num_partitions: usize,
    /// Heartbeat interval `∆` (Algorithm 2 line 19): a server that has not created a local
    /// update for this long broadcasts its clock to its sibling replicas. 1 ms in §V-A.
    pub heartbeat_interval: Duration,
    /// Interval of Cure's intra-DC stabilization protocol (GSS computation). 5 ms in §V-A.
    /// HA-POCC runs the same protocol but much less frequently
    /// (see [`Config::ha_stabilization_interval`]).
    pub stabilization_interval: Duration,
    /// Interval of the infrequent stabilization run by HA-POCC during normal operation.
    pub ha_stabilization_interval: Duration,
    /// Interval of the garbage-collection vector exchange (§IV-B).
    pub gc_interval: Duration,
    /// How long a POCC server lets a request block before suspecting a network partition
    /// and closing the client session (§III-B, phase 1 of the recovery procedure).
    pub partition_detection_timeout: Duration,
    /// One-way network latencies.
    pub latency: LatencyMatrix,
    /// Number of key-hashed shards each server splits its partition's version storage
    /// into (intra-partition sharding; `1` reproduces the original unsharded store).
    pub storage_shards: usize,
    /// Number of worker lanes each server of the *threaded* runtime spreads its client
    /// load across (`1` runs the engine on the thread that delivers each request; the
    /// simulator ignores this field). Every lane runs under the server's one engine; a
    /// client operation goes to lane `shard(key) % lanes`, which keeps each key's operations
    /// in order.
    pub worker_lanes: usize,
    /// Whether servers coalesce replication and garbage-collection traffic per
    /// destination into one batch message per tick, instead of sending one message per
    /// write. Off by default: batching trades up to one heartbeat interval of extra
    /// replication delay for far fewer messages on the inter-DC links.
    pub replication_batching: bool,
}

impl Config {
    /// Returns a builder pre-populated with the defaults of the paper's test-bed.
    pub fn builder() -> ConfigBuilder {
        ConfigBuilder::default()
    }

    /// A small configuration convenient for unit tests: 3 data centers, 4 partitions,
    /// sub-millisecond latencies.
    pub fn small_test() -> Config {
        Config::builder()
            .num_replicas(3)
            .num_partitions(4)
            .latency(LatencyMatrix::uniform(
                3,
                Duration::from_micros(100),
                Duration::from_millis(5),
            ))
            .build()
            .expect("small test config is valid")
    }

    /// The configuration of the paper's evaluation test-bed (§V-A): 3 data centers with
    /// AWS-like latencies and 32 partitions per data center.
    pub fn paper_testbed() -> Config {
        Config::builder()
            .num_replicas(3)
            .num_partitions(32)
            .latency(LatencyMatrix::aws_three_dc())
            .build()
            .expect("paper test-bed config is valid")
    }

    /// Iterator over all replica ids of the deployment.
    pub fn replicas(&self) -> impl Iterator<Item = ReplicaId> {
        (0..self.num_replicas).map(ReplicaId::from)
    }

    /// Iterator over all partition ids of the deployment.
    pub fn partitions(&self) -> impl Iterator<Item = crate::PartitionId> {
        (0..self.num_partitions).map(crate::PartitionId::from)
    }

    /// Iterator over every server id of the deployment.
    pub fn servers(&self) -> impl Iterator<Item = crate::ServerId> + '_ {
        self.replicas()
            .flat_map(move |r| self.partitions().map(move |p| crate::ServerId::new(r, p)))
    }

    /// Total number of servers (`M * N`).
    pub fn num_servers(&self) -> usize {
        self.num_replicas * self.num_partitions
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.num_replicas == 0 {
            return Err(Error::InvalidConfig {
                reason: "num_replicas must be at least 1".into(),
            });
        }
        if self.num_replicas > u16::MAX as usize {
            return Err(Error::InvalidConfig {
                reason: format!("num_replicas {} exceeds u16::MAX", self.num_replicas),
            });
        }
        if self.num_partitions == 0 {
            return Err(Error::InvalidConfig {
                reason: "num_partitions must be at least 1".into(),
            });
        }
        if self.heartbeat_interval.is_zero() {
            return Err(Error::InvalidConfig {
                reason: "heartbeat_interval must be positive".into(),
            });
        }
        if self.worker_lanes == 0 {
            return Err(Error::InvalidConfig {
                reason: "worker_lanes must be at least 1".into(),
            });
        }
        if self.storage_shards == 0 {
            return Err(Error::InvalidConfig {
                reason: "storage_shards must be at least 1".into(),
            });
        }
        if self.stabilization_interval.is_zero() {
            return Err(Error::InvalidConfig {
                reason: "stabilization_interval must be positive".into(),
            });
        }
        self.latency.validate(self.num_replicas)
    }
}

impl Default for Config {
    fn default() -> Self {
        Config::paper_testbed()
    }
}

/// Builder for [`Config`].
#[derive(Clone, Debug)]
pub struct ConfigBuilder {
    num_replicas: usize,
    num_partitions: usize,
    heartbeat_interval: Duration,
    stabilization_interval: Duration,
    ha_stabilization_interval: Duration,
    gc_interval: Duration,
    partition_detection_timeout: Duration,
    latency: Option<LatencyMatrix>,
    storage_shards: usize,
    worker_lanes: usize,
    replication_batching: bool,
}

impl Default for ConfigBuilder {
    fn default() -> Self {
        ConfigBuilder {
            num_replicas: 3,
            num_partitions: 32,
            heartbeat_interval: Duration::from_millis(1),
            stabilization_interval: Duration::from_millis(5),
            ha_stabilization_interval: Duration::from_millis(500),
            gc_interval: Duration::from_millis(100),
            partition_detection_timeout: Duration::from_secs(2),
            latency: None,
            storage_shards: 8,
            worker_lanes: 1,
            replication_batching: false,
        }
    }
}

impl ConfigBuilder {
    /// Sets the number of data centers `M`.
    pub fn num_replicas(mut self, n: usize) -> Self {
        self.num_replicas = n;
        self
    }

    /// Sets the number of partitions `N`.
    pub fn num_partitions(mut self, n: usize) -> Self {
        self.num_partitions = n;
        self
    }

    /// Sets the heartbeat interval `∆`.
    pub fn heartbeat_interval(mut self, d: Duration) -> Self {
        self.heartbeat_interval = d;
        self
    }

    /// Sets Cure's stabilization interval.
    pub fn stabilization_interval(mut self, d: Duration) -> Self {
        self.stabilization_interval = d;
        self
    }

    /// Sets HA-POCC's (infrequent) stabilization interval.
    pub fn ha_stabilization_interval(mut self, d: Duration) -> Self {
        self.ha_stabilization_interval = d;
        self
    }

    /// Sets the garbage-collection exchange interval.
    pub fn gc_interval(mut self, d: Duration) -> Self {
        self.gc_interval = d;
        self
    }

    /// Sets how long a blocked request may wait before the server suspects a partition.
    pub fn partition_detection_timeout(mut self, d: Duration) -> Self {
        self.partition_detection_timeout = d;
        self
    }

    /// Sets the network latency matrix.
    pub fn latency(mut self, latency: LatencyMatrix) -> Self {
        self.latency = Some(latency);
        self
    }

    /// Sets the number of worker lanes per server of the threaded runtime.
    pub fn worker_lanes(mut self, n: usize) -> Self {
        self.worker_lanes = n;
        self
    }

    /// Sets the number of key-hashed shards per partition store (`1` = unsharded).
    pub fn storage_shards(mut self, n: usize) -> Self {
        self.storage_shards = n;
        self
    }

    /// Enables or disables per-destination batching of replication and GC traffic.
    pub fn replication_batching(mut self, yes: bool) -> Self {
        self.replication_batching = yes;
        self
    }

    /// Builds and validates the configuration.
    pub fn build(self) -> Result<Config> {
        let latency = self.latency.unwrap_or_else(|| {
            if self.num_replicas == 3 {
                LatencyMatrix::aws_three_dc()
            } else {
                LatencyMatrix::uniform(
                    self.num_replicas,
                    Duration::from_micros(250),
                    Duration::from_millis(50),
                )
            }
        });
        let config = Config {
            num_replicas: self.num_replicas,
            num_partitions: self.num_partitions,
            heartbeat_interval: self.heartbeat_interval,
            stabilization_interval: self.stabilization_interval,
            ha_stabilization_interval: self.ha_stabilization_interval,
            gc_interval: self.gc_interval,
            partition_detection_timeout: self.partition_detection_timeout,
            latency,
            storage_shards: self.storage_shards,
            worker_lanes: self.worker_lanes,
            replication_batching: self.replication_batching,
        };
        config.validate()?;
        Ok(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_matches_paper_testbed() {
        let c = Config::default();
        assert_eq!(c.num_replicas, 3);
        assert_eq!(c.num_partitions, 32);
        assert_eq!(c.heartbeat_interval, Duration::from_millis(1));
        assert_eq!(c.stabilization_interval, Duration::from_millis(5));
        c.validate().unwrap();
    }

    #[test]
    fn builder_overrides_fields() {
        let c = Config::builder()
            .num_replicas(5)
            .num_partitions(8)
            .heartbeat_interval(Duration::from_millis(2))
            .stabilization_interval(Duration::from_millis(10))
            .build()
            .unwrap();
        assert_eq!(c.num_replicas, 5);
        assert_eq!(c.num_partitions, 8);
        assert_eq!(c.heartbeat_interval, Duration::from_millis(2));
        // A uniform latency matrix is synthesised for non-3-DC deployments.
        assert_eq!(c.latency.num_replicas(), 5);
    }

    #[test]
    fn storage_and_batching_knobs_round_trip() {
        let c = Config::builder()
            .storage_shards(4)
            .replication_batching(true)
            .build()
            .unwrap();
        assert_eq!(c.storage_shards, 4);
        assert!(c.replication_batching);
        let d = Config::default();
        assert_eq!(d.storage_shards, 8);
        assert!(!d.replication_batching, "batching is opt-in");
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(Config::builder().num_replicas(0).build().is_err());
        assert!(Config::builder().num_partitions(0).build().is_err());
        assert!(Config::builder().storage_shards(0).build().is_err());
        assert!(Config::builder().worker_lanes(0).build().is_err());
        assert!(Config::builder()
            .heartbeat_interval(Duration::ZERO)
            .build()
            .is_err());
        assert!(Config::builder()
            .stabilization_interval(Duration::ZERO)
            .build()
            .is_err());
        assert!(Config::builder()
            .num_replicas(2)
            .latency(LatencyMatrix::uniform(
                3,
                Duration::from_micros(1),
                Duration::from_millis(1)
            ))
            .build()
            .is_err());
    }

    #[test]
    fn latency_matrix_lookup() {
        let m = LatencyMatrix::aws_three_dc();
        assert_eq!(m.num_replicas(), 3);
        assert_eq!(m.between(ReplicaId(0), ReplicaId(0)), m.intra_dc);
        assert_eq!(
            m.between(ReplicaId(0), ReplicaId(2)),
            Duration::from_millis(70)
        );
        assert_eq!(m.max_inter_dc(), Duration::from_millis(70));
    }

    #[test]
    fn uniform_matrix_is_symmetric_with_zero_diagonal() {
        let m = LatencyMatrix::uniform(4, Duration::from_micros(1), Duration::from_millis(10));
        for i in 0..4u16 {
            for j in 0..4u16 {
                let d = m.between(ReplicaId(i), ReplicaId(j));
                if i == j {
                    assert_eq!(d, Duration::from_micros(1));
                } else {
                    assert_eq!(d, Duration::from_millis(10));
                    assert_eq!(d, m.between(ReplicaId(j), ReplicaId(i)));
                }
            }
        }
    }

    #[test]
    fn iterators_cover_the_deployment() {
        let c = Config::small_test();
        assert_eq!(c.replicas().count(), 3);
        assert_eq!(c.partitions().count(), 4);
        assert_eq!(c.servers().count(), 12);
        assert_eq!(c.num_servers(), 12);
    }

    #[test]
    fn every_field_has_an_architecture_row() {
        // The destructuring lists every field without `..`, so a new field does not
        // compile until it is named here and so checked for its row.
        macro_rules! fields {
            ($($field:ident),*) => {{
                let Config { $($field: _),* } = Config::default();
                [$(stringify!($field)),*]
            }};
        }
        let fields = fields!(
            num_replicas,
            num_partitions,
            heartbeat_interval,
            stabilization_interval,
            ha_stabilization_interval,
            gc_interval,
            partition_detection_timeout,
            latency,
            storage_shards,
            worker_lanes,
            replication_batching
        );
        let architecture = include_str!("../../../ARCHITECTURE.md");
        for field in fields {
            assert!(
                architecture.contains(&format!("| `{field}` |")),
                "ARCHITECTURE.md has no `Config` row for `{field}`"
            );
        }
    }
}
