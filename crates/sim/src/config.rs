//! Simulation configuration.

use crate::chaos::ChaosSchedule;
use pocc_exec::ProtocolKind;
use pocc_types::Config;
use pocc_workload::WorkloadMix;
use std::time::Duration;

/// Full configuration of one simulation run: plain data, varied by struct update on
/// [`SimConfig::default`] (`SimConfig { seed: 7, ..SimConfig::default() }`).
#[derive(Clone, Debug, PartialEq)]
pub struct SimConfig {
    /// The deployment (data centers, partitions, timers, latencies).
    pub deployment: Config,
    /// Maximum absolute physical-clock offset of any server from true time, modelling NTP
    /// synchronisation error.
    pub max_clock_skew: Duration,
    /// CPU time a server spends handling a GET or PUT request (or a transaction slice).
    pub op_service_time: Duration,
    /// Which protocol the servers run.
    pub protocol: ProtocolKind,
    /// Closed-loop clients attached to every (data center, partition) pair.
    pub clients_per_partition: usize,
    /// The workload mix each client runs.
    pub mix: WorkloadMix,
    /// Zipfian exponent for key popularity (0.99 in the paper).
    pub zipf_theta: f64,
    /// Keys per partition (one million in the paper; smaller values are fine for tests).
    pub keys_per_partition: u64,
    /// Size in bytes of the values clients write (8 in the paper's workloads; at least 1).
    pub value_size: usize,
    /// Client think time between operations (25 ms in the paper).
    pub think_time: Duration,
    /// Warm-up period excluded from measurements.
    pub warmup: Duration,
    /// Measured run length (after warm-up).
    pub duration: Duration,
    /// Extra time after the measured window during which clients stop issuing operations
    /// but the servers keep processing, so replication can drain before convergence checks.
    pub drain: Duration,
    /// RNG seed controlling workload, jitter and clock skew.
    pub seed: u64,
    /// Whether to run the exact causal-consistency checker (expensive; intended for the
    /// small configurations used by tests).
    pub check_consistency: bool,
    /// Scripted faults: partitions and heals, lag spikes, drop/duplication windows and
    /// restarts, all at fixed points in simulated time.
    pub chaos: ChaosSchedule,
}

impl Default for SimConfig {
    /// The paper's test-bed scaled down to a quick run: 3 data centers × 8 partitions.
    fn default() -> Self {
        SimConfig {
            deployment: Config::builder()
                .num_replicas(3)
                .num_partitions(8)
                .build()
                .expect("simulation deployment config is valid"),
            max_clock_skew: Duration::from_micros(500),
            op_service_time: Duration::from_micros(40),
            protocol: ProtocolKind::Pocc,
            clients_per_partition: 4,
            mix: WorkloadMix::balanced(),
            zipf_theta: 0.99,
            keys_per_partition: 10_000,
            value_size: 8,
            think_time: Duration::from_millis(25),
            warmup: Duration::from_millis(200),
            duration: Duration::from_secs(1),
            drain: Duration::from_millis(300),
            seed: 1,
            check_consistency: false,
            chaos: ChaosSchedule::new(),
        }
    }
}

impl SimConfig {
    /// Total number of clients in the deployment.
    pub fn total_clients(&self) -> usize {
        self.clients_per_partition * self.deployment.num_partitions * self.deployment.num_replicas
    }

    /// Total simulated time (warm-up + measured window + drain).
    pub fn total_time(&self) -> Duration {
        self.warmup + self.duration + self.drain
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_are_reasonable() {
        let cfg = SimConfig::default();
        assert_eq!(cfg.deployment.num_replicas, 3);
        assert_eq!(cfg.deployment.num_partitions, 8);
        assert_eq!(cfg.protocol, ProtocolKind::Pocc);
        assert_eq!(cfg.total_clients(), 3 * 8 * 4);
        assert_eq!(
            cfg.total_time(),
            Duration::from_millis(200) + Duration::from_secs(1) + Duration::from_millis(300)
        );
        assert!(cfg.chaos.is_empty());
    }

    #[test]
    fn every_field_has_an_architecture_row() {
        // The destructuring lists every field without `..`, so a new field does not
        // compile until it is named here and so checked for its row.
        macro_rules! fields {
            ($($field:ident),*) => {{
                let SimConfig { $($field: _),* } = SimConfig::default();
                [$(stringify!($field)),*]
            }};
        }
        let fields = fields!(
            deployment,
            max_clock_skew,
            op_service_time,
            protocol,
            clients_per_partition,
            mix,
            zipf_theta,
            keys_per_partition,
            value_size,
            think_time,
            warmup,
            duration,
            drain,
            seed,
            check_consistency,
            chaos
        );
        let architecture = include_str!("../../../ARCHITECTURE.md");
        for field in fields {
            assert!(
                architecture.contains(&format!("| `{field}` |")),
                "ARCHITECTURE.md has no `SimConfig` row for `{field}`"
            );
        }
    }
}
