//! Simulation configuration.

use crate::chaos::{ChaosSchedule, ChaosStep};
use pocc_exec::ProtocolKind;
use pocc_types::Config;
use pocc_workload::WorkloadMix;
use std::time::Duration;

/// Full configuration of one simulation run.
#[derive(Clone, Debug)]
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
    /// Size in bytes of the values clients write (8 in the paper's workloads).
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
    /// Random jitter added to network latencies, as a fraction of the base latency.
    pub network_jitter: f64,
    /// RNG seed controlling workload, jitter and clock skew.
    pub seed: u64,
    /// Whether to run the exact causal-consistency checker (expensive; intended for the
    /// small configurations used by tests).
    pub check_consistency: bool,
    /// Scripted faults: partitions and heals, lag spikes, drop/duplication windows and
    /// restarts, all at fixed points in simulated time.
    pub chaos: ChaosSchedule,
}

impl SimConfig {
    /// A builder initialised with the paper's test-bed defaults scaled down to a quick run.
    pub fn builder() -> SimConfigBuilder {
        SimConfigBuilder::default()
    }

    /// Total number of clients in the deployment.
    pub fn total_clients(&self) -> usize {
        self.clients_per_partition * self.deployment.num_partitions * self.deployment.num_replicas
    }

    /// Total simulated time (warm-up + measured window + drain).
    pub fn total_time(&self) -> Duration {
        self.warmup + self.duration + self.drain
    }
}

/// Builder for [`SimConfig`].
#[derive(Clone, Debug)]
pub struct SimConfigBuilder {
    deployment: Option<Config>,
    partitions: usize,
    replicas: usize,
    max_clock_skew: Duration,
    op_service_time: Duration,
    protocol: ProtocolKind,
    clients_per_partition: usize,
    mix: WorkloadMix,
    zipf_theta: f64,
    keys_per_partition: u64,
    value_size: usize,
    think_time: Duration,
    warmup: Duration,
    duration: Duration,
    drain: Duration,
    network_jitter: f64,
    seed: u64,
    check_consistency: bool,
    chaos: ChaosSchedule,
}

impl Default for SimConfigBuilder {
    fn default() -> Self {
        SimConfigBuilder {
            deployment: None,
            partitions: 8,
            replicas: 3,
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
            network_jitter: 0.05,
            seed: 1,
            check_consistency: false,
            chaos: ChaosSchedule::new(),
        }
    }
}

impl SimConfigBuilder {
    /// Uses a fully specified deployment configuration (overrides `partitions`/`replicas`).
    pub fn deployment(mut self, config: Config) -> Self {
        self.deployment = Some(config);
        self
    }

    /// Number of partitions per data center.
    pub fn partitions(mut self, n: usize) -> Self {
        self.partitions = n;
        self
    }

    /// Number of data centers.
    pub fn replicas(mut self, n: usize) -> Self {
        self.replicas = n;
        self
    }

    /// Maximum absolute clock offset of any server from true time.
    pub fn max_clock_skew(mut self, d: Duration) -> Self {
        self.max_clock_skew = d;
        self
    }

    /// CPU service time of a GET, PUT or transaction slice.
    pub fn op_service_time(mut self, d: Duration) -> Self {
        self.op_service_time = d;
        self
    }

    /// Which protocol to run.
    pub fn protocol(mut self, p: ProtocolKind) -> Self {
        self.protocol = p;
        self
    }

    /// Closed-loop clients per (data center, partition) pair.
    pub fn clients_per_partition(mut self, n: usize) -> Self {
        self.clients_per_partition = n;
        self
    }

    /// The workload mix.
    pub fn mix(mut self, mix: WorkloadMix) -> Self {
        self.mix = mix;
        self
    }

    /// Zipfian exponent.
    pub fn zipf_theta(mut self, theta: f64) -> Self {
        self.zipf_theta = theta;
        self
    }

    /// Keys per partition.
    pub fn keys_per_partition(mut self, n: u64) -> Self {
        self.keys_per_partition = n;
        self
    }

    /// Size in bytes of the values clients write.
    pub fn value_size(mut self, bytes: usize) -> Self {
        assert!(bytes > 0, "value_size must be at least 1 byte");
        self.value_size = bytes;
        self
    }

    /// Client think time.
    pub fn think_time(mut self, d: Duration) -> Self {
        self.think_time = d;
        self
    }

    /// Warm-up period.
    pub fn warmup(mut self, d: Duration) -> Self {
        self.warmup = d;
        self
    }

    /// Measured run length.
    pub fn duration(mut self, d: Duration) -> Self {
        self.duration = d;
        self
    }

    /// Drain period after the measured window.
    pub fn drain(mut self, d: Duration) -> Self {
        self.drain = d;
        self
    }

    /// Network latency jitter fraction.
    pub fn network_jitter(mut self, fraction: f64) -> Self {
        self.network_jitter = fraction;
        self
    }

    /// RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables the exact causal-consistency checker.
    pub fn check_consistency(mut self, yes: bool) -> Self {
        self.check_consistency = yes;
        self
    }

    /// Installs a full chaos schedule (replaces any previously added steps).
    pub fn chaos(mut self, schedule: ChaosSchedule) -> Self {
        self.chaos = schedule;
        self
    }

    /// Adds one chaos step to the schedule.
    pub fn chaos_step(mut self, step: ChaosStep) -> Self {
        self.chaos.steps.push(step);
        self
    }

    /// Builds the configuration.
    pub fn build(self) -> SimConfig {
        let deployment = self.deployment.unwrap_or_else(|| {
            Config::builder()
                .num_replicas(self.replicas)
                .num_partitions(self.partitions)
                .build()
                .expect("simulation deployment config is valid")
        });
        SimConfig {
            deployment,
            max_clock_skew: self.max_clock_skew,
            op_service_time: self.op_service_time,
            protocol: self.protocol,
            clients_per_partition: self.clients_per_partition,
            mix: self.mix,
            zipf_theta: self.zipf_theta,
            keys_per_partition: self.keys_per_partition,
            value_size: self.value_size,
            think_time: self.think_time,
            warmup: self.warmup,
            duration: self.duration,
            drain: self.drain,
            network_jitter: self.network_jitter,
            seed: self.seed,
            check_consistency: self.check_consistency,
            chaos: self.chaos,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pocc_types::ReplicaId;

    #[test]
    fn builder_defaults_are_reasonable() {
        let cfg = SimConfig::builder().build();
        assert_eq!(cfg.deployment.num_replicas, 3);
        assert_eq!(cfg.deployment.num_partitions, 8);
        assert_eq!(cfg.protocol, ProtocolKind::Pocc);
        assert_eq!(cfg.total_clients(), 3 * 8 * 4);
        assert_eq!(
            cfg.total_time(),
            Duration::from_millis(200) + Duration::from_secs(1) + Duration::from_millis(300)
        );
    }

    #[test]
    fn builder_overrides_apply() {
        let cfg = SimConfig::builder()
            .partitions(2)
            .replicas(2)
            .protocol(ProtocolKind::Cure)
            .clients_per_partition(1)
            .keys_per_partition(50)
            .seed(9)
            .check_consistency(true)
            .max_clock_skew(Duration::from_millis(2))
            .op_service_time(Duration::from_micros(100))
            .build();
        assert_eq!(cfg.deployment.num_partitions, 2);
        assert_eq!(cfg.protocol, ProtocolKind::Cure);
        assert_eq!(cfg.total_clients(), 4);
        assert!(cfg.check_consistency);
        assert_eq!(cfg.max_clock_skew, Duration::from_millis(2));
        assert_eq!(cfg.op_service_time, Duration::from_micros(100));
    }

    #[test]
    fn explicit_deployment_takes_precedence() {
        let deployment = Config::builder()
            .num_replicas(2)
            .num_partitions(5)
            .build()
            .unwrap();
        let cfg = SimConfig::builder()
            .partitions(99)
            .deployment(deployment)
            .build();
        assert_eq!(cfg.deployment.num_partitions, 5);
    }

    #[test]
    fn chaos_builder_installs_and_extends_schedules() {
        let cfg = SimConfig::builder()
            .chaos_step(ChaosStep::LagSpike {
                at: Duration::from_millis(10),
                until: Duration::from_millis(30),
                a: ReplicaId(0),
                b: ReplicaId(1),
                extra: Duration::from_millis(15),
            })
            .chaos_step(ChaosStep::Restart {
                at: Duration::from_millis(40),
                replica: ReplicaId(2),
                outage: Duration::from_millis(10),
            })
            .build();
        assert_eq!(cfg.chaos.steps.len(), 2);
        assert!(cfg.chaos.ends_by(Duration::from_millis(50)));

        let schedule = ChaosSchedule::new().step(ChaosStep::DropWindow {
            at: Duration::from_millis(5),
            until: Duration::from_millis(25),
            a: ReplicaId(0),
            b: ReplicaId(2),
        });
        let cfg = SimConfig::builder()
            .chaos_step(ChaosStep::Heal {
                at: Duration::ZERO,
                a: ReplicaId(0),
                b: ReplicaId(1),
            })
            .chaos(schedule.clone())
            .build();
        assert_eq!(cfg.chaos, schedule, "chaos() replaces earlier steps");
        assert!(SimConfig::builder().build().chaos.is_empty());
    }
}
