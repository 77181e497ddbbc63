//! The scenario-driven benchmark harness of the POCC reproduction.
//!
//! Every evidence-producing run goes through one pipeline:
//!
//! * [`scenarios`] — a named registry of benchmark scenarios: the paper's figures
//!   (Fig. 1–3), the timer/sharding ablations, and workloads beyond the paper (hot-key
//!   skew, large values, read/write-heavy mixes, transaction-size sweeps, a
//!   partition-and-heal fault scenario). Each scenario expands to a list of
//!   fully-specified simulation points at a chosen [`Scale`].
//! * [`json`] — the versioned, machine-readable `BENCH_<scenario>.json` schema
//!   ([`json::SCHEMA_VERSION`]), plus the offline JSON writer/parser and the schema
//!   validator the runner and CI use.
//! * [`compare`] — regression detection between two benchmark reports (used by CI to
//!   diff a fresh smoke run against the checked-in `BENCH_baseline.json`).
//! * [`digest`] — one behaviour digest per scenario point, collected into the versioned
//!   `DIGESTS.json` corpus; `compare_bench --digests` diffs two corpora and CI runs that
//!   diff as a blocking drift gate.
//! * [`loadgen`] — the open-loop load generator behind the `loadgen` binary: drives the
//!   cluster runtime (channel or TCP transport) on a fixed arrival schedule with
//!   pipelined connections and coordinated-omission-safe latency capture, reporting
//!   through the same `BENCH_*.json` schema.
//!
//! The `runner` binary drives it all: `cargo run --release -p pocc-bench --bin runner --
//! --scenario <name> --out BENCH_<name>.json`. The simulator is deterministic, so the
//! same scenario at the same scale produces byte-identical JSON on every machine.
//!
//! Three scales are supported, selected by `--scale`:
//!
//! * `smoke` — a tiny deployment (2 partitions, sub-second windows) that runs every
//!   scenario in seconds; used by the CI `bench-smoke` gate and the scenario tests;
//! * `quick` (default) — a scaled-down deployment (8 partitions, shorter runs) that
//!   finishes in a couple of minutes per figure and reproduces the *shape* of every
//!   figure;
//! * `full` — the paper's deployment size (32 partitions per DC, 1 M keys per
//!   partition, longer measurement windows). Expect long run times.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod digest;
pub mod json;
pub mod loadgen;
pub mod scenarios;

use pocc_sim::{ProtocolKind, SimConfig};
use pocc_workload::WorkloadMix;
use std::time::Duration;

/// The sweep scale, selected by `--scale`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// Tiny deployment for CI smoke runs and tests; seconds of wall-clock for the whole
    /// scenario registry.
    Smoke,
    /// Scaled-down deployment; minutes of wall-clock time for the whole figure set.
    Quick,
    /// The paper's deployment dimensions; hours of wall-clock time.
    Full,
}

impl Scale {
    /// Parses a scale name (case-insensitive).
    pub fn parse(name: &str) -> Option<Scale> {
        match name.to_ascii_lowercase().as_str() {
            "smoke" => Some(Scale::Smoke),
            "quick" => Some(Scale::Quick),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }

    /// The lower-case name of the scale, as it appears in `BENCH_*.json`.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Smoke => "smoke",
            Scale::Quick => "quick",
            Scale::Full => "full",
        }
    }

    /// Number of partitions per data center at this scale (the paper uses 32).
    pub fn max_partitions(self) -> usize {
        match self {
            Scale::Smoke => 2,
            Scale::Quick => 8,
            Scale::Full => 32,
        }
    }

    /// Keys per partition at this scale, via the key-space presets (the paper uses one
    /// million; the smoke preset is small enough that hot keys collide often).
    pub fn keys_per_partition(self) -> u64 {
        match self {
            Scale::Smoke => pocc_workload::KeySpace::smoke(1).keys_per_partition(),
            Scale::Quick => 10_000,
            Scale::Full => pocc_workload::KeySpace::paper(1).keys_per_partition(),
        }
    }

    /// Measured window per point.
    pub fn duration(self) -> Duration {
        match self {
            Scale::Smoke => Duration::from_millis(250),
            Scale::Quick => Duration::from_secs(1),
            Scale::Full => Duration::from_secs(10),
        }
    }

    /// Warm-up per point.
    pub fn warmup(self) -> Duration {
        match self {
            Scale::Smoke => Duration::from_millis(80),
            Scale::Quick => Duration::from_millis(300),
            Scale::Full => Duration::from_secs(2),
        }
    }

    /// Drain period after the measured window.
    pub fn drain(self) -> Duration {
        match self {
            Scale::Smoke | Scale::Quick => Duration::from_millis(200),
            Scale::Full => Duration::from_millis(500),
        }
    }

    /// Client think time between operations (25 ms in the paper; smoke runs shrink it so
    /// a handful of clients still produce thousands of samples per sub-second window).
    pub fn think_time(self) -> Duration {
        match self {
            Scale::Smoke => Duration::from_millis(2),
            Scale::Quick | Scale::Full => Duration::from_millis(25),
        }
    }
}

/// The deployment used by the scenarios at the given partition count: 3 data centers
/// with AWS-like latencies and the paper's protocol timers.
pub fn deployment(partitions: usize) -> pocc_types::Config {
    pocc_types::Config::builder()
        .num_replicas(3)
        .num_partitions(partitions)
        .build()
        .expect("benchmark deployment is valid")
}

/// One point of a sweep: a fully-specified simulation configuration. The per-request CPU
/// service time is chosen so that the scaled-down deployment saturates within the client
/// counts the sweeps use (the full scale uses a faster per-op cost, matching the larger
/// fleet).
pub fn point(scale: Scale, protocol: ProtocolKind) -> SimConfig {
    SimConfig {
        protocol,
        deployment: deployment(scale.max_partitions()),
        op_service_time: match scale {
            Scale::Smoke | Scale::Quick => Duration::from_micros(100),
            Scale::Full => Duration::from_micros(40),
        },
        keys_per_partition: scale.keys_per_partition(),
        zipf_theta: 0.99,
        think_time: scale.think_time(),
        warmup: scale.warmup(),
        duration: scale.duration(),
        drain: scale.drain(),
        seed: 42,
        ..SimConfig::default()
    }
}

/// Convenience: the GET:PUT mix of §V-B with `n` GETs per PUT.
pub fn get_put(n: usize) -> WorkloadMix {
    WorkloadMix::GetPut { gets_per_put: n }
}

/// Convenience: the transactional mix of §V-C with `p` partitions per RO-TX.
pub fn tx_put(p: usize) -> WorkloadMix {
    WorkloadMix::TxPut {
        partitions_per_tx: p,
    }
}

/// Formats a float with 3 significant decimals.
pub fn fmt_f(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats an ops/sec throughput.
pub fn fmt_tput(v: f64) -> String {
    format!("{:.0}", v)
}

/// Formats a duration in milliseconds with decimals.
pub fn fmt_ms(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_order_by_deployment_size() {
        assert_eq!(Scale::Quick.max_partitions(), 8);
        assert_eq!(Scale::Full.max_partitions(), 32);
        assert_eq!(Scale::Smoke.max_partitions(), 2);
        assert!(Scale::Full.keys_per_partition() > Scale::Quick.keys_per_partition());
    }

    #[test]
    fn scale_names_round_trip() {
        for scale in [Scale::Smoke, Scale::Quick, Scale::Full] {
            assert_eq!(Scale::parse(scale.name()), Some(scale));
        }
        assert_eq!(Scale::parse("SMOKE"), Some(Scale::Smoke));
        assert_eq!(Scale::parse("nope"), None);
    }

    #[test]
    fn formatting_helpers_are_stable() {
        assert_eq!(fmt_tput(1234.56), "1235");
        assert_eq!(fmt_ms(Duration::from_micros(1500)), "1.500");
        assert_eq!(fmt_f(1.23456), "1.235");
    }

    #[test]
    fn point_builder_produces_paper_like_defaults() {
        let cfg = SimConfig {
            clients_per_partition: 2,
            mix: get_put(4),
            ..point(Scale::Quick, ProtocolKind::Pocc)
        };
        assert_eq!(cfg.deployment.num_replicas, 3);
        assert_eq!(cfg.deployment.num_partitions, 8);
        assert_eq!(cfg.think_time, Duration::from_millis(25));
        assert_eq!(cfg.zipf_theta, 0.99);
    }

    #[test]
    fn quick_point_runs_end_to_end() {
        let config = SimConfig {
            deployment: deployment(2),
            clients_per_partition: 1,
            keys_per_partition: 100,
            warmup: Duration::from_millis(50),
            duration: Duration::from_millis(200),
            drain: Duration::from_millis(100),
            mix: get_put(4),
            ..point(Scale::Quick, ProtocolKind::Pocc)
        };
        let report = pocc_sim::Simulation::new(config).run();
        assert!(report.operations_completed > 0);
        assert_eq!(report.partitions, 2);
    }
}
