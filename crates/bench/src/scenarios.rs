//! The named-scenario registry: every benchmark run is a scenario from this table.
//!
//! A [`Scenario`] is a named, self-describing sweep: given a [`Scale`] it expands to a
//! list of fully-specified simulation points ([`ScenarioPoint`]), each of which runs one
//! deterministic [`pocc_sim::Simulation`]. The registry covers:
//!
//! * the paper's evaluation figures (`fig1a` … `fig3d`, §V-B/§V-C),
//! * the timer/skew/sharding ablations,
//! * workloads beyond the paper: hot-key zipf skew, large-value payloads,
//!   read-heavy/write-heavy mixes, a transaction-size sweep, and a partition-and-heal
//!   fault scenario driven through `SimNetwork` partitions,
//! * `baseline`: the seed-equivalent configuration (one storage shard, no replication
//!   batching) whose smoke-scale output is checked in as `BENCH_baseline.json` and
//!   compared against fresh runs by CI.
//!
//! Running a scenario yields a [`ScenarioReport`], which serialises to the versioned
//! `BENCH_<name>.json` schema (see [`crate::json`]). Scenarios run through one [`Runs`]
//! simulate a point that several of them plot once.

use crate::json::{Json, SCHEMA_VERSION};
use crate::{deployment, get_put, point, tx_put, Scale};
use pocc_sim::{
    ChaosGen, ChaosSchedule, ChaosStep, ProtocolKind, SimConfig, SimReport, Simulation,
};
use pocc_types::{Config, ReplicaId};
use pocc_workload::WorkloadMix;
use std::time::Duration;

/// The RNG seed every scenario runs with (the sweeps vary parameters, not seeds, so any
/// two runs of the same scenario are comparable sample-for-sample).
pub const SEED: u64 = 42;

/// A named benchmark scenario.
pub struct Scenario {
    /// The registry name (`--scenario <name>`; also the `BENCH_<name>.json` stem).
    pub name: &'static str,
    /// One-line description of what the scenario measures.
    pub title: &'static str,
    /// What the swept `x` of each point means.
    pub x_axis: &'static str,
    points_fn: fn(Scale) -> Vec<ScenarioPoint>,
}

/// One fully-specified point of a scenario sweep.
pub struct ScenarioPoint {
    /// Unique label within the scenario (also the key compare tools align runs by).
    pub label: String,
    /// The swept parameter's value.
    pub x: f64,
    /// The simulation configuration to run.
    pub config: SimConfig,
}

/// The result of one scenario point.
pub struct PointResult {
    /// The point's label.
    pub label: String,
    /// The swept parameter's value.
    pub x: f64,
    /// The configuration that ran.
    pub config: SimConfig,
    /// The simulation report.
    pub report: SimReport,
}

/// The result of a full scenario run; serialises to `BENCH_<name>.json`.
pub struct ScenarioReport {
    /// The scenario's registry name.
    pub scenario: &'static str,
    /// The scenario's description.
    pub title: &'static str,
    /// The meaning of each point's `x`.
    pub x_axis: &'static str,
    /// The scale the scenario ran at.
    pub scale: Scale,
    /// The results, in sweep order.
    pub points: Vec<PointResult>,
}

/// The points simulated so far, with their reports. A simulation is a pure function of
/// its [`SimConfig`], so a point several figures plot (Fig. 2a and 2b read Fig. 1b's
/// runs, Fig. 3c and 3d Fig. 3b's) is simulated once and its report handed to each.
#[derive(Default)]
pub struct Runs(Vec<(SimConfig, SimReport)>);

impl Runs {
    /// The report of `config`'s run, simulated on first request.
    pub fn report(&mut self, config: &SimConfig) -> SimReport {
        if let Some((_, report)) = self.0.iter().find(|(c, _)| c == config) {
            return report.clone();
        }
        let report = Simulation::new(config.clone()).run();
        self.0.push((config.clone(), report.clone()));
        report
    }

    /// How many simulations have run.
    pub fn simulated(&self) -> usize {
        self.0.len()
    }
}

impl Scenario {
    /// The points this scenario expands to at `scale`.
    pub fn points(&self, scale: Scale) -> Vec<ScenarioPoint> {
        (self.points_fn)(scale)
    }

    /// Runs every point of the scenario at `scale`, simulating only the points `runs`
    /// has not seen, and invokes `on_point` after each one (the runner uses this for
    /// progress output; pass `|_| {}` otherwise).
    pub fn run(
        &self,
        scale: Scale,
        runs: &mut Runs,
        mut on_point: impl FnMut(&PointResult),
    ) -> ScenarioReport {
        let mut points = Vec::new();
        for p in self.points(scale) {
            let report = runs.report(&p.config);
            let result = PointResult {
                label: p.label,
                x: p.x,
                config: p.config,
                report,
            };
            on_point(&result);
            points.push(result);
        }
        ScenarioReport {
            scenario: self.name,
            title: self.title,
            x_axis: self.x_axis,
            scale,
            points,
        }
    }
}

impl ScenarioReport {
    /// Serialises the report to the versioned `BENCH_*.json` document.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema_version".into(), Json::u64(SCHEMA_VERSION)),
            ("scenario".into(), Json::str(self.scenario)),
            ("title".into(), Json::str(self.title)),
            ("x_axis".into(), Json::str(self.x_axis)),
            ("scale".into(), Json::str(self.scale.name())),
            ("seed".into(), Json::u64(SEED)),
            (
                "points".into(),
                Json::Arr(self.points.iter().map(point_to_json).collect()),
            ),
        ])
    }
}

fn latency_to_json(stats: &pocc_sim::LatencyStats) -> Json {
    let us = |d: Duration| Json::u64(d.as_micros() as u64);
    Json::Obj(vec![
        ("count".into(), Json::u64(stats.count())),
        ("mean".into(), us(stats.mean())),
        ("p50".into(), us(stats.p50())),
        ("p95".into(), us(stats.p95())),
        ("p99".into(), us(stats.p99())),
        ("p999".into(), us(stats.p999())),
        ("max".into(), us(stats.max())),
    ])
}

fn point_to_json(point: &PointResult) -> Json {
    let cfg = &point.config;
    let r = &point.report;
    let m = &r.server_metrics;
    Json::Obj(vec![
        ("label".into(), Json::str(point.label.clone())),
        ("x".into(), Json::num(point.x)),
        ("protocol".into(), Json::str(r.protocol.to_string())),
        (
            "config".into(),
            Json::Obj(vec![
                ("replicas".into(), Json::u64(r.replicas as u64)),
                ("partitions".into(), Json::u64(r.partitions as u64)),
                ("clients".into(), Json::u64(r.clients as u64)),
                (
                    "storage_shards".into(),
                    Json::u64(cfg.deployment.storage_shards as u64),
                ),
                (
                    "replication_batching".into(),
                    Json::Bool(cfg.deployment.replication_batching),
                ),
                (
                    "keys_per_partition".into(),
                    Json::u64(cfg.keys_per_partition),
                ),
                ("value_size".into(), Json::u64(cfg.value_size as u64)),
                ("zipf_theta".into(), Json::num(cfg.zipf_theta)),
                (
                    "measured_window_s".into(),
                    Json::num(r.measured_window.as_secs_f64()),
                ),
            ]),
        ),
        (
            "throughput_ops_per_sec".into(),
            Json::num(r.throughput_ops_per_sec),
        ),
        (
            "operations".into(),
            Json::Obj(vec![
                ("total".into(), Json::u64(r.operations_completed)),
                ("gets".into(), Json::u64(r.gets_completed)),
                ("puts".into(), Json::u64(r.puts_completed)),
                ("rotx".into(), Json::u64(r.rotx_completed)),
                (
                    "sessions_reinitialized".into(),
                    Json::u64(r.sessions_reinitialized),
                ),
            ]),
        ),
        (
            "latency_us".into(),
            Json::Obj(vec![
                ("all".into(), latency_to_json(&r.latency_all)),
                ("get".into(), latency_to_json(&r.latency_get)),
                ("put".into(), latency_to_json(&r.latency_put)),
                ("rotx".into(), latency_to_json(&r.latency_rotx)),
            ]),
        ),
        (
            "blocking".into(),
            Json::Obj(vec![
                ("probability".into(), Json::num(m.blocking_probability())),
                ("blocked_operations".into(), Json::u64(m.blocked_operations)),
                (
                    "avg_block_time_us".into(),
                    Json::u64(m.avg_block_time().as_micros() as u64),
                ),
                (
                    "clock_wait_time_us".into(),
                    Json::u64(m.clock_wait_time.as_micros() as u64),
                ),
            ]),
        ),
        (
            "staleness".into(),
            Json::Obj(vec![
                ("old_get_fraction".into(), Json::num(m.old_get_fraction())),
                (
                    "unmerged_get_fraction".into(),
                    Json::num(m.unmerged_get_fraction()),
                ),
                ("old_tx_fraction".into(), Json::num(m.old_tx_fraction())),
                (
                    "unmerged_tx_fraction".into(),
                    Json::num(m.unmerged_tx_fraction()),
                ),
                (
                    "stable_fallback_gets".into(),
                    Json::u64(m.stable_fallback_gets),
                ),
            ]),
        ),
        (
            "network".into(),
            Json::Obj(vec![
                ("messages_sent".into(), Json::u64(r.network.messages_sent)),
                ("wan_messages".into(), Json::u64(r.network.wan_messages)),
                ("bytes_sent".into(), Json::u64(r.network.bytes_sent)),
                ("held_messages".into(), Json::u64(r.network.held_messages)),
            ]),
        ),
        (
            "replication".into(),
            Json::Obj(vec![
                ("replicate_sent".into(), Json::u64(m.replicate_sent)),
                ("batches_sent".into(), Json::u64(m.batches_sent)),
                ("heartbeats_sent".into(), Json::u64(m.heartbeats_sent)),
                (
                    "stabilization_messages".into(),
                    Json::u64(m.stabilization_messages),
                ),
                ("gc_messages".into(), Json::u64(m.gc_messages)),
                (
                    "gc_versions_removed".into(),
                    Json::u64(m.gc_versions_removed),
                ),
                ("sessions_aborted".into(), Json::u64(m.sessions_aborted)),
            ]),
        ),
        (
            "store".into(),
            Json::Obj(vec![
                ("keys".into(), Json::u64(r.store.keys as u64)),
                ("versions".into(), Json::u64(r.store.versions as u64)),
                (
                    "max_chain_len".into(),
                    Json::u64(r.store.max_chain_len as u64),
                ),
                ("gc_removed".into(), Json::u64(r.store.gc_removed as u64)),
                ("live_bytes".into(), Json::u64(r.store.live_bytes as u64)),
                (
                    "per_shard_versions".into(),
                    Json::Arr(
                        r.store_shards
                            .iter()
                            .map(|s| Json::u64(s.versions as u64))
                            .collect(),
                    ),
                ),
            ]),
        ),
        (
            "contention".into(),
            Json::Obj(vec![
                (
                    "lane_fast_path_hits".into(),
                    Json::u64(m.lane_fast_path_hits),
                ),
                (
                    "lane_fast_path_misses".into(),
                    Json::u64(m.lane_fast_path_misses),
                ),
                ("spine_acquisitions".into(), Json::u64(m.spine_acquisitions)),
                ("drain_spins".into(), Json::u64(m.drain_spins)),
            ]),
        ),
        (
            "consistency".into(),
            Json::Obj(vec![
                ("violations".into(), Json::u64(r.consistency_violations)),
                ("converged".into(), Json::Bool(r.converged)),
            ]),
        ),
    ])
}

// ---------------------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------------------

/// Every registered scenario, in presentation order.
pub fn all() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "fig1a_scalability",
            title: "Figure 1a: throughput vs number of partitions (GET:PUT = p:1)",
            x_axis: "partitions",
            points_fn: fig1a,
        },
        Scenario {
            name: "fig1b_resptime",
            title: "Figure 1b: avg. response time vs throughput",
            x_axis: "clients_per_partition",
            points_fn: |scale| fig1b(scale, &BOTH),
        },
        Scenario {
            name: "fig1c_write_intensity",
            title: "Figure 1c: throughput vs GET:PUT ratio",
            x_axis: "gets_per_put",
            points_fn: fig1c,
        },
        Scenario {
            name: "fig2a_blocking",
            title: "Figure 2a: POCC blocking probability and blocking time vs load",
            x_axis: "clients_per_partition",
            points_fn: |scale| fig1b(scale, &[ProtocolKind::Pocc]),
        },
        Scenario {
            name: "fig2b_staleness",
            title: "Figure 2b: data staleness in Cure* vs load",
            x_axis: "clients_per_partition",
            points_fn: |scale| fig1b(scale, &[ProtocolKind::Cure]),
        },
        Scenario {
            name: "fig3a_tx_scalability",
            title: "Figure 3a: throughput vs partitions contacted per RO-TX",
            x_axis: "partitions_per_tx",
            points_fn: fig3a,
        },
        Scenario {
            name: "fig3b_tx_clients",
            title: "Figure 3b: throughput and RO-TX response time vs clients per partition",
            x_axis: "clients_per_partition",
            points_fn: |scale| fig3b(scale, &BOTH),
        },
        Scenario {
            name: "fig3c_tx_blocking",
            title: "Figure 3c: POCC blocking under the transactional workload",
            x_axis: "clients_per_partition",
            points_fn: |scale| fig3b(scale, &[ProtocolKind::Pocc]),
        },
        Scenario {
            name: "fig3d_tx_staleness",
            title: "Figure 3d: staleness of transactional reads vs clients per partition",
            x_axis: "clients_per_partition",
            points_fn: |scale| fig3b(scale, &BOTH),
        },
        Scenario {
            name: "ablation_stabilization",
            title: "Ablation: Cure* stabilization interval vs staleness",
            x_axis: "stabilization_interval_ms",
            points_fn: ablation_stabilization,
        },
        Scenario {
            name: "ablation_heartbeat",
            title: "Ablation: POCC heartbeat interval vs blocking",
            x_axis: "heartbeat_interval_ms",
            points_fn: ablation_heartbeat,
        },
        Scenario {
            name: "ablation_clock_skew",
            title: "Ablation: POCC clock skew vs blocking and clock waits",
            x_axis: "max_clock_skew_ms",
            points_fn: ablation_clock_skew,
        },
        Scenario {
            name: "ablation_sharding",
            title: "Ablation: storage shards x replication batching",
            x_axis: "storage_shards",
            points_fn: ablation_sharding,
        },
        Scenario {
            name: "hot_key_skew",
            title: "Hot-key workload: zipf exponent sweep (uniform through super-zipfian)",
            x_axis: "zipf_theta",
            points_fn: |scale| theta_sweep(scale, get_put(scale.max_partitions()), &BOTH),
        },
        Scenario {
            name: "large_values",
            title: "Large-value payloads: value size sweep",
            x_axis: "value_size_bytes",
            points_fn: large_values,
        },
        Scenario {
            name: "read_heavy",
            title: "Read-heavy mix (GET:PUT = 31:1) vs load",
            x_axis: "clients_per_partition",
            points_fn: |scale| load_sweep(scale, WorkloadMix::read_heavy(), &BOTH),
        },
        Scenario {
            name: "write_heavy",
            title: "Write-heavy mix (GET:PUT = 1:1) vs load",
            x_axis: "clients_per_partition",
            points_fn: |scale| load_sweep(scale, WorkloadMix::write_heavy(), &BOTH),
        },
        Scenario {
            name: "tx_size_sweep",
            title: "POCC RO-TX latency vs transaction size",
            x_axis: "partitions_per_tx",
            points_fn: tx_size_sweep,
        },
        Scenario {
            name: "adaptive_vs_pocc",
            title: "Adaptive vs POCC vs Cure*: blocking and staleness under load",
            x_axis: "clients_per_partition",
            points_fn: adaptive_vs_pocc,
        },
        Scenario {
            name: "adaptive_hot_key",
            title: "Adaptive under hot-key churn: zipf exponent sweep with per-key fall-back",
            x_axis: "zipf_theta",
            points_fn: |scale| {
                theta_sweep(
                    scale,
                    get_put(2),
                    &[ProtocolKind::Pocc, ProtocolKind::Adaptive],
                )
            },
        },
        Scenario {
            name: "partition_heal",
            title: "HA-POCC under a WAN partition that heals (SimNetwork fault injection)",
            x_axis: "partition_duration_ms",
            points_fn: partition_heal,
        },
        Scenario {
            name: "chaos_partition_storm",
            title: "Chaos: seeded random partition/lag/drop storms (ChaosGen schedules)",
            x_axis: "chaos_seed",
            points_fn: chaos_partition_storm,
        },
        Scenario {
            name: "chaos_lag_drop",
            title: "Chaos: scripted lag spike + drop window + duplication window, all protocols",
            x_axis: "protocol_index",
            points_fn: chaos_lag_drop,
        },
        Scenario {
            name: "chaos_restart",
            title: "Chaos: whole-DC restart (frozen processing, retained state) vs outage length",
            x_axis: "outage_ms",
            points_fn: chaos_restart,
        },
        Scenario {
            name: "baseline",
            title: "Seed-equivalent configuration (1 shard, no batching): the regression baseline",
            x_axis: "clients_per_partition",
            points_fn: baseline,
        },
    ]
}

/// Looks a scenario up by name.
pub fn find(name: &str) -> Option<Scenario> {
    all().into_iter().find(|s| s.name == name)
}

/// Resolves a list of scenario selectors, preserving selection order and deduplicating.
///
/// A selector is the literal `all`, an exact registry name, or a trailing-`*` prefix
/// glob (`chaos_*`, `fig3*`). A selector that matches nothing is an error — a typo in
/// `--scenario` must not silently select an empty run.
pub fn select(patterns: &[String]) -> Result<Vec<Scenario>, String> {
    let mut selected: Vec<Scenario> = Vec::new();
    for pattern in patterns {
        let matches: Vec<Scenario> = if pattern == "all" {
            all()
        } else if let Some(prefix) = pattern.strip_suffix('*') {
            all()
                .into_iter()
                .filter(|s| s.name.starts_with(prefix))
                .collect()
        } else {
            all().into_iter().filter(|s| s.name == *pattern).collect()
        };
        if matches.is_empty() {
            return Err(format!(
                "no scenario matches {pattern:?} (--list shows the registry)"
            ));
        }
        for scenario in matches {
            if !selected.iter().any(|s| s.name == scenario.name) {
                selected.push(scenario);
            }
        }
    }
    if selected.is_empty() {
        return Err("no scenarios selected".into());
    }
    Ok(selected)
}

// ---------------------------------------------------------------------------------------
// Scenario definitions
// ---------------------------------------------------------------------------------------

const BOTH: [ProtocolKind; 2] = [ProtocolKind::Cure, ProtocolKind::Pocc];

fn label(protocol: ProtocolKind, axis: &str, x: impl std::fmt::Display) -> String {
    format!("{protocol}/{axis}={x}")
}

/// A swept value: printed as is in point labels, plotted as its `x`.
trait Swept: Copy + std::fmt::Display {
    fn x(self) -> f64;
}

impl Swept for usize {
    fn x(self) -> f64 {
        self as f64
    }
}

impl Swept for u64 {
    fn x(self) -> f64 {
        self as f64
    }
}

impl Swept for f64 {
    fn x(self) -> f64 {
        self
    }
}

/// A timer swept in microseconds: labelled in µs, plotted in ms.
#[derive(Clone, Copy)]
struct Micros(u64);

impl std::fmt::Display for Micros {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

impl Swept for Micros {
    fn x(self) -> f64 {
        self.0 as f64 / 1_000.0
    }
}

/// Expands a grid, values in the outer loop and protocols in the inner one: each point is
/// labelled `{protocol}/{axis}={value}` and configured by `config` from the scale's
/// [`point`] for its protocol.
fn sweep<V: Swept>(
    scale: Scale,
    axis: &str,
    values: &[V],
    protocols: &[ProtocolKind],
    config: impl Fn(SimConfig, V) -> SimConfig,
) -> Vec<ScenarioPoint> {
    let mut points = Vec::new();
    for &value in values {
        for &protocol in protocols {
            points.push(ScenarioPoint {
                label: label(protocol, axis, value),
                x: value.x(),
                config: config(point(scale, protocol), value),
            });
        }
    }
    points
}

/// The near-saturation client count used by the throughput-comparison figures.
fn saturating_clients(scale: Scale) -> usize {
    match scale {
        Scale::Smoke => 8,
        Scale::Quick => 256,
        Scale::Full => 192,
    }
}

/// The moderate-load client count used by the ablations and workload scenarios.
fn moderate_clients(scale: Scale) -> usize {
    match scale {
        Scale::Smoke => 6,
        Scale::Quick | Scale::Full => 64,
    }
}

fn fig1a(scale: Scale) -> Vec<ScenarioPoint> {
    let partitions: &[usize] = match scale {
        Scale::Smoke => &[2],
        Scale::Quick => &[2, 4, 8],
        Scale::Full => &[2, 4, 8, 16, 24, 32],
    };
    let clients = saturating_clients(scale);
    sweep(scale, "partitions", partitions, &BOTH, |b, p| SimConfig {
        deployment: deployment(p),
        clients_per_partition: clients,
        mix: get_put(p),
        ..b
    })
}

/// A load sweep under `mix`, shared by Fig. 1b, the read- and write-heavy mixes and
/// `adaptive_vs_pocc`.
fn load_sweep(scale: Scale, mix: WorkloadMix, protocols: &[ProtocolKind]) -> Vec<ScenarioPoint> {
    let clients: &[usize] = match scale {
        Scale::Smoke => &[6],
        Scale::Quick => &[32, 64, 128, 192, 256, 320],
        Scale::Full => &[32, 64, 128, 192, 256, 320, 384],
    };
    sweep(scale, "clients", clients, protocols, |b, c| SimConfig {
        clients_per_partition: c,
        mix,
        ..b
    })
}

/// Fig. 1b's load sweep over the paper's GET:PUT = p:1 mix. Fig. 2a plots the blocking
/// of its POCC points and Fig. 2b the staleness of its Cure\* points.
fn fig1b(scale: Scale, protocols: &[ProtocolKind]) -> Vec<ScenarioPoint> {
    load_sweep(scale, get_put(scale.max_partitions()), protocols)
}

/// The adaptive protocol head-to-head against both ends of the visibility spectrum it
/// interpolates between, over the write-heavier 2:1 mix where remote churn (and thus the
/// per-key fall-back) actually engages.
fn adaptive_vs_pocc(scale: Scale) -> Vec<ScenarioPoint> {
    let protocols = [
        ProtocolKind::Pocc,
        ProtocolKind::Adaptive,
        ProtocolKind::Cure,
    ];
    load_sweep(scale, get_put(2), &protocols)
}

fn fig1c(scale: Scale) -> Vec<ScenarioPoint> {
    let ratios: &[usize] = match scale {
        Scale::Smoke => &[8, 1],
        Scale::Quick => &[8, 4, 2, 1],
        Scale::Full => &[32, 16, 8, 4, 2, 1],
    };
    let clients = saturating_clients(scale);
    sweep(scale, "getput", ratios, &BOTH, |b, ratio| SimConfig {
        clients_per_partition: clients,
        mix: get_put(ratio),
        ..b
    })
}

fn fig3a(scale: Scale) -> Vec<ScenarioPoint> {
    let sizes: &[usize] = match scale {
        Scale::Smoke => &[2],
        Scale::Quick => &[2, 4, 6, 8],
        Scale::Full => &[2, 4, 8, 16, 24, 32],
    };
    let clients = match scale {
        Scale::Smoke => 6,
        Scale::Quick => 96,
        Scale::Full => 64,
    };
    sweep(scale, "txsize", sizes, &BOTH, |b, p| SimConfig {
        clients_per_partition: clients,
        mix: tx_put(p),
        ..b
    })
}

/// Fig. 3b's transactional load sweep, each RO-TX reading half the partitions. Fig. 3c
/// plots the blocking of its POCC points and Fig. 3d the staleness of all of them.
fn fig3b(scale: Scale, protocols: &[ProtocolKind]) -> Vec<ScenarioPoint> {
    let clients: &[usize] = match scale {
        Scale::Smoke => &[6],
        Scale::Quick => &[16, 32, 64, 96, 128, 192],
        Scale::Full => &[40, 80, 120, 160, 200],
    };
    let tx_size = (scale.max_partitions() / 2).max(1);
    sweep(scale, "clients", clients, protocols, |b, c| SimConfig {
        clients_per_partition: c,
        mix: tx_put(tx_size),
        ..b
    })
}

fn ablation_stabilization(scale: Scale) -> Vec<ScenarioPoint> {
    let stabs: &[u64] = match scale {
        Scale::Smoke => &[5, 50],
        Scale::Quick | Scale::Full => &[1, 5, 20, 50],
    };
    let p = scale.max_partitions();
    let clients = moderate_clients(scale);
    sweep(scale, "stab_ms", stabs, &[ProtocolKind::Cure], |b, ms| {
        SimConfig {
            deployment: Config {
                stabilization_interval: Duration::from_millis(ms),
                ..deployment(p)
            },
            clients_per_partition: clients,
            mix: get_put(p),
            ..b
        }
    })
}

fn ablation_heartbeat(scale: Scale) -> Vec<ScenarioPoint> {
    let hbs: &[Micros] = match scale {
        Scale::Smoke => &[Micros(1_000), Micros(10_000)],
        Scale::Quick | Scale::Full => &[Micros(500), Micros(1_000), Micros(5_000), Micros(10_000)],
    };
    let p = scale.max_partitions();
    let clients = moderate_clients(scale);
    sweep(scale, "hb_us", hbs, &[ProtocolKind::Pocc], |b, hb| {
        SimConfig {
            deployment: Config {
                heartbeat_interval: Duration::from_micros(hb.0),
                ..deployment(p)
            },
            clients_per_partition: clients,
            mix: get_put(p),
            ..b
        }
    })
}

fn ablation_clock_skew(scale: Scale) -> Vec<ScenarioPoint> {
    let skews: &[Micros] = match scale {
        Scale::Smoke => &[Micros(0), Micros(2_000)],
        Scale::Quick | Scale::Full => &[Micros(0), Micros(500), Micros(2_000), Micros(5_000)],
    };
    let p = scale.max_partitions();
    let clients = moderate_clients(scale);
    sweep(scale, "skew_us", skews, &[ProtocolKind::Pocc], |b, skew| {
        SimConfig {
            max_clock_skew: Duration::from_micros(skew.0),
            clients_per_partition: clients,
            mix: get_put(p),
            ..b
        }
    })
}

fn ablation_sharding(scale: Scale) -> Vec<ScenarioPoint> {
    let shard_counts: Vec<usize> = match scale {
        Scale::Smoke => vec![1, 8],
        Scale::Quick => vec![1, 2, 8],
        Scale::Full => vec![1, 4, 16],
    };
    // Deliberately write-heavy (GET:PUT = 2:1) at the deleted ablation bin's client
    // count, so replication volume and store-insert pressure — the things sharding and
    // batching exist for — dominate the run instead of read service time.
    let clients = match scale {
        Scale::Smoke => 6,
        Scale::Quick | Scale::Full => 24,
    };
    let mut points = Vec::new();
    for &shards in &shard_counts {
        for batching in [false, true] {
            points.push(ScenarioPoint {
                label: format!("POCC/shards={shards}/batching={batching}"),
                x: shards as f64,
                config: SimConfig {
                    deployment: Config {
                        storage_shards: shards,
                        replication_batching: batching,
                        ..deployment(scale.max_partitions())
                    },
                    clients_per_partition: clients,
                    mix: get_put(2),
                    ..point(scale, ProtocolKind::Pocc)
                },
            });
        }
    }
    points
}

/// A zipf-exponent sweep at moderate load: uniform through super-zipfian. Under
/// Adaptive, the hotter the head of the distribution, the more keys cross the churn
/// threshold and the closer the protocol moves to Cure\*'s stable reads, while the long
/// tail keeps POCC freshness.
fn theta_sweep(scale: Scale, mix: WorkloadMix, protocols: &[ProtocolKind]) -> Vec<ScenarioPoint> {
    let thetas: &[f64] = match scale {
        Scale::Smoke => &[0.5, 1.2],
        Scale::Quick | Scale::Full => &[0.0, 0.5, 0.8, 0.99, 1.2],
    };
    let clients = moderate_clients(scale);
    sweep(scale, "theta", thetas, protocols, |b, theta| SimConfig {
        clients_per_partition: clients,
        zipf_theta: theta,
        mix,
        ..b
    })
}

fn large_values(scale: Scale) -> Vec<ScenarioPoint> {
    let sizes: &[usize] = match scale {
        Scale::Smoke => &[8, 1024],
        Scale::Quick | Scale::Full => &[8, 128, 1024, 8192],
    };
    let clients = moderate_clients(scale);
    // A write-heavier 4:1 mix so replicated payload bytes dominate the wire.
    sweep(scale, "bytes", sizes, &[ProtocolKind::Pocc], |b, size| {
        SimConfig {
            clients_per_partition: clients,
            value_size: size,
            mix: get_put(4),
            ..b
        }
    })
}

fn tx_size_sweep(scale: Scale) -> Vec<ScenarioPoint> {
    let sizes: &[usize] = match scale {
        Scale::Smoke => &[1, 2],
        Scale::Quick => &[1, 2, 4, 8],
        Scale::Full => &[1, 2, 4, 8, 16, 32],
    };
    let clients = match scale {
        Scale::Smoke => 6,
        Scale::Quick | Scale::Full => 48,
    };
    sweep(scale, "txsize", sizes, &[ProtocolKind::Pocc], |b, size| {
        SimConfig {
            clients_per_partition: clients,
            mix: tx_put(size),
            ..b
        }
    })
}

fn partition_heal(scale: Scale) -> Vec<ScenarioPoint> {
    let durations_ms: Vec<u64> = match scale {
        Scale::Smoke => vec![0, 120],
        Scale::Quick | Scale::Full => vec![0, 100, 250],
    };
    let p = scale.max_partitions();
    let clients = moderate_clients(scale);
    // The partition opens a quarter into the measured window and heals `dur` later; the
    // extended drain gives held WAN traffic time to deliver so the run still converges.
    let partitioned = |base: SimConfig, dur: Duration| {
        let at = scale.warmup() + scale.duration() / 4;
        let chaos = if dur.is_zero() {
            ChaosSchedule::new()
        } else {
            ChaosSchedule::new()
                .step(ChaosStep::Partition {
                    at,
                    a: ReplicaId(0),
                    b: ReplicaId(1),
                })
                .step(ChaosStep::Heal {
                    at: at + dur,
                    a: ReplicaId(0),
                    b: ReplicaId(1),
                })
        };
        SimConfig {
            clients_per_partition: clients,
            drain: scale.drain() + Duration::from_millis(300),
            chaos,
            ..base
        }
    };
    let mut points: Vec<ScenarioPoint> = durations_ms
        .into_iter()
        .map(|dur_ms| ScenarioPoint {
            label: label(ProtocolKind::HaPocc, "partition_ms", dur_ms),
            x: dur_ms as f64,
            config: partitioned(
                SimConfig {
                    mix: get_put(p),
                    ..point(scale, ProtocolKind::HaPocc)
                },
                Duration::from_millis(dur_ms),
            ),
        })
        .collect();
    // The default detection timeout outlasts every partition above, so none of those
    // points ever leaves optimistic mode. This one lowers the timeout below the partition
    // and runs transactions, so the fall-back's writes and RO-TXs, its session closes and
    // the recovery all show in the run, under the exact causal checker.
    let dur = scale.duration() / 2;
    let deployment = Config {
        partition_detection_timeout: scale.duration() / 5,
        ..deployment(p)
    };
    points.push(ScenarioPoint {
        label: label(ProtocolKind::HaPocc, "tx_partition_ms", dur.as_millis()),
        x: dur.as_millis() as f64,
        config: partitioned(
            SimConfig {
                deployment,
                mix: tx_put(p),
                check_consistency: true,
                ..point(scale, ProtocolKind::HaPocc)
            },
            dur,
        ),
    });
    points
}

/// The chaos scenarios disturb only the measured window — every schedule is fully over
/// by `warmup + duration` — and extend the drain so held, lagged and backlogged traffic
/// delivers before the convergence check. All of them run the exact causal checker.
fn chaos_point(scale: Scale, base: SimConfig, chaos: ChaosSchedule) -> SimConfig {
    debug_assert!(chaos.ends_by(scale.warmup() + scale.duration()));
    SimConfig {
        clients_per_partition: moderate_clients(scale),
        mix: get_put(3),
        check_consistency: true,
        drain: scale.drain() + Duration::from_millis(300),
        chaos,
        ..base
    }
}

fn chaos_partition_storm(scale: Scale) -> Vec<ScenarioPoint> {
    let (seeds, events): (&[u64], usize) = match scale {
        Scale::Smoke => (&[1, 2], 3),
        Scale::Quick => (&[1, 2, 3], 6),
        Scale::Full => (&[1, 2, 3, 4], 10),
    };
    let (start, end) = (scale.warmup(), scale.warmup() + scale.duration());
    sweep(scale, "chaos_seed", seeds, &BOTH, |b, seed| {
        chaos_point(scale, b, ChaosGen::new(seed, 3).sample(start, end, events))
    })
}

fn chaos_lag_drop(scale: Scale) -> Vec<ScenarioPoint> {
    let w = scale.warmup();
    let d = scale.duration();
    let schedule = ChaosSchedule::new()
        .step(ChaosStep::LagSpike {
            at: w + d / 8,
            until: w + d * 3 / 8,
            a: ReplicaId(0),
            b: ReplicaId(1),
            extra: Duration::from_millis(40),
        })
        .step(ChaosStep::DropWindow {
            at: w + d / 4,
            until: w + d / 2,
            a: ReplicaId(0),
            b: ReplicaId(2),
        })
        .step(ChaosStep::DupWindow {
            at: w + d / 2,
            until: w + d * 3 / 4,
            a: ReplicaId(1),
            b: ReplicaId(2),
        });
    ProtocolKind::ALL
        .into_iter()
        .enumerate()
        .map(|(i, protocol)| ScenarioPoint {
            label: label(protocol, "chaos", "scripted"),
            x: i as f64,
            config: chaos_point(scale, point(scale, protocol), schedule.clone()),
        })
        .collect()
}

fn chaos_restart(scale: Scale) -> Vec<ScenarioPoint> {
    let outages_ms: &[u64] = match scale {
        Scale::Smoke => &[20, 60],
        Scale::Quick | Scale::Full => &[50, 150],
    };
    let at = scale.warmup() + scale.duration() / 4;
    let protocols = [ProtocolKind::HaPocc, ProtocolKind::Adaptive];
    sweep(scale, "outage_ms", outages_ms, &protocols, |b, ms| {
        let restart = ChaosStep::Restart {
            at,
            replica: ReplicaId(1),
            outage: Duration::from_millis(ms),
        };
        chaos_point(scale, b, ChaosSchedule::new().step(restart))
    })
}

fn baseline(scale: Scale) -> Vec<ScenarioPoint> {
    // The seed-equivalent configuration: one storage shard per partition, no replication
    // batching, and the balanced default mix.
    let clients = [moderate_clients(scale)];
    sweep(scale, "clients", &clients, &BOTH, |b, clients| SimConfig {
        deployment: Config {
            storage_shards: 1,
            replication_batching: false,
            ..deployment(scale.max_partitions())
        },
        clients_per_partition: clients,
        mix: WorkloadMix::balanced(),
        ..b
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        let scenarios = all();
        assert!(scenarios.len() >= 14, "{} scenarios", scenarios.len());
        let mut names: Vec<&str> = scenarios.iter().map(|s| s.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "scenario names must be unique");
        for scenario in &scenarios {
            assert!(find(scenario.name).is_some());
        }
        assert!(find("no_such_scenario").is_none());
    }

    #[test]
    fn every_scenario_expands_to_unique_labels_at_every_scale() {
        for scenario in all() {
            for scale in [Scale::Smoke, Scale::Quick, Scale::Full] {
                let points = scenario.points(scale);
                assert!(!points.is_empty(), "{} at {:?}", scenario.name, scale);
                let mut labels: Vec<&str> = points.iter().map(|p| p.label.as_str()).collect();
                labels.sort_unstable();
                let before = labels.len();
                labels.dedup();
                assert_eq!(
                    labels.len(),
                    before,
                    "{} at {:?}: duplicate labels",
                    scenario.name,
                    scale
                );
            }
        }
    }

    #[test]
    fn figures_that_plot_the_same_runs_simulate_them_once() {
        let mut runs = Runs::default();
        let simulated = |name: &str, runs: &mut Runs| {
            let before = runs.simulated();
            let report = find(name).unwrap().run(Scale::Smoke, runs, |_| {});
            (runs.simulated() - before, report)
        };
        for (generator, readers) in [
            ("fig1b_resptime", ["fig2a_blocking", "fig2b_staleness"]),
            (
                "fig3b_tx_clients",
                ["fig3c_tx_blocking", "fig3d_tx_staleness"],
            ),
        ] {
            let (new, report) = simulated(generator, &mut runs);
            assert_eq!(new, report.points.len(), "{generator}");
            for reader in readers {
                let (new, shared) = simulated(reader, &mut runs);
                assert_eq!(new, 0, "{reader} re-simulated {generator}'s points");
                // The shared reports are the ones a fresh simulation produces.
                let fresh = find(reader)
                    .unwrap()
                    .run(Scale::Smoke, &mut Runs::default(), |_| {});
                let digests = |r: &ScenarioReport| -> Vec<String> {
                    r.points
                        .iter()
                        .map(|p| crate::digest::behaviour_digest(&p.report))
                        .collect()
                };
                assert_eq!(digests(&shared), digests(&fresh), "{reader}");
            }
        }
    }

    #[test]
    fn select_resolves_names_globs_and_all() {
        let to_names = |scenarios: Vec<Scenario>| -> Vec<&'static str> {
            scenarios.into_iter().map(|s| s.name).collect()
        };
        let args =
            |patterns: &[&str]| -> Vec<String> { patterns.iter().map(|p| p.to_string()).collect() };

        assert_eq!(
            to_names(select(&args(&["all"])).unwrap()).len(),
            all().len()
        );
        assert_eq!(
            to_names(select(&args(&["baseline"])).unwrap()),
            vec!["baseline"]
        );
        assert_eq!(
            to_names(select(&args(&["chaos_*"])).unwrap()),
            vec!["chaos_partition_storm", "chaos_lag_drop", "chaos_restart"]
        );
        // Duplicates collapse; selection order is preserved.
        assert_eq!(
            to_names(select(&args(&["baseline", "chaos_restart", "baseline"])).unwrap()),
            vec!["baseline", "chaos_restart"]
        );
        // A selector that matches nothing is an error, not an empty run — and without
        // the trailing `*`, a prefix is just a misspelled exact name.
        assert!(select(&args(&["chaos_"])).is_err());
        assert!(select(&args(&["no_such_*"])).is_err());
        assert!(select(&args(&["no_such_scenario"])).is_err());
        assert!(select(&args(&["all", "no_such_scenario"])).is_err());
        assert!(select(&[]).is_err());
    }

    #[test]
    fn chaos_scenarios_check_consistency_and_end_before_the_drain() {
        for scenario in all().into_iter().filter(|s| s.name.starts_with("chaos_")) {
            for scale in [Scale::Smoke, Scale::Quick, Scale::Full] {
                let points = scenario.points(scale);
                assert!(!points.is_empty(), "{} at {:?}", scenario.name, scale);
                for point in points {
                    assert!(
                        point.config.check_consistency,
                        "{}/{}: chaos runs must keep the exact causal checker on",
                        scenario.name, point.label
                    );
                    assert!(
                        !point.config.chaos.is_empty() || scenario.name == "chaos_partition_storm",
                        "{}/{}: scripted chaos scenarios must schedule disturbances",
                        scenario.name,
                        point.label
                    );
                    let drain_start = point.config.warmup + point.config.duration;
                    assert!(
                        point.config.chaos.ends_by(drain_start),
                        "{}/{}: chaos must be over when the drain starts",
                        scenario.name,
                        point.label
                    );
                }
            }
        }
    }

    #[test]
    fn partition_heal_faults_stay_within_the_run() {
        for scale in [Scale::Smoke, Scale::Quick] {
            for point in partition_heal(scale) {
                let total = point.config.total_time();
                assert!(
                    point.config.chaos.ends_by(total),
                    "{}: partition not healed by run end {total:?}",
                    point.label
                );
            }
        }
    }
}
