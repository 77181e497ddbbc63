//! The metrics: their names, units and directions, which end-to-end metric each layer
//! metric is expected to move, and how each is computed from what a run measured.
//!
//! `BENCHMARK.json` lists the same names (a test holds the two together) but its schema
//! has no room for the expectations, so they live here and in the README.

use crate::driver::{Plan, RunOutput, SegmentAcc};
use crate::procfs::GROUPS;
use crate::stats::{quantile, segment_median};
use crate::trace;
use std::ops::Range;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// For a layer metric: the end-to-end metric and workload it should move.
    pub moves: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        moves: "",
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        moves,
    }
}

/// What a user of the store sees, per workload. `rotx_*` exist on `cure_rotx` only and
/// `failed_ops_frac` is zero on a healthy run, so `BENCHMARK.json`, whose end-to-end
/// metrics must be non-zero on every workload, cannot gate them; `--compare` does.
pub const END_TO_END: [MetricDef; 12] = [
    e2e("throughput_ops_s", "1/s", "higher"),
    e2e("get_p50_us", "us", "lower"),
    e2e("get_p99_us", "us", "lower"),
    e2e("put_p50_us", "us", "lower"),
    e2e("put_p99_us", "us", "lower"),
    e2e("rotx_p50_us", "us", "lower"),
    e2e("rotx_p99_us", "us", "lower"),
    e2e("visibility_lag_p50_us", "us", "lower"),
    e2e("visibility_lag_p99_us", "us", "lower"),
    e2e("cpu_us_per_op", "us/op", "lower"),
    e2e("failed_ops_frac", "frac", "lower"),
    e2e("setup_s", "s", "lower"),
];

const TCP_LATENCY: &str = "get_p50_us, put_p50_us on tcp_pingpong; throughput_ops_s, cpu_us_per_op on tcp_pipelined; none on the channel workloads";
const WAKEUPS: &str = "cpu_us_per_op down, throughput_ops_s up on tcp_pipelined; no gain, maybe a worse p50, on tcp_pingpong";
const SERVER_LOOP: &str =
    "get_p50_us, put_p50_us on every workload, most on tcp_pingpong and cure_rotx";
const LANES: &str = "throughput_ops_s, put_p50_us on chan_repl_lanes2 only";
const REPLICATION: &str = "throughput_ops_s, visibility_lag_* on chan_repl_lanes2";
const CURE: &str = "rotx_p50_us, get_p50_us, visibility_lag_p50_us on cure_rotx";
const BLOCKING: &str = "get_p99_us, put_p99_us on the POCC workloads, chiefly chan_repl_lanes2";
const BUDGET: &str =
    "the share of a tcp_pingpong GET that is wake-ups, syscalls and queueing, not code";
const CONTEXT: &str = "context for the others, not a target";

/// One layer at a time, by direct calls from one thread; the same on every workload.
pub const LAYER_PASS: [MetricDef; 35] = [
    layer("storage.insert_ns", "ns", "lower", REPLICATION),
    layer(
        "storage.latest_ns",
        "ns",
        "lower",
        "get_p50_us on the POCC workloads",
    ),
    layer("storage.latest_in_snapshot_ns", "ns", "lower", CURE),
    layer("storage.latest_stable_ns", "ns", "lower", CURE),
    layer("storage.gc_ns_per_version", "ns", "lower", REPLICATION),
    layer("storage.chain_traversed_per_read", "count", "lower", CURE),
    layer("proto.encode_request_ns", "ns", "lower", TCP_LATENCY),
    layer("proto.decode_request_ns", "ns", "lower", TCP_LATENCY),
    layer("proto.encode_reply_ns", "ns", "lower", TCP_LATENCY),
    layer("proto.decode_reply_ns", "ns", "lower", TCP_LATENCY),
    layer(
        "proto.encode_replicate_ns",
        "ns",
        "lower",
        "visibility_lag_* on the TCP workloads",
    ),
    layer(
        "proto.decode_replicate_ns",
        "ns",
        "lower",
        "visibility_lag_* on the TCP workloads",
    ),
    layer("proto.bytes_per_get", "B", "lower", TCP_LATENCY),
    layer("proto.bytes_per_put", "B", "lower", TCP_LATENCY),
    layer("proto.bytes_per_replicate", "B", "lower", TCP_LATENCY),
    layer("net.frame_stage_ns", "ns", "lower", TCP_LATENCY),
    layer("net.frame_next_ns", "ns", "lower", TCP_LATENCY),
    layer(
        "net.tcp_echo_rtt_p50_us",
        "us",
        "lower",
        "get_p50_us on tcp_pingpong",
    ),
    layer(
        "net.tcp_echo_ops_s",
        "1/s",
        "higher",
        "throughput_ops_s on tcp_pipelined",
    ),
    layer(
        "net.channel_echo_rtt_p50_us",
        "us",
        "lower",
        "get_p50_us on the channel workloads",
    ),
    layer(
        "net.channel_echo_ops_s",
        "1/s",
        "higher",
        "throughput_ops_s on the channel workloads",
    ),
    layer(
        "engine.pocc_get_ns",
        "ns",
        "lower",
        "get_p50_us, throughput_ops_s on the POCC workloads",
    ),
    layer("engine.pocc_put_ns", "ns", "lower", REPLICATION),
    layer("engine.pocc_apply_replicate_ns", "ns", "lower", REPLICATION),
    layer("engine.cure_get_ns", "ns", "lower", CURE),
    layer("engine.cure_rotx4_ns", "ns", "lower", CURE),
    layer("engine.tick_ns", "ns", "lower", SERVER_LOOP),
    layer("exec.submit_reply_rtt_p50_us", "us", "lower", LANES),
    layer("exec.ops_s_lanes1", "1/s", "higher", LANES),
    layer("exec.ops_s_lanes2", "1/s", "higher", LANES),
    layer("runtime.channel_1x1_rtt_p50_us", "us", "lower", SERVER_LOOP),
    layer("runtime.channel_1x1_ops_s", "1/s", "higher", SERVER_LOOP),
    layer(
        "client.session_ns",
        "ns",
        "lower",
        "get_p50_us on tcp_pingpong, cpu_us_per_op everywhere",
    ),
    layer("path.get_compute_ns", "ns", "lower", BUDGET),
    layer("path.get_unaccounted_frac", "frac", "lower", BUDGET),
];

/// From the traced segment of a workload: spans, scheduler accounting per thread group,
/// and counter differences per operation.
pub const TRACED: [MetricDef; 19] = [
    layer("client.submit_us", "us", "lower", TCP_LATENCY),
    layer("client.wait_us", "us", "lower", SERVER_LOOP),
    layer(
        "client.process_reply_us",
        "us",
        "lower",
        "cpu_us_per_op everywhere",
    ),
    layer("engine.blocked_ops_frac", "frac", "lower", BLOCKING),
    layer("engine.block_us_per_blocked_op", "us/op", "lower", BLOCKING),
    layer(
        "engine.stale_get_frac",
        "frac",
        "lower",
        "moves with visibility_lag_*; higher on cure_rotx",
    ),
    layer(
        "engine.replicate_msgs_per_put",
        "count",
        "lower",
        REPLICATION,
    ),
    layer(
        "engine.bytes_sent_per_op",
        "B",
        "lower",
        "cpu_us_per_op, visibility_lag_* on the TCP workloads",
    ),
    layer("engine.heartbeats_per_s", "1/s", "lower", SERVER_LOOP),
    layer("engine.stabilization_msgs_per_s", "1/s", "lower", CURE),
    layer("exec.spine_acq_per_op", "count", "lower", LANES),
    layer("exec.fast_path_hit_frac", "frac", "higher", LANES),
    layer("exec.drain_spins_per_op", "count", "lower", LANES),
    layer("storage.versions_per_key", "count", "lower", REPLICATION),
    layer("storage.gc_removed_per_put", "count", "higher", REPLICATION),
    layer("storage.max_chain_len", "count", "lower", REPLICATION),
    layer("mem.rss_peak_mb", "MB", "lower", CONTEXT),
    layer(
        "proc.cores_used",
        "count",
        "lower",
        "near 2 on the POCC workloads: processor time freed anywhere becomes throughput",
    ),
    layer("trace.overhead_frac", "frac", "lower", CONTEXT),
];

/// `sched.<group>.<field>` for every thread group.
pub const SCHED_FIELDS: [MetricDef; 3] = [
    layer("busy_us_per_op", "us/op", "lower", ""),
    layer("runq_wait_us_per_op", "us/op", "lower", ""),
    layer("ops_per_wakeup", "count", "higher", ""),
];

/// What a thread group's scheduler metric should move: the group's layer, except that
/// work per wake-up follows the batching expectation wherever requests are handled.
pub fn sched_moves(group: &str, field: &str) -> &'static str {
    match (group, field) {
        ("server" | "conn_rx" | "client_rx", "ops_per_wakeup") => WAKEUPS,
        ("server", _) => SERVER_LOOP,
        ("lane", _) => LANES,
        ("conn_rx" | "client_rx", _) => TCP_LATENCY,
        ("generator", _) => "the harness's own cost: rises with throughput, not a target",
        _ => CONTEXT,
    }
}

/// A named value with what stands behind it.
#[derive(Clone, Debug)]
pub struct Measured {
    pub name: String,
    /// NaN when the workload has no sample of this kind.
    pub value: f64,
    /// Per-segment values the reported one is the median of (empty for run-wide ones).
    pub segments: Vec<f64>,
    pub samples: u64,
}

/// The value of the metric called `name` among `measured` (NaN if absent).
pub fn value_of(measured: &[Measured], name: &str) -> f64 {
    measured
        .iter()
        .find(|m| m.name == name)
        .map_or(f64::NAN, |m| m.value)
}

impl Measured {
    fn whole(name: &str, value: f64, samples: u64) -> Measured {
        Measured {
            name: name.into(),
            value,
            segments: Vec::new(),
            samples,
        }
    }
}

fn per_segment(
    name: &str,
    segments: &[SegmentAcc],
    value: impl Fn(usize, &SegmentAcc) -> f64,
    samples: impl Fn(&SegmentAcc) -> u64,
) -> Measured {
    let values: Vec<f64> = segments
        .iter()
        .enumerate()
        .map(|(i, s)| value(i, s))
        .collect();
    Measured {
        name: name.into(),
        value: segment_median(&values),
        segments: values,
        samples: segments.iter().map(samples).sum(),
    }
}

fn lag_us(acc: &SegmentAcc, q: f64) -> f64 {
    quantile(&mut acc.lag_ns.clone(), q) / 1000.0
}

/// The twelve end-to-end metrics over `range` of the run's segments, in `END_TO_END`
/// order: each computed per segment and reported as the median of the segments.
pub fn end_to_end(out: &RunOutput, plan: &Plan, range: Range<usize>) -> Vec<Measured> {
    let segment_s = plan.segment.as_secs_f64();
    let segments = &out.segments[range.clone()];
    let cpu = &out.cpu_ns[range];
    let latency = |name: &str, pick: fn(&SegmentAcc) -> &crate::stats::Histogram, q: f64| {
        per_segment(
            name,
            segments,
            |_, s| pick(s).quantile_us(q),
            |s| pick(s).count(),
        )
    };
    vec![
        per_segment(
            "throughput_ops_s",
            segments,
            |_, s| s.ops as f64 / segment_s,
            |s| s.ops,
        ),
        latency("get_p50_us", |s| &s.get, 0.5),
        latency("get_p99_us", |s| &s.get, 0.99),
        latency("put_p50_us", |s| &s.put, 0.5),
        latency("put_p99_us", |s| &s.put, 0.99),
        latency("rotx_p50_us", |s| &s.rotx, 0.5),
        latency("rotx_p99_us", |s| &s.rotx, 0.99),
        per_segment(
            "visibility_lag_p50_us",
            segments,
            |_, s| lag_us(s, 0.5),
            |s| s.lag_ns.len() as u64,
        ),
        per_segment(
            "visibility_lag_p99_us",
            segments,
            |_, s| lag_us(s, 0.99),
            |s| s.lag_ns.len() as u64,
        ),
        per_segment(
            "cpu_us_per_op",
            segments,
            |i, s| cpu[i].map_or(f64::NAN, |ns| ns as f64 / 1000.0 / s.ops as f64),
            |s| s.ops,
        ),
        Measured::whole(
            "failed_ops_frac",
            out.failures.total() as f64 / out.attempted.max(1) as f64,
            out.attempted,
        ),
        Measured {
            name: "setup_s".into(),
            value: crate::stats::median(&out.setup_s),
            segments: out.setup_s.clone(),
            samples: out.setup_s.len() as u64,
        },
    ]
}

/// The 99.9th percentiles over the whole measured window, with their sample counts:
/// printed, never gated.
pub fn tails(out: &RunOutput) -> Vec<Measured> {
    let mut all = SegmentAcc::default();
    for segment in &out.segments {
        all.merge(segment);
    }
    [("get", &all.get), ("put", &all.put), ("rotx", &all.rotx)]
        .iter()
        .filter(|(_, h)| h.count() > 0)
        .map(|(kind, h)| {
            Measured::whole(&format!("{kind}_p999_us"), h.quantile_us(0.999), h.count())
        })
        .collect()
}

/// The per-workload layer metrics of a traced run, whose first segments ran untraced as
/// the reference and whose last ones ran traced: `TRACED` order, then `sched.*` by
/// group. `sched.*` values are NaN when the kernel gave no scheduler accounting.
pub fn traced(out: &RunOutput, plan: &Plan) -> Vec<Measured> {
    let range = plan.traced_range();
    let throughput = |segments: &[SegmentAcc]| {
        let per_segment: Vec<f64> = segments.iter().map(|s| s.ops as f64).collect();
        segment_median(&per_segment) / plan.segment.as_secs_f64()
    };
    let window = out
        .traced
        .as_ref()
        .expect("a traced run samples its traced segment");
    let ops = window.ops.max(1) as f64;
    let wall_s = window.wall.as_secs_f64();
    let c = &window.counters;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let [submit_us, wait_us, process_us] = trace::child_medians_us(&out.spans);
    let spans = out.spans.len() as u64;
    let reference = throughput(&out.segments[..range.start]);
    let traced = throughput(&out.segments[range.clone()]);
    let cpu_s: f64 = out.cpu_ns[range]
        .iter()
        .map(|ns| ns.map_or(f64::NAN, |ns| ns as f64 / 1e9))
        .sum();

    let served = (c.operations_served() + c.slices_served) as f64;
    let fast = (c.lane_fast_path_hits + c.lane_fast_path_misses) as f64;
    let values = [
        (submit_us, spans),
        (wait_us, spans),
        (process_us, spans),
        (
            ratio(c.blocked_operations as f64, served),
            c.blocked_operations,
        ),
        (
            ratio(
                c.total_block_time.as_secs_f64() * 1e6,
                c.blocked_operations as f64,
            ),
            c.blocked_operations,
        ),
        (
            ratio(c.old_gets as f64, c.gets_served as f64),
            c.gets_served,
        ),
        (
            ratio(c.replicate_sent as f64, c.puts_served as f64),
            c.puts_served,
        ),
        (c.bytes_sent as f64 / ops, window.ops),
        (c.heartbeats_sent as f64 / wall_s, c.heartbeats_sent),
        (
            c.stabilization_messages as f64 / wall_s,
            c.stabilization_messages,
        ),
        (c.spine_acquisitions as f64 / ops, window.ops),
        (ratio(c.lane_fast_path_hits as f64, fast), fast as u64),
        (c.drain_spins as f64 / ops, window.ops),
        (
            ratio(out.store.versions as f64, out.store.keys as f64),
            out.store.keys as u64,
        ),
        (
            ratio(window.gc_removed as f64, c.puts_served as f64),
            c.puts_served,
        ),
        (out.store.max_chain_len as f64, out.store.keys as u64),
        (crate::procfs::rss_peak_mb().unwrap_or(f64::NAN), 1),
        (cpu_s / wall_s, 1),
        (1.0 - traced / reference, window.ops),
    ];
    let mut measured: Vec<Measured> = TRACED
        .iter()
        .zip(values)
        .map(|(def, (value, samples))| Measured::whole(def.name, value, samples))
        .collect();

    for (group, _) in GROUPS {
        let stat = window
            .sched
            .as_ref()
            .map(|groups| groups.get(group).copied().unwrap_or_default());
        let fields = stat.map_or([f64::NAN; 3], |s| {
            [
                s.run_ns as f64 / 1000.0 / ops,
                s.wait_ns as f64 / 1000.0 / ops,
                ratio(ops, s.slices as f64),
            ]
        });
        for (field, value) in SCHED_FIELDS.iter().zip(fields) {
            measured.push(Measured::whole(
                &format!("sched.{group}.{}", field.name),
                value,
                stat.map_or(0, |s| s.slices),
            ));
        }
    }
    measured
}

/// Every per-layer metric name with its definition, in reporting order.
pub fn per_layer_defs() -> Vec<(String, &'static MetricDef, &'static str)> {
    let mut defs: Vec<(String, &'static MetricDef, &'static str)> = LAYER_PASS
        .iter()
        .chain(&TRACED)
        .map(|d| (d.name.to_string(), d, d.moves))
        .collect();
    for (group, _) in GROUPS {
        for field in &SCHED_FIELDS {
            defs.push((
                format!("sched.{group}.{}", field.name),
                field,
                sched_moves(group, field.name),
            ));
        }
    }
    defs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn there_are_twelve_end_to_end_and_seventy_five_layer_names_all_distinct() {
        let defs = per_layer_defs();
        assert_eq!(END_TO_END.len(), 12);
        assert_eq!(defs.len(), 75);
        let mut names: Vec<&str> = defs.iter().map(|(n, _, _)| n.as_str()).collect();
        names.extend(END_TO_END.iter().map(|d| d.name));
        let distinct: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(distinct.len(), names.len());
        for (name, def, moves) in &defs {
            assert!(name.len() <= 64 && def.unit.len() <= 16, "{name}");
            assert!(matches!(def.better, "higher" | "lower"), "{name}");
            assert!(!moves.is_empty(), "{name} states no expectation");
        }
    }
}
