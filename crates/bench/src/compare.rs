//! Regression detection between two `BENCH_*.json` reports.
//!
//! CI runs the `baseline` scenario at smoke scale on every push and compares it against
//! the checked-in `BENCH_baseline.json` with `compare_bench`. The simulator is
//! deterministic, so any throughput difference is a real behavioural change of the
//! code, not noise; the comparison still allows a tolerance band so intentional
//! small shifts (e.g. an extra heartbeat) don't page anyone, and flags only changes
//! beyond the threshold (25% by default).

use crate::json::Json;

/// The default regression threshold: flag points whose throughput drops by more than
/// this fraction relative to the baseline.
pub const DEFAULT_THRESHOLD: f64 = 0.25;

/// The comparison of one scenario point across two runs.
#[derive(Clone, Debug)]
pub struct CompareRow {
    /// The point's label (aligned by label across runs).
    pub label: String,
    /// Throughput in the baseline run.
    pub baseline_tput: f64,
    /// Throughput in the candidate run.
    pub current_tput: f64,
    /// Relative change: `(current - baseline) / baseline`.
    pub delta: f64,
    /// Whether the point regressed beyond the threshold.
    pub regressed: bool,
}

/// The comparison of two benchmark reports.
#[derive(Clone, Debug)]
pub struct Comparison {
    /// The scenario name (must match between the two reports).
    pub scenario: String,
    /// Per-point rows, in baseline order.
    pub rows: Vec<CompareRow>,
    /// Labels present in only one of the two runs (a sweep change, not a regression).
    pub unmatched: Vec<String>,
}

impl Comparison {
    /// Whether any point regressed beyond the threshold.
    pub fn has_regressions(&self) -> bool {
        self.rows.iter().any(|r| r.regressed)
    }

    /// A human-readable report table.
    pub fn render(&self) -> String {
        let mut out = format!("scenario {}:\n", self.scenario);
        out.push_str(&format!(
            "  {:<40} {:>14} {:>14} {:>9}\n",
            "point", "baseline", "current", "delta"
        ));
        for row in &self.rows {
            out.push_str(&format!(
                "  {:<40} {:>14.0} {:>14.0} {:>+8.1}%{}\n",
                row.label,
                row.baseline_tput,
                row.current_tput,
                row.delta * 100.0,
                if row.regressed { "  << REGRESSION" } else { "" }
            ));
        }
        for label in &self.unmatched {
            out.push_str(&format!("  {label:<40} (present in only one run)\n"));
        }
        out
    }
}

fn point_throughputs(report: &Json) -> Result<Vec<(String, f64)>, String> {
    let points = report
        .get("points")
        .and_then(Json::as_array)
        .ok_or("report has no points array")?;
    points
        .iter()
        .map(|p| {
            let label = p
                .get("label")
                .and_then(Json::as_str)
                .ok_or("point without label")?
                .to_string();
            let tput = p
                .get("throughput_ops_per_sec")
                .and_then(Json::as_f64)
                .ok_or("point without throughput")?;
            Ok((label, tput))
        })
        .collect()
}

/// Compares a candidate report against a baseline report of the same scenario. Points
/// are aligned by label; a throughput drop larger than `threshold` (fractional, e.g.
/// `0.25`) marks the row as regressed.
pub fn compare(baseline: &Json, current: &Json, threshold: f64) -> Result<Comparison, String> {
    let scenario = baseline
        .get("scenario")
        .and_then(Json::as_str)
        .ok_or("baseline has no scenario name")?;
    let current_scenario = current
        .get("scenario")
        .and_then(Json::as_str)
        .ok_or("candidate has no scenario name")?;
    if scenario != current_scenario {
        return Err(format!(
            "scenario mismatch: baseline {scenario:?} vs candidate {current_scenario:?}"
        ));
    }

    let base_points = point_throughputs(baseline)?;
    let cur_points = point_throughputs(current)?;

    let mut rows = Vec::new();
    let mut unmatched = Vec::new();
    for (label, baseline_tput) in &base_points {
        match cur_points.iter().find(|(l, _)| l == label) {
            Some((_, current_tput)) => {
                let delta = if *baseline_tput > 0.0 {
                    (current_tput - baseline_tput) / baseline_tput
                } else {
                    0.0
                };
                rows.push(CompareRow {
                    label: label.clone(),
                    baseline_tput: *baseline_tput,
                    current_tput: *current_tput,
                    delta,
                    regressed: delta < -threshold,
                });
            }
            None => unmatched.push(label.clone()),
        }
    }
    for (label, _) in &cur_points {
        if !base_points.iter().any(|(l, _)| l == label) {
            unmatched.push(label.clone());
        }
    }

    Ok(Comparison {
        scenario: scenario.to_string(),
        rows,
        unmatched,
    })
}

/// The default `--max-alloc-ratio`: a bench's allocations per operation may grow to at
/// most this multiple of the baseline before the gate fails.
pub const DEFAULT_MAX_ALLOC_RATIO: f64 = 1.10;

/// Absolute slack (in allocations per operation) added on top of the ratio bound, so
/// near-zero baselines are not impossible to meet: a bench pinned at `0.000` allocs/op
/// may drift up to this amount before it counts as a regression.
pub const ALLOC_SLACK: f64 = 0.01;

/// The comparison of one micro-benchmark across two `MICROBENCH_*.json` reports.
#[derive(Clone, Debug)]
pub struct MicrobenchRow {
    /// The bench name (aligned by name across runs).
    pub name: String,
    /// Allocations per operation in the baseline run.
    pub baseline_allocs: f64,
    /// Allocations per operation in the candidate run.
    pub current_allocs: f64,
    /// Nanoseconds per operation in the candidate run (informational only: wall-clock
    /// times are machine-dependent, so the gate never keys off them).
    pub current_ns: f64,
    /// Whether the bench's allocation count regressed beyond the allowed ratio.
    pub regressed: bool,
}

/// The comparison of two micro-benchmark reports (`compare_bench --microbench`).
///
/// Unlike the throughput comparison above, the gated quantity is **allocations per
/// operation**: the counting allocator makes it deterministic and machine-independent,
/// so any increase is a real code-path change, never noise. ns/op is reported but not
/// gated.
#[derive(Clone, Debug)]
pub struct MicrobenchComparison {
    /// Per-bench rows, in baseline order.
    pub rows: Vec<MicrobenchRow>,
    /// Bench names present in only one of the two runs (a harness change, not a
    /// regression).
    pub unmatched: Vec<String>,
}

impl MicrobenchComparison {
    /// Whether any bench's allocation count regressed beyond the allowed ratio.
    pub fn has_regressions(&self) -> bool {
        self.rows.iter().any(|r| r.regressed)
    }

    /// A human-readable report table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<24} {:>16} {:>16} {:>12}\n",
            "benchmark", "base allocs/op", "cur allocs/op", "cur ns/op"
        );
        for row in &self.rows {
            out.push_str(&format!(
                "{:<24} {:>16.3} {:>16.3} {:>12.1}{}\n",
                row.name,
                row.baseline_allocs,
                row.current_allocs,
                row.current_ns,
                if row.regressed { "  << REGRESSION" } else { "" }
            ));
        }
        for name in &self.unmatched {
            out.push_str(&format!("{name:<24} (present in only one run)\n"));
        }
        out
    }
}

fn microbench_rows(report: &Json) -> Result<Vec<(String, f64, f64)>, String> {
    let version = report
        .get("microbench_schema_version")
        .and_then(Json::as_u64)
        .ok_or("report has no microbench_schema_version")?;
    if version != crate::json::MICROBENCH_SCHEMA_VERSION {
        return Err(format!(
            "microbench_schema_version: expected {}, found {version}",
            crate::json::MICROBENCH_SCHEMA_VERSION
        ));
    }
    let benches = report
        .get("benches")
        .and_then(Json::as_array)
        .ok_or("report has no benches array")?;
    benches
        .iter()
        .map(|b| {
            let name = b
                .get("name")
                .and_then(Json::as_str)
                .ok_or("bench without name")?
                .to_string();
            let allocs = b
                .get("allocs_per_op")
                .and_then(Json::as_f64)
                .ok_or("bench without allocs_per_op")?;
            let ns = b
                .get("ns_per_op")
                .and_then(Json::as_f64)
                .ok_or("bench without ns_per_op")?;
            Ok((name, allocs, ns))
        })
        .collect()
}

/// Compares a candidate micro-benchmark report against a baseline. Benches are aligned
/// by name; a bench regresses when its allocations per operation exceed
/// `baseline * max_alloc_ratio + ALLOC_SLACK`.
pub fn microbench(
    baseline: &Json,
    current: &Json,
    max_alloc_ratio: f64,
) -> Result<MicrobenchComparison, String> {
    let base = microbench_rows(baseline)?;
    let cur = microbench_rows(current)?;

    let mut rows = Vec::new();
    let mut unmatched = Vec::new();
    for (name, baseline_allocs, _) in &base {
        match cur.iter().find(|(n, _, _)| n == name) {
            Some((_, current_allocs, current_ns)) => rows.push(MicrobenchRow {
                name: name.clone(),
                baseline_allocs: *baseline_allocs,
                current_allocs: *current_allocs,
                current_ns: *current_ns,
                regressed: *current_allocs > baseline_allocs * max_alloc_ratio + ALLOC_SLACK,
            }),
            None => unmatched.push(name.clone()),
        }
    }
    for (name, _, _) in &cur {
        if !base.iter().any(|(n, _, _)| n == name) {
            unmatched.push(name.clone());
        }
    }

    Ok(MicrobenchComparison { rows, unmatched })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(scenario: &str, points: &[(&str, f64)]) -> Json {
        Json::Obj(vec![
            ("scenario".into(), Json::str(scenario)),
            (
                "points".into(),
                Json::Arr(
                    points
                        .iter()
                        .map(|(label, tput)| {
                            Json::Obj(vec![
                                ("label".into(), Json::str(*label)),
                                ("throughput_ops_per_sec".into(), Json::num(*tput)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    #[test]
    fn flags_only_regressions_beyond_the_threshold() {
        let base = report("baseline", &[("a", 1000.0), ("b", 1000.0), ("c", 1000.0)]);
        let cur = report("baseline", &[("a", 1000.0), ("b", 760.0), ("c", 600.0)]);
        let cmp = compare(&base, &cur, 0.25).unwrap();
        assert!(cmp.has_regressions());
        let by_label: Vec<(String, bool)> = cmp
            .rows
            .iter()
            .map(|r| (r.label.clone(), r.regressed))
            .collect();
        assert_eq!(
            by_label,
            vec![
                ("a".into(), false),
                ("b".into(), false), // -24%: inside the band
                ("c".into(), true),  // -40%: regression
            ]
        );
        assert!(cmp.render().contains("REGRESSION"));
    }

    #[test]
    fn improvements_never_flag() {
        let base = report("s", &[("a", 100.0)]);
        let cur = report("s", &[("a", 10_000.0)]);
        let cmp = compare(&base, &cur, 0.25).unwrap();
        assert!(!cmp.has_regressions());
        assert!(cmp.rows[0].delta > 0.0);
    }

    #[test]
    fn unmatched_points_are_reported_not_flagged() {
        let base = report("s", &[("a", 100.0), ("gone", 100.0)]);
        let cur = report("s", &[("a", 100.0), ("new", 100.0)]);
        let cmp = compare(&base, &cur, 0.25).unwrap();
        assert!(!cmp.has_regressions());
        assert_eq!(cmp.unmatched, vec!["gone".to_string(), "new".to_string()]);
    }

    #[test]
    fn scenario_mismatch_is_an_error() {
        let base = report("a", &[]);
        let cur = report("b", &[]);
        assert!(compare(&base, &cur, 0.25).is_err());
    }

    fn microbench_report(benches: &[(&str, f64, f64)]) -> Json {
        Json::Obj(vec![
            (
                "microbench_schema_version".into(),
                Json::u64(crate::json::MICROBENCH_SCHEMA_VERSION),
            ),
            (
                "benches".into(),
                Json::Arr(
                    benches
                        .iter()
                        .map(|(name, allocs, ns)| {
                            Json::Obj(vec![
                                ("name".into(), Json::str(*name)),
                                ("allocs_per_op".into(), Json::num(*allocs)),
                                ("ns_per_op".into(), Json::num(*ns)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    #[test]
    fn microbench_gates_alloc_counts_not_wall_clock() {
        let base = microbench_report(&[("insert", 1.0, 100.0), ("read", 0.0, 50.0)]);
        // Wall-clock doubled but allocations held: no regression.
        let cur = microbench_report(&[("insert", 1.0, 200.0), ("read", 0.0, 100.0)]);
        let cmp = microbench(&base, &cur, DEFAULT_MAX_ALLOC_RATIO).unwrap();
        assert!(!cmp.has_regressions());

        // Allocations grew past the ratio: regression, and render flags it.
        let cur = microbench_report(&[("insert", 2.0, 100.0), ("read", 0.0, 50.0)]);
        let cmp = microbench(&base, &cur, DEFAULT_MAX_ALLOC_RATIO).unwrap();
        assert!(cmp.has_regressions());
        assert!(cmp.render().contains("REGRESSION"));
    }

    #[test]
    fn microbench_zero_baselines_get_absolute_slack() {
        let base = microbench_report(&[("read", 0.0, 50.0)]);
        // A ratio bound alone would make any nonzero count fail a 0.000 baseline; the
        // absolute slack tolerates harmless jitter...
        let cur = microbench_report(&[("read", 0.005, 50.0)]);
        assert!(!microbench(&base, &cur, DEFAULT_MAX_ALLOC_RATIO)
            .unwrap()
            .has_regressions());
        // ...but a real new allocation per op still fails.
        let cur = microbench_report(&[("read", 1.0, 50.0)]);
        assert!(microbench(&base, &cur, DEFAULT_MAX_ALLOC_RATIO)
            .unwrap()
            .has_regressions());
    }

    #[test]
    fn microbench_unmatched_and_bad_schema_handling() {
        let base = microbench_report(&[("gone", 1.0, 1.0), ("kept", 1.0, 1.0)]);
        let cur = microbench_report(&[("kept", 1.0, 1.0), ("new", 1.0, 1.0)]);
        let cmp = microbench(&base, &cur, DEFAULT_MAX_ALLOC_RATIO).unwrap();
        assert!(!cmp.has_regressions());
        assert_eq!(cmp.unmatched, vec!["gone".to_string(), "new".to_string()]);

        let bad = Json::Obj(vec![("microbench_schema_version".into(), Json::u64(999))]);
        assert!(microbench(&bad, &cur, DEFAULT_MAX_ALLOC_RATIO).is_err());
        assert!(microbench(&Json::Obj(vec![]), &cur, DEFAULT_MAX_ALLOC_RATIO).is_err());
    }
}
