//! Results as text, as files, and compared against each other.

use crate::json::{self, Json};
use crate::metrics::{self, Measured, END_TO_END};
use crate::stats::{median, quartile_spread};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Bound applied by `--compare` to an end-to-end metric `BENCHMARK.json` cannot list
/// (`rotx_*`: one workload only; a noisy tail kept as a layer metric).
const DEFAULT_BOUND: f64 = 0.10;
/// `failed_ops_frac` is zero when all is well, so its bound is absolute.
const FAILED_FRAC_SLACK: f64 = 0.001;
/// Set-up takes tens of milliseconds on the small workloads: allow it this much
/// absolute movement whatever the relative bound says.
const SETUP_SLACK_S: f64 = 0.2;

/// What the benchmark needs from `BENCHMARK.json`.
pub struct Contract {
    /// The repository root: the directory that holds `BENCHMARK.json`.
    pub root: PathBuf,
    pub run_seconds: f64,
    /// `(name, unit, better, bound)`.
    pub end_to_end: Vec<(String, String, String, f64)>,
    /// `(name, unit)`.
    pub per_layer: Vec<(String, String)>,
}

impl Contract {
    /// Finds `BENCHMARK.json` in the working directory or the nearest directory above.
    pub fn load() -> Result<Contract, String> {
        let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
        let root = cwd
            .ancestors()
            .find(|dir| dir.join("BENCHMARK.json").is_file())
            .ok_or("no BENCHMARK.json in this directory or above it")?;
        Contract::read(root)
    }

    pub fn read(root: &Path) -> Result<Contract, String> {
        let path = root.join("BENCHMARK.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let field = |item: &Json, key: &str| -> Result<String, String> {
            item.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("BENCHMARK.json: a metric lacks \"{key}\""))
        };
        let list = |key: &str| -> Result<&[Json], String> {
            doc.get(key)
                .and_then(Json::as_array)
                .ok_or(format!("BENCHMARK.json: no \"{key}\" list"))
        };
        let mut end_to_end = Vec::new();
        for item in list("end_to_end")? {
            let bound = item
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: an end-to-end metric lacks \"bound\"")?;
            end_to_end.push((
                field(item, "name")?,
                field(item, "unit")?,
                field(item, "better")?,
                bound,
            ));
        }
        let mut per_layer = Vec::new();
        for item in list("per_layer")? {
            per_layer.push((field(item, "name")?, field(item, "unit")?));
        }
        Ok(Contract {
            root: root.to_path_buf(),
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: no \"run_seconds\"")?,
            end_to_end,
            per_layer,
        })
    }

    pub fn out_dir(&self) -> PathBuf {
        self.root.join("benchmark").join("out")
    }
}

/// Unit of a metric this program computes, by name.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|d| d.name == name)
        .map(|d| d.unit)
        .or_else(|| {
            metrics::per_layer_defs()
                .iter()
                .find(|(n, _, _)| n == name)
                .map(|(_, d, _)| d.unit)
        })
        .unwrap_or(if name.ends_with("_us") { "us" } else { "" })
}

fn better_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|d| d.name == name)
        .map_or("lower", |d| d.better)
}

/// One metric per line, by name, with its unit, the segment values behind a median, and
/// the number of samples.
pub fn print(scope: &str, measured: &[Measured]) {
    for m in measured {
        let value = if m.value.is_finite() {
            format!("{:.6}", m.value)
        } else {
            "n/a".into()
        };
        let segments = if m.segments.is_empty() {
            String::new()
        } else {
            let parts: Vec<String> = m.segments.iter().map(|s| format!("{s:.4}")).collect();
            format!("  segments=[{}]", parts.join(", "))
        };
        println!(
            "{scope:<18} {:<36} {value:>16} {:<6}{segments}  n={}",
            m.name,
            unit_of(&m.name),
            m.samples
        );
    }
}

pub fn measured_json(measured: &[Measured]) -> Json {
    Json::obj(measured.iter().map(|m| {
        let mut members = vec![
            ("value", Json::num(m.value)),
            ("unit", Json::str(unit_of(&m.name))),
            ("samples", Json::num(m.samples as f64)),
        ];
        if !m.segments.is_empty() {
            members.push((
                "segments",
                Json::Arr(m.segments.iter().map(|&s| Json::num(s)).collect()),
            ));
        }
        (m.name.clone(), Json::obj(members))
    }))
}

/// The one-line object the driver reads: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the latter holding exactly `names`.
pub fn driver_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    names: &[(String, String)],
    values: &BTreeMap<String, f64>,
) -> Result<String, String> {
    let mut metrics = Vec::new();
    for (name, unit) in names {
        let value = values.get(name).ok_or(format!(
            "BENCHMARK.json lists {name}, which this run does not measure"
        ))?;
        metrics.push((
            name.clone(),
            Json::obj([
                ("value", Json::num(*value)),
                ("unit", Json::str(unit.clone())),
            ]),
        ));
    }
    Ok(Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::num(attempted.max(1) as f64)),
        ("failed", Json::num(failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .to_compact())
}

// ---------------------------------------------------------------------------------------
// Comparing two result files
// ---------------------------------------------------------------------------------------

/// `workload → metric → one value per run` from a result file (one run) or a set file
/// (`runs`: many).
fn end_to_end_values(doc: &Json) -> BTreeMap<String, BTreeMap<String, Vec<f64>>> {
    let single = [doc.clone()];
    let runs = doc
        .get("runs")
        .and_then(Json::as_array)
        .unwrap_or(&single[..]);
    let mut values: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for run in runs {
        for (workload, result) in run.get("workloads").map_or(&[][..], Json::members) {
            for (metric, m) in result.get("end_to_end").map_or(&[][..], Json::members) {
                if let Some(v) = m.get("value").and_then(Json::as_f64) {
                    values
                        .entry(workload.clone())
                        .or_default()
                        .entry(metric.clone())
                        .or_default()
                        .push(v);
                }
            }
        }
    }
    values
}

/// One compared metric × workload.
#[derive(Debug, PartialEq)]
pub struct Verdict {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    /// How much worse `b` is than `a`, as a share of `a` (negative: better).
    pub worse_by: f64,
    pub bound: f64,
    pub pass: bool,
}

pub fn verdict(workload: &str, metric: &str, a: f64, b: f64, bound: Option<f64>) -> Verdict {
    let bound = bound.unwrap_or(DEFAULT_BOUND);
    let worse = if better_of(metric) == "higher" {
        a - b
    } else {
        b - a
    };
    let worse_by = if a != 0.0 { worse / a.abs() } else { 0.0 };
    let pass = match metric {
        "failed_ops_frac" => worse <= FAILED_FRAC_SLACK,
        "setup_s" => worse <= (bound * a).max(SETUP_SLACK_S),
        _ => worse_by <= bound,
    };
    Verdict {
        workload: workload.into(),
        metric: metric.into(),
        a,
        b,
        worse_by,
        bound,
        pass,
    }
}

/// Compares the end-to-end medians of two files and prints one row per metric ×
/// workload. Returns whether every row passed.
pub fn compare(a_path: &str, b_path: &str, contract: &Contract) -> Result<bool, String> {
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = (
        end_to_end_values(&load(a_path)?),
        end_to_end_values(&load(b_path)?),
    );
    println!(
        "{:<18} {:<24} {:>14} {:>14} {:>9} {:>7}  {:>8} {:>8}",
        "workload", "metric", "median A", "median B", "B worse", "bound", "spread A", "spread B"
    );
    let mut all_pass = true;
    for (workload, metrics_a) in &a {
        for def in &END_TO_END {
            let (Some(va), Some(vb)) = (
                metrics_a.get(def.name),
                b.get(workload).and_then(|m| m.get(def.name)),
            ) else {
                continue;
            };
            let bound = contract
                .end_to_end
                .iter()
                .find(|(name, ..)| name == def.name)
                .map(|(.., bound)| *bound);
            let v = verdict(workload, def.name, median(va), median(vb), bound);
            all_pass &= v.pass;
            let spread = |values: &[f64]| match quartile_spread(values) {
                s if s.is_finite() => format!("{:.1}%", s * 100.0),
                _ => "-".into(),
            };
            let bound = match def.name {
                "failed_ops_frac" => format!("+{FAILED_FRAC_SLACK}"),
                _ => format!("{:.0}%", v.bound * 100.0),
            };
            println!(
                "{:<18} {:<24} {:>14.4} {:>14.4} {:>8.1}% {bound:>7}  {:>8} {:>8}  {}",
                v.workload,
                v.metric,
                v.a,
                v.b,
                v.worse_by * 100.0,
                spread(va),
                spread(vb),
                if v.pass { "PASS" } else { "FAIL" }
            );
        }
    }
    Ok(all_pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_the_absolute_slacks() {
        // Throughput: higher is better, so a fall is what counts.
        assert!(verdict("w", "throughput_ops_s", 100.0, 91.0, Some(0.10)).pass);
        assert!(!verdict("w", "throughput_ops_s", 100.0, 89.0, Some(0.10)).pass);
        assert!(verdict("w", "throughput_ops_s", 100.0, 500.0, Some(0.10)).pass);
        // Latency: lower is better.
        let v = verdict("w", "get_p50_us", 50.0, 56.0, Some(0.10));
        assert!(!v.pass && (v.worse_by - 0.12).abs() < 1e-12);
        assert!(verdict("w", "get_p50_us", 50.0, 40.0, None).pass);
        // Metrics BENCHMARK.json cannot list fall back to ten percent.
        assert!(!verdict("w", "rotx_p50_us", 100.0, 111.0, None).pass);
        // Failures: absolute, since the baseline is zero.
        assert!(verdict("w", "failed_ops_frac", 0.0, 0.0005, None).pass);
        assert!(!verdict("w", "failed_ops_frac", 0.0, 0.002, None).pass);
        // Set-up: a quarter, or a fifth of a second, whichever is larger.
        assert!(verdict("w", "setup_s", 0.05, 0.20, Some(0.25)).pass);
        assert!(!verdict("w", "setup_s", 2.0, 2.6, Some(0.25)).pass);
    }

    #[test]
    fn set_files_and_single_results_both_read() {
        let run = |v: f64| {
            Json::obj([(
                "workloads",
                Json::obj([(
                    "tcp_pingpong",
                    Json::obj([(
                        "end_to_end",
                        Json::obj([("get_p50_us", Json::obj([("value", Json::num(v))]))]),
                    )]),
                )]),
            )])
        };
        let single = end_to_end_values(&run(31.0));
        assert_eq!(single["tcp_pingpong"]["get_p50_us"], [31.0]);
        let set = Json::obj([("runs", Json::Arr(vec![run(30.0), run(32.0), run(40.0)]))]);
        assert_eq!(
            end_to_end_values(&set)["tcp_pingpong"]["get_p50_us"],
            [30.0, 32.0, 40.0]
        );
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys_and_names() {
        let names = vec![("latency_us".to_string(), "us".to_string())];
        let values = BTreeMap::from([
            ("latency_us".to_string(), 31.25),
            ("not_listed".to_string(), 1.0),
        ]);
        let line = driver_line(true, 10, 0, &names, &values).unwrap();
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"latency_us":{"value":31.25,"unit":"us"}}}"#
        );
        let missing = vec![("absent".to_string(), "us".to_string())];
        assert!(driver_line(true, 10, 0, &missing, &values).is_err());
    }
}
