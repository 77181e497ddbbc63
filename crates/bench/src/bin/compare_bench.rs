//! Compares two `BENCH_*.json` reports and flags throughput regressions.
//!
//! ```text
//! compare_bench <baseline.json> <current.json> [--threshold 0.25]
//! compare_bench --validate <file.json>...
//! compare_bench --digests <baseline DIGESTS.json> <current DIGESTS.json>
//! compare_bench --microbench <baseline.json> <current.json> [--max-alloc-ratio 1.1]
//! ```
//!
//! Exit codes: 0 = gate passed (no regression / all files valid / no digest drift),
//! 1 = gate failed, 2 = usage or input error. CI runs the comparisons as blocking gates:
//! the simulator is seeded and deterministic, so a >25% throughput regression of the
//! baseline scenario is a real code-path change, not noise — and any digest drift is a
//! real behaviour change. Entries present only in the *current* corpus (a new scenario,
//! or a sweep axis the older baseline predates) are reported as notes, not failures. A
//! deliberate trade-off ships with a regenerated `BENCH_baseline.json` (or
//! `DIGESTS.json`) and an explanation in the PR.
//!
//! `--microbench` compares two `storage_microbench --json` reports and gates on
//! **allocations per operation** — deterministic under the harness's counting
//! allocator, so the gate holds on any machine; ns/op is printed but never gated.

use pocc_bench::compare::{compare, microbench, DEFAULT_MAX_ALLOC_RATIO, DEFAULT_THRESHOLD};
use pocc_bench::digest::DigestCorpus;
use pocc_bench::json;
use std::process::ExitCode;

const USAGE: &str = "\
USAGE:
  compare_bench <baseline.json> <current.json> [--threshold <fraction>]
  compare_bench --validate <file.json>...
  compare_bench --digests <baseline.json> <current.json>
  compare_bench --microbench <baseline.json> <current.json> [--max-alloc-ratio <ratio>]
";

fn load(path: &str) -> Result<json::Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();

    if args.first().map(String::as_str) == Some("--validate") {
        if args.len() < 2 {
            eprintln!("error: --validate needs at least one file\n{USAGE}");
            return ExitCode::from(2);
        }
        for path in &args[1..] {
            let doc = match load(path) {
                Ok(doc) => doc,
                Err(err) => {
                    eprintln!("error: {err}");
                    return ExitCode::from(2);
                }
            };
            if let Err(err) = json::validate_report(&doc) {
                eprintln!("error: {path}: schema validation failed: {err}");
                return ExitCode::from(2);
            }
            println!("{path}: schema v{} OK", json::SCHEMA_VERSION);
        }
        return ExitCode::SUCCESS;
    }

    if args.first().map(String::as_str) == Some("--digests") {
        if args.len() != 3 {
            eprintln!("error: --digests needs a baseline and a current corpus\n{USAGE}");
            return ExitCode::from(2);
        }
        let corpus = |path: &str| -> Result<DigestCorpus, String> {
            DigestCorpus::from_json(&load(path)?).map_err(|e| format!("{path}: {e}"))
        };
        let (baseline, current) = match (corpus(&args[1]), corpus(&args[2])) {
            (Ok(b), Ok(c)) => (b, c),
            (Err(err), _) | (_, Err(err)) => {
                eprintln!("error: {err}");
                return ExitCode::from(2);
            }
        };
        let diff = baseline.diff(&current);
        for line in &diff.notes {
            println!("note: {line}");
        }
        return if diff.is_clean() {
            println!(
                "digest corpora agree: {} scenarios, {} points{}",
                baseline.scenarios.len(),
                baseline
                    .scenarios
                    .iter()
                    .map(|s| s.points.len())
                    .sum::<usize>(),
                if diff.notes.is_empty() {
                    ""
                } else {
                    " (plus new coverage in the current corpus, listed above)"
                }
            );
            ExitCode::SUCCESS
        } else {
            for line in &diff.failures {
                println!("{line}");
            }
            println!(
                "\n{} digest difference(s): behaviour drifted from the checked-in corpus.",
                diff.failures.len()
            );
            println!(
                "If the change is intentional, regenerate with: \
                 runner --scenario all --scale {} --digests DIGESTS.json",
                baseline.scale
            );
            ExitCode::FAILURE
        };
    }

    if args.first().map(String::as_str) == Some("--microbench") {
        let mut paths = Vec::new();
        let mut max_ratio = DEFAULT_MAX_ALLOC_RATIO;
        let mut it = args[1..].iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--max-alloc-ratio" => {
                    let v = it.next().and_then(|v| v.parse::<f64>().ok());
                    match v {
                        Some(v) if v >= 1.0 => max_ratio = v,
                        _ => {
                            eprintln!("error: --max-alloc-ratio needs a ratio >= 1\n{USAGE}");
                            return ExitCode::from(2);
                        }
                    }
                }
                other => paths.push(other.to_string()),
            }
        }
        if paths.len() != 2 {
            eprintln!("error: --microbench needs a baseline and a current report\n{USAGE}");
            return ExitCode::from(2);
        }
        let (baseline, current) = match (load(&paths[0]), load(&paths[1])) {
            (Ok(b), Ok(c)) => (b, c),
            (Err(err), _) | (_, Err(err)) => {
                eprintln!("error: {err}");
                return ExitCode::from(2);
            }
        };
        return match microbench(&baseline, &current, max_ratio) {
            Ok(cmp) => {
                print!("{}", cmp.render());
                if cmp.has_regressions() {
                    println!("allocation regressions beyond {max_ratio:.2}x the baseline detected");
                    ExitCode::FAILURE
                } else {
                    println!("no allocation regressions beyond {max_ratio:.2}x the baseline");
                    ExitCode::SUCCESS
                }
            }
            Err(err) => {
                eprintln!("error: {err}");
                ExitCode::from(2)
            }
        };
    }

    let mut paths = Vec::new();
    let mut threshold = DEFAULT_THRESHOLD;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--threshold" => {
                let v = it.next().and_then(|v| v.parse::<f64>().ok());
                match v {
                    Some(v) if v > 0.0 && v < 1.0 => threshold = v,
                    _ => {
                        eprintln!("error: --threshold needs a fraction in (0, 1)\n{USAGE}");
                        return ExitCode::from(2);
                    }
                }
            }
            "-h" | "--help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => paths.push(other.to_string()),
        }
    }
    if paths.len() != 2 {
        eprintln!("error: expected a baseline and a current report\n{USAGE}");
        return ExitCode::from(2);
    }

    let (baseline, current) = match (load(&paths[0]), load(&paths[1])) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(err), _) | (_, Err(err)) => {
            eprintln!("error: {err}");
            return ExitCode::from(2);
        }
    };

    match compare(&baseline, &current, threshold) {
        Ok(cmp) => {
            print!("{}", cmp.render());
            if cmp.has_regressions() {
                println!(
                    "throughput regressions beyond {:.0}% detected",
                    threshold * 100.0
                );
                ExitCode::FAILURE
            } else {
                println!("no throughput regressions beyond {:.0}%", threshold * 100.0);
                ExitCode::SUCCESS
            }
        }
        Err(err) => {
            eprintln!("error: {err}");
            ExitCode::from(2)
        }
    }
}
