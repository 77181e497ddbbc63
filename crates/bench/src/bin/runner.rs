//! The unified benchmark runner: runs named scenarios and writes `BENCH_<name>.json`.
//!
//! ```text
//! runner --list
//! runner --scenario fig1a_scalability --out BENCH_fig1a_scalability.json
//! runner --scenario all --scale smoke --out-dir bench-out
//! ```
//!
//! Every report is validated against the versioned schema before it is written, so a
//! malformed report fails the run instead of poisoning downstream tooling.

use pocc_bench::digest::DigestCorpus;
use pocc_bench::scenarios::{self, PointResult, Runs};
use pocc_bench::{fmt_ms, fmt_tput, json, Scale};
use std::process::ExitCode;

struct Args {
    scenarios: Vec<String>,
    scale: Scale,
    out: Option<String>,
    out_dir: String,
    digests: Option<String>,
    list: bool,
}

const USAGE: &str = "\
USAGE: runner [OPTIONS]

OPTIONS:
  --list                 list registered scenarios and exit
  --scenario <sel>       scenario to run (repeatable); a selector is an exact name,
                         a trailing-* prefix glob such as 'chaos_*', or 'all'
  --scale <scale>        smoke | quick | full (default: quick)
  --out <file>           output path (single scenario only; default BENCH_<name>.json)
  --out-dir <dir>        directory for BENCH_<name>.json files (default: .)
  --digests <file>       also write a digest corpus (DIGESTS.json) covering every
                         scenario run
  -h, --help             show this help
";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        scenarios: Vec::new(),
        scale: Scale::Quick,
        out: None,
        out_dir: ".".into(),
        digests: None,
        list: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--list" => args.list = true,
            "--scenario" => {
                let name = it.next().ok_or("--scenario needs a name")?;
                args.scenarios.push(name);
            }
            "--scale" => {
                let name = it.next().ok_or("--scale needs a value")?;
                args.scale =
                    Scale::parse(&name).ok_or_else(|| format!("unknown scale {name:?}"))?;
            }
            "--out" => args.out = Some(it.next().ok_or("--out needs a path")?),
            "--digests" => args.digests = Some(it.next().ok_or("--digests needs a path")?),
            "--out-dir" => args.out_dir = it.next().ok_or("--out-dir needs a path")?,
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn print_point(result: &PointResult) {
    let r = &result.report;
    println!(
        "    {:<40} {:>12} ops/s   p50 {:>9} ms   p99 {:>9} ms   p999 {:>9} ms",
        result.label,
        fmt_tput(r.throughput_ops_per_sec),
        fmt_ms(r.latency_all.p50()),
        fmt_ms(r.latency_all.p99()),
        fmt_ms(r.latency_all.p999()),
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("error: {err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    if args.list {
        println!(
            "{:<24} {:<22} {:>7}  DESCRIPTION",
            "NAME", "X-AXIS", "POINTS"
        );
        for scenario in scenarios::all() {
            println!(
                "{:<24} {:<22} {:>7}  {}",
                scenario.name,
                scenario.x_axis,
                scenario.points(args.scale).len(),
                scenario.title
            );
        }
        println!("\n(point counts at {} scale)", args.scale.name());
        return ExitCode::SUCCESS;
    }

    if args.scenarios.is_empty() {
        eprintln!("error: no --scenario given (use --list to see the registry)\n{USAGE}");
        return ExitCode::from(2);
    }

    let selected = match scenarios::select(&args.scenarios) {
        Ok(selected) => selected,
        Err(err) => {
            eprintln!("error: {err}\n\nregistered scenarios:");
            for scenario in scenarios::all() {
                eprintln!("  {:<24} {}", scenario.name, scenario.title);
            }
            eprintln!("\nuse 'all' to run the whole registry, or --list for details");
            return ExitCode::from(2);
        }
    };

    if args.out.is_some() && selected.len() != 1 {
        eprintln!("error: --out is only valid with exactly one scenario; use --out-dir");
        return ExitCode::from(2);
    }

    // Fail on an unwritable output directory *before* spending simulation time.
    if args.out.is_none() {
        if let Err(err) = std::fs::create_dir_all(&args.out_dir) {
            eprintln!("error: cannot create --out-dir {}: {err}", args.out_dir);
            return ExitCode::from(2);
        }
    }

    let mut corpus = DigestCorpus::new(args.scale.name());
    let mut runs = Runs::default();
    let mut points = 0;
    for scenario in &selected {
        println!(
            "=== {} ({} scale) — {}",
            scenario.name,
            args.scale.name(),
            scenario.title
        );
        let report = scenario.run(args.scale, &mut runs, print_point);
        points += report.points.len();
        corpus.add_report(&report);
        let doc = report.to_json();
        if let Err(err) = json::validate_report(&doc) {
            eprintln!("error: {}: schema validation failed: {err}", scenario.name);
            return ExitCode::FAILURE;
        }
        let path = match &args.out {
            Some(path) => path.clone(),
            None => format!("{}/BENCH_{}.json", args.out_dir, scenario.name),
        };
        if let Err(err) = std::fs::write(&path, doc.to_pretty()) {
            eprintln!("error: cannot write {path}: {err}");
            return ExitCode::FAILURE;
        }
        println!("    -> {path} (schema v{} OK)\n", json::SCHEMA_VERSION);
    }
    println!(
        "{points} points, {} simulated (figures that plot the same run share it)",
        runs.simulated()
    );
    if let Some(path) = &args.digests {
        if let Err(err) = std::fs::write(path, corpus.to_json().to_pretty()) {
            eprintln!("error: cannot write {path}: {err}");
            return ExitCode::FAILURE;
        }
        println!(
            "digest corpus -> {path} ({} scenarios, digest schema v{})",
            corpus.scenarios.len(),
            pocc_bench::digest::DIGEST_SCHEMA_VERSION
        );
    }
    ExitCode::SUCCESS
}
