//! The repository benchmark. See `README.md` in this directory.
//!
//! ```text
//! pocc-benchmark [--seed N] [--seconds S] [--smoke]        everything, once
//! pocc-benchmark --repeat N [--seed N] [--seconds S]       N end-to-end sets, one file
//! pocc-benchmark --compare A.json B.json                   medians, difference, PASS/FAIL
//! pocc-benchmark --describe                                the metric tables, as markdown
//! pocc-benchmark --workload W --seed N --seconds S --trace 0|1    one run, for the driver
//! ```

use pocc_benchmark::driver::{self, Plan, RunOutput};
use pocc_benchmark::json::Json;
use pocc_benchmark::metrics::{self, Measured};
use pocc_benchmark::report::{self, Contract};
use pocc_benchmark::workload::{self, Workload, WORKLOADS};
use pocc_benchmark::{layers, procfs, trace};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Seconds measured per workload when everything runs once: three per epoch.
const FULL_SECONDS: f64 = 24.0;
/// Seconds of the traced pass: eight untraced as the reference, eight traced.
const TRACED_SECONDS: f64 = 16.0;
/// Warm-up of each epoch.
const WARMUP: Duration = Duration::from_secs(1);
/// Cluster instances an untraced run measures, one after another.
const EPOCHS: usize = 8;
/// Every end-to-end metric is computed per one-second segment and reported as the median
/// of the segments. On the two-processor machines this runs on, the scheduler drops a
/// workload into a slow placement of its threads for one to three seconds every ten or
/// so; segments this short isolate those episodes, longer ones each absorb one.
const SEGMENT: Duration = Duration::from_secs(1);
/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// `--smoke`: three one-second segments (one plus one traced) and a tenth of the layer
/// pass, to test the harness.
const SMOKE_SECONDS: f64 = 3.0;
const SMOKE_TRACED_SECONDS: f64 = 2.0;

/// Set by the benchmark's own negative test: see `Plan::inject_foreign_read`.
const INJECT_ENV: &str = "POCC_BENCHMARK_INJECT_FOREIGN_READ";

#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    repeat: Option<u64>,
    compare: Option<(String, String)>,
    describe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        ..Args::default()
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        fn number<T: std::str::FromStr>(flag: &str, text: String) -> Result<T, String> {
            text.parse()
                .map_err(|_| format!("{flag} {text}: not a number it accepts"))
        }
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = number(&flag, value()?)?,
            "--seconds" => args.seconds = Some(number(&flag, value()?)?),
            "--trace" => args.trace = number::<u8>(&flag, value()?)? != 0,
            "--repeat" => args.repeat = Some(number(&flag, value()?)?),
            "--compare" => args.compare = Some((value()?, value()?)),
            "--smoke" => args.smoke = true,
            "--describe" => args.describe = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seconds.is_some_and(|s| s.is_nan() || s <= 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn segments(seconds: f64) -> usize {
    (seconds / SEGMENT.as_secs_f64()).round().max(1.0) as usize
}

/// `EPOCHS` epochs that together measure `seconds`, or the next multiple of `EPOCHS`
/// segments above it.
fn untraced_plan(seconds: f64, warmup: Duration) -> Plan {
    let segments = segments(seconds);
    let epochs = EPOCHS.min(segments);
    Plan {
        epochs,
        warmup,
        segment: SEGMENT,
        segments: segments.div_ceil(epochs),
        traced: 0,
        setups: SETUPS,
        inject_foreign_read: std::env::var_os(INJECT_ENV).is_some(),
    }
}

/// The first half runs untraced as the reference for `trace.overhead_frac`, the second
/// half traced.
fn traced_plan(seconds: f64, warmup: Duration) -> Plan {
    let segments = segments(seconds).max(2);
    Plan {
        epochs: 1,
        warmup,
        segment: SEGMENT,
        segments,
        traced: segments / 2,
        setups: 1,
        inject_foreign_read: false,
    }
}

fn run(workload: &Workload, seed: u64, plan: &Plan) -> Result<RunOutput, String> {
    if plan.traced > 0 {
        // So that `mem.rss_peak_mb` is this run's peak, not an earlier workload's.
        let _ = std::fs::write("/proc/self/clear_refs", "5");
    }
    let out = driver::run(workload, seed, plan)?;
    if !out.correct() {
        eprintln!(
            "{}: OUTPUT CHECK FAILED: converged={} {:?}",
            workload.name, out.converged, out.violations
        );
    }
    if out.failures.total() > 0 {
        eprintln!("{}: failed operations: {:?}", workload.name, out.failures);
    }
    Ok(out)
}

fn checks_json(out: &RunOutput) -> Json {
    Json::obj([
        ("replicas_converged", Json::Bool(out.converged)),
        ("foreign_reads", Json::num(out.violations.foreign as f64)),
        (
            "non_monotonic_reads",
            Json::num(out.violations.non_monotonic as f64),
        ),
        (
            "stale_own_reads",
            Json::num(out.violations.stale_own as f64),
        ),
        (
            "first_violation",
            out.violations.first.clone().map_or(Json::Null, Json::Str),
        ),
        ("unanswered", Json::num(out.failures.unanswered as f64)),
        (
            "submit_errors",
            Json::num(out.failures.submit_errors as f64),
        ),
        ("session_aborts", Json::num(out.failures.aborts as f64)),
    ])
}

fn machine_json() -> Json {
    let (nproc, kernel) = procfs::machine_fingerprint();
    Json::obj([
        ("nproc", Json::num(nproc as f64)),
        ("kernel", Json::str(kernel)),
        ("generator_threads", Json::num(2.0)),
    ])
}

fn warn_if_no_schedstat(measured: &[Measured]) {
    if measured
        .iter()
        .any(|m| m.name.starts_with("sched.") && m.value.is_nan())
    {
        eprintln!("warning: no /proc/self/task/*/schedstat here: sched.* metrics are null");
    }
}

fn write_file(contract: &Contract, name: &str, doc: &Json) -> Result<(), String> {
    let dir = contract.out_dir();
    let path = dir.join(name);
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, doc.to_pretty()))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// One run for the driver: prints the metrics by name, then the result object.
fn driver_mode(args: &Args, name: &str, contract: &Contract) -> Result<bool, String> {
    let workload = workload::find(name).ok_or_else(|| {
        let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; known: {}", known.join(", "))
    })?;
    let seconds = args.seconds.unwrap_or(contract.run_seconds);
    let mut values = BTreeMap::new();
    let mut keep = |measured: &[Measured]| {
        report::print(workload.name, measured);
        for m in measured {
            values.insert(m.name.clone(), m.value);
        }
    };
    let (out, names) = if args.trace {
        let plan = traced_plan(seconds, WARMUP);
        let out = run(workload, args.seed, &plan)?;
        // End-to-end metrics kept as layer metrics come from the untraced reference.
        let reference = metrics::end_to_end(&out, &plan, 0..plan.traced_range().start);
        let traced = metrics::traced(&out, &plan);
        warn_if_no_schedstat(&traced);
        let get_p50_us = metrics::value_of(&reference, "get_p50_us");
        keep(&reference);
        keep(&traced);
        keep(&layers::run(1.0, get_p50_us)?);
        trace::write(&contract.out_dir(), workload.name, &out.spans).map_err(|e| e.to_string())?;
        (out, contract.per_layer.clone())
    } else {
        let plan = untraced_plan(seconds, WARMUP);
        let out = run(workload, args.seed, &plan)?;
        keep(&metrics::end_to_end(&out, &plan, 0..out.segments.len()));
        report::print(workload.name, &metrics::tails(&out));
        let names = contract
            .end_to_end
            .iter()
            .map(|(name, unit, ..)| (name.clone(), unit.clone()))
            .collect();
        (out, names)
    };
    let line = report::driver_line(
        out.correct(),
        out.attempted,
        out.failures.total(),
        &names,
        &values,
    )?;
    println!("{line}");
    // The verdict travels in the line's `correct`; the driver expects exit code 0 with it.
    Ok(true)
}

fn workload_json(
    out: &RunOutput,
    end_to_end: &[Measured],
    tails: &[Measured],
) -> Vec<(&'static str, Json)> {
    vec![
        ("correct", Json::Bool(out.correct())),
        ("attempted", Json::num(out.attempted as f64)),
        ("failed", Json::num(out.failures.total() as f64)),
        ("checks", checks_json(out)),
        ("end_to_end", report::measured_json(end_to_end)),
        ("tails", report::measured_json(tails)),
    ]
}

/// Everything once: per workload an untraced run for the end-to-end metrics and a traced
/// run for its layer metrics, then the layer pass. Returns whether every check passed.
fn full_mode(args: &Args, contract: &Contract) -> Result<bool, String> {
    let (seconds, traced_seconds, warmup, scale) = if args.smoke {
        (SMOKE_SECONDS, SMOKE_TRACED_SECONDS, WARMUP / 10, 0.1)
    } else {
        (
            args.seconds.unwrap_or(FULL_SECONDS),
            TRACED_SECONDS,
            WARMUP,
            1.0,
        )
    };
    let mut all_correct = true;
    let mut workloads = Vec::new();
    let mut tcp_get_p50_us = f64::NAN;
    for workload in &WORKLOADS {
        println!("== {}: {}", workload.name, workload.why);
        let plan = untraced_plan(seconds, warmup);
        let out = run(workload, args.seed, &plan)?;
        let end_to_end = metrics::end_to_end(&out, &plan, 0..out.segments.len());
        let tails = metrics::tails(&out);
        report::print(workload.name, &end_to_end);
        report::print(workload.name, &tails);
        if workload.name == "tcp_pingpong" {
            tcp_get_p50_us = metrics::value_of(&end_to_end, "get_p50_us");
        }
        let mut members = workload_json(&out, &end_to_end, &tails);
        all_correct &= out.correct();

        let plan = traced_plan(traced_seconds, warmup);
        let out = run(workload, args.seed, &plan)?;
        let traced = metrics::traced(&out, &plan);
        warn_if_no_schedstat(&traced);
        report::print(workload.name, &traced);
        trace::write(&contract.out_dir(), workload.name, &out.spans).map_err(|e| e.to_string())?;
        members.push(("traced_checks", checks_json(&out)));
        members.push(("per_layer", report::measured_json(&traced)));
        all_correct &= out.correct();
        workloads.push((workload.name, Json::obj(members)));
    }

    println!("== layer pass");
    let layers = layers::run(scale, tcp_get_p50_us)?;
    report::print("layers", &layers);
    let layers = Some(report::measured_json(&layers));
    let doc = result_doc(args.seed, args.smoke, workloads, layers);
    write_file(contract, &format!("result_seed{}.json", args.seed), &doc)?;
    Ok(all_correct)
}

fn result_doc(
    seed: u64,
    smoke: bool,
    workloads: Vec<(&'static str, Json)>,
    layers: Option<Json>,
) -> Json {
    let mut members = vec![
        ("seed", Json::num(seed as f64)),
        ("scale", Json::str(if smoke { "smoke" } else { "full" })),
        // This benchmark defines the yardstick; it claims no gain.
        ("claim", Json::Null),
        ("machine", machine_json()),
        ("workloads", Json::obj(workloads)),
    ];
    if let Some(layers) = layers {
        members.push(("layers", layers));
    }
    Json::obj(members)
}

/// `n` sets of end-to-end runs, seeds counting up from `--seed`, each exactly the run the
/// driver makes with `--trace 0`: the tool for the two-set acceptance check.
fn repeat_mode(args: &Args, n: u64, contract: &Contract) -> Result<bool, String> {
    let (seconds, warmup) = if args.smoke {
        (SMOKE_SECONDS, WARMUP / 10)
    } else {
        (args.seconds.unwrap_or(contract.run_seconds), WARMUP)
    };
    let plan = untraced_plan(seconds, warmup);
    let mut all_correct = true;
    let mut runs = Vec::new();
    for seed in args.seed..args.seed + n {
        let mut workloads = Vec::new();
        for workload in &WORKLOADS {
            println!("== seed {seed}: {}", workload.name);
            let out = run(workload, seed, &plan)?;
            let end_to_end = metrics::end_to_end(&out, &plan, 0..out.segments.len());
            report::print(workload.name, &end_to_end);
            all_correct &= out.correct();
            let tails = metrics::tails(&out);
            workloads.push((
                workload.name,
                Json::obj(workload_json(&out, &end_to_end, &tails)),
            ));
        }
        runs.push(result_doc(seed, args.smoke, workloads, None));
    }
    let doc = Json::obj([
        ("first_seed", Json::num(args.seed as f64)),
        ("seconds", Json::num(seconds)),
        ("machine", machine_json()),
        ("runs", Json::Arr(runs)),
    ]);
    write_file(contract, &format!("set_seed{}_x{n}.json", args.seed), &doc)?;
    Ok(all_correct)
}

/// The workload and metric tables of the README, generated from the definitions.
fn describe() {
    println!("| workload | why |\n|---|---|");
    for w in &WORKLOADS {
        println!("| `{}` | {} |", w.name, w.why);
    }
    println!("\n| end-to-end metric | unit | better |\n|---|---|---|");
    for d in &metrics::END_TO_END {
        println!("| `{}` | {} | {} |", d.name, d.unit, d.better);
    }
    println!("\n| layer metric | unit | better | should move |\n|---|---|---|---|");
    for (name, def, moves) in metrics::per_layer_defs() {
        println!("| `{name}` | {} | {} | {moves} |", def.unit, def.better);
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let outcome = parse_args().and_then(|args| {
        if args.describe {
            describe();
            return Ok(true);
        }
        let contract = Contract::load()?;
        if let Some((a, b)) = &args.compare {
            return report::compare(a, b, &contract);
        }
        let (nproc, kernel) = procfs::machine_fingerprint();
        if nproc < 2 {
            return Err(format!(
                "this benchmark runs two generator threads beside the cluster and needs at least 2 processors; found {nproc}"
            ));
        }
        println!("machine: nproc={nproc} kernel={kernel} generator_threads=2");
        match (&args.workload, args.repeat) {
            (Some(name), _) => driver_mode(&args, name, &contract),
            (None, Some(n)) => repeat_mode(&args, n, &contract),
            (None, None) => full_mode(&args, &contract),
        }
    });
    match outcome {
        Ok(true) => {
            eprintln!("total wall time: {:.1} s", started.elapsed().as_secs_f64());
            ExitCode::SUCCESS
        }
        Ok(false) => {
            eprintln!("FAILED: an output check or a comparison did not pass");
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}
