//! The open-loop load generator binary: wall-clock load against the cluster runtime.
//!
//! ```text
//! loadgen --list
//! loadgen --scenario steady --transport tcp --rate 60000 --duration 2
//! loadgen --scenario churn --protocol cure --out BENCH_loadgen_churn.json
//! ```
//!
//! Latencies are coordinated-omission-safe: every operation is timestamped by its
//! *intended* start on the precomputed arrival schedule, so queueing delay caused by a
//! slow server is charged to the operations that suffered it. Reports are validated
//! against the versioned BENCH schema before they are written.

use pocc_bench::{fmt_ms, fmt_tput, json, loadgen, Scale};
use pocc_runtime::TransportKind;
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    options: loadgen::LoadOptions,
    out: Option<String>,
    list: bool,
}

const USAGE: &str = "\
USAGE: loadgen [OPTIONS]

OPTIONS:
  --list                 list registered load scenarios and exit
  --scenario <name>      load scenario (default: steady)
  --transport <name>     transport backend: channel | tcp (default: tcp)
  --protocol <name>      protocol: pocc | cure | hapocc | adaptive (default: pocc)
  --scale <scale>        smoke | quick | full (report label; default: smoke)
  --replicas <n>         data centers (default: 2)
  --partitions <n>       partitions per data center (default: 2)
  --lanes <n>            worker lanes per server; above 1 runs the parallel server (default: 1)
  --conns <n>            concurrent connections (default: 8)
  --pipeline <n>         max in-flight operations per connection (default: 32)
  --rate <ops/sec>       target aggregate arrival rate (default: 60000)
  --warmup <seconds>     unrecorded warm-up window (default: 0.3)
  --duration <seconds>   measured window (default: 2)
  --churn-every <ops>    churn scenario: reconnect period per connection (default: 2000)
  --out <file>           output path (default: BENCH_<scenario>.json)
  -h, --help             show this help
";

fn list_scenarios() {
    eprintln!("registered load scenarios:");
    for s in loadgen::scenarios() {
        eprintln!("  {:<16} {}", s.name, s.title);
    }
}

fn list_transports() {
    eprintln!("registered transports:");
    for t in TransportKind::all() {
        eprintln!("  {}", t.name());
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        options: loadgen::LoadOptions::smoke(
            loadgen::find_scenario("steady").expect("steady scenario is registered"),
        ),
        out: None,
        list: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let num = |name: &str, it: &mut dyn Iterator<Item = String>| -> Result<f64, String> {
            let v = it.next().ok_or_else(|| format!("{name} needs a value"))?;
            v.parse::<f64>()
                .map_err(|_| format!("{name}: invalid number {v:?}"))
        };
        match arg.as_str() {
            "--list" => args.list = true,
            "--scenario" => {
                let name = it.next().ok_or("--scenario needs a name")?;
                args.options.scenario = loadgen::find_scenario(&name).ok_or_else(|| {
                    list_scenarios();
                    format!("unknown scenario {name:?}")
                })?;
            }
            "--transport" => {
                let name = it.next().ok_or("--transport needs a name")?;
                args.options.transport = TransportKind::parse(&name).ok_or_else(|| {
                    list_transports();
                    format!("unknown transport {name:?}")
                })?;
            }
            "--protocol" => {
                let name = it.next().ok_or("--protocol needs a name")?;
                args.options.protocol = name.parse()?;
            }
            "--scale" => {
                let name = it.next().ok_or("--scale needs a value")?;
                args.options.scale =
                    Scale::parse(&name).ok_or_else(|| format!("unknown scale {name:?}"))?;
            }
            "--replicas" => args.options.replicas = num("--replicas", &mut it)? as usize,
            "--partitions" => args.options.partitions = num("--partitions", &mut it)? as usize,
            "--lanes" => args.options.lanes = num("--lanes", &mut it)? as usize,
            "--conns" => args.options.conns = num("--conns", &mut it)? as usize,
            "--pipeline" => args.options.pipeline = num("--pipeline", &mut it)? as usize,
            "--rate" => args.options.rate = num("--rate", &mut it)?,
            "--warmup" => args.options.warmup = Duration::from_secs_f64(num("--warmup", &mut it)?),
            "--duration" => {
                args.options.duration = Duration::from_secs_f64(num("--duration", &mut it)?)
            }
            "--churn-every" => args.options.churn_every = num("--churn-every", &mut it)? as u64,
            "--out" => args.out = Some(it.next().ok_or("--out needs a path")?),
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.options.replicas < 1
        || args.options.partitions < 1
        || args.options.lanes < 1
        || args.options.conns < 1
        || args.options.pipeline < 1
        || args.options.rate <= 0.0
    {
        return Err(
            "replicas, partitions, lanes, conns, pipeline and rate must be positive".into(),
        );
    }
    Ok(args)
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
        println!("{:<16} DESCRIPTION", "NAME");
        for s in loadgen::scenarios() {
            println!("{:<16} {}", s.name, s.title);
        }
        println!("\ntransports: channel, tcp; protocols: pocc, cure, hapocc, adaptive");
        return ExitCode::SUCCESS;
    }

    let o = &args.options;
    println!(
        "=== {} — {} transport, {} protocol, {}x{} deployment, {} lane(s) per server",
        o.scenario.name,
        o.transport.name(),
        o.protocol,
        o.replicas,
        o.partitions,
        o.lanes,
    );
    println!(
        "    target {} ops/s over {} conns (pipeline {}), warmup {:.1}s + measured {:.1}s",
        fmt_tput(o.rate),
        o.conns,
        o.pipeline,
        o.warmup.as_secs_f64(),
        o.duration.as_secs_f64(),
    );

    let report = loadgen::run(&args.options);
    let point = &report.points[0];
    let r = &point.report;
    println!(
        "    achieved {} ops/s over {:.2}s ({} ops; {} gets, {} puts)",
        fmt_tput(r.throughput_ops_per_sec),
        r.measured_window.as_secs_f64(),
        r.operations_completed,
        r.gets_completed,
        r.puts_completed,
    );
    println!(
        "    latency (ms, CO-safe)  p50 {:>8}  p95 {:>8}  p99 {:>8}  p999 {:>8}  max {:>8}",
        fmt_ms(r.latency_all.p50()),
        fmt_ms(r.latency_all.p95()),
        fmt_ms(r.latency_all.p99()),
        fmt_ms(r.latency_all.p999()),
        fmt_ms(r.latency_all.max()),
    );
    println!(
        "    converged: {} (replica digests {})",
        r.converged,
        if r.converged { "agree" } else { "DIVERGED" },
    );

    let doc = report.to_json();
    if let Err(err) = json::validate_report(&doc) {
        eprintln!("error: schema validation failed: {err}");
        return ExitCode::FAILURE;
    }
    let path = args
        .out
        .unwrap_or_else(|| format!("BENCH_{}.json", report.scenario));
    if let Err(err) = std::fs::write(&path, doc.to_pretty()) {
        eprintln!("error: cannot write {path}: {err}");
        return ExitCode::FAILURE;
    }
    println!("    -> {path} (schema v{} OK)", json::SCHEMA_VERSION);

    if !r.converged {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
