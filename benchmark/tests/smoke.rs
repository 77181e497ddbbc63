//! Runs the built program at smoke scale from the repository root, as a user would.

use pocc_benchmark::json::{self, Json};
use pocc_benchmark::report::Contract;
use pocc_benchmark::workload::WORKLOADS;
use std::collections::HashMap;
use std::path::Path;
use std::process::{Command, Output};
use std::sync::{Mutex, MutexGuard};

/// The runs measure time and share `benchmark/out/`: one at a time.
fn exclusive() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repository root")
}

fn benchmark(args: &[&str], env: &[(&str, &str)]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pocc-benchmark"))
        .args(args)
        .envs(env.iter().copied())
        .current_dir(repo_root())
        .output()
        .expect("the benchmark binary runs")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

/// `(scope, metric) -> (value, samples)` from the lines `report::print` writes.
fn printed(stdout: &str) -> HashMap<(String, String), (f64, u64)> {
    let mut found = HashMap::new();
    for line in stdout.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let (Some(value), Some(samples)) = (
            fields.get(2),
            fields.last().and_then(|f| f.strip_prefix("n=")),
        ) else {
            continue;
        };
        if let Ok(samples) = samples.parse() {
            let value = value.parse().unwrap_or(f64::NAN);
            found.insert(
                (fields[0].to_string(), fields[1].to_string()),
                (value, samples),
            );
        }
    }
    found
}

#[test]
fn one_command_prints_every_metric_of_benchmark_json_for_every_workload() {
    let contract = Contract::read(repo_root()).expect("BENCHMARK.json parses");
    assert!(contract.per_layer.len() >= 75);
    let _guard = exclusive();
    let run = benchmark(&["--smoke", "--seed", "7"], &[]);
    let stdout = text(&run.stdout);
    assert!(
        run.status.success(),
        "smoke run failed:\n{stdout}\n{}",
        text(&run.stderr)
    );
    let printed = printed(&stdout);

    for workload in &WORKLOADS {
        for (name, ..) in &contract.end_to_end {
            let (value, samples) = printed
                .get(&(workload.name.to_string(), name.clone()))
                .unwrap_or_else(|| panic!("{}: {name} is not printed", workload.name));
            assert!(
                value.is_finite() && *value > 0.0,
                "{}: {name} = {value}",
                workload.name
            );
            assert!(*samples > 0, "{}: {name} has no samples", workload.name);
        }
    }
    for (name, _) in &contract.per_layer {
        // A layer metric is printed once by the layer pass, or per workload by its
        // traced run; somewhere it must rest on samples.
        let rows: Vec<_> = printed.iter().filter(|((_, n), _)| n == name).collect();
        let expected = if rows.iter().any(|((scope, _), _)| scope == "layers") {
            1
        } else {
            WORKLOADS.len()
        };
        assert_eq!(
            rows.len(),
            expected,
            "{name} is printed {} times",
            rows.len()
        );
        assert!(
            rows.iter().all(|(_, (value, _))| value.is_finite()),
            "{name} is not finite everywhere: {rows:?}"
        );
        assert!(
            rows.iter().any(|(_, (_, samples))| *samples > 0),
            "{name} has no samples anywhere"
        );
    }

    // The result file holds the same, with the machine and no claim.
    let result = std::fs::read_to_string(contract.out_dir().join("result_seed7.json")).unwrap();
    let result = json::parse(&result).unwrap();
    assert_eq!(result.get("claim"), Some(&Json::Null));
    assert!(result.get("machine").and_then(|m| m.get("nproc")).is_some());
    assert_eq!(
        result.get("workloads").unwrap().members().len(),
        WORKLOADS.len()
    );
    for workload in &WORKLOADS {
        let spans = contract
            .out_dir()
            .join(format!("trace_{}.json", workload.name));
        let spans = json::parse(&std::fs::read_to_string(spans).unwrap()).unwrap();
        assert!(!spans.get("spans").unwrap().as_array().unwrap().is_empty());
    }
}

#[test]
fn a_driver_run_ends_with_exactly_the_contract_object() {
    let contract = Contract::read(repo_root()).expect("BENCHMARK.json parses");
    let _guard = exclusive();
    for (trace, names) in [
        (
            "0",
            contract
                .end_to_end
                .iter()
                .map(|m| m.0.clone())
                .collect::<Vec<_>>(),
        ),
        (
            "1",
            contract.per_layer.iter().map(|m| m.0.clone()).collect(),
        ),
    ] {
        let run = benchmark(
            &[
                "--workload",
                "cure_rotx",
                "--seed",
                "3",
                "--seconds",
                "2",
                "--trace",
                trace,
            ],
            &[],
        );
        assert!(run.status.success(), "{}", text(&run.stderr));
        let stdout = text(&run.stdout);
        let last = json::parse(stdout.lines().last().unwrap()).expect("the last line is JSON");
        let keys: Vec<&str> = last.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(last.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(last.get("failed").and_then(Json::as_f64), Some(0.0));
        assert!(last.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
        let metrics = last.get("metrics").unwrap().members();
        let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(got, names, "--trace {trace}");
        for (name, metric) in metrics {
            let keys: Vec<&str> = metric.members().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["value", "unit"], "{name}");
            assert!(
                metric.get("value").and_then(Json::as_f64).is_some(),
                "{name} is not a number"
            );
        }
    }
}

#[test]
fn a_fabricated_foreign_read_fails_the_run() {
    let env = [("POCC_BENCHMARK_INJECT_FOREIGN_READ", "1")];
    let _guard = exclusive();
    let run = benchmark(&["--smoke", "--repeat", "1", "--seed", "9"], &env);
    assert_eq!(run.status.code(), Some(1), "{}", text(&run.stderr));
    assert!(text(&run.stderr).contains("OUTPUT CHECK FAILED"));

    // For the driver the verdict travels in the result object.
    let run = benchmark(
        &[
            "--workload",
            "tcp_pingpong",
            "--seed",
            "9",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        &env,
    );
    let stdout = text(&run.stdout);
    let last = json::parse(stdout.lines().last().unwrap()).unwrap();
    assert_eq!(last.get("correct"), Some(&Json::Bool(false)));
}

#[test]
fn unknown_arguments_and_workloads_are_refused() {
    for args in [&["--bogus"][..], &["--workload", "nope", "--trace", "0"]] {
        let run = benchmark(args, &[]);
        assert_eq!(run.status.code(), Some(2), "{args:?}");
        assert!(run.stdout.is_empty() || !text(&run.stdout).contains("\"metrics\""));
    }
}
