//! Rejection paths of the `BENCH_*.json` schema validator.
//!
//! The happy path is covered by the scenario round-trip test (every registered
//! scenario's output validates); these tests pin down what the validator *refuses*: a
//! wrong schema version, missing required fields, wrong JSON types, non-finite and
//! negative numbers, disordered percentiles and empty point lists. The runner validates
//! every report before writing it, so each rejection here is a corrupt file that never
//! reaches disk.

use pocc_bench::json::{self, Json};
use pocc_bench::scenarios::{self, Runs};
use pocc_bench::Scale;

/// A known-good report document to corrupt: the cheapest registered scenario at smoke
/// scale.
fn valid_report() -> Json {
    let doc = scenarios::find("baseline")
        .unwrap()
        .run(Scale::Smoke, &mut Runs::default(), |_| {})
        .to_json();
    json::validate_report(&doc).expect("a fresh report validates");
    doc
}

/// Replaces the value at `path` (dot-separated object keys; `points.0` indexes arrays)
/// with `value`, panicking if the path does not exist.
fn set(doc: &mut Json, path: &str, value: Json) {
    let mut node = doc;
    let segments: Vec<&str> = path.split('.').collect();
    let (last, walk) = segments.split_last().unwrap();
    for seg in walk {
        node = step(node, seg);
    }
    *step(node, last) = value;
}

/// Removes the object member at `path`.
fn remove(doc: &mut Json, path: &str) {
    let mut node = doc;
    let segments: Vec<&str> = path.split('.').collect();
    let (last, walk) = segments.split_last().unwrap();
    for seg in walk {
        node = step(node, seg);
    }
    match node {
        Json::Obj(members) => members.retain(|(k, _)| k != last),
        _ => panic!("{path}: parent is not an object"),
    }
}

fn step<'j>(node: &'j mut Json, seg: &str) -> &'j mut Json {
    match node {
        Json::Obj(members) => members
            .iter_mut()
            .find(|(k, _)| k == seg)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("no member {seg:?}")),
        Json::Arr(items) => {
            let idx: usize = seg.parse().unwrap_or_else(|_| panic!("bad index {seg:?}"));
            &mut items[idx]
        }
        _ => panic!("cannot descend into a scalar via {seg:?}"),
    }
}

fn assert_rejected(doc: &Json, expected_fragment: &str) {
    let err = json::validate_report(doc).expect_err("corrupt report must be rejected");
    assert!(
        err.contains(expected_fragment),
        "error {err:?} should mention {expected_fragment:?}"
    );
}

#[test]
fn rejects_wrong_and_missing_schema_version() {
    let mut doc = valid_report();
    set(
        &mut doc,
        "schema_version",
        Json::u64(json::SCHEMA_VERSION + 1),
    );
    assert_rejected(&doc, "schema_version");

    let mut doc = valid_report();
    remove(&mut doc, "schema_version");
    assert_rejected(&doc, "schema_version");
}

#[test]
fn rejects_missing_required_fields_at_every_level() {
    for path in [
        "scenario",
        "points",
        "points.0.label",
        "points.0.throughput_ops_per_sec",
        "points.0.latency_us.all.p99",
        "points.0.network.wan_messages",
        "points.0.consistency.violations",
    ] {
        let mut doc = valid_report();
        remove(&mut doc, path);
        let field = path.rsplit('.').next().unwrap();
        assert_rejected(&doc, field);
    }
}

#[test]
fn rejects_wrong_json_types() {
    let mut doc = valid_report();
    set(&mut doc, "seed", Json::str("42"));
    assert_rejected(&doc, "expected a number");

    let mut doc = valid_report();
    set(&mut doc, "scenario", Json::u64(7));
    assert_rejected(&doc, "expected a string");

    let mut doc = valid_report();
    set(&mut doc, "points", Json::Obj(vec![]));
    assert_rejected(&doc, "expected an array");
}

#[test]
fn rejects_non_finite_numbers() {
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut doc = valid_report();
        set(&mut doc, "points.0.throughput_ops_per_sec", Json::Num(bad));
        assert_rejected(&doc, "finite");
    }
}

#[test]
fn rejects_negative_quantities() {
    for path in [
        "points.0.throughput_ops_per_sec",
        "points.0.latency_us.all.p50",
        "points.0.operations.total",
    ] {
        let mut doc = valid_report();
        set(&mut doc, path, Json::Num(-1.0));
        assert_rejected(&doc, "non-negative");
    }
}

#[test]
fn rejects_disordered_percentiles_and_empty_points() {
    let mut doc = valid_report();
    set(&mut doc, "points.0.latency_us.all.p999", Json::Num(0.0));
    set(&mut doc, "points.0.latency_us.all.max", Json::Num(0.0));
    assert_rejected(&doc, "ordered");

    let mut doc = valid_report();
    set(&mut doc, "points", Json::Arr(vec![]));
    assert_rejected(&doc, "at least one point");
}
