//! Scenario-registry round-trip: every registered scenario resolves by name, runs at
//! smoke parameters, and produces a schema-valid `BENCH_*.json` document that survives
//! a serialize → parse round trip.
//!
//! This is the same path CI's `bench-smoke` job exercises, so a scenario that breaks
//! (bad sweep, panicking config, schema drift) fails `cargo test` before it fails CI.

use pocc_bench::json;
use pocc_bench::scenarios::{self, Runs};
use pocc_bench::Scale;

#[test]
fn every_scenario_runs_at_smoke_scale_and_emits_schema_valid_json() {
    let registry = scenarios::all();
    assert!(
        registry.len() >= 14,
        "the registry must keep at least the 9 paper-figure scenarios, the ablations, \
         and 4 extended workloads"
    );

    let mut runs = Runs::default();
    for scenario in registry {
        let resolved = scenarios::find(scenario.name).expect("registry name resolves");
        assert_eq!(resolved.name, scenario.name);

        let report = resolved.run(Scale::Smoke, &mut runs, |_| {});
        assert!(
            !report.points.is_empty(),
            "{}: no points at smoke scale",
            scenario.name
        );
        for point in &report.points {
            assert!(
                point.report.operations_completed > 0,
                "{}/{}: completed no operations",
                scenario.name,
                point.label
            );
        }

        let doc = report.to_json();
        json::validate_report(&doc)
            .unwrap_or_else(|err| panic!("{}: schema validation failed: {err}", scenario.name));

        // The document survives a write → parse round trip unchanged.
        let text = doc.to_pretty();
        let parsed = json::parse(&text)
            .unwrap_or_else(|err| panic!("{}: writer output unparsable: {err}", scenario.name));
        assert_eq!(parsed, doc, "{}: JSON round trip diverged", scenario.name);
        json::validate_report(&parsed).expect("parsed document still validates");
    }
}

#[test]
fn scenario_runs_are_deterministic() {
    // Two runs of the same scenario at the same scale produce byte-identical JSON;
    // this is what lets CI diff fresh runs against the checked-in baseline.
    let scenario = scenarios::find("baseline").expect("baseline scenario exists");
    let a = scenario
        .run(Scale::Smoke, &mut Runs::default(), |_| {})
        .to_json()
        .to_pretty();
    let scenario = scenarios::find("baseline").expect("baseline scenario exists");
    let b = scenario
        .run(Scale::Smoke, &mut Runs::default(), |_| {})
        .to_json()
        .to_pretty();
    assert_eq!(a, b);
}

#[test]
fn partition_heal_scenario_reports_fault_effects() {
    let scenario = scenarios::find("partition_heal").expect("registered");
    let report = scenario.run(Scale::Smoke, &mut Runs::default(), |_| {});
    // The control point (no partition) and the faulted point must both complete work.
    assert!(report.points.len() >= 2);
    let control = &report.points[0];
    let faulted = report.points.last().unwrap();
    assert!(control.config.chaos.is_empty());
    assert!(!faulted.config.chaos.is_empty());
    assert!(faulted.report.operations_completed > 0);
}
