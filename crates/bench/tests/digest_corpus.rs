//! The digest corpus is the repository's behaviour-drift gate: `DIGESTS.json` at the
//! repository root holds one behaviour digest per smoke-scale scenario point, and CI
//! regenerates the corpus and diffs it (`compare_bench --digests`) as a blocking check.
//!
//! These tests keep the checked-in corpus honest between CI runs: it must parse, carry
//! the current schema version, cover the whole scenario registry point-for-point, and —
//! for a cheap spot-check — match a fresh deterministic run of the `baseline` scenario.
//! The full-registry diff stays in CI where its runtime belongs.
//!
//! To regenerate after an *intentional* behaviour change:
//!
//! ```text
//! cargo run --release -p pocc-bench --bin runner -- \
//!     --scenario all --scale smoke --digests DIGESTS.json
//! ```
//!
//! and explain the change in the commit message.

use pocc_bench::digest::{behaviour_digest, DigestCorpus, DIGEST_SCHEMA_VERSION};
use pocc_bench::scenarios::{self, Runs};
use pocc_bench::{json, Scale};

fn checked_in_corpus() -> DigestCorpus {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../DIGESTS.json");
    let text = std::fs::read_to_string(path).expect("DIGESTS.json exists at the repo root");
    let doc = json::parse(&text).expect("DIGESTS.json parses");
    DigestCorpus::from_json(&doc).expect("DIGESTS.json matches the corpus schema")
}

#[test]
fn corpus_parses_and_carries_the_current_schema_version() {
    let corpus = checked_in_corpus();
    assert_eq!(
        corpus.scale, "smoke",
        "the corpus is generated at smoke scale"
    );
    // from_json rejects other versions, so reaching here proves the version; make the
    // intent explicit anyway.
    let doc = corpus.to_json();
    assert_eq!(
        doc.get("digest_schema_version")
            .and_then(json::Json::as_u64),
        Some(DIGEST_SCHEMA_VERSION)
    );
}

#[test]
fn corpus_covers_the_whole_scenario_registry_point_for_point() {
    let registry = scenarios::all();
    let corpus = checked_in_corpus();
    for scenario in &registry {
        let entry = corpus
            .scenarios
            .iter()
            .find(|s| s.scenario == scenario.name)
            .unwrap_or_else(|| panic!("{}: not in DIGESTS.json — regenerate", scenario.name));
        let expected: Vec<String> = scenario
            .points(Scale::Smoke)
            .into_iter()
            .map(|p| p.label)
            .collect();
        let actual: Vec<&str> = entry.points.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(
            actual, expected,
            "{}: corpus points diverge from the registry sweep — regenerate",
            scenario.name
        );
    }
    assert_eq!(
        corpus.scenarios.len(),
        registry.len(),
        "corpus contains scenarios no longer in the registry — regenerate"
    );
}

#[test]
fn baseline_scenario_matches_its_checked_in_digests() {
    let corpus = checked_in_corpus();
    let entry = corpus
        .scenarios
        .iter()
        .find(|s| s.scenario == "baseline")
        .expect("baseline scenario is in the corpus");
    let scenario = scenarios::find("baseline").unwrap();
    let report = scenario.run(Scale::Smoke, &mut Runs::default(), |_| {});
    for (point, (label, checked_in)) in report.points.iter().zip(&entry.points) {
        assert_eq!(&point.label, label);
        assert_eq!(
            &behaviour_digest(&point.report),
            checked_in,
            "baseline/{label}: behaviour drifted from DIGESTS.json — if intentional, \
             regenerate the corpus and explain the change in the commit message"
        );
    }
}

#[test]
fn behaviour_digests_are_deterministic() {
    let scenario = scenarios::find("chaos_lag_drop").unwrap();
    let first: Vec<String> = scenario
        .run(Scale::Smoke, &mut Runs::default(), |_| {})
        .points
        .iter()
        .map(|p| behaviour_digest(&p.report))
        .collect();
    let second: Vec<String> = scenario
        .run(Scale::Smoke, &mut Runs::default(), |_| {})
        .points
        .iter()
        .map(|p| behaviour_digest(&p.report))
        .collect();
    assert_eq!(first, second, "same scenario, same seed, same digests");
}
