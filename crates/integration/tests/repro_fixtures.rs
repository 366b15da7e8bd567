//! Pins the committed `expected/` quick-tier fixtures that back
//! `repro diff` (and CI's `repro-quick` job): the files must stay
//! parseable through the serde_json shim, cover all thirteen sweeps, agree
//! with themselves under the diff machinery, and the machinery must
//! still flag an injected outcome drift against them.

use bench::report::{diff_dirs, diff_rows, is_volatile_key, load_rows};
use serde_json::Value;
use std::path::{Path, PathBuf};

fn expected_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../expected")
}

const SWEEPS: [&str; 13] = [
    "noise",
    "rate",
    "blowup_vs_n",
    "line_ablation",
    "hash_len_vs_hunter",
    "potential",
    "randomness",
    "sparsity",
    "scaling",
    "leaderboard",
    "serve",
    "churn",
    "search",
];

#[test]
fn committed_fixtures_cover_all_sweeps_and_parse() {
    for sweep in SWEEPS {
        let path = expected_dir().join(format!("{sweep}.jsonl"));
        let rows = load_rows(&path).unwrap_or_else(|e| panic!("{sweep}.jsonl unreadable: {e}"));
        assert!(!rows.is_empty(), "{sweep}.jsonl is empty");
        for row in &rows {
            assert!(
                matches!(row, Value::Object(_)),
                "{sweep}.jsonl holds a non-object row"
            );
        }
    }
}

#[test]
fn fixtures_diff_clean_against_themselves() {
    // Tight tolerance on purpose: identical files must pass even when
    // every timing key is compared nearly exactly.
    let report = diff_dirs(&expected_dir(), &expected_dir(), 1.0 + 1e-9).expect("diffable");
    assert_eq!(report.files, SWEEPS.len());
    assert!(report.rows >= SWEEPS.len(), "suspiciously few rows");
    assert!(
        report.drifts.is_empty(),
        "self-diff drifted: {:?}",
        report.drifts
    );
    assert!(report.extra.is_empty());
}

#[test]
fn injected_outcome_drift_is_detected() {
    let path = expected_dir().join("leaderboard.jsonl");
    let rows = load_rows(&path).expect("fixture readable");
    let mut mutated = rows.clone();
    let Value::Object(entries) = &mut mutated[0] else {
        panic!("leaderboard rows are objects")
    };
    let corr = entries
        .iter_mut()
        .find(|(k, _)| k == "corruptions")
        .expect("leaderboard rows carry corruptions");
    corr.1 = Value::Number(serde::Number::U64(9999));
    let drifts = diff_rows("leaderboard", &rows, &mutated, 1000.0);
    assert_eq!(drifts.len(), 1, "exactly the injected drift: {drifts:?}");
    assert!(drifts[0].contains("corruptions"), "{}", drifts[0]);

    // Same mutation on a volatile (timing) key must NOT drift while the
    // value stays inside tolerance.
    let scaling = load_rows(&expected_dir().join("scaling.jsonl")).expect("readable");
    let mut faster = scaling.clone();
    let Value::Object(entries) = &mut faster[0] else {
        panic!("scaling rows are objects")
    };
    let serial = entries
        .iter_mut()
        .find(|(k, _)| k == "serial_ns")
        .expect("scaling rows carry serial_ns");
    let Value::Number(serde::Number::U64(ns)) = serial.1 else {
        panic!("serial_ns is a u64")
    };
    serial.1 = Value::Number(serde::Number::U64(ns * 3));
    assert!(
        diff_rows("scaling", &scaling, &faster, 1000.0).is_empty(),
        "3x timing shift must sit inside the 1000x tolerance"
    );
}

#[test]
fn volatile_classification_matches_fixture_schema() {
    // Every key the fixtures actually use must land in the intended
    // bucket, so a rename doesn't silently flip exact <-> tolerant.
    let volatile = [
        "serial_ns",
        "threads_ns",
        "speedup",
        "throughput_rps",
        "e2e_p50_us",
        "e2e_p99_us",
        "queue_p99_us",
        "exec_p50_us",
        "offered_rps",
    ];
    let outcome = [
        "scheme",
        "multiplier",
        "fraction",
        "success",
        "blowup",
        "corruptions",
        "collisions",
        "mp_truncations",
        "threads",
        "served",
        "failed",
        "identical",
        // churn sweep: fault schedules are round-deterministic, so every
        // fault/verdict counter is outcome-exact.
        "decoded",
        "degraded_fault",
        "degraded_noise",
        "links_downed",
        "crash_rounds",
        "resync_rewinds",
        "cc",
        "rounds",
        // search sweep: the evolved scripts are deterministic in the
        // master seed, so every column — including the script itself —
        // is outcome-exact.
        "attack",
        "metric",
        "hand_metric",
        "hand_corruptions",
        "best_metric",
        "best_steps",
        "best_fitness",
        "evaluated",
        "matched",
        "best_script",
    ];
    for k in volatile {
        assert!(is_volatile_key(k), "{k} should be tolerance-checked");
    }
    for k in outcome {
        assert!(!is_volatile_key(k), "{k} should be outcome-exact");
    }
}
