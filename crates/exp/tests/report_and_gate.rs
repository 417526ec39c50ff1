//! Integration tests of the report and the regression gate behind
//! `replicate --check`: the report charts the sweep's bound-vs-measured
//! overlays, and the gate fails end to end when a sweep column regresses
//! past the threshold, or when it compared nothing.

use std::path::PathBuf;

use iba_exp::gate::{gate_fresh_runs, DEFAULT_THRESHOLD};
use iba_exp::registry::{RunRecord, RunRegistry};
use iba_exp::report::{render_html, ReportInput, SweepPoint};
use iba_obs::json::{Provenance, SCHEMA_VERSION};

fn temp_registry(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("iba-exp-itest-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir.join("registry.jsonl")
}

fn record(benchmark: &str, config_hash: &str, git_rev: &str, metrics: &[(&str, f64)]) -> RunRecord {
    RunRecord {
        benchmark: benchmark.to_string(),
        config_hash: config_hash.to_string(),
        seed: 20210705,
        provenance: Provenance {
            schema_version: SCHEMA_VERSION,
            git_rev: git_rev.to_string(),
            git_dirty: false,
            host: "itest".to_string(),
            cores: 4,
            kernel: Some("arena".to_string()),
            threads: Some(1),
        },
        wall_ms: 10.0,
        unix_time: if git_rev == "baseline0" {
            1_750_000_000
        } else {
            1_750_001_000
        },
        metrics: metrics.iter().map(|(n, v)| (n.to_string(), *v)).collect(),
    }
}

#[test]
fn report_charts_the_sweep_overlays() {
    let input = ReportInput {
        generated_unix: 1_750_000_000,
        registry: vec![record("sweep", "fnv1a:00", "baseline0", &[])],
        sweep: vec![SweepPoint {
            lambda: 0.75,
            c: 2.0,
            pool_frac: 0.008,
            mf_pool_frac: 0.009,
            bound_frac: 26.0,
            avg_wait: 1.1,
            max_wait: 4.0,
            wait_envelope: 6.0,
            wait_bound: 40.0,
        }],
        gates: vec![],
    };
    let html = render_html(&input);
    for marker in ["overlay-pool-bound", "overlay-wait-quantiles", "baseline0"] {
        assert!(html.contains(marker), "report missing {marker}");
    }
}

#[test]
fn artificially_regressed_run_fails_the_gate_end_to_end() {
    // Each case regresses one sweep column past the 15% threshold: the
    // Theorem-2 verdict flips from yes to no, or the maximum wait grows
    // by 20%. The sweep is a pure function of its grid and seed, so the
    // maximum wait is gated like every other column.
    for (case, (column, before, after)) in [
        ("rows.0.bound ok", 1.0, 0.0),
        ("rows.3.max wait", 10.0, 12.0),
    ]
    .into_iter()
    .enumerate()
    {
        let path = temp_registry(&format!("regressed-{case}"));
        let mut registry = RunRegistry::open(&path).unwrap();
        let hash = "fnv1a:1111222233334444";
        let steady = ("rows.0.avg wait", 2.0);
        let baseline = record("sweep", hash, "baseline0", &[(column, before), steady]);
        let regressed = record("sweep", hash, "fresh0000", &[(column, after), steady]);
        let fresh_identity = regressed.identity_hash();
        registry.append(baseline).unwrap();
        registry.append(regressed).unwrap();

        let outcome = gate_fresh_runs(&registry, &[fresh_identity], DEFAULT_THRESHOLD);
        assert_eq!(outcome.gates.len(), 1, "expected one gated comparison");
        assert!(!outcome.passed(), "{column} {before} -> {after} must fail");
        let failed: Vec<&str> = outcome.gates[0]
            .failures()
            .map(|c| c.metric.as_str())
            .collect();
        assert_eq!(failed, [column]);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }
}

#[test]
fn faithful_rerun_passes_and_first_run_is_vacuous() {
    let path = temp_registry("faithful");
    let mut registry = RunRegistry::open(&path).unwrap();
    let hash = "fnv1a:aaaabbbbccccdddd";
    let baseline = record("sweep", hash, "baseline0", &[("rows.0.pool/n", 0.18)]);
    // Within the 15% threshold on a lower-is-better metric.
    let close = record("sweep", hash, "fresh0000", &[("rows.0.pool/n", 0.19)]);
    let close_identity = close.identity_hash();
    // A run on a configuration nobody has measured before.
    let novel = record(
        "sweep",
        "fnv1a:9999000011112222",
        "fresh0000",
        &[("rows.0.pool/n", 0.5)],
    );
    let novel_identity = novel.identity_hash();
    registry.append(baseline).unwrap();
    registry.append(close).unwrap();
    registry.append(novel).unwrap();

    let outcome = gate_fresh_runs(
        &registry,
        &[close_identity, novel_identity],
        DEFAULT_THRESHOLD,
    );
    assert!(outcome.passed());
    assert_eq!(outcome.gates.len(), 1);
    assert_eq!(outcome.vacuous.len(), 1);
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}

#[test]
fn a_gate_that_compared_nothing_fails() {
    let path = temp_registry("vacuous");
    let fresh = record("sweep", "fnv1a:0000111122223333", "fresh0000", &[]);
    let identity = fresh.identity_hash();

    // An empty registry: the fresh run is not even recorded.
    let mut registry = RunRegistry::open(&path).unwrap();
    let outcome = gate_fresh_runs(
        &registry,
        std::slice::from_ref(&identity),
        DEFAULT_THRESHOLD,
    );
    assert!(outcome.gates.is_empty());
    assert!(!outcome.passed(), "an empty registry gates nothing");

    // The fresh run alone: a same-revision rerun deduplicates into it, so
    // there is still no prior record to compare with.
    registry.append(fresh.clone()).unwrap();
    registry.append(fresh).unwrap();
    assert_eq!(registry.records().len(), 1);
    let outcome = gate_fresh_runs(&registry, &[identity], DEFAULT_THRESHOLD);
    assert_eq!(outcome.vacuous.len(), 1);
    assert!(
        !outcome.passed(),
        "a run without a prior record gates nothing"
    );
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}

#[test]
fn gate_compares_with_the_newest_prior_record() {
    let path = temp_registry("newest");
    let mut registry = RunRegistry::open(&path).unwrap();
    let hash = "fnv1a:abababababababab";
    let mut older = record("sweep", hash, "older000", &[("rows.0.avg wait", 1.0)]);
    older.unix_time = 1_749_000_000;
    // The newest prior record, from another revision: the fresh run is
    // within the threshold of it, though not of the older one.
    let newest = record("sweep", hash, "baseline0", &[("rows.0.avg wait", 2.0)]);
    let fresh = record("sweep", hash, "fresh0000", &[("rows.0.avg wait", 2.1)]);
    let identity = fresh.identity_hash();
    registry.append(older).unwrap();
    registry.append(newest).unwrap();
    registry.append(fresh).unwrap();
    let outcome = gate_fresh_runs(&registry, &[identity], DEFAULT_THRESHOLD);
    assert!(outcome.passed());
    assert!(
        outcome.gates[0].label.contains("of rev baseline0"),
        "{}",
        outcome.gates[0].label
    );
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}
