//! Integration tests against the repo's real committed baselines: the
//! report must chart every `BENCH_*.json` trajectory, and the regression
//! gate must fail end-to-end when a baseline cell is artificially
//! regressed past the threshold (the check `replicate --check` turns
//! into a nonzero exit).

use std::path::PathBuf;

use iba_exp::bench_data::BenchFile;
use iba_exp::gate::{gate_fresh_runs, GateConfig};
use iba_exp::registry::{RunRecord, RunRegistry};
use iba_exp::report::{render_html, ReportInput, SweepPoint};
use iba_obs::json::{Provenance, SCHEMA_VERSION};

const COMMITTED: &[&str] = &[
    "BENCH_obs_overhead.json",
    "BENCH_serve_net.json",
    "BENCH_net_chaos.json",
    "BENCH_membership.json",
];

/// The suite is the workspace root's `[[test]]` target, so its manifest
/// directory is the repository root.
fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn load_committed() -> Vec<BenchFile> {
    COMMITTED
        .iter()
        .map(|f| BenchFile::load(&repo_root().join(f)).expect(f))
        .collect()
}

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
fn report_charts_every_committed_baseline_and_an_overlay() {
    let bench = load_committed();
    assert_eq!(bench.len(), COMMITTED.len());
    let input = ReportInput {
        generated_unix: 1_750_000_000,
        bench,
        registry: vec![],
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
    for marker in [
        "trajectory-obs_overhead",
        "trajectory-serve_net",
        "trajectory-net_chaos",
        "trajectory-membership",
        "overlay-pool-bound",
        "overlay-wait-quantiles",
        "overlay-goodput-chaos",
    ] {
        assert!(html.contains(marker), "report missing {marker}");
    }
}

#[test]
fn committed_baselines_are_stamped_with_recomputable_hashes() {
    for bf in load_committed() {
        let prov = bf
            .provenance
            .as_ref()
            .unwrap_or_else(|| panic!("{}: missing provenance stamp", bf.path.display()));
        assert_eq!(prov.schema_version, SCHEMA_VERSION, "{}", bf.path.display());
        assert!(!prov.git_rev.is_empty(), "{}", bf.path.display());
        let embedded = bf
            .config_hash
            .clone()
            .unwrap_or_else(|| panic!("{}: missing config_hash", bf.path.display()));
        assert_eq!(
            bf.computed_config_hash().as_deref(),
            Some(embedded.as_str()),
            "{}: embedded config hash does not recompute from the document",
            bf.path.display()
        );
    }
}

#[test]
fn artificially_regressed_run_fails_the_gate_end_to_end() {
    let path = temp_registry("regressed");
    let mut registry = RunRegistry::open(&path).unwrap();
    let hash = "fnv1a:1111222233334444";
    let baseline = record(
        "round_kernel",
        hash,
        "baseline0",
        &[("cells.0.arena_speedup", 3.0), ("rows.0.avg_wait", 2.0)],
    );
    // 30% speedup loss — twice the default 15% threshold.
    let regressed = record(
        "round_kernel",
        hash,
        "fresh0000",
        &[("cells.0.arena_speedup", 2.1), ("rows.0.avg_wait", 2.0)],
    );
    let fresh_identity = regressed.identity_hash();
    registry.append(baseline).unwrap();
    registry.append(regressed).unwrap();

    let outcome = gate_fresh_runs(&registry, &[], &[fresh_identity], &GateConfig::default());
    assert_eq!(outcome.gates.len(), 1, "expected one gated comparison");
    assert!(
        !outcome.passed(),
        "a 30% speedup regression must fail the gate"
    );
    let failed: Vec<&str> = outcome.gates[0]
        .failures()
        .map(|c| c.metric.as_str())
        .collect();
    assert_eq!(failed, ["cells.0.arena_speedup"]);
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}

#[test]
fn faithful_rerun_passes_and_first_run_is_vacuous() {
    let path = temp_registry("faithful");
    let mut registry = RunRegistry::open(&path).unwrap();
    let hash = "fnv1a:aaaabbbbccccdddd";
    let baseline = record(
        "membership",
        hash,
        "baseline0",
        &[("router.total_moved_ratio", 0.18)],
    );
    // Within the 15% threshold on a lower-is-better metric.
    let close = record(
        "membership",
        hash,
        "fresh0000",
        &[("router.total_moved_ratio", 0.19)],
    );
    let close_identity = close.identity_hash();
    // A run on a configuration nobody has measured before.
    let novel = record(
        "membership",
        "fnv1a:9999000011112222",
        "fresh0000",
        &[("router.total_moved_ratio", 0.5)],
    );
    let novel_identity = novel.identity_hash();
    registry.append(baseline).unwrap();
    registry.append(close).unwrap();
    registry.append(novel).unwrap();

    let outcome = gate_fresh_runs(
        &registry,
        &[],
        &[close_identity, novel_identity],
        &GateConfig::default(),
    );
    assert!(outcome.passed());
    assert_eq!(outcome.gates.len(), 1);
    assert_eq!(outcome.vacuous.len(), 1);
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}

#[test]
fn gate_prefers_committed_baseline_with_matching_hash() {
    let path = temp_registry("committed-pref");
    let mut registry = RunRegistry::open(&path).unwrap();
    let committed = load_committed();
    let bf = committed
        .iter()
        .find(|b| b.benchmark == "net_chaos")
        .expect("committed net_chaos baseline");
    let hash = bf
        .config_hash
        .clone()
        .expect("committed baseline is stamped");
    let seed = 20210705;
    // Fresh run at the committed config, with goodput_retained regressed
    // past the threshold relative to the committed value.
    let committed_retained = bf
        .metrics
        .iter()
        .find(|(n, _)| n == "goodput_retained")
        .map(|(_, v)| *v)
        .expect("committed goodput_retained");
    let mut fresh = record("net_chaos", &hash, "fresh0000", &[]);
    fresh.seed = seed;
    fresh
        .metrics
        .push(("goodput_retained".to_string(), committed_retained * 0.5));
    let identity = fresh.identity_hash();
    registry.append(fresh).unwrap();

    let outcome = gate_fresh_runs(&registry, &committed, &[identity], &GateConfig::default());
    assert_eq!(outcome.gates.len(), 1);
    assert!(
        outcome.gates[0].label.contains("vs committed"),
        "gate should compare against the committed file: {}",
        outcome.gates[0].label
    );
    assert!(!outcome.passed(), "halved goodput retention must fail");
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}
