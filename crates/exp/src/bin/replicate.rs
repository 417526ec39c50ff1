//! One-command replication through the experiment registry.
//!
//! ```text
//! cargo run --release -p iba-exp --bin replicate -- --quick --check
//! ```
//!
//! Re-runs the paper replication sweep as a subprocess (it asserts its
//! own Theorem-2 self-validation and appends a provenance-stamped record
//! to the registry), then renders the static `report.html` and gates the
//! fresh sweep against the newest prior registry record that shares its
//! config hash. With `--check` the exit is nonzero when a metric moved
//! past the threshold, or when the gate compared nothing (an empty
//! registry, or no prior record of this configuration).

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use iba_analysis::bounds;
use iba_exp::gate::{gate_fresh_runs, DEFAULT_THRESHOLD};
use iba_exp::registry::{identity_hash, sweep_config_pairs, unix_time_now, RunRegistry};
use iba_exp::report::{render_html, ReportInput, SweepPoint};
use iba_obs::json::{self, content_hash, JsonValue, Provenance};

#[derive(Debug)]
struct Options {
    full: bool,
    check: bool,
    out: PathBuf,
    registry: Option<PathBuf>,
    report: Option<PathBuf>,
    threshold: f64,
    report_only: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        full: false,
        check: false,
        out: PathBuf::from("results_replication"),
        registry: None,
        report: None,
        threshold: DEFAULT_THRESHOLD,
        report_only: false,
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = |it: &mut std::slice::Iter<String>| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match flag.as_str() {
            "--quick" => opts.full = false,
            "--full" => opts.full = true,
            "--check" => opts.check = true,
            "--out" => opts.out = PathBuf::from(value(&mut iter)?),
            "--registry" => opts.registry = Some(PathBuf::from(value(&mut iter)?)),
            "--report" => opts.report = Some(PathBuf::from(value(&mut iter)?)),
            "--threshold" => {
                opts.threshold = value(&mut iter)?
                    .parse()
                    .map_err(|e| format!("bad --threshold: {e}"))?;
            }
            "--report-only" => opts.report_only = true,
            other => {
                return Err(format!(
                    "unknown flag {other}\nusage: replicate [--quick|--full] [--check] \
                     [--out DIR] [--registry PATH] [--report PATH] [--threshold F] \
                     [--report-only]"
                ));
            }
        }
    }
    Ok(opts)
}

/// Walks up from the current directory to the workspace root: the first
/// directory whose `Cargo.toml` declares `[workspace]`.
fn find_repo_root() -> Result<PathBuf, String> {
    let mut dir = std::env::current_dir().map_err(|e| format!("cwd: {e}"))?;
    loop {
        let manifest = std::fs::read_to_string(dir.join("Cargo.toml")).unwrap_or_default();
        if manifest.lines().any(|line| line.trim() == "[workspace]") {
            return Ok(dir);
        }
        if !dir.pop() {
            return Err(
                "cannot find the workspace root (no [workspace] Cargo.toml above cwd)".into(),
            );
        }
    }
}

/// Runs one cargo subprocess from the workspace root, inheriting stdio.
fn run_cargo(root: &Path, args: &[String]) -> Result<(), String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    eprintln!("replicate> {cargo} {}", args.join(" "));
    let status = Command::new(&cargo)
        .args(args)
        .current_dir(root)
        .status()
        .map_err(|e| format!("spawning {cargo}: {e}"))?;
    if !status.success() {
        return Err(format!("`{cargo} {}` failed: {status}", args.join(" ")));
    }
    Ok(())
}

/// The quick/full sweep grid. Must stay in lockstep with the flags
/// passed to the sweep binary below — both feed [`sweep_config_pairs`].
struct SweepPlan {
    n: u64,
    capacities: Vec<u32>,
    lambdas: Vec<f64>,
    window: u64,
    seeds: u64,
    master_seed: u64,
}

impl SweepPlan {
    fn for_mode(full: bool) -> SweepPlan {
        SweepPlan {
            n: if full { 8192 } else { 2048 },
            capacities: vec![1, 2, 4],
            lambdas: vec![0.75, 0.9375],
            window: if full { 600 } else { 150 },
            seeds: if full { 3 } else { 1 },
            master_seed: 20210705,
        }
    }

    fn config_hash(&self) -> String {
        content_hash(&sweep_config_pairs(
            self.n,
            &self.capacities,
            &self.lambdas,
            self.window,
            self.seeds,
            self.master_seed,
        ))
    }

    fn sweep_args(&self, jsonl: &Path, registry: &Path) -> Vec<String> {
        let join = |v: Vec<String>| v.join(",");
        vec![
            "run".into(),
            "--release".into(),
            "-p".into(),
            "iba-bench".into(),
            "--bin".into(),
            "sweep".into(),
            "--".into(),
            "--n".into(),
            self.n.to_string(),
            "--c".into(),
            join(self.capacities.iter().map(|c| c.to_string()).collect()),
            "--lambda".into(),
            join(self.lambdas.iter().map(|l| l.to_string()).collect()),
            "--window".into(),
            self.window.to_string(),
            "--seeds".into(),
            self.seeds.to_string(),
            "--seed".into(),
            self.master_seed.to_string(),
            "--jsonl".into(),
            jsonl.display().to_string(),
            "--registry".into(),
            registry.display().to_string(),
        ]
    }
}

/// Parses the sweep's JSONL table into overlay points, asserting the
/// sweep's own Theorem-2 self-validation (`bound ok`) on every row.
fn parse_sweep_rows(jsonl_path: &Path, n: u64) -> Result<Vec<SweepPoint>, String> {
    let text = std::fs::read_to_string(jsonl_path)
        .map_err(|e| format!("cannot read {}: {e}", jsonl_path.display()))?;
    let mut points = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let fail = |what: &str| format!("{} line {}: {what}", jsonl_path.display(), lineno + 1);
        let v = json::parse(line).map_err(|e| fail(&format!("bad JSON: {e}")))?;
        let num = |key: &str| -> Result<f64, String> {
            v.get(key)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| fail(&format!("missing numeric '{key}'")))
        };
        let lambda: f64 = v
            .get("lambda")
            .and_then(JsonValue::as_str)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| fail("missing 'lambda'"))?;
        let c = num("c")?;
        if v.get("bound ok").and_then(JsonValue::as_str) != Some("yes") {
            return Err(fail(&format!(
                "sweep self-validation failed: max wait exceeds the Theorem-2 bound \
                 at c={c}, lambda={lambda}"
            )));
        }
        points.push(SweepPoint {
            lambda,
            c,
            pool_frac: num("pool/n")?,
            mf_pool_frac: num("mf pool/n")?,
            bound_frac: bounds::theorem2_pool_bound(n as usize, c as u32, lambda) / n as f64,
            avg_wait: num("avg wait")?,
            max_wait: num("max wait")?,
            wait_envelope: num("wait envelope")?,
            wait_bound: num("thm2 bound")?,
        });
    }
    if points.is_empty() {
        return Err(format!("{}: no sweep rows", jsonl_path.display()));
    }
    Ok(points)
}

fn run(opts: &Options) -> Result<bool, String> {
    let root = find_repo_root()?;
    let out_dir = if opts.out.is_absolute() {
        opts.out.clone()
    } else {
        root.join(&opts.out)
    };
    let registry_path = opts
        .registry
        .clone()
        .unwrap_or_else(|| out_dir.join("registry.jsonl"));
    let report_path = opts
        .report
        .clone()
        .unwrap_or_else(|| out_dir.join("report.html"));
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;

    let plan = SweepPlan::for_mode(opts.full);
    let sweep_jsonl = out_dir.join("sweep.jsonl");
    let mut fresh_identities: Vec<String> = Vec::new();
    if !opts.report_only {
        // The sweep binary validates its own Theorem-2 bound per cell and
        // records itself. Its fresh identity is computable without its
        // output: replicate chose the grid, and both sides hash it
        // through `sweep_config_pairs`.
        run_cargo(&root, &plan.sweep_args(&sweep_jsonl, &registry_path))?;
        let prov = Provenance::collect();
        fresh_identities.push(identity_hash(
            "sweep",
            &plan.config_hash(),
            plan.master_seed,
            &prov.git_rev,
            prov.git_dirty,
        ));
    }

    let registry = RunRegistry::open(&registry_path).map_err(|e| e.to_string())?;
    let outcome = gate_fresh_runs(&registry, &fresh_identities, opts.threshold);
    for label in &outcome.vacuous {
        eprintln!(
            "gate: {label} has no prior record with a matching config hash, \
             so it compared nothing"
        );
    }
    if outcome.gates.is_empty() {
        eprintln!("gate: VACUOUS: no fresh run was compared with a prior record");
    }
    for gate in &outcome.gates {
        let failures: Vec<String> = gate
            .failures()
            .map(|c| {
                format!(
                    "{} {:.6} -> {:.6} ({:+.1}%)",
                    c.metric,
                    c.baseline.unwrap_or(f64::NAN),
                    c.fresh.unwrap_or(f64::NAN),
                    c.delta.unwrap_or(f64::NAN) * 100.0
                )
            })
            .collect();
        if failures.is_empty() {
            eprintln!("gate: {} PASS", gate.label);
        } else {
            eprintln!("gate: {} FAIL: {}", gate.label, failures.join("; "));
        }
    }

    let sweep_points = if sweep_jsonl.is_file() {
        parse_sweep_rows(&sweep_jsonl, plan.n)?
    } else {
        Vec::new()
    };
    let input = ReportInput {
        generated_unix: unix_time_now(),
        registry: registry.records().to_vec(),
        sweep: sweep_points,
        gates: outcome.gates.clone(),
    };
    std::fs::write(&report_path, render_html(&input))
        .map_err(|e| format!("cannot write {}: {e}", report_path.display()))?;
    println!(
        "replication report: {} ({} registry record(s))",
        report_path.display(),
        registry.records().len()
    );
    Ok(outcome.passed())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    match run(&opts) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            if opts.check {
                eprintln!("replicate --check: regression gate FAILED or compared nothing");
                ExitCode::FAILURE
            } else {
                eprintln!(
                    "regression gate failed or compared nothing \
                     (informational; pass --check to enforce)"
                );
                ExitCode::SUCCESS
            }
        }
        Err(msg) => {
            eprintln!("replicate: {msg}");
            ExitCode::FAILURE
        }
    }
}
