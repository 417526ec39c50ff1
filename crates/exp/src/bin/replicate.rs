//! One-command replication through the experiment registry.
//!
//! ```text
//! cargo run --release -p iba-exp --bin replicate -- --quick --check
//! ```
//!
//! Re-runs the quick paper replication sweep plus all four committed
//! benchmark harnesses as subprocesses (each asserts its own
//! self-validation and appends a provenance-stamped record to the
//! registry), then renders the static `report.html` and — with
//! `--check` — gates every fresh run against the last baseline that
//! shares its config hash, exiting nonzero past the threshold.
//!
//! `--stamp-baselines` instead injects a provenance block (schema
//! version, git rev, host, config hash) into the four committed
//! `BENCH_*.json` files, preserving their hand formatting, and exits.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use iba_analysis::bounds;
use iba_exp::bench_data::{config_pairs, provenance_json_with_hash, sweep_config_pairs, BenchFile};
use iba_exp::gate::{gate_fresh_runs, GateConfig, GateOutcome, DEFAULT_THRESHOLD};
use iba_exp::registry::{identity_hash, unix_time_now, RunRegistry};
use iba_exp::report::{render_html, ReportInput, SweepPoint};
use iba_obs::json::{self, content_hash, JsonValue, Provenance};

/// The committed baselines, harness binary first, output file second,
/// then the flag sets for quick and full replication.
const HARNESSES: &[(&str, &str, &[&str], &[&str])] = &[
    (
        "obs_overhead_baseline",
        "BENCH_obs_overhead.json",
        &["--quick"],
        &[],
    ),
    (
        "serve_net_baseline",
        "BENCH_serve_net.json",
        &["--quick"],
        &[],
    ),
    ("net_chaos_baseline", "BENCH_net_chaos.json", &["--ci"], &[]),
    (
        "membership_baseline",
        "BENCH_membership.json",
        &["--ci"],
        &[],
    ),
];

#[derive(Debug)]
struct Options {
    full: bool,
    check: bool,
    out: PathBuf,
    registry: Option<PathBuf>,
    report: Option<PathBuf>,
    threshold: f64,
    stamp_baselines: bool,
    force: bool,
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
        stamp_baselines: false,
        force: false,
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
            "--stamp-baselines" => opts.stamp_baselines = true,
            "--force" => opts.force = true,
            "--report-only" => opts.report_only = true,
            other => {
                return Err(format!(
                    "unknown flag {other}\nusage: replicate [--quick|--full] [--check] \
                     [--out DIR] [--registry PATH] [--report PATH] [--threshold F] \
                     [--report-only] [--stamp-baselines [--force]]"
                ));
            }
        }
    }
    Ok(opts)
}

/// Walks up from the current directory to the workspace root: the first
/// directory whose `Cargo.toml` declares `[workspace]` (it also holds the
/// committed `BENCH_*.json` baselines).
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

fn load_committed(root: &Path) -> Result<Vec<BenchFile>, String> {
    HARNESSES
        .iter()
        .map(|(_, file, _, _)| BenchFile::load(&root.join(file)))
        .collect()
}

/// Injects a provenance block after the top-level `"seed"` line of a
/// committed baseline, preserving the file's hand formatting.
fn stamp_file(path: &Path, force: bool) -> Result<bool, String> {
    let bf = BenchFile::load(path)?;
    if bf.provenance.is_some() && !force {
        eprintln!(
            "{}: already stamped (use --force to restamp)",
            path.display()
        );
        return Ok(false);
    }
    let pairs = config_pairs(&bf.benchmark, &bf.value)
        .ok_or_else(|| format!("{}: cannot derive config pairs", path.display()))?;
    let hash = content_hash(&pairs);
    let block = provenance_json_with_hash(&Provenance::collect(), &hash);
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let text = if bf.provenance.is_some() {
        // Restamp: replace the existing single-line provenance field.
        let start = text
            .find("\n  \"provenance\":")
            .ok_or_else(|| format!("{}: provenance block is not a stamped line", path.display()))?;
        let line_end = text[start + 1..]
            .find('\n')
            .map(|i| start + 1 + i)
            .unwrap_or(text.len());
        format!(
            "{}\n  \"provenance\": {block},{}",
            &text[..start],
            &text[line_end..]
        )
    } else {
        let anchor = text
            .find("\n  \"seed\":")
            .ok_or_else(|| format!("{}: no top-level seed line to anchor on", path.display()))?;
        let line_end = anchor
            + 1
            + text[anchor + 1..]
                .find('\n')
                .ok_or_else(|| format!("{}: truncated file", path.display()))?;
        format!(
            "{}\n  \"provenance\": {block},{}",
            &text[..line_end],
            &text[line_end..]
        )
    };
    // The stamped file must still parse, and the embedded hash must match
    // what a loader recomputes from the document.
    std::fs::write(path, &text).map_err(|e| format!("{}: {e}", path.display()))?;
    let stamped = BenchFile::load(path)?;
    if stamped.computed_config_hash().as_deref() != Some(hash.as_str()) {
        return Err(format!(
            "{}: stamped hash does not recompute",
            path.display()
        ));
    }
    println!("stamped {} ({hash})", path.display());
    Ok(true)
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

/// The identity a fresh stamped benchmark file's registry record will
/// have (same formula as `RunRecord::identity_hash`).
fn identity_of_fresh(bf: &BenchFile) -> Option<String> {
    let prov = bf.provenance.as_ref()?;
    let hash = bf.config_hash.as_deref()?;
    let seed = bf.value.get("seed").and_then(JsonValue::as_u64)?;
    Some(identity_hash(
        &bf.benchmark,
        hash,
        seed,
        &prov.git_rev,
        prov.git_dirty,
    ))
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
    let fresh_dir = out_dir.join("fresh");
    std::fs::create_dir_all(&fresh_dir)
        .map_err(|e| format!("cannot create {}: {e}", fresh_dir.display()))?;

    if opts.stamp_baselines {
        let mut stamped = 0;
        for (_, file, _, _) in HARNESSES {
            if stamp_file(&root.join(file), opts.force)? {
                stamped += 1;
            }
        }
        println!("stamped {stamped} baseline file(s)");
        return Ok(true);
    }

    let plan = SweepPlan::for_mode(opts.full);
    let sweep_jsonl = out_dir.join("sweep.jsonl");
    let mut fresh_identities: Vec<String> = Vec::new();

    if !opts.report_only {
        // 1. The paper-replication sweep (the sweep binary validates its
        //    own Theorem-2 bound per cell and records itself).
        run_cargo(&root, &plan.sweep_args(&sweep_jsonl, &registry_path))?;

        // 2. The four benchmark harnesses; each asserts its own
        //    self-validation (nonzero exit aborts the replication) and
        //    appends its provenance-stamped record to the registry.
        for (bin, file, quick_flags, full_flags) in HARNESSES {
            let mut args: Vec<String> = vec![
                "run".into(),
                "--release".into(),
                "-p".into(),
                "iba-bench".into(),
                "--bin".into(),
                (*bin).into(),
                "--".into(),
            ];
            let mode_flags = if opts.full { full_flags } else { quick_flags };
            args.extend(mode_flags.iter().map(|f| f.to_string()));
            let fresh_out = fresh_dir.join(file);
            args.push("--out".into());
            args.push(fresh_out.display().to_string());
            args.push("--registry".into());
            args.push(registry_path.display().to_string());
            run_cargo(&root, &args)?;
            let fresh = BenchFile::load(&fresh_out)?;
            fresh_identities.push(identity_of_fresh(&fresh).ok_or_else(|| {
                format!(
                    "{}: fresh output is missing its provenance stamp",
                    fresh_out.display()
                )
            })?);
        }
    }

    // The sweep's fresh identity is computable without its output file:
    // replicate chose the grid, and both sides hash it through
    // sweep_config_pairs.
    let sweep_prov = Provenance::collect();
    if !opts.report_only {
        fresh_identities.push(identity_hash(
            "sweep",
            &plan.config_hash(),
            plan.master_seed,
            &sweep_prov.git_rev,
            sweep_prov.git_dirty,
        ));
    }

    // 3. Gate + report.
    let committed = load_committed(&root)?;
    let registry = RunRegistry::open(&registry_path).map_err(|e| e.to_string())?;
    let gate_config = GateConfig {
        threshold: opts.threshold,
        ..GateConfig::default()
    };
    let outcome: GateOutcome =
        gate_fresh_runs(&registry, &committed, &fresh_identities, &gate_config);
    for label in &outcome.vacuous {
        eprintln!(
            "gate: {label} has no baseline with a matching config hash — \
             vacuous pass (the next run on this configuration will be gated)"
        );
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
        bench: committed,
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
                eprintln!("replicate --check: regression gate FAILED");
                ExitCode::FAILURE
            } else {
                eprintln!("regression gate failed (informational; pass --check to enforce)");
                ExitCode::SUCCESS
            }
        }
        Err(msg) => {
            eprintln!("replicate: {msg}");
            ExitCode::FAILURE
        }
    }
}
