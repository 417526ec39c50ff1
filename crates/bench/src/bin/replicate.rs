//! One-command replication through the experiment registry.
//!
//! ```text
//! cargo run --release -p iba-bench --bin replicate -- --quick --check
//! ```
//!
//! Runs the paper replication sweep in process (the `sweep` binary's
//! cell loop over [`SweepGrid::replication`]), writes its rows to
//! `sweep.jsonl`, checks every row against its Theorem-2 bound and only
//! then appends a provenance-stamped record to the registry. It then
//! renders the static `report.html` and gates the fresh sweep against the
//! newest prior registry record that shares its config hash. With
//! `--check` the exit is nonzero when a metric moved past the threshold,
//! or when the gate compared nothing (an empty registry, or no prior
//! record of this configuration).

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use iba_bench::prov::append_sweep_registry;
use iba_bench::sweep::{self, SweepGrid};
use iba_exp::gate::{gate_fresh_runs, DEFAULT_THRESHOLD};
use iba_exp::registry::{unix_time_now, RunRegistry};
use iba_exp::report::{render_html, ReportInput};

#[derive(Debug)]
struct Options {
    full: bool,
    check: bool,
    out: PathBuf,
    registry: Option<PathBuf>,
    report: Option<PathBuf>,
    threshold: f64,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        full: false,
        check: false,
        out: PathBuf::from("results_replication"),
        registry: None,
        report: None,
        threshold: DEFAULT_THRESHOLD,
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
            other => {
                return Err(format!(
                    "unknown flag {other}\nusage: replicate [--quick|--full] [--check] \
                     [--out DIR] [--registry PATH] [--report PATH] [--threshold F]"
                ));
            }
        }
    }
    Ok(opts)
}

fn run(opts: &Options) -> Result<bool, String> {
    let started = Instant::now();
    let out_dir = &opts.out;
    let registry_path = opts
        .registry
        .clone()
        .unwrap_or_else(|| out_dir.join("registry.jsonl"));
    let report_path = opts
        .report
        .clone()
        .unwrap_or_else(|| out_dir.join("report.html"));
    std::fs::create_dir_all(out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;

    let grid = SweepGrid::replication(opts.full);
    let rows = sweep::run(&grid, None, false);
    let table = sweep::table(&grid, &rows);
    println!("{}", table.render());
    let sweep_jsonl = out_dir.join("sweep.jsonl");
    std::fs::write(&sweep_jsonl, table.to_jsonl() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", sweep_jsonl.display()))?;
    let fresh = append_sweep_registry(
        &registry_path,
        &grid,
        &rows,
        started.elapsed().as_secs_f64() * 1e3,
    )?;

    let registry = RunRegistry::open(&registry_path).map_err(|e| e.to_string())?;
    let outcome = gate_fresh_runs(&registry, &[fresh], opts.threshold);
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

    let input = ReportInput {
        generated_unix: unix_time_now(),
        registry: registry.records().to_vec(),
        sweep: rows.iter().map(|row| row.point(grid.n)).collect(),
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
