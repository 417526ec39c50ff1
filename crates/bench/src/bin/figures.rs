//! The figure-regeneration binary: one subcommand per experiment of
//! [`iba_bench::EXPERIMENTS`], or `all` for every one.
//!
//! Experiments run one at a time. As soon as each finishes, its table is
//! printed, its wall time goes to stderr and, with `--out`, its CSV is
//! written, so an interrupted `all` run keeps every experiment that had
//! finished.
//!
//! With `--markdown`, stdout is one Markdown document in place of the
//! text tables and charts: a header naming the scale's n, window and
//! seeds, then one `## title` section per experiment with its table and
//! notes, ready to paste into EXPERIMENTS.md. `--out` and `--check` work
//! beside it unchanged.
//!
//! With `--check <dir>`, each CSV is also compared byte for byte with its
//! reproduction record `<dir>/<name>.csv` (see [`iba_bench::record`]),
//! before `--out` writes it, so `--check <dir> --out <dir>` reports what
//! moved and then updates the record. Every selected experiment still
//! runs; every mismatch is reported on stderr, and the exit is non-zero
//! if any record differs or is missing, or, for `all`, if `<dir>` holds a
//! CSV that names no experiment.
//!
//! ```text
//! cargo run -p iba-bench --release --bin figures -- fig4-left --scale quick
//! cargo run -p iba-bench --release --bin figures -- all --scale paper --out results/
//! cargo run -p iba-bench --release --bin figures -- all --scale paper --check results_paper
//! cargo run -p iba-bench --release --bin figures -- all --scale quick --markdown > report.md
//! ```

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use iba_bench::{cli, record};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match cli::parse(&args) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let started = Instant::now();
    if cli.markdown {
        println!(
            "# Reproduction report — scale `{}` (n = {}, window = {} rounds, {} seeds)\n",
            cli.scale,
            cli.scale.bins(),
            cli.scale.window(),
            cli.scale.seeds()
        );
    }
    let mut completed = 0;
    let mut mismatches = 0;
    for experiment in cli.experiments() {
        let experiment_started = Instant::now();
        let output = (experiment.run)(cli.scale);
        if cli.markdown {
            println!("{}", output.render_markdown(experiment.title));
        } else {
            println!("{}", output.render_with_charts());
        }
        eprintln!(
            "{} finished in {:.1}s",
            experiment.name,
            experiment_started.elapsed().as_secs_f64()
        );
        let csv = output.table.to_csv();
        if let Some(dir) = &cli.check_dir {
            if let Err(mismatch) = record::check(Path::new(dir), experiment.name, &csv) {
                eprintln!("check failed: {mismatch}");
                mismatches += 1;
            }
        }
        if let Some(dir) = &cli.out_dir {
            if let Err(e) = record::write(Path::new(dir), experiment.name, &csv) {
                eprintln!("failed to write {}.csv: {e}", experiment.name);
                return ExitCode::FAILURE;
            }
        }
        completed += 1;
    }
    eprintln!(
        "completed {completed} experiment(s) at scale {} in {:.1}s",
        cli.scale,
        started.elapsed().as_secs_f64()
    );
    let Some(dir) = &cli.check_dir else {
        return ExitCode::SUCCESS;
    };
    if cli.command == "all" {
        match record::strays(Path::new(dir)) {
            Ok(strays) => {
                for stray in &strays {
                    eprintln!("check failed: {dir}/{stray} names no experiment");
                }
                mismatches += strays.len();
            }
            Err(e) => {
                eprintln!("check failed: {dir}: {e}");
                mismatches += 1;
            }
        }
    }
    if mismatches == 0 {
        eprintln!("checked {completed} experiment(s) against {dir}: identical");
        ExitCode::SUCCESS
    } else {
        eprintln!("{mismatches} mismatch(es) against {dir}");
        ExitCode::FAILURE
    }
}
