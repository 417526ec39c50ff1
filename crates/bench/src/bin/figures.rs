//! The figure-regeneration binary: one subcommand per experiment of
//! [`iba_bench::EXPERIMENTS`], or `all` for every one.
//!
//! Experiments run one at a time. As soon as each finishes, its table is
//! printed, its wall time goes to stderr and, with `--out`, its CSV is
//! written, so an interrupted `all` run keeps every experiment that had
//! finished.
//!
//! ```text
//! cargo run -p iba-bench --release --bin figures -- fig4-left --scale quick
//! cargo run -p iba-bench --release --bin figures -- all --scale paper --out results/
//! ```

use std::fs;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use iba_bench::cli;
use iba_bench::figures::ExperimentOutput;

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
    let mut completed = 0;
    for experiment in cli.experiments() {
        let experiment_started = Instant::now();
        let output = (experiment.run)(cli.scale);
        println!("{}", output.render_with_charts());
        eprintln!(
            "{} finished in {:.1}s",
            experiment.name,
            experiment_started.elapsed().as_secs_f64()
        );
        if let Some(dir) = &cli.out_dir {
            if let Err(e) = write_csv(dir, experiment.name, &output) {
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
    ExitCode::SUCCESS
}

fn write_csv(dir: &str, name: &str, output: &ExperimentOutput) -> std::io::Result<()> {
    fs::create_dir_all(dir)?;
    let path = Path::new(dir).join(format!("{name}.csv"));
    fs::write(path, output.table.to_csv())
}
