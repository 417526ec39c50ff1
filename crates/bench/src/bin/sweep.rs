//! Custom parameter sweep: measure CAPPED(c, λ) for an arbitrary grid of
//! capacities and rates, printing measured values next to the mean-field
//! prediction, the Section-V envelope and the Theorem-2 bound.
//!
//! ```text
//! cargo run -p iba-bench --release --bin sweep -- \
//!     --n 8192 --c 1,2,3,4 --lambda 0.75,0.9375 --window 600 --seeds 3
//! ```
//!
//! Long grids can be checkpointed: with `--checkpoint PATH` the sweep
//! crash-safely saves its progress after every completed grid cell
//! (atomic temp + fsync + rename, one-deep `.prev` rotation), and
//! `--resume` skips cells already in the file. Because every cell is a
//! pure function of `(n, c, λ, window, seeds, master seed)`, a killed and
//! resumed sweep prints a table identical to an uninterrupted run; a
//! corrupted checkpoint falls back to the previous rotation.
//!
//! `--jsonl PATH` additionally writes the result table as JSON lines (one
//! schema-stamped object per grid cell, via [`Table::to_jsonl`]).
//! `--registry PATH` appends the run to an experiment registry once every
//! row has passed its Theorem-2 check; a row past its bound records
//! nothing and fails the run.
//!
//! [`Table::to_jsonl`]: iba_sim::output::Table::to_jsonl

use std::path::PathBuf;
use std::process::ExitCode;

use iba_bench::sweep::{self, SweepGrid};
use iba_core::checkpoint::RotatingFile;

#[derive(Debug)]
struct Args {
    grid: SweepGrid,
    checkpoint: Option<PathBuf>,
    resume: bool,
    jsonl: Option<PathBuf>,
    registry: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        grid: SweepGrid {
            n: 1 << 13,
            capacities: vec![1, 2, 3],
            lambdas: vec![0.75],
            window: 600,
            seeds: 3,
            master_seed: 0x5eed,
        },
        checkpoint: None,
        resume: false,
        jsonl: None,
        registry: None,
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = |it: &mut std::slice::Iter<String>| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        let grid = &mut out.grid;
        match flag.as_str() {
            "--n" => {
                grid.n = value(&mut iter)?
                    .parse()
                    .map_err(|e| format!("bad --n: {e}"))?
            }
            "--c" => {
                grid.capacities = value(&mut iter)?
                    .split(',')
                    .map(|s| s.parse().map_err(|e| format!("bad --c entry: {e}")))
                    .collect::<Result<_, _>>()?;
            }
            "--lambda" => {
                grid.lambdas = value(&mut iter)?
                    .split(',')
                    .map(|s| s.parse().map_err(|e| format!("bad --lambda entry: {e}")))
                    .collect::<Result<_, _>>()?;
            }
            "--window" => {
                grid.window = value(&mut iter)?
                    .parse()
                    .map_err(|e| format!("bad --window: {e}"))?;
            }
            "--seeds" => {
                grid.seeds = value(&mut iter)?
                    .parse()
                    .map_err(|e| format!("bad --seeds: {e}"))?;
            }
            "--seed" => {
                grid.master_seed = value(&mut iter)?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--checkpoint" => out.checkpoint = Some(PathBuf::from(value(&mut iter)?)),
            "--resume" => out.resume = true,
            "--jsonl" => out.jsonl = Some(PathBuf::from(value(&mut iter)?)),
            "--registry" => out.registry = Some(PathBuf::from(value(&mut iter)?)),
            other => {
                return Err(format!(
                    "unknown flag {other}\nusage: sweep [--n N] [--c 1,2,3] [--lambda 0.75,0.9] \
                     [--window W] [--seeds S] [--seed SEED] [--checkpoint PATH] [--resume] \
                     [--jsonl PATH] [--registry PATH]"
                ))
            }
        }
    }
    if out.resume && out.checkpoint.is_none() {
        out.checkpoint = Some(PathBuf::from("sweep.ckpt"));
    }
    Ok(out)
}

fn main() -> ExitCode {
    let started = std::time::Instant::now();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    let checkpoint = args.checkpoint.as_ref().map(RotatingFile::new);
    let rows = sweep::run(&args.grid, checkpoint.as_ref(), args.resume);
    let table = sweep::table(&args.grid, &rows);
    println!("{}", table.render());
    if let Some(path) = &args.jsonl {
        let mut body = table.to_jsonl();
        if !body.is_empty() {
            body.push('\n');
        }
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {} JSONL row(s) to {}", table.len(), path.display());
    }
    if let Some(path) = &args.registry {
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        if let Err(e) = iba_bench::prov::append_sweep_registry(path, &args.grid, &rows, wall_ms) {
            eprintln!("registry {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
