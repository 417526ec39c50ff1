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
//! crash-safely autosaves its progress after every completed grid cell
//! (atomic temp + fsync + rename, one-deep `.prev` rotation), and
//! `--resume` skips cells already in the file. Because every cell is a
//! pure function of `(n, c, λ, window, seeds, master seed)`, a killed and
//! resumed sweep prints a table identical to an uninterrupted run; a
//! corrupted checkpoint falls back to the previous rotation.
//!
//! `--jsonl PATH` additionally writes the result table as JSON lines (one
//! schema-stamped object per grid cell, via [`Table::to_jsonl`]).

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use iba_analysis::{bounds, fits, meanfield, verify};
use iba_bench::measure::{measure_capped, MeasureConfig};
use iba_core::checkpoint;
use iba_core::config::CappedConfig;
use iba_sim::codec::{CodecError, Decoder, Encoder};
use iba_sim::output::Table;

#[derive(Debug)]
struct Args {
    n: usize,
    capacities: Vec<u32>,
    lambdas: Vec<f64>,
    window: u64,
    seeds: usize,
    master_seed: u64,
    checkpoint: Option<PathBuf>,
    resume: bool,
    jsonl: Option<PathBuf>,
    registry: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        n: 1 << 13,
        capacities: vec![1, 2, 3],
        lambdas: vec![0.75],
        window: 600,
        seeds: 3,
        master_seed: 0x5eed,
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
        match flag.as_str() {
            "--n" => {
                out.n = value(&mut iter)?
                    .parse()
                    .map_err(|e| format!("bad --n: {e}"))?
            }
            "--c" => {
                out.capacities = value(&mut iter)?
                    .split(',')
                    .map(|s| s.parse().map_err(|e| format!("bad --c entry: {e}")))
                    .collect::<Result<_, _>>()?;
            }
            "--lambda" => {
                out.lambdas = value(&mut iter)?
                    .split(',')
                    .map(|s| s.parse().map_err(|e| format!("bad --lambda entry: {e}")))
                    .collect::<Result<_, _>>()?;
            }
            "--window" => {
                out.window = value(&mut iter)?
                    .parse()
                    .map_err(|e| format!("bad --window: {e}"))?;
            }
            "--seeds" => {
                out.seeds = value(&mut iter)?
                    .parse()
                    .map_err(|e| format!("bad --seeds: {e}"))?;
            }
            "--seed" => {
                out.master_seed = value(&mut iter)?
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

/// The measured (non-recomputable) outputs of one grid cell. Everything
/// else in the table row is a pure function of `(n, c, λ)` and is
/// recomputed on resume.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CellResult {
    lambda: f64,
    c: u32,
    pool_per_bin: f64,
    wait_mean: f64,
    wait_max: f64,
}

/// Sweep progress file: the grid's identity plus completed cells.
#[derive(Debug, Clone, PartialEq)]
struct SweepProgress {
    n: u64,
    window: u64,
    seeds: u64,
    master_seed: u64,
    cells: Vec<CellResult>,
}

const PROGRESS_TAG: &str = "IBAS";
const PROGRESS_VERSION: u32 = 1;

impl SweepProgress {
    fn for_args(args: &Args) -> Self {
        SweepProgress {
            n: args.n as u64,
            window: args.window,
            seeds: args.seeds as u64,
            master_seed: args.master_seed,
            cells: Vec::new(),
        }
    }

    /// Whether this progress file belongs to the same sweep (identical
    /// cell results require identical measurement parameters).
    fn matches(&self, args: &Args) -> bool {
        self.n == args.n as u64
            && self.window == args.window
            && self.seeds == args.seeds as u64
            && self.master_seed == args.master_seed
    }

    fn find(&self, lambda: f64, c: u32) -> Option<&CellResult> {
        self.cells
            .iter()
            .find(|cell| cell.c == c && cell.lambda.to_bits() == lambda.to_bits())
    }

    fn to_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.header(PROGRESS_TAG, PROGRESS_VERSION);
        enc.u64(self.n);
        enc.u64(self.window);
        enc.u64(self.seeds);
        enc.u64(self.master_seed);
        enc.usize(self.cells.len());
        for cell in &self.cells {
            enc.f64(cell.lambda);
            enc.u32(cell.c);
            enc.f64(cell.pool_per_bin);
            enc.f64(cell.wait_mean);
            enc.f64(cell.wait_max);
        }
        enc.finish()
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut dec = Decoder::new(bytes)?;
        dec.header(PROGRESS_TAG, PROGRESS_VERSION)?;
        let n = dec.u64("sweep n")?;
        let window = dec.u64("sweep window")?;
        let seeds = dec.u64("sweep seeds")?;
        let master_seed = dec.u64("sweep master seed")?;
        let count = dec.usize("cell count")?;
        let mut cells = Vec::with_capacity(count.min(4096));
        for _ in 0..count {
            cells.push(CellResult {
                lambda: dec.f64("cell lambda")?,
                c: dec.u32("cell c")?,
                pool_per_bin: dec.f64("cell pool")?,
                wait_mean: dec.f64("cell wait mean")?,
                wait_max: dec.f64("cell wait max")?,
            });
        }
        if !dec.is_exhausted() {
            return Err(CodecError::Invalid {
                what: "trailing bytes",
            });
        }
        Ok(SweepProgress {
            n,
            window,
            seeds,
            master_seed,
            cells,
        })
    }
}

fn prev_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().map(ToOwned::to_owned).unwrap_or_default();
    name.push(".prev");
    path.with_file_name(name)
}

/// Loads the newest usable progress file: `path` first, `.prev` on
/// corruption or absence.
fn load_progress(path: &Path) -> Option<SweepProgress> {
    for candidate in [path.to_path_buf(), prev_path(path)] {
        match std::fs::read(&candidate) {
            Ok(bytes) => match SweepProgress::from_bytes(&bytes) {
                Ok(progress) => {
                    if candidate != path {
                        eprintln!(
                            "checkpoint {} was unreadable; resumed from rotation {}",
                            path.display(),
                            candidate.display()
                        );
                    }
                    return Some(progress);
                }
                Err(e) => eprintln!("checkpoint {} is unusable: {e}", candidate.display()),
            },
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => eprintln!("checkpoint {} is unreadable: {e}", candidate.display()),
        }
    }
    None
}

/// Rotates the current file to `.prev` and writes the new progress
/// crash-safely.
fn save_progress(path: &Path, progress: &SweepProgress) -> Result<(), String> {
    if path.exists() {
        std::fs::rename(path, prev_path(path))
            .map_err(|e| format!("rotating {}: {e}", path.display()))?;
    }
    checkpoint::write_bytes_atomic(path, &progress.to_bytes())
        .map_err(|e| format!("saving {}: {e}", path.display()))
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

    let mut progress = SweepProgress::for_args(&args);
    if args.resume {
        let path = args.checkpoint.as_deref().expect("resume implies a path");
        match load_progress(path) {
            Some(loaded) if loaded.matches(&args) => {
                eprintln!(
                    "resuming from {}: {} cell(s) already complete",
                    path.display(),
                    loaded.cells.len()
                );
                progress = loaded;
            }
            Some(_) => {
                eprintln!(
                    "checkpoint {} belongs to a different sweep (n/window/seeds/seed mismatch); \
                     starting fresh",
                    path.display()
                );
            }
            None => eprintln!("no usable checkpoint at {}; starting fresh", path.display()),
        }
    }

    let mut table = Table::new(
        &format!("sweep over n = {}", args.n),
        &[
            "lambda",
            "c",
            "pool/n",
            "mf pool/n",
            "avg wait",
            "mf wait",
            "max wait",
            "wait envelope",
            "thm2 bound",
            "bound ok",
        ],
    );
    for &lambda in &args.lambdas {
        for &c in &args.capacities {
            let config = match CappedConfig::new(args.n, c, lambda) {
                Ok(cfg) => cfg,
                Err(e) => {
                    eprintln!("skipping c={c}, lambda={lambda}: {e}");
                    continue;
                }
            };
            // Each cell is a pure function of the parameters and the
            // (c-decorrelated) master seed, so a cell loaded from the
            // checkpoint equals the cell an uninterrupted run computes.
            let cell = match progress.find(lambda, c) {
                Some(cell) => *cell,
                None => {
                    let measure = MeasureConfig::for_lambda(lambda, args.window, args.seeds)
                        .with_master_seed(args.master_seed ^ u64::from(c));
                    let est = measure_capped(&config, &measure);
                    let cell = CellResult {
                        lambda,
                        c,
                        pool_per_bin: est.normalized_pool_mean(),
                        wait_mean: est.wait_mean.mean(),
                        wait_max: est.wait_max.mean(),
                    };
                    progress.cells.push(cell);
                    if let Some(path) = &args.checkpoint {
                        if let Err(msg) = save_progress(path, &progress) {
                            eprintln!("warning: {msg}");
                        }
                    }
                    cell
                }
            };
            let mf = meanfield::solve(c, lambda);
            let check = verify::waiting_check(args.n, c, lambda, cell.wait_max);
            table.row(vec![
                format!("{lambda:.6}").into(),
                u64::from(c).into(),
                cell.pool_per_bin.into(),
                mf.pool_per_bin.into(),
                cell.wait_mean.into(),
                mf.mean_wait.unwrap_or(0.0).into(),
                cell.wait_max.into(),
                fits::waiting_time_fit(args.n, c, lambda).into(),
                bounds::theorem2_waiting_bound(args.n, c, lambda).into(),
                if check.within_bound() { "yes" } else { "NO" }.into(),
            ]);
        }
    }
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
        let pairs = iba_exp::registry::sweep_config_pairs(
            args.n as u64,
            &args.capacities,
            &args.lambdas,
            args.window,
            args.seeds as u64,
            args.master_seed,
        );
        if let Err(e) = iba_bench::prov::append_sweep_registry(
            path,
            &pairs,
            args.master_seed,
            &table.to_jsonl(),
            started.elapsed().as_secs_f64() * 1e3,
        ) {
            eprintln!("registry {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
