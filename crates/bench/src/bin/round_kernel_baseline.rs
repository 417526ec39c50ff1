//! Regenerates `BENCH_round_kernel.json` — the repo's committed perf
//! baseline for the flat-arena round kernel.
//!
//! For each `(n, c, λ)` cell the tool runs the `scalar` oracle (the
//! pre-kernel per-ball loop) and the `arena` kernel (counting-sort
//! acceptance) in **lockstep on the same seed**, interleaving them in
//! alternating segments so machine drift cancels out of the ratio,
//! timing each round individually, and asserting the per-round
//! [`RoundReport`]s are bit-identical (the measurement doubles as a
//! differential check). It reports the median ns/round, rounds/second,
//! ball throughput, and the arena kernel's speedup over the scalar one,
//! then writes everything as JSON.
//!
//! ```text
//! cargo run --release -p iba-bench --bin round_kernel_baseline -- \
//!     [--quick] [--n N] [--out BENCH_round_kernel.json] \
//!     [--registry PATH] [--force]
//! ```
//!
//! The default cells are the acceptance grid of the kernel PRs — n = 10⁶,
//! c ∈ {2, 4, 8}, λ = 0.95 — and take a few minutes; `--quick` shrinks n
//! to 20 000 for a seconds-long smoke run (do **not** commit quick
//! output as the baseline). `--n` must make λn an integer (the
//! deterministic arrival model throws exactly λn new balls per round).

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use iba_core::process::KernelMode;
use iba_core::{CappedConfig, CappedProcess};
use iba_sim::process::{AllocationProcess, RoundReport};
use iba_sim::rng::SimRng;

/// Rounds run before measurement starts (on top of the warm-started
/// pool), so timed rounds sit in the stationary regime.
const WARMUP_ROUNDS: u64 = 48;
/// Alternating per-kernel measurement segments per cell.
const SEGMENTS: usize = 8;
/// Timed rounds per kernel per segment; each segment also runs one
/// untimed round first to re-warm the caches after the other kernel's
/// segments evicted them.
const ROUNDS_PER_SEGMENT: usize = 4;
/// Individually timed rounds per kernel per cell.
const MEASURED_ROUNDS: usize = SEGMENTS * ROUNDS_PER_SEGMENT;
const SEED: u64 = 20210705; // ICDCS'21 presentation date, arbitrary but fixed
/// Arrival rate of every cell.
const LAMBDA: f64 = 0.95;
/// The benched kernels, in measurement order; the scalar oracle comes
/// first and is the reference every other report is compared against.
const KERNELS: [KernelMode; 2] = [KernelMode::Scalar, KernelMode::Arena];

const USAGE: &str = "usage: round_kernel_baseline [--quick] [--n N] \
                     [--out BENCH_round_kernel.json] [--registry PATH] [--force]";

struct CellMeasurement {
    n: usize,
    c: u32,
    lambda: f64,
    thrown_per_round: u64,
    scalar: KernelStats,
    arena: KernelStats,
}

impl CellMeasurement {
    fn arena_speedup(&self) -> f64 {
        self.scalar.median_ns_per_round as f64 / self.arena.median_ns_per_round as f64
    }
}

struct KernelStats {
    median_ns_per_round: u128,
    min_ns_per_round: u128,
    rounds_per_sec: f64,
    /// Balls thrown (pool + arrivals) per second of wall-clock, at the
    /// median round time.
    throws_per_sec: f64,
}

/// Folds one kernel's per-round samples into its summary stats.
fn summarize(mut samples: Vec<Duration>, thrown_per_round: u64) -> KernelStats {
    samples.sort_unstable();
    let median = samples[samples.len() / 2].as_nanos();
    let min = samples[0].as_nanos();
    let rounds_per_sec = 1e9 / median as f64;
    KernelStats {
        median_ns_per_round: median,
        min_ns_per_round: min,
        rounds_per_sec,
        throws_per_sec: thrown_per_round as f64 * rounds_per_sec,
    }
}

/// One kernel's live process plus its measurement state.
struct Runner {
    kernel: KernelMode,
    process: CappedProcess,
    rng: SimRng,
    report: RoundReport,
    samples: Vec<Duration>,
}

impl Runner {
    fn new(kernel: KernelMode, config: &CappedConfig) -> Self {
        let mut process = CappedProcess::with_kernel(config.clone(), kernel);
        process.warm_start();
        Runner {
            kernel,
            process,
            rng: SimRng::seed_from(SEED),
            report: RoundReport::default(),
            samples: Vec::with_capacity(MEASURED_ROUNDS),
        }
    }

    /// One round through this kernel's driver entry point. The scalar
    /// side runs the per-round `step()` API — the only driver that
    /// existed before the kernel landed (a fresh report, and with it the
    /// waiting-time vector, is allocated every round, exactly as the
    /// simulation engine used to do). The arena side runs the kernel the
    /// way the engine drives it today: `step_into` with a reused report.
    fn step(&mut self) {
        if self.kernel == KernelMode::Scalar {
            self.report = self.process.step(&mut self.rng);
        } else {
            self.process.step_into(&mut self.rng, &mut self.report);
        }
    }
}

/// Runs both kernels in **lockstep segments** on the same seed: each
/// segment runs, per kernel, one untimed cache re-warm round plus
/// [`ROUNDS_PER_SEGMENT`] timed rounds, then asserts both kernels'
/// [`RoundReport`]s are bit-identical. Alternating segments means slow
/// machine drift (frequency scaling, co-tenants) hits both sides of the
/// ratio roughly equally instead of skewing whichever kernel ran in the
/// noisier phase, while the re-warm round keeps each kernel's timed
/// rounds cache-warm as in steady-state production use; the per-segment
/// assert turns the measurement into a differential check of the whole
/// trajectory.
fn measure_cell(n: usize, c: u32) -> CellMeasurement {
    let lambda = LAMBDA;
    eprintln!("measuring n={n} c={c} lambda={lambda} ...");
    let config = CappedConfig::new(n, c, lambda).expect("parse_args validated n");
    let mut runners = KERNELS.map(|kernel| Runner::new(kernel, &config));
    for runner in runners.iter_mut() {
        for _ in 0..WARMUP_ROUNDS {
            runner.step();
        }
    }
    let mut thrown_total = 0u64;
    for segment in 0..SEGMENTS {
        for runner in runners.iter_mut() {
            runner.step();
            for _ in 0..ROUNDS_PER_SEGMENT {
                let start = Instant::now();
                runner.step();
                runner.samples.push(start.elapsed());
            }
        }
        thrown_total += ROUNDS_PER_SEGMENT as u64 * runners[0].report.thrown;
        let [scalar, arena] = &runners;
        assert_eq!(
            arena.report, scalar.report,
            "arena diverged from scalar in segment {segment} at n={n} c={c} lambda={lambda}"
        );
    }
    let thrown = thrown_total / MEASURED_ROUNDS as u64;
    let [scalar, arena] = runners.map(|r| summarize(r.samples, thrown));
    let cell = CellMeasurement {
        n,
        c,
        lambda,
        thrown_per_round: thrown,
        scalar,
        arena,
    };
    for (kernel, stats) in [("scalar", &cell.scalar), ("arena", &cell.arena)] {
        let speedup = cell.scalar.median_ns_per_round as f64 / stats.median_ns_per_round as f64;
        eprintln!(
            "  {kernel:<8} {:>12} ns/round   {:>14.0} throws/s   {speedup:.2}x vs scalar",
            stats.median_ns_per_round, stats.throws_per_sec
        );
    }
    cell
}

fn render_json(cells: &[CellMeasurement]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"benchmark\": \"round_kernel\",\n");
    out.push_str(
        "  \"description\": \"CAPPED(c, lambda) round throughput across kernel generations: \
         legacy scalar kernel through the pre-kernel per-round step() API (VecDeque-per-bin, \
         per-ball RNG, fresh report allocation each round) vs the flat-arena counting-sort \
         kernel through step_into with reused round scratch. Same seed, bit-identical \
         trajectories, alternating measurement segments; median over timed rounds in the \
         stationary regime.\",\n",
    );
    out.push_str("  \"regenerate\": \"cargo run --release -p iba-bench --bin round_kernel_baseline -- --out BENCH_round_kernel.json\",\n");
    let _ = writeln!(out, "  \"seed\": {SEED},");
    let _ = writeln!(out, "  \"warmup_rounds\": {WARMUP_ROUNDS},");
    let _ = writeln!(out, "  \"measured_rounds\": {MEASURED_ROUNDS},");
    out.push_str("  \"cells\": [\n");
    for (i, cell) in cells.iter().enumerate() {
        let _ = writeln!(out, "    {{");
        let _ = writeln!(
            out,
            "      \"n\": {}, \"c\": {}, \"lambda\": {}, \"thrown_per_round\": {},",
            cell.n, cell.c, cell.lambda, cell.thrown_per_round
        );
        for (key, stats) in [("scalar", &cell.scalar), ("arena", &cell.arena)] {
            let _ = writeln!(
                out,
                "      \"{key}\": {{ \"median_ns_per_round\": {}, \
                 \"min_ns_per_round\": {}, \"rounds_per_sec\": {:.3}, \
                 \"throws_per_sec\": {:.0} }},",
                stats.median_ns_per_round,
                stats.min_ns_per_round,
                stats.rounds_per_sec,
                stats.throws_per_sec
            );
        }
        let _ = writeln!(out, "      \"arena_speedup\": {:.3}", cell.arena_speedup());
        let _ = writeln!(out, "    }}{}", if i + 1 < cells.len() { "," } else { "" });
    }
    out.push_str("  ]\n}\n");
    out
}

struct Options {
    n: usize,
    out_path: String,
    registry: Option<String>,
    force: bool,
}

/// Parses the command line. `--n` must be positive and make `λn` an
/// integer, the deterministic arrival model's requirement — anything
/// else is a usage error, not a panic halfway into the measurement.
fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut quick = false;
    let mut n_override: Option<usize> = None;
    let mut opts = Options {
        n: 0,
        out_path: String::from("BENCH_round_kernel.json"),
        registry: None,
        force: false,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--force" => opts.force = true,
            "--registry" => opts.registry = Some(args.next().ok_or("--registry requires a path")?),
            "--out" => opts.out_path = args.next().ok_or("--out requires a path")?,
            "--n" => {
                let value = args.next().ok_or("--n requires a positive integer")?;
                match value.parse::<usize>() {
                    Ok(n) if n > 0 && CappedConfig::new(n, 2, LAMBDA).is_ok() => {
                        n_override = Some(n)
                    }
                    Ok(n) if n > 0 => {
                        return Err(format!(
                            "--n {n}: lambda * n = {} must be an integer (lambda = {LAMBDA}; \
                             use a multiple of 20, e.g. --n 32000)",
                            LAMBDA * n as f64
                        ))
                    }
                    _ => return Err(format!("--n requires a positive integer, got {value}")),
                }
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    opts.n = n_override.unwrap_or(if quick { 20_000 } else { 1_000_000 });
    Ok(opts)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(err) => {
            eprintln!("{err}");
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    let cells: Vec<CellMeasurement> = [2u32, 4, 8]
        .iter()
        .map(|&c| measure_cell(opts.n, c))
        .collect();

    let json = render_json(&cells);
    let json = match iba_bench::prov::finalize(
        "round_kernel",
        &json,
        std::path::Path::new(&opts.out_path),
        opts.registry.as_deref().map(std::path::Path::new),
        opts.force,
        Some((KernelMode::Arena.name(), 1)),
        started.elapsed().as_secs_f64() * 1e3,
    ) {
        Ok(stamped) => stamped,
        Err(err) => {
            eprintln!("{err}");
            return ExitCode::FAILURE;
        }
    };
    println!("{json}");
    for cell in &cells {
        let speedup = cell.arena_speedup();
        if speedup < 2.0 {
            eprintln!(
                "WARNING: arena speedup {speedup:.2}x below the 2x acceptance bar at n={} c={}",
                cell.n, cell.c
            );
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn n_must_make_lambda_n_integral() {
        let err = parse(&["--n", "32768"])
            .err()
            .expect("2^15 * 0.95 is fractional");
        assert!(err.contains("must be an integer"), "{err}");
        assert_eq!(parse(&["--n", "32000"]).map(|o| o.n), Ok(32_000));
    }

    #[test]
    fn n_must_be_a_positive_integer() {
        for bad in ["0", "-5", "ten"] {
            let err = parse(&["--n", bad]).err().expect("rejected");
            assert!(err.contains("positive integer"), "{bad}: {err}");
        }
        assert!(parse(&["--n"]).is_err());
    }

    #[test]
    fn defaults_and_quick_pick_integral_cells() {
        assert_eq!(parse(&[]).map(|o| o.n), Ok(1_000_000));
        assert_eq!(parse(&["--quick"]).map(|o| o.n), Ok(20_000));
        assert!(parse(&["--threads", "2"]).is_err(), "removed flag");
    }
}
