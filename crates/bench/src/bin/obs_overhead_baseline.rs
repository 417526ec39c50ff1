//! Regenerates `BENCH_obs_overhead.json` — the repo's committed
//! measurement of what the telemetry layer costs inside the arena round
//! kernel.
//!
//! The tool runs two identically seeded arena-kernel processes in
//! **lockstep segments**: one stepped with telemetry disabled (every
//! probe is a single relaxed load), one with telemetry enabled (counters,
//! phase timers, flight recorder). The global flag is flipped around each
//! segment, rounds are timed individually, and the per-segment
//! [`RoundReport`]s are asserted bit-identical — the measurement doubles
//! as a live check that probes do not perturb the trajectory. It reports
//! the median ns/round for both modes and the on-cost as a percentage.
//!
//! ```text
//! cargo run --release -p iba-bench --bin obs_overhead_baseline -- \
//!     [--quick] [--out BENCH_obs_overhead.json]
//! ```
//!
//! The default cell is the acceptance cell of the telemetry PR — n = 10⁶,
//! c = 4, λ = 0.95; `--quick` shrinks n to 20 000 for a seconds-long
//! smoke run (do **not** commit quick output as the baseline).

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use iba_core::{CappedConfig, CappedProcess};
use iba_sim::process::{AllocationProcess, RoundReport};
use iba_sim::rng::SimRng;

/// Rounds run before measurement starts (on top of the warm-started
/// pool), so timed rounds sit in the stationary regime.
const WARMUP_ROUNDS: u64 = 48;
/// Alternating off/on measurement segments per cell.
const SEGMENTS: usize = 8;
/// Timed rounds per mode per segment; each segment also runs one untimed
/// round first to re-warm the caches after the other mode's segment.
const ROUNDS_PER_SEGMENT: usize = 4;
/// Individually timed rounds per mode per cell.
const MEASURED_ROUNDS: usize = SEGMENTS * ROUNDS_PER_SEGMENT;
const SEED: u64 = 20210705; // ICDCS'21 presentation date, arbitrary but fixed

struct ModeStats {
    median_ns_per_round: u128,
    min_ns_per_round: u128,
    rounds_per_sec: f64,
}

/// Folds one mode's per-round samples into its summary stats.
fn summarize(mut samples: Vec<Duration>) -> ModeStats {
    samples.sort_unstable();
    let median = samples[samples.len() / 2].as_nanos();
    ModeStats {
        median_ns_per_round: median,
        min_ns_per_round: samples[0].as_nanos(),
        rounds_per_sec: 1e9 / median as f64,
    }
}

struct Measurement {
    n: usize,
    c: u32,
    lambda: f64,
    thrown_per_round: u64,
    off: ModeStats,
    on: ModeStats,
}

impl Measurement {
    /// On-cost of telemetry relative to the disabled median, in percent.
    /// Negative values are measurement noise: the on-path was not slower
    /// than the noise floor.
    fn overhead_percent(&self) -> f64 {
        (self.on.median_ns_per_round as f64 - self.off.median_ns_per_round as f64)
            / self.off.median_ns_per_round as f64
            * 100.0
    }
}

/// Runs the off-mode and on-mode processes in lockstep segments on the
/// same seed, toggling the global telemetry flag around each side, and
/// asserts the trajectories stay bit-identical throughout.
fn measure_cell(n: usize, c: u32, lambda: f64) -> Measurement {
    eprintln!("measuring n={n} c={c} lambda={lambda} ...");
    let config = CappedConfig::new(n, c, lambda).expect("valid cell");
    let mut off_p = CappedProcess::new(config.clone());
    let mut on_p = CappedProcess::new(config);
    off_p.warm_start();
    on_p.warm_start();
    let mut off_rng = SimRng::seed_from(SEED);
    let mut on_rng = SimRng::seed_from(SEED);
    let mut off_report = RoundReport::default();
    let mut on_report = RoundReport::default();
    iba_obs::set_enabled(false);
    for _ in 0..WARMUP_ROUNDS {
        off_p.step_into(&mut off_rng, &mut off_report);
        on_p.step_into(&mut on_rng, &mut on_report);
    }
    let mut off_samples: Vec<Duration> = Vec::with_capacity(MEASURED_ROUNDS);
    let mut on_samples: Vec<Duration> = Vec::with_capacity(MEASURED_ROUNDS);
    let mut thrown_total = 0u64;
    for segment in 0..SEGMENTS {
        iba_obs::set_enabled(false);
        off_p.step_into(&mut off_rng, &mut off_report);
        for _ in 0..ROUNDS_PER_SEGMENT {
            let start = Instant::now();
            off_p.step_into(&mut off_rng, &mut off_report);
            off_samples.push(start.elapsed());
        }
        iba_obs::set_enabled(true);
        on_p.step_into(&mut on_rng, &mut on_report);
        for _ in 0..ROUNDS_PER_SEGMENT {
            let start = Instant::now();
            on_p.step_into(&mut on_rng, &mut on_report);
            on_samples.push(start.elapsed());
            thrown_total += on_report.thrown;
        }
        assert_eq!(
            on_report, off_report,
            "telemetry perturbed the trajectory in segment {segment} at n={n} c={c} lambda={lambda}"
        );
    }
    iba_obs::set_enabled(false);
    let measurement = Measurement {
        n,
        c,
        lambda,
        thrown_per_round: thrown_total / MEASURED_ROUNDS as u64,
        off: summarize(off_samples),
        on: summarize(on_samples),
    };
    eprintln!(
        "  off {:>12} ns/round   on {:>12} ns/round   overhead {:+.2}%",
        measurement.off.median_ns_per_round,
        measurement.on.median_ns_per_round,
        measurement.overhead_percent()
    );
    measurement
}

fn render_json(cells: &[Measurement]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"benchmark\": \"obs_overhead\",\n");
    out.push_str(
        "  \"description\": \"Cost of the iba-obs telemetry layer inside the arena round \
         kernel: the same warmed CAPPED(c, lambda) process stepped with the registry disabled \
         (every probe a single relaxed load) vs enabled (allocation counters, phase timers, \
         flight recorder). Same seed, bit-identical trajectories asserted every segment, \
         alternating off/on measurement segments; median over timed rounds in the stationary \
         regime.\",\n",
    );
    out.push_str(
        "  \"regenerate\": \"cargo run --release -p iba-bench --bin obs_overhead_baseline -- \
         --out BENCH_obs_overhead.json\",\n",
    );
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
        for (name, stats) in [("telemetry_off", &cell.off), ("telemetry_on", &cell.on)] {
            let _ = writeln!(
                out,
                "      \"{name}\": {{ \"median_ns_per_round\": {}, \"min_ns_per_round\": {}, \
                 \"rounds_per_sec\": {:.3} }},",
                stats.median_ns_per_round, stats.min_ns_per_round, stats.rounds_per_sec
            );
        }
        let _ = writeln!(
            out,
            "      \"overhead_percent\": {:.3}",
            cell.overhead_percent()
        );
        let _ = writeln!(out, "    }}{}", if i + 1 < cells.len() { "," } else { "" });
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() -> ExitCode {
    let started = Instant::now();
    let mut quick = false;
    let mut out_path = String::from("BENCH_obs_overhead.json");
    let mut registry: Option<String> = None;
    let mut force = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--force" => force = true,
            "--registry" => match args.next() {
                Some(path) => registry = Some(path),
                None => {
                    eprintln!("--registry requires a path");
                    return ExitCode::FAILURE;
                }
            },
            "--out" => match args.next() {
                Some(path) => out_path = path,
                None => {
                    eprintln!("--out requires a path");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: obs_overhead_baseline [--quick] [--out BENCH_obs_overhead.json] \
                     [--registry PATH] [--force]"
                );
                return ExitCode::FAILURE;
            }
        }
    }

    let n = if quick { 20_000 } else { 1_000_000 };
    let cells = vec![measure_cell(n, 4, 0.95)];

    let json = render_json(&cells);
    let json = match iba_bench::prov::finalize(
        "obs_overhead",
        &json,
        std::path::Path::new(&out_path),
        registry.as_deref().map(std::path::Path::new),
        force,
        Some(("arena", 1)),
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
        let overhead = cell.overhead_percent();
        if overhead > 5.0 {
            eprintln!(
                "WARNING: telemetry overhead {overhead:.2}% exceeds the 5% bar at n={} c={}",
                cell.n, cell.c
            );
        }
    }
    ExitCode::SUCCESS
}
