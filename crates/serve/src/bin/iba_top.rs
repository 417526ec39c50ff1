//! `iba-top`: a live terminal dashboard over a running CAPPED(c, λ)
//! dispatch service.
//!
//! Spawns a [`CappedService`] under the configured model arrival
//! load with telemetry force-enabled, drives it round by round, and
//! refreshes a `top`-style dashboard: pool size against the paper's
//! Theorem 2 bound `4·c⁻¹·ln(1/(1−λ))·n + O(c·n)`, exact waiting-time
//! quantiles, the max bin load, and the phase-timing breakdown from the
//! telemetry registry's histograms.
//!
//! ```text
//! cargo run --release -p iba-serve --bin iba-top -- \
//!     --n 16384 --c 4 --lambda 0.95 --rounds 2000
//! ```
//!
//! When stdout is a terminal the dashboard redraws in place (ANSI cursor
//! homing); otherwise (CI, pipes) each refresh is printed as a plain
//! frame. `--rounds 0` runs until interrupted.

use std::fmt::Write as _;
use std::io::{IsTerminal, Write as _};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use iba_analysis::bounds::theorem2_pool_bound;
use iba_core::CappedConfig;
use iba_exp::registry::{unix_time_now, RunRecord, RunRegistry};
use iba_obs::json::{content_hash, Provenance};
use iba_obs::HistogramSnapshot;
use iba_serve::{CappedService, KernelMode, Pacing, RoundClock, ServiceConfig};

struct Options {
    n: usize,
    c: u32,
    lambda: f64,
    rounds: u64,
    seed: u64,
    refresh_ms: u64,
    pace_us: u64,
    /// Write one final plain-text dashboard frame here and exit.
    snapshot: Option<String>,
    /// Append the final state as a registry `RunRecord` JSON line here.
    snapshot_json: Option<String>,
}

impl Options {
    fn defaults() -> Self {
        Options {
            // lambda * n must be integral for the deterministic arrival
            // model, hence 16 000 rather than a power of two.
            n: 16_000,
            c: 4,
            lambda: 0.95,
            rounds: 2_000,
            seed: 2021,
            refresh_ms: 250,
            pace_us: 1_000,
            snapshot: None,
            snapshot_json: None,
        }
    }
}

const USAGE: &str = "iba-top: live dashboard over a CAPPED(c, lambda) service

USAGE: iba-top [--n BINS] [--c CAP] [--lambda L] [--rounds N]
               [--seed SEED] [--refresh-ms MS] [--pace-us MICROS]
               [--snapshot PATH] [--snapshot-json PATH]

Runs the service under model arrivals with telemetry enabled and refreshes
a top-style dashboard: pool vs the Theorem 2 bound, waiting-time quantiles,
the max bin load, and the registry's phase-timing breakdown.
--rounds 0 runs until interrupted; otherwise the final frame is printed and
the process exits 0.
--snapshot runs quietly and writes the final frame to PATH as plain text
(one-shot mode, for scripts and dashboards). --snapshot-json appends the
final state to PATH as an experiment-registry run record (provenance,
config hash, metrics) — the same JSONL store the bench harnesses feed.";

fn parse_value<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("invalid value for {flag}: {value}"))
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options::defaults();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--help" || flag == "-h" {
            return Err(String::new());
        }
        let value = args
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        match flag.as_str() {
            "--n" => opts.n = parse_value(&flag, &value)?,
            "--c" => opts.c = parse_value(&flag, &value)?,
            "--lambda" => opts.lambda = parse_value(&flag, &value)?,
            "--rounds" => opts.rounds = parse_value(&flag, &value)?,
            "--seed" => opts.seed = parse_value(&flag, &value)?,
            "--refresh-ms" => opts.refresh_ms = parse_value(&flag, &value)?,
            "--pace-us" => opts.pace_us = parse_value(&flag, &value)?,
            "--snapshot" => opts.snapshot = Some(value),
            "--snapshot-json" => opts.snapshot_json = Some(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(opts)
}

/// One phase-timing row: p50/p99/max of a nanosecond histogram, in µs.
fn timing_row(name: &str, snap: &HistogramSnapshot) -> String {
    if snap.count == 0 {
        return format!("  {name:<12} (no samples)");
    }
    let us = |v: Option<u64>| v.map_or(0.0, |v| v as f64 / 1_000.0);
    format!(
        "  {name:<12} p50 {:>9.1} us   p99 {:>9.1} us   max {:>9.1} us   ({} samples)",
        us(snap.quantile(0.50)),
        us(snap.quantile(0.99)),
        us(snap.max_bound()),
        snap.count
    )
}

/// A `[####----]` utilization bar of `width` cells.
fn bar(fraction: f64, width: usize) -> String {
    let filled = ((fraction.clamp(0.0, 1.0)) * width as f64).round() as usize;
    let mut out = String::with_capacity(width + 2);
    out.push('[');
    for i in 0..width {
        out.push(if i < filled { '#' } else { '-' });
    }
    out.push(']');
    out
}

fn render_frame(
    opts: &Options,
    service: &CappedService,
    served_per_s: f64,
    started: Instant,
) -> String {
    let snap = service.snapshot();
    let registry = iba_obs::global();
    let mut frame = String::new();

    let total = if opts.rounds == 0 {
        "inf".to_string()
    } else {
        opts.rounds.to_string()
    };
    let _ = writeln!(
        frame,
        "iba-top — CAPPED(c={}, lambda={}) n={}  round {}/{}  up {:.1}s",
        opts.c,
        opts.lambda,
        opts.n,
        snap.round,
        total,
        started.elapsed().as_secs_f64()
    );

    // Elastic membership moves n at runtime, so the bin gauge and the
    // pool bound both track the *live* count, not the configured one.
    let bin_fraction = snap.bins as f64 / (2.0 * opts.n as f64);
    let _ = writeln!(
        frame,
        "bins   {:>10} live   {} {:>5.1}% of configured n={}  ({} moved by membership)",
        snap.bins,
        bar(bin_fraction, 40),
        snap.bins as f64 / opts.n as f64 * 100.0,
        opts.n,
        service.balls_moved(),
    );
    let bound = theorem2_pool_bound(snap.bins as usize, opts.c, opts.lambda);
    let fraction = snap.pool_size as f64 / bound;
    let _ = writeln!(
        frame,
        "pool   {:>10} balls  {} {:>5.1}% of Thm-1 bound {:.0}",
        snap.pool_size,
        bar(fraction, 40),
        fraction * 100.0,
        bound
    );
    let _ = writeln!(
        frame,
        "flow   generated {}  served {}  buffered {}  throughput {:.0} served/s",
        snap.total_generated, snap.total_served, snap.buffered, served_per_s
    );
    match &snap.wait {
        Some(wait) => {
            let _ = writeln!(
                frame,
                "wait   p50 {}  p99 {}  p999 {}  max {}  mean {:.2}  (rounds, {} served)",
                wait.p50, wait.p99, wait.p999, wait.max, wait.mean, wait.count
            );
        }
        None => {
            let _ = writeln!(frame, "wait   (no balls served yet)");
        }
    }

    let _ = writeln!(frame, "load   max {}  (capacity {})", snap.max_load, opts.c);

    let _ = writeln!(frame, "phase timings (from telemetry registry):");
    for (label, metric) in [
        ("generate", "iba_core_phase_generate_nanos"),
        ("accept", "iba_core_phase_accept_nanos"),
        ("serve", "iba_core_phase_serve_nanos"),
        ("step+tickets", "iba_serve_phase_merge_nanos"),
        ("full round", "iba_serve_round_nanos"),
    ] {
        let _ = writeln!(
            frame,
            "{}",
            timing_row(label, &registry.histogram(metric).snapshot())
        );
    }
    frame
}

/// The canonical config pairs identifying one iba-top run, hashed into
/// the registry record's `config_hash`.
fn config_pairs(opts: &Options) -> Vec<(String, String)> {
    vec![
        ("benchmark".to_string(), "iba_top".to_string()),
        ("n".to_string(), opts.n.to_string()),
        ("c".to_string(), opts.c.to_string()),
        ("lambda".to_string(), format!("{}", opts.lambda)),
        ("rounds".to_string(), opts.rounds.to_string()),
        ("seed".to_string(), opts.seed.to_string()),
        ("kernel".to_string(), KernelMode::Arena.name().to_string()),
    ]
}

/// Builds the registry run record for `--snapshot-json`: the final
/// service state flattened to metrics, under the run's provenance.
fn snapshot_record(
    opts: &Options,
    service: &CappedService,
    wall_ms: f64,
    provenance: Provenance,
) -> RunRecord {
    let snap = service.snapshot();
    let bound = theorem2_pool_bound(snap.bins as usize, opts.c, opts.lambda);
    let mut metrics = vec![
        ("round".to_string(), snap.round as f64),
        ("bins".to_string(), snap.bins as f64),
        ("pool_size".to_string(), snap.pool_size as f64),
        ("pool_bound".to_string(), bound),
        ("pool_over_bound".to_string(), snap.pool_size as f64 / bound),
        ("buffered".to_string(), snap.buffered as f64),
        ("total_generated".to_string(), snap.total_generated as f64),
        ("total_served".to_string(), snap.total_served as f64),
        ("balls_moved".to_string(), service.balls_moved() as f64),
    ];
    if let Some(wait) = &snap.wait {
        metrics.push(("wait.mean".to_string(), wait.mean));
        metrics.push(("wait.p50".to_string(), wait.p50 as f64));
        metrics.push(("wait.p99".to_string(), wait.p99 as f64));
        metrics.push(("wait.p999".to_string(), wait.p999 as f64));
        metrics.push(("wait.max".to_string(), wait.max as f64));
    }
    RunRecord {
        benchmark: "iba_top".to_string(),
        config_hash: content_hash(&config_pairs(opts)),
        seed: opts.seed,
        provenance,
        wall_ms,
        unix_time: unix_time_now(),
        metrics,
    }
}

/// Runs the dashboard; `provenance` (collected once, it runs `git`) is the
/// flight recorder's run context and the `--snapshot-json` record's.
fn run(opts: &Options, provenance: Provenance) -> Result<(), String> {
    iba_obs::set_enabled(true);
    iba_obs::flight::install_panic_hook();
    iba_obs::flight::set_run_context(provenance.clone());

    let capped = CappedConfig::new(opts.n, opts.c, opts.lambda)
        .map_err(|e| format!("invalid CAPPED parameters: {e}"))?;
    let mut service =
        CappedService::spawn(ServiceConfig::new(capped, 1, opts.seed).with_model_arrivals(true))
            .map_err(|e| format!("invalid service configuration: {e}"))?;

    // One-shot modes run quietly: no periodic frames, just the final
    // snapshot artifact(s).
    let quiet = opts.snapshot.is_some() || opts.snapshot_json.is_some();
    let interactive = !quiet && std::io::stdout().is_terminal();
    let refresh = Duration::from_millis(opts.refresh_ms.max(1));
    let pacing = if opts.pace_us == 0 {
        Pacing::Immediate
    } else {
        Pacing::Interval(Duration::from_micros(opts.pace_us))
    };
    let mut clock = RoundClock::new(pacing);

    let started = Instant::now();
    let mut next_refresh = started + refresh;
    let mut last_served = 0u64;
    let mut last_frame_at = started;
    loop {
        clock.wait();
        let report = service.run_round();
        if !report.conserves_balls() || !service.conserves_balls() {
            iba_obs::flight::fault_triggered(report.round, "invariant-violation");
            eprintln!(
                "{}",
                iba_obs::flight::PostMortem::capture("iba-top conservation violation").to_json()
            );
            return Err(format!("round {} violates conservation", report.round));
        }
        let done = opts.rounds != 0 && report.round >= opts.rounds;
        if !quiet && (Instant::now() >= next_refresh || done) {
            let now = Instant::now();
            let dt = now.duration_since(last_frame_at).as_secs_f64().max(1e-9);
            let served_per_s = (service.total_served() - last_served) as f64 / dt;
            last_served = service.total_served();
            last_frame_at = now;
            next_refresh = now + refresh;
            let frame = render_frame(opts, &service, served_per_s, started);
            let mut stdout = std::io::stdout().lock();
            if interactive {
                // Home the cursor and clear to end of screen, then redraw.
                let _ = write!(stdout, "\x1b[H\x1b[J{frame}");
            } else {
                let _ = writeln!(stdout, "{frame}");
            }
            let _ = stdout.flush();
        }
        if done {
            break;
        }
    }
    if interactive {
        println!();
    }
    if let Some(path) = opts.snapshot.as_deref() {
        let elapsed = started.elapsed().as_secs_f64().max(1e-9);
        let served_per_s = service.total_served() as f64 / elapsed;
        let frame = render_frame(opts, &service, served_per_s, started);
        std::fs::write(path, &frame).map_err(|e| format!("writing snapshot {path}: {e}"))?;
        eprintln!("wrote snapshot frame to {path}");
    }
    if let Some(path) = opts.snapshot_json.as_deref() {
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        let record = snapshot_record(opts, &service, wall_ms, provenance);
        let mut registry = RunRegistry::open(std::path::Path::new(path))
            .map_err(|e| format!("registry {path}: {e}"))?;
        registry
            .append(record)
            .map_err(|e| format!("registry {path}: {e}"))?;
        eprintln!("appended run record to {path}");
    }
    service.shutdown();
    Ok(())
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(message) => {
            if message.is_empty() {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("error: {message}");
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let provenance = Provenance::collect().with_execution(KernelMode::Arena.name(), 1);
    match run(&opts, provenance) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("iba-top FAILED: {message}");
            ExitCode::FAILURE
        }
    }
}
