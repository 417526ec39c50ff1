//! End-to-end demonstration and smoke test of the serving layer.
//!
//! Spawns a [`CappedService`], pushes `rounds × λn` requests
//! through it from concurrent generator threads (blocking on ingress
//! backpressure), drains completion notifications on a collector thread,
//! checks the conservation and capacity invariants every round, and
//! prints a throughput / waiting-time report. Exits non-zero on any
//! invariant violation, which makes it directly usable as a CI smoke job:
//!
//! ```text
//! cargo run --release -p iba-serve --bin serve_demo -- \
//!     --rounds 200 --n 4096
//! ```

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use iba_core::checkpoint::RotatingFile;
use iba_core::CappedConfig;
use iba_membership::{Autoscaler, AutoscalerConfig};
use iba_serve::{
    run_net_loop, CappedService, Completion, Dispatcher, KernelMode, NetFault, NetFaultPlan,
    NetFrontend, NetLoopOptions, Pacing, RoundClock, ServeCheckpointError, ServiceConfig,
};

struct Options {
    rounds: u64,
    n: usize,
    c: u32,
    lambda: f64,
    seed: u64,
    generators: usize,
    pace_us: u64,
    metrics_every: u64,
    ingress_capacity: usize,
    telemetry: bool,
    listen: Option<String>,
    checkpoint: Option<String>,
    checkpoint_every: u64,
    resume: bool,
    chaos: Option<String>,
    chaos_seed: Option<u64>,
    elastic: bool,
}

impl Options {
    fn defaults() -> Self {
        Options {
            rounds: 100,
            n: 16_384,
            c: 4,
            lambda: 0.75,
            seed: 2021,
            generators: 4,
            pace_us: 0,
            metrics_every: 0,
            ingress_capacity: 1 << 16,
            telemetry: false,
            listen: None,
            checkpoint: None,
            checkpoint_every: 25,
            resume: false,
            chaos: None,
            chaos_seed: None,
            elastic: false,
        }
    }
}

const USAGE: &str =
    "serve_demo: push an open-loop CAPPED(c, lambda) workload through a CAPPED service

USAGE: serve_demo [--rounds N] [--n BINS] [--c CAP] [--lambda L]
                  [--seed SEED] [--generators G] [--pace-us MICROS]
                  [--metrics-every K] [--ingress-cap Q]
                  [--telemetry] [--listen ADDR] [--elastic]
                  [--checkpoint PATH] [--checkpoint-every K] [--resume]
                  [--chaos SPEC] [--chaos-seed SEED]

The demo submits rounds x lambda*n requests total, runs rounds until all of
them are served (bounded by a safety cap), verifies conservation and
capacity invariants every round, and prints a throughput/latency report.
--telemetry (or IBA_TELEMETRY=1) additionally enables the iba-obs registry
and flight recorder, prints the Prometheus exposition at exit, and dumps a
post-mortem on invariant violation.

--listen ADDR switches to network mode: instead of in-process generators,
the demo serves the length-prefixed wire protocol on ADDR (port 0 picks an
ephemeral port) and answers GET /metrics with the live Prometheus
exposition on the same listener. It runs --rounds rounds paced at --pace-us
(default 500 us) and exits; telemetry is enabled automatically so the
scrape plane has data. Drive it with any client of the wire protocol
(iba_serve::NetClient), and scrape it with curl http://ADDR/metrics.

Network-mode resilience (all require --listen):
--checkpoint PATH      autosave the full service state to PATH every
                       --checkpoint-every rounds (default 25), with .prev
                       rotation; --resume restarts from the newest loadable
                       generation instead of a fresh service
--chaos SPEC           arm the deterministic socket fault injector. SPEC is
                       a comma list of round:kind[:a[:b]] tokens with kinds
                       drop[:conns], stall-read[:conns[:rounds]],
                       stall-write[:conns[:rounds]],
                       partial[:max_bytes[:rounds]], garbage[:conns[:bytes]]
                       e.g. --chaos 10:drop:2,20:partial:8:5,30:garbage:1:64
--chaos-seed SEED      seed for victim picks and garbage (default --seed)

--elastic arms the membership autoscaler: the service watches its pool
against the Theorem 2 bound each round and grows the fleet (up to 4n bins)
under sustained pressure, handing bins back (down to n/4) when the pool
stays slack. Bin count and balls moved are reported at exit.";

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
        if flag == "--telemetry" {
            opts.telemetry = true;
            continue;
        }
        if flag == "--resume" {
            opts.resume = true;
            continue;
        }
        if flag == "--elastic" {
            opts.elastic = true;
            continue;
        }
        let value = args
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        match flag.as_str() {
            "--rounds" => opts.rounds = parse_value(&flag, &value)?,
            "--n" => opts.n = parse_value(&flag, &value)?,
            "--c" => opts.c = parse_value(&flag, &value)?,
            "--lambda" => opts.lambda = parse_value(&flag, &value)?,
            "--seed" => opts.seed = parse_value(&flag, &value)?,
            "--generators" => opts.generators = parse_value(&flag, &value)?,
            "--pace-us" => opts.pace_us = parse_value(&flag, &value)?,
            "--metrics-every" => opts.metrics_every = parse_value(&flag, &value)?,
            "--ingress-cap" => opts.ingress_capacity = parse_value(&flag, &value)?,
            "--listen" => opts.listen = Some(value),
            "--checkpoint" => opts.checkpoint = Some(value),
            "--checkpoint-every" => opts.checkpoint_every = parse_value(&flag, &value)?,
            "--chaos" => opts.chaos = Some(value),
            "--chaos-seed" => opts.chaos_seed = Some(parse_value(&flag, &value)?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if opts.rounds == 0 || opts.generators == 0 {
        return Err("--rounds and --generators must be at least 1".into());
    }
    if opts.checkpoint_every == 0 {
        return Err("--checkpoint-every must be at least 1".into());
    }
    if opts.listen.is_none() && (opts.checkpoint.is_some() || opts.chaos.is_some()) {
        return Err("--checkpoint and --chaos require --listen".into());
    }
    if opts.resume && opts.checkpoint.is_none() {
        return Err("--resume requires --checkpoint PATH".into());
    }
    Ok(opts)
}

/// Parses a `--chaos` spec: comma-separated `round:kind[:a[:b]]` tokens.
fn parse_chaos(spec: &str) -> Result<NetFaultPlan, String> {
    let mut plan = NetFaultPlan::new();
    for token in spec.split(',').filter(|t| !t.is_empty()) {
        let parts: Vec<&str> = token.split(':').collect();
        if parts.len() < 2 || parts.len() > 4 {
            return Err(format!("bad chaos token {token}: want round:kind[:a[:b]]"));
        }
        let round: u64 = parse_value("--chaos round", parts[0])?;
        if round == 0 {
            return Err(format!("bad chaos token {token}: rounds start at 1"));
        }
        let a = parts
            .get(2)
            .map(|v| parse_value::<u32>("--chaos arg", v))
            .transpose()?;
        let b = parts
            .get(3)
            .map(|v| parse_value::<u32>("--chaos arg", v))
            .transpose()?;
        let fault = match parts[1] {
            "drop" => NetFault::DropConns {
                conns: a.unwrap_or(1),
            },
            "stall-read" => NetFault::StallReads {
                conns: a.unwrap_or(1),
                rounds: b.unwrap_or(1),
            },
            "stall-write" => NetFault::StallWrites {
                conns: a.unwrap_or(1),
                rounds: b.unwrap_or(1),
            },
            "partial" => NetFault::PartialWrites {
                max_bytes: a.unwrap_or(8),
                rounds: b.unwrap_or(1),
            },
            "garbage" => NetFault::InjectGarbage {
                conns: a.unwrap_or(1),
                bytes: b.unwrap_or(64),
            },
            other => {
                return Err(format!(
                    "unknown chaos kind {other}: want drop, stall-read, stall-write, \
                     partial, or garbage"
                ))
            }
        };
        plan.insert(round, fault);
    }
    if plan.is_empty() {
        return Err("--chaos spec contains no events".into());
    }
    Ok(plan)
}

/// Generator threads split `target` submissions evenly and block on
/// ingress backpressure, so the offered load is exact.
fn spawn_generators(
    dispatcher: &Dispatcher,
    generators: usize,
    target: u64,
) -> Vec<std::thread::JoinHandle<u64>> {
    let base = target / generators as u64;
    let extra = target % generators as u64;
    (0..generators)
        .map(|g| {
            let dispatcher = dispatcher.clone();
            let quota = base + u64::from((g as u64) < extra);
            std::thread::Builder::new()
                .name(format!("iba-serve-gen-{g}"))
                .spawn(move || {
                    let mut sent = 0;
                    while sent < quota && dispatcher.submit_blocking().is_ok() {
                        sent += 1;
                    }
                    sent
                })
                .expect("spawn generator thread")
        })
        .collect()
}

fn spawn_collector(
    completions: std::sync::mpsc::Receiver<Completion>,
    collected: Arc<AtomicU64>,
) -> std::thread::JoinHandle<u64> {
    std::thread::Builder::new()
        .name("iba-serve-collector".into())
        .spawn(move || {
            let mut max_wait = 0;
            for completion in completions {
                collected.fetch_add(1, Ordering::Relaxed);
                max_wait = max_wait.max(completion.waiting_rounds);
            }
            max_wait
        })
        .expect("spawn collector thread")
}

/// Installs the pool-bound-driven autoscaler (`--elastic`): grow under
/// sustained pressure up to 4n bins, hand capacity back down to n/4.
fn arm_elastic(service: &mut CappedService, opts: &Options) -> Result<(), String> {
    let min_bins = (opts.n / 4).max(1);
    let max_bins = opts.n.saturating_mul(4);
    service
        .set_autoscaler(Autoscaler::new(AutoscalerConfig::new(min_bins, max_bins)))
        .map_err(|e| format!("--elastic needs a uniform finite-capacity config: {e}"))?;
    println!("serve_demo: elastic autoscaler armed: bins in [{min_bins}, {max_bins}]");
    Ok(())
}

/// Reports an invariant violation: with telemetry on, marks the flight
/// recorder and dumps a post-mortem (last rounds + registry snapshot) to
/// stderr before failing the run.
fn violation(round: u64, message: String) -> String {
    if iba_obs::enabled() {
        iba_obs::flight::fault_triggered(round, "invariant-violation");
        eprintln!(
            "{}",
            iba_obs::flight::PostMortem::capture(&message).to_json()
        );
    }
    message
}

/// Network mode: serve the wire protocol and the `GET /metrics` scrape
/// plane on `addr` for `opts.rounds` rounds, then report and exit.
/// Telemetry is always enabled here — a scrape plane with an empty
/// registry would be pointless.
fn run_listen(opts: &Options, addr: &str) -> Result<(), String> {
    iba_obs::set_enabled(true);
    iba_obs::flight::install_panic_hook();
    iba_obs::flight::set_run_context(
        iba_obs::json::Provenance::collect().with_execution(KernelMode::Arena.name(), 1),
    );
    let capped = CappedConfig::new(opts.n, opts.c, opts.lambda)
        .map_err(|e| format!("invalid CAPPED parameters: {e}"))?;
    let service_config =
        ServiceConfig::new(capped, 1, opts.seed).with_ingress_capacity(opts.ingress_capacity);
    let checkpoint = opts.checkpoint.as_ref().map(RotatingFile::new);
    let mut service = match (&checkpoint, opts.resume) {
        (Some(file), true) => {
            let (service, from) = file
                .load(|bytes| {
                    Ok::<_, ServeCheckpointError>(CappedService::resume(
                        service_config.clone(),
                        bytes,
                    )?)
                })
                .map_err(|e| format!("cannot resume from {}: {e}", file.path().display()))?;
            println!(
                "serve_demo: resumed from {} at round {}",
                from.display(),
                service.round()
            );
            service
        }
        _ => CappedService::spawn(service_config)
            .map_err(|e| format!("invalid service configuration: {e}"))?,
    };
    if opts.elastic {
        arm_elastic(&mut service, opts)?;
    }
    let completions = service.take_completions().expect("fresh service");
    let mut frontend = NetFrontend::bind(addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    if let Some(spec) = &opts.chaos {
        let plan = parse_chaos(spec)?;
        let chaos_seed = opts.chaos_seed.unwrap_or(opts.seed);
        println!(
            "serve_demo: chaos armed: {} fault rounds, seed {chaos_seed}",
            plan.len()
        );
        frontend.arm_faults(plan, chaos_seed);
    }
    let pace_us = if opts.pace_us == 0 { 500 } else { opts.pace_us };
    // The "listening on" line is the readiness signal scripted drivers
    // key off; flush so it is visible even through a pipe.
    println!("serve_demo: listening on {}", frontend.local_addr());
    println!(
        "serve_demo: n={} c={} lambda={} rounds={} pace={pace_us}us",
        opts.n, opts.c, opts.lambda, opts.rounds
    );
    use std::io::Write as _;
    std::io::stdout().flush().ok();

    let start = Instant::now();
    let loop_options = NetLoopOptions {
        round_interval: Duration::from_micros(pace_us),
        ..NetLoopOptions::default()
    };
    let stop = AtomicBool::new(false);
    let mut summary = iba_serve::NetLoopSummary::default();
    let mut checkpoints_written = 0u64;
    let mut rounds_left = opts.rounds;
    // With a checkpoint file, run the loop in segments of
    // --checkpoint-every rounds and save after each; otherwise one
    // uninterrupted run.
    while rounds_left > 0 {
        let chunk = match &checkpoint {
            Some(_) => opts.checkpoint_every.min(rounds_left),
            None => rounds_left,
        };
        let segment = run_net_loop(
            &mut service,
            &mut frontend,
            &completions,
            &NetLoopOptions {
                max_rounds: chunk,
                ..loop_options.clone()
            },
            &stop,
        );
        rounds_left -= segment.rounds_run.min(rounds_left);
        summary.rounds_run += segment.rounds_run;
        summary.completions_delivered += segment.completions_delivered;
        summary.idle_polls += segment.idle_polls;
        if let Some(file) = &checkpoint {
            file.save(&service.checkpoint_bytes())
                .map_err(|e| format!("checkpoint save failed: {e}"))?;
            checkpoints_written += 1;
        }
    }
    if checkpoints_written > 0 {
        println!(
            "serve_demo: {checkpoints_written} checkpoints written to {}",
            opts.checkpoint.as_deref().unwrap_or("?")
        );
    }
    if !service.conserves_balls() {
        return Err(violation(
            service.round(),
            "network run violates service conservation".into(),
        ));
    }
    let stats = frontend.stats();
    println!("--- report ---");
    println!(
        "rounds: {} in {:.3} s wall, {} completions delivered",
        summary.rounds_run,
        start.elapsed().as_secs_f64(),
        summary.completions_delivered
    );
    println!(
        "net: {} conns, {} frames in, {} accepted, {} saturated, {} closed, {} scrapes, {} proto errors",
        stats.accepted_conns,
        stats.frames,
        stats.allocs_accepted,
        stats.allocs_saturated,
        stats.allocs_closed,
        stats.scrapes,
        stats.proto_errors
    );
    match service.wait_quantiles() {
        Some(wait) => println!("waiting time (rounds): {wait}"),
        None => println!("waiting time: no balls served"),
    }
    if opts.elastic {
        println!(
            "elastic: {} bins live after {} membership events, {} balls moved",
            service.live_bins(),
            service.membership_events(),
            service.balls_moved()
        );
    }
    println!("invariants: conservation held over the network run");
    Ok(())
}

fn run(opts: &Options) -> Result<(), String> {
    iba_obs::init_from_env();
    if let Some(addr) = opts.listen.clone() {
        return run_listen(opts, &addr);
    }
    if opts.telemetry {
        iba_obs::set_enabled(true);
    }
    if iba_obs::enabled() {
        iba_obs::flight::install_panic_hook();
        iba_obs::flight::set_run_context(
            iba_obs::json::Provenance::collect().with_execution(KernelMode::Arena.name(), 1),
        );
    }
    let capped = CappedConfig::new(opts.n, opts.c, opts.lambda)
        .map_err(|e| format!("invalid CAPPED parameters: {e}"))?;
    let per_round = (opts.lambda * opts.n as f64).round() as u64;
    let target = opts.rounds * per_round;
    let mut service = CappedService::spawn(
        ServiceConfig::new(capped, 1, opts.seed)
            .with_ingress_capacity(opts.ingress_capacity)
            .with_max_admit_per_round(Some(per_round)),
    )
    .map_err(|e| format!("invalid service configuration: {e}"))?;
    if opts.elastic {
        arm_elastic(&mut service, opts)?;
    }

    println!(
        "serve_demo: n={} c={} lambda={} target={} requests ({} rounds x {}/round)",
        opts.n, opts.c, opts.lambda, target, opts.rounds, per_round
    );

    let generators = spawn_generators(&service.dispatcher(), opts.generators, target);
    let collected = Arc::new(AtomicU64::new(0));
    let completion_rx = service.take_completions().expect("fresh service");
    let collector = spawn_collector(completion_rx, Arc::clone(&collected));

    let pacing = if opts.pace_us == 0 {
        Pacing::Immediate
    } else {
        Pacing::Interval(Duration::from_micros(opts.pace_us))
    };
    let mut clock = RoundClock::new(pacing);
    // The pool drains after submission stops; allow generous extra rounds
    // before declaring the run stuck.
    let round_cap = opts.rounds * 10 + 1_000;
    let start = Instant::now();
    let mut rounds_run = 0;
    while service.total_served() < target {
        if rounds_run >= round_cap {
            return Err(format!(
                "stuck: served {}/{target} after {rounds_run} rounds",
                service.total_served()
            ));
        }
        clock.wait();
        let report = service.run_round();
        rounds_run += 1;
        if !report.conserves_balls() {
            return Err(violation(
                report.round,
                format!("round {} violates report conservation", report.round),
            ));
        }
        if !service.conserves_balls() {
            return Err(violation(
                report.round,
                format!("round {} violates service conservation", report.round),
            ));
        }
        if report.max_load > u64::from(opts.c) {
            return Err(violation(
                report.round,
                format!(
                    "round {}: max load {} exceeds capacity {}",
                    report.round, report.max_load, opts.c
                ),
            ));
        }
        if opts.metrics_every > 0 && rounds_run % opts.metrics_every == 0 {
            println!("{}", service.snapshot().to_json_line());
        }
    }
    let elapsed = start.elapsed();

    let mut offered = 0;
    for generator in generators {
        offered += generator.join().expect("generator thread panicked");
    }
    if offered != target {
        return Err(format!("generators offered {offered}, expected {target}"));
    }
    let snapshot = service.snapshot();
    let elastic_state = (
        service.live_bins(),
        service.membership_events(),
        service.balls_moved(),
    );
    // Dropping the service closes the ingress and the completion channel,
    // which is what lets the collector's loop terminate.
    drop(service);
    let max_wait_seen = collector.join().expect("collector thread panicked");
    let notified = collected.load(Ordering::Relaxed);

    if snapshot.total_served != target {
        return Err(format!(
            "served {} != target {target}",
            snapshot.total_served
        ));
    }
    if notified != target {
        return Err(format!("completions {notified} != target {target}"));
    }

    let secs = elapsed.as_secs_f64().max(1e-9);
    println!("--- report ---");
    println!(
        "requests: {target} served in {rounds_run} rounds, {:.3} s wall",
        elapsed.as_secs_f64()
    );
    println!(
        "throughput: {:.0} requests/s, {:.1} rounds/s",
        target as f64 / secs,
        rounds_run as f64 / secs
    );
    match &snapshot.wait {
        Some(wait) => println!("waiting time (rounds): {wait} (completion max {max_wait_seen})"),
        None => println!("waiting time: no balls served"),
    }
    println!(
        "final state: pool={} buffered={} max load {}",
        snapshot.pool_size, snapshot.buffered, snapshot.max_load
    );
    if opts.elastic {
        let (live_bins, events, moved) = elastic_state;
        println!(
            "elastic: {live_bins} bins live after {events} membership events, {moved} balls moved"
        );
    }
    println!("invariants: conservation and capacity held every round");

    if iba_obs::enabled() {
        println!("--- telemetry ---");
        print!("{}", iba_obs::expo::render_registry(iba_obs::global()));
    }
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
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("serve_demo FAILED: {message}");
            ExitCode::FAILURE
        }
    }
}
