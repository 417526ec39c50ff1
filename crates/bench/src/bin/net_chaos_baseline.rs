//! Regenerates `BENCH_net_chaos.json` — the committed measurement of the
//! serve stack under chaos: the same closed-loop client workload is run
//! twice against an in-process `run_net_loop` server, once calm and once
//! with the full resilience gauntlet active —
//!
//! - the deterministic socket fault injector armed (partial writes, read
//!   and write stalls, garbage injection, connection drops),
//! - admission control shedding under ingress pressure,
//! - a raw-socket surge client flooding the ingress queue mid-run,
//! - a **live crash-restart**: the service is checkpointed, torn down
//!   (worker threads joined), held down briefly, and resumed from the
//!   checkpoint bytes while clients ride through on deadline + retry.
//!
//! The committed numbers are goodput retained under chaos, retry
//! amplification, the p999 submit latency with and without injection,
//! and the number of rounds the resumed service needed to re-stabilize.
//!
//! ```text
//! cargo run --release -p iba-bench --bin net_chaos_baseline -- \
//!     [--ci] [--out BENCH_net_chaos.json]
//! ```
//!
//! `--ci` runs a short configuration and asserts the recovery invariants
//! (service resumed and re-stabilized, faults actually fired, every
//! client request eventually landed, final `/metrics` scrape parses
//! strictly) without writing a file unless `--out` is given.

use std::fmt::Write as _;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use iba_core::CappedConfig;
use iba_serve::proto::MAGIC;
use iba_serve::{
    run_net_loop, AdmissionControl, CappedService, ClientConfig, ClientStats, Frame, FrameDecoder,
    NetClient, NetFault, NetFaultPlan, NetFrontend, NetLoopOptions, ServiceConfig,
};
use iba_sim::stats::Histogram;

const N: usize = 1024;
const C: u32 = 2;
const SHARDS: usize = 4;
const SEED: u64 = 20210705; // matches the other committed baselines
const ROUND_INTERVAL: Duration = Duration::from_micros(400);
const CLIENTS: usize = 2;
/// Ingress queue in the chaos phase: small enough that the surge client
/// builds real fill pressure for the shedding policy.
const CHAOS_INGRESS: usize = 512;
const SHED_START: f64 = 0.5;

struct Tuning {
    per_client: u64,
    surge: u64,
    downtime: Duration,
}

const FULL: Tuning = Tuning {
    per_client: 2_500,
    surge: 4_000,
    downtime: Duration::from_millis(80),
};

const CI: Tuning = Tuning {
    per_client: 400,
    surge: 1_500,
    downtime: Duration::from_millis(40),
};

/// The chaos schedule, in service rounds (one round per ~ROUND_INTERVAL).
/// Everything before the crash point so the gauntlet overlaps the
/// checkpoint the service restarts from.
fn chaos_plan() -> NetFaultPlan {
    NetFaultPlan::new()
        .with(
            30,
            NetFault::PartialWrites {
                max_bytes: 64,
                rounds: 40,
            },
        )
        .with(
            50,
            NetFault::StallReads {
                conns: 1,
                rounds: 20,
            },
        )
        .with(
            80,
            NetFault::StallWrites {
                conns: 1,
                rounds: 20,
            },
        )
        .with(
            120,
            NetFault::InjectGarbage {
                conns: 1,
                bytes: 32,
            },
        )
        .with(160, NetFault::DropConns { conns: 1 })
        .with(
            200,
            NetFault::PartialWrites {
                max_bytes: 128,
                rounds: 50,
            },
        )
}

/// What one phase's client fleet did, merged.
struct PhaseStats {
    submitted: u64,
    accepted: u64,
    attempts: u64,
    retries: u64,
    reconnects: u64,
    duplicate_accepts: u64,
    saturated: u64,
    completed: u64,
    wall: Duration,
    latency_us: Histogram,
}

impl PhaseStats {
    fn goodput_per_sec(&self) -> f64 {
        self.accepted as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    fn retry_amplification(&self) -> f64 {
        self.attempts as f64 / self.submitted.max(1) as f64
    }
}

/// What the chaos server observed across crash and recovery.
struct RecoveryStats {
    crash_round: u64,
    pre_crash_pool: usize,
    recovery_rounds: u64,
    faults_injected: u64,
    conns_dropped_by_fault: u64,
    allocs_shed: u64,
    slow_consumer_drops: u64,
    conserved: bool,
    checkpoint_bytes: usize,
}

/// One closed-loop client: submits `requests` sequentially through the
/// retrying [`NetClient`], timing each submission end to end (retries,
/// reconnects, and backoff included), then lingers for completions.
fn client_worker(
    addr: SocketAddr,
    requests: u64,
    seed: u64,
    strict_completions: bool,
    progress: Arc<AtomicU64>,
) -> Result<(ClientStats, Vec<u64>), String> {
    let mut client = NetClient::new(
        ClientConfig::new(addr)
            .with_seed(seed)
            .with_deadline(Duration::from_secs(20))
            .with_backoff(Duration::from_micros(500), Duration::from_millis(20)),
    );
    let mut latencies = Vec::with_capacity(requests as usize);
    for _ in 0..requests {
        let sent = Instant::now();
        client
            .submit()
            .map_err(|e| format!("client submit failed: {e}"))?;
        latencies.push(sent.elapsed().as_micros() as u64);
        progress.fetch_add(1, Ordering::Relaxed);
        client.pump_completions(Duration::ZERO);
    }
    // Completions for tickets whose connection a fault killed are
    // undeliverable, so only the calm phase insists on all of them.
    let target = client.stats().accepted;
    let deadline = Instant::now() + Duration::from_secs(10);
    while client.stats().completed < target && Instant::now() < deadline {
        client.pump_completions(Duration::from_millis(2));
        if !strict_completions && client.stats().completed + 32 >= target {
            break;
        }
    }
    if strict_completions && client.stats().completed != target {
        return Err(format!(
            "calm client saw {}/{} completions",
            client.stats().completed,
            target
        ));
    }
    Ok((client.stats(), latencies))
}

/// The surge: a raw socket that floods `count` allocation requests in one
/// write to drive the ingress queue into shed territory. Error-tolerant —
/// the fault injector is allowed to kill it.
fn surge_worker(addr: SocketAddr, count: u64) -> (u64, u64) {
    let run = || -> Result<(u64, u64), std::io::Error> {
        let mut sock = TcpStream::connect(addr)?;
        sock.set_nodelay(true)?;
        sock.set_read_timeout(Some(Duration::from_millis(5)))?;
        sock.write_all(&MAGIC)?;
        let mut wire = Vec::with_capacity(count as usize * 13);
        for req_id in 0..count {
            Frame::Alloc { req_id }.encode_into(&mut wire);
        }
        sock.write_all(&wire)?;
        let mut decoder = FrameDecoder::new();
        let mut buf = [0u8; 16 << 10];
        let (mut accepted, mut saturated) = (0u64, 0u64);
        let deadline = Instant::now() + Duration::from_secs(10);
        while accepted + saturated < count && Instant::now() < deadline {
            match sock.read(&mut buf) {
                Ok(0) => break,
                Ok(k) => decoder.push(&buf[..k]),
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
                Err(_) => break,
            }
            loop {
                match decoder.next_frame() {
                    Ok(Some(Frame::Accepted { .. })) => accepted += 1,
                    Ok(Some(Frame::Saturated { .. })) => saturated += 1,
                    Ok(Some(_)) => {}
                    Ok(None) | Err(_) => break,
                }
            }
        }
        Ok((accepted, saturated))
    };
    run().unwrap_or((0, 0))
}

type ClientHandle = std::thread::JoinHandle<Result<(ClientStats, Vec<u64>), String>>;

fn merge_fleet(handles: Vec<ClientHandle>, start: Instant) -> Result<PhaseStats, String> {
    let mut merged = PhaseStats {
        submitted: 0,
        accepted: 0,
        attempts: 0,
        retries: 0,
        reconnects: 0,
        duplicate_accepts: 0,
        saturated: 0,
        completed: 0,
        wall: Duration::ZERO,
        latency_us: Histogram::new(),
    };
    for handle in handles {
        let (stats, latencies) = handle.join().map_err(|_| "client thread panicked")??;
        merged.submitted += stats.submitted;
        merged.accepted += stats.accepted;
        merged.attempts += stats.attempts;
        merged.retries += stats.retries;
        merged.reconnects += stats.reconnects;
        merged.duplicate_accepts += stats.duplicate_accepts;
        merged.saturated += stats.saturated;
        merged.completed += stats.completed;
        for us in latencies {
            merged.latency_us.record(us);
        }
    }
    merged.wall = start.elapsed();
    Ok(merged)
}

/// Parks until `progress` crosses `target` submissions (with a generous
/// timeout), so chaos events land relative to traffic, not wall time.
fn await_progress(progress: &AtomicU64, target: u64) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(60);
    while progress.load(Ordering::Relaxed) < target {
        if Instant::now() > deadline {
            return Err(format!(
                "fleet stalled at {}/{target} submissions",
                progress.load(Ordering::Relaxed)
            ));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok(())
}

/// Calm phase: plain server, no faults, no admission policy.
fn run_calm(tuning: &Tuning) -> Result<PhaseStats, String> {
    let config = CappedConfig::new(N, C, 0.0).map_err(|e| e.to_string())?;
    let mut service = CappedService::spawn(
        ServiceConfig::new(config, SHARDS, SEED).with_ingress_capacity(1 << 16),
    )
    .map_err(|e| e.to_string())?;
    let completions = service.take_completions().expect("fresh service");
    let frontend = NetFrontend::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = frontend.local_addr();
    let stop = Arc::new(AtomicBool::new(false));
    let server = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut service = service;
            let mut frontend = frontend;
            run_net_loop(
                &mut service,
                &mut frontend,
                &completions,
                &NetLoopOptions {
                    round_interval: ROUND_INTERVAL,
                    ..NetLoopOptions::default()
                },
                &stop,
            );
            service.conserves_balls()
        })
    };

    let start = Instant::now();
    let progress = Arc::new(AtomicU64::new(0));
    let fleet: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let per_client = tuning.per_client;
            let progress = Arc::clone(&progress);
            std::thread::spawn(move || {
                client_worker(addr, per_client, SEED + i as u64, true, progress)
            })
        })
        .collect();
    let stats = merge_fleet(fleet, start);
    stop.store(true, Ordering::Relaxed);
    let conserved = server.join().map_err(|_| "server thread panicked")?;
    let stats = stats?;
    if !conserved {
        return Err("calm phase lost balls".into());
    }
    Ok(stats)
}

/// Chaos phase: faults armed, shedding on, surge mid-run, and a live
/// crash-restart while the fleet is in flight.
type ChaosOutcome = (PhaseStats, RecoveryStats, u64, u64, (&'static str, usize));

fn run_chaos(tuning: &Tuning) -> Result<ChaosOutcome, String> {
    let config = CappedConfig::new(N, C, 0.0).map_err(|e| e.to_string())?;
    let service_config =
        ServiceConfig::new(config, SHARDS, SEED).with_ingress_capacity(CHAOS_INGRESS);
    let mut service = CappedService::spawn(service_config.clone()).map_err(|e| e.to_string())?;
    let kernel = (service.kernel_mode().name(), service.shards());
    let completions = service.take_completions().expect("fresh service");
    let mut frontend = NetFrontend::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    frontend.set_admission_control(AdmissionControl::default().with_shedding(SHED_START, SEED));
    frontend.arm_faults(chaos_plan(), SEED);
    let addr = frontend.local_addr();

    let crash = Arc::new(AtomicBool::new(false));
    let stop = Arc::new(AtomicBool::new(false));
    let downtime = tuning.downtime;
    let server = {
        let crash = Arc::clone(&crash);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || -> Result<RecoveryStats, String> {
            let mut service = service;
            let mut frontend = frontend;
            let opts = NetLoopOptions {
                round_interval: ROUND_INTERVAL,
                ..NetLoopOptions::default()
            };
            // Segment 1: serve until the driver pulls the plug.
            run_net_loop(&mut service, &mut frontend, &completions, &opts, &crash);

            // The crash: checkpoint, kill every worker, stay down, resume
            // from the bytes. The listener and its connections survive —
            // clients experience a stall, not a reset.
            let crash_round = service.round();
            let pre_crash_pool = service.pool_size();
            let bytes = service.checkpoint_bytes();
            service.shutdown();
            std::thread::sleep(downtime);
            let mut resumed = CappedService::resume(service_config, &bytes)
                .map_err(|e| format!("resume failed: {e}"))?;
            let completions = resumed.take_completions().expect("resumed service");

            // Recovery: single-round segments until the restored backlog
            // is fully served (pool empty), counting the rounds.
            let mut recovery_rounds = 0u64;
            let single = NetLoopOptions {
                max_rounds: 1,
                ..opts.clone()
            };
            while resumed.pool_size() > 0 && recovery_rounds < 10_000 {
                run_net_loop(&mut resumed, &mut frontend, &completions, &single, &stop);
                recovery_rounds += 1;
            }

            // Segment 2: keep serving until the fleet is done.
            run_net_loop(&mut resumed, &mut frontend, &completions, &opts, &stop);
            let stats = frontend.stats();
            Ok(RecoveryStats {
                crash_round,
                pre_crash_pool,
                recovery_rounds,
                faults_injected: stats.faults_injected,
                conns_dropped_by_fault: stats.conns_dropped_by_fault,
                allocs_shed: stats.allocs_shed,
                slow_consumer_drops: stats.slow_consumer_drops,
                conserved: resumed.conserves_balls(),
                checkpoint_bytes: bytes.len(),
            })
        })
    };

    let start = Instant::now();
    let progress = Arc::new(AtomicU64::new(0));
    let total = tuning.per_client * CLIENTS as u64;
    let fleet: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let per_client = tuning.per_client;
            let progress = Arc::clone(&progress);
            std::thread::spawn(move || {
                client_worker(addr, per_client, SEED + 100 + i as u64, false, progress)
            })
        })
        .collect();
    // Fire the surge a quarter of the way in, crash halfway: both land
    // mid-traffic by construction, not by wall-clock luck — the second
    // half of the fleet's submissions can only land on the resumed
    // service.
    await_progress(&progress, total / 4)?;
    let surge_count = tuning.surge;
    let surge = std::thread::spawn(move || surge_worker(addr, surge_count));
    await_progress(&progress, total / 2)?;
    crash.store(true, Ordering::Relaxed);

    let stats = merge_fleet(fleet, start);
    let (surge_accepted, surge_saturated) = surge.join().map_err(|_| "surge thread panicked")?;
    // The fleet is done; scrape the live loop once more before stopping it
    // so the committed run proves the post-recovery scrape plane works.
    let final_scrape = scrape(addr)?;
    if final_scrape
        .value("iba_serve_checkpoint_resumes_total")
        .unwrap_or(0.0)
        < 1.0
    {
        return Err("final scrape does not show the checkpoint resume".into());
    }
    stop.store(true, Ordering::Relaxed);
    let recovery = server.join().map_err(|_| "server thread panicked")??;
    let stats = stats?;
    if !recovery.conserved {
        return Err("resumed service lost balls".into());
    }
    Ok((stats, recovery, surge_accepted, surge_saturated, kernel))
}

/// Scrapes `GET /metrics` and returns the strictly parsed exposition.
fn scrape(addr: SocketAddr) -> Result<iba_obs::expo::Exposition, String> {
    let mut http = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    http.set_read_timeout(Some(Duration::from_millis(50)))
        .map_err(|e| e.to_string())?;
    http.write_all(b"GET /metrics HTTP/1.1\r\nHost: iba\r\nConnection: close\r\n\r\n")
        .map_err(|e| format!("scrape request: {e}"))?;
    let mut response = Vec::new();
    let mut buf = [0u8; 4096];
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if Instant::now() > deadline {
            return Err("scrape timed out".into());
        }
        match http.read(&mut buf) {
            Ok(0) => break,
            Ok(k) => response.extend_from_slice(&buf[..k]),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(e) => return Err(format!("scrape read: {e}")),
        }
    }
    let text = String::from_utf8(response).map_err(|e| format!("scrape not utf8: {e}"))?;
    if !text.starts_with("HTTP/1.1 200 OK\r\n") {
        return Err(format!(
            "scrape did not return 200: {}",
            text.lines().next().unwrap_or("")
        ));
    }
    let body = iba_obs::expo::http_body(&text).ok_or("scrape response has no body")?;
    iba_obs::expo::parse(body).map_err(|e| format!("exposition failed strict parse: {e}"))
}

fn q(h: &Histogram, quantile: f64) -> u64 {
    h.quantile(quantile).unwrap_or(0)
}

fn phase_json(out: &mut String, stats: &PhaseStats) {
    let h = &stats.latency_us;
    let _ = writeln!(out, "    \"requests\": {},", stats.submitted);
    let _ = writeln!(out, "    \"accepted\": {},", stats.accepted);
    let _ = writeln!(out, "    \"attempts\": {},", stats.attempts);
    let _ = writeln!(out, "    \"retries\": {},", stats.retries);
    let _ = writeln!(out, "    \"reconnects\": {},", stats.reconnects);
    let _ = writeln!(
        out,
        "    \"duplicate_accepts\": {},",
        stats.duplicate_accepts
    );
    let _ = writeln!(out, "    \"saturated_replies\": {},", stats.saturated);
    let _ = writeln!(out, "    \"completions_seen\": {},", stats.completed);
    let _ = writeln!(out, "    \"wall_ms\": {},", stats.wall.as_millis());
    let _ = writeln!(
        out,
        "    \"goodput_per_sec\": {:.0},",
        stats.goodput_per_sec()
    );
    let _ = writeln!(
        out,
        "    \"retry_amplification\": {:.4},",
        stats.retry_amplification()
    );
    let _ = writeln!(
        out,
        "    \"submit_latency_us\": {{ \"mean\": {:.1}, \"p50\": {}, \"p99\": {}, \
         \"p999\": {}, \"max\": {} }}",
        h.mean(),
        q(h, 0.50),
        q(h, 0.99),
        q(h, 0.999),
        h.max().unwrap_or(0)
    );
}

fn render_json(
    calm: &PhaseStats,
    chaos: &PhaseStats,
    recovery: &RecoveryStats,
    surge_accepted: u64,
    surge_saturated: u64,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"benchmark\": \"net_chaos\",\n");
    out.push_str(
        "  \"description\": \"Chaos-hardened serve stack under the full resilience gauntlet: \
         a closed-loop NetClient fleet (deadlines, jittered retries, idempotent re-submission) \
         drives the TCP front end twice — once calm, once with the deterministic socket fault \
         injector armed (partial writes, read/write stalls, garbage, drops), admission-control \
         shedding under a raw-socket ingress surge, and a live crash-restart: the service is \
         checkpointed, its workers killed, and resumed from the bytes mid-traffic. Latency is \
         per-submit wall time including retries and backoff.\",\n",
    );
    out.push_str(
        "  \"regenerate\": \"cargo run --release -p iba-bench --bin net_chaos_baseline -- \
         --out BENCH_net_chaos.json\",\n",
    );
    let _ = writeln!(out, "  \"seed\": {SEED},");
    let _ = writeln!(
        out,
        "  \"server\": {{ \"n\": {N}, \"c\": {C}, \"shards\": {SHARDS}, \
         \"round_interval_us\": {}, \"clients\": {CLIENTS}, \"chaos_ingress\": {CHAOS_INGRESS}, \
         \"shed_start\": {SHED_START} }},",
        ROUND_INTERVAL.as_micros()
    );
    out.push_str("  \"calm\": {\n");
    phase_json(&mut out, calm);
    out.push_str("  },\n");
    out.push_str("  \"chaos\": {\n");
    phase_json(&mut out, chaos);
    out.push_str("  },\n");
    let _ = writeln!(
        out,
        "  \"goodput_retained\": {:.4},",
        chaos.goodput_per_sec() / calm.goodput_per_sec().max(1e-9)
    );
    let _ = writeln!(
        out,
        "  \"surge\": {{ \"accepted\": {surge_accepted}, \"saturated\": {surge_saturated} }},"
    );
    out.push_str("  \"recovery\": {\n");
    let _ = writeln!(out, "    \"crash_round\": {},", recovery.crash_round);
    let _ = writeln!(out, "    \"pre_crash_pool\": {},", recovery.pre_crash_pool);
    let _ = writeln!(
        out,
        "    \"checkpoint_bytes\": {},",
        recovery.checkpoint_bytes
    );
    let _ = writeln!(
        out,
        "    \"recovery_rounds\": {},",
        recovery.recovery_rounds
    );
    let _ = writeln!(
        out,
        "    \"faults_injected\": {},",
        recovery.faults_injected
    );
    let _ = writeln!(
        out,
        "    \"conns_dropped_by_fault\": {},",
        recovery.conns_dropped_by_fault
    );
    let _ = writeln!(out, "    \"allocs_shed\": {},", recovery.allocs_shed);
    let _ = writeln!(
        out,
        "    \"slow_consumer_drops\": {}",
        recovery.slow_consumer_drops
    );
    out.push_str("  }\n}\n");
    out
}

fn run(opts: &Options, started: Instant) -> Result<(), String> {
    iba_obs::set_enabled(true);
    let tuning = if opts.ci { &CI } else { &FULL };

    eprintln!("--- calm phase ---");
    let calm = run_calm(tuning)?;
    eprintln!(
        "calm: {} accepted in {:?} ({:.0}/s), p999 {}us",
        calm.accepted,
        calm.wall,
        calm.goodput_per_sec(),
        q(&calm.latency_us, 0.999)
    );

    eprintln!("--- chaos phase ---");
    let (chaos, recovery, surge_accepted, surge_saturated, kernel) = run_chaos(tuning)?;
    eprintln!(
        "chaos: {} accepted in {:?} ({:.0}/s), p999 {}us, {:.3}x retry amplification",
        chaos.accepted,
        chaos.wall,
        chaos.goodput_per_sec(),
        q(&chaos.latency_us, 0.999),
        chaos.retry_amplification()
    );
    eprintln!(
        "crash at round {} (pool {}, checkpoint {} bytes), resumed and re-stabilized in {} rounds",
        recovery.crash_round,
        recovery.pre_crash_pool,
        recovery.checkpoint_bytes,
        recovery.recovery_rounds
    );
    eprintln!(
        "faults: {} injected, {} conns dropped, {} allocs shed; surge {}+{} accepted/saturated",
        recovery.faults_injected,
        recovery.conns_dropped_by_fault,
        recovery.allocs_shed,
        surge_accepted,
        surge_saturated
    );

    // The recovery invariants every run (and the CI job) stands on.
    if chaos.accepted != chaos.submitted {
        return Err(format!(
            "lost requests under chaos: {}/{} accepted",
            chaos.accepted, chaos.submitted
        ));
    }
    if recovery.crash_round == 0 {
        return Err("the crash never happened".into());
    }
    if recovery.recovery_rounds >= 10_000 {
        return Err("resumed service never re-stabilized".into());
    }
    if recovery.faults_injected == 0 {
        return Err("fault plan armed but nothing fired".into());
    }

    let json = render_json(&calm, &chaos, &recovery, surge_accepted, surge_saturated);
    let json = match opts.out.as_deref() {
        Some(path) => iba_bench::prov::finalize(
            "net_chaos",
            &json,
            std::path::Path::new(path),
            opts.registry.as_deref().map(std::path::Path::new),
            opts.force,
            Some(kernel),
            started.elapsed().as_secs_f64() * 1e3,
        )?,
        None => json,
    };
    println!("{json}");
    Ok(())
}

struct Options {
    ci: bool,
    out: Option<String>,
    registry: Option<String>,
    force: bool,
}

fn main() -> ExitCode {
    let started = Instant::now();
    let mut opts = Options {
        ci: false,
        out: None,
        registry: None,
        force: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--ci" => opts.ci = true,
            "--force" => opts.force = true,
            "--out" => match args.next() {
                Some(path) => opts.out = Some(path),
                None => {
                    eprintln!("--out requires a value");
                    return ExitCode::FAILURE;
                }
            },
            "--registry" => match args.next() {
                Some(path) => opts.registry = Some(path),
                None => {
                    eprintln!("--registry requires a value");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: net_chaos_baseline [--ci] [--out BENCH_net_chaos.json] \
                     [--registry PATH] [--force]"
                );
                return ExitCode::FAILURE;
            }
        }
    }
    if opts.out.is_none() && !opts.ci {
        opts.out = Some(String::from("BENCH_net_chaos.json"));
    }
    match run(&opts, started) {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("net_chaos_baseline: {err}");
            ExitCode::FAILURE
        }
    }
}
