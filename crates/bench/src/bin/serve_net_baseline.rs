//! Regenerates `BENCH_serve_net.json` — the committed measurement of the
//! `iba-serve` TCP front end: sustained admissions per second and the
//! exact admission-latency distribution (submit → `Accepted` on the wire)
//! under an open-loop windowed workload, with the `/metrics` scrape plane
//! exercised mid-run.
//!
//! ```text
//! cargo run --release -p iba-bench --bin serve_net_baseline -- \
//!     [--quick] [--requests N] [--out BENCH_serve_net.json]
//! ```
//!
//! The default mode is **in-process**: the tool spawns a server thread
//! running [`iba_serve::run_net_loop`] on a loopback listener, drives it
//! from a client socket on this thread, and writes the baseline JSON.
//!
//! With `--connect ADDR` the tool instead drives an **external** server
//! (e.g. `serve_demo --listen ADDR`) — used by the CI net-smoke job. In
//! this mode it additionally scrapes `GET /metrics` twice, fails unless
//! both expositions parse strictly, the pool and connection gauges are
//! present, and the frame counter advanced between the scrapes (the
//! scrape plane is live, not a stale snapshot). No file is written unless
//! `--out` is given explicitly.
//!
//! Latencies are recorded in whole microseconds in an exact dense
//! [`Histogram`], so the reported p999 is the true order statistic of the
//! run, not an approximation.

use std::fmt::Write as _;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use iba_core::CappedConfig;
use iba_serve::proto::MAGIC;
use iba_serve::{
    run_net_loop, CappedService, Frame, FrameDecoder, NetFrontend, NetLoopOptions, ServiceConfig,
};
use iba_sim::stats::Histogram;

/// Server cell for the in-process mode: n bins, FIFO capacity c. λ is
/// irrelevant (the service runs without model arrivals; every ball
/// arrives over the wire).
const N: usize = 1024;
const C: u32 = 2;
const SHARDS: usize = 4;
const SEED: u64 = 20210705; // matches the other committed baselines
/// Wall-clock spacing of service rounds in the in-process server.
const ROUND_INTERVAL: Duration = Duration::from_micros(200);
/// Maximum admissions in flight before the driver pauses submissions —
/// the open-loop window.
const WINDOW: usize = 1024;
/// Requests per submission batch (one `write_all` syscall).
const BATCH: u64 = 64;

struct Options {
    quick: bool,
    requests: u64,
    connect: Option<String>,
    out: Option<String>,
    registry: Option<String>,
    force: bool,
}

/// One driver run's results.
struct RunStats {
    requests: u64,
    accepted: u64,
    saturated: u64,
    completions: u64,
    wall: Duration,
    /// Admission latency (batch write → `Accepted` decoded), microseconds.
    latency_us: Histogram,
}

impl RunStats {
    fn accepted_per_sec(&self) -> f64 {
        self.accepted as f64 / self.wall.as_secs_f64()
    }
}

/// Drives `addr` with `total` ticketed requests through a bounded window,
/// interleaving batch writes with reads on one thread so every `Accepted`
/// timestamp is taken on the same clock that stamped the send.
fn drive(addr: SocketAddr, total: u64) -> Result<RunStats, String> {
    let mut client = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    client.set_nodelay(true).map_err(|e| e.to_string())?;
    client
        .set_read_timeout(Some(Duration::from_millis(1)))
        .map_err(|e| e.to_string())?;
    client
        .write_all(&MAGIC)
        .map_err(|e| format!("preface: {e}"))?;

    let mut decoder = FrameDecoder::new();
    let mut latency_us = Histogram::new();
    // Send instant per req_id; req_ids are dense from 0 so a Vec indexed
    // by id is the exact map.
    let mut sent_at: Vec<Instant> = Vec::with_capacity(total as usize);
    let mut accepted = 0u64;
    let mut saturated = 0u64;
    let mut completions = 0u64;
    let mut next_req = 0u64;
    let mut buf = [0u8; 16 << 10];
    let mut wire = Vec::with_capacity((BATCH as usize) * 13);
    let start = Instant::now();
    let deadline = start + Duration::from_secs(120);

    while accepted + saturated < total {
        if Instant::now() > deadline {
            return Err(format!(
                "driver timed out: {}/{total} replies after {:?}",
                accepted + saturated,
                start.elapsed()
            ));
        }
        // Submit while the window has room.
        let outstanding = next_req - (accepted + saturated);
        if next_req < total && (outstanding as usize) < WINDOW {
            let batch = BATCH.min(total - next_req);
            wire.clear();
            for _ in 0..batch {
                Frame::Alloc { req_id: next_req }.encode_into(&mut wire);
                next_req += 1;
            }
            client
                .write_all(&wire)
                .map_err(|e| format!("submit: {e}"))?;
            let now = Instant::now();
            sent_at.resize(next_req as usize, now);
        }
        // Drain replies.
        match client.read(&mut buf) {
            Ok(0) => return Err("server closed the connection".into()),
            Ok(k) => decoder.push(&buf[..k]),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(e) => return Err(format!("read: {e}")),
        }
        let now = Instant::now();
        loop {
            match decoder.next_frame() {
                Ok(Some(Frame::Accepted { req_id, .. })) => {
                    accepted += 1;
                    let sent = sent_at[req_id as usize];
                    latency_us.record(now.duration_since(sent).as_micros() as u64);
                }
                Ok(Some(Frame::Saturated { .. })) => saturated += 1,
                Ok(Some(Frame::Completed { .. })) => completions += 1,
                Ok(Some(other)) => return Err(format!("unexpected frame {other:?}")),
                Ok(None) => break,
                Err(e) => return Err(format!("protocol error from server: {e}")),
            }
        }
    }
    let wall = start.elapsed();
    // Linger briefly to collect completion notifications still streaming.
    let linger = Instant::now() + Duration::from_millis(200);
    while Instant::now() < linger {
        match client.read(&mut buf) {
            Ok(0) => break,
            Ok(k) => decoder.push(&buf[..k]),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(e) => return Err(format!("read: {e}")),
        }
        while let Ok(Some(frame)) = decoder.next_frame() {
            if matches!(frame, Frame::Completed { .. }) {
                completions += 1;
            }
        }
    }
    Ok(RunStats {
        requests: total,
        accepted,
        saturated,
        completions,
        wall,
        latency_us,
    })
}

/// Scrapes `GET /metrics` from `addr` and returns the strictly parsed
/// exposition.
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

/// Asserts the scrape plane invariants the CI job relies on: strict parse
/// (done by [`scrape`]), gauges present, counters advancing.
fn check_scrapes(
    first: &iba_obs::expo::Exposition,
    second: &iba_obs::expo::Exposition,
) -> Result<(), String> {
    for (expo, which) in [(first, "first"), (second, "second")] {
        for gauge in ["iba_serve_pool_size", "iba_serve_net_connections"] {
            if expo.families.get(gauge).map(String::as_str) != Some("gauge") {
                return Err(format!("{which} scrape: `{gauge}` gauge missing"));
            }
            if expo.value(gauge).is_none() {
                return Err(format!("{which} scrape: `{gauge}` has no sample"));
            }
        }
        if expo.value("iba_serve_net_frames_total").is_none() {
            return Err(format!("{which} scrape: frame counter missing"));
        }
    }
    let a = first.value("iba_serve_net_frames_total").unwrap_or(0.0);
    let b = second.value("iba_serve_net_frames_total").unwrap_or(0.0);
    if b <= a {
        return Err(format!(
            "scrape plane looks stale: iba_serve_net_frames_total {a} -> {b} did not advance"
        ));
    }
    Ok(())
}

fn quantile_us(hist: &Histogram, q: f64) -> u64 {
    hist.quantile(q).unwrap_or(0)
}

fn render_json(stats: &RunStats) -> String {
    let h = &stats.latency_us;
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"benchmark\": \"serve_net\",\n");
    out.push_str(
        "  \"description\": \"iba-serve TCP front end under an open-loop windowed workload: \
         one client socket submits length-prefixed allocation requests against the std-only \
         non-blocking event loop (run_net_loop) while service rounds drain the ingress queue. \
         Admission latency is submit (batch write) to Accepted frame decoded, recorded in whole \
         microseconds in an exact dense histogram, so quantiles are true order statistics. \
         GET /metrics is scraped mid-run on the same listener and must parse strictly.\",\n",
    );
    out.push_str(
        "  \"regenerate\": \"cargo run --release -p iba-bench --bin serve_net_baseline -- \
         --out BENCH_serve_net.json\",\n",
    );
    let _ = writeln!(out, "  \"seed\": {SEED},");
    let _ = writeln!(
        out,
        "  \"server\": {{ \"n\": {N}, \"c\": {C}, \"shards\": {SHARDS}, \
         \"round_interval_us\": {}, \"window\": {WINDOW}, \"batch\": {BATCH} }},",
        ROUND_INTERVAL.as_micros()
    );
    let _ = writeln!(out, "  \"requests\": {},", stats.requests);
    let _ = writeln!(out, "  \"accepted\": {},", stats.accepted);
    let _ = writeln!(out, "  \"saturated\": {},", stats.saturated);
    let _ = writeln!(out, "  \"completions_streamed\": {},", stats.completions);
    let _ = writeln!(out, "  \"wall_ms\": {},", stats.wall.as_millis());
    let _ = writeln!(
        out,
        "  \"accepted_per_sec\": {:.0},",
        stats.accepted_per_sec()
    );
    let _ = writeln!(out, "  \"admission_latency_us\": {{");
    let _ = writeln!(out, "    \"mean\": {:.1},", h.mean());
    let _ = writeln!(out, "    \"p50\": {},", quantile_us(h, 0.50));
    let _ = writeln!(out, "    \"p99\": {},", quantile_us(h, 0.99));
    let _ = writeln!(out, "    \"p999\": {},", quantile_us(h, 0.999));
    let _ = writeln!(out, "    \"max\": {}", h.max().unwrap_or(0));
    out.push_str("  }\n}\n");
    out
}

fn report(stats: &RunStats) {
    let h = &stats.latency_us;
    eprintln!(
        "drove {} requests in {:?}: {} accepted ({:.0}/s), {} saturated, {} completions streamed",
        stats.requests,
        stats.wall,
        stats.accepted,
        stats.accepted_per_sec(),
        stats.saturated,
        stats.completions,
    );
    eprintln!(
        "admission latency us: mean {:.1}  p50 {}  p99 {}  p999 {}  max {}",
        h.mean(),
        quantile_us(h, 0.50),
        quantile_us(h, 0.99),
        quantile_us(h, 0.999),
        h.max().unwrap_or(0),
    );
}

/// Stamps the rendered JSON with provenance, writes it to `--out` (when
/// given) through the config-hash overwrite guard, and appends the run
/// to `--registry` (when given).
fn emit(
    opts: &Options,
    json: &str,
    kernel: Option<(&str, usize)>,
    started: Instant,
) -> Result<String, String> {
    match opts.out.as_deref() {
        Some(path) => iba_bench::prov::finalize(
            "serve_net",
            json,
            std::path::Path::new(path),
            opts.registry.as_deref().map(std::path::Path::new),
            opts.force,
            kernel,
            started.elapsed().as_secs_f64() * 1e3,
        ),
        None => Ok(json.to_string()),
    }
}

/// In-process mode: spawn the server thread, drive it, stop it, write
/// the baseline file.
fn run_in_process(opts: &Options, started: Instant) -> Result<(), String> {
    iba_obs::set_enabled(true);
    let config = CappedConfig::new(N, C, 0.75).map_err(|e| e.to_string())?;
    let mut service = CappedService::spawn(
        ServiceConfig::new(config, SHARDS, SEED).with_ingress_capacity(1 << 16),
    )
    .map_err(|e| e.to_string())?;
    let kernel = (service.kernel_mode().name(), service.shards());
    let completions = service.take_completions().expect("fresh service");
    let frontend = NetFrontend::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = frontend.local_addr();
    let stop = Arc::new(AtomicBool::new(false));
    let server = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut service = service;
            let mut frontend = frontend;
            let summary = run_net_loop(
                &mut service,
                &mut frontend,
                &completions,
                &NetLoopOptions {
                    round_interval: ROUND_INTERVAL,
                    ..NetLoopOptions::default()
                },
                &stop,
            );
            (summary, frontend.stats(), service.conserves_balls())
        })
    };
    eprintln!("in-process server listening on {addr}");

    let first = scrape(addr)?;
    let stats = drive(addr, opts.requests)?;
    let second = scrape(addr)?;
    stop.store(true, Ordering::Relaxed);
    let (summary, net, conserved) = server.join().map_err(|_| "server thread panicked")?;
    check_scrapes(&first, &second)?;
    if !conserved {
        return Err("service lost balls during the run".into());
    }
    if stats.accepted != net.allocs_accepted {
        return Err(format!(
            "driver saw {} admissions but the server counted {}",
            stats.accepted, net.allocs_accepted
        ));
    }
    eprintln!(
        "server ran {} rounds, streamed {} completions; scrape plane live across 2 scrapes",
        summary.rounds_run, summary.completions_delivered
    );
    report(&stats);

    let json = render_json(&stats);
    let json = emit(opts, &json, Some(kernel), started)?;
    println!("{json}");
    Ok(())
}

/// `--connect` mode: drive an already-running server (CI net-smoke). The
/// external server's kernel configuration is not observable from here,
/// so the provenance block carries no kernel field.
fn run_connect(opts: &Options, addr_str: &str, started: Instant) -> Result<(), String> {
    let addr: SocketAddr = addr_str
        .parse()
        .map_err(|e| format!("bad --connect address {addr_str}: {e}"))?;
    let first = scrape(addr)?;
    let stats = drive(addr, opts.requests)?;
    let second = scrape(addr)?;
    check_scrapes(&first, &second)?;
    if stats.accepted == 0 {
        return Err("no request was admitted".into());
    }
    eprintln!("scrape plane live across 2 scrapes; strict parse ok");
    report(&stats);
    let json = render_json(&stats);
    emit(opts, &json, None, started)?;
    Ok(())
}

fn main() -> ExitCode {
    let started = Instant::now();
    let mut opts = Options {
        quick: false,
        requests: 0,
        connect: None,
        out: None,
        registry: None,
        force: false,
    };
    let mut requests_set = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value_for = |flag: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        let result = match arg.as_str() {
            "--quick" => {
                opts.quick = true;
                Ok(())
            }
            "--requests" => value_for("--requests").and_then(|v| {
                requests_set = true;
                v.parse::<u64>()
                    .map(|n| opts.requests = n)
                    .map_err(|e| format!("bad --requests: {e}"))
            }),
            "--connect" => value_for("--connect").map(|v| opts.connect = Some(v)),
            "--out" => value_for("--out").map(|v| opts.out = Some(v)),
            "--registry" => value_for("--registry").map(|v| opts.registry = Some(v)),
            "--force" => {
                opts.force = true;
                Ok(())
            }
            other => Err(format!("unknown argument: {other}")),
        };
        if let Err(err) = result {
            eprintln!("{err}");
            eprintln!(
                "usage: serve_net_baseline [--quick] [--requests N] [--connect ADDR] \
                 [--out BENCH_serve_net.json] [--registry PATH] [--force]"
            );
            return ExitCode::FAILURE;
        }
    }
    if !requests_set {
        opts.requests = match (opts.quick, opts.connect.is_some()) {
            (true, _) => 5_000,
            (false, true) => 5_000, // CI smoke default: a few thousand
            (false, false) => 200_000,
        };
    }
    if opts.out.is_none() && opts.connect.is_none() {
        opts.out = Some(String::from("BENCH_serve_net.json"));
    }

    let outcome = match opts.connect.clone() {
        Some(addr) => run_connect(&opts, &addr, started),
        None => run_in_process(&opts, started),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("serve_net_baseline: {err}");
            ExitCode::FAILURE
        }
    }
}
