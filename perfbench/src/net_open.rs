//! `net_open`: the TCP request path under an open-loop offered load.
//!
//! A `NetFrontend` and `CappedService` (n = 2^12, c = 2, one shard, central
//! RNG) run on a server thread through `run_net_loop`, one round per call
//! with no pacing and no idle sleep, so every round is timed from outside.
//! One client connection on the bench thread sends `Alloc` frames on a
//! busy-waited schedule at `--net-rate` requests per second, in small
//! batches, and times each request from when it was due: to its `Accepted`
//! frame (admission) and to its `Completed` frame (completion).

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use iba_serve::proto::MAGIC;
use iba_serve::{
    run_net_loop, CappedService, Completion, Frame, FrameDecoder, NetFrontend, NetLoopOptions,
    NetStats, RngMode, ServiceConfig,
};

use crate::cell::{nanos, pin_current_thread, ratio, sub_seed, Cell, Telemetry};
use crate::report::{Outcome, RECONCILE_TOLERANCE};
use crate::stats::{median, LogHist, Windowed};
use crate::trace::{totals_by_name, Tracer, ROOT};
use crate::Opts;

const SETUPS: usize = 3;
/// Requests the set-up pushes through the whole path, closed-loop.
const WARM_REQUESTS: u64 = 60_000;
/// Outstanding requests of the closed-loop warm-up.
const WARM_WINDOW: u64 = 64;
/// Largest batch of due requests written at once.
const MAX_BATCH: u64 = 16;
/// How long the run waits for owed completions after the timed phase.
const SETTLE: Duration = Duration::from_secs(10);
const SPAN_CAP: usize = 1 << 20;
/// Requests (and tickets) tracked at once: a request still unanswered
/// when its slot comes round again, 2.6 s later at 400k requests/s, fails
/// the run.
const RING: usize = 1 << 20;

fn cell(tiny: bool) -> Cell {
    Cell {
        n: if tiny { 1 << 8 } else { 1 << 12 },
        c: 2,
        lambda: 15.0 / 16.0,
    }
}

/// Flags the bench thread flips to steer the server thread.
#[derive(Debug, Default)]
struct Control {
    stop: AtomicBool,
    measure: AtomicBool,
    trace: AtomicBool,
}

/// What the server thread measured.
#[derive(Debug)]
struct Meter {
    rounds: Windowed,
    traced_rounds: LogHist,
    thrown: u64,
    busy_ns: u64,
    tracer: Tracer,
    polls: u64,
    idle_polls: u64,
    notified: u64,
}

/// The server thread's state, handed back when it stops.
struct Server {
    svc: CappedService,
    frontend: NetFrontend,
    meter: Meter,
}

fn serve(
    mut svc: CappedService,
    mut frontend: NetFrontend,
    completions: Receiver<Completion>,
    ctl: &Control,
    epoch: Instant,
) -> Server {
    let opts = NetLoopOptions {
        max_rounds: 1,
        round_interval: Duration::ZERO,
        idle_sleep: Duration::ZERO,
        drain_on_stop: false,
        max_drain_rounds: 0,
    };
    let never = AtomicBool::new(false);
    let dispatcher = svc.dispatcher();
    let mut m = Meter {
        rounds: Windowed::new(),
        traced_rounds: LogHist::new(),
        thrown: 0,
        busy_ns: 0,
        tracer: Tracer::new(epoch, SPAN_CAP),
        polls: 0,
        idle_polls: 0,
        notified: 0,
    };
    while !ctl.stop.load(Ordering::SeqCst) {
        let measuring = ctl.measure.load(Ordering::SeqCst);
        let traced = ctl.trace.load(Ordering::SeqCst) && !m.tracer.full();
        let pool = svc.pool_size() as u64;
        let generated = svc.total_generated();
        let t0 = Instant::now();
        if traced {
            // The calls run_net_loop makes for one zero-interval round.
            let id = svc.round() + 1;
            let t = &mut m.tracer;
            let root = t.open("round", id, ROOT);
            frontend.on_round(id);
            let poll = t.open("net.poll", id, root);
            let activity = frontend.poll(&dispatcher);
            t.close(poll);
            let run = t.open("service.round", id, root);
            svc.run_round();
            for ticket in svc.drain_expired_tickets() {
                frontend.forget_ticket(ticket);
            }
            t.close(run);
            let notify = t.open("net.notify", id, root);
            while let Ok(c) = completions.try_recv() {
                frontend.notify(&c);
                m.notified += 1;
            }
            t.close(notify);
            let poll = t.open("net.poll", id, root);
            let flushed = frontend.poll(&dispatcher);
            t.close(poll);
            t.close(root);
            m.polls += 2;
            m.idle_polls += u64::from(activity == 0) + u64::from(flushed == 0);
        } else {
            run_net_loop(&mut svc, &mut frontend, &completions, &opts, &never);
        }
        let elapsed = nanos(t0.elapsed());
        if measuring {
            if traced {
                m.traced_rounds.record(elapsed);
            } else {
                m.rounds.record(nanos(t0 - epoch), elapsed);
            }
            m.thrown += pool + (svc.total_generated() - generated);
            m.busy_ns += elapsed;
        }
    }
    Server {
        svc,
        frontend,
        meter: m,
    }
}

/// Per-request progress on the client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Sent,
    Accepted,
    Completed,
    Refused,
}

/// The client connection and its ledger.
struct Client {
    stream: TcpStream,
    decoder: FrameDecoder,
    out: Vec<u8>,
    written: usize,
    buf: Vec<u8>,
    /// Requests sent so far; request ids count up from 0.
    sent: u64,
    /// Due time (ns since `epoch`) and state of request `r` at `r % RING`.
    due: Vec<u64>,
    state: Vec<State>,
    /// `req_of[ticket % RING]` = request id + 1 (0 when free).
    req_of: Vec<u64>,
    accepted: u64,
    completed: u64,
    refused: u64,
    errors: u64,
    bytes_out: u64,
    bytes_in: u64,
    epoch: Instant,
    measuring: Option<(u64, u64)>,
    admit: LogHist,
    complete: Windowed,
    window_completed: u64,
    /// When the last completion inside the measuring window arrived.
    window_last: u64,
    tracer: Option<Tracer>,
    frames_encoded: u64,
    frames_decoded: u64,
}

impl Client {
    fn connect(addr: std::net::SocketAddr, epoch: Instant) -> std::io::Result<Client> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.write_all(&MAGIC)?;
        stream.set_nonblocking(true)?;
        Ok(Client {
            stream,
            decoder: FrameDecoder::new(),
            out: Vec::new(),
            written: 0,
            buf: vec![0; 64 << 10],
            sent: 0,
            due: vec![0; RING],
            state: vec![State::Completed; RING],
            req_of: vec![0; RING],
            accepted: 0,
            completed: 0,
            refused: 0,
            errors: 0,
            bytes_out: 4,
            bytes_in: 0,
            epoch,
            measuring: None,
            admit: LogHist::new(),
            complete: Windowed::new(),
            window_completed: 0,
            window_last: 0,
            tracer: None,
            frames_encoded: 0,
            frames_decoded: 0,
        })
    }

    fn now(&self) -> u64 {
        nanos(self.epoch.elapsed())
    }

    /// The clock, when this client is tracing and has room for spans.
    fn trace_now(&self) -> Option<u64> {
        self.tracer
            .as_ref()
            .filter(|t| !t.full())
            .map(|_| self.now())
    }

    /// Encodes `count` new requests due at `due(req)` and writes what the
    /// socket takes.
    fn send(&mut self, count: u64, due: impl Fn(u64) -> u64) -> std::io::Result<()> {
        let start = self.trace_now();
        let first = self.sent;
        for req in first..first + count {
            Frame::Alloc { req_id: req }.encode_into(&mut self.out);
            let slot = req as usize % RING;
            if matches!(self.state[slot], State::Sent | State::Accepted) {
                self.errors += 1; // the request that held the slot never finished
            }
            self.due[slot] = due(req);
            self.state[slot] = State::Sent;
        }
        self.sent += count;
        let encoded = self.now();
        self.flush()?;
        if let Some(start) = start {
            let end = self.now();
            let t = self.tracer.as_mut().expect("tracing");
            let root = t.record("client.send", first, ROOT, start, end);
            t.record("proto.encode", first, root, start, encoded);
            t.record("client.write", first, root, encoded, end);
            self.frames_encoded += count;
        }
        Ok(())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        while self.written < self.out.len() {
            match self.stream.write(&self.out[self.written..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(k) => {
                    self.written += k;
                    self.bytes_out += k as u64;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.written == self.out.len() {
            self.out.clear();
            self.written = 0;
        }
        Ok(())
    }

    /// One non-blocking read plus the frames it completes.
    fn receive(&mut self) -> std::io::Result<()> {
        self.flush()?;
        let start = self.trace_now();
        let k = match self.stream.read(&mut self.buf) {
            Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
            Ok(k) => k,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::Interrupted => {
                return Ok(())
            }
            Err(e) => return Err(e),
        };
        let read = self.now();
        self.bytes_in += k as u64;
        self.decoder.push(&self.buf[..k]);
        let mut frames = 0;
        loop {
            let frame = match self.decoder.next_frame() {
                Ok(Some(f)) => f,
                Ok(None) => break,
                Err(_) => {
                    self.errors += 1;
                    return Err(ErrorKind::InvalidData.into());
                }
            };
            self.on_frame(frame, read);
            frames += 1;
        }
        if let Some(start) = start {
            let end = self.now();
            let t = self.tracer.as_mut().expect("tracing");
            let root = t.record("client.read", 0, ROOT, start, end);
            t.record("proto.decode", 0, root, read, end);
            self.frames_decoded += frames;
        }
        Ok(())
    }

    fn in_window(&self, due: u64) -> bool {
        self.measuring
            .is_some_and(|(from, to)| (from..to).contains(&due))
    }

    fn on_frame(&mut self, frame: Frame, at: u64) {
        match frame {
            Frame::Accepted { req_id, ticket } => {
                let req = req_id as usize % RING;
                let ticket_slot = ticket as usize % RING;
                if req_id >= self.sent
                    || self.state[req] != State::Sent
                    || self.req_of[ticket_slot] != 0
                {
                    self.errors += 1;
                    return;
                }
                self.state[req] = State::Accepted;
                self.accepted += 1;
                self.req_of[ticket_slot] = req_id + 1;
                if self.in_window(self.due[req]) {
                    self.admit.record(at.saturating_sub(self.due[req]));
                }
            }
            Frame::Completed { ticket, .. } => {
                let ticket_slot = ticket as usize % RING;
                let req = match self.req_of[ticket_slot] {
                    0 => None,
                    r => Some((r - 1) as usize % RING),
                };
                let Some(req) = req.filter(|&r| self.state[r] == State::Accepted) else {
                    self.errors += 1;
                    return;
                };
                self.req_of[ticket_slot] = 0;
                self.state[req] = State::Completed;
                self.completed += 1;
                if self.in_window(self.due[req]) {
                    self.complete.record(at, at.saturating_sub(self.due[req]));
                }
                if self
                    .measuring
                    .is_some_and(|(from, to)| (from..to).contains(&at))
                {
                    self.window_completed += 1;
                    self.window_last = at;
                }
            }
            Frame::Saturated { req_id } | Frame::Closed { req_id, .. } => {
                match &mut self.state[req_id as usize % RING] {
                    s @ State::Sent if req_id < self.sent => *s = State::Refused,
                    _ => self.errors += 1,
                }
                self.refused += 1;
            }
            Frame::Alloc { .. } => self.errors += 1,
        }
    }

    /// Requests accepted but not yet completed.
    fn owed(&self) -> u64 {
        self.accepted - self.completed
    }

    /// Requests sent and not yet answered.
    fn unanswered(&self) -> u64 {
        self.sent - self.accepted - self.refused
    }

    /// Closed loop: `total` requests with at most `window` unanswered or
    /// owed, until every one completed or `deadline` passes.
    fn closed_loop(&mut self, total: u64, window: u64, deadline: Instant) -> std::io::Result<()> {
        let target = self.sent + total;
        let mut sent = 0;
        while (sent < total || self.owed() + self.unanswered() > 0) && Instant::now() < deadline {
            if sent < total && self.owed() + self.unanswered() < window {
                let now = self.now();
                self.send(1, |_| now)?;
                sent += 1;
            }
            self.receive()?;
        }
        if self.sent != target || self.owed() + self.unanswered() > 0 {
            return Err(std::io::Error::new(
                ErrorKind::TimedOut,
                "closed loop did not finish",
            ));
        }
        Ok(())
    }
}

/// A running server thread plus its client.
struct Instance {
    client: Client,
    ctl: Arc<Control>,
    server: JoinHandle<Option<Server>>,
}

/// Starts the server thread (service + front end), connects the client
/// and pushes `warm` requests through the whole path. With `pin`, the
/// server thread and the shard worker it spawns share CPU 0 and the client
/// keeps CPU 1, so a waking worker never queues behind the spinning
/// client.
fn start(
    cell: &Cell,
    seed: u64,
    warm: u64,
    epoch: Instant,
    pin: bool,
) -> std::io::Result<Instance> {
    let config = ServiceConfig::new(cell.config(), 1, seed)
        .with_rng_mode(RngMode::Central)
        .with_model_arrivals(false);
    let ctl = Arc::new(Control::default());
    let server_ctl = Arc::clone(&ctl);
    let (addr_tx, addr_rx) = std::sync::mpsc::channel();
    let server = std::thread::Builder::new()
        .name("net-server".into())
        .spawn(move || {
            if pin {
                pin_current_thread(0);
            }
            let made = CappedService::spawn(config)
                .map_err(|e| std::io::Error::other(e.to_string()))
                .and_then(|svc| Ok((svc, NetFrontend::bind("127.0.0.1:0")?)));
            match made {
                Ok((mut svc, frontend)) => {
                    let completions = svc
                        .take_completions()
                        .expect("a fresh service has its receiver");
                    let _ = addr_tx.send(Ok(frontend.local_addr()));
                    Some(serve(svc, frontend, completions, &server_ctl, epoch))
                }
                Err(e) => {
                    let _ = addr_tx.send(Err(e));
                    None
                }
            }
        })?;
    let addr = match addr_rx.recv() {
        Ok(Ok(addr)) => addr,
        Ok(Err(e)) => {
            let _ = server.join();
            return Err(e);
        }
        Err(_) => {
            let _ = server.join();
            return Err(std::io::Error::other("the server thread died"));
        }
    };
    if pin {
        pin_current_thread(1);
    }
    let mut inst = Instance {
        client: Client::connect(addr, epoch)?,
        ctl,
        server,
    };
    inst.client
        .closed_loop(warm, WARM_WINDOW, Instant::now() + SETTLE)?;
    Ok(inst)
}

impl Instance {
    fn stop(self) -> (Client, Server) {
        self.ctl.stop.store(true, Ordering::SeqCst);
        let mut server = self
            .server
            .join()
            .expect("the server thread does not panic")
            .expect("a started server returns its state");
        server.svc.shutdown();
        (self.client, server)
    }
}

/// Offered load for `seconds`: requests due every `1/rate` s, sent in
/// batches of whatever is due (at most `MAX_BATCH`). Returns the batches'
/// lateness, ns.
fn open_loop(client: &mut Client, rate: f64, seconds: f64) -> std::io::Result<LogHist> {
    let period = 1e9 / rate;
    let start = client.now();
    let end = start + (seconds * 1e9) as u64;
    let first = client.sent;
    client.measuring = Some((start, end));
    let due = move |req: u64| start + ((req - first) as f64 * period) as u64;
    let mut late = LogHist::new();
    let mut next = first;
    loop {
        let now = client.now();
        if now >= end {
            break;
        }
        let first_due = due(next);
        if first_due <= now {
            let mut count = 1;
            while count < MAX_BATCH && due(next + count) <= now && due(next + count) < end {
                count += 1;
            }
            late.record(now - first_due);
            client.send(count, due)?;
            next += count;
        }
        client.receive()?;
    }
    Ok(late)
}

pub fn run(opts: &Opts) -> Outcome {
    let cell = cell(opts.tiny);
    let mut out = Outcome::default();
    for (k, v) in cell.params() {
        out.param(k, v);
    }
    out.param("shards", 1);
    out.param("rng_mode", "central");
    out.param("offered_rate_per_s", opts.net_rate);
    out.param("max_batch", MAX_BATCH);
    match run_checked(opts, &cell, &mut out) {
        Ok(()) => {}
        Err(e) => out.check("request path", false, e.to_string()),
    }
    out
}

fn run_checked(opts: &Opts, cell: &Cell, out: &mut Outcome) -> std::io::Result<()> {
    let epoch = Instant::now();
    let warm = if opts.tiny { 500 } else { WARM_REQUESTS };
    let setups = if opts.tiny { 1 } else { SETUPS };
    let pin = std::thread::available_parallelism().is_ok_and(|p| p.get() >= 2);
    out.param("pinned", pin);
    let mut times = Vec::new();
    let mut last: Option<Instance> = None;
    for i in 0..setups {
        if let Some(old) = last.take() {
            old.stop();
        }
        let t = Instant::now();
        let inst = start(cell, sub_seed(opts.seed, i as u64), warm, epoch, pin)?;
        times.push(t.elapsed().as_secs_f64());
        last = Some(inst);
    }
    let mut inst = last.expect("at least one set-up");
    out.metric("setup_s", median(&times), setups as u64);
    out.metric("burnin.rounds", warm as f64, 1);

    let seconds = if opts.traced {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    inst.ctl.measure.store(true, Ordering::SeqCst);
    open_loop(&mut inst.client, opts.net_rate, seconds)?;
    inst.ctl.measure.store(false, Ordering::SeqCst);
    let c = &inst.client;
    out.timing("complete_us_p50", &c.complete, 0.5);
    out.timing("complete_us_p90", &c.complete, 0.9);
    out.timing("complete_us_p99", &c.complete, 0.99);
    let window = c
        .window_last
        .saturating_sub(c.measuring.map_or(0, |(from, _)| from));
    out.metric(
        "completed_per_s",
        ratio(c.window_completed as f64, window as f64 / 1e9),
        c.window_completed,
    );

    let traced = if opts.traced {
        let client = &mut inst.client;
        client.admit = LogHist::new();
        client.complete = Windowed::new();
        client.tracer = Some(Tracer::new(epoch, SPAN_CAP));
        let (out_before, in_before, sent_before) = (client.bytes_out, client.bytes_in, client.sent);
        Telemetry::start();
        inst.ctl.trace.store(true, Ordering::SeqCst);
        inst.ctl.measure.store(true, Ordering::SeqCst);
        let late = open_loop(client, opts.net_rate, seconds)?;
        inst.ctl.measure.store(false, Ordering::SeqCst);
        inst.ctl.trace.store(false, Ordering::SeqCst);
        let tel = Telemetry::stop();
        let requests = (client.sent - sent_before) as f64;
        let bytes = (client.bytes_out - out_before + client.bytes_in - in_before) as f64;
        Some((late, ratio(bytes, requests), tel))
    } else {
        None
    };

    // Collect every owed completion, then stop the server.
    let settle = Instant::now() + SETTLE;
    while inst.client.owed() + inst.client.unanswered() > 0 && Instant::now() < settle {
        inst.client.receive()?;
    }
    let (client, server) = inst.stop();
    let stats: NetStats = server.frontend.stats();
    out.attempted = client.sent;
    out.failed = client.refused + client.owed() + client.unanswered();
    out.check(
        "every accept completes once",
        client.errors == 0 && client.owed() == 0 && client.unanswered() == 0,
        format!(
            "{} sent, {} accepted, {} completed, {} refused, {} protocol errors",
            client.sent, client.accepted, client.completed, client.refused, client.errors
        ),
    );
    out.check(
        "admissions match the front end",
        stats.allocs_accepted == client.accepted && stats.completions_sent == client.completed,
        format!(
            "client {} / frontend {} accepted, client {} / frontend {} completed",
            client.accepted, stats.allocs_accepted, client.completed, stats.completions_sent
        ),
    );
    out.check(
        "conservation",
        server.svc.conserves_balls(),
        "generated = served + pool + buffered",
    );
    let m = &server.meter;
    let busy = m.busy_ns as f64 / 1e9;
    out.metric(
        "balls_per_s",
        ratio(m.thrown as f64, busy),
        m.rounds.all().count() + m.traced_rounds.count(),
    );
    out.timing("round_us_p50", &m.rounds, 0.5);
    out.timing("round_us_p99", &m.rounds, 0.99);

    if let Some((late, bytes_per_request, tel)) = traced {
        let mut tracer = Tracer::new(epoch, 0);
        tracer.absorb(client.tracer.expect("installed for the traced segment"));
        let Server { meter, .. } = server;
        tracer.absorb(meter.tracer);
        let totals = totals_by_name(tracer.spans());
        let span = |name: &str| totals.get(name).copied().unwrap_or_default();
        out.metric(
            "net.admit_us_p50",
            client.admit.quantile(0.5) / 1e3,
            client.admit.count(),
        );
        out.metric(
            "net.admit_us_p99",
            client.admit.quantile(0.99) / 1e3,
            client.admit.count(),
        );
        out.metric("gen.late_us_p99", late.quantile(0.99) / 1e3, late.count());
        out.metric("proto.bytes_per_request", bytes_per_request, client.sent);
        out.metric(
            "proto.encode_ns_per_frame",
            ratio(
                span("proto.encode").total_ns as f64,
                client.frames_encoded as f64,
            ),
            client.frames_encoded,
        );
        out.metric(
            "proto.decode_ns_per_frame",
            ratio(
                span("proto.decode").total_ns as f64,
                client.frames_decoded as f64,
            ),
            client.frames_decoded,
        );
        out.metric(
            "client.write_ns_per_batch",
            span("client.write").mean_ns(),
            span("client.write").count,
        );
        out.metric(
            "client.read_ns_per_call",
            span("client.read").mean_ns(),
            span("client.read").count,
        );
        out.metric(
            "net.poll_ns",
            span("net.poll").mean_ns(),
            span("net.poll").count,
        );
        out.metric(
            "net.polls_per_round",
            ratio(meter.polls as f64, span("round").count as f64),
            span("round").count,
        );
        out.metric(
            "net.idle_poll_share",
            ratio(meter.idle_polls as f64, meter.polls as f64),
            meter.polls,
        );
        out.metric(
            "net.notify_ns_per_completion",
            ratio(span("net.notify").total_ns as f64, meter.notified as f64),
            meter.notified,
        );
        out.metric(
            "service.round_ns",
            span("service.round").mean_ns(),
            span("service.round").count,
        );
        let (shard_rounds, _) = tel.hist("iba_serve_shard_round_nanos");
        out.metric(
            "service.route_ns",
            tel.hist_mean("iba_serve_phase_route_nanos"),
            shard_rounds,
        );
        out.metric(
            "service.merge_ns",
            tel.hist_mean("iba_serve_phase_merge_nanos"),
            shard_rounds,
        );
        out.metric(
            "shard.round_ns",
            tel.hist_mean("iba_serve_shard_round_nanos"),
            shard_rounds,
        );
        out.metric(
            "trace.overhead_share",
            ratio(meter.traced_rounds.mean(), meter.rounds.all().mean()) - 1.0,
            meter.traced_rounds.count(),
        );
        out.metric(
            "failed_share",
            ratio(out.failed as f64, out.attempted as f64),
            out.attempted,
        );
        // The server round path: polls, the service round, notification.
        let wall = span("round").total_ns as f64;
        let covered = (span("net.poll").total_ns
            + span("service.round").total_ns
            + span("net.notify").total_ns) as f64;
        let residual = 1.0 - ratio(covered, wall);
        out.metric("reconcile.residual_share", residual, span("round").count);
        out.check(
            "trace reconciliation",
            residual.abs() <= RECONCILE_TOLERANCE,
            format!("residual {residual:.4} within {RECONCILE_TOLERANCE}"),
        );
        let path = opts
            .trace_dir
            .join(format!("net_open-seed{}.tsv", opts.seed));
        if let Err(e) = tracer.write_tsv(&path) {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
    }
    Ok(())
}
