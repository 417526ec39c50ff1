//! The std-only, non-blocking TCP front end: wire-protocol ingress and
//! the `GET /metrics` scrape plane on one listener.
//!
//! No async runtime and no `libc`/epoll — a [`NetFrontend`] is a
//! hand-rolled poll loop over non-blocking `std::net` sockets: every
//! [`poll`](NetFrontend::poll) tick accepts pending connections, reads
//! whatever bytes are available, decodes and handles frames, and flushes
//! queued replies, never blocking the round driver. The driver thread
//! interleaves `poll` with [`CappedService::run_round`] (see
//! [`run_net_loop`]), so network ingress rides the same round clock as
//! the allocation process itself.
//!
//! # Connection kinds
//!
//! The listener sniffs the first 4 bytes of every connection:
//!
//! - [`proto::MAGIC`] (`b"IBA1"`) — a wire-protocol client. Each
//!   [`Frame::Alloc`] is submitted through the service's bounded
//!   [`Dispatcher`]; the reply is [`Frame::Accepted`] with a ticket, or
//!   [`Frame::Saturated`] when the ingress queue is full — **explicit
//!   backpressure**: the request is shed with a bounded amount of
//!   buffering instead of queueing unboundedly. When a ticket's ball is
//!   later served, the front end streams a [`Frame::Completed`] (ticket,
//!   bin, waiting time) back to the submitting connection.
//! - `GET ` — an HTTP scraper. `GET /metrics` answers with the
//!   [`iba_obs`] Prometheus exposition of the global registry
//!   (mid-run — this is what makes long-running instances scrapeable);
//!   any other path gets a 404. The response carries
//!   `Connection: close`.
//! - anything else is a protocol violation and the connection is
//!   dropped.
//!
//! Slow consumers are bounded too: a connection whose outbound queue
//! exceeds [`MAX_OUT_QUEUE`] bytes is dropped rather than buffered
//! without limit (with a best-effort [`CloseReason::SlowConsumer`] frame
//! on the way out).
//!
//! # Drain
//!
//! The bounded ingress queue is the front end's only admission limit.
//! Calling [`NetFrontend::begin_drain`] flips the front end into drain
//! mode: new allocations are refused with [`CloseReason::Drain`] while
//! in-flight completions keep flushing, and [`NetFrontend::drained`]
//! reports when everything owed has been delivered.
//!
//! # Chaos injection
//!
//! [`NetFrontend::arm_faults`] installs a round-keyed
//! [`NetFaultPlan`]: connection drops,
//! read/write stalls, partial-write throttling, and mid-stream garbage,
//! with victims drawn from a seeded [`SimRng`] so every chaos run is
//! reproducible. Faults only ever touch wire connections — the metrics
//! plane stays observable while the system burns.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Receiver;
use std::time::{Duration, Instant};

use iba_sim::SimRng;

use crate::chaos::{NetFault, NetFaultPlan};
use crate::dispatch::{Completion, Dispatcher, SubmitError};
use crate::obs;
use crate::proto::{self, CloseReason, Frame, FrameDecoder};
use crate::service::CappedService;

/// Maximum bytes queued for write on one connection before it is dropped
/// as a slow consumer.
pub const MAX_OUT_QUEUE: usize = 4 << 20;

/// Maximum bytes of HTTP request head buffered before the connection is
/// dropped as malformed.
const MAX_HTTP_HEAD: usize = 8 << 10;

/// Maximum simultaneously open connections; accepts beyond this are
/// closed immediately.
const MAX_CONNS: usize = 1024;

/// Per-poll read budget per connection, so one firehose peer cannot
/// starve the others or the round clock.
const READS_PER_POLL: usize = 16;

#[derive(Debug)]
enum ConnState {
    /// Waiting for the 4 preface bytes that identify the protocol.
    Sniffing(Vec<u8>),
    /// Wire-protocol client.
    Wire(FrameDecoder),
    /// HTTP scraper: accumulating the request head.
    Http(Vec<u8>),
    /// Reply queued; discard any further input and close once flushed.
    Draining,
}

#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    /// Monotonic connection id — lets completion routing detect that a
    /// slot was reused by a newer connection.
    id: u64,
    state: ConnState,
    outbuf: Vec<u8>,
    out_pos: usize,
    close_after_flush: bool,
    /// Reads are suppressed while the current round is below this
    /// (injected fault; 0 = no stall).
    read_stalled_until: u64,
    /// Writes are suppressed while the current round is below this
    /// (injected fault; 0 = no stall).
    write_stalled_until: u64,
    /// Fault-injected bytes, consumed before socket reads as if the peer
    /// had sent them.
    injected: Vec<u8>,
}

impl Conn {
    fn queued(&self) -> usize {
        self.outbuf.len() - self.out_pos
    }

    fn queue_frame(&mut self, frame: &Frame) -> Result<(), DropReason> {
        frame.encode_into(&mut self.outbuf);
        if self.queued() > MAX_OUT_QUEUE {
            return Err(DropReason::SlowConsumer);
        }
        Ok(())
    }

    fn is_wire(&self) -> bool {
        matches!(self.state, ConnState::Wire(_))
    }
}

/// Why a connection was dropped (drives the error counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DropReason {
    /// Peer closed the connection (not an error).
    Eof,
    /// Close requested after the queued reply flushes (not an error).
    Done,
    Read,
    Write,
    /// Outbound queue exceeded [`MAX_OUT_QUEUE`]; a best-effort typed
    /// close frame is attempted on the way out.
    SlowConsumer,
    Proto,
    /// Dropped by an injected chaos fault (not an error of the stack).
    Fault,
}

/// Armed chaos state: the schedule plus the RNG that picks victims.
#[derive(Debug)]
struct FaultInjector {
    plan: NetFaultPlan,
    rng: SimRng,
    /// Active partial-write throttle: `(last_round_inclusive, max_bytes
    /// per flush per connection)`.
    write_budget: Option<(u64, usize)>,
}

/// A ticket awaiting completion, routed back to the connection that
/// submitted it.
#[derive(Debug, Clone, Copy)]
struct PendingTicket {
    slot: usize,
    conn_id: u64,
}

/// Lifetime counters of one front end (always maintained, independent of
/// the telemetry switch — tests and summaries read these directly).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NetStats {
    /// Connections accepted.
    pub accepted_conns: u64,
    /// Wire frames decoded from clients.
    pub frames: u64,
    /// Allocation requests admitted (ticketed).
    pub allocs_accepted: u64,
    /// Allocation requests shed for ingress backpressure.
    pub allocs_saturated: u64,
    /// Allocation requests refused because the service closed.
    pub allocs_closed: u64,
    /// Completion frames delivered to clients.
    pub completions_sent: u64,
    /// `GET /metrics` scrapes answered.
    pub scrapes: u64,
    /// Connections dropped for protocol violations.
    pub proto_errors: u64,
    /// Allocation requests refused because the front end was draining.
    pub allocs_drained: u64,
    /// Chaos fault events applied to the socket layer.
    pub faults_injected: u64,
    /// Connections dropped by injected faults.
    pub conns_dropped_by_fault: u64,
    /// Connections dropped as slow consumers (outbound queue overflow).
    pub slow_consumer_drops: u64,
}

/// The non-blocking TCP front end. See the [module docs](self).
#[derive(Debug)]
pub struct NetFrontend {
    listener: TcpListener,
    local_addr: SocketAddr,
    conns: Vec<Option<Conn>>,
    tickets: HashMap<u64, PendingTicket>,
    next_conn_id: u64,
    stats: NetStats,
    /// Current service round, advanced by [`on_round`](Self::on_round) —
    /// the clock faults key on.
    round: u64,
    faults: Option<FaultInjector>,
    draining: bool,
}

impl NetFrontend {
    /// Binds `addr` (e.g. `"127.0.0.1:7171"`, port 0 for ephemeral) and
    /// puts the listener into non-blocking mode.
    ///
    /// # Errors
    ///
    /// Any `bind`/`local_addr`/`set_nonblocking` failure.
    pub fn bind(addr: &str) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        Ok(NetFrontend {
            listener,
            local_addr,
            conns: Vec::new(),
            tickets: HashMap::new(),
            next_conn_id: 0,
            stats: NetStats::default(),
            round: 0,
            faults: None,
            draining: false,
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Lifetime counters.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Currently open connections.
    pub fn connections(&self) -> usize {
        self.conns.iter().filter(|c| c.is_some()).count()
    }

    /// Tickets submitted over the network still awaiting completion.
    pub fn pending_tickets(&self) -> usize {
        self.tickets.len()
    }

    /// Arms a socket fault plan. Victim selection draws from a stream
    /// seeded with `seed`, so the same seed + plan + traffic reproduces
    /// the same chaos. Replaces any previously armed plan.
    pub fn arm_faults(&mut self, plan: NetFaultPlan, seed: u64) {
        self.faults = Some(FaultInjector {
            plan,
            rng: SimRng::seed_from(seed),
            write_budget: None,
        });
    }

    /// Enters drain mode: new allocation requests are refused with
    /// [`CloseReason::Drain`], while queued output and in-flight
    /// completions keep flowing. Irreversible for this front end.
    pub fn begin_drain(&mut self) {
        self.draining = true;
    }

    /// Whether [`begin_drain`](Self::begin_drain) was called.
    pub fn is_draining(&self) -> bool {
        self.draining
    }

    /// Whether the front end owes nothing: no ticket is awaiting
    /// completion and every connection's outbound queue is flushed. The
    /// drain loop exits when this turns true.
    pub fn drained(&self) -> bool {
        self.tickets.is_empty() && self.conns.iter().flatten().all(|c| c.queued() == 0)
    }

    /// Forgets a pending ticket (TTL-reaped by the service): its
    /// completion will never arrive, so stop routing for it.
    pub fn forget_ticket(&mut self, id: u64) {
        self.tickets.remove(&id);
    }

    /// Advances the front end's round clock and applies any socket faults
    /// scheduled for `round`.
    /// [`run_net_loop`] calls this once per round, just before the round
    /// executes; drive it manually when polling by hand.
    pub fn on_round(&mut self, round: u64) {
        self.round = round;
        let Some(injector) = &mut self.faults else {
            return;
        };
        if injector
            .write_budget
            .is_some_and(|(until, _)| round > until)
        {
            injector.write_budget = None;
        }
        for event in injector.plan.take_due(round) {
            self.stats.faults_injected += 1;
            if let Some(p) = obs::probes() {
                p.net_faults_injected.inc();
            }
            self.apply_fault(round, &event);
        }
    }

    /// Up to `count` distinct slots holding active wire connections,
    /// drawn without replacement from the injector RNG (the metrics
    /// plane is never a victim).
    fn pick_wire_victims(&mut self, count: u32) -> Vec<usize> {
        let mut candidates: Vec<usize> = self
            .conns
            .iter()
            .enumerate()
            .filter(|(_, c)| c.as_ref().is_some_and(Conn::is_wire))
            .map(|(slot, _)| slot)
            .collect();
        let injector = self.faults.as_mut().expect("armed");
        let take = (count as usize).min(candidates.len());
        for i in 0..take {
            let j = i + injector.rng.uniform_bin(candidates.len() - i);
            candidates.swap(i, j);
        }
        candidates.truncate(take);
        candidates
    }

    fn apply_fault(&mut self, round: u64, event: &NetFault) {
        match *event {
            NetFault::DropConns { conns } => {
                for slot in self.pick_wire_victims(conns) {
                    let conn = self.conns[slot].take().expect("victim exists");
                    self.drop_conn(conn, DropReason::Fault);
                }
            }
            NetFault::StallReads { conns, rounds } => {
                for slot in self.pick_wire_victims(conns) {
                    let conn = self.conns[slot].as_mut().expect("victim exists");
                    conn.read_stalled_until = round + u64::from(rounds);
                }
            }
            NetFault::StallWrites { conns, rounds } => {
                for slot in self.pick_wire_victims(conns) {
                    let conn = self.conns[slot].as_mut().expect("victim exists");
                    conn.write_stalled_until = round + u64::from(rounds);
                }
            }
            NetFault::PartialWrites { max_bytes, rounds } => {
                let injector = self.faults.as_mut().expect("armed");
                injector.write_budget = Some((
                    round + u64::from(rounds).saturating_sub(1),
                    (max_bytes as usize).max(1),
                ));
            }
            NetFault::InjectGarbage { conns, bytes } => {
                for slot in self.pick_wire_victims(conns) {
                    let garbage: Vec<u8> = {
                        let injector = self.faults.as_mut().expect("armed");
                        (0..bytes)
                            .map(|_| injector.rng.uniform_bin(256) as u8)
                            .collect()
                    };
                    let conn = self.conns[slot].as_mut().expect("victim exists");
                    conn.injected.extend_from_slice(&garbage);
                }
            }
        }
    }

    /// One event-loop tick: accept pending connections, read and handle
    /// available input (submitting allocation frames through
    /// `dispatcher`), flush queued output, and update the net gauges.
    /// Never blocks. Returns a coarse activity count (bytes moved +
    /// connections accepted); `0` means the tick found nothing to do and
    /// the caller may sleep briefly.
    pub fn poll(&mut self, dispatcher: &Dispatcher) -> u64 {
        let mut activity = self.accept_pending();
        for slot in 0..self.conns.len() {
            let Some(mut conn) = self.conns[slot].take() else {
                continue;
            };
            match self.service_conn(slot, &mut conn, dispatcher, &mut activity) {
                Ok(()) => self.conns[slot] = Some(conn),
                Err(reason) => self.drop_conn(conn, reason),
            }
        }
        if let Some(p) = obs::probes() {
            p.net_connections.set(self.connections() as u64);
            let queued: usize = self.conns.iter().flatten().map(Conn::queued).sum();
            p.net_write_queue_bytes.set(queued as u64);
        }
        activity
    }

    /// Routes one service [`Completion`] back to the connection that
    /// submitted the ticket (dropped silently if that connection is
    /// gone, or if the ticket was submitted by an in-process dispatcher
    /// handle rather than the network).
    pub fn notify(&mut self, completion: &Completion) {
        let Some(pending) = self.tickets.remove(&completion.ticket.id()) else {
            return;
        };
        let Some(conn) = self.conns.get_mut(pending.slot).and_then(Option::as_mut) else {
            return;
        };
        if conn.id != pending.conn_id {
            return; // the slot was reused by a newer connection
        }
        let frame = Frame::Completed {
            ticket: completion.ticket.id(),
            bin: completion.bin,
            admitted_round: completion.admitted_round,
            served_round: completion.served_round,
            waiting_rounds: completion.waiting_rounds,
        };
        if conn.queue_frame(&frame).is_err() {
            let conn = self.conns[pending.slot].take().expect("just borrowed");
            self.drop_conn(conn, DropReason::Write);
            return;
        }
        self.stats.completions_sent += 1;
    }

    fn accept_pending(&mut self) -> u64 {
        let mut accepted = 0;
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                        continue; // socket died before use
                    }
                    if self.connections() >= MAX_CONNS {
                        drop(stream);
                        continue;
                    }
                    let conn = Conn {
                        stream,
                        id: self.next_conn_id,
                        state: ConnState::Sniffing(Vec::with_capacity(4)),
                        outbuf: Vec::new(),
                        out_pos: 0,
                        close_after_flush: false,
                        read_stalled_until: 0,
                        write_stalled_until: 0,
                        injected: Vec::new(),
                    };
                    self.next_conn_id += 1;
                    self.stats.accepted_conns += 1;
                    accepted += 1;
                    match self.conns.iter().position(Option::is_none) {
                        Some(slot) => self.conns[slot] = Some(conn),
                        None => self.conns.push(Some(conn)),
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    if let Some(p) = obs::probes() {
                        p.net_accept_errors.inc();
                    }
                    break;
                }
            }
        }
        accepted
    }

    /// Reads, handles, and flushes one connection. `Err` means the
    /// connection must be dropped.
    fn service_conn(
        &mut self,
        slot: usize,
        conn: &mut Conn,
        dispatcher: &Dispatcher,
        activity: &mut u64,
    ) -> Result<(), DropReason> {
        // Fault-injected bytes enter the pipeline exactly as socket reads
        // would (and are not suppressed by a read stall — they model the
        // peer having already sent them).
        if !conn.injected.is_empty() {
            let injected = std::mem::take(&mut conn.injected);
            *activity += injected.len() as u64;
            self.ingest(slot, conn, &injected, dispatcher)?;
        }
        let mut buf = [0u8; 4096];
        let mut saw_eof = false;
        let read_stalled = self.round < conn.read_stalled_until;
        if !read_stalled {
            for _ in 0..READS_PER_POLL {
                match conn.stream.read(&mut buf) {
                    Ok(0) => {
                        saw_eof = true;
                        break;
                    }
                    Ok(k) => {
                        *activity += k as u64;
                        if let Some(p) = obs::probes() {
                            p.net_bytes_read.add(k as u64);
                        }
                        self.ingest(slot, conn, &buf[..k], dispatcher)?;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => {
                        if let Some(p) = obs::probes() {
                            p.net_read_errors.inc();
                        }
                        return Err(DropReason::Read);
                    }
                }
            }
        }
        if self.round >= conn.write_stalled_until {
            let budget = self
                .faults
                .as_ref()
                .and_then(|inj| inj.write_budget)
                .filter(|&(until, _)| self.round <= until)
                .map(|(_, max_bytes)| max_bytes);
            flush(conn, activity, budget)?;
        }
        if saw_eof {
            // Peer finished sending. Keep the connection only if a reply
            // is still draining; completions for a half-closed peer are
            // undeliverable anyway once the flush is done.
            if conn.queued() == 0 {
                return Err(DropReason::Eof);
            }
            conn.state = ConnState::Draining;
            conn.close_after_flush = true;
        }
        if conn.close_after_flush && conn.queued() == 0 {
            return Err(DropReason::Done);
        }
        Ok(())
    }

    fn ingest(
        &mut self,
        slot: usize,
        conn: &mut Conn,
        mut bytes: &[u8],
        dispatcher: &Dispatcher,
    ) -> Result<(), DropReason> {
        if let ConnState::Sniffing(preface) = &mut conn.state {
            let need = 4 - preface.len();
            let take = need.min(bytes.len());
            preface.extend_from_slice(&bytes[..take]);
            bytes = &bytes[take..];
            if preface.len() < 4 {
                return Ok(());
            }
            if preface[..4] == proto::MAGIC {
                conn.state = ConnState::Wire(FrameDecoder::new());
            } else if &preface[..4] == b"GET " {
                let head = std::mem::take(preface);
                conn.state = ConnState::Http(head);
            } else {
                return Err(DropReason::Proto);
            }
        }
        let frames = match &mut conn.state {
            ConnState::Sniffing(_) => unreachable!("resolved above"),
            ConnState::Wire(decoder) => {
                decoder.push(bytes);
                let mut frames = Vec::new();
                loop {
                    match decoder.next_frame() {
                        Ok(Some(frame)) => frames.push(frame),
                        Ok(None) => break,
                        Err(_) => return Err(DropReason::Proto),
                    }
                }
                frames
            }
            ConnState::Http(head) => {
                head.extend_from_slice(bytes);
                if head.len() > MAX_HTTP_HEAD {
                    return Err(DropReason::Proto);
                }
                if let Some(end) = find_head_end(head) {
                    let request = String::from_utf8_lossy(&head[..end]);
                    let path = request.split_whitespace().nth(1).unwrap_or("");
                    let response = if path == "/metrics" || path.starts_with("/metrics?") {
                        self.stats.scrapes += 1;
                        if let Some(p) = obs::probes() {
                            p.net_scrapes.inc();
                        }
                        iba_obs::expo::http_metrics_response(iba_obs::global())
                    } else {
                        iba_obs::expo::http_not_found()
                    };
                    conn.outbuf.extend_from_slice(&response);
                    conn.state = ConnState::Draining;
                    conn.close_after_flush = true;
                }
                return Ok(());
            }
            ConnState::Draining => return Ok(()),
        };
        for frame in frames {
            self.stats.frames += 1;
            if let Some(p) = obs::probes() {
                p.net_frames.inc();
            }
            let Frame::Alloc { req_id } = frame else {
                return Err(DropReason::Proto); // server-only opcode
            };
            let reply = self.admit_alloc(slot, conn.id, req_id, dispatcher);
            conn.queue_frame(&reply)?;
        }
        Ok(())
    }

    /// Decides one allocation request: refused while draining, otherwise
    /// submitted to the dispatcher, whose bounded ingress answers
    /// `Saturated` when full.
    fn admit_alloc(
        &mut self,
        slot: usize,
        conn_id: u64,
        req_id: u64,
        dispatcher: &Dispatcher,
    ) -> Frame {
        if self.draining {
            self.stats.allocs_drained += 1;
            if let Some(p) = obs::probes() {
                p.net_allocs_drained.inc();
            }
            return Frame::Closed {
                req_id,
                reason: CloseReason::Drain,
            };
        }
        match dispatcher.submit() {
            Ok(ticket) => {
                self.tickets
                    .insert(ticket.id(), PendingTicket { slot, conn_id });
                self.stats.allocs_accepted += 1;
                Frame::Accepted {
                    req_id,
                    ticket: ticket.id(),
                }
            }
            Err(SubmitError::Saturated) => {
                self.stats.allocs_saturated += 1;
                Frame::Saturated { req_id }
            }
            Err(SubmitError::Closed) => {
                self.stats.allocs_closed += 1;
                Frame::Closed {
                    req_id,
                    reason: CloseReason::Shutdown,
                }
            }
        }
    }

    fn drop_conn(&mut self, mut conn: Conn, reason: DropReason) {
        match reason {
            DropReason::Proto => self.stats.proto_errors += 1,
            DropReason::Fault => self.stats.conns_dropped_by_fault += 1,
            DropReason::SlowConsumer => {
                self.stats.slow_consumer_drops += 1;
                // Best-effort typed close so a well-behaved peer learns
                // *why* it was cut (req_id 0 = connection-level).
                let frame = Frame::Closed {
                    req_id: 0,
                    reason: CloseReason::SlowConsumer,
                };
                let mut bytes = Vec::new();
                frame.encode_into(&mut bytes);
                let _ = conn.stream.write(&bytes);
            }
            _ => {}
        }
        if let Some(p) = obs::probes() {
            match reason {
                DropReason::Proto => p.net_proto_errors.inc(),
                DropReason::Write | DropReason::SlowConsumer => p.net_write_errors.inc(),
                DropReason::Fault => p.net_conns_dropped_by_fault.inc(),
                DropReason::Eof | DropReason::Done | DropReason::Read => {}
            }
        }
        drop(conn);
    }
}

/// Writes as much queued output as the socket accepts right now, capped
/// at `budget` bytes when a partial-write throttle is active.
fn flush(conn: &mut Conn, activity: &mut u64, budget: Option<usize>) -> Result<(), DropReason> {
    let limit = budget.map_or(conn.outbuf.len(), |b| {
        conn.outbuf.len().min(conn.out_pos + b)
    });
    while conn.out_pos < limit {
        match conn.stream.write(&conn.outbuf[conn.out_pos..limit]) {
            Ok(0) => return Err(DropReason::Write),
            Ok(k) => {
                conn.out_pos += k;
                *activity += k as u64;
                if let Some(p) = obs::probes() {
                    p.net_bytes_written.add(k as u64);
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => {
                if let Some(p) = obs::probes() {
                    p.net_write_errors.inc();
                }
                return Err(DropReason::Write);
            }
        }
    }
    if conn.out_pos == conn.outbuf.len() && conn.out_pos > 0 {
        conn.outbuf.clear();
        conn.out_pos = 0;
    }
    Ok(())
}

/// Index just past the `\r\n\r\n` head terminator, if present.
fn find_head_end(head: &[u8]) -> Option<usize> {
    head.windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|i| i + 4)
}

/// Options for [`run_net_loop`].
#[derive(Debug, Clone)]
pub struct NetLoopOptions {
    /// Rounds to run before returning (`u64::MAX` ≈ run until `stop`).
    pub max_rounds: u64,
    /// Wall-clock spacing between rounds; I/O is polled continuously in
    /// between. `Duration::ZERO` runs rounds back-to-back with one poll
    /// tick per round.
    pub round_interval: Duration,
    /// Base sleep applied when a poll tick finds no work. Consecutive
    /// idle ticks back off exponentially from this base up to
    /// [`MAX_IDLE_BACKOFF_SHIFT`] doublings, bounding idle CPU without
    /// adding latency under load (any activity resets the backoff).
    pub idle_sleep: Duration,
    /// On exit (rounds exhausted or `stop` set), enter drain mode and
    /// keep running rounds until every owed completion has been
    /// delivered and flushed, or `max_drain_rounds` elapse.
    pub drain_on_stop: bool,
    /// Upper bound on extra rounds spent draining.
    pub max_drain_rounds: u64,
}

/// Cap on the exponential idle backoff: the idle sleep doubles at most
/// this many times (`16×` the configured base).
pub const MAX_IDLE_BACKOFF_SHIFT: u32 = 4;

impl Default for NetLoopOptions {
    fn default() -> Self {
        NetLoopOptions {
            max_rounds: u64::MAX,
            round_interval: Duration::from_micros(500),
            idle_sleep: Duration::from_micros(100),
            drain_on_stop: false,
            max_drain_rounds: 10_000,
        }
    }
}

/// What [`run_net_loop`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetLoopSummary {
    /// Rounds executed (not counting drain rounds).
    pub rounds_run: u64,
    /// Completions routed to network clients.
    pub completions_delivered: u64,
    /// Poll ticks that found no work (idle iterations).
    pub idle_polls: u64,
    /// Extra rounds spent in drain mode after the stop condition.
    pub drain_rounds: u64,
}

/// Drives the service and the front end on the calling thread: each
/// iteration advances the front end's round clock (armed faults), polls I/O until the round interval elapses, runs one round,
/// routes the round's completions back to their connections, and
/// flushes. Returns after `opts.max_rounds` rounds or as soon as `stop`
/// is set — after an orderly drain first if `opts.drain_on_stop` is set.
///
/// Idle poll ticks sleep with a bounded exponential backoff (base
/// `opts.idle_sleep`, capped at 2^[`MAX_IDLE_BACKOFF_SHIFT`]× that) so
/// an idle front end costs near-zero CPU even with
/// `round_interval == ZERO`; any byte of activity resets the backoff.
///
/// `completions` must be the receiver taken from the same `service`
/// ([`CappedService::take_completions`]).
pub fn run_net_loop(
    service: &mut CappedService,
    frontend: &mut NetFrontend,
    completions: &Receiver<Completion>,
    opts: &NetLoopOptions,
    stop: &AtomicBool,
) -> NetLoopSummary {
    let dispatcher = service.dispatcher();
    let mut summary = NetLoopSummary {
        rounds_run: 0,
        completions_delivered: 0,
        idle_polls: 0,
        drain_rounds: 0,
    };
    let mut idle_streak: u32 = 0;
    let one_round = |service: &mut CappedService,
                     frontend: &mut NetFrontend,
                     summary: &mut NetLoopSummary,
                     idle_streak: &mut u32| {
        frontend.on_round(service.round() + 1);
        let deadline = Instant::now() + opts.round_interval;
        loop {
            let activity = frontend.poll(&dispatcher);
            if activity == 0 {
                summary.idle_polls += 1;
                *idle_streak = (*idle_streak).saturating_add(1);
                if let Some(p) = obs::probes() {
                    p.net_idle_polls.inc();
                }
            } else {
                *idle_streak = 0;
            }
            let now = Instant::now();
            if now >= deadline || stop.load(Ordering::Relaxed) {
                break;
            }
            if activity == 0 && !opts.idle_sleep.is_zero() {
                let shift = (*idle_streak).min(MAX_IDLE_BACKOFF_SHIFT);
                let backoff = opts.idle_sleep * (1u32 << shift);
                std::thread::sleep(backoff.min(deadline - now));
            }
        }
        service.run_round();
        for id in service.drain_expired_tickets() {
            frontend.forget_ticket(id);
        }
        while let Ok(completion) = completions.try_recv() {
            frontend.notify(&completion);
            summary.completions_delivered += 1;
        }
        frontend.poll(&dispatcher);
        // Back-to-back rounds with a fully idle front end: bound the CPU
        // burned advancing an empty clock.
        if opts.round_interval.is_zero() && *idle_streak > 0 && !opts.idle_sleep.is_zero() {
            let shift = (*idle_streak).min(MAX_IDLE_BACKOFF_SHIFT);
            std::thread::sleep(opts.idle_sleep * (1u32 << shift));
        }
    };
    while summary.rounds_run < opts.max_rounds && !stop.load(Ordering::Relaxed) {
        one_round(service, frontend, &mut summary, &mut idle_streak);
        summary.rounds_run += 1;
    }
    if opts.drain_on_stop {
        frontend.begin_drain();
        while !frontend.drained() && summary.drain_rounds < opts.max_drain_rounds {
            one_round(service, frontend, &mut summary, &mut idle_streak);
            summary.drain_rounds += 1;
        }
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_reports_resolved_addr_and_empty_state() {
        let frontend = NetFrontend::bind("127.0.0.1:0").unwrap();
        assert_ne!(frontend.local_addr().port(), 0);
        assert_eq!(frontend.connections(), 0);
        assert_eq!(frontend.pending_tickets(), 0);
        assert_eq!(frontend.stats(), NetStats::default());
    }

    #[test]
    fn head_end_finder() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\n"), Some(18));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n"), None);
        assert_eq!(find_head_end(b""), None);
    }
}
