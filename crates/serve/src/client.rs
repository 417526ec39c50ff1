//! A deadline-and-retry wire-protocol client for the network front end.
//!
//! [`NetClient`] is the client half the chaos harness measures through: a
//! single blocking connection to a [`NetFrontend`](crate::net::NetFrontend)
//! that survives everything the fault injector throws at the transport —
//! resets, stalls, typed refusals — by layering three mechanisms:
//!
//! - **Deadlines**: every submission carries a wall-clock budget; when it
//!   runs out the attempt is abandoned with
//!   [`ClientError::DeadlineExpired`] rather than hanging.
//! - **Jittered exponential backoff**: retryable refusals
//!   ([`Frame::Saturated`], [`CloseReason::Quota`],
//!   [`CloseReason::Drain`]) and transport failures back off
//!   `base · 2^attempt`, capped, with ±25 % deterministic jitter from a
//!   seeded [`SimRng`] so a thundering herd decorrelates reproducibly.
//! - **Idempotent re-submission**: the request id is assigned once per
//!   logical request and reused verbatim across retries and reconnects,
//!   so a duplicate acceptance is *observable* (the second
//!   [`Frame::Accepted`] for the same id is counted as a duplicate
//!   rather than a new ticket) — the retry-amplification metric in the
//!   chaos bench comes straight from these counters.
//!
//! Completion frames are harvested opportunistically on every read and
//! buffered; [`NetClient::take_completions`] hands them out. A dropped
//! connection loses the server-side ticket routing (the server serves
//! the ball regardless — the paper's pool semantics), so under chaos
//! `completed ≤ accepted`: exactly the goodput gap the bench reports.

use std::collections::VecDeque;
use std::fmt;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use iba_sim::SimRng;

use crate::proto::{self, CloseReason, Frame, FrameDecoder};

/// Configuration of a [`NetClient`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// The front end's address.
    pub addr: SocketAddr,
    /// Budget for establishing (and re-establishing) the connection.
    pub connect_timeout: Duration,
    /// Default per-request deadline used by [`NetClient::submit`].
    pub deadline: Duration,
    /// First backoff delay; doubles per retry.
    pub backoff_base: Duration,
    /// Upper bound on a single backoff delay.
    pub backoff_max: Duration,
    /// Seed for the jitter RNG.
    pub seed: u64,
}

impl ClientConfig {
    /// Defaults tuned for in-process tests and benches: 1 s connect
    /// budget, 2 s deadline, 1 ms → 100 ms backoff.
    pub fn new(addr: SocketAddr) -> Self {
        ClientConfig {
            addr,
            connect_timeout: Duration::from_secs(1),
            deadline: Duration::from_secs(2),
            backoff_base: Duration::from_millis(1),
            backoff_max: Duration::from_millis(100),
            seed: 0,
        }
    }

    /// Sets the default per-request deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = deadline;
        self
    }

    /// Sets the backoff range.
    #[must_use]
    pub fn with_backoff(mut self, base: Duration, max: Duration) -> Self {
        self.backoff_base = base;
        self.backoff_max = max;
        self
    }

    /// Sets the jitter seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Why a submission failed for good.
#[derive(Debug)]
pub enum ClientError {
    /// The deadline elapsed before an acceptance arrived.
    DeadlineExpired,
    /// The server refused with a non-retryable close (shutdown).
    Closed(CloseReason),
    /// The connection could not be (re-)established within the deadline.
    Connect(std::io::Error),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::DeadlineExpired => write!(f, "request deadline expired"),
            ClientError::Closed(reason) => write!(f, "server closed the request: {reason}"),
            ClientError::Connect(e) => write!(f, "connect failed: {e}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Connect(e) => Some(e),
            _ => None,
        }
    }
}

/// Lifetime counters of one client (the chaos bench's raw material).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ClientStats {
    /// Logical requests submitted (each gets one request id).
    pub submitted: u64,
    /// Wire attempts, including retries of the same request id.
    pub attempts: u64,
    /// Requests accepted (first acceptance per request id).
    pub accepted: u64,
    /// Extra acceptances for an already-accepted request id (the cost of
    /// retrying: the same logical request was admitted twice).
    pub duplicate_accepts: u64,
    /// Completion frames received.
    pub completed: u64,
    /// `Saturated` replies observed (backpressure + shed).
    pub saturated: u64,
    /// `Closed` replies with [`CloseReason::Quota`].
    pub closed_quota: u64,
    /// `Closed` replies with [`CloseReason::Drain`].
    pub closed_drain: u64,
    /// `Closed` replies with [`CloseReason::SlowConsumer`].
    pub closed_slow_consumer: u64,
    /// `Closed` replies with [`CloseReason::Shutdown`].
    pub closed_shutdown: u64,
    /// Requests abandoned at their deadline.
    pub deadline_expired: u64,
    /// Successful reconnects after a transport failure.
    pub reconnects: u64,
    /// Retry sleeps taken (≈ attempts − submitted, plus transport
    /// retries).
    pub retries: u64,
}

/// One completion notification, decoded from [`Frame::Completed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletionEvent {
    /// The server-assigned ticket.
    pub ticket: u64,
    /// Global bin index that served the request.
    pub bin: u64,
    /// Round the request was admitted.
    pub admitted_round: u64,
    /// Round the request was served.
    pub served_round: u64,
    /// `served_round − admitted_round`.
    pub waiting_rounds: u64,
}

/// What one pump of the reply stream produced for a specific request id.
enum Reply {
    Accepted(u64),
    Saturated,
    Closed(CloseReason),
    /// Transport failed (EOF, reset, protocol garbage) — reconnect.
    Transport,
}

/// The deadline/retry client. See the [module docs](self).
#[derive(Debug)]
pub struct NetClient {
    config: ClientConfig,
    stream: Option<TcpStream>,
    decoder: FrameDecoder,
    rng: SimRng,
    next_req_id: u64,
    /// Request ids already accepted once — further acceptances are
    /// duplicates (idempotent re-submission made visible).
    accepted_ids: std::collections::HashSet<u64>,
    completions: VecDeque<CompletionEvent>,
    stats: ClientStats,
}

impl NetClient {
    /// A client for `config.addr`. Does not connect yet — the first
    /// submission does.
    pub fn new(config: ClientConfig) -> Self {
        let seed = config.seed;
        NetClient {
            config,
            stream: None,
            decoder: FrameDecoder::new(),
            rng: SimRng::seed_from(seed),
            next_req_id: 1,
            accepted_ids: std::collections::HashSet::new(),
            completions: VecDeque::new(),
            stats: ClientStats::default(),
        }
    }

    /// Lifetime counters.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// Buffered completion events, in arrival order.
    pub fn take_completions(&mut self) -> Vec<CompletionEvent> {
        self.completions.drain(..).collect()
    }

    /// Submits one request with the configured default deadline.
    ///
    /// # Errors
    ///
    /// See [`submit_with_deadline`](Self::submit_with_deadline).
    pub fn submit(&mut self) -> Result<u64, ClientError> {
        self.submit_with_deadline(self.config.deadline)
    }

    /// Submits one request, retrying with jittered exponential backoff
    /// until it is accepted or `deadline` elapses, and returns the
    /// server-assigned ticket.
    ///
    /// The request id is fixed up front and reused across every retry
    /// and reconnect (idempotent re-submission); completions arriving
    /// while waiting are buffered for
    /// [`take_completions`](Self::take_completions).
    ///
    /// # Errors
    ///
    /// [`ClientError::DeadlineExpired`] when the budget runs out,
    /// [`ClientError::Closed`] on a shutdown refusal,
    /// [`ClientError::Connect`] when the transport cannot be established
    /// at all.
    pub fn submit_with_deadline(&mut self, deadline: Duration) -> Result<u64, ClientError> {
        let req_id = self.next_req_id;
        self.next_req_id += 1;
        self.stats.submitted += 1;
        let deadline = Instant::now() + deadline;
        let mut attempt: u32 = 0;
        loop {
            if Instant::now() >= deadline {
                self.stats.deadline_expired += 1;
                return Err(ClientError::DeadlineExpired);
            }
            match self.attempt_once(req_id, deadline) {
                Ok(Reply::Accepted(ticket)) => return Ok(ticket),
                Ok(Reply::Saturated) => {}
                Ok(Reply::Closed(CloseReason::Shutdown)) => {
                    return Err(ClientError::Closed(CloseReason::Shutdown));
                }
                Ok(Reply::Closed(_)) => {} // quota/drain/slow-consumer: retry
                Ok(Reply::Transport) => self.disconnect(),
                Err(e) => {
                    // Could not even connect; if the deadline still has
                    // room, back off and try again, else surface it.
                    if Instant::now() + self.backoff(attempt) >= deadline {
                        self.stats.deadline_expired += 1;
                        return Err(ClientError::Connect(e));
                    }
                }
            }
            self.stats.retries += 1;
            let sleep = self
                .backoff(attempt)
                .min(deadline.saturating_duration_since(Instant::now()));
            if !sleep.is_zero() {
                std::thread::sleep(sleep);
            }
            attempt = attempt.saturating_add(1);
        }
    }

    /// Reads the reply stream for up to `wait`, buffering any completion
    /// frames that arrive. Returns how many completions were buffered.
    /// Transport failures just disconnect (the next submission
    /// reconnects); they are not errors here.
    pub fn pump_completions(&mut self, wait: Duration) -> usize {
        let deadline = Instant::now() + wait;
        let before = self.completions.len();
        if self.stream.is_none() {
            return 0;
        }
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                break;
            }
            match self.read_some(remaining) {
                Ok(true) => {}
                Ok(false) => break,
                Err(()) => {
                    self.disconnect();
                    break;
                }
            }
            // Drain whatever frames the read produced.
            loop {
                match self.decoder.next_frame() {
                    Ok(Some(frame)) => self.note_frame(&frame),
                    Ok(None) => break,
                    Err(_) => {
                        self.disconnect();
                        return self.completions.len() - before;
                    }
                }
            }
        }
        self.completions.len() - before
    }

    /// One wire attempt: ensure the connection, send `Alloc`, then pump
    /// replies until this request id is answered, a transport failure
    /// occurs, or the deadline passes (reported as `Saturated` so the
    /// outer loop re-checks the clock).
    fn attempt_once(&mut self, req_id: u64, deadline: Instant) -> Result<Reply, std::io::Error> {
        self.ensure_connected(deadline)?;
        self.stats.attempts += 1;
        let mut out = Vec::with_capacity(proto::MAX_FRAME_LEN as usize);
        Frame::Alloc { req_id }.encode_into(&mut out);
        let stream = self.stream.as_mut().expect("just connected");
        if stream.write_all(&out).is_err() {
            return Ok(Reply::Transport);
        }
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Ok(Reply::Saturated);
            }
            match self.read_some(remaining.min(Duration::from_millis(20))) {
                Ok(true) => {}
                Ok(false) => return Ok(Reply::Saturated), // re-check clock
                Err(()) => return Ok(Reply::Transport),
            }
            loop {
                match self.decoder.next_frame() {
                    Ok(Some(frame)) => {
                        if let Some(reply) = self.classify(&frame, req_id) {
                            return Ok(reply);
                        }
                    }
                    Ok(None) => break,
                    Err(_) => return Ok(Reply::Transport),
                }
            }
        }
    }

    /// Feeds one `read` into the decoder. `Ok(true)` = bytes arrived,
    /// `Ok(false)` = timed out with nothing, `Err` = transport dead.
    fn read_some(&mut self, timeout: Duration) -> Result<bool, ()> {
        let Some(stream) = self.stream.as_mut() else {
            return Err(());
        };
        // A zero timeout means "no timeout" to the OS; clamp up instead.
        let timeout = timeout.max(Duration::from_millis(1));
        if stream.set_read_timeout(Some(timeout)).is_err() {
            return Err(());
        }
        let mut buf = [0u8; 4096];
        match stream.read(&mut buf) {
            Ok(0) => Err(()),
            Ok(k) => {
                self.decoder.push(&buf[..k]);
                Ok(true)
            }
            Err(e)
                if e.kind() == ErrorKind::WouldBlock
                    || e.kind() == ErrorKind::TimedOut
                    || e.kind() == ErrorKind::Interrupted =>
            {
                Ok(false)
            }
            Err(_) => Err(()),
        }
    }

    /// Updates counters for `frame`; returns the reply verdict if it
    /// answers `req_id`.
    fn classify(&mut self, frame: &Frame, req_id: u64) -> Option<Reply> {
        match *frame {
            Frame::Completed { .. } => {
                self.note_frame(frame);
                None
            }
            Frame::Accepted {
                req_id: rid,
                ticket,
            } => {
                if self.accepted_ids.insert(rid) {
                    self.stats.accepted += 1;
                    (rid == req_id).then_some(Reply::Accepted(ticket))
                } else {
                    // The same request id was accepted before (a retry
                    // raced its predecessor): count, don't re-deliver.
                    self.stats.duplicate_accepts += 1;
                    None
                }
            }
            Frame::Saturated { req_id: rid } => {
                self.stats.saturated += 1;
                (rid == req_id).then_some(Reply::Saturated)
            }
            Frame::Closed {
                req_id: rid,
                reason,
            } => {
                match reason {
                    CloseReason::Quota => self.stats.closed_quota += 1,
                    CloseReason::Drain => self.stats.closed_drain += 1,
                    CloseReason::SlowConsumer => self.stats.closed_slow_consumer += 1,
                    CloseReason::Shutdown => self.stats.closed_shutdown += 1,
                }
                // req_id 0 is a connection-level close; it answers
                // whatever we were waiting for.
                (rid == req_id || rid == 0).then_some(Reply::Closed(reason))
            }
            Frame::Alloc { .. } => None, // client-only opcode; ignore
        }
    }

    fn note_frame(&mut self, frame: &Frame) {
        if let Frame::Completed {
            ticket,
            bin,
            admitted_round,
            served_round,
            waiting_rounds,
        } = *frame
        {
            self.stats.completed += 1;
            self.completions.push_back(CompletionEvent {
                ticket,
                bin,
                admitted_round,
                served_round,
                waiting_rounds,
            });
        }
    }

    fn ensure_connected(&mut self, deadline: Instant) -> Result<(), std::io::Error> {
        if self.stream.is_some() {
            return Ok(());
        }
        let budget = self
            .config
            .connect_timeout
            .min(deadline.saturating_duration_since(Instant::now()))
            .max(Duration::from_millis(1));
        let stream = TcpStream::connect_timeout(&self.config.addr, budget)?;
        stream.set_nodelay(true)?;
        let mut stream = stream;
        stream.write_all(&proto::MAGIC)?;
        let had_one_before = self.stats.attempts > 0;
        if had_one_before {
            self.stats.reconnects += 1;
        }
        self.decoder = FrameDecoder::new();
        self.stream = Some(stream);
        Ok(())
    }

    fn disconnect(&mut self) {
        self.stream = None;
        self.decoder = FrameDecoder::new();
    }

    /// Backoff for retry number `attempt`: `base · 2^attempt`, capped at
    /// the configured max, jittered to 75–100 % deterministically.
    fn backoff(&mut self, attempt: u32) -> Duration {
        let base = self.config.backoff_base.as_nanos() as u64;
        let max = self.config.backoff_max.as_nanos() as u64;
        let raw = base.saturating_shl(attempt.min(20)).min(max.max(base));
        let jitter = 0.75 + self.rng.unit_f64() * 0.25;
        Duration::from_nanos((raw as f64 * jitter) as u64)
    }
}

/// `u64::checked_shl` that saturates instead of wrapping.
trait SaturatingShl {
    fn saturating_shl(self, shift: u32) -> Self;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, shift: u32) -> u64 {
        self.checked_shl(shift).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_config() -> ClientConfig {
        ClientConfig::new("127.0.0.1:1".parse().unwrap())
            .with_deadline(Duration::from_millis(50))
            .with_backoff(Duration::from_millis(1), Duration::from_millis(8))
            .with_seed(7)
    }

    #[test]
    fn backoff_doubles_caps_and_jitters() {
        let mut client = NetClient::new(test_config());
        for attempt in 0..32 {
            let b = client.backoff(attempt);
            let ceiling = Duration::from_millis(8);
            assert!(b <= ceiling, "attempt {attempt}: {b:?} > cap");
            let floor_nanos = (Duration::from_millis(1).as_nanos() as f64 * 0.75) as u64;
            assert!(
                b.as_nanos() as u64 >= floor_nanos.min(ceiling.as_nanos() as u64 * 3 / 4),
                "attempt {attempt}: {b:?} below jitter floor"
            );
        }
        // Determinism: same seed, same sequence.
        let mut a = NetClient::new(test_config());
        let mut b = NetClient::new(test_config());
        let seq_a: Vec<Duration> = (0..8).map(|i| a.backoff(i)).collect();
        let seq_b: Vec<Duration> = (0..8).map(|i| b.backoff(i)).collect();
        assert_eq!(seq_a, seq_b);
    }

    #[test]
    fn unreachable_server_expires_the_deadline() {
        // Port 1 refuses connections; the deadline bounds the failure.
        let mut client = NetClient::new(test_config());
        let start = Instant::now();
        let result = client.submit();
        assert!(matches!(
            result,
            Err(ClientError::Connect(_) | ClientError::DeadlineExpired)
        ));
        assert!(start.elapsed() < Duration::from_secs(5), "bounded failure");
        assert_eq!(client.stats().accepted, 0);
        assert_eq!(client.stats().submitted, 1);
    }

    #[test]
    fn errors_display() {
        assert!(ClientError::DeadlineExpired
            .to_string()
            .contains("deadline"));
        assert!(ClientError::Closed(CloseReason::Drain)
            .to_string()
            .contains("drain"));
        let io = std::io::Error::other("nope");
        assert!(ClientError::Connect(io).to_string().contains("nope"));
    }

    #[test]
    fn completion_buffering_counts() {
        let mut client = NetClient::new(test_config());
        let frame = Frame::Completed {
            ticket: 9,
            bin: 3,
            admitted_round: 5,
            served_round: 8,
            waiting_rounds: 3,
        };
        client.note_frame(&frame);
        client.note_frame(&frame);
        assert_eq!(client.stats().completed, 2);
        let events = client.take_completions();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].waiting_rounds, 3);
        assert!(client.take_completions().is_empty());
    }
}
