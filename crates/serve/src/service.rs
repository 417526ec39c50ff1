//! The sharded CAPPED(c, λ) dispatch service.
//!
//! [`CappedService::spawn`] partitions the configured bins into `S`
//! contiguous shards, starts one worker thread per shard, and wires up
//! the admission front end. The driver (the thread calling
//! [`run_round`](CappedService::run_round)) then executes the paper's
//! Algorithm 1 once per call:
//!
//! 1. apply scheduled fault events ([`FaultPlan`] semantics identical to
//!    [`iba_sim::faults::FaultedProcess`]);
//! 2. generate arrivals — the configured arrival model, client requests
//!    admitted from the bounded ingress queue, or both — into the pool;
//! 3. draw one uniform bin per pooled ball (oldest-first) and broadcast
//!    the routed requests to the shard workers over mpsc channels;
//! 4. merge the workers' replies: rejected balls re-enter the global pool
//!    (retrying next round), served balls produce waiting times and
//!    ticket [`Completion`]s.
//!
//! Rejected requests never time out — exactly the paper's pool
//! semantics. Together with the driver owning the only RNG stream, this
//! is what makes the service's trajectory provably identical to
//! `CappedProcess` under the same seed, for any shard count.

use std::collections::{HashMap, VecDeque};
use std::ops::Range;
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender};
use std::thread::JoinHandle;

use iba_analysis::bounds::theorem2_pool_bound;
use iba_core::metrics::WaitQuantiles;
use iba_core::shard::{shard_range, BinPart, BinShard};
use iba_core::{Ball, CappedConfig, CappedProcess, KernelMode, Pool};
use iba_membership::{Autoscaler, MembershipEvent, MembershipPlan};
use iba_sim::codec::{Decoder, Encoder};
use iba_sim::error::ConfigError;
use iba_sim::faults::{FaultEvent, FaultPlan};
use iba_sim::process::RoundReport;
use iba_sim::stats::Histogram;
use iba_sim::{AllocationProcess, SimRng, Simulation};

use crate::checkpoint::ResumeError;
use crate::dispatch::{Completion, Dispatcher, Ticket};
use crate::metrics::ServeSnapshot;
use crate::obs;
use crate::shard::{worker_loop, FaultOp, ShardCmd, ShardReply, ShardSnapshot};

/// Service checkpoint envelope tag ("IBa SerVe"). The envelope wraps a
/// complete `iba_core::checkpoint` payload (tag `IBA1`) as an opaque byte
/// blob and adds the serve-only state around it: the RNG-mode word
/// (always 0), the shard count, the ticket-id watermark, and the pending
/// ticket map. Version 2 appends the membership section (live bin count,
/// shard range ends, balls-moved and membership-event counters) so crash
/// recovery works mid-resize; version-1 envelopes stay readable.
const ENVELOPE_TAG: &str = "IBSV";
/// Current envelope format version.
const ENVELOPE_VERSION: u32 = 2;

/// How randomness is distributed between the driver and the workers.
///
/// There is one distribution: the driver owns the single RNG stream. The
/// enum and [`ServiceConfig::with_rng_mode`] remain so that callers
/// written against the former two-mode API keep compiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RngMode {
    /// The driver owns the single RNG stream and consumes it in exactly
    /// the order [`iba_core::process::CappedProcess`] does, making the
    /// service trajectory bit-identical to the bare process under the
    /// same seed (any shard count).
    #[default]
    Central,
}

/// Configuration of a [`CappedService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// The CAPPED(c, λ) parameters.
    pub capped: CappedConfig,
    /// Number of shards = worker threads (`1..=n`).
    pub shards: usize,
    /// Seed of the driver's RNG stream, the service's only one.
    pub seed: u64,
    /// Whether each round also generates the configured arrival model's
    /// balls (in addition to admitted client requests). Enable for
    /// simulator-faithful runs and the differential tests; disable for a
    /// pure request-driven service.
    pub model_arrivals: bool,
    /// Capacity of the bounded ingress queue (backpressure threshold).
    pub ingress_capacity: usize,
    /// Upper bound on client requests admitted per round; `None` drains
    /// the whole ingress queue every round.
    pub max_admit_per_round: Option<u64>,
    /// Rounds an admitted ticket may wait before the service reaps its
    /// completion-notification state (the client's deadline has long
    /// passed; the ball itself still gets served — paper semantics are
    /// untouched). `None` keeps tickets forever.
    pub ticket_ttl_rounds: Option<u64>,
}

impl ServiceConfig {
    /// Creates a configuration with the defaults: no model arrivals
    /// (request-driven), ingress capacity 65 536, unbounded per-round
    /// admission.
    pub fn new(capped: CappedConfig, shards: usize, seed: u64) -> Self {
        ServiceConfig {
            capped,
            shards,
            seed,
            model_arrivals: false,
            ingress_capacity: 1 << 16,
            max_admit_per_round: None,
            ticket_ttl_rounds: None,
        }
    }

    /// Returns `self` unchanged: [`RngMode`] has one variant, so there is
    /// nothing to set. Kept so that callers written against the former
    /// two-mode API keep compiling.
    #[must_use]
    pub fn with_rng_mode(self, _mode: RngMode) -> Self {
        self
    }

    /// Enables or disables model-generated arrivals.
    #[must_use]
    pub fn with_model_arrivals(mut self, enabled: bool) -> Self {
        self.model_arrivals = enabled;
        self
    }

    /// Sets the bounded ingress queue capacity.
    #[must_use]
    pub fn with_ingress_capacity(mut self, capacity: usize) -> Self {
        self.ingress_capacity = capacity;
        self
    }

    /// Caps the number of requests admitted per round.
    #[must_use]
    pub fn with_max_admit_per_round(mut self, cap: Option<u64>) -> Self {
        self.max_admit_per_round = cap;
        self
    }

    /// Sets the ticket time-to-live in rounds (deadline reaping).
    ///
    /// # Panics
    ///
    /// Panics if `ttl` is `Some(0)` — a zero TTL would reap tickets the
    /// round they are admitted, before they can ever complete.
    #[must_use]
    pub fn with_ticket_ttl_rounds(mut self, ttl: Option<u64>) -> Self {
        assert!(ttl != Some(0), "ticket TTL must be at least one round");
        self.ticket_ttl_rounds = ttl;
        self
    }
}

struct Worker {
    /// Stable worker id, unique for the service's lifetime. Replies carry
    /// it; the driver maps it back to the worker's current *position*
    /// (= range order), which shifts as shards split, merge, and retire.
    id: usize,
    cmds: Sender<ShardCmd>,
    join: JoinHandle<()>,
}

/// A running sharded CAPPED(c, λ) service. See the [module docs](self)
/// for the per-round protocol.
///
/// Dropping the service shuts the workers down; call
/// [`shutdown`](Self::shutdown) to do so explicitly and join the threads.
pub struct CappedService {
    config: CappedConfig,
    shards: usize,
    ranges: Vec<Range<usize>>,
    /// Live bin count; starts at `config.bins()` and moves with
    /// membership events. Always `ranges.last().end`.
    live_n: usize,
    /// Next stable worker id to hand out (split shards get fresh ids).
    next_worker_id: usize,
    model_arrivals: bool,
    max_admit: Option<u64>,
    driver_rng: SimRng,
    workers: Vec<Worker>,
    reply_tx: Sender<ShardReply>,
    replies: Receiver<ShardReply>,
    ingress: Receiver<u64>,
    dispatcher: Dispatcher,
    completions_tx: Sender<Completion>,
    completions_rx: Option<Receiver<Completion>>,
    plan: FaultPlan,
    /// Scheduled membership changes (applied at round boundaries, before
    /// that round's faults).
    mplan: MembershipPlan,
    /// Optional scaling policy; observed once per round, its events are
    /// scheduled for the next round boundary.
    autoscaler: Option<Autoscaler>,
    /// Lifetime count of membership events that changed the topology.
    membership_events: u64,
    /// Lifetime count of balls physically relocated by membership changes
    /// (drained from removed bins or transferred between workers).
    balls_moved: u64,
    /// Active arrival bursts as `(last_round_inclusive, extra_per_round)`.
    bursts: Vec<(u64, u64)>,
    pool: Pool,
    /// Tickets admitted in round `label`, awaiting service, FIFO. Balls
    /// with equal labels are interchangeable, so matching a served ball
    /// to the longest-waiting ticket of its label is consistent.
    pending: HashMap<u64, VecDeque<u64>>,
    round: u64,
    total_generated: u64,
    total_admitted: u64,
    total_served: u64,
    shard_buffered: Vec<u64>,
    shard_max_load: Vec<u64>,
    wait_hist: Histogram,
    ticket_ttl: Option<u64>,
    /// Ticket ids reaped by TTL expiry since the last
    /// [`drain_expired_tickets`](Self::drain_expired_tickets) call.
    expired_tickets: Vec<u64>,
    total_expired: u64,
    stopped: bool,
}

impl std::fmt::Debug for CappedService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CappedService")
            .field("config", &self.config)
            .field("live_bins", &self.live_n)
            .field("shards", &self.shards)
            .field("round", &self.round)
            .field("pool_size", &self.pool.len())
            .finish_non_exhaustive()
    }
}

impl CappedService {
    /// Partitions the bins, spawns the worker threads, and returns the
    /// running service.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::OutOfDomain`] if the shard count is outside
    /// `1..=n`.
    pub fn spawn(config: ServiceConfig) -> Result<Self, ConfigError> {
        Self::validate(&config)?;
        let live_n = config.capped.bins();
        let ranges: Vec<Range<usize>> = (0..config.shards)
            .map(|s| shard_range(live_n, config.shards, s))
            .collect();
        let shard_states = ranges
            .iter()
            .map(|range| BinShard::new(&config.capped, range.clone()))
            .collect();
        Ok(Self::assemble(
            &config,
            SimRng::seed_from(config.seed),
            shard_states,
            ranges,
            live_n,
            0,
        ))
    }

    fn validate(config: &ServiceConfig) -> Result<(), ConfigError> {
        if config.shards == 0 || config.shards > config.capped.bins() {
            return Err(ConfigError::OutOfDomain {
                name: "shards",
                domain: "1..=n",
            });
        }
        Ok(())
    }

    /// Builds the service around prepared per-shard state; shared by
    /// [`spawn`](Self::spawn) (fresh shards) and [`resume`](Self::resume)
    /// (checkpointed shards).
    fn assemble(
        config: &ServiceConfig,
        driver_rng: SimRng,
        shard_states: Vec<BinShard>,
        ranges: Vec<Range<usize>>,
        live_n: usize,
        first_ticket_id: u64,
    ) -> Self {
        let shards = ranges.len();
        let capped = config.capped.clone();
        let (reply_tx, replies) = channel();

        let capacity = config.ingress_capacity.max(1);
        let (ingress_tx, ingress) = sync_channel(capacity);
        let dispatcher = Dispatcher::with_first_id(ingress_tx, capacity, first_ticket_id);
        let (completions_tx, completions_rx) = channel();

        let mut service = CappedService {
            shards,
            ranges,
            live_n,
            next_worker_id: 0,
            model_arrivals: config.model_arrivals,
            max_admit: config.max_admit_per_round,
            driver_rng,
            workers: Vec::with_capacity(shards),
            reply_tx,
            replies,
            ingress,
            dispatcher,
            completions_tx,
            completions_rx: Some(completions_rx),
            plan: FaultPlan::new(),
            mplan: MembershipPlan::new(),
            autoscaler: None,
            membership_events: 0,
            balls_moved: 0,
            bursts: Vec::new(),
            pool: Pool::with_capacity(capped.predicted_stationary_pool()),
            pending: HashMap::new(),
            round: 0,
            total_generated: 0,
            total_admitted: 0,
            total_served: 0,
            shard_buffered: vec![0; shards],
            shard_max_load: vec![0; shards],
            wait_hist: Histogram::new(),
            ticket_ttl: config.ticket_ttl_rounds,
            expired_tickets: Vec::new(),
            total_expired: 0,
            stopped: false,
            config: capped,
        };
        for (pos, bins) in shard_states.into_iter().enumerate() {
            service.spawn_worker(pos, bins);
        }
        service
    }

    /// Resumes a service from bytes produced by
    /// [`checkpoint_bytes`](Self::checkpoint_bytes), mid-traffic.
    ///
    /// The embedded core checkpoint restores the full process state (pool,
    /// bin queues with live capacities, fault mask, the driver's RNG
    /// stream) through `iba_core::checkpoint::restore` — inheriting all of
    /// its validation: CRC, pool order, ball conservation. The envelope
    /// restores the serve-only state: the ticket-id watermark (new tickets
    /// never collide with pre-crash ids), the lifetime admission counter,
    /// and the pending ticket map. The resumed trajectory is
    /// **bit-identical** to the uninterrupted run (the differential test
    /// pins this). A checkpoint taken with every configured bin live
    /// resumes onto `config.shards` balanced shards, whatever shard count
    /// it was taken with; a mid-resize checkpoint keeps its saved ranges.
    ///
    /// Not restored (by design): scheduled fault plans and active bursts
    /// (re-[`schedule`](Self::schedule) after resume, shifting rounds as
    /// needed) and the waiting-time histogram (quantiles restart from the
    /// resume point).
    ///
    /// # Errors
    ///
    /// [`ResumeError`] if the bytes are corrupt or truncated, the caller's
    /// CAPPED configuration differs from the checkpoint's, or the envelope
    /// records an RNG mode other than the driver-owned stream (word 0).
    pub fn resume(config: ServiceConfig, bytes: &[u8]) -> Result<Self, ResumeError> {
        Self::validate(&config).map_err(|_| ResumeError::Invalid {
            what: "service configuration",
        })?;
        let mut dec = Decoder::new(bytes)?;
        let version = dec.header(ENVELOPE_TAG, ENVELOPE_VERSION)?;
        let core_bytes = dec.byte_seq("core checkpoint")?.to_vec();
        if dec.u32("rng mode")? != 0 {
            return Err(ResumeError::Invalid { what: "rng mode" });
        }
        let saved_shards = dec.usize("shard count")?;
        let next_ticket_id = dec.u64("ticket watermark")?;
        let total_admitted = dec.u64("total admitted")?;
        let total_expired = dec.u64("total expired")?;
        let pending_len = dec.usize("pending ticket map")?;
        let mut pending: HashMap<u64, VecDeque<u64>> = HashMap::with_capacity(pending_len);
        let mut prev_label = None;
        for _ in 0..pending_len {
            let label = dec.u64("pending label")?;
            if prev_label.is_some_and(|p| p >= label) {
                return Err(ResumeError::Invalid {
                    what: "pending label order",
                });
            }
            prev_label = Some(label);
            let ids = dec.u64_seq("pending ticket ids")?;
            if ids.is_empty() {
                return Err(ResumeError::Invalid {
                    what: "empty pending queue",
                });
            }
            pending.insert(label, ids.into_iter().collect());
        }
        // Version 2 appends the membership section; a v1 envelope is a
        // fixed-topology run (live n = configured n, balanced ranges).
        let (live_n, saved_ends, balls_moved, membership_events) = if version >= 2 {
            let live_n = dec.usize("live bin count")?;
            let ends: Vec<u64> = dec.u64_seq("shard range ends")?;
            let balls_moved = dec.u64("balls moved")?;
            let membership_events = dec.u64("membership events")?;
            (live_n, Some(ends), balls_moved, membership_events)
        } else {
            (config.capped.bins(), None, 0, 0)
        };
        if !dec.is_exhausted() {
            return Err(ResumeError::Invalid {
                what: "trailing bytes",
            });
        }
        if let Some(ends) = &saved_ends {
            let contiguous = ends.len() == saved_shards
                && !ends.is_empty()
                && *ends.last().expect("non-empty") == live_n as u64
                && ends.windows(2).all(|w| w[0] < w[1])
                && ends[0] >= 1;
            if !contiguous {
                return Err(ResumeError::Invalid {
                    what: "shard range ends",
                });
            }
        }

        let sim = iba_core::checkpoint::restore(&core_bytes)?;
        let process = sim.process();
        // Mid-resize checkpoints embed the *resized* configuration so the
        // core restore path validates conservation against the live bin
        // count; the caller still passes the original configuration.
        let expected = if live_n == config.capped.bins() {
            config.capped.clone()
        } else {
            config
                .capped
                .clone()
                .resized(live_n)
                .map_err(|_| ResumeError::ConfigMismatch)?
        };
        if *process.config() != expected {
            return Err(ResumeError::ConfigMismatch);
        }
        let driver_rng = SimRng::from_state(sim.rng().state());
        // Topology: the driver owns all the randomness, so a no-churn
        // checkpoint (every v1 envelope included) resumes onto whatever
        // shard count the caller asked for; a mid-resize run keeps its
        // saved ranges.
        let ranges: Vec<Range<usize>> = match saved_ends {
            Some(ends) if live_n != config.capped.bins() => {
                let mut start = 0usize;
                ends.iter()
                    .map(|&end| {
                        let range = start..end as usize;
                        start = end as usize;
                        range
                    })
                    .collect()
            }
            _ => (0..config.shards)
                .map(|s| shard_range(live_n, config.shards, s))
                .collect(),
        };
        let shards = ranges.len();
        let mut shard_states = Vec::with_capacity(shards);
        let mut loads = Vec::with_capacity(shards);
        for range in &ranges {
            let parts = range
                .clone()
                .map(|i| {
                    let bin = process.bin(i);
                    let contents = bin.iter().copied().collect();
                    (bin.capacity(), contents, process.is_bin_offline(i))
                })
                .collect();
            let bins = BinShard::from_parts(range.start, expected.capacity(), parts);
            let max_load = bins.loads().into_iter().max().unwrap_or(0);
            loads.push((bins.buffered() as u64, max_load as u64));
            shard_states.push(bins);
        }

        let mut service = Self::assemble(
            &config,
            driver_rng,
            shard_states,
            ranges.clone(),
            live_n,
            next_ticket_id,
        );
        service.round = process.round();
        service.total_generated = process.total_generated();
        service.total_served = process.total_deleted();
        service.total_admitted = total_admitted;
        service.total_expired = total_expired;
        service.balls_moved = balls_moved;
        service.membership_events = membership_events;
        service.pool = process.pool().clone();
        service.pending = pending;
        (service.shard_buffered, service.shard_max_load) = loads.into_iter().unzip();
        if let Some(p) = obs::probes() {
            p.checkpoint_resumes.inc();
            p.resume_round.set(service.round);
        }
        Ok(service)
    }

    /// Serializes the full service state for a later
    /// [`resume`](Self::resume): the embedded core checkpoint (`IBA1`,
    /// byte-compatible with `iba_core::checkpoint`) wrapped in the serve
    /// envelope (`IBSV`). Workers are quiesced with a snapshot command
    /// between rounds, so the capture is consistent.
    ///
    /// # Panics
    ///
    /// Panics if the service was shut down or a worker thread died.
    pub fn checkpoint_bytes(&mut self) -> Vec<u8> {
        assert!(!self.stopped, "service was shut down");
        let (snap_tx, snap_rx) = channel();
        for worker in &self.workers {
            worker
                .cmds
                .send(ShardCmd::Snapshot {
                    reply: snap_tx.clone(),
                })
                .expect("shard worker alive");
        }
        let mut snapshots: Vec<Option<ShardSnapshot>> = (0..self.shards).map(|_| None).collect();
        for _ in 0..self.shards {
            let snap = snap_rx.recv().expect("shard worker alive");
            let pos = self.worker_pos(snap.shard);
            snapshots[pos] = Some(snap);
        }

        // The inner core checkpoint is the `iba_core::checkpoint` of the
        // process this service is: the pool, the counters, the driver's
        // RNG, and one shard holding every bin (shards own contiguous
        // ascending ranges, so concatenating the snapshots in shard order
        // walks the bins globally in order). Restore-side validation (CRC,
        // conservation, pool order) comes for free. A mid-resize service
        // embeds the resized configuration so that validation runs
        // against the live bin count.
        let inner_config = if self.live_n == self.config.bins() {
            self.config.clone()
        } else {
            self.config
                .clone()
                .resized(self.live_n)
                .expect("membership is gated to resizable configurations")
        };
        let mut parts = Vec::with_capacity(self.live_n);
        for snap in snapshots.into_iter().map(|s| s.expect("collected")) {
            parts.extend(snap.parts);
        }
        let process = CappedProcess::from_parts(
            inner_config,
            BinShard::from_parts(0, self.config.capacity(), parts),
            self.pool.clone(),
            self.round,
            self.total_generated,
            self.total_served,
        );
        let core_bytes =
            iba_core::checkpoint::save(&Simulation::new(process, self.driver_rng.clone()));

        let mut enc = Encoder::new();
        enc.header(ENVELOPE_TAG, ENVELOPE_VERSION);
        enc.byte_seq(&core_bytes);
        enc.u32(0); // RNG mode: the driver-owned stream is the only one
        enc.usize(self.shards);
        enc.u64(self.dispatcher.next_id());
        enc.u64(self.total_admitted);
        enc.u64(self.total_expired);
        let mut labels: Vec<u64> = self.pending.keys().copied().collect();
        labels.sort_unstable();
        enc.usize(labels.len());
        for label in labels {
            enc.u64(label);
            enc.u64_seq(self.pending[&label].iter().copied());
        }
        // Membership section (envelope v2).
        enc.usize(self.live_n);
        enc.u64_seq(self.ranges.iter().map(|r| r.end as u64));
        enc.u64(self.balls_moved);
        enc.u64(self.membership_events);
        if let Some(p) = obs::probes() {
            p.checkpoint_saves.inc();
        }
        enc.finish()
    }

    /// A cloneable client handle for submitting requests.
    pub fn dispatcher(&self) -> Dispatcher {
        self.dispatcher.clone()
    }

    /// Takes the completion-notification receiver. Callable once; later
    /// calls return `None`. If never taken, completions are discarded.
    pub fn take_completions(&mut self) -> Option<Receiver<Completion>> {
        self.completions_rx.take()
    }

    /// Schedules `plan`'s fault events against the service's round
    /// counter, merging with any previously scheduled events
    /// (same-round events keep insertion order; already-past rounds never
    /// fire — [`FaultedProcess`](iba_sim::faults::FaultedProcess)
    /// semantics).
    pub fn schedule(&mut self, plan: FaultPlan) {
        for (round, events) in plan.iter() {
            for event in events {
                self.plan.insert(round, event.clone());
            }
        }
    }

    /// Schedules `plan`'s membership events against the service's round
    /// counter, merging with any previously scheduled events. Events are
    /// applied at round boundaries, *before* that round's faults;
    /// already-past rounds never fire.
    ///
    /// # Errors
    ///
    /// [`ConfigError::OutOfDomain`] unless the configuration uses one
    /// uniform finite capacity class — elastic membership adds and removes
    /// bins of the configured capacity, which a heterogeneous capacity
    /// profile or unbounded bins cannot express.
    pub fn schedule_membership(&mut self, plan: MembershipPlan) -> Result<(), ConfigError> {
        self.ensure_elastic()?;
        for (round, events) in plan.iter() {
            for event in events {
                self.mplan.insert(round, event.clone());
            }
        }
        Ok(())
    }

    /// Installs (or replaces) the autoscaling policy. Observed once per
    /// round with the live bin count, the pool size, and the Theorem-2
    /// stationary pool bound for the *current* capacity; its events are
    /// scheduled for the next round boundary. Pass-through of the same
    /// gate as [`schedule_membership`](Self::schedule_membership).
    ///
    /// # Errors
    ///
    /// [`ConfigError::OutOfDomain`] unless the configuration uses one
    /// uniform finite capacity class.
    pub fn set_autoscaler(&mut self, scaler: Autoscaler) -> Result<(), ConfigError> {
        self.ensure_elastic()?;
        self.autoscaler = Some(scaler);
        Ok(())
    }

    fn ensure_elastic(&self) -> Result<(), ConfigError> {
        if self.config.capacity_profile().is_some() || self.config.capacity().as_finite().is_none()
        {
            return Err(ConfigError::OutOfDomain {
                name: "capacity",
                domain: "one uniform finite capacity class (elastic membership)",
            });
        }
        Ok(())
    }

    /// The CAPPED configuration the service runs.
    pub fn config(&self) -> &CappedConfig {
        &self.config
    }

    /// Number of shards (= worker threads). Moves with shard split/merge
    /// events and shrink-driven retirements.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Live bin count; starts at `config().bins()` and moves with
    /// membership events.
    pub fn live_bins(&self) -> usize {
        self.live_n
    }

    /// Lifetime count of membership events that changed the topology.
    pub fn membership_events(&self) -> u64 {
        self.membership_events
    }

    /// Lifetime count of balls physically relocated by membership changes
    /// (drained from removed bins back into the pool, or transferred
    /// between workers by a shard merge).
    pub fn balls_moved(&self) -> u64 {
        self.balls_moved
    }

    /// Acceptance kernel every shard runs: always the production
    /// [`KernelMode::Arena`] (the scalar oracle is a `BinShard`-level test
    /// hook, not a service option).
    pub fn kernel_mode(&self) -> KernelMode {
        KernelMode::Arena
    }

    /// Last completed round.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Current pool size (balls awaiting allocation).
    pub fn pool_size(&self) -> usize {
        self.pool.len()
    }

    /// Total balls buffered across all shards (as of the last round).
    pub fn buffered(&self) -> u64 {
        self.shard_buffered.iter().sum()
    }

    /// Lifetime count of balls that entered the system (model arrivals +
    /// admitted requests + fault surges).
    pub fn total_generated(&self) -> u64 {
        self.total_generated
    }

    /// Lifetime count of admitted client requests.
    pub fn total_admitted(&self) -> u64 {
        self.total_admitted
    }

    /// Lifetime count of served balls.
    pub fn total_served(&self) -> u64 {
        self.total_served
    }

    /// Number of admitted requests not yet served.
    pub fn pending_tickets(&self) -> usize {
        self.pending.values().map(VecDeque::len).sum()
    }

    /// Lifetime count of tickets reaped by TTL expiry.
    pub fn total_expired(&self) -> u64 {
        self.total_expired
    }

    /// Takes the ticket ids reaped by TTL expiry since the last call, so
    /// the transport layer can drop its notification routing for them.
    pub fn drain_expired_tickets(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.expired_tickets)
    }

    /// Ball conservation: everything that entered the system is served,
    /// pooled, or buffered.
    pub fn conserves_balls(&self) -> bool {
        self.total_generated == self.total_served + self.pool.len() as u64 + self.buffered()
    }

    /// Exact waiting-time quantiles over every ball served so far.
    pub fn wait_quantiles(&self) -> Option<WaitQuantiles> {
        WaitQuantiles::from_histogram(&self.wait_hist)
    }

    /// Captures a metrics snapshot (see [`ServeSnapshot`]).
    pub fn snapshot(&self) -> ServeSnapshot {
        ServeSnapshot {
            round: self.round,
            bins: self.live_n as u64,
            pool_size: self.pool.len() as u64,
            buffered: self.buffered(),
            shard_max_load: self.shard_max_load.clone(),
            total_generated: self.total_generated,
            total_admitted: self.total_admitted,
            total_served: self.total_served,
            wait: self.wait_quantiles(),
        }
    }

    /// Executes one round of Algorithm 1 across the shards and returns
    /// the same [`RoundReport`] the bare process would produce.
    ///
    /// # Panics
    ///
    /// Panics if the service was shut down, or if a worker thread died.
    pub fn run_round(&mut self) -> RoundReport {
        assert!(!self.stopped, "service was shut down");
        let round_timer = iba_obs::PhaseTimer::start();
        let round = self.round + 1;

        // 1. Membership changes at the round boundary fix this round's
        // topology; then the round's faults (which target the possibly
        // resized bin set — surge balls keep the pre-round label, matching
        // FaultedProcess + inject_pool).
        self.apply_membership(round);
        self.apply_faults(round);
        self.round = round;
        let n = self.live_n;

        // 2. Arrivals: model generation first, then admitted requests —
        // all labeled with the new round.
        let model = if self.model_arrivals {
            let generated = self.config.arrivals().sample(&mut self.driver_rng);
            self.pool.push_generation(round, generated);
            generated
        } else {
            0
        };
        let admitted = self.admit(round);
        self.total_generated += model + admitted;
        let thrown = self.pool.len() as u64;

        // 3. Allocation broadcast: route every pooled ball (oldest-first)
        // to the shard owning its uniformly drawn bin.
        let route_timer = iba_obs::PhaseTimer::start();
        let mut routed: Vec<Vec<(u32, Ball)>> = (0..self.shards).map(|_| Vec::new()).collect();
        for ball in self.pool.take() {
            let bin = self.driver_rng.uniform_bin(n);
            let s = self.owner_of(bin);
            routed[s].push(((bin - self.ranges[s].start) as u32, ball));
        }
        for (worker, requests) in self.workers.iter().zip(routed) {
            worker
                .cmds
                .send(ShardCmd::Round { round, requests })
                .expect("shard worker alive");
        }

        // 4. Collect and merge the shard replies.
        let merge_timer = iba_obs::PhaseTimer::start();
        if let Some(p) = obs::probes() {
            route_timer.observe(&p.phase_route_nanos);
        }
        let mut slots: Vec<Option<ShardReply>> = (0..self.shards).map(|_| None).collect();
        for _ in 0..self.shards {
            let reply = self.replies.recv().expect("shard worker alive");
            debug_assert_eq!(reply.round, round);
            let pos = self.worker_pos(reply.shard);
            slots[pos] = Some(reply);
        }

        let mut accepted = 0u64;
        let mut failed_deletions = 0u64;
        let mut buffered = 0u64;
        let mut max_load = 0u64;
        let served_before = self.total_served;
        let mut rejected: Vec<Ball> = Vec::new();
        let mut waiting_times: Vec<u64> = Vec::new();
        for (s, slot) in slots.into_iter().enumerate() {
            let reply = slot.expect("every shard replied exactly once");
            accepted += reply.accepted;
            failed_deletions += reply.failed_deletions;
            buffered += reply.buffered;
            max_load = max_load.max(reply.max_load);
            self.shard_buffered[s] = reply.buffered;
            self.shard_max_load[s] = reply.max_load;
            rejected.extend_from_slice(&reply.rejected);
            let first_bin = self.ranges[s].start as u64;
            for ((ball, &wait), &local) in reply
                .served
                .iter()
                .zip(&reply.waits)
                .zip(&reply.served_bins)
            {
                self.complete(ball.label(), round, wait, first_bin + u64::from(local));
            }
            // Shards own contiguous bin ranges, so concatenating in shard
            // order reproduces the bare process's bin-order vector.
            waiting_times.extend_from_slice(&reply.waits);
        }
        self.total_served += waiting_times.len() as u64;
        self.wait_hist.extend(waiting_times.iter().copied());

        // Per-shard reject lists are age-sorted; balls are ordered by
        // label only, so one sort reproduces the merged oldest-first pool.
        rejected.sort();
        self.pool.restore(rejected);

        // 5. Deadline reaping: forget completion-notification state for
        // tickets past the TTL. The balls themselves stay pooled/buffered
        // and still get served — only the notification is dropped, so the
        // paper's process trajectory is untouched.
        if let Some(ttl) = self.ticket_ttl {
            let expired: Vec<u64> = self
                .pending
                .keys()
                .copied()
                .filter(|&label| round.saturating_sub(label) >= ttl)
                .collect();
            let mut reaped = 0u64;
            for label in expired {
                if let Some(queue) = self.pending.remove(&label) {
                    reaped += queue.len() as u64;
                    self.expired_tickets.extend(queue);
                }
            }
            if reaped > 0 {
                self.total_expired += reaped;
                if let Some(p) = obs::probes() {
                    p.tickets_expired.add(reaped);
                }
            }
        }

        // 6. Autoscaling: compare the pool against the Theorem-2 bound
        // for the *live* capacity; a triggered event lands at the next
        // round boundary.
        if let Some(scaler) = self.autoscaler.as_mut() {
            let c = self
                .config
                .capacity()
                .as_finite()
                .expect("autoscaler install is gated to finite capacities");
            let bound = theorem2_pool_bound(self.live_n, c, self.config.lambda());
            let (_decision, event) =
                scaler.observe(round, self.live_n, self.pool.len() as u64, bound);
            if let Some(event) = event {
                self.mplan.insert(round + 1, event);
            }
        }

        if let Some(p) = obs::probes() {
            merge_timer.observe(&p.phase_merge_nanos);
            round_timer.observe(&p.round_nanos);
            p.live_bins.set(self.live_n as u64);
            p.live_shards.set(self.shards as u64);
            p.pool_size.set(self.pool.len() as u64);
            p.buffered.set(buffered);
            p.pending_tickets.set(self.pending_tickets() as u64);
            p.max_load_high_water.record_max(max_load);
            p.served.add(self.total_served - served_before);
            iba_obs::flight::recorder().record_round(iba_obs::flight::RoundSample {
                round,
                generated: model + admitted,
                accepted,
                deleted: waiting_times.len() as u64,
                failed_deletions,
                pool_size: self.pool.len() as u64,
                buffered,
                max_load,
            });
        }

        RoundReport {
            round,
            generated: model + admitted,
            thrown,
            accepted,
            deleted: waiting_times.len() as u64,
            failed_deletions,
            pool_size: self.pool.len() as u64,
            buffered,
            max_load,
            waiting_times,
        }
    }

    /// Runs `count` rounds back-to-back, returning the last report.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0` (there would be no report to return).
    pub fn run_rounds(&mut self, count: u64) -> RoundReport {
        assert!(count > 0, "must run at least one round");
        let mut last = None;
        for _ in 0..count {
            last = Some(self.run_round());
        }
        last.expect("count >= 1")
    }

    /// Stops the workers and joins their threads. Statistics accessors
    /// remain usable; further `run_round` calls panic.
    pub fn shutdown(&mut self) {
        if self.stopped {
            return;
        }
        self.stopped = true;
        for worker in &self.workers {
            let _ = worker.cmds.send(ShardCmd::Stop);
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join.join();
        }
    }

    fn apply_faults(&mut self, round: u64) {
        let n = self.live_n;
        let events = self.plan.events_at(round).to_vec();
        for event in events {
            match event {
                FaultEvent::CrashBins { bins } => {
                    for i in bins.into_iter().filter(|&i| i < n) {
                        self.send_fault(i, FaultOp::Offline(true));
                    }
                }
                FaultEvent::RecoverBins { bins } => {
                    for i in bins.into_iter().filter(|&i| i < n) {
                        self.send_fault(i, FaultOp::Offline(false));
                    }
                }
                FaultEvent::DegradeCapacity { bins, capacity } => {
                    if capacity == Some(0) {
                        continue; // malformed: capacities are >= 1 or unbounded
                    }
                    for i in bins.into_iter().filter(|&i| i < n) {
                        self.send_fault(i, FaultOp::Capacity(capacity));
                    }
                }
                FaultEvent::ArrivalBurst {
                    extra_per_round,
                    rounds,
                } => {
                    if extra_per_round > 0 && rounds > 0 {
                        self.bursts.push((round + rounds - 1, extra_per_round));
                    }
                }
                FaultEvent::PoolSurge { extra } => {
                    if extra > 0 {
                        self.surge(extra);
                    }
                }
            }
        }
        if !self.bursts.is_empty() {
            self.bursts.retain(|&(until, _)| until >= round);
            let extras: Vec<u64> = self.bursts.iter().map(|&(_, extra)| extra).collect();
            for extra in extras {
                self.surge(extra);
            }
        }
    }

    /// Injects unticketed balls labeled with the *current* (pre-step)
    /// round — `CappedProcess::inject_pool` semantics.
    fn surge(&mut self, extra: u64) {
        self.pool.push_generation(self.round, extra);
        self.total_generated += extra;
        if let Some(p) = obs::probes() {
            p.surge_balls.add(extra);
        }
    }

    /// Drains the ingress queue (up to the per-round cap) into the pool.
    fn admit(&mut self, round: u64) -> u64 {
        let mut admitted = 0u64;
        while self.max_admit.is_none_or(|cap| admitted < cap) {
            let Ok(id) = self.ingress.try_recv() else {
                break;
            };
            self.pool.push_generation(round, 1);
            self.pending.entry(round).or_default().push_back(id);
            admitted += 1;
        }
        self.dispatcher.note_admitted(admitted as usize);
        self.total_admitted += admitted;
        if let Some(p) = obs::probes() {
            p.admitted.add(admitted);
        }
        admitted
    }

    /// Matches a served ball to the longest-waiting ticket of its label
    /// (balls with equal labels are interchangeable) and notifies the
    /// completion channel. Model-arrival and surge balls have no ticket.
    fn complete(&mut self, label: u64, served_round: u64, waiting_rounds: u64, bin: u64) {
        let Some(queue) = self.pending.get_mut(&label) else {
            return;
        };
        if let Some(id) = queue.pop_front() {
            let _ = self.completions_tx.send(Completion {
                ticket: Ticket::from_id(id),
                bin,
                admitted_round: label,
                served_round,
                waiting_rounds,
            });
        }
        if queue.is_empty() {
            self.pending.remove(&label);
        }
    }

    fn send_fault(&self, bin: usize, op: FaultOp) {
        let s = self.owner_of(bin);
        let local = (bin - self.ranges[s].start) as u32;
        self.workers[s]
            .cmds
            .send(ShardCmd::Fault { local, op })
            .expect("shard worker alive");
    }

    /// Position of the shard owning global `bin`. Shards own contiguous
    /// ascending ranges, so this is a binary search over range ends — and
    /// for the balanced no-churn partition it agrees bin-for-bin with
    /// `iba_core::shard::shard_of`, preserving Central-mode bit-exactness.
    fn owner_of(&self, bin: usize) -> usize {
        debug_assert!(bin < self.live_n);
        self.ranges.partition_point(|r| r.end <= bin)
    }

    /// Current position (= range order) of the worker with stable id
    /// `id`.
    fn worker_pos(&self, id: usize) -> usize {
        self.workers
            .iter()
            .position(|w| w.id == id)
            .expect("reply from a live worker")
    }

    /// Applies the membership events scheduled at `round`, in insertion
    /// order.
    fn apply_membership(&mut self, round: u64) {
        if self.mplan.is_empty() {
            return;
        }
        let events = self.mplan.events_at(round).to_vec();
        for event in events {
            let changed = match event {
                MembershipEvent::AddBins { count } => self.add_bins(count),
                MembershipEvent::RemoveBins { count } => self.remove_bins(count),
                MembershipEvent::SplitShard { shard } => self.split_shard(shard),
                MembershipEvent::MergeShards { left } => self.merge_shards(left),
            };
            if changed {
                self.membership_events += 1;
                if let Some(p) = obs::probes() {
                    p.membership_events.inc();
                }
            }
        }
    }

    /// Grows the bin set by `count`: the new bins enter at the top of the
    /// index space, online and empty — their first acceptance round primes
    /// them with their full capacity as quota.
    fn add_bins(&mut self, count: usize) -> bool {
        if count == 0 {
            return false;
        }
        let capacity = self.config.capacity();
        let parts: Vec<BinPart> = (0..count).map(|_| (capacity, Vec::new(), false)).collect();
        let last = self.shards - 1;
        self.workers[last]
            .cmds
            .send(ShardCmd::PushBins { parts })
            .expect("shard worker alive");
        self.ranges[last].end += count;
        self.live_n += count;
        true
    }

    /// Shrinks the bin set by up to `count` bins from the top (always
    /// keeping at least one). The removed bins' FIFO contents drain back
    /// into the pool with their original labels and retry from the next
    /// round; workers left with no bins retire.
    fn remove_bins(&mut self, count: usize) -> bool {
        let to_remove = count.min(self.live_n - 1);
        if to_remove == 0 {
            return false;
        }
        let mut remaining = to_remove;
        let mut drained: Vec<Ball> = Vec::new();
        while remaining > 0 {
            let pos = self.shards - 1;
            let bins_here = self.ranges[pos].len();
            if remaining >= bins_here && self.shards > 1 {
                // The whole top shard goes: capture its state, retire the
                // worker, drain every ring.
                let parts = self.snapshot_parts(pos);
                self.retire_worker(pos);
                self.ranges.pop();
                self.shards -= 1;
                self.shard_buffered.pop();
                self.shard_max_load.pop();
                for (_, contents, _) in parts {
                    drained.extend(contents);
                }
                remaining -= bins_here;
            } else {
                let take = remaining.min(bins_here - 1);
                let (tx, rx) = channel();
                self.workers[pos]
                    .cmds
                    .send(ShardCmd::PopBins {
                        count: take,
                        reply: tx,
                    })
                    .expect("shard worker alive");
                let parts = rx.recv().expect("shard worker alive");
                let mut popped_buffered = 0u64;
                for (_, contents, _) in parts {
                    popped_buffered += contents.len() as u64;
                    drained.extend(contents);
                }
                self.ranges[pos].end -= take;
                self.shard_buffered[pos] = self.shard_buffered[pos].saturating_sub(popped_buffered);
                remaining -= take;
            }
        }
        self.live_n -= to_remove;
        if !drained.is_empty() {
            self.count_balls_moved(drained.len() as u64);
            // Merge the drained rings into the pool: balls order by label
            // alone, so one sort restores the oldest-first pool invariant.
            let mut balls = self.pool.take();
            balls.extend(drained);
            balls.sort();
            self.pool.restore(balls);
        }
        true
    }

    /// Splits shard `shard`'s range at its midpoint, spawning a new
    /// worker for the upper half. Only ownership moves — no ball leaves
    /// its ring, so nothing counts as moved.
    fn split_shard(&mut self, shard: usize) -> bool {
        if shard >= self.shards || self.ranges[shard].len() < 2 {
            return false;
        }
        let range = self.ranges[shard].clone();
        let at = range.len() / 2;
        let (tx, rx) = channel();
        self.workers[shard]
            .cmds
            .send(ShardCmd::SplitOff { at, reply: tx })
            .expect("shard worker alive");
        let parts = rx.recv().expect("shard worker alive");
        let upper_buffered: u64 = parts.iter().map(|(_, c, _)| c.len() as u64).sum();
        let first_bin = range.start + at;
        let bins = BinShard::from_parts(first_bin, self.config.capacity(), parts);
        self.spawn_worker(shard + 1, bins);
        self.ranges[shard].end = first_bin;
        self.ranges.insert(shard + 1, first_bin..range.end);
        self.shards += 1;
        self.shard_buffered[shard] = self.shard_buffered[shard].saturating_sub(upper_buffered);
        self.shard_buffered.insert(shard + 1, upper_buffered);
        let stale_max = self.shard_max_load[shard];
        self.shard_max_load.insert(shard + 1, stale_max);
        true
    }

    /// Merges shard `left + 1` into shard `left`, retiring the right
    /// worker. Its buffered balls transfer between workers and count as
    /// moved.
    fn merge_shards(&mut self, left: usize) -> bool {
        let right = left + 1;
        if right >= self.shards {
            return false;
        }
        let parts = self.snapshot_parts(right);
        let moved: u64 = parts.iter().map(|(_, c, _)| c.len() as u64).sum();
        self.retire_worker(right);
        self.workers[left]
            .cmds
            .send(ShardCmd::PushBins { parts })
            .expect("shard worker alive");
        let removed_range = self.ranges.remove(right);
        self.ranges[left].end = removed_range.end;
        self.shards -= 1;
        let right_buffered = self.shard_buffered.remove(right);
        self.shard_buffered[left] += right_buffered;
        let right_max = self.shard_max_load.remove(right);
        self.shard_max_load[left] = self.shard_max_load[left].max(right_max);
        self.count_balls_moved(moved);
        true
    }

    fn count_balls_moved(&mut self, moved: u64) {
        if moved > 0 {
            self.balls_moved += moved;
            if let Some(p) = obs::probes() {
                p.balls_moved.add(moved);
            }
        }
    }

    /// Captures the full state of the worker at `pos` as push-ready parts
    /// (capacity, contents, offline) in ascending bin order.
    fn snapshot_parts(&self, pos: usize) -> Vec<BinPart> {
        let (tx, rx) = channel();
        self.workers[pos]
            .cmds
            .send(ShardCmd::Snapshot { reply: tx })
            .expect("shard worker alive");
        rx.recv().expect("shard worker alive").parts
    }

    /// Stops and joins the worker at `pos`, removing it from the fleet.
    fn retire_worker(&mut self, pos: usize) {
        let worker = self.workers.remove(pos);
        let _ = worker.cmds.send(ShardCmd::Stop);
        let _ = worker.join.join();
    }

    /// Spawns a new worker at position `pos` with a fresh stable id.
    fn spawn_worker(&mut self, pos: usize, bins: BinShard) {
        let id = self.next_worker_id;
        self.next_worker_id += 1;
        let (cmd_tx, cmd_rx) = channel();
        let reply_tx = self.reply_tx.clone();
        let join = std::thread::Builder::new()
            .name(format!("iba-serve-shard-{id}"))
            .spawn(move || worker_loop(id, bins, cmd_rx, reply_tx))
            .expect("spawn shard worker thread");
        self.workers.insert(
            pos,
            Worker {
                id,
                cmds: cmd_tx,
                join,
            },
        );
    }
}

impl Drop for CappedService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iba_sim::faults::FaultEvent;

    fn config(n: usize, c: u32, lambda: f64) -> CappedConfig {
        CappedConfig::new(n, c, lambda).unwrap()
    }

    fn model_service(n: usize, c: u32, lambda: f64, shards: usize) -> CappedService {
        CappedService::spawn(
            ServiceConfig::new(config(n, c, lambda), shards, 42).with_model_arrivals(true),
        )
        .unwrap()
    }

    #[test]
    fn spawn_rejects_invalid_configs() {
        let base = config(8, 2, 0.75);
        assert!(CappedService::spawn(ServiceConfig::new(base.clone(), 0, 1)).is_err());
        assert!(CappedService::spawn(ServiceConfig::new(base, 9, 1)).is_err());
    }

    #[test]
    fn model_rounds_conserve_and_report() {
        let mut service = model_service(32, 2, 0.75, 4);
        for _ in 0..100 {
            let report = service.run_round();
            assert!(report.conserves_balls());
            assert!(service.conserves_balls());
            assert!(report.max_load <= 2);
            assert_eq!(report.generated, 24);
        }
        assert_eq!(service.round(), 100);
        assert!(service.total_served() > 0);
        service.shutdown();
        assert!(service.conserves_balls());
    }

    #[test]
    fn submitted_requests_complete_with_waiting_times() {
        let mut service =
            CappedService::spawn(ServiceConfig::new(config(16, 2, 0.0), 2, 7)).unwrap();
        let completions = service.take_completions().unwrap();
        assert!(service.take_completions().is_none(), "receiver taken once");
        let dispatcher = service.dispatcher();
        let tickets: Vec<Ticket> = (0..10).map(|_| dispatcher.submit().unwrap()).collect();
        let report = service.run_round();
        assert_eq!(report.generated, 10);
        assert_eq!(service.total_admitted(), 10);
        // Drain until everything is served.
        let mut done = Vec::new();
        while done.len() < 10 {
            while let Ok(completion) = completions.try_recv() {
                done.push(completion);
            }
            if done.len() < 10 {
                service.run_round();
            }
        }
        assert_eq!(service.pending_tickets(), 0);
        let mut served_ids: Vec<u64> = done.iter().map(|c| c.ticket.id()).collect();
        served_ids.sort_unstable();
        let mut expected: Vec<u64> = tickets.iter().map(Ticket::id).collect();
        expected.sort_unstable();
        assert_eq!(served_ids, expected);
        for completion in &done {
            assert_eq!(completion.admitted_round, 1);
            assert!(completion.bin < 16, "bin index is global and in range");
            assert_eq!(
                completion.waiting_rounds,
                completion.served_round - completion.admitted_round
            );
        }
        assert!(service.conserves_balls());
    }

    #[test]
    fn admission_cap_defers_excess_to_later_rounds() {
        let mut service = CappedService::spawn(
            ServiceConfig::new(config(16, 2, 0.0), 2, 7).with_max_admit_per_round(Some(3)),
        )
        .unwrap();
        let dispatcher = service.dispatcher();
        for _ in 0..8 {
            dispatcher.submit().unwrap();
        }
        assert_eq!(service.run_round().generated, 3);
        assert_eq!(service.run_round().generated, 3);
        assert_eq!(service.run_round().generated, 2);
        assert_eq!(service.total_admitted(), 8);
    }

    #[test]
    fn ingress_backpressure_saturates() {
        let mut service = CappedService::spawn(
            ServiceConfig::new(config(16, 2, 0.0), 2, 7).with_ingress_capacity(4),
        )
        .unwrap();
        let dispatcher = service.dispatcher();
        for _ in 0..4 {
            dispatcher.submit().unwrap();
        }
        assert_eq!(
            dispatcher.submit(),
            Err(crate::dispatch::SubmitError::Saturated)
        );
        // Admission drains the queue; submission works again.
        service.run_round();
        assert!(dispatcher.submit().is_ok());
    }

    #[test]
    fn scheduled_crash_rejects_that_bins_requests() {
        // n = 2, 2 shards: bin 0 is shard 0's only bin. Crash it; model
        // arrivals (λ = 0.5 → 1 ball/round) can then only land in bin 1.
        let mut service = CappedService::spawn(
            ServiceConfig::new(config(2, 1, 0.5), 2, 11).with_model_arrivals(true),
        )
        .unwrap();
        service.schedule(FaultPlan::new().with(1, FaultEvent::CrashBins { bins: vec![0] }));
        let mut served_total = 0;
        for _ in 0..50 {
            let report = service.run_round();
            assert!(report.conserves_balls());
            assert!(service.conserves_balls());
            served_total += report.deleted;
        }
        // Bin 1 can serve at most one ball per round; with bin 0 down the
        // pool backs up rather than losing balls.
        assert!(served_total <= 50);
        assert!(service.pool_size() > 0 || service.buffered() > 0 || served_total == 50);
    }

    #[test]
    fn pool_surge_enters_with_pre_round_label() {
        let mut service = model_service(8, 1, 0.5, 2);
        service.run_round();
        service.schedule(FaultPlan::new().with(2, FaultEvent::PoolSurge { extra: 5 }));
        let report = service.run_round();
        // 4 model balls + 5 surged (labeled round 1) all compete.
        assert_eq!(report.generated, 4);
        assert!(report.thrown >= 9);
        assert!(service.conserves_balls());
    }

    #[test]
    fn snapshot_reflects_counters() {
        let mut service = model_service(32, 2, 0.75, 4);
        for _ in 0..20 {
            service.run_round();
        }
        let snap = service.snapshot();
        assert_eq!(snap.round, 20);
        assert_eq!(snap.total_generated, 20 * 24);
        assert_eq!(snap.shard_max_load.len(), 4);
        assert_eq!(snap.pool_size, service.pool_size() as u64);
        assert!(snap.wait.is_some());
        let line = snap.to_json_line();
        assert!(line.contains("\"round\":20"));
    }

    #[test]
    #[should_panic(expected = "shut down")]
    fn run_after_shutdown_panics() {
        let mut service = model_service(8, 1, 0.5, 2);
        service.shutdown();
        service.run_round();
    }

    #[test]
    fn checkpoint_resume_continues_bit_identically() {
        let config = ServiceConfig::new(config(32, 2, 0.75), 4, 42).with_model_arrivals(true);
        let mut original = CappedService::spawn(config.clone()).unwrap();
        for _ in 0..30 {
            original.run_round();
        }
        let bytes = original.checkpoint_bytes();
        let mut resumed = CappedService::resume(config, &bytes).unwrap();
        assert_eq!(resumed.round(), 30);
        assert_eq!(resumed.total_generated(), original.total_generated());
        assert_eq!(resumed.pool_size(), original.pool_size());
        assert_eq!(resumed.buffered(), original.buffered());
        assert!(resumed.conserves_balls());
        for r in 0..25 {
            assert_eq!(
                original.run_round(),
                resumed.run_round(),
                "diverged at +{r}"
            );
        }
    }

    #[test]
    fn central_resume_works_across_shard_counts() {
        let capped = config(32, 2, 0.75);
        let cfg4 = ServiceConfig::new(capped.clone(), 4, 9).with_model_arrivals(true);
        let mut original = CappedService::spawn(cfg4.clone()).unwrap();
        for _ in 0..20 {
            original.run_round();
        }
        let bytes = original.checkpoint_bytes();
        // The driver owns all the randomness, so the resumed topology is
        // free to differ.
        let cfg2 = ServiceConfig::new(capped, 2, 9).with_model_arrivals(true);
        let mut resumed = CappedService::resume(cfg2, &bytes).unwrap();
        for _ in 0..20 {
            assert_eq!(original.run_round(), resumed.run_round());
        }
    }

    #[test]
    fn resume_rejects_incompatible_configs() {
        let base = ServiceConfig::new(config(16, 2, 0.5), 2, 7).with_model_arrivals(true);
        let mut service = CappedService::spawn(base.clone()).unwrap();
        service.run_rounds(5);
        let bytes = service.checkpoint_bytes();

        let other_capped = ServiceConfig::new(config(16, 3, 0.5), 2, 7).with_model_arrivals(true);
        assert!(matches!(
            CappedService::resume(other_capped, &bytes),
            Err(ResumeError::ConfigMismatch)
        ));

        // A per-shard envelope in the layout older versions wrote (mode
        // word 1, then one 4-word RNG stream per shard) is well-formed
        // and CRC-valid, and still rejected at the mode word.
        let mut dec = Decoder::new(&bytes).unwrap();
        dec.header(ENVELOPE_TAG, ENVELOPE_VERSION).unwrap();
        let mut enc = Encoder::new();
        enc.header(ENVELOPE_TAG, ENVELOPE_VERSION);
        enc.byte_seq(dec.byte_seq("core checkpoint").unwrap());
        assert_eq!(dec.u32("rng mode").unwrap(), 0);
        enc.u32(1);
        let shards = dec.usize("shard count").unwrap();
        enc.usize(shards);
        enc.u64_seq((0..4 * shards).map(|w| w as u64));
        for what in ["ticket watermark", "total admitted", "total expired"] {
            enc.u64(dec.u64(what).unwrap());
        }
        assert_eq!(dec.usize("pending ticket map").unwrap(), 0);
        enc.usize(0);
        enc.usize(dec.usize("live bin count").unwrap());
        enc.u64_seq(dec.u64_seq("shard range ends").unwrap().into_iter());
        enc.u64(dec.u64("balls moved").unwrap());
        enc.u64(dec.u64("membership events").unwrap());
        assert!(dec.is_exhausted());
        assert!(matches!(
            CappedService::resume(base.clone(), &enc.finish()),
            Err(ResumeError::Invalid { what: "rng mode" })
        ));

        // Corruption fails the CRC before any field parses.
        let mut corrupt = bytes.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0xff;
        assert!(matches!(
            CappedService::resume(base.clone(), &corrupt),
            Err(ResumeError::Codec(_))
        ));
        assert!(CappedService::resume(base, &bytes[..20]).is_err());
    }

    #[test]
    fn pending_tickets_survive_a_checkpoint() {
        let cfg = ServiceConfig::new(config(16, 2, 0.0), 2, 7);
        let mut service = CappedService::spawn(cfg.clone()).unwrap();
        // Crash every bin so admitted requests stay pooled, pinning their
        // tickets in the pending map across the checkpoint.
        service.schedule(FaultPlan::new().with(
            1,
            FaultEvent::CrashBins {
                bins: (0..16).collect(),
            },
        ));
        let dispatcher = service.dispatcher();
        let tickets: Vec<u64> = (0..6).map(|_| dispatcher.submit().unwrap().id()).collect();
        service.run_round();
        assert_eq!(service.pending_tickets(), 6);
        let bytes = service.checkpoint_bytes();

        let mut resumed = CappedService::resume(cfg, &bytes).unwrap();
        assert_eq!(resumed.pending_tickets(), 6);
        let completions = resumed.take_completions().unwrap();
        // New submissions never collide with pre-crash ticket ids.
        let fresh = resumed.dispatcher().submit().unwrap().id();
        assert!(fresh > *tickets.iter().max().unwrap());
        // Recover the bins; the pre-crash tickets complete on the resumed
        // service with their original ids.
        resumed.schedule(FaultPlan::new().with(
            2,
            FaultEvent::RecoverBins {
                bins: (0..16).collect(),
            },
        ));
        let mut done = Vec::new();
        for _ in 0..50 {
            resumed.run_round();
            while let Ok(c) = completions.try_recv() {
                done.push(c.ticket.id());
            }
            if done.len() >= 7 {
                break;
            }
        }
        for id in &tickets {
            assert!(done.contains(id), "pre-crash ticket {id} completed");
        }
    }

    #[test]
    fn ticket_ttl_reaps_notification_state() {
        let mut service = CappedService::spawn(
            ServiceConfig::new(config(4, 1, 0.0), 2, 3).with_ticket_ttl_rounds(Some(3)),
        )
        .unwrap();
        // No bin ever serves: all crashed from round 1.
        service.schedule(FaultPlan::new().with(
            1,
            FaultEvent::CrashBins {
                bins: vec![0, 1, 2, 3],
            },
        ));
        let dispatcher = service.dispatcher();
        for _ in 0..5 {
            dispatcher.submit().unwrap();
        }
        service.run_round(); // admitted at round 1
        assert_eq!(service.pending_tickets(), 5);
        service.run_round(); // waited 1
        service.run_round(); // waited 2
        assert_eq!(service.pending_tickets(), 5, "not yet expired");
        service.run_round(); // waited 3 = TTL: reaped
        assert_eq!(service.pending_tickets(), 0);
        assert_eq!(service.total_expired(), 5);
        assert_eq!(service.drain_expired_tickets().len(), 5);
        assert!(service.drain_expired_tickets().is_empty(), "drained once");
        // The balls themselves are still conserved (pooled, not lost).
        assert!(service.conserves_balls());
        assert_eq!(service.pool_size(), 5);
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn zero_ttl_is_rejected() {
        let _ = ServiceConfig::new(config(4, 1, 0.0), 1, 3).with_ticket_ttl_rounds(Some(0));
    }
}
