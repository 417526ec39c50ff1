//! The sharded CAPPED(c, λ) dispatch service.
//!
//! [`CappedService::spawn`] partitions the configured bins into `S`
//! contiguous shards and wires up the admission front end. The driver
//! (the thread calling [`run_round`](CappedService::run_round)) owns
//! every shard and runs every shard's round itself, so the service
//! starts no thread. Each call executes the paper's Algorithm 1 once:
//!
//! 1. apply the scheduled membership changes and fault events (through
//!    [`FaultSchedule`], the same applier
//!    [`iba_sim::faults::FaultedProcess`] uses);
//! 2. generate arrivals — the configured arrival model, client requests
//!    admitted from the bounded ingress queue, or both — into the pool;
//! 3. draw every pooled ball's bin in bulk
//!    ([`SimRng::fill_uniform_bins`], consumption-identical to one
//!    uniform draw per ball, oldest-first), route the pool's label runs in
//!    the same pass — each shard gets the local bin of every ball it owns
//!    and the label runs of those balls;
//! 4. run every shard's bin-local round in shard order and merge: the
//!    shards' reject runs merge label by label back into the global pool
//!    (retrying next round), served balls produce waiting times and
//!    ticket [`Completion`]s in bin order.
//!
//! Faults, membership changes and checkpoints are plain method calls on
//! the shards' [`BinShard`]s between rounds. The bins of one round
//! accept and serve independently, so running the shards one after
//! another on one thread is Algorithm 1's round as it stands; the
//! service's only concurrency is its callers ([`Dispatcher`] clones on
//! any thread, a network front end on its own).
//!
//! Rejected requests never time out — exactly the paper's pool
//! semantics. Together with the driver owning the only RNG stream, this
//! is what makes the service's trajectory provably identical to
//! `CappedProcess` under the same seed, for any shard count.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;

use iba_analysis::bounds::theorem2_pool_bound;
use iba_core::metrics::WaitQuantiles;
use iba_core::pool::Run;
use iba_core::shard::{shard_range, BinShard};
use iba_core::{Capacity, CappedConfig, CappedProcess, KernelMode, Pool};
use iba_membership::{Autoscaler, MembershipEvent, MembershipPlan};
use iba_sim::codec::{Decoder, Encoder};
use iba_sim::error::ConfigError;
use iba_sim::faults::{FaultAction, FaultPlan, FaultSchedule};
use iba_sim::process::RoundReport;
use iba_sim::stats::Histogram;
use iba_sim::{AllocationProcess, SimRng, Simulation};

use crate::checkpoint::ResumeError;
use crate::dispatch::{Completion, Dispatcher, Ingress, Ticket};
use crate::metrics::ServeSnapshot;
use crate::obs;
use crate::shard::Slot;

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

/// Balls whose bins the driver draws and routes at a time: the choices
/// stay in L1 between the draw and the routing.
const ROUTE_CHUNK: usize = 1024;

/// Where the service's randomness comes from.
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
    /// Number of shards (`1..=n`): the contiguous bin ranges that
    /// membership events split and merge. The driver runs every shard's
    /// round.
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

/// A running sharded CAPPED(c, λ) service. See the [module docs](self)
/// for the per-round protocol.
///
/// Dropping the service closes its ingress; [`shutdown`](Self::shutdown)
/// ends its rounds.
pub struct CappedService {
    config: CappedConfig,
    /// The shards in bin order; they tile `0..live_bins()`.
    slots: Vec<Slot>,
    model_arrivals: bool,
    max_admit: Option<u64>,
    driver_rng: SimRng,
    /// The bounded ingress queue every [`Dispatcher`] clone submits to.
    ingress: Arc<Ingress>,
    /// Where completions go once [`take_completions`](Self::take_completions)
    /// has made the channel; until then they are not kept.
    completions: Option<Sender<Completion>>,
    faults: FaultSchedule,
    /// Scheduled membership changes (applied at round boundaries, before
    /// that round's faults).
    mplan: MembershipPlan,
    /// Optional scaling policy; observed once per round, its events are
    /// scheduled for the next round boundary.
    autoscaler: Option<Autoscaler>,
    /// Lifetime count of membership events that changed the topology.
    membership_events: u64,
    /// Lifetime count of balls physically relocated by membership changes
    /// (drained from removed bins or transferred between shards).
    balls_moved: u64,
    pool: Pool,
    /// Tickets awaiting service: one id range per round that admitted
    /// any, in ascending label order, none empty. Labels never exceed
    /// `round` and ids ascend with labels, so admission appends and TTL
    /// reaping pops the front. Balls with equal labels are
    /// interchangeable, so matching a served ball to the longest-waiting
    /// ticket of its label is consistent.
    pending: VecDeque<PendingRound>,
    round: u64,
    total_generated: u64,
    total_admitted: u64,
    total_served: u64,
    wait_hist: Histogram,
    ticket_ttl: Option<u64>,
    /// Ticket ids reaped by TTL expiry since the last
    /// [`drain_expired_tickets`](Self::drain_expired_tickets) call.
    expired_tickets: Vec<u64>,
    total_expired: u64,
    stopped: bool,
}

/// The tickets admitted in round `label` that still await a served ball
/// of that label. A round admits one contiguous id range and completions
/// take its ids in order, so what is left is always a suffix of it.
#[derive(Debug)]
struct PendingRound {
    label: u64,
    ids: Range<u64>,
}

impl std::fmt::Debug for CappedService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CappedService")
            .field("config", &self.config)
            .field("live_bins", &self.live_bins())
            .field("shards", &self.shards())
            .field("round", &self.round)
            .field("pool_size", &self.pool.len())
            .finish_non_exhaustive()
    }
}

impl CappedService {
    /// Partitions the bins and returns the running service.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::OutOfDomain`] if the shard count is outside
    /// `1..=n`.
    pub fn spawn(config: ServiceConfig) -> Result<Self, ConfigError> {
        Self::validate(&config)?;
        let n = config.capped.bins();
        let slots = (0..config.shards)
            .map(|s| {
                Slot::new(BinShard::new(
                    &config.capped,
                    shard_range(n, config.shards, s),
                ))
            })
            .collect();
        Ok(Self::assemble(
            &config,
            SimRng::seed_from(config.seed),
            slots,
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

    /// Builds the service around prepared shards; shared by
    /// [`spawn`](Self::spawn) (fresh shards) and [`resume`](Self::resume)
    /// (checkpointed shards).
    fn assemble(
        config: &ServiceConfig,
        driver_rng: SimRng,
        slots: Vec<Slot>,
        first_ticket_id: u64,
    ) -> Self {
        CappedService {
            slots,
            model_arrivals: config.model_arrivals,
            max_admit: config.max_admit_per_round,
            driver_rng,
            ingress: Arc::new(Ingress::new(
                config.ingress_capacity.max(1),
                first_ticket_id,
            )),
            completions: None,
            faults: FaultSchedule::default(),
            mplan: MembershipPlan::new(),
            autoscaler: None,
            membership_events: 0,
            balls_moved: 0,
            pool: Pool::new(),
            pending: VecDeque::new(),
            round: 0,
            total_generated: 0,
            total_admitted: 0,
            total_served: 0,
            wait_hist: Histogram::new(),
            ticket_ttl: config.ticket_ttl_rounds,
            expired_tickets: Vec::new(),
            total_expired: 0,
            stopped: false,
            config: config.capped.clone(),
        }
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
    /// and the pending tickets. The resumed trajectory is
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
    /// CAPPED configuration differs from the checkpoint's, the envelope
    /// records an RNG mode other than the driver-owned stream (word 0), or
    /// a pending ticket map no running service leaves: a label past the
    /// checkpoint's round, ids that are not one ascending range per label
    /// below the watermark, or more tickets of a label than balls.
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
        // The count comes from outside input: it bounds the loop, which
        // the decoder ends at the data's end, but never sizes a buffer.
        let pending_len = dec.usize("pending ticket map")?;
        let mut pending: VecDeque<PendingRound> = VecDeque::new();
        for _ in 0..pending_len {
            let label = dec.u64("pending label")?;
            if pending.back().is_some_and(|prev| prev.label >= label) {
                return Err(ResumeError::Invalid {
                    what: "pending label order",
                });
            }
            let ids = dec.u64_seq("pending ticket ids")?;
            let (Some(&first), Some(&last)) = (ids.first(), ids.last()) else {
                return Err(ResumeError::Invalid {
                    what: "empty pending queue",
                });
            };
            // A round admits one id range, after the previous round's and
            // below the watermark, and completions and reaping only remove
            // its oldest ids. Anything else queues some ticket twice, or
            // one that `submit` issues again.
            if last >= next_ticket_id
                || pending.back().is_some_and(|prev| prev.ids.end > first)
                || ids.windows(2).any(|w| w[0].checked_add(1) != Some(w[1]))
            {
                return Err(ResumeError::Invalid {
                    what: "pending ticket ids",
                });
            }
            pending.push_back(PendingRound {
                label,
                ids: first..last + 1,
            });
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
        // No restored ball carries a label past the checkpoint's round, so
        // this also refuses tickets that would take the completions of a
        // later admission.
        if !tickets_have_balls(&pending, process) {
            return Err(ResumeError::Invalid {
                what: "more pending tickets of a label than balls",
            });
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
        let slots = ranges
            .into_iter()
            .map(|range| {
                let first_bin = range.start;
                let parts = range
                    .map(|i| {
                        let bin = process.bin(i);
                        let contents = bin.iter().copied().collect();
                        (bin.capacity(), contents, process.is_bin_offline(i))
                    })
                    .collect();
                Slot::new(BinShard::from_parts(first_bin, parts))
            })
            .collect();

        let mut service = Self::assemble(&config, driver_rng, slots, next_ticket_id);
        service.round = process.round();
        service.total_generated = process.total_generated();
        service.total_served = process.total_deleted();
        service.total_admitted = total_admitted;
        service.total_expired = total_expired;
        service.balls_moved = balls_moved;
        service.membership_events = membership_events;
        service.pool = process.pool().clone();
        service.pending = pending;
        if let Some(p) = obs::probes() {
            p.checkpoint_resumes.inc();
            p.resume_round.set(service.round);
        }
        Ok(service)
    }

    /// Serializes the full service state for a later
    /// [`resume`](Self::resume): the embedded core checkpoint (`IBA1`,
    /// byte-compatible with `iba_core::checkpoint`) wrapped in the serve
    /// envelope (`IBSV`). The driver holds every shard between rounds, so
    /// the capture is consistent.
    pub fn checkpoint_bytes(&self) -> Vec<u8> {
        // The inner core checkpoint is the `iba_core::checkpoint` of the
        // process this service is: the pool, the counters, the driver's
        // RNG, and one shard holding every bin (shards own contiguous
        // ascending ranges, so concatenating their parts in shard order
        // walks the bins globally in order). Restore-side validation (CRC,
        // conservation, pool order) comes for free. A mid-resize service
        // embeds the resized configuration so that validation runs
        // against the live bin count.
        let live_n = self.live_bins();
        let inner_config = if live_n == self.config.bins() {
            self.config.clone()
        } else {
            self.config
                .clone()
                .resized(live_n)
                .expect("membership is gated to resizable configurations")
        };
        let parts = self
            .slots
            .iter()
            .flat_map(|slot| slot.bins.to_parts())
            .collect();
        let process = CappedProcess::from_parts(
            inner_config,
            BinShard::from_parts(0, parts),
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
        enc.usize(self.shards());
        enc.u64(self.ingress.next_id());
        enc.u64(self.total_admitted);
        enc.u64(self.total_expired);
        enc.usize(self.pending.len());
        for entry in &self.pending {
            enc.u64(entry.label);
            enc.u64(entry.ids.end - entry.ids.start); // `u64_seq`'s layout
            entry.ids.clone().for_each(|id| enc.u64(id));
        }
        // Membership section (envelope v2).
        enc.usize(live_n);
        enc.u64_seq(self.slots.iter().map(|slot| slot.end() as u64));
        enc.u64(self.balls_moved);
        enc.u64(self.membership_events);
        if let Some(p) = obs::probes() {
            p.checkpoint_saves.inc();
        }
        enc.finish()
    }

    /// A cloneable client handle for submitting requests.
    pub fn dispatcher(&self) -> Dispatcher {
        Dispatcher::new(Arc::clone(&self.ingress))
    }

    /// Takes the completion-notification receiver. Callable once; later
    /// calls return `None`. The channel starts at this call: completions
    /// of the rounds run before it are discarded, not buffered, and the
    /// receiver gets every completion from the next round on.
    pub fn take_completions(&mut self) -> Option<Receiver<Completion>> {
        if self.completions.is_some() {
            return None;
        }
        let (tx, rx) = channel();
        self.completions = Some(tx);
        Some(rx)
    }

    /// Schedules `plan`'s fault events against the service's round
    /// counter, merging with any previously scheduled events
    /// (same-round events keep insertion order; already-past rounds never
    /// fire — [`FaultedProcess`](iba_sim::faults::FaultedProcess)
    /// semantics).
    pub fn schedule(&mut self, plan: FaultPlan) {
        self.faults.extend(plan);
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
        self.mplan.extend(plan);
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

    /// Number of shards. Moves with shard split/merge events and
    /// shrink-driven retirements.
    pub fn shards(&self) -> usize {
        self.slots.len()
    }

    /// Live bin count; starts at `config().bins()` and moves with
    /// membership events.
    pub fn live_bins(&self) -> usize {
        self.slots.last().map_or(0, |slot| slot.end())
    }

    /// Lifetime count of membership events that changed the topology.
    pub fn membership_events(&self) -> u64 {
        self.membership_events
    }

    /// Lifetime count of balls physically relocated by membership changes
    /// (drained from removed bins back into the pool, or transferred
    /// between shards by a shard merge).
    pub fn balls_moved(&self) -> u64 {
        self.balls_moved
    }

    /// Acceptance kernel every shard runs: always [`KernelMode::Arena`],
    /// the one kernel. Kept for the repository benchmark, which prints it;
    /// it goes with the benchmark's API shims (ROADMAP item 3).
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
        self.slots.iter().map(|slot| slot.stats.buffered).sum()
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

    /// Number of admitted requests not yet served (and not reaped), summed
    /// over the pending rounds.
    pub fn pending_tickets(&self) -> usize {
        self.pending
            .iter()
            .map(|e| (e.ids.end - e.ids.start) as usize)
            .sum()
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
            bins: self.live_bins() as u64,
            pool_size: self.pool.len() as u64,
            buffered: self.buffered(),
            shard_max_load: self.slots.iter().map(|slot| slot.stats.max_load).collect(),
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
    /// Panics if the service was shut down.
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
        let n = self.live_bins();

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

        // 3. Draw every pooled ball's bin (oldest-first, in cache-sized
        // bulk draws that consume the stream exactly as one draw per ball
        // would) and route each ball to the shard owning its bin.
        let route_timer = iba_obs::PhaseTimer::start();
        let mut runs = self.pool.take_runs();
        route(&mut self.slots, &mut self.driver_rng, n, &runs);

        // 4. Run every shard's round in shard order, then merge.
        let merge_timer = iba_obs::PhaseTimer::start();
        if let Some(p) = obs::probes() {
            route_timer.observe(&p.phase_route_nanos);
        }
        self.slots.iter_mut().for_each(Slot::run);

        let mut accepted = 0u64;
        let mut failed_deletions = 0u64;
        let mut buffered = 0u64;
        let mut max_load = 0u64;
        let served_before = self.total_served;
        let mut waiting_times =
            Vec::with_capacity(self.slots.iter().map(|slot| slot.served.len()).sum());
        for slot in &self.slots {
            accepted += slot.stats.accepted;
            failed_deletions += slot.stats.failed_deletions;
            buffered += slot.stats.buffered;
            max_load = max_load.max(slot.stats.max_load);
            // Shards own contiguous bin ranges, so concatenating in shard
            // order reproduces the bare process's bin-order vector.
            let first_bin = slot.bins.first_bin() as u64;
            for &(local, ball) in &slot.served {
                let wait = ball.age_at(round);
                waiting_times.push(wait);
                complete(
                    &mut self.pending,
                    self.completions.as_ref(),
                    ball.label(),
                    round,
                    wait,
                    first_bin + u64::from(local),
                );
            }
        }
        self.total_served += waiting_times.len() as u64;
        self.wait_hist.record_all(&waiting_times);

        // The pool's run buffer takes the merged rejects.
        merge_rejects(&mut self.slots, &mut runs);
        self.pool.restore_runs(runs);

        // 5. Deadline reaping: forget completion-notification state for
        // tickets past the TTL. The balls themselves stay pooled/buffered
        // and still get served — only the notification is dropped, so the
        // paper's process trajectory is untouched. Labels ascend, so the
        // expired entries are a prefix.
        if let Some(ttl) = self.ticket_ttl {
            let mut reaped = 0u64;
            while self
                .pending
                .front()
                .is_some_and(|entry| round.saturating_sub(entry.label) >= ttl)
            {
                let ids = self.pending.pop_front().expect("front checked").ids;
                reaped += ids.end - ids.start;
                self.expired_tickets.extend(ids);
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
            let bound = theorem2_pool_bound(n, c, self.config.lambda());
            let (_decision, event) = scaler.observe(round, n, self.pool.len() as u64, bound);
            if let Some(event) = event {
                self.mplan.insert(round + 1, event);
            }
        }

        if let Some(p) = obs::probes() {
            merge_timer.observe(&p.phase_merge_nanos);
            round_timer.observe(&p.round_nanos);
            p.live_bins.set(n as u64);
            p.live_shards.set(self.shards() as u64);
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

    /// Ends the service's rounds. Statistics accessors and checkpoints
    /// remain usable; further `run_round` calls panic.
    pub fn shutdown(&mut self) {
        self.stopped = true;
    }

    /// Applies the faults due before `round` to the shards and the pool.
    fn apply_faults(&mut self, round: u64) {
        let n = self.live_bins();
        self.faults.apply(round, n, |action| match action {
            FaultAction::Crash(i) | FaultAction::Recover(i) => {
                let (slot, local) = locate(&mut self.slots, i);
                slot.bins
                    .set_offline(local, matches!(action, FaultAction::Crash(_)));
            }
            FaultAction::SetCapacity(i, capacity) => {
                let capacity = capacity.map_or(Capacity::Infinite, |c| {
                    Capacity::finite(c).expect("schedules skip zero capacities")
                });
                let (slot, local) = locate(&mut self.slots, i);
                slot.bins.set_capacity(local, capacity);
            }
            // Unticketed balls labeled with the *current* (pre-step)
            // round — `CappedProcess::inject_pool` semantics.
            FaultAction::Surge(extra) => {
                self.pool.push_generation(self.round, extra);
                self.total_generated += extra;
                if let Some(p) = obs::probes() {
                    p.surge_balls.add(extra);
                }
            }
        });
    }

    /// Admits the oldest queued ids (up to the per-round cap) into the
    /// pool in one range take, queueing that range as one `pending` entry.
    fn admit(&mut self, round: u64) -> u64 {
        if let Some(p) = obs::probes() {
            p.ingress_depth.set(self.ingress.depth());
        }
        let ids = self.ingress.take(self.max_admit);
        let admitted = ids.end - ids.start;
        self.pool.push_generation(round, admitted);
        if admitted > 0 {
            debug_assert!(self.pending.back().is_none_or(|last| last.label < round));
            self.pending.push_back(PendingRound { label: round, ids });
        }
        self.total_admitted += admitted;
        if let Some(p) = obs::probes() {
            p.admitted.add(admitted);
        }
        admitted
    }

    /// Applies the membership events scheduled at `round`, in insertion
    /// order.
    fn apply_membership(&mut self, round: u64) {
        if self.mplan.is_empty() {
            return;
        }
        for event in self.mplan.take_due(round) {
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
    /// index space, online and empty, with their full capacity as
    /// acceptance bound.
    fn add_bins(&mut self, count: usize) -> bool {
        let capacity = self.config.capacity();
        let top = &mut self.slots.last_mut().expect("at least one shard").bins;
        for _ in 0..count {
            top.push_bin_with(capacity, &[], false);
        }
        count > 0
    }

    /// Shrinks the bin set by up to `count` bins from the top (always
    /// keeping at least one). The removed bins' FIFO contents drain back
    /// into the pool with their original labels and retry from the next
    /// round; a shard whose last bin goes is dropped.
    fn remove_bins(&mut self, count: usize) -> bool {
        let to_remove = count.min(self.live_bins() - 1);
        let mut drained = Vec::new();
        for _ in 0..to_remove {
            let top = self.slots.last_mut().expect("a bin stays");
            if top.bins.len() > 1 {
                drained.extend(top.bins.pop_bin().1);
            } else {
                let top = self.slots.pop().expect("a bin stays");
                drained.extend(
                    top.bins
                        .to_parts()
                        .into_iter()
                        .flat_map(|(_, balls, _)| balls),
                );
            }
        }
        if !drained.is_empty() {
            self.count_balls_moved(drained.len() as u64);
            // The drained balls keep their labels: they merge into the
            // pool's runs of the same labels.
            self.pool.merge_balls(drained);
        }
        to_remove > 0
    }

    /// Splits shard `shard`'s range at its midpoint into a new shard for
    /// the upper half. Only ownership moves — no ball leaves its ring, so
    /// nothing counts as moved.
    fn split_shard(&mut self, shard: usize) -> bool {
        let Some(slot) = self.slots.get_mut(shard).filter(|s| s.bins.len() >= 2) else {
            return false;
        };
        let at = slot.bins.len() / 2;
        let first_bin = slot.bins.first_bin() + at;
        let upper = slot.bins.split_off(at);
        let upper = BinShard::from_parts(first_bin, upper);
        self.slots.insert(shard + 1, Slot::new(upper));
        true
    }

    /// Merges shard `left + 1` into shard `left`. Its buffered balls
    /// transfer between shards and count as moved.
    fn merge_shards(&mut self, left: usize) -> bool {
        if left + 1 >= self.slots.len() {
            return false;
        }
        let parts = self.slots.remove(left + 1).bins.to_parts();
        let bins = &mut self.slots[left].bins;
        let mut moved = 0u64;
        for (capacity, balls, offline) in parts {
            moved += balls.len() as u64;
            bins.push_bin_with(capacity, &balls, offline);
        }
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
}

/// Position of the shard owning global `bin`. Shards own contiguous
/// ascending ranges, so this is a binary search over range ends — and for
/// the balanced no-churn partition it agrees bin-for-bin with
/// `iba_core::shard::shard_of`, preserving bit-exactness.
fn owner_of(slots: &[Slot], bin: usize) -> usize {
    slots.partition_point(|slot| slot.end() <= bin)
}

/// Draws the bin of every ball of `runs` (oldest-first, in bulk chunks of
/// at most [`ROUTE_CHUNK`] balls of one run, which consume `rng` exactly
/// as one draw per ball would) and routes it to the shard owning that
/// bin in one pass: the owner gets the ball's local bin, and at the end
/// of each run every shard closes it with the number of its balls it
/// received. Each shard thus sees its balls in pool (oldest-first)
/// order, and routing costs O(balls × log shards + runs × shards).
fn route(slots: &mut [Slot], rng: &mut SimRng, n: usize, runs: &[Run]) {
    // The shards' bin ranges, read once: the per-ball owner search is
    // `owner_of`'s binary search over range ends, kept in two small
    // arrays instead of reaching into every slot.
    let ends: Vec<u32> = slots.iter().map(|slot| slot.end() as u32).collect();
    let firsts: Vec<u32> = slots
        .iter()
        .map(|slot| slot.bins.first_bin() as u32)
        .collect();
    let mut chunk = [0u32; ROUTE_CHUNK];
    for run in runs {
        let mut left = run.count;
        while left > 0 {
            let take = left.min(ROUTE_CHUNK as u64) as usize;
            let chunk = &mut chunk[..take];
            rng.fill_uniform_bins(n, chunk);
            for &bin in chunk.iter() {
                let owner = ends.partition_point(|&end| end <= bin);
                slots[owner].choices.push(bin - firsts[owner]);
            }
            left -= take as u64;
        }
        for slot in slots.iter_mut() {
            slot.close_run(run.label);
        }
    }
}

/// Matches a served ball to the longest-waiting ticket of its label
/// (balls with equal labels are interchangeable) and notifies the
/// completion channel. Model-arrival and surge balls have no ticket.
fn complete(
    pending: &mut VecDeque<PendingRound>,
    completions: Option<&Sender<Completion>>,
    label: u64,
    served_round: u64,
    waiting_rounds: u64,
    bin: u64,
) {
    let at = pending.partition_point(|entry| entry.label < label);
    let Some(entry) = pending.get_mut(at).filter(|e| e.label == label) else {
        return;
    };
    let id = entry.ids.start;
    entry.ids.start += 1;
    if entry.ids.is_empty() {
        pending.remove(at);
    }
    if let Some(tx) = completions {
        let _ = tx.send(Completion {
            ticket: Ticket::from_id(id),
            bin,
            admitted_round: label,
            served_round,
            waiting_rounds,
        });
    }
}

/// Merges the shards' reject runs into `out`, oldest-first, emptying the
/// shards' reject buffers. Each shard's rejects are already canonical
/// runs, so taking every shard's youngest run of the youngest label in
/// turn and summing their counts builds the merged runs from the back in
/// time linear in labels × shards.
fn merge_rejects(slots: &mut [Slot], out: &mut Vec<Run>) {
    out.clear();
    while let Some(youngest) = slots
        .iter()
        .filter_map(|slot| slot.rejected.last())
        .map(|run| run.label)
        .max()
    {
        let mut count = 0;
        for rejected in slots.iter_mut().map(|slot| &mut slot.rejected) {
            if rejected.last().is_some_and(|run| run.label == youngest) {
                count += rejected.pop().expect("last run checked").count;
            }
        }
        out.push(Run::new(youngest, count));
    }
    out.reverse();
}

/// Whether `process` holds at least as many balls of each pending label
/// as there are tickets of it, as a running service always does:
/// admission adds a ball per ticket, and a served ball completes at most
/// one ticket of its label. A ticket without a ball would never complete.
fn tickets_have_balls(pending: &VecDeque<PendingRound>, process: &CappedProcess) -> bool {
    let mut unbacked: Vec<u64> = pending.iter().map(|e| e.ids.end - e.ids.start).collect();
    let buffered = (0..process.config().bins()).flat_map(|i| process.bin(i).iter().copied());
    for ball in process.pool().iter().chain(buffered) {
        if let Ok(at) = pending.binary_search_by_key(&ball.label(), |e| e.label) {
            unbacked[at] = unbacked[at].saturating_sub(1);
        }
    }
    unbacked.iter().all(|&left| left == 0)
}

/// The shard owning global `bin`, and `bin`'s index within it.
fn locate(slots: &mut [Slot], bin: usize) -> (&mut Slot, usize) {
    let slot = &mut slots[owner_of(slots, bin)];
    let local = bin - slot.bins.first_bin();
    (slot, local)
}

impl Drop for CappedService {
    /// Closes the ingress: later submissions, and submitters parked on a
    /// full queue, get [`SubmitError::Closed`].
    ///
    /// [`SubmitError::Closed`]: crate::SubmitError::Closed
    fn drop(&mut self) {
        self.ingress.close();
    }
}
