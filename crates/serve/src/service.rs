//! The CAPPED(c, λ) dispatch service: the process plus tickets.
//!
//! A [`CappedService`] holds one [`CappedProcess`] over the live bins and
//! the one RNG stream that steps it, and wires the admission front end
//! around them. The driver (the thread calling
//! [`run_round`](CappedService::run_round)) executes the paper's
//! Algorithm 1 once per call:
//!
//! 1. apply the scheduled membership changes (bins join and leave at the
//!    top of the index space) and fault events (through [`FaultSchedule`],
//!    the same applier [`iba_sim::faults::FaultedProcess`] uses);
//! 2. count the round's arrivals — the configured arrival model's sample,
//!    client requests admitted from the bounded ingress queue, or both;
//! 3. step the process with them
//!    ([`CappedProcess::step_with_arrivals`]): every pooled ball draws its
//!    bin, the bins accept oldest-first and serve, and a sink records the
//!    bin of every served ball;
//! 4. complete tickets in one pass over the served balls, in bin order: a
//!    ball that waited `w` rounds carries label `round − w` and takes the
//!    longest-waiting ticket of that label.
//!
//! The service starts no thread; its only concurrency is its callers
//! ([`Dispatcher`] clones on any thread, a network front end on its own).
//!
//! Rejected requests never time out — exactly the paper's pool
//! semantics. The service's round *is* the process's round, so its
//! trajectory is identical to `CappedProcess` under the same seed.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;

use iba_analysis::bounds::theorem2_pool_bound;
use iba_core::metrics::WaitQuantiles;
use iba_core::{CappedConfig, CappedProcess, KernelMode};
use iba_membership::{Autoscaler, MembershipEvent, MembershipPlan};
use iba_sim::codec::{Decoder, Encoder};
use iba_sim::error::ConfigError;
use iba_sim::faults::{FaultPlan, FaultSchedule};
use iba_sim::process::RoundReport;
use iba_sim::stats::Histogram;
use iba_sim::{AllocationProcess, SimRng};

use crate::checkpoint::ResumeError;
use crate::dispatch::{Completion, Dispatcher, Ingress, Ticket};
use crate::metrics::ServeSnapshot;
use crate::obs;

/// Service checkpoint envelope tag ("IBa SerVe"). The envelope wraps a
/// complete `iba_core::checkpoint` payload (tag `IBA1`) as an opaque byte
/// blob and adds the serve-only state around it: the RNG-mode word
/// (always 0), the range count, the ticket-id watermark, and the pending
/// ticket map. Version 2 appends the membership section (live bin count,
/// range ends, balls-moved and membership-event counters) so crash
/// recovery works mid-resize; version-1 envelopes stay readable. The
/// service writes one range, `0..live_n`; older services wrote one per
/// shard, and any ascending list of range ends that ends at the live bin
/// count still resumes.
const ENVELOPE_TAG: &str = "IBSV";
/// Current envelope format version.
const ENVELOPE_VERSION: u32 = 2;

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
    /// same seed.
    #[default]
    Central,
}

/// Configuration of a [`CappedService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// The CAPPED(c, λ) parameters.
    pub capped: CappedConfig,
    /// Checked to lie in `1..=n` and otherwise unused: the service runs
    /// one bin set. It goes with the benchmark's API shims (ROADMAP
    /// item 3).
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
    /// Rounds an admitted ticket may wait before the service reaps its
    /// completion-notification state (the client's deadline has long
    /// passed; the ball itself still gets served — paper semantics are
    /// untouched). `None` keeps tickets forever.
    pub ticket_ttl_rounds: Option<u64>,
}

impl ServiceConfig {
    /// Creates a configuration with the defaults: no model arrivals
    /// (request-driven), ingress capacity 65 536, no ticket TTL.
    pub fn new(capped: CappedConfig, shards: usize, seed: u64) -> Self {
        ServiceConfig {
            capped,
            shards,
            seed,
            model_arrivals: false,
            ingress_capacity: 1 << 16,
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

/// A running CAPPED(c, λ) service. See the [module docs](self) for the
/// per-round protocol.
///
/// Dropping the service closes its ingress; [`shutdown`](Self::shutdown)
/// ends its rounds.
pub struct CappedService {
    /// The configuration the service was started with; membership resizes
    /// only the process's copy.
    config: CappedConfig,
    /// The pool, the live bins and the round counters.
    process: CappedProcess,
    model_arrivals: bool,
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
    /// Lifetime count of balls drained from removed bins into the pool.
    balls_moved: u64,
    /// Tickets awaiting service: one id range per round that admitted
    /// any, in ascending label order, none empty between rounds. Labels
    /// never exceed `round` and ids ascend with labels, so admission
    /// appends and TTL reaping pops the front. Balls with equal labels are
    /// interchangeable, so matching a served ball to the longest-waiting
    /// ticket of its label is consistent.
    pending: VecDeque<PendingRound>,
    /// The bin of every ball the last round served, in bin order.
    served_bins: Vec<u32>,
    total_admitted: u64,
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
            .field("round", &self.round())
            .field("pool_size", &self.pool_size())
            .finish_non_exhaustive()
    }
}

impl CappedService {
    /// Returns the running service over a fresh process.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::OutOfDomain`] if the shard count is outside
    /// `1..=n`.
    pub fn spawn(config: ServiceConfig) -> Result<Self, ConfigError> {
        Self::validate(&config)?;
        Ok(Self::assemble(
            &config,
            CappedProcess::new(config.capped.clone()),
            SimRng::seed_from(config.seed),
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

    /// Builds the service around a process and its RNG stream; shared by
    /// [`spawn`](Self::spawn) (a fresh process) and
    /// [`resume`](Self::resume) (a restored one).
    fn assemble(
        config: &ServiceConfig,
        process: CappedProcess,
        driver_rng: SimRng,
        first_ticket_id: u64,
    ) -> Self {
        CappedService {
            process,
            model_arrivals: config.model_arrivals,
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
            pending: VecDeque::new(),
            served_bins: Vec::new(),
            total_admitted: 0,
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
    /// pins this). An envelope's range list (one range per shard of the
    /// service that wrote it) only has to ascend and end at the live bin
    /// count: the service runs one bin set, whatever `config.shards` says.
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
        let saved_ranges = dec.usize("shard count")?;
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
        // Version 2 appends the membership section; a v1 envelope is a run
        // at the configured n. The range ends must ascend from a non-empty
        // first range to the live bin count: this service writes one
        // range, the sharded services before it one per shard.
        let (live_n, balls_moved, membership_events) = if version >= 2 {
            let live_n = dec.usize("live bin count")?;
            let ends = dec.u64_seq("shard range ends")?;
            let tiles = ends.len() == saved_ranges
                && ends.first().is_some_and(|&first| first >= 1)
                && ends.windows(2).all(|w| w[0] < w[1])
                && ends.last() == Some(&(live_n as u64));
            if !tiles {
                return Err(ResumeError::Invalid {
                    what: "shard range ends",
                });
            }
            (
                live_n,
                dec.u64("balls moved")?,
                dec.u64("membership events")?,
            )
        } else {
            (config.capped.bins(), 0, 0)
        };
        if !dec.is_exhausted() {
            return Err(ResumeError::Invalid {
                what: "trailing bytes",
            });
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
        let driver_rng = sim.rng().clone();
        let mut service = Self::assemble(&config, sim.into_process(), driver_rng, next_ticket_id);
        service.total_admitted = total_admitted;
        service.total_expired = total_expired;
        service.balls_moved = balls_moved;
        service.membership_events = membership_events;
        service.pending = pending;
        if let Some(p) = obs::probes() {
            p.checkpoint_resumes.inc();
            p.resume_round.set(service.round());
        }
        Ok(service)
    }

    /// Serializes the full service state for a later
    /// [`resume`](Self::resume): the embedded core checkpoint (`IBA1`,
    /// byte-compatible with `iba_core::checkpoint`) of the process and the
    /// driver's RNG stream, wrapped in the serve envelope (`IBSV`). A
    /// mid-resize service's process carries the resized configuration, so
    /// restore-side validation (CRC, conservation, pool order) runs
    /// against the live bin count.
    pub fn checkpoint_bytes(&self) -> Vec<u8> {
        let core_bytes = iba_core::checkpoint::save_parts(&self.process, &self.driver_rng);
        let mut enc = Encoder::new();
        enc.header(ENVELOPE_TAG, ENVELOPE_VERSION);
        enc.byte_seq(&core_bytes);
        enc.u32(0); // RNG mode: the driver-owned stream is the only one
        enc.usize(1); // one bin range
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
        let live_n = self.live_bins();
        enc.usize(live_n);
        enc.u64_seq(std::iter::once(live_n as u64));
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
    /// uniform capacity class — elastic membership adds and removes bins
    /// of the configured capacity, which a heterogeneous capacity profile
    /// cannot express.
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
    /// uniform capacity class.
    pub fn set_autoscaler(&mut self, scaler: Autoscaler) -> Result<(), ConfigError> {
        self.ensure_elastic()?;
        self.autoscaler = Some(scaler);
        Ok(())
    }

    fn ensure_elastic(&self) -> Result<(), ConfigError> {
        if self.config.capacity_profile().is_some() {
            return Err(ConfigError::OutOfDomain {
                name: "capacity",
                domain: "one uniform capacity class (elastic membership)",
            });
        }
        Ok(())
    }

    /// The CAPPED configuration the service runs.
    pub fn config(&self) -> &CappedConfig {
        &self.config
    }

    /// Live bin count; starts at `config().bins()` and moves with
    /// membership events.
    pub fn live_bins(&self) -> usize {
        self.process.bins()
    }

    /// Lifetime count of membership events that changed the topology.
    pub fn membership_events(&self) -> u64 {
        self.membership_events
    }

    /// Lifetime count of balls drained from removed bins back into the
    /// pool by membership changes.
    pub fn balls_moved(&self) -> u64 {
        self.balls_moved
    }

    /// Acceptance kernel the process runs: always [`KernelMode::Arena`],
    /// the one kernel. Kept for the repository benchmark, which prints it;
    /// it goes with the benchmark's API shims (ROADMAP item 3).
    pub fn kernel_mode(&self) -> KernelMode {
        KernelMode::Arena
    }

    /// Last completed round.
    pub fn round(&self) -> u64 {
        self.process.round()
    }

    /// Current pool size (balls awaiting allocation).
    pub fn pool_size(&self) -> usize {
        self.process.pool_size()
    }

    /// Total balls buffered in the bins.
    pub fn buffered(&self) -> u64 {
        self.process.buffered() as u64
    }

    /// Lifetime count of balls that entered the system (model arrivals +
    /// admitted requests + fault surges).
    pub fn total_generated(&self) -> u64 {
        self.process.total_generated()
    }

    /// Lifetime count of admitted client requests.
    pub fn total_admitted(&self) -> u64 {
        self.total_admitted
    }

    /// Lifetime count of served balls.
    pub fn total_served(&self) -> u64 {
        self.process.total_deleted()
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
        self.process.conserves_balls()
    }

    /// Exact waiting-time quantiles over every ball served so far.
    pub fn wait_quantiles(&self) -> Option<WaitQuantiles> {
        WaitQuantiles::from_histogram(&self.wait_hist)
    }

    /// Captures a metrics snapshot (see [`ServeSnapshot`]).
    pub fn snapshot(&self) -> ServeSnapshot {
        ServeSnapshot {
            round: self.round(),
            bins: self.live_bins() as u64,
            pool_size: self.pool_size() as u64,
            buffered: self.buffered(),
            max_load: self.process.loads().into_iter().max().unwrap_or(0) as u64,
            total_generated: self.total_generated(),
            total_admitted: self.total_admitted,
            total_served: self.total_served(),
            wait: self.wait_quantiles(),
        }
    }

    /// Executes one round of Algorithm 1 and returns the process's
    /// [`RoundReport`] for it.
    ///
    /// # Panics
    ///
    /// Panics if the service was shut down.
    pub fn run_round(&mut self) -> RoundReport {
        assert!(!self.stopped, "service was shut down");
        let round_timer = iba_obs::PhaseTimer::start();
        let round = self.round() + 1;

        // 1. Membership changes at the round boundary fix this round's
        // bins; then the round's faults (which target the possibly resized
        // bin set — surge balls keep the pre-round label).
        self.apply_membership(round);
        let generated_before = self.process.total_generated();
        self.faults.apply(&mut self.process);
        let surged = self.process.total_generated() - generated_before;

        // 2. Arrivals: the model's sample first (the RNG's first draw of
        // the round, as in `CappedProcess::step`), then admitted requests —
        // all labeled with the new round.
        let model = if self.model_arrivals {
            self.config.arrivals().sample(&mut self.driver_rng)
        } else {
            0
        };
        let admitted = self.admit(round);

        // 3. The process's round, recording the bin of every served ball;
        // 4. then the tickets those balls complete.
        let step_timer = iba_obs::PhaseTimer::start();
        let mut report = RoundReport::default();
        let served_bins = &mut self.served_bins;
        served_bins.clear();
        self.process.step_with_arrivals(
            model + admitted,
            &mut self.driver_rng,
            &mut report,
            |bin, _| served_bins.push(bin as u32),
        );
        self.complete(round, &report.waiting_times);
        self.wait_hist.record_all(&report.waiting_times);

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
        let n = self.live_bins();
        if let Some(scaler) = self.autoscaler.as_mut() {
            let c = self.config.capacity().get();
            let bound = theorem2_pool_bound(n, c, self.config.lambda());
            let (_decision, event) = scaler.observe(round, n, report.pool_size, bound);
            if let Some(event) = event {
                self.mplan.insert(round + 1, event);
            }
        }

        if let Some(p) = obs::probes() {
            step_timer.observe(&p.phase_merge_nanos);
            round_timer.observe(&p.round_nanos);
            p.live_bins.set(n as u64);
            p.pool_size.set(report.pool_size);
            p.buffered.set(report.buffered);
            p.pending_tickets.set(self.pending_tickets() as u64);
            p.max_load_high_water.record_max(report.max_load);
            p.served.add(report.deleted);
            p.surge_balls.add(surged);
        }
        report
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

    /// Admits every queued id in one range take, queueing that range as
    /// one `pending` entry; returns how many.
    fn admit(&mut self, round: u64) -> u64 {
        if let Some(p) = obs::probes() {
            p.ingress_depth.set(self.ingress.depth());
        }
        let ids = self.ingress.take();
        let admitted = ids.end - ids.start;
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

    /// Completes the tickets of the balls round `round` served: the ball
    /// served in `served_bins[k]` waited `waits[k]` rounds, so its label
    /// is `round − waits[k]`, and it takes the longest-waiting ticket of
    /// that label (balls with equal labels are interchangeable). Model
    /// and surge balls find no ticket left. Completions go out in bin
    /// order; emptied entries are dropped after the pass.
    fn complete(&mut self, round: u64, waits: &[u64]) {
        if self.pending.is_empty() {
            return;
        }
        let pending = self.pending.make_contiguous();
        for (&bin, &wait) in self.served_bins.iter().zip(waits) {
            let label = round - wait;
            let at = pending.partition_point(|entry| entry.label < label);
            let Some(entry) = pending
                .get_mut(at)
                .filter(|e| e.label == label && !e.ids.is_empty())
            else {
                continue;
            };
            let id = entry.ids.start;
            entry.ids.start += 1;
            if let Some(tx) = &self.completions {
                let _ = tx.send(Completion {
                    ticket: Ticket::from_id(id),
                    bin: u64::from(bin),
                    admitted_round: label,
                    served_round: round,
                    waiting_rounds: wait,
                });
            }
        }
        self.pending.retain(|entry| !entry.ids.is_empty());
    }

    /// Applies the membership events scheduled at `round`, in insertion
    /// order.
    fn apply_membership(&mut self, round: u64) {
        if self.mplan.is_empty() {
            return;
        }
        for event in self.mplan.take_due(round) {
            let live = self.live_bins();
            match event {
                MembershipEvent::AddBins { count } => self.process.add_bins(count),
                MembershipEvent::RemoveBins { count } => {
                    let moved = self.process.remove_bins(count);
                    if moved > 0 {
                        self.balls_moved += moved;
                        if let Some(p) = obs::probes() {
                            p.balls_moved.add(moved);
                        }
                    }
                }
            }
            if self.live_bins() != live {
                self.membership_events += 1;
                if let Some(p) = obs::probes() {
                    p.membership_events.inc();
                }
            }
        }
    }
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

impl Drop for CappedService {
    /// Closes the ingress: later submissions get
    /// [`SubmitError::Closed`].
    ///
    /// [`SubmitError::Closed`]: crate::SubmitError::Closed
    fn drop(&mut self) {
        self.ingress.close();
    }
}
