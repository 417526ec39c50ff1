//! Deterministic fault injection and recovery measurement.
//!
//! The paper proves CAPPED(c, λ) keeps its pool bounded under steady
//! `λn` arrivals; this module provides the machinery to ask what happens
//! when the steady-state assumptions break — bins crash and recover,
//! capacities degrade, arrivals burst — and to *measure* how fast the
//! system returns to its stationary band afterwards.
//!
//! The pieces:
//!
//! - [`FaultPlan`] — a [`RoundPlan`] of [`FaultEvent`]s. Plans are plain
//!   data: build them by hand, or generate stochastic churn with
//!   [`ChurnModel`] from a dedicated RNG stream.
//! - [`FaultSchedule`] — a plan in play: it applies each round's events
//!   and the active arrival bursts to a [`FaultTolerant`] process and
//!   counts them in telemetry. Every driver of a plan goes through it.
//! - [`FaultedProcess`] — a wrapper implementing
//!   [`AllocationProcess`] that applies a plan to any inner process
//!   exposing the small [`FaultTolerant`] trait. With an empty plan the
//!   wrapper is a strict identity: it touches neither the process state
//!   nor the RNG stream, so the faulted trajectory is bit-identical to the
//!   bare one (property-tested in `iba-core`).
//! - [`run_recovery`] / [`measure_recovery`] — the recovery
//!   instrumentation: burn in, record a pre-fault baseline, play the plan,
//!   then count the rounds until the pool re-enters an ε-band around the
//!   baseline ([`RecoveryReport`]), aggregated across replications into a
//!   [`RecoveryEstimate`] via [`crate::runner::PointEstimate`].
//!
//! Everything here is deterministic per `(master seed, plan)`: replaying
//! the same seed reproduces every crash, every recovery and every metric
//! bit-exactly.

use crate::obs;
use crate::plan::RoundPlan;
use crate::process::{AllocationProcess, RoundReport};
use crate::rng::SimRng;
use crate::runner::{replicate, PointEstimate};

/// The fault surface an allocation process exposes so that
/// [`FaultedProcess`] can drive it from a [`FaultPlan`].
///
/// Implementations must keep ball conservation intact across every
/// operation: crashing a bin freezes its buffered balls, it must not drop
/// them.
pub trait FaultTolerant: AllocationProcess {
    /// Takes bin `i` offline: it stops serving and accepts nothing until
    /// [`recover_bin`](Self::recover_bin). Idempotent. `i` is guaranteed
    /// in-range by the caller ([`FaultedProcess`] filters).
    fn crash_bin(&mut self, i: usize);

    /// Brings bin `i` back online. Idempotent.
    fn recover_bin(&mut self, i: usize);

    /// Number of currently offline bins.
    fn offline_bins(&self) -> usize;

    /// Sets bin `i`'s buffer capacity to `capacity`. Balls already
    /// buffered above a lowered capacity stay (the bin rejects until it
    /// drains). A capacity the process cannot hold (0, or above its
    /// largest capacity) is malformed and skipped. Processes without
    /// per-bin capacities ignore this (default no-op).
    fn set_bin_capacity(&mut self, _i: usize, _capacity: u32) {}

    /// Injects `extra` balls into the process's allocation backlog (pool),
    /// labeled with the current round. Used for arrival bursts and pool
    /// surges; the injected balls must count toward ball conservation.
    fn surge_pool(&mut self, extra: u64);
}

/// One scheduled fault.
///
/// Bin indices that are out of range for the wrapped process, and
/// `DegradeCapacity` with capacity 0, are *skipped* by [`FaultedProcess`]
/// rather than panicking — fault plans are experiment inputs and a
/// robustness harness should not fall over on a malformed one. A capacity
/// above what the process can hold is skipped by the process
/// ([`FaultTolerant::set_bin_capacity`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultEvent {
    /// Take the listed bins offline.
    CrashBins {
        /// Bin indices to crash.
        bins: Vec<usize>,
    },
    /// Bring the listed bins back online.
    RecoverBins {
        /// Bin indices to recover.
        bins: Vec<usize>,
    },
    /// Change the listed bins' buffer capacity.
    DegradeCapacity {
        /// Bin indices to modify.
        bins: Vec<usize>,
        /// New capacity, at least 1.
        capacity: u32,
    },
    /// Inject `extra_per_round` additional balls at the start of each of
    /// the next `rounds` rounds (including the round the event fires in).
    ArrivalBurst {
        /// Additional balls injected per round.
        extra_per_round: u64,
        /// Number of consecutive rounds the burst lasts.
        rounds: u64,
    },
    /// One-shot injection of `extra` balls into the pool.
    PoolSurge {
        /// Number of balls injected.
        extra: u64,
    },
}

/// A round-keyed schedule of fault events.
///
/// Rounds are 1-based, matching [`AllocationProcess::round`]: an event
/// scheduled at round `r` is applied immediately *before* the step that
/// produces round `r`, so the fault is in force for all of round `r`.
/// Events within one round apply in insertion order.
pub type FaultPlan = RoundPlan<FaultEvent>;

/// Stochastic bin-churn generator: i.i.d. per-round crash/recover
/// probabilities, in the spirit of the related work on self-stabilizing
/// balls-into-bins with failing bins and dynamic bin sets.
///
/// Drive it with a **dedicated RNG stream** split from the master seed
/// (e.g. [`SimRng::split`]) so the generated plan is reproducible and
/// independent of the simulation's own randomness.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnModel {
    /// Per-round probability that each *online* bin crashes.
    pub crash_prob: f64,
    /// Per-round probability that each *offline* bin recovers.
    pub recover_prob: f64,
    /// First round (1-based) of the churn window.
    pub start_round: u64,
    /// Number of rounds the churn window lasts.
    pub rounds: u64,
    /// If set, a final `RecoverBins` event at the round after the window
    /// brings every still-offline bin back, so the system is guaranteed
    /// to be fault-free after [`FaultPlan::last_round`].
    pub heal_at_end: bool,
}

impl ChurnModel {
    /// Generates the plan for `bins` bins, drawing from `rng`.
    ///
    /// # Panics
    ///
    /// Panics if `start_round == 0` or `rounds == 0`.
    pub fn generate(&self, bins: usize, rng: &mut SimRng) -> FaultPlan {
        assert!(self.start_round > 0, "churn must start at round >= 1");
        assert!(self.rounds > 0, "churn window must span at least one round");
        let mut plan = FaultPlan::new();
        let mut offline = vec![false; bins];
        for round in self.start_round..self.start_round + self.rounds {
            let mut crashed = Vec::new();
            let mut recovered = Vec::new();
            for (i, is_offline) in offline.iter_mut().enumerate() {
                if *is_offline {
                    if rng.bernoulli(self.recover_prob) {
                        *is_offline = false;
                        recovered.push(i);
                    }
                } else if rng.bernoulli(self.crash_prob) {
                    *is_offline = true;
                    crashed.push(i);
                }
            }
            if !recovered.is_empty() {
                plan.insert(round, FaultEvent::RecoverBins { bins: recovered });
            }
            if !crashed.is_empty() {
                plan.insert(round, FaultEvent::CrashBins { bins: crashed });
            }
        }
        if self.heal_at_end {
            let still_offline: Vec<usize> = offline
                .iter()
                .enumerate()
                .filter_map(|(i, &o)| o.then_some(i))
                .collect();
            if !still_offline.is_empty() {
                plan.insert(
                    self.start_round + self.rounds,
                    FaultEvent::RecoverBins {
                        bins: still_offline,
                    },
                );
            }
        }
        plan
    }
}

/// A [`FaultPlan`] in play: the plan plus the arrival bursts it has
/// started. This is the one place a plan's events reach a process — the
/// out-of-range filter, the capacity-0 skip, burst expiry, the
/// `iba_sim_fault_*` counters and the flight-recorder fault events — for
/// [`FaultedProcess`] and for any other driver (the serving layer) alike.
#[derive(Debug, Clone, Default)]
pub struct FaultSchedule {
    plan: FaultPlan,
    /// Active arrival bursts as `(last_round_inclusive, extra_per_round)`.
    bursts: Vec<(u64, u64)>,
}

impl FaultSchedule {
    /// Schedules `plan` with no burst active.
    pub fn new(plan: FaultPlan) -> Self {
        FaultSchedule {
            plan,
            bursts: Vec::new(),
        }
    }

    /// Merges `plan`'s events into the schedule; same-round events apply
    /// after the ones already scheduled.
    pub fn extend(&mut self, plan: FaultPlan) {
        self.plan.extend(plan);
    }

    /// Applies to `process` everything due before the step that produces
    /// its next round: that round's events in insertion order, then one
    /// [`surge_pool`](FaultTolerant::surge_pool) per arrival burst still
    /// active. With nothing due it touches nothing. Rounds are expected in
    /// increasing order: events at or before that round leave the plan.
    pub fn apply<P: FaultTolerant>(&mut self, process: &mut P) {
        let (round, n) = (process.round() + 1, process.bins());
        let probes = obs::probes();
        for event in self.plan.take_due(round) {
            let fired = match event {
                FaultEvent::CrashBins { ref bins } => {
                    let hit = for_bins(bins, n, |i| process.crash_bin(i));
                    if let Some(p) = probes {
                        p.crashed_bins.add(hit);
                    }
                    "crash-bins"
                }
                FaultEvent::RecoverBins { ref bins } => {
                    let hit = for_bins(bins, n, |i| process.recover_bin(i));
                    if let Some(p) = probes {
                        p.recovered_bins.add(hit);
                    }
                    "recover-bins"
                }
                // Malformed: capacities are >= 1.
                FaultEvent::DegradeCapacity { capacity: 0, .. } => continue,
                FaultEvent::DegradeCapacity { ref bins, capacity } => {
                    let hit = for_bins(bins, n, |i| process.set_bin_capacity(i, capacity));
                    if let Some(p) = probes {
                        p.degraded_bins.add(hit);
                    }
                    "degrade-capacity"
                }
                FaultEvent::ArrivalBurst {
                    extra_per_round,
                    rounds,
                } => {
                    if extra_per_round == 0 || rounds == 0 {
                        continue;
                    }
                    self.bursts.push((round + rounds - 1, extra_per_round));
                    if let Some(p) = probes {
                        p.bursts.inc();
                    }
                    "arrival-burst"
                }
                FaultEvent::PoolSurge { extra } => {
                    if extra == 0 {
                        continue;
                    }
                    process.surge_pool(extra);
                    if let Some(p) = probes {
                        p.surge_balls.add(extra);
                    }
                    "pool-surge"
                }
            };
            if probes.is_some() {
                iba_obs::flight::fault_triggered(round, fired);
            }
        }
        if !self.bursts.is_empty() {
            self.bursts.retain(|&(until, _)| until >= round);
            let mut surged = 0u64;
            for &(_, extra) in &self.bursts {
                process.surge_pool(extra);
                surged += extra;
            }
            if let Some(p) = probes {
                p.surge_balls.add(surged);
            }
        }
    }
}

/// Calls `act` on every in-range bin of `list`; returns how many.
fn for_bins(list: &[usize], n: usize, mut act: impl FnMut(usize)) -> u64 {
    let mut hit = 0u64;
    for &i in list.iter().filter(|&&i| i < n) {
        act(i);
        hit += 1;
    }
    hit
}

/// Wraps a [`FaultTolerant`] process and applies a [`FaultPlan`] to it as
/// rounds advance.
///
/// Events scheduled at round `r` are applied immediately before the step
/// that produces round `r`. With an empty plan the wrapper neither
/// touches the inner process nor draws randomness, so the trajectory is
/// bit-identical to running the inner process bare.
#[derive(Debug, Clone)]
pub struct FaultedProcess<P> {
    inner: P,
    schedule: FaultSchedule,
}

impl<P: FaultTolerant> FaultedProcess<P> {
    /// Wraps `inner`, scheduling `plan` against its current round counter
    /// (a plan round `r` fires before the step producing round `r`,
    /// whether or not the process has already advanced past other
    /// scheduled rounds — stale events simply never fire).
    pub fn new(inner: P, plan: FaultPlan) -> Self {
        FaultedProcess {
            inner,
            schedule: FaultSchedule::new(plan),
        }
    }

    /// The wrapped process.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Unwraps the inner process.
    pub fn into_inner(self) -> P {
        self.inner
    }
}

impl<P: FaultTolerant> AllocationProcess for FaultedProcess<P> {
    fn bins(&self) -> usize {
        self.inner.bins()
    }

    fn round(&self) -> u64 {
        self.inner.round()
    }

    fn pool_size(&self) -> usize {
        self.inner.pool_size()
    }

    fn step(&mut self, rng: &mut SimRng) -> RoundReport {
        self.schedule.apply(&mut self.inner);
        self.inner.step(rng)
    }

    fn step_into(&mut self, rng: &mut SimRng, report: &mut RoundReport) {
        self.schedule.apply(&mut self.inner);
        self.inner.step_into(rng, report);
    }

    fn label(&self) -> String {
        format!("faulted({})", self.inner.label())
    }

    fn is_finished(&self) -> bool {
        self.inner.is_finished()
    }
}

/// Parameters of the recovery measurement protocol.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryOptions {
    /// Fault-free rounds before the plan starts (the plan is authored
    /// relative to the end of this burn-in).
    pub burnin: u64,
    /// Final burn-in rounds over which the pre-fault baseline (pool mean,
    /// waiting-time mean) is measured. Must be `1..=burnin`.
    pub baseline_window: u64,
    /// Half-width of the re-stabilization band, as a fraction of the
    /// baseline pool mean.
    pub epsilon: f64,
    /// Absolute floor of the band half-width (in balls) so near-empty
    /// pools are not held to a sub-fluctuation standard.
    pub min_band: f64,
    /// Consecutive in-band rounds required to declare re-stabilization.
    pub stable_rounds: u64,
    /// Post-fault rounds to scan before giving up
    /// (`rounds_to_restabilize` = `None`).
    pub max_rounds: u64,
}

impl Default for RecoveryOptions {
    fn default() -> Self {
        RecoveryOptions {
            burnin: 400,
            baseline_window: 200,
            epsilon: 0.25,
            min_band: 8.0,
            stable_rounds: 50,
            max_rounds: 10_000,
        }
    }
}

/// What one faulted run measured: the pre-fault baseline, the damage at
/// its worst, and how long the system took to return to normal.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// Mean pool size over the pre-fault baseline window.
    pub baseline_pool: f64,
    /// Mean waiting time over the pre-fault baseline window (0 if no
    /// ball was deleted in it).
    pub baseline_wait: f64,
    /// Absolute round of the first scheduled fault event.
    pub fault_start: u64,
    /// Absolute round of the last scheduled fault event.
    pub fault_end: u64,
    /// Peak pool size from the first fault round through the recovery
    /// scan.
    pub peak_pool: u64,
    /// Peak system load (pool + buffered) over the same span.
    pub peak_backlog: u64,
    /// Mean waiting time of balls deleted during the fault window
    /// (`fault_start..=fault_end`); 0 if none were.
    pub mid_fault_wait: f64,
    /// Number of balls deleted during the fault window.
    pub mid_fault_deletions: u64,
    /// Rounds after `fault_end` until the pool had stayed inside the
    /// ε-band for `stable_rounds` consecutive rounds, counted to the
    /// *start* of that stable stretch. `None` if it never did within
    /// `max_rounds`.
    pub rounds_to_restabilize: Option<u64>,
}

impl RecoveryReport {
    /// Whether the pool re-entered its baseline band within the scan.
    pub fn recovered(&self) -> bool {
        self.rounds_to_restabilize.is_some()
    }

    /// Waiting-time impact on balls served mid-fault, relative to the
    /// pre-fault baseline (positive = slower).
    pub fn wait_impact(&self) -> f64 {
        self.mid_fault_wait - self.baseline_wait
    }
}

/// Runs one faulted simulation to completion of its recovery scan.
///
/// `plan` is authored **relative to the end of burn-in**: plan round 1 is
/// the first round after `opts.burnin`. The function shifts it into
/// absolute rounds, burns in, measures the baseline over the last
/// `opts.baseline_window` burn-in rounds, plays the fault window while
/// recording peak backlog and mid-fault waiting times, then scans up to
/// `opts.max_rounds` rounds for the pool to hold inside
/// `±max(epsilon · baseline, min_band)` for `stable_rounds` consecutive
/// rounds.
///
/// # Panics
///
/// Panics if the plan is empty, `baseline_window` is not in
/// `1..=burnin`, or `stable_rounds == 0`.
pub fn run_recovery<P: FaultTolerant>(
    process: P,
    plan: FaultPlan,
    opts: &RecoveryOptions,
    rng: &mut SimRng,
) -> RecoveryReport {
    assert!(
        !plan.is_empty(),
        "recovery measurement needs at least one fault event"
    );
    assert!(
        opts.baseline_window >= 1 && opts.baseline_window <= opts.burnin,
        "baseline window must fit inside the burn-in"
    );
    assert!(opts.stable_rounds >= 1, "need at least one stable round");

    let plan = plan.shifted(opts.burnin);
    let fault_start = plan.first_round().expect("non-empty plan");
    let fault_end = plan.last_round().expect("non-empty plan");
    let mut faulted = FaultedProcess::new(process, plan);

    // Burn-in; the last `baseline_window` rounds define normality.
    let mut pool_sum = 0.0;
    let mut wait_sum = 0.0;
    let mut wait_count = 0u64;
    for r in 1..=opts.burnin {
        let report = faulted.step(rng);
        if r > opts.burnin - opts.baseline_window {
            pool_sum += report.pool_size as f64;
            wait_sum += report.waiting_times.iter().sum::<u64>() as f64;
            wait_count += report.waiting_times.len() as u64;
        }
    }
    let baseline_pool = pool_sum / opts.baseline_window as f64;
    let baseline_wait = if wait_count > 0 {
        wait_sum / wait_count as f64
    } else {
        0.0
    };
    let band = (opts.epsilon * baseline_pool).max(opts.min_band);

    // Fault window.
    let mut peak_pool = 0u64;
    let mut peak_backlog = 0u64;
    let mut mid_wait_sum = 0.0;
    let mut mid_fault_deletions = 0u64;
    for _ in opts.burnin + 1..=fault_end {
        let report = faulted.step(rng);
        peak_pool = peak_pool.max(report.pool_size);
        peak_backlog = peak_backlog.max(report.system_load());
        if report.round >= fault_start {
            mid_wait_sum += report.waiting_times.iter().sum::<u64>() as f64;
            mid_fault_deletions += report.waiting_times.len() as u64;
        }
    }
    let mid_fault_wait = if mid_fault_deletions > 0 {
        mid_wait_sum / mid_fault_deletions as f64
    } else {
        0.0
    };

    // Recovery scan.
    let mut stable_streak = 0u64;
    let mut rounds_to_restabilize = None;
    for k in 1..=opts.max_rounds {
        let report = faulted.step(rng);
        peak_pool = peak_pool.max(report.pool_size);
        peak_backlog = peak_backlog.max(report.system_load());
        if (report.pool_size as f64 - baseline_pool).abs() <= band {
            stable_streak += 1;
            if stable_streak == opts.stable_rounds {
                rounds_to_restabilize = Some(k + 1 - opts.stable_rounds);
                break;
            }
        } else {
            stable_streak = 0;
        }
    }

    RecoveryReport {
        baseline_pool,
        baseline_wait,
        fault_start,
        fault_end,
        peak_pool,
        peak_backlog,
        mid_fault_wait,
        mid_fault_deletions,
        rounds_to_restabilize,
    }
}

/// [`RecoveryReport`]s aggregated across replications.
#[derive(Debug, Clone)]
pub struct RecoveryEstimate {
    /// Number of replications run.
    pub replications: usize,
    /// How many of them re-stabilized within the scan.
    pub recovered: usize,
    /// Rounds-to-restabilize across the replications that recovered
    /// (`None` if none did).
    pub rounds_to_restabilize: Option<PointEstimate>,
    /// Peak pool size across replications.
    pub peak_pool: PointEstimate,
    /// Peak system load (pool + buffered) across replications.
    pub peak_backlog: PointEstimate,
    /// Pre-fault baseline pool mean across replications.
    pub baseline_pool: PointEstimate,
    /// Mid-fault waiting-time impact (mid-fault mean − baseline mean)
    /// across replications.
    pub wait_impact: PointEstimate,
    /// The individual per-replication reports, in replication order.
    pub reports: Vec<RecoveryReport>,
}

/// Runs `replications` independent faulted simulations (parallel, one
/// decorrelated RNG stream each — see [`crate::runner::replicate`]) and
/// aggregates their [`RecoveryReport`]s.
///
/// `build` receives `(replication_index, &mut rng)` and returns the
/// process plus the (relative) fault plan for that replication. Split the
/// plan's randomness off the replication stream (`rng.split()`) to keep
/// churn generation reproducible and decoupled from the simulation's own
/// draws. The whole estimate is a pure function of
/// `(master_seed, replications, opts, build)`.
///
/// # Panics
///
/// Panics if `replications == 0` or any plan is empty.
pub fn measure_recovery<P, F>(
    master_seed: u64,
    replications: usize,
    opts: &RecoveryOptions,
    build: F,
) -> RecoveryEstimate
where
    P: FaultTolerant,
    F: Fn(usize, &mut SimRng) -> (P, FaultPlan) + Sync,
{
    let reports: Vec<RecoveryReport> = replicate(master_seed, replications, |i, mut rng| {
        let (process, plan) = build(i, &mut rng);
        run_recovery(process, plan, opts, &mut rng)
    });

    let recovered_rounds: Vec<f64> = reports
        .iter()
        .filter_map(|r| r.rounds_to_restabilize)
        .map(|r| r as f64)
        .collect();
    let collect = |f: fn(&RecoveryReport) -> f64| -> Vec<f64> { reports.iter().map(f).collect() };

    RecoveryEstimate {
        replications,
        recovered: recovered_rounds.len(),
        rounds_to_restabilize: if recovered_rounds.is_empty() {
            None
        } else {
            Some(PointEstimate::from_values(&recovered_rounds))
        },
        peak_pool: PointEstimate::from_values(&collect(|r| r.peak_pool as f64)),
        peak_backlog: PointEstimate::from_values(&collect(|r| r.peak_backlog as f64)),
        baseline_pool: PointEstimate::from_values(&collect(|r| r.baseline_pool)),
        wait_impact: PointEstimate::from_values(&collect(RecoveryReport::wait_impact)),
        reports,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal deterministic FaultTolerant process for exercising the
    /// plan/wrapper mechanics without depending on `iba-core`: `n` bins,
    /// one new ball per round, pooled balls go to `round % n` when that
    /// bin is online, every online non-empty bin serves one ball.
    #[derive(Debug, Clone, PartialEq)]
    struct ToyProcess {
        loads: Vec<u64>,
        capacities: Vec<Option<u32>>,
        offline: Vec<bool>,
        pool: u64,
        round: u64,
        generated: u64,
        deleted: u64,
    }

    impl ToyProcess {
        fn new(n: usize) -> Self {
            ToyProcess {
                loads: vec![0; n],
                capacities: vec![None; n],
                offline: vec![false; n],
                pool: 0,
                round: 0,
                generated: 0,
                deleted: 0,
            }
        }

        fn conserves(&self) -> bool {
            self.generated == self.deleted + self.pool + self.loads.iter().sum::<u64>()
        }
    }

    impl AllocationProcess for ToyProcess {
        fn bins(&self) -> usize {
            self.loads.len()
        }

        fn round(&self) -> u64 {
            self.round
        }

        fn pool_size(&self) -> usize {
            self.pool as usize
        }

        fn step(&mut self, _rng: &mut SimRng) -> RoundReport {
            self.round += 1;
            self.pool += 1;
            self.generated += 1;
            let target = (self.round % self.bins() as u64) as usize;
            let mut accepted = 0u64;
            // A bin whose capacity no fault set has no bound.
            let has_room = |load: u64, cap: Option<u32>| cap.is_none_or(|c| load < u64::from(c));
            while self.pool > 0
                && !self.offline[target]
                && has_room(self.loads[target], self.capacities[target])
            {
                self.loads[target] += 1;
                self.pool -= 1;
                accepted += 1;
            }
            let mut deleted = 0u64;
            for (load, &off) in self.loads.iter_mut().zip(&self.offline) {
                if !off && *load > 0 {
                    *load -= 1;
                    deleted += 1;
                }
            }
            self.deleted += deleted;
            RoundReport {
                round: self.round,
                generated: 1,
                thrown: accepted + self.pool,
                accepted,
                deleted,
                pool_size: self.pool,
                buffered: self.loads.iter().sum(),
                max_load: self.loads.iter().copied().max().unwrap_or(0),
                ..RoundReport::default()
            }
        }
    }

    impl FaultTolerant for ToyProcess {
        fn crash_bin(&mut self, i: usize) {
            self.offline[i] = true;
        }

        fn recover_bin(&mut self, i: usize) {
            self.offline[i] = false;
        }

        fn offline_bins(&self) -> usize {
            self.offline.iter().filter(|&&o| o).count()
        }

        fn set_bin_capacity(&mut self, i: usize, capacity: u32) {
            self.capacities[i] = Some(capacity);
        }

        fn surge_pool(&mut self, extra: u64) {
            self.pool += extra;
            self.generated += extra;
        }
    }

    #[test]
    fn empty_plan_is_identity() {
        let mut bare = ToyProcess::new(4);
        let mut faulted = FaultedProcess::new(ToyProcess::new(4), FaultPlan::new());
        let mut rng_a = SimRng::seed_from(1);
        let mut rng_b = SimRng::seed_from(1);
        for _ in 0..50 {
            assert_eq!(bare.step(&mut rng_a), faulted.step(&mut rng_b));
        }
        assert_eq!(&bare, faulted.inner());
        assert_eq!(rng_a, rng_b, "wrapper must not draw randomness");
    }

    #[test]
    fn crash_and_recover_fire_at_their_rounds() {
        let plan = FaultPlan::new()
            .with(3, FaultEvent::CrashBins { bins: vec![0, 2] })
            .with(6, FaultEvent::RecoverBins { bins: vec![0] });
        let mut p = FaultedProcess::new(ToyProcess::new(4), plan);
        let mut rng = SimRng::seed_from(2);
        p.step(&mut rng);
        p.step(&mut rng);
        assert_eq!(p.inner().offline_bins(), 0);
        p.step(&mut rng); // round 3: crash applied before the step
        assert_eq!(p.inner().offline_bins(), 2);
        p.step(&mut rng);
        p.step(&mut rng);
        p.step(&mut rng); // round 6: bin 0 recovers
        assert_eq!(p.inner().offline_bins(), 1);
        assert!(p.inner().offline[2]);
        assert!(p.inner().conserves());
    }

    #[test]
    fn out_of_range_bins_and_zero_capacity_are_skipped() {
        let plan = FaultPlan::new()
            .with(1, FaultEvent::CrashBins { bins: vec![99, 1] })
            .with(
                1,
                FaultEvent::DegradeCapacity {
                    bins: vec![0],
                    capacity: 0,
                },
            )
            .with(
                1,
                FaultEvent::DegradeCapacity {
                    bins: vec![50, 0],
                    capacity: 3,
                },
            );
        let mut p = FaultedProcess::new(ToyProcess::new(4), plan);
        let mut rng = SimRng::seed_from(3);
        p.step(&mut rng);
        assert_eq!(p.inner().offline_bins(), 1);
        assert!(p.inner().offline[1]);
        assert_eq!(p.inner().capacities[0], Some(3));
    }

    #[test]
    fn arrival_burst_lasts_exactly_its_window() {
        let plan = FaultPlan::new().with(
            2,
            FaultEvent::ArrivalBurst {
                extra_per_round: 10,
                rounds: 3,
            },
        );
        let mut p = FaultedProcess::new(ToyProcess::new(1), plan);
        let mut rng = SimRng::seed_from(4);
        // Bin 0 is the only target and serves 1/round; generation is
        // 1/round, so without the burst the pool stays empty.
        let mut extra_seen = Vec::new();
        for _ in 0..6 {
            let before = p.inner().generated;
            p.step(&mut rng);
            extra_seen.push(p.inner().generated - before - 1);
        }
        assert_eq!(extra_seen, vec![0, 10, 10, 10, 0, 0]);
        assert!(p.inner().conserves());
    }

    #[test]
    fn pool_surge_is_one_shot() {
        let plan = FaultPlan::new().with(2, FaultEvent::PoolSurge { extra: 7 });
        let mut p = FaultedProcess::new(ToyProcess::new(2), plan);
        let mut rng = SimRng::seed_from(5);
        p.step(&mut rng);
        let before = p.inner().generated;
        p.step(&mut rng);
        assert_eq!(p.inner().generated - before, 8); // 1 regular + 7 surge
        let before = p.inner().generated;
        p.step(&mut rng);
        assert_eq!(p.inner().generated - before, 1);
    }

    #[test]
    fn churn_is_deterministic_and_consistent() {
        let model = ChurnModel {
            crash_prob: 0.05,
            recover_prob: 0.2,
            start_round: 1,
            rounds: 100,
            heal_at_end: true,
        };
        let plan_a = model.generate(64, &mut SimRng::seed_from(9));
        let plan_b = model.generate(64, &mut SimRng::seed_from(9));
        assert_eq!(plan_a, plan_b, "same seed, same plan");
        assert!(!plan_a.is_empty());

        // Replaying the plan's crash/recover events must keep a
        // consistent offline set: never crash an offline bin, never
        // recover an online one, and end fully healed.
        let mut offline = [false; 64];
        for (_, events) in plan_a.iter() {
            for event in events {
                match event {
                    FaultEvent::CrashBins { bins } => {
                        for &b in bins {
                            assert!(!offline[b], "bin {b} crashed twice");
                            offline[b] = true;
                        }
                    }
                    FaultEvent::RecoverBins { bins } => {
                        for &b in bins {
                            assert!(offline[b], "bin {b} recovered while online");
                            offline[b] = false;
                        }
                    }
                    other => panic!("churn emitted unexpected event {other:?}"),
                }
            }
        }
        assert!(offline.iter().all(|&o| !o), "heal_at_end leaves bins down");
    }

    #[test]
    fn recovery_report_measures_a_toy_outage() {
        // Crash the only serving capacity for a while: the pool grows
        // during the outage, then drains after recovery.
        let n = 4;
        let plan = FaultPlan::new()
            .with(
                1,
                FaultEvent::CrashBins {
                    bins: (0..n).collect(),
                },
            )
            .with(
                40,
                FaultEvent::RecoverBins {
                    bins: (0..n).collect(),
                },
            );
        let opts = RecoveryOptions {
            burnin: 50,
            baseline_window: 20,
            epsilon: 0.25,
            min_band: 2.0,
            stable_rounds: 10,
            max_rounds: 500,
        };
        let mut rng = SimRng::seed_from(11);
        let report = run_recovery(ToyProcess::new(n), plan, &opts, &mut rng);
        assert_eq!(report.fault_start, 51);
        assert_eq!(report.fault_end, 90);
        assert!(report.peak_pool >= 35, "outage must back up the pool");
        assert!(report.recovered(), "toy process drains after recovery");
        assert!(report.rounds_to_restabilize.unwrap() <= 100);
    }

    #[test]
    fn measure_recovery_is_reproducible_bit_exactly() {
        let build = |_i: usize, rng: &mut SimRng| {
            let mut churn_rng = rng.split();
            let model = ChurnModel {
                crash_prob: 0.3,
                recover_prob: 0.3,
                start_round: 1,
                rounds: 30,
                heal_at_end: true,
            };
            let plan = model.generate(4, &mut churn_rng);
            (ToyProcess::new(4), plan)
        };
        let opts = RecoveryOptions {
            burnin: 40,
            baseline_window: 20,
            epsilon: 0.5,
            min_band: 2.0,
            stable_rounds: 5,
            max_rounds: 300,
        };
        let a = measure_recovery(0xFEED, 6, &opts, build);
        let b = measure_recovery(0xFEED, 6, &opts, build);
        assert_eq!(a.reports, b.reports, "same master seed, same estimate");
        assert_eq!(a.replications, 6);
        assert_eq!(a.recovered, b.recovered);
        let c = measure_recovery(0xBEEF, 6, &opts, build);
        assert_ne!(
            a.reports, c.reports,
            "different master seed, different runs"
        );
    }

    #[test]
    #[should_panic(expected = "at least one fault event")]
    fn run_recovery_rejects_empty_plans() {
        let mut rng = SimRng::seed_from(1);
        let _ = run_recovery(
            ToyProcess::new(2),
            FaultPlan::new(),
            &RecoveryOptions::default(),
            &mut rng,
        );
    }
}
