//! The round-driving simulation engine and metric observers.
//!
//! [`Simulation`] owns a process and its random source and advances them one
//! synchronous round at a time. Metric collection is decoupled through the
//! [`Observer`] trait: the engine pushes every [`RoundReport`] to whatever
//! observers the caller attached for the duration of a run. Built-in
//! observers cover the measurements needed for the paper's figures
//! (pool-size series, waiting times, failed deletion attempts).

use crate::process::{AllocationProcess, RoundReport};
use crate::rng::SimRng;
use crate::stats::{Histogram, Summary, TimeSeries};

/// Receives every round's report during an observed run.
pub trait Observer {
    /// Called once per completed round.
    fn on_round(&mut self, report: &RoundReport);
}

impl<F: FnMut(&RoundReport)> Observer for F {
    fn on_round(&mut self, report: &RoundReport) {
        self(report)
    }
}

/// A simulation: a process plus its deterministic random source.
///
/// # Examples
///
/// See the crate-level documentation for a full example with a custom
/// process.
#[derive(Debug)]
pub struct Simulation<P> {
    process: P,
    rng: SimRng,
}

impl<P: AllocationProcess> Simulation<P> {
    /// Creates a simulation from a process and an RNG.
    pub fn new(process: P, rng: SimRng) -> Self {
        Simulation { process, rng }
    }

    /// Read access to the process.
    pub fn process(&self) -> &P {
        &self.process
    }

    /// Mutable access to the process (e.g. for warm-starting the pool).
    pub fn process_mut(&mut self) -> &mut P {
        &mut self.process
    }

    /// Consumes the simulation, returning the process.
    pub fn into_process(self) -> P {
        self.process
    }

    /// Read access to the random source (e.g. for checkpointing).
    pub fn rng(&self) -> &SimRng {
        &self.rng
    }

    /// Executes one round and returns its report.
    pub fn step(&mut self) -> RoundReport {
        self.process.step(&mut self.rng)
    }

    /// Runs `rounds` rounds, discarding reports.
    ///
    /// One [`RoundReport`] is reused across all rounds (via
    /// [`AllocationProcess::step_into`]), so processes with a reusing
    /// override allocate nothing per round in steady state.
    pub fn run_rounds(&mut self, rounds: u64) {
        let mut report = RoundReport::default();
        for _ in 0..rounds {
            self.process.step_into(&mut self.rng, &mut report);
        }
    }

    /// Runs `rounds` rounds, feeding every report to `observer`. The report
    /// buffer is reused across rounds, like [`run_rounds`](Self::run_rounds).
    pub fn run_observed(&mut self, rounds: u64, observer: &mut dyn Observer) {
        let mut report = RoundReport::default();
        for _ in 0..rounds {
            self.process.step_into(&mut self.rng, &mut report);
            observer.on_round(&report);
        }
    }

    /// Runs until `stop` returns `true` for a report or `max_rounds` rounds
    /// have elapsed, feeding every report to `observer`. Returns the number
    /// of rounds executed.
    pub fn run_until(
        &mut self,
        max_rounds: u64,
        observer: &mut dyn Observer,
        mut stop: impl FnMut(&RoundReport) -> bool,
    ) -> u64 {
        let mut report = RoundReport::default();
        for i in 0..max_rounds {
            self.process.step_into(&mut self.rng, &mut report);
            observer.on_round(&report);
            if stop(&report) {
                return i + 1;
            }
        }
        max_rounds
    }

    /// Runs a *static* process (one with a termination condition) to
    /// completion, up to `max_rounds`. Returns the number of rounds used, or
    /// `None` if the process did not finish within the bound.
    pub fn run_to_completion(&mut self, max_rounds: u64) -> Option<u64> {
        let mut report = RoundReport::default();
        for i in 0..max_rounds {
            if self.process.is_finished() {
                return Some(i);
            }
            self.process.step_into(&mut self.rng, &mut report);
        }
        if self.process.is_finished() {
            Some(max_rounds)
        } else {
            None
        }
    }
}

/// Observer recording the pool-size series `m(t)`.
#[derive(Debug, Default)]
pub struct PoolSeries {
    series: TimeSeries,
}

impl PoolSeries {
    /// Creates an empty pool-size observer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded series.
    pub fn series(&self) -> &TimeSeries {
        &self.series
    }

    /// Consumes the observer, returning the series.
    pub fn into_series(self) -> TimeSeries {
        self.series
    }
}

impl Observer for PoolSeries {
    fn on_round(&mut self, report: &RoundReport) {
        self.series.push(report.pool_size as f64);
    }
}

/// Observer aggregating the waiting times of all deleted balls, exactly as
/// Figure 5 reports them: the mean over every deletion in the window and the
/// maximum over the window.
#[derive(Debug, Default)]
pub struct WaitingTimes {
    histogram: Histogram,
}

impl WaitingTimes {
    /// Creates an empty waiting-time observer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Histogram of all observed waiting times.
    pub fn histogram(&self) -> &Histogram {
        &self.histogram
    }

    /// Mean waiting time over the window (0 if nothing was deleted).
    pub fn mean(&self) -> f64 {
        self.histogram.mean()
    }

    /// Maximum waiting time over the window, if any ball was deleted.
    pub fn max(&self) -> Option<u64> {
        self.histogram.max()
    }
}

impl Observer for WaitingTimes {
    fn on_round(&mut self, report: &RoundReport) {
        self.histogram.record_all(&report.waiting_times);
    }
}

/// Observer summarizing scalar per-round quantities used by several
/// experiments: pool size, failed deletions, max load.
#[derive(Debug, Default)]
pub struct RoundStats {
    /// Summary of `pool_size` across observed rounds.
    pub pool: Summary,
    /// Summary of `failed_deletions` across observed rounds.
    pub failed_deletions: Summary,
    /// Summary of `max_load` across observed rounds.
    pub max_load: Summary,
    /// Summary of `deleted` (throughput) across observed rounds.
    pub deleted: Summary,
    /// Summary of `thrown` (allocation requests, i.e. random probes issued)
    /// across observed rounds.
    pub thrown: Summary,
    /// Summary of `generated` across observed rounds.
    pub generated: Summary,
}

impl RoundStats {
    /// Creates an empty per-round statistics observer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Average number of allocation probes a ball issues over its lifetime,
    /// `Σ thrown / Σ generated` (each pooled ball issues one probe per
    /// round it competes in). The paper (Sec. I-B) claims this is constant
    /// for constant λ. Returns `None` when no balls were generated.
    pub fn probes_per_ball(&self) -> Option<f64> {
        let generated = self.generated.mean() * self.generated.count() as f64;
        if generated == 0.0 {
            return None;
        }
        let thrown = self.thrown.mean() * self.thrown.count() as f64;
        Some(thrown / generated)
    }
}

impl Observer for RoundStats {
    fn on_round(&mut self, report: &RoundReport) {
        self.pool.push_u64(report.pool_size);
        self.failed_deletions.push_u64(report.failed_deletions);
        self.max_load.push_u64(report.max_load);
        self.deleted.push_u64(report.deleted);
        self.thrown.push_u64(report.thrown);
        self.generated.push_u64(report.generated);
    }
}

/// Fans one report out to several observers.
#[derive(Default)]
pub struct MultiObserver<'a> {
    observers: Vec<&'a mut dyn Observer>,
}

impl std::fmt::Debug for MultiObserver<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiObserver")
            .field("observers", &self.observers.len())
            .finish()
    }
}

impl<'a> MultiObserver<'a> {
    /// Creates an empty multi-observer.
    pub fn new() -> Self {
        MultiObserver {
            observers: Vec::new(),
        }
    }

    /// Adds an observer; returns `self` for chaining.
    pub fn with(mut self, observer: &'a mut dyn Observer) -> Self {
        self.observers.push(observer);
        self
    }
}

impl Observer for MultiObserver<'_> {
    fn on_round(&mut self, report: &RoundReport) {
        for obs in &mut self.observers {
            obs.on_round(report);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Process producing a deterministic, known report stream.
    struct Scripted {
        round: u64,
    }

    impl AllocationProcess for Scripted {
        fn bins(&self) -> usize {
            4
        }
        fn round(&self) -> u64 {
            self.round
        }
        fn pool_size(&self) -> usize {
            (self.round * 2) as usize
        }
        fn step(&mut self, _rng: &mut SimRng) -> RoundReport {
            self.round += 1;
            RoundReport {
                round: self.round,
                pool_size: self.round * 2,
                failed_deletions: self.round % 2,
                max_load: 1,
                deleted: 3,
                waiting_times: vec![self.round, self.round + 1],
                ..RoundReport::default()
            }
        }
    }

    fn sim() -> Simulation<Scripted> {
        Simulation::new(Scripted { round: 0 }, SimRng::seed_from(0))
    }

    #[test]
    fn run_rounds_advances_process() {
        let mut s = sim();
        s.run_rounds(7);
        assert_eq!(s.process().round(), 7);
        assert_eq!(s.into_process().round, 7);
    }

    #[test]
    fn pool_series_records_every_round() {
        let mut s = sim();
        let mut obs = PoolSeries::new();
        s.run_observed(5, &mut obs);
        assert_eq!(obs.series().len(), 5);
        assert_eq!(obs.series().values(), &[2.0, 4.0, 6.0, 8.0, 10.0]);
        assert_eq!(obs.into_series().len(), 5);
    }

    #[test]
    fn waiting_times_aggregates_all_deletions() {
        let mut s = sim();
        let mut obs = WaitingTimes::new();
        s.run_observed(3, &mut obs);
        // Waiting times: rounds 1..=3 produce {1,2},{2,3},{3,4}.
        assert_eq!(obs.histogram().count(), 6);
        assert_eq!(obs.max(), Some(4));
        assert!((obs.mean() - 15.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn round_stats_summarizes() {
        let mut s = sim();
        let mut obs = RoundStats::new();
        s.run_observed(4, &mut obs);
        assert_eq!(obs.pool.count(), 4);
        assert_eq!(obs.pool.max(), Some(8.0));
        assert_eq!(obs.deleted.mean(), 3.0);
        assert_eq!(obs.failed_deletions.min(), Some(0.0));
        assert_eq!(obs.max_load.mean(), 1.0);
        // Scripted rounds have thrown = generated = 0 -> no probe ratio.
        assert_eq!(obs.probes_per_ball(), None);
    }

    #[test]
    fn probes_per_ball_ratio() {
        let mut obs = RoundStats::new();
        // Two rounds: 10 generated / 15 thrown, 10 generated / 25 thrown.
        for (generated, thrown) in [(10u64, 15u64), (10, 25)] {
            obs.on_round(&RoundReport {
                generated,
                thrown,
                ..RoundReport::default()
            });
        }
        assert_eq!(obs.probes_per_ball(), Some(2.0)); // 40 / 20
    }

    #[test]
    fn run_until_stops_at_predicate() {
        let mut s = sim();
        let mut noop = |_: &RoundReport| {};
        let ran = s.run_until(100, &mut noop, |r| r.pool_size >= 6);
        assert_eq!(ran, 3);
        assert_eq!(s.process().round(), 3);
    }

    #[test]
    fn run_until_respects_max_rounds() {
        let mut s = sim();
        let mut noop = |_: &RoundReport| {};
        let ran = s.run_until(5, &mut noop, |_| false);
        assert_eq!(ran, 5);
    }

    #[test]
    fn multi_observer_fans_out() {
        let mut s = sim();
        let mut pool = PoolSeries::new();
        let mut stats = RoundStats::new();
        let mut multi = MultiObserver::new().with(&mut pool).with(&mut stats);
        s.run_observed(3, &mut multi);
        assert_eq!(pool.series().len(), 3);
        assert_eq!(stats.pool.count(), 3);
    }

    #[test]
    fn closures_are_observers() {
        let mut s = sim();
        let mut seen = 0u64;
        let mut counter = |r: &RoundReport| seen += r.deleted;
        s.run_observed(2, &mut counter);
        assert_eq!(seen, 6);
    }

    #[test]
    fn run_to_completion_none_for_infinite_process() {
        let mut s = sim();
        assert_eq!(s.run_to_completion(10), None);
    }
}
