//! An executable specification of CAPPED(c, λ).
//!
//! [`SpecCapped`] implements Algorithm 1 as literally as possible — per-bin
//! request gathering, an explicit "accept the oldest min{c − ℓ, ν}" sort,
//! loads recomputed from scratch every round, no incremental bookkeeping —
//! trading all performance for obviousness. Its purpose is *differential
//! testing*: driven with the same bin choices (or the same RNG stream), the
//! optimized [`CappedProcess`](crate::process::CappedProcess) must produce
//! an identical trajectory (reports, loads, waiting times). It is the one
//! oracle of the repository: `tests/spec_differential.rs` and
//! `tests/kernel_differential.rs` in this crate and the serving layer's
//! differential suite all run against it.
//!
//! Besides the paper's process it models the fault surface the optimized
//! process exposes, as plainly: per-bin live capacities (possibly below
//! the current load), offline bins, and pool
//! surges. It also implements [`AllocationProcess`] and [`FaultTolerant`],
//! so `FaultedProcess<SpecCapped>` replays a fault plan.
//!
//! Keep this module boring. If a behavior question ever arises, this file
//! is the answer; the optimized process is the one under suspicion.

use iba_sim::arrivals::ArrivalModel;
use iba_sim::faults::FaultTolerant;
use iba_sim::process::{AllocationProcess, RoundReport};
use iba_sim::rng::SimRng;

use crate::config::{Capacity, CappedConfig};

/// A ball in the specification: generation round plus a stable identity
/// (the order it entered the system), used only for deterministic
/// tie-breaking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SpecBall {
    label: u64,
    id: u64,
}

/// One bin's state for [`SpecCapped::from_state`]: live capacity, FIFO
/// queue labels (served first → last), and whether the bin is offline.
pub type SpecBin = (Capacity, Vec<u64>, bool);

/// The reference implementation of CAPPED(c, λ).
///
/// # Examples
///
/// ```
/// use iba_core::spec::SpecCapped;
/// let mut spec = SpecCapped::new(4, 1, 2); // n = 4, c = 1, λn = 2
/// let report = spec.step_with_choices(&[0, 0]);
/// assert_eq!(report.accepted, 1); // bin 0 takes the older ball only
/// assert_eq!(report.pool_size, 1);
/// ```
#[derive(Debug, Clone)]
pub struct SpecCapped {
    bins: usize,
    arrivals: ArrivalModel,
    capacities: Vec<Capacity>,
    offline: Vec<bool>,
    pool: Vec<SpecBall>,
    queues: Vec<Vec<SpecBall>>, // FIFO: index 0 is served next
    round: u64,
    next_id: u64,
}

impl SpecCapped {
    /// Creates the specification process with `n` bins, capacity `c` and a
    /// deterministic batch of `batch` balls per round.
    ///
    /// # Panics
    ///
    /// Panics if `n = 0` or `c = 0`.
    pub fn new(bins: usize, capacity: u32, batch: u64) -> Self {
        assert!(bins > 0, "need at least one bin");
        let capacity = Capacity::finite(capacity).expect("capacity must be positive");
        Self::empty(ArrivalModel::Deterministic { batch }, vec![capacity; bins])
    }

    /// Creates the specification of `config` in the paper's initial state:
    /// its arrival model and its per-bin capacities (heterogeneous
    /// profiles included), empty pool, empty bins.
    pub fn from_config(config: &CappedConfig) -> Self {
        let capacities = (0..config.bins()).map(|i| config.capacity_of(i)).collect();
        Self::empty(config.arrivals().clone(), capacities)
    }

    /// Creates the specification of `config` in a given state: the last
    /// completed round, the pool's labels, and one [`SpecBin`] per bin.
    /// The configuration contributes only its arrival model; capacities
    /// come from `bins`. A bin may hold more balls than its capacity (a
    /// degraded bin keeps its overflow).
    ///
    /// # Panics
    ///
    /// Panics if `bins` does not have one entry per configured bin, or if
    /// the pool labels are not sorted oldest-first.
    pub fn from_state(config: &CappedConfig, round: u64, pool: &[u64], bins: Vec<SpecBin>) -> Self {
        assert_eq!(bins.len(), config.bins(), "one state per bin");
        assert!(
            pool.windows(2).all(|w| w[0] <= w[1]),
            "pool labels must be oldest-first"
        );
        let capacities = bins.iter().map(|b| b.0).collect();
        let mut spec = Self::empty(config.arrivals().clone(), capacities);
        spec.round = round;
        for &label in pool {
            let ball = spec.fresh_ball(label);
            spec.pool.push(ball);
        }
        for (i, (_, labels, offline)) in bins.into_iter().enumerate() {
            for label in labels {
                let ball = spec.fresh_ball(label);
                spec.queues[i].push(ball);
            }
            spec.offline[i] = offline;
        }
        spec
    }

    fn empty(arrivals: ArrivalModel, capacities: Vec<Capacity>) -> Self {
        let bins = capacities.len();
        SpecCapped {
            bins,
            arrivals,
            capacities,
            offline: vec![false; bins],
            pool: Vec::new(),
            queues: vec![Vec::new(); bins],
            round: 0,
            next_id: 0,
        }
    }

    fn fresh_ball(&mut self, label: u64) -> SpecBall {
        let ball = SpecBall {
            label,
            id: self.next_id,
        };
        self.next_id += 1;
        ball
    }

    /// Pool size `m(t)`.
    pub fn pool_size(&self) -> usize {
        self.pool.len()
    }

    /// Load of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ n`.
    pub fn load(&self, i: usize) -> usize {
        self.queues[i].len()
    }

    /// Labels of bin `i`'s queue, served first → last.
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ n`.
    pub fn queue_labels(&self, i: usize) -> Vec<u64> {
        self.queues[i].iter().map(|b| b.label).collect()
    }

    /// Labels of the pooled balls, in pool order.
    pub fn pool_labels(&self) -> Vec<u64> {
        self.pool.iter().map(|b| b.label).collect()
    }

    /// Current round.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Live capacity of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ n`.
    pub fn capacity(&self, i: usize) -> Capacity {
        self.capacities[i]
    }

    /// Sets bin `i`'s live capacity. Balls above a lowered capacity stay.
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ n`.
    pub fn set_bin_capacity(&mut self, i: usize, capacity: Capacity) {
        self.capacities[i] = capacity;
    }

    /// Takes bin `i` offline (`true`) or back online (`false`). An offline
    /// bin rejects every request and makes no deletion attempt; its balls
    /// stay and still count toward the loads.
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ n`.
    pub fn set_bin_offline(&mut self, i: usize, offline: bool) {
        self.offline[i] = offline;
    }

    /// Whether bin `i` is offline.
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ n`.
    pub fn is_bin_offline(&self, i: usize) -> bool {
        self.offline[i]
    }

    /// Adds `extra` balls labeled with the current round to the pool (a
    /// pool surge, or a warm start before the first round).
    pub fn inject_pool(&mut self, extra: u64) {
        for _ in 0..extra {
            let ball = self.fresh_ball(self.round);
            self.pool.push(ball);
        }
    }

    /// Executes one round of Algorithm 1 with a deterministic batch and
    /// the given bin choices, literally:
    ///
    /// 1. generate `batch` balls, add to pool;
    /// 2. ball `i` (in pool order, oldest first) requests `choices[i]`;
    /// 3. every online bin gathers its requests, sorts them by age (ties by
    ///    identity) and accepts the oldest `min{c − ℓ, ν}` (none if
    ///    `ℓ ≥ c`); offline bins accept nothing;
    /// 4. every online, non-empty bin deletes its first-queued ball; an
    ///    online empty bin counts a failed deletion.
    ///
    /// # Panics
    ///
    /// Panics if the arrival model is not deterministic, or if
    /// `choices.len()` is not the number of pooled balls after generation.
    pub fn step_with_choices(&mut self, choices: &[usize]) -> RoundReport {
        let ArrivalModel::Deterministic { batch } = self.arrivals else {
            panic!("step_with_choices requires the deterministic arrival model");
        };
        self.play_round(batch, choices)
    }

    /// One round with `generated` new balls and one bin choice per pooled
    /// ball after generation (see [`step_with_choices`](Self::step_with_choices)).
    fn play_round(&mut self, generated: u64, choices: &[usize]) -> RoundReport {
        self.round += 1;
        let round = self.round;

        // 1. Generation.
        for _ in 0..generated {
            let ball = self.fresh_ball(round);
            self.pool.push(ball);
        }
        assert_eq!(choices.len(), self.pool.len(), "one choice per pooled ball");
        let thrown = self.pool.len() as u64;

        // 2 + 3. Per-bin gathering and oldest-first acceptance.
        let mut requests: Vec<Vec<usize>> = vec![Vec::new(); self.bins];
        for (pool_idx, &bin) in choices.iter().enumerate() {
            assert!(bin < self.bins, "bin choice out of range");
            requests[bin].push(pool_idx);
        }
        let mut accepted_flags = vec![false; self.pool.len()];
        for (bin, reqs) in requests.iter_mut().enumerate() {
            let free = if self.offline[bin] {
                0
            } else {
                (self.capacities[bin].get() as usize).saturating_sub(self.queues[bin].len())
            };
            // Sort requests by (label, id): the oldest balls first, ties
            // broken by identity. (Pool order already has this property,
            // but the specification *re-derives* it rather than relying
            // on it.)
            reqs.sort_by_key(|&idx| (self.pool[idx].label, self.pool[idx].id));
            for &idx in reqs.iter().take(free) {
                accepted_flags[idx] = true;
                self.queues[bin].push(self.pool[idx]);
            }
        }
        let accepted = accepted_flags.iter().filter(|&&a| a).count() as u64;
        let survivors: Vec<SpecBall> = self
            .pool
            .iter()
            .zip(&accepted_flags)
            .filter(|&(_, &acc)| !acc)
            .map(|(&b, _)| b)
            .collect();
        self.pool = survivors;

        // 4. FIFO deletion, in bin order.
        let mut waiting_times = Vec::new();
        let mut failed_deletions = 0u64;
        let mut buffered = 0u64;
        let mut max_load = 0u64;
        for (q, &offline) in self.queues.iter_mut().zip(&self.offline) {
            if offline {
                // No deletion attempt; the frozen balls still count.
            } else if q.is_empty() {
                failed_deletions += 1;
            } else {
                let ball = q.remove(0);
                waiting_times.push(round - ball.label);
            }
            buffered += q.len() as u64;
            max_load = max_load.max(q.len() as u64);
        }

        RoundReport {
            round,
            generated,
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
}

/// The randomized round: sample the arrival model, then draw one uniform
/// bin per pooled ball in age order, one call per ball.
impl AllocationProcess for SpecCapped {
    fn bins(&self) -> usize {
        self.bins
    }

    fn round(&self) -> u64 {
        self.round
    }

    fn pool_size(&self) -> usize {
        self.pool.len()
    }

    fn step(&mut self, rng: &mut SimRng) -> RoundReport {
        let generated = self.arrivals.sample(rng);
        let thrown = self.pool.len() + generated as usize;
        let choices: Vec<usize> = (0..thrown).map(|_| rng.uniform_bin(self.bins)).collect();
        self.play_round(generated, &choices)
    }

    fn label(&self) -> String {
        format!("spec(n={})", self.bins)
    }
}

/// The fault surface of [`CappedProcess`](crate::process::CappedProcess):
/// crashes freeze a bin, capacity changes set the live bound (0 or a
/// value above [`MAX_CAPACITY`](crate::config::MAX_CAPACITY) is malformed
/// and ignored), surges enter the pool labeled with the current round.
impl FaultTolerant for SpecCapped {
    fn crash_bin(&mut self, i: usize) {
        self.set_bin_offline(i, true);
    }

    fn recover_bin(&mut self, i: usize) {
        self.set_bin_offline(i, false);
    }

    fn offline_bins(&self) -> usize {
        self.offline.iter().filter(|&&o| o).count()
    }

    fn set_bin_capacity(&mut self, i: usize, capacity: u32) {
        if let Ok(capacity) = Capacity::finite(capacity) {
            self.capacities[i] = capacity;
        }
    }

    fn surge_pool(&mut self, extra: u64) {
        self.inject_pool(extra);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        let spec = SpecCapped::new(4, 2, 2);
        assert_eq!(spec.pool_size(), 0);
        assert_eq!(spec.round(), 0);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        SpecCapped::new(4, 0, 1);
    }

    #[test]
    fn accepts_oldest_first() {
        let mut spec = SpecCapped::new(2, 1, 2);
        // Round 1: two balls, both to bin 0 -> one accepted, one pooled.
        let r = spec.step_with_choices(&[0, 0]);
        assert_eq!(r.accepted, 1);
        assert_eq!(r.pool_size, 1);
        // Round 2: leftover (label 1) + two new (label 2), all to bin 1.
        // Only the leftover is accepted.
        let r = spec.step_with_choices(&[1, 1, 1]);
        assert_eq!(r.accepted, 1);
        assert_eq!(r.pool_size, 2);
        // The accepted leftover is served immediately: waiting time 1.
        assert_eq!(r.waiting_times, vec![1]);
    }

    #[test]
    fn fifo_service_across_rounds() {
        let mut spec = SpecCapped::new(1, 3, 1);
        // Three rounds fill bin 0's buffer; service order must be the
        // acceptance order.
        let r1 = spec.step_with_choices(&[0]);
        assert_eq!(r1.waiting_times, vec![0]); // accepted and served
        let r2 = spec.step_with_choices(&[0]);
        assert_eq!(r2.waiting_times, vec![0]);
        let r3 = spec.step_with_choices(&[0]);
        assert_eq!(r3.waiting_times, vec![0]);
    }

    #[test]
    fn report_conserves() {
        let mut spec = SpecCapped::new(3, 2, 2);
        for round in 0..20 {
            let count = spec.pool_size() + 2;
            let choices: Vec<usize> = (0..count).map(|i| (i + round) % 3).collect();
            let r = spec.step_with_choices(&choices);
            assert!(r.conserves_balls());
        }
    }

    #[test]
    fn overfull_bin_accepts_nothing_and_drains() {
        // Four balls under a live capacity of 2: no room, one served a round.
        let config = CappedConfig::new(2, 2, 0.5).unwrap();
        let finite2 = Capacity::finite(2).unwrap();
        let mut spec = SpecCapped::from_state(
            &config,
            5,
            &[],
            vec![
                (finite2, vec![1, 2, 3, 4], false),
                (finite2, Vec::new(), false),
            ],
        );
        let r = spec.step_with_choices(&[0]);
        assert_eq!(r.accepted, 0);
        assert_eq!(r.waiting_times, vec![5]); // label 1 served in round 6
        assert_eq!(spec.queue_labels(0), vec![2, 3, 4]);
        assert_eq!(spec.pool_labels(), vec![6]);
    }

    #[test]
    fn offline_bin_rejects_and_makes_no_deletion_attempt() {
        let mut spec = SpecCapped::new(2, 2, 2);
        spec.step_with_choices(&[0, 0]); // bin 0 keeps one ball
        spec.set_bin_offline(0, true);
        let r = spec.step_with_choices(&[0, 0]);
        assert_eq!(r.accepted, 0);
        assert_eq!(r.pool_size, 2);
        assert_eq!(r.failed_deletions, 1, "only the online empty bin fails");
        assert_eq!(r.buffered, 1, "the frozen ball still counts");
        assert_eq!(FaultTolerant::offline_bins(&spec), 1);
    }

    #[test]
    fn raised_bin_accepts_every_request_and_skips_malformed_raises() {
        let mut spec = SpecCapped::new(2, 1, 5);
        let raised = Capacity::finite(64).unwrap();
        FaultTolerant::set_bin_capacity(&mut spec, 1, 64);
        let r = spec.step_with_choices(&[1; 5]);
        assert_eq!(r.accepted, 5);
        assert_eq!(spec.load(1), 4);
        // Malformed: 0 and a value above MAX_CAPACITY change nothing.
        FaultTolerant::set_bin_capacity(&mut spec, 1, 0);
        FaultTolerant::set_bin_capacity(&mut spec, 1, crate::config::MAX_CAPACITY + 1);
        assert_eq!(spec.capacity(1), raised);
    }

    #[test]
    fn surges_are_labeled_with_the_current_round() {
        let mut spec = SpecCapped::new(2, 1, 1);
        spec.step_with_choices(&[0]);
        FaultTolerant::surge_pool(&mut spec, 3);
        assert_eq!(spec.pool_labels(), vec![1, 1, 1]);
    }
}
