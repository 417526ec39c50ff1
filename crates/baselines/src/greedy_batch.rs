//! Batched parallel GREEDY\[d\] with leaky bins (Berenbrink et al.,
//! PODC 2016 / Algorithmica 2018).
//!
//! The main comparison baseline of the paper. Model:
//!
//! - `n` bins, each with an **unbounded** FIFO queue;
//! - each round a batch of `λn` new balls arrives;
//! - every ball samples `d` bins independently and uniformly at random and
//!   commits to the least-loaded of them, where load is the queue length at
//!   the **beginning of the round** — balls of the current batch are not
//!   visible to each other (this is the crux of why parallel GREEDY loses
//!   the power of two choices: up to Θ(log n / log log n) balls of one
//!   batch can pile onto a single bin);
//! - at the end of the round every non-empty bin deletes its first ball.
//!
//! Since queues are unbounded, no ball is ever rejected: the pool is always
//! empty and a ball's waiting time equals the number of rounds it spends in
//! its queue. For constant λ the maximum waiting time is Θ(log n) for both
//! d = 1 and d = 2 (with different λ-dependence); CAPPED(c, λ) reduces this
//! to `log log n + O(1)` — the headline comparison of the paper (see the
//! `CMP` experiment).
//!
//! CAPPED(∞, λ) coincides with GREEDY\[1\] (paper, Section II); the
//! integration tests verify the two implementations produce identically
//! distributed trajectories given the same random choices.

use iba_sim::arrivals::ArrivalModel;
use iba_sim::error::ConfigError;
use iba_sim::process::{AllocationProcess, RoundReport};
use iba_sim::rng::SimRng;
use iba_sim::stats::Histogram;

use std::collections::VecDeque;

/// The batched parallel GREEDY\[d\] process.
///
/// # Examples
///
/// ```
/// use iba_baselines::GreedyBatchProcess;
/// use iba_sim::{AllocationProcess, SimRng};
///
/// # fn main() -> Result<(), iba_sim::error::ConfigError> {
/// let mut p = GreedyBatchProcess::new(256, 2, 0.75)?; // d = 2
/// let mut rng = SimRng::seed_from(1);
/// let report = p.step(&mut rng);
/// assert_eq!(report.generated, 192);
/// assert_eq!(report.pool_size, 0); // unbounded queues never reject
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GreedyBatchProcess {
    bins: usize,
    choices: u32,
    lambda: f64,
    arrivals: ArrivalModel,
    queues: Vec<VecDeque<u64>>,
    /// Queue lengths at the beginning of the current round (the load the
    /// balls of a batch observe).
    start_loads: Vec<u32>,
    /// Fault-injection mask: an offline bin is excluded from every ball's
    /// candidate comparison and stops serving; its queue is frozen.
    offline: Vec<bool>,
    /// Generation labels of balls whose sampled candidates were *all*
    /// offline; they are re-thrown (with fresh samples) next round.
    /// Reported as the pool — GREEDY's only source of unallocated balls.
    parked: Vec<u64>,
    round: u64,
    total_generated: u64,
    total_deleted: u64,
    /// Largest number of balls of the *last* batch that committed to a
    /// single bin (the batch-pileup quantity of the paper's Section I:
    /// batch members cannot see each other, so up to
    /// Θ(log n / log log n) of them can land on one bin even for d ≥ 2).
    last_batch_pileup: u64,
}

impl GreedyBatchProcess {
    /// Creates a GREEDY\[d\] process with `n` bins, `d` choices per ball
    /// and deterministic arrivals of `λn` balls per round.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if `n = 0`, `d = 0`, `λ ∉ [0, 1 − 1/n]` or
    /// `λn ∉ ℕ`.
    pub fn new(bins: usize, choices: u32, lambda: f64) -> Result<Self, ConfigError> {
        if choices == 0 {
            return Err(ConfigError::OutOfDomain {
                name: "choices",
                domain: "d >= 1",
            });
        }
        let arrivals = ArrivalModel::deterministic_rate(bins, lambda)?;
        Ok(GreedyBatchProcess {
            bins,
            choices,
            lambda,
            arrivals,
            queues: (0..bins).map(|_| VecDeque::new()).collect(),
            start_loads: vec![0; bins],
            offline: vec![false; bins],
            parked: Vec::new(),
            round: 0,
            total_generated: 0,
            total_deleted: 0,
            last_batch_pileup: 0,
        })
    }

    /// Replaces the arrival model (for arrival-model ablations).
    pub fn with_arrivals(mut self, arrivals: ArrivalModel) -> Self {
        self.arrivals = arrivals;
        self
    }

    /// Number of choices `d` per ball.
    pub fn choices(&self) -> u32 {
        self.choices
    }

    /// Injection rate `λ`.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Current load (queue length) of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ n`.
    pub fn load(&self, i: usize) -> usize {
        self.queues[i].len()
    }

    /// Current loads of all bins.
    pub fn loads(&self) -> Vec<usize> {
        self.queues.iter().map(VecDeque::len).collect()
    }

    /// Histogram of current bin loads.
    pub fn load_histogram(&self) -> Histogram {
        self.queues.iter().map(|q| q.len() as u64).collect()
    }

    /// Total number of queued balls (the system load of the PODC'16
    /// analysis).
    pub fn system_load(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// Number of currently offline bins.
    pub fn offline_count(&self) -> usize {
        self.offline.iter().filter(|&&o| o).count()
    }

    /// Ball-conservation invariant.
    pub fn conserves_balls(&self) -> bool {
        self.total_generated
            == self.total_deleted + self.system_load() as u64 + self.parked.len() as u64
    }

    /// Largest number of last-round batch members that committed to one
    /// bin — the intra-batch pileup the paper's introduction blames for
    /// parallel GREEDY losing the power of two choices.
    pub fn last_batch_pileup(&self) -> u64 {
        self.last_batch_pileup
    }

    /// Executes one round with pre-drawn choices: ball `i` of the batch
    /// uses bins `choices[i·d .. (i+1)·d]` and commits to the least loaded
    /// (by start-of-round load; ties toward the earlier entry). Used by the
    /// equivalence test against CAPPED(∞, λ).
    ///
    /// # Panics
    ///
    /// Panics if the arrival model is not deterministic or `choices.len()`
    /// is not `batch · d`.
    pub fn step_with_choices(&mut self, choices: &[usize]) -> RoundReport {
        let ArrivalModel::Deterministic { batch } = self.arrivals else {
            panic!("step_with_choices requires the deterministic arrival model");
        };
        let d = self.choices as usize;
        assert_eq!(
            choices.len(),
            batch as usize * d,
            "need exactly d choices per generated ball"
        );
        assert!(
            self.parked.is_empty() && self.offline.iter().all(|&o| !o),
            "step_with_choices does not support fault injection"
        );
        let round = self.begin_round(batch);
        for ball in 0..batch as usize {
            let candidates = &choices[ball * d..(ball + 1) * d];
            let mut best = candidates[0];
            for &candidate in &candidates[1..] {
                if self.start_loads[candidate] < self.start_loads[best] {
                    best = candidate;
                }
            }
            self.queues[best].push_back(round);
        }
        self.record_batch_pileup();
        self.finish_round(round, batch, batch)
    }

    /// Advances the round counter, books the generated balls and snapshots
    /// the start-of-round loads the batch will measure against.
    fn begin_round(&mut self, generated: u64) -> u64 {
        self.round += 1;
        self.total_generated += generated;
        for (s, q) in self.start_loads.iter_mut().zip(&self.queues) {
            *s = q.len() as u32;
        }
        self.round
    }

    /// Records the largest per-bin commitment count of the current batch
    /// (balls of the current round at the back of each queue).
    fn record_batch_pileup(&mut self) {
        self.last_batch_pileup = self
            .queues
            .iter()
            .zip(&self.start_loads)
            .map(|(q, &start)| (q.len() - start as usize) as u64)
            .max()
            .unwrap_or(0);
    }

    /// Runs the deletion stage and assembles the report. `thrown` is the
    /// number of balls that competed for allocation this round (batch +
    /// re-thrown parked balls); the balls still parked afterwards are the
    /// pool.
    fn finish_round(&mut self, round: u64, generated: u64, thrown: u64) -> RoundReport {
        let mut waiting_times = Vec::with_capacity(self.bins);
        let mut failed_deletions = 0u64;
        let mut buffered = 0u64;
        let mut max_load = 0u64;
        for (q, &offline) in self.queues.iter_mut().zip(&self.offline) {
            if offline {
                // A crashed bin neither serves nor counts as a failed
                // deletion *attempt* — it makes none (same semantics as
                // CAPPED's fault mask).
                buffered += q.len() as u64;
                max_load = max_load.max(q.len() as u64);
                continue;
            }
            match q.pop_front() {
                Some(label) => {
                    waiting_times.push(round - label);
                    self.total_deleted += 1;
                }
                None => failed_deletions += 1,
            }
            let load = q.len() as u64;
            buffered += load;
            max_load = max_load.max(load);
        }
        let pool_size = self.parked.len() as u64;
        RoundReport {
            round,
            generated,
            thrown,
            accepted: thrown - pool_size,
            deleted: waiting_times.len() as u64,
            failed_deletions,
            pool_size,
            buffered,
            max_load,
            waiting_times,
        }
    }
}

impl AllocationProcess for GreedyBatchProcess {
    fn bins(&self) -> usize {
        self.bins
    }

    fn round(&self) -> u64 {
        self.round
    }

    fn pool_size(&self) -> usize {
        // Unbounded queues allocate every ball on arrival — unless fault
        // injection parked it (all sampled candidates offline).
        self.parked.len()
    }

    fn step(&mut self, rng: &mut SimRng) -> RoundReport {
        let generated = self.arrivals.sample(rng);
        let round = self.begin_round(generated);

        // Allocation: least-loaded *online* bin among d samples, by
        // start-of-round load (ties toward the earlier sample). Every ball
        // draws exactly d samples whether or not bins are offline, so the
        // fault-free trajectory is bit-identical to the mask-free code.
        // Parked balls re-throw first (they are the oldest).
        let n = self.bins;
        let d = self.choices;
        let parked = std::mem::take(&mut self.parked);
        let thrown = parked.len() as u64 + generated;
        let labels = parked
            .into_iter()
            .chain(std::iter::repeat_n(round, generated as usize));
        for label in labels {
            let mut best: Option<usize> = None;
            for _ in 0..d {
                let candidate = rng.uniform_bin(n);
                if self.offline[candidate] {
                    continue;
                }
                best = match best {
                    Some(b) if self.start_loads[candidate] >= self.start_loads[b] => Some(b),
                    _ => Some(candidate),
                };
            }
            match best {
                Some(bin) => self.queues[bin].push_back(label),
                None => self.parked.push(label), // every candidate offline
            }
        }
        self.record_batch_pileup();

        self.finish_round(round, generated, thrown)
    }

    fn label(&self) -> String {
        format!(
            "greedy-batch(n={}, d={}, λ={})",
            self.bins, self.choices, self.lambda
        )
    }
}

/// GREEDY\[d\] under fault injection: an offline bin is excluded from
/// candidate comparisons and freezes its queue; a ball whose `d` samples
/// are all offline is *parked* (reported as the pool) and re-thrown next
/// round. Queues are unbounded, so capacity degradation is a no-op (the
/// [`FaultTolerant::set_bin_capacity`](iba_sim::faults::FaultTolerant::set_bin_capacity)
/// default).
impl iba_sim::faults::FaultTolerant for GreedyBatchProcess {
    fn crash_bin(&mut self, i: usize) {
        self.offline[i] = true;
    }

    fn recover_bin(&mut self, i: usize) {
        self.offline[i] = false;
    }

    fn offline_bins(&self) -> usize {
        self.offline_count()
    }

    fn surge_pool(&mut self, extra: u64) {
        let label = self.round;
        self.parked
            .extend(std::iter::repeat_n(label, extra as usize));
        self.total_generated += extra;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn process(n: usize, d: u32, lambda: f64) -> GreedyBatchProcess {
        GreedyBatchProcess::new(n, d, lambda).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(GreedyBatchProcess::new(0, 1, 0.5).is_err());
        assert!(GreedyBatchProcess::new(10, 0, 0.5).is_err());
        assert!(GreedyBatchProcess::new(10, 1, 0.33).is_err());
        assert!(GreedyBatchProcess::new(10, 2, 0.5).is_ok());
    }

    #[test]
    fn no_ball_is_ever_rejected() {
        let mut p = process(64, 1, 0.75);
        let mut rng = SimRng::seed_from(1);
        for _ in 0..100 {
            let r = p.step(&mut rng);
            assert_eq!(r.pool_size, 0);
            assert_eq!(r.accepted, r.generated);
            assert!(r.conserves_balls());
        }
        assert!(p.conserves_balls());
    }

    #[test]
    fn system_load_is_stationary_for_subcritical_lambda() {
        // λ < 1: the system is positive recurrent (PODC'16); the load must
        // not grow linearly in time.
        let mut p = process(128, 1, 0.5);
        let mut rng = SimRng::seed_from(2);
        for _ in 0..500 {
            p.step(&mut rng);
        }
        let load_500 = p.system_load();
        for _ in 0..500 {
            p.step(&mut rng);
        }
        let load_1000 = p.system_load();
        // Allow stochastic fluctuation but rule out linear growth
        // (λn/2 per round would add 32 000 balls).
        assert!(
            (load_1000 as i64 - load_500 as i64).unsigned_abs() < 2_000,
            "{load_500} -> {load_1000}"
        );
    }

    #[test]
    fn two_choices_beat_one_choice_on_max_load() {
        let mut one = process(256, 1, 0.75);
        let mut two = process(256, 2, 0.75);
        let mut rng1 = SimRng::seed_from(3);
        let mut rng2 = SimRng::seed_from(4);
        let mut max1 = 0u64;
        let mut max2 = 0u64;
        for i in 0..600 {
            let r1 = one.step(&mut rng1);
            let r2 = two.step(&mut rng2);
            if i >= 300 {
                max1 = max1.max(r1.max_load);
                max2 = max2.max(r2.max_load);
            }
        }
        assert!(
            max2 <= max1,
            "2-choice max load {max2} should not exceed 1-choice {max1}"
        );
    }

    #[test]
    fn waiting_time_is_queue_delay() {
        // One bin: every ball queues in bin 0; FIFO delay grows with the
        // backlog. λn = 0 keeps it trivial: no balls, no waits.
        let mut p = process(4, 1, 0.0);
        let mut rng = SimRng::seed_from(5);
        let r = p.step(&mut rng);
        assert!(r.waiting_times.is_empty());
        assert_eq!(r.failed_deletions, 4);
    }

    #[test]
    fn step_with_choices_is_deterministic() {
        let mut p = process(4, 2, 0.5); // batch = 2, d = 2
        let r = p.step_with_choices(&[0, 1, 0, 1]); // both balls pick bins {0,1}
                                                    // Both commit to bin 0 (equal start loads, tie toward first).
        assert_eq!(r.generated, 2);
        assert_eq!(r.max_load, 1); // bin 0 got 2, served 1
        let loads = p.loads();
        assert_eq!(loads[0], 1);
        assert_eq!(loads[1], 0);
    }

    #[test]
    fn step_with_choices_uses_start_of_round_loads() {
        let mut p = process(4, 2, 0.5);
        // Round 1: fill bin 0 with two balls.
        p.step_with_choices(&[0, 0, 0, 0]);
        assert_eq!(p.load(0), 1);
        // Round 2: ball A picks {0, 1} -> commits to empty bin 1; ball B
        // picks {1, 0} -> start loads are (1, 0), so it also commits to
        // bin 1 even though ball A just landed there (batch invisibility).
        let r = p.step_with_choices(&[0, 1, 1, 0]);
        assert_eq!(r.max_load, 1); // bin 1 received 2, served 1
        assert_eq!(p.load(1), 1);
    }

    #[test]
    #[should_panic(expected = "d choices per generated ball")]
    fn step_with_choices_wrong_len_panics() {
        let mut p = process(4, 2, 0.5);
        p.step_with_choices(&[0, 1]);
    }

    #[test]
    fn label_mentions_parameters() {
        let p = process(8, 2, 0.75);
        assert!(p.label().contains("d=2"));
    }

    #[test]
    fn offline_bin_freezes_queue_and_resumes_on_recovery() {
        use iba_sim::faults::FaultTolerant;
        let mut p = process(32, 1, 0.75);
        let mut rng = SimRng::seed_from(7);
        for _ in 0..30 {
            p.step(&mut rng);
        }
        // Crash a bin with a backlog (build one if necessary).
        let victim = p.loads().iter().position(|&l| l > 0).unwrap_or(0);
        let frozen_load = p.load(victim);
        p.crash_bin(victim);
        for _ in 0..10 {
            let r = p.step(&mut rng);
            assert!(r.conserves_balls());
            assert!(p.conserves_balls());
            assert_eq!(
                p.load(victim),
                frozen_load,
                "offline bin neither serves nor receives"
            );
        }
        let held = p.load(victim);
        p.recover_bin(victim);
        let mut served = false;
        for _ in 0..held + 5 {
            p.step(&mut rng);
            if p.load(victim) < held {
                served = true;
                break;
            }
        }
        assert!(served, "recovered bin resumes FIFO service");
        assert!(p.conserves_balls());
    }

    #[test]
    fn total_outage_parks_every_ball() {
        use iba_sim::faults::FaultTolerant;
        let mut p = process(8, 2, 0.5); // batch = 4
        for i in 0..8 {
            p.crash_bin(i);
        }
        let mut rng = SimRng::seed_from(8);
        let r = p.step(&mut rng);
        assert_eq!(r.accepted, 0);
        assert_eq!(r.pool_size, 4, "all candidates offline: balls park");
        assert_eq!(r.deleted, 0);
        assert!(r.conserves_balls());
        assert!(p.conserves_balls());
        // Parked balls re-throw after recovery and carry their true age.
        for i in 0..8 {
            p.recover_bin(i);
        }
        let r = p.step(&mut rng);
        assert_eq!(r.thrown, 8, "4 parked + 4 new");
        assert_eq!(r.pool_size, 0);
        assert!(p.conserves_balls());
    }

    #[test]
    fn surge_pool_counts_toward_conservation() {
        use iba_sim::faults::FaultTolerant;
        let mut p = process(16, 1, 0.5);
        p.surge_pool(100);
        assert_eq!(iba_sim::AllocationProcess::pool_size(&p), 100);
        assert!(p.conserves_balls());
        let mut rng = SimRng::seed_from(9);
        let r = p.step(&mut rng);
        assert_eq!(r.thrown, 108, "100 surged + 8 new");
        assert_eq!(r.pool_size, 0, "online bins absorb everything");
        assert!(p.conserves_balls());
    }

    #[test]
    fn fault_free_trajectory_is_unchanged_by_fault_plumbing() {
        // The offline-aware sampling loop must draw the same RNG sequence
        // and commit every ball to the same bin as the original code;
        // cross-check against step_with_choices on a replayed stream.
        let mut sampled = process(64, 2, 0.75);
        let mut replayed = process(64, 2, 0.75);
        let mut rng = SimRng::seed_from(10);
        let mut replay_rng = SimRng::seed_from(10);
        for _ in 0..50 {
            let r1 = sampled.step(&mut rng);
            let choices: Vec<usize> = (0..r1.generated as usize * 2)
                .map(|_| replay_rng.uniform_bin(64))
                .collect();
            let r2 = replayed.step_with_choices(&choices);
            assert_eq!(r1, r2);
        }
        assert_eq!(sampled.loads(), replayed.loads());
    }

    #[test]
    fn load_histogram_counts_all_bins() {
        let mut p = process(16, 1, 0.75);
        let mut rng = SimRng::seed_from(6);
        for _ in 0..50 {
            p.step(&mut rng);
        }
        assert_eq!(p.load_histogram().count(), 16);
    }
}
