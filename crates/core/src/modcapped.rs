//! The MODCAPPED(c, λ) companion process (Sections III-A and IV-A).
//!
//! MODCAPPED differs from CAPPED in two ways that make the paper's analysis
//! tractable:
//!
//! 1. **Inflated generation.** Instead of `λn` balls, round `t` generates
//!    `max{λn, m* − m(t−1)}` balls, guaranteeing at least `m*` balls are
//!    thrown every round (`m*` from Section III for `c = 1` and from
//!    Section IV-A for general `c`).
//! 2. **Phase-structured buffers.** Time is partitioned into phases
//!    `I_j = [c·j, c·(j+1)−1]` and each bin's capacity is split between two
//!    overlapping *buffers* per Eq. (5): buffer `j` ramps up from 0 to `c`
//!    during phase `j−1` and back down to 0 during phase `j`. Exactly two
//!    buffers are active at any round and their capacities sum to `c`.
//!    Every ball carries a red/blue *preference* (⌈ν/2⌉ red, ⌊ν/2⌋ blue) and
//!    each bin assigns its requests to buffers maximizing the number of
//!    satisfied preferences; the deleting buffer serves one ball per round.
//!
//! ### A note on the red/blue naming
//!
//! The paper's prose calls `⌈t/c⌉` the *red* (deleting) buffer. However,
//! the proof of Lemma 7 requires that buffer `j` deletes exactly during
//! phase `I_j` — and during `I_j` the ramping-**down** buffer is
//! `⌊t/c⌋`, not `⌈t/c⌉` (the two coincide only at phase boundaries). We
//! implement the proof-consistent semantics: **the deleting ("red") buffer
//! at round `t` is `⌊t/c⌋`**, whose capacity `(⌊t/c⌋+1)·c − t` equals the
//! number of deletion opportunities it has left, so every accepted ball is
//! deleted before its buffer expires — exactly the property Lemma 7's
//! counting argument uses. For `c = 1` both conventions coincide and the
//! process reduces to the Section-III MODCAPPED.

use std::collections::VecDeque;

use iba_sim::error::ConfigError;
use iba_sim::process::{AllocationProcess, RoundReport};
use iba_sim::rng::SimRng;

use crate::ball::Ball;
use crate::pool::{push_run, Pool, Run};

/// The MODCAPPED(c, λ) process.
///
/// # Examples
///
/// ```
/// use iba_core::ModCappedProcess;
/// use iba_sim::{AllocationProcess, SimRng};
///
/// # fn main() -> Result<(), iba_sim::error::ConfigError> {
/// let mut p = ModCappedProcess::new(256, 2, 0.75)?;
/// let mut rng = SimRng::seed_from(3);
/// let report = p.step(&mut rng);
/// // The first round throws at least m* balls.
/// assert!(report.thrown >= p.m_star() as u64);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ModCappedProcess {
    bins: usize,
    capacity: u32,
    lambda: f64,
    batch: u64,
    m_star: usize,
    pool: Pool,
    /// Deleting buffers (one per bin): buffer `⌊t/c⌋`, ramping down.
    reds: Vec<VecDeque<Ball>>,
    /// Filling buffers (one per bin): buffer `⌊t/c⌋ + 1`, ramping up.
    blues: Vec<VecDeque<Ball>>,
    round: u64,
    total_generated: u64,
    total_deleted: u64,
    /// The reject runs' buffer, reused across rounds.
    scratch: Vec<Run>,
}

/// The Section-III threshold `m* = ln(1/(1−λ))·n + 2n` for unit capacity.
pub fn m_star_unit(n: usize, lambda: f64) -> usize {
    let n_f = n as f64;
    ((1.0 / (1.0 - lambda)).ln() * n_f + 2.0 * n_f).ceil() as usize
}

/// The Section-IV threshold `m* = 2c⁻¹·ln(1/(1−λ))·n + 6c·n` for general
/// capacity.
pub fn m_star_general(n: usize, c: u32, lambda: f64) -> usize {
    let n_f = n as f64;
    let c_f = c as f64;
    ((2.0 / c_f) * (1.0 / (1.0 - lambda)).ln() * n_f + 6.0 * c_f * n_f).ceil() as usize
}

/// The paper's `m*` for `(n, c, λ)`: the Section-III value for `c = 1`,
/// the Section-IV value otherwise.
pub fn m_star_paper(n: usize, c: u32, lambda: f64) -> usize {
    if c == 1 {
        m_star_unit(n, lambda)
    } else {
        m_star_general(n, c, lambda)
    }
}

impl ModCappedProcess {
    /// Creates a MODCAPPED(c, λ) process with the paper's `m*`
    /// ([`m_star_paper`]).
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if `n = 0`, `c = 0`, `λ ∉ [0, 1 − 1/n]` or
    /// `λn ∉ ℕ`.
    pub fn new(bins: usize, capacity: u32, lambda: f64) -> Result<Self, ConfigError> {
        Self::with_m_star(bins, capacity, lambda, m_star_paper(bins, capacity, lambda))
    }

    /// Creates a MODCAPPED(c, λ) process with a custom threshold `m*`
    /// (useful for exploring how the coupling slack depends on `m*`).
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] on the same invalid inputs as
    /// [`ModCappedProcess::new`].
    pub fn with_m_star(
        bins: usize,
        capacity: u32,
        lambda: f64,
        m_star: usize,
    ) -> Result<Self, ConfigError> {
        if bins == 0 {
            return Err(ConfigError::ZeroBins);
        }
        if capacity == 0 {
            return Err(ConfigError::ZeroCapacity);
        }
        let arrivals = iba_sim::arrivals::ArrivalModel::deterministic_rate(bins, lambda)?;
        let batch = match arrivals {
            iba_sim::arrivals::ArrivalModel::Deterministic { batch } => batch,
            _ => unreachable!("deterministic_rate returns Deterministic"),
        };
        Ok(ModCappedProcess {
            bins,
            capacity,
            lambda,
            batch,
            m_star,
            pool: Pool::new(),
            reds: (0..bins).map(|_| VecDeque::new()).collect(),
            blues: (0..bins).map(|_| VecDeque::new()).collect(),
            round: 0,
            total_generated: 0,
            total_deleted: 0,
            scratch: Vec::new(),
        })
    }

    /// The threshold `m*` this process maintains.
    pub fn m_star(&self) -> usize {
        self.m_star
    }

    /// The injection rate `λ`.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Buffer capacity `c`.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Capacity of the deleting (red) buffer in round `t`:
    /// `(⌊t/c⌋+1)·c − t` (Eq. 5 evaluated for the ramping-down buffer).
    pub fn red_capacity_at(&self, t: u64) -> u64 {
        let c = self.capacity as u64;
        (t / c + 1) * c - t
    }

    /// Capacity of the filling (blue) buffer in round `t`: `t − ⌊t/c⌋·c`.
    pub fn blue_capacity_at(&self, t: u64) -> u64 {
        let c = self.capacity as u64;
        t - (t / c) * c
    }

    /// Total load of bin `i` across both active buffers.
    pub fn load(&self, i: usize) -> usize {
        self.reds[i].len() + self.blues[i].len()
    }

    /// Total loads of all bins.
    pub fn loads(&self) -> Vec<usize> {
        (0..self.bins).map(|i| self.load(i)).collect()
    }

    /// Total number of buffered balls across all bins.
    pub fn buffered(&self) -> usize {
        (0..self.bins).map(|i| self.load(i)).sum()
    }

    /// Number of balls the next round will generate,
    /// `max{λn, m* − m(t−1)}`.
    pub fn next_generation(&self) -> u64 {
        self.batch
            .max(self.m_star.saturating_sub(self.pool.len()) as u64)
    }

    /// Number of balls the next round will throw (pool + generation).
    /// Used by the coupled runner to size the shared choice vector.
    pub fn next_throw_count(&self) -> usize {
        self.pool.len() + self.next_generation() as usize
    }

    /// Ball-conservation invariant.
    pub fn conserves_balls(&self) -> bool {
        self.total_generated == self.total_deleted + self.pool.len() as u64 + self.buffered() as u64
    }

    /// Checks the Eq.-5 structural invariants: per-buffer loads within the
    /// current capacities and per-bin totals within `c`. (The capacities
    /// queried are those of the *last completed* round.)
    pub fn check_buffer_invariants(&self) -> bool {
        if self.round == 0 {
            return self.buffered() == 0;
        }
        let red_cap = self.red_capacity_at(self.round) as usize;
        let blue_cap = self.blue_capacity_at(self.round) as usize;
        self.reds.iter().zip(&self.blues).all(|(r, b)| {
            // After the end-of-round deletion the red buffer may hold up to
            // its capacity minus the deletion it just performed; being
            // within capacity is the invariant Lemma 7 relies on.
            r.len() <= red_cap && b.len() <= blue_cap && r.len() + b.len() <= self.capacity as usize
        })
    }

    /// Executes one round with pre-drawn bin choices (`choices[i]` for the
    /// i-th thrown ball, oldest first). Hook for the Lemma-1/6 coupling.
    ///
    /// # Panics
    ///
    /// Panics if `choices.len()` differs from
    /// [`next_throw_count`](Self::next_throw_count).
    pub fn step_with_choices(&mut self, choices: &[usize]) -> RoundReport {
        assert_eq!(
            choices.len(),
            self.next_throw_count(),
            "need exactly one choice per thrown ball"
        );
        let generated = self.next_generation();
        self.run_round_inner(generated, &mut |i| choices[i])
    }

    fn run_round_inner(
        &mut self,
        generated: u64,
        choose: &mut dyn FnMut(usize) -> usize,
    ) -> RoundReport {
        let c = self.capacity as u64;
        self.round += 1;
        let t = self.round;

        // Phase transition: when ⌊t/c⌋ advances, the old red buffer has
        // expired (it must be empty — it deleted its last ball at capacity
        // 1) and the old blue buffer becomes the new red.
        if t.is_multiple_of(c) {
            debug_assert!(
                self.reds.iter().all(VecDeque::is_empty),
                "expiring red buffers must be empty at a phase boundary"
            );
            std::mem::swap(&mut self.reds, &mut self.blues);
        }
        let red_cap = self.red_capacity_at(t) as usize;
        let blue_cap = self.blue_capacity_at(t) as usize;

        // 1. Inflated ball generation.
        self.pool.push_generation(t, generated);
        self.total_generated += generated;
        let thrown = self.pool.len();

        // 2. Preferences: the first ⌈ν/2⌉ balls (oldest half) prefer red.
        let red_pref_count = thrown.div_ceil(2);

        // 3. Allocation, pass A: satisfy preferences greedily (this attains
        //    the maximum number of satisfied preferences, since within a
        //    preference class slots are interchangeable). Overflow balls are
        //    retried cross-color in pass B using leftover capacity only.
        let mut pool = std::mem::take(&mut self.pool);
        let mut overflow: Vec<(Ball, usize, bool)> = Vec::new();
        let mut accepted = 0u64;
        for (i, ball) in pool.iter().enumerate() {
            let bin = choose(i);
            debug_assert!(bin < self.bins, "bin choice out of range");
            let prefers_red = i < red_pref_count;
            let target = if prefers_red {
                &mut self.reds[bin]
            } else {
                &mut self.blues[bin]
            };
            let target_cap = if prefers_red { red_cap } else { blue_cap };
            if target.len() < target_cap {
                target.push_back(ball);
                accepted += 1;
            } else {
                overflow.push((ball, bin, prefers_red));
            }
        }
        let mut rejected = std::mem::take(&mut self.scratch);
        rejected.clear();
        // The rejects of the current label are counted in a register and
        // pushed as one run when the label changes.
        let mut run = Run::new(0, 0);
        for (ball, bin, prefers_red) in overflow {
            let other = if prefers_red {
                &mut self.blues[bin]
            } else {
                &mut self.reds[bin]
            };
            let other_cap = if prefers_red { blue_cap } else { red_cap };
            if other.len() < other_cap {
                other.push_back(ball);
                accepted += 1;
            } else {
                if ball.label() != run.label {
                    push_run(&mut rejected, run.label, run.count);
                    run = Run::new(ball.label(), 0);
                }
                run.count += 1;
            }
        }
        push_run(&mut rejected, run.label, run.count);
        // Pass B keeps pass A's order, so the rejects are oldest-first
        // runs, which `restore_runs` checks.
        self.scratch = pool.take_runs();
        self.pool.restore_runs(rejected);

        // 4. Deletion: every non-empty red buffer serves one ball.
        let mut waiting_times = Vec::with_capacity(self.bins);
        let mut failed_deletions = 0u64;
        let mut buffered = 0u64;
        let mut max_load = 0u64;
        for (red, blue) in self.reds.iter_mut().zip(&self.blues) {
            match red.pop_front() {
                Some(ball) => {
                    waiting_times.push(ball.age_at(t));
                    self.total_deleted += 1;
                }
                None => failed_deletions += 1,
            }
            let load = (red.len() + blue.len()) as u64;
            buffered += load;
            max_load = max_load.max(load);
        }

        RoundReport {
            round: t,
            generated,
            thrown: thrown as u64,
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

impl AllocationProcess for ModCappedProcess {
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
        let generated = self.next_generation();
        let n = self.bins;
        self.run_round_inner(generated, &mut |_| rng.uniform_bin(n))
    }

    fn label(&self) -> String {
        format!(
            "modcapped(n={}, c={}, λ={})",
            self.bins, self.capacity, self.lambda
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn m_star_formulas_match_paper() {
        // Section III: ln(1/(1-λ))·n + 2n with λ = 0.75, n = 1000:
        // ln 4 ≈ 1.3863 → 1386.3 + 2000 → ⌈3386.3⌉ = 3387.
        assert_eq!(m_star_unit(1000, 0.75), 3387);
        // Section IV with c = 2: (2/2)·ln4·n + 12n = 1386.3 + 12000 → 13387.
        assert_eq!(m_star_general(1000, 2, 0.75), 13387);
        // λ = 0 degenerates to the additive term.
        assert_eq!(m_star_unit(100, 0.0), 200);
        assert_eq!(m_star_general(100, 3, 0.0), 1800);
    }

    #[test]
    fn construction_validates() {
        assert!(ModCappedProcess::new(0, 1, 0.5).is_err());
        assert!(ModCappedProcess::new(10, 0, 0.5).is_err());
        assert!(ModCappedProcess::new(10, 1, 0.33).is_err());
        assert!(ModCappedProcess::new(10, 1, 0.5).is_ok());
    }

    #[test]
    fn throws_at_least_m_star_every_round() {
        let mut p = ModCappedProcess::new(64, 2, 0.75).unwrap();
        let m_star = p.m_star() as u64;
        let mut rng = SimRng::seed_from(1);
        for _ in 0..30 {
            let r = p.step(&mut rng);
            assert!(r.thrown >= m_star, "thrown {} < m* {m_star}", r.thrown);
        }
    }

    #[test]
    fn generation_tops_up_to_m_star() {
        let p = ModCappedProcess::new(64, 1, 0.5).unwrap();
        // Empty pool: generation = max(λn, m*) = m*.
        assert_eq!(p.next_generation(), p.m_star() as u64);
        assert_eq!(p.next_throw_count(), p.m_star());
    }

    #[test]
    fn capacities_follow_eq5() {
        let p = ModCappedProcess::new(8, 4, 0.75).unwrap();
        // c = 4. At t = 1: red cap 3, blue cap 1. At t = 4: red 4, blue 0.
        assert_eq!(p.red_capacity_at(1), 3);
        assert_eq!(p.blue_capacity_at(1), 1);
        assert_eq!(p.red_capacity_at(3), 1);
        assert_eq!(p.blue_capacity_at(3), 3);
        assert_eq!(p.red_capacity_at(4), 4);
        assert_eq!(p.blue_capacity_at(4), 0);
        // Capacities always sum to c.
        for t in 1..40 {
            assert_eq!(p.red_capacity_at(t) + p.blue_capacity_at(t), 4);
        }
    }

    #[test]
    fn unit_capacity_reduces_to_section_three() {
        let p = ModCappedProcess::new(128, 1, 0.5).unwrap();
        assert_eq!(p.m_star(), m_star_unit(128, 0.5));
        // c = 1: blue capacity is always 0, red always 1.
        for t in 1..20 {
            assert_eq!(p.red_capacity_at(t), 1);
            assert_eq!(p.blue_capacity_at(t), 0);
        }
    }

    #[test]
    fn invariants_hold_over_many_rounds() {
        for c in [1u32, 2, 3, 5] {
            let mut p = ModCappedProcess::new(64, c, 0.75).unwrap();
            let mut rng = SimRng::seed_from(c as u64);
            for _ in 0..200 {
                let r = p.step(&mut rng);
                assert!(p.check_buffer_invariants(), "c={c} round={}", r.round);
                assert!(p.conserves_balls(), "c={c}");
                assert!(r.conserves_balls(), "c={c}");
                assert!(r.max_load <= c as u64);
            }
        }
    }

    #[test]
    fn rejected_balls_keep_their_labels() {
        // Per label, the balls generated are the balls pooled, buffered
        // or deleted: a reject goes back to the pool under its own label.
        use std::collections::BTreeMap;
        for c in [1u32, 3] {
            let mut p = ModCappedProcess::new(32, c, 0.75).unwrap();
            let mut rng = SimRng::seed_from(7);
            let mut generated = BTreeMap::<u64, u64>::new();
            let mut deleted = BTreeMap::<u64, u64>::new();
            for _ in 0..200 {
                let r = p.step(&mut rng);
                *generated.entry(r.round).or_default() += r.generated;
                for &wait in &r.waiting_times {
                    *deleted.entry(r.round - wait).or_default() += 1;
                }
                let mut held = deleted.clone();
                let buffered = p.reds.iter().chain(&p.blues).flatten().copied();
                for ball in p.pool.iter().chain(buffered) {
                    *held.entry(ball.label()).or_default() += 1;
                }
                assert_eq!(held, generated, "c={c} round={}", r.round);
            }
        }
    }

    #[test]
    fn pool_stays_below_twice_m_star_whp() {
        // Lemma 7: the pool exceeds 2m* only with probability 2^{-2n}.
        // Over a short run it should never happen.
        let mut p = ModCappedProcess::new(128, 2, 0.75).unwrap();
        let bound = 2 * p.m_star() as u64;
        let mut rng = SimRng::seed_from(5);
        for _ in 0..300 {
            let r = p.step(&mut rng);
            assert!(r.pool_size < bound, "pool {} >= 2m* {bound}", r.pool_size);
        }
    }

    #[test]
    fn step_with_choices_is_deterministic() {
        let mut a = ModCappedProcess::new(16, 2, 0.75).unwrap();
        let mut b = ModCappedProcess::new(16, 2, 0.75).unwrap();
        let count = a.next_throw_count();
        let choices: Vec<usize> = (0..count).map(|i| i % 16).collect();
        let ra = a.step_with_choices(&choices);
        let rb = b.step_with_choices(&choices);
        assert_eq!(ra, rb);
    }

    #[test]
    #[should_panic(expected = "one choice per thrown ball")]
    fn step_with_choices_wrong_len_panics() {
        let mut p = ModCappedProcess::new(16, 2, 0.75).unwrap();
        p.step_with_choices(&[0, 1]);
    }

    #[test]
    fn cross_color_fill_uses_leftover_capacity_only() {
        // c = 2, round 1: red cap 1, blue cap 1 per bin. Send 4 balls to
        // bin 0 (2 red-pref, 2 blue-pref): exactly 2 accepted.
        let mut p = ModCappedProcess::with_m_star(4, 2, 0.5, 4).unwrap();
        assert_eq!(p.next_throw_count(), 4);
        let r = p.step_with_choices(&[0, 0, 0, 0]);
        assert_eq!(r.accepted, 2);
        assert_eq!(r.pool_size, 2);
        assert_eq!(p.load(0), 1); // one deleted from red
    }

    #[test]
    fn label_mentions_parameters() {
        let p = ModCappedProcess::new(8, 2, 0.75).unwrap();
        let l = AllocationProcess::label(&p);
        assert!(l.contains("modcapped") && l.contains("c=2"));
    }
}
