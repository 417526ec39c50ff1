//! The shared-randomness coupling of CAPPED and MODCAPPED
//! (Lemmas 1 and 6 of the paper).
//!
//! The paper's pool-size analysis hinges on stochastic dominance: at every
//! round, the pool of CAPPED(c, λ) is dominated by the pool of
//! MODCAPPED(c, λ). The proof couples the two processes by letting the
//! first `ν^C(t)` balls of MODCAPPED reuse the bin choices of CAPPED's
//! `ν^C(t)` balls, with MODCAPPED's extra balls choosing independently.
//! Under this coupling the dominance is *pathwise*:
//! `m^C(t) ≤ m^M(t)` and `ℓᵢ^C(t) ≤ ℓᵢ^M(t)` hold deterministically on
//! every sample path (Lemma 6's induction).
//!
//! [`CoupledRun`] executes exactly this coupling and checks both invariants
//! after every round, turning the lemma into an executable property that
//! the test suite verifies on real trajectories (experiment id `DOM` in
//! DESIGN.md).

use iba_sim::process::RoundReport;
use iba_sim::rng::SimRng;

use crate::config::CappedConfig;
use crate::modcapped::{m_star_paper, ModCappedProcess};
use crate::process::CappedProcess;

/// Outcome of one coupled round.
#[derive(Debug, Clone, PartialEq)]
pub struct CoupledReport {
    /// CAPPED's round report.
    pub capped: RoundReport,
    /// MODCAPPED's round report.
    pub modcapped: RoundReport,
    /// Whether `m^C(t) ≤ m^M(t)` held after this round.
    pub pool_dominated: bool,
    /// Whether `ℓᵢ^C(t) ≤ ℓᵢ^M(t)` held for every bin after this round.
    pub loads_dominated: bool,
}

impl CoupledReport {
    /// Whether both dominance invariants held.
    pub fn dominance_holds(&self) -> bool {
        self.pool_dominated && self.loads_dominated
    }
}

/// A coupled execution of CAPPED(c, λ) and MODCAPPED(c, λ).
///
/// # Examples
///
/// ```
/// use iba_core::{CappedConfig, CoupledRun};
/// use iba_sim::SimRng;
///
/// # fn main() -> Result<(), iba_sim::error::ConfigError> {
/// let mut run = CoupledRun::new(CappedConfig::new(64, 2, 0.75)?)?;
/// let mut rng = SimRng::seed_from(11);
/// for _ in 0..50 {
///     let report = run.step(&mut rng);
///     assert!(report.dominance_holds());
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CoupledRun {
    capped: CappedProcess,
    modcapped: ModCappedProcess,
    choices: Vec<usize>,
}

impl CoupledRun {
    /// Creates a coupled pair from a CAPPED configuration. The MODCAPPED
    /// side uses the paper's `m*` for the same `(n, c, λ)`.
    ///
    /// # Errors
    ///
    /// Returns a [`iba_sim::error::ConfigError`] if the configuration's
    /// parameters are invalid for MODCAPPED.
    ///
    /// # Panics
    ///
    /// Panics if the configuration uses a non-deterministic arrival model
    /// — the coupling is defined only for the paper's base process.
    pub fn new(config: CappedConfig) -> Result<Self, iba_sim::error::ConfigError> {
        let m_star = m_star_paper(config.bins(), config.capacity().get(), config.lambda());
        Self::with_m_star(config, m_star)
    }

    /// Creates a coupled pair whose MODCAPPED side keeps the threshold
    /// `m_star` instead of the paper's (Lemma 6's proof never uses its
    /// size, so dominance must hold for any).
    ///
    /// # Errors
    ///
    /// As [`CoupledRun::new`].
    ///
    /// # Panics
    ///
    /// As [`CoupledRun::new`].
    pub fn with_m_star(
        config: CappedConfig,
        m_star: usize,
    ) -> Result<Self, iba_sim::error::ConfigError> {
        let modcapped = ModCappedProcess::with_m_star(
            config.bins(),
            config.capacity().get(),
            config.lambda(),
            m_star,
        )?;
        Ok(CoupledRun {
            capped: CappedProcess::new(config),
            modcapped,
            choices: Vec::new(),
        })
    }

    /// The CAPPED side.
    pub fn capped(&self) -> &CappedProcess {
        &self.capped
    }

    /// The MODCAPPED side.
    pub fn modcapped(&self) -> &ModCappedProcess {
        &self.modcapped
    }

    /// Executes one coupled round: draws `ν^M` bin choices, feeds the first
    /// `ν^C` of them to CAPPED and all of them to MODCAPPED, then evaluates
    /// the dominance invariants.
    pub fn step(&mut self, rng: &mut SimRng) -> CoupledReport {
        let nu_c = self.capped.next_throw_count();
        let nu_m = self.modcapped.next_throw_count();
        debug_assert!(
            nu_m >= nu_c,
            "MODCAPPED must throw at least as many balls (Eq. 6): {nu_m} < {nu_c}"
        );
        let n = self.capped.config().bins();
        self.choices.clear();
        self.choices
            .extend((0..nu_m.max(nu_c)).map(|_| rng.uniform_bin(n)));

        let capped_report = self.capped.step_with_choices(&self.choices[..nu_c]);
        let modcapped_report = self.modcapped.step_with_choices(&self.choices[..nu_m]);

        let pool_dominated = capped_report.pool_size <= modcapped_report.pool_size;
        let loads_dominated = (0..n).all(|i| self.capped.bin(i).len() <= self.modcapped.load(i));

        CoupledReport {
            capped: capped_report,
            modcapped: modcapped_report,
            pool_dominated,
            loads_dominated,
        }
    }

    /// Runs `rounds` coupled rounds; returns the number of rounds in which
    /// a dominance invariant was violated (0 if Lemma 6 holds on this path,
    /// as it must).
    pub fn run_checked(&mut self, rounds: u64, rng: &mut SimRng) -> u64 {
        (0..rounds)
            .filter(|_| !self.step(rng).dominance_holds())
            .count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coupled(n: usize, c: u32, lambda: f64) -> CoupledRun {
        CoupledRun::new(CappedConfig::new(n, c, lambda).unwrap()).unwrap()
    }

    #[test]
    fn dominance_holds_unit_capacity() {
        let mut run = coupled(64, 1, 0.75);
        let mut rng = SimRng::seed_from(1);
        assert_eq!(run.run_checked(300, &mut rng), 0);
    }

    #[test]
    fn dominance_holds_general_capacity() {
        for c in [2u32, 3, 4] {
            let mut run = coupled(48, c, 0.75);
            let mut rng = SimRng::seed_from(c as u64 + 10);
            assert_eq!(run.run_checked(200, &mut rng), 0, "c = {c}");
        }
    }

    #[test]
    fn dominance_holds_at_extreme_rates() {
        // λ = 0: CAPPED idles while MODCAPPED churns m* balls per round.
        let mut idle = coupled(32, 2, 0.0);
        let mut rng = SimRng::seed_from(20);
        assert_eq!(idle.run_checked(100, &mut rng), 0);

        // λ = 1 − 1/n: the heavy-traffic boundary of Theorem 2.
        let n = 32;
        let mut heavy = coupled(n, 2, 1.0 - 1.0 / n as f64);
        assert_eq!(heavy.run_checked(200, &mut rng), 0);
    }

    #[test]
    fn both_sides_advance_in_lockstep() {
        let mut run = coupled(16, 2, 0.75);
        let mut rng = SimRng::seed_from(3);
        for _ in 0..10 {
            run.step(&mut rng);
        }
        assert_eq!(
            iba_sim::AllocationProcess::round(run.capped()),
            iba_sim::AllocationProcess::round(run.modcapped())
        );
    }

    #[test]
    fn coupled_runs_are_deterministic_per_seed() {
        let mut a = coupled(16, 2, 0.75);
        let mut b = coupled(16, 2, 0.75);
        let mut rng_a = SimRng::seed_from(4);
        let mut rng_b = SimRng::seed_from(4);
        for _ in 0..20 {
            assert_eq!(a.step(&mut rng_a), b.step(&mut rng_b));
        }
    }
}
