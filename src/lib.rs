//! # Infinite Balanced Allocation via Finite Capacities
//!
//! A complete Rust reproduction of *"Infinite Balanced Allocation via
//! Finite Capacities"* (Berenbrink, Friedetzky, Hahn, Hintze, Kaaser,
//! Kling, Nagel — ICDCS 2021): the CAPPED(c, λ) process, its MODCAPPED
//! analysis companion and the Lemma-1/6 coupling, the baselines the paper
//! compares against, a theory companion with every closed-form bound, and
//! a benchmark harness regenerating every figure.
//!
//! This facade crate re-exports the four member crates under stable names:
//!
//! - [`core`] (`iba-core`) — CAPPED, MODCAPPED, coupling, metrics.
//! - [`sim`] (`iba-sim`) — RNG, statistics, arrival models, round engine,
//!   burn-in, replication runner, output.
//! - [`baselines`] (`iba-baselines`) — batched GREEDY\[d\],
//!   THRESHOLD\[T\], sequential GREEDY\[d\].
//! - [`analysis`] (`iba-analysis`) — Theorems 1–2, Section-V fits, tail
//!   bounds, sweet-spot capacity.
//! - [`serve`] (`iba-serve`) — the CAPPED dispatch service (one process
//!   stepped by the driver, round clock, admission, live metrics).
//!
//! # Quickstart
//!
//! ```
//! use infinite_balanced_allocation::prelude::*;
//!
//! # fn main() -> Result<(), infinite_balanced_allocation::sim::error::ConfigError> {
//! // CAPPED(c = 2, λ = 0.75) on 1024 bins.
//! let config = CappedConfig::new(1024, 2, 0.75)?;
//! let mut sim = Simulation::new(CappedProcess::new(config), SimRng::seed_from(7));
//! sim.run_rounds(500);
//! let pool = sim.process().pool_size() as f64 / 1024.0;
//! // The stationary pool stays below the paper's envelope ln(1/(1−λ))/c + 1.
//! assert!(pool < normalized_pool_fit(2, 0.75));
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for runnable scenarios and the `iba-bench` crate for
//! the figure-regeneration harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use iba_analysis as analysis;
pub use iba_baselines as baselines;
pub use iba_core as core;
pub use iba_serve as serve;
pub use iba_sim as sim;

/// Convenient re-exports for the common simulation workflow.
pub mod prelude {
    pub use iba_analysis::bounds::{theorem2_pool_bound, theorem2_waiting_bound};
    pub use iba_analysis::fits::{normalized_pool_fit, waiting_time_fit};
    pub use iba_analysis::sweetspot::optimal_capacity;
    pub use iba_baselines::{GreedyBatchProcess, ThresholdProcess};
    pub use iba_core::{Ball, Capacity, CappedConfig, CappedProcess, CoupledRun, ModCappedProcess};
    pub use iba_sim::burnin::{run_burn_in, BurnIn};
    pub use iba_sim::engine::{PoolSeries, RoundStats, WaitingTimes};
    pub use iba_sim::{AllocationProcess, RoundReport, SimRng, Simulation};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_compiles_and_links_all_crates() {
        use crate::prelude::*;
        let config = CappedConfig::new(16, 1, 0.5).expect("valid");
        let mut sim = Simulation::new(CappedProcess::new(config), SimRng::seed_from(1));
        sim.run_rounds(3);
        assert_eq!(sim.process().round(), 3);
        assert!(theorem2_pool_bound(16, 1, 0.5) > 0.0);
    }
}
