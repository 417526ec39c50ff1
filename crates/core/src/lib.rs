//! The CAPPED(c, λ) infinite balanced allocation process.
//!
//! This crate implements the primary contribution of *"Infinite Balanced
//! Allocation via Finite Capacities"* (Berenbrink, Friedetzky, Hahn, Hintze,
//! Kaaser, Kling, Nagel — ICDCS 2021):
//!
//! - [`process::CappedProcess`] — the CAPPED(c, λ) process of Algorithm 1:
//!   `n` bins with FIFO buffers of capacity `c`; each round `λn` new balls
//!   join the pool, every pooled ball requests one uniformly random bin,
//!   bins accept their oldest requests up to remaining capacity, and every
//!   non-empty bin then serves (deletes) the head of its queue.
//! - [`modcapped::ModCappedProcess`] — the MODCAPPED(c, λ) companion process
//!   used in the paper's analysis (Sections III-A and IV-A): inflated ball
//!   generation `max{λn, m* − m(t−1)}` and phase-structured red/blue buffers.
//! - [`coupling::CoupledRun`] — the shared-randomness coupling of Lemmas 1
//!   and 6, which lets tests verify the stochastic-dominance invariants
//!   `m^C(t) ≤ m^M(t)` and `ℓᵢ^C(t) ≤ ℓᵢ^M(t)` on every round of a real run.
//! - [`spec::SpecCapped`] — Algorithm 1 written as literally as possible,
//!   the one oracle the differential suites hold the process to.
//!
//! A [`CappedProcess`] is its pool plus one flat [`BinArena`] holding the
//! bins — the one bin store and the layout of the round kernel, for every
//! configuration. The arena runs the bin-local half of a round (its
//! acceptance stage, then its deletion sweep); the process composes the
//! two.
//!
//! Capacities are the paper's `c ∈ ℕ`, bounded by
//! [`MAX_CAPACITY`]. CAPPED(∞, λ) is the classical
//! parallel GREEDY\[1\] process (the paper's Section II), which
//! `iba_baselines::GreedyBatchProcess` with `d = 1` implements; the
//! workspace integration tests check that CAPPED at a capacity no load
//! reaches rejects nothing and runs GREEDY\[1\]'s trajectory.
//!
//! # Example
//!
//! ```
//! use iba_core::config::CappedConfig;
//! use iba_core::process::CappedProcess;
//! use iba_sim::{AllocationProcess, Simulation, SimRng};
//!
//! # fn main() -> Result<(), iba_sim::error::ConfigError> {
//! // 1024 bins, buffer capacity 2, injection rate 0.75.
//! let config = CappedConfig::new(1024, 2, 0.75)?;
//! let process = CappedProcess::new(config);
//! let mut sim = Simulation::new(process, SimRng::seed_from(7));
//! sim.run_rounds(200);
//! // In the stationary regime the pool hovers near n·ln(1/(1-λ))/c.
//! println!("pool size after 200 rounds: {}", sim.process().pool_size());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod arena;
pub mod ball;
pub mod checkpoint;
pub mod config;
pub mod coupling;
pub mod metrics;
pub mod modcapped;
mod obs;
pub mod pool;
pub mod process;
pub mod spec;

pub use arena::{BinArena, BinView};
pub use ball::Ball;
pub use config::{Capacity, CappedConfig, MAX_CAPACITY};
pub use coupling::CoupledRun;
pub use metrics::WaitQuantiles;
pub use modcapped::ModCappedProcess;
pub use pool::Pool;
pub use process::CappedProcess;
pub use process::KernelMode;
