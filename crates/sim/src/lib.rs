//! Simulation substrate for infinite parallel balls-into-bins processes.
//!
//! This crate provides everything *around* an allocation process that is
//! needed to reproduce the evaluation of *"Infinite Balanced Allocation via
//! Finite Capacities"* (Berenbrink et al., ICDCS 2021):
//!
//! - [`rng`] — a deterministic, fast pseudo-random number generator
//!   (xoshiro256++ seeded via SplitMix64) together with an exactly-uniform
//!   bin sampler and seed-splitting for reproducible multi-threaded runs.
//! - [`process`] — the [`process::AllocationProcess`]
//!   trait which every simulated process (CAPPED, MODCAPPED, GREEDY\[d\],
//!   THRESHOLD\[T\]) implements, and the per-round [`RoundReport`]
//!   (process::RoundReport) it produces.
//! - [`arrivals`] — ball arrival models: the paper's deterministic `λn`
//!   batch, the probabilistic per-generator Bernoulli variant from the
//!   paper's footnote 2, and a Poisson stream.
//! - [`stats`] — running summaries, histograms, quantiles, time series and
//!   regression utilities used by the measurement harness.
//! - [`burnin`] — fixed and adaptive burn-in policies that decide when a
//!   simulated system has reached its stationary regime.
//! - [`engine`] — the round-driving [`engine::Simulation`] and
//!   the [`Observer`](engine::Observer) abstraction for metric collection.
//! - [`runner`] — multi-seed replication with aggregation across seeds.
//! - [`output`] — plain-text tables and CSV emission for experiment results.
//! - [`plot`] — ASCII line charts for terminal visualization.
//! - [`codec`] — a versioned binary codec for simulation checkpoints.
//! - [`plan`] — [`plan::RoundPlan`], the round-keyed event schedule every
//!   fault, membership and socket-fault plan is an alias of.
//! - [`faults`] — deterministic fault injection ([`faults::FaultPlan`],
//!   [`faults::FaultedProcess`]) and recovery measurement
//!   ([`faults::RecoveryReport`]).
//!
//! # Quick example
//!
//! Processes implement [`process::AllocationProcess`]; the engine drives any
//! of them. A trivial process that allocates nothing:
//!
//! ```
//! use iba_sim::process::{AllocationProcess, RoundReport};
//! use iba_sim::rng::SimRng;
//! use iba_sim::engine::Simulation;
//!
//! struct Idle { round: u64 }
//!
//! impl AllocationProcess for Idle {
//!     fn bins(&self) -> usize { 8 }
//!     fn round(&self) -> u64 { self.round }
//!     fn pool_size(&self) -> usize { 0 }
//!     fn step(&mut self, _rng: &mut SimRng) -> RoundReport {
//!         self.round += 1;
//!         RoundReport::empty(self.round)
//!     }
//! }
//!
//! let mut sim = Simulation::new(Idle { round: 0 }, SimRng::seed_from(42));
//! sim.run_rounds(10);
//! assert_eq!(sim.process().round(), 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod arrivals;
pub mod burnin;
pub mod codec;
pub mod engine;
pub mod error;
pub mod faults;
mod obs;
pub mod output;
pub mod plan;
pub mod plot;
pub mod process;
pub mod rng;
pub mod runner;
pub mod stats;

pub use engine::Simulation;
pub use process::{AllocationProcess, RoundReport};
pub use rng::SimRng;
