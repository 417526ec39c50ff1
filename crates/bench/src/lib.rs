//! Benchmark and figure-regeneration harness.
//!
//! One module (and one binary subcommand) per experiment in DESIGN.md's
//! per-experiment index:
//!
//! | Experiment | Paper artifact | Module |
//! |---|---|---|
//! | `F4L`, `F4R` | Figure 4 (normalized pool size) | [`figures`] |
//! | `F5L`, `F5R` | Figure 5 (waiting times) | [`figures`] |
//! | `SWEET` | sweet-spot claim (Sec. I-B/V) | [`figures`] |
//! | `CMP` | log n vs log log n comparison (Sec. I-B) | [`compare`] |
//! | `DOM` | Lemma 1/6 dominance | [`ablations`] |
//! | `ABL-d`, `ABL-arr`, `STAB` | ablations & self-stabilization | [`ablations`] |
//!
//! Run everything through the `figures` binary:
//!
//! ```text
//! cargo run -p iba-bench --release --bin figures -- fig4-left --scale quick
//! cargo run -p iba-bench --release --bin figures -- all --scale paper
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ablations;
pub mod cli;
pub mod compare;
pub mod figures;
pub mod measure;
pub mod prov;
pub mod scale;

pub use measure::{measure_capped, measure_greedy, MeasureConfig, StationaryEstimate};
pub use scale::Scale;
