//! Benchmark and figure-regeneration harness.
//!
//! [`EXPERIMENTS`] is the one table of the experiments in DESIGN.md's
//! per-experiment index: the `figures` binary runs one of them or `all`,
//! as text tables or, with `--markdown`, as one Markdown document. The
//! modules behind them:
//!
//! | Experiment | Paper artifact | Module |
//! |---|---|---|
//! | `F4L`, `F4R` | Figure 4 (normalized pool size) | [`figures`] |
//! | `F5L`, `F5R` | Figure 5 (waiting times) | [`figures`] |
//! | `SWEET`, `NSCALE` | sweet-spot claim, n-invariance (Sec. I-B/V) | [`figures`] |
//! | `CMP`, `ADLER`, `BATCH` | comparisons with GREEDY and Adler et al. (Sec. I) | [`compare`] |
//! | `DOM`, `MSTAR`, `LEMMA` | Lemmas 1/6 dominance and the proof's phases | [`ablations`] |
//! | `ABL-d`, `ABL-arr`, `POLICY`, `STAB` | ablations & self-stabilization | [`ablations`] |
//! | `TAIL`, `LOAD`, `CHAOS`, `HETERO` | tails, loads, faults, capacity mixtures | [`ablations`] |
//! | `ASYNC` | continuous time (retrial-queue analog) | [`ablations`], [`continuous`] |
//! | `REPL` | the paper replication grid against the Theorem-2 bound | [`sweep`] |
//!
//! Every experiment's CSV is committed as the reproduction record, at
//! paper scale in `results_paper/` and at smoke scale in
//! `crates/bench/tests/golden/`, and `figures --check` compares a run
//! with it byte for byte ([`record`]).
//!
//! Run everything through the `figures` binary:
//!
//! ```text
//! cargo run -p iba-bench --release --bin figures -- fig4-left --scale quick
//! cargo run -p iba-bench --release --bin figures -- all --scale paper --check results_paper
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ablations;
pub mod cli;
pub mod compare;
pub mod continuous;
pub mod figures;
pub mod measure;
pub mod record;
pub mod scale;
pub mod sweep;

pub use measure::{measure_capped, measure_greedy, MeasureConfig, StationaryEstimate};
pub use scale::Scale;

use figures::ExperimentOutput;

/// One experiment of the `figures` binary.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// The `figures` subcommand, and the stem of its CSV file.
    pub name: &'static str,
    /// The section title in `figures --markdown`'s document.
    pub title: &'static str,
    /// Runs the experiment at a scale.
    pub run: fn(Scale) -> ExperimentOutput,
}

/// Every experiment, in the order `figures all` and `report` run them.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "fig4-left",
        title: "F4L — Figure 4 (left)",
        run: figures::fig4_left,
    },
    Experiment {
        name: "fig4-right",
        title: "F4R — Figure 4 (right)",
        run: figures::fig4_right,
    },
    Experiment {
        name: "fig5-left",
        title: "F5L — Figure 5 (left)",
        run: figures::fig5_left,
    },
    Experiment {
        name: "fig5-right",
        title: "F5R — Figure 5 (right)",
        run: figures::fig5_right,
    },
    Experiment {
        name: "sweet-spot",
        title: "SWEET — sweet-spot capacity",
        run: figures::sweet_spot,
    },
    Experiment {
        name: "compare",
        title: "CMP — head-to-head",
        run: compare::compare_head_to_head,
    },
    Experiment {
        name: "compare-growth",
        title: "CMP — growth laws",
        run: compare::compare_growth,
    },
    Experiment {
        name: "dominance",
        title: "DOM — dominance coupling",
        run: ablations::dominance,
    },
    Experiment {
        name: "ablation-choices",
        title: "ABL-d — choices ablation",
        run: ablations::choice_ablation,
    },
    Experiment {
        name: "ablation-arrivals",
        title: "ABL-arr — arrival models",
        run: ablations::arrival_ablation,
    },
    Experiment {
        name: "stabilization",
        title: "STAB — self-stabilization",
        run: ablations::stabilization,
    },
    Experiment {
        name: "lemma-phases",
        title: "LEMMA — survivor phases",
        run: ablations::lemma_phases,
    },
    Experiment {
        name: "chaos",
        title: "CHAOS — fault injection",
        run: ablations::chaos,
    },
    Experiment {
        name: "adler-region",
        title: "ADLER — stability region",
        run: compare::adler_region,
    },
    Experiment {
        name: "wait-tail",
        title: "TAIL — waiting-time tail",
        run: ablations::wait_tail,
    },
    Experiment {
        name: "load-dist",
        title: "LOAD — load distribution",
        run: ablations::load_distribution,
    },
    Experiment {
        name: "hetero",
        title: "HETERO — capacity mixtures",
        run: ablations::hetero,
    },
    Experiment {
        name: "async",
        title: "ASYNC — continuous time",
        run: ablations::async_comparison,
    },
    Experiment {
        name: "mstar",
        title: "MSTAR — m* sensitivity",
        run: ablations::mstar_sensitivity,
    },
    Experiment {
        name: "n-invariance",
        title: "NSCALE — n-invariance",
        run: figures::n_invariance,
    },
    Experiment {
        name: "batch-pileup",
        title: "BATCH — intra-batch pileup",
        run: compare::batch_pileup,
    },
    Experiment {
        name: "policy",
        title: "POLICY — acceptance priority",
        run: ablations::policy_ablation,
    },
    Experiment {
        name: "replication",
        title: "REPL — replication grid",
        run: sweep::replication,
    },
];
