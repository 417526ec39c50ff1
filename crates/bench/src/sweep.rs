//! The parameter sweep behind the `sweep` binary and the `replication`
//! experiment: measure CAPPED(c, λ) over a grid of capacities and rates,
//! next to the mean-field prediction, the Section-V envelope and the
//! Theorem-2 bound.
//!
//! [`table`] is the one cell loop. Every cell is a pure function of
//! `(n, c, λ, window, seeds, master seed)`, so [`replication`]'s table is
//! committed with the other experiments' and checked byte for byte, its
//! `bound ok` column included.

use iba_analysis::{meanfield, verify};
use iba_core::config::CappedConfig;
use iba_sim::output::{Cell, Table};

use crate::figures::ExperimentOutput;
use crate::measure::{measure_capped, MeasureConfig, StationaryEstimate};
use crate::scale::Scale;

/// A sweep's grid and measurement parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepGrid {
    /// Bins.
    pub n: usize,
    /// Capacities, the inner loop.
    pub capacities: Vec<u32>,
    /// Arrival rates, the outer loop. A rate whose λ·n is not integral is
    /// skipped with a note on stderr.
    pub lambdas: Vec<f64>,
    /// Measurement window per seed, in rounds.
    pub window: u64,
    /// Seeds per cell.
    pub seeds: usize,
    /// Master seed; cell `c` measures under `master_seed ^ c`.
    pub master_seed: u64,
}

impl SweepGrid {
    /// The paper replication grid: c ∈ {1, 2, 4}, λ ∈ {0.75, 0.9375}, at
    /// n = 2048 with a 150-round window and one seed (quick), or n = 8192,
    /// 600 rounds and three seeds (`full`).
    pub fn replication(full: bool) -> Self {
        SweepGrid {
            n: if full { 8192 } else { 2048 },
            capacities: vec![1, 2, 4],
            lambdas: vec![0.75, 0.9375],
            window: if full { 600 } else { 150 },
            seeds: if full { 3 } else { 1 },
            master_seed: 20210705,
        }
    }
}

/// The table's columns, in order.
const COLUMNS: [&str; 10] = [
    "lambda",
    "c",
    "pool/n",
    "mf pool/n",
    "avg wait",
    "mf wait",
    "max wait",
    "wait envelope",
    "thm2 bound",
    "bound ok",
];

/// One grid cell's row: the measurement and the theory next to it.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SweepRow {
    /// Arrival rate λ.
    lambda: f64,
    /// Capacity c.
    c: u32,
    /// Measured stationary pool size per bin.
    pool_per_bin: f64,
    /// Mean-field pool size per bin.
    mf_pool_per_bin: f64,
    /// Measured mean wait (rounds).
    wait_mean: f64,
    /// Mean-field mean wait (rounds; 0 where the mean field has none).
    mf_wait: f64,
    /// Measured maximum wait (rounds, mean over seeds).
    wait_max: f64,
    /// Section-V waiting-time envelope (rounds).
    wait_envelope: f64,
    /// Theorem-2 waiting-time bound (rounds).
    wait_bound: f64,
}

impl SweepRow {
    fn new(n: usize, c: u32, lambda: f64, est: &StationaryEstimate) -> Self {
        let wait_max = est.wait_max.mean();
        let mf = meanfield::solve(c, lambda);
        let check = verify::waiting_check(n, c, lambda, wait_max);
        SweepRow {
            lambda,
            c,
            pool_per_bin: est.normalized_pool_mean(),
            mf_pool_per_bin: mf.pool_per_bin,
            wait_mean: est.wait_mean.mean(),
            mf_wait: mf.mean_wait.unwrap_or(0.0),
            wait_max,
            wait_envelope: check.fit,
            wait_bound: check.bound,
        }
    }

    /// The row's table cells, in [`COLUMNS`] order. `bound ok` is the
    /// sweep's self-validation: the measured maximum wait is within the
    /// Theorem-2 bound.
    fn cells(&self) -> Vec<Cell> {
        vec![
            format!("{:.6}", self.lambda).into(),
            u64::from(self.c).into(),
            self.pool_per_bin.into(),
            self.mf_pool_per_bin.into(),
            self.wait_mean.into(),
            self.mf_wait.into(),
            self.wait_max.into(),
            self.wait_envelope.into(),
            self.wait_bound.into(),
            if self.wait_max <= self.wait_bound {
                "yes"
            } else {
                "NO"
            }
            .into(),
        ]
    }
}

/// Measures every cell of `grid`, λ-major, and returns the sweep's table,
/// one row per cell. A cell whose λ·n is not integral is skipped with a
/// note on stderr.
pub fn table(grid: &SweepGrid) -> Table {
    let mut table = Table::new(&format!("sweep over n = {}", grid.n), &COLUMNS);
    for &lambda in &grid.lambdas {
        for &c in &grid.capacities {
            let config = match CappedConfig::new(grid.n, c, lambda) {
                Ok(cfg) => cfg,
                Err(e) => {
                    eprintln!("skipping c={c}, lambda={lambda}: {e}");
                    continue;
                }
            };
            let measure = MeasureConfig::for_lambda(lambda, grid.window, grid.seeds)
                .with_master_seed(grid.master_seed ^ u64::from(c));
            let est = measure_capped(&config, &measure);
            table.row(SweepRow::new(grid.n, c, lambda, &est).cells());
        }
    }
    table
}

/// Experiment `REPL`: the paper replication grid
/// ([`SweepGrid::replication`]), full at paper scale and quick otherwise.
pub fn replication(scale: Scale) -> ExperimentOutput {
    let grid = SweepGrid::replication(scale == Scale::Paper);
    ExperimentOutput::new(
        table(&grid),
        vec![format!(
            "window {} rounds, {} seed(s) per cell; bound ok = max wait within the Theorem-2 bound",
            grid.window, grid.seeds
        )],
    )
}
