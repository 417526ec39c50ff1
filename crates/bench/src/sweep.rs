//! The parameter sweep behind the `sweep` and `replicate` binaries:
//! measure CAPPED(c, λ) over a grid of capacities and rates, next to the
//! mean-field prediction, the Section-V envelope and the Theorem-2 bound.
//!
//! [`run`] is the one cell loop. Every cell is a pure function of
//! `(n, c, λ, window, seeds, master seed)`, so a run that checkpoints its
//! progress into a [`RotatingFile`] after every cell and is killed and
//! resumed prints the same rows as an uninterrupted one.

use iba_analysis::{bounds, meanfield, verify};
use iba_core::checkpoint::{CheckpointError, RotatingFile};
use iba_core::config::CappedConfig;
use iba_exp::registry::sweep_config_pairs;
use iba_exp::report::SweepPoint;
use iba_sim::codec::{CodecError, Decoder, Encoder};
use iba_sim::output::{Cell, Table};

use crate::measure::{measure_capped, MeasureConfig};

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
    /// The paper replication grid that `replicate` runs: c ∈ {1, 2, 4},
    /// λ ∈ {0.75, 0.9375}, at n = 2048 with a 150-round window and one
    /// seed (quick), or n = 8192, 600 rounds and three seeds (`full`).
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

    /// The canonical config pairs whose content hash is the sweep's
    /// registry config hash.
    pub fn config_pairs(&self) -> Vec<(String, String)> {
        sweep_config_pairs(
            self.n as u64,
            &self.capacities,
            &self.lambdas,
            self.window,
            self.seeds as u64,
            self.master_seed,
        )
    }
}

/// The table's columns, in order; the registry records each numeric one
/// per row as `rows.{i}.{column}`.
pub(crate) const COLUMNS: [&str; 10] = [
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
pub struct SweepRow {
    /// Arrival rate λ.
    pub(crate) lambda: f64,
    /// Capacity c.
    pub(crate) c: u32,
    /// Measured stationary pool size per bin.
    pub(crate) pool_per_bin: f64,
    /// Mean-field pool size per bin.
    pub(crate) mf_pool_per_bin: f64,
    /// Measured mean wait (rounds).
    pub(crate) wait_mean: f64,
    /// Mean-field mean wait (rounds; 0 where the mean field has none).
    pub(crate) mf_wait: f64,
    /// Measured maximum wait (rounds, mean over seeds).
    pub(crate) wait_max: f64,
    /// Section-V waiting-time envelope (rounds).
    pub(crate) wait_envelope: f64,
    /// Theorem-2 waiting-time bound (rounds).
    pub(crate) wait_bound: f64,
}

impl SweepRow {
    fn new(n: usize, cell: CellResult) -> Self {
        let CellResult {
            lambda,
            c,
            pool_per_bin,
            wait_mean,
            wait_max,
        } = cell;
        let mf = meanfield::solve(c, lambda);
        let check = verify::waiting_check(n, c, lambda, wait_max);
        SweepRow {
            lambda,
            c,
            pool_per_bin,
            mf_pool_per_bin: mf.pool_per_bin,
            wait_mean,
            mf_wait: mf.mean_wait.unwrap_or(0.0),
            wait_max,
            wait_envelope: check.fit,
            wait_bound: check.bound,
        }
    }

    /// Whether the measured maximum wait is within the Theorem-2 bound —
    /// the sweep's self-validation.
    pub(crate) fn within_bound(&self) -> bool {
        self.wait_max <= self.wait_bound
    }

    /// The row's table cells, in [`COLUMNS`] order.
    pub(crate) fn cells(&self) -> Vec<Cell> {
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
            if self.within_bound() { "yes" } else { "NO" }.into(),
        ]
    }

    /// The row as a point of the report's bound-vs-measured overlays.
    pub fn point(&self, n: usize) -> SweepPoint {
        SweepPoint {
            lambda: self.lambda,
            c: f64::from(self.c),
            pool_frac: self.pool_per_bin,
            mf_pool_frac: self.mf_pool_per_bin,
            bound_frac: bounds::theorem2_pool_bound(n, self.c, self.lambda) / n as f64,
            avg_wait: self.wait_mean,
            max_wait: self.wait_max,
            wait_envelope: self.wait_envelope,
            wait_bound: self.wait_bound,
        }
    }
}

/// The sweep's result table.
pub fn table(grid: &SweepGrid, rows: &[SweepRow]) -> Table {
    let mut table = Table::new(&format!("sweep over n = {}", grid.n), &COLUMNS);
    for row in rows {
        table.row(row.cells());
    }
    table
}

/// Measures every cell of `grid`, λ-major, and returns one row per cell.
///
/// With a `checkpoint` file, the progress is saved after every completed
/// cell; with `resume`, the cells already in the file are loaded instead
/// of measured (a file from a different grid, or none at all, starts
/// fresh). Notes about skipped cells and the checkpoint go to stderr.
pub fn run(grid: &SweepGrid, checkpoint: Option<&RotatingFile>, resume: bool) -> Vec<SweepRow> {
    let mut progress = SweepProgress::for_grid(grid);
    if let Some(file) = checkpoint.filter(|_| resume) {
        let path = file.path().display();
        match file.load(|bytes| Ok::<_, CheckpointError>(SweepProgress::from_bytes(bytes)?)) {
            Ok((loaded, from)) if loaded.matches(grid) => {
                eprintln!(
                    "resuming from {}: {} cell(s) already complete",
                    from.display(),
                    loaded.cells.len()
                );
                progress = loaded;
            }
            Ok(_) => eprintln!(
                "checkpoint {path} belongs to a different sweep (n/window/seeds/seed mismatch); \
                 starting fresh"
            ),
            Err(e) => eprintln!("no usable checkpoint at {path} ({e}); starting fresh"),
        }
    }

    let mut rows = Vec::new();
    for &lambda in &grid.lambdas {
        for &c in &grid.capacities {
            let config = match CappedConfig::new(grid.n, c, lambda) {
                Ok(cfg) => cfg,
                Err(e) => {
                    eprintln!("skipping c={c}, lambda={lambda}: {e}");
                    continue;
                }
            };
            let cell = match progress.find(lambda, c) {
                Some(cell) => *cell,
                None => {
                    let measure = MeasureConfig::for_lambda(lambda, grid.window, grid.seeds)
                        .with_master_seed(grid.master_seed ^ u64::from(c));
                    let est = measure_capped(&config, &measure);
                    let cell = CellResult {
                        lambda,
                        c,
                        pool_per_bin: est.normalized_pool_mean(),
                        wait_mean: est.wait_mean.mean(),
                        wait_max: est.wait_max.mean(),
                    };
                    progress.cells.push(cell);
                    if let Some(file) = checkpoint {
                        if let Err(e) = file.save(&progress.to_bytes()) {
                            eprintln!("warning: saving {}: {e}", file.path().display());
                        }
                    }
                    cell
                }
            };
            rows.push(SweepRow::new(grid.n, cell));
        }
    }
    rows
}

/// The measured (non-recomputable) outputs of one grid cell. Everything
/// else in its row is a pure function of `(n, c, λ)` and is recomputed
/// on resume.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CellResult {
    lambda: f64,
    c: u32,
    pool_per_bin: f64,
    wait_mean: f64,
    wait_max: f64,
}

/// Sweep progress file: the grid's identity plus completed cells.
#[derive(Debug, Clone, PartialEq)]
struct SweepProgress {
    n: u64,
    window: u64,
    seeds: u64,
    master_seed: u64,
    cells: Vec<CellResult>,
}

const PROGRESS_TAG: &str = "IBAS";
const PROGRESS_VERSION: u32 = 1;

impl SweepProgress {
    fn for_grid(grid: &SweepGrid) -> Self {
        SweepProgress {
            n: grid.n as u64,
            window: grid.window,
            seeds: grid.seeds as u64,
            master_seed: grid.master_seed,
            cells: Vec::new(),
        }
    }

    /// Whether this progress file belongs to the same sweep (identical
    /// cell results require identical measurement parameters).
    fn matches(&self, grid: &SweepGrid) -> bool {
        self.n == grid.n as u64
            && self.window == grid.window
            && self.seeds == grid.seeds as u64
            && self.master_seed == grid.master_seed
    }

    fn find(&self, lambda: f64, c: u32) -> Option<&CellResult> {
        self.cells
            .iter()
            .find(|cell| cell.c == c && cell.lambda.to_bits() == lambda.to_bits())
    }

    fn to_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.header(PROGRESS_TAG, PROGRESS_VERSION);
        enc.u64(self.n);
        enc.u64(self.window);
        enc.u64(self.seeds);
        enc.u64(self.master_seed);
        enc.usize(self.cells.len());
        for cell in &self.cells {
            enc.f64(cell.lambda);
            enc.u32(cell.c);
            enc.f64(cell.pool_per_bin);
            enc.f64(cell.wait_mean);
            enc.f64(cell.wait_max);
        }
        enc.finish()
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut dec = Decoder::new(bytes)?;
        dec.header(PROGRESS_TAG, PROGRESS_VERSION)?;
        let n = dec.u64("sweep n")?;
        let window = dec.u64("sweep window")?;
        let seeds = dec.u64("sweep seeds")?;
        let master_seed = dec.u64("sweep master seed")?;
        let count = dec.usize("cell count")?;
        let mut cells = Vec::with_capacity(count.min(4096));
        for _ in 0..count {
            cells.push(CellResult {
                lambda: dec.f64("cell lambda")?,
                c: dec.u32("cell c")?,
                pool_per_bin: dec.f64("cell pool")?,
                wait_mean: dec.f64("cell wait mean")?,
                wait_max: dec.f64("cell wait max")?,
            });
        }
        if !dec.is_exhausted() {
            return Err(CodecError::Invalid {
                what: "trailing bytes",
            });
        }
        Ok(SweepProgress {
            n,
            window,
            seeds,
            master_seed,
            cells,
        })
    }
}
