//! Regeneration of the paper's figures (experiments `F4L`, `F4R`, `F5L`,
//! `F5R`, `SWEET`).
//!
//! Every function reproduces one plot of Section V as a data table: the
//! same series the paper plots, plus the Section-V fit (the paper's dashed
//! line) and the Theorem-2 bound for context. Measurements follow the
//! paper's protocol (stationary window statistics; see
//! [`crate::measure`]).
//!
//! λ values that are invalid at the chosen scale (because `λn` would not
//! be an integer) are *reported*, not silently dropped: every experiment
//! returns an [`ExperimentOutput`] whose `notes` list exactly what was
//! skipped and why.

use iba_analysis::{fits, meanfield, sweetspot};
use iba_core::config::CappedConfig;
use iba_sim::output::Table;
use iba_sim::plot::{Chart, Series};

use crate::measure::{measure_capped, MeasureConfig, StationaryEstimate};
use crate::scale::Scale;

/// A regenerated experiment: the data table plus protocol notes
/// (skipped parameters, non-converged burn-ins, scale used) and optional
/// pre-rendered ASCII charts.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentOutput {
    /// The data table (one row per plotted point).
    pub table: Table,
    /// Protocol notes: anything a reader must know to interpret the table.
    pub notes: Vec<String>,
    /// Rendered ASCII charts of the main series (may be empty).
    pub charts: Vec<String>,
}

impl ExperimentOutput {
    /// Creates an output with no charts.
    pub fn new(table: Table, notes: Vec<String>) -> Self {
        ExperimentOutput {
            table,
            notes,
            charts: Vec::new(),
        }
    }

    /// Renders the table and notes for the terminal / EXPERIMENTS.md.
    pub fn render(&self) -> String {
        let mut out = self.table.render();
        for note in &self.notes {
            out.push_str("note: ");
            out.push_str(note);
            out.push('\n');
        }
        out
    }

    /// Renders the table, notes and charts.
    pub fn render_with_charts(&self) -> String {
        let mut out = self.render();
        for chart in &self.charts {
            out.push('\n');
            out.push_str(chart);
        }
        out
    }

    /// Renders a `## title` section of a Markdown document: the table in
    /// GitHub-Markdown form, then the notes as block quotes.
    pub fn render_markdown(&self, title: &str) -> String {
        let mut out = format!("## {title}\n\n{}\n", self.table.to_markdown());
        for note in &self.notes {
            out.push_str(&format!("> {note}\n"));
        }
        out
    }
}

/// `λ = 1 − 2⁻ⁱ`.
pub fn lambda_pow2(i: u32) -> f64 {
    1.0 - 2.0f64.powi(-(i as i32))
}

/// Whether `λ = 1 − 2⁻ⁱ` yields an integral batch for `n` bins.
pub fn lambda_pow2_valid(i: u32, n: usize) -> bool {
    n.is_multiple_of(1usize << i.min(63))
}

fn measure_point(n: usize, c: u32, lambda: f64, scale: Scale, seed: u64) -> StationaryEstimate {
    let config = CappedConfig::new(n, c, lambda).expect("figure parameters are valid");
    let measure = MeasureConfig::for_lambda(lambda, scale.window(), scale.seeds())
        .with_master_seed(seed ^ 0xf16);
    measure_capped(&config, &measure)
}

fn note_scale(notes: &mut Vec<String>, scale: Scale, n: usize) {
    notes.push(format!(
        "scale = {scale} (n = {n}, window = {} rounds, {} seeds); paper uses n = 2^15, 1000 rounds",
        scale.window(),
        scale.seeds()
    ));
}

/// **Figure 4, left**: normalized pool size as a function of the capacity
/// `c ∈ [1, 5]`, for `λ = 1 − 2⁻²` and `λ = 1 − 2⁻¹⁰`. The paper's dashed
/// reference line is `ln(1/(1−λ))/c + 1`.
pub fn fig4_left(scale: Scale) -> ExperimentOutput {
    let n = scale.bins();
    let mut table = Table::new(
        "Figure 4 (left): normalized pool size vs capacity",
        &[
            "lambda",
            "c",
            "pool/n",
            "ci95",
            "mean-field",
            "envelope ln(1/(1-l))/c+1",
            "meas/envelope",
        ],
    );
    let mut notes = Vec::new();
    note_scale(&mut notes, scale, n);
    let mut chart = Chart::new("Figure 4 (left): pool/n vs c", 50, 14);
    for i in [2u32, 10] {
        if !lambda_pow2_valid(i, n) {
            notes.push(format!(
                "skipped lambda = 1 - 2^-{i}: not integral for n = {n}"
            ));
            continue;
        }
        let lambda = lambda_pow2(i);
        let mut points = Vec::new();
        for c in 1..=5u32 {
            let est = measure_point(n, c, lambda, scale, u64::from(i * 100 + c));
            if !est.all_converged {
                notes.push(format!("burn-in not converged at lambda=1-2^-{i}, c={c}"));
            }
            let measured = est.normalized_pool_mean();
            let fit = fits::normalized_pool_fit(c, lambda);
            points.push((f64::from(c), measured));
            table.row(vec![
                format!("1-2^-{i}").into(),
                u64::from(c).into(),
                measured.into(),
                (est.pool_mean.ci95.half_width / n as f64).into(),
                meanfield::solve(c, lambda).pool_per_bin.into(),
                fit.into(),
                (measured / fit).into(),
            ]);
        }
        chart = chart.with_series(Series::new(&format!("lambda = 1-2^-{i}"), points));
    }
    let mut out = ExperimentOutput::new(table, notes);
    out.charts.push(chart.render());
    out
}

/// **Figure 4, right**: normalized pool size as a function of
/// `λ = 1 − 2⁻ⁱ, i ∈ [1, 10]`, for capacities `c = 1` and `c = 3`.
pub fn fig4_right(scale: Scale) -> ExperimentOutput {
    let n = scale.bins();
    let mut table = Table::new(
        "Figure 4 (right): normalized pool size vs injection rate",
        &[
            "c",
            "i (lambda=1-2^-i)",
            "pool/n",
            "ci95",
            "mean-field",
            "envelope",
            "meas/envelope",
        ],
    );
    let mut notes = Vec::new();
    note_scale(&mut notes, scale, n);
    for c in [1u32, 3] {
        for i in 1..=10u32 {
            if !lambda_pow2_valid(i, n) {
                notes.push(format!(
                    "skipped lambda = 1 - 2^-{i}: not integral for n = {n}"
                ));
                continue;
            }
            let lambda = lambda_pow2(i);
            let est = measure_point(n, c, lambda, scale, u64::from(c * 1000 + i));
            if !est.all_converged {
                notes.push(format!("burn-in not converged at i={i}, c={c}"));
            }
            let measured = est.normalized_pool_mean();
            let fit = fits::normalized_pool_fit(c, lambda);
            table.row(vec![
                u64::from(c).into(),
                u64::from(i).into(),
                measured.into(),
                (est.pool_mean.ci95.half_width / n as f64).into(),
                meanfield::solve(c, lambda).pool_per_bin.into(),
                fit.into(),
                (measured / fit).into(),
            ]);
        }
    }
    ExperimentOutput::new(table, notes)
}

/// **Figure 5, left**: average and maximum waiting time as a function of
/// the capacity `c ∈ [1, 5]`, for `λ ∈ {1−2⁻², 1−2⁻¹⁰, 1−2⁻¹³}`. The
/// paper's dashed reference line is `ln(1/(1−λ))/c + log log n + c`.
pub fn fig5_left(scale: Scale) -> ExperimentOutput {
    let n = scale.bins();
    let mut table = Table::new(
        "Figure 5 (left): waiting time vs capacity",
        &[
            "lambda",
            "c",
            "avg wait",
            "p50 wait",
            "p99 wait",
            "p999 wait",
            "max wait",
            "mean-field avg",
            "envelope",
            "avg/envelope",
        ],
    );
    let mut notes = Vec::new();
    note_scale(&mut notes, scale, n);
    let mut chart = Chart::new("Figure 5 (left): avg waiting time vs c", 50, 14);
    for i in [2u32, 10, 13] {
        if !lambda_pow2_valid(i, n) {
            notes.push(format!(
                "skipped lambda = 1 - 2^-{i}: not integral for n = {n}"
            ));
            continue;
        }
        let lambda = lambda_pow2(i);
        let mut points = Vec::new();
        for c in 1..=5u32 {
            let est = measure_point(n, c, lambda, scale, u64::from(i * 100 + c + 7));
            if !est.all_converged {
                notes.push(format!("burn-in not converged at lambda=1-2^-{i}, c={c}"));
            }
            let fit = fits::waiting_time_fit(n, c, lambda);
            let mf_wait = meanfield::solve(c, lambda).mean_wait.unwrap_or(0.0);
            points.push((f64::from(c), est.wait_mean.mean()));
            table.row(vec![
                format!("1-2^-{i}").into(),
                u64::from(c).into(),
                est.wait_mean.mean().into(),
                est.wait_p50.mean().into(),
                est.wait_p99.mean().into(),
                est.wait_p999.mean().into(),
                est.wait_max.mean().into(),
                mf_wait.into(),
                fit.into(),
                (est.wait_mean.mean() / fit).into(),
            ]);
        }
        chart = chart.with_series(Series::new(&format!("lambda = 1-2^-{i}"), points));
    }
    let mut out = ExperimentOutput::new(table, notes);
    out.charts.push(chart.render());
    out
}

/// **Figure 5, right**: average and maximum waiting time as a function of
/// `λ = 1 − 2⁻ⁱ, i ∈ [1, 10]`, for capacities `c = 1` and `c = 3`.
pub fn fig5_right(scale: Scale) -> ExperimentOutput {
    let n = scale.bins();
    let mut table = Table::new(
        "Figure 5 (right): waiting time vs injection rate",
        &[
            "c",
            "i (lambda=1-2^-i)",
            "avg wait",
            "p50 wait",
            "p99 wait",
            "p999 wait",
            "max wait",
            "mean-field avg",
            "envelope",
            "avg/envelope",
        ],
    );
    let mut notes = Vec::new();
    note_scale(&mut notes, scale, n);
    for c in [1u32, 3] {
        for i in 1..=10u32 {
            if !lambda_pow2_valid(i, n) {
                notes.push(format!(
                    "skipped lambda = 1 - 2^-{i}: not integral for n = {n}"
                ));
                continue;
            }
            let lambda = lambda_pow2(i);
            let est = measure_point(n, c, lambda, scale, u64::from(c * 2000 + i));
            if !est.all_converged {
                notes.push(format!("burn-in not converged at i={i}, c={c}"));
            }
            let fit = fits::waiting_time_fit(n, c, lambda);
            let mf_wait = meanfield::solve(c, lambda).mean_wait.unwrap_or(0.0);
            table.row(vec![
                u64::from(c).into(),
                u64::from(i).into(),
                est.wait_mean.mean().into(),
                est.wait_p50.mean().into(),
                est.wait_p99.mean().into(),
                est.wait_p999.mean().into(),
                est.wait_max.mean().into(),
                mf_wait.into(),
                fit.into(),
                (est.wait_mean.mean() / fit).into(),
            ]);
        }
    }
    ExperimentOutput::new(table, notes)
}

/// **Sweet spot** (`SWEET`): locate the capacity minimizing the measured
/// waiting times for several λ and compare against the theoretical
/// `c* = √ln(1/(1−λ))` (paper: minima around c = 2 and c = 3).
pub fn sweet_spot(scale: Scale) -> ExperimentOutput {
    let n = scale.bins();
    let c_range = 1..=6u32;
    let mut table = Table::new(
        "Sweet spot: argmin_c of waiting time vs theory",
        &[
            "lambda",
            "argmin avg wait",
            "argmin max wait",
            "theory c* (sqrt ln)",
            "fit argmin",
        ],
    );
    let mut notes = Vec::new();
    note_scale(&mut notes, scale, n);
    for i in [2u32, 6, 10, 13] {
        if !lambda_pow2_valid(i, n) {
            notes.push(format!(
                "skipped lambda = 1 - 2^-{i}: not integral for n = {n}"
            ));
            continue;
        }
        let lambda = lambda_pow2(i);
        let mut avg_profile = Vec::new();
        let mut max_profile = Vec::new();
        for c in c_range.clone() {
            let est = measure_point(n, c, lambda, scale, u64::from(i * 31 + c));
            avg_profile.push(est.wait_mean.mean());
            max_profile.push(est.wait_max.mean());
        }
        table.row(vec![
            format!("1-2^-{i}").into(),
            u64::from(sweetspot::argmin_capacity(&avg_profile)).into(),
            u64::from(sweetspot::argmin_capacity(&max_profile)).into(),
            sweetspot::continuous_sweet_spot(lambda).into(),
            u64::from(sweetspot::optimal_capacity(lambda, n)).into(),
        ]);
    }
    ExperimentOutput::new(table, notes)
}

/// **`NSCALE`** — the Section-V claim that "the actual number of n has
/// negligible impact on the (normalized) simulation results": normalized
/// pool size and waiting times measured across a range of `n` at fixed
/// `(c, λ)` must be flat in `n` (waiting times up to the `log log n`
/// term, which moves by < 0.4 over this range).
pub fn n_invariance(scale: Scale) -> ExperimentOutput {
    let max_exp = (scale.bins() as f64).log2() as u32;
    let min_exp = max_exp.saturating_sub(5).max(8);
    let mut table = Table::new(
        "n-invariance of normalized results (Section V claim)",
        &["c", "lambda", "n", "pool/n", "avg wait", "max wait"],
    );
    let mut notes = vec![format!(
        "n from 2^{min_exp} to 2^{max_exp}; normalized pool must be flat; waits may move by the loglog n term only"
    )];
    for (c, lambda) in [(2u32, 0.75), (2, 1.0 - 1.0 / 64.0)] {
        let mut pools = Vec::new();
        for e in min_exp..=max_exp {
            let n = 1usize << e;
            let est = measure_point(n, c, lambda, scale, u64::from(c) * 1_000 + u64::from(e));
            pools.push(est.normalized_pool_mean());
            table.row(vec![
                u64::from(c).into(),
                format!("{lambda:.6}").into(),
                n.into(),
                est.normalized_pool_mean().into(),
                est.wait_mean.mean().into(),
                est.wait_max.mean().into(),
            ]);
        }
        let spread = pools.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - pools.iter().cloned().fold(f64::INFINITY, f64::min);
        let mean = pools.iter().sum::<f64>() / pools.len() as f64;
        notes.push(format!(
            "c={c}, lambda={lambda:.4}: normalized-pool spread {spread:.4} around mean {mean:.4} ({:.1}%)",
            100.0 * spread / mean.max(1e-9)
        ));
    }
    ExperimentOutput::new(table, notes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lambda_helpers() {
        assert_eq!(lambda_pow2(2), 0.75);
        assert!(lambda_pow2_valid(10, 1 << 10));
        assert!(!lambda_pow2_valid(11, 1 << 10));
    }

    #[test]
    fn fig4_left_smoke_has_shape() {
        let out = fig4_left(Scale::Smoke);
        // Smoke scale (n = 2^10) supports both λ values -> 10 rows.
        assert_eq!(out.table.len(), 10);
        let text = out.render();
        assert!(text.contains("Figure 4"));
        // CSV export works too.
        assert!(out.table.to_csv().lines().count() > 5);
    }

    #[test]
    fn fig5_left_smoke_skips_invalid_lambda() {
        let out = fig5_left(Scale::Smoke);
        // λ = 1 − 2⁻¹³ is invalid at n = 2^10 and must be reported.
        assert!(out.notes.iter().any(|n| n.contains("2^-13")));
        assert_eq!(out.table.len(), 10); // two λ values × five capacities
    }

    #[test]
    fn n_invariance_smoke_reports_flat_pools() {
        let out = n_invariance(Scale::Smoke);
        assert_eq!(out.table.len(), 6); // 2 configs x 3 n values
                                        // The flatness notes must be present and report small spreads.
        let spread_notes: Vec<&String> =
            out.notes.iter().filter(|n| n.contains("spread")).collect();
        assert_eq!(spread_notes.len(), 2);
    }

    #[test]
    fn fig4_right_covers_both_capacities() {
        let out = fig4_right(Scale::Smoke);
        assert_eq!(out.table.len(), 20); // c ∈ {1,3} × i ∈ 1..=10
    }
}
