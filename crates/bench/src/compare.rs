//! Comparison against the PODC'16 batched GREEDY\[d\] baseline
//! (experiment `CMP`).
//!
//! The paper's headline claim (Section I-B): for constant λ the waiting
//! time of the GREEDY processes of \[Berenbrink et al., PODC'16\] is
//! Θ(log n), while CAPPED achieves `log log n + O(1)`. We reproduce the
//! *shape* of that separation by measuring the maximum waiting time for a
//! range of `n` and classifying each process's growth law by regressing
//! against `log₂ n` and `log₂ log₂ n` covariates.

use iba_sim::output::Table;
use iba_sim::stats::regression::best_covariate;

use iba_core::config::CappedConfig;

use crate::figures::ExperimentOutput;
use crate::measure::{measure_capped, measure_greedy, MeasureConfig};
use crate::scale::Scale;

/// One measured growth series: a label and the max waiting time per `n`.
#[derive(Debug, Clone, PartialEq)]
pub struct GrowthSeries {
    /// Process label.
    pub label: String,
    /// `(n, max waiting time)` pairs.
    pub points: Vec<(usize, f64)>,
}

impl GrowthSeries {
    /// Classifies the series' growth law: `"≈ constant"` when the series
    /// barely moves across the whole `n` range (less than one round of
    /// spread — regressing noise would be meaningless), otherwise
    /// `"log log n"` or `"log n"`, whichever covariate explains the data
    /// better (higher R²).
    ///
    /// # Panics
    ///
    /// Panics if the series has fewer than 2 points.
    pub fn growth_law(&self) -> &'static str {
        let ys: Vec<f64> = self.points.iter().map(|&(_, y)| y).collect();
        let spread = ys.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - ys.iter().cloned().fold(f64::INFINITY, f64::min);
        if spread < 1.0 {
            return "≈ constant";
        }
        let loglog: Vec<f64> = self
            .points
            .iter()
            .map(|&(n, _)| (n as f64).log2().log2())
            .collect();
        let log: Vec<f64> = self
            .points
            .iter()
            .map(|&(n, _)| (n as f64).log2())
            .collect();
        let (winner, _) = best_covariate(&[loglog, log], &ys);
        if winner == 0 {
            "log log n"
        } else {
            "log n"
        }
    }
}

/// Runs the comparison at constant `λ = 0.75` over a range of `n`
/// (powers of two up to the scale's `n`), for CAPPED(c ∈ {1, 2, 3}) and
/// GREEDY\[1\], GREEDY\[2\].
pub fn compare_growth(scale: Scale) -> ExperimentOutput {
    let lambda = 0.75;
    let max_exp = (scale.bins() as f64).log2() as u32;
    let min_exp = max_exp.saturating_sub(5).max(8);
    let ns: Vec<usize> = (min_exp..=max_exp).map(|e| 1usize << e).collect();

    let mut series: Vec<GrowthSeries> = Vec::new();
    let mut table = Table::new(
        "Comparison: max waiting time growth, lambda = 0.75",
        &["process", "n", "avg wait", "max wait"],
    );
    let mut notes = vec![format!(
        "n from 2^{min_exp} to 2^{max_exp}; growth law classified by best-R^2 covariate"
    )];

    // CAPPED variants.
    for c in [1u32, 2, 3] {
        let mut points = Vec::new();
        for &n in &ns {
            let config = CappedConfig::new(n, c, lambda).expect("valid");
            let m = MeasureConfig::for_lambda(lambda, scale.window(), scale.seeds())
                .with_master_seed(u64::from(c) * 7919 + n as u64);
            let est = measure_capped(&config, &m);
            table.row(vec![
                format!("capped(c={c})").into(),
                n.into(),
                est.wait_mean.mean().into(),
                est.wait_max.mean().into(),
            ]);
            points.push((n, est.wait_max.mean()));
        }
        series.push(GrowthSeries {
            label: format!("capped(c={c})"),
            points,
        });
    }

    // GREEDY[d] baselines.
    for d in [1u32, 2] {
        let mut points = Vec::new();
        for &n in &ns {
            let m = MeasureConfig::for_lambda(lambda, scale.window(), scale.seeds())
                .with_master_seed(u64::from(d) * 104729 + n as u64)
                .cold();
            let est = measure_greedy(n, d, lambda, &m);
            table.row(vec![
                format!("greedy[{d}]").into(),
                n.into(),
                est.wait_mean.mean().into(),
                est.wait_max.mean().into(),
            ]);
            points.push((n, est.wait_max.mean()));
        }
        series.push(GrowthSeries {
            label: format!("greedy[{d}]"),
            points,
        });
    }

    for s in &series {
        notes.push(format!("{}: growth law ≈ {}", s.label, s.growth_law()));
    }
    ExperimentOutput::new(table, notes)
}

/// Head-to-head at a single `n`: CAPPED's waiting time against both GREEDY
/// baselines, the paper's "who wins" summary.
pub fn compare_head_to_head(scale: Scale) -> ExperimentOutput {
    let lambda = 0.75;
    let n = scale.bins();
    let mut table = Table::new(
        "Head-to-head at fixed n, lambda = 0.75",
        &[
            "process",
            "avg wait",
            "max wait",
            "mean pool/n",
            "probes/ball",
        ],
    );
    let notes = vec![format!("n = {n}")];
    for c in [1u32, 2, 3] {
        let config = CappedConfig::new(n, c, lambda).expect("valid");
        let m = MeasureConfig::for_lambda(lambda, scale.window(), scale.seeds())
            .with_master_seed(u64::from(c));
        let est = measure_capped(&config, &m);
        table.row(vec![
            format!("capped(c={c})").into(),
            est.wait_mean.mean().into(),
            est.wait_max.mean().into(),
            est.normalized_pool_mean().into(),
            est.probes_per_ball.mean().into(),
        ]);
    }
    for d in [1u32, 2] {
        let m = MeasureConfig::for_lambda(lambda, scale.window(), scale.seeds())
            .with_master_seed(u64::from(d) + 50)
            .cold();
        let est = measure_greedy(n, d, lambda, &m);
        table.row(vec![
            format!("greedy[{d}]").into(),
            est.wait_mean.mean().into(),
            est.wait_max.mean().into(),
            est.normalized_pool_mean().into(),
            // GREEDY[d] issues exactly d probes per ball, by definition.
            f64::from(d).into(),
        ]);
    }
    ExperimentOutput::new(table, notes)
}

/// **`ADLER`** — the stability-region story (Section I-A): the d-copy
/// process of Adler, Berenbrink, Schröder guarantees constant expected
/// waiting time only for arrival batches `m < n/(3de)` ≈ 0.061·n (d = 2) —
/// "the major drawback of this process". CAPPED(c, λ) serves *any*
/// λ ≤ 1 − 1/n. This experiment sweeps the arrival rate across and beyond
/// the Adler region and reports both processes' backlog and waiting times.
pub fn adler_region(scale: Scale) -> ExperimentOutput {
    use iba_baselines::adler::AdlerProcess;
    use iba_core::process::CappedProcess;
    use iba_sim::process::AllocationProcess;
    use iba_sim::rng::SimRng;

    let n = scale.bins();
    let d = 2u32;
    let region = n as f64 / (3.0 * d as f64 * std::f64::consts::E); // ≈ 0.061 n
    let mut table = Table::new(
        "Adler d-copy process vs CAPPED across arrival rates (d = 2, c = 2)",
        &[
            "m/n",
            "in Adler region",
            "adler backlog/m",
            "adler max wait",
            "capped pool/n",
            "capped max wait",
        ],
    );
    let notes = vec![format!(
        "n = {n}; Adler's analysis requires m < n/(3de) = {region:.0}; CAPPED has no such restriction"
    )];
    // Rates: inside, at, and far beyond the Adler region.
    for num in [n / 32, n / 16, n / 8, n / 2, 3 * n / 4] {
        let m = num as u64;
        let lambda = m as f64 / n as f64;

        let mut adler = AdlerProcess::new(n, d, m).expect("valid");
        let in_region = adler.within_stability_region();
        let mut rng_a = SimRng::seed_from(m + 5);
        let rounds = scale.window() * 3;
        let mut adler_max_wait = 0u64;
        for i in 0..rounds {
            let r = adler.step(&mut rng_a);
            if i >= rounds / 2 {
                adler_max_wait = adler_max_wait.max(r.max_waiting_time().unwrap_or(0));
            }
        }
        let adler_backlog = adler.balls_in_system() as f64 / (m.max(1)) as f64;

        let config = iba_core::config::CappedConfig::new(n, 2, lambda).expect("valid");
        let mut capped = CappedProcess::new(config);
        capped.warm_start();
        let mut rng_c = SimRng::seed_from(m + 6);
        let mut capped_max_wait = 0u64;
        let mut pool_sum = 0.0;
        for i in 0..rounds {
            let r = capped.step(&mut rng_c);
            if i >= rounds / 2 {
                capped_max_wait = capped_max_wait.max(r.max_waiting_time().unwrap_or(0));
                pool_sum += r.pool_size as f64;
            }
        }
        table.row(vec![
            format!("{lambda:.4}").into(),
            if in_region { "yes" } else { "no" }.into(),
            adler_backlog.into(),
            adler_max_wait.into(),
            (pool_sum / (rounds - rounds / 2) as f64 / n as f64).into(),
            capped_max_wait.into(),
        ]);
    }
    ExperimentOutput::new(table, notes)
}

/// **`BATCH`** — the intra-batch pileup mechanism (paper, Section I): in
/// batched GREEDY\[d\] the members of one batch cannot see each other, so
/// "the expected maximum number of tasks allocated to some server is
/// Ω(log n)" for d = 1 and `Θ(log n / log log n)` even for d = 2. We
/// measure the per-round maximum number of batch members committing to one
/// bin, across `n`, next to the one-choice occupancy prediction.
pub fn batch_pileup(scale: Scale) -> ExperimentOutput {
    use iba_analysis::math::ln_ln;
    use iba_baselines::GreedyBatchProcess;
    use iba_sim::process::AllocationProcess;
    use iba_sim::rng::SimRng;

    let lambda = 0.75;
    let max_exp = (scale.bins() as f64).log2() as u32;
    let min_exp = max_exp.saturating_sub(5).max(8);
    let mut table = Table::new(
        "Intra-batch pileup in batched GREEDY[d], lambda = 0.75",
        &["d", "n", "mean pileup", "max pileup", "ln n / ln ln n"],
    );
    let notes = vec![
        "pileup = max over bins of batch members committing to that bin in one round".into(),
        "the Theta(log n / log log n) growth is why batched GREEDY loses the power of two choices"
            .into(),
    ];
    for d in [1u32, 2] {
        for e in min_exp..=max_exp {
            let n = 1usize << e;
            let mut p = GreedyBatchProcess::new(n, d, lambda).expect("valid");
            let mut rng = SimRng::seed_from(u64::from(d) * 1_000 + u64::from(e));
            for _ in 0..300 {
                p.step(&mut rng); // burn-in
            }
            let rounds = scale.window();
            let mut sum = 0.0;
            let mut max = 0u64;
            for _ in 0..rounds {
                p.step(&mut rng);
                let pileup = p.last_batch_pileup();
                sum += pileup as f64;
                max = max.max(pileup);
            }
            let prediction = (n as f64).ln() / ln_ln(n).max(1.0);
            table.row(vec![
                u64::from(d).into(),
                n.into(),
                (sum / rounds as f64).into(),
                max.into(),
                prediction.into(),
            ]);
        }
    }
    ExperimentOutput::new(table, notes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn growth_law_classifier_on_synthetic_series() {
        let log_series = GrowthSeries {
            label: "synthetic-log".into(),
            points: (8..=16).map(|e| (1usize << e, e as f64 * 2.0)).collect(),
        };
        assert_eq!(log_series.growth_law(), "log n");
        let loglog_series = GrowthSeries {
            label: "synthetic-loglog".into(),
            points: (8..=16)
                .map(|e| (1usize << e, (e as f64).log2() * 2.0 + 1.0))
                .collect(),
        };
        assert_eq!(loglog_series.growth_law(), "log log n");
    }

    #[test]
    fn batch_pileup_grows_with_n() {
        let out = batch_pileup(Scale::Smoke);
        let csv = out.table.to_csv();
        // For each d, the mean pileup at the largest n exceeds the
        // smallest n (the log n / log log n growth).
        let rows: Vec<Vec<String>> = csv
            .lines()
            .skip(1)
            .map(|l| l.split(',').map(|c| c.to_string()).collect())
            .collect();
        for d in ["1", "2"] {
            let means: Vec<f64> = rows
                .iter()
                .filter(|r| r[0] == d)
                .map(|r| r[2].parse().unwrap())
                .collect();
            assert!(means.len() >= 3, "d={d}");
            assert!(
                means.last().unwrap() > means.first().unwrap(),
                "d={d}: {means:?}"
            );
        }
    }

    #[test]
    fn head_to_head_smoke_produces_all_rows() {
        let out = compare_head_to_head(Scale::Smoke);
        assert_eq!(out.table.len(), 5); // capped c∈{1,2,3} + greedy d∈{1,2}
    }
}
