//! Confidence intervals across replications.
//!
//! Each figure data point in this reproduction is run with a few seeds
//! (2 at smoke scale, 3 at paper scale); the runner reports a Student's t
//! 95 % confidence interval over the per-seed point estimates so
//! EXPERIMENTS.md can state measurement uncertainty. With so few
//! replications the normal quantile 1.96 would make the interval 6.5×
//! (2 seeds) or 2.2× (3 seeds) too narrow.

use crate::stats::summary::Summary;

/// A symmetric confidence interval `mean ± half_width`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Point estimate (mean across replications).
    pub mean: f64,
    /// Half-width of the interval.
    pub half_width: f64,
}

impl ConfidenceInterval {
    /// Lower endpoint.
    pub fn lo(&self) -> f64 {
        self.mean - self.half_width
    }

    /// Upper endpoint.
    pub fn hi(&self) -> f64 {
        self.mean + self.half_width
    }

    /// Whether `value` lies inside the interval (inclusive).
    pub fn contains(&self, value: f64) -> bool {
        value >= self.lo() && value <= self.hi()
    }
}

impl std::fmt::Display for ConfidenceInterval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.4} ± {:.4}", self.mean, self.half_width)
    }
}

/// Two-sided 95 % quantiles t₀.₉₇₅ of Student's t distribution with
/// 1, 2, …, 30 degrees of freedom.
const T975: [f64; 30] = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
    2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
    2.052, 2.048, 2.045, 2.042,
];

/// t₀.₉₇₅ with `df ≥ 1` degrees of freedom: the table up to 30, and the
/// normal quantile 1.960 above.
fn t975(df: u64) -> f64 {
    T975.get(df as usize - 1).copied().unwrap_or(1.960)
}

/// Builds the 95 % confidence interval `mean ± t₀.₉₇₅(k − 1) · s.e.` from
/// a summary of `k` per-replication estimates.
///
/// With a single replication, the half-width is 0 (no spread information);
/// callers should prefer ≥ 3 replications for meaningful intervals.
///
/// # Panics
///
/// Panics if `summary` is empty.
pub fn ci95(summary: &Summary) -> ConfidenceInterval {
    assert!(summary.count() > 0, "confidence interval of empty sample");
    let half_width = match summary.count() {
        1 => 0.0,
        k => t975(k - 1) * summary.std_error(),
    };
    ConfidenceInterval {
        mean: summary.mean(),
        half_width,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn z_value_matches_textbook() {
        // Above 30 degrees of freedom t₀.₉₇₅ is the normal z = 1.960.
        assert_eq!(t975(1), 12.706);
        assert_eq!(t975(2), 4.303);
        assert_eq!(t975(30), 2.042);
        assert_eq!(t975(31), 1.960);
        assert_eq!(t975(u64::MAX), 1.960);
        assert!(T975.windows(2).all(|w| w[0] > w[1]));
    }

    #[test]
    fn ci_endpoints_and_contains() {
        let s: Summary = [10.0, 12.0, 11.0, 9.0, 13.0].into_iter().collect();
        let ci = ci95(&s);
        assert!((ci.mean - 11.0).abs() < 1e-12);
        assert!((ci.half_width - 2.776 * s.std_error()).abs() < 1e-12);
        assert!(ci.contains(11.0));
        assert!(ci.contains(ci.lo()) && ci.contains(ci.hi()));
        assert!(!ci.contains(ci.hi() + 0.001));
        assert_eq!(ci.lo(), ci.mean - ci.half_width);
        assert_eq!(ci.hi(), ci.mean + ci.half_width);
    }

    #[test]
    fn single_observation_has_zero_width() {
        let s: Summary = [5.0].into_iter().collect();
        let ci = ci95(&s);
        assert_eq!(ci.half_width, 0.0);
        assert!(ci.contains(5.0));
    }

    #[test]
    fn display_is_nonempty() {
        let ci = ConfidenceInterval {
            mean: 1.0,
            half_width: 0.5,
        };
        assert!(ci.to_string().contains('±'));
    }
}
