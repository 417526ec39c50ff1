//! The regression gate behind `replicate --check`.
//!
//! A fresh run is compared against the newest prior registry record with
//! the same benchmark and config hash, metric by metric: quick-mode runs
//! are never judged against full-scale ones. Each metric has a
//! *direction* inferred from its name (`wait` lower is better, the
//! `bound ok` verdict higher is better, unknown names must simply stay
//! close). Every compared metric is gated. A run with no prior record is
//! *vacuous*: it compared nothing, so the gate does not pass on it.

/// Default failure threshold: a gated metric may move 15% in the bad
/// direction before the gate fails.
pub const DEFAULT_THRESHOLD: f64 = 0.15;

/// Which way a metric is allowed to move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Regressions are increases (waits, pool sizes, bounds).
    LowerIsBetter,
    /// Regressions are decreases (the `bound ok` verdict).
    HigherIsBetter,
    /// No known direction: moving more than the threshold either way
    /// fails (structural values that should be stable).
    StayClose,
}

/// Infers a metric's direction from its dotted-path name (first matching
/// rule wins; unmatched names must stay close). The patterns cover the
/// sweep table's columns: `bound ok` is the Theorem-2 verdict (1 or 0);
/// `wait`, `pool` and `bound` match the measured and predicted waits,
/// the pool fractions and the Theorem-2 bound.
pub fn direction_for(name: &str) -> Direction {
    const HIGHER: &[&str] = &["bound ok"];
    const LOWER: &[&str] = &["wait", "pool", "bound"];
    let lname = name.to_ascii_lowercase();
    if HIGHER.iter().any(|pat| lname.contains(pat)) {
        return Direction::HigherIsBetter;
    }
    if LOWER.iter().any(|pat| lname.contains(pat)) {
        return Direction::LowerIsBetter;
    }
    Direction::StayClose
}

/// Verdict for one compared metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateStatus {
    /// Within threshold (or moved in the good direction).
    Pass,
    /// Moved past the threshold in the bad direction.
    Fail,
    /// Present in only one of the two runs.
    Missing,
}

/// One compared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct GateCheck {
    /// Dotted-path metric name.
    pub metric: String,
    /// Baseline value (`None` when missing from the baseline).
    pub baseline: Option<f64>,
    /// Fresh value (`None` when missing from the fresh run).
    pub fresh: Option<f64>,
    /// Signed fractional change `(fresh - baseline) / |baseline|`
    /// (`None` when either side is missing or the baseline is 0).
    pub delta: Option<f64>,
    /// Inferred direction used for the verdict.
    pub direction: Direction,
    /// The verdict.
    pub status: GateStatus,
}

/// Result of gating one fresh run against one baseline.
#[derive(Debug, Clone, Default)]
pub struct GateReport {
    /// Human label for what was compared (benchmark + config hash).
    pub label: String,
    /// Every compared metric, in baseline order.
    pub checks: Vec<GateCheck>,
}

impl GateReport {
    /// Metrics that failed the gate.
    pub fn failures(&self) -> impl Iterator<Item = &GateCheck> {
        self.checks.iter().filter(|c| c.status == GateStatus::Fail)
    }

    /// Whether the gate passed (no failures).
    pub fn passed(&self) -> bool {
        self.failures().next().is_none()
    }
}

/// Compares `fresh` against `baseline`, failing a metric that moves more
/// than `threshold` in its bad direction. Metrics are matched by exact
/// dotted-path name; a metric present on only one side is reported as
/// [`GateStatus::Missing`] (not a failure — schema drift is surfaced,
/// gated values are judged).
pub fn compare(
    label: &str,
    baseline: &[(String, f64)],
    fresh: &[(String, f64)],
    threshold: f64,
) -> GateReport {
    let fresh_value = |name: &str| fresh.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
    let mut checks = Vec::new();
    for (name, base) in baseline {
        let direction = direction_for(name);
        let fresh = fresh_value(name);
        let delta = fresh.and_then(|f| (*base != 0.0).then(|| (f - *base) / base.abs()));
        let status = if fresh.is_none() {
            GateStatus::Missing
        } else {
            let bad = match (direction, delta) {
                // Zero baseline with a nonzero fresh value on a gated
                // metric: treat any appearance of a lower-is-better
                // quantity (e.g. a wait going 0 → 5) as a regression.
                (Direction::LowerIsBetter, None) => fresh.is_some_and(|f| f > 0.0 && *base == 0.0),
                (Direction::LowerIsBetter, Some(d)) => d > threshold,
                (Direction::HigherIsBetter, Some(d)) => d < -threshold,
                (Direction::HigherIsBetter, None) => false,
                (Direction::StayClose, Some(d)) => d.abs() > threshold,
                (Direction::StayClose, None) => false,
            };
            if bad {
                GateStatus::Fail
            } else {
                GateStatus::Pass
            }
        };
        checks.push(GateCheck {
            metric: name.clone(),
            baseline: Some(*base),
            fresh,
            delta,
            direction,
            status,
        });
    }
    for (name, value) in fresh {
        if !baseline.iter().any(|(n, _)| n == name) {
            checks.push(GateCheck {
                metric: name.clone(),
                baseline: None,
                fresh: Some(*value),
                delta: None,
                direction: direction_for(name),
                status: GateStatus::Missing,
            });
        }
    }
    GateReport {
        label: label.to_string(),
        checks,
    }
}

/// How the fresh runs were gated: the reports that ran, plus the labels
/// of runs that compared nothing.
#[derive(Debug, Clone, Default)]
pub struct GateOutcome {
    /// One report per fresh run that had a prior record to compare with.
    pub gates: Vec<GateReport>,
    /// Fresh runs that compared nothing: no prior record shares their
    /// config hash, or the registry holds no record of them.
    pub vacuous: Vec<String>,
}

impl GateOutcome {
    /// Whether the gate passed: it compared at least one run, and every
    /// comparison passed. A gate that compared nothing has checked
    /// nothing, so it does not pass.
    pub fn passed(&self) -> bool {
        !self.gates.is_empty() && self.gates.iter().all(GateReport::passed)
    }
}

/// Gates each fresh run (by identity hash) against the newest prior
/// registry record with its benchmark and config hash. Runs without one
/// are listed as vacuous.
pub fn gate_fresh_runs(
    registry: &crate::registry::RunRegistry,
    fresh_identities: &[String],
    threshold: f64,
) -> GateOutcome {
    let mut outcome = GateOutcome::default();
    for identity in fresh_identities {
        let Some(record) = registry
            .records()
            .iter()
            .find(|r| &r.identity_hash() == identity)
        else {
            outcome
                .vacuous
                .push(format!("run {identity} (not in the registry)"));
            continue;
        };
        let label = format!("{} {}", record.benchmark, record.config_hash);
        if let Some(prior) =
            registry.latest_for(&record.benchmark, &record.config_hash, Some(identity))
        {
            outcome.gates.push(compare(
                &format!(
                    "{label} (vs registry run @{} of rev {})",
                    prior.unix_time, prior.provenance.git_rev
                ),
                &prior.metrics,
                &record.metrics,
                threshold,
            ));
        } else {
            outcome.vacuous.push(label);
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(pairs: &[(&str, f64)]) -> Vec<(String, f64)> {
        pairs.iter().map(|(n, v)| (n.to_string(), *v)).collect()
    }

    #[test]
    fn directions_are_inferred_from_the_sweep_columns() {
        for (column, direction) in [
            ("c", Direction::StayClose),
            ("pool/n", Direction::LowerIsBetter),
            ("mf pool/n", Direction::LowerIsBetter),
            ("avg wait", Direction::LowerIsBetter),
            ("mf wait", Direction::LowerIsBetter),
            ("max wait", Direction::LowerIsBetter),
            ("wait envelope", Direction::LowerIsBetter),
            ("thm2 bound", Direction::LowerIsBetter),
            ("bound ok", Direction::HigherIsBetter),
        ] {
            assert_eq!(direction_for(&format!("rows.3.{column}")), direction);
        }
    }

    #[test]
    fn artificial_regression_past_threshold_fails_the_gate() {
        let baseline = metrics(&[
            ("rows.0.bound ok", 1.0),
            ("rows.0.avg wait", 2.0),
            ("rows.0.pool/n", 0.8),
        ]);
        // The Theorem-2 verdict flips from yes to no.
        let regressed = metrics(&[
            ("rows.0.bound ok", 0.0),
            ("rows.0.avg wait", 2.0),
            ("rows.0.pool/n", 0.8),
        ]);
        let report = compare("test", &baseline, &regressed, DEFAULT_THRESHOLD);
        assert!(!report.passed());
        let failed: Vec<&str> = report.failures().map(|c| c.metric.as_str()).collect();
        assert_eq!(failed, ["rows.0.bound ok"]);

        // Moves inside the threshold pass.
        let ok = metrics(&[
            ("rows.0.bound ok", 1.0),
            ("rows.0.avg wait", 2.2),
            ("rows.0.pool/n", 0.7),
        ]);
        assert!(compare("test", &baseline, &ok, DEFAULT_THRESHOLD).passed());

        // Lower-is-better regressions fail too.
        let slow = metrics(&[
            ("rows.0.bound ok", 1.0),
            ("rows.0.avg wait", 2.5),
            ("rows.0.pool/n", 0.8),
        ]);
        assert!(!compare("test", &baseline, &slow, DEFAULT_THRESHOLD).passed());
    }

    #[test]
    fn zero_baseline_waits_regress_when_they_appear() {
        let baseline = metrics(&[("rows.0.max wait", 0.0)]);
        let fresh = metrics(&[("rows.0.max wait", 4.0)]);
        assert!(!compare("t", &baseline, &fresh, DEFAULT_THRESHOLD).passed());
        assert!(compare("t", &baseline, &baseline, DEFAULT_THRESHOLD).passed());
    }

    #[test]
    fn schema_drift_is_missing_not_failed() {
        let baseline = metrics(&[("a", 1.0), ("gone", 2.0)]);
        let fresh = metrics(&[("a", 1.0), ("added", 3.0)]);
        let report = compare("t", &baseline, &fresh, DEFAULT_THRESHOLD);
        assert!(report.passed());
        let missing: Vec<&str> = report
            .checks
            .iter()
            .filter(|c| c.status == GateStatus::Missing)
            .map(|c| c.metric.as_str())
            .collect();
        assert_eq!(missing, ["gone", "added"]);
    }
}
