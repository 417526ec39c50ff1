//! Experiment scale presets.
//!
//! The paper runs every experiment at `n = 2¹⁵` with a 1000-round
//! measurement window. That is affordable but slow for a full sweep, so the
//! harness supports three presets; the figure functions accept any of them
//! and the output tables record which one was used.

use std::fmt;
use std::str::FromStr;

/// How big to run an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper fidelity: `n = 2¹⁵`, 1000-round window, 3 seeds.
    Paper,
    /// Laptop-friendly: `n = 2¹³`, 600-round window, 3 seeds. Still large
    /// enough for every λ the paper uses (λ = 1 − 2⁻¹³ needs `n ≥ 2¹³`).
    Quick,
    /// Smoke scale for tests and the golden CSVs: `n = 2¹⁰`, 200-round
    /// window, 2 seeds. λ values requiring finer granularity than 2⁻¹⁰ are
    /// skipped (and reported as skipped).
    Smoke,
}

impl Scale {
    /// Number of bins `n`.
    pub fn bins(&self) -> usize {
        match self {
            Scale::Paper => 1 << 15,
            Scale::Quick => 1 << 13,
            Scale::Smoke => 1 << 10,
        }
    }

    /// Measurement-window length in rounds (the paper uses 1000).
    pub fn window(&self) -> u64 {
        match self {
            Scale::Paper => 1000,
            Scale::Quick => 600,
            Scale::Smoke => 200,
        }
    }

    /// Number of independent replications per data point.
    pub fn seeds(&self) -> usize {
        match self {
            Scale::Paper => 3,
            Scale::Quick => 3,
            Scale::Smoke => 2,
        }
    }

    /// All presets, for help text.
    pub fn all() -> [Scale; 3] {
        [Scale::Paper, Scale::Quick, Scale::Smoke]
    }
}

impl fmt::Display for Scale {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Scale::Paper => "paper",
            Scale::Quick => "quick",
            Scale::Smoke => "smoke",
        };
        write!(f, "{name}")
    }
}

impl FromStr for Scale {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "paper" => Ok(Scale::Paper),
            "quick" => Ok(Scale::Quick),
            "smoke" => Ok(Scale::Smoke),
            other => Err(format!(
                "unknown scale '{other}' (expected paper, quick or smoke)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_ordered_by_size() {
        assert!(Scale::Paper.bins() > Scale::Quick.bins());
        assert!(Scale::Quick.bins() > Scale::Smoke.bins());
        assert!(Scale::Paper.window() >= Scale::Quick.window());
    }

    #[test]
    fn quick_supports_every_paper_lambda() {
        // λ = 1 − 2⁻¹³ needs λn integral: n must be a multiple of 2¹³.
        let n = Scale::Quick.bins();
        let lambda = 1.0 - 2.0f64.powi(-13);
        assert_eq!((lambda * n as f64).fract(), 0.0);
    }

    #[test]
    fn parse_roundtrip() {
        for scale in Scale::all() {
            assert_eq!(scale.to_string().parse::<Scale>().unwrap(), scale);
        }
        assert!("huge".parse::<Scale>().is_err());
    }
}
