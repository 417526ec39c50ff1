//! Error types shared by the simulation substrate.

use std::error::Error;
use std::fmt;

/// Error returned when a simulation or measurement configuration is invalid.
///
/// The variants mirror the paper's model constraints from Section II: `λn`
/// must be a non-negative integer, `0 ≤ λ ≤ 1 − 1/n`, capacities must be
/// positive, and measurement windows must be non-empty.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ConfigError {
    /// The number of bins `n` was zero.
    ZeroBins,
    /// The capacity `c` was zero (the process requires `c ∈ ℕ`, i.e. ≥ 1).
    ZeroCapacity,
    /// The injection rate was outside the analyzed range.
    InvalidRate {
        /// The offending rate.
        lambda: f64,
        /// Human-readable constraint that was violated.
        constraint: &'static str,
    },
    /// `λn` is not an integer; the deterministic arrival model of Section II
    /// requires `λn ∈ ℕ`.
    NonIntegralArrivals {
        /// The offending rate.
        lambda: f64,
        /// The number of bins.
        bins: usize,
    },
    /// A measurement or burn-in window had length zero.
    EmptyWindow {
        /// Which window was empty.
        what: &'static str,
    },
    /// A parameter fell outside its documented domain.
    OutOfDomain {
        /// Parameter name.
        name: &'static str,
        /// Human-readable description of the domain.
        domain: &'static str,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroBins => write!(f, "number of bins must be positive"),
            ConfigError::ZeroCapacity => {
                write!(f, "buffer capacity must be at least 1")
            }
            ConfigError::InvalidRate { lambda, constraint } => {
                write!(f, "injection rate {lambda} violates constraint {constraint}")
            }
            ConfigError::NonIntegralArrivals { lambda, bins } => write!(
                f,
                "deterministic arrivals require an integral batch, but lambda*n = {} is not an integer",
                lambda * (*bins as f64)
            ),
            ConfigError::EmptyWindow { what } => {
                write!(f, "{what} window must contain at least one round")
            }
            ConfigError::OutOfDomain { name, domain } => {
                write!(f, "parameter {name} outside its domain {domain}")
            }
        }
    }
}

impl Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let msgs = [
            ConfigError::ZeroBins.to_string(),
            ConfigError::ZeroCapacity.to_string(),
            ConfigError::InvalidRate {
                lambda: 1.5,
                constraint: "0 <= lambda <= 1 - 1/n",
            }
            .to_string(),
            ConfigError::NonIntegralArrivals {
                lambda: 0.3,
                bins: 10,
            }
            .to_string(),
            ConfigError::EmptyWindow {
                what: "measurement",
            }
            .to_string(),
            ConfigError::OutOfDomain {
                name: "delta",
                domain: "(0, 1)",
            }
            .to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
            let first = m.chars().next().unwrap();
            assert!(first.is_lowercase(), "message should start lowercase: {m}");
            assert!(!m.ends_with('.'), "no trailing punctuation: {m}");
        }
    }

    #[test]
    fn error_trait_is_implemented() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<ConfigError>();
    }
}
