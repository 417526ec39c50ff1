//! Statistics utilities for the measurement harness.
//!
//! The paper's evaluation (Section V) reports, per data point, averages and
//! maxima over a 1000-round measurement window after burn-in. This module
//! provides the machinery behind that and behind the extra diagnostics used
//! in this reproduction:
//!
//! - [`summary::Summary`] — streaming mean/variance/min/max
//!   (Welford's algorithm).
//! - [`histogram::Histogram`] — integer-valued histograms for
//!   waiting times and bin loads.
//! - [`quantile`] — exact quantiles of a sample.
//! - [`timeseries::TimeSeries`] — round-indexed series with
//!   window statistics and slope estimation (used by adaptive burn-in).
//! - [`regression`] — ordinary least squares for fit diagnostics.
//! - [`autocorr`] — autocorrelation diagnostics and effective sample size.
//! - [`ci`] — Student's t confidence intervals across replications.

pub mod autocorr;
pub mod ci;
pub mod histogram;
pub mod quantile;
pub mod regression;
pub mod summary;
pub mod timeseries;

pub use ci::ConfidenceInterval;
pub use histogram::Histogram;
pub use summary::Summary;
pub use timeseries::TimeSeries;
