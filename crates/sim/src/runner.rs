//! Multi-seed replication.
//!
//! Every figure data point is estimated from several independent
//! replications (distinct RNG streams split from one master seed). The
//! runner executes replications across OS threads — the workload is
//! embarrassingly parallel — and aggregates per-seed point estimates into a
//! [`PointEstimate`] with a confidence interval.

use std::num::NonZeroUsize;
use std::thread;

use crate::rng::SimRng;
use crate::stats::ci::{ci95, ConfidenceInterval};
use crate::stats::Summary;

/// Aggregate of one scalar metric across replications.
#[derive(Debug, Clone, PartialEq)]
pub struct PointEstimate {
    /// Summary over the per-replication estimates.
    pub summary: Summary,
    /// 95 % Student's t confidence interval over replications.
    pub ci95: ConfidenceInterval,
}

impl PointEstimate {
    /// Builds a point estimate from per-replication values.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    pub fn from_values(values: &[f64]) -> Self {
        assert!(
            !values.is_empty(),
            "point estimate needs at least one value"
        );
        let summary: Summary = values.iter().copied().collect();
        PointEstimate {
            ci95: ci95(&summary),
            summary,
        }
    }

    /// Mean across replications.
    pub fn mean(&self) -> f64 {
        self.summary.mean()
    }

    /// Maximum across replications.
    pub fn max(&self) -> f64 {
        self.summary.max().unwrap_or(0.0)
    }
}

/// Name of the environment variable overriding the worker-thread count
/// used by [`replicate`]. See [`thread_budget`].
pub const THREADS_ENV: &str = "IBA_THREADS";

/// The number of worker threads [`replicate`] will use: the value of the
/// `IBA_THREADS` environment variable if set to a positive integer
/// (clamped up to 1; non-numeric or empty values are ignored), otherwise
/// [`std::thread::available_parallelism`]. Useful to pin experiments to a
/// fixed core budget (`IBA_THREADS=2 cargo bench …`) or to serialize them
/// entirely (`IBA_THREADS=1`) for debugging.
pub fn thread_budget() -> usize {
    if let Ok(raw) = std::env::var(THREADS_ENV) {
        if let Ok(threads) = raw.trim().parse::<usize>() {
            return threads.max(1);
        }
    }
    thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs `count` replications of `job` in parallel and returns their results
/// in replication order.
///
/// Each replication gets a decorrelated [`SimRng`] derived from
/// `master_seed` (see [`SimRng::family`]), so the full experiment is a pure
/// function of `(master_seed, count, job)`.
///
/// The closure receives `(replication_index, rng)`. The degree of
/// parallelism is [`thread_budget`] (the `IBA_THREADS` override, else the
/// detected core count) capped at `count`; thread count never affects the
/// results, only the wall-clock time.
///
/// # Panics
///
/// Panics if `count == 0` or if a replication thread panics.
pub fn replicate<T, F>(master_seed: u64, count: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, SimRng) -> T + Sync,
{
    assert!(count > 0, "need at least one replication");
    let rngs = SimRng::family(master_seed, count);
    let threads = thread_budget().min(count);

    if threads <= 1 {
        return rngs
            .into_iter()
            .enumerate()
            .map(|(i, rng)| job(i, rng))
            .collect();
    }

    let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
    let job_ref = &job;
    thread::scope(|scope| {
        let mut remaining: &mut [Option<T>] = &mut slots;
        let mut rng_iter = rngs.into_iter();
        let mut next_index = 0usize;
        // Split the result slice into contiguous chunks, one per thread.
        let chunk = count.div_ceil(threads);
        while !remaining.is_empty() {
            let take = chunk.min(remaining.len());
            let (head, tail) = remaining.split_at_mut(take);
            let base = next_index;
            let chunk_rngs: Vec<SimRng> = (&mut rng_iter).take(take).collect();
            scope.spawn(move || {
                for (offset, (slot, rng)) in head.iter_mut().zip(chunk_rngs).enumerate() {
                    *slot = Some(job_ref(base + offset, rng));
                }
            });
            remaining = tail;
            next_index += take;
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("replication thread filled its slot"))
        .collect()
}

/// Convenience wrapper: runs replications that each return one scalar and
/// aggregates them into a [`PointEstimate`].
pub fn replicate_scalar<F>(master_seed: u64, count: usize, job: F) -> PointEstimate
where
    F: Fn(usize, SimRng) -> f64 + Sync,
{
    let values = replicate(master_seed, count, job);
    PointEstimate::from_values(&values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_budget_honors_env_override() {
        // A single test owns the variable (concurrent tests would race on
        // process-global state): set → parse, junk → fallback, zero →
        // clamp, unset → detection. Thread count never changes
        // replicate()'s results, only its schedule, so the other runner
        // tests are unaffected whatever value they observe mid-test.
        std::env::set_var(THREADS_ENV, "3");
        assert_eq!(thread_budget(), 3);
        std::env::set_var(THREADS_ENV, " 5 ");
        assert_eq!(thread_budget(), 5, "whitespace is trimmed");
        std::env::set_var(THREADS_ENV, "0");
        assert_eq!(thread_budget(), 1, "zero clamps to one thread");
        std::env::set_var(THREADS_ENV, "not-a-number");
        assert!(thread_budget() >= 1, "junk falls back to detection");

        std::env::set_var(THREADS_ENV, "1");
        let serial = replicate(11, 12, |_i, mut rng| rng.next_u64());
        std::env::set_var(THREADS_ENV, "4");
        let parallel = replicate(11, 12, |_i, mut rng| rng.next_u64());
        assert_eq!(serial, parallel, "budget must not change results");

        std::env::remove_var(THREADS_ENV);
        assert!(thread_budget() >= 1);
    }

    #[test]
    fn replicate_preserves_order_and_count() {
        let out = replicate(1, 10, |i, _rng| i * 2);
        assert_eq!(out, vec![0, 2, 4, 6, 8, 10, 12, 14, 16, 18]);
    }

    #[test]
    fn replicate_is_deterministic_across_runs() {
        let a = replicate(42, 8, |_i, mut rng| rng.next_u64());
        let b = replicate(42, 8, |_i, mut rng| rng.next_u64());
        assert_eq!(a, b);
    }

    #[test]
    fn replicate_streams_are_distinct() {
        let draws = replicate(7, 6, |_i, mut rng| rng.next_u64());
        for i in 0..draws.len() {
            for j in (i + 1)..draws.len() {
                assert_ne!(draws[i], draws[j]);
            }
        }
    }

    #[test]
    fn replicate_single() {
        let out = replicate(3, 1, |i, _| i);
        assert_eq!(out, vec![0]);
    }

    #[test]
    #[should_panic(expected = "at least one replication")]
    fn replicate_zero_panics() {
        let _ = replicate(0, 0, |_, _| ());
    }

    #[test]
    fn scalar_aggregation() {
        let est = replicate_scalar(5, 16, |i, _| i as f64);
        assert_eq!(est.summary.count(), 16);
        assert!((est.mean() - 7.5).abs() < 1e-12);
        assert_eq!(est.max(), 15.0);
        assert!(est.ci95.half_width > 0.0);
        assert!(est.ci95.contains(7.5));
    }

    #[test]
    fn point_estimate_from_values() {
        let est = PointEstimate::from_values(&[2.0, 4.0]);
        assert_eq!(est.mean(), 3.0);
        assert_eq!(est.max(), 4.0);
    }

    #[test]
    fn two_values_take_t_with_one_degree_of_freedom() {
        // s.e. = |4 − 2| / 2 = 1, so the half-width is t₀.₉₇₅(1).
        let est = PointEstimate::from_values(&[2.0, 4.0]);
        assert!((est.summary.std_error() - 1.0).abs() < 1e-12);
        assert!((est.ci95.half_width - 12.706).abs() < 1e-9);
    }

    #[test]
    fn three_values_take_t_with_two_degrees_of_freedom() {
        let est = PointEstimate::from_values(&[1.0, 2.0, 3.0]);
        let se = est.summary.std_error();
        assert!((se - 1.0 / 3f64.sqrt()).abs() < 1e-12);
        assert!((est.ci95.half_width - 4.303 * se).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one value")]
    fn point_estimate_empty_panics() {
        let _ = PointEstimate::from_values(&[]);
    }
}
