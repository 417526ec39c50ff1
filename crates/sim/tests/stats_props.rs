//! Property-based tests for the statistics substrate: the streaming and
//! bucketed implementations must agree with naive reference computations
//! on arbitrary inputs.

use proptest::prelude::*;

use iba_sim::stats::quantile::{quantile, quantile_sorted};
use iba_sim::stats::{Histogram, Summary};

/// The reference [`Histogram::record_all`] must match: `record` folded
/// over `values`, starting from `base`.
fn fold_record(base: &Histogram, values: &[u64]) -> Histogram {
    let mut h = base.clone();
    for &v in values {
        h.record(v);
    }
    h
}

#[test]
fn record_all_of_nothing_changes_nothing() {
    let mut empty = Histogram::new();
    empty.record_all(&[]);
    assert_eq!(empty, Histogram::new());
    let held: Histogram = [0, 7, 7].into_iter().collect();
    let mut batched = held.clone();
    batched.record_all(&[]);
    assert_eq!(batched, held);
}

fn finite_f64() -> impl Strategy<Value = f64> {
    // Bounded magnitude keeps naive reference sums numerically comparable.
    (-1e6f64..1e6).prop_map(|x| (x * 1e6).round() / 1e6)
}

proptest! {
    #[test]
    fn summary_matches_naive_two_pass(data in prop::collection::vec(finite_f64(), 1..200)) {
        let s: Summary = data.iter().copied().collect();
        let n = data.len() as f64;
        let mean = data.iter().sum::<f64>() / n;
        let scale = data.iter().map(|x| x.abs()).fold(1.0, f64::max);
        prop_assert!((s.mean() - mean).abs() <= 1e-9 * scale.max(1.0));
        let min = data.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(s.min(), Some(min));
        prop_assert_eq!(s.max(), Some(max));
        if data.len() >= 2 {
            let var = data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
            prop_assert!((s.sample_variance() - var).abs() <= 1e-6 * var.abs().max(1.0));
        }
    }

    #[test]
    fn summary_merge_is_order_independent(
        a in prop::collection::vec(finite_f64(), 0..100),
        b in prop::collection::vec(finite_f64(), 0..100),
    ) {
        let mut left: Summary = a.iter().copied().collect();
        let right: Summary = b.iter().copied().collect();
        left.merge(&right);

        let all: Summary = a.iter().chain(&b).copied().collect();
        prop_assert_eq!(left.count(), all.count());
        if all.count() > 0 {
            prop_assert!((left.mean() - all.mean()).abs() < 1e-6 * all.mean().abs().max(1.0));
            prop_assert_eq!(left.min(), all.min());
            prop_assert_eq!(left.max(), all.max());
        }
    }

    #[test]
    fn histogram_matches_naive_counts(values in prop::collection::vec(0u64..500, 1..300)) {
        let h: Histogram = values.iter().copied().collect();
        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert_eq!(h.min(), values.iter().copied().min());
        prop_assert_eq!(h.max(), values.iter().copied().max());
        let naive_mean = values.iter().sum::<u64>() as f64 / values.len() as f64;
        prop_assert!((h.mean() - naive_mean).abs() < 1e-9);
        // Spot-check one bucket.
        let target = values[0];
        let expected = values.iter().filter(|&&v| v == target).count() as u64;
        prop_assert_eq!(h.count_at(target), expected);
    }

    #[test]
    fn histogram_quantile_is_order_statistic(
        values in prop::collection::vec(0u64..100, 1..200),
        q in 0.0f64..=1.0,
    ) {
        let h: Histogram = values.iter().copied().collect();
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let rank = ((q * sorted.len() as f64).ceil() as usize).max(1) - 1;
        prop_assert_eq!(h.quantile(q), Some(sorted[rank.min(sorted.len() - 1)]));
    }

    #[test]
    fn histogram_merge_equals_concatenation(
        a in prop::collection::vec(0u64..64, 0..100),
        b in prop::collection::vec(0u64..64, 0..100),
    ) {
        let mut left: Histogram = a.iter().copied().collect();
        let right: Histogram = b.iter().copied().collect();
        left.merge(&right);
        let all: Histogram = a.iter().chain(&b).copied().collect();
        prop_assert_eq!(left, all);
    }

    #[test]
    fn record_all_equals_folded_record(
        held in prop::collection::vec(0u64..200, 0..50),
        values in prop::collection::vec(0u64..200, 0..400),
        top in 1u64..=200,
    ) {
        // Values straddle `record_all`'s dense cutoff (or, for small
        // `top`, stay well below it, where the bucket vector's length is
        // set by the batch's own maximum), and the histogram may already
        // hold data (and longer buckets) before the batch.
        let values: Vec<u64> = values.iter().map(|v| v % top).collect();
        let base: Histogram = held.iter().copied().collect();
        let mut batched = base.clone();
        batched.record_all(&values);
        prop_assert_eq!(batched, fold_record(&base, &values));
    }

    #[test]
    fn record_all_with_one_large_value_equals_folded_record(
        held in prop::collection::vec(0u64..200, 0..20),
        values in prop::collection::vec(0u64..200, 0..100),
        large in (1u64 << 16)..(1u64 << 20),
        at in any::<usize>(),
    ) {
        let mut values = values;
        let at = at % (values.len() + 1);
        values.insert(at, large);
        let base: Histogram = held.iter().copied().collect();
        let mut batched = base.clone();
        batched.record_all(&values);
        prop_assert_eq!(batched, fold_record(&base, &values));
    }

    #[test]
    fn quantile_brackets_data(data in prop::collection::vec(finite_f64(), 1..100), q in 0.0f64..=1.0) {
        let v = quantile(&data, q).unwrap();
        let min = data.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(v >= min - 1e-9 && v <= max + 1e-9);
    }

    #[test]
    fn quantile_is_monotone_in_q(data in prop::collection::vec(finite_f64(), 2..100)) {
        let mut sorted = data.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut prev = f64::NEG_INFINITY;
        for step in 0..=10 {
            let q = step as f64 / 10.0;
            let v = quantile_sorted(&sorted, q);
            prop_assert!(v >= prev - 1e-12);
            prev = v;
        }
    }

    #[test]
    fn rng_uniform_below_stays_in_range(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut rng = iba_sim::SimRng::seed_from(seed);
        for _ in 0..50 {
            prop_assert!(rng.uniform_below(bound) < bound);
        }
    }

    #[test]
    fn rng_is_reproducible(seed in any::<u64>()) {
        let mut a = iba_sim::SimRng::seed_from(seed);
        let mut b = iba_sim::SimRng::seed_from(seed);
        for _ in 0..20 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
