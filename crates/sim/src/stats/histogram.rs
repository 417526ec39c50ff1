//! Integer-valued histograms for waiting times and bin loads.

use std::fmt;

/// Values below this are counted in [`Histogram::record_all`]'s local
/// lanes; larger ones take [`Histogram::record`].
const DENSE_WIDTH: usize = 128;

/// Number of interleaved counter arrays in [`Histogram::record_all`].
const LANES: usize = 4;

/// A dense histogram over non-negative integer values.
///
/// Used for waiting-time distributions (values are ages in rounds) and load
/// distributions (values are bin loads, bounded by the capacity `c`). The
/// bucket vector grows on demand, so the histogram never saturates or clips.
///
/// # Examples
///
/// ```
/// use iba_sim::stats::Histogram;
/// let mut h = Histogram::new();
/// h.record(3);
/// h.record(3);
/// h.record(7);
/// assert_eq!(h.count(), 3);
/// assert_eq!(h.count_at(3), 2);
/// assert_eq!(h.max(), Some(7));
/// assert!((h.mean() - 13.0 / 3.0).abs() < 1e-12);
/// assert_eq!(h.quantile(0.5), Some(3));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one observation of `value`.
    pub fn record(&mut self, value: u64) {
        let idx = value as usize;
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += value as u128;
    }

    /// Records every value of `values`; the result equals calling
    /// [`record`](Self::record) on each in turn.
    ///
    /// Built for the per-round batch of waiting times, where most values
    /// repeat a handful of small ages: values below 128 are counted
    /// round-robin into four interleaved local arrays, so consecutive
    /// equal values increment different counters instead of waiting on
    /// each other's store. The arrays are then folded in with one
    /// [`record_n`](Self::record_n) per distinct value, which also sums
    /// the values once. Larger values go through `record`.
    ///
    /// # Examples
    ///
    /// ```
    /// use iba_sim::stats::Histogram;
    /// let values = [0, 3, 3, 1, 900, 3];
    /// let mut batched = Histogram::new();
    /// batched.record_all(&values);
    /// let folded: Histogram = values.into_iter().collect();
    /// assert_eq!(batched, folded);
    /// ```
    pub fn record_all(&mut self, values: &[u64]) {
        let mut lanes = [[0u64; DENSE_WIDTH]; LANES];
        // Whole chunks unroll into four independent increments; indexing
        // the lane by `i % LANES`, or a `chunks` loop, measured about 1.7×
        // slower on a round's waiting times.
        let mut chunks = values.chunks_exact(LANES);
        for chunk in &mut chunks {
            for (lane, &value) in lanes.iter_mut().zip(chunk) {
                match lane.get_mut(value as usize) {
                    Some(count) => *count += 1,
                    None => self.record(value),
                }
            }
        }
        for (lane, &value) in lanes.iter_mut().zip(chunks.remainder()) {
            match lane.get_mut(value as usize) {
                Some(count) => *count += 1,
                None => self.record(value),
            }
        }
        for value in 0..DENSE_WIDTH {
            let weight = lanes.iter().map(|lane| lane[value]).sum();
            self.record_n(value as u64, weight);
        }
    }

    /// Records `weight` observations of `value` at once.
    pub fn record_n(&mut self, value: u64, weight: u64) {
        if weight == 0 {
            return;
        }
        let idx = value as usize;
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += weight;
        self.count += weight;
        self.sum += value as u128 * weight as u128;
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (b, &o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Number of observations equal to `value`.
    pub fn count_at(&self, value: u64) -> u64 {
        self.buckets.get(value as usize).copied().unwrap_or(0)
    }

    /// Mean of the recorded values (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest recorded value, if any.
    pub fn max(&self) -> Option<u64> {
        self.buckets.iter().rposition(|&c| c > 0).map(|i| i as u64)
    }

    /// Smallest recorded value, if any.
    pub fn min(&self) -> Option<u64> {
        self.buckets.iter().position(|&c| c > 0).map(|i| i as u64)
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) of the recorded values, as the smallest
    /// value `v` such that at least `⌈q·count⌉` observations are ≤ `v`.
    /// Returns `None` if the histogram is empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not within `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (v, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(v as u64);
            }
        }
        self.max()
    }

    /// Fraction of observations that are greater than `value`
    /// (the empirical tail `P(X > value)`; 0 if empty).
    pub fn tail_above(&self, value: u64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let above: u64 = self
            .buckets
            .iter()
            .enumerate()
            .filter(|&(v, _)| v as u64 > value)
            .map(|(_, &c)| c)
            .sum();
        above as f64 / self.count as f64
    }

    /// Iterates over `(value, count)` pairs with non-zero counts.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(v, &c)| (v as u64, c))
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.count == 0 {
            return write!(f, "histogram(empty)");
        }
        write!(
            f,
            "histogram(n={}, mean={:.3}, p50={}, p99={}, max={})",
            self.count,
            self.mean(),
            self.quantile(0.5).unwrap(),
            self.quantile(0.99).unwrap(),
            self.max().unwrap()
        )
    }
}

impl FromIterator<u64> for Histogram {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        let mut h = Histogram::new();
        for v in iter {
            h.record(v);
        }
        h
    }
}

impl Extend<u64> for Histogram {
    fn extend<I: IntoIterator<Item = u64>>(&mut self, iter: I) {
        for v in iter {
            self.record(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.max(), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.tail_above(0), 0.0);
        assert_eq!(h.to_string(), "histogram(empty)");
    }

    #[test]
    fn record_and_query() {
        let h: Histogram = [0, 0, 1, 5, 5, 5].into_iter().collect();
        assert_eq!(h.count(), 6);
        assert_eq!(h.count_at(0), 2);
        assert_eq!(h.count_at(5), 3);
        assert_eq!(h.count_at(99), 0);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(5));
        assert!((h.mean() - 16.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn quantiles_are_order_statistics() {
        let h: Histogram = (1..=100).collect();
        assert_eq!(h.quantile(0.0), Some(1));
        assert_eq!(h.quantile(0.01), Some(1));
        assert_eq!(h.quantile(0.5), Some(50));
        assert_eq!(h.quantile(0.99), Some(99));
        assert_eq!(h.quantile(1.0), Some(100));
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn quantile_out_of_range_panics() {
        let h: Histogram = [1].into_iter().collect();
        h.quantile(1.5);
    }

    #[test]
    fn tail_above_counts_strictly_greater() {
        let h: Histogram = [1, 2, 3, 4].into_iter().collect();
        assert!((h.tail_above(2) - 0.5).abs() < 1e-12);
        assert!((h.tail_above(4) - 0.0).abs() < 1e-12);
        assert!((h.tail_above(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a: Histogram = [1, 2].into_iter().collect();
        let b: Histogram = [2, 10].into_iter().collect();
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.count_at(2), 2);
        assert_eq!(a.max(), Some(10));
        assert!((a.mean() - 15.0 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let mut a = Histogram::new();
        a.record_n(4, 3);
        a.record_n(9, 0);
        let b: Histogram = [4, 4, 4].into_iter().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn iter_skips_zero_buckets() {
        let h: Histogram = [0, 5].into_iter().collect();
        let pairs: Vec<_> = h.iter().collect();
        assert_eq!(pairs, vec![(0, 1), (5, 1)]);
    }
}
