//! Sample summaries: a log-linear latency histogram and small-vector
//! quantiles.

/// Sub-buckets per power of two: bucket width is at most 1/128 of its
/// lower bound, so a quantile is resolved to better than 0.8 %.
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;

/// A constant-memory histogram of non-negative integer samples (ns).
///
/// Values below 128 get exact buckets; above, each power of two is split
/// into 128 equal buckets. Quantiles interpolate linearly inside the
/// bucket that holds the requested rank, so two runs report distinct
/// values even when their quantiles share a bucket.
#[derive(Debug, Clone)]
pub struct LogHist {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
}

impl Default for LogHist {
    fn default() -> Self {
        LogHist {
            counts: vec![0; ((64 - SUB_BITS as usize) + 1) * SUB as usize],
            total: 0,
            sum: 0,
        }
    }
}

fn index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let shift = 63 - v.leading_zeros() - SUB_BITS;
    let mant = (v >> shift) - SUB;
    ((shift as u64 + 1) * SUB + mant) as usize
}

/// Lower bound and width of bucket `i`.
fn bucket(i: usize) -> (f64, f64) {
    let i = i as u64;
    if i < SUB {
        return (i as f64, 1.0);
    }
    let shift = i / SUB - 1;
    let mant = i % SUB + SUB;
    ((mant << shift) as f64, (1u64 << shift) as f64)
}

impl LogHist {
    pub fn new() -> Self {
        LogHist::default()
    }

    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    pub fn record_n(&mut self, v: u64, weight: u64) {
        self.counts[index(v)] += weight;
        self.total += weight;
        self.sum += u128::from(v) * u128::from(weight);
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// The `q`-quantile (0 when empty), interpolated inside its bucket.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * (self.total - 1) as f64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (seen + c) as f64 > rank {
                let (lo, width) = bucket(i);
                return lo + width * ((rank - seen as f64 + 0.5) / c as f64);
            }
            seen += c;
        }
        let last = self.counts.iter().rposition(|&c| c > 0).unwrap_or(0);
        let (lo, width) = bucket(last);
        lo + width
    }
}

/// Samples kept per one-second window as well as in total, so a run can
/// report the quantile of a typical second.
#[derive(Debug, Clone, Default)]
pub struct Windowed {
    all: LogHist,
    windows: Vec<LogHist>,
}

/// Windows with fewer samples than this are left out.
const MIN_WINDOW_SAMPLES: u64 = 100;

impl Windowed {
    pub fn new() -> Self {
        Windowed::default()
    }

    /// Records `v` (weight `weight`) taken `at_ns` after the run's start.
    pub fn record_n(&mut self, at_ns: u64, v: u64, weight: u64) {
        let k = (at_ns / 1_000_000_000) as usize;
        if self.windows.len() <= k {
            self.windows.resize_with(k + 1, LogHist::new);
        }
        self.windows[k].record_n(v, weight);
        self.all.record_n(v, weight);
    }

    pub fn record(&mut self, at_ns: u64, v: u64) {
        self.record_n(at_ns, v, 1);
    }

    pub fn all(&self) -> &LogHist {
        &self.all
    }

    /// The `q`-quantile of a typical second: each full window gives its own
    /// `q`-quantile, and the result is their interquartile mean (the mean
    /// of the middle half), with the number of samples in those windows. A
    /// burst of stalls moves one window and drops out with the top quarter;
    /// a change in host speed over part of the run moves the result in
    /// proportion to the time it lasted.
    pub fn typical(&self, q: f64) -> (f64, u64) {
        let mut per: Vec<(f64, u64)> = self
            .windows
            .iter()
            .filter(|w| w.count() >= MIN_WINDOW_SAMPLES)
            .map(|w| (w.quantile(q), w.count()))
            .collect();
        if per.is_empty() {
            return (self.all.quantile(q), self.all.count());
        }
        per.sort_by(|a, b| a.0.total_cmp(&b.0));
        let quarter = per.len() / 4;
        let middle = &per[quarter..per.len() - quarter];
        let mean = middle.iter().map(|w| w.0).sum::<f64>() / middle.len() as f64;
        (mean, middle.iter().map(|w| w.1).sum())
    }
}

/// Median of a non-empty slice (mean of the middle pair for even lengths).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.is_empty() {
        0.0
    } else if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_line() {
        for v in [
            0u64,
            1,
            127,
            128,
            129,
            255,
            256,
            1000,
            123_456_789,
            u64::MAX,
        ] {
            let (lo, width) = bucket(index(v));
            assert!(lo <= v as f64 && (v as f64) <= lo + width, "{v}");
        }
        for i in 1..2000 {
            let (lo, width) = bucket(i);
            let (next, _) = bucket(i + 1);
            assert_eq!(lo + width, next, "bucket {i}");
        }
    }

    #[test]
    fn quantiles_track_exact_values() {
        let mut h = LogHist::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for q in [0.1, 0.5, 0.99] {
            let exact = q * 100_000.0;
            assert!((h.quantile(q) - exact).abs() / exact < 0.01, "q={q}");
        }
        assert_eq!(h.count(), 100_000);
    }

    #[test]
    fn weights_count_as_repeated_samples() {
        let mut a = LogHist::new();
        let mut b = LogHist::new();
        a.record_n(5000, 3);
        for _ in 0..3 {
            b.record(5000);
        }
        assert_eq!(a.quantile(0.5), b.quantile(0.5));
        assert_eq!(a.mean(), 5000.0);
    }

    #[test]
    fn typical_is_the_interquartile_mean_of_window_quantiles() {
        let mut w = Windowed::new();
        let seconds = [160u64, 100, 150, 110, 140, 120, 130, 1_000_000];
        for (k, &v) in seconds.iter().enumerate() {
            for _ in 0..MIN_WINDOW_SAMPLES {
                w.record(k as u64 * 1_000_000_000 + 1, v);
            }
        }
        // The middle half of the eight window medians is 120..=150; the
        // stalled second drops out with the top quarter.
        let (value, samples) = w.typical(0.5);
        assert!((value - 135.5).abs() < 1.0, "{value}");
        assert_eq!(samples, 4 * MIN_WINDOW_SAMPLES);
        // A window with too few samples does not count.
        w.record(20_000_000_000, 5);
        assert!((w.typical(0.5).0 - 135.5).abs() < 1.0);
        assert_eq!(w.all().count(), 8 * MIN_WINDOW_SAMPLES + 1);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
