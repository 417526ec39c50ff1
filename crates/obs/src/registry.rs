//! The telemetry registry: named atomic counters, gauges and fixed-bucket
//! histograms behind a process-wide on/off switch.
//!
//! # Cost model
//!
//! Every recording primitive ([`Counter::add`], [`Gauge::set`],
//! [`Histogram::record`], …) first checks [`enabled`] — **one relaxed
//! atomic load** — and returns immediately when telemetry is off. That is
//! the entire disabled-path cost, so probes can live inside hot kernels
//! (the arena round kernel processes ~10⁶ balls per round; its probes are
//! per-*round*, not per-ball, and vanish to a load-and-branch when off).
//! When on, recording is a relaxed `fetch_add` (plus an `Instant` read for
//! timers).
//!
//! Handles are `Arc`s handed out by [`Registry::counter`] /
//! [`Registry::gauge`] / [`Registry::histogram`]; instrumented code caches
//! them in `OnceLock` statics so the registry lock is taken once per
//! metric per process, never on the hot path.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether telemetry is currently enabled. One relaxed load: this is the
/// whole disabled-path cost of every probe.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns telemetry on or off process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Enables telemetry if the `IBA_TELEMETRY` environment variable is set to
/// anything but `0`. Returns the resulting state.
pub fn init_from_env() -> bool {
    if std::env::var_os("IBA_TELEMETRY").is_some_and(|v| v != "0") {
        set_enabled(true);
    }
    enabled()
}

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n` (no-op while telemetry is disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds 1 (no-op while telemetry is disabled).
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A last-written-wins (or running-max) instantaneous value.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// Sets the gauge (no-op while telemetry is disabled).
    #[inline]
    pub fn set(&self, v: u64) {
        if enabled() {
            self.value.store(v, Ordering::Relaxed);
        }
    }

    /// Raises the gauge to `v` if `v` is larger — a running peak
    /// (no-op while telemetry is disabled).
    #[inline]
    pub fn record_max(&self, v: u64) {
        if enabled() {
            self.value.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Number of buckets in a [`Histogram`]: bucket 0 holds the value 0,
/// bucket `i ≥ 1` holds values in `[2^{i−1}, 2^i − 1]`, and the last
/// bucket is unbounded (`+Inf`).
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A concurrent fixed-bucket histogram with power-of-two bucket bounds.
///
/// Exact counts and sums; values are bucketed by bit width, so quantile
/// queries return the *upper bound* of the containing bucket (≤ 2× the
/// true quantile — plenty for dashboards and regression alarms, and the
/// bucket layout never needs tuning). Recording is wait-free: one bucket
/// `fetch_add` plus count/sum updates, all relaxed.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// Bucket index for `value`: 0 for 0, otherwise the bit width of `value`
/// capped at the last bucket.
#[inline]
fn bucket_index(value: u64) -> usize {
    let width = (u64::BITS - value.leading_zeros()) as usize;
    width.min(HISTOGRAM_BUCKETS - 1)
}

/// Inclusive upper bound of bucket `i` (`u64::MAX` for the last bucket).
pub fn bucket_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= HISTOGRAM_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// Records one observation (no-op while telemetry is disabled).
    #[inline]
    pub fn record(&self, value: u64) {
        if enabled() {
            self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
            self.count.fetch_add(1, Ordering::Relaxed);
            self.sum.fetch_add(value, Ordering::Relaxed);
        }
    }

    /// A point-in-time copy of the histogram's state.
    ///
    /// Buckets, count and sum are loaded independently, so a snapshot
    /// taken mid-record may be transiently inconsistent by one
    /// observation — acceptable for monitoring, which is the only
    /// consumer.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (out, b) in buckets.iter_mut().zip(&self.buckets) {
            *out = b.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
    }
}

/// An owned copy of a [`Histogram`]'s buckets with query and merge
/// operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (see [`bucket_bound`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Adds another snapshot's observations into this one.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Mean of the recorded values (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing the `q`-quantile
    /// (`None` if empty).
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(bucket_bound(i));
            }
        }
        Some(bucket_bound(HISTOGRAM_BUCKETS - 1))
    }

    /// Upper bound of the highest non-empty bucket (`None` if empty).
    pub fn max_bound(&self) -> Option<u64> {
        self.buckets.iter().rposition(|&c| c > 0).map(bucket_bound)
    }
}

/// The set of registered metrics, keyed by name.
///
/// Names must match the Prometheus grammar
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`; kinds are disjoint (a counter and a gauge
/// may not share a name).
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

impl Registry {
    /// Creates an empty registry (tests; production code uses
    /// [`global`]).
    pub fn new() -> Self {
        Registry::default()
    }

    /// Returns the counter named `name`, creating it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a valid metric name or is already
    /// registered as a different kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        assert!(valid_name(name), "invalid metric name: {name:?}");
        assert!(
            !self.gauges.lock().unwrap().contains_key(name)
                && !self.histograms.lock().unwrap().contains_key(name),
            "metric {name:?} already registered as a different kind"
        );
        self.counters
            .lock()
            .unwrap()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Returns the gauge named `name`, creating it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a valid metric name or is already
    /// registered as a different kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        assert!(valid_name(name), "invalid metric name: {name:?}");
        assert!(
            !self.counters.lock().unwrap().contains_key(name)
                && !self.histograms.lock().unwrap().contains_key(name),
            "metric {name:?} already registered as a different kind"
        );
        self.gauges
            .lock()
            .unwrap()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Returns the histogram named `name`, creating it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a valid metric name or is already
    /// registered as a different kind.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        assert!(valid_name(name), "invalid metric name: {name:?}");
        assert!(
            !self.counters.lock().unwrap().contains_key(name)
                && !self.gauges.lock().unwrap().contains_key(name),
            "metric {name:?} already registered as a different kind"
        );
        self.histograms
            .lock()
            .unwrap()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// A consistent, sorted snapshot of every registered metric.
    pub fn snapshot(&self) -> RegistrySnapshot {
        RegistrySnapshot {
            counters: self
                .counters
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }

    /// Zeroes every registered metric (metrics stay registered). Used by
    /// tests and perfbench to isolate measurement windows.
    pub fn reset(&self) {
        for c in self.counters.lock().unwrap().values() {
            c.reset();
        }
        for g in self.gauges.lock().unwrap().values() {
            g.reset();
        }
        for h in self.histograms.lock().unwrap().values() {
            h.reset();
        }
    }
}

/// Sorted point-in-time values of every metric in a [`Registry`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RegistrySnapshot {
    /// `(name, value)` for every counter, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge, name-sorted.
    pub gauges: Vec<(String, u64)>,
    /// `(name, snapshot)` for every histogram, name-sorted.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

/// The process-wide registry every probe in the workspace records into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Starts timing a phase: captures `Instant::now()` only while telemetry
/// is enabled, so a disabled timer costs one relaxed load and never reads
/// the clock.
#[derive(Debug, Clone, Copy)]
pub struct PhaseTimer(Option<Instant>);

impl PhaseTimer {
    /// Starts the timer (disabled → inert).
    #[inline]
    pub fn start() -> Self {
        PhaseTimer(if enabled() {
            Some(Instant::now())
        } else {
            None
        })
    }

    /// Records the elapsed nanoseconds into `hist` if the timer was live.
    #[inline]
    pub fn observe(self, hist: &Histogram) {
        if let Some(start) = self.0 {
            let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            hist.record(nanos);
        }
    }
}

/// The lock every test in this crate holds while it depends on the
/// process-global switch: the tests of all modules share one binary, and
/// so one switch.
#[cfg(test)]
static TEST_SWITCH: Mutex<()> = Mutex::new(());

/// Runs `f` with the global switch set to `on` under [`TEST_SWITCH`], and
/// turns the switch off afterwards. A test that panics poisons the lock
/// but cannot leave a state the next holder does not overwrite, so the
/// poison is cleared instead of failing every later test.
#[cfg(test)]
pub(crate) fn with_telemetry<R>(on: bool, f: impl FnOnce() -> R) -> R {
    let _guard = TEST_SWITCH
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    set_enabled(on);
    let out = f();
    set_enabled(false);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_probes_record_nothing() {
        with_telemetry(false, || {
            let c = Counter::default();
            let g = Gauge::default();
            let h = Histogram::default();
            c.inc();
            g.set(9);
            g.record_max(9);
            h.record(9);
            assert_eq!(c.get(), 0);
            assert_eq!(g.get(), 0);
            assert_eq!(h.snapshot().count, 0);
        });
    }

    #[test]
    fn enabled_probes_record() {
        with_telemetry(true, || {
            let c = Counter::default();
            c.add(2);
            c.inc();
            assert_eq!(c.get(), 3);

            let g = Gauge::default();
            g.set(5);
            g.record_max(3);
            assert_eq!(g.get(), 5);
            g.record_max(8);
            assert_eq!(g.get(), 8);

            let h = Histogram::default();
            for v in [0, 1, 2, 3, 1000] {
                h.record(v);
            }
            let s = h.snapshot();
            assert_eq!(s.count, 5);
            assert_eq!(s.sum, 1006);
            assert_eq!(s.buckets[0], 1); // value 0
            assert_eq!(s.buckets[1], 1); // value 1
            assert_eq!(s.buckets[2], 2); // values 2, 3
            assert_eq!(s.buckets[10], 1); // 1000 ∈ [512, 1023]
        });
    }

    #[test]
    fn bucket_bounds_cover_u64() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_bound(0), 0);
        assert_eq!(bucket_bound(1), 1);
        assert_eq!(bucket_bound(2), 3);
        assert_eq!(bucket_bound(HISTOGRAM_BUCKETS - 1), u64::MAX);
        // Every value lands in the bucket whose bound is the smallest
        // bound ≥ value.
        for v in [0u64, 1, 2, 3, 4, 5, 127, 128, 1 << 40] {
            let i = bucket_index(v);
            assert!(bucket_bound(i) >= v);
            if i > 0 {
                assert!(bucket_bound(i - 1) < v);
            }
        }
    }

    #[test]
    fn snapshot_quantiles_return_bucket_bounds() {
        with_telemetry(true, || {
            let h = Histogram::default();
            for v in 1..=100u64 {
                h.record(v);
            }
            let s = h.snapshot();
            assert_eq!(s.count, 100);
            // True p50 = 50 → bucket [32, 63] → bound 63.
            assert_eq!(s.quantile(0.5), Some(63));
            assert_eq!(s.quantile(1.0), Some(127));
            assert_eq!(s.max_bound(), Some(127));
            assert!((s.mean() - 50.5).abs() < 1e-9);
        });
    }

    #[test]
    fn empty_snapshot_queries() {
        let s = HistogramSnapshot::default();
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.max_bound(), None);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn merge_adds_observations() {
        with_telemetry(true, || {
            let a = Histogram::default();
            let b = Histogram::default();
            a.record(1);
            b.record(1);
            b.record(100);
            let mut sa = a.snapshot();
            sa.merge(&b.snapshot());
            assert_eq!(sa.count, 3);
            assert_eq!(sa.sum, 102);
            assert_eq!(sa.buckets[1], 2);
        });
    }

    #[test]
    fn registry_get_or_create_returns_same_metric() {
        with_telemetry(true, || {
            let r = Registry::new();
            let c1 = r.counter("x_total");
            let c2 = r.counter("x_total");
            c1.inc();
            assert_eq!(c2.get(), 1);
            let snap = r.snapshot();
            assert_eq!(snap.counters, vec![("x_total".to_string(), 1)]);
            r.reset();
            assert_eq!(r.counter("x_total").get(), 0);
        });
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn cross_kind_collision_panics() {
        let r = Registry::new();
        r.counter("dual");
        r.gauge("dual");
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_name_panics() {
        Registry::new().counter("9starts_with_digit");
    }

    #[test]
    fn snapshot_is_name_sorted() {
        with_telemetry(true, || {
            let r = Registry::new();
            r.counter("b_total");
            r.counter("a_total");
            r.gauge("z");
            r.histogram("h_nanos");
            let s = r.snapshot();
            assert_eq!(s.counters[0].0, "a_total");
            assert_eq!(s.counters[1].0, "b_total");
            assert_eq!(s.gauges[0].0, "z");
            assert_eq!(s.histograms[0].0, "h_nanos");
        });
    }

    #[test]
    fn phase_timer_inert_when_disabled() {
        with_telemetry(false, || {
            let h = Histogram::default();
            let t = PhaseTimer::start();
            t.observe(&h);
            assert_eq!(h.snapshot().count, 0);
        });
    }

    #[test]
    fn phase_timer_records_when_enabled() {
        with_telemetry(true, || {
            let h = Histogram::default();
            let t = PhaseTimer::start();
            t.observe(&h);
            assert_eq!(h.snapshot().count, 1);
        });
    }
}
