//! Per-shard bin state: the sequential kernel of a sharded CAPPED service.
//!
//! A [`BinShard`] owns a contiguous range of bins — their FIFO buffers and
//! fault masks — and executes the bin-local half of one CAPPED(c, λ) round:
//! the greedy oldest-first acceptance stage ([`accept`](BinShard::accept))
//! and the FIFO deletion stage ([`serve`](BinShard::serve)). It is the
//! single-threaded building block the `iba-serve` dispatch service runs one
//! per worker thread; composing `S` shards over a partition of `0..n`
//! reproduces [`CappedProcess`](crate::process::CappedProcess) exactly:
//!
//! - acceptance at a bin depends only on that bin's load and the age order
//!   of the requests *to that bin*, so routing an age-ordered request
//!   stream to shards preserves Algorithm 1's "accept the oldest
//!   min{c − ℓ, ν}" rule at every bin;
//! - the deletion stage is bin-local by definition.
//!
//! The bit-exact equivalence of the composition is property-tested in this
//! module and anchored end-to-end by the `iba-serve` differential tests.

use std::ops::Range;

use crate::arena::{
    commit_accepts, commit_accepts_uniform, counting_accept, fast_accept, BinStore, BinView,
};
use crate::ball::Ball;
use crate::config::{Capacity, CappedConfig};
use crate::obs;
use crate::process::KernelMode;

/// The contiguous bin range owned by shard `shard` when `bins` bins are
/// partitioned across `shards` shards as evenly as possible (the first
/// `bins % shards` shards own one extra bin).
///
/// # Panics
///
/// Panics if `shards == 0`, `shards > bins`, or `shard >= shards`.
pub fn shard_range(bins: usize, shards: usize, shard: usize) -> Range<usize> {
    assert!(shards > 0, "need at least one shard");
    assert!(
        shards <= bins,
        "cannot spread {bins} bins over {shards} shards"
    );
    assert!(shard < shards, "shard index {shard} out of range");
    let base = bins / shards;
    let extra = bins % shards;
    let start = shard * base + shard.min(extra);
    let len = base + usize::from(shard < extra);
    start..start + len
}

/// The shard owning bin `bin` under the [`shard_range`] partition.
///
/// # Panics
///
/// Panics if `shards == 0`, `shards > bins`, or `bin >= bins`.
pub fn shard_of(bins: usize, shards: usize, bin: usize) -> usize {
    assert!(shards > 0, "need at least one shard");
    assert!(
        shards <= bins,
        "cannot spread {bins} bins over {shards} shards"
    );
    assert!(bin < bins, "bin index {bin} out of range");
    let base = bins / shards;
    let extra = bins % shards;
    let boundary = extra * (base + 1);
    if bin < boundary {
        bin / (base + 1)
    } else {
        extra + (bin - boundary) / base
    }
}

/// Statistics of one shard's deletion stage, aggregated over its bins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardServeStats {
    /// Bins that attempted a deletion and found their buffer empty
    /// (offline bins make no attempt and are excluded, matching
    /// [`CappedProcess`](crate::process::CappedProcess)).
    pub failed_deletions: u64,
    /// Balls left in this shard's buffers after the deletion stage.
    pub buffered: u64,
    /// Maximum bin load in this shard after the deletion stage.
    pub max_load: u64,
}

/// A contiguous slice of a CAPPED system's bins, with their FIFO buffers
/// and fault state.
///
/// # Examples
///
/// ```
/// use iba_core::shard::BinShard;
/// use iba_core::{Ball, CappedConfig};
///
/// # fn main() -> Result<(), iba_sim::error::ConfigError> {
/// let config = CappedConfig::new(8, 1, 0.5)?;
/// // Shard 1 of 2 owns bins 4..8.
/// let mut shard = BinShard::new(&config, 4..8);
/// let mut rejected = Vec::new();
/// // Two requests for local bin 0 (global bin 4): c = 1 keeps only one.
/// let accepted = shard.accept(
///     &[(0, Ball::generated_in(1)), (0, Ball::generated_in(1))],
///     &mut rejected,
/// );
/// assert_eq!(accepted, 1);
/// assert_eq!(rejected.len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BinShard {
    first_bin: usize,
    store: BinStore,
    bin_count: usize,
    offline: Vec<bool>,
    /// Counting-sort scratch (request histogram / scatter cursor,
    /// acceptance quotas, and the fast path's packed per-bin registers),
    /// persisted across rounds so the steady state allocates nothing.
    counts: Vec<u32>,
    quotas: Vec<u32>,
    state: Vec<u32>,
    /// Acceptance kernel (see [`KernelMode`]): the arena kernel, or the
    /// scalar per-ball walk for differential tests.
    kernel: KernelMode,
}

impl BinShard {
    /// Creates the shard owning `range`, with per-bin capacities taken
    /// from `config` (heterogeneous profiles respected). Finite-capacity
    /// configurations store their bins in a flat [`crate::arena::BinArena`]
    /// and accept through the counting-sort kernel; an unbounded
    /// configuration keeps one `VecDeque` buffer per bin.
    ///
    /// # Panics
    ///
    /// Panics if `range` exceeds the configured bin count or is empty.
    pub fn new(config: &CappedConfig, range: Range<usize>) -> Self {
        assert!(
            range.end <= config.bins(),
            "shard range {range:?} exceeds n = {}",
            config.bins()
        );
        assert!(!range.is_empty(), "a shard must own at least one bin");
        let caps: Vec<Capacity> = range.clone().map(|i| config.capacity_of(i)).collect();
        let bin_count = caps.len();
        let store = BinStore::from_capacities(caps, false);
        let offline = vec![false; bin_count];
        BinShard {
            first_bin: range.start,
            store,
            bin_count,
            offline,
            counts: Vec::new(),
            quotas: Vec::new(),
            state: Vec::new(),
            kernel: KernelMode::default(),
        }
    }

    /// Rebuilds a shard from checkpointed state: per-bin **live**
    /// capacities (which fault injection may have diverged from the
    /// configured profile), FIFO bin contents (oldest first), and the
    /// offline mask. Storage selection mirrors [`BinShard::new`]: the
    /// layout is keyed on the *configured* capacities of the range, so a
    /// resumed shard behaves identically to one that lived through the
    /// original run.
    ///
    /// # Panics
    ///
    /// Panics if `range` is invalid for `config`, or if `caps`,
    /// `contents`, and `offline` do not all have the range's length.
    pub fn from_state(
        config: &CappedConfig,
        range: Range<usize>,
        caps: Vec<Capacity>,
        contents: Vec<Vec<Ball>>,
        offline: Vec<bool>,
    ) -> Self {
        assert!(
            range.end <= config.bins(),
            "shard range {range:?} exceeds n = {}",
            config.bins()
        );
        assert!(!range.is_empty(), "a shard must own at least one bin");
        let bin_count = range.len();
        assert_eq!(caps.len(), bin_count, "one live capacity per bin");
        assert_eq!(contents.len(), bin_count, "one content list per bin");
        assert_eq!(offline.len(), bin_count, "one offline flag per bin");
        let configured_unbounded = range
            .clone()
            .any(|i| config.capacity_of(i) == Capacity::Infinite);
        let store = if configured_unbounded {
            BinStore::Buffers(
                caps.into_iter()
                    .zip(contents)
                    .map(|(cap, balls)| crate::buffer::BinBuffer::restore(cap, balls))
                    .collect(),
            )
        } else {
            BinStore::Arena(crate::arena::BinArena::from_bins(caps, contents))
        };
        BinShard {
            first_bin: range.start,
            store,
            bin_count,
            offline,
            counts: Vec::new(),
            quotas: Vec::new(),
            state: Vec::new(),
            kernel: KernelMode::default(),
        }
    }

    /// Selects the acceptance kernel (builder form). `Scalar` keeps
    /// whatever storage the shard was built with and simply routes
    /// acceptance through the per-ball walk — the oracle the differential
    /// tests compare the arena kernel against.
    #[must_use]
    pub fn with_kernel(mut self, kernel: KernelMode) -> Self {
        self.kernel = kernel;
        self
    }

    /// The acceptance kernel this shard runs.
    pub fn kernel(&self) -> KernelMode {
        self.kernel
    }

    /// Global index of the first bin this shard owns.
    pub fn first_bin(&self) -> usize {
        self.first_bin
    }

    /// Number of bins this shard owns.
    pub fn len(&self) -> usize {
        self.bin_count
    }

    /// Whether the shard owns no bins (never true for a constructed shard).
    pub fn is_empty(&self) -> bool {
        self.bin_count == 0
    }

    /// Read access to the local bin `i` (0-based within the shard), as a
    /// storage-independent view.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bin(&self, i: usize) -> BinView<'_> {
        self.store.view(i)
    }

    /// Current loads of this shard's bins, in bin order.
    pub fn loads(&self) -> Vec<usize> {
        (0..self.bin_count).map(|i| self.store.len(i)).collect()
    }

    /// Total balls stored in this shard's buffers.
    pub fn buffered(&self) -> usize {
        self.store.buffered()
    }

    /// Takes local bin `i` offline (`true`) or back online (`false`):
    /// offline bins reject every request and stop serving; buffered balls
    /// freeze (crash-recovery semantics, no ball loss).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn set_offline(&mut self, i: usize, offline: bool) {
        self.offline[i] = offline;
    }

    /// Whether local bin `i` is offline.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn is_offline(&self, i: usize) -> bool {
        self.offline[i]
    }

    /// Changes local bin `i`'s live buffer capacity (fault injection).
    /// Balls above a lowered bound stay until served.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn set_capacity(&mut self, i: usize, capacity: Capacity) {
        assert!(i < self.bin_count, "local bin index {i} out of range");
        self.store.set_capacity(i, capacity);
    }

    /// Rebuilds a shard directly from extracted per-bin parts — the
    /// membership transfer path (shard splits spawn the upper half of a
    /// range as a new shard without a `CappedConfig` describing the
    /// resized topology). `base_capacity` is the *configured* capacity
    /// class and picks the storage layout like [`BinShard::new`] does:
    /// finite configurations get the flat arena even if faults degraded
    /// some live capacities to unbounded.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty.
    pub fn from_parts(
        first_bin: usize,
        base_capacity: Capacity,
        parts: Vec<(Capacity, Vec<Ball>, bool)>,
    ) -> Self {
        assert!(!parts.is_empty(), "a shard must own at least one bin");
        let bin_count = parts.len();
        let mut caps = Vec::with_capacity(bin_count);
        let mut contents = Vec::with_capacity(bin_count);
        let mut offline = Vec::with_capacity(bin_count);
        for (cap, balls, off) in parts {
            caps.push(cap);
            contents.push(balls);
            offline.push(off);
        }
        let store = if base_capacity == Capacity::Infinite {
            BinStore::Buffers(
                caps.into_iter()
                    .zip(contents)
                    .map(|(cap, balls)| crate::buffer::BinBuffer::restore(cap, balls))
                    .collect(),
            )
        } else {
            BinStore::Arena(crate::arena::BinArena::from_bins(caps, contents))
        };
        BinShard {
            first_bin,
            store,
            bin_count,
            offline,
            counts: Vec::new(),
            quotas: Vec::new(),
            state: Vec::new(),
            kernel: KernelMode::default(),
        }
    }

    /// Appends a bin to the shard (elastic membership growth, or a bin
    /// transferred in from a merged neighbor). A fresh bin enters empty
    /// and online — primed with its full capacity as acceptance quota for
    /// the next round.
    pub fn push_bin_with(&mut self, capacity: Capacity, contents: &[Ball], offline: bool) {
        self.store.push_bin_with(capacity, contents);
        self.offline.push(offline);
        self.bin_count += 1;
    }

    /// Removes the shard's **last** bin, returning its live capacity,
    /// buffered balls (FIFO order), and offline flag. Removed bins drain
    /// their rings back through the caller (the serve path re-pools the
    /// balls; a merge re-inserts them into the absorbing shard).
    ///
    /// # Panics
    ///
    /// Panics if the shard owns a single bin.
    pub fn pop_bin(&mut self) -> (Capacity, Vec<Ball>, bool) {
        assert!(self.bin_count > 1, "a shard must keep at least one bin");
        let (cap, balls) = self.store.pop_bin();
        let offline = self.offline.pop().expect("non-empty shard");
        self.bin_count -= 1;
        (cap, balls, offline)
    }

    /// Splits off the shard's upper bins `at..len` as extracted parts (in
    /// bin order), leaving this shard with `0..at`. The parts feed
    /// [`from_parts`](Self::from_parts) on the new shard — a split moves
    /// only the ownership of the upper half, never balls between rings.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= at < len` (both halves must be non-empty).
    pub fn split_off(&mut self, at: usize) -> Vec<(Capacity, Vec<Ball>, bool)> {
        assert!(
            at >= 1 && at < self.bin_count,
            "split point {at} must leave both halves non-empty (len {})",
            self.bin_count
        );
        let count = self.bin_count - at;
        let mut parts = Vec::with_capacity(count);
        for _ in 0..count {
            parts.push(self.pop_bin());
        }
        parts.reverse();
        parts
    }

    /// The acceptance stage for this shard: processes `requests` —
    /// `(local_bin, ball)` pairs that MUST be ordered oldest-first — and
    /// greedily accepts each ball into its requested bin while the bin is
    /// online and has room. Rejected balls are appended to `rejected` in
    /// request order (hence oldest-first). Returns the number accepted.
    ///
    /// Because acceptance at a bin depends only on that bin's state and
    /// the relative order of its own requests, running this per shard on
    /// an age-ordered routed stream is exactly Algorithm 1's acceptance
    /// rule (see [`Pool`](crate::pool::Pool) for the equivalence).
    pub fn accept(&mut self, requests: &[(u32, Ball)], rejected: &mut Vec<Ball>) -> u64 {
        let accepted = match &mut self.store {
            // Counting-sort kernel over the flat arena: bit-exactly the
            // scalar greedy walk (see `arena::fast_accept`), one sequential
            // write per accepted ball. The single-pass fast path bails out
            // only when a fault-raised capacity could overflow the ring;
            // the exact-histogram pass then sizes the growth. The
            // `u32::MAX` guard keeps the quota counters from overflowing.
            BinStore::Arena(arena)
                if self.kernel != KernelMode::Scalar && requests.len() <= u32::MAX as usize =>
            {
                let stream = || requests.iter().map(|&(local, ball)| (local as usize, ball));
                match fast_accept(
                    arena,
                    &self.offline,
                    &mut self.state,
                    &mut self.quotas,
                    requests.len(),
                    stream(),
                    rejected,
                    false,
                ) {
                    Some(accepted) => {
                        // The shard's accept and serve stages are separate
                        // calls with observable state in between, so the
                        // scatter's lengths are committed here rather than
                        // fused into `serve`.
                        match arena.uniform_cap() {
                            Some(c0) => {
                                commit_accepts_uniform(arena, &self.offline, &self.state, c0)
                            }
                            None => commit_accepts(arena, &self.state, &self.quotas),
                        }
                        accepted
                    }
                    None => counting_accept(
                        arena,
                        &self.offline,
                        &mut self.counts,
                        &mut self.quotas,
                        stream(),
                        rejected,
                    ),
                }
            }
            store => {
                let mut accepted = 0u64;
                for &(local, ball) in requests {
                    let local = local as usize;
                    if !self.offline[local] && store.try_accept(local, ball) {
                        accepted += 1;
                    } else {
                        rejected.push(ball);
                    }
                }
                accepted
            }
        };
        if let Some(p) = obs::probes() {
            p.shard_accepted_balls.add(accepted);
            p.shard_rejected_balls.add(requests.len() as u64 - accepted);
        }
        accepted
    }

    /// The deletion stage for this shard: every online non-empty bin
    /// serves the head of its FIFO queue. Served balls are appended to
    /// `served` and their waiting times (`round − label`) to `waits`, in
    /// bin order — concatenating shard outputs in shard order therefore
    /// reproduces [`CappedProcess`](crate::process::CappedProcess)'s
    /// global bin-order waiting-time vector.
    pub fn serve(
        &mut self,
        round: u64,
        served: &mut Vec<Ball>,
        waits: &mut Vec<u64>,
    ) -> ShardServeStats {
        self.serve_impl(round, served, waits, None)
    }

    /// [`serve`](Self::serve), additionally appending the **local** bin
    /// index of each served ball to `bins` (parallel to `served`/`waits`).
    /// The dispatch service uses this to report which bin served each
    /// ticket in its completion notifications.
    pub fn serve_with_bins(
        &mut self,
        round: u64,
        served: &mut Vec<Ball>,
        waits: &mut Vec<u64>,
        bins: &mut Vec<u32>,
    ) -> ShardServeStats {
        self.serve_impl(round, served, waits, Some(bins))
    }

    fn serve_impl(
        &mut self,
        round: u64,
        served: &mut Vec<Ball>,
        waits: &mut Vec<u64>,
        mut bins: Option<&mut Vec<u32>>,
    ) -> ShardServeStats {
        let mut stats = ShardServeStats::default();
        let served_before = served.len();
        match &mut self.store {
            BinStore::Arena(arena) => {
                for b in 0..self.bin_count {
                    if self.offline[b] {
                        let load = arena.len(b) as u64;
                        stats.buffered += load;
                        stats.max_load = stats.max_load.max(load);
                        continue;
                    }
                    match arena.serve(b) {
                        Some(ball) => {
                            waits.push(ball.age_at(round));
                            served.push(ball);
                            if let Some(bins) = bins.as_deref_mut() {
                                bins.push(b as u32);
                            }
                        }
                        None => stats.failed_deletions += 1,
                    }
                    let load = arena.len(b) as u64;
                    stats.buffered += load;
                    stats.max_load = stats.max_load.max(load);
                }
            }
            BinStore::Buffers(buffers) => {
                for (b, (bin, &offline)) in buffers.iter_mut().zip(&self.offline).enumerate() {
                    if offline {
                        stats.buffered += bin.len() as u64;
                        stats.max_load = stats.max_load.max(bin.len() as u64);
                        continue;
                    }
                    match bin.serve() {
                        Some(ball) => {
                            waits.push(ball.age_at(round));
                            served.push(ball);
                            if let Some(bins) = bins.as_deref_mut() {
                                bins.push(b as u32);
                            }
                        }
                        None => stats.failed_deletions += 1,
                    }
                    let load = bin.len() as u64;
                    stats.buffered += load;
                    stats.max_load = stats.max_load.max(load);
                }
            }
        }
        if let Some(p) = obs::probes() {
            p.shard_served_balls
                .add((served.len() - served_before) as u64);
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::CappedProcess;

    #[test]
    fn partition_covers_all_bins_without_overlap() {
        for (bins, shards) in [(8, 1), (8, 3), (8, 8), (17, 4), (1024, 7)] {
            let mut next = 0;
            for s in 0..shards {
                let r = shard_range(bins, shards, s);
                assert_eq!(r.start, next, "gap before shard {s}");
                assert!(!r.is_empty());
                for b in r.clone() {
                    assert_eq!(shard_of(bins, shards, b), s, "owner of bin {b}");
                }
                next = r.end;
            }
            assert_eq!(next, bins, "partition must cover 0..{bins}");
        }
    }

    #[test]
    fn partition_is_balanced() {
        let sizes: Vec<usize> = (0..5).map(|s| shard_range(17, 5, s).len()).collect();
        assert_eq!(sizes, vec![4, 4, 3, 3, 3]);
    }

    #[test]
    #[should_panic(expected = "cannot spread")]
    fn more_shards_than_bins_panics() {
        shard_range(2, 3, 0);
    }

    #[test]
    fn accept_is_greedy_oldest_first_per_bin() {
        let config = CappedConfig::new(4, 1, 0.5).unwrap();
        let mut shard = BinShard::new(&config, 0..4);
        let mut rejected = Vec::new();
        // Oldest-first stream: bin 0 gets labels 1 then 2 — only 1 fits.
        let accepted = shard.accept(
            &[
                (0, Ball::generated_in(1)),
                (0, Ball::generated_in(2)),
                (1, Ball::generated_in(2)),
            ],
            &mut rejected,
        );
        assert_eq!(accepted, 2);
        assert_eq!(rejected, vec![Ball::generated_in(2)]);
        assert_eq!(shard.bin(0).head(), Some(&Ball::generated_in(1)));
    }

    #[test]
    fn serve_reports_waits_in_bin_order() {
        let config = CappedConfig::new(4, 2, 0.5).unwrap();
        let mut shard = BinShard::new(&config, 0..3);
        let mut rejected = Vec::new();
        shard.accept(
            &[(0, Ball::generated_in(1)), (2, Ball::generated_in(3))],
            &mut rejected,
        );
        let mut served = Vec::new();
        let mut waits = Vec::new();
        let stats = shard.serve(4, &mut served, &mut waits);
        assert_eq!(served, vec![Ball::generated_in(1), Ball::generated_in(3)]);
        assert_eq!(waits, vec![3, 1]);
        assert_eq!(stats.failed_deletions, 1); // bin 1 was empty
        assert_eq!(stats.buffered, 0);
        assert_eq!(stats.max_load, 0);
    }

    #[test]
    fn serve_with_bins_labels_each_served_ball() {
        let config = CappedConfig::new(4, 2, 0.5).unwrap();
        let mut shard = BinShard::new(&config, 0..3);
        let mut rejected = Vec::new();
        shard.accept(
            &[(0, Ball::generated_in(1)), (2, Ball::generated_in(3))],
            &mut rejected,
        );
        let mut served = Vec::new();
        let mut waits = Vec::new();
        let mut bins = Vec::new();
        shard.serve_with_bins(4, &mut served, &mut waits, &mut bins);
        assert_eq!(bins, vec![0, 2]);
        assert_eq!(served.len(), bins.len());
        assert_eq!(waits.len(), bins.len());
    }

    #[test]
    fn offline_bins_freeze_and_skip_service() {
        let config = CappedConfig::new(2, 2, 0.5).unwrap();
        let mut shard = BinShard::new(&config, 0..2);
        let mut rejected = Vec::new();
        shard.accept(&[(0, Ball::generated_in(1))], &mut rejected);
        shard.set_offline(0, true);
        assert!(shard.is_offline(0));
        assert_eq!(
            shard.accept(&[(0, Ball::generated_in(2))], &mut rejected),
            0
        );
        let mut served = Vec::new();
        let mut waits = Vec::new();
        let stats = shard.serve(2, &mut served, &mut waits);
        assert!(served.is_empty());
        // Offline bin 0 makes no deletion attempt; empty bin 1 fails one.
        assert_eq!(stats.failed_deletions, 1);
        assert_eq!(stats.buffered, 1);
        assert_eq!(stats.max_load, 1);
        // Recovery: the frozen ball is served first.
        shard.set_offline(0, false);
        shard.serve(3, &mut served, &mut waits);
        assert_eq!(served, vec![Ball::generated_in(1)]);
    }

    #[test]
    fn degraded_capacity_rejects_until_drained() {
        let config = CappedConfig::new(1, 3, 0.0).unwrap();
        let mut shard = BinShard::new(&config, 0..1);
        let mut rejected = Vec::new();
        shard.accept(
            &[
                (0, Ball::generated_in(1)),
                (0, Ball::generated_in(1)),
                (0, Ball::generated_in(1)),
            ],
            &mut rejected,
        );
        shard.set_capacity(0, Capacity::finite(1).unwrap());
        assert_eq!(
            shard.accept(&[(0, Ball::generated_in(2))], &mut rejected),
            0
        );
        assert_eq!(shard.bin(0).len(), 3, "overflow balls stay");
    }

    #[test]
    fn heterogeneous_profile_is_respected_per_shard() {
        let config = CappedConfig::new(4, 2, 0.5)
            .unwrap()
            .with_capacity_profile(vec![1, 3, 1, 3])
            .unwrap();
        let shard = BinShard::new(&config, 2..4);
        assert_eq!(shard.first_bin(), 2);
        assert_eq!(shard.bin(0).capacity(), Capacity::finite(1).unwrap());
        assert_eq!(shard.bin(1).capacity(), Capacity::finite(3).unwrap());
    }

    #[test]
    fn from_state_reproduces_a_live_shard() {
        let config = CappedConfig::new(8, 2, 0.5).unwrap();
        let mut original = BinShard::new(&config, 2..6);
        let mut rejected = Vec::new();
        original.accept(
            &[
                (0, Ball::generated_in(1)),
                (0, Ball::generated_in(2)),
                (3, Ball::generated_in(2)),
            ],
            &mut rejected,
        );
        original.set_offline(1, true);
        original.set_capacity(2, Capacity::finite(1).unwrap());

        let caps: Vec<Capacity> = (0..original.len())
            .map(|i| original.bin(i).capacity())
            .collect();
        let contents: Vec<Vec<Ball>> = (0..original.len())
            .map(|i| original.bin(i).iter().copied().collect())
            .collect();
        let offline: Vec<bool> = (0..original.len())
            .map(|i| original.is_offline(i))
            .collect();
        let mut restored = BinShard::from_state(&config, 2..6, caps, contents, offline);

        assert_eq!(restored.first_bin(), original.first_bin());
        assert_eq!(restored.loads(), original.loads());
        assert_eq!(restored.bin(2).capacity(), Capacity::finite(1).unwrap());
        assert!(restored.is_offline(1));
        // Identical continuations: same accepts, same serves.
        let stream = [
            (0u32, Ball::generated_in(3)),
            (1, Ball::generated_in(3)),
            (2, Ball::generated_in(3)),
        ];
        let (mut r1, mut r2) = (Vec::new(), Vec::new());
        assert_eq!(
            original.accept(&stream, &mut r1),
            restored.accept(&stream, &mut r2)
        );
        assert_eq!(r1, r2);
        let (mut s1, mut w1, mut s2, mut w2) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let st1 = original.serve(3, &mut s1, &mut w1);
        let st2 = restored.serve(3, &mut s2, &mut w2);
        assert_eq!(s1, s2);
        assert_eq!(w1, w2);
        assert_eq!(st1, st2);
    }

    #[test]
    fn from_state_uses_buffers_for_unbounded_configs() {
        let config = CappedConfig::unbounded(4, 0.5).unwrap();
        let restored = BinShard::from_state(
            &config,
            0..4,
            vec![Capacity::Infinite; 4],
            vec![vec![Ball::generated_in(1)], vec![], vec![], vec![]],
            vec![false; 4],
        );
        assert_eq!(restored.buffered(), 1);
        assert_eq!(restored.bin(0).head(), Some(&Ball::generated_in(1)));
    }

    /// Sequential composition of shards reproduces `CappedProcess`
    /// bit-exactly on a shared pre-drawn choice stream — the invariant the
    /// `iba-serve` differential test extends across threads.
    #[test]
    fn shard_composition_matches_capped_process() {
        let n = 12;
        let shards = 3;
        let config = CappedConfig::new(n, 2, 0.75).unwrap();
        let mut reference = CappedProcess::new(config.clone());
        let mut parts: Vec<BinShard> = (0..shards)
            .map(|s| BinShard::new(&config, shard_range(n, shards, s)))
            .collect();
        let mut pool: Vec<Ball> = Vec::new();
        let mut rng = iba_sim::SimRng::seed_from(99);
        for round in 1..=200u64 {
            // Shared choice stream, one uniform bin per thrown ball.
            let batch = 9u64; // λn = 0.75 · 12
            pool.extend(std::iter::repeat_n(
                Ball::generated_in(round),
                batch as usize,
            ));
            let choices: Vec<usize> = pool.iter().map(|_| rng.uniform_bin(n)).collect();
            let report = reference.step_with_choices(&choices);

            // Route the same stream through the shards.
            let mut routed: Vec<Vec<(u32, Ball)>> = vec![Vec::new(); shards];
            for (&ball, &bin) in pool.iter().zip(&choices) {
                let s = shard_of(n, shards, bin);
                let local = (bin - parts[s].first_bin()) as u32;
                routed[s].push((local, ball));
            }
            let mut rejected: Vec<Vec<Ball>> = vec![Vec::new(); shards];
            let mut waits = Vec::new();
            let mut served = Vec::new();
            let mut accepted = 0;
            for (s, part) in parts.iter_mut().enumerate() {
                accepted += part.accept(&routed[s], &mut rejected[s]);
                part.serve(round, &mut served, &mut waits);
            }
            // Merge per-shard rejects oldest-first back into the pool.
            let mut merged: Vec<Ball> = rejected.into_iter().flatten().collect();
            merged.sort();
            pool = merged;

            assert_eq!(report.accepted, accepted, "round {round}");
            assert_eq!(report.pool_size as usize, pool.len(), "round {round}");
            assert_eq!(report.waiting_times, waits, "round {round}");
            let shard_loads: Vec<usize> = parts.iter().flat_map(|p| p.loads()).collect();
            assert_eq!(reference.loads(), shard_loads, "round {round}");
            let pool_labels: Vec<u64> = pool.iter().map(Ball::label).collect();
            let ref_labels: Vec<u64> = reference.pool().iter().map(Ball::label).collect();
            assert_eq!(pool_labels, ref_labels, "round {round}");
        }
    }

    #[test]
    fn push_and_pop_bins_keep_shard_state_consistent() {
        let config = CappedConfig::new(8, 2, 0.5).unwrap();
        let mut shard = BinShard::new(&config, 0..3);
        let mut rejected = Vec::new();
        shard.accept(
            &[(0, Ball::generated_in(1)), (2, Ball::generated_in(2))],
            &mut rejected,
        );

        // Growth: the new bin is empty, online, and accepts immediately.
        shard.push_bin_with(Capacity::finite(2).unwrap(), &[], false);
        assert_eq!(shard.len(), 4);
        assert!(!shard.is_offline(3));
        assert_eq!(
            shard.accept(&[(3, Ball::generated_in(3))], &mut rejected),
            1
        );
        assert_eq!(shard.bin(3).len(), 1);

        // Shrink: the popped bin drains its balls; survivors keep theirs.
        let (cap, balls, offline) = shard.pop_bin();
        assert_eq!(cap, Capacity::finite(2).unwrap());
        assert_eq!(balls, vec![Ball::generated_in(3)]);
        assert!(!offline);
        assert_eq!(shard.len(), 3);
        assert_eq!(shard.buffered(), 2);
        assert!(rejected.is_empty());
    }

    #[test]
    fn split_off_and_from_parts_move_ownership_not_balls() {
        let config = CappedConfig::new(8, 2, 0.5).unwrap();
        let mut shard = BinShard::new(&config, 0..6);
        let mut rejected = Vec::new();
        shard.accept(
            &[
                (1, Ball::generated_in(1)),
                (4, Ball::generated_in(1)),
                (4, Ball::generated_in(2)),
                (5, Ball::generated_in(3)),
            ],
            &mut rejected,
        );
        shard.set_offline(5, true);

        let parts = shard.split_off(3);
        assert_eq!(shard.len(), 3);
        assert_eq!(parts.len(), 3);
        let upper = BinShard::from_parts(3, config.capacity(), parts);
        assert_eq!(upper.first_bin(), 3);
        assert_eq!(upper.len(), 3);
        assert_eq!(upper.bin(1).len(), 2, "global bin 4 kept both balls");
        assert_eq!(upper.bin(1).head(), Some(&Ball::generated_in(1)));
        assert!(upper.is_offline(2), "offline mask travels with the bin");
        assert_eq!(shard.buffered() + upper.buffered(), 4, "no ball lost");

        // The reunited halves serve exactly like an unsplit shard.
        let mut merged = shard.clone();
        for i in 0..upper.len() {
            let caps = upper.bin(i).capacity();
            let balls: Vec<Ball> = upper.bin(i).iter().copied().collect();
            merged.push_bin_with(caps, &balls, upper.is_offline(i));
        }
        let mut reference = BinShard::new(&config, 0..6);
        reference.accept(
            &[
                (1, Ball::generated_in(1)),
                (4, Ball::generated_in(1)),
                (4, Ball::generated_in(2)),
                (5, Ball::generated_in(3)),
            ],
            &mut rejected,
        );
        reference.set_offline(5, true);
        let (mut s1, mut w1, mut s2, mut w2) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let st1 = merged.serve(4, &mut s1, &mut w1);
        let st2 = reference.serve(4, &mut s2, &mut w2);
        assert_eq!(s1, s2);
        assert_eq!(w1, w2);
        assert_eq!(st1, st2);
    }

    #[test]
    #[should_panic(expected = "both halves non-empty")]
    fn split_at_zero_panics() {
        let config = CappedConfig::new(4, 2, 0.5).unwrap();
        let mut shard = BinShard::new(&config, 0..4);
        shard.split_off(0);
    }
}
