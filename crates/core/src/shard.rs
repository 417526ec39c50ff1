//! Bin state and the bin-local round of Algorithm 1.
//!
//! A [`BinShard`] owns a contiguous range of bins — their FIFO buffers,
//! fault masks, and the round kernel's scratch registers — and executes
//! the bin-local half of one CAPPED(c, λ) round
//! ([`run_round`](BinShard::run_round)): every bin accepts the oldest
//! `min{c − ℓ, ν}` of its requests, then serves the head of its queue.
//! It is the only owner of bin state in the repo:
//! [`CappedProcess`](crate::process::CappedProcess) is a pool plus one
//! shard over `0..n`, and the `iba-serve` dispatch service runs `S`
//! shards over a partition of `0..n`, in parallel. Composing `S` shards
//! therefore reproduces the process bit-exactly by construction:
//!
//! - acceptance at a bin depends only on that bin's load and the age order
//!   of the requests *to that bin*, so routing an age-ordered request
//!   stream to shards preserves Algorithm 1's "accept the oldest
//!   min{c − ℓ, ν}" rule at every bin;
//! - the deletion stage is bin-local by definition, and every shard runs
//!   the same round body.
//!
//! The `iba-serve` differential tests anchor the composition end to end
//! (sharded service vs. bare process, report by report and checkpoint
//! byte by byte).

use std::ops::Range;

use crate::arena::{counting_accept, fast_accept, BinArena, BinView};
use crate::ball::Ball;
use crate::config::{Capacity, CappedConfig};
use crate::obs;
use crate::pool::{expand, push_run, Run};

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

/// One bin's extracted state: live capacity, FIFO contents (oldest
/// first), and offline flag — the unit of checkpoints and membership
/// transfers.
pub type BinPart = (Capacity, Vec<Ball>, bool);

/// Statistics of one shard round, aggregated over the shard's bins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardRoundStats {
    /// Requests accepted into this shard's bins.
    pub accepted: u64,
    /// Bins that attempted a deletion and found their buffer empty
    /// (offline bins make no attempt and are excluded).
    pub failed_deletions: u64,
    /// Balls left in this shard's buffers after the deletion stage.
    pub buffered: u64,
    /// Maximum bin load in this shard after the deletion stage.
    pub max_load: u64,
}

impl ShardRoundStats {
    #[inline]
    fn note_load(&mut self, load: u64) {
        self.buffered += load;
        self.max_load = self.max_load.max(load);
    }
}

/// A contiguous slice of a CAPPED system's bins, with their FIFO buffers
/// and fault state.
///
/// # Examples
///
/// ```
/// use iba_core::pool::Run;
/// use iba_core::shard::BinShard;
/// use iba_core::{Ball, CappedConfig};
///
/// # fn main() -> Result<(), iba_sim::error::ConfigError> {
/// let config = CappedConfig::new(8, 1, 0.5)?;
/// // Shard 1 of 2 owns bins 4..8.
/// let mut shard = BinShard::new(&config, 4..8);
/// // One run of two balls labeled 1, both asking for local bin 0
/// // (global bin 4): c = 1 keeps only one, which the same round serves.
/// let runs = [Run::new(1, 2)];
/// let mut rejected = Vec::new();
/// let mut served = Vec::new();
/// let stats = shard.run_round(&[0, 0], &runs, &mut rejected, |bin, ball| {
///     served.push((bin, ball))
/// });
/// assert_eq!(stats.accepted, 1);
/// assert_eq!(rejected, vec![Run::new(1, 1)]);
/// assert_eq!(served, vec![(0, Ball::generated_in(1))]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BinShard {
    first_bin: usize,
    arena: BinArena,
    /// Fault-injection mask: an offline bin rejects every request and
    /// stops serving; its buffered balls are frozen until it comes back.
    offline: Vec<bool>,
    /// Counting-sort scratch (request histogram / scatter cursor,
    /// acceptance quotas, and the fast path's packed per-bin registers),
    /// persisted across rounds so the steady state allocates nothing.
    counts: Vec<u32>,
    quotas: Vec<u32>,
    state: Vec<u32>,
    /// Set by a fast-path acceptance: its scatter leaves the ring lengths
    /// uncommitted, and the deletion sweep folds the per-bin accepted
    /// counts in while it serves (one meta pass, not two).
    commit_pending: bool,
    /// Whether `state` already holds valid acceptance registers for the
    /// *next* round (written by the previous round's deletion sweep under
    /// a uniform capacity profile). Cleared by every mutation that can
    /// change a bin's room or ring offset behind the kernel's back.
    primed: bool,
}

impl BinShard {
    /// Creates the shard owning `range`, with per-bin capacities taken
    /// from `config` (heterogeneous profiles respected).
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
        let caps = range.clone().map(|i| config.capacity_of(i)).collect();
        let offline = vec![false; range.len()];
        Self::assemble(range.start, caps, Vec::new(), offline)
    }

    /// Rebuilds a shard from extracted per-bin parts (see [`BinPart`]) —
    /// the checkpoint-restore and membership-transfer path. Bins may
    /// legally hold more balls than their live capacity (capacity
    /// degradation).
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty.
    pub fn from_parts(first_bin: usize, parts: Vec<BinPart>) -> Self {
        assert!(!parts.is_empty(), "a shard must own at least one bin");
        let mut caps = Vec::with_capacity(parts.len());
        let mut contents = Vec::with_capacity(parts.len());
        let mut offline = Vec::with_capacity(parts.len());
        for (cap, balls, off) in parts {
            caps.push(cap);
            contents.push(balls);
            offline.push(off);
        }
        Self::assemble(first_bin, caps, contents, offline)
    }

    /// The shared constructor; `contents` may be shorter than `caps`
    /// (missing bins start empty).
    fn assemble(
        first_bin: usize,
        caps: Vec<Capacity>,
        contents: Vec<Vec<Ball>>,
        offline: Vec<bool>,
    ) -> Self {
        BinShard {
            first_bin,
            arena: BinArena::from_bins(caps, contents),
            offline,
            counts: Vec::new(),
            quotas: Vec::new(),
            state: Vec::new(),
            commit_pending: false,
            primed: false,
        }
    }

    /// Every bin's state as [`BinPart`]s, in bin order — the inverse of
    /// [`from_parts`](Self::from_parts).
    pub fn to_parts(&self) -> Vec<BinPart> {
        (0..self.len())
            .map(|i| {
                let bin = self.bin(i);
                (
                    bin.capacity(),
                    bin.iter().copied().collect(),
                    self.offline[i],
                )
            })
            .collect()
    }

    /// Global index of the first bin this shard owns.
    pub fn first_bin(&self) -> usize {
        self.first_bin
    }

    /// Number of bins this shard owns.
    pub fn len(&self) -> usize {
        self.offline.len()
    }

    /// Whether the shard owns no bins (never true for a constructed shard).
    pub fn is_empty(&self) -> bool {
        self.offline.is_empty()
    }

    /// Read access to the local bin `i` (0-based within the shard).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bin(&self, i: usize) -> BinView<'_> {
        self.arena.view(i)
    }

    /// Current load of local bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn load(&self, i: usize) -> usize {
        self.arena.len(i)
    }

    /// Current loads of this shard's bins, in bin order.
    pub fn loads(&self) -> Vec<usize> {
        (0..self.len()).map(|i| self.arena.len(i)).collect()
    }

    /// Total balls stored in this shard's buffers.
    pub fn buffered(&self) -> usize {
        self.arena.buffered()
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
        self.primed = false;
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
        assert!(i < self.len(), "local bin index {i} out of range");
        self.arena.set_capacity(i, capacity);
        self.primed = false;
    }

    /// Appends a bin to the shard (elastic membership growth, or a bin
    /// transferred in from a merged neighbor).
    pub fn push_bin_with(&mut self, capacity: Capacity, contents: &[Ball], offline: bool) {
        self.arena.push_bin_with(capacity, contents);
        self.offline.push(offline);
        self.primed = false;
    }

    /// Removes the shard's **last** bin, returning its state. Removed bins
    /// drain their rings back through the caller (the serve path re-pools
    /// the balls; a merge re-inserts them into the absorbing shard).
    ///
    /// # Panics
    ///
    /// Panics if the shard owns a single bin.
    pub fn pop_bin(&mut self) -> BinPart {
        assert!(self.len() > 1, "a shard must keep at least one bin");
        let (cap, balls) = self.arena.pop_bin();
        let offline = self.offline.pop().expect("non-empty shard");
        self.primed = false;
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
    pub fn split_off(&mut self, at: usize) -> Vec<BinPart> {
        assert!(
            at >= 1 && at < self.len(),
            "split point {at} must leave both halves non-empty (len {})",
            self.len()
        );
        let mut parts: Vec<BinPart> = (at..self.len()).map(|_| self.pop_bin()).collect();
        parts.reverse();
        parts
    }

    /// One bin-local round of Algorithm 1 on this shard.
    ///
    /// The requests are the label `runs`, oldest first, plus one local bin
    /// choice per ball: `choices[i]` is the bin the `i`-th ball of the runs
    /// asks for. Every bin accepts the oldest `min{c − ℓ, ν}` of its
    /// requests while online; the rejected balls are appended to
    /// `rejected` as runs, oldest first. Then every online bin serves the
    /// head of its FIFO queue, handing `(local_bin, ball)` to `served` in
    /// bin order — concatenating shard outputs in shard order therefore
    /// reproduces [`CappedProcess`](crate::process::CappedProcess)'s
    /// global bin-order waiting-time vector.
    ///
    /// # Panics
    ///
    /// Panics unless `runs` holds exactly `choices.len()` balls.
    pub fn run_round<F>(
        &mut self,
        choices: &[u32],
        runs: &[Run],
        rejected: &mut Vec<Run>,
        served: F,
    ) -> ShardRoundStats
    where
        F: FnMut(usize, Ball),
    {
        let thrown = choices.len() as u64;
        let accepted = self.accept_stream(choices, runs, rejected);
        if let Some(p) = obs::probes() {
            p.accepted_balls.add(accepted);
            p.rejected_balls.add(thrown - accepted);
        }
        ShardRoundStats {
            accepted,
            ..self.serve_sweep(served)
        }
    }

    /// The acceptance half of [`run_round`](Self::run_round); returns the
    /// accepted count. Over the flat arena this is the counting-sort
    /// kernel — the single-pass [`fast_accept`] over the runs, or
    /// [`counting_accept`] when a fault-raised capacity could overflow a
    /// ring — bit-exactly the per-ball greedy walk of
    /// [`try_accept`](Self::try_accept), which serves only rounds past
    /// `u32::MAX` requests, where the quota counters would overflow.
    ///
    /// Must be followed by [`serve_sweep`](Self::serve_sweep) before any
    /// other access: a fast-path acceptance leaves its commit to it.
    ///
    /// # Panics
    ///
    /// Panics unless `runs` holds exactly `choices.len()` balls.
    pub(crate) fn accept_stream(
        &mut self,
        choices: &[u32],
        runs: &[Run],
        rejected: &mut Vec<Run>,
    ) -> u64 {
        assert_eq!(
            runs.iter().map(|run| run.count).sum::<u64>(),
            choices.len() as u64,
            "need exactly one choice per ball"
        );
        let primed = std::mem::take(&mut self.primed);
        if choices.len() <= u32::MAX as usize {
            let fast = fast_accept(
                &mut self.arena,
                &self.offline,
                &mut self.state,
                &mut self.quotas,
                choices,
                runs,
                rejected,
                primed,
            );
            if let Some(accepted) = fast {
                self.commit_pending = true;
                return accepted;
            }
            return counting_accept(
                &mut self.arena,
                &self.offline,
                &mut self.counts,
                &mut self.quotas,
                choices,
                runs,
                rejected,
            );
        }
        let mut accepted = 0u64;
        for (&bin, ball) in choices.iter().zip(expand(runs)) {
            if self.try_accept(bin as usize, ball) {
                accepted += 1;
            } else {
                push_run(rejected, ball.label(), 1);
            }
        }
        accepted
    }

    /// Accepts `ball` into local bin `i` if the bin is online and has
    /// room — one step of the per-ball greedy walk. A caller that drives
    /// the walk itself (an experiment whose choices or priorities depend
    /// on loads evolving *during* the request stream) finishes the round
    /// with [`serve_sweep`](Self::serve_sweep).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn try_accept(&mut self, i: usize, ball: Ball) -> bool {
        self.primed = false;
        !self.offline[i] && self.arena.try_accept(i, ball)
    }

    /// The deletion half of [`run_round`](Self::run_round): every online
    /// bin serves the head of its queue into `served`, in bin order. After
    /// a fast-path acceptance the same sweep first folds each bin's
    /// accepted count into its ring length (one meta read-modify-write per
    /// bin), and under a uniform capacity profile it also writes each
    /// bin's next-round acceptance register `(room << 16) | tail`
    /// ("priming"), so the next fast-path acceptance skips its init sweep.
    /// Returns the round's deletion statistics (`accepted` is left 0).
    pub fn serve_sweep<F: FnMut(usize, Ball)>(&mut self, mut served: F) -> ShardRoundStats {
        let mut stats = ShardRoundStats::default();
        let pending = std::mem::take(&mut self.commit_pending);
        let arena = &mut self.arena;
        match arena.uniform_cap() {
            Some(c0) if pending => {
                // The accepted count is recovered from the register's
                // remaining room alone (no quota array).
                debug_assert_eq!(self.state.len(), self.offline.len());
                for (b, s) in self.state.iter_mut().enumerate() {
                    if self.offline[b] {
                        // A crashed bin neither serves nor counts as a
                        // failed deletion *attempt* — it makes none.
                        // Its register had zero room, so there is
                        // nothing to commit; re-arm it with zero room.
                        debug_assert_eq!(*s >> 16, 0);
                        let (len, tail) = arena.len_tail(b);
                        *s = tail;
                        stats.note_load(u64::from(len));
                        continue;
                    }
                    let (ball, len, tail) = arena.commit_serve_uniform(b, c0, *s >> 16);
                    match ball {
                        Some(ball) => served(b, ball),
                        None => stats.failed_deletions += 1,
                    }
                    // `saturating_sub`: an overfull bin (a
                    // degraded-checkpoint restore can leave len > c₀
                    // under a uniform profile) must re-arm with zero
                    // room, not an underflowed quota.
                    *s = (c0.saturating_sub(len) << 16) | tail;
                    stats.note_load(u64::from(len));
                }
                self.primed = true;
            }
            _ => {
                for b in 0..self.offline.len() {
                    // Non-uniform fast path: the accepted count is the
                    // quota minus the register's remaining room.
                    let taken = if pending {
                        (self.quotas[b] - (self.state[b] >> 16)) as usize
                    } else {
                        0
                    };
                    if self.offline[b] {
                        debug_assert_eq!(taken, 0, "offline bins accept nothing");
                        stats.note_load(arena.len(b) as u64);
                        continue;
                    }
                    match arena.commit_serve(b, taken) {
                        Some(ball) => served(b, ball),
                        None => stats.failed_deletions += 1,
                    }
                    stats.note_load(arena.len(b) as u64);
                }
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::CappedProcess;

    /// Splits an age-ordered `(local_bin, ball)` stream into the round's
    /// requests: one bin choice per ball plus the balls' label runs.
    fn split(stream: &[(usize, Ball)]) -> (Vec<u32>, Vec<Run>) {
        let mut runs = Vec::new();
        for &(_, ball) in stream {
            push_run(&mut runs, ball.label(), 1);
        }
        (stream.iter().map(|&(b, _)| b as u32).collect(), runs)
    }

    /// Runs one fused round at `round`, returning the stats, the rejected
    /// balls, and the served `(local_bin, wait)` pairs in bin order.
    fn step(
        shard: &mut BinShard,
        round: u64,
        requests: &[(usize, Ball)],
    ) -> (ShardRoundStats, Vec<Ball>, Vec<(usize, u64)>) {
        let (choices, runs) = split(requests);
        let mut rejected = Vec::new();
        let mut served = Vec::new();
        let stats = shard.run_round(&choices, &runs, &mut rejected, |b, ball| {
            served.push((b, ball.age_at(round)))
        });
        assert!(crate::pool::is_canonical(&rejected));
        (stats, expand(&rejected).collect(), served)
    }

    fn ball(label: u64) -> Ball {
        Ball::generated_in(label)
    }

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
        // Oldest-first stream: bin 0 gets labels 1 then 2 — only 1 fits,
        // and it is the one bin 0 serves.
        let (stats, rejected, served) =
            step(&mut shard, 2, &[(0, ball(1)), (0, ball(2)), (1, ball(2))]);
        assert_eq!(stats.accepted, 2);
        assert_eq!(rejected, vec![ball(2)]);
        assert_eq!(served, vec![(0, 1), (1, 0)]);
    }

    #[test]
    fn serve_reports_waits_in_bin_order() {
        let config = CappedConfig::new(4, 2, 0.5).unwrap();
        let mut shard = BinShard::new(&config, 0..3);
        let (stats, _, served) = step(&mut shard, 4, &[(0, ball(1)), (2, ball(3))]);
        assert_eq!(served, vec![(0, 3), (2, 1)]);
        assert_eq!(stats.failed_deletions, 1); // bin 1 was empty
        assert_eq!(stats.buffered, 0);
        assert_eq!(stats.max_load, 0);
    }

    /// Runs one round on `fast` through `fast_accept` (asserted to be the
    /// path taken) and `serve_sweep`, and the same round on `walk` (the
    /// per-ball `try_accept` walk, then `serve_sweep`): the rejects in
    /// stream order, the served balls and every bin's FIFO contents must
    /// agree.
    fn assert_fast_round_matches_walk(
        fast: &mut BinShard,
        walk: &mut BinShard,
        stream: &[(usize, Ball)],
        what: &str,
    ) {
        let (mut fast_rejected, mut fast_served) = (Vec::new(), Vec::new());
        let (choices, runs) = split(stream);
        fast.accept_stream(&choices, &runs, &mut fast_rejected);
        assert!(
            fast.commit_pending,
            "{what}: the round must take fast_accept"
        );
        fast.serve_sweep(|b, ball| fast_served.push((b, ball)));
        let (mut walk_rejected, mut walk_served) = (Vec::new(), Vec::new());
        for &(b, ball) in stream {
            if !walk.try_accept(b, ball) {
                walk_rejected.push(ball);
            }
        }
        walk.serve_sweep(|b, ball| walk_served.push((b, ball)));
        let fast_rejected: Vec<Ball> = expand(&fast_rejected).collect();
        assert_eq!(fast_rejected, walk_rejected, "{what}: rejects");
        assert_eq!(fast_served, walk_served, "{what}: served balls");
        assert_eq!(fast.to_parts(), walk.to_parts(), "{what}: bin contents");
    }

    /// Two shards over the same parts: one for the kernel, one for the
    /// per-ball walk.
    fn kernel_pair(parts: Vec<BinPart>) -> (BinShard, BinShard) {
        (
            BinShard::from_parts(0, parts.clone()),
            BinShard::from_parts(0, parts),
        )
    }

    /// Every throw at the bins of `bins`, twice each, interleaved, with
    /// distinct labels from `first_label` on — so a reject written over a
    /// stored ball would show up as a wrong label.
    fn hazard_stream(bins: usize, first_label: u64) -> Vec<(usize, Ball)> {
        (0..2 * bins)
            .map(|i| (i % bins, ball(first_label + i as u64)))
            .collect()
    }

    #[test]
    fn branchless_scatter_never_writes_a_reject_into_a_full_ring() {
        // c = 2 gives stride 2, so a full bin's tail slot is its head slot:
        // a reject written there would replace the ball served next.
        let cap = Capacity::finite(2).unwrap();
        let (mut fast, mut walk) = kernel_pair(vec![
            (cap, vec![ball(1), ball(2)], false), // wraps to head 1 below
            (cap, Vec::new(), false),             // fills at head 0 below
            (cap, vec![ball(3)], true),           // offline
            (cap, Vec::new(), false),             // open
            (cap, vec![ball(4)], false),          // one slot of room
        ]);
        // A throw-free round serves one ball per bin; the per-ball walk
        // then fills bin 0 from head 1 (wrapped) and bin 1 from head 0.
        assert_fast_round_matches_walk(&mut fast, &mut walk, &[], "setup");
        for shard in [&mut fast, &mut walk] {
            for (b, label) in [(0, 5), (1, 6), (1, 7)] {
                assert!(shard.try_accept(b, ball(label)));
            }
            assert_eq!(shard.bin(0).len(), 2);
            assert_eq!(shard.bin(1).len(), 2);
        }
        for round in 0..3 {
            let stream = hazard_stream(5, 100 + 10 * round);
            assert_fast_round_matches_walk(
                &mut fast,
                &mut walk,
                &stream,
                &format!("full rings, round {round}"),
            );
        }
    }

    #[test]
    fn branchless_scatter_keeps_an_overfull_uniform_bin_intact() {
        // A degraded checkpoint restored under a uniform c = 2: bin 0
        // holds four balls in a stride-4 ring (full, len == stride), bin 1
        // three. Both have zero room and must reject every throw.
        let cap = Capacity::finite(2).unwrap();
        let (mut fast, mut walk) = kernel_pair(vec![
            (cap, (1..=4).map(ball).collect(), false),
            (cap, (5..=7).map(ball).collect(), false),
            (cap, vec![ball(8)], false),
            (cap, Vec::new(), false),
        ]);
        for round in 0..4 {
            let stream = hazard_stream(4, 100 + 10 * round);
            assert_fast_round_matches_walk(
                &mut fast,
                &mut walk,
                &stream,
                &format!("overfull bins, round {round}"),
            );
        }
    }

    #[test]
    fn served_sink_receives_each_balls_local_bin() {
        let config = CappedConfig::new(8, 2, 0.5).unwrap();
        // Shard 4..7: local bins are 0-based within the shard.
        let mut shard = BinShard::new(&config, 4..7);
        let mut served = Vec::new();
        shard.run_round(
            &[0, 2],
            &[Run::new(1, 1), Run::new(3, 1)],
            &mut Vec::new(),
            |b, ball| served.push((b, ball)),
        );
        assert_eq!(served, vec![(0, ball(1)), (2, ball(3))]);
    }

    #[test]
    fn offline_bins_freeze_and_skip_service() {
        let config = CappedConfig::new(2, 2, 0.5).unwrap();
        let mut shard = BinShard::new(&config, 0..2);
        // Bin 0 accepts two balls and serves one: one ball stays.
        step(&mut shard, 1, &[(0, ball(1)), (0, ball(1))]);
        shard.set_offline(0, true);
        assert!(shard.is_offline(0));
        let (stats, rejected, served) = step(&mut shard, 2, &[(0, ball(2))]);
        assert_eq!(stats.accepted, 0);
        assert_eq!(rejected, vec![ball(2)]);
        assert!(served.is_empty());
        // Offline bin 0 makes no deletion attempt; empty bin 1 fails one.
        assert_eq!(stats.failed_deletions, 1);
        assert_eq!(stats.buffered, 1);
        assert_eq!(stats.max_load, 1);
        // Recovery: the frozen ball is served first.
        shard.set_offline(0, false);
        let (_, _, served) = step(&mut shard, 3, &[]);
        assert_eq!(served, vec![(0, 2)]);
    }

    #[test]
    fn degraded_capacity_rejects_until_drained() {
        let config = CappedConfig::new(1, 3, 0.0).unwrap();
        let mut shard = BinShard::new(&config, 0..1);
        step(&mut shard, 1, &[(0, ball(1)), (0, ball(1)), (0, ball(1))]);
        assert_eq!(shard.bin(0).len(), 2);
        shard.set_capacity(0, Capacity::finite(1).unwrap());
        assert_eq!(shard.bin(0).len(), 2, "overflow balls stay");
        let (stats, _, served) = step(&mut shard, 2, &[(0, ball(2))]);
        assert_eq!(stats.accepted, 0);
        assert_eq!(served, vec![(0, 1)]);
        assert_eq!(shard.bin(0).len(), 1);
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
    fn from_parts_reproduces_a_live_shard() {
        let config = CappedConfig::new(8, 2, 0.5).unwrap();
        let mut original = BinShard::new(&config, 2..6);
        step(
            &mut original,
            2,
            &[(0, ball(1)), (0, ball(2)), (3, ball(2)), (3, ball(2))],
        );
        original.set_offline(1, true);
        original.set_capacity(2, Capacity::finite(1).unwrap());

        let mut restored = BinShard::from_parts(2, original.to_parts());
        assert_eq!(restored.first_bin(), original.first_bin());
        assert_eq!(restored.loads(), original.loads());
        assert_eq!(restored.bin(2).capacity(), Capacity::finite(1).unwrap());
        assert!(restored.is_offline(1));
        // Identical continuations: same accepts, same serves.
        let stream = [(0, ball(3)), (1, ball(3)), (2, ball(3)), (3, ball(3))];
        for round in 3..6 {
            assert_eq!(
                step(&mut original, round, &stream),
                step(&mut restored, round, &stream),
                "round {round}"
            );
        }
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
            pool.extend(std::iter::repeat_n(ball(round), batch as usize));
            let choices: Vec<usize> = pool.iter().map(|_| rng.uniform_bin(n)).collect();
            let report = reference.step_with_choices(&choices);

            // Route the same stream through the shards.
            let mut routed: Vec<Vec<(usize, Ball)>> = vec![Vec::new(); shards];
            for (&ball, &bin) in pool.iter().zip(&choices) {
                let s = shard_of(n, shards, bin);
                routed[s].push((bin - parts[s].first_bin(), ball));
            }
            let mut merged = Vec::new();
            let mut waits = Vec::new();
            let mut accepted = 0;
            for (s, part) in parts.iter_mut().enumerate() {
                let (stats, rejected, served) = step(part, round, &routed[s]);
                accepted += stats.accepted;
                merged.extend(rejected);
                waits.extend(served.into_iter().map(|(_, wait)| wait));
            }
            // Merge per-shard rejects oldest-first back into the pool.
            merged.sort();
            pool = merged;

            assert_eq!(report.accepted, accepted, "round {round}");
            assert_eq!(report.pool_size as usize, pool.len(), "round {round}");
            assert_eq!(report.waiting_times, waits, "round {round}");
            let shard_loads: Vec<usize> = parts.iter().flat_map(|p| p.loads()).collect();
            assert_eq!(reference.loads(), shard_loads, "round {round}");
            let pool_labels: Vec<u64> = pool.iter().map(Ball::label).collect();
            let ref_labels: Vec<u64> = reference.pool().iter().map(|b| b.label()).collect();
            assert_eq!(pool_labels, ref_labels, "round {round}");
        }
    }

    #[test]
    fn push_and_pop_bins_keep_shard_state_consistent() {
        let config = CappedConfig::new(8, 2, 0.5).unwrap();
        let mut shard = BinShard::new(&config, 0..3);
        step(
            &mut shard,
            1,
            &[(0, ball(1)), (0, ball(1)), (2, ball(1)), (2, ball(1))],
        );
        assert_eq!(shard.buffered(), 2);

        // Growth: the new bin is empty, online, and accepts immediately.
        shard.push_bin_with(Capacity::finite(2).unwrap(), &[], false);
        assert_eq!(shard.len(), 4);
        assert!(!shard.is_offline(3));
        let (stats, _, _) = step(&mut shard, 2, &[(3, ball(2)), (3, ball(2))]);
        assert_eq!(stats.accepted, 2);
        assert_eq!(shard.bin(3).len(), 1);

        // Shrink: the popped bin drains its balls; survivors keep theirs.
        let (cap, balls, offline) = shard.pop_bin();
        assert_eq!(cap, Capacity::finite(2).unwrap());
        assert_eq!(balls, vec![ball(2)]);
        assert!(!offline);
        assert_eq!(shard.len(), 3);
        assert_eq!(shard.buffered(), 0, "bins 0 and 2 served their balls");
    }

    #[test]
    fn split_off_and_from_parts_move_ownership_not_balls() {
        let config = CappedConfig::new(8, 2, 0.5).unwrap();
        let fill = [
            (1, ball(1)),
            (1, ball(1)),
            (4, ball(1)),
            (4, ball(2)),
            (5, ball(3)),
            (5, ball(3)),
        ];
        let mut shard = BinShard::new(&config, 0..6);
        step(&mut shard, 3, &fill);
        shard.set_offline(5, true);

        let parts = shard.split_off(3);
        assert_eq!(shard.len(), 3);
        assert_eq!(parts.len(), 3);
        let upper = BinShard::from_parts(3, parts);
        assert_eq!(upper.first_bin(), 3);
        assert_eq!(upper.len(), 3);
        assert_eq!(
            upper.bin(1).head(),
            Some(&ball(2)),
            "global bin 4 kept its ball"
        );
        assert!(upper.is_offline(2), "offline mask travels with the bin");
        assert_eq!(shard.buffered() + upper.buffered(), 3, "no ball lost");

        // The reunited halves run exactly like an unsplit shard.
        let mut merged = shard.clone();
        for (cap, balls, offline) in upper.to_parts() {
            merged.push_bin_with(cap, &balls, offline);
        }
        let mut reference = BinShard::new(&config, 0..6);
        step(&mut reference, 3, &fill);
        reference.set_offline(5, true);
        for round in 4..7 {
            let stream = [(1, ball(round)), (4, ball(round)), (5, ball(round))];
            assert_eq!(
                step(&mut merged, round, &stream),
                step(&mut reference, round, &stream),
                "round {round}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "both halves non-empty")]
    fn split_at_zero_panics() {
        let config = CappedConfig::new(4, 2, 0.5).unwrap();
        let mut shard = BinShard::new(&config, 0..4);
        shard.split_off(0);
    }
}
