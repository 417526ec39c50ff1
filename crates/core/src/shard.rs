//! Bin state and the bin-local round of Algorithm 1.
//!
//! A [`BinShard`] owns a contiguous range of bins — their FIFO buffers,
//! fault masks and per-bin registers — and executes the bin-local half
//! of one CAPPED(c, λ) round
//! ([`run_round`](BinShard::run_round)): every bin accepts the oldest
//! `min{c − ℓ, ν}` of its requests, then serves the head of its queue.
//! It is the only owner of bin state in the repo:
//! [`CappedProcess`](crate::process::CappedProcess) is a pool plus one
//! shard over `0..n` (and the `iba-serve` dispatch service steps that
//! process), and `iba_bench::ablations::AblationProcess` walks one shard
//! ball by ball. A shard over a sub-range reproduces the process on its
//! bins, because acceptance at a bin depends only on that bin's load and
//! the age order of the requests *to that bin*, and the deletion stage is
//! bin-local by definition.

use std::ops::Range;

use crate::arena::{fast_accept, walk_accept, BinArena, BinView};
use crate::ball::Ball;
use crate::config::{Capacity, CappedConfig};
use crate::obs;
use crate::pool::Run;

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
    pub(crate) fn note_load(&mut self, load: u64) {
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
    /// The bins: ring slots, live capacities, and one register per bin
    /// whose zero acceptance bound is the offline flag — an offline bin
    /// rejects every request and stops serving; its buffered balls are
    /// frozen until it comes back.
    arena: BinArena,
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
        Self::with_arena(range.start, BinArena::new(caps))
    }

    /// Rebuilds a shard from extracted per-bin parts (see [`BinPart`]) —
    /// the checkpoint-restore and membership-transfer path. Bins may
    /// legally hold more balls than their live capacity (capacity
    /// degradation).
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or [`try_from_parts`](Self::try_from_parts)
    /// refuses them.
    pub fn from_parts(first_bin: usize, parts: Vec<BinPart>) -> Self {
        Self::try_from_parts(first_bin, parts)
            .expect("a bin holds more than MAX_STRIDE balls, or the arena cannot be allocated")
    }

    /// [`from_parts`](Self::from_parts) for parts decoded from outside
    /// input: `None` if the arena they need cannot be built (see
    /// [`BinArena::try_from_bins`]), instead of an abort.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty.
    pub fn try_from_parts(first_bin: usize, parts: Vec<BinPart>) -> Option<Self> {
        assert!(!parts.is_empty(), "a shard must own at least one bin");
        let offline: Vec<bool> = parts.iter().map(|part| part.2).collect();
        let (caps, contents) = parts
            .into_iter()
            .map(|(cap, balls, _)| (cap, balls))
            .unzip();
        let mut arena = BinArena::try_from_bins(caps, contents)?;
        for (b, off) in offline.into_iter().enumerate() {
            arena.set_offline(b, off);
        }
        Some(Self::with_arena(first_bin, arena))
    }

    fn with_arena(first_bin: usize, arena: BinArena) -> Self {
        BinShard { first_bin, arena }
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
                    self.is_offline(i),
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
        self.arena.bins()
    }

    /// Whether the shard owns no bins (never true for a constructed shard).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
        self.arena.set_offline(i, offline);
    }

    /// Whether local bin `i` is offline.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn is_offline(&self, i: usize) -> bool {
        self.arena.is_offline(i)
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
    }

    /// Appends a bin to the shard (elastic membership growth, or a bin
    /// transferred in from a merged neighbor).
    pub fn push_bin_with(&mut self, capacity: Capacity, contents: &[Ball], offline: bool) {
        self.arena.push_bin_with(capacity, contents);
        self.arena.set_offline(self.len() - 1, offline);
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
        let offline = self.is_offline(self.len() - 1);
        let (cap, balls) = self.arena.pop_bin();
        (cap, balls, offline)
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
    /// accepted count. Over the flat arena this is the single-pass
    /// [`fast_accept`] over the runs, or, while some bin's capacity exceeds
    /// the stride, [`walk_accept`]: the per-ball greedy walk of
    /// [`try_accept`](Self::try_accept). Both are bit-exactly Algorithm 1.
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
        fast_accept(&mut self.arena, choices, runs, rejected)
            .unwrap_or_else(|| walk_accept(&mut self.arena, choices, runs, rejected))
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
        self.arena.try_accept(i, ball)
    }

    /// The deletion half of [`run_round`](Self::run_round): every online
    /// bin serves the head of its queue into `served`, in bin order — one
    /// pass over the bins' registers, which every acceptance path leaves
    /// complete. Returns the round's deletion statistics (`accepted` is
    /// left 0).
    pub fn serve_sweep<F: FnMut(usize, Ball)>(&mut self, served: F) -> ShardRoundStats {
        self.arena.serve_sweep(served)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{expand, push_run};
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
        assert!(
            fast.arena.fast_path_open(),
            "{what}: the round must take fast_accept"
        );
        fast.accept_stream(&choices, &runs, &mut fast_rejected);
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

    /// Shards over a partition of the bins, run in turn, reproduce
    /// `CappedProcess` bit-exactly on a shared pre-drawn choice stream:
    /// acceptance and deletion are bin-local.
    #[test]
    fn shard_composition_matches_capped_process() {
        let n = 12;
        let (shards, width) = (3, 4);
        let config = CappedConfig::new(n, 2, 0.75).unwrap();
        let mut reference = CappedProcess::new(config.clone());
        let mut parts: Vec<BinShard> = (0..shards)
            .map(|s| BinShard::new(&config, s * width..(s + 1) * width))
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
                let s = bin / width;
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
}
