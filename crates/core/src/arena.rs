//! Flat slot-arena storage for the bins — the one data layout of the round
//! kernel — and the bin-local half of Algorithm 1's round:
//! [`BinArena::accept_stream`] (every bin accepts the oldest
//! `min{c − ℓ, ν}` of its requests) and [`BinArena::serve_sweep`] (every
//! online bin serves the head of its queue).
//! [`CappedProcess`](crate::process::CappedProcess) is a pool plus one
//! arena, and its round is the only code that runs the two in turn.
//!
//! A literal implementation of CAPPED(c, λ) keeps one heap-allocated
//! `VecDeque<Ball>` per bin, so a round's acceptance stage performs
//! `thrown` random-access pushes, each chasing a deque header *and* its
//! separate backing allocation. [`BinArena`] replaces that with a
//! structure-of-arrays layout:
//!
//! - **`slots`** — one contiguous `Vec<Ball>` of `n · stride` ring slots
//!   (`stride` is a power of two ≥ every live capacity and every load, so
//!   for the paper process this is exactly an `n · c` layout), followed by
//!   one guard slot that `fast_accept`'s branchless scatter writes rejects
//!   to;
//! - **`regs`** — one packed `u64` **register** per bin, the bin's only
//!   ring state: its length (bits 0..24), its acceptance bound (bits
//!   24..40: the live capacity, or 0 while the bin is offline) and its
//!   tail (bits 40..64, the next free ring offset kept modulo 2²⁴). The
//!   tail sits at the top, so an increment carries out of the word and
//!   never into another field, and `tail & (stride − 1)` stays valid for
//!   every power-of-two stride. The head is derived,
//!   `(tail − len) & (stride − 1)`;
//! - **`caps`** — the per-bin **live** capacity (fault injection may
//!   diverge it from the configured profile).
//!
//! Every mutator rewrites the one register it touches, so the acceptance
//! scatter and the deletion sweep read the same word and nothing is ever
//! left to commit or re-derive between them.
//!
//! The arena keeps one invariant: **`stride` ≥ every live capacity and
//! every load**. A bin accepts only below its capacity, so no accepted
//! ball can outgrow its ring, and the acceptance stage is one pass,
//! `fast_accept`: a branch-free scatter in age order, bit-exactly
//! Algorithm 1's "accept the oldest `min{c − ℓ, ν}`" rule. Because the
//! requests are age-ordered and acceptance at a bin depends only on that
//! bin's own request order, it leaves the rejects in exact pool age order
//! with zero sorting.
//!
//! A round's requests arrive as the pool's label runs plus one bin choice
//! per ball: `choices[i]` is the bin the `i`-th ball of the runs (oldest
//! first) asks for. The rejects leave as runs too — a run's rejects are
//! one `(label, count − taken)` run — so no stage handles a per-ball
//! ball array.
//!
//! A capacity raised past the stride (a fault, or a pushed bin) re-lays
//! the arena out between rounds, inside
//! [`set_capacity`](BinArena::set_capacity) or
//! [`push_bin`](BinArena::push_bin): an `O(n · stride)` copy into the next
//! power-of-two stride. Capacities are at most
//! [`MAX_CAPACITY`], so the stride is too, and the arena never holds more
//! than `n · MAX_CAPACITY` slots; the steady state of the paper process
//! never grows.

use crate::ball::Ball;
use crate::config::{Capacity, MAX_CAPACITY};
use crate::obs;
use crate::pool::{push_run, Run};

/// Register field layout: length in bits 0..24, bound in 24..40, tail in
/// 40..64 (see the module docs).
const LEN_MASK: u64 = (1 << 24) - 1;
const BOUND_SHIFT: u32 = 24;
const BOUND_MAX: u64 = u16::MAX as u64;
const TAIL_SHIFT: u32 = 40;
/// Register increment of one accepted ball: length + 1, tail + 1.
const ACCEPT: u64 = 1 | 1 << TAIL_SHIFT;

// Every capacity fits the bound field, and so a full ring's length fits
// the wider length field.
const _: () = assert!(MAX_CAPACITY as u64 <= BOUND_MAX);

#[inline]
fn reg_len(r: u64) -> usize {
    (r & LEN_MASK) as usize
}

#[inline]
fn reg_bound(r: u64) -> u64 {
    (r >> BOUND_SHIFT) & BOUND_MAX
}

#[inline]
fn reg_tail(r: u64) -> usize {
    (r >> TAIL_SHIFT) as usize
}

/// A register for a ring unwrapped to head 0 (`tail = len`).
#[inline]
fn unwrapped(len: usize, bound: u64) -> u64 {
    len as u64 | bound << BOUND_SHIFT | (len as u64) << TAIL_SHIFT
}

/// The acceptance bound an online bin of capacity `cap` carries: the
/// capacity itself. Never 0, so 0 can mean "offline".
fn bound_of(cap: Capacity) -> u64 {
    u64::from(cap.get())
}

/// Statistics of one deletion sweep ([`BinArena::serve_sweep`]),
/// aggregated over the bins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SweepStats {
    /// Bins that attempted a deletion and found their buffer empty
    /// (offline bins make no attempt and are excluded).
    pub failed_deletions: u64,
    /// Balls left in the buffers after the deletion stage.
    pub buffered: u64,
    /// Maximum bin load after the deletion stage.
    pub max_load: u64,
}

impl SweepStats {
    #[inline]
    fn note_load(&mut self, load: u64) {
        self.buffered += load;
        self.max_load = self.max_load.max(load);
    }
}

/// All of a process's FIFO bin buffers in one contiguous slot arena (see
/// the module docs for the layout), and the bin-local half of a round:
/// [`accept_stream`](Self::accept_stream), then
/// [`serve_sweep`](Self::serve_sweep).
///
/// # Examples
///
/// ```
/// use iba_core::arena::BinArena;
/// use iba_core::{Ball, Capacity};
///
/// let mut arena = BinArena::new(vec![Capacity::finite(2).unwrap(); 4]);
/// assert!(arena.try_accept(1, Ball::generated_in(1)));
/// assert!(arena.try_accept(1, Ball::generated_in(2)));
/// assert!(!arena.try_accept(1, Ball::generated_in(3))); // full
/// assert_eq!(arena.serve(1), Some(Ball::generated_in(1))); // FIFO
/// assert_eq!(arena.len(1), 1);
/// ```
#[derive(Debug, Clone)]
pub struct BinArena {
    /// `bins() * stride` ring slots; bin `b` owns `b*stride..(b+1)*stride`.
    /// One guard slot follows the last ring: [`fast_accept`]'s branchless
    /// scatter writes every rejected ball there. It is never read.
    slots: Vec<Ball>,
    /// One packed `(len, bound, tail)` register per bin.
    regs: Vec<u64>,
    /// Live per-bin capacities.
    caps: Vec<Capacity>,
    /// Ring size per bin: a power of two, at least every live capacity and
    /// every load, at most [`MAX_CAPACITY`].
    stride: usize,
}

impl BinArena {
    /// Creates an arena of empty bins with the given live capacities.
    ///
    /// # Panics
    ///
    /// Panics if `caps` is empty.
    pub fn new(caps: Vec<Capacity>) -> Self {
        Self::from_bins(caps, Vec::new())
    }

    /// Rebuilds an arena from checkpointed per-bin contents (in FIFO
    /// order), every bin online. `contents` may be shorter than `caps`
    /// (missing bins start empty), and bins may legally hold more balls
    /// than their live capacity allows (capacity degradation).
    ///
    /// # Panics
    ///
    /// Panics if `caps` is empty, `contents` is longer than `caps`, or
    /// [`try_from_bins`](Self::try_from_bins) refuses the state.
    pub fn from_bins(caps: Vec<Capacity>, contents: Vec<Vec<Ball>>) -> Self {
        Self::try_from_bins(caps, contents)
            .expect("a bin holds more than MAX_CAPACITY balls, or the arena cannot be allocated")
    }

    /// [`from_bins`](Self::from_bins) for states from outside input: the
    /// ring slots are allocated fallibly, so a forged state cannot abort
    /// the process. `None` if some bin holds more than [`MAX_CAPACITY`]
    /// balls or the `n · stride` slots cannot be allocated.
    ///
    /// # Panics
    ///
    /// Panics if `caps` is empty or `contents` is longer than `caps`.
    pub fn try_from_bins(caps: Vec<Capacity>, contents: Vec<Vec<Ball>>) -> Option<Self> {
        assert!(!caps.is_empty(), "an arena needs at least one bin");
        assert!(contents.len() <= caps.len(), "more bin contents than bins");
        let max_len = contents.iter().map(Vec::len).max().unwrap_or(0);
        if max_len > MAX_CAPACITY as usize {
            return None;
        }
        let max_cap = caps.iter().map(|c| c.get() as usize).max().unwrap_or(1);
        let stride = max_cap.max(max_len).next_power_of_two();
        let bins = caps.len();
        let total = bins.checked_mul(stride)?.checked_add(1)?;
        let mut slots = Vec::new();
        slots.try_reserve_exact(total).ok()?;
        slots.resize(total, Ball::generated_in(0));
        let mut regs: Vec<u64> = caps
            .iter()
            .map(|&cap| unwrapped(0, bound_of(cap)))
            .collect();
        for (b, balls) in contents.iter().enumerate() {
            slots[b * stride..b * stride + balls.len()].copy_from_slice(balls);
            regs[b] = unwrapped(balls.len(), bound_of(caps[b]));
        }
        Some(BinArena {
            slots,
            regs,
            caps,
            stride,
        })
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.regs.len()
    }

    /// The current ring size per bin (exposed for tests and diagnostics).
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Whether the arena's invariant holds: the stride covers every live
    /// capacity and every load.
    fn stride_covers_every_bin(&self) -> bool {
        self.caps.iter().all(|c| c.get() as usize <= self.stride)
            && self.regs.iter().all(|&r| reg_len(r) <= self.stride)
    }

    /// Current load of bin `b`.
    #[inline]
    pub fn len(&self, b: usize) -> usize {
        reg_len(self.regs[b])
    }

    /// Bin `b`'s ring offset of its first-accepted ball.
    #[inline]
    fn head_offset(&self, b: usize) -> usize {
        let r = self.regs[b];
        reg_tail(r).wrapping_sub(reg_len(r)) & (self.stride - 1)
    }

    /// Live capacity of bin `b`.
    #[inline]
    pub fn capacity(&self, b: usize) -> Capacity {
        self.caps[b]
    }

    /// Rewrites bin `b`'s acceptance bound, keeping its length and tail.
    fn set_bound(&mut self, b: usize, bound: u64) {
        let r = self.regs[b] & !(BOUND_MAX << BOUND_SHIFT);
        self.regs[b] = r | bound << BOUND_SHIFT;
        self.debug_check(b);
    }

    /// Checks that bin `b`'s register bound is its effective bound: the
    /// live capacity, or 0 while offline.
    #[inline]
    fn debug_check(&self, b: usize) {
        let bound = reg_bound(self.regs[b]);
        debug_assert!(
            bound == 0 || bound == bound_of(self.caps[b]),
            "bin {b}'s register bound {bound} is not its effective bound"
        );
    }

    /// Changes bin `b`'s live capacity (fault injection), re-laying the
    /// arena out first if the capacity exceeds the stride. Balls stored
    /// above a lowered capacity stay until served; the bin rejects new
    /// balls until it drains below the new bound. An offline bin stays
    /// offline.
    pub fn set_capacity(&mut self, b: usize, capacity: Capacity) {
        self.grow(capacity);
        self.caps[b] = capacity;
        if !self.is_offline(b) {
            self.set_bound(b, bound_of(capacity));
        }
    }

    /// Takes bin `b` offline (`true`: it accepts nothing and the deletion
    /// sweep skips it) or back online (`false`). Its balls stay.
    pub fn set_offline(&mut self, b: usize, offline: bool) {
        self.set_bound(b, if offline { 0 } else { bound_of(self.caps[b]) });
    }

    /// Whether bin `b` is offline — its register bound is 0.
    #[inline]
    pub fn is_offline(&self, b: usize) -> bool {
        reg_bound(self.regs[b]) == 0
    }

    /// Remaining room of bin `b`: how many more balls it may accept (0
    /// while offline).
    #[inline]
    pub fn room(&self, b: usize) -> usize {
        if self.is_offline(b) {
            return 0;
        }
        (self.caps[b].get() as usize).saturating_sub(self.len(b))
    }

    /// Accepts `ball` into bin `b` if it is online and has room.
    pub fn try_accept(&mut self, b: usize, ball: Ball) -> bool {
        if self.room(b) == 0 {
            return false;
        }
        let r = self.regs[b];
        self.slots[b * self.stride + (reg_tail(r) & (self.stride - 1))] = ball;
        self.regs[b] = r.wrapping_add(ACCEPT);
        true
    }

    /// Serves (deletes) bin `b`'s first-accepted ball, if any — Algorithm
    /// 1's FIFO deletion (regardless of the offline flag).
    #[inline]
    pub fn serve(&mut self, b: usize) -> Option<Ball> {
        let ball = *self.head(b)?;
        self.regs[b] -= 1;
        Some(ball)
    }

    /// The ball bin `b` would serve next, if any.
    pub fn head(&self, b: usize) -> Option<&Ball> {
        (self.len(b) > 0).then(|| &self.slots[b * self.stride + self.head_offset(b)])
    }

    /// Bin `b`'s balls as two slices in FIFO order (front first), like
    /// [`VecDeque::as_slices`](std::collections::VecDeque::as_slices).
    pub fn as_slices(&self, b: usize) -> (&[Ball], &[Ball]) {
        let (head, len) = (self.head_offset(b), self.len(b));
        let base = b * self.stride;
        let first = (self.stride - head).min(len);
        (
            &self.slots[base + head..base + head + first],
            &self.slots[base..base + (len - first)],
        )
    }

    /// Iterates bin `b`'s balls in FIFO order.
    pub fn iter_bin(&self, b: usize) -> impl Iterator<Item = &Ball> {
        let (front, back) = self.as_slices(b);
        front.iter().chain(back.iter())
    }

    /// Read-only view of bin `b`: its balls in FIFO order and its live
    /// capacity.
    pub fn view(&self, b: usize) -> BinView<'_> {
        let (front, back) = self.as_slices(b);
        BinView {
            front,
            back,
            capacity: self.caps[b],
        }
    }

    /// Total balls stored across all bins.
    pub fn buffered(&self) -> usize {
        self.regs.iter().map(|&r| reg_len(r)).sum()
    }

    /// Appends an empty, online bin of live capacity `capacity` at the end
    /// of the arena (elastic membership growth), re-laying the arena out
    /// first if the capacity exceeds the stride.
    pub fn push_bin(&mut self, capacity: Capacity) {
        self.grow(capacity);
        let b = self.bins();
        self.slots
            .resize((b + 1) * self.stride + 1, Ball::generated_in(0));
        self.regs.push(unwrapped(0, bound_of(capacity)));
        self.caps.push(capacity);
        self.debug_check(b);
    }

    /// Removes the arena's **last** bin and returns its live capacity and
    /// buffered balls (FIFO order). Membership shrinks from the top of the
    /// index space so surviving bin indices never shift.
    ///
    /// # Panics
    ///
    /// Panics if the arena holds a single bin (an arena is never empty).
    pub fn pop_bin(&mut self) -> (Capacity, Vec<Ball>) {
        assert!(self.bins() > 1, "cannot pop the last bin");
        let b = self.bins() - 1;
        let balls: Vec<Ball> = self.iter_bin(b).copied().collect();
        self.regs.pop();
        let cap = self.caps.pop().expect("non-empty arena");
        self.slots.truncate(self.bins() * self.stride + 1);
        (cap, balls)
    }

    /// Keeps the invariant for a bin about to take capacity `capacity`:
    /// if it exceeds the stride, re-lays the arena out with the power-of-two
    /// stride covering it, unwrapping every ring to `head = 0`. The stride
    /// never shrinks, so it keeps covering every load too.
    fn grow(&mut self, capacity: Capacity) {
        if capacity.get() as usize <= self.stride {
            return;
        }
        if let Some(p) = obs::probes() {
            p.arena_grows.inc();
        }
        let new_stride = (capacity.get() as usize).next_power_of_two();
        let bins = self.bins();
        let mut slots = vec![Ball::generated_in(0); bins * new_stride + 1];
        for b in 0..bins {
            let (front, back) = self.as_slices(b);
            let base = b * new_stride;
            slots[base..base + front.len()].copy_from_slice(front);
            slots[base + front.len()..base + front.len() + back.len()].copy_from_slice(back);
            let r = self.regs[b];
            self.regs[b] = unwrapped(reg_len(r), reg_bound(r));
            self.debug_check(b);
        }
        self.slots = slots;
        self.stride = new_stride;
    }

    /// The acceptance stage of one round; returns the accepted count.
    ///
    /// The requests are the label `runs`, oldest first, plus one bin
    /// choice per ball: `choices[i]` is the bin the `i`-th ball of the
    /// runs asks for. Every online bin accepts the oldest `min{c − ℓ, ν}`
    /// of its requests; the rejected balls are appended to `rejected` as
    /// runs, oldest first. This is the single-pass `fast_accept` scatter
    /// over the runs, bit-exactly Algorithm 1.
    ///
    /// # Panics
    ///
    /// Panics unless `runs` holds exactly `choices.len()` balls.
    pub fn accept_stream(&mut self, choices: &[u32], runs: &[Run], rejected: &mut Vec<Run>) -> u64 {
        assert_eq!(
            runs.iter().map(|run| run.count).sum::<u64>(),
            choices.len() as u64,
            "need exactly one choice per ball"
        );
        fast_accept(self, choices, runs, rejected)
    }

    /// The deletion stage of one round: every online bin serves the head
    /// of its queue into `served`, in bin order. It reads each bin's
    /// register and, for a non-empty online bin, its head slot
    /// `(tail − len) & mask`, and decrements the length — one register
    /// read-modify-write per bin.
    /// Returns the round's deletion statistics.
    pub fn serve_sweep<F: FnMut(usize, Ball)>(&mut self, mut served: F) -> SweepStats {
        let mut stats = SweepStats::default();
        let (stride, mask) = (self.stride, self.stride - 1);
        let slots = &self.slots;
        for (b, r) in self.regs.iter_mut().enumerate() {
            let len = reg_len(*r);
            if reg_bound(*r) == 0 {
                // A crashed bin neither serves nor counts as a failed
                // deletion *attempt* — it makes none.
                stats.note_load(len as u64);
                continue;
            }
            if len == 0 {
                stats.failed_deletions += 1;
                continue;
            }
            served(
                b,
                slots[b * stride + (reg_tail(*r).wrapping_sub(len) & mask)],
            );
            *r -= 1;
            stats.note_load(len as u64 - 1);
        }
        stats
    }
}

/// A read-only view of one bin's buffer in a [`BinArena`]: the ring's two
/// slices in FIFO order plus the live capacity. This is what
/// [`CappedProcess::bin`](crate::process::CappedProcess::bin) hands out.
#[derive(Debug, Clone, Copy)]
pub struct BinView<'a> {
    front: &'a [Ball],
    back: &'a [Ball],
    capacity: Capacity,
}

impl<'a> BinView<'a> {
    /// The bin's current load.
    pub fn len(&self) -> usize {
        self.front.len() + self.back.len()
    }

    /// Whether the bin is empty.
    pub fn is_empty(&self) -> bool {
        self.front.is_empty() && self.back.is_empty()
    }

    /// The bin's live capacity.
    pub fn capacity(&self) -> Capacity {
        self.capacity
    }

    /// The ball the bin would serve next, if any.
    pub fn head(&self) -> Option<&'a Ball> {
        self.front.first().or_else(|| self.back.first())
    }

    /// Iterates the bin's balls in FIFO order.
    pub fn iter(&self) -> impl Iterator<Item = &'a Ball> {
        self.front.iter().chain(self.back.iter())
    }
}

/// The acceptance stage's one pass.
///
/// The stride covers every live capacity, so every bin's fill is bounded
/// by `max{ℓ, c} ≤ stride`: no accepted ball can outgrow its ring and the
/// scatter needs no per-bin setup.
///
/// The scatter is a **single branch-free pass** in age order, run by run:
/// one read-modify-write of the bin's register per request. Every ball of
/// a run is the same ball, so the value written is a loop constant. With
/// `acc = (len < bound)` — false for a full, an overfull or an offline
/// (bound 0) bin — the ball is written to the tail slot
/// `b·stride + (tail & mask)` on accept and to the arena's one guard slot
/// (after the last ring, never read) on reject; the register grows by
/// `acc · (1 + 2⁴⁰)`, advancing length and tail at once; and the run's
/// accepted count — a register — grows by `acc`. After the run, its
/// rejects go to `rejected` as one `(label, count − taken)` run, so
/// rejects stay in age order. About 40% of throws are rejected at the
/// paper's cell, so a branch on `acc` would mispredict constantly;
/// selecting the slot index arithmetically costs no more than the accept
/// arm alone. Accepting the first `min{c − ℓ, ν}` requests of each bin
/// this way is bit-exactly the greedy oldest-first rule — the register
/// is the running per-bin prefix sum of a counting sort, computed online
/// instead of ahead of time. The registers are complete when the scatter
/// ends: the deletion sweep reads them as they are.
///
/// The caller must guarantee that `runs` holds exactly `choices.len()`
/// balls.
pub(crate) fn fast_accept(
    arena: &mut BinArena,
    choices: &[u32],
    runs: &[Run],
    rejected: &mut Vec<Run>,
) -> u64 {
    debug_assert!(
        arena.stride_covers_every_bin(),
        "a live capacity or a load exceeds the stride {}",
        arena.stride
    );
    // Scatter: the only random-access pass. The per-request accesses are
    // mutually independent, so the out-of-order core overlaps their cache
    // misses on its own — an explicit software-prefetch stage was
    // measured slower here. A reject is written to the guard slot, never
    // to its bin's tail slot: a full ring's tail is its head.
    let (stride, mask) = (arena.stride, arena.stride - 1);
    let slots = arena.slots.as_mut_slice();
    let regs = arena.regs.as_mut_slice();
    let guard = slots.len() - 1;
    let mut accepted = 0u64;
    let mut choices = choices;
    for &Run { label, count } in runs {
        let (run, rest) = choices.split_at(count as usize);
        choices = rest;
        let ball = Ball::generated_in(label);
        let mut taken = 0u64;
        for &b in run {
            let b = b as usize;
            let r = regs[b];
            let acc = u64::from((r & LEN_MASK) < reg_bound(r));
            let keep = (acc as usize).wrapping_neg();
            slots[((b * stride + (reg_tail(r) & mask)) & keep) | (guard & !keep)] = ball;
            regs[b] = r.wrapping_add(acc * ACCEPT);
            taken += acc;
        }
        accepted += taken;
        push_run(rejected, label, count - taken);
    }
    if let Some(p) = obs::probes() {
        p.fast_accept_rounds.inc();
    }
    accepted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::expand;

    fn finite(c: u32) -> Capacity {
        Capacity::finite(c).unwrap()
    }

    /// Splits an age-ordered `(bin, ball)` stream into the kernel's
    /// requests: one bin choice per ball plus the balls' label runs.
    fn requests(stream: &[(usize, Ball)]) -> (Vec<u32>, Vec<Run>) {
        let mut runs = Vec::new();
        for &(_, ball) in stream {
            push_run(&mut runs, ball.label(), 1);
        }
        (stream.iter().map(|&(b, _)| b as u32).collect(), runs)
    }

    #[test]
    fn ring_wraps_within_stride() {
        let mut arena = BinArena::new(vec![finite(2); 2]);
        assert_eq!(arena.stride(), 2);
        for round in 1..=50u64 {
            assert!(arena.try_accept(0, Ball::generated_in(round)));
            assert!(arena.try_accept(0, Ball::generated_in(round)));
            assert_eq!(arena.serve(0), Some(Ball::generated_in(round)));
            assert_eq!(arena.serve(0), Some(Ball::generated_in(round)));
        }
        assert_eq!(arena.stride(), 2, "steady state never grows");
    }

    #[test]
    fn raised_capacity_grows_stride_on_demand() {
        let mut arena = BinArena::new(vec![finite(2); 4]);
        arena.try_accept(3, Ball::generated_in(1));
        arena.serve(3); // move the head so growth must unwrap a ring
        arena.try_accept(3, Ball::generated_in(2));
        arena.try_accept(3, Ball::generated_in(3));
        // The raise re-lays the arena out at once, before any round.
        arena.set_capacity(3, finite(20));
        assert_eq!(arena.stride(), 32);
        let labels: Vec<u64> = arena.iter_bin(3).map(Ball::label).collect();
        assert_eq!(labels, vec![2, 3], "FIFO order survives the re-layout");
        // The scatter then fills the raised bin past the old stride.
        let stream: Vec<(usize, Ball)> = (4..40).map(|i| (3usize, Ball::generated_in(i))).collect();
        let (choices, runs) = requests(&stream);
        let mut rejected = Vec::new();
        assert_eq!(arena.accept_stream(&choices, &runs, &mut rejected), 18);
        let expected: Vec<Run> = (22..40).map(|label| Run::new(label, 1)).collect();
        assert_eq!(rejected, expected);
        let labels: Vec<u64> = arena.iter_bin(3).map(Ball::label).collect();
        assert_eq!(labels, (2..22).collect::<Vec<u64>>());
        assert_eq!(arena.len(0), 0);
        arena.set_capacity(3, finite(2));
        assert_eq!(arena.stride(), 32, "lowering a capacity never shrinks");
    }

    #[test]
    fn degraded_capacity_keeps_overflow_and_rejects() {
        let caps = vec![finite(3)];
        let contents = vec![(0..5).map(Ball::generated_in).collect()];
        let mut arena = BinArena::from_bins(caps, contents);
        arena.set_capacity(0, finite(1));
        assert_eq!(arena.len(0), 5);
        assert_eq!(arena.room(0), 0);
        assert!(!arena.try_accept(0, Ball::generated_in(9)));
        assert_eq!(arena.serve(0), Some(Ball::generated_in(0)));
    }

    /// The shared fixture: bin 0 full, bin 1 with room for one, bin 2
    /// offline, bin 3 open; and a stream that hits each.
    fn fixture() -> (BinArena, Vec<(usize, Ball)>) {
        let caps = vec![finite(1), finite(2), finite(4), finite(4)];
        let contents = vec![
            vec![Ball::generated_in(1)],
            vec![Ball::generated_in(1)],
            Vec::new(),
        ];
        let mut arena = BinArena::from_bins(caps, contents);
        arena.set_offline(2, true);
        let stream = vec![
            (0, Ball::generated_in(2)), // bin 0 full -> reject
            (1, Ball::generated_in(2)), // fills bin 1
            (1, Ball::generated_in(3)), // over quota -> reject
            (2, Ball::generated_in(3)), // offline -> reject
            (3, Ball::generated_in(3)),
            (3, Ball::generated_in(4)),
        ];
        (arena, stream)
    }

    /// Both arenas' bins hold the same balls and serve the same sweep.
    fn assert_same_bins(a: &mut BinArena, b: &mut BinArena) {
        for bin in 0..a.bins() {
            let x: Vec<u64> = a.iter_bin(bin).map(Ball::label).collect();
            let y: Vec<u64> = b.iter_bin(bin).map(Ball::label).collect();
            assert_eq!(x, y, "bin {bin}");
        }
        let (mut x, mut y) = (Vec::new(), Vec::new());
        assert_eq!(
            a.serve_sweep(|bin, ball| x.push((bin, ball))),
            b.serve_sweep(|bin, ball| y.push((bin, ball)))
        );
        assert_eq!(x, y, "served balls");
    }

    #[test]
    fn fast_accept_matches_a_try_accept_walk() {
        // The reference is the per-ball greedy walk of `try_accept` in age
        // order, run here on a second arena.
        let (mut fast_arena, stream) = fixture();
        let (mut walk_arena, _) = fixture();
        let (choices, runs) = requests(&stream);
        let mut fast_rejected = Vec::new();
        let fast = fast_accept(&mut fast_arena, &choices, &runs, &mut fast_rejected);
        let mut walk_rejected = Vec::new();
        let mut walked = 0;
        for &(b, ball) in &stream {
            if walk_arena.try_accept(b, ball) {
                walked += 1;
            } else {
                push_run(&mut walk_rejected, ball.label(), 1);
            }
        }
        assert_eq!(fast, walked);
        assert_eq!(fast_rejected, walk_rejected);
        assert!(crate::pool::is_canonical(&fast_rejected));
        // Nothing is left to commit: the registers are complete.
        assert_eq!(fast_arena.regs, walk_arena.regs);
        assert_same_bins(&mut fast_arena, &mut walk_arena);
    }

    #[test]
    fn fast_accept_wraps_the_ring() {
        // Head away from 0 so accepted balls must wrap around the ring.
        let mut arena = BinArena::new(vec![finite(2); 1]);
        assert_eq!(arena.stride(), 2);
        arena.try_accept(0, Ball::generated_in(1));
        arena.try_accept(0, Ball::generated_in(2));
        arena.serve(0); // head = 1, len = 1
        let (choices, runs) = requests(&[(0usize, Ball::generated_in(3))]);
        let mut rejected = Vec::new();
        let accepted = fast_accept(&mut arena, &choices, &runs, &mut rejected);
        assert_eq!(accepted, 1);
        assert!(rejected.is_empty());
        let labels: Vec<u64> = arena.iter_bin(0).map(Ball::label).collect();
        assert_eq!(labels, vec![2, 3], "the accepted ball wrapped to slot 0");
        let mut served = Vec::new();
        arena.serve_sweep(|_, ball| served.push(ball));
        assert_eq!(served, vec![Ball::generated_in(2)]);
        assert_eq!(arena.head(0), Some(&Ball::generated_in(3)));
    }

    #[test]
    fn the_tail_wraps_modulo_its_field_without_touching_the_bound() {
        // 2²⁴ + 3 accept/serve cycles carry the tail out of the top of
        // the register; the bound below it and the FIFO order survive.
        let mut arena = BinArena::new(vec![finite(2); 1]);
        arena.regs[0] |= ((1u64 << 24) - 2) << TAIL_SHIFT; // tail near the top
        for label in 0..5u64 {
            assert!(arena.try_accept(0, Ball::generated_in(label)));
            assert_eq!(arena.serve(0), Some(Ball::generated_in(label)));
            assert_eq!(reg_bound(arena.regs[0]), 2);
        }
        assert_eq!(reg_tail(arena.regs[0]), 3);
    }

    #[test]
    fn offline_is_a_zero_bound_that_survives_capacity_changes() {
        let mut arena = BinArena::new(vec![finite(2); 2]);
        assert!(arena.try_accept(0, Ball::generated_in(1)));
        arena.set_offline(0, true);
        arena.set_capacity(0, finite(3));
        assert!(arena.is_offline(0), "a capacity change keeps a bin offline");
        assert_eq!(arena.room(0), 0);
        assert!(!arena.try_accept(0, Ball::generated_in(2)));
        arena.set_offline(0, false);
        assert_eq!(
            reg_bound(arena.regs[0]),
            3,
            "recovery restores the live bound"
        );
        assert_eq!(arena.room(0), 2);
    }

    #[test]
    fn try_from_bins_refuses_a_load_past_the_stride_ceiling() {
        let full = vec![vec![Ball::generated_in(0); MAX_CAPACITY as usize]];
        let arena = BinArena::try_from_bins(vec![finite(2)], full).expect("a full ring fits");
        assert_eq!(arena.stride(), MAX_CAPACITY as usize);
        let over = vec![vec![Ball::generated_in(0); MAX_CAPACITY as usize + 1]];
        assert!(BinArena::try_from_bins(vec![finite(2)], over).is_none());
    }

    #[test]
    fn from_bins_round_trips_through_slices() {
        let caps = vec![finite(3), finite(3)];
        let contents = vec![
            (10..13).map(Ball::generated_in).collect(),
            vec![Ball::generated_in(7)],
        ];
        let arena = BinArena::from_bins(caps, contents);
        let (front, back) = arena.as_slices(0);
        assert_eq!(front.len() + back.len(), 3);
        let labels: Vec<u64> = arena.iter_bin(0).map(Ball::label).collect();
        assert_eq!(labels, vec![10, 11, 12]);
        assert_eq!(arena.buffered(), 4);
    }

    #[test]
    fn push_and_pop_bins_preserve_contents_and_the_stride() {
        let mut arena = BinArena::new(vec![finite(2); 2]);
        assert!(arena.try_accept(1, Ball::generated_in(3)));

        // A fresh bin enters empty, and a capacity within the stride keeps
        // the layout.
        arena.push_bin(finite(2));
        assert_eq!(arena.bins(), 3);
        assert_eq!(arena.stride(), 2);
        assert_eq!(arena.len(2), 0);

        // A pushed bin fills in FIFO order.
        arena.push_bin(finite(2));
        assert!(arena.try_accept(3, Ball::generated_in(1)));
        assert!(arena.try_accept(3, Ball::generated_in(4)));
        assert_eq!(arena.len(3), 2);
        assert_eq!(arena.head(3), Some(&Ball::generated_in(1)));

        // A capacity past the stride re-lays the arena out; popping the
        // bin keeps the stride.
        arena.push_bin(finite(7));
        assert_eq!(arena.stride(), 8);
        assert_eq!(arena.head(3), Some(&Ball::generated_in(1)));
        let (cap, balls) = arena.pop_bin();
        assert_eq!(cap, finite(7));
        assert!(balls.is_empty());
        assert_eq!(arena.stride(), 8);

        let (cap, balls) = arena.pop_bin();
        assert_eq!(cap, finite(2));
        assert_eq!(balls, vec![Ball::generated_in(1), Ball::generated_in(4)]);
        assert_eq!(arena.bins(), 3);
        assert_eq!(arena.buffered(), 1, "bin 1's ball survived the churn");
        assert_eq!(arena.head(1), Some(&Ball::generated_in(3)));
    }

    #[test]
    #[should_panic(expected = "cannot pop the last bin")]
    fn popping_the_last_bin_panics() {
        let mut arena = BinArena::new(vec![finite(2)]);
        arena.pop_bin();
    }

    fn ball(label: u64) -> Ball {
        Ball::generated_in(label)
    }

    /// Runs one round's acceptance and deletion at `round`, returning the
    /// accepted count, the sweep stats, the rejected balls, and the
    /// served `(bin, wait)` pairs in bin order.
    fn step(
        arena: &mut BinArena,
        round: u64,
        stream: &[(usize, Ball)],
    ) -> (u64, SweepStats, Vec<Ball>, Vec<(usize, u64)>) {
        let (choices, runs) = requests(stream);
        let mut rejected = Vec::new();
        let mut served = Vec::new();
        let accepted = arena.accept_stream(&choices, &runs, &mut rejected);
        let stats = arena.serve_sweep(|b, ball| served.push((b, ball.age_at(round))));
        assert!(crate::pool::is_canonical(&rejected));
        (accepted, stats, expand(&rejected).collect(), served)
    }

    /// One bin's live capacity, FIFO contents and offline flag.
    type Part = (Capacity, Vec<Ball>, bool);

    /// Every bin's [`Part`], in bin order.
    fn parts(arena: &BinArena) -> Vec<Part> {
        (0..arena.bins())
            .map(|b| {
                let balls = arena.iter_bin(b).copied().collect();
                (arena.capacity(b), balls, arena.is_offline(b))
            })
            .collect()
    }

    /// An arena holding `parts`, built the way a checkpoint restore
    /// builds one: `from_bins`, then the offline flags.
    fn rebuild(parts: Vec<Part>) -> BinArena {
        let offline: Vec<bool> = parts.iter().map(|part| part.2).collect();
        let (caps, contents) = parts
            .into_iter()
            .map(|(cap, balls, _)| (cap, balls))
            .unzip();
        let mut arena = BinArena::from_bins(caps, contents);
        for (b, off) in offline.into_iter().enumerate() {
            arena.set_offline(b, off);
        }
        arena
    }

    fn loads(arena: &BinArena) -> Vec<usize> {
        (0..arena.bins()).map(|b| arena.len(b)).collect()
    }

    #[test]
    fn accept_is_greedy_oldest_first_per_bin() {
        let mut arena = BinArena::new(vec![finite(1); 4]);
        // Oldest-first stream: bin 0 gets labels 1 then 2 — only 1 fits,
        // and it is the one bin 0 serves.
        let (accepted, _, rejected, served) =
            step(&mut arena, 2, &[(0, ball(1)), (0, ball(2)), (1, ball(2))]);
        assert_eq!(accepted, 2);
        assert_eq!(rejected, vec![ball(2)]);
        assert_eq!(served, vec![(0, 1), (1, 0)]);
    }

    #[test]
    fn serve_reports_waits_in_bin_order() {
        let mut arena = BinArena::new(vec![finite(2); 3]);
        let (_, stats, _, served) = step(&mut arena, 4, &[(0, ball(1)), (2, ball(3))]);
        assert_eq!(served, vec![(0, 3), (2, 1)]);
        assert_eq!(stats.failed_deletions, 1); // bin 1 was empty
        assert_eq!(stats.buffered, 0);
        assert_eq!(stats.max_load, 0);
    }

    /// Runs one round on `fast` through `accept_stream` and `serve_sweep`,
    /// and the same round on `walk` (the per-ball `try_accept` walk, then
    /// `serve_sweep`): the rejects in stream order, the served balls and
    /// every bin's FIFO contents must agree.
    fn assert_fast_round_matches_walk(
        fast: &mut BinArena,
        walk: &mut BinArena,
        stream: &[(usize, Ball)],
        what: &str,
    ) {
        let (mut fast_rejected, mut fast_served) = (Vec::new(), Vec::new());
        let (choices, runs) = requests(stream);
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
        assert_eq!(parts(fast), parts(walk), "{what}: bin contents");
    }

    /// Two arenas over the same parts: one for the kernel, one for the
    /// per-ball walk.
    fn kernel_pair(parts: Vec<Part>) -> (BinArena, BinArena) {
        (rebuild(parts.clone()), rebuild(parts))
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
        let cap = finite(2);
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
        for arena in [&mut fast, &mut walk] {
            for (b, label) in [(0, 5), (1, 6), (1, 7)] {
                assert!(arena.try_accept(b, ball(label)));
            }
            assert_eq!(arena.len(0), 2);
            assert_eq!(arena.len(1), 2);
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
        let cap = finite(2);
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
    fn served_sink_receives_each_balls_bin() {
        let mut arena = BinArena::new(vec![finite(2); 3]);
        let mut served = Vec::new();
        arena.accept_stream(&[0, 2], &[Run::new(1, 1), Run::new(3, 1)], &mut Vec::new());
        arena.serve_sweep(|b, ball| served.push((b, ball)));
        assert_eq!(served, vec![(0, ball(1)), (2, ball(3))]);
    }

    #[test]
    fn offline_bins_freeze_and_skip_service() {
        let mut arena = BinArena::new(vec![finite(2); 2]);
        // Bin 0 accepts two balls and serves one: one ball stays.
        step(&mut arena, 1, &[(0, ball(1)), (0, ball(1))]);
        arena.set_offline(0, true);
        assert!(arena.is_offline(0));
        let (accepted, stats, rejected, served) = step(&mut arena, 2, &[(0, ball(2))]);
        assert_eq!(accepted, 0);
        assert_eq!(rejected, vec![ball(2)]);
        assert!(served.is_empty());
        // Offline bin 0 makes no deletion attempt; empty bin 1 fails one.
        assert_eq!(stats.failed_deletions, 1);
        assert_eq!(stats.buffered, 1);
        assert_eq!(stats.max_load, 1);
        // Recovery: the frozen ball is served first.
        arena.set_offline(0, false);
        let (_, _, _, served) = step(&mut arena, 3, &[]);
        assert_eq!(served, vec![(0, 2)]);
    }

    #[test]
    fn degraded_capacity_rejects_until_drained() {
        let mut arena = BinArena::new(vec![finite(3)]);
        step(&mut arena, 1, &[(0, ball(1)), (0, ball(1)), (0, ball(1))]);
        assert_eq!(arena.len(0), 2);
        arena.set_capacity(0, finite(1));
        assert_eq!(arena.len(0), 2, "overflow balls stay");
        let (accepted, _, _, served) = step(&mut arena, 2, &[(0, ball(2))]);
        assert_eq!(accepted, 0);
        assert_eq!(served, vec![(0, 1)]);
        assert_eq!(arena.len(0), 1);
    }

    #[test]
    fn from_bins_reproduces_a_live_arena() {
        let mut original = BinArena::new(vec![finite(2); 4]);
        step(
            &mut original,
            2,
            &[(0, ball(1)), (0, ball(2)), (3, ball(2)), (3, ball(2))],
        );
        original.set_offline(1, true);
        original.set_capacity(2, finite(1));

        let mut restored = rebuild(parts(&original));
        assert_eq!(loads(&restored), loads(&original));
        assert_eq!(restored.capacity(2), finite(1));
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

    #[test]
    fn push_and_pop_bins_keep_round_state_consistent() {
        let mut arena = BinArena::new(vec![finite(2); 3]);
        step(
            &mut arena,
            1,
            &[(0, ball(1)), (0, ball(1)), (2, ball(1)), (2, ball(1))],
        );
        assert_eq!(arena.buffered(), 2);

        // Growth: the new bin is empty, online, and accepts immediately.
        arena.push_bin(finite(2));
        assert_eq!(arena.bins(), 4);
        assert!(!arena.is_offline(3));
        let (accepted, _, _, _) = step(&mut arena, 2, &[(3, ball(2)), (3, ball(2))]);
        assert_eq!(accepted, 2);
        assert_eq!(arena.len(3), 1);

        // Shrink: the popped bin drains its balls; survivors keep theirs.
        assert!(!arena.is_offline(3));
        let (cap, balls) = arena.pop_bin();
        assert_eq!(cap, finite(2));
        assert_eq!(balls, vec![ball(2)]);
        assert_eq!(arena.bins(), 3);
        assert_eq!(arena.buffered(), 0, "bins 0 and 2 served their balls");
    }
}
