//! Flat slot-arena storage for the bins — the one data layout of the round
//! kernel, for finite and unbounded capacities alike.
//!
//! A literal implementation of CAPPED(c, λ) keeps one heap-allocated
//! `VecDeque<Ball>` per bin, so a round's acceptance stage performs
//! `thrown` random-access pushes, each chasing a deque header *and* its
//! separate backing allocation. [`BinArena`] replaces that with a
//! structure-of-arrays layout:
//!
//! - **`slots`** — one contiguous `Vec<Ball>` of `n · stride` ring slots
//!   (`stride` is a power of two ≥ every configured finite capacity, so for
//!   the paper process this is exactly an `n · c` layout), followed by one
//!   guard slot that `fast_accept`'s branchless scatter writes rejects to;
//! - **`regs`** — one packed `u64` **register** per bin, the bin's only
//!   ring state: its length (bits 0..24), its acceptance bound (bits
//!   24..40: the live capacity clipped to `u16::MAX`, or 0 while the bin
//!   is offline) and its tail (bits 40..64, the next free ring offset
//!   kept modulo 2²⁴). The tail sits at the top, so an increment carries
//!   out of the word and never into another field, and `tail & (stride −
//!   1)` stays valid for every power-of-two stride. The head is derived,
//!   `(tail − len) & (stride − 1)`;
//! - **`caps`** — the per-bin **live** capacity (fault injection may
//!   diverge it from the configured profile).
//!
//! Every mutator rewrites the one register it touches, so the acceptance
//! scatter and the deletion sweep read the same word and nothing is ever
//! left to commit or re-derive between them. The fields cap the stride at
//! [`MAX_STRIDE`] (a full ring's length must fit the 24-bit length field).
//!
//! On top of the layout, the round kernel's acceptance stage has two
//! passes, both bit-exactly Algorithm 1's "accept the oldest
//! `min{c − ℓ, ν}`" rule. `fast_accept` is one branch-free scatter in
//! age order; it runs while no bin's capacity can outgrow its ring, which
//! is every round of a finite configuration that no fault has raised
//! past the stride. `walk_accept` is the per-ball greedy walk of
//! [`try_accept`](BinArena::try_accept), which grows the stride as it
//! goes; it takes the rounds the fast path refuses (an unbounded bin, or
//! a fault raising a capacity past the stride). Because the requests are
//! age-ordered and acceptance at a bin depends only on that bin's own
//! request order, both leave the rejects in exact pool age order with
//! zero sorting.
//!
//! A round's requests arrive as the pool's label runs plus one bin choice
//! per ball: `choices[i]` is the bin the `i`-th ball of the runs (oldest
//! first) asks for. The rejects leave as runs too — a run's rejects are
//! one `(label, count − taken)` run — so no stage handles a per-ball
//! ball array.
//!
//! Unbounded bins ([`Capacity::Infinite`], configured or raised by a fault)
//! are honored by growing the stride on demand: the arena re-lays itself
//! out with a doubled (power-of-two) stride, an `O(n · stride)` copy. Under
//! a finite configuration that only happens on a fault raising a bin past
//! the current stride — never in the steady state of the paper process.
//! Under CAPPED(∞, λ) the stride tracks the largest load any bin has ever
//! reached and never shrinks, so the arena holds `n` rings of that size.

use crate::ball::Ball;
use crate::config::Capacity;
use crate::obs;
use crate::pool::{expand, push_run, Run};
use crate::shard::ShardRoundStats;

/// Strides are initially clamped to this many slots, so a huge finite
/// capacity does not pre-commit memory that would almost never be used;
/// bins whose capacity exceeds the clamp grow the arena lazily on first
/// overflow.
const STRIDE_CLAMP: usize = 4096;

/// The largest ring size per bin. A bin holds at most `stride` balls, and
/// the register's 24-bit length field must hold a full ring; a state
/// that needs a larger ring is refused
/// ([`try_from_bins`](BinArena::try_from_bins)) or panics (growth).
pub const MAX_STRIDE: usize = 1 << 23;

/// Register field layout: length in bits 0..24, bound in 24..40, tail in
/// 40..64 (see the module docs).
const LEN_MASK: u64 = (1 << 24) - 1;
const BOUND_SHIFT: u32 = 24;
const BOUND_MAX: u64 = u16::MAX as u64;
const TAIL_SHIFT: u32 = 40;
/// Register increment of one accepted ball: length + 1, tail + 1.
const ACCEPT: u64 = 1 | 1 << TAIL_SHIFT;

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
/// capacity, clipped to the field. Never 0, so 0 can mean "offline".
fn bound_of(cap: Capacity) -> u64 {
    match cap {
        Capacity::Finite(c) => u64::from(c.get()).min(BOUND_MAX),
        Capacity::Infinite => BOUND_MAX,
    }
}

/// Whether a bin of capacity `cap` keeps the arena off `fast_accept`: its
/// accepted balls could outgrow a `stride` ring, or its bound is clipped.
fn blocks_fast_path(cap: Capacity, stride: usize) -> bool {
    match cap {
        Capacity::Finite(c) => c.get() as usize > stride.min(BOUND_MAX as usize),
        Capacity::Infinite => true,
    }
}

/// How many of `caps` [block the fast path](blocks_fast_path) at `stride`.
fn count_blocking(caps: &[Capacity], stride: usize) -> usize {
    caps.iter()
        .filter(|&&c| blocks_fast_path(c, stride))
        .count()
}

/// The initial stride for a set of capacities and pre-existing loads:
/// a power of two covering every load and every finite capacity up to the
/// [`STRIDE_CLAMP`].
fn initial_stride(caps: &[Capacity], max_len: usize) -> usize {
    let max_cap = caps
        .iter()
        .filter_map(|c| match c {
            Capacity::Finite(c) => Some(c.get() as usize),
            Capacity::Infinite => None,
        })
        .max()
        .unwrap_or(1);
    max_cap
        .min(STRIDE_CLAMP)
        .max(max_len)
        .max(1)
        .next_power_of_two()
}

/// All of a process's FIFO bin buffers in one contiguous slot arena (see
/// the module docs for the layout).
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
    /// Ring size per bin; always a power of two, at most [`MAX_STRIDE`].
    stride: usize,
    /// Bins whose live capacity [blocks the fast path](blocks_fast_path);
    /// [`fast_accept`] runs only while this is 0.
    blocking: usize,
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
            .expect("a bin holds more than MAX_STRIDE balls, or the arena cannot be allocated")
    }

    /// [`from_bins`](Self::from_bins) for states from outside input: the
    /// ring slots are allocated fallibly, so a forged load cannot abort
    /// the process. `None` if some bin holds more than [`MAX_STRIDE`]
    /// balls or the `n · stride` slots cannot be allocated.
    ///
    /// # Panics
    ///
    /// Panics if `caps` is empty or `contents` is longer than `caps`.
    pub fn try_from_bins(caps: Vec<Capacity>, contents: Vec<Vec<Ball>>) -> Option<Self> {
        assert!(!caps.is_empty(), "an arena needs at least one bin");
        assert!(contents.len() <= caps.len(), "more bin contents than bins");
        let max_len = contents.iter().map(Vec::len).max().unwrap_or(0);
        let stride = initial_stride(&caps, max_len);
        if stride > MAX_STRIDE {
            return None;
        }
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
        let blocking = count_blocking(&caps, stride);
        Some(BinArena {
            slots,
            regs,
            caps,
            stride,
            blocking,
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

    /// Whether [`fast_accept`] may run: no bin's live capacity exceeds
    /// the stride (or the bound field).
    #[inline]
    pub(crate) fn fast_path_open(&self) -> bool {
        self.blocking == 0
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
    /// live capacity clipped, or 0 while offline.
    #[inline]
    fn debug_check(&self, b: usize) {
        let bound = reg_bound(self.regs[b]);
        debug_assert!(
            bound == 0 || bound == bound_of(self.caps[b]),
            "bin {b}'s register bound {bound} is not its effective bound"
        );
    }

    /// Changes bin `b`'s live capacity (fault injection). Balls stored
    /// above a lowered capacity stay until served; the bin rejects new
    /// balls until it drains below the new bound. An offline bin stays
    /// offline.
    pub fn set_capacity(&mut self, b: usize, capacity: Capacity) {
        self.blocking -= usize::from(blocks_fast_path(self.caps[b], self.stride));
        self.blocking += usize::from(blocks_fast_path(capacity, self.stride));
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
    /// while offline). `usize::MAX` for unbounded bins — callers clamp
    /// against a request count before using it arithmetically.
    #[inline]
    pub fn room(&self, b: usize) -> usize {
        if self.is_offline(b) {
            return 0;
        }
        match self.caps[b] {
            Capacity::Finite(c) => (c.get() as usize).saturating_sub(self.len(b)),
            Capacity::Infinite => usize::MAX,
        }
    }

    /// Accepts `ball` into bin `b` if it is online and has room, growing
    /// the stride if a raised capacity lets the bin outgrow its ring.
    pub fn try_accept(&mut self, b: usize, ball: Ball) -> bool {
        if self.room(b) == 0 {
            return false;
        }
        self.ensure_stride(self.len(b) + 1);
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

    /// Ensures every bin's ring can hold `min_fill` balls, re-laying the
    /// arena out with a larger stride if not. No-op in the steady state;
    /// only capacity-raising faults (or restores of degraded checkpoints)
    /// ever trigger the copy.
    pub fn ensure_stride(&mut self, min_fill: usize) {
        if min_fill > self.stride {
            self.grow(min_fill);
        }
    }

    /// Appends a new online bin at the end of the arena, pre-loaded with
    /// `contents` (FIFO order, oldest first). Elastic membership: a fresh
    /// bin enters empty; a bin transferred from another shard arrives with
    /// its buffered balls.
    ///
    /// Like [`from_bins`](Self::from_bins), `contents` may legally exceed
    /// the live capacity (a degraded bin in flight keeps its overflow).
    ///
    /// # Panics
    ///
    /// Panics if the stride needed for `contents` exceeds [`MAX_STRIDE`].
    pub fn push_bin_with(&mut self, capacity: Capacity, contents: &[Ball]) {
        self.ensure_stride(contents.len());
        let b = self.bins();
        self.slots
            .resize((b + 1) * self.stride + 1, Ball::generated_in(0));
        self.slots[b * self.stride..b * self.stride + contents.len()].copy_from_slice(contents);
        self.regs
            .push(unwrapped(contents.len(), bound_of(capacity)));
        self.caps.push(capacity);
        self.blocking += usize::from(blocks_fast_path(capacity, self.stride));
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
        self.blocking -= usize::from(blocks_fast_path(cap, self.stride));
        self.slots.truncate(self.bins() * self.stride + 1);
        (cap, balls)
    }

    /// Re-lays the arena out with a stride of at least `needed` (at least
    /// doubled, kept a power of two), unwrapping every ring to `head = 0`.
    fn grow(&mut self, needed: usize) {
        if let Some(p) = obs::probes() {
            p.arena_grows.inc();
        }
        let new_stride = needed.max(self.stride * 2).next_power_of_two();
        assert!(new_stride <= MAX_STRIDE, "stride exceeds MAX_STRIDE");
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
        self.blocking = count_blocking(&self.caps, new_stride);
    }

    /// The deletion stage of one round: every online bin serves the head
    /// of its queue into `served`, in bin order. It reads each bin's
    /// register and, for a non-empty online bin, its head slot
    /// `(tail − len) & mask`, and decrements the length — one register
    /// read-modify-write per bin, whichever acceptance pass ran before.
    /// Returns the round's deletion statistics (`accepted` is left 0).
    pub(crate) fn serve_sweep<F: FnMut(usize, Ball)>(&mut self, mut served: F) -> ShardRoundStats {
        let mut stats = ShardRoundStats::default();
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
/// [`CappedProcess::bin`](crate::process::CappedProcess::bin) and
/// [`BinShard::bin`](crate::shard::BinShard::bin) hand out.
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

/// The single-pass fast path of the acceptance stage.
///
/// While no bin's capacity exceeds the stride (nor the 16-bit bound
/// field), every bin's fill is bounded by `max{ℓ, c} ≤ stride`, so no
/// accepted ball can outgrow its ring and the scatter needs no per-bin
/// setup. The arena keeps that condition as an O(1) count of blocking
/// bins.
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
/// Returns `None` **without touching the requests** while some bin blocks
/// the fast path — the caller must then run [`walk_accept`], which grows
/// the stride as it goes.
///
/// The caller must guarantee that `runs` holds exactly `choices.len()`
/// balls.
pub(crate) fn fast_accept(
    arena: &mut BinArena,
    choices: &[u32],
    runs: &[Run],
    rejected: &mut Vec<Run>,
) -> Option<u64> {
    debug_assert_eq!(
        arena.blocking,
        count_blocking(&arena.caps, arena.stride),
        "the fast-path count is stale"
    );
    if !arena.fast_path_open() {
        return bail();
    }
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
    Some(accepted)
}

/// The shared fast-path bail-out: counts the event (telemetry only) and
/// yields the `None` that sends the caller to [`walk_accept`].
#[cold]
fn bail() -> Option<u64> {
    if let Some(p) = obs::probes() {
        p.fast_accept_bailouts.inc();
    }
    None
}

/// The general acceptance pass: the per-ball greedy walk of
/// [`BinArena::try_accept`] over the requests in age order, growing the
/// stride whenever a bin outgrows its ring. It runs the rounds
/// [`fast_accept`] refuses — an unbounded bin, or a capacity raised past
/// the stride or the bound field — which no finite configuration reaches
/// without a fault.
///
/// `choices[i]` is the bin the `i`-th ball of `runs` (oldest first)
/// requests. Rejected balls are appended to `rejected` as runs, in age
/// order. Returns the number of accepted balls.
pub(crate) fn walk_accept(
    arena: &mut BinArena,
    choices: &[u32],
    runs: &[Run],
    rejected: &mut Vec<Run>,
) -> u64 {
    if let Some(p) = obs::probes() {
        p.fallback_rounds.inc();
    }
    let mut accepted = 0u64;
    for (&b, ball) in choices.iter().zip(expand(runs)) {
        if arena.try_accept(b as usize, ball) {
            accepted += 1;
        } else {
            push_run(rejected, ball.label(), 1);
        }
    }
    accepted
}

#[cfg(test)]
mod tests {
    use super::*;

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
        arena.set_capacity(3, Capacity::Infinite);
        for label in 4..20 {
            assert!(arena.try_accept(3, Ball::generated_in(label)));
        }
        assert!(arena.stride() >= 18);
        let labels: Vec<u64> = arena.iter_bin(3).map(Ball::label).collect();
        let expected: Vec<u64> = (2..20).collect();
        assert_eq!(labels, expected, "FIFO order survives the re-layout");
        assert_eq!(arena.len(0), 0);
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
    fn fast_accept_matches_walk_accept() {
        let (mut fast_arena, stream) = fixture();
        let (mut walk_arena, _) = fixture();
        let (choices, runs) = requests(&stream);
        let mut fast_rejected = Vec::new();
        let fast = fast_accept(&mut fast_arena, &choices, &runs, &mut fast_rejected)
            .expect("no capacity above the stride");
        let mut walk_rejected = Vec::new();
        let walked = walk_accept(&mut walk_arena, &choices, &runs, &mut walk_rejected);
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
        let accepted = fast_accept(&mut arena, &choices, &runs, &mut rejected).expect("fits");
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
    fn fast_accept_bails_out_on_possible_overflow() {
        // An unbounded (fault-raised) bin could outgrow its ring: the fast
        // path must refuse without consuming the stream or touching state.
        let mut arena = BinArena::new(vec![finite(2); 2]);
        arena.set_capacity(0, Capacity::Infinite);
        let stream: Vec<(usize, Ball)> = (0..40).map(|i| (0usize, Ball::generated_in(i))).collect();
        let (choices, runs) = requests(&stream);
        let mut rejected = Vec::new();
        assert_eq!(
            fast_accept(&mut arena, &choices, &runs, &mut rejected),
            None
        );
        assert!(rejected.is_empty());
        assert_eq!(arena.buffered(), 0);
        assert_eq!(arena.stride(), 2, "fast path must not grow the arena");
        // Restoring the capacity unblocks the fast path.
        arena.set_capacity(0, finite(2));
        assert!(fast_accept(&mut arena, &choices, &runs, &mut rejected).is_some());
    }

    #[test]
    fn fast_accept_bails_out_on_capacity_past_u16() {
        // Regression: a live capacity past 65535 does not fit the 16-bit
        // bound field, so it must take the walk even once the stride has
        // grown past it.
        let mut arena = BinArena::new(vec![finite(2); 2]);
        arena.set_capacity(0, finite(70_000));
        arena.ensure_stride(1 << 17);
        let stream: Vec<(usize, Ball)> = (0..10).map(|i| (0usize, Ball::generated_in(i))).collect();
        let (choices, runs) = requests(&stream);
        let mut rejected = Vec::new();
        let out = fast_accept(&mut arena, &choices, &runs, &mut rejected);
        assert_eq!(out, None, "capacity > u16::MAX must bail to the walk");
        assert!(rejected.is_empty());
        assert_eq!(arena.buffered(), 0, "bail must not consume the stream");

        // The walk handles the same stream exactly.
        let accepted = walk_accept(&mut arena, &choices, &runs, &mut rejected);
        assert_eq!(accepted, 10);
        assert!(rejected.is_empty());
        let labels: Vec<u64> = arena.iter_bin(0).map(Ball::label).collect();
        assert_eq!(labels, (0..10).collect::<Vec<u64>>());
    }

    #[test]
    fn walk_accept_grows_for_unbounded_bins() {
        let mut arena = BinArena::new(vec![finite(2); 2]);
        arena.set_capacity(0, Capacity::Infinite);
        let stream: Vec<(usize, Ball)> = (0..40).map(|i| (0usize, Ball::generated_in(i))).collect();
        let (choices, runs) = requests(&stream);
        let mut rejected = Vec::new();
        let accepted = walk_accept(&mut arena, &choices, &runs, &mut rejected);
        assert_eq!(accepted, 40);
        assert!(rejected.is_empty());
        assert_eq!(arena.len(0), 40);
        let labels: Vec<u64> = arena.iter_bin(0).map(Ball::label).collect();
        let expected: Vec<u64> = (0..40).collect();
        assert_eq!(labels, expected);
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
        let over = vec![vec![Ball::generated_in(0); MAX_STRIDE + 1]];
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
    fn push_and_pop_bins_preserve_contents_and_the_fast_path_count() {
        let mut arena = BinArena::new(vec![finite(2); 2]);
        assert!(arena.try_accept(1, Ball::generated_in(3)));
        assert_eq!(arena.blocking, 0);

        // A fresh bin enters empty, and a capacity within the stride keeps
        // the fast path open.
        arena.push_bin_with(finite(2), &[]);
        assert_eq!(arena.bins(), 3);
        assert_eq!(arena.blocking, 0);
        assert_eq!(arena.len(2), 0);

        // A transferred bin arrives with its balls in FIFO order.
        arena.push_bin_with(finite(2), &[Ball::generated_in(1), Ball::generated_in(4)]);
        assert_eq!(arena.len(3), 2);
        assert_eq!(arena.head(3), Some(&Ball::generated_in(1)));

        // A capacity past the stride blocks it; popping the bin reopens it.
        arena.push_bin_with(finite(7), &[]);
        assert_eq!(arena.blocking, 1);
        let (cap, balls) = arena.pop_bin();
        assert_eq!(cap, finite(7));
        assert!(balls.is_empty());
        assert_eq!(arena.blocking, 0);

        let (cap, balls) = arena.pop_bin();
        assert_eq!(cap, finite(2));
        assert_eq!(balls, vec![Ball::generated_in(1), Ball::generated_in(4)]);
        assert_eq!(arena.bins(), 3);
        assert_eq!(arena.buffered(), 1, "bin 1's ball survived the churn");
        assert_eq!(arena.head(1), Some(&Ball::generated_in(3)));
    }

    #[test]
    fn growth_recounts_the_bins_that_block_the_fast_path() {
        let mut arena = BinArena::new(vec![finite(2); 2]);
        arena.set_capacity(0, finite(5));
        assert_eq!(arena.blocking, 1);
        arena.ensure_stride(8);
        assert_eq!(arena.blocking, 0, "capacity 5 fits a stride-8 ring");
    }

    #[test]
    fn push_bin_grows_stride_for_oversized_contents() {
        let mut arena = BinArena::new(vec![finite(2); 2]);
        let stride = arena.stride();
        let big: Vec<Ball> = (1..=(stride as u64 + 1)).map(Ball::generated_in).collect();
        arena.push_bin_with(Capacity::Infinite, &big);
        assert!(arena.stride() > stride);
        let labels: Vec<u64> = arena.iter_bin(2).map(Ball::label).collect();
        let expected: Vec<u64> = (1..=(stride as u64 + 1)).collect();
        assert_eq!(labels, expected);
    }

    #[test]
    #[should_panic(expected = "cannot pop the last bin")]
    fn popping_the_last_bin_panics() {
        let mut arena = BinArena::new(vec![finite(2)]);
        arena.pop_bin();
    }
}
