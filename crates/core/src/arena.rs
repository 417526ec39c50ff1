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
//! - **`meta`** — one packed `u64` per bin holding `(head, len)` in the low
//!   and high 32 bits, so the deletion stage touches 8 sequential bytes per
//!   bin instead of a deque header in a random heap location;
//! - **`caps`** — the per-bin **live** capacity (fault injection may
//!   diverge it from the configured profile).
//!
//! On top of the layout, `counting_accept` implements the round kernel's
//! acceptance stage as a counting sort over bin indices: histogram the
//! per-bin request counts ν, clamp each against the bin's remaining room to
//! get the per-bin acceptance quota `min{c − ℓ, ν}`, then stably scatter
//! the age-ordered request stream — the first `quota[b]` requests of bin
//! `b` go to consecutive ring slots (the running per-bin cursor plays the
//! prefix-sum role of a classical counting sort), everything else is
//! rejected *in stream order*. Because the stream is age-ordered and
//! acceptance at a bin depends only on that bin's own request order, this
//! is bit-exactly Algorithm 1's "accept the oldest `min{c − ℓ, ν}`" rule,
//! and the rejects re-emerge in exact pool age order with zero sorting.
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

/// Strides are initially clamped to this many slots, so a huge finite
/// capacity does not pre-commit memory that would almost never be used;
/// bins whose capacity exceeds the clamp grow the arena lazily on first
/// overflow.
const STRIDE_CLAMP: usize = 4096;

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
    /// Packed per-bin ring state: head index in the low 32 bits, length in
    /// the high 32 bits.
    meta: Vec<u64>,
    /// Live per-bin capacities.
    caps: Vec<Capacity>,
    /// Ring size per bin; always a power of two.
    stride: usize,
    /// `Some(c)` while every live capacity is the same finite `c` — lets
    /// the acceptance fast path skip streaming `caps` entirely. Cleared by
    /// any diverging [`set_capacity`](Self::set_capacity).
    uniform_cap: Option<u32>,
}

#[inline]
fn unpack(meta: u64) -> (usize, usize) {
    ((meta & 0xFFFF_FFFF) as usize, (meta >> 32) as usize)
}

#[inline]
fn pack(head: usize, len: usize) -> u64 {
    (head as u64) | ((len as u64) << 32)
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

impl BinArena {
    /// Creates an arena of empty bins with the given live capacities.
    ///
    /// # Panics
    ///
    /// Panics if `caps` is empty or any stride bound exceeds `u32::MAX`.
    pub fn new(caps: Vec<Capacity>) -> Self {
        Self::from_bins(caps, Vec::new())
    }

    /// Rebuilds an arena from checkpointed per-bin contents (in FIFO
    /// order). `contents` may be shorter than `caps` (missing bins start
    /// empty), and bins may legally hold more balls than their live
    /// capacity allows (capacity degradation).
    ///
    /// # Panics
    ///
    /// Panics if `caps` is empty or `contents` is longer than `caps`.
    pub fn from_bins(caps: Vec<Capacity>, contents: Vec<Vec<Ball>>) -> Self {
        assert!(!caps.is_empty(), "an arena needs at least one bin");
        assert!(contents.len() <= caps.len(), "more bin contents than bins");
        let max_len = contents.iter().map(Vec::len).max().unwrap_or(0);
        let stride = initial_stride(&caps, max_len);
        assert!(stride <= u32::MAX as usize, "stride exceeds u32 range");
        let bins = caps.len();
        let mut slots = vec![Ball::generated_in(0); bins * stride + 1];
        let mut meta = vec![0u64; bins];
        for (b, balls) in contents.iter().enumerate() {
            slots[b * stride..b * stride + balls.len()].copy_from_slice(balls);
            meta[b] = pack(0, balls.len());
        }
        let uniform_cap = match caps[0] {
            Capacity::Finite(c0) if caps.iter().all(|&c| c == Capacity::Finite(c0)) => {
                Some(c0.get())
            }
            _ => None,
        };
        BinArena {
            slots,
            meta,
            caps,
            stride,
            uniform_cap,
        }
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.meta.len()
    }

    /// The current ring size per bin (exposed for tests and diagnostics).
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Current load of bin `b`.
    #[inline]
    pub fn len(&self, b: usize) -> usize {
        unpack(self.meta[b]).1
    }

    /// Live capacity of bin `b`.
    #[inline]
    pub fn capacity(&self, b: usize) -> Capacity {
        self.caps[b]
    }

    /// Changes bin `b`'s live capacity (fault injection). Balls stored
    /// above a lowered capacity stay until served; the bin rejects new
    /// balls until it drains below the new bound.
    pub fn set_capacity(&mut self, b: usize, capacity: Capacity) {
        self.caps[b] = capacity;
        match (self.uniform_cap, capacity) {
            (Some(u), Capacity::Finite(c)) if c.get() == u => {}
            _ => self.uniform_cap = None,
        }
    }

    /// Remaining room of bin `b`: how many more balls it may accept.
    /// `usize::MAX` for unbounded bins — callers clamp against a request
    /// count before using it arithmetically.
    #[inline]
    pub fn room(&self, b: usize) -> usize {
        let len = self.len(b);
        match self.caps[b] {
            Capacity::Finite(c) => (c.get() as usize).saturating_sub(len),
            Capacity::Infinite => usize::MAX,
        }
    }

    /// Accepts `ball` into bin `b` if there is room, growing the stride if
    /// a raised capacity lets the bin outgrow its ring.
    pub fn try_accept(&mut self, b: usize, ball: Ball) -> bool {
        let (head, len) = unpack(self.meta[b]);
        if !self.caps[b].has_room(len) {
            return false;
        }
        if len == self.stride {
            self.grow(len + 1);
            return self.try_accept(b, ball);
        }
        let idx = b * self.stride + ((head + len) & (self.stride - 1));
        self.slots[idx] = ball;
        self.meta[b] = pack(head, len + 1);
        true
    }

    /// Serves (deletes) bin `b`'s first-accepted ball, if any — Algorithm
    /// 1's FIFO deletion.
    #[inline]
    pub fn serve(&mut self, b: usize) -> Option<Ball> {
        let (head, len) = unpack(self.meta[b]);
        if len == 0 {
            return None;
        }
        let ball = self.slots[b * self.stride + head];
        self.meta[b] = pack((head + 1) & (self.stride - 1), len - 1);
        Some(ball)
    }

    /// The ball bin `b` would serve next, if any.
    pub fn head(&self, b: usize) -> Option<&Ball> {
        let (head, len) = unpack(self.meta[b]);
        if len == 0 {
            return None;
        }
        Some(&self.slots[b * self.stride + head])
    }

    /// Bin `b`'s balls as two slices in FIFO order (front first), like
    /// [`VecDeque::as_slices`](std::collections::VecDeque::as_slices).
    pub fn as_slices(&self, b: usize) -> (&[Ball], &[Ball]) {
        let (head, len) = unpack(self.meta[b]);
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
        self.meta.iter().map(|&m| unpack(m).1).sum()
    }

    /// Writes `ball` into bin `b`'s ring at `offset` slots past its current
    /// tail **without** updating the length — the scatter half of the
    /// counting-sort acceptance pass. Call [`add_len`](Self::add_len) once
    /// per bin afterwards to commit. The caller must have sized the stride
    /// (via [`ensure_stride`](Self::ensure_stride)) so `len + offset`
    /// fits.
    #[inline]
    pub fn place(&mut self, b: usize, offset: usize, ball: Ball) {
        let (head, len) = unpack(self.meta[b]);
        debug_assert!(len + offset < self.stride, "scatter past ring bounds");
        let idx = b * self.stride + ((head + len + offset) & (self.stride - 1));
        self.slots[idx] = ball;
    }

    /// Commits `extra` balls previously written via [`place`](Self::place)
    /// to bin `b`'s length.
    #[inline]
    pub fn add_len(&mut self, b: usize, extra: usize) {
        let (head, len) = unpack(self.meta[b]);
        debug_assert!(len + extra <= self.stride, "commit past ring bounds");
        self.meta[b] = pack(head, len + extra);
    }

    /// `Some(c)` while every live capacity is the same finite `c` (the
    /// paper configuration) — the acceptance/commit fast paths key off
    /// this to skip streaming `caps` and the quota scratch entirely.
    #[inline]
    pub(crate) fn uniform_cap(&self) -> Option<u32> {
        self.uniform_cap
    }

    /// Commits `extra` balls previously written via the scatter pass to
    /// bin `b`'s length, then serves (FIFO-deletes) the bin's head ball if
    /// it has one — the fused commit + deletion step of the round kernel,
    /// one meta read-modify-write per bin instead of two.
    #[inline]
    pub fn commit_serve(&mut self, b: usize, extra: usize) -> Option<Ball> {
        let (head, len) = unpack(self.meta[b]);
        let len = len + extra;
        debug_assert!(len <= self.stride, "commit past ring bounds");
        if len == 0 {
            return None;
        }
        let ball = self.slots[b * self.stride + head];
        self.meta[b] = pack((head + 1) & (self.stride - 1), len - 1);
        Some(ball)
    }

    /// The uniform-capacity form of [`commit_serve`](Self::commit_serve):
    /// the number of balls the scatter accepted is recomputed from the
    /// bin's (still pre-accept) length as `(c₀ − ℓ) − remaining`, so the
    /// caller needs no quota scratch at all. Returns the served ball plus
    /// the bin's post-serve `(len, tail)` — exactly what the caller needs
    /// to prime the next round's acceptance register.
    ///
    /// Only valid for online bins of a uniformly-`c₀`-capacitated arena
    /// whose `remaining` came from this round's [`fast_accept`] register.
    #[inline]
    pub(crate) fn commit_serve_uniform(
        &mut self,
        b: usize,
        c0: u32,
        remaining: u32,
    ) -> (Option<Ball>, u32, u32) {
        let mask = self.stride - 1;
        let (head, len_pre) = unpack(self.meta[b]);
        let taken = (c0 as usize).saturating_sub(len_pre) - remaining as usize;
        let len = len_pre + taken;
        debug_assert!(len <= self.stride, "commit past ring bounds");
        if len == 0 {
            return (None, 0, head as u32);
        }
        let ball = self.slots[b * self.stride + head];
        let head = (head + 1) & mask;
        let len = len - 1;
        self.meta[b] = pack(head, len);
        (Some(ball), len as u32, ((head + len) & mask) as u32)
    }

    /// Post-serve `(len, tail)` of bin `b` without serving — the
    /// offline-bin counterpart of
    /// [`commit_serve_uniform`](Self::commit_serve_uniform), used to keep
    /// priming the acceptance registers of bins that are skipped by the
    /// deletion stage.
    #[inline]
    pub(crate) fn len_tail(&self, b: usize) -> (u32, u32) {
        let (head, len) = unpack(self.meta[b]);
        (len as u32, ((head + len) & (self.stride - 1)) as u32)
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

    /// Appends a new bin at the end of the arena, pre-loaded with
    /// `contents` (FIFO order, oldest first). Elastic membership: a fresh
    /// bin enters empty with its full capacity as acceptance quota; a bin
    /// transferred from another shard arrives with its buffered balls.
    ///
    /// Like [`from_bins`](Self::from_bins), `contents` may legally exceed
    /// the live capacity (a degraded bin in flight keeps its overflow).
    ///
    /// # Panics
    ///
    /// Panics if the stride needed for `contents` exceeds `u32::MAX`.
    pub fn push_bin_with(&mut self, capacity: Capacity, contents: &[Ball]) {
        self.ensure_stride(contents.len());
        let b = self.bins();
        self.slots
            .resize((b + 1) * self.stride + 1, Ball::generated_in(0));
        self.slots[b * self.stride..b * self.stride + contents.len()].copy_from_slice(contents);
        self.meta.push(pack(0, contents.len()));
        self.caps.push(capacity);
        match (self.uniform_cap, capacity) {
            (Some(c0), Capacity::Finite(c)) if c.get() == c0 => {}
            _ => self.uniform_cap = None,
        }
    }

    /// Removes the arena's **last** bin and returns its live capacity and
    /// buffered balls (FIFO order). Membership shrinks from the top of the
    /// index space so surviving bin indices never shift.
    ///
    /// Removing a bin can only make the capacity set *more* uniform, so
    /// the uniform-capacity fast-path flag is re-derived here (it may
    /// come back after a heterogeneous bin leaves).
    ///
    /// # Panics
    ///
    /// Panics if the arena holds a single bin (an arena is never empty).
    pub fn pop_bin(&mut self) -> (Capacity, Vec<Ball>) {
        assert!(self.bins() > 1, "cannot pop the last bin");
        let b = self.bins() - 1;
        let balls: Vec<Ball> = self.iter_bin(b).copied().collect();
        self.meta.pop();
        let cap = self.caps.pop().expect("non-empty arena");
        self.slots.truncate(self.bins() * self.stride + 1);
        self.uniform_cap = match self.caps[0] {
            Capacity::Finite(c0) if self.caps.iter().all(|&c| c == Capacity::Finite(c0)) => {
                Some(c0.get())
            }
            _ => None,
        };
        (cap, balls)
    }

    /// Re-lays the arena out with a stride of at least `needed` (at least
    /// doubled, kept a power of two), unwrapping every ring to `head = 0`.
    fn grow(&mut self, needed: usize) {
        if let Some(p) = obs::probes() {
            p.arena_grows.inc();
        }
        let new_stride = needed.max(self.stride * 2).next_power_of_two();
        assert!(new_stride <= u32::MAX as usize, "stride exceeds u32 range");
        let bins = self.bins();
        let mut slots = vec![Ball::generated_in(0); bins * new_stride + 1];
        for b in 0..bins {
            let (head, len) = unpack(self.meta[b]);
            let old_base = b * self.stride;
            let first = (self.stride - head).min(len);
            let new_base = b * new_stride;
            slots[new_base..new_base + first]
                .copy_from_slice(&self.slots[old_base + head..old_base + head + first]);
            slots[new_base + first..new_base + len]
                .copy_from_slice(&self.slots[old_base..old_base + (len - first)]);
            self.meta[b] = pack(0, len);
        }
        self.slots = slots;
        self.stride = new_stride;
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

/// The single-pass fast path of the counting-sort acceptance stage.
///
/// The classical formulation ([`counting_accept`]) histograms the request
/// stream first so it can bound every bin's post-accept fill before any
/// slot is written. That histogram is only ever *needed* when a bin could
/// outgrow its ring — a fault raising a capacity past the stride. In the
/// steady state every bin's quota is already capped by `capacity − len ≤
/// stride − len`, so the histogram pass (a full extra random-access sweep
/// over the stream) computes information the capacities alone imply.
///
/// This routine therefore fuses histogram and prefix sum into one packed
/// per-bin `u32` register, `state[b] = (remaining quota) << 16 | (next
/// ring offset)`, initialized by a sequential sweep over the bin metadata
/// (the `u16` fields are valid because the fast path only runs while
/// `stride ≤ 2¹⁵`, and a quota never exceeds the free ring space):
///
/// - `remaining quota` starts at the bin's room `c − ℓ` (0 for offline
///   bins; `#requests` for a fault-raised unbounded bin that still fits) —
///   the acceptance bound with ν replaced by its upper bound;
/// - `next ring offset` starts at the bin's tail, `(head + len) & mask`.
///
/// The scatter is then a **single branch-free pass** in age order: one
/// register read-modify-write per request. With `acc = (quota != 0)`, the
/// ball is written to the tail slot `b·stride + cursor` on accept and to
/// the arena's one guard slot (after the last ring, never read) on
/// reject; the quota drops by `acc` and the cursor advances by `acc`; the
/// ball is pushed to `rejected` and the push is undone when `acc` holds,
/// so rejects stay in stream order. About 40% of throws are rejected at
/// the paper's cell, so a branch on `acc` would mispredict constantly;
/// selecting the slot index and the `rejected` length arithmetically
/// costs no more than the accept arm alone. Accepting the first
/// `min{c − ℓ, ν}` requests of each bin this way is bit-exactly the
/// greedy oldest-first rule — the register is the running per-bin prefix
/// sum of a counting sort, computed online instead of ahead of time.
///
/// **The scatter does not update ring lengths.** On `Some`, the caller
/// must fold the per-bin accepted counts into the arena before it is
/// next read — the shard's deletion sweep does so while it serves. For a
/// uniformly-capacitated arena the count is recomputed from the (still
/// pre-accept) bin metadata by [`BinArena::commit_serve_uniform`], no
/// quota scratch involved; otherwise the count is
/// `quotas[b] − state[b] >> 16`, folded in by [`BinArena::commit_serve`].
///
/// Returns `None` **without consuming the stream** if some bin's quota
/// could overflow its ring (`ℓ + quota > stride`, possible only after a
/// fault raised a live capacity past the stride) or the stride outgrew
/// the `u16` register fields — in which case the caller must rerun
/// through [`counting_accept`], whose exact histogram sizes the growth.
/// `state` and `quotas` are round-persistent scratch (resized to the bin
/// count, contents ignored on entry); `quotas` is only written for
/// non-uniform capacity profiles.
///
/// `primed` asserts that `state` already holds every bin's register —
/// the caller's previous commit sweep wrote them (see
/// [`commit_serve_uniform`](BinArena::commit_serve_uniform)) and nothing
/// has touched the arena, the offline mask, or the capacities since. The
/// whole init sweep is skipped; steady-state rounds thus make exactly
/// one pass over the bins (the fused commit + serve + re-prime sweep)
/// besides the scatter itself.
///
/// The caller must guarantee `max_requests` bounds the stream length.
#[allow(clippy::too_many_arguments)]
pub(crate) fn fast_accept<I>(
    arena: &mut BinArena,
    offline: &[bool],
    state: &mut Vec<u32>,
    quotas: &mut Vec<u32>,
    max_requests: usize,
    requests: I,
    rejected: &mut Vec<Ball>,
    primed: bool,
) -> Option<u64>
where
    I: Iterator<Item = (usize, Ball)>,
{
    let n = offline.len();
    debug_assert_eq!(n, arena.bins());
    let stride = arena.stride;
    if stride > 1 << 15 {
        return bail(); // register fields are u16; only fault growth gets here
    }
    let mask = stride - 1;

    // Init sweep: pure sequential reads of meta (+ caps only for
    // non-uniform capacity profiles) and offline. Entries are written
    // unconditionally, so the resize never needs to zero re-used length.
    // A primed caller did all of this during its previous commit sweep.
    if primed {
        debug_assert_eq!(state.len(), n);
        debug_assert!(arena.uniform_cap.is_some(), "only uniform arenas prime");
    } else {
        if state.len() != n {
            state.resize(n, 0);
        }
        let uniform = arena.uniform_cap;
        if uniform.is_none() && quotas.len() != n {
            quotas.resize(n, 0);
        }
        for b in 0..n {
            let (head, len) = unpack(arena.meta[b]);
            let avail = stride - len;
            let room = if offline[b] {
                0
            } else if let Some(c0) = uniform {
                let r = (c0 as usize).saturating_sub(len);
                if r > avail {
                    return bail(); // capacity above the clamped stride
                }
                r
            } else {
                match arena.caps[b] {
                    Capacity::Finite(c) => {
                        let r = (c.get() as usize).saturating_sub(len);
                        if r > avail {
                            return bail();
                        }
                        r
                    }
                    Capacity::Infinite => {
                        if max_requests > avail {
                            return bail(); // unbounded bin could outgrow the ring
                        }
                        max_requests
                    }
                }
            };
            // The stride bail above implies `room ≤ avail ≤ stride ≤ 2¹⁵`,
            // but the quota field is a u16: guard explicitly so a
            // fault-raised capacity can never corrupt the packed cursor
            // bits if the stride invariant ever loosens.
            if room > u16::MAX as usize {
                return bail();
            }
            state[b] = ((room as u32) << 16) | (((head + len) & mask) as u32);
            if uniform.is_none() {
                quotas[b] = room as u32;
            }
        }
    }

    // Scatter: the only random-access pass. One register RMW per request;
    // the per-request accesses are mutually independent, so the
    // out-of-order core overlaps their cache misses on its own — an
    // explicit software-prefetch stage was measured slower here. A reject
    // is written to the guard slot, never to its bin's tail slot: a full
    // ring's tail is its head.
    let guard = arena.slots.len() - 1;
    let mut accepted = 0u64;
    for (b, ball) in requests {
        let s = state[b];
        let acc = s >> 16 != 0;
        let cur = (s & 0xFFFF) as usize;
        let keep = (acc as usize).wrapping_neg();
        arena.slots[((b * stride + cur) & keep) | (guard & !keep)] = ball;
        state[b] = ((s >> 16) - acc as u32) << 16 | (((cur + acc as usize) & mask) as u32);
        accepted += acc as u64;
        rejected.push(ball);
        rejected.truncate(rejected.len() - acc as usize);
    }
    if let Some(p) = obs::probes() {
        p.fast_accept_rounds.inc();
    }
    Some(accepted)
}

/// The shared fast-path bail-out: counts the event (telemetry only) and
/// yields the `None` that sends the caller to [`counting_accept`].
#[cold]
fn bail() -> Option<u64> {
    if let Some(p) = obs::probes() {
        p.fast_accept_bailouts.inc();
    }
    None
}

/// The exact-histogram form of the counting-sort acceptance pass (see the
/// module docs for the argument that this is bit-exactly the per-ball
/// greedy rule). [`fast_accept`] is the steady-state fast path; this form
/// is the general one — its per-bin request histogram ν bounds every
/// post-accept fill exactly, so it can grow the arena for bins whose
/// capacity was fault-raised past the current stride.
///
/// `requests` yields `(bin, ball)` pairs in **age order** and is iterated
/// twice (histogram, then scatter), hence `Clone`. Rejected balls are
/// appended to `rejected` in stream order. `counts` and `quotas` are
/// round-persistent scratch vectors (resized to the bin count, contents
/// ignored on entry). Returns the number of accepted balls.
///
/// The caller must guarantee the stream holds at most `u32::MAX` requests
/// (the histogram counts in `u32`).
pub(crate) fn counting_accept<I>(
    arena: &mut BinArena,
    offline: &[bool],
    counts: &mut Vec<u32>,
    quotas: &mut Vec<u32>,
    requests: I,
    rejected: &mut Vec<Ball>,
) -> u64
where
    I: Iterator<Item = (usize, Ball)> + Clone,
{
    let n = offline.len();
    debug_assert_eq!(n, arena.bins());
    if let Some(p) = obs::probes() {
        p.fallback_rounds.inc();
    }

    // Pass 1: per-bin request histogram ν.
    counts.clear();
    counts.resize(n, 0);
    for (b, _) in requests.clone() {
        counts[b] += 1;
    }

    // Per-bin acceptance quotas min{c − ℓ, ν} (0 for offline bins), the
    // total accepted count, and the largest post-accept fill — the one
    // place a capacity-raising fault can force a stride growth, detected
    // *before* any slot is written. `counts` is zeroed as it is read so it
    // can serve as the scatter cursor below.
    quotas.clear();
    quotas.resize(n, 0);
    let mut accepted = 0u64;
    let mut max_fill = 0usize;
    for b in 0..n {
        let requested = counts[b];
        counts[b] = 0;
        if requested == 0 || offline[b] {
            continue;
        }
        let quota = arena.room(b).min(requested as usize) as u32;
        if quota == 0 {
            continue;
        }
        quotas[b] = quota;
        accepted += u64::from(quota);
        max_fill = max_fill.max(arena.len(b) + quota as usize);
    }
    arena.ensure_stride(max_fill);

    // Pass 2: stable scatter. The first quota[b] requests of bin b land in
    // consecutive ring slots; everything else is rejected in stream order,
    // i.e. exact age order.
    for (b, ball) in requests {
        let taken = counts[b];
        if taken < quotas[b] {
            counts[b] = taken + 1;
            arena.place(b, taken as usize, ball);
        } else {
            rejected.push(ball);
        }
    }
    for (b, &quota) in quotas.iter().enumerate() {
        if quota > 0 {
            arena.add_len(b, quota as usize);
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

    #[test]
    fn counting_accept_matches_scalar_greedy() {
        // Bin 0 full, bin 1 has room for one, bin 2 offline, bin 3 open.
        let caps = vec![finite(1), finite(2), finite(4), finite(4)];
        let contents = vec![
            vec![Ball::generated_in(1)],
            vec![Ball::generated_in(1)],
            Vec::new(),
        ];
        let mut arena = BinArena::from_bins(caps.clone(), contents.clone());
        let offline = [false, false, true, false];
        let stream: Vec<(usize, Ball)> = vec![
            (0, Ball::generated_in(2)), // bin 0 full -> reject
            (1, Ball::generated_in(2)), // fills bin 1
            (1, Ball::generated_in(3)), // over quota -> reject
            (2, Ball::generated_in(3)), // offline -> reject
            (3, Ball::generated_in(3)),
            (3, Ball::generated_in(4)),
        ];
        let mut counts = Vec::new();
        let mut quotas = Vec::new();
        let mut rejected = Vec::new();
        let accepted = counting_accept(
            &mut arena,
            &offline,
            &mut counts,
            &mut quotas,
            stream.iter().copied(),
            &mut rejected,
        );

        // Reference: the per-ball greedy try_accept walk over the same stream.
        let mut reference = BinArena::from_bins(caps, contents);
        let mut ref_rejected = Vec::new();
        let mut ref_accepted = 0u64;
        for &(b, ball) in &stream {
            if !offline[b] && reference.try_accept(b, ball) {
                ref_accepted += 1;
            } else {
                ref_rejected.push(ball);
            }
        }

        assert_eq!(accepted, ref_accepted);
        assert_eq!(rejected, ref_rejected);
        for b in 0..4 {
            let kernel: Vec<u64> = arena.iter_bin(b).map(Ball::label).collect();
            let scalar: Vec<u64> = reference.iter_bin(b).map(Ball::label).collect();
            assert_eq!(kernel, scalar, "bin {b}");
        }
    }

    #[test]
    fn fast_accept_matches_counting_accept() {
        // Same fixture as `counting_accept_matches_scalar_greedy`: full,
        // partially full, offline, and open bins.
        let caps = vec![finite(1), finite(2), finite(4), finite(4)];
        let contents = vec![
            vec![Ball::generated_in(1)],
            vec![Ball::generated_in(1)],
            Vec::new(),
        ];
        let offline = [false, false, true, false];
        let stream: Vec<(usize, Ball)> = vec![
            (0, Ball::generated_in(2)),
            (1, Ball::generated_in(2)),
            (1, Ball::generated_in(3)),
            (2, Ball::generated_in(3)),
            (3, Ball::generated_in(3)),
            (3, Ball::generated_in(4)),
        ];

        let mut fast_arena = BinArena::from_bins(caps.clone(), contents.clone());
        let (mut state, mut quotas, mut fast_rejected) = (Vec::new(), Vec::new(), Vec::new());
        let fast = fast_accept(
            &mut fast_arena,
            &offline,
            &mut state,
            &mut quotas,
            stream.len(),
            stream.iter().copied(),
            &mut fast_rejected,
            false,
        )
        .expect("no ring overflow possible");

        let mut exact_arena = BinArena::from_bins(caps, contents);
        let (mut counts, mut equotas, mut exact_rejected) = (Vec::new(), Vec::new(), Vec::new());
        let exact = counting_accept(
            &mut exact_arena,
            &offline,
            &mut counts,
            &mut equotas,
            stream.iter().copied(),
            &mut exact_rejected,
        );

        assert_eq!(fast, exact);
        assert_eq!(fast_rejected, exact_rejected);
        for b in 0..4 {
            // The fused commit + serve folds the fast path's accepted count
            // in; the exact pass already committed its lengths.
            let taken = (quotas[b] - (state[b] >> 16)) as usize;
            assert_eq!(
                fast_arena.commit_serve(b, taken),
                exact_arena.serve(b),
                "served from bin {b}"
            );
            let f: Vec<u64> = fast_arena.iter_bin(b).map(Ball::label).collect();
            let e: Vec<u64> = exact_arena.iter_bin(b).map(Ball::label).collect();
            assert_eq!(f, e, "bin {b}");
        }
    }

    #[test]
    fn fast_accept_wraps_the_ring() {
        // Head away from 0 so accepted balls must wrap around the ring.
        let mut arena = BinArena::new(vec![finite(2); 1]);
        assert_eq!(arena.stride(), 2);
        arena.try_accept(0, Ball::generated_in(1));
        arena.try_accept(0, Ball::generated_in(2));
        arena.serve(0); // head = 1, len = 1
        let stream = [(0usize, Ball::generated_in(3))];
        let (mut state, mut quotas, mut rejected) = (Vec::new(), Vec::new(), Vec::new());
        let accepted = fast_accept(
            &mut arena,
            &[false],
            &mut state,
            &mut quotas,
            stream.len(),
            stream.iter().copied(),
            &mut rejected,
            false,
        )
        .expect("fits");
        assert_eq!(accepted, 1);
        assert!(rejected.is_empty());
        let (served, len, _) = arena.commit_serve_uniform(0, 2, state[0] >> 16);
        assert_eq!(served, Some(Ball::generated_in(2)));
        assert_eq!(len, 1);
        let labels: Vec<u64> = arena.iter_bin(0).map(Ball::label).collect();
        assert_eq!(labels, vec![3], "the accepted ball wrapped to slot 0");
    }

    #[test]
    fn primed_fast_accept_matches_cold_init() {
        // Run one cold round, commit + re-prime through
        // commit_serve_uniform, then check a primed round produces exactly
        // the same acceptances, rejects, and ring contents as a cold one.
        let caps = vec![finite(2); 4];
        let offline = [false, false, false, false];
        let round1: Vec<(usize, Ball)> = vec![
            (0, Ball::generated_in(1)),
            (0, Ball::generated_in(1)),
            (2, Ball::generated_in(1)),
        ];
        let round2: Vec<(usize, Ball)> = vec![
            (0, Ball::generated_in(2)), // bin 0: 1 held + room 1 -> accept
            (0, Ball::generated_in(2)), // over quota -> reject
            (3, Ball::generated_in(2)),
        ];

        let run = |primed_second_round: bool| {
            let mut arena = BinArena::new(caps.clone());
            let (mut state, mut quotas) = (Vec::new(), Vec::new());
            let mut rejected = Vec::new();
            fast_accept(
                &mut arena,
                &offline,
                &mut state,
                &mut quotas,
                round1.len(),
                round1.iter().copied(),
                &mut rejected,
                false,
            )
            .expect("fits");
            // Fused commit + serve + re-prime, as the process kernel does.
            for (b, s) in state.iter_mut().enumerate() {
                let (_, len, tail) = arena.commit_serve_uniform(b, 2, *s >> 16);
                *s = ((2 - len) << 16) | tail;
            }
            rejected.clear();
            let accepted = fast_accept(
                &mut arena,
                &offline,
                &mut state,
                &mut quotas,
                round2.len(),
                round2.iter().copied(),
                &mut rejected,
                primed_second_round,
            )
            .expect("fits");
            let mut served = Vec::new();
            for (b, &s) in state.iter().enumerate() {
                let (ball, _, _) = arena.commit_serve_uniform(b, 2, s >> 16);
                served.push(ball);
            }
            let bins: Vec<Vec<u64>> = (0..4)
                .map(|b| arena.iter_bin(b).map(Ball::label).collect())
                .collect();
            (accepted, rejected, served, bins)
        };

        assert_eq!(run(true), run(false));
    }

    #[test]
    fn fast_accept_bails_out_on_possible_overflow() {
        // An unbounded (fault-raised) bin could outgrow its ring: the fast
        // path must refuse without consuming the stream or touching state.
        let mut arena = BinArena::new(vec![finite(2); 2]);
        arena.set_capacity(0, Capacity::Infinite);
        let stream: Vec<(usize, Ball)> = (0..40).map(|i| (0usize, Ball::generated_in(i))).collect();
        let (mut state, mut quotas, mut rejected) = (Vec::new(), Vec::new(), Vec::new());
        let out = fast_accept(
            &mut arena,
            &[false, false],
            &mut state,
            &mut quotas,
            stream.len(),
            stream.iter().copied(),
            &mut rejected,
            false,
        );
        assert_eq!(out, None);
        assert!(rejected.is_empty());
        assert_eq!(arena.buffered(), 0);
        assert_eq!(arena.stride(), 2, "fast path must not grow the arena");
    }

    #[test]
    fn fast_accept_bails_out_on_capacity_past_u16() {
        // Regression: a fault raising a live capacity past 65535 must take
        // the counting_accept fallback — a quota that large cannot be
        // packed into the u16 high half of the (quota << 16 | cursor)
        // register without corrupting the cursor bits.
        let mut arena = BinArena::new(vec![finite(2); 2]);
        arena.set_capacity(0, finite(70_000));
        let stream: Vec<(usize, Ball)> = (0..10).map(|i| (0usize, Ball::generated_in(i))).collect();
        let (mut state, mut quotas, mut rejected) = (Vec::new(), Vec::new(), Vec::new());
        let out = fast_accept(
            &mut arena,
            &[false, false],
            &mut state,
            &mut quotas,
            stream.len(),
            stream.iter().copied(),
            &mut rejected,
            false,
        );
        assert_eq!(out, None, "quota > u16::MAX must bail to counting_accept");
        assert!(rejected.is_empty());
        assert_eq!(arena.buffered(), 0, "bail must not consume the stream");

        // The fallback handles the same stream exactly.
        let (mut counts, mut fquotas, mut frejected) = (Vec::new(), Vec::new(), Vec::new());
        let accepted = counting_accept(
            &mut arena,
            &[false, false],
            &mut counts,
            &mut fquotas,
            stream.iter().copied(),
            &mut frejected,
        );
        assert_eq!(accepted, 10);
        assert!(frejected.is_empty());
        let labels: Vec<u64> = arena.iter_bin(0).map(Ball::label).collect();
        assert_eq!(labels, (0..10).collect::<Vec<u64>>());
    }

    #[test]
    fn counting_accept_grows_for_unbounded_bins() {
        let mut arena = BinArena::new(vec![finite(2); 2]);
        arena.set_capacity(0, Capacity::Infinite);
        let stream: Vec<(usize, Ball)> = (0..40).map(|i| (0usize, Ball::generated_in(i))).collect();
        let (mut counts, mut quotas, mut rejected) = (Vec::new(), Vec::new(), Vec::new());
        let accepted = counting_accept(
            &mut arena,
            &[false, false],
            &mut counts,
            &mut quotas,
            stream.iter().copied(),
            &mut rejected,
        );
        assert_eq!(accepted, 40);
        assert!(rejected.is_empty());
        assert_eq!(arena.len(0), 40);
        let labels: Vec<u64> = arena.iter_bin(0).map(Ball::label).collect();
        let expected: Vec<u64> = (0..40).collect();
        assert_eq!(labels, expected);
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
    fn push_and_pop_bins_preserve_contents_and_uniform_flag() {
        let mut arena = BinArena::new(vec![finite(2); 2]);
        assert!(arena.try_accept(1, Ball::generated_in(3)));
        assert_eq!(arena.uniform_cap(), Some(2));

        // A fresh uniform bin keeps the fast-path flag.
        arena.push_bin_with(finite(2), &[]);
        assert_eq!(arena.bins(), 3);
        assert_eq!(arena.uniform_cap(), Some(2));
        assert_eq!(arena.len(2), 0);

        // A transferred bin arrives with its balls in FIFO order.
        arena.push_bin_with(finite(2), &[Ball::generated_in(1), Ball::generated_in(4)]);
        assert_eq!(arena.len(3), 2);
        assert_eq!(arena.head(3), Some(&Ball::generated_in(1)));

        // A heterogeneous bin drops the flag; popping it restores it.
        arena.push_bin_with(finite(7), &[]);
        assert_eq!(arena.uniform_cap(), None);
        let (cap, balls) = arena.pop_bin();
        assert_eq!(cap, finite(7));
        assert!(balls.is_empty());
        assert_eq!(arena.uniform_cap(), Some(2));

        let (cap, balls) = arena.pop_bin();
        assert_eq!(cap, finite(2));
        assert_eq!(balls, vec![Ball::generated_in(1), Ball::generated_in(4)]);
        assert_eq!(arena.bins(), 3);
        assert_eq!(arena.buffered(), 1, "bin 1's ball survived the churn");
        assert_eq!(arena.head(1), Some(&Ball::generated_in(3)));
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
