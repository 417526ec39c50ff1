//! The pool of balls awaiting allocation, held as label runs.
//!
//! Algorithm 1 sees a pooled ball only through its label, the round that
//! generated it: balls with equal labels are interchangeable, and the
//! acceptance rule "accept the oldest min{c − ℓ, ν}" compares labels only.
//! The pool is therefore stored as a list of [`Run`]s `(label, count)`,
//! oldest first, not one [`Ball`] per pooled ball. The runs are the
//! survivor counts of the paper's waiting-time analysis in difference
//! form: the run of label `t′` holds the `m(t, t′) − m(t, t′ − 1)` pooled
//! balls generated in round `t′`, so the prefix sums over the runs are
//! the survivor counts `m(t, t′)` ([`Pool::survivors_from`]).
//!
//! The runs are kept in **canonical form**: labels strictly ascending,
//! every count positive, equal labels merged. Two pools holding the same
//! balls therefore compare equal, and a round's thrown balls — one run per
//! label — are the batches of the batched-allocation model.

use iba_sim::stats::Histogram;

use crate::ball::Ball;

/// `count` pooled balls that all carry the generation round `label`.
///
/// # Examples
///
/// ```
/// use iba_core::pool::Run;
/// let run = Run::new(4, 3);
/// assert_eq!(run.ball().label(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Run {
    /// The generation round every ball of the run carries.
    pub label: u64,
    /// How many balls the run holds.
    pub count: u64,
}

impl Run {
    /// A run of `count` balls labeled `label`.
    pub fn new(label: u64, count: u64) -> Self {
        Run { label, count }
    }

    /// The ball every member of the run is.
    pub fn ball(self) -> Ball {
        Ball::generated_in(self.label)
    }
}

/// Whether `runs` is in canonical form: labels strictly ascending and
/// every count positive.
pub fn is_canonical(runs: &[Run]) -> bool {
    runs.iter().all(|run| run.count > 0) && runs.windows(2).all(|w| w[0].label < w[1].label)
}

/// Appends `count` balls labeled `label` at the young end of `runs`,
/// merging them into the last run if it has the same label. A zero count
/// appends nothing. The caller keeps the labels ascending.
#[inline]
pub fn push_run(runs: &mut Vec<Run>, label: u64, count: u64) {
    if count == 0 {
        return;
    }
    match runs.last_mut() {
        Some(last) if last.label == label => last.count += count,
        _ => {
            debug_assert!(runs.last().is_none_or(|last| last.label < label));
            runs.push(Run { label, count });
        }
    }
}

/// The balls of `runs`, oldest first, by value: each run expanded into
/// `count` copies of its ball. The per-ball kernel paths and
/// [`Pool::iter`] walk the pool through it.
pub fn expand(runs: &[Run]) -> Balls<'_> {
    Balls {
        remaining: runs.iter().map(|run| run.count as usize).sum(),
        runs: runs.iter(),
        label: 0,
        left: 0,
    }
}

/// Iterator over the balls of a run list (see [`expand`]).
#[derive(Debug, Clone)]
pub struct Balls<'a> {
    runs: std::slice::Iter<'a, Run>,
    label: u64,
    left: u64,
    remaining: usize,
}

impl Iterator for Balls<'_> {
    type Item = Ball;

    #[inline]
    fn next(&mut self) -> Option<Ball> {
        while self.left == 0 {
            let run = self.runs.next()?;
            self.label = run.label;
            self.left = run.count;
        }
        self.left -= 1;
        self.remaining -= 1;
        Some(Ball::generated_in(self.label))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for Balls<'_> {}

/// The pool `M(t)`: all balls that have been generated but not yet accepted
/// by any bin, as canonical label runs (see the module docs).
///
/// Oldest-first order is what makes the per-round allocation equivalent to
/// Algorithm 1's "accept the oldest min{c − ℓ, ν} requests": processing
/// balls in global age order and accepting greedily yields, at every bin,
/// exactly its oldest requests up to remaining capacity.
///
/// # Examples
///
/// ```
/// use iba_core::Pool;
/// let mut pool = Pool::new();
/// pool.push_generation(1, 3); // three balls labeled 1
/// pool.push_generation(2, 2); // two balls labeled 2
/// assert_eq!(pool.len(), 5);
/// assert_eq!(pool.runs().len(), 2);
/// assert_eq!(pool.oldest_label(), Some(1));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Pool {
    runs: Vec<Run>,
    len: usize,
}

impl Pool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Pool::default()
    }

    /// Number of pooled balls `m(t)`.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The pool's runs, oldest first, in canonical form.
    pub fn runs(&self) -> &[Run] {
        &self.runs
    }

    /// Appends `count` balls generated in round `round`: one run, or more
    /// balls in the youngest run if it already carries `round`.
    ///
    /// # Panics
    ///
    /// Panics if this would violate the oldest-first invariant, i.e. if a
    /// ball with a larger label is already pooled.
    pub fn push_generation(&mut self, round: u64, count: u64) {
        if let Some(last) = self.runs.last() {
            assert!(
                last.label <= round,
                "pool already contains younger balls (label {}) than round {round}",
                last.label
            );
        }
        push_run(&mut self.runs, round, count);
        self.len += count as usize;
    }

    /// Removes and returns all pooled runs (oldest first) for the
    /// allocation stage. The rejected balls come back through
    /// [`restore_runs`](Self::restore_runs).
    pub fn take_runs(&mut self) -> Vec<Run> {
        self.len = 0;
        std::mem::take(&mut self.runs)
    }

    /// Puts the rejected runs back into the pool.
    ///
    /// # Panics
    ///
    /// Panics if the pool is not empty (restore must follow
    /// [`take_runs`](Self::take_runs)) or if `runs` is not in canonical
    /// form (labels strictly ascending, counts positive). Both checks run
    /// in every build: they cost one pass over the runs, not the balls.
    pub fn restore_runs(&mut self, runs: Vec<Run>) {
        assert!(
            self.runs.is_empty(),
            "restore must follow take within the same round"
        );
        assert!(
            is_canonical(&runs),
            "restored runs must have strictly ascending labels and positive counts"
        );
        self.len = runs.iter().map(|run| run.count as usize).sum();
        self.runs = runs;
    }

    /// Merges `balls` into the pool, in any order: the balls are sorted by
    /// label and merged run by run, so the pool stays canonical. This is
    /// how the balls of removed bins re-enter the pool.
    pub fn merge_balls(&mut self, balls: impl IntoIterator<Item = Ball>) {
        let mut labels: Vec<u64> = balls.into_iter().map(|ball| ball.label()).collect();
        if labels.is_empty() {
            return;
        }
        labels.sort_unstable();
        self.len += labels.len();
        let mut merged = Vec::with_capacity(self.runs.len() + 1);
        let mut old = self.runs.iter().peekable();
        for &label in &labels {
            while let Some(run) = old.next_if(|run| run.label <= label) {
                push_run(&mut merged, run.label, run.count);
            }
            push_run(&mut merged, label, 1);
        }
        for run in old {
            push_run(&mut merged, run.label, run.count);
        }
        self.runs = merged;
    }

    /// Label of the oldest pooled ball, if any.
    pub fn oldest_label(&self) -> Option<u64> {
        self.runs.first().map(|run| run.label)
    }

    /// Label of the youngest pooled ball, if any.
    pub fn youngest_label(&self) -> Option<u64> {
        self.runs.last().map(|run| run.label)
    }

    /// Iterates over pooled balls, oldest first, by value.
    pub fn iter(&self) -> Balls<'_> {
        expand(&self.runs)
    }

    /// Whether the pool is in canonical form with a consistent length
    /// (always true unless the pool was corrupted through a bug; used by
    /// property tests).
    pub fn is_age_sorted(&self) -> bool {
        is_canonical(&self.runs)
            && self
                .runs
                .iter()
                .map(|run| run.count as usize)
                .sum::<usize>()
                == self.len
    }

    /// Number of pooled balls generated in round `t` or earlier — the
    /// survivor count `m(t, t')` from the paper's waiting-time analysis,
    /// evaluated at the current state.
    pub fn survivors_from(&self, t: u64) -> usize {
        self.runs
            .iter()
            .take_while(|run| run.label <= t)
            .map(|run| run.count as usize)
            .sum()
    }

    /// Histogram of ball ages at round `round`: one weighted record per
    /// run.
    pub fn age_histogram(&self, round: u64) -> Histogram {
        let mut histogram = Histogram::new();
        for run in &self.runs {
            histogram.record_n(run.ball().age_at(round), run.count);
        }
        histogram
    }
}

impl FromIterator<Ball> for Pool {
    /// Collects balls into a pool, in any order.
    fn from_iter<I: IntoIterator<Item = Ball>>(iter: I) -> Self {
        let mut pool = Pool::new();
        pool.merge_balls(iter);
        pool
    }
}
