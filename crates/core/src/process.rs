//! The CAPPED(c, λ) process (Algorithm 1 of the paper).

use iba_sim::arrivals::ArrivalModel;
use iba_sim::process::{AllocationProcess, RoundReport};
use iba_sim::rng::SimRng;
use iba_sim::stats::Histogram;

use crate::arena::{counting_accept, fast_accept, BinArena, BinStore, BinView};
use crate::ball::Ball;
use crate::config::{AcceptancePolicy, Capacity, CappedConfig};
use crate::pool::Pool;

/// Which implementation of the round's acceptance/deletion stages a
/// [`CappedProcess`] runs.
///
/// Both kernels compute **bit-identical** trajectories (same RNG
/// consumption, same [`RoundReport`]s, same waiting times): `Arena` is
/// the production kernel, and `Scalar` is the in-tree reference for
/// differential tests and old-vs-new benchmarks. Checkpoints do not
/// record the kernel mode; restored processes run the default
/// (re-select with [`CappedProcess::set_kernel`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelMode {
    /// Flat-arena storage with the counting-sort acceptance pass and bulk
    /// RNG (the default). Used for the 1-choice oldest-first paper process
    /// on finite capacities; other policies fall back to the scalar walk
    /// over the same arena storage.
    #[default]
    Arena,
    /// The legacy layout and loop: one `VecDeque` buffer per bin, one
    /// RNG draw and one random-access push per ball.
    Scalar,
}

impl KernelMode {
    /// Stable lowercase identifier (`scalar`, `arena`), used in
    /// provenance records and benchmark output.
    pub fn name(self) -> &'static str {
        match self {
            KernelMode::Scalar => "scalar",
            KernelMode::Arena => "arena",
        }
    }
}

/// Round-persistent scratch buffers of the arena kernel, so steady-state
/// rounds allocate nothing.
#[derive(Debug, Clone, Default)]
struct KernelScratch {
    /// Per-bin request histogram, reused as the scatter cursor
    /// (exact-histogram fallback path only).
    counts: Vec<u32>,
    /// Per-bin acceptance quotas `min{c − ℓ, ν}`.
    quotas: Vec<u32>,
    /// Packed per-bin `(remaining quota, ring cursor)` registers of the
    /// single-pass scatter (see [`fast_accept`]).
    state: Vec<u32>,
}

impl KernelScratch {
    /// Runs one round's pre-drawn `(bin, ball)` request stream (`thrown`
    /// long, oldest first) through the arena kernel: the single-pass
    /// [`fast_accept`], or [`counting_accept`] when it bails out. Both are
    /// bit-exact with the scalar oldest-first greedy walk. Returns the
    /// accepted count and whether the fast path left the ring lengths
    /// uncommitted for the fused deletion sweep.
    fn accept<I: Iterator<Item = (usize, Ball)> + Clone>(
        &mut self,
        arena: &mut BinArena,
        offline: &[bool],
        was_primed: bool,
        thrown: usize,
        stream: I,
        rejected: &mut Vec<Ball>,
    ) -> (u64, bool) {
        match fast_accept(
            arena,
            offline,
            &mut self.state,
            &mut self.quotas,
            thrown,
            stream.clone(),
            rejected,
            was_primed,
        ) {
            Some(accepted) => (accepted, true),
            None => (
                counting_accept(
                    arena,
                    offline,
                    &mut self.counts,
                    &mut self.quotas,
                    stream,
                    rejected,
                ),
                false,
            ),
        }
    }
}

/// The CAPPED(c, λ) process.
///
/// One [`step`](AllocationProcess::step) executes one round of Algorithm 1:
///
/// 1. generate `λn` new balls and add them to the pool;
/// 2. every pooled ball picks a bin independently and uniformly at random;
/// 3. every bin accepts the **oldest** `min{c − ℓᵢ(t−1), νᵢ}` of its
///    requests (ties broken arbitrarily); accepted balls leave the pool and
///    enter the bin's FIFO queue;
/// 4. every non-empty bin deletes (serves) the first ball in its queue.
///
/// The implementation processes the pool in global oldest-first order and
/// accepts greedily while a bin has room, which yields exactly the
/// acceptance rule in item 3 (see `Pool`'s documentation).
///
/// # Examples
///
/// ```
/// use iba_core::{CappedConfig, CappedProcess};
/// use iba_sim::{AllocationProcess, SimRng};
///
/// # fn main() -> Result<(), iba_sim::error::ConfigError> {
/// let mut p = CappedProcess::new(CappedConfig::new(64, 1, 0.5)?);
/// let mut rng = SimRng::seed_from(1);
/// let report = p.step(&mut rng);
/// assert_eq!(report.generated, 32);
/// assert!(report.conserves_balls());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CappedProcess {
    config: CappedConfig,
    pool: Pool,
    store: BinStore,
    /// Fault-injection mask: an offline bin rejects every request and
    /// stops serving; its buffered balls are frozen until it comes back.
    offline: Vec<bool>,
    round: u64,
    total_generated: u64,
    total_deleted: u64,
    scratch: Vec<Ball>,
    kernel: KernelMode,
    /// This round's pre-drawn bin choices, one per pooled ball.
    choices: Vec<u32>,
    kscratch: KernelScratch,
    /// Whether `kscratch.state` already holds valid per-bin acceptance
    /// registers for the *next* round (written by the previous round's
    /// deletion sweep under a uniform capacity profile). Cleared by every
    /// mutation that can change a bin's room or ring offset behind the
    /// kernel's back.
    kernel_primed: bool,
}

enum ChoiceSource<'a> {
    /// Sample with `d` uniform choices per ball, committing to the
    /// least-loaded sampled bin.
    Rng(&'a mut SimRng, u32),
    /// Use pre-drawn bin choices (index i for the i-th thrown ball) —
    /// the hook used by the Lemma-1/6 coupling.
    Slice(&'a [usize]),
}

impl CappedProcess {
    /// Creates the process in the paper's initial state: empty pool, empty
    /// bins, round 0, running the default (arena) kernel.
    pub fn new(config: CappedConfig) -> Self {
        Self::with_kernel(config, KernelMode::default())
    }

    /// Creates the process with an explicit [`KernelMode`]. Both modes are
    /// bit-exact; `Scalar` pins the legacy per-ball loop for differential
    /// tests and old-vs-new benchmarks.
    pub fn with_kernel(config: CappedConfig, kernel: KernelMode) -> Self {
        let caps: Vec<Capacity> = (0..config.bins()).map(|i| config.capacity_of(i)).collect();
        let store = BinStore::from_capacities(caps, kernel == KernelMode::Scalar);
        CappedProcess {
            pool: Pool::with_capacity(config.predicted_stationary_pool()),
            store,
            offline: vec![false; config.bins()],
            round: 0,
            total_generated: 0,
            total_deleted: 0,
            scratch: Vec::new(),
            kernel,
            choices: Vec::new(),
            kscratch: KernelScratch::default(),
            kernel_primed: false,
            config,
        }
    }

    /// The kernel mode this process runs.
    pub fn kernel(&self) -> KernelMode {
        self.kernel
    }

    /// Switches the kernel mode in place, converting the bin storage if
    /// the old and new modes disagree on it (`Scalar` keeps per-bin
    /// buffers; `Arena` uses the flat arena). The trajectory is
    /// unaffected — both modes are bit-exact — so this is safe mid-run;
    /// it is primarily the hook for re-selecting a non-default kernel
    /// after a checkpoint restore.
    pub fn set_kernel(&mut self, kernel: KernelMode) {
        if kernel == self.kernel {
            return;
        }
        let need_buffers =
            kernel == KernelMode::Scalar || self.config.capacity() == Capacity::Infinite;
        let have_buffers = matches!(self.store, BinStore::Buffers(_));
        if need_buffers != have_buffers {
            let n = self.config.bins();
            let caps: Vec<Capacity> = (0..n).map(|i| self.bin(i).capacity()).collect();
            let contents: Vec<Vec<Ball>> = (0..n)
                .map(|i| self.bin(i).iter().copied().collect())
                .collect();
            self.store = if need_buffers {
                BinStore::Buffers(
                    caps.into_iter()
                        .zip(contents)
                        .map(|(cap, balls)| crate::buffer::BinBuffer::restore(cap, balls))
                        .collect(),
                )
            } else {
                BinStore::Arena(crate::arena::BinArena::from_bins(caps, contents))
            };
        }
        self.kernel = kernel;
        self.kernel_primed = false;
    }

    /// Fault injection: takes bin `i` offline (`true`) or back online
    /// (`false`). An offline bin rejects every allocation request and
    /// stops serving; balls already in its buffer are frozen — they resume
    /// FIFO service when the bin recovers (crash-recovery semantics, no
    /// ball loss). Used by the chaos experiments.
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message if `i ≥ n`; use
    /// [`try_set_bin_offline`](Self::try_set_bin_offline) for fallible
    /// handling of untrusted indices.
    pub fn set_bin_offline(&mut self, i: usize, offline: bool) {
        assert!(
            i < self.offline.len(),
            "bin index {i} out of range for a process with n = {} bins",
            self.offline.len()
        );
        self.offline[i] = offline;
        self.kernel_primed = false;
    }

    /// Fallible [`set_bin_offline`](Self::set_bin_offline) for indices
    /// coming from untrusted input (CLI arguments, fault-plan files).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::OutOfDomain`](iba_sim::error::ConfigError)
    /// if `i ≥ n`; the process is left unchanged.
    pub fn try_set_bin_offline(
        &mut self,
        i: usize,
        offline: bool,
    ) -> Result<(), iba_sim::error::ConfigError> {
        if i >= self.offline.len() {
            return Err(iba_sim::error::ConfigError::OutOfDomain {
                name: "bin index",
                domain: "0..n",
            });
        }
        self.offline[i] = offline;
        self.kernel_primed = false;
        Ok(())
    }

    /// Whether bin `i` is currently offline.
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ n`.
    pub fn is_bin_offline(&self, i: usize) -> bool {
        self.offline[i]
    }

    /// Number of currently offline bins.
    pub fn offline_count(&self) -> usize {
        self.offline.iter().filter(|&&o| o).count()
    }

    /// Fault injection: changes bin `i`'s **live** buffer capacity without
    /// touching the configuration (capacity degradation experiments).
    /// Balls buffered above a lowered capacity stay until served; the bin
    /// rejects new balls until it drains below the new bound. Checkpoints
    /// preserve live capacities (format v2).
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ n`.
    pub fn set_bin_capacity(&mut self, i: usize, capacity: crate::config::Capacity) {
        assert!(
            i < self.config.bins(),
            "bin index {i} out of range for a process with n = {} bins",
            self.config.bins()
        );
        self.store.set_capacity(i, capacity);
        self.kernel_primed = false;
    }

    /// The configuration this process runs with.
    pub fn config(&self) -> &CappedConfig {
        &self.config
    }

    /// Injects `extra` balls labeled with the current round into the pool.
    ///
    /// Used for two purposes:
    ///
    /// - **warm start** — pre-filling the pool at the predicted stationary
    ///   size to skip most of the transient (see DESIGN.md substitutions);
    /// - **adversarial overload** — the self-stabilization experiment starts
    ///   from a pool far above the stationary band and measures recovery.
    ///
    /// The injected balls count toward `total_generated`, so conservation
    /// invariants keep holding.
    pub fn inject_pool(&mut self, extra: u64) {
        self.pool.push_generation(self.round, extra);
        self.total_generated += extra;
    }

    /// Warm-starts the pool at the theory-predicted stationary size.
    /// Call before the first [`step`](AllocationProcess::step).
    pub fn warm_start(&mut self) {
        let target = self.config.predicted_stationary_pool() as u64;
        let current = self.pool.len() as u64;
        if target > current {
            self.inject_pool(target - current);
        }
    }

    /// Read access to bin `i`'s buffer, as a storage-independent view.
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ n`.
    pub fn bin(&self, i: usize) -> BinView<'_> {
        self.store.view(i)
    }

    /// Current loads of all bins.
    pub fn loads(&self) -> Vec<usize> {
        (0..self.config.bins()).map(|i| self.store.len(i)).collect()
    }

    /// Histogram of current bin loads (values `0..=c`).
    pub fn load_histogram(&self) -> Histogram {
        (0..self.config.bins())
            .map(|i| self.store.len(i) as u64)
            .collect()
    }

    /// Total number of balls stored in bin buffers.
    pub fn buffered(&self) -> usize {
        self.store.buffered()
    }

    /// The pool.
    pub fn pool(&self) -> &Pool {
        &self.pool
    }

    /// Lifetime count of generated balls (including injected ones).
    pub fn total_generated(&self) -> u64 {
        self.total_generated
    }

    /// Lifetime count of deleted (served) balls.
    pub fn total_deleted(&self) -> u64 {
        self.total_deleted
    }

    /// Ball-conservation invariant: every generated ball is pooled,
    /// buffered, or deleted.
    pub fn conserves_balls(&self) -> bool {
        self.total_generated == self.total_deleted + self.pool.len() as u64 + self.buffered() as u64
    }

    /// Serializes the full process state (configuration, round counters,
    /// pool, bin queues with their **live** capacities, fault mask) into a
    /// checkpoint encoder. Restoring via
    /// [`decode_from`](Self::decode_from) and continuing with the same RNG
    /// stream reproduces the original trajectory bit-exactly — including
    /// runs whose capacities were degraded mid-flight by fault injection.
    pub fn encode_into(&self, enc: &mut iba_sim::codec::Encoder) {
        self.config.encode_into(enc);
        enc.u64(self.round);
        enc.u64(self.total_generated);
        enc.u64(self.total_deleted);
        let pool_labels: Vec<u64> = self.pool.iter().map(Ball::label).collect();
        enc.u64_seq(pool_labels.into_iter());
        enc.usize(self.config.bins());
        for i in 0..self.config.bins() {
            let bin = self.store.view(i);
            // Live capacity, which fault injection may have diverged from
            // the configured profile; 0 encodes "unbounded".
            enc.u64(match bin.capacity() {
                Capacity::Finite(c) => u64::from(c.get()),
                Capacity::Infinite => 0,
            });
            let labels: Vec<u64> = bin.iter().map(Ball::label).collect();
            enc.u64_seq(labels.into_iter());
        }
        for &offline in &self.offline {
            enc.bool(offline);
        }
    }

    /// Deserializes a process from a checkpoint decoder.
    ///
    /// # Errors
    ///
    /// Returns a [`iba_sim::codec::CodecError`] on truncated or malformed
    /// input, including states violating the process invariants (unsorted
    /// pool, over-capacity bins, broken conservation).
    pub fn decode_from(
        dec: &mut iba_sim::codec::Decoder<'_>,
    ) -> Result<Self, iba_sim::codec::CodecError> {
        use iba_sim::codec::CodecError;
        let config = CappedConfig::decode_from(dec)?;
        let round = dec.u64("process round")?;
        let total_generated = dec.u64("total generated")?;
        let total_deleted = dec.u64("total deleted")?;
        let pool_labels = dec.u64_seq("pool labels")?;
        if pool_labels.windows(2).any(|w| w[0] > w[1]) {
            return Err(CodecError::Invalid { what: "pool order" });
        }
        let pool: Pool = pool_labels.iter().map(|&l| Ball::generated_in(l)).collect();
        let bin_count = dec.usize("bin count")?;
        if bin_count != config.bins() {
            return Err(CodecError::Invalid { what: "bin count" });
        }
        let mut caps = Vec::with_capacity(bin_count);
        let mut contents = Vec::with_capacity(bin_count);
        for _ in 0..bin_count {
            let raw = dec.u64("bin capacity")?;
            let capacity = if raw == 0 {
                Capacity::Infinite
            } else {
                u32::try_from(raw)
                    .ok()
                    .and_then(|c| Capacity::finite(c).ok())
                    .ok_or(CodecError::Invalid {
                        what: "bin capacity",
                    })?
            };
            let labels = dec.u64_seq("bin queue")?;
            // No load-vs-capacity check: a degraded bin legally holds more
            // balls than its live capacity (capacity degradation);
            // conservation is verified below.
            caps.push(capacity);
            contents.push(
                labels
                    .iter()
                    .map(|&l| Ball::generated_in(l))
                    .collect::<Vec<Ball>>(),
            );
        }
        let mut offline = Vec::with_capacity(bin_count);
        for _ in 0..bin_count {
            offline.push(dec.bool("offline flag")?);
        }
        // Checkpoints never record the kernel mode: restores always run the
        // default kernel. The choice of storage mirrors `with_kernel`,
        // keyed on the *configured* base capacity so a finite configuration
        // restores to the arena even when faults degraded some live
        // capacities to unbounded (the arena grows those on demand).
        let store = if config.capacity() == Capacity::Infinite {
            BinStore::Buffers(
                caps.into_iter()
                    .zip(contents)
                    .map(|(cap, balls)| crate::buffer::BinBuffer::restore(cap, balls))
                    .collect(),
            )
        } else {
            BinStore::Arena(crate::arena::BinArena::from_bins(caps, contents))
        };
        let process = CappedProcess {
            config,
            pool,
            store,
            offline,
            round,
            total_generated,
            total_deleted,
            scratch: Vec::new(),
            kernel: KernelMode::default(),
            choices: Vec::new(),
            kscratch: KernelScratch::default(),
            kernel_primed: false,
        };
        if !process.conserves_balls() {
            return Err(CodecError::Invalid {
                what: "ball conservation",
            });
        }
        Ok(process)
    }

    /// Number of balls the next round will throw (pool + `λn`), assuming
    /// the deterministic arrival model. Used by the coupled runner to size
    /// the shared choice vector.
    ///
    /// # Panics
    ///
    /// Panics if the arrival model is not deterministic.
    pub fn next_throw_count(&self) -> usize {
        let ArrivalModel::Deterministic { batch } = *self.config.arrivals() else {
            panic!("next_throw_count requires the deterministic arrival model");
        };
        self.pool.len() + batch as usize
    }

    /// Executes one round with **pre-drawn bin choices**: `choices[i]` is
    /// the bin requested by the i-th pooled ball in oldest-first order.
    ///
    /// This is the hook used by [`crate::coupling::CoupledRun`] to share
    /// randomness with MODCAPPED per Lemmas 1 and 6. Ball generation is
    /// performed internally (it must be deterministic for the coupling to
    /// be meaningful).
    ///
    /// # Panics
    ///
    /// Panics if the arrival model is not deterministic, if the configured
    /// choice count is not 1, or if `choices.len()` differs from the number
    /// of thrown balls (`pool + λn`).
    pub fn step_with_choices(&mut self, choices: &[usize]) -> RoundReport {
        let ArrivalModel::Deterministic { batch } = *self.config.arrivals() else {
            panic!("step_with_choices requires the deterministic arrival model");
        };
        assert_eq!(
            self.config.choices(),
            1,
            "step_with_choices supports only the 1-choice process"
        );
        assert_eq!(
            self.config.policy(),
            AcceptancePolicy::OldestFirst,
            "step_with_choices supports only the paper's oldest-first policy"
        );
        assert_eq!(
            choices.len(),
            self.pool.len() + batch as usize,
            "need exactly one choice per thrown ball"
        );
        self.run_round(batch, ChoiceSource::Slice(choices))
    }

    /// Whether this round can run through the counting-sort kernel: the
    /// paper's 1-choice oldest-first process over arena storage (pre-drawn
    /// choice slices are by definition 1-choice). The d-choice and ablation
    /// policies keep the scalar walk — their acceptance depends on loads or
    /// priorities evolving *during* the request stream, which a batched
    /// pass cannot reproduce. The `u32::MAX` guard keeps the per-bin
    /// request histogram's `u32` counters from overflowing.
    fn kernel_eligible(&self, source: &ChoiceSource<'_>, thrown: usize) -> bool {
        self.config.policy() == AcceptancePolicy::OldestFirst
            && matches!(self.store, BinStore::Arena(_))
            && thrown <= u32::MAX as usize
            && match source {
                ChoiceSource::Rng(_, d) => *d == 1,
                ChoiceSource::Slice(_) => true,
            }
    }

    fn run_round(&mut self, generated: u64, source: ChoiceSource<'_>) -> RoundReport {
        let mut report = RoundReport::default();
        self.run_round_into(generated, source, &mut report);
        report
    }

    fn run_round_into(
        &mut self,
        generated: u64,
        mut source: ChoiceSource<'_>,
        report: &mut RoundReport,
    ) {
        let n = self.config.bins();
        self.round += 1;
        let round = self.round;
        // Consume the priming flag up front: whatever path this round
        // takes, the registers it leaves behind are only valid if the
        // uniform deletion sweep below re-arms them.
        let was_primed = std::mem::take(&mut self.kernel_primed);

        // 1. Ball generation.
        let gen_timer = iba_obs::PhaseTimer::start();
        self.pool.push_generation(round, generated);
        self.total_generated += generated;
        let thrown = self.pool.len() as u64;
        if let Some(p) = crate::obs::probes() {
            gen_timer.observe(&p.phase_generate_nanos);
        }

        // 2 + 3. Random choices and priority-ordered greedy acceptance.
        // The default (paper) policy processes balls oldest-first, which
        // realizes "accept the oldest min{c − ℓ, ν} requests"; the ablation
        // policies permute the acceptance priority.
        let accept_timer = iba_obs::PhaseTimer::start();
        let mut balls = self.pool.take();
        let mut rejected = std::mem::take(&mut self.scratch);
        rejected.clear();
        let mut accepted = 0u64;
        let policy = self.config.policy();
        // Set when the fast path ran: its scatter leaves the ring lengths
        // uncommitted, and the deletion stage below folds the per-bin
        // accepted counts in while it serves (one meta pass, not two).
        let mut commit_pending = false;
        if self.kernel_eligible(&source, balls.len()) {
            // Counting-sort kernel. Pre-drawing every choice in pool order
            // consumes the RNG exactly as the scalar per-ball loop does
            // (acceptance itself draws nothing), and the quota/scatter pass
            // is bit-exactly the oldest-first greedy walk — see
            // `arena::counting_accept`.
            let BinStore::Arena(arena) = &mut self.store else {
                unreachable!("kernel_eligible checked the storage variant");
            };
            (accepted, commit_pending) = match &mut source {
                ChoiceSource::Rng(rng, _) => {
                    let choices = &mut self.choices;
                    choices.resize(balls.len(), 0);
                    rng.fill_uniform_bins(n, choices);
                    let stream = choices
                        .iter()
                        .map(|&c| c as usize)
                        .zip(balls.iter().copied());
                    self.kscratch.accept(
                        arena,
                        &self.offline,
                        was_primed,
                        balls.len(),
                        stream,
                        &mut rejected,
                    )
                }
                ChoiceSource::Slice(slice) => {
                    let stream = slice.iter().copied().zip(balls.iter().copied());
                    self.kscratch.accept(
                        arena,
                        &self.offline,
                        was_primed,
                        balls.len(),
                        stream,
                        &mut rejected,
                    )
                }
            };
            balls.clear();
        } else if policy == AcceptancePolicy::OldestFirst {
            for (i, ball) in balls.drain(..).enumerate() {
                let bin_idx = match &mut source {
                    ChoiceSource::Rng(rng, 1) => rng.uniform_bin(n),
                    ChoiceSource::Rng(rng, d) => {
                        // d-choice ablation: commit to the least-loaded of d
                        // uniform samples (ties toward the first sample).
                        let mut best = rng.uniform_bin(n);
                        for _ in 1..*d {
                            let candidate = rng.uniform_bin(n);
                            if self.store.len(candidate) < self.store.len(best) {
                                best = candidate;
                            }
                        }
                        best
                    }
                    ChoiceSource::Slice(choices) => choices[i],
                };
                if !self.offline[bin_idx] && self.store.try_accept(bin_idx, ball) {
                    accepted += 1;
                } else {
                    rejected.push(ball);
                }
            }
        } else {
            // Ablation policies need the RNG both for bin choices and (for
            // `Random`) the priority permutation.
            let ChoiceSource::Rng(rng, d) = &mut source else {
                unreachable!("step_with_choices asserts the oldest-first policy");
            };
            let mut order: Vec<usize> = (0..balls.len()).collect();
            match policy {
                AcceptancePolicy::YoungestFirst => order.reverse(),
                AcceptancePolicy::Random => {
                    // Fisher–Yates shuffle.
                    for i in (1..order.len()).rev() {
                        let j = rng.uniform_below(i as u64 + 1) as usize;
                        order.swap(i, j);
                    }
                }
                AcceptancePolicy::OldestFirst => unreachable!("handled above"),
            }
            for &i in &order {
                let ball = balls[i];
                let mut best = rng.uniform_bin(n);
                for _ in 1..*d {
                    let candidate = rng.uniform_bin(n);
                    if self.store.len(candidate) < self.store.len(best) {
                        best = candidate;
                    }
                }
                if !self.offline[best] && self.store.try_accept(best, ball) {
                    accepted += 1;
                } else {
                    rejected.push(ball);
                }
            }
            // Restore the pool's age order (rejection order followed the
            // priority permutation).
            rejected.sort();
            balls.clear();
        }
        self.scratch = balls;
        self.pool.restore(rejected);
        if let Some(p) = crate::obs::probes() {
            accept_timer.observe(&p.phase_accept_nanos);
            p.accepted_balls.add(accepted);
            p.rejected_balls.add(thrown - accepted);
        }

        // 4. FIFO deletion; collect waiting times and load statistics. The
        // waiting times land in the caller's (reused) report buffer, so
        // steady-state rounds allocate nothing.
        let serve_timer = iba_obs::PhaseTimer::start();
        let waiting_times = &mut report.waiting_times;
        waiting_times.clear();
        let mut failed_deletions = 0u64;
        let mut buffered = 0u64;
        let mut max_load = 0u64;
        match &mut self.store {
            BinStore::Arena(arena) if commit_pending => {
                // Fused commit + serve: fold each bin's accepted count
                // (left uncommitted by the fast path's scatter) into its
                // ring length and FIFO-serve in the same meta pass.
                match arena.uniform_cap() {
                    Some(c0) => {
                        // Uniform capacity profile: the accepted count is
                        // recoverable from the register's remaining room
                        // alone (no quota array), and the same sweep writes
                        // next round's register — (room << 16) | tail — so
                        // the next acceptance pass skips its init sweep
                        // entirely ("priming").
                        let state = &mut self.kscratch.state;
                        debug_assert_eq!(state.len(), n);
                        for (b, s) in state.iter_mut().enumerate() {
                            if self.offline[b] {
                                // A crashed bin neither serves nor counts
                                // as a failed deletion *attempt* — it makes
                                // none. Its register had zero room, so
                                // there is nothing to commit; re-arm it
                                // with zero room again.
                                debug_assert_eq!(*s >> 16, 0);
                                let (len, tail) = arena.len_tail(b);
                                *s = tail;
                                let load = u64::from(len);
                                buffered += load;
                                max_load = max_load.max(load);
                                continue;
                            }
                            let (served, len, tail) = arena.commit_serve_uniform(b, c0, *s >> 16);
                            match served {
                                Some(ball) => {
                                    waiting_times.push(ball.age_at(round));
                                    self.total_deleted += 1;
                                }
                                None => failed_deletions += 1,
                            }
                            // `saturating_sub`: an overfull bin (a
                            // degraded-checkpoint restore can leave
                            // len > c₀ under a uniform profile) must
                            // re-arm with zero room, not an underflowed
                            // quota.
                            *s = (c0.saturating_sub(len) << 16) | tail;
                            let load = u64::from(len);
                            buffered += load;
                            max_load = max_load.max(load);
                        }
                        self.kernel_primed = true;
                    }
                    None => {
                        let quotas = &self.kscratch.quotas;
                        let state = &self.kscratch.state;
                        for b in 0..n {
                            let taken = (quotas[b] - (state[b] >> 16)) as usize;
                            if self.offline[b] {
                                // A crashed bin neither serves nor counts
                                // as a failed deletion *attempt* — it makes
                                // none. Its quota was 0, so there is
                                // nothing to commit.
                                debug_assert_eq!(taken, 0);
                                let load = arena.len(b) as u64;
                                buffered += load;
                                max_load = max_load.max(load);
                                continue;
                            }
                            match arena.commit_serve(b, taken) {
                                Some(ball) => {
                                    waiting_times.push(ball.age_at(round));
                                    self.total_deleted += 1;
                                }
                                None => failed_deletions += 1,
                            }
                            let load = arena.len(b) as u64;
                            buffered += load;
                            max_load = max_load.max(load);
                        }
                    }
                }
            }
            BinStore::Arena(arena) => {
                for b in 0..n {
                    if self.offline[b] {
                        // A crashed bin neither serves nor counts as a
                        // failed deletion *attempt* — it makes none.
                        let load = arena.len(b) as u64;
                        buffered += load;
                        max_load = max_load.max(load);
                        continue;
                    }
                    match arena.serve(b) {
                        Some(ball) => {
                            waiting_times.push(ball.age_at(round));
                            self.total_deleted += 1;
                        }
                        None => failed_deletions += 1,
                    }
                    let load = arena.len(b) as u64;
                    buffered += load;
                    max_load = max_load.max(load);
                }
            }
            BinStore::Buffers(bins) => {
                for (bin, &offline) in bins.iter_mut().zip(&self.offline) {
                    if offline {
                        // A crashed bin neither serves nor counts as a
                        // failed deletion *attempt* — it makes none.
                        buffered += bin.len() as u64;
                        max_load = max_load.max(bin.len() as u64);
                        continue;
                    }
                    match bin.serve() {
                        Some(ball) => {
                            waiting_times.push(ball.age_at(round));
                            self.total_deleted += 1;
                        }
                        None => failed_deletions += 1,
                    }
                    let load = bin.len() as u64;
                    buffered += load;
                    max_load = max_load.max(load);
                }
            }
        }

        report.round = round;
        report.generated = generated;
        report.thrown = thrown;
        report.accepted = accepted;
        report.deleted = report.waiting_times.len() as u64;
        report.failed_deletions = failed_deletions;
        report.pool_size = self.pool.len() as u64;
        report.buffered = buffered;
        report.max_load = max_load;

        if let Some(p) = crate::obs::probes() {
            serve_timer.observe(&p.phase_serve_nanos);
            iba_obs::flight::recorder().record_round(iba_obs::flight::RoundSample {
                round,
                generated,
                accepted,
                deleted: report.deleted,
                failed_deletions,
                pool_size: report.pool_size,
                buffered,
                max_load,
            });
        }
    }
}

impl AllocationProcess for CappedProcess {
    fn bins(&self) -> usize {
        self.config.bins()
    }

    fn round(&self) -> u64 {
        self.round
    }

    fn pool_size(&self) -> usize {
        self.pool.len()
    }

    fn step(&mut self, rng: &mut SimRng) -> RoundReport {
        let generated = self.config.arrivals().sample(rng);
        let d = self.config.choices();
        self.run_round(generated, ChoiceSource::Rng(rng, d))
    }

    fn step_into(&mut self, rng: &mut SimRng, report: &mut RoundReport) {
        let generated = self.config.arrivals().sample(rng);
        let d = self.config.choices();
        self.run_round_into(generated, ChoiceSource::Rng(rng, d), report);
    }

    fn label(&self) -> String {
        format!(
            "capped(n={}, c={}, λ={}, d={})",
            self.config.bins(),
            self.config.capacity(),
            self.config.lambda(),
            self.config.choices()
        )
    }
}

/// CAPPED under fault injection: crashes freeze a bin's FIFO buffer
/// (crash-recovery semantics, no ball loss), capacity degradation changes
/// the live per-bin bound, and surged balls enter the pool labeled with
/// the current round. All operations preserve ball conservation.
impl iba_sim::faults::FaultTolerant for CappedProcess {
    fn crash_bin(&mut self, i: usize) {
        self.set_bin_offline(i, true);
    }

    fn recover_bin(&mut self, i: usize) {
        self.set_bin_offline(i, false);
    }

    fn offline_bins(&self) -> usize {
        self.offline_count()
    }

    fn set_bin_capacity(&mut self, i: usize, capacity: Option<u32>) {
        let capacity = match capacity {
            None => Capacity::Infinite,
            Some(c) => match Capacity::finite(c) {
                Ok(cap) => cap,
                Err(_) => return, // zero capacity: malformed, ignore
            },
        };
        CappedProcess::set_bin_capacity(self, i, capacity);
    }

    fn surge_pool(&mut self, extra: u64) {
        self.inject_pool(extra);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Capacity;

    fn process(n: usize, c: u32, lambda: f64) -> CappedProcess {
        CappedProcess::new(CappedConfig::new(n, c, lambda).unwrap())
    }

    #[test]
    fn first_round_generates_lambda_n() {
        let mut p = process(100, 1, 0.5);
        let mut rng = SimRng::seed_from(1);
        let r = p.step(&mut rng);
        assert_eq!(r.round, 1);
        assert_eq!(r.generated, 50);
        assert_eq!(r.thrown, 50);
        assert!(r.conserves_balls());
        assert!(p.conserves_balls());
    }

    #[test]
    fn deleted_balls_report_waiting_times() {
        let mut p = process(50, 1, 0.5);
        let mut rng = SimRng::seed_from(2);
        let r = p.step(&mut rng);
        // Every deleted ball was generated this round => waiting time 0.
        assert!(r.deleted > 0);
        assert!(r.waiting_times.iter().all(|&w| w == 0));
    }

    #[test]
    fn loads_never_exceed_capacity() {
        let mut p = process(32, 2, 0.75);
        let mut rng = SimRng::seed_from(3);
        for _ in 0..200 {
            p.step(&mut rng);
            assert!(p.loads().iter().all(|&l| l <= 2));
        }
    }

    #[test]
    fn conservation_holds_over_many_rounds() {
        let mut p = process(64, 3, 0.75);
        let mut rng = SimRng::seed_from(4);
        for _ in 0..500 {
            let r = p.step(&mut rng);
            assert!(r.conserves_balls(), "round report conservation");
            assert!(p.conserves_balls(), "process conservation");
            assert!(p.pool().is_age_sorted());
        }
    }

    #[test]
    fn accepted_plus_rejected_equals_thrown() {
        let mut p = process(16, 1, 0.75);
        let mut rng = SimRng::seed_from(5);
        for _ in 0..50 {
            let r = p.step(&mut rng);
            assert_eq!(r.thrown, r.accepted + r.pool_size);
        }
    }

    #[test]
    fn zero_rate_stays_empty() {
        let mut p = process(16, 1, 0.0);
        let mut rng = SimRng::seed_from(6);
        for _ in 0..10 {
            let r = p.step(&mut rng);
            assert_eq!(r.generated, 0);
            assert_eq!(r.pool_size, 0);
            assert_eq!(r.deleted, 0);
            assert_eq!(r.failed_deletions, 16);
        }
    }

    #[test]
    fn unit_capacity_bins_start_every_round_empty() {
        // For c = 1, a bin accepts one ball and deletes it the same round,
        // so after the deletion stage every bin must be empty.
        let mut p = process(64, 1, 0.75);
        let mut rng = SimRng::seed_from(7);
        for _ in 0..100 {
            let r = p.step(&mut rng);
            assert_eq!(r.buffered, 0);
            assert_eq!(r.max_load, 0);
            assert_eq!(p.buffered(), 0);
        }
    }

    #[test]
    fn infinite_capacity_accepts_everything() {
        let mut p = CappedProcess::new(CappedConfig::unbounded(32, 0.75).unwrap());
        assert_eq!(p.config().capacity(), Capacity::Infinite);
        let mut rng = SimRng::seed_from(8);
        for _ in 0..100 {
            let r = p.step(&mut rng);
            assert_eq!(r.pool_size, 0, "unbounded bins reject nothing");
            assert_eq!(r.accepted, r.thrown);
        }
    }

    #[test]
    fn step_with_choices_is_deterministic() {
        let mut p = process(4, 1, 0.5);
        // 2 balls; both request bin 3.
        let r = p.step_with_choices(&[3, 3]);
        assert_eq!(r.thrown, 2);
        assert_eq!(r.accepted, 1);
        assert_eq!(r.pool_size, 1);
        assert_eq!(r.deleted, 1);
        // Next round: leftover + 2 new = 3 balls, spread over distinct bins.
        let r = p.step_with_choices(&[0, 1, 2]);
        assert_eq!(r.accepted, 3);
        assert_eq!(r.pool_size, 0);
    }

    #[test]
    fn step_with_choices_prefers_oldest() {
        let mut p = process(4, 1, 0.25);
        // Round 1: 1 ball -> bin 0 accepted and immediately deleted? It is
        // accepted, then served the same round (waiting time 0).
        let r = p.step_with_choices(&[0]);
        assert_eq!(r.accepted, 1);
        assert_eq!(r.waiting_times, vec![0]);
        // Round 2: throw new ball to bin 1; accepted.
        let r = p.step_with_choices(&[1]);
        assert_eq!(r.accepted, 1);

        // Construct contention: round 3's ball and round 4's ball both to
        // bin 2; the round-3 leftover (older) must win in round 4.
        let r = p.step_with_choices(&[2]);
        assert_eq!(r.pool_size, 0);
        // Fill bin 2 by sending two balls in one round (c = 1): one is
        // rejected.
        let mut p2 = process(4, 1, 0.5);
        let r = p2.step_with_choices(&[2, 2]);
        assert_eq!(r.pool_size, 1);
        // The leftover is older than next round's newcomers; if all three
        // target bin 3, the oldest (leftover) is accepted.
        let r = p2.step_with_choices(&[3, 3, 3]);
        assert_eq!(r.accepted, 1);
        // The accepted ball is served; it was generated in round 1, so its
        // waiting time is 2 - 1 = 1.
        assert_eq!(r.waiting_times, vec![1]);
    }

    #[test]
    #[should_panic(expected = "one choice per thrown ball")]
    fn step_with_choices_wrong_len_panics() {
        let mut p = process(4, 1, 0.5);
        p.step_with_choices(&[0]);
    }

    #[test]
    fn warm_start_fills_pool_to_prediction() {
        let mut p = process(128, 2, 0.75);
        p.warm_start();
        assert_eq!(p.pool_size(), p.config().predicted_stationary_pool());
        assert!(p.conserves_balls());
        // Warm starting twice is idempotent.
        let size = p.pool_size();
        p.warm_start();
        assert_eq!(p.pool_size(), size);
    }

    #[test]
    fn inject_pool_supports_adversarial_overload() {
        let mut p = process(16, 1, 0.5);
        p.inject_pool(1000);
        assert_eq!(p.pool_size(), 1000);
        let mut rng = SimRng::seed_from(9);
        let r = p.step(&mut rng);
        assert_eq!(r.thrown, 1008);
        assert!(p.conserves_balls());
    }

    #[test]
    fn two_choice_ablation_reduces_rejections() {
        // With d = 2 the process should reject at most as much as d = 1 on
        // average (power of two choices); compare stationary pools.
        let mut one = CappedProcess::new(
            CappedConfig::new(256, 1, 0.75)
                .unwrap()
                .with_choices(1)
                .unwrap(),
        );
        let mut two = CappedProcess::new(
            CappedConfig::new(256, 1, 0.75)
                .unwrap()
                .with_choices(2)
                .unwrap(),
        );
        let mut rng1 = SimRng::seed_from(10);
        let mut rng2 = SimRng::seed_from(11);
        let mut pool1 = 0u64;
        let mut pool2 = 0u64;
        for i in 0..400 {
            let r1 = one.step(&mut rng1);
            let r2 = two.step(&mut rng2);
            if i >= 200 {
                pool1 += r1.pool_size;
                pool2 += r2.pool_size;
            }
        }
        assert!(
            pool2 < pool1,
            "2-choice stationary pool {pool2} should undercut 1-choice {pool1}"
        );
    }

    #[test]
    fn label_mentions_parameters() {
        let p = process(8, 2, 0.75);
        let l = iba_sim::AllocationProcess::label(&p);
        assert!(l.contains("n=8") && l.contains("c=2") && l.contains("0.75"));
    }

    #[test]
    fn heterogeneous_capacities_are_respected() {
        let config = CappedConfig::new(4, 2, 0.5)
            .unwrap()
            .with_capacity_profile(vec![1, 3, 1, 3])
            .unwrap();
        let mut p = CappedProcess::new(config);
        // Saturate every bin: 12 balls, 3 to each bin.
        p.inject_pool(10);
        let choices = [0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3];
        let r = p.step_with_choices(&choices);
        // Bins 0 and 2 accept 1 each; bins 1 and 3 accept 3 each.
        assert_eq!(r.accepted, 8);
        assert_eq!(p.bin(0).len(), 0); // accepted 1, served 1
        assert_eq!(p.bin(1).len(), 2); // accepted 3, served 1
        assert_eq!(p.bin(2).len(), 0);
        assert_eq!(p.bin(3).len(), 2);
        assert!(p.conserves_balls());
    }

    #[test]
    fn heterogeneous_system_is_stable_at_matching_rate() {
        // Mixed capacities {1, 3} with mean 2 must sustain λ = 0.75 like a
        // uniform c = 2 system does.
        let n = 128;
        let profile: Vec<u32> = (0..n).map(|i| if i % 2 == 0 { 1 } else { 3 }).collect();
        let config = CappedConfig::new(n, 2, 0.75)
            .unwrap()
            .with_capacity_profile(profile)
            .unwrap();
        let mut p = CappedProcess::new(config);
        let mut rng = SimRng::seed_from(21);
        for _ in 0..1_000 {
            p.step(&mut rng);
        }
        let mid = p.pool_size();
        for _ in 0..1_000 {
            p.step(&mut rng);
        }
        let end = p.pool_size();
        assert!(p.conserves_balls());
        assert!(
            (end as i64 - mid as i64).unsigned_abs() < 3 * n as u64,
            "pool drifting: {mid} -> {end}"
        );
    }

    #[test]
    fn acceptance_policies_conserve_and_differ_in_tails() {
        use crate::config::AcceptancePolicy;
        let n = 256;
        let lambda = 1.0 - 1.0 / 64.0;
        let mut max_wait = std::collections::HashMap::new();
        for policy in [
            AcceptancePolicy::OldestFirst,
            AcceptancePolicy::YoungestFirst,
            AcceptancePolicy::Random,
        ] {
            let config = CappedConfig::new(n, 2, lambda).unwrap().with_policy(policy);
            let mut p = CappedProcess::new(config);
            let mut rng = SimRng::seed_from(77);
            let mut worst = 0u64;
            for i in 0..2_000 {
                let r = p.step(&mut rng);
                assert!(r.conserves_balls(), "{policy}");
                assert!(p.conserves_balls(), "{policy}");
                assert!(p.pool().is_age_sorted(), "{policy}");
                if i >= 1_000 {
                    worst = worst.max(r.max_waiting_time().unwrap_or(0));
                }
            }
            max_wait.insert(format!("{policy}"), worst);
        }
        // Oldest-first must have the (weakly) best tail; youngest-first
        // starves old balls and must be strictly worse.
        let oldest = max_wait["oldest-first"];
        let youngest = max_wait["youngest-first"];
        let random = max_wait["random"];
        assert!(
            youngest > 2 * oldest,
            "youngest-first tail {youngest} should dwarf oldest-first {oldest}"
        );
        assert!(random >= oldest, "random {random} vs oldest {oldest}");
    }

    #[test]
    #[should_panic(expected = "oldest-first policy")]
    fn step_with_choices_rejects_ablation_policies() {
        use crate::config::AcceptancePolicy;
        let config = CappedConfig::new(4, 1, 0.5)
            .unwrap()
            .with_policy(AcceptancePolicy::Random);
        let mut p = CappedProcess::new(config);
        p.step_with_choices(&[0, 1]);
    }

    #[test]
    fn offline_bin_rejects_and_freezes() {
        let mut p = process(4, 2, 0.5);
        // Round 1: fill bin 0 with both balls.
        p.step_with_choices(&[0, 0]);
        assert_eq!(p.bin(0).len(), 1); // accepted 2, served 1

        p.set_bin_offline(0, true);
        assert_eq!(p.offline_count(), 1);
        // Round 2: both new balls target bin 0 -> rejected; nothing served
        // from bin 0; its ball stays frozen.
        let r = p.step_with_choices(&[0, 0]);
        assert_eq!(r.accepted, 0);
        assert_eq!(r.pool_size, 2);
        assert_eq!(p.bin(0).len(), 1);
        assert!(p.conserves_balls());

        // Recovery: bin 0 serves its frozen ball (generated round 1,
        // served round 3 => waiting time 2) and accepts again.
        p.set_bin_offline(0, false);
        let r = p.step_with_choices(&[0, 0, 0, 0]); // 2 leftovers + 2 new
        assert_eq!(r.accepted, 1);
        assert!(r.waiting_times.contains(&2));
        assert!(p.conserves_balls());
    }

    #[test]
    fn system_stays_stable_under_partial_outage() {
        // 10 % of bins crash permanently; effective service capacity drops
        // to 0.9n per round, still above λn = 0.75n, so the pool must not
        // diverge.
        let n = 200;
        let mut p = process(n, 2, 0.75);
        for i in 0..n / 10 {
            p.set_bin_offline(i * 10, true);
        }
        let mut rng = SimRng::seed_from(33);
        for _ in 0..1_500 {
            p.step(&mut rng);
        }
        let mid = p.pool_size();
        for _ in 0..1_500 {
            p.step(&mut rng);
        }
        let end = p.pool_size();
        assert!(p.conserves_balls());
        // No linear growth: the pool stays within a stochastic band.
        assert!(
            (end as i64 - mid as i64).unsigned_abs() < (n * 4) as u64,
            "pool drifting: {mid} -> {end}"
        );
    }

    #[test]
    #[should_panic(expected = "bin index 4 out of range for a process with n = 4 bins")]
    fn set_bin_offline_rejects_out_of_range_index() {
        let mut p = process(4, 1, 0.5);
        p.set_bin_offline(4, true);
    }

    #[test]
    fn try_set_bin_offline_reports_out_of_domain() {
        use iba_sim::error::ConfigError;
        let mut p = process(4, 1, 0.5);
        assert!(matches!(
            p.try_set_bin_offline(4, true),
            Err(ConfigError::OutOfDomain { .. })
        ));
        assert_eq!(p.offline_count(), 0, "failed call must not mutate");
        assert!(p.try_set_bin_offline(3, true).is_ok());
        assert!(p.is_bin_offline(3));
        assert_eq!(p.offline_count(), 1);
    }

    #[test]
    fn degraded_capacity_rejects_new_but_keeps_overflow() {
        let mut p = process(4, 3, 0.5);
        // Fill bin 0 to its configured capacity 3; one ball is served.
        p.inject_pool(1);
        p.step_with_choices(&[0, 0, 0]);
        assert_eq!(p.bin(0).len(), 2);

        p.set_bin_capacity(0, Capacity::finite(1).unwrap());
        assert_eq!(p.bin(0).capacity(), Capacity::finite(1).unwrap());
        // Over the degraded bound: rejects until drained below it.
        let r = p.step_with_choices(&[0, 0]);
        assert_eq!(r.accepted, 0);
        assert_eq!(p.bin(0).len(), 1); // one served, none accepted
        assert!(p.conserves_balls());
    }

    #[test]
    fn fault_tolerant_surface_maps_to_process_operations() {
        use iba_sim::faults::FaultTolerant;
        let mut p = process(8, 2, 0.5);
        FaultTolerant::crash_bin(&mut p, 2);
        assert!(p.is_bin_offline(2));
        assert_eq!(FaultTolerant::offline_bins(&p), 1);
        FaultTolerant::recover_bin(&mut p, 2);
        assert_eq!(p.offline_count(), 0);
        FaultTolerant::set_bin_capacity(&mut p, 1, Some(5));
        assert_eq!(p.bin(1).capacity(), Capacity::finite(5).unwrap());
        FaultTolerant::set_bin_capacity(&mut p, 1, Some(0)); // malformed: ignored
        assert_eq!(p.bin(1).capacity(), Capacity::finite(5).unwrap());
        FaultTolerant::set_bin_capacity(&mut p, 1, None);
        assert_eq!(p.bin(1).capacity(), Capacity::Infinite);
        FaultTolerant::surge_pool(&mut p, 42);
        assert_eq!(p.pool_size(), 42);
        assert!(p.conserves_balls());
    }

    #[test]
    fn load_histogram_counts_bins() {
        let mut p = process(8, 2, 0.75);
        let mut rng = SimRng::seed_from(12);
        for _ in 0..20 {
            p.step(&mut rng);
        }
        let h = p.load_histogram();
        assert_eq!(h.count(), 8); // one entry per bin
        assert!(h.max().unwrap_or(0) <= 2);
    }
}
