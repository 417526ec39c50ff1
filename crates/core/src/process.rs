//! The CAPPED(c, λ) process (Algorithm 1 of the paper).

use iba_sim::arrivals::ArrivalModel;
use iba_sim::process::{AllocationProcess, RoundReport};
use iba_sim::rng::SimRng;
use iba_sim::stats::Histogram;

use crate::arena::{BinArena, BinView};
use crate::ball::Ball;
use crate::config::{Capacity, CappedConfig, MAX_CAPACITY};
use crate::pool::{Pool, Run};

/// The round kernel a [`CappedProcess`] runs. There is one: the flat
/// [`BinArena`] with its acceptance scatter and bulk RNG draw, for every
/// capacity configuration. The enum stays only because the
/// repository benchmark prints its name; it goes with the benchmark's API
/// shims (ROADMAP item 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelMode {
    /// Flat-arena storage with the acceptance scatter and bulk RNG.
    #[default]
    Arena,
}

impl KernelMode {
    /// Stable lowercase identifier (`arena`), used in provenance records
    /// and benchmark output.
    pub fn name(self) -> &'static str {
        match self {
            KernelMode::Arena => "arena",
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
/// The process is the pool plus one [`BinArena`] holding the bins; a
/// round draws the choices, runs the arena's acceptance stage
/// ([`BinArena::accept_stream`], item 3) and then its deletion sweep
/// ([`BinArena::serve_sweep`], item 4). The pool is processed in global
/// oldest-first order and each bin accepts greedily while it has room,
/// which yields exactly the acceptance rule in item 3 (see `Pool`'s
/// documentation).
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
    arena: BinArena,
    round: u64,
    total_generated: u64,
    total_deleted: u64,
    /// The reject runs' buffer, reused round to round.
    scratch: Vec<Run>,
    /// This round's pre-drawn bin choices, one per pooled ball.
    choices: Vec<u32>,
}

enum ChoiceSource<'a> {
    /// Draw one uniform bin per ball.
    Rng(&'a mut SimRng),
    /// Use pre-drawn bin choices (index i for the i-th thrown ball) —
    /// the hook used by the Lemma-1/6 coupling.
    Slice(&'a [usize]),
}

impl CappedProcess {
    /// Creates the process in the paper's initial state: empty pool, empty
    /// bins, round 0.
    pub fn new(config: CappedConfig) -> Self {
        let arena = BinArena::new((0..config.bins()).map(|i| config.capacity_of(i)).collect());
        Self::from_parts(config, arena, Pool::new(), 0, 0, 0)
    }

    /// Assembles a process from its state: the bins (an arena of `n`
    /// bins, holding queues, live capacities, and the fault mask), the
    /// age-sorted pool, the last completed round, and the lifetime
    /// generated/deleted counters. This is how checkpoints are restored.
    ///
    /// # Panics
    ///
    /// Panics unless `arena` holds exactly `config.bins()` bins.
    pub fn from_parts(
        config: CappedConfig,
        arena: BinArena,
        pool: Pool,
        round: u64,
        total_generated: u64,
        total_deleted: u64,
    ) -> Self {
        assert!(
            arena.bins() == config.bins(),
            "the process's arena must hold n bins"
        );
        CappedProcess {
            config,
            pool,
            arena,
            round,
            total_generated,
            total_deleted,
            scratch: Vec::new(),
            choices: Vec::new(),
        }
    }

    /// Fault injection: takes bin `i` offline (`true`) or back online
    /// (`false`). An offline bin rejects every allocation request and
    /// stops serving; balls already in its buffer are frozen — they resume
    /// FIFO service when the bin recovers (crash-recovery semantics, no
    /// ball loss). Used by the chaos experiments.
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message if `i ≥ n`.
    pub fn set_bin_offline(&mut self, i: usize, offline: bool) {
        assert!(
            i < self.arena.bins(),
            "bin index {i} out of range for a process with n = {} bins",
            self.arena.bins()
        );
        self.arena.set_offline(i, offline);
    }

    /// Whether bin `i` is currently offline.
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ n`.
    pub fn is_bin_offline(&self, i: usize) -> bool {
        self.arena.is_offline(i)
    }

    /// Number of currently offline bins.
    pub fn offline_count(&self) -> usize {
        (0..self.arena.bins())
            .filter(|&i| self.arena.is_offline(i))
            .count()
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
    pub fn set_bin_capacity(&mut self, i: usize, capacity: Capacity) {
        assert!(
            i < self.config.bins(),
            "bin index {i} out of range for a process with n = {} bins",
            self.config.bins()
        );
        self.arena.set_capacity(i, capacity);
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

    /// Read access to bin `i`: its balls in FIFO order and live capacity.
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ n`.
    pub fn bin(&self, i: usize) -> BinView<'_> {
        self.arena.view(i)
    }

    /// Current loads of all bins.
    pub fn loads(&self) -> Vec<usize> {
        (0..self.arena.bins()).map(|i| self.arena.len(i)).collect()
    }

    /// Histogram of current bin loads (values `0..=c`).
    pub fn load_histogram(&self) -> Histogram {
        (0..self.arena.bins())
            .map(|i| self.arena.len(i) as u64)
            .collect()
    }

    /// Total number of balls stored in bin buffers.
    pub fn buffered(&self) -> usize {
        self.arena.buffered()
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
        // IBA1 stores the pool as one label per ball.
        enc.u64_seq(self.pool.iter().map(|ball| ball.label()));
        enc.usize(self.config.bins());
        for i in 0..self.config.bins() {
            let bin = self.arena.view(i);
            // Live capacity, which fault injection may have diverged from
            // the configured profile.
            enc.u64(u64::from(bin.capacity().get()));
            let labels: Vec<u64> = bin.iter().map(Ball::label).collect();
            enc.u64_seq(labels.into_iter());
        }
        for i in 0..self.config.bins() {
            enc.bool(self.arena.is_offline(i));
        }
    }

    /// Deserializes a process from a checkpoint decoder.
    ///
    /// # Errors
    ///
    /// Returns a [`iba_sim::codec::CodecError`] on truncated or malformed
    /// input, including states violating the process invariants (unsorted
    /// pool, a pooled or buffered ball labeled after the checkpoint's
    /// round, a bin capacity of 0 or above [`MAX_CAPACITY`], a load above
    /// [`MAX_CAPACITY`], broken conservation) and states whose bin arena
    /// cannot be allocated ([`BinArena::try_from_bins`]).
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
        // Every ball was generated by round `round` at the latest; a later
        // label would make the next generation run out of order.
        if pool_labels.last().is_some_and(|&label| label > round) {
            return Err(CodecError::Invalid {
                what: "pool label past the checkpoint round",
            });
        }
        let pool: Pool = pool_labels.iter().map(|&l| Ball::generated_in(l)).collect();
        let bin_count = dec.usize("bin count")?;
        if bin_count != config.bins() {
            return Err(CodecError::Invalid { what: "bin count" });
        }
        // No reservation by `bin_count`: it comes from the input, and a
        // forged count must fail on the missing bytes, not allocate first.
        let mut caps = Vec::new();
        let mut contents: Vec<Vec<Ball>> = Vec::new();
        for _ in 0..bin_count {
            let raw = dec.u64("bin capacity")?;
            let capacity = u32::try_from(raw)
                .ok()
                .and_then(|c| Capacity::finite(c).ok())
                .ok_or(CodecError::Invalid {
                    what: "bin capacity",
                })?;
            let labels = dec.u64_seq("bin queue")?;
            // Balls enter a bin only by acceptance, below a capacity of at
            // most MAX_CAPACITY.
            if labels.len() > MAX_CAPACITY as usize {
                return Err(CodecError::Invalid {
                    what: "bin load past MAX_CAPACITY",
                });
            }
            if labels.iter().any(|&label| label > round) {
                return Err(CodecError::Invalid {
                    what: "bin label past the checkpoint round",
                });
            }
            // No load-vs-capacity check: a degraded bin legally holds more
            // balls than its live capacity (capacity degradation);
            // conservation is verified below.
            caps.push(capacity);
            contents.push(labels.iter().map(|&l| Ball::generated_in(l)).collect());
        }
        let offline = (0..bin_count)
            .map(|_| dec.bool("offline flag"))
            .collect::<Result<Vec<bool>, _>>()?;
        // The arena is n rings of at most MAX_CAPACITY slots each, and n
        // comes from the input, so it is allocated fallibly.
        let mut arena = BinArena::try_from_bins(caps, contents).ok_or(CodecError::Invalid {
            what: "bin arena size (more slots than can be allocated)",
        })?;
        for (i, off) in offline.into_iter().enumerate() {
            arena.set_offline(i, off);
        }
        let process = Self::from_parts(config, arena, pool, round, total_generated, total_deleted);
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
    /// Panics if the arrival model is not deterministic, or if
    /// `choices.len()` differs from the number of thrown balls
    /// (`pool + λn`).
    pub fn step_with_choices(&mut self, choices: &[usize]) -> RoundReport {
        let ArrivalModel::Deterministic { batch } = *self.config.arrivals() else {
            panic!("step_with_choices requires the deterministic arrival model");
        };
        assert_eq!(
            choices.len(),
            self.pool.len() + batch as usize,
            "need exactly one choice per thrown ball"
        );
        self.run_round(batch, ChoiceSource::Slice(choices))
    }

    /// Executes one round whose arrivals the caller supplies: `generated`
    /// new balls, labeled with the new round, join the pool, and every
    /// pooled ball draws its bin from `rng` exactly as in
    /// [`step`](AllocationProcess::step). Every ball the round serves is
    /// handed to `served` with its bin, in bin order, as its waiting time
    /// lands in `report.waiting_times`.
    ///
    /// This is how a service steps the process: its arrivals are the
    /// model's sample (drawn from `rng` first, as `step` does) plus the
    /// requests it admitted, and the sink tells it which bin served each
    /// ball.
    pub fn step_with_arrivals<F: FnMut(usize, Ball)>(
        &mut self,
        generated: u64,
        rng: &mut SimRng,
        report: &mut RoundReport,
        served: F,
    ) {
        self.run_round_into(generated, ChoiceSource::Rng(rng), report, served);
    }

    /// Elastic membership: adds `count` empty, online bins of the
    /// configured capacity at the top of the index space, and resizes the
    /// configuration to the new bin count.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has a heterogeneous capacity profile,
    /// which a resized configuration cannot express.
    pub fn add_bins(&mut self, count: usize) {
        let capacity = self.config.capacity();
        for _ in 0..count {
            self.arena.push_bin(capacity);
        }
        self.resize_config();
    }

    /// Elastic membership: removes up to `count` bins from the top of the
    /// index space, always keeping one, and resizes the configuration.
    /// The removed bins' buffered balls re-enter the pool with their
    /// labels and retry from the next round. Returns how many balls were
    /// drained.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has a heterogeneous capacity profile.
    pub fn remove_bins(&mut self, count: usize) -> u64 {
        let mut drained = Vec::new();
        for _ in 0..count.min(self.arena.bins() - 1) {
            drained.extend(self.arena.pop_bin().1);
        }
        self.resize_config();
        let moved = drained.len() as u64;
        if moved > 0 {
            self.pool.merge_balls(drained);
        }
        moved
    }

    fn resize_config(&mut self) {
        if self.arena.bins() != self.config.bins() {
            self.config = self
                .config
                .clone()
                .resized(self.arena.bins())
                .expect("elastic membership needs uniform capacities");
        }
    }

    fn run_round(&mut self, generated: u64, source: ChoiceSource<'_>) -> RoundReport {
        let mut report = RoundReport::default();
        self.run_round_into(generated, source, &mut report, drop_served);
        report
    }

    fn run_round_into<F: FnMut(usize, Ball)>(
        &mut self,
        generated: u64,
        source: ChoiceSource<'_>,
        report: &mut RoundReport,
        mut served: F,
    ) {
        let n = self.config.bins();
        self.round += 1;
        let round = self.round;

        // 1. Ball generation.
        let gen_timer = iba_obs::PhaseTimer::start();
        self.pool.push_generation(round, generated);
        self.total_generated += generated;
        let thrown = self.pool.len() as u64;
        if let Some(p) = crate::obs::probes() {
            gen_timer.observe(&p.phase_generate_nanos);
        }

        // 2 + 3. Random choices and oldest-first greedy acceptance: the
        // whole round is the pool's label runs plus one bin choice per
        // ball through the arena. Pre-drawing every choice in pool order
        // consumes the RNG exactly as per-ball draws interleaved with the
        // acceptance would.
        let accept_timer = iba_obs::PhaseTimer::start();
        let mut runs = self.pool.take_runs();
        let mut rejected = std::mem::take(&mut self.scratch);
        rejected.clear();
        match source {
            ChoiceSource::Slice(choices) => {
                self.choices.clear();
                self.choices.extend(
                    choices
                        .iter()
                        .map(|&c| u32::try_from(c).expect("bin index fits u32")),
                );
            }
            ChoiceSource::Rng(rng) => {
                self.choices.resize(thrown as usize, 0);
                rng.fill_uniform_bins(n, &mut self.choices);
            }
        }
        let accepted = self
            .arena
            .accept_stream(&self.choices, &runs, &mut rejected);
        runs.clear();
        self.scratch = runs;
        self.pool.restore_runs(rejected);
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
        let stats = self.arena.serve_sweep(|bin, ball| {
            waiting_times.push(ball.age_at(round));
            served(bin, ball);
        });
        let deleted = waiting_times.len() as u64;
        self.total_deleted += deleted;

        report.round = round;
        report.generated = generated;
        report.thrown = thrown;
        report.accepted = accepted;
        report.deleted = deleted;
        report.failed_deletions = stats.failed_deletions;
        report.pool_size = self.pool.len() as u64;
        report.buffered = stats.buffered;
        report.max_load = stats.max_load;

        if let Some(p) = crate::obs::probes() {
            serve_timer.observe(&p.phase_serve_nanos);
            iba_obs::flight::recorder().record_round(iba_obs::flight::RoundSample {
                round,
                generated,
                accepted,
                deleted,
                failed_deletions: stats.failed_deletions,
                pool_size: report.pool_size,
                buffered: stats.buffered,
                max_load: stats.max_load,
            });
        }
    }
}

/// The served sink of a round whose caller wants only its report: one
/// function item, so every such round shares one instantiation.
fn drop_served(_: usize, _: Ball) {}

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
        self.run_round(generated, ChoiceSource::Rng(rng))
    }

    fn step_into(&mut self, rng: &mut SimRng, report: &mut RoundReport) {
        let generated = self.config.arrivals().sample(rng);
        self.run_round_into(generated, ChoiceSource::Rng(rng), report, drop_served);
    }

    fn label(&self) -> String {
        format!(
            "capped(n={}, c={}, λ={})",
            self.config.bins(),
            self.config.capacity(),
            self.config.lambda()
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

    fn set_bin_capacity(&mut self, i: usize, capacity: u32) {
        // 0 or above MAX_CAPACITY: malformed, ignored.
        if let Ok(capacity) = Capacity::finite(capacity) {
            CappedProcess::set_bin_capacity(self, i, capacity);
        }
    }

    fn surge_pool(&mut self, extra: u64) {
        self.inject_pool(extra);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn max_capacity_accepts_everything() {
        // A capacity no load reaches rejects nothing: CAPPED(∞, λ).
        let mut p = process(32, MAX_CAPACITY, 0.75);
        let mut rng = SimRng::seed_from(8);
        for _ in 0..100 {
            let r = p.step(&mut rng);
            assert_eq!(r.pool_size, 0, "a capacity no load reaches rejects nothing");
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
        FaultTolerant::set_bin_capacity(&mut p, 1, 5);
        assert_eq!(p.bin(1).capacity(), Capacity::finite(5).unwrap());
        // Malformed: ignored.
        FaultTolerant::set_bin_capacity(&mut p, 1, 0);
        FaultTolerant::set_bin_capacity(&mut p, 1, MAX_CAPACITY + 1);
        assert_eq!(p.bin(1).capacity(), Capacity::finite(5).unwrap());
        FaultTolerant::surge_pool(&mut p, 42);
        assert_eq!(p.pool_size(), 42);
        assert!(p.conserves_balls());
    }

    #[test]
    fn step_with_arrivals_hands_every_served_ball_to_the_sink() {
        let mut p = process(16, 2, 0.5);
        let mut reference = p.clone();
        let (mut rng, mut ref_rng) = (SimRng::seed_from(14), SimRng::seed_from(14));
        let mut report = RoundReport::default();
        for _ in 0..30 {
            let mut served = Vec::new();
            // The model's sample, drawn first, is what `step` would draw.
            let generated = p.config().arrivals().sample(&mut rng);
            p.step_with_arrivals(generated, &mut rng, &mut report, |bin, ball| {
                served.push((bin, ball))
            });
            assert_eq!(report, reference.step(&mut ref_rng));
            assert!(served.windows(2).all(|w| w[0].0 < w[1].0), "bin order");
            let waits: Vec<u64> = served.iter().map(|(_, b)| b.age_at(p.round())).collect();
            assert_eq!(waits, report.waiting_times);
        }
    }

    #[test]
    fn elastic_bins_resize_the_config_and_drain_into_the_pool() {
        let mut p = process(8, 2, 0.75);
        let mut rng = SimRng::seed_from(15);
        for _ in 0..10 {
            p.step(&mut rng);
        }
        p.add_bins(4);
        assert_eq!(p.config().bins(), 12);
        assert_eq!(p.loads()[8..], [0, 0, 0, 0]);
        p.step(&mut rng);
        let top: usize = p.loads()[1..].iter().sum();
        let pool = p.pool_size();
        assert_eq!(p.remove_bins(20), top as u64, "all but one bin drain");
        assert_eq!(p.config().bins(), 1);
        assert_eq!(p.pool_size(), pool + top);
        assert!(p.pool().is_age_sorted());
        assert!(p.conserves_balls());
        assert_eq!(p.remove_bins(1), 0, "the last bin stays");
        assert_eq!(p.config().bins(), 1);
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
