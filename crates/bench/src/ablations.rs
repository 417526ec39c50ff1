//! Ablations and robustness experiments (`DOM`, `ABL-d`, `ABL-arr`,
//! `STAB`, `POLICY`, ...), and the [`AblationProcess`] behind `ABL-d` and
//! `POLICY`.

use std::fmt;

use iba_core::config::CappedConfig;
use iba_core::coupling::CoupledRun;
use iba_core::process::CappedProcess;
use iba_core::{Ball, BinArena, Pool};
use iba_sim::arrivals::ArrivalModel;
use iba_sim::output::Table;
use iba_sim::process::{AllocationProcess, RoundReport};
use iba_sim::rng::SimRng;
use iba_sim::runner::{replicate, PointEstimate};

use iba_analysis::fits;

use crate::continuous::{ContinuousCapped, ContinuousConfig};
use crate::figures::ExperimentOutput;
use crate::measure::{measure_capped, measure_process, MeasureConfig};
use crate::scale::Scale;

/// The order in which an [`AblationProcess`]'s requests reach the bins,
/// and so which requests a bin accepts when more ask than it has room for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Priority {
    /// Oldest requests first (Algorithm 1).
    OldestFirst,
    /// A uniformly random order (age-blind).
    Random,
    /// Youngest requests first (adversarial: old balls starve).
    YoungestFirst,
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Priority::OldestFirst => "oldest-first",
            Priority::Random => "random",
            Priority::YoungestFirst => "youngest-first",
        })
    }
}

/// CAPPED(c, λ) with Algorithm 1's two design choices turned into knobs,
/// for the `ABL-d` and `POLICY` ablations. Each ball samples `d` uniform
/// bins and requests the least loaded (ties toward the first sample), and
/// the round's requests reach the bins in [`Priority`] order. Under either
/// knob a ball's fate depends on loads that change *during* the request
/// stream, so the process walks its bins ball by ball
/// ([`BinArena::try_accept`]) and then runs the arena's deletion sweep.
///
/// With `d = 1` and [`Priority::OldestFirst`] it is Algorithm 1: its
/// `RoundReport`s equal [`CappedProcess`]'s under the same RNG stream.
#[derive(Debug, Clone)]
pub struct AblationProcess {
    config: CappedConfig,
    d: u32,
    priority: Priority,
    pool: Pool,
    arena: BinArena,
    round: u64,
}

impl AblationProcess {
    /// Creates the process in the paper's initial state (empty pool, empty
    /// bins, round 0).
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    pub fn new(config: CappedConfig, d: u32, priority: Priority) -> Self {
        assert!(d >= 1, "every ball needs at least one choice");
        let arena = BinArena::new((0..config.bins()).map(|i| config.capacity_of(i)).collect());
        AblationProcess {
            config,
            d,
            priority,
            pool: Pool::new(),
            arena,
            round: 0,
        }
    }

    /// Fills the pool to the theory-predicted stationary size, as
    /// [`CappedProcess::warm_start`] does. Call before the first step.
    pub fn warm_start(&mut self) {
        let target = self.config.predicted_stationary_pool();
        let extra = target.saturating_sub(self.pool.len()) as u64;
        self.pool.push_generation(self.round, extra);
    }

    /// The pool.
    pub fn pool(&self) -> &Pool {
        &self.pool
    }
}

impl AllocationProcess for AblationProcess {
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
        self.round += 1;
        let round = self.round;
        self.pool.push_generation(round, generated);
        let mut balls: Vec<Ball> = std::mem::take(&mut self.pool).iter().collect();
        let thrown = balls.len() as u64;
        match self.priority {
            Priority::OldestFirst => {}
            Priority::YoungestFirst => balls.reverse(),
            Priority::Random => {
                // Fisher–Yates shuffle.
                for i in (1..balls.len()).rev() {
                    let j = rng.uniform_below(i as u64 + 1) as usize;
                    balls.swap(i, j);
                }
            }
        }
        let n = self.arena.bins();
        let mut rejected = Vec::new();
        for ball in balls {
            let mut best = rng.uniform_bin(n);
            for _ in 1..self.d {
                let candidate = rng.uniform_bin(n);
                if self.arena.len(candidate) < self.arena.len(best) {
                    best = candidate;
                }
            }
            if !self.arena.try_accept(best, ball) {
                rejected.push(ball);
            }
        }
        // The pool keeps age order whatever order the bins saw: it is
        // rebuilt from the sorted rejects.
        let accepted = thrown - rejected.len() as u64;
        self.pool = rejected.into_iter().collect();
        let mut waiting_times = Vec::new();
        let stats = self
            .arena
            .serve_sweep(|_, ball| waiting_times.push(ball.age_at(round)));
        RoundReport {
            round,
            generated,
            thrown,
            accepted,
            deleted: waiting_times.len() as u64,
            failed_deletions: stats.failed_deletions,
            pool_size: self.pool.len() as u64,
            buffered: stats.buffered,
            max_load: stats.max_load,
            waiting_times,
        }
    }
}

/// **`DOM`** — executes the Lemma-1/6 coupling for several `(c, λ)` and
/// reports, per configuration, the number of dominance violations (which
/// must be 0) and the mean pool-size slack `m^M − m^C` (how loose the
/// coupling is in practice).
pub fn dominance(scale: Scale) -> ExperimentOutput {
    let n = (scale.bins() / 8).max(64); // the coupling runs two processes; keep it nimble
    let rounds = scale.window().max(300);
    let mut table = Table::new(
        "Dominance coupling (Lemmas 1 and 6)",
        &[
            "c",
            "lambda",
            "rounds",
            "violations",
            "mean slack m^M - m^C",
        ],
    );
    let notes = vec![format!("n = {n}; violations must be exactly 0")];
    for (c, lambda) in [
        (1u32, 0.5),
        (1, 0.75),
        (2, 0.75),
        (3, 0.75),
        (2, 1.0 - 1.0 / n as f64),
    ] {
        let config = CappedConfig::new(n, c, lambda).expect("valid");
        let mut run = CoupledRun::new(config).expect("valid coupling");
        let mut rng = SimRng::seed_from(u64::from(c) * 31 + 5);
        let mut violations = 0u64;
        let mut slack_sum = 0.0;
        for _ in 0..rounds {
            let report = run.step(&mut rng);
            if !report.dominance_holds() {
                violations += 1;
            }
            slack_sum += report.modcapped.pool_size as f64 - report.capped.pool_size as f64;
        }
        table.row(vec![
            u64::from(c).into(),
            format!("{lambda:.6}").into(),
            rounds.into(),
            violations.into(),
            (slack_sum / rounds as f64).into(),
        ]);
    }
    ExperimentOutput::new(table, notes)
}

/// **`ABL-d`** — does giving CAPPED balls `d = 2` choices help once
/// buffers already exist? (The paper keeps `d = 1` and argues buffers
/// substitute for choices; this ablation quantifies the residual benefit.)
pub fn choice_ablation(scale: Scale) -> ExperimentOutput {
    let n = scale.bins();
    let lambda = 0.75;
    let mut table = Table::new(
        "Ablation: d choices per ball x capacity, lambda = 0.75",
        &["c", "d", "pool/n", "avg wait", "max wait"],
    );
    let notes = vec![format!("n = {n}")];
    for c in [1u32, 2, 3] {
        for d in [1u32, 2] {
            let config = CappedConfig::new(n, c, lambda).expect("valid");
            let m = MeasureConfig::for_lambda(lambda, scale.window(), scale.seeds())
                .with_master_seed(u64::from(c * 10 + d));
            let factory = |_| {
                let mut p = AblationProcess::new(config.clone(), d, Priority::OldestFirst);
                p.warm_start();
                p
            };
            let est = measure_process(factory, n, &m);
            table.row(vec![
                u64::from(c).into(),
                u64::from(d).into(),
                est.normalized_pool_mean().into(),
                est.wait_mean.mean().into(),
                est.wait_max.mean().into(),
            ]);
        }
    }
    ExperimentOutput::new(table, notes)
}

/// **`ABL-arr`** — the footnote-2 robustness claim: deterministic,
/// Bernoulli-generator and Poisson arrivals with the same mean rate lead to
/// the same stationary behavior.
pub fn arrival_ablation(scale: Scale) -> ExperimentOutput {
    let n = scale.bins();
    let lambda = 0.75;
    let c = 2u32;
    let mut table = Table::new(
        "Ablation: arrival models, c = 2, lambda = 0.75",
        &["arrivals", "pool/n", "avg wait", "max wait"],
    );
    let notes = vec![format!("n = {n}; all models share mean rate lambda*n")];
    let models: [(&str, ArrivalModel); 3] = [
        (
            "deterministic",
            ArrivalModel::deterministic_rate(n, lambda).expect("valid"),
        ),
        (
            "bernoulli",
            ArrivalModel::bernoulli_rate(n, lambda).expect("valid"),
        ),
        (
            "poisson",
            ArrivalModel::poisson_rate(n, lambda).expect("valid"),
        ),
    ];
    for (name, model) in models {
        let config = CappedConfig::new(n, c, lambda)
            .expect("valid")
            .with_arrivals(model);
        let m = MeasureConfig::for_lambda(lambda, scale.window(), scale.seeds())
            .with_master_seed(name.len() as u64 * 131);
        let est = measure_capped(&config, &m);
        table.row(vec![
            name.into(),
            est.normalized_pool_mean().into(),
            est.wait_mean.mean().into(),
            est.wait_max.mean().into(),
        ]);
    }
    ExperimentOutput::new(table, notes)
}

/// **`STAB`** — self-stabilization: start CAPPED(c, λ) from an adversarial
/// pool of `K·n` balls and measure the number of rounds until the pool
/// re-enters the stationary band (1.5× the Section-V fit). The system is
/// positive recurrent, so recovery must be fast — roughly `K·n` extra
/// balls drained at `(1 − 1/e)·n` per round, i.e. linear in `K`.
pub fn stabilization(scale: Scale) -> ExperimentOutput {
    let n = scale.bins();
    let lambda = 0.75;
    let c = 2u32;
    let band = 1.5 * fits::pool_size_fit(n, c, lambda);
    let mut table = Table::new(
        "Self-stabilization: recovery from adversarial overload, c = 2, lambda = 0.75",
        &["overload K (pool = K*n)", "recovery rounds", "rounds/K"],
    );
    let notes = vec![format!(
        "n = {n}; recovered when pool <= 1.5 * fit = {band:.0}"
    )];
    let mut table_rows = Vec::new();
    // The band is ≈ 2.5n for these parameters; start every overload well
    // above it so "recovery rounds" measures actual draining.
    for k in [4u64, 8, 16, 32, 64] {
        let config = CappedConfig::new(n, c, lambda).expect("valid");
        let mut process = CappedProcess::new(config);
        process.inject_pool(k * n as u64);
        let mut rng = SimRng::seed_from(k * 17 + 3);
        let max_rounds = 200 * k + 10_000;
        let mut recovery = None;
        for round in 1..=max_rounds {
            let report = process.step(&mut rng);
            if (report.pool_size as f64) <= band {
                recovery = Some(round);
                break;
            }
        }
        let rounds = recovery.unwrap_or(max_rounds);
        table_rows.push((k, rounds));
    }
    for (k, rounds) in table_rows {
        table.row(vec![
            k.into(),
            rounds.into(),
            (rounds as f64 / k as f64).into(),
        ]);
    }
    ExperimentOutput::new(table, notes)
}

/// **`POLICY`** — ablation of the paper's oldest-first acceptance rule:
/// the `log log n` waiting-time tail depends on bins preferring the
/// oldest requests (no ball in `M(t)` can be delayed by younger balls —
/// the crux of Lemmas 3–5). Age-blind (`random`) and adversarial
/// (`youngest-first`) priorities keep the *pool* identical in
/// distribution (acceptance counts don't depend on priority) but destroy
/// the tail.
pub fn policy_ablation(scale: Scale) -> ExperimentOutput {
    let n = scale.bins();
    let lambda = 1.0 - 1.0 / 64.0;
    let c = 2u32;
    let mut table = Table::new(
        "Ablation: acceptance priority, c = 2, lambda = 1 - 2^-6",
        &[
            "policy",
            "pool/n",
            "avg wait",
            "p99 wait",
            "p999 wait",
            "max wait",
        ],
    );
    let notes = vec![format!(
        "n = {n}; the pool is priority-invariant, the waiting-time tail is not"
    )];
    for policy in [
        Priority::OldestFirst,
        Priority::Random,
        Priority::YoungestFirst,
    ] {
        let config = CappedConfig::new(n, c, lambda).expect("valid");
        let mut process = AblationProcess::new(config, 1, policy);
        process.warm_start();
        let mut rng = SimRng::seed_from(311);
        for _ in 0..(4.0 / (1.0 - lambda)).ceil() as u64 + 256 {
            process.step(&mut rng);
        }
        let mut waits = iba_sim::stats::Histogram::new();
        let mut pool_sum = 0.0;
        let window = scale.window() * 2;
        for _ in 0..window {
            let r = process.step(&mut rng);
            pool_sum += r.pool_size as f64;
            waits.record_all(&r.waiting_times);
        }
        table.row(vec![
            format!("{policy}").into(),
            (pool_sum / window as f64 / n as f64).into(),
            waits.mean().into(),
            waits.quantile(0.99).unwrap_or(0).into(),
            waits.quantile(0.999).unwrap_or(0).into(),
            waits.max().unwrap_or(0).into(),
        ]);
    }
    ExperimentOutput::new(table, notes)
}

/// **`MSTAR`** — sensitivity of the MODCAPPED coupling to the threshold
/// `m*`: the paper's analysis needs `m* = 2c⁻¹·ln(1/(1−λ))·n + 6c·n` for
/// its Chernoff argument, but the *dominance* (Lemma 6) holds for any
/// `m*`. This experiment varies `m*` as a fraction of the paper's value
/// and reports (i) dominance violations (always 0) and (ii) how the
/// coupling slack — the looseness of the pool bound — scales with `m*`.
pub fn mstar_sensitivity(scale: Scale) -> ExperimentOutput {
    use iba_core::modcapped::m_star_general;

    let n = (scale.bins() / 8).max(64);
    let c = 2u32;
    let lambda = 0.75;
    let rounds = scale.window().max(300);
    let paper_m_star = m_star_general(n, c, lambda);
    let mut table = Table::new(
        "MODCAPPED m* sensitivity, c = 2, lambda = 0.75",
        &[
            "m*/paper",
            "m*",
            "violations",
            "mean slack m^M - m^C",
            "slack / m*",
        ],
    );
    let notes = vec![format!(
        "n = {n}; paper m* = {paper_m_star}; dominance must hold for every m* (Lemma 6's proof never uses its size)"
    )];
    for percent in [25u64, 50, 100, 200] {
        let m_star = (paper_m_star as u64 * percent / 100) as usize;
        let config = CappedConfig::new(n, c, lambda).expect("valid");
        let mut run = CoupledRun::with_m_star(config, m_star).expect("valid");
        let mut rng = SimRng::seed_from(percent + 11);
        let mut violations = 0u64;
        let mut slack_sum = 0.0;
        for _ in 0..rounds {
            let report = run.step(&mut rng);
            violations += u64::from(!report.dominance_holds());
            slack_sum += report.modcapped.pool_size as f64 - report.capped.pool_size as f64;
        }
        let mean_slack = slack_sum / rounds as f64;
        table.row(vec![
            format!("{percent}%").into(),
            m_star.into(),
            violations.into(),
            mean_slack.into(),
            (mean_slack / m_star.max(1) as f64).into(),
        ]);
    }
    ExperimentOutput::new(table, notes)
}

/// **`ASYNC`** — robustness to the synchrony assumption: the
/// continuous-time retrial-queue analog of CAPPED (Poisson arrivals,
/// exponential service and retries; see [`crate::continuous`]) compared
/// against the round-synchronous process at the same `(c, λ)`. The
/// qualitative conclusions — orbit ≈ pool scaling in `1/c`, the
/// waiting-time minimum at moderate `c` — must survive asynchrony. Both
/// sides are measured over `scale.seeds()` independent seeds; the
/// continuous columns carry their 95 % CI half-widths.
pub fn async_comparison(scale: Scale) -> ExperimentOutput {
    let n = (scale.bins() / 8).max(256); // events are costlier than rounds
    let mut table = Table::new(
        "Synchronous rounds vs continuous time (retrial-queue analog)",
        &[
            "lambda",
            "c",
            "sync pool/n",
            "async orbit/n",
            "orbit ci95",
            "sync avg wait",
            "async avg sojourn",
            "sojourn ci95",
        ],
    );
    let notes = vec![format!(
        "n = {n}, {} seeds per cell; async: Poisson arrivals rate lambda*n, Exp(1) service and retries; sojourn counts service time, so async >= sync + ~1 is expected",
        scale.seeds()
    )];
    for lambda in [0.75, 1.0 - 1.0 / 64.0] {
        for c in [1u32, 2, 3, 4] {
            let config = CappedConfig::new(n, c, lambda).expect("valid");
            let m = MeasureConfig::for_lambda(lambda, scale.window(), scale.seeds())
                .with_master_seed(u64::from(c) * 3 + 100);
            let sync = measure_capped(&config, &m);

            let continuous = ContinuousConfig::paper_analog(n, c, lambda);
            let warm = 40.0 / (1.0 - lambda);
            let runs = replicate(u64::from(c) * 5 + 200, scale.seeds(), |_, mut rng| {
                let mut system = ContinuousCapped::new(continuous);
                system.run_for(warm, &mut rng);
                let stats = system.observe(scale.window() as f64, &mut rng);
                (stats.mean_orbit / n as f64, stats.sojourns.mean())
            });
            let orbit = PointEstimate::from_values(&runs.iter().map(|r| r.0).collect::<Vec<_>>());
            let sojourn = PointEstimate::from_values(&runs.iter().map(|r| r.1).collect::<Vec<_>>());

            table.row(vec![
                format!("{lambda:.6}").into(),
                u64::from(c).into(),
                sync.normalized_pool_mean().into(),
                orbit.mean().into(),
                orbit.ci95.half_width.into(),
                sync.wait_mean.mean().into(),
                sojourn.mean().into(),
                sojourn.ci95.half_width.into(),
            ]);
        }
    }
    ExperimentOutput::new(table, notes)
}

/// **`HETERO`** — heterogeneous bin capacities (the non-uniform-bins
/// extension): a 50/50 mixture of capacity-1 and capacity-3 servers vs.
/// the uniform capacity-2 farm with the same total buffer space, each
/// compared against the mixed mean-field prediction.
pub fn hetero(scale: Scale) -> ExperimentOutput {
    let n = scale.bins();
    let lambda = 0.75;
    let mut table = Table::new(
        "Heterogeneous capacities: mixtures vs uniform, lambda = 0.75",
        &[
            "profile",
            "pool/n",
            "mf pool/n",
            "avg wait",
            "mf wait",
            "max wait",
        ],
    );
    let notes = vec![format!(
        "n = {n}; all profiles have mean capacity 2 (same total buffer space)"
    )];
    /// Name, per-bin capacities, and mean-field class mixture.
    type Profile = (&'static str, Vec<u32>, Vec<(u32, f64)>);
    let profiles: [Profile; 3] = [
        ("uniform c=2", vec![2; n], vec![(2, 1.0)]),
        (
            "half 1 / half 3",
            (0..n).map(|i| if i % 2 == 0 { 1 } else { 3 }).collect(),
            vec![(1, 0.5), (3, 0.5)],
        ),
        (
            "quarter 1 / half 2 / quarter 3",
            (0..n)
                .map(|i| match i % 4 {
                    0 => 1,
                    3 => 3,
                    _ => 2,
                })
                .collect(),
            vec![(1, 0.25), (2, 0.5), (3, 0.25)],
        ),
    ];
    for (name, profile, classes) in profiles {
        let config = CappedConfig::new(n, 2, lambda)
            .expect("valid")
            .with_capacity_profile(profile)
            .expect("valid profile");
        let m = MeasureConfig::for_lambda(lambda, scale.window(), scale.seeds())
            .with_master_seed(name.len() as u64 * 307);
        let est = measure_capped(&config, &m);
        let mf = iba_analysis::meanfield::solve_mixed_classes(&classes, lambda);
        table.row(vec![
            name.into(),
            est.normalized_pool_mean().into(),
            mf.pool_per_bin.into(),
            est.wait_mean.mean().into(),
            mf.mean_wait.unwrap_or(0.0).into(),
            est.wait_max.mean().into(),
        ]);
    }
    ExperimentOutput::new(table, notes)
}

/// **`LOAD`** — the stationary bin-load distribution, measured vs. the
/// mean-field prediction of `iba_analysis::meanfield`. Agreement on the
/// *entire distribution* (not just its mean) is the strongest
/// cross-validation between simulator and model.
pub fn load_distribution(scale: Scale) -> ExperimentOutput {
    let n = scale.bins();
    let mut table = Table::new(
        "Stationary bin-load distribution: measured vs mean-field",
        &[
            "c",
            "lambda",
            "load",
            "measured P",
            "mean-field P",
            "abs diff",
        ],
    );
    let notes = vec![format!(
        "n = {n}; distribution measured at the start-of-round boundary, averaged over 50 snapshots"
    )];
    for (c, lambda) in [(2u32, 0.75), (3, 0.9375), (4, 1.0 - 1.0 / 128.0)] {
        let mf = iba_analysis::meanfield::solve(c, lambda);
        let config = CappedConfig::new(n, c, lambda).expect("valid");
        let mut process = CappedProcess::new(config);
        process.warm_start();
        let mut rng = SimRng::seed_from(u64::from(c) * 41 + 9);
        for _ in 0..(4.0 / (1.0 - lambda)).ceil() as u64 + 256 {
            process.step(&mut rng);
        }
        // Time-averaged load distribution across spaced snapshots.
        let snapshots = 50;
        let mut dist = vec![0.0f64; c as usize];
        for _ in 0..snapshots {
            for _ in 0..5 {
                process.step(&mut rng);
            }
            let h = process.load_histogram();
            for (l, slot) in dist.iter_mut().enumerate() {
                *slot += h.count_at(l as u64) as f64 / n as f64;
            }
        }
        for (l, slot) in dist.iter_mut().enumerate() {
            *slot /= snapshots as f64;
            table.row(vec![
                u64::from(c).into(),
                format!("{lambda:.6}").into(),
                l.into(),
                (*slot).into(),
                mf.load_distribution[l].into(),
                (*slot - mf.load_distribution[l]).abs().into(),
            ]);
        }
    }
    ExperimentOutput::new(table, notes)
}

/// **`TAIL`** — the waiting-time *distribution*: Theorem 2(2) is a
/// per-ball w.h.p. statement (failure probability ≤ n⁻²), so across any
/// realistic number of observed deletions, no waiting time may come near
/// the bound. This experiment reports the empirical p50/p90/p99/p999/max
/// waiting times against the Section-V envelope and the Theorem-2 bound.
pub fn wait_tail(scale: Scale) -> ExperimentOutput {
    let n = scale.bins();
    let mut table = Table::new(
        "Waiting-time tail at stationarity",
        &[
            "c",
            "lambda",
            "deletions",
            "p50",
            "p90",
            "p99",
            "p999",
            "max",
            "envelope",
            "thm2 bound",
        ],
    );
    let notes = vec![format!(
        "n = {n}; Theorem 2's bound holds per ball with prob >= 1 - n^-2, so the max must sit far below it"
    )];
    for (c, lambda) in [
        (1u32, 0.75),
        (2, 0.75),
        (2, 1.0 - 1.0 / 128.0),
        (3, 1.0 - 1.0 / 128.0),
    ] {
        let config = CappedConfig::new(n, c, lambda).expect("valid");
        let mut process = CappedProcess::new(config);
        process.warm_start();
        let mut rng = SimRng::seed_from(u64::from(c) * 13 + 2);
        for _ in 0..(4.0 / (1.0 - lambda)).ceil() as u64 + 256 {
            process.step(&mut rng);
        }
        let mut waits = iba_sim::stats::Histogram::new();
        for _ in 0..scale.window() * 4 {
            let report = process.step(&mut rng);
            waits.record_all(&report.waiting_times);
        }
        table.row(vec![
            u64::from(c).into(),
            format!("{lambda:.6}").into(),
            waits.count().into(),
            waits.quantile(0.5).unwrap_or(0).into(),
            waits.quantile(0.9).unwrap_or(0).into(),
            waits.quantile(0.99).unwrap_or(0).into(),
            waits.quantile(0.999).unwrap_or(0).into(),
            waits.max().unwrap_or(0).into(),
            fits::waiting_time_fit(n, c, lambda).into(),
            iba_analysis::bounds::theorem2_waiting_bound(n, c, lambda).into(),
        ]);
    }
    ExperimentOutput::new(table, notes)
}

/// **`CHAOS`** — deterministic fault injection with recovery metrics.
///
/// Each scenario is a seeded [`FaultPlan`](iba_sim::faults::FaultPlan)
/// played against a warm-started CAPPED(2, 0.75) system by
/// `iba_sim::faults::measure_recovery`: burn in, record the pre-fault pool
/// baseline, apply the faults, then count the rounds until the pool
/// re-enters the ε-band around its baseline.
/// Scenarios:
///
/// - **crash 10% / 20%** — a scripted mass outage (well below the
///   stability boundary `f < 1 − λ = 0.25`), healed after a fixed window;
/// - **churn** — i.i.d. per-round crash/recover probabilities from a
///   dedicated RNG stream split off each replication's seed
///   (~9 % of bins offline in expectation), fully healed at the end;
/// - **surge** — a one-shot pool surge of `2n` balls (the
///   self-stabilization overload, expressed as a fault plan).
///
/// Every estimate is a pure function of the master seed: replaying the
/// experiment reproduces every crash and every metric bit-exactly (the
/// first scenario is run twice to verify this; see the notes line).
pub fn chaos(scale: Scale) -> ExperimentOutput {
    use iba_sim::faults::{
        measure_recovery, ChurnModel, FaultEvent, FaultPlan, RecoveryEstimate, RecoveryOptions,
    };

    let n = scale.bins();
    let lambda = 0.75;
    let c = 2u32;
    let master_seed = 0xC0FF_EE00u64;
    let replications = scale.seeds().max(8);
    let outage = 120u64;
    let opts = RecoveryOptions {
        burnin: 400,
        baseline_window: 200,
        epsilon: 0.25,
        min_band: (n as f64 / 256.0).max(8.0),
        stable_rounds: 50,
        max_rounds: 4_000,
    };

    // Fleet-wide fault/recovery totals are read back from the telemetry
    // registry afterwards (as deltas against these baselines) instead of
    // being re-accumulated across the scenario estimates by hand.
    let registry = iba_obs::global();
    let recovery_runs = registry.counter("iba_sim_recovery_runs_total");
    let unrecovered = registry.counter("iba_sim_recovery_unrecovered_total");
    let crashed_bins = registry.counter("iba_sim_fault_crashed_bins_total");
    let surge_balls = registry.counter("iba_sim_fault_surge_balls_total");
    let base = [
        recovery_runs.get(),
        unrecovered.get(),
        crashed_bins.get(),
        surge_balls.get(),
    ];
    let telemetry_was_on = iba_obs::enabled();
    iba_obs::set_enabled(true);

    let config = CappedConfig::new(n, c, lambda).expect("valid");
    let warm = |config: &CappedConfig| {
        let mut p = CappedProcess::new(config.clone());
        p.warm_start();
        p
    };
    let crash_plan = |count: usize| {
        // Which bins crash is irrelevant by symmetry; a deterministic
        // prefix keeps the plan independent of the replication stream.
        let bins: Vec<usize> = (0..count).collect();
        FaultPlan::new()
            .with(1, FaultEvent::CrashBins { bins: bins.clone() })
            .with(outage, FaultEvent::RecoverBins { bins })
    };
    let run_crash = |percent: usize| -> RecoveryEstimate {
        let plan = crash_plan(n * percent / 100);
        measure_recovery(master_seed ^ percent as u64, replications, &opts, |_, _| {
            (warm(&config), plan.clone())
        })
    };

    let mut table = Table::new(
        "Chaos: fault injection and recovery, c = 2, lambda = 0.75",
        &[
            "scenario",
            "reps",
            "recovered",
            "restab rounds",
            "peak pool/n",
            "peak backlog/n",
            "wait impact",
        ],
    );
    let mut row = |label: String, est: &RecoveryEstimate| {
        table.row(vec![
            label.into(),
            (est.replications as u64).into(),
            (est.recovered as u64).into(),
            est.rounds_to_restabilize
                .as_ref()
                .map_or_else(|| "never".to_string(), |p| format!("{:.1}", p.mean()))
                .into(),
            (est.peak_pool.mean() / n as f64).into(),
            (est.peak_backlog.mean() / n as f64).into(),
            est.wait_impact.mean().into(),
        ]);
    };

    let first = run_crash(10);
    let replay = run_crash(10);
    let bit_exact = first.reports == replay.reports;
    row("crash 10%".into(), &first);
    row("crash 20%".into(), &run_crash(20));

    let churn_model = ChurnModel {
        crash_prob: 0.004,
        recover_prob: 0.04,
        start_round: 1,
        rounds: outage,
        heal_at_end: true,
    };
    let churn = measure_recovery(master_seed ^ 0x11, replications, &opts, |_, rng| {
        // The plan draws from a stream split off the replication's seed:
        // reproducible, and decoupled from the simulation's own draws.
        let mut churn_rng = rng.split();
        (warm(&config), churn_model.generate(n, &mut churn_rng))
    });
    row("churn ~9%".into(), &churn);

    let surge = measure_recovery(master_seed ^ 0x22, replications, &opts, |_, _| {
        let plan = FaultPlan::new().with(
            1,
            FaultEvent::PoolSurge {
                extra: 2 * n as u64,
            },
        );
        (warm(&config), plan)
    });
    row("surge 2n".into(), &surge);

    if !telemetry_was_on {
        iba_obs::set_enabled(false);
    }
    let notes = vec![
        format!(
            "n = {n}; {replications} replications per scenario; outage window {outage} rounds; \
             stability requires f < 1 - lambda = 0.25"
        ),
        format!(
            "recovery = pool back inside ±max({:.0}%, {:.0} balls) of the pre-fault baseline \
             for {} consecutive rounds (scan cap {} rounds)",
            opts.epsilon * 100.0,
            opts.min_band,
            opts.stable_rounds,
            opts.max_rounds
        ),
        format!(
            "replaying scenario 'crash 10%' with the same master seed was bit-exact: {bit_exact} \
             (telemetry enabled — probes must not perturb the trajectory)"
        ),
        format!(
            "registry totals: {} recovery runs ({} unrecovered), {} bin crashes, \
             {} surge balls injected",
            recovery_runs.get() - base[0],
            unrecovered.get() - base[1],
            crashed_bins.get() - base[2],
            surge_balls.get() - base[3],
        ),
    ];
    ExperimentOutput::new(table, notes)
}

/// **`LEMMA`** — empirical verification of the waiting-time analysis'
/// phase structure (Lemmas 3–5): fix a stationary round `t` and track the
/// survivors `m(t, t')` of the pool `M(t)`. The analysis predicts
///
/// 1. survivors drop to `2n` within `Δ = m(t)/(n − n/e)` rounds (Lemma 3),
/// 2. to `n/(2e)` within 19 further rounds (Lemma 4),
/// 3. to `0` within `log log n + O(1)` further rounds (Lemma 5).
///
/// The measured phase lengths should sit well below these (deliberately
/// unoptimized) budgets.
pub fn lemma_phases(scale: Scale) -> ExperimentOutput {
    let n = scale.bins();
    let mut table = Table::new(
        "Lemmas 3-5: survivor phases of M(t)",
        &[
            "c",
            "lambda",
            "m(t)/n",
            "rounds to 2n",
            "budget Delta",
            "rounds to n/2e",
            "budget +19",
            "rounds to 0",
            "budget +loglog n+O(1)",
        ],
    );
    let mut notes = vec![format!(
        "n = {n}; budgets are the lemma statements' (unoptimized) allowances"
    )];
    for (c, lambda) in [(1u32, 0.75), (2, 0.75), (1, 1.0 - 1.0 / 128.0)] {
        let config = CappedConfig::new(n, c, lambda).expect("valid");
        let mut process = CappedProcess::new(config);
        process.warm_start();
        let mut rng = SimRng::seed_from(u64::from(c) * 11 + 1);
        // Reach stationarity.
        for _ in 0..(4.0 / (1.0 - lambda)).ceil() as u64 + 256 {
            process.step(&mut rng);
        }
        let t = process.round();
        let m_t = process.pool().len() as f64;
        let delta = (m_t / (n as f64 - n as f64 / std::f64::consts::E)).ceil();
        let loglog = iba_analysis::math::log2_log2(n);

        let mut to_2n = None;
        let mut to_n_2e = None;
        let mut to_zero = None;
        let mut elapsed = 0u64;
        while to_zero.is_none() && elapsed < 100_000 {
            process.step(&mut rng);
            elapsed += 1;
            let survivors = process.pool().survivors_from(t) as f64;
            if to_2n.is_none() && survivors <= 2.0 * n as f64 {
                to_2n = Some(elapsed);
            }
            if to_n_2e.is_none() && survivors <= n as f64 / (2.0 * std::f64::consts::E) {
                to_n_2e = Some(elapsed);
            }
            if survivors == 0.0 {
                to_zero = Some(elapsed);
            }
        }
        let t1 = to_2n.unwrap_or(0);
        let t2 = to_n_2e.unwrap_or(0);
        let t3 = to_zero.unwrap_or(elapsed);
        if to_zero.is_none() {
            notes.push(format!(
                "c={c}: survivors did not vanish within 100000 rounds"
            ));
        }
        table.row(vec![
            u64::from(c).into(),
            format!("{lambda:.6}").into(),
            (m_t / n as f64).into(),
            t1.into(),
            delta.into(),
            t2.into(),
            (delta + 19.0).into(),
            t3.into(),
            (delta + 19.0 + loglog + 6.0).into(),
        ]);
    }
    ExperimentOutput::new(table, notes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dominance_smoke_has_zero_violations() {
        let out = dominance(Scale::Smoke);
        // The violations column (index 3) must be zero in every row.
        let csv = out.table.to_csv();
        for line in csv.lines().skip(1) {
            let violations: u64 = line.split(',').nth(3).unwrap().parse().unwrap();
            assert_eq!(violations, 0, "row: {line}");
        }
    }

    #[test]
    fn one_choice_oldest_first_is_the_capped_process() {
        for (c, lambda) in [(1u32, 0.75), (2, 1.0 - 1.0 / 64.0), (3, 0.5)] {
            for seed in [1u64, 2, 3] {
                let config = CappedConfig::new(128, c, lambda).unwrap();
                let mut capped = CappedProcess::new(config.clone());
                let mut ablation = AblationProcess::new(config, 1, Priority::OldestFirst);
                capped.warm_start();
                ablation.warm_start();
                let mut rng_c = SimRng::seed_from(seed);
                let mut rng_a = SimRng::seed_from(seed);
                for _ in 0..300 {
                    assert_eq!(ablation.step(&mut rng_a), capped.step(&mut rng_c));
                }
                assert_eq!(ablation.pool_size(), capped.pool_size());
            }
        }
    }

    #[test]
    fn two_choice_ablation_reduces_rejections() {
        // With d = 2 the process should reject at most as much as d = 1 on
        // average (power of two choices); compare stationary pools.
        let config = CappedConfig::new(256, 1, 0.75).unwrap();
        let mut one = AblationProcess::new(config.clone(), 1, Priority::OldestFirst);
        let mut two = AblationProcess::new(config, 2, Priority::OldestFirst);
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
    fn acceptance_policies_conserve_and_differ_in_tails() {
        let n = 256;
        let lambda = 1.0 - 1.0 / 64.0;
        let mut max_wait = std::collections::HashMap::new();
        for policy in [
            Priority::OldestFirst,
            Priority::YoungestFirst,
            Priority::Random,
        ] {
            let config = CappedConfig::new(n, 2, lambda).unwrap();
            let mut p = AblationProcess::new(config, 1, policy);
            let mut rng = SimRng::seed_from(77);
            let (mut generated, mut deleted) = (0u64, 0u64);
            let mut worst = 0u64;
            for i in 0..2_000 {
                let r = p.step(&mut rng);
                generated += r.generated;
                deleted += r.deleted;
                assert!(r.conserves_balls(), "{policy}");
                assert_eq!(generated, deleted + r.pool_size + r.buffered, "{policy}");
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
    fn stabilization_recovery_grows_with_overload() {
        let out = stabilization(Scale::Smoke);
        let csv = out.table.to_csv();
        let rounds: Vec<u64> = csv
            .lines()
            .skip(1)
            .map(|l| l.split(',').nth(1).unwrap().parse().unwrap())
            .collect();
        assert_eq!(rounds.len(), 5);
        // K = 16 must take longer than K = 1 (drain is rate-limited).
        assert!(rounds[4] > rounds[0]);
    }
}
