//! `sim_paper`: the paper's cell as a simulation on one thread.
//!
//! Set-up is `CappedProcess` construction plus the adaptive burn-in. The
//! timed phase runs back-to-back rounds through `Simulation::run_observed`
//! with the paper's observers (`WaitingTimes` + `PoolSeries`). A ball's
//! completion time is the wall time from the start of the round that
//! generated it to the end of the round that deleted it.

use std::cell::{Cell as Slot, RefCell};
use std::rc::Rc;
use std::time::{Duration, Instant};

use iba_core::{CappedProcess, KernelMode};
use iba_sim::burnin::{run_burn_in, BurnIn, BurnInOutcome};
use iba_sim::engine::{Observer, PoolSeries, WaitingTimes};
use iba_sim::{AllocationProcess, RoundReport, SimRng, Simulation};

use crate::cell::{
    nanos, ratio, rng_fill_ns_per_ball, sub_seed, Cell, Digest, Rounds, Telemetry, DIGEST_ROUNDS,
};
use crate::report::{Outcome, RECONCILE_TOLERANCE};
use crate::stats::{median, Windowed};
use crate::trace::{totals_by_name, Tracer, ROOT};
use crate::Opts;

/// Set-ups per run; their median time is `setup_s`.
const SETUPS: usize = 5;
/// Rounds per `run_observed` call. Each call allocates a fresh report, so
/// the first round of a call is slower; 512 keeps those rounds below 1 %.
const CHUNK: u64 = 512;
/// Round-end timestamps kept for the completion-time lookup; far above
/// any waiting time the Theorem 2 bound allows at these cells.
const RING: usize = 4096;
/// Span buffer of the traced segment.
const SPAN_CAP: usize = 1 << 20;

/// The traced segment's span buffer, shared by the process wrapper that
/// opens each `round` span and the observers that close it.
#[derive(Clone)]
struct RoundTrace {
    tracer: Rc<RefCell<Tracer>>,
    /// Index of the open `round` span.
    round: Rc<Slot<u32>>,
}

/// The paper's observers plus the benchmark's bookkeeping.
struct PaperObservers {
    waits: WaitingTimes,
    pools: PoolSeries,
    rounds: Rounds,
    /// Completion time of every deleted ball, ns.
    complete: Windowed,
    /// Per waiting time, the deletions already turned into samples.
    seen: Vec<u64>,
    /// `ends[r % RING]` is when round `r` ended.
    ends: Vec<Instant>,
    first_round: u64,
    trace: Option<RoundTrace>,
}

impl PaperObservers {
    fn new(start: Instant, last_round: u64, trace: Option<RoundTrace>) -> Self {
        let mut ends = vec![start; RING];
        ends[last_round as usize % RING] = start;
        PaperObservers {
            waits: WaitingTimes::new(),
            pools: PoolSeries::new(),
            rounds: Rounds::new(start),
            complete: Windowed::new(),
            seen: Vec::new(),
            ends,
            first_round: last_round + 1,
            trace,
        }
    }
}

impl Observer for PaperObservers {
    fn on_round(&mut self, report: &RoundReport) {
        let span = self.trace.as_ref().map(|t| {
            let round = t.round.get();
            t.tracer
                .borrow_mut()
                .open("engine.observe", report.round, round)
        });
        self.waits.on_round(report);
        self.pools.on_round(report);
        let end = Instant::now();
        if let (Some(span), Some(t)) = (span, &self.trace) {
            t.tracer.borrow_mut().close(span);
        }

        let hist = self.waits.histogram();
        let max = hist.max().unwrap_or(0) as usize;
        if self.seen.len() <= max {
            self.seen.resize(max + 1, 0);
        }
        for (w, seen) in self.seen.iter_mut().enumerate() {
            let count = hist.count_at(w as u64);
            let new = count - *seen;
            if new == 0 {
                continue;
            }
            *seen = count;
            // Generated at the start of round `report.round - w`, i.e. when
            // the round before it ended.
            let before = report.round.checked_sub(w as u64 + 1);
            if let Some(before) = before.filter(|&b| b + 1 >= self.first_round && w < RING - 1) {
                let born = self.ends[before as usize % RING];
                self.complete
                    .record_n(nanos(end - self.rounds.start), nanos(end - born), new);
            }
        }
        self.ends[report.round as usize % RING] = end;
        self.rounds.round_ended(report, end);
        if let Some(t) = &self.trace {
            t.tracer.borrow_mut().close(t.round.get());
        }
    }
}

/// A process whose rounds open a `round` span and time `step_into` as a
/// `process.step` child.
struct Traced<P> {
    inner: P,
    trace: RoundTrace,
}

impl<P: AllocationProcess> AllocationProcess for Traced<P> {
    fn bins(&self) -> usize {
        self.inner.bins()
    }

    fn round(&self) -> u64 {
        self.inner.round()
    }

    fn pool_size(&self) -> usize {
        self.inner.pool_size()
    }

    fn step(&mut self, rng: &mut SimRng) -> RoundReport {
        let mut report = RoundReport::default();
        self.step_into(rng, &mut report);
        report
    }

    fn step_into(&mut self, rng: &mut SimRng, report: &mut RoundReport) {
        let id = self.inner.round() + 1;
        let step = {
            let mut t = self.trace.tracer.borrow_mut();
            let round = t.open("round", id, ROOT);
            self.trace.round.set(round);
            t.open("process.step", id, round)
        };
        self.inner.step_into(rng, report);
        self.trace.tracer.borrow_mut().close(step);
    }
}

/// Runs rounds until `seconds` have passed (or the span buffer fills).
fn measure<P: AllocationProcess>(
    sim: &mut Simulation<P>,
    seconds: f64,
    trace: Option<RoundTrace>,
) -> PaperObservers {
    let full = |obs: &PaperObservers| obs.trace.as_ref().is_some_and(|t| t.tracer.borrow().full());
    let mut obs = PaperObservers::new(Instant::now(), sim.process().round(), trace);
    while obs.rounds.elapsed() < seconds && !full(&obs) {
        sim.run_observed(CHUNK, &mut obs);
    }
    obs
}

fn set_up(cell: &Cell, seed: u64) -> (Simulation<CappedProcess>, BurnInOutcome) {
    let mut sim = Simulation::new(CappedProcess::new(cell.config()), SimRng::seed_from(seed));
    let burn = run_burn_in(&mut sim, &BurnIn::default_adaptive(cell.lambda));
    (sim, burn)
}

pub fn run(opts: &Opts) -> Outcome {
    let cell = Cell::paper(opts.tiny);
    let mut out = Outcome::default();
    for (k, v) in cell.params() {
        out.param(k, v);
    }
    out.param("kernel", KernelMode::default().name());
    out.param("threads", 1);

    // Set-up, several times; the last instance is measured.
    let setups = if opts.tiny { 1 } else { SETUPS };
    let mut times = Vec::new();
    let mut per_round = Vec::new();
    let mut last = None;
    for i in 0..setups {
        drop(last.take()); // free the previous instance before building the next
        let seed = sub_seed(opts.seed, i as u64);
        let t = Instant::now();
        let (sim, burn) = set_up(&cell, seed);
        let secs = t.elapsed().as_secs_f64();
        times.push(secs);
        per_round.push(secs * 1e9 / burn.rounds.max(1) as f64);
        last = Some((sim, burn, seed));
    }
    let (mut sim, burn, seed) = last.expect("at least one set-up");
    out.param("measured_seed", seed);
    out.param("burnin_converged", burn.converged);
    out.metric("setup_s", median(&times), setups as u64);
    out.metric("burnin.rounds", burn.rounds as f64, 1);
    out.metric("burnin.ns_per_round", median(&per_round), setups as u64);

    // The same state replayed from a copy must give the same reports.
    let mut expected = Digest::default();
    let mut replay = Simulation::new(sim.process().clone(), SimRng::from_state(sim.rng().state()));
    replay.run_observed(DIGEST_ROUNDS, &mut |r: &RoundReport| expected.add(r));
    drop(replay);

    let seconds = if opts.traced {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let obs = measure(&mut sim, seconds, None);
    let r = &obs.rounds;
    out.attempted = r.generated;
    out.check(
        "replay digest",
        r.digest == expected,
        format!("{:016x} vs {:016x}", r.digest.0, expected.0),
    );
    out.check(
        "conservation",
        r.conserved && sim.process().conserves_balls(),
        "thrown = accepted + pool every round; generated = deleted + pool + buffered",
    );
    let max_pool = obs
        .pools
        .series()
        .values()
        .iter()
        .fold(0.0f64, |m, &v| m.max(v));
    out.check(
        "theorem 2 pool bound",
        max_pool <= cell.pool_bound(),
        format!("max pool {max_pool} <= {:.0}", cell.pool_bound()),
    );
    let max_wait = obs.waits.max().unwrap_or(0);
    out.check(
        "theorem 2 waiting bound",
        max_wait as f64 <= cell.wait_bound(),
        format!("max wait {max_wait} <= {:.1}", cell.wait_bound()),
    );
    out.metric("balls_per_s", r.thrown as f64 / r.elapsed(), r.rounds);
    out.metric("completed_per_s", r.deleted as f64 / r.elapsed(), r.rounds);
    out.timing("round_us_p50", &r.durations, 0.5);
    out.timing("round_us_p99", &r.durations, 0.99);
    out.timing("complete_us_p50", &obs.complete, 0.5);
    out.timing("complete_us_p90", &obs.complete, 0.9);
    out.timing("complete_us_p99", &obs.complete, 0.99);

    if opts.traced {
        let thrown_per_round = ratio(r.thrown as f64, r.rounds as f64);
        traced(opts, &mut out, sim, &obs, seconds);
        let (fill, fills) = rng_fill_ns_per_ball(
            cell.n,
            thrown_per_round as usize,
            opts.seed,
            Duration::from_millis(200),
        );
        out.metric("rng.fill_ns_per_ball", fill, fills);
    }
    out
}

/// The traced segment: same rounds with spans and the core's phase
/// telemetry on; compared against the untraced segment before it.
fn traced(
    opts: &Opts,
    out: &mut Outcome,
    sim: Simulation<CappedProcess>,
    untraced: &PaperObservers,
    seconds: f64,
) {
    let trace = RoundTrace {
        tracer: Rc::new(RefCell::new(Tracer::new(Instant::now(), SPAN_CAP))),
        round: Rc::new(Slot::new(ROOT)),
    };
    let state = sim.rng().state();
    let mut sim = Simulation::new(
        Traced {
            inner: sim.into_process(),
            trace: trace.clone(),
        },
        SimRng::from_state(state),
    );
    Telemetry::start();
    let obs = measure(&mut sim, seconds, Some(trace.clone()));
    let tel = Telemetry::stop();
    let r = &obs.rounds;
    let tracer = trace.tracer.borrow();
    let totals = totals_by_name(tracer.spans());
    let span = |name: &str| totals.get(name).copied().unwrap_or_default();

    let (_, generate) = tel.hist("iba_core_phase_generate_nanos");
    let (_, accept) = tel.hist("iba_core_phase_accept_nanos");
    let (_, serve) = tel.hist("iba_core_phase_serve_nanos");
    out.metric(
        "process.step_ns_per_round",
        span("process.step").mean_ns(),
        span("process.step").count,
    );
    out.metric(
        "engine.observe_ns_per_round",
        span("engine.observe").mean_ns(),
        span("engine.observe").count,
    );
    out.metric(
        "core.generate_ns",
        tel.hist_mean("iba_core_phase_generate_nanos"),
        r.rounds,
    );
    out.metric(
        "core.accept_ns",
        tel.hist_mean("iba_core_phase_accept_nanos"),
        r.rounds,
    );
    out.metric(
        "core.serve_ns",
        tel.hist_mean("iba_core_phase_serve_nanos"),
        r.rounds,
    );
    out.metric(
        "core.thrown_per_round",
        ratio(r.thrown as f64, r.rounds as f64),
        r.rounds,
    );
    out.metric(
        "core.accept_ratio",
        ratio(r.accepted as f64, r.thrown as f64),
        r.rounds,
    );
    let fast = tel.counter("iba_core_arena_fast_accept_rounds_total") as f64;
    let fallback = tel.counter("iba_core_arena_fallback_rounds_total") as f64;
    out.metric(
        "core.fast_accept_share",
        ratio(fast, fast + fallback),
        r.rounds,
    );
    out.metric("failed_share", 0.0, r.rounds);
    out.metric(
        "trace.overhead_share",
        ratio(r.mean_round_ns(), untraced.rounds.mean_round_ns()) - 1.0,
        r.rounds,
    );

    // The round path: generate + accept + serve inside the step, plus the
    // observers; whatever they leave of the round wall time is residual.
    let wall = span("round").total_ns as f64;
    let covered = (generate + accept + serve + span("engine.observe").total_ns) as f64;
    let residual = 1.0 - ratio(covered, wall);
    out.metric("reconcile.residual_share", residual, span("round").count);
    out.check(
        "trace reconciliation",
        residual.abs() <= RECONCILE_TOLERANCE,
        format!("residual {residual:.4} within {RECONCILE_TOLERANCE}"),
    );
    out.check(
        "traced conservation",
        r.conserved && sim.process().inner.conserves_balls(),
        "the traced rounds conserve balls too",
    );
    let path = opts
        .trace_dir
        .join(format!("sim_paper-seed{}.tsv", opts.seed));
    if let Err(e) = tracer.write_tsv(&path) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}
