//! `serve_tickets`: the paper's cell through the in-process sharded
//! service (2 shards, central RNG, model arrivals off).
//!
//! Each round the bench thread submits λn tickets through
//! `Dispatcher::submit`, calls `run_round`, then drains the completion
//! receiver: closed-loop in rounds. In central-RNG mode this is the same
//! Algorithm 1 trajectory as `sim_paper`, which the run checks. A ticket's
//! completion time runs from its submit call to the moment the bench
//! thread takes its `Completion` off the receiver; both are placed by
//! linear interpolation between timestamps taken around the submit loop and
//! the drain loop, which keeps the clock off the per-ticket path.

use std::sync::mpsc::Receiver;
use std::time::{Duration, Instant};

use iba_core::CappedProcess;
use iba_serve::{CappedService, Completion, Dispatcher, RngMode, ServiceConfig, SubmitError};
use iba_sim::{RoundReport, SimRng, Simulation};

use crate::cell::{
    nanos, ratio, rng_fill_ns_per_ball, sub_seed, Cell, Digest, Rounds, Telemetry, DIGEST_ROUNDS,
};
use crate::report::{Outcome, RECONCILE_TOLERANCE};
use crate::stats::{median, Windowed};
use crate::trace::{totals_by_name, Tracer, ROOT};
use crate::Opts;

const SHARDS: usize = 2;
const SETUPS: usize = 3;
/// Burn-in rounds. Fixed rather than adaptive, so set-up time does not
/// depend on the seed; 256 rounds are 16 times the pool's relaxation time
/// 1/(1 − λ) at λ = 15/16.
const BURN_IN: u64 = 256;
/// One ticket in this many is a completion-time sample.
const SAMPLE_EVERY: u64 = 16;
/// Submit batches kept for matching completions; a ticket waiting this
/// many rounds fails the run.
const RING: usize = 4096;
/// Rounds allowed for the pending tickets to complete after the timed phase.
const DRAIN_ROUNDS: u64 = 10_000;
const SPAN_CAP: usize = 1 << 20;

/// Sums over a set of ticket ids: equal sums over count, ids and squared
/// ids mean every ticket of a batch completed exactly once.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct IdSums {
    count: u64,
    sum: u128,
    squares: u128,
}

impl IdSums {
    fn add(&mut self, id: u64) {
        self.count += 1;
        self.sum += u128::from(id);
        self.squares += u128::from(id) * u128::from(id);
    }
}

/// The tickets submitted for one round.
#[derive(Debug, Clone, Copy)]
struct Batch {
    round: u64,
    first: u64,
    last: u64,
    submitted: IdSums,
    completed: IdSums,
    begin: Instant,
    end: Instant,
}

impl Batch {
    fn done(&self) -> bool {
        self.completed.count == self.submitted.count
    }
}

/// The bench thread's side of the service: submit, run, drain, check.
struct TicketDriver {
    svc: CappedService,
    dispatcher: Dispatcher,
    completions: Receiver<Completion>,
    per_round: u64,
    batches: Vec<Option<Batch>>,
    drained: Vec<Completion>,
    submitted: u64,
    saturated: u64,
    closed: u64,
    completed: u64,
    /// Completions that matched no open batch, or completed a batch twice.
    stray: u64,
    max_wait: u64,
    max_pool: u64,
    complete: Windowed,
    /// Origin of the completion-time windows.
    phase_start: Instant,
    tracer: Option<Tracer>,
}

impl TicketDriver {
    fn spawn(cell: &Cell, seed: u64) -> TicketDriver {
        let config = ServiceConfig::new(cell.config(), SHARDS, seed)
            .with_rng_mode(RngMode::Central)
            .with_model_arrivals(false);
        let mut svc = CappedService::spawn(config).expect("the benchmark cell is a valid service");
        let completions = svc
            .take_completions()
            .expect("a fresh service has its receiver");
        TicketDriver {
            dispatcher: svc.dispatcher(),
            svc,
            completions,
            per_round: cell.per_round(),
            batches: vec![None; RING],
            drained: Vec::new(),
            submitted: 0,
            saturated: 0,
            closed: 0,
            completed: 0,
            stray: 0,
            max_wait: 0,
            max_pool: 0,
            complete: Windowed::new(),
            phase_start: Instant::now(),
            tracer: None,
        }
    }

    /// One round: submit `count` tickets, run the round, drain.
    fn round_trip(&mut self, count: u64) -> RoundReport {
        let round = self.svc.round() + 1;
        let t0 = Instant::now();
        let mut batch = Batch {
            round,
            first: u64::MAX,
            last: 0,
            submitted: IdSums::default(),
            completed: IdSums::default(),
            begin: t0,
            end: t0,
        };
        for _ in 0..count {
            match self.dispatcher.submit() {
                Ok(ticket) => {
                    let id = ticket.id();
                    batch.first = batch.first.min(id);
                    batch.last = batch.last.max(id);
                    batch.submitted.add(id);
                }
                Err(SubmitError::Saturated) => self.saturated += 1,
                Err(SubmitError::Closed) => self.closed += 1,
            }
        }
        self.submitted += count;
        let t1 = Instant::now();
        batch.end = t1;
        let slot = round as usize % RING;
        if self.batches[slot].is_some_and(|b| !b.done()) {
            self.stray += 1; // a ticket waited RING rounds
        }
        self.batches[slot] = (batch.submitted.count > 0).then_some(batch);

        let report = self.svc.run_round();
        let t2 = Instant::now();
        self.drained.clear();
        while let Ok(c) = self.completions.try_recv() {
            self.drained.push(c);
        }
        let t3 = Instant::now();
        let m = self.drained.len() as f64;
        for j in 0..self.drained.len() {
            let c = self.drained[j];
            let received = t2 + (t3 - t2).mul_f64((j + 1) as f64 / m);
            self.book(&c, received);
        }
        self.max_pool = self.max_pool.max(report.pool_size);
        let t4 = Instant::now();
        if let Some(t) = self.tracer.as_mut() {
            let (s0, s1, s2, s4) = (t.stamp(t0), t.stamp(t1), t.stamp(t2), t.stamp(t4));
            let root = t.record("round", round, ROOT, s0, s4);
            t.record("dispatch.submit", round, root, s0, s1);
            t.record("service.round", round, root, s1, s2);
            t.record("completion.drain", round, root, s2, s4);
        }
        report
    }

    /// Checks one completion against its batch and samples its latency.
    fn book(&mut self, c: &Completion, received: Instant) {
        self.completed += 1;
        self.max_wait = self.max_wait.max(c.waiting_rounds);
        let id = c.ticket.id();
        let slot = c.admitted_round as usize % RING;
        let Some(batch) = self.batches[slot].as_mut().filter(|b| {
            b.round == c.admitted_round && (b.first..=b.last).contains(&id) && !b.done()
        }) else {
            self.stray += 1;
            return;
        };
        batch.completed.add(id);
        if id.is_multiple_of(SAMPLE_EVERY) {
            let span = (batch.last - batch.first).max(1) as f64;
            let submitted =
                batch.begin + (batch.end - batch.begin).mul_f64((id - batch.first) as f64 / span);
            self.complete.record(
                nanos(received.saturating_duration_since(self.phase_start)),
                nanos(received.saturating_duration_since(submitted)),
            );
        }
        if batch.done() && batch.completed != batch.submitted {
            self.stray += 1; // right count, wrong ids: a duplicate hid a loss
        }
    }

    /// Tickets whose batch never completed.
    fn outstanding(&self) -> u64 {
        self.batches
            .iter()
            .flatten()
            .map(|b| b.submitted.count - b.completed.count)
            .sum()
    }
}

struct Phase {
    rounds: Rounds,
    completions: u64,
    complete: Windowed,
}

fn measure(driver: &mut TicketDriver, seconds: f64) -> Phase {
    driver.complete = Windowed::new();
    driver.phase_start = Instant::now();
    let completed_before = driver.completed;
    let mut rounds = Rounds::new(Instant::now());
    while rounds.elapsed() < seconds && !driver.tracer.as_ref().is_some_and(Tracer::full) {
        let report = driver.round_trip(driver.per_round);
        rounds.round_ended(&report, Instant::now());
    }
    Phase {
        rounds,
        completions: driver.completed - completed_before,
        complete: std::mem::take(&mut driver.complete),
    }
}

/// The bare process's reports over the same rounds, for the trajectory
/// check.
fn reference_digest(cell: &Cell, seed: u64, burn_rounds: u64) -> Digest {
    let mut sim = Simulation::new(CappedProcess::new(cell.config()), SimRng::seed_from(seed));
    sim.run_rounds(burn_rounds);
    let mut digest = Digest::default();
    sim.run_observed(DIGEST_ROUNDS, &mut |r: &RoundReport| digest.add(r));
    digest
}

pub fn run(opts: &Opts) -> Outcome {
    let cell = Cell::paper(opts.tiny);
    let mut out = Outcome::default();
    for (k, v) in cell.params() {
        out.param(k, v);
    }
    out.param("shards", SHARDS);
    out.param("rng_mode", "central");
    out.param("model_arrivals", false);

    let setups = if opts.tiny { 1 } else { SETUPS };
    let mut times = Vec::new();
    let mut last: Option<(TicketDriver, u64)> = None;
    for i in 0..setups {
        if let Some((mut old, _)) = last.take() {
            old.svc.shutdown();
        }
        let seed = sub_seed(opts.seed, i as u64);
        let t = Instant::now();
        let mut driver = TicketDriver::spawn(&cell, seed);
        for _ in 0..BURN_IN {
            driver.round_trip(driver.per_round);
        }
        times.push(t.elapsed().as_secs_f64());
        last = Some((driver, seed));
    }
    let (mut driver, seed) = last.expect("at least one set-up");
    out.param("measured_seed", seed);
    out.param("kernel", driver.svc.kernel_mode().name());
    out.metric("setup_s", median(&times), setups as u64);
    out.metric("burnin.rounds", BURN_IN as f64, 1);
    out.metric(
        "burnin.ns_per_round",
        median(&times) * 1e9 / BURN_IN as f64,
        setups as u64,
    );

    let seconds = if opts.traced {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let phase = measure(&mut driver, seconds);
    let r = &phase.rounds;
    let expected = reference_digest(&cell, seed, BURN_IN);
    out.check(
        "same trajectory as sim",
        r.digest == expected,
        format!("{:016x} vs CappedProcess {:016x}", r.digest.0, expected.0),
    );
    out.metric("balls_per_s", r.thrown as f64 / r.elapsed(), r.rounds);
    out.metric(
        "completed_per_s",
        phase.completions as f64 / r.elapsed(),
        r.rounds,
    );
    out.timing("round_us_p50", &r.durations, 0.5);
    out.timing("round_us_p99", &r.durations, 0.99);
    out.timing("complete_us_p50", &phase.complete, 0.5);
    out.timing("complete_us_p90", &phase.complete, 0.9);
    out.timing("complete_us_p99", &phase.complete, 0.99);
    let thrown_per_round = ratio(r.thrown as f64, r.rounds as f64);
    let mut conserved = r.conserved;

    if opts.traced {
        let traced = traced(opts, &mut out, &mut driver, r.mean_round_ns(), seconds);
        conserved &= traced;
    }

    // Let every pending ticket complete, then check the ledger.
    let mut extra = 0;
    while driver.svc.pending_tickets() > 0 && extra < DRAIN_ROUNDS {
        let report = driver.round_trip(0);
        conserved &= report.conserves_balls();
        extra += 1;
    }
    let outstanding = driver.outstanding();
    out.attempted = driver.submitted;
    out.failed = driver.saturated + driver.closed + outstanding;
    out.check(
        "every ticket completes once",
        driver.stray == 0
            && outstanding == 0
            && driver.completed == driver.submitted - driver.saturated - driver.closed,
        format!(
            "{} submitted, {} completed, {} outstanding, {} stray, {} drain rounds",
            driver.submitted, driver.completed, outstanding, driver.stray, extra
        ),
    );
    out.check(
        "conservation",
        conserved && driver.svc.conserves_balls(),
        "thrown = accepted + pool every round; generated = served + pool + buffered",
    );
    out.check(
        "theorem 2 pool bound",
        driver.max_pool as f64 <= cell.pool_bound(),
        format!("max pool {} <= {:.0}", driver.max_pool, cell.pool_bound()),
    );
    out.check(
        "theorem 2 waiting bound",
        driver.max_wait as f64 <= cell.wait_bound(),
        format!("max wait {} <= {:.1}", driver.max_wait, cell.wait_bound()),
    );
    driver.svc.shutdown();
    if opts.traced {
        out.metric(
            "failed_share",
            ratio(out.failed as f64, out.attempted as f64),
            out.attempted,
        );
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

/// The traced segment; returns whether its rounds conserved balls.
fn traced(
    opts: &Opts,
    out: &mut Outcome,
    driver: &mut TicketDriver,
    untraced_round_ns: f64,
    seconds: f64,
) -> bool {
    let submitted = driver.submitted;
    let saturated = driver.saturated;
    driver.tracer = Some(Tracer::new(Instant::now(), SPAN_CAP));
    Telemetry::start();
    let phase = measure(driver, seconds);
    let tel = Telemetry::stop();
    let tracer = driver.tracer.take().expect("installed above");
    let r = &phase.rounds;
    let totals = totals_by_name(tracer.spans());
    let span = |name: &str| totals.get(name).copied().unwrap_or_default();

    let submits = (driver.submitted - submitted) as f64;
    out.metric(
        "dispatch.submit_ns",
        ratio(span("dispatch.submit").total_ns as f64, submits),
        submits as u64,
    );
    out.metric(
        "dispatch.saturated_share",
        ratio((driver.saturated - saturated) as f64, submits),
        submits as u64,
    );
    out.metric(
        "service.round_ns",
        span("service.round").mean_ns(),
        span("service.round").count,
    );
    out.metric(
        "service.route_ns",
        tel.hist_mean("iba_serve_phase_route_nanos"),
        r.rounds,
    );
    out.metric(
        "service.merge_ns",
        tel.hist_mean("iba_serve_phase_merge_nanos"),
        r.rounds,
    );
    let (shard_rounds, shard_ns) = tel.hist("iba_serve_shard_round_nanos");
    out.metric(
        "shard.round_ns",
        tel.hist_mean("iba_serve_shard_round_nanos"),
        shard_rounds,
    );
    out.metric(
        "service.admit_per_round",
        ratio(r.generated as f64, r.rounds as f64),
        r.rounds,
    );
    out.metric(
        "completion.drain_ns_per_round",
        span("completion.drain").mean_ns(),
        span("completion.drain").count,
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
    out.metric(
        "trace.overhead_share",
        ratio(r.mean_round_ns(), untraced_round_ns) - 1.0,
        r.rounds,
    );

    // The round path: submit, then inside run_round the pre-route admit
    // work, route, the shards (parallel: one shard's mean stands for their
    // union) and the rest of the merge, then the drain.
    let (_, round_ns) = tel.hist("iba_serve_round_nanos");
    let (_, route) = tel.hist("iba_serve_phase_route_nanos");
    let (_, merge) = tel.hist("iba_serve_phase_merge_nanos");
    let shard_cover = (shard_ns / SHARDS as u64).min(merge);
    let admit = round_ns.saturating_sub(route + merge);
    let merge_self = merge - shard_cover;
    let covered = span("dispatch.submit").total_ns
        + admit
        + route
        + shard_cover
        + merge_self
        + span("completion.drain").total_ns;
    let residual = 1.0 - ratio(covered as f64, span("round").total_ns as f64);
    out.metric("reconcile.residual_share", residual, span("round").count);
    out.check(
        "trace reconciliation",
        residual.abs() <= RECONCILE_TOLERANCE,
        format!("residual {residual:.4} within {RECONCILE_TOLERANCE}"),
    );
    let path = opts
        .trace_dir
        .join(format!("serve_tickets-seed{}.tsv", opts.seed));
    if let Err(e) = tracer.write_tsv(&path) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
    r.conserved
}
