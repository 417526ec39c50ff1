//! Regenerates `BENCH_membership.json` — the committed measurement of the
//! elastic-membership stack:
//!
//! - **Router head-to-head**: the round-robin resharder vs consistent
//!   hashing with bounded loads, driven through the same membership
//!   history over the same key population, scored on keys moved per
//!   membership change. The committed run *asserts* bounded-load moves
//!   strictly fewer keys than round-robin on every single change.
//! - **Churn + crash + surge gauntlet**: a live `CappedService` rides
//!   through add/remove/split/merge membership events interleaved with a
//!   simulator fault plan (bin crashes, capacity degradation, pool surge,
//!   arrival bursts) and a **mid-run crash-restart** from checkpoint
//!   bytes. Every ball is tracked by identity: the run fails if any ball
//!   is lost or duplicated, by total or by label.
//! - **No-churn differential**: a Central-mode service with membership
//!   scheduled beyond the horizon must stay bit-identical to the bare
//!   `CappedProcess`, round report by round report.
//!
//! ```text
//! cargo run --release -p iba-bench --bin membership_baseline -- \
//!     [--ci] [--out BENCH_membership.json]
//! ```
//!
//! `--ci` runs a short configuration and the same assertions without
//! writing a file unless `--out` is given.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use iba_core::{CappedConfig, CappedProcess};
use iba_membership::{
    moved_keys, BoundedLoadRouter, MembershipEvent, MembershipPlan, RoundRobinRouter, Router,
};
use iba_serve::{CappedService, ServiceConfig};
use iba_sim::codec::Decoder;
use iba_sim::faults::{FaultEvent, FaultPlan};
use iba_sim::process::AllocationProcess;
use iba_sim::SimRng;

const SEED: u64 = 20210705; // matches the other committed baselines
const VNODES_PER_BIN: usize = 64;
const EPSILON: f64 = 0.25;

struct Tuning {
    /// Key population for the router head-to-head.
    keys: usize,
    /// Initial bin count for the router head-to-head.
    router_bins: usize,
    /// Gauntlet cell size (bins).
    n: usize,
    /// Gauntlet length in rounds (the crash lands halfway).
    rounds: u64,
    /// No-churn differential length in rounds.
    diff_rounds: u64,
}

const FULL: Tuning = Tuning {
    keys: 65_536,
    router_bins: 64,
    n: 96,
    rounds: 200,
    diff_rounds: 200,
};

const CI: Tuning = Tuning {
    keys: 8_192,
    router_bins: 32,
    n: 48,
    rounds: 80,
    diff_rounds: 60,
};

/// The membership history both routers replay: signed bin-count deltas.
const ROUTER_CHURN: [i64; 7] = [8, 16, -12, 4, -24, 32, -8];

struct RouterEvent {
    change: i64,
    bins_after: usize,
    rr_moved: usize,
    bl_moved: usize,
}

/// Replays `ROUTER_CHURN` through one router and returns keys moved per
/// event, in event order.
fn drive_router(router: &mut dyn Router, population: &[u64]) -> Vec<(usize, usize)> {
    let mut before = router.assign(population);
    ROUTER_CHURN
        .iter()
        .map(|&delta| {
            if delta >= 0 {
                router.add_bins(delta as usize);
            } else {
                router.remove_bins((-delta) as usize);
            }
            let after = router.assign(population);
            let moved = moved_keys(&before, &after);
            before = after;
            (router.bins(), moved)
        })
        .collect()
}

fn run_routers(tuning: &Tuning) -> Result<Vec<RouterEvent>, String> {
    let population: Vec<u64> = (0..tuning.keys as u64).collect();
    let mut rr = RoundRobinRouter::new(tuning.router_bins);
    let mut bl = BoundedLoadRouter::new(tuning.router_bins, VNODES_PER_BIN, EPSILON);
    let rr_runs = drive_router(&mut rr, &population);
    let bl_runs = drive_router(&mut bl, &population);
    let events: Vec<RouterEvent> = ROUTER_CHURN
        .iter()
        .zip(rr_runs.iter().zip(&bl_runs))
        .map(
            |(&change, (&(bins_after, rr_moved), &(bl_bins, bl_moved)))| {
                assert_eq!(bins_after, bl_bins, "routers replay the same history");
                RouterEvent {
                    change,
                    bins_after,
                    rr_moved,
                    bl_moved,
                }
            },
        )
        .collect();
    // The claim the committed baseline stands on: bounded-load beats the
    // resharder on every membership change, not just in aggregate.
    for event in &events {
        if event.bl_moved >= event.rr_moved {
            return Err(format!(
                "bounded-load moved {} >= round-robin {} on change {:+} (to {} bins)",
                event.bl_moved, event.rr_moved, event.change, event.bins_after
            ));
        }
    }
    Ok(events)
}

struct GauntletStats {
    rounds: u64,
    membership_events: u64,
    balls_moved: u64,
    fault_events: usize,
    crash_round: u64,
    checkpoint_bytes: usize,
    final_live_bins: usize,
    final_shards: usize,
    final_pool: usize,
    total_generated: u64,
    total_served: u64,
}

/// Every ball still in the system (pool + every bin ring), by label, read
/// out of a service checkpoint: unwrap the `IBSV` envelope and restore
/// the embedded core `IBA1` payload.
fn resident_labels(service: &mut CappedService) -> Vec<u64> {
    let bytes = service.checkpoint_bytes();
    let mut dec = Decoder::new(&bytes).expect("well-formed envelope");
    dec.header("IBSV", 2).expect("envelope header");
    let core_bytes = dec.byte_seq("core checkpoint").expect("core payload");
    let sim = iba_core::checkpoint::restore(core_bytes).expect("valid core checkpoint");
    let process = sim.process();
    let mut labels: Vec<u64> = process.pool().iter().map(|b| b.label()).collect();
    for i in 0..process.config().bins() {
        labels.extend(process.bin(i).iter().map(|b| b.label()));
    }
    labels.sort_unstable();
    labels
}

/// Drives `service` one round and settles the arrival/serve ledger:
/// model arrivals are labeled `round`, surge and burst balls carry the
/// pre-round label, and a served ball with waiting time `w` removes one
/// ball labeled `round - w`.
fn ledger_round(
    service: &mut CappedService,
    round: u64,
    resident: &mut HashMap<u64, i64>,
    prev_generated: &mut u64,
) -> Result<(), String> {
    let report = service.run_round();
    if !report.conserves_balls() || !service.conserves_balls() {
        return Err(format!("round {round} violates conservation"));
    }
    let total_generated = service.total_generated();
    let surged = total_generated - *prev_generated - report.generated;
    *prev_generated = total_generated;
    if surged > 0 {
        *resident.entry(round - 1).or_insert(0) += surged as i64;
    }
    *resident.entry(round).or_insert(0) += report.generated as i64;
    for &wait in &report.waiting_times {
        let label = round - wait;
        let count = resident
            .get_mut(&label)
            .ok_or_else(|| format!("round {round}: served unknown ball labeled {label}"))?;
        *count -= 1;
        if *count < 0 {
            return Err(format!("round {round}: ball labeled {label} duplicated"));
        }
        if *count == 0 {
            resident.remove(&label);
        }
    }
    Ok(())
}

/// The gauntlet: membership churn + simulator faults + a crash-restart
/// halfway, with per-ball conservation checked throughout and by final
/// identity diff.
fn run_gauntlet(tuning: &Tuning) -> Result<GauntletStats, String> {
    let capped = CappedConfig::new(tuning.n, 2, 0.75).map_err(|e| e.to_string())?;
    let rounds = tuning.rounds;
    let crash_round = rounds / 2;
    // Membership and fault schedules straddle the crash so the checkpoint
    // both lands mid-resize and has future events to re-schedule.
    let membership: Vec<(u64, MembershipEvent)> = vec![
        (rounds / 16, MembershipEvent::AddBins { count: 16 }),
        (rounds / 8, MembershipEvent::SplitShard { shard: 3 }),
        (rounds / 4, MembershipEvent::RemoveBins { count: 24 }),
        (rounds * 3 / 8, MembershipEvent::MergeShards { left: 0 }),
        (crash_round + 5, MembershipEvent::AddBins { count: 12 }),
        (rounds * 5 / 8, MembershipEvent::RemoveBins { count: 20 }),
        (rounds * 3 / 4, MembershipEvent::AddBins { count: 8 }),
    ];
    let faults: Vec<(u64, FaultEvent)> = vec![
        (
            rounds / 10,
            FaultEvent::CrashBins {
                bins: vec![0, 1, 2],
            },
        ),
        (rounds / 5, FaultEvent::PoolSurge { extra: 400 }),
        (
            rounds / 4 + 2,
            FaultEvent::DegradeCapacity {
                bins: (0..8).collect(),
                capacity: Some(1),
            },
        ),
        (
            rounds * 2 / 5,
            FaultEvent::RecoverBins {
                bins: vec![0, 1, 2],
            },
        ),
        (
            crash_round + 10,
            FaultEvent::ArrivalBurst {
                extra_per_round: 30,
                rounds: 5,
            },
        ),
    ];
    let schedule = |service: &mut CappedService, after: u64| -> Result<(), String> {
        let mut mplan = MembershipPlan::new();
        for (round, event) in membership.iter().filter(|(r, _)| *r > after) {
            mplan.insert(*round, event.clone());
        }
        service
            .schedule_membership(mplan)
            .map_err(|e| format!("membership rejected: {e}"))?;
        let mut fplan = FaultPlan::new();
        for (round, event) in faults.iter().filter(|(r, _)| *r > after) {
            fplan = fplan.with(*round, event.clone());
        }
        service.schedule(fplan);
        Ok(())
    };

    let mut service =
        CappedService::spawn(ServiceConfig::new(capped.clone(), 4, SEED).with_model_arrivals(true))
            .map_err(|e| e.to_string())?;
    schedule(&mut service, 0)?;

    let mut resident: HashMap<u64, i64> = HashMap::new();
    let mut prev_generated = 0u64;
    for round in 1..=crash_round {
        ledger_round(&mut service, round, &mut resident, &mut prev_generated)?;
    }

    // The crash: checkpoint, tear the service down, resume from the bytes
    // with the checkpoint's shard count (splits may have changed it), and
    // re-schedule the still-future membership and fault events — plans
    // are deliberately not checkpointed, matching fault-plan semantics.
    let bytes = service.checkpoint_bytes();
    let saved_shards = service.shards();
    service.shutdown();
    let mut resumed = CappedService::resume(
        ServiceConfig::new(capped, saved_shards, SEED).with_model_arrivals(true),
        &bytes,
    )
    .map_err(|e| format!("mid-resize resume failed: {e}"))?;
    if resumed.round() != crash_round {
        return Err(format!(
            "resumed at round {}, expected {crash_round}",
            resumed.round()
        ));
    }
    schedule(&mut resumed, crash_round)?;
    for round in crash_round + 1..=rounds {
        ledger_round(&mut resumed, round, &mut resident, &mut prev_generated)?;
    }

    // Per-ball identity: what the final checkpoint says is resident must
    // be exactly what the arrival/serve ledger says survived the run.
    let mut expected: Vec<u64> = resident
        .iter()
        .flat_map(|(&label, &count)| {
            std::iter::repeat_n(label, usize::try_from(count).expect("non-negative"))
        })
        .collect();
    expected.sort_unstable();
    let actual = resident_labels(&mut resumed);
    if actual != expected {
        return Err(format!(
            "ball identities diverged: {} resident, ledger says {}",
            actual.len(),
            expected.len()
        ));
    }
    if resumed.membership_events() < membership.len() as u64 {
        return Err(format!(
            "only {}/{} membership events fired",
            resumed.membership_events(),
            membership.len()
        ));
    }
    if resumed.balls_moved() == 0 {
        return Err("no balls moved: drains and merges never happened".into());
    }
    Ok(GauntletStats {
        rounds,
        membership_events: resumed.membership_events(),
        balls_moved: resumed.balls_moved(),
        fault_events: faults.len(),
        crash_round,
        checkpoint_bytes: bytes.len(),
        final_live_bins: resumed.live_bins(),
        final_shards: resumed.shards(),
        final_pool: resumed.pool_size(),
        total_generated: resumed.total_generated(),
        total_served: resumed.total_served(),
    })
}

/// No-churn differential: scheduled-but-unfired membership must leave a
/// service bit-identical to the bare process.
fn run_differential(tuning: &Tuning) -> Result<u64, String> {
    let capped = CappedConfig::new(tuning.n, 2, 0.75).map_err(|e| e.to_string())?;
    let mut reference = CappedProcess::new(capped.clone());
    let mut rng = SimRng::seed_from(SEED);
    let mut service =
        CappedService::spawn(ServiceConfig::new(capped, 4, SEED).with_model_arrivals(true))
            .map_err(|e| e.to_string())?;
    service
        .schedule_membership(
            MembershipPlan::new().with(1_000_000_000, MembershipEvent::AddBins { count: 8 }),
        )
        .map_err(|e| format!("membership rejected: {e}"))?;
    for round in 1..=tuning.diff_rounds {
        if service.run_round() != reference.step(&mut rng) {
            return Err(format!("differential diverged at round {round}"));
        }
    }
    if service.membership_events() != 0 || service.balls_moved() != 0 {
        return Err("the beyond-horizon event fired".into());
    }
    Ok(tuning.diff_rounds)
}

fn render_json(
    tuning: &Tuning,
    events: &[RouterEvent],
    gauntlet: &GauntletStats,
    diff_rounds: u64,
) -> String {
    let rr_total: usize = events.iter().map(|e| e.rr_moved).sum();
    let bl_total: usize = events.iter().map(|e| e.bl_moved).sum();
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"benchmark\": \"membership\",\n");
    out.push_str(
        "  \"description\": \"Elastic membership measured three ways: (1) router head-to-head — \
         round-robin resharding vs consistent hashing with bounded loads replay the same \
         membership history over the same key population, scored on keys moved per change \
         (asserted strictly better for bounded-load on every event); (2) a churn + fault + \
         crash gauntlet — a live sharded service rides add/remove/split/merge events, bin \
         crashes, capacity degradation, a pool surge, arrival bursts, and a mid-resize \
         crash-restart from checkpoint bytes, with every ball tracked by identity and zero \
         loss or duplication; (3) a no-churn differential — membership scheduled beyond the \
         horizon leaves a Central-mode service bit-identical to the bare CappedProcess.\",\n",
    );
    out.push_str(
        "  \"regenerate\": \"cargo run --release -p iba-bench --bin membership_baseline -- \
         --out BENCH_membership.json\",\n",
    );
    let _ = writeln!(out, "  \"seed\": {SEED},");
    out.push_str("  \"router\": {\n");
    let _ = writeln!(out, "    \"keys\": {},", tuning.keys);
    let _ = writeln!(out, "    \"initial_bins\": {},", tuning.router_bins);
    let _ = writeln!(out, "    \"vnodes_per_bin\": {VNODES_PER_BIN},");
    let _ = writeln!(out, "    \"epsilon\": {EPSILON},");
    out.push_str("    \"events\": [\n");
    for (i, event) in events.iter().enumerate() {
        let comma = if i + 1 == events.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "      {{ \"change\": \"{:+}\", \"bins_after\": {}, \"round_robin_moved\": {}, \
             \"bounded_load_moved\": {}, \"moved_ratio\": {:.4} }}{comma}",
            event.change,
            event.bins_after,
            event.rr_moved,
            event.bl_moved,
            event.bl_moved as f64 / event.rr_moved.max(1) as f64
        );
    }
    out.push_str("    ],\n");
    let _ = writeln!(out, "    \"round_robin_total_moved\": {rr_total},");
    let _ = writeln!(out, "    \"bounded_load_total_moved\": {bl_total},");
    let _ = writeln!(
        out,
        "    \"bounded_load_wins_every_event\": true,\n    \"total_moved_ratio\": {:.4}",
        bl_total as f64 / rr_total.max(1) as f64
    );
    out.push_str("  },\n");
    out.push_str("  \"gauntlet\": {\n");
    let _ = writeln!(
        out,
        "    \"n\": {}, \"c\": 2, \"lambda\": 0.75, \"shards\": 4, \"rng_mode\": \"central\",",
        tuning.n
    );
    let _ = writeln!(out, "    \"rounds\": {},", gauntlet.rounds);
    let _ = writeln!(
        out,
        "    \"membership_events\": {},",
        gauntlet.membership_events
    );
    let _ = writeln!(out, "    \"fault_events\": {},", gauntlet.fault_events);
    let _ = writeln!(out, "    \"balls_moved\": {},", gauntlet.balls_moved);
    let _ = writeln!(out, "    \"crash_round\": {},", gauntlet.crash_round);
    let _ = writeln!(
        out,
        "    \"checkpoint_bytes\": {},",
        gauntlet.checkpoint_bytes
    );
    let _ = writeln!(
        out,
        "    \"final_live_bins\": {}, \"final_shards\": {}, \"final_pool\": {},",
        gauntlet.final_live_bins, gauntlet.final_shards, gauntlet.final_pool
    );
    let _ = writeln!(
        out,
        "    \"total_generated\": {}, \"total_served\": {},",
        gauntlet.total_generated, gauntlet.total_served
    );
    out.push_str("    \"lost_balls\": 0,\n");
    out.push_str("    \"ball_identities_verified\": true\n");
    out.push_str("  },\n");
    let _ = writeln!(
        out,
        "  \"differential\": {{ \"rng_mode\": \"central\", \"rounds\": {diff_rounds}, \
         \"bit_identical\": true }}"
    );
    out.push_str("}\n");
    out
}

fn run(opts: &Options, started: Instant) -> Result<(), String> {
    let tuning = if opts.ci { &CI } else { &FULL };

    eprintln!("--- router head-to-head ---");
    let events = run_routers(tuning)?;
    for event in &events {
        eprintln!(
            "change {:+4} -> {:3} bins: round-robin moved {:6}, bounded-load moved {:6} ({:.1}%)",
            event.change,
            event.bins_after,
            event.rr_moved,
            event.bl_moved,
            event.bl_moved as f64 / event.rr_moved.max(1) as f64 * 100.0
        );
    }

    eprintln!("--- churn + crash gauntlet ---");
    let gauntlet = run_gauntlet(tuning)?;
    eprintln!(
        "{} rounds, {} membership events, {} balls moved, crash at round {} \
         ({} checkpoint bytes), {} bins / {} shards at exit, zero lost balls",
        gauntlet.rounds,
        gauntlet.membership_events,
        gauntlet.balls_moved,
        gauntlet.crash_round,
        gauntlet.checkpoint_bytes,
        gauntlet.final_live_bins,
        gauntlet.final_shards
    );

    eprintln!("--- no-churn differential ---");
    let diff_rounds = run_differential(tuning)?;
    eprintln!("bit-identical to CappedProcess over {diff_rounds} rounds");

    let json = render_json(tuning, &events, &gauntlet, diff_rounds);
    let json = match opts.out.as_deref() {
        Some(path) => iba_bench::prov::finalize(
            "membership",
            &json,
            std::path::Path::new(path),
            opts.registry.as_deref().map(std::path::Path::new),
            opts.force,
            None,
            started.elapsed().as_secs_f64() * 1e3,
        )?,
        None => json,
    };
    println!("{json}");
    Ok(())
}

struct Options {
    ci: bool,
    out: Option<String>,
    registry: Option<String>,
    force: bool,
}

fn main() -> ExitCode {
    let started = Instant::now();
    let mut opts = Options {
        ci: false,
        out: None,
        registry: None,
        force: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--ci" => opts.ci = true,
            "--force" => opts.force = true,
            "--out" => match args.next() {
                Some(path) => opts.out = Some(path),
                None => {
                    eprintln!("--out requires a value");
                    return ExitCode::FAILURE;
                }
            },
            "--registry" => match args.next() {
                Some(path) => opts.registry = Some(path),
                None => {
                    eprintln!("--registry requires a value");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: membership_baseline [--ci] [--out BENCH_membership.json] \
                     [--registry PATH] [--force]"
                );
                return ExitCode::FAILURE;
            }
        }
    }
    if opts.out.is_none() && !opts.ci {
        opts.out = Some(String::from("BENCH_membership.json"));
    }
    match run(&opts, started) {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("membership_baseline: {err}");
            ExitCode::FAILURE
        }
    }
}
