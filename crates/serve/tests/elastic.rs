//! Elastic-membership validation: runtime grow/shrink, autoscaling, and
//! crash recovery mid-resize.
//!
//! The anchors:
//! - a service with membership *scheduled but never firing*
//!   stays bit-identical to the bare `CappedProcess`;
//! - a churn + fault + surge gauntlet conserves every ball, by total and
//!   by id, also across a crash-restart from checkpoint bytes;
//! - a checkpoint taken mid-resize resumes bit-identically;
//! - envelopes written by the earlier sharded service (one bin range per
//!   shard) still resume.

use std::collections::HashMap;

use iba_core::{CappedConfig, CappedProcess};
use iba_membership::{Autoscaler, AutoscalerConfig, MembershipEvent, MembershipPlan};
use iba_serve::{CappedService, ServiceConfig};
use iba_sim::codec::Decoder;
use iba_sim::faults::{FaultEvent, FaultPlan};
use iba_sim::process::AllocationProcess;
use iba_sim::SimRng;

fn config(n: usize, c: u32, lambda: f64) -> CappedConfig {
    CappedConfig::new(n, c, lambda).expect("valid cell")
}

fn model_service(config: CappedConfig, shards: usize, seed: u64) -> CappedService {
    CappedService::spawn(ServiceConfig::new(config, shards, seed).with_model_arrivals(true))
        .expect("valid service config")
}

/// Every ball still in the system (pool + every bin ring), by label, read
/// out of a service checkpoint. The envelope wraps the core `IBA1`
/// payload as an opaque byte blob; unwrap it and restore the process.
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

#[test]
fn scheduled_but_unfired_membership_stays_bit_identical_to_capped_process() {
    let cfg = config(64, 2, 0.75);
    let mut reference = CappedProcess::new(cfg.clone());
    let mut rng = SimRng::seed_from(99);
    let mut service = model_service(cfg, 4, 99);
    // Membership is live (the plan is non-empty) but every event sits far
    // beyond the horizon: the apply path runs each round and must not
    // perturb the trajectory.
    service
        .schedule_membership(
            MembershipPlan::new().with(1_000_000, MembershipEvent::AddBins { count: 8 }),
        )
        .expect("uniform finite capacity");
    for _ in 0..120 {
        assert_eq!(service.run_round(), reference.step(&mut rng));
    }
    assert_eq!(service.live_bins(), 64);
    assert_eq!(service.membership_events(), 0);
    assert_eq!(service.balls_moved(), 0);
}

/// The gauntlet's membership churn: grow, shrink, and more resizes.
fn gauntlet_membership() -> Vec<(u64, MembershipEvent)> {
    vec![
        (5, MembershipEvent::AddBins { count: 16 }),
        (20, MembershipEvent::RemoveBins { count: 24 }),
        (40, MembershipEvent::AddBins { count: 12 }),
        (55, MembershipEvent::RemoveBins { count: 40 }),
        (70, MembershipEvent::AddBins { count: 20 }),
    ]
}

/// The gauntlet's simulator faults: a bin crash and its recovery, a pool
/// surge, a capacity degradation that never lifts, and an arrival burst.
fn gauntlet_faults() -> Vec<(u64, FaultEvent)> {
    vec![
        (
            8,
            FaultEvent::CrashBins {
                bins: vec![0, 1, 2],
            },
        ),
        (15, FaultEvent::PoolSurge { extra: 200 }),
        (
            18,
            FaultEvent::DegradeCapacity {
                bins: (0..8).collect(),
                capacity: Some(1),
            },
        ),
        (
            25,
            FaultEvent::RecoverBins {
                bins: vec![0, 1, 2],
            },
        ),
        (
            35,
            FaultEvent::ArrivalBurst {
                extra_per_round: 30,
                rounds: 5,
            },
        ),
    ]
}

/// Schedules the gauntlet's events that fall after round `after`: all of
/// them on a fresh service, only the future ones on a resumed service
/// (plans are deliberately not checkpointed).
fn schedule_gauntlet(service: &mut CappedService, after: u64) {
    let mut membership = MembershipPlan::new();
    for (round, event) in gauntlet_membership() {
        if round > after {
            membership.insert(round, event);
        }
    }
    service
        .schedule_membership(membership)
        .expect("uniform finite capacity");
    let mut faults = FaultPlan::new();
    for (round, event) in gauntlet_faults() {
        if round > after {
            faults.insert(round, event);
        }
    }
    service.schedule(faults);
}

/// Runs one round and settles it against the ledger of resident balls by
/// label: arrivals add labels, and a ball served at round r with waiting
/// time w removes one ball labeled r - w.
fn ledger_round(
    service: &mut CappedService,
    round: u64,
    resident: &mut HashMap<u64, i64>,
    prev_generated: &mut u64,
    input: &str,
) {
    let report = service.run_round();
    assert!(report.conserves_balls(), "{input}: round {round}");
    assert!(service.conserves_balls(), "{input}: round {round}");
    // `report.generated` covers model arrivals (labeled `round`); surge
    // and burst balls only show up in the lifetime counter and carry the
    // pre-round label.
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
            .unwrap_or_else(|| panic!("{input}: round {round} served an unknown ball"));
        *count -= 1;
        assert!(*count >= 0, "{input}: ball labeled {label} over-served");
        if *count == 0 {
            resident.remove(&label);
        }
    }
}

#[test]
fn churn_fault_surge_gauntlet_loses_no_ball() {
    // The third input crashes at round 19, after the growth, the surge
    // and the degradation: the checkpoint holds 64 live bins, three
    // crashed bins and eight degraded ones. Only the events after the
    // crash are scheduled again on the resumed service. The ledger runs
    // across the crash unchanged.
    for (shards, crash_at) in [(3, None), (4, None), (4, Some(19))] {
        let input = format!("{shards} shards, crash at {crash_at:?}");
        let service_config = |shards| {
            ServiceConfig::new(config(48, 2, 0.75), shards, 1234).with_model_arrivals(true)
        };
        let mut service = CappedService::spawn(service_config(shards)).expect("valid config");
        schedule_gauntlet(&mut service, 0);
        let mut resident: HashMap<u64, i64> = HashMap::new();
        let mut prev_generated = 0u64;
        for round in 1..=100u64 {
            ledger_round(
                &mut service,
                round,
                &mut resident,
                &mut prev_generated,
                &input,
            );
            if crash_at == Some(round) {
                assert_ne!(
                    service.live_bins(),
                    48,
                    "{input}: the crash lands mid-resize"
                );
                let bytes = service.checkpoint_bytes();
                service.shutdown();
                service = CappedService::resume(service_config(shards), &bytes)
                    .expect("mid-resize resume");
                assert_eq!(service.round(), round, "{input}");
                schedule_gauntlet(&mut service, round);
            }
        }
        assert_eq!(
            service.membership_events(),
            gauntlet_membership().len() as u64,
            "{input}: every membership event fired"
        );
        assert!(service.balls_moved() > 0, "{input}: drains moved balls");
        // Per-ball id conservation: what the checkpoint says is resident
        // is exactly what the arrival/serve ledger says should be.
        let mut expected: Vec<u64> = resident
            .iter()
            .flat_map(|(&label, &count)| {
                std::iter::repeat_n(label, usize::try_from(count).expect("non-negative"))
            })
            .collect();
        expected.sort_unstable();
        assert_eq!(resident_labels(&mut service), expected, "{input}");
    }
}

#[test]
fn mid_resize_checkpoint_resumes_bit_identically() {
    // Resize events straddle the checkpoint; the resumed
    // service re-schedules the still-future ones (plans are deliberately
    // not checkpointed, matching fault-plan semantics).
    let cfg = ServiceConfig::new(config(32, 2, 0.75), 4, 2024).with_model_arrivals(true);
    let past = MembershipPlan::new()
        .with(5, MembershipEvent::AddBins { count: 10 })
        .with(20, MembershipEvent::RemoveBins { count: 6 });
    let future = MembershipPlan::new()
        .with(40, MembershipEvent::RemoveBins { count: 12 })
        .with(50, MembershipEvent::AddBins { count: 4 });
    let mut original = CappedService::spawn(cfg.clone()).expect("valid service config");
    original.schedule_membership(past).expect("uniform");
    original
        .schedule_membership(future.clone())
        .expect("uniform");
    for _ in 0..30 {
        original.run_round();
    }
    assert_ne!(original.live_bins(), 32, "checkpoint lands mid-resize");
    let bytes = original.checkpoint_bytes();

    let mut resumed = CappedService::resume(cfg, &bytes).expect("mid-resize resume");
    assert_eq!(resumed.live_bins(), original.live_bins());
    assert_eq!(resumed.balls_moved(), original.balls_moved());
    assert_eq!(resumed.membership_events(), original.membership_events());
    assert!(resumed.conserves_balls());
    resumed.schedule_membership(future).expect("uniform");
    for r in 0..35 {
        assert_eq!(
            original.run_round(),
            resumed.run_round(),
            "diverged at +{r}"
        );
    }
    assert_eq!(original.live_bins(), resumed.live_bins());
}

/// The runs behind the envelopes in `tests/data/`, which the sharded
/// service (one bin range per shard) wrote: n = 32, c = 2, λ = 7/8,
/// model arrivals, three tickets submitted before each of 40 rounds, and
/// with `churn` eight bins added at round 5 and fourteen removed at
/// round 15, so that checkpoint lands mid-resize on ranges 8, 16, 24, 26.
fn fixture_config(shards: usize, seed: u64) -> ServiceConfig {
    ServiceConfig::new(config(32, 2, 0.875), shards, seed).with_model_arrivals(true)
}

fn fixture_service(shards: usize, seed: u64, churn: bool) -> CappedService {
    let mut service = CappedService::spawn(fixture_config(shards, seed)).expect("valid config");
    if churn {
        service
            .schedule_membership(
                MembershipPlan::new()
                    .with(5, MembershipEvent::AddBins { count: 8 })
                    .with(15, MembershipEvent::RemoveBins { count: 14 }),
            )
            .expect("uniform finite capacity");
    }
    let dispatcher = service.dispatcher();
    for _ in 0..40 {
        for _ in 0..3 {
            dispatcher.submit().expect("ingress has room");
        }
        service.run_round();
    }
    service
}

#[test]
fn envelopes_of_the_sharded_service_still_resume() {
    let fixtures: [(&str, &[u8], u64); 2] = [
        ("4 shards", include_bytes!("data/ibsv_4shard.bin"), 11),
        (
            "4 shards, mid-resize",
            include_bytes!("data/ibsv_4shard_mid_resize.bin"),
            12,
        ),
    ];
    for (what, bytes, seed) in fixtures {
        let mut dec = Decoder::new(bytes).expect("well-formed envelope");
        dec.header("IBSV", 2).expect("envelope header");
        let core_bytes = dec.byte_seq("core checkpoint").expect("core payload");
        dec.u32("rng mode").expect("rng mode");
        assert_eq!(dec.usize("shard count").expect("ranges"), 4, "{what}");
        let mut reference = iba_core::checkpoint::restore(core_bytes).expect("core checkpoint");

        let mut service = CappedService::resume(fixture_config(4, seed), bytes)
            .unwrap_or_else(|e| panic!("{what}: a multi-range envelope resumes: {e}"));
        assert_eq!(service.round(), 40, "{what}");
        for r in 1..=50 {
            assert_eq!(service.run_round(), reference.step(), "{what}: round +{r}");
        }
        assert!(service.conserves_balls(), "{what}");
    }
    // A one-shard service writes the same bytes it wrote before.
    let rerun = fixture_service(1, 13, false);
    assert_eq!(
        rerun.checkpoint_bytes(),
        include_bytes!("data/ibsv_1shard.bin"),
        "one-shard envelope"
    );
}

#[test]
fn autoscaler_grows_under_surge_and_shrinks_when_idle() {
    let mut service = model_service(config(8, 1, 0.875), 2, 5);
    service
        .set_autoscaler(Autoscaler::new(
            AutoscalerConfig::new(4, 64)
                .with_ratios(0.0005, 0.5)
                .with_patience(2)
                .with_step(8)
                .with_cooldown(4),
        ))
        .expect("uniform finite capacity");
    // A massive standing surge pushes the pool far over the bound.
    service.schedule(FaultPlan::new().with(1, FaultEvent::PoolSurge { extra: 5_000 }));
    let mut peak = service.live_bins();
    for _ in 0..200 {
        service.run_round();
        peak = peak.max(service.live_bins());
        assert!(service.conserves_balls());
    }
    assert!(peak > 8, "surge forced a scale-up (peaked at {peak})");
    assert!(service.membership_events() > 0);
    // Once the backlog drains, sustained slack hands capacity back.
    for _ in 0..400 {
        service.run_round();
        assert!(service.conserves_balls());
    }
    assert!(
        service.live_bins() < peak,
        "idle pool shrank the fleet from its {peak}-bin peak to {}",
        service.live_bins()
    );
}

#[test]
fn membership_is_rejected_for_non_uniform_capacity_configs() {
    let profiled = CappedConfig::new(8, 2, 0.5)
        .unwrap()
        .with_capacity_profile(vec![1, 2, 3, 4, 1, 2, 3, 4])
        .unwrap();
    let mut service =
        CappedService::spawn(ServiceConfig::new(profiled, 2, 1)).expect("profiles serve fine");
    assert!(service
        .schedule_membership(MembershipPlan::new().with(1, MembershipEvent::AddBins { count: 1 }))
        .is_err());
    assert!(service
        .set_autoscaler(Autoscaler::new(AutoscalerConfig::new(1, 16)))
        .is_err());

    let unbounded = CappedConfig::unbounded(8, 0.5).unwrap();
    let mut service =
        CappedService::spawn(ServiceConfig::new(unbounded, 2, 1)).expect("unbounded serves fine");
    assert!(service
        .schedule_membership(MembershipPlan::new().with(1, MembershipEvent::AddBins { count: 1 }))
        .is_err());
}

#[test]
fn removing_bins_drains_their_rings_back_into_the_pool() {
    // Load the system, then shrink hard: drained balls must retry (pool
    // grows by exactly what the removed bins buffered) and eventually get
    // served by the survivors.
    let mut service = model_service(config(32, 4, 0.875), 4, 314);
    for _ in 0..20 {
        service.run_round();
    }
    let buffered_before = service.buffered();
    let pool_before = service.pool_size();
    service
        .schedule_membership(
            MembershipPlan::new().with(21, MembershipEvent::RemoveBins { count: 28 }),
        )
        .expect("uniform");
    service.run_round();
    assert_eq!(service.live_bins(), 4);
    assert!(service.conserves_balls());
    assert!(
        service.balls_moved() > 0 || buffered_before == 0,
        "shrink drained {} buffered balls (pool was {pool_before})",
        buffered_before
    );
    for _ in 0..2000 {
        if service.pool_size() == 0 && service.buffered() == 0 {
            break;
        }
        service.run_round();
    }
    assert!(service.conserves_balls());
}
