//! Differential validation of the flat-arena round kernel: the arena
//! kernel (SoA [`iba_core::BinArena`] storage + counting-sort acceptance +
//! bulk RNG) must be **bit-exact** against the legacy scalar kernel — the
//! same [`RoundReport`] every round, including the waiting-time vectors,
//! the same RNG consumption, and the same state after any prefix — across
//! `(n, c, λ)` cells, seeds, pre-drawn choice slices, checkpoint/resume
//! round-trips, and fault injection.
//!
//! [`KernelMode::Scalar`] pins the pre-kernel implementation (one
//! `VecDeque` per bin, one RNG draw and one random-access push per ball),
//! so these tests are an executable statement of the old-vs-new
//! equivalence, not a fixture comparison. Beyond the round kernel itself
//! they pin heavy pool surges, kernel switches mid-run (storage
//! conversion both ways), checkpoint restores into either kernel, and
//! `BinShard` acceptance through elastic membership changes.

use iba_core::checkpoint;
use iba_core::process::KernelMode;
use iba_core::{Capacity, CappedConfig, CappedProcess};
use iba_sim::faults::{FaultEvent, FaultPlan, FaultedProcess};
use iba_sim::process::{AllocationProcess, RoundReport};
use iba_sim::{SimRng, Simulation};

/// The `(n, c, λ)` cells every differential test sweeps: tight (c = 1),
/// paper-typical (c ∈ {2, 3}), wide-buffer (c = 8), and high-λ regimes.
/// λn must be integral for the deterministic arrival model.
const CELLS: &[(usize, u32, f64)] = &[
    (64, 2, 0.75),
    (128, 1, 0.5),
    (96, 3, 0.875),
    (256, 8, 0.9375),
];

const SEEDS: &[u64] = &[1, 42, 0xDEAD_BEEF];

fn pair(n: usize, c: u32, lambda: f64) -> (CappedProcess, CappedProcess) {
    let config = CappedConfig::new(n, c, lambda).expect("valid cell");
    let arena = CappedProcess::with_kernel(config.clone(), KernelMode::Arena);
    let scalar = CappedProcess::with_kernel(config, KernelMode::Scalar);
    assert_eq!(arena.kernel(), KernelMode::Arena);
    assert_eq!(scalar.kernel(), KernelMode::Scalar);
    (arena, scalar)
}

/// Steps both kernels `rounds` times on identically seeded RNG streams and
/// asserts every report (and the final observable state) is equal.
fn assert_lockstep(
    arena: &mut CappedProcess,
    scalar: &mut CappedProcess,
    seed: u64,
    rounds: u64,
    what: &str,
) {
    let mut rng_a = SimRng::seed_from(seed);
    let mut rng_s = SimRng::seed_from(seed);
    for round in 0..rounds {
        let a = arena.step(&mut rng_a);
        let s = scalar.step(&mut rng_s);
        assert_eq!(a, s, "{what}: reports diverged at round {round}");
        assert_eq!(
            rng_a.state(),
            rng_s.state(),
            "{what}: RNG consumption diverged at round {round}"
        );
    }
    assert_eq!(arena.loads(), scalar.loads(), "{what}: final loads");
    assert_eq!(arena.pool_size(), scalar.pool_size(), "{what}: final pool");
    assert!(arena.conserves_balls() && scalar.conserves_balls());
}

#[test]
fn arena_kernel_is_bit_exact_across_cells_and_seeds() {
    for &(n, c, lambda) in CELLS {
        for &seed in SEEDS {
            let (mut arena, mut scalar) = pair(n, c, lambda);
            let what = format!("n={n} c={c} lambda={lambda} seed={seed}");
            assert_lockstep(&mut arena, &mut scalar, seed, 300, &what);
        }
    }
}

#[test]
fn arena_kernel_is_bit_exact_from_warm_start() {
    // Warm-started processes begin mid-regime, so the kernel is exercised
    // at stationary pool sizes from the first round.
    for &(n, c, lambda) in &[(128, 2, 0.75), (64, 4, 0.9375)] {
        let (mut arena, mut scalar) = pair(n, c, lambda);
        arena.warm_start();
        scalar.warm_start();
        let what = format!("warm n={n} c={c} lambda={lambda}");
        assert_lockstep(&mut arena, &mut scalar, 7, 200, &what);
    }
}

#[test]
fn arena_kernel_is_bit_exact_under_pre_drawn_choices() {
    // `step_with_choices` drives the kernel's slice path — the hook the
    // Lemma-1/6 coupling uses. Choices are drawn once and fed to both.
    for &(n, c, lambda) in &[(32, 2, 0.75), (48, 3, 0.875), (16, 1, 0.5)] {
        let (mut arena, mut scalar) = pair(n, c, lambda);
        let mut rng = SimRng::seed_from(1234);
        for round in 0..150 {
            let thrown = arena.next_throw_count();
            assert_eq!(thrown, scalar.next_throw_count());
            let choices: Vec<usize> = (0..thrown).map(|_| rng.uniform_bin(n)).collect();
            let a = arena.step_with_choices(&choices);
            let s = scalar.step_with_choices(&choices);
            assert_eq!(a, s, "n={n} c={c} slice path diverged at round {round}");
        }
    }
}

#[test]
fn arena_kernel_is_bit_exact_on_heterogeneous_capacities() {
    let n = 96;
    let profile: Vec<u32> = (0..n as u32).map(|i| 1 + (i % 4)).collect();
    let config = CappedConfig::new(n, 2, 0.75)
        .expect("valid")
        .with_capacity_profile(profile)
        .expect("valid profile");
    let mut arena = CappedProcess::with_kernel(config.clone(), KernelMode::Arena);
    let mut scalar = CappedProcess::with_kernel(config, KernelMode::Scalar);
    assert_lockstep(&mut arena, &mut scalar, 9, 250, "heterogeneous profile");
}

/// A fault scenario covering every event the kernel must survive: bins
/// going offline mid-run, capacity degradation below current load,
/// restoration to the configured bound, a raise to *unbounded* (which
/// forces the arena to grow its stride), bursts, and surges.
fn scenario() -> FaultPlan {
    FaultPlan::new()
        .with(
            5,
            FaultEvent::CrashBins {
                bins: vec![0, 7, 13],
            },
        )
        .with(
            8,
            FaultEvent::DegradeCapacity {
                bins: vec![2, 3],
                capacity: Some(1),
            },
        )
        .with(
            10,
            FaultEvent::ArrivalBurst {
                extra_per_round: 11,
                rounds: 3,
            },
        )
        .with(12, FaultEvent::PoolSurge { extra: 40 })
        .with(
            14,
            FaultEvent::DegradeCapacity {
                bins: vec![4],
                capacity: None, // raised to unbounded: the arena must grow
            },
        )
        .with(18, FaultEvent::RecoverBins { bins: vec![0, 7] })
        .with(
            22,
            FaultEvent::DegradeCapacity {
                bins: vec![2, 3, 4],
                capacity: Some(2),
            },
        )
        .with(25, FaultEvent::RecoverBins { bins: vec![13] })
}

#[test]
fn arena_kernel_survives_capacity_raised_past_u16() {
    // Regression: `fast_accept` packs per-bin quota into the high 16 bits
    // of a u32 register, so a fault-raised capacity past 65535 must take
    // the `counting_accept` fallback instead of corrupting the packed
    // cursor bits. The plan raises one bin far past u16::MAX mid-run and
    // later degrades it back down, while arrivals keep flowing.
    let plan = || {
        FaultPlan::new()
            .with(
                6,
                FaultEvent::DegradeCapacity {
                    bins: vec![3],
                    capacity: Some(70_000), // > u16::MAX: packed quota would wrap
                },
            )
            .with(10, FaultEvent::PoolSurge { extra: 200 })
            .with(
                20,
                FaultEvent::DegradeCapacity {
                    bins: vec![3],
                    capacity: Some(2),
                },
            )
    };
    for &seed in SEEDS {
        let config = CappedConfig::new(32, 2, 0.75).expect("valid");
        let mut arena = FaultedProcess::new(
            CappedProcess::with_kernel(config.clone(), KernelMode::Arena),
            plan(),
        );
        let mut scalar = FaultedProcess::new(
            CappedProcess::with_kernel(config, KernelMode::Scalar),
            plan(),
        );
        let mut rng_a = SimRng::seed_from(seed);
        let mut rng_s = SimRng::seed_from(seed);
        for round in 0..60 {
            let a = arena.step(&mut rng_a);
            let s = scalar.step(&mut rng_s);
            assert_eq!(a, s, "u16-raise divergence at round {round} (seed {seed})");
        }
    }
}

#[test]
fn arena_kernel_is_bit_exact_under_fault_injection() {
    for &seed in SEEDS {
        let config = CappedConfig::new(48, 2, 0.75).expect("valid");
        let mut arena = FaultedProcess::new(
            CappedProcess::with_kernel(config.clone(), KernelMode::Arena),
            scenario(),
        );
        let mut scalar = FaultedProcess::new(
            CappedProcess::with_kernel(config, KernelMode::Scalar),
            scenario(),
        );
        let mut rng_a = SimRng::seed_from(seed);
        let mut rng_s = SimRng::seed_from(seed);
        for round in 0..120 {
            let a = arena.step(&mut rng_a);
            let s = scalar.step(&mut rng_s);
            assert_eq!(a, s, "faulted divergence at round {round} (seed {seed})");
        }
    }
}

#[test]
fn telemetry_toggle_does_not_perturb_the_trajectory() {
    // Telemetry probes consume no RNG and never branch on process state,
    // so toggling the registry on must leave the faulted arena trajectory
    // bit-identical — reports and RNG consumption both — while the
    // counters actually move. This test owns the global flag: it is the
    // only test in this binary that calls `set_enabled`, and it restores
    // the flag before returning.
    let run = |enabled: bool| {
        iba_obs::set_enabled(enabled);
        let config = CappedConfig::new(48, 2, 0.75).expect("valid");
        let mut process = FaultedProcess::new(
            CappedProcess::with_kernel(config, KernelMode::Arena),
            scenario(),
        );
        let mut rng = SimRng::seed_from(42);
        let reports: Vec<RoundReport> = (0..120).map(|_| process.step(&mut rng)).collect();
        (reports, rng.state())
    };

    let registry = iba_obs::global();
    let probes = [
        registry.counter("iba_core_accepted_balls_total"),
        registry.counter("iba_core_arena_fast_accept_rounds_total"),
        registry.counter("iba_core_arena_fallback_rounds_total"),
        registry.counter("iba_core_arena_grow_total"),
    ];
    let total = |probes: &[std::sync::Arc<iba_obs::Counter>]| -> u64 {
        probes.iter().map(|c| c.get()).sum()
    };

    let before = total(&probes);
    let off = run(false);
    assert_eq!(
        total(&probes),
        before,
        "disabled probes must not move counters"
    );
    let on = run(true);
    iba_obs::set_enabled(false);
    assert_eq!(off, on, "enabling telemetry perturbed the trajectory");
    assert!(
        total(&probes) > before,
        "enabled probes should have recorded the run"
    );
}

#[test]
fn degraded_arena_bin_rejects_and_keeps_overflow() {
    // Direct (non-plan) capacity degradation on the arena path: a bin
    // holding more balls than its degraded capacity keeps them, rejects
    // new requests, and drains FIFO — same semantics as `BinBuffer`.
    let config = CappedConfig::new(4, 3, 0.5).expect("valid");
    let mut p = CappedProcess::with_kernel(config, KernelMode::Arena);
    p.inject_pool(1);
    p.step_with_choices(&[0, 0, 0]);
    assert_eq!(p.bin(0).len(), 2);
    p.set_bin_capacity(0, Capacity::finite(1).unwrap());
    let r = p.step_with_choices(&[0, 0]);
    assert_eq!(r.accepted, 0);
    assert_eq!(p.bin(0).len(), 1);
    assert!(p.conserves_balls());
}

#[test]
fn checkpoint_round_trip_resumes_bit_exactly() {
    // Arena process → checkpoint v2 → restore → both continuations agree
    // with an uninterrupted scalar run from the same seed. This pins all
    // three at once: arena vs scalar, and arena vs its own round-trip.
    for &(n, c, lambda) in &[(64, 2, 0.75), (96, 3, 0.875), (128, 1, 0.5)] {
        for &seed in &[3u64, 77] {
            let config = CappedConfig::new(n, c, lambda).expect("valid cell");
            let mut sim = Simulation::new(
                CappedProcess::with_kernel(config.clone(), KernelMode::Arena),
                SimRng::seed_from(seed),
            );
            let mut scalar = CappedProcess::with_kernel(config, KernelMode::Scalar);
            let mut scalar_rng = SimRng::seed_from(seed);
            for _ in 0..80 {
                let a = sim.step();
                let s = scalar.step(&mut scalar_rng);
                assert_eq!(a, s, "pre-checkpoint divergence (n={n} c={c})");
            }
            let bytes = checkpoint::save(&sim);
            let mut restored = checkpoint::restore(&bytes).expect("valid checkpoint");
            assert_eq!(
                restored.process().kernel(),
                KernelMode::Arena,
                "finite-capacity restores run the arena kernel"
            );
            for round in 0..80 {
                let a = sim.step();
                let r = restored.step();
                let s = scalar.step(&mut scalar_rng);
                assert_eq!(a, r, "restored run diverged at round {round}");
                assert_eq!(a, s, "post-checkpoint scalar divergence at {round}");
            }
        }
    }
}

#[test]
fn scalar_checkpoint_restores_to_arena_and_continues_identically() {
    // Checkpoints don't record the kernel mode: a scalar-kernel run's
    // checkpoint restores onto arena storage and must continue the exact
    // same trajectory as the uninterrupted scalar original.
    let config = CappedConfig::new(64, 4, 0.875).expect("valid");
    let mut sim = Simulation::new(
        CappedProcess::with_kernel(config, KernelMode::Scalar),
        SimRng::seed_from(11),
    );
    sim.run_rounds(60);
    let bytes = checkpoint::save(&sim);
    let mut restored = checkpoint::restore(&bytes).expect("valid checkpoint");
    assert_eq!(restored.process().kernel(), KernelMode::Arena);
    for round in 0..100 {
        assert_eq!(
            sim.step(),
            restored.step(),
            "cross-kernel resume diverged at round {round}"
        );
    }
}

#[test]
fn faulted_checkpoint_round_trips_through_the_arena() {
    // Degrade capacities (including a raise to unbounded) before the
    // checkpoint, so the restore must rebuild an arena whose live
    // capacities diverge from the configured profile — over-full bins and
    // all — then continue bit-exactly.
    let config = CappedConfig::new(32, 2, 0.75).expect("valid");
    let mut sim = Simulation::new(
        CappedProcess::with_kernel(config, KernelMode::Arena),
        SimRng::seed_from(23),
    );
    sim.run_rounds(30);
    sim.process_mut()
        .set_bin_capacity(1, Capacity::finite(1).unwrap());
    sim.process_mut().set_bin_capacity(5, Capacity::Infinite);
    sim.process_mut().set_bin_offline(9, true);
    sim.run_rounds(30);

    let bytes = checkpoint::save(&sim);
    let mut restored = checkpoint::restore(&bytes).expect("valid checkpoint");
    assert_eq!(
        restored.process().bin(1).capacity(),
        Capacity::finite(1).unwrap()
    );
    assert_eq!(restored.process().bin(5).capacity(), Capacity::Infinite);
    assert!(restored.process().is_bin_offline(9));
    for round in 0..80 {
        assert_eq!(
            sim.step(),
            restored.step(),
            "degraded resume diverged at round {round}"
        );
    }
}

#[test]
fn arena_kernel_is_bit_exact_under_heavy_pool_surge() {
    // A pool ~100× the bin count: every round throws far more balls than
    // the bins can take, so nearly every request is rejected back to the
    // pool and the reject list dominates the round.
    let config = CappedConfig::new(512, 2, 0.75).expect("valid");
    let mut arena = CappedProcess::with_kernel(config.clone(), KernelMode::Arena);
    let mut scalar = CappedProcess::with_kernel(config, KernelMode::Scalar);
    arena.inject_pool(50_000);
    scalar.inject_pool(50_000);
    assert_lockstep(&mut arena, &mut scalar, 5, 40, "pool surge");
}

#[test]
fn set_kernel_switches_modes_mid_run_without_divergence() {
    // One process hops between the kernels (converting storage both
    // directions) while the reference stays scalar; the trajectory must
    // not notice.
    let schedule = [
        KernelMode::Scalar,
        KernelMode::Arena,
        KernelMode::Scalar,
        KernelMode::Arena,
    ];
    for &(n, c, lambda) in &[(64, 2, 0.75), (96, 3, 0.875)] {
        let config = CappedConfig::new(n, c, lambda).expect("valid cell");
        let mut hopper = CappedProcess::new(config.clone());
        let mut scalar = CappedProcess::with_kernel(config, KernelMode::Scalar);
        let mut rng_h = SimRng::seed_from(77);
        let mut rng_s = SimRng::seed_from(77);
        for (leg, &kernel) in schedule.iter().enumerate() {
            hopper.set_kernel(kernel);
            assert_eq!(hopper.kernel(), kernel);
            for round in 0..40 {
                let a = hopper.step(&mut rng_h);
                let s = scalar.step(&mut rng_s);
                assert_eq!(a, s, "leg {leg} ({kernel:?}) diverged at round {round}");
            }
        }
        assert_eq!(hopper.loads(), scalar.loads());
        assert!(hopper.conserves_balls());
    }
}

#[test]
fn checkpoint_restores_into_either_kernel_and_continues_identically() {
    // A checkpoint taken under each kernel restores (onto the default
    // arena kernel), is switched back to the kernel it was taken under,
    // and continues the exact trajectory of both the uninterrupted
    // original and the scalar oracle.
    for &kernel in &[KernelMode::Arena, KernelMode::Scalar] {
        let config = CappedConfig::new(96, 2, 0.875).expect("valid");
        let mut sim = Simulation::new(
            CappedProcess::with_kernel(config.clone(), kernel),
            SimRng::seed_from(13),
        );
        let mut scalar = CappedProcess::with_kernel(config, KernelMode::Scalar);
        let mut scalar_rng = SimRng::seed_from(13);
        for _ in 0..80 {
            let a = sim.step();
            let s = scalar.step(&mut scalar_rng);
            assert_eq!(a, s, "{kernel:?} pre-checkpoint divergence");
        }
        let bytes = checkpoint::save(&sim);
        let mut restored = checkpoint::restore(&bytes).expect("valid checkpoint");
        restored.process_mut().set_kernel(kernel);
        assert_eq!(restored.process().kernel(), kernel);
        for round in 0..80 {
            let a = sim.step();
            let r = restored.step();
            let s = scalar.step(&mut scalar_rng);
            assert_eq!(a, r, "{kernel:?} restored run diverged at round {round}");
            assert_eq!(a, s, "{kernel:?} post-checkpoint scalar divergence");
        }
    }
}

#[test]
fn overfull_uniform_restore_rearms_with_zero_room() {
    // Regression for a quota underflow: raise a bin to unbounded, overfill
    // it past c₀, degrade it back to c₀, and checkpoint. The restore
    // re-derives a *uniform* capacity profile around a bin whose load
    // exceeds c₀; the re-arm sweep must give that bin zero room
    // (`saturating_sub`), not an underflowed 16-bit quota. Both kernels
    // continue bit-exactly while the overfull bin drains.
    for &kernel in &[KernelMode::Arena, KernelMode::Scalar] {
        let config = CappedConfig::new(16, 2, 0.75).expect("valid");
        let mut sim = Simulation::new(
            CappedProcess::with_kernel(config.clone(), KernelMode::Arena),
            SimRng::seed_from(19),
        );
        sim.run_rounds(10);
        sim.process_mut().set_bin_capacity(3, Capacity::Infinite);
        sim.process_mut().inject_pool(60);
        sim.run_rounds(10);
        assert!(
            sim.process().bin(3).len() > 2,
            "bin 3 must be loaded past c0"
        );
        sim.process_mut()
            .set_bin_capacity(3, Capacity::finite(2).unwrap());

        let bytes = checkpoint::save(&sim);
        let mut restored = checkpoint::restore(&bytes).expect("valid checkpoint");
        restored.process_mut().set_kernel(kernel);
        for round in 0..60 {
            let a = sim.step();
            let r = restored.step();
            assert_eq!(a, r, "{kernel:?} overfull restore diverged at {round}");
        }
        assert!(restored.process().bin(3).len() <= 2, "bin 3 drained");
        assert!(restored.process().conserves_balls());
    }
}

#[test]
fn shard_kernels_match_through_elastic_membership_changes() {
    // BinShard-level oracle: an arena-kernel shard and a scalar-kernel
    // shard fed identical routed streams through the fused round stay
    // identical through every mutation that must invalidate the arena
    // shard's primed acceptance registers: bin growth and shrink, crash
    // and recovery, capacity degradation and raises (past the stride,
    // forcing the `counting_accept` fallback, and to unbounded), and a
    // split → rebuild → re-merge round trip (the elastic-membership and
    // fault surface the service uses).
    use iba_core::shard::{BinShard, ShardRoundStats};
    use iba_core::Ball;

    fn step(
        shard: &mut BinShard,
        requests: &[(usize, Ball)],
    ) -> (ShardRoundStats, Vec<Ball>, Vec<(usize, Ball)>) {
        let mut rejected = Vec::new();
        let mut served = Vec::new();
        let stats = shard.run_round(requests.iter().copied(), &mut rejected, |b, ball| {
            served.push((b, ball))
        });
        (stats, rejected, served)
    }

    let c = Capacity::finite(2).unwrap();
    let config = CappedConfig::new(16, 2, 0.75).expect("valid");
    let mut fast = BinShard::new(&config, 0..8);
    let mut scalar = BinShard::new(&config, 0..8).with_kernel(KernelMode::Scalar);
    assert_eq!(fast.kernel(), KernelMode::Arena);
    let mut rng = SimRng::seed_from(3);
    let mut pending: Vec<Ball> = Vec::new();
    for round in 1..=200u64 {
        for shard in [&mut fast, &mut scalar] {
            match round {
                // Elastic membership: grow two bins, shrink one later.
                30 | 45 => shard.push_bin_with(c, &[], false),
                // Crash two bins, recover one, then the other.
                55 => {
                    shard.set_offline(1, true);
                    shard.set_offline(6, true);
                }
                62 => shard.set_offline(1, false),
                70 => shard.set_offline(6, false),
                // Degrade, then raise past the stride (fast path bails to
                // the exact-histogram pass, which grows the arena), raise
                // another bin to unbounded, and restore both.
                90 => shard.set_capacity(2, Capacity::finite(1).unwrap()),
                100 => shard.set_capacity(2, Capacity::finite(9).unwrap()),
                105 => shard.set_capacity(4, Capacity::Infinite),
                120 => {
                    shard.set_capacity(2, c);
                    shard.set_capacity(4, c);
                }
                // Split the upper half off, rebuild it as its own shard,
                // and merge it back.
                140 => {
                    let parts = shard.split_off(5);
                    let upper = BinShard::from_parts(5, c, parts);
                    for (cap, balls, offline) in upper.to_parts() {
                        shard.push_bin_with(cap, &balls, offline);
                    }
                }
                _ => {}
            }
        }
        if round == 80 {
            let (cf, bf, of) = fast.pop_bin();
            let (cs, bs, os) = scalar.pop_bin();
            assert_eq!((cf, &bf, of), (cs, &bs, os), "popped bins diverged");
            pending.extend(bf); // drained balls re-enter the stream
        }
        if round == 100 || round == 105 {
            // A surge that fills the raised bins past the old stride.
            pending.extend(std::iter::repeat_n(Ball::generated_in(round), 40));
        }
        let bins = fast.len();
        pending.extend(std::iter::repeat_n(Ball::generated_in(round), 6));
        pending.sort();
        let requests: Vec<(usize, Ball)> = pending
            .drain(..)
            .map(|ball| (rng.uniform_bin(bins), ball))
            .collect();
        let (stats_f, rej_f, served_f) = step(&mut fast, &requests);
        let (stats_s, rej_s, served_s) = step(&mut scalar, &requests);
        assert_eq!(stats_f, stats_s, "round stats diverged at round {round}");
        assert_eq!(rej_f, rej_s, "rejects diverged at round {round}");
        assert_eq!(served_f, served_s, "serves diverged at round {round}");
        assert_eq!(
            fast.loads(),
            scalar.loads(),
            "loads diverged at round {round}"
        );
        pending = rej_f;
    }
}

#[test]
fn step_into_refills_the_report_without_divergence() {
    // The engine's allocation-free loop (`step_into` with one reused
    // report) must observe the same trajectory as fresh-report `step`.
    let config = CappedConfig::new(64, 2, 0.75).expect("valid");
    let mut a = CappedProcess::with_kernel(config.clone(), KernelMode::Arena);
    let mut b = CappedProcess::with_kernel(config, KernelMode::Arena);
    let mut rng_a = SimRng::seed_from(31);
    let mut rng_b = SimRng::seed_from(31);
    let mut reused = RoundReport::default();
    for round in 0..200 {
        b.step_into(&mut rng_b, &mut reused);
        let fresh = a.step(&mut rng_a);
        assert_eq!(reused, fresh, "step_into diverged at round {round}");
    }
}
