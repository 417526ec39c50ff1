//! Differential validation of the flat-arena round kernel against the
//! executable specification: [`CappedProcess`] (SoA [`iba_core::BinArena`]
//! storage + acceptance scatter + bulk RNG) must be **bit-exact**
//! against [`SpecCapped`] — the same [`RoundReport`] every round,
//! including the waiting-time vectors, the same RNG consumption, and the
//! same state after any prefix — across `(n, c, λ)` cells, seeds,
//! pre-drawn choice slices, capacities raised past the stride,
//! checkpoint/resume round-trips, and fault injection.
//!
//! The specification draws one `uniform_bin` per pooled ball and re-sorts
//! every bin's requests by age, so these tests are an executable statement
//! of the kernel's equivalence to Algorithm 1, not a fixture comparison.
//! Beyond the round kernel itself they pin heavy pool surges, stride
//! growth under raised capacities, checkpoint restores (two of them
//! committed IBA1 files), and `BinArena` acceptance through elastic
//! membership changes.

use iba_core::checkpoint;
use iba_core::spec::{SpecBin, SpecCapped};
use iba_core::{Ball, Capacity, CappedConfig, CappedProcess, MAX_CAPACITY};
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

fn pair(config: CappedConfig) -> (CappedProcess, SpecCapped) {
    let spec = SpecCapped::from_config(&config);
    (CappedProcess::new(config), spec)
}

fn cell(n: usize, c: u32, lambda: f64) -> CappedConfig {
    CappedConfig::new(n, c, lambda).expect("valid cell")
}

/// The specification of `p`'s current state.
fn spec_of(p: &CappedProcess) -> SpecCapped {
    let pool: Vec<u64> = p.pool().iter().map(|b| b.label()).collect();
    SpecCapped::from_state(p.config(), p.round(), &pool, bins_of(p))
}

fn bins_of(p: &CappedProcess) -> Vec<SpecBin> {
    (0..p.config().bins())
        .map(|i| {
            let bin = p.bin(i);
            let labels = bin.iter().map(Ball::label).collect();
            (bin.capacity(), labels, p.is_bin_offline(i))
        })
        .collect()
}

/// Asserts the process and the specification hold the same state: round,
/// pool labels, and every bin's capacity, FIFO labels and offline flag.
fn assert_same_state(p: &CappedProcess, spec: &SpecCapped, what: &str) {
    assert_eq!(p.round(), spec.round(), "{what}: round");
    let pool: Vec<u64> = p.pool().iter().map(|b| b.label()).collect();
    assert_eq!(pool, spec.pool_labels(), "{what}: pool");
    let spec_bins: Vec<SpecBin> = (0..spec.bins())
        .map(|i| {
            (
                spec.capacity(i),
                spec.queue_labels(i),
                spec.is_bin_offline(i),
            )
        })
        .collect();
    assert_eq!(bins_of(p), spec_bins, "{what}: bins");
    assert!(p.conserves_balls(), "{what}: conservation");
}

/// Steps both processes `rounds` times on identically seeded RNG streams
/// and asserts every report and the RNG consumption are equal.
fn lockstep<A: AllocationProcess, B: AllocationProcess>(
    arena: &mut A,
    spec: &mut B,
    seed: u64,
    rounds: u64,
    what: &str,
) {
    let mut rng_a = SimRng::seed_from(seed);
    let mut rng_s = SimRng::seed_from(seed);
    for round in 0..rounds {
        let a = arena.step(&mut rng_a);
        let s = spec.step(&mut rng_s);
        assert_eq!(a, s, "{what}: reports diverged at round {round}");
        assert_eq!(
            rng_a.state(),
            rng_s.state(),
            "{what}: RNG consumption diverged at round {round}"
        );
    }
}

/// [`lockstep`], then the final states must agree.
fn assert_lockstep(
    arena: &mut CappedProcess,
    spec: &mut SpecCapped,
    seed: u64,
    rounds: u64,
    what: &str,
) {
    lockstep(arena, spec, seed, rounds, what);
    assert_same_state(arena, spec, what);
}

#[test]
fn arena_kernel_is_bit_exact_across_cells_and_seeds() {
    for &(n, c, lambda) in CELLS {
        for &seed in SEEDS {
            let (mut arena, mut spec) = pair(cell(n, c, lambda));
            let what = format!("n={n} c={c} lambda={lambda} seed={seed}");
            assert_lockstep(&mut arena, &mut spec, seed, 300, &what);
        }
    }
}

#[test]
fn arena_kernel_is_bit_exact_from_warm_start() {
    // Warm-started processes begin mid-regime, so the kernel is exercised
    // at stationary pool sizes from the first round.
    for &(n, c, lambda) in &[(128, 2, 0.75), (64, 4, 0.9375)] {
        let config = cell(n, c, lambda);
        let (mut arena, mut spec) = pair(config.clone());
        arena.warm_start();
        spec.inject_pool(config.predicted_stationary_pool() as u64);
        let what = format!("warm n={n} c={c} lambda={lambda}");
        assert_lockstep(&mut arena, &mut spec, 7, 200, &what);
    }
}

#[test]
fn arena_kernel_is_bit_exact_under_pre_drawn_choices() {
    // `step_with_choices` drives the kernel's slice path — the hook the
    // Lemma-1/6 coupling uses. Choices are drawn once and fed to both.
    for &(n, c, lambda) in &[(32, 2, 0.75), (48, 3, 0.875), (16, 1, 0.5)] {
        let (mut arena, mut spec) = pair(cell(n, c, lambda));
        let mut rng = SimRng::seed_from(1234);
        for round in 0..150 {
            let thrown = arena.next_throw_count();
            let choices: Vec<usize> = (0..thrown).map(|_| rng.uniform_bin(n)).collect();
            let a = arena.step_with_choices(&choices);
            let s = spec.step_with_choices(&choices);
            assert_eq!(a, s, "n={n} c={c} slice path diverged at round {round}");
        }
        assert_same_state(&arena, &spec, "slice path");
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
    let (mut arena, mut spec) = pair(config);
    assert_lockstep(&mut arena, &mut spec, 9, 250, "heterogeneous profile");
}

#[test]
fn arena_kernel_is_bit_exact_across_raises_past_the_stride() {
    // Every bin starts with a one-slot ring (c = 1); two raises past the
    // stride re-lay the arena out mid-run, and the surges fill the raised
    // bins far past the old rings.
    let plan = || {
        FaultPlan::new()
            .with(
                3,
                FaultEvent::DegradeCapacity {
                    bins: (0..16).collect(),
                    capacity: 64,
                },
            )
            .with(5, FaultEvent::PoolSurge { extra: 300 })
            .with(20, FaultEvent::PoolSurge { extra: 1_200 })
            .with(
                30,
                FaultEvent::DegradeCapacity {
                    bins: (16..32).collect(),
                    capacity: 256,
                },
            )
            .with(45, FaultEvent::PoolSurge { extra: 4_000 })
    };
    for &seed in SEEDS {
        let (arena, spec) = pair(cell(64, 1, 0.75));
        let mut arena = FaultedProcess::new(arena, plan());
        let mut spec = FaultedProcess::new(spec, plan());
        let what = format!("raised seed={seed}");
        lockstep(&mut arena, &mut spec, seed, 80, &what);
        assert_same_state(arena.inner(), spec.inner(), &what);
        let peak = arena.inner().loads().into_iter().max().unwrap_or(0);
        assert!(
            peak >= 32,
            "{what}: surges must load a bin past 32 (got {peak})"
        );
    }
}

/// A fault scenario covering every event the kernel must survive: bins
/// going offline mid-run, capacity degradation below current load,
/// restoration to the configured bound, a raise past the stride (which
/// re-lays the arena out), bursts, and surges.
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
                capacity: 1,
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
                capacity: 64, // raised past the stride: the arena must grow
            },
        )
        .with(18, FaultEvent::RecoverBins { bins: vec![0, 7] })
        .with(
            22,
            FaultEvent::DegradeCapacity {
                bins: vec![2, 3, 4],
                capacity: 2,
            },
        )
        .with(25, FaultEvent::RecoverBins { bins: vec![13] })
}

#[test]
fn arena_and_spec_skip_a_raise_past_max_capacity() {
    // A raise above MAX_CAPACITY is malformed: the arena and the
    // specification both skip it and keep the bin's capacity. A raise to
    // MAX_CAPACITY itself is applied by both and grows the stride to it.
    let plan = || {
        FaultPlan::new()
            .with(
                6,
                FaultEvent::DegradeCapacity {
                    bins: vec![3],
                    capacity: MAX_CAPACITY + 1,
                },
            )
            .with(10, FaultEvent::PoolSurge { extra: 200 })
            .with(
                20,
                FaultEvent::DegradeCapacity {
                    bins: vec![3],
                    capacity: MAX_CAPACITY,
                },
            )
            .with(22, FaultEvent::PoolSurge { extra: 200 })
    };
    let c = Capacity::finite(2).unwrap();
    for &seed in SEEDS {
        let (arena, spec) = pair(cell(32, 2, 0.75));
        let mut arena = FaultedProcess::new(arena, plan());
        let mut spec = FaultedProcess::new(spec, plan());
        let what = format!("raise past MAX_CAPACITY, seed {seed}");
        lockstep(&mut arena, &mut spec, seed, 15, &what);
        assert_same_state(arena.inner(), spec.inner(), &what);
        assert_eq!(arena.inner().bin(3).capacity(), c, "{what}: skipped");
        lockstep(&mut arena, &mut spec, seed ^ 1, 45, &what);
        assert_same_state(arena.inner(), spec.inner(), &what);
        let max = Capacity::finite(MAX_CAPACITY).unwrap();
        assert_eq!(arena.inner().bin(3).capacity(), max, "{what}: applied");
    }
}

#[test]
fn arena_kernel_is_bit_exact_under_fault_injection() {
    for &seed in SEEDS {
        let (arena, spec) = pair(cell(48, 2, 0.75));
        let mut arena = FaultedProcess::new(arena, scenario());
        let mut spec = FaultedProcess::new(spec, scenario());
        let what = format!("faulted, seed {seed}");
        lockstep(&mut arena, &mut spec, seed, 120, &what);
        assert_same_state(arena.inner(), spec.inner(), &what);
    }
}

#[test]
fn arena_kernel_is_bit_exact_on_many_one_ball_runs() {
    // n = 8, λ = 1/8: one ball per round, so every generation is a run of
    // one ball. Crashing seven bins backs the pool up into dozens of
    // one-ball runs of distinct labels; the surges add balls at the
    // current label, which merge into the youngest run; the recoveries
    // drain the runs through the scatter, one reject run per label.
    let plan = || {
        FaultPlan::new()
            .with(
                3,
                FaultEvent::CrashBins {
                    bins: vec![0, 1, 2, 3, 4, 5, 6],
                },
            )
            .with(10, FaultEvent::PoolSurge { extra: 1 })
            .with(11, FaultEvent::PoolSurge { extra: 2 })
            .with(25, FaultEvent::PoolSurge { extra: 1 })
            .with(
                45,
                FaultEvent::RecoverBins {
                    bins: vec![0, 1, 2],
                },
            )
            .with(46, FaultEvent::PoolSurge { extra: 3 })
            .with(
                60,
                FaultEvent::RecoverBins {
                    bins: vec![3, 4, 5, 6],
                },
            )
            .with(61, FaultEvent::CrashBins { bins: vec![7] })
            .with(70, FaultEvent::PoolSurge { extra: 1 })
            .with(80, FaultEvent::RecoverBins { bins: vec![7] })
    };
    for &seed in SEEDS {
        let (arena, spec) = pair(cell(8, 1, 0.125));
        let mut arena = FaultedProcess::new(arena, plan());
        let mut spec = FaultedProcess::new(spec, plan());
        let what = format!("one-ball runs, seed {seed}");
        lockstep(&mut arena, &mut spec, seed, 44, &what);
        assert_same_state(arena.inner(), spec.inner(), &what);
        let runs = arena.inner().pool().runs().len();
        assert!(runs >= 10, "{what}: only {runs} runs backed up");
        lockstep(&mut arena, &mut spec, seed ^ 1, 100, &what);
        assert_same_state(arena.inner(), spec.inner(), &what);
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
        let mut process = FaultedProcess::new(CappedProcess::new(config), scenario());
        let mut rng = SimRng::seed_from(42);
        let reports: Vec<RoundReport> = (0..120).map(|_| process.step(&mut rng)).collect();
        (reports, rng.state())
    };

    let registry = iba_obs::global();
    let probes = [
        registry.counter("iba_core_accepted_balls_total"),
        registry.counter("iba_core_arena_fast_accept_rounds_total"),
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
    // new requests, and drains FIFO — as the specification does.
    let (mut p, mut spec) = pair(cell(4, 3, 0.5));
    p.inject_pool(1);
    spec.inject_pool(1);
    assert_eq!(
        p.step_with_choices(&[0, 0, 0]),
        spec.step_with_choices(&[0, 0, 0])
    );
    assert_eq!(p.bin(0).len(), 2);
    p.set_bin_capacity(0, Capacity::finite(1).unwrap());
    spec.set_bin_capacity(0, Capacity::finite(1).unwrap());
    let r = p.step_with_choices(&[0, 0]);
    assert_eq!(r, spec.step_with_choices(&[0, 0]));
    assert_eq!(r.accepted, 0);
    assert_eq!(p.bin(0).len(), 1);
    assert_same_state(&p, &spec, "degraded bin");
}

#[test]
fn checkpoint_round_trip_resumes_bit_exactly() {
    // Arena process → checkpoint v2 → restore → both continuations agree
    // with an uninterrupted specification run from the same seed. This
    // pins all three at once: arena vs spec, and arena vs its own
    // round-trip.
    let cases: &[(usize, u32, f64, &[u64])] = &[
        (64, 2, 0.75, &[3, 77]),
        (96, 3, 0.875, &[3, 77]),
        (128, 1, 0.5, &[3, 77]),
    ];
    for &(n, c, lambda, seeds) in cases {
        for &seed in seeds {
            let config = cell(n, c, lambda);
            let mut spec = SpecCapped::from_config(&config);
            let mut sim = Simulation::new(CappedProcess::new(config), SimRng::seed_from(seed));
            let mut spec_rng = SimRng::seed_from(seed);
            for _ in 0..80 {
                let a = sim.step();
                let s = spec.step(&mut spec_rng);
                assert_eq!(a, s, "pre-checkpoint divergence (n={n} c={c})");
            }
            let bytes = checkpoint::save(&sim);
            let mut restored = checkpoint::restore(&bytes).expect("valid checkpoint");
            for round in 0..80 {
                let a = sim.step();
                let r = restored.step();
                let s = spec.step(&mut spec_rng);
                assert_eq!(a, r, "restored run diverged at round {round}");
                assert_eq!(a, s, "post-checkpoint spec divergence at {round}");
            }
            assert_eq!(restored.rng().state(), spec_rng.state());
            assert_same_state(restored.process(), &spec, "restored run");
        }
    }
}

#[test]
fn checkpoint_restores_into_either_kernel_and_continues_identically() {
    // One checkpoint restores into both implementations of the process:
    // the arena kernel (through `checkpoint::restore`) and the
    // specification (built from the restored bins). Each continues the
    // exact trajectory of the uninterrupted original and of a
    // specification run from the same seed since round zero.
    let config = cell(96, 2, 0.875);
    let mut sim = Simulation::new(CappedProcess::new(config.clone()), SimRng::seed_from(13));
    let mut oracle = SpecCapped::from_config(&config);
    let mut oracle_rng = SimRng::seed_from(13);
    for _ in 0..80 {
        let a = sim.step();
        let o = oracle.step(&mut oracle_rng);
        assert_eq!(a, o, "pre-checkpoint divergence");
    }
    let bytes = checkpoint::save(&sim);
    let mut restored = checkpoint::restore(&bytes).expect("valid checkpoint");
    let mut spec = spec_of(restored.process());
    let mut spec_rng = SimRng::from_state(restored.rng().state());
    assert_eq!(spec_rng.state(), oracle_rng.state());
    for round in 0..80 {
        let a = sim.step();
        let r = restored.step();
        let s = spec.step(&mut spec_rng);
        let o = oracle.step(&mut oracle_rng);
        assert_eq!(a, r, "restored arena run diverged at round {round}");
        assert_eq!(a, s, "restored spec run diverged at round {round}");
        assert_eq!(a, o, "post-checkpoint oracle divergence at round {round}");
    }
    assert_eq!(restored.rng().state(), spec_rng.state());
    assert_same_state(restored.process(), &spec, "restored spec run");
    assert_same_state(restored.process(), &oracle, "uninterrupted oracle");
}

/// Continues `sim`, its checkpoint restore, and the specification built
/// from the checkpointed state for `rounds` rounds in lockstep.
fn assert_resume_matches_spec(sim: &mut Simulation<CappedProcess>, rounds: u64, what: &str) {
    let bytes = checkpoint::save(sim);
    let mut restored = checkpoint::restore(&bytes).expect("valid checkpoint");
    let mut spec = spec_of(restored.process());
    let mut spec_rng = SimRng::from_state(restored.rng().state());
    for round in 0..rounds {
        let a = sim.step();
        let r = restored.step();
        let s = spec.step(&mut spec_rng);
        assert_eq!(a, r, "{what}: restored run diverged at round {round}");
        assert_eq!(a, s, "{what}: spec diverged at round {round}");
    }
    assert_same_state(restored.process(), &spec, what);
}

#[test]
fn faulted_checkpoint_round_trips_through_the_arena() {
    // Degrade capacities (including a raise past the stride) before the
    // checkpoint, so the restore must rebuild an arena whose live
    // capacities diverge from the configured profile — over-full bins and
    // all — then continue bit-exactly.
    let config = CappedConfig::new(32, 2, 0.75).expect("valid");
    let mut sim = Simulation::new(CappedProcess::new(config), SimRng::seed_from(23));
    sim.run_rounds(30);
    sim.process_mut()
        .set_bin_capacity(1, Capacity::finite(1).unwrap());
    let raised = Capacity::finite(64).unwrap();
    sim.process_mut().set_bin_capacity(5, raised);
    sim.process_mut().set_bin_offline(9, true);
    sim.run_rounds(30);

    let restored = checkpoint::restore(&checkpoint::save(&sim)).expect("valid checkpoint");
    assert_eq!(
        restored.process().bin(1).capacity(),
        Capacity::finite(1).unwrap()
    );
    assert_eq!(restored.process().bin(5).capacity(), raised);
    assert!(restored.process().is_bin_offline(9));
    assert_resume_matches_spec(&mut sim, 80, "degraded resume");
}

#[test]
fn committed_checkpoint_restores_resaves_and_resumes_bit_exactly() {
    // An IBA1 file written by an earlier build of the codec: n = 16 with
    // a {1, 3} capacity profile, bin 5 raised to 64 and loaded past the
    // configured stride, bin 7 offline holding balls, and bin 3 degraded
    // to capacity 1 below its load. A same-build round trip cannot catch
    // an encode/decode drift that changes both sides together; this file
    // can.
    let bytes: &[u8] = include_bytes!("data/iba1_faulted.bin");
    let mut sim = checkpoint::restore(bytes).expect("the committed checkpoint restores");
    assert_eq!(checkpoint::save(&sim), bytes, "re-saving changed the bytes");
    let p = sim.process();
    assert!(p.config().capacity_profile().is_some());
    assert_eq!(p.bin(5).capacity(), Capacity::finite(64).unwrap());
    assert!(p.bin(5).len() > 4, "bin 5 outgrew the configured stride");
    assert!(p.is_bin_offline(7) && !p.bin(7).is_empty());
    assert_eq!(p.bin(3).capacity(), Capacity::finite(1).unwrap());
    assert!(p.bin(3).len() > 1, "bin 3 holds more than its capacity");
    assert_resume_matches_spec(&mut sim, 60, "committed checkpoint");
}

#[test]
fn committed_checkpoint_with_an_unbounded_bin_is_refused() {
    // An IBA1 file from when a bin could be unbounded (n = 16, {1, 3}
    // profile, round 27, bin 5 raised to ∞ holding 56 balls): bin 5's
    // capacity word is 0, which no capacity encodes any more. Restoring
    // it is a typed refusal, not a panic.
    let bytes: &[u8] = include_bytes!("data/iba1_infinite_bin.bin");
    assert!(matches!(
        checkpoint::restore(bytes),
        Err(iba_sim::codec::CodecError::Invalid { .. })
    ));
}

#[test]
fn raised_checkpoint_round_trips_through_the_arena() {
    // A checkpoint taken after raises and a surge grew the stride
    // restores onto a fresh arena sized by the capacities and loads it
    // carries, and continues the trajectory of the original and of the
    // specification.
    let config = CappedConfig::new(48, 1, 0.75).expect("valid");
    let mut sim = Simulation::new(CappedProcess::new(config), SimRng::seed_from(29));
    sim.run_rounds(10);
    for bin in 0..24 {
        sim.process_mut()
            .set_bin_capacity(bin, Capacity::finite(64).unwrap());
    }
    sim.process_mut().inject_pool(2_000);
    sim.run_rounds(5);
    assert!(sim.process().loads().into_iter().max().unwrap_or(0) > 16);
    assert_resume_matches_spec(&mut sim, 60, "raised resume");
}

#[test]
fn arena_kernel_is_bit_exact_under_heavy_pool_surge() {
    // A pool ~100× the bin count: every round throws far more balls than
    // the bins can take, so nearly every request is rejected back to the
    // pool and the reject list dominates the round.
    let (mut arena, mut spec) = pair(cell(512, 2, 0.75));
    arena.inject_pool(50_000);
    spec.inject_pool(50_000);
    assert_lockstep(&mut arena, &mut spec, 5, 40, "pool surge");
}

#[test]
fn overfull_uniform_restore_rearms_with_zero_room() {
    // Regression for a quota underflow: raise a bin past the stride,
    // overfill it past c₀, degrade it back to c₀, and checkpoint. The restore
    // re-derives a *uniform* capacity profile around a bin whose load
    // exceeds c₀; the re-arm sweep must give that bin zero room
    // (`saturating_sub`), not an underflowed 16-bit quota. The restored
    // arena and the specification continue bit-exactly while the
    // overfull bin drains.
    let config = CappedConfig::new(16, 2, 0.75).expect("valid");
    let mut sim = Simulation::new(CappedProcess::new(config), SimRng::seed_from(19));
    sim.run_rounds(10);
    sim.process_mut()
        .set_bin_capacity(3, Capacity::finite(64).unwrap());
    sim.process_mut().inject_pool(60);
    sim.run_rounds(10);
    assert!(
        sim.process().bin(3).len() > 2,
        "bin 3 must be loaded past c0"
    );
    sim.process_mut()
        .set_bin_capacity(3, Capacity::finite(2).unwrap());
    assert_resume_matches_spec(&mut sim, 60, "overfull restore");
    assert!(sim.process().bin(3).len() <= 2, "bin 3 drained");
}

#[test]
fn shard_kernels_match_through_elastic_membership_changes() {
    // BinArena-level oracle: one arena runs the kernel's acceptance
    // stage and sweep, a second runs the per-ball `try_accept` walk
    // followed by `serve_sweep`. Fed identical streams, they stay
    // identical through every mutation that rewrites the kernel arena's
    // per-bin registers: bin growth and shrink, crash and recovery,
    // capacity degradation and raises (past the stride, which re-lays the
    // arena out, and far past it) — the elastic-membership and fault
    // surface the service uses.
    use iba_core::arena::SweepStats;
    use iba_core::pool::{expand, push_run, Run};
    use iba_core::BinArena;

    type Round = (u64, SweepStats, Vec<Ball>, Vec<(usize, Ball)>);

    /// Every bin's live capacity, FIFO contents and offline flag.
    fn parts(arena: &BinArena) -> Vec<(Capacity, Vec<Ball>, bool)> {
        (0..arena.bins())
            .map(|b| {
                let balls = arena.iter_bin(b).copied().collect();
                (arena.capacity(b), balls, arena.is_offline(b))
            })
            .collect()
    }

    fn kernel_step(arena: &mut BinArena, requests: &[(usize, Ball)]) -> Round {
        // The kernel takes the balls as label runs plus one bin choice
        // per ball, and hands the rejects back as runs.
        let choices: Vec<u32> = requests.iter().map(|&(b, _)| b as u32).collect();
        let mut runs: Vec<Run> = Vec::new();
        for &(_, ball) in requests {
            push_run(&mut runs, ball.label(), 1);
        }
        let mut rejected = Vec::new();
        let mut served = Vec::new();
        let accepted = arena.accept_stream(&choices, &runs, &mut rejected);
        let stats = arena.serve_sweep(|b, ball| served.push((b, ball)));
        (accepted, stats, expand(&rejected).collect(), served)
    }

    fn walk_step(arena: &mut BinArena, requests: &[(usize, Ball)]) -> Round {
        let mut rejected = Vec::new();
        let mut served = Vec::new();
        let mut accepted = 0;
        for &(b, ball) in requests {
            if arena.try_accept(b, ball) {
                accepted += 1;
            } else {
                rejected.push(ball);
            }
        }
        let stats = arena.serve_sweep(|b, ball| served.push((b, ball)));
        (accepted, stats, rejected, served)
    }

    let c = Capacity::finite(2).unwrap();
    let mut fast = BinArena::new(vec![c; 8]);
    let mut walk = BinArena::new(vec![c; 8]);
    let mut rng = SimRng::seed_from(3);
    let mut pending: Vec<Ball> = Vec::new();
    for round in 1..=200u64 {
        for arena in [&mut fast, &mut walk] {
            match round {
                // Elastic membership: grow two bins, shrink one later.
                30 | 45 => arena.push_bin(c),
                // Crash two bins, recover one, then the other.
                55 => {
                    arena.set_offline(1, true);
                    arena.set_offline(6, true);
                }
                62 => arena.set_offline(1, false),
                70 => arena.set_offline(6, false),
                // Degrade, then raise past the stride (the arena re-lays
                // itself out), raise another bin far past it, and
                // restore both.
                90 => arena.set_capacity(2, Capacity::finite(1).unwrap()),
                100 => arena.set_capacity(2, Capacity::finite(9).unwrap()),
                105 => arena.set_capacity(4, Capacity::finite(64).unwrap()),
                120 => {
                    arena.set_capacity(2, c);
                    arena.set_capacity(4, c);
                }
                _ => {}
            }
        }
        if round == 80 {
            let (of, ow) = (
                fast.is_offline(fast.bins() - 1),
                walk.is_offline(walk.bins() - 1),
            );
            let (cf, bf) = fast.pop_bin();
            let (cw, bw) = walk.pop_bin();
            assert_eq!((cf, &bf, of), (cw, &bw, ow), "popped bins diverged");
            pending.extend(bf); // drained balls re-enter the stream
        }
        if round == 100 || round == 105 {
            // A surge that fills the raised bins past the old stride.
            pending.extend(std::iter::repeat_n(Ball::generated_in(round), 40));
        }
        let bins = fast.bins();
        pending.extend(std::iter::repeat_n(Ball::generated_in(round), 6));
        pending.sort();
        let requests: Vec<(usize, Ball)> = pending
            .drain(..)
            .map(|ball| (rng.uniform_bin(bins), ball))
            .collect();
        let (acc_f, stats_f, rej_f, served_f) = kernel_step(&mut fast, &requests);
        let (acc_w, stats_w, rej_w, served_w) = walk_step(&mut walk, &requests);
        assert_eq!(
            (acc_f, stats_f),
            (acc_w, stats_w),
            "round stats diverged at round {round}"
        );
        assert_eq!(rej_f, rej_w, "rejects diverged at round {round}");
        assert_eq!(served_f, served_w, "serves diverged at round {round}");
        assert_eq!(parts(&fast), parts(&walk), "bins diverged at round {round}");
        pending = rej_f;
    }
}

#[test]
fn step_into_refills_the_report_without_divergence() {
    // The engine's allocation-free loop (`step_into` with one reused
    // report) must observe the same trajectory as fresh-report `step`.
    let config = CappedConfig::new(64, 2, 0.75).expect("valid");
    let mut a = CappedProcess::new(config.clone());
    let mut b = CappedProcess::new(config);
    let mut rng_a = SimRng::seed_from(31);
    let mut rng_b = SimRng::seed_from(31);
    let mut reused = RoundReport::default();
    for round in 0..200 {
        b.step_into(&mut rng_b, &mut reused);
        let fresh = a.step(&mut rng_a);
        assert_eq!(reused, fresh, "step_into diverged at round {round}");
    }
}
