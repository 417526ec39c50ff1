//! Property-based tests of the CAPPED process internals: acceptance-rule
//! equivalence and determinism under pre-drawn choices, and the
//! checkpoint decoder's refusal of balls from the future and of loads
//! whose arena cannot be allocated.

use proptest::prelude::*;

use iba_core::shard::BinPart;
use iba_core::{checkpoint, Ball, BinArena, BinShard, Capacity, CappedConfig, CappedProcess, Pool};
use iba_sim::codec::CodecError;
use iba_sim::process::AllocationProcess;
use iba_sim::{SimRng, Simulation};

/// Reference implementation of Algorithm 1's acceptance rule for one
/// round: given per-ball bin choices (balls indexed oldest-first), each bin
/// accepts its ν oldest requests truncated at free capacity. Returns the
/// set of accepted ball indices.
fn reference_acceptance(choices: &[usize], free: &[usize]) -> Vec<bool> {
    let mut accepted = vec![false; choices.len()];
    for (bin, &bin_free) in free.iter().enumerate() {
        let mut room = bin_free;
        // Requests in global age order; take the first `room` of them.
        for (i, &b) in choices.iter().enumerate() {
            if room == 0 {
                break;
            }
            if b == bin {
                accepted[i] = true;
                room -= 1;
            }
        }
    }
    accepted
}

proptest! {
    /// The process's greedy in-order acceptance equals the per-bin
    /// "oldest min{c−ℓ, ν}" rule on the first round from empty state.
    #[test]
    fn acceptance_equals_reference_rule(
        n in 2usize..16,
        c in 1u32..4,
        choices in prop::collection::vec(0usize..16, 1..40),
    ) {
        let choices: Vec<usize> = choices.into_iter().map(|b| b % n).collect();
        let balls = choices.len();
        // λn = balls must satisfy λ <= 1 - 1/n; bypass by injecting into the
        // pool instead: lambda = 0 and pre-filled pool.
        let config = CappedConfig::new(n, c, 0.0).expect("valid");
        let mut p = CappedProcess::new(config);
        p.inject_pool(balls as u64);
        let report = p.step_with_choices(&choices);

        let reference = reference_acceptance(&choices, &vec![c as usize; n]);
        let expected_accepted = reference.iter().filter(|&&a| a).count() as u64;
        prop_assert_eq!(report.accepted, expected_accepted);
        // Bin loads after acceptance-minus-deletion match the reference.
        for bin in 0..n {
            let ref_load = choices
                .iter()
                .zip(&reference)
                .filter(|&(&b, &a)| b == bin && a)
                .count();
            let after_deletion = ref_load.saturating_sub(1);
            prop_assert_eq!(p.bin(bin).len(), after_deletion, "bin {}", bin);
        }
    }

    /// Trajectories under shared choices are identical (full determinism).
    #[test]
    fn deterministic_under_shared_choices(
        n in 2usize..12,
        c in 1u32..4,
        seed in any::<u64>(),
        rounds in 1u64..20,
    ) {
        let batch = n as u64 / 2;
        let lambda = batch as f64 / n as f64;
        let config = CappedConfig::new(n, c, lambda).expect("valid");
        let mut a = CappedProcess::new(config.clone());
        let mut b = CappedProcess::new(config);
        let mut rng = SimRng::seed_from(seed);
        for _ in 0..rounds {
            let count = a.next_throw_count();
            let choices: Vec<usize> = (0..count).map(|_| rng.uniform_bin(n)).collect();
            let ra = a.step_with_choices(&choices);
            let rb = b.step_with_choices(&choices);
            prop_assert_eq!(ra, rb);
        }
    }

    /// A bin never exceeds its capacity and serves FIFO for arbitrary
    /// operation sequences, also across a mid-sequence raise to unbounded
    /// (which makes the one-bin arena grow its ring).
    #[test]
    fn buffer_respects_capacity_and_fifo(
        cap in 1u32..8,
        ops in prop::collection::vec(any::<bool>(), 1..200),
        raise_at in 0usize..200,
    ) {
        let mut bin = BinArena::new(vec![Capacity::finite(cap).unwrap()]);
        let mut model: std::collections::VecDeque<u64> = Default::default();
        let mut bound = Some(cap as usize);
        let mut label = 0u64;
        for (i, push) in ops.into_iter().enumerate() {
            if i == raise_at {
                bin.set_capacity(0, Capacity::Infinite);
                bound = None;
            }
            if push {
                label += 1;
                let accepted = bin.try_accept(0, Ball::generated_in(label));
                if bound.is_none_or(|c| model.len() < c) {
                    prop_assert!(accepted);
                    model.push_back(label);
                } else {
                    prop_assert!(!accepted);
                }
            } else {
                let served = bin.serve(0).map(|b| b.label());
                prop_assert_eq!(served, model.pop_front());
            }
            prop_assert_eq!(bin.len(0), model.len());
            prop_assert!(bound.is_none_or(|c| bin.len(0) <= c));
            let held: Vec<u64> = bin.iter_bin(0).map(Ball::label).collect();
            prop_assert_eq!(held, model.iter().copied().collect::<Vec<u64>>());
        }
    }

    /// The pool keeps balls age-sorted through arbitrary generation bursts.
    #[test]
    fn pool_stays_sorted(counts in prop::collection::vec(0u64..10, 1..30)) {
        let mut pool = Pool::new();
        for (round, &count) in counts.iter().enumerate() {
            pool.push_generation(round as u64 + 1, count);
            prop_assert!(pool.is_age_sorted());
        }
        let total: u64 = counts.iter().sum();
        prop_assert_eq!(pool.len() as u64, total);
    }

    /// Warm start plus stepping preserves conservation for arbitrary sizes.
    #[test]
    fn injection_preserves_conservation(
        n in 4usize..32,
        extra in 0u64..500,
        seed in any::<u64>(),
    ) {
        let batch = n as u64 / 2;
        let lambda = batch as f64 / n as f64;
        let config = CappedConfig::new(n, 2, lambda).expect("valid");
        let mut p = CappedProcess::new(config);
        p.inject_pool(extra);
        let mut rng = SimRng::seed_from(seed);
        for _ in 0..10 {
            p.step(&mut rng);
            prop_assert!(p.conserves_balls());
        }
    }
}

/// The process of `sim`, re-assembled with its pool and bins passed
/// through `forge` (and the generated-ball counter adjusted so that
/// conservation still holds), saved as an IBA1 checkpoint with a valid
/// CRC, and restored.
fn restore_forged(
    sim: &Simulation<CappedProcess>,
    forge: impl FnOnce(&mut Vec<Ball>, &mut Vec<BinPart>),
) -> Result<Simulation<CappedProcess>, CodecError> {
    let p = sim.process();
    let mut pool: Vec<Ball> = p.pool().iter().collect();
    let mut parts: Vec<BinPart> = (0..p.config().bins())
        .map(|i| {
            let bin = p.bin(i);
            (
                bin.capacity(),
                bin.iter().copied().collect(),
                p.is_bin_offline(i),
            )
        })
        .collect();
    let held = |pool: &Vec<Ball>, parts: &Vec<BinPart>| {
        pool.len() + parts.iter().map(|part| part.1.len()).sum::<usize>()
    };
    let before = held(&pool, &parts);
    forge(&mut pool, &mut parts);
    let generated = p.total_generated() + held(&pool, &parts) as u64 - before as u64;
    let forged = CappedProcess::from_parts(
        p.config().clone(),
        BinShard::from_parts(0, parts),
        pool.into_iter().collect::<Pool>(),
        p.round(),
        generated,
        p.total_deleted(),
    );
    checkpoint::restore(&checkpoint::save(&Simulation::new(
        forged,
        sim.rng().clone(),
    )))
}

fn small_run() -> Simulation<CappedProcess> {
    let config = CappedConfig::new(16, 1, 7.0 / 8.0).expect("valid");
    let mut sim = Simulation::new(CappedProcess::new(config), SimRng::seed_from(3));
    sim.run_rounds(20);
    sim
}

#[test]
fn checkpoint_rejects_a_pool_label_past_its_round() {
    let sim = small_run();
    let round = sim.process().round();
    assert!(!sim.process().pool().is_empty(), "the fixture pools balls");
    // Untouched, the state restores; so does a pooled ball labeled with
    // the checkpoint round itself (a surge between rounds).
    assert!(restore_forged(&sim, |_, _| {}).is_ok());
    assert!(restore_forged(&sim, |pool, _| pool.push(Ball::generated_in(round))).is_ok());
    // A pooled ball from round 1020 at round 20: restoring it used to
    // succeed, and the next generation then panicked out of order.
    for future in [round + 1, 1020] {
        let forged = restore_forged(&sim, |pool, _| {
            *pool.last_mut().expect("non-empty") = Ball::generated_in(future);
        });
        assert!(
            matches!(forged, Err(CodecError::Invalid { .. })),
            "a pool label {future} past round {round} must be refused"
        );
    }
}

#[test]
fn checkpoint_rejects_a_bin_label_past_its_round() {
    let sim = small_run();
    let round = sim.process().round();
    // A ball labeled with the checkpoint round itself is legal.
    let legal = restore_forged(&sim, |_, parts| {
        parts[0].1.push(Ball::generated_in(round));
    });
    assert!(legal.is_ok());
    // A ball from a later round queued in bin 0: its waiting time would
    // come out as 0 (or panic with debug assertions).
    for future in [round + 1, 1020] {
        let forged = restore_forged(&sim, |_, parts| {
            parts[0].1.push(Ball::generated_in(future));
        });
        assert!(
            matches!(forged, Err(CodecError::Invalid { .. })),
            "a bin label {future} past round {round} must be refused"
        );
    }
}

/// A CRC-valid IBA1 checkpoint of `n` bins with capacity 2 at round 1:
/// empty pool, bin 0 holding `load` balls, conservation forged to hold.
/// Its arena needs `n · next_pow2(load)` ring slots.
fn forged_load_checkpoint(n: usize, load: usize) -> Vec<u8> {
    let mut enc = iba_sim::codec::Encoder::new();
    enc.header("IBA1", 2);
    for word in [1, 2, 3, 4] {
        enc.u64(word);
    }
    CappedConfig::new(n, 2, 0.5)
        .expect("valid")
        .encode_into(&mut enc);
    enc.u64(1); // round
    enc.u64(load as u64); // total generated
    enc.u64(0); // total deleted
    enc.u64_seq(std::iter::empty());
    enc.usize(n);
    for b in 0..n {
        enc.u64(2);
        enc.u64_seq(std::iter::repeat_n(1, if b == 0 { load } else { 0 }));
    }
    for _ in 0..n {
        enc.bool(false);
    }
    enc.finish()
}

#[test]
fn checkpoint_refuses_a_forged_load_whose_arena_cannot_be_allocated() {
    // 2¹⁷ bins and 2²⁰ balls in bin 0: the arena would be 2³⁷ slots of
    // 8 B = 1 TiB. Restoring used to abort the process in the allocator.
    let (n, load) = (1 << 17, 1 << 20);
    assert!(checkpoint::restore(&forged_load_checkpoint(4, 3)).is_ok());
    assert!(matches!(
        checkpoint::restore(&forged_load_checkpoint(n, load)),
        Err(CodecError::Invalid { .. })
    ));
}
