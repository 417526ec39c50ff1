//! Property-based tests of the fault-injection harness on the real CAPPED
//! process: ball conservation under arbitrary fault plans, frozen offline
//! bins, and identity of the fault-free wrapper.

use proptest::prelude::*;

use iba_core::{Ball, CappedConfig, CappedProcess};
use iba_sim::faults::{FaultEvent, FaultPlan, FaultedProcess};
use iba_sim::process::AllocationProcess;
use iba_sim::SimRng;

const N: usize = 24;

fn fault_event() -> BoxedStrategy<FaultEvent> {
    // Bin indices deliberately range past n so out-of-range sanitization
    // is exercised; capacity 0 encodes "unbounded" here (the wrapper
    // separately skips the malformed Some(0)).
    prop_oneof![
        prop::collection::vec(0usize..N + 8, 1..6).prop_map(|bins| FaultEvent::CrashBins { bins }),
        prop::collection::vec(0usize..N + 8, 1..6)
            .prop_map(|bins| FaultEvent::RecoverBins { bins }),
        (prop::collection::vec(0usize..N + 8, 1..6), 0u32..5).prop_map(|(bins, c)| {
            FaultEvent::DegradeCapacity {
                bins,
                capacity: (c > 0).then_some(c),
            }
        }),
        (1u64..20, 1u64..8).prop_map(|(extra_per_round, rounds)| FaultEvent::ArrivalBurst {
            extra_per_round,
            rounds,
        }),
        (1u64..60).prop_map(|extra| FaultEvent::PoolSurge { extra }),
    ]
    .boxed()
}

fn fault_plan() -> impl Strategy<Value = FaultPlan> {
    prop::collection::vec((1u64..40, fault_event()), 0..12).prop_map(|events| {
        let mut plan = FaultPlan::new();
        for (round, event) in events {
            plan.insert(round, event);
        }
        plan
    })
}

fn capped(c: u32) -> CappedProcess {
    CappedProcess::new(CappedConfig::new(N, c, 0.5).expect("valid config"))
}

fn bin_labels(p: &CappedProcess, i: usize) -> Vec<u64> {
    p.bin(i).iter().map(Ball::label).collect()
}

proptest! {
    /// Under an arbitrary fault plan, every round conserves balls — both
    /// the per-round report law (`thrown = accepted + pool`) and the
    /// process-lifetime law (`generated = deleted + pooled + buffered`) —
    /// and the pool stays age-sorted. No fault sequence may lose or mint
    /// a ball.
    #[test]
    fn conservation_holds_under_arbitrary_plans(
        plan in fault_plan(),
        c in 1u32..4,
        seed in any::<u64>(),
    ) {
        let rounds = plan.last_round().unwrap_or(0) + 10;
        let mut p = FaultedProcess::new(capped(c), plan);
        let mut rng = SimRng::seed_from(seed);
        for _ in 0..rounds {
            let report = p.step(&mut rng);
            prop_assert!(report.conserves_balls(), "round report law broke");
            prop_assert!(p.inner().conserves_balls(), "lifetime law broke");
            prop_assert!(p.inner().pool().is_age_sorted());
        }
    }

    /// A bin that is offline during a round is completely frozen by it:
    /// its FIFO buffer after the step is byte-for-byte the buffer before
    /// the step — no service, no acceptance, no reordering.
    #[test]
    fn offline_bins_stay_frozen(
        plan in fault_plan(),
        seed in any::<u64>(),
    ) {
        let rounds = plan.last_round().unwrap_or(0) + 5;
        let mut p = FaultedProcess::new(capped(2), plan);
        let mut rng = SimRng::seed_from(seed);
        for _ in 0..rounds {
            let before: Vec<Vec<u64>> = (0..N).map(|i| bin_labels(p.inner(), i)).collect();
            p.step(&mut rng);
            // Events apply before the inner step, so a bin's post-step
            // offline flag is exactly its status throughout the round.
            for (i, snapshot) in before.iter().enumerate() {
                if p.inner().is_bin_offline(i) {
                    prop_assert_eq!(
                        &bin_labels(p.inner(), i),
                        snapshot,
                        "offline bin {} changed mid-round",
                        i
                    );
                }
            }
        }
    }

    /// With an empty plan, `FaultedProcess` is a strict identity: same
    /// per-round reports, same final state, same RNG stream position as
    /// the bare process under shared randomness.
    #[test]
    fn fault_free_wrapper_is_trajectory_identical(
        c in 1u32..4,
        seed in any::<u64>(),
        rounds in 1u64..60,
    ) {
        let mut bare = capped(c);
        let mut wrapped = FaultedProcess::new(capped(c), FaultPlan::new());
        let mut bare_rng = SimRng::seed_from(seed);
        let mut wrapped_rng = SimRng::seed_from(seed);
        for _ in 0..rounds {
            prop_assert_eq!(bare.step(&mut bare_rng), wrapped.step(&mut wrapped_rng));
        }
        prop_assert_eq!(bare_rng, wrapped_rng, "wrapper drew extra randomness");
        prop_assert_eq!(bare.loads(), wrapped.inner().loads());
        prop_assert_eq!(bare.pool_size(), wrapped.pool_size());
    }
}
