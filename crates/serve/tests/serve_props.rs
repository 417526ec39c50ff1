//! Property-based tests of the sharded service: ball conservation and
//! ticket accounting under arbitrary fault plans and open-loop client
//! traffic submitted through the bounded ingress.
//!
//! The laws pinned here hold for *any* fault sequence:
//!
//! - lifetime conservation — everything that entered the system is
//!   served, pooled, or buffered (`admitted = completed + pending` on the
//!   ticket side);
//! - per-round report conservation (`thrown = accepted + pool`);
//! - the capacity invariant, whenever the plan never alters capacities.

use proptest::prelude::*;

use iba_core::{CappedConfig, MAX_CAPACITY};
use iba_serve::{CappedService, ServiceConfig, SubmitError};
use iba_sim::faults::{FaultEvent, FaultPlan};

const N: usize = 24;

/// Fault plans schedule at rounds below 40 and every run lasts 10 rounds
/// past its plan's last round, so no run exceeds this many rounds.
const MAX_ROUNDS: usize = 49;

fn fault_event() -> BoxedStrategy<FaultEvent> {
    // Bin indices deliberately range past n so out-of-range sanitization
    // is exercised. Capacities cover the malformed 0 (the service skips
    // it), degrades and raises within the stride, a raise past it (the
    // arena re-lays itself out) and a value above MAX_CAPACITY (the
    // process skips it).
    prop_oneof![
        prop::collection::vec(0usize..N + 8, 1..6).prop_map(|bins| FaultEvent::CrashBins { bins }),
        prop::collection::vec(0usize..N + 8, 1..6)
            .prop_map(|bins| FaultEvent::RecoverBins { bins }),
        (
            prop::collection::vec(0usize..N + 8, 1..6),
            prop_oneof![0u32..5, 0u32..5, Just(64u32), Just(MAX_CAPACITY + 1)],
        )
            .prop_map(|(bins, capacity)| FaultEvent::DegradeCapacity { bins, capacity }),
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

fn alters_capacity(plan: &FaultPlan) -> bool {
    plan.iter().any(|(_, events)| {
        events
            .iter()
            .any(|e| matches!(e, FaultEvent::DegradeCapacity { .. }))
    })
}

fn service(c: u32, shards: usize, seed: u64) -> CappedService {
    CappedService::spawn(
        ServiceConfig::new(
            CappedConfig::new(N, c, 0.5).expect("valid config"),
            shards,
            seed,
        )
        .with_model_arrivals(true),
    )
    .expect("valid service config")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Under an arbitrary fault plan, every round of a sharded service
    /// conserves balls — the per-round report law and the service-lifetime
    /// law — for any shard count.
    #[test]
    fn sharded_rounds_conserve_under_arbitrary_plans(
        plan in fault_plan(),
        c in 1u32..4,
        shards in 1usize..9,
        seed in any::<u64>(),
    ) {
        let rounds = plan.last_round().unwrap_or(0) + 10;
        let capacity_fixed = !alters_capacity(&plan);
        let mut svc = service(c, shards, seed);
        svc.schedule(plan);
        for _ in 0..rounds {
            let report = svc.run_round();
            prop_assert!(report.conserves_balls(), "round report law broke");
            prop_assert!(svc.conserves_balls(), "lifetime law broke");
            if capacity_fixed {
                prop_assert!(report.max_load <= u64::from(c), "capacity exceeded");
            }
        }
    }

    /// Ticket accounting under open-loop traffic and arbitrary faults:
    /// admitted = completion notifications + still-pending tickets, and
    /// offered = submitted + shed. No request is lost or double-served.
    #[test]
    fn tickets_balance_under_open_loop_traffic(
        plan in fault_plan(),
        demand in prop::collection::vec(0u64..30, MAX_ROUNDS),
        shards in 1usize..9,
        seed in any::<u64>(),
    ) {
        let rounds = plan.last_round().unwrap_or(0) as usize + 10;
        let mut svc = service(2, shards, seed);
        let completions = svc.take_completions().expect("fresh service");
        svc.schedule(plan);
        let dispatcher = svc.dispatcher();
        let (mut offered, mut submitted, mut shed) = (0u64, 0u64, 0u64);
        for &round_demand in &demand[..rounds] {
            offered += round_demand;
            for _ in 0..round_demand {
                match dispatcher.submit() {
                    Ok(_) => submitted += 1,
                    Err(SubmitError::Saturated) => shed += 1,
                    Err(SubmitError::Closed) => prop_assert!(false, "the service is running"),
                }
            }
            svc.run_round();
        }

        prop_assert_eq!(offered, submitted + shed);
        prop_assert_eq!(submitted, svc.total_admitted());
        let notified = completions.try_iter().count() as u64;
        prop_assert_eq!(
            svc.total_admitted(),
            notified + svc.pending_tickets() as u64,
            "a ticket was lost or double-completed"
        );
        prop_assert!(svc.conserves_balls());
    }
}
