//! Property test: no membership sequence — any interleaving of
//! bin additions and removals under live traffic — ever loses or
//! duplicates a ball. Totals are checked every round; ball *identities* are checked at
//! the end by diffing the checkpoint's resident set against an
//! arrival/serve ledger built from waiting times.

use std::collections::HashMap;

use proptest::prelude::*;

use iba_core::CappedConfig;
use iba_membership::{MembershipEvent, MembershipPlan};
use iba_serve::{CappedService, ServiceConfig};
use iba_sim::codec::Decoder;

fn arb_event() -> impl Strategy<Value = MembershipEvent> {
    prop_oneof![
        (1usize..24).prop_map(|count| MembershipEvent::AddBins { count }),
        (1usize..24).prop_map(|count| MembershipEvent::RemoveBins { count }),
    ]
}

fn arb_plan() -> impl Strategy<Value = MembershipPlan> {
    prop::collection::vec((1u64..40, arb_event()), 1..12).prop_map(|events| {
        let mut plan = MembershipPlan::new();
        for (round, event) in events {
            plan.insert(round, event);
        }
        plan
    })
}

/// Labels of every ball still resident (pool + rings), via the envelope's
/// embedded core checkpoint.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn no_membership_sequence_loses_or_duplicates_a_ball(
        plan in arb_plan(),
        seed in 1u64..1_000,
    ) {
        let mut service = CappedService::spawn(
            ServiceConfig::new(
                CappedConfig::new(16, 2, 0.75).expect("valid cell"),
                2,
                seed,
            )
            .with_model_arrivals(true),
        )
        .expect("valid service config");
        service.schedule_membership(plan).expect("uniform finite capacity");

        let mut resident: HashMap<u64, i64> = HashMap::new();
        for round in 1..=50u64 {
            let report = service.run_round();
            prop_assert!(report.conserves_balls(), "report at round {round}");
            prop_assert!(service.conserves_balls(), "service at round {round}");
            prop_assert!(service.live_bins() >= 1, "never below one bin");
            *resident.entry(round).or_insert(0) += report.generated as i64;
            for &wait in &report.waiting_times {
                let label = round - wait;
                let count = resident.get_mut(&label);
                prop_assert!(count.is_some(), "served unknown ball labeled {label}");
                let count = count.expect("checked");
                *count -= 1;
                prop_assert!(*count >= 0, "ball labeled {label} duplicated");
                if *count == 0 {
                    resident.remove(&label);
                }
            }
        }
        let mut expected: Vec<u64> = resident
            .iter()
            .flat_map(|(&label, &count)| {
                std::iter::repeat_n(label, usize::try_from(count).expect("non-negative"))
            })
            .collect();
        expected.sort_unstable();
        prop_assert_eq!(resident_labels(&mut service), expected);
    }
}
