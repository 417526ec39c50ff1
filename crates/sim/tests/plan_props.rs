//! Property-based tests of [`RoundPlan`], the one round-keyed schedule
//! behind the fault, membership and socket-fault plans, against a plain
//! `Vec<(round, event)>` model: the accessors, round order, insertion
//! order within a round, `shifted`, `extend`, and the `take_due` drain
//! every applier runs once per round.

use proptest::prelude::*;

use iba_sim::plan::RoundPlan;

/// The model: `(round, event)` pairs in insertion order. Event `i` is the
/// pair's index, so any reordering within a round shows up.
type Model = Vec<(u64, usize)>;

fn rounds() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(1u64..40, 0..24)
}

fn model_of(rounds: &[u64], first_id: usize) -> Model {
    rounds
        .iter()
        .enumerate()
        .map(|(i, &r)| (r, first_id + i))
        .collect()
}

fn plan_of(model: &Model) -> RoundPlan<usize> {
    model
        .iter()
        .fold(RoundPlan::new(), |plan, &(round, event)| {
            plan.with(round, event)
        })
}

/// The model in the order a plan yields it: by round, and by insertion
/// within a round (the sort is stable).
fn scheduled(model: &Model) -> Model {
    let mut sorted = model.clone();
    sorted.sort_by_key(|&(round, _)| round);
    sorted
}

fn flatten(plan: &RoundPlan<usize>) -> Model {
    plan.iter()
        .flat_map(|(round, events)| events.iter().map(move |&e| (round, e)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `len`, `is_empty`, `first_round`, `last_round` and `iter` agree
    /// with the model; `iter` visits strictly increasing rounds, none of
    /// them empty, with each round's events in insertion order.
    #[test]
    fn accessors_and_order_match_the_model(rounds in rounds()) {
        let model = model_of(&rounds, 0);
        let plan = plan_of(&model);
        prop_assert_eq!(plan.len(), model.len());
        prop_assert_eq!(plan.is_empty(), model.is_empty());
        prop_assert_eq!(plan.first_round(), rounds.iter().copied().min());
        prop_assert_eq!(plan.last_round(), rounds.iter().copied().max());
        let keys: Vec<u64> = plan.iter().map(|(round, _)| round).collect();
        prop_assert!(keys.windows(2).all(|w| w[0] < w[1]), "rounds out of order");
        prop_assert!(plan.iter().all(|(_, events)| !events.is_empty()));
        prop_assert_eq!(flatten(&plan), scheduled(&model));
    }

    /// `shifted` moves every event `offset` rounds later and keeps the
    /// order within each round.
    #[test]
    fn shifted_moves_every_event(rounds in rounds(), offset in 0u64..1000) {
        let model = model_of(&rounds, 0);
        let shifted: Model = model.iter().map(|&(r, e)| (r + offset, e)).collect();
        prop_assert_eq!(flatten(&plan_of(&model).shifted(offset)), scheduled(&shifted));
    }

    /// `extend` puts the added events after the ones already scheduled in
    /// the same round: the same plan as inserting both lists in turn.
    #[test]
    fn extend_appends_after_existing_events(a in rounds(), b in rounds()) {
        let first = model_of(&a, 0);
        let second = model_of(&b, a.len());
        let mut plan = plan_of(&first);
        plan.extend(plan_of(&second));
        let both: Model = first.iter().chain(&second).copied().collect();
        prop_assert_eq!(&plan, &plan_of(&both));
        prop_assert_eq!(flatten(&plan), scheduled(&both));
    }

    /// `take_due(r)` returns exactly round `r`'s events in insertion
    /// order and leaves no entry at or before `r`; later rounds stay.
    #[test]
    fn take_due_drains_through_its_round(rounds in rounds(), round in 0u64..45) {
        let model = model_of(&rounds, 0);
        let mut plan = plan_of(&model);
        let due: Vec<usize> = model.iter().filter(|&&(r, _)| r == round).map(|&(_, e)| e).collect();
        prop_assert_eq!(plan.take_due(round), due);
        prop_assert!(plan.first_round().is_none_or(|first| first > round));
        let later: Model = model.iter().filter(|&&(r, _)| r > round).copied().collect();
        prop_assert_eq!(flatten(&plan), scheduled(&later));
        prop_assert_eq!(plan.is_empty(), later.is_empty());
    }

    /// An applier that drains every round in turn fires each event exactly
    /// once, in schedule order, and ends with an empty plan.
    #[test]
    fn draining_round_by_round_fires_every_event_once(rounds in rounds()) {
        let model = model_of(&rounds, 0);
        let mut plan = plan_of(&model);
        let mut fired = Vec::new();
        for round in 1..=plan.last_round().unwrap_or(0) {
            fired.extend(plan.take_due(round).into_iter().map(|e| (round, e)));
        }
        prop_assert!(plan.is_empty());
        prop_assert_eq!(fired, scheduled(&model));
    }
}

#[test]
#[should_panic(expected = "events schedule at rounds >= 1")]
fn insert_at_round_zero_panics() {
    RoundPlan::new().insert(0, ());
}
