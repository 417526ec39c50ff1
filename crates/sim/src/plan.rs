//! Round-keyed event schedules.
//!
//! Every robustness extension schedules its events the same way: a list
//! of events per 1-based round, applied at the start of that round in
//! insertion order. [`RoundPlan`] is that one container; the fault plans
//! ([`crate::faults::FaultPlan`]), the membership plans and the socket
//! fault plans of the serving layer are aliases of it over their own
//! event types.
//!
//! An applier drains a plan with [`RoundPlan::take_due`] once per round.
//! Rounds it has already passed never fire, and their entries are dropped
//! at the next drain.

use std::collections::BTreeMap;

/// A schedule of events keyed by 1-based round.
///
/// Round 0 is the initial state and no round executes it, so nothing can
/// be scheduled there. Events within one round keep their insertion
/// order. A round key always holds at least one event, so `is_empty()`
/// holds exactly when `len() == 0`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundPlan<E> {
    events: BTreeMap<u64, Vec<E>>,
}

impl<E> Default for RoundPlan<E> {
    fn default() -> Self {
        RoundPlan {
            events: BTreeMap::new(),
        }
    }
}

impl<E> RoundPlan<E> {
    /// Creates an empty plan (an applier armed with it does nothing).
    pub fn new() -> Self {
        RoundPlan::default()
    }

    /// Schedules `event` at `round`, after any event already there.
    ///
    /// # Panics
    ///
    /// Panics if `round == 0`.
    pub fn insert(&mut self, round: u64, event: E) {
        assert!(round > 0, "events schedule at rounds >= 1");
        self.events.entry(round).or_default().push(event);
    }

    /// Builder-style [`insert`](Self::insert).
    #[must_use]
    pub fn with(mut self, round: u64, event: E) -> Self {
        self.insert(round, event);
        self
    }

    /// Whether the plan schedules no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.values().map(Vec::len).sum()
    }

    /// Earliest round with an event, if any.
    pub fn first_round(&self) -> Option<u64> {
        self.events.keys().next().copied()
    }

    /// Latest round with an event, if any.
    pub fn last_round(&self) -> Option<u64> {
        self.events.keys().next_back().copied()
    }

    /// Iterates over `(round, events)` in round order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &[E])> {
        self.events.iter().map(|(&r, evs)| (r, evs.as_slice()))
    }

    /// Returns the plan with every event moved `offset` rounds later
    /// (re-anchoring a plan authored relative to a burn-in or a resume
    /// point).
    #[must_use]
    pub fn shifted(self, offset: u64) -> Self {
        RoundPlan {
            events: self
                .events
                .into_iter()
                .map(|(r, evs)| (r + offset, evs))
                .collect(),
        }
    }

    /// Merges `other`'s events into this plan; same-round events go after
    /// the ones already scheduled.
    pub fn extend(&mut self, other: RoundPlan<E>) {
        for (round, events) in other.events {
            self.events.entry(round).or_default().extend(events);
        }
    }

    /// Removes and returns the events scheduled at `round`, in insertion
    /// order, and drops every earlier round still held: an applier that
    /// has reached `round` will never fire them.
    pub fn take_due(&mut self, round: u64) -> Vec<E> {
        let mut due = Vec::new();
        while let Some(entry) = self.events.first_entry() {
            if *entry.key() > round {
                break;
            }
            let (r, events) = entry.remove_entry();
            if r == round {
                due = events;
            }
        }
        due
    }
}
