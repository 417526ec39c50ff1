//! Round-keyed, replayable membership change schedules.
//!
//! A [`MembershipPlan`] is a [`RoundPlan`] of [`MembershipEvent`]s, the
//! same container as [`iba_sim::faults::FaultPlan`]: events are keyed to
//! 1-based rounds and applied immediately *before* the step that produces
//! that round, so a change scheduled at round `r` is in force for all of
//! round `r`. A plan is plain data, so replaying it with the same seed
//! replays a churn run bit-exactly.

use iba_sim::plan::RoundPlan;

/// One membership change, applied at a round boundary.
///
/// Bin indices are dense `0..n`: growth appends at the top of the index
/// space and shrink removes from the top (LIFO membership — the natural
/// shape for autoscaling, and it keeps surviving bin indices stable so
/// in-flight state never relabels).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MembershipEvent {
    /// Adds `count` empty bins at the top of the index space. New bins
    /// enter online, with their full capacity as acceptance bound.
    AddBins {
        /// Number of bins to add (events with `count == 0` are ignored).
        count: usize,
    },
    /// Removes the top `count` bins. Their FIFO rings drain back through
    /// the serve path: the balls re-enter the pool with their original
    /// labels (oldest-first order preserved) and retry from the next
    /// round. The system never shrinks below one bin.
    RemoveBins {
        /// Number of bins to remove (clamped by the applier).
        count: usize,
    },
}

/// A round-keyed schedule of membership events.
///
/// Rounds are 1-based: an event scheduled at round `r` is applied
/// immediately before the step that produces round `r`. Events within one
/// round apply in insertion order.
pub type MembershipPlan = RoundPlan<MembershipEvent>;
