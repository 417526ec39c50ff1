//! Deterministic socket-layer fault injection for the network front end.
//!
//! [`NetFaultPlan`] is the transport-layer sibling of
//! [`iba_sim::faults::FaultPlan`], and the same [`RoundPlan`] container:
//! a round-keyed schedule of fault events, applied by
//! [`NetFrontend`](crate::net::NetFrontend) at the start of the round they
//! are scheduled for. Where the sim-layer plan perturbs the *allocation
//! process* (crashed bins, surges), this plan perturbs the *sockets
//! underneath it*: abrupt connection drops, read/write stalls (slow
//! consumers, slowloris writers), partial-write throttling, and garbage
//! injected mid-stream.
//!
//! Everything is deterministic: which connections a fault hits is drawn
//! from a [`SimRng`](iba_sim::SimRng) stream seeded at
//! [`NetFrontend::arm_faults`](crate::net::NetFrontend::arm_faults), so
//! the same seed + plan + traffic reproduces the same chaos — the property
//! the chaos bench and the injected-fault tests rely on.

use iba_sim::plan::RoundPlan;

/// One scheduled socket fault.
///
/// `conns` counts are *upper bounds*: if fewer wire connections are
/// active when the event fires, every active one is targeted. Events
/// never target the HTTP metrics plane — chaos must not blind the
/// observer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetFault {
    /// Abruptly drop up to `conns` random wire connections (no `Closed`
    /// frame — simulates a peer reset or middlebox cut).
    DropConns {
        /// Maximum number of connections to drop.
        conns: u32,
    },
    /// Stop reading from up to `conns` random wire connections for
    /// `rounds` rounds (their requests sit in kernel buffers — a stalled
    /// server thread from the client's view).
    StallReads {
        /// Maximum number of connections to stall.
        conns: u32,
        /// Duration of the stall in rounds.
        rounds: u32,
    },
    /// Stop writing to up to `conns` random wire connections for `rounds`
    /// rounds (a slow consumer: completions pile up in the out-queue and
    /// may trip the slow-consumer guard).
    StallWrites {
        /// Maximum number of connections to stall.
        conns: u32,
        /// Duration of the stall in rounds.
        rounds: u32,
    },
    /// Cap every flush to at most `max_bytes` per connection per poll for
    /// `rounds` rounds (exercises partial-write resume paths end to end).
    PartialWrites {
        /// Per-flush write budget in bytes (≥ 1).
        max_bytes: u32,
        /// Duration of the throttle in rounds.
        rounds: u32,
    },
    /// Feed `bytes` of deterministic garbage into the read stream of up
    /// to `conns` random wire connections, as if the peer had sent it
    /// (exercises protocol-error isolation: only the garbled connection
    /// may drop).
    InjectGarbage {
        /// Maximum number of connections to garble.
        conns: u32,
        /// Number of garbage bytes injected per connection.
        bytes: u32,
    },
}

/// A round-keyed schedule of socket fault events.
///
/// Rounds are 1-based, matching the service's round counter: an event
/// scheduled at round `r` is applied by the front end at the start of
/// round `r`, before that round's sockets are polled. Events within one
/// round apply in insertion order.
pub type NetFaultPlan = RoundPlan<NetFault>;
