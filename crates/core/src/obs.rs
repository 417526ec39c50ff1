//! Telemetry probes for the core process and kernel.
//!
//! All handles are registered once (lazily) in the global
//! [`iba_obs`] registry and cached in a `OnceLock`, so the hot path
//! never takes the registry lock. [`probes`] is the single gate: it
//! costs one relaxed load and returns `None` while telemetry is
//! disabled, making every probe site free to leave inline in the round
//! kernel. Probes are per-*round* (or per-sweep), never per-ball, and
//! consume no randomness —
//! `kernel_differential::telemetry_toggle_does_not_perturb_the_trajectory`
//! pins that enabling them changes no trajectory.

use std::sync::{Arc, OnceLock};

use iba_obs::{global, Counter, Histogram};

/// The core crate's registered metrics.
#[derive(Debug)]
pub(crate) struct CoreProbes {
    /// Rounds accepted through the single-pass scatter (every round).
    pub fast_accept_rounds: Arc<Counter>,
    /// Arena re-layouts (stride growth: a capacity raised past the stride).
    pub arena_grows: Arc<Counter>,
    /// Balls accepted into buffers by any process round, lifetime.
    pub accepted_balls: Arc<Counter>,
    /// Allocation requests rejected back into the pool, lifetime.
    pub rejected_balls: Arc<Counter>,
    /// Ball-generation phase duration per round.
    pub phase_generate_nanos: Arc<Histogram>,
    /// Choice-drawing + acceptance (scatter) phase duration per round.
    pub phase_accept_nanos: Arc<Histogram>,
    /// FIFO-deletion (serve) phase duration per round.
    pub phase_serve_nanos: Arc<Histogram>,
}

impl CoreProbes {
    fn register() -> Self {
        let r = global();
        CoreProbes {
            fast_accept_rounds: r.counter("iba_core_arena_fast_accept_rounds_total"),
            arena_grows: r.counter("iba_core_arena_grow_total"),
            accepted_balls: r.counter("iba_core_accepted_balls_total"),
            rejected_balls: r.counter("iba_core_rejected_balls_total"),
            phase_generate_nanos: r.histogram("iba_core_phase_generate_nanos"),
            phase_accept_nanos: r.histogram("iba_core_phase_accept_nanos"),
            phase_serve_nanos: r.histogram("iba_core_phase_serve_nanos"),
        }
    }
}

/// The probe gate: `None` (after one relaxed load) while telemetry is
/// disabled, the cached handles otherwise.
#[inline]
pub(crate) fn probes() -> Option<&'static CoreProbes> {
    if !iba_obs::enabled() {
        return None;
    }
    static PROBES: OnceLock<CoreProbes> = OnceLock::new();
    Some(PROBES.get_or_init(CoreProbes::register))
}
