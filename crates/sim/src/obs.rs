//! Telemetry probes for fault injection and recovery measurement.
//!
//! Same pattern as the other crates' probes: handles registered once in
//! the global [`iba_obs`] registry, cached behind a `OnceLock`, gated by
//! [`probes`] at the cost of a single relaxed load when telemetry is
//! disabled.

use std::sync::{Arc, OnceLock};

use iba_obs::{global, Counter};

/// The sim crate's registered metrics.
#[derive(Debug)]
pub(crate) struct SimProbes {
    /// Bins taken offline by `CrashBins` events, lifetime.
    pub crashed_bins: Arc<Counter>,
    /// Bins brought back by `RecoverBins` events, lifetime.
    pub recovered_bins: Arc<Counter>,
    /// Bins whose capacity a `DegradeCapacity` event changed, lifetime.
    pub degraded_bins: Arc<Counter>,
    /// `ArrivalBurst` events that started, lifetime.
    pub bursts: Arc<Counter>,
    /// Balls injected by `PoolSurge` events and active bursts, lifetime.
    pub surge_balls: Arc<Counter>,
}

impl SimProbes {
    fn register() -> Self {
        let r = global();
        SimProbes {
            crashed_bins: r.counter("iba_sim_fault_crashed_bins_total"),
            recovered_bins: r.counter("iba_sim_fault_recovered_bins_total"),
            degraded_bins: r.counter("iba_sim_fault_degraded_bins_total"),
            bursts: r.counter("iba_sim_fault_bursts_total"),
            surge_balls: r.counter("iba_sim_fault_surge_balls_total"),
        }
    }
}

/// The probe gate: `None` (after one relaxed load) while telemetry is
/// disabled, the cached handles otherwise.
#[inline]
pub(crate) fn probes() -> Option<&'static SimProbes> {
    if !iba_obs::enabled() {
        return None;
    }
    static PROBES: OnceLock<SimProbes> = OnceLock::new();
    Some(PROBES.get_or_init(SimProbes::register))
}
