//! Telemetry probes for the dispatch service.
//!
//! Same pattern as the core crate's probes: every handle is registered
//! once in the global [`iba_obs`] registry and cached behind a
//! `OnceLock`, and [`probes`] costs a single relaxed load (returning
//! `None`) while telemetry is disabled. Driver-side probes fire once per
//! round; dispatcher counters once per submission attempt. The process's
//! own phase histograms (`iba_core_phase_{generate,accept,serve}_nanos`)
//! tick inside the service round.

use std::sync::{Arc, OnceLock};

use iba_obs::{global, Counter, Gauge, Histogram};

/// The serve crate's registered metrics.
#[derive(Debug)]
pub(crate) struct ServeProbes {
    /// Full driver round duration (membership, faults, admission, the
    /// process's round and the completion pass).
    pub round_nanos: Arc<Histogram>,
    /// Duration of the part of the round after admission: the process's
    /// round and the completion pass.
    pub phase_merge_nanos: Arc<Histogram>,
    /// Pool size after the last round.
    pub pool_size: Arc<Gauge>,
    /// Balls buffered in the bins after the last round.
    pub buffered: Arc<Gauge>,
    /// Tickets queued at ingress when the last round began admitting.
    pub ingress_depth: Arc<Gauge>,
    /// Admitted-but-unserved tickets after the last round.
    pub pending_tickets: Arc<Gauge>,
    /// Largest per-bin load observed across all rounds so far.
    pub max_load_high_water: Arc<Gauge>,
    /// Client requests admitted from the ingress queue, lifetime.
    pub admitted: Arc<Counter>,
    /// Balls served (tickets completed + model balls), lifetime.
    pub served: Arc<Counter>,
    /// Submission attempts through any `Dispatcher` handle, lifetime.
    pub submits: Arc<Counter>,
    /// Submissions shed for ingress backpressure, lifetime.
    pub submits_saturated: Arc<Counter>,
    /// Submissions refused because the service was gone, lifetime.
    pub submits_closed: Arc<Counter>,
    /// Balls injected by pool surges and arrival bursts, lifetime.
    pub surge_balls: Arc<Counter>,
    /// Open TCP connections on the network front end.
    pub net_connections: Arc<Gauge>,
    /// Outbound bytes queued (encoded, not yet written) across all
    /// connections — the front end's write-side queue depth.
    pub net_write_queue_bytes: Arc<Gauge>,
    /// Bytes read off client sockets, lifetime.
    pub net_bytes_read: Arc<Counter>,
    /// Bytes written to client sockets, lifetime.
    pub net_bytes_written: Arc<Counter>,
    /// Wire-protocol frames decoded from clients, lifetime.
    pub net_frames: Arc<Counter>,
    /// `GET /metrics` scrapes answered, lifetime.
    pub net_scrapes: Arc<Counter>,
    /// Failed `accept` calls on the listener, lifetime.
    pub net_accept_errors: Arc<Counter>,
    /// Read errors that dropped a connection, lifetime.
    pub net_read_errors: Arc<Counter>,
    /// Write errors that dropped a connection, lifetime.
    pub net_write_errors: Arc<Counter>,
    /// Protocol violations (bad preface, malformed frame, oversized
    /// request) that dropped a connection, lifetime.
    pub net_proto_errors: Arc<Counter>,
    /// Poll iterations that made no progress (event loop idle), lifetime.
    pub net_idle_polls: Arc<Counter>,
    /// Allocation requests refused because the front end was draining,
    /// lifetime.
    pub net_allocs_drained: Arc<Counter>,
    /// Chaos fault events injected into the socket layer, lifetime.
    pub net_faults_injected: Arc<Counter>,
    /// Connections dropped by injected faults, lifetime.
    pub net_conns_dropped_by_fault: Arc<Counter>,
    /// Tickets reaped by TTL expiry before completion, lifetime.
    pub tickets_expired: Arc<Counter>,
    /// Service checkpoints captured, lifetime.
    pub checkpoint_saves: Arc<Counter>,
    /// Services resumed from a checkpoint, lifetime.
    pub checkpoint_resumes: Arc<Counter>,
    /// Round the last resumed service restarted from.
    pub resume_round: Arc<Gauge>,
    /// Live bin count `n` (elastic membership moves this at runtime).
    pub live_bins: Arc<Gauge>,
    /// Membership events applied (add/remove bins), lifetime.
    pub membership_events: Arc<Counter>,
    /// Balls drained from removed bins into the pool, lifetime.
    pub balls_moved: Arc<Counter>,
}

impl ServeProbes {
    fn register() -> Self {
        let r = global();
        ServeProbes {
            round_nanos: r.histogram("iba_serve_round_nanos"),
            phase_merge_nanos: r.histogram("iba_serve_phase_merge_nanos"),
            pool_size: r.gauge("iba_serve_pool_size"),
            buffered: r.gauge("iba_serve_buffered"),
            ingress_depth: r.gauge("iba_serve_ingress_depth"),
            pending_tickets: r.gauge("iba_serve_pending_tickets"),
            max_load_high_water: r.gauge("iba_serve_max_load_high_water"),
            admitted: r.counter("iba_serve_admitted_total"),
            served: r.counter("iba_serve_served_total"),
            submits: r.counter("iba_serve_submits_total"),
            submits_saturated: r.counter("iba_serve_submits_saturated_total"),
            submits_closed: r.counter("iba_serve_submits_closed_total"),
            surge_balls: r.counter("iba_serve_surge_balls_total"),
            net_connections: r.gauge("iba_serve_net_connections"),
            net_write_queue_bytes: r.gauge("iba_serve_net_write_queue_bytes"),
            net_bytes_read: r.counter("iba_serve_net_bytes_read_total"),
            net_bytes_written: r.counter("iba_serve_net_bytes_written_total"),
            net_frames: r.counter("iba_serve_net_frames_total"),
            net_scrapes: r.counter("iba_serve_net_scrapes_total"),
            net_accept_errors: r.counter("iba_serve_net_accept_errors_total"),
            net_read_errors: r.counter("iba_serve_net_read_errors_total"),
            net_write_errors: r.counter("iba_serve_net_write_errors_total"),
            net_proto_errors: r.counter("iba_serve_net_proto_errors_total"),
            net_idle_polls: r.counter("iba_serve_net_idle_polls_total"),
            net_allocs_drained: r.counter("iba_serve_net_allocs_drained_total"),
            net_faults_injected: r.counter("iba_serve_net_faults_injected_total"),
            net_conns_dropped_by_fault: r.counter("iba_serve_net_conns_dropped_by_fault_total"),
            tickets_expired: r.counter("iba_serve_tickets_expired_total"),
            checkpoint_saves: r.counter("iba_serve_checkpoint_saves_total"),
            checkpoint_resumes: r.counter("iba_serve_checkpoint_resumes_total"),
            resume_round: r.gauge("iba_serve_resume_round"),
            live_bins: r.gauge("iba_serve_bins"),
            membership_events: r.counter("iba_serve_membership_events_total"),
            balls_moved: r.counter("iba_serve_balls_moved_total"),
        }
    }
}

/// The probe gate: `None` (after one relaxed load) while telemetry is
/// disabled, the cached handles otherwise.
#[inline]
pub(crate) fn probes() -> Option<&'static ServeProbes> {
    if !iba_obs::enabled() {
        return None;
    }
    static PROBES: OnceLock<ServeProbes> = OnceLock::new();
    Some(PROBES.get_or_init(ServeProbes::register))
}
