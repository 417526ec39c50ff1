//! The flight recorder: a fixed-size ring buffer of recent round-level
//! events, dumped as a JSON post-mortem when something goes wrong.
//!
//! Processes record one [`RoundSample`] per completed round (only while
//! telemetry is enabled — the disabled path is the usual single relaxed
//! load). Fault injection and invariant checks add [`FlightEvent::Marker`]
//! entries. On a panic (see [`install_panic_hook`]), an invariant
//! violation, or — when [`set_dump_on_fault`] is armed — a fault trigger,
//! [`PostMortem::capture`] freezes the last N events together with a full
//! registry snapshot, so a misbehaving million-bin run leaves evidence
//! instead of a bare backtrace.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, Once, OnceLock};

use crate::json::{self, JsonObjWriter, JsonValue, Provenance};
use crate::registry::{enabled, global};
use crate::sink::snapshot_to_json_line;

static RUN_CONTEXT: Mutex<Option<Provenance>> = Mutex::new(None);

/// Installs the run's provenance (git revision, host, kernel mode, thread
/// count) so post-mortem dumps — and the `/metrics` run-info sample — are
/// attributable. Binaries call this once at startup; `None` values in the
/// provenance simply stay absent from the dumps.
pub fn set_run_context(provenance: Provenance) {
    *RUN_CONTEXT.lock().unwrap() = Some(provenance);
}

/// The provenance installed by [`set_run_context`], if any.
pub fn run_context() -> Option<Provenance> {
    RUN_CONTEXT.lock().unwrap().clone()
}

/// Default number of events the ring retains.
pub const DEFAULT_CAPACITY: usize = 256;

/// One round of a process, at `RoundReport` granularity (fixed-size: the
/// per-ball waiting times are deliberately not retained).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RoundSample {
    /// Round number.
    pub round: u64,
    /// Balls generated this round.
    pub generated: u64,
    /// Balls accepted into buffers this round.
    pub accepted: u64,
    /// Balls served (deleted) this round.
    pub deleted: u64,
    /// Non-empty offline bins that could not serve.
    pub failed_deletions: u64,
    /// Pool size after the round.
    pub pool_size: u64,
    /// Balls buffered across all bins after the round.
    pub buffered: u64,
    /// Maximum bin load after the round.
    pub max_load: u64,
}

/// One entry in the flight-recorder ring.
#[derive(Debug, Clone, PartialEq)]
pub enum FlightEvent {
    /// A completed round.
    Round(RoundSample),
    /// A point annotation: fault injections, invariant violations, phase
    /// changes.
    Marker {
        /// Round the marker applies to.
        round: u64,
        /// Free-form label, e.g. `fault:crash_bins:64`.
        label: String,
    },
}

impl FlightEvent {
    fn to_json(&self) -> String {
        match self {
            FlightEvent::Round(s) => {
                let mut w = JsonObjWriter::new();
                w.field_str("kind", "round");
                w.field_u64("round", s.round);
                w.field_u64("generated", s.generated);
                w.field_u64("accepted", s.accepted);
                w.field_u64("deleted", s.deleted);
                w.field_u64("failed_deletions", s.failed_deletions);
                w.field_u64("pool_size", s.pool_size);
                w.field_u64("buffered", s.buffered);
                w.field_u64("max_load", s.max_load);
                w.finish()
            }
            FlightEvent::Marker { round, label } => {
                let mut w = JsonObjWriter::new();
                w.field_str("kind", "marker");
                w.field_u64("round", *round);
                w.field_str("label", label);
                w.finish()
            }
        }
    }

    fn from_json(v: &JsonValue) -> Option<FlightEvent> {
        let u = |k: &str| v.get(k)?.as_u64();
        match v.get("kind")?.as_str()? {
            "round" => Some(FlightEvent::Round(RoundSample {
                round: u("round")?,
                generated: u("generated")?,
                accepted: u("accepted")?,
                deleted: u("deleted")?,
                failed_deletions: u("failed_deletions")?,
                pool_size: u("pool_size")?,
                buffered: u("buffered")?,
                max_load: u("max_load")?,
            })),
            "marker" => Some(FlightEvent::Marker {
                round: u("round")?,
                label: v.get("label")?.as_str()?.to_string(),
            }),
            _ => None,
        }
    }
}

#[derive(Debug)]
struct Ring {
    events: VecDeque<FlightEvent>,
    capacity: usize,
    dropped: u64,
}

/// The ring buffer of recent events. One instance per process — use
/// [`recorder`].
#[derive(Debug)]
pub struct FlightRecorder {
    ring: Mutex<Ring>,
}

impl FlightRecorder {
    fn new() -> Self {
        FlightRecorder {
            ring: Mutex::new(Ring {
                events: VecDeque::with_capacity(DEFAULT_CAPACITY),
                capacity: DEFAULT_CAPACITY,
                dropped: 0,
            }),
        }
    }

    fn push(&self, event: FlightEvent) {
        let mut ring = self.ring.lock().unwrap();
        if ring.events.len() == ring.capacity {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        ring.events.push_back(event);
    }

    /// Records a completed round (no-op while telemetry is disabled).
    #[inline]
    pub fn record_round(&self, sample: RoundSample) {
        if enabled() {
            self.push(FlightEvent::Round(sample));
        }
    }

    /// Records a marker (no-op while telemetry is disabled).
    #[inline]
    pub fn record_marker(&self, round: u64, label: &str) {
        if enabled() {
            self.push(FlightEvent::Marker {
                round,
                label: label.to_string(),
            });
        }
    }

    /// Resizes the ring (oldest events are dropped if shrinking).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0.
    pub fn set_capacity(&self, capacity: usize) {
        assert!(capacity > 0, "flight recorder capacity must be positive");
        let mut ring = self.ring.lock().unwrap();
        while ring.events.len() > capacity {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        ring.capacity = capacity;
    }

    /// Empties the ring and resets the dropped count.
    pub fn clear(&self) {
        let mut ring = self.ring.lock().unwrap();
        ring.events.clear();
        ring.dropped = 0;
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<FlightEvent> {
        self.ring.lock().unwrap().events.iter().cloned().collect()
    }

    /// How many events have been evicted from the ring so far.
    pub fn dropped(&self) -> u64 {
        self.ring.lock().unwrap().dropped
    }
}

/// The process-wide flight recorder.
pub fn recorder() -> &'static FlightRecorder {
    static RECORDER: OnceLock<FlightRecorder> = OnceLock::new();
    RECORDER.get_or_init(FlightRecorder::new)
}

static DUMP_ON_FAULT: AtomicBool = AtomicBool::new(false);

/// Arms or disarms post-mortem dumping on fault triggers (disarmed by
/// default: fault injections always leave a marker, but chaos experiments
/// firing thousands of scripted faults should not each write a dump).
pub fn set_dump_on_fault(on: bool) {
    DUMP_ON_FAULT.store(on, Ordering::SeqCst);
}

/// Records a fault-trigger marker and, if armed via [`set_dump_on_fault`],
/// writes a post-mortem to stderr. No-op while telemetry is disabled.
pub fn fault_triggered(round: u64, label: &str) {
    if !enabled() {
        return;
    }
    recorder().record_marker(round, label);
    if DUMP_ON_FAULT.load(Ordering::Relaxed) {
        eprintln!(
            "{}",
            PostMortem::capture(&format!("fault:{label}")).to_json()
        );
    }
}

/// A frozen post-mortem: why it was taken, the recent events, and the full
/// registry state at capture time.
#[derive(Debug, Clone, PartialEq)]
pub struct PostMortem {
    /// Why the dump was taken (`panic`, `invariant:...`, `fault:...`).
    pub reason: String,
    /// Events evicted from the ring before capture.
    pub dropped: u64,
    /// The run's provenance (git rev, kernel mode, thread count), when a
    /// binary installed one via [`set_run_context`] — so panics in chaos
    /// runs are attributable to a revision and configuration.
    pub provenance: Option<Provenance>,
    /// The retained events, oldest first.
    pub events: Vec<FlightEvent>,
    /// The registry snapshot rendered as a JSON object (raw).
    pub telemetry: String,
}

impl PostMortem {
    /// Captures the current flight-recorder contents and registry state.
    pub fn capture(reason: &str) -> Self {
        PostMortem {
            reason: reason.to_string(),
            dropped: recorder().dropped(),
            provenance: run_context(),
            events: recorder().events(),
            telemetry: snapshot_to_json_line(&global().snapshot()),
        }
    }

    /// Renders the post-mortem as one JSON line
    /// (`{"schema":1,"kind":"postmortem",...}`).
    pub fn to_json(&self) -> String {
        let mut w = JsonObjWriter::with_schema();
        w.field_str("kind", "postmortem");
        w.field_str("reason", &self.reason);
        w.field_u64("dropped", self.dropped);
        if let Some(prov) = &self.provenance {
            w.field_raw("provenance", &prov.to_json_object());
        }
        let events: Vec<String> = self.events.iter().map(FlightEvent::to_json).collect();
        w.field_raw_array("events", &events);
        w.field_raw("telemetry", &self.telemetry);
        w.finish()
    }

    /// Parses a dump produced by [`PostMortem::to_json`] back into a
    /// `PostMortem` (the round-trip the CI smoke job asserts).
    ///
    /// # Errors
    ///
    /// Returns a [`json::JsonError`] if the input is not valid JSON or
    /// does not have the post-mortem shape.
    pub fn from_json(input: &str) -> Result<PostMortem, json::JsonError> {
        let v = json::parse(input)?;
        let shape = |message: &str| json::JsonError {
            offset: 0,
            message: message.to_string(),
        };
        if v.get("kind").and_then(JsonValue::as_str) != Some("postmortem") {
            return Err(shape("not a postmortem dump"));
        }
        if v.get("schema").and_then(JsonValue::as_u64) != Some(json::SCHEMA_VERSION) {
            return Err(shape("unsupported schema version"));
        }
        let reason = v
            .get("reason")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| shape("missing reason"))?
            .to_string();
        let dropped = v
            .get("dropped")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| shape("missing dropped"))?;
        let provenance = match v.get("provenance") {
            None => None,
            Some(p) => {
                Some(Provenance::from_value(p).ok_or_else(|| shape("malformed provenance"))?)
            }
        };
        let events = v
            .get("events")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| shape("missing events"))?
            .iter()
            .map(|e| FlightEvent::from_json(e).ok_or_else(|| shape("malformed event")))
            .collect::<Result<Vec<_>, _>>()?;
        let telemetry = v
            .get("telemetry")
            .ok_or_else(|| shape("missing telemetry"))?;
        // Re-render the telemetry object so `to_json` of the round-tripped
        // value is stable (field order is preserved by the parser).
        Ok(PostMortem {
            reason,
            dropped,
            provenance,
            events,
            telemetry: render_value(telemetry),
        })
    }
}

/// Re-renders a parsed [`JsonValue`] to canonical single-line JSON
/// (object field order preserved).
fn render_value(v: &JsonValue) -> String {
    match v {
        JsonValue::Null => "null".to_string(),
        JsonValue::Bool(b) => b.to_string(),
        JsonValue::Number(n) => json::number(*n),
        JsonValue::String(s) => json::quoted(s),
        JsonValue::Array(items) => {
            let inner: Vec<String> = items.iter().map(render_value).collect();
            format!("[{}]", inner.join(","))
        }
        JsonValue::Object(fields) => {
            let inner: Vec<String> = fields
                .iter()
                .map(|(k, v)| format!("{}:{}", json::quoted(k), render_value(v)))
                .collect();
            format!("{{{}}}", inner.join(","))
        }
    }
}

/// Installs a panic hook (once) that appends a post-mortem dump to stderr
/// after the default hook runs, and writes it to the path in the
/// `IBA_POSTMORTEM` environment variable if set. Inert while telemetry is
/// disabled.
pub fn install_panic_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            previous(info);
            if enabled() {
                let dump = PostMortem::capture("panic").to_json();
                eprintln!("{dump}");
                if let Some(path) = std::env::var_os("IBA_POSTMORTEM") {
                    let _ = std::fs::write(path, dump);
                }
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::with_telemetry;

    fn sample(round: u64) -> RoundSample {
        RoundSample {
            round,
            generated: 10,
            accepted: 8,
            deleted: 7,
            failed_deletions: 0,
            pool_size: 3,
            buffered: 5,
            max_load: 2,
        }
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        with_telemetry(false, || {
            let r = FlightRecorder::new();
            r.record_round(sample(1));
            r.record_marker(1, "x");
            assert!(r.events().is_empty());
        });
    }

    #[test]
    fn ring_evicts_oldest() {
        with_telemetry(true, || {
            let r = FlightRecorder::new();
            r.set_capacity(3);
            for round in 1..=5 {
                r.record_round(sample(round));
            }
            let events = r.events();
            assert_eq!(events.len(), 3);
            assert_eq!(r.dropped(), 2);
            match &events[0] {
                FlightEvent::Round(s) => assert_eq!(s.round, 3),
                other => panic!("unexpected event {other:?}"),
            }
            r.clear();
            assert!(r.events().is_empty());
            assert_eq!(r.dropped(), 0);
        });
    }

    #[test]
    fn shrinking_capacity_drops_oldest() {
        with_telemetry(true, || {
            let r = FlightRecorder::new();
            for round in 1..=4 {
                r.record_round(sample(round));
            }
            r.set_capacity(2);
            assert_eq!(r.events().len(), 2);
            assert_eq!(r.dropped(), 2);
        });
    }

    #[test]
    fn post_mortem_round_trips() {
        with_telemetry(true, || {
            recorder().clear();
            recorder().record_round(sample(41));
            recorder().record_marker(42, "fault:crash_bins:3 \"quoted\"");
            recorder().record_round(sample(42));
            let pm = PostMortem::capture("invariant:conservation");
            let dump = pm.to_json();
            let back = PostMortem::from_json(&dump).unwrap();
            assert_eq!(back.reason, pm.reason);
            assert_eq!(back.dropped, pm.dropped);
            assert_eq!(back.events, pm.events);
            // The re-rendered dump is itself parseable and stable.
            assert_eq!(
                PostMortem::from_json(&back.to_json()).unwrap().events,
                pm.events
            );
            recorder().clear();
        });
    }

    /// Satellite guarantee: a chaos-run panic dump carries the run's
    /// provenance — git revision, kernel mode, thread count — and every
    /// field survives the JSON round-trip.
    #[test]
    fn post_mortem_carries_run_provenance_through_json() {
        with_telemetry(true, || {
            let prov = Provenance {
                schema_version: json::SCHEMA_VERSION,
                git_rev: "deadbeefcafe".into(),
                git_dirty: true,
                host: "chaos-runner".into(),
                cores: 16,
                kernel: Some("arena_parallel".into()),
                threads: Some(8),
            };
            set_run_context(prov.clone());
            recorder().clear();
            recorder().record_marker(3, "fault:crash_bins:2");
            let pm = PostMortem::capture("panic");
            let back = PostMortem::from_json(&pm.to_json()).unwrap();
            let got = back.provenance.expect("provenance attached to the dump");
            assert_eq!(got, prov);
            assert_eq!(got.git_rev, "deadbeefcafe");
            assert_eq!(got.kernel.as_deref(), Some("arena_parallel"));
            assert_eq!(got.threads, Some(8));
            assert!(got.git_dirty);
            // A malformed provenance object is rejected, not ignored.
            let bad = pm.to_json().replace("\"git_rev\":\"deadbeefcafe\",", "");
            assert!(PostMortem::from_json(&bad).is_err());
            *RUN_CONTEXT.lock().unwrap() = None;
            recorder().clear();
        });
    }

    #[test]
    fn from_json_rejects_other_lines() {
        assert!(PostMortem::from_json("{\"schema\":1}").is_err());
        assert!(PostMortem::from_json("nonsense").is_err());
        assert!(PostMortem::from_json("{\"schema\":99,\"kind\":\"postmortem\"}").is_err());
    }

    #[test]
    fn fault_trigger_leaves_marker() {
        with_telemetry(true, || {
            recorder().clear();
            set_dump_on_fault(false);
            fault_triggered(7, "crash_bins:2");
            let events = recorder().events();
            assert_eq!(
                events,
                vec![FlightEvent::Marker {
                    round: 7,
                    label: "crash_bins:2".to_string()
                }]
            );
            recorder().clear();
        });
    }
}
