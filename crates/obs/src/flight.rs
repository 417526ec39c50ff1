//! The flight recorder: a fixed-size ring buffer of recent round-level
//! events, dumped as a JSON post-mortem when something goes wrong.
//!
//! Processes record one [`RoundSample`] per completed round (only while
//! telemetry is enabled — the disabled path is the usual single relaxed
//! load). Fault injection and invariant checks add [`FlightEvent::Marker`]
//! entries. On a panic (see [`install_panic_hook`]) or an invariant
//! violation, [`PostMortem::capture`] freezes the last
//! [`DEFAULT_CAPACITY`] events together with a full registry snapshot, so
//! a misbehaving million-bin run leaves evidence instead of a bare
//! backtrace.
//!
//! A post-mortem is written, never read back: [`PostMortem::to_json`] is
//! the whole interface, and tests check its line with the JSON reader.

use std::collections::VecDeque;
use std::sync::{Mutex, Once, OnceLock};

use crate::json::{JsonObjWriter, Provenance};
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

/// Number of events the ring retains.
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
}

#[derive(Debug)]
struct Ring {
    events: VecDeque<FlightEvent>,
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
                dropped: 0,
            }),
        }
    }

    fn push(&self, event: FlightEvent) {
        let mut ring = self.ring.lock().unwrap();
        if ring.events.len() == DEFAULT_CAPACITY {
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

/// Records a fault-trigger marker. No-op while telemetry is disabled.
pub fn fault_triggered(round: u64, label: &str) {
    recorder().record_marker(round, label);
}

/// A frozen post-mortem: why it was taken, the recent events, and the full
/// registry state at capture time.
#[derive(Debug, Clone, PartialEq)]
pub struct PostMortem {
    /// Why the dump was taken (`panic`, `invariant:...`).
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
    use crate::json::tests::assert_provenance;
    use crate::json::{parse, JsonValue, SCHEMA_VERSION};
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

    /// The JSON object a dump holds for `event`, as the reader returns it.
    fn event_value(event: &FlightEvent) -> JsonValue {
        let num = |v: u64| JsonValue::Number(v as f64);
        let fields: Vec<(&str, JsonValue)> = match event {
            FlightEvent::Round(s) => vec![
                ("kind", JsonValue::String("round".into())),
                ("round", num(s.round)),
                ("generated", num(s.generated)),
                ("accepted", num(s.accepted)),
                ("deleted", num(s.deleted)),
                ("failed_deletions", num(s.failed_deletions)),
                ("pool_size", num(s.pool_size)),
                ("buffered", num(s.buffered)),
                ("max_load", num(s.max_load)),
            ],
            FlightEvent::Marker { round, label } => vec![
                ("kind", JsonValue::String("marker".into())),
                ("round", num(*round)),
                ("label", JsonValue::String(label.clone())),
            ],
        };
        JsonValue::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Parses a dump, asserting it is one line of the post-mortem shape
    /// with `events` in order.
    fn parse_dump(dump: &str, events: &[FlightEvent]) -> JsonValue {
        assert!(!dump.contains('\n'), "a dump is one line: {dump}");
        let v = parse(dump).expect("a dump is valid JSON");
        assert_eq!(
            v.get("schema").and_then(JsonValue::as_u64),
            Some(SCHEMA_VERSION)
        );
        assert_eq!(
            v.get("kind").and_then(JsonValue::as_str),
            Some("postmortem")
        );
        let expected: Vec<JsonValue> = events.iter().map(event_value).collect();
        assert_eq!(
            v.get("events").and_then(JsonValue::as_array),
            Some(&expected[..])
        );
        let telemetry = v.get("telemetry").expect("telemetry snapshot");
        assert_eq!(
            telemetry.get("kind").and_then(JsonValue::as_str),
            Some("telemetry")
        );
        v
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
            for round in 1..=DEFAULT_CAPACITY as u64 + 2 {
                r.record_round(sample(round));
            }
            let events = r.events();
            assert_eq!(events.len(), DEFAULT_CAPACITY);
            assert_eq!(r.dropped(), 2);
            assert_eq!(events[0], FlightEvent::Round(sample(3)));
            assert_eq!(
                events[DEFAULT_CAPACITY - 1],
                FlightEvent::Round(sample(DEFAULT_CAPACITY as u64 + 2))
            );
            r.clear();
            assert!(r.events().is_empty());
            assert_eq!(r.dropped(), 0);
        });
    }

    #[test]
    fn post_mortem_round_trips() {
        with_telemetry(true, || {
            recorder().clear();
            recorder().record_round(sample(41));
            recorder().record_marker(42, "fault:crash_bins:3 \"quoted\"\nline");
            recorder().record_round(sample(42));
            let pm = PostMortem::capture("invariant:conservation");
            assert_eq!(pm.events, recorder().events());
            let v = parse_dump(&pm.to_json(), &pm.events);
            assert_eq!(
                v.get("reason").and_then(JsonValue::as_str),
                Some("invariant:conservation")
            );
            assert_eq!(v.get("dropped").and_then(JsonValue::as_u64), Some(0));
            recorder().clear();
        });
    }

    /// A chaos-run panic dump carries the run's provenance — git
    /// revision, kernel mode, thread count — and every field reaches the
    /// JSON line.
    #[test]
    fn post_mortem_carries_run_provenance_through_json() {
        with_telemetry(true, || {
            let prov = Provenance {
                schema_version: SCHEMA_VERSION,
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
            let v = parse_dump(&pm.to_json(), &recorder().events());
            assert_provenance(v.get("provenance").expect("provenance attached"), &prov);
            *RUN_CONTEXT.lock().unwrap() = None;
            // Without a run context the field is absent.
            let bare = parse_dump(&PostMortem::capture("panic").to_json(), &pm.events);
            assert_eq!(bare.get("provenance"), None);
            recorder().clear();
        });
    }

    #[test]
    fn fault_trigger_leaves_marker() {
        with_telemetry(true, || {
            recorder().clear();
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
