//! The JSON-lines telemetry sink: renders registry snapshots as one JSON
//! object per line and appends them to any `io::Write`.
//!
//! Histograms are summarized (count, sum, mean, bucket-bound quantiles,
//! max) rather than dumped bucket-by-bucket — the full-resolution view is
//! the Prometheus exposition ([`crate::expo`]); the JSONL sink is for
//! time-series logs read next to [`ServeSnapshot`] lines.
//!
//! [`ServeSnapshot`]: https://docs.rs/iba-serve

use std::io;

use crate::json::JsonObjWriter;
use crate::registry::{HistogramSnapshot, Registry, RegistrySnapshot};

/// Renders one histogram summary as a JSON object.
fn histogram_json(h: &HistogramSnapshot) -> String {
    let mut w = JsonObjWriter::new();
    w.field_u64("count", h.count);
    w.field_u64("sum", h.sum);
    w.field_f64_fixed("mean", h.mean(), 6);
    match (
        h.quantile(0.5),
        h.quantile(0.99),
        h.quantile(0.999),
        h.max_bound(),
    ) {
        (Some(p50), Some(p99), Some(p999), Some(max)) => {
            w.field_u64("p50", p50);
            w.field_u64("p99", p99);
            w.field_u64("p999", p999);
            w.field_u64("max", max);
        }
        _ => {
            w.field_null("p50");
            w.field_null("p99");
            w.field_null("p999");
            w.field_null("max");
        }
    }
    w.finish()
}

/// Renders a registry snapshot as one JSON line:
/// `{"schema":1,"kind":"telemetry","counters":{...},"gauges":{...},"histograms":{...}}`.
pub fn snapshot_to_json_line(snapshot: &RegistrySnapshot) -> String {
    let mut w = JsonObjWriter::with_schema();
    w.field_str("kind", "telemetry");

    let mut counters = JsonObjWriter::new();
    for (name, value) in &snapshot.counters {
        counters.field_u64(name, *value);
    }
    w.field_raw("counters", &counters.finish());

    let mut gauges = JsonObjWriter::new();
    for (name, value) in &snapshot.gauges {
        gauges.field_u64(name, *value);
    }
    w.field_raw("gauges", &gauges.finish());

    let mut histograms = JsonObjWriter::new();
    for (name, hist) in &snapshot.histograms {
        histograms.field_raw(name, &histogram_json(hist));
    }
    w.field_raw("histograms", &histograms.finish());
    w.finish()
}

/// An append-only JSON-lines writer.
#[derive(Debug)]
pub struct JsonlSink<W: io::Write> {
    writer: W,
}

impl<W: io::Write> JsonlSink<W> {
    /// Wraps `writer`.
    pub fn new(writer: W) -> Self {
        JsonlSink { writer }
    }

    /// Appends one pre-rendered line (a trailing newline is added).
    ///
    /// # Errors
    ///
    /// Propagates the underlying writer's I/O errors.
    pub fn write_line(&mut self, line: &str) -> io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")
    }

    /// Appends the registry's current state as one telemetry line.
    ///
    /// # Errors
    ///
    /// Propagates the underlying writer's I/O errors.
    pub fn write_registry(&mut self, registry: &Registry) -> io::Result<()> {
        self.write_line(&snapshot_to_json_line(&registry.snapshot()))
    }

    /// Flushes and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// Propagates the underlying writer's I/O errors.
    pub fn into_inner(mut self) -> io::Result<W> {
        self.writer.flush()?;
        Ok(self.writer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, JsonValue};
    use crate::registry::{with_telemetry, Registry};

    #[test]
    fn telemetry_line_shape() {
        with_telemetry(true, || {
            let r = Registry::new();
            r.counter("requests_total").add(5);
            r.gauge("pool").set(2);
            let h = r.histogram("lat_nanos");
            h.record(3);
            let line = snapshot_to_json_line(&r.snapshot());
            let v = parse(&line).unwrap();
            assert_eq!(v.get("schema").and_then(JsonValue::as_u64), Some(1));
            assert_eq!(v.get("kind").and_then(JsonValue::as_str), Some("telemetry"));
            let counters = v.get("counters").unwrap();
            assert_eq!(
                counters.get("requests_total").and_then(JsonValue::as_u64),
                Some(5)
            );
            let hist = v.get("histograms").unwrap().get("lat_nanos").unwrap();
            assert_eq!(hist.get("count").and_then(JsonValue::as_u64), Some(1));
            assert_eq!(hist.get("p50").and_then(JsonValue::as_u64), Some(3));
        });
    }

    #[test]
    fn empty_histogram_quantiles_are_null() {
        with_telemetry(true, || {
            let r = Registry::new();
            r.histogram("empty_nanos");
            let line = snapshot_to_json_line(&r.snapshot());
            let v = parse(&line).unwrap();
            let hist = v.get("histograms").unwrap().get("empty_nanos").unwrap();
            assert_eq!(hist.get("p50"), Some(&JsonValue::Null));
        });
    }

    #[test]
    fn sink_appends_lines() {
        with_telemetry(true, || {
            let r = Registry::new();
            r.counter("x_total").inc();
            let mut sink = JsonlSink::new(Vec::new());
            sink.write_registry(&r).unwrap();
            sink.write_line("{\"schema\":1}").unwrap();
            let buf = sink.into_inner().unwrap();
            let text = String::from_utf8(buf).unwrap();
            let lines: Vec<&str> = text.lines().collect();
            assert_eq!(lines.len(), 2);
            assert!(parse(lines[0]).is_ok());
            assert!(parse(lines[1]).is_ok());
        });
    }
}
