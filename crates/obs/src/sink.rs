//! Registry snapshots as one JSON object per line, the form the flight
//! recorder's post-mortem ([`crate::flight`]) embeds.
//!
//! Histograms are summarized (count, sum, mean, bucket-bound quantiles,
//! max) rather than dumped bucket-by-bucket — the full-resolution view is
//! the Prometheus exposition ([`crate::expo`]).

use crate::json::JsonObjWriter;
use crate::registry::{HistogramSnapshot, RegistrySnapshot};

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
}
