//! Prometheus-style text exposition of a [`Registry`] snapshot, and the
//! HTTP responses the serve layer's `GET /metrics` writes.
//!
//! The format follows the Prometheus text exposition conventions:
//! `# TYPE` comment per metric family, `name value` samples, histograms
//! expanded into cumulative `_bucket{le="..."}` samples plus `_sum` and
//! `_count`. Only that subset is emitted — no arbitrary labels,
//! timestamps or `# HELP` lines.
//!
//! The module only writes. The strict parser that holds this output to
//! the format is test support (`crates/obs/tests/support/expo_parse.rs`),
//! shared by the unit tests here, `expo_roundtrip` and `net_e2e`.

use std::fmt::Write as _;

use crate::json::Provenance;
use crate::registry::{bucket_bound, Registry, RegistrySnapshot, HISTOGRAM_BUCKETS};

/// Renders the snapshot in the Prometheus text exposition format.
///
/// Output is deterministic: families appear counters-first, then gauges,
/// then histograms, each name-sorted.
pub fn render(snapshot: &RegistrySnapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snapshot.counters {
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {value}");
    }
    for (name, value) in &snapshot.gauges {
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name} {value}");
    }
    for (name, hist) in &snapshot.histograms {
        let _ = writeln!(out, "# TYPE {name} histogram");
        let mut cumulative = 0u64;
        for (i, &count) in hist.buckets.iter().enumerate() {
            cumulative += count;
            // Collapse empty interior buckets: emit a bucket line only
            // when it holds observations or is the +Inf terminator.
            // Cumulative counts keep the output well-formed regardless.
            if count == 0 && i != HISTOGRAM_BUCKETS - 1 {
                continue;
            }
            let le = if i == HISTOGRAM_BUCKETS - 1 {
                "+Inf".to_string()
            } else {
                bucket_bound(i).to_string()
            };
            let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
        }
        let _ = writeln!(out, "{name}_sum {}", hist.sum);
        let _ = writeln!(out, "{name}_count {}", hist.count);
    }
    out
}

/// Renders the global registry's current state (convenience for binaries).
pub fn render_registry(registry: &Registry) -> String {
    render(&registry.snapshot())
}

/// Name of the run-info metric carrying provenance labels.
pub const RUN_INFO_METRIC: &str = "iba_run_info";

/// Renders the snapshot plus an `iba_run_info` sample carrying the run's
/// provenance as labels (`git_rev`, `dirty`, `host`, `cores`, and — when
/// present — `kernel` and `threads`), in the conventional `*_info`
/// always-1 gauge style. With `None` provenance this is exactly
/// [`render`].
pub fn render_with_provenance(snapshot: &RegistrySnapshot, prov: Option<&Provenance>) -> String {
    let mut out = render(snapshot);
    if let Some(prov) = prov {
        let mut labels: Vec<(String, String)> = vec![
            ("git_rev".into(), prov.git_rev.clone()),
            ("dirty".into(), prov.git_dirty.to_string()),
            ("host".into(), prov.host.clone()),
            ("cores".into(), prov.cores.to_string()),
        ];
        if let Some(kernel) = &prov.kernel {
            labels.push(("kernel".into(), kernel.clone()));
        }
        if let Some(threads) = prov.threads {
            labels.push(("threads".into(), threads.to_string()));
        }
        let _ = writeln!(out, "# TYPE {RUN_INFO_METRIC} gauge");
        let _ = writeln!(out, "{RUN_INFO_METRIC}{} 1", render_labels(&labels));
    }
    out
}

/// Renders a `{k="v",...}` label set (empty string for no labels), with
/// Prometheus-style escaping of backslashes, quotes and newlines in the
/// values.
fn render_labels(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (key, value)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{key}=\"");
        for ch in value.chars() {
            match ch {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out.push('}');
    out
}

/// The exposition content type, as scrapers expect it.
pub const HTTP_CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// Wraps `body` in a minimal HTTP/1.1 response (`Connection: close`,
/// exact `Content-Length`) — the exposition-over-HTTP helper the serve
/// layer's `GET /metrics` endpoint writes onto a socket verbatim.
pub fn http_response(status: u16, reason: &str, content_type: &str, body: &str) -> Vec<u8> {
    format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Renders `registry`'s current state as a complete `200 OK` scrape
/// response, including the `iba_run_info` provenance sample when a run
/// context is installed (see [`crate::flight::set_run_context`]).
pub fn http_metrics_response(registry: &Registry) -> Vec<u8> {
    let body = render_with_provenance(&registry.snapshot(), crate::flight::run_context().as_ref());
    http_response(200, "OK", HTTP_CONTENT_TYPE, &body)
}

/// A `404 Not Found` response for non-`/metrics` paths.
pub fn http_not_found() -> Vec<u8> {
    http_response(
        404,
        "Not Found",
        "text/plain",
        "only GET /metrics is served\n",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expo_parse::{http_body, parse, Exposition};
    use crate::registry::{with_telemetry, Registry};

    /// The exposition golden test: exact expected text for a small
    /// registry.
    #[test]
    fn golden_exposition() {
        with_telemetry(true, || {
            let r = Registry::new();
            r.counter("iba_balls_total").add(12);
            r.gauge("iba_pool_size").set(7);
            let h = r.histogram("iba_round_nanos");
            h.record(0);
            h.record(1);
            h.record(5);
            h.record(5);
            let text = render(&r.snapshot());
            let expected = "\
# TYPE iba_balls_total counter
iba_balls_total 12
# TYPE iba_pool_size gauge
iba_pool_size 7
# TYPE iba_round_nanos histogram
iba_round_nanos_bucket{le=\"0\"} 1
iba_round_nanos_bucket{le=\"1\"} 2
iba_round_nanos_bucket{le=\"7\"} 4
iba_round_nanos_bucket{le=\"+Inf\"} 4
iba_round_nanos_sum 11
iba_round_nanos_count 4
";
            assert_eq!(text, expected);
        });
    }

    #[test]
    fn render_parses_back() {
        with_telemetry(true, || {
            let r = Registry::new();
            r.counter("a_total").add(3);
            r.gauge("depth").set(9);
            let h = r.histogram("lat_nanos");
            for v in [1u64, 2, 3, 1_000_000] {
                h.record(v);
            }
            let text = render(&r.snapshot());
            let expo = parse(&text).unwrap();
            assert_eq!(expo.families.get("a_total").unwrap(), "counter");
            assert_eq!(expo.families.get("depth").unwrap(), "gauge");
            assert_eq!(expo.families.get("lat_nanos").unwrap(), "histogram");
            assert_eq!(expo.value("a_total"), Some(3.0));
            assert_eq!(expo.value("depth"), Some(9.0));
            assert_eq!(expo.value("lat_nanos_count"), Some(4.0));
            assert_eq!(expo.value("lat_nanos_sum"), Some(1_000_006.0));
            // The +Inf bucket carries the total count.
            let inf = expo
                .samples
                .iter()
                .find(|s| s.le.as_deref() == Some("+Inf"))
                .unwrap();
            assert_eq!(inf.value, 4.0);
        });
    }

    #[test]
    fn empty_registry_renders_empty() {
        let r = Registry::new();
        assert_eq!(render_registry(&r), "");
        assert_eq!(parse("").unwrap(), Exposition::default());
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        for bad in [
            "# HELP x something",
            "# TYPE x widget",
            "# TYPE 9bad counter",
            "x 1",                                       // no family
            "# TYPE x counter\nx",                       // no value
            "# TYPE x counter\nx one",                   // non-numeric
            "# TYPE x histogram\nx_bucket{le=\"1\" 2",   // unterminated labels
            "# TYPE x histogram\nx_bucket{le=1} 2",      // unquoted label value
            "# TYPE x histogram\nx_bucket{9le=\"1\"} 2", // invalid label name
            "# TYPE x gauge\nx{a=\"1\"b=\"2\"} 2",       // missing comma
            "# TYPE x gauge\nx{a=\"\\q\"} 2",            // invalid escape
        ] {
            assert!(parse(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn http_response_wraps_exposition_and_parses_back() {
        with_telemetry(true, || {
            let r = Registry::new();
            r.gauge("iba_pool_size").set(11);
            let raw = http_metrics_response(&r);
            let text = String::from_utf8(raw).unwrap();
            assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
            assert!(text.contains("Content-Type: text/plain; version=0.0.4\r\n"));
            assert!(text.contains("Connection: close\r\n"));
            let body = http_body(&text).unwrap();
            let declared: usize = text
                .lines()
                .find_map(|l| l.strip_prefix("Content-Length: "))
                .unwrap()
                .trim()
                .parse()
                .unwrap();
            assert_eq!(declared, body.len());
            let expo = parse(body).unwrap();
            assert_eq!(expo.value("iba_pool_size"), Some(11.0));
        });
    }

    #[test]
    fn http_not_found_is_well_formed() {
        let text = String::from_utf8(http_not_found()).unwrap();
        assert!(text.starts_with("HTTP/1.1 404 Not Found\r\n"));
        assert!(http_body(&text).is_some());
        assert_eq!(http_body("no header terminator"), None);
    }

    #[test]
    fn histogram_suffixes_resolve_to_family() {
        let text = "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_sum 5\nh_count 1\n";
        let expo = parse(text).unwrap();
        assert_eq!(expo.samples.len(), 3);
        assert_eq!(expo.value("h_sum"), Some(5.0));
    }
}
