//! Prometheus-style text exposition of a [`Registry`] snapshot, plus a
//! strict parser for it (used by the golden tests and the CI smoke check,
//! and handy for scraping a dumped exposition back into numbers).
//!
//! The format follows the Prometheus text exposition conventions:
//! `# TYPE` comment per metric family, `name value` samples, histograms
//! expanded into cumulative `_bucket{le="..."}` samples plus `_sum` and
//! `_count`. Only the subset the registry produces is supported — no
//! arbitrary labels, timestamps or `# HELP` lines.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
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

/// Splits an HTTP response into its body (everything past the blank line
/// separating the headers), for scrape clients that want to feed the body
/// back through [`parse`]. `None` if the header terminator is missing.
pub fn http_body(response: &str) -> Option<&str> {
    response.split_once("\r\n\r\n").map(|(_, body)| body)
}

/// One parsed sample line: metric name, labels, value.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// The sample name (including `_bucket`/`_sum`/`_count` suffixes).
    pub name: String,
    /// The `le` label for histogram bucket samples (convenience view of
    /// `labels`).
    pub le: Option<String>,
    /// The full label set, in source order (histogram buckets carry `le`;
    /// the run-info sample carries the provenance labels).
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
    /// The value exactly as it appeared in the source text. Kept because
    /// `u64` counters and histogram sums above 2⁵³ do not round-trip
    /// through `f64`; [`render_exposition`] echoes this token so
    /// re-rendering is byte-identical.
    pub raw: String,
}

/// A parsed exposition: declared metric families and their samples.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Exposition {
    /// `# TYPE` declarations: family name → kind (`counter` / `gauge` /
    /// `histogram`).
    pub families: BTreeMap<String, String>,
    /// All samples in input order.
    pub samples: Vec<Sample>,
}

impl Exposition {
    /// The value of the sample named `name` (first match).
    pub fn value(&self, name: &str) -> Option<f64> {
        self.samples
            .iter()
            .find(|s| s.name == name && s.le.is_none())
            .map(|s| s.value)
    }
}

/// An exposition parse error: line number plus message.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpoError {
    /// 1-based line number where parsing failed.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ExpoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "exposition parse error on line {}: {}",
            self.line, self.message
        )
    }
}

impl Error for ExpoError {}

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Parses the subset of the text exposition format that [`render`] emits.
///
/// Strict by design — the CI smoke job uses this to assert that what the
/// service exposes is well-formed: unknown comment forms, malformed
/// labels, non-numeric values and samples without a family declaration
/// are all errors.
pub fn parse(input: &str) -> Result<Exposition, ExpoError> {
    let mut out = Exposition::default();
    for (idx, raw) in input.lines().enumerate() {
        let lineno = idx + 1;
        let err = |message: &str| ExpoError {
            line: lineno,
            message: message.to_string(),
        };
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().ok_or_else(|| err("missing family name"))?;
            let kind = parts.next().ok_or_else(|| err("missing family kind"))?;
            if parts.next().is_some() {
                return Err(err("trailing tokens after family kind"));
            }
            if !valid_name(name) {
                return Err(err("invalid family name"));
            }
            if !matches!(kind, "counter" | "gauge" | "histogram") {
                return Err(err("unknown family kind"));
            }
            out.families.insert(name.to_string(), kind.to_string());
            continue;
        }
        if line.starts_with('#') {
            return Err(err("unsupported comment (only '# TYPE' is emitted)"));
        }
        // Sample: name[{le="bound"}] value
        let (name_part, value_part) = line
            .rsplit_once(' ')
            .ok_or_else(|| err("sample line needs 'name value'"))?;
        let value: f64 = match value_part {
            "+Inf" => f64::INFINITY,
            v => v.parse().map_err(|_| err("non-numeric sample value"))?,
        };
        let (name, labels) = match name_part.split_once('{') {
            None => (name_part.to_string(), Vec::new()),
            Some((name, labels)) => {
                let labels = labels
                    .strip_suffix('}')
                    .ok_or_else(|| err("unterminated label set"))?;
                (name.to_string(), parse_labels(labels).map_err(&err)?)
            }
        };
        let le = labels
            .iter()
            .find(|(k, _)| k == "le")
            .map(|(_, v)| v.clone());
        if !valid_name(&name) {
            return Err(err("invalid sample name"));
        }
        let family = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .filter(|f| out.families.get(*f).map(String::as_str) == Some("histogram"))
            .unwrap_or(&name);
        if !out.families.contains_key(family) {
            return Err(err("sample without a preceding # TYPE declaration"));
        }
        out.samples.push(Sample {
            name,
            le,
            labels,
            value,
            raw: value_part.to_string(),
        });
    }
    Ok(out)
}

/// Parses the inside of a `{...}` label set: `key="value"` pairs separated
/// by commas, with `\\`, `\"` and `\n` escapes in values. Strict: anything
/// else is an error.
fn parse_labels(input: &str) -> Result<Vec<(String, String)>, &'static str> {
    let mut labels = Vec::new();
    let mut chars = input.chars().peekable();
    loop {
        let mut key = String::new();
        for c in chars.by_ref() {
            if c == '=' {
                break;
            }
            key.push(c);
        }
        if !valid_name(&key) {
            return Err("invalid label name");
        }
        if chars.next() != Some('"') {
            return Err("label value must be quoted");
        }
        let mut value = String::new();
        let mut closed = false;
        while let Some(c) = chars.next() {
            match c {
                '"' => {
                    closed = true;
                    break;
                }
                '\\' => match chars.next() {
                    Some('\\') => value.push('\\'),
                    Some('"') => value.push('"'),
                    Some('n') => value.push('\n'),
                    _ => return Err("invalid escape in label value"),
                },
                c => value.push(c),
            }
        }
        if !closed {
            return Err("unterminated label value");
        }
        labels.push((key, value));
        match chars.next() {
            None => return Ok(labels),
            Some(',') => continue,
            Some(_) => return Err("expected ',' between labels"),
        }
    }
}

/// Re-renders a parsed exposition to text. On anything [`parse`] accepted
/// this reproduces the input byte-for-byte (the round-trip the golden
/// tests assert): samples replay in source order, each family's `# TYPE`
/// line is emitted before its first sample, and integral values print
/// without a decimal point exactly as the original renderer wrote them.
pub fn render_exposition(expo: &Exposition) -> String {
    let mut out = String::new();
    let mut declared: Vec<&str> = Vec::new();
    for sample in &expo.samples {
        let family = sample
            .name
            .strip_suffix("_bucket")
            .or_else(|| sample.name.strip_suffix("_sum"))
            .or_else(|| sample.name.strip_suffix("_count"))
            .filter(|f| expo.families.get(*f).map(String::as_str) == Some("histogram"))
            .unwrap_or(&sample.name);
        if !declared.contains(&family) {
            declared.push(family);
            if let Some(kind) = expo.families.get(family) {
                let _ = writeln!(out, "# TYPE {family} {kind}");
            }
        }
        let _ = writeln!(
            out,
            "{}{} {}",
            sample.name,
            render_labels(&sample.labels),
            sample.raw
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
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
