//! A strict parser for the Prometheus text exposition that
//! `iba_obs::expo` renders, for tests only.
//!
//! The library writes its exposition and never reads it back; the tests
//! that hold the renderer to the format read it here. The file depends on
//! std alone, so every suite that scrapes or renders an exposition can
//! include it with `#[path = "…/expo_parse.rs"] mod expo_parse;`
//! (`expo_roundtrip`, `net_e2e` and `iba-obs`'s unit tests do). Each
//! includer uses a subset of it.
#![allow(dead_code)]

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

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

/// The family a sample belongs to: a histogram's `_bucket`, `_sum` and
/// `_count` samples resolve to the histogram, every other name to itself.
fn family_of<'a>(name: &'a str, families: &BTreeMap<String, String>) -> &'a str {
    name.strip_suffix("_bucket")
        .or_else(|| name.strip_suffix("_sum"))
        .or_else(|| name.strip_suffix("_count"))
        .filter(|f| families.get(*f).map(String::as_str) == Some("histogram"))
        .unwrap_or(name)
}

/// Parses the subset of the text exposition format that
/// `iba_obs::expo::render` emits.
///
/// Strict by design: unknown comment forms, malformed labels,
/// non-numeric values and samples without a family declaration are all
/// errors.
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
        if !out.families.contains_key(family_of(&name, &out.families)) {
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
/// this reproduces the input byte-for-byte (the round trip
/// `expo_roundtrip` asserts): samples replay in source order, each
/// family's `# TYPE` line is emitted before its first sample, and every
/// value is echoed as its source token. Label values are escaped the way
/// the library's renderer escapes them.
pub fn render_exposition(expo: &Exposition) -> String {
    let mut out = String::new();
    let mut declared: Vec<&str> = Vec::new();
    for sample in &expo.samples {
        let family = family_of(&sample.name, &expo.families);
        if !declared.contains(&family) {
            declared.push(family);
            if let Some(kind) = expo.families.get(family) {
                let _ = writeln!(out, "# TYPE {family} {kind}");
            }
        }
        let _ = write!(out, "{}", sample.name);
        if !sample.labels.is_empty() {
            out.push('{');
            for (i, (key, value)) in sample.labels.iter().enumerate() {
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
        }
        let _ = writeln!(out, " {}", sample.raw);
    }
    out
}
