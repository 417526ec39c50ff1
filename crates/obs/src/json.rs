//! The workspace's single hand-rolled JSON implementation: an append-only
//! object writer for JSON-lines emission, and a small recursive-descent
//! reader.
//!
//! Every JSONL producer in the workspace (`ServeSnapshot`, the experiment
//! run registry, flight-recorder post-mortems) renders through
//! [`JsonObjWriter`] so string escaping and the leading [`SCHEMA_VERSION`]
//! field are implemented exactly once. The build environment is std-only
//! (no `serde_json`), hence hand-rolled.
//!
//! The program never reads its own JSON back. [`parse`] and [`JsonValue`]
//! have no caller outside tests: the unit and integration tests check
//! emitted lines with them, and so does the benchmark's contract test
//! (ROADMAP item 3 takes the reader out of the library).

use std::error::Error;
use std::fmt;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Version stamped into every JSON line the workspace emits (the `schema`
/// field). Bump when a line format changes incompatibly.
pub const SCHEMA_VERSION: u64 = 1;

/// FNV-1a 64-bit hash. Used for content-hashing experiment configurations:
/// unlike `DefaultHasher` it is specified, stable across Rust releases and
/// platforms, and trivially re-implementable by external tooling reading
/// the registry.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Content hash of an ordered `key=value` configuration list, rendered as
/// `fnv1a:<16 hex digits>`. The canonical form is `k=v;` pairs in the
/// given order — callers must list parameters in a fixed order so the
/// same configuration always hashes identically.
pub fn content_hash(pairs: &[(String, String)]) -> String {
    let mut canon = String::new();
    for (k, v) in pairs {
        canon.push_str(k);
        canon.push('=');
        canon.push_str(v);
        canon.push(';');
    }
    format!("fnv1a:{:016x}", fnv1a64(canon.as_bytes()))
}

/// Run provenance: where, when-ish (git), and on what hardware a
/// measurement was taken. Every registry record and flight-recorder
/// post-mortem carries one of these so a number can always be traced
/// back to the code revision and host that produced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Provenance {
    /// JSON schema version ([`SCHEMA_VERSION`] at emission time).
    pub schema_version: u64,
    /// Git revision of the working tree (`unknown` when no repository or
    /// git binary is reachable).
    pub git_rev: String,
    /// Whether the working tree had uncommitted changes (best effort;
    /// `false` when it could not be determined).
    pub git_dirty: bool,
    /// Hostname of the machine that ran the measurement.
    pub host: String,
    /// `std::thread::available_parallelism()` on that machine.
    pub cores: u64,
    /// Acceptance-kernel name, when the run had one (`arena`; records
    /// from older revisions may name since-deleted kernels such as
    /// `scalar`).
    pub kernel: Option<String>,
    /// Thread count of the round loop, when the run had one (1: the
    /// service steps one process on its driver; records from older
    /// revisions counted one thread per shard).
    pub threads: Option<u64>,
}

impl Provenance {
    /// Collects provenance for the current process: git revision + dirty
    /// flag (via the `git` binary, falling back to reading `.git/HEAD`
    /// directly, falling back to `unknown`), hostname, and core count.
    /// Never fails — absent information degrades to placeholders.
    pub fn collect() -> Provenance {
        let (git_rev, git_dirty) = git_describe();
        Provenance {
            schema_version: SCHEMA_VERSION,
            git_rev,
            git_dirty,
            host: hostname(),
            cores: std::thread::available_parallelism().map_or(1, |c| c.get() as u64),
            kernel: None,
            threads: None,
        }
    }

    /// Returns `self` with the execution shape attached: the kernel name
    /// and the thread count.
    pub fn with_execution(mut self, kernel: &str, threads: usize) -> Provenance {
        self.kernel = Some(kernel.to_string());
        self.threads = Some(threads as u64);
        self
    }

    /// Renders the provenance as a single-line JSON object.
    pub fn to_json_object(&self) -> String {
        let mut w = JsonObjWriter::new();
        w.field_u64("schema_version", self.schema_version);
        w.field_str("git_rev", &self.git_rev);
        w.field_bool("git_dirty", self.git_dirty);
        w.field_str("host", &self.host);
        w.field_u64("cores", self.cores);
        if let Some(kernel) = &self.kernel {
            w.field_str("kernel", kernel);
        }
        if let Some(threads) = self.threads {
            w.field_u64("threads", threads);
        }
        w.finish()
    }
}

/// Best-effort hostname: `/proc/sys/kernel/hostname`, then `$HOSTNAME`,
/// then a placeholder.
fn hostname() -> String {
    if let Ok(name) = std::fs::read_to_string("/proc/sys/kernel/hostname") {
        let name = name.trim();
        if !name.is_empty() {
            return name.to_string();
        }
    }
    match std::env::var("HOSTNAME") {
        Ok(name) if !name.trim().is_empty() => name.trim().to_string(),
        _ => "unknown-host".to_string(),
    }
}

/// Best-effort `(git_rev, dirty)`: asks the `git` binary first, then reads
/// the `.git/HEAD` reference chain directly (covers hosts without git in
/// `PATH`), then gives up with `("unknown", false)`.
fn git_describe() -> (String, bool) {
    if let Some(rev) = git_command(&["rev-parse", "HEAD"]) {
        let dirty = git_command(&["status", "--porcelain"]).is_some_and(|s| !s.is_empty());
        return (rev, dirty);
    }
    (
        read_git_head().unwrap_or_else(|| "unknown".to_string()),
        false,
    )
}

/// Runs `git <args>` and returns trimmed stdout on success.
fn git_command(args: &[&str]) -> Option<String> {
    let out = std::process::Command::new("git").args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    Some(String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Resolves HEAD by walking up from the current directory to the nearest
/// `.git` and following one level of `ref:` indirection (loose ref file or
/// `packed-refs`).
fn read_git_head() -> Option<String> {
    let mut dir: PathBuf = std::env::current_dir().ok()?;
    let git_dir = loop {
        let candidate = dir.join(".git");
        if candidate.is_dir() {
            break candidate;
        }
        if !dir.pop() {
            return None;
        }
    };
    let head = std::fs::read_to_string(git_dir.join("HEAD")).ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => Some(head.to_string()), // detached HEAD: the hash itself
        Some(reference) => resolve_git_ref(&git_dir, reference),
    }
}

fn resolve_git_ref(git_dir: &Path, reference: &str) -> Option<String> {
    if let Ok(hash) = std::fs::read_to_string(git_dir.join(reference)) {
        return Some(hash.trim().to_string());
    }
    let packed = std::fs::read_to_string(git_dir.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (hash, name) = line.split_once(' ')?;
        (name == reference).then(|| hash.to_string())
    })
}

/// Appends `s` to `out` as the *contents* of a JSON string (no surrounding
/// quotes), escaping quotes, backslashes and control characters per
/// RFC 8259.
pub fn escape_into(out: &mut String, s: &str) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Renders an `f64` the way the workspace's JSON lines expect: finite
/// values via Rust's shortest round-trip formatting, non-finite values as
/// `null` (JSON has no NaN/Infinity).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Builder for one JSON object rendered onto a single line.
///
/// # Examples
///
/// ```
/// use iba_obs::json::JsonObjWriter;
/// let mut w = JsonObjWriter::with_schema();
/// w.field_u64("round", 7);
/// w.field_str("label", "a \"quoted\" name");
/// assert_eq!(
///     w.finish(),
///     "{\"schema\":1,\"round\":7,\"label\":\"a \\\"quoted\\\" name\"}"
/// );
/// ```
#[derive(Debug, Clone)]
pub struct JsonObjWriter {
    buf: String,
    needs_comma: bool,
}

impl Default for JsonObjWriter {
    fn default() -> Self {
        JsonObjWriter::new()
    }
}

impl JsonObjWriter {
    /// Starts an empty object (`{`).
    pub fn new() -> Self {
        JsonObjWriter {
            buf: String::from("{"),
            needs_comma: false,
        }
    }

    /// Starts an object whose first field is `"schema":`[`SCHEMA_VERSION`].
    pub fn with_schema() -> Self {
        let mut w = JsonObjWriter::new();
        w.field_u64("schema", SCHEMA_VERSION);
        w
    }

    fn key(&mut self, name: &str) {
        if self.needs_comma {
            self.buf.push(',');
        }
        self.needs_comma = true;
        self.buf.push('"');
        escape_into(&mut self.buf, name);
        self.buf.push_str("\":");
    }

    /// Appends an unsigned integer field.
    pub fn field_u64(&mut self, name: &str, v: u64) {
        self.key(name);
        let _ = write!(self.buf, "{v}");
    }

    /// Appends a floating-point field (shortest round-trip formatting;
    /// non-finite values render as `null`).
    pub fn field_f64(&mut self, name: &str, v: f64) {
        self.key(name);
        self.buf.push_str(&number(v));
    }

    /// Appends a floating-point field with fixed decimal `precision`
    /// (non-finite values render as `null`).
    pub fn field_f64_fixed(&mut self, name: &str, v: f64, precision: usize) {
        self.key(name);
        if v.is_finite() {
            let _ = write!(self.buf, "{v:.precision$}");
        } else {
            self.buf.push_str("null");
        }
    }

    /// Appends a string field (escaped).
    pub fn field_str(&mut self, name: &str, v: &str) {
        self.key(name);
        self.buf.push('"');
        escape_into(&mut self.buf, v);
        self.buf.push('"');
    }

    /// Appends a boolean field.
    pub fn field_bool(&mut self, name: &str, v: bool) {
        self.key(name);
        self.buf.push_str(if v { "true" } else { "false" });
    }

    /// Appends a `null` field.
    pub fn field_null(&mut self, name: &str) {
        self.key(name);
        self.buf.push_str("null");
    }

    /// Appends a field whose value is `raw`, already-rendered JSON. The
    /// caller is responsible for `raw` being well-formed.
    pub fn field_raw(&mut self, name: &str, raw: &str) {
        self.key(name);
        self.buf.push_str(raw);
    }

    /// Appends an array field of already-rendered JSON values.
    pub fn field_raw_array(&mut self, name: &str, values: &[String]) {
        self.key(name);
        self.buf.push('[');
        for (i, v) in values.iter().enumerate() {
            if i > 0 {
                self.buf.push(',');
            }
            self.buf.push_str(v);
        }
        self.buf.push(']');
    }

    /// Closes the object (`}`) and returns the rendered line (no trailing
    /// newline).
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// A parsed JSON value.
///
/// Objects preserve field order (a `Vec` of pairs, not a map): the
/// round-trip tests compare emitted and re-parsed lines field-for-field.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Number(f64),
    /// A string (unescaped).
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in source field order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up `key` in an object (first match); `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one.
    ///
    /// The upper bound is **exclusive** of 2⁶⁴: `u64::MAX as f64` rounds
    /// *up* to 2⁶⁴ (not representable in `u64`), so an inclusive
    /// comparison against it would accept a parsed 2⁶⁴ and silently
    /// saturate on the `as u64` cast. The largest accepted value is
    /// therefore 2⁶⁴ − 2048, the largest `f64` below 2⁶⁴.
    pub fn as_u64(&self) -> Option<u64> {
        const TWO_POW_64: f64 = 18446744073709551616.0;
        match self {
            JsonValue::Number(v) if *v >= 0.0 && v.fract() == 0.0 && *v < TWO_POW_64 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(v) => Some(v),
            _ => None,
        }
    }
}

/// A JSON parse error: byte offset plus message.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl Error for JsonError {}

/// Parses one complete JSON value (trailing whitespace allowed, trailing
/// garbage rejected).
///
/// # Examples
///
/// ```
/// use iba_obs::json::{parse, JsonValue};
/// let v = parse("{\"a\":[1,2],\"b\":null}").unwrap();
/// assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 2);
/// assert_eq!(v.get("b"), Some(&JsonValue::Null));
/// assert!(parse("{\"a\":}").is_err());
/// ```
pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after value"));
    }
    Ok(value)
}

const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", byte as char)))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, text: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{text}'")))
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        self.depth += 1;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by an escaped low surrogate.
                            let ch = if (0xD800..0xDC00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(c)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            match ch {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid unicode escape")),
                            }
                            continue; // hex4 advanced pos past the digits
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar. The input is a &str, so
                    // slicing at a char boundary is always possible.
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid UTF-8"))?;
                    let ch = s.chars().next().unwrap();
                    if (ch as u32) < 0x20 {
                        return Err(self.err("unescaped control character"));
                    }
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated unicode escape"));
        }
        let digits = &self.bytes[self.pos..self.pos + 4];
        let s = std::str::from_utf8(digits).map_err(|_| self.err("invalid unicode escape"))?;
        let cp = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid unicode escape"))?;
        self.pos += 4;
        Ok(cp)
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn writer_escapes_and_orders_fields() {
        let mut w = JsonObjWriter::new();
        w.field_str("s", "a\"b\\c\nd\u{1}");
        w.field_u64("u", 42);
        w.field_f64("f", 0.5);
        w.field_bool("t", true);
        w.field_null("z");
        let line = w.finish();
        assert_eq!(
            line,
            "{\"s\":\"a\\\"b\\\\c\\nd\\u0001\",\"u\":42,\
             \"f\":0.5,\"t\":true,\"z\":null}"
        );
    }

    #[test]
    fn writer_schema_field_comes_first() {
        let line = JsonObjWriter::with_schema().finish();
        assert_eq!(line, format!("{{\"schema\":{SCHEMA_VERSION}}}"));
    }

    #[test]
    fn writer_arrays_and_raw() {
        let mut w = JsonObjWriter::new();
        w.field_raw("o", "{\"x\":1}");
        w.field_raw_array("r", &["1".into(), "\"two\"".into()]);
        assert_eq!(w.finish(), "{\"o\":{\"x\":1},\"r\":[1,\"two\"]}");
    }

    #[test]
    fn non_finite_floats_render_null() {
        let mut w = JsonObjWriter::new();
        w.field_f64("nan", f64::NAN);
        w.field_f64_fixed("inf", f64::INFINITY, 3);
        assert_eq!(w.finish(), "{\"nan\":null,\"inf\":null}");
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let mut w = JsonObjWriter::with_schema();
        w.field_str("name", "weird \"\\\n\t chars");
        w.field_u64("n", u64::from(u32::MAX));
        w.field_f64("x", -1.25e-3);
        w.field_raw_array("xs", &["0".into(), "7".into()]);
        let line = w.finish();
        let v = parse(&line).unwrap();
        assert_eq!(v.get("schema").unwrap().as_u64(), Some(SCHEMA_VERSION));
        assert_eq!(
            v.get("name").unwrap().as_str(),
            Some("weird \"\\\n\t chars")
        );
        assert_eq!(v.get("n").unwrap().as_u64(), Some(u64::from(u32::MAX)));
        assert_eq!(v.get("x").unwrap().as_f64(), Some(-1.25e-3));
        let xs = v.get("xs").unwrap().as_array().unwrap();
        assert_eq!(
            xs.iter().map(|x| x.as_u64().unwrap()).collect::<Vec<_>>(),
            [0, 7]
        );
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "}",
            "{\"a\":}",
            "[1,]",
            "{\"a\" 1}",
            "\"unterminated",
            "01e",
            "nul",
            "{\"a\":1} extra",
            "\"bad \\q escape\"",
            "\"\\ud800\"", // lone high surrogate
        ] {
            assert!(parse(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn as_u64_is_exclusive_at_two_pow_64() {
        // Largest f64 strictly below 2^64: representable and in range.
        let below = parse("18446744073709549568").unwrap(); // 2^64 - 2048
        assert_eq!(below.as_u64(), Some(18_446_744_073_709_549_568));
        // 2^64 itself parses to exactly u64::MAX as f64 (which rounds up
        // to 2^64): must be rejected, not saturated to u64::MAX.
        let at = parse("18446744073709551616").unwrap(); // 2^64
        assert_eq!(at.as_u64(), None);
        // First representable f64 above 2^64: also rejected.
        let above = parse("18446744073709555712").unwrap(); // 2^64 + 4096
        assert_eq!(above.as_u64(), None);
        // Sanity either side of the boundary class.
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("0").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn parse_accepts_standard_forms() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse(" [ ] ").unwrap(), JsonValue::Array(vec![]));
        assert_eq!(parse("{}").unwrap(), JsonValue::Object(vec![]));
        assert_eq!(parse("-0.5e2").unwrap(), JsonValue::Number(-50.0));
        assert_eq!(
            parse("\"\\ud83d\\ude00\"").unwrap(),
            JsonValue::String("\u{1F600}".into())
        );
    }

    #[test]
    fn deep_nesting_is_rejected_not_overflowed() {
        let deep = "[".repeat(500) + &"]".repeat(500);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn content_hash_is_order_sensitive_and_stable() {
        let pairs = |v: &[(&str, &str)]| -> Vec<(String, String)> {
            v.iter()
                .map(|(k, val)| (k.to_string(), val.to_string()))
                .collect()
        };
        let a = content_hash(&pairs(&[("n", "1024"), ("c", "2")]));
        let b = content_hash(&pairs(&[("n", "1024"), ("c", "2")]));
        let c = content_hash(&pairs(&[("c", "2"), ("n", "1024")]));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(
            a.starts_with("fnv1a:") && a.len() == "fnv1a:".len() + 16,
            "{a}"
        );
    }

    /// Asserts that `v`, a parsed provenance object, holds every field
    /// of `prov`, in emission order, and no other.
    pub(crate) fn assert_provenance(v: &JsonValue, prov: &Provenance) {
        let mut expected = vec![
            (
                "schema_version",
                JsonValue::Number(prov.schema_version as f64),
            ),
            ("git_rev", JsonValue::String(prov.git_rev.clone())),
            ("git_dirty", JsonValue::Bool(prov.git_dirty)),
            ("host", JsonValue::String(prov.host.clone())),
            ("cores", JsonValue::Number(prov.cores as f64)),
        ];
        if let Some(kernel) = &prov.kernel {
            expected.push(("kernel", JsonValue::String(kernel.clone())));
        }
        if let Some(threads) = prov.threads {
            expected.push(("threads", JsonValue::Number(threads as f64)));
        }
        let expected: Vec<(String, JsonValue)> = expected
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        assert_eq!(v, &JsonValue::Object(expected));
    }

    #[test]
    fn provenance_round_trips_through_json() {
        let prov = Provenance {
            schema_version: SCHEMA_VERSION,
            git_rev: "0123abcd".into(),
            git_dirty: true,
            host: "bench-box \"quoted\"".into(),
            cores: 8,
            kernel: Some("arena_parallel".into()),
            threads: Some(4),
        };
        let line = prov.to_json_object();
        assert_provenance(&parse(&line).unwrap(), &prov);
        // The optional kernel fields really are optional.
        let bare = Provenance {
            kernel: None,
            threads: None,
            ..prov
        };
        assert_provenance(&parse(&bare.to_json_object()).unwrap(), &bare);
    }

    #[test]
    fn provenance_collect_never_fails() {
        let prov = Provenance::collect();
        assert!(!prov.git_rev.is_empty());
        assert!(!prov.host.is_empty());
        assert!(prov.cores >= 1);
        assert_eq!(prov.schema_version, SCHEMA_VERSION);
    }
}
