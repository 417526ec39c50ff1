//! Append-only JSONL experiment registry.
//!
//! One line per run, written through the workspace JSON writer. The store
//! is write-only: [`append`] opens the file in append mode and never reads
//! it, so every run adds a line — a re-run of the same configuration on
//! the same tree appends a second one. Readers of the store (a plotting
//! script, `grep`) deduplicate as they see fit.

use std::io::Write as _;
use std::path::Path;

use iba_obs::json::{JsonObjWriter, Provenance};

/// One experiment run: what was measured, under which configuration, by
/// which code revision on which machine.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Benchmark name (`iba_top`, …).
    pub benchmark: String,
    /// Content hash of the canonical config pairs (`fnv1a:<hex>`).
    pub config_hash: String,
    /// Master RNG seed of the run.
    pub seed: u64,
    /// Where and on what the run happened.
    pub provenance: Provenance,
    /// Wall-clock duration of the run in milliseconds.
    pub wall_ms: f64,
    /// Seconds since the Unix epoch when the record was created.
    pub unix_time: u64,
    /// Flattened numeric results, dotted-path name → value, in emission
    /// order (e.g. `wait.p99`).
    pub metrics: Vec<(String, f64)>,
}

impl RunRecord {
    /// Renders the record as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut w = JsonObjWriter::with_schema();
        w.field_str("benchmark", &self.benchmark);
        w.field_str("config_hash", &self.config_hash);
        w.field_u64("seed", self.seed);
        w.field_raw("provenance", &self.provenance.to_json_object());
        w.field_f64("wall_ms", self.wall_ms);
        w.field_u64("unix_time", self.unix_time);
        let mut m = JsonObjWriter::new();
        for (name, value) in &self.metrics {
            m.field_f64(name, *value);
        }
        w.field_raw("metrics", &m.finish());
        w.finish()
    }
}

/// Appends `record` to the store at `path` as one line, creating the
/// parent directories and the file on first write.
///
/// # Errors
///
/// Returns the I/O error of creating, opening or writing the store.
pub fn append(path: &Path, record: &RunRecord) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(file, "{}", record.to_json_line())
}

/// Current seconds since the Unix epoch (0 if the clock is before 1970).
pub fn unix_time_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs())
}

#[cfg(test)]
mod tests {
    use super::*;
    use iba_obs::json::{parse, JsonValue, SCHEMA_VERSION};

    fn sample_record(seed: u64) -> RunRecord {
        RunRecord {
            benchmark: "iba_top".to_string(),
            config_hash: "fnv1a:00000000deadbeef".to_string(),
            seed,
            provenance: Provenance {
                schema_version: SCHEMA_VERSION,
                git_rev: "cafe0123".to_string(),
                git_dirty: false,
                host: "test-host".to_string(),
                cores: 8,
                kernel: Some("arena".to_string()),
                threads: Some(1),
            },
            wall_ms: 123.5,
            unix_time: 1_700_000_000 + seed,
            metrics: vec![("round".to_string(), 50.0), ("wait.p99".to_string(), 3.0)],
        }
    }

    #[test]
    fn record_round_trips_through_json_line() {
        let record = sample_record(7);
        let line = record.to_json_line();
        assert!(!line.contains('\n'));
        let v = parse(&line).unwrap();
        let field = |name: &str| v.get(name).unwrap_or_else(|| panic!("no '{name}'"));
        assert_eq!(field("schema").as_u64(), Some(SCHEMA_VERSION));
        assert_eq!(field("benchmark").as_str(), Some("iba_top"));
        assert_eq!(
            field("config_hash").as_str(),
            Some("fnv1a:00000000deadbeef")
        );
        assert_eq!(field("seed").as_u64(), Some(7));
        assert_eq!(
            field("provenance")
                .get("git_rev")
                .and_then(JsonValue::as_str),
            Some("cafe0123")
        );
        assert_eq!(field("wall_ms").as_f64(), Some(123.5));
        assert_eq!(field("unix_time").as_u64(), Some(1_700_000_007));
        assert_eq!(
            field("metrics"),
            &JsonValue::Object(vec![
                ("round".to_string(), JsonValue::Number(50.0)),
                ("wait.p99".to_string(), JsonValue::Number(3.0)),
            ])
        );
    }

    #[test]
    fn append_writes_every_record() {
        let dir = std::env::temp_dir().join(format!("iba-exp-registry-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // The parent directory does not exist yet: the first append
        // creates it.
        let path = dir.join("nested").join("registry.jsonl");
        // The same run twice, as two `iba-top --snapshot-json` runs of
        // one configuration on one tree append it: two lines.
        let record = sample_record(1);
        append(&path, &record).unwrap();
        append(&path, &record).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        for line in lines {
            assert!(line.contains("\"benchmark\":\"iba_top\""), "{line}");
            let v = parse(line).unwrap();
            assert_eq!(
                v.get("benchmark").and_then(JsonValue::as_str),
                Some("iba_top")
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
