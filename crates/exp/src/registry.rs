//! Append-only JSONL experiment registry.
//!
//! One line per run, written through the workspace JSON writer and
//! re-read with the strict parser — the registry rejects a store it
//! cannot fully account for rather than silently skipping lines. Each
//! record carries an *identity*: `(benchmark, config_hash, seed,
//! git_rev, git_dirty)`. Appending a record whose identity is already
//! present is a dedup no-op, so re-running a benchmark on an unchanged
//! tree does not grow the store. A run whose code cannot be named (rev
//! `unknown`, or a dirty tree) shares its identity with no other run.

use std::fmt;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use iba_obs::json::{self, content_hash, JsonObjWriter, JsonValue, Provenance};

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
    /// The record's dedup identity: same benchmark, same canonical
    /// config, same seed, same clean code revision ⇒ same identity.
    /// Wall time, timestamp and measured values are excluded — a re-run
    /// of an identical experiment is a duplicate even though its timings
    /// differ. A run of code the revision does not name (rev `unknown`,
    /// or a dirty tree) may be of any code, so its timestamp, wall time
    /// and measured values join the hash: it always appends, and a
    /// lookup that excludes its identity excludes only itself.
    pub fn identity_hash(&self) -> String {
        let mut pairs = vec![
            ("benchmark".to_string(), self.benchmark.clone()),
            ("config_hash".to_string(), self.config_hash.clone()),
            ("seed".to_string(), self.seed.to_string()),
            ("git_rev".to_string(), self.provenance.git_rev.clone()),
            (
                "git_dirty".to_string(),
                self.provenance.git_dirty.to_string(),
            ),
        ];
        if self.provenance.git_rev == "unknown" || self.provenance.git_dirty {
            pairs.push(("unix_time".to_string(), self.unix_time.to_string()));
            pairs.push(("wall_ms".to_string(), self.wall_ms.to_string()));
            pairs.extend(
                self.metrics
                    .iter()
                    .map(|(name, v)| (format!("metrics.{name}"), v.to_string())),
            );
        }
        content_hash(&pairs)
    }

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

    /// Parses a line written by [`RunRecord::to_json_line`]. Strict:
    /// every required field must be present and well-typed.
    pub fn from_json_line(line: &str) -> Result<RunRecord, RegistryError> {
        let v = json::parse(line).map_err(|e| RegistryError::new(format!("bad JSON: {e}")))?;
        let field = |name: &str| {
            v.get(name)
                .ok_or_else(|| RegistryError::new(format!("missing field '{name}'")))
        };
        let schema = field("schema")?
            .as_u64()
            .ok_or_else(|| RegistryError::new("mistyped 'schema'".to_string()))?;
        if schema != json::SCHEMA_VERSION {
            return Err(RegistryError::new(format!(
                "unsupported schema version {schema}"
            )));
        }
        let string = |name: &str| -> Result<String, RegistryError> {
            field(name)?
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| RegistryError::new(format!("mistyped '{name}'")))
        };
        let provenance = Provenance::from_value(field("provenance")?)
            .ok_or_else(|| RegistryError::new("malformed 'provenance'".to_string()))?;
        let metrics = match field("metrics")? {
            JsonValue::Object(fields) => {
                let mut out = Vec::with_capacity(fields.len());
                for (name, value) in fields {
                    let value = value.as_f64().ok_or_else(|| {
                        RegistryError::new(format!("non-numeric metric '{name}'"))
                    })?;
                    out.push((name.clone(), value));
                }
                out
            }
            _ => return Err(RegistryError::new("mistyped 'metrics'".to_string())),
        };
        Ok(RunRecord {
            benchmark: string("benchmark")?,
            config_hash: string("config_hash")?,
            seed: field("seed")?
                .as_u64()
                .ok_or_else(|| RegistryError::new("mistyped 'seed'".to_string()))?,
            provenance,
            wall_ms: field("wall_ms")?
                .as_f64()
                .ok_or_else(|| RegistryError::new("mistyped 'wall_ms'".to_string()))?,
            unix_time: field("unix_time")?
                .as_u64()
                .ok_or_else(|| RegistryError::new("mistyped 'unix_time'".to_string()))?,
            metrics,
        })
    }

    /// Looks up a metric by exact dotted-path name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}

/// Outcome of [`RunRegistry::append`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppendOutcome {
    /// The record was new and has been written to the store.
    Appended,
    /// A record with the same identity hash already exists; nothing was
    /// written.
    Deduplicated,
}

/// A registry error: load, parse or append failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegistryError {
    /// What went wrong.
    pub message: String,
}

impl RegistryError {
    fn new(message: String) -> RegistryError {
        RegistryError { message }
    }
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "registry error: {}", self.message)
    }
}

impl std::error::Error for RegistryError {}

/// The JSONL run store: an in-memory view plus the backing file path.
#[derive(Debug)]
pub struct RunRegistry {
    path: PathBuf,
    records: Vec<RunRecord>,
}

impl RunRegistry {
    /// Opens (or conceptually creates) the registry at `path`. A missing
    /// file is an empty registry; an unreadable or malformed file is an
    /// error — the store is never partially loaded.
    pub fn open(path: &Path) -> Result<RunRegistry, RegistryError> {
        let mut records = Vec::new();
        match std::fs::read_to_string(path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => {
                return Err(RegistryError::new(format!(
                    "cannot read {}: {e}",
                    path.display()
                )))
            }
            Ok(text) => {
                for (lineno, line) in text.lines().enumerate() {
                    if line.trim().is_empty() {
                        continue;
                    }
                    let record = RunRecord::from_json_line(line).map_err(|e| {
                        RegistryError::new(format!(
                            "{} line {}: {}",
                            path.display(),
                            lineno + 1,
                            e.message
                        ))
                    })?;
                    records.push(record);
                }
            }
        }
        Ok(RunRegistry {
            path: path.to_path_buf(),
            records,
        })
    }

    /// The backing file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// All records, in store order.
    pub fn records(&self) -> &[RunRecord] {
        &self.records
    }

    /// Appends `record` unless a record with the same identity hash is
    /// already present. Creates parent directories and the store file on
    /// first write.
    pub fn append(&mut self, record: RunRecord) -> Result<AppendOutcome, RegistryError> {
        let identity = record.identity_hash();
        if self.records.iter().any(|r| r.identity_hash() == identity) {
            return Ok(AppendOutcome::Deduplicated);
        }
        if let Some(parent) = self.path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(|e| {
                    RegistryError::new(format!("cannot create {}: {e}", parent.display()))
                })?;
            }
        }
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)
            .map_err(|e| RegistryError::new(format!("cannot open {}: {e}", self.path.display())))?;
        writeln!(file, "{}", record.to_json_line()).map_err(|e| {
            RegistryError::new(format!("cannot write {}: {e}", self.path.display()))
        })?;
        self.records.push(record);
        Ok(AppendOutcome::Appended)
    }

    /// The most recent record (by `unix_time`, ties broken by store
    /// order) for a benchmark + config hash, excluding records whose
    /// identity matches `excluding` (used to compare a fresh run against
    /// its predecessor rather than itself).
    pub fn latest_for(
        &self,
        benchmark: &str,
        config_hash: &str,
        excluding: Option<&str>,
    ) -> Option<&RunRecord> {
        self.records
            .iter()
            .filter(|r| r.benchmark == benchmark && r.config_hash == config_hash)
            .filter(|r| excluding != Some(r.identity_hash().as_str()))
            .max_by_key(|r| r.unix_time)
    }
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
    use iba_obs::json::SCHEMA_VERSION;

    fn sample_record(seed: u64) -> RunRecord {
        RunRecord {
            benchmark: "round_kernel".to_string(),
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
            metrics: vec![
                ("cells.0.arena.median_ns_per_round".to_string(), 1.25e6),
                ("cells.0.speedup".to_string(), 3.1),
            ],
        }
    }

    fn temp_store(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("iba-exp-registry-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir.join("registry.jsonl")
    }

    #[test]
    fn record_round_trips_through_json_line() {
        let record = sample_record(7);
        let line = record.to_json_line();
        let back = RunRecord::from_json_line(&line).unwrap();
        assert_eq!(back, record);
    }

    #[test]
    fn strict_parser_rejects_malformed_lines() {
        let good = sample_record(7).to_json_line();
        for bad in [
            "{}",
            "not json",
            &good.replace("\"seed\":7", "\"seed\":\"7\""),
            &good.replace("\"config_hash\"", "\"config_hashish\""),
            &good.replace("\"git_rev\":\"cafe0123\",", ""),
            &good.replace("1250000", "\"fast\""),
            &good.replace("\"schema\":1", "\"schema\":99"),
        ] {
            assert!(RunRecord::from_json_line(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn append_dedups_by_identity_and_persists() {
        let path = temp_store("dedup");
        let mut reg = RunRegistry::open(&path).unwrap();
        assert_eq!(
            reg.append(sample_record(1)).unwrap(),
            AppendOutcome::Appended
        );
        assert_eq!(
            reg.append(sample_record(2)).unwrap(),
            AppendOutcome::Appended
        );
        // Same identity (benchmark/config/seed/rev), different timings:
        // still a duplicate.
        let mut rerun = sample_record(1);
        rerun.wall_ms = 999.0;
        rerun.unix_time += 1000;
        rerun.metrics[0].1 = 2.0e6;
        assert_eq!(reg.append(rerun).unwrap(), AppendOutcome::Deduplicated);
        // A different revision is a new record.
        let mut new_rev = sample_record(1);
        new_rev.provenance.git_rev = "beef4567".to_string();
        assert_eq!(reg.append(new_rev).unwrap(), AppendOutcome::Appended);

        // Reload from disk: 3 records survive, dedup still applies.
        let mut reloaded = RunRegistry::open(&path).unwrap();
        assert_eq!(reloaded.records().len(), 3);
        assert_eq!(
            reloaded.append(sample_record(2)).unwrap(),
            AppendOutcome::Deduplicated
        );
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn unidentified_code_never_dedups() {
        let path = temp_store("unidentified");
        let mut reg = RunRegistry::open(&path).unwrap();
        // Two runs of one config and seed, a minute apart, outside a git
        // checkout, then two from a dirty tree: each may be other code.
        let run = |rev: &str, dirty: bool, minute: u64| {
            let mut r = sample_record(1);
            r.provenance.git_rev = rev.to_string();
            r.provenance.git_dirty = dirty;
            r.unix_time += 60 * minute;
            r.wall_ms += minute as f64;
            r
        };
        let runs = [
            run("unknown", false, 0),
            run("unknown", false, 1),
            run("cafe0123", true, 2),
            run("cafe0123", true, 3),
        ];
        for r in &runs {
            assert_eq!(reg.append(r.clone()).unwrap(), AppendOutcome::Appended);
        }
        // The identity survives the store's round trip, and excluding the
        // newest run's identity excludes only that run.
        let reloaded = RunRegistry::open(&path).unwrap();
        assert_eq!(reloaded.records(), &runs[..]);
        let newest = &runs[3];
        let prior = reloaded
            .latest_for(
                "round_kernel",
                &newest.config_hash,
                Some(&newest.identity_hash()),
            )
            .unwrap();
        assert_eq!(prior, &runs[2]);
        // A clean same-revision rerun still deduplicates.
        assert_eq!(
            reg.append(sample_record(1)).unwrap(),
            AppendOutcome::Appended
        );
        let mut rerun = sample_record(1);
        rerun.unix_time += 1000;
        rerun.wall_ms = 999.0;
        assert_eq!(reg.append(rerun).unwrap(), AppendOutcome::Deduplicated);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn latest_for_picks_newest_matching_record() {
        let path = temp_store("latest");
        let mut reg = RunRegistry::open(&path).unwrap();
        let older = sample_record(1);
        let mut newer = sample_record(1);
        newer.provenance.git_rev = "ffff1111".to_string();
        newer.unix_time += 500;
        reg.append(older.clone()).unwrap();
        reg.append(newer.clone()).unwrap();
        let hash = older.config_hash.clone();
        let found = reg.latest_for("round_kernel", &hash, None).unwrap();
        assert_eq!(found.provenance.git_rev, "ffff1111");
        // Excluding the newest identity falls back to its predecessor.
        let prior = reg
            .latest_for("round_kernel", &hash, Some(&newer.identity_hash()))
            .unwrap();
        assert_eq!(prior.provenance.git_rev, "cafe0123");
        assert!(reg.latest_for("unknown", &hash, None).is_none());
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn open_rejects_corrupt_store() {
        let path = temp_store("corrupt");
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, "{\"schema\":1,\"benchmark\":42}\n").unwrap();
        let err = RunRegistry::open(&path).unwrap_err();
        assert!(err.message.contains("line 1"), "{err}");
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }
}
