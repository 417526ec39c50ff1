//! Shared provenance plumbing for the benchmark harnesses.
//!
//! Every `*_baseline` binary funnels its finished JSON through
//! [`finalize`]: the document gains a single-line provenance block
//! (schema version, git rev + dirty flag, host, cores, kernel mode,
//! config content-hash), the output file is guarded against silently
//! overwriting a baseline with a *different* configuration, and — when
//! the caller passes a registry path — a flattened
//! [`iba_exp::registry::RunRecord`] is appended (dedup'd by identity).
//! The sweep binary, which emits a JSONL table instead of a `BENCH_*`
//! document, uses [`append_sweep_registry`].

use std::path::Path;

use iba_exp::bench_data::{config_pairs, flatten_metrics, provenance_json_with_hash};
use iba_exp::registry::{unix_time_now, AppendOutcome, RunRecord, RunRegistry};
use iba_obs::json::{self, content_hash, JsonValue, Provenance};

/// Stamps a rendered benchmark document with its provenance block,
/// returning `(stamped_json, config_hash)`. The block is inserted after
/// the top-level `"seed"` line, so hand formatting elsewhere survives.
pub fn stamp_json(
    benchmark: &str,
    rendered: &str,
    kernel: Option<(&str, usize)>,
) -> Result<(String, String), String> {
    let doc = json::parse(rendered).map_err(|e| format!("{benchmark}: emitted bad JSON: {e}"))?;
    let pairs = config_pairs(benchmark, &doc)
        .ok_or_else(|| format!("{benchmark}: no canonical config pairs defined"))?;
    let hash = content_hash(&pairs);
    let mut prov = Provenance::collect();
    if let Some((mode, threads)) = kernel {
        prov = prov.with_execution(mode, threads);
    }
    let block = provenance_json_with_hash(&prov, &hash);
    let anchor = rendered
        .find("\n  \"seed\":")
        .ok_or_else(|| format!("{benchmark}: no top-level \"seed\" line to anchor on"))?;
    let line_end = anchor
        + 1
        + rendered[anchor + 1..]
            .find('\n')
            .ok_or_else(|| format!("{benchmark}: truncated document"))?;
    let stamped = format!(
        "{}\n  \"provenance\": {block},{}",
        &rendered[..line_end],
        &rendered[line_end..]
    );
    json::parse(&stamped).map_err(|e| format!("{benchmark}: stamping broke the JSON: {e}"))?;
    Ok((stamped, hash))
}

/// Writes the stamped document to `path`, refusing to overwrite an
/// existing baseline whose embedded config hash differs — a quick-mode
/// run cannot clobber the committed full-scale numbers by accident.
/// `force` overrides the guard.
pub fn write_output(path: &Path, stamped: &str, hash: &str, force: bool) -> Result<(), String> {
    if !force {
        if let Ok(existing) = std::fs::read_to_string(path) {
            let existing_hash = json::parse(&existing)
                .ok()
                .as_ref()
                .and_then(|v| v.get("provenance"))
                .and_then(|p| p.get("config_hash"))
                .and_then(JsonValue::as_str)
                .map(str::to_string);
            if let Some(existing_hash) = existing_hash {
                if existing_hash != hash {
                    return Err(format!(
                        "{}: existing baseline has config hash {existing_hash} but this run \
                         produced {hash} — a differently-configured run would overwrite it \
                         (pass --force to allow, or use --out for a fresh path)",
                        path.display()
                    ));
                }
            }
        }
    }
    std::fs::write(path, stamped).map_err(|e| format!("failed to write {}: {e}", path.display()))
}

/// Builds a [`RunRecord`] from a stamped benchmark document and appends
/// it to the registry at `registry_path` (creating the store on first
/// use). Returns the append outcome so callers can report dedup.
pub fn append_registry(
    registry_path: &Path,
    stamped: &str,
    wall_ms: f64,
) -> Result<AppendOutcome, String> {
    let doc = json::parse(stamped).map_err(|e| format!("stamped document: {e}"))?;
    let benchmark = doc
        .get("benchmark")
        .and_then(JsonValue::as_str)
        .ok_or("stamped document: missing 'benchmark'")?
        .to_string();
    let seed = doc
        .get("seed")
        .and_then(JsonValue::as_u64)
        .ok_or("stamped document: missing 'seed'")?;
    let prov_value = doc
        .get("provenance")
        .ok_or("stamped document: missing 'provenance'")?;
    let provenance =
        Provenance::from_value(prov_value).ok_or("stamped document: malformed 'provenance'")?;
    let config_hash = prov_value
        .get("config_hash")
        .and_then(JsonValue::as_str)
        .ok_or("stamped document: provenance lacks 'config_hash'")?
        .to_string();
    let record = RunRecord {
        benchmark,
        config_hash,
        seed,
        provenance,
        wall_ms,
        unix_time: unix_time_now(),
        metrics: flatten_metrics(&doc),
    };
    append_record(registry_path, record)
}

/// Appends one sweep run to the registry: the canonical config pairs
/// come from the caller (via `iba_exp::bench_data::sweep_config_pairs`)
/// and the metrics from the emitted JSONL table, one dotted path per
/// numeric cell (`rows.3.avg wait`). The `bound ok` verdict column maps
/// to 1/0 so the Theorem-2 check is a gateable metric.
pub fn append_sweep_registry(
    registry_path: &Path,
    pairs: &[(String, String)],
    master_seed: u64,
    table_jsonl: &str,
    wall_ms: f64,
) -> Result<AppendOutcome, String> {
    let mut metrics = Vec::new();
    for (i, line) in table_jsonl.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let row = json::parse(line).map_err(|e| format!("sweep row {}: {e}", i + 1))?;
        let JsonValue::Object(fields) = &row else {
            return Err(format!("sweep row {}: not an object", i + 1));
        };
        for (key, value) in fields {
            if matches!(key.as_str(), "schema" | "table") {
                continue;
            }
            let numeric = match value {
                JsonValue::Number(v) => Some(*v),
                JsonValue::String(s) if key == "bound ok" => {
                    Some(if s == "yes" { 1.0 } else { 0.0 })
                }
                _ => None,
            };
            if let Some(v) = numeric {
                metrics.push((format!("rows.{i}.{key}"), v));
            }
        }
    }
    let record = RunRecord {
        benchmark: "sweep".to_string(),
        config_hash: content_hash(pairs),
        seed: master_seed,
        provenance: Provenance::collect(),
        wall_ms,
        unix_time: unix_time_now(),
        metrics,
    };
    append_record(registry_path, record)
}

fn append_record(registry_path: &Path, record: RunRecord) -> Result<AppendOutcome, String> {
    let mut registry = RunRegistry::open(registry_path).map_err(|e| e.to_string())?;
    let outcome = registry.append(record).map_err(|e| e.to_string())?;
    match outcome {
        AppendOutcome::Appended => {
            eprintln!("registry: appended run to {}", registry_path.display());
        }
        AppendOutcome::Deduplicated => eprintln!(
            "registry: identical run already recorded in {} (dedup)",
            registry_path.display()
        ),
    }
    Ok(outcome)
}

/// One call wiring a finished harness run into the provenance stack:
/// stamp, guarded write, optional registry append. Returns the stamped
/// JSON for the harness to print.
pub fn finalize(
    benchmark: &str,
    rendered: &str,
    out_path: &Path,
    registry: Option<&Path>,
    force: bool,
    kernel: Option<(&str, usize)>,
    wall_ms: f64,
) -> Result<String, String> {
    let (stamped, hash) = stamp_json(benchmark, rendered, kernel)?;
    write_output(out_path, &stamped, &hash, force)?;
    eprintln!("wrote {out_path} ({hash})", out_path = out_path.display());
    if let Some(registry_path) = registry {
        append_registry(registry_path, &stamped, wall_ms)?;
    }
    Ok(stamped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    const DOC: &str = "{\n  \"benchmark\": \"obs_overhead\",\n  \"regenerate\": \"x\",\n  \
                       \"seed\": 20210705,\n  \"warmup_rounds\": 4,\n  \"measured_rounds\": 2,\n  \
                       \"cells\": [\n    { \"n\": 1000, \"c\": 4, \"lambda\": 0.95, \
                       \"overhead_percent\": 3.5 }\n  ]\n}\n";

    fn temp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("iba-bench-prov-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn stamp_preserves_formatting_and_embeds_hash() {
        let (stamped, hash) = stamp_json("obs_overhead", DOC, Some(("arena", 1))).unwrap();
        // The provenance line lands right after the seed line; the rest
        // of the hand formatting is untouched.
        assert!(stamped.contains("\n  \"seed\": 20210705,\n  \"provenance\": {"));
        assert!(stamped.contains("\"overhead_percent\": 3.5"));
        let doc = json::parse(&stamped).unwrap();
        assert_eq!(
            doc.get("provenance")
                .unwrap()
                .get("config_hash")
                .unwrap()
                .as_str(),
            Some(hash.as_str())
        );
        assert_eq!(
            doc.get("provenance")
                .unwrap()
                .get("kernel")
                .unwrap()
                .as_str(),
            Some("arena")
        );
    }

    #[test]
    fn overwrite_guard_blocks_differing_config() {
        let dir = temp_dir("guard");
        let path = dir.join("BENCH_obs_overhead.json");
        let (stamped, hash) = stamp_json("obs_overhead", DOC, None).unwrap();
        write_output(&path, &stamped, &hash, false).unwrap();
        // Same config rewrites freely.
        write_output(&path, &stamped, &hash, false).unwrap();
        // A different config (different seed) is refused without --force.
        let other = DOC.replace("20210705", "42");
        let (other_stamped, other_hash) = stamp_json("obs_overhead", &other, None).unwrap();
        let err = write_output(&path, &other_stamped, &other_hash, false).unwrap_err();
        assert!(err.contains("--force"), "{err}");
        write_output(&path, &other_stamped, &other_hash, true).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn registry_append_flattens_and_dedups() {
        let dir = temp_dir("registry");
        let registry = dir.join("registry.jsonl");
        let (stamped, _) = stamp_json("obs_overhead", DOC, Some(("arena", 1))).unwrap();
        assert_eq!(
            append_registry(&registry, &stamped, 12.0).unwrap(),
            AppendOutcome::Appended
        );
        assert_eq!(
            append_registry(&registry, &stamped, 15.0).unwrap(),
            AppendOutcome::Deduplicated
        );
        let store = RunRegistry::open(&registry).unwrap();
        assert_eq!(store.records().len(), 1);
        let record = &store.records()[0];
        assert_eq!(record.benchmark, "obs_overhead");
        assert_eq!(record.metric("cells.0.overhead_percent"), Some(3.5));
        assert_eq!(record.provenance.kernel.as_deref(), Some("arena"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_rows_flatten_with_bound_verdict() {
        let dir = temp_dir("sweep");
        let registry = dir.join("registry.jsonl");
        let jsonl = "{\"schema\":1,\"table\":\"sweep over n = 2048\",\"lambda\":\"0.750000\",\
                     \"c\":2,\"pool/n\":0.01,\"bound ok\":\"yes\"}\n\
                     {\"schema\":1,\"table\":\"sweep over n = 2048\",\"lambda\":\"0.937500\",\
                     \"c\":2,\"pool/n\":0.2,\"bound ok\":\"NO\"}\n";
        let pairs = iba_exp::bench_data::sweep_config_pairs(2048, &[2], &[0.75, 0.9375], 150, 1, 7);
        append_sweep_registry(&registry, &pairs, 7, jsonl, 5.0).unwrap();
        let store = RunRegistry::open(&registry).unwrap();
        let record = &store.records()[0];
        assert_eq!(record.benchmark, "sweep");
        assert_eq!(record.metric("rows.0.bound ok"), Some(1.0));
        assert_eq!(record.metric("rows.1.bound ok"), Some(0.0));
        assert_eq!(record.metric("rows.1.pool/n"), Some(0.2));
        // lambda is a string column: present in the row, absent from the
        // numeric metrics.
        assert_eq!(record.metric("rows.0.lambda"), None);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
