//! Registry plumbing for the sweep binary.
//!
//! The sweep emits a JSONL table; [`append_sweep_registry`] turns it into
//! one provenance-stamped [`iba_exp::registry::RunRecord`] and appends it
//! to a registry store (dedup'd by identity).

use std::path::Path;

use iba_exp::registry::{unix_time_now, AppendOutcome, RunRecord, RunRegistry};
use iba_obs::json::{self, content_hash, JsonValue, Provenance};

/// Appends one sweep run to the registry: the canonical config pairs
/// come from the caller (via `iba_exp::registry::sweep_config_pairs`)
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("iba-bench-prov-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn sweep_rows_flatten_with_bound_verdict() {
        let dir = temp_dir("sweep");
        let registry = dir.join("registry.jsonl");
        let jsonl = "{\"schema\":1,\"table\":\"sweep over n = 2048\",\"lambda\":\"0.750000\",\
                     \"c\":2,\"pool/n\":0.01,\"bound ok\":\"yes\"}\n\
                     {\"schema\":1,\"table\":\"sweep over n = 2048\",\"lambda\":\"0.937500\",\
                     \"c\":2,\"pool/n\":0.2,\"bound ok\":\"NO\"}\n";
        let pairs = iba_exp::registry::sweep_config_pairs(2048, &[2], &[0.75, 0.9375], 150, 1, 7);
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
