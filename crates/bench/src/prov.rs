//! Registry plumbing for the sweep: [`append_sweep_registry`] turns a
//! sweep's rows into one provenance-stamped
//! [`iba_exp::registry::RunRecord`] and appends it to a registry store
//! (dedup'd by identity) — but only once every row has passed its
//! Theorem-2 check, so a failed run never becomes the baseline that the
//! next gate compares against.

use std::path::Path;

use iba_exp::registry::{unix_time_now, AppendOutcome, RunRecord, RunRegistry};
use iba_obs::json::{content_hash, Provenance};
use iba_sim::output::Cell;

use crate::sweep::{SweepGrid, SweepRow, COLUMNS};

/// Checks every row against its Theorem-2 bound, then appends the run to
/// the registry: the config hash of `grid`, and one metric per numeric
/// cell as a dotted path (`rows.3.avg wait`). The `bound ok` verdict
/// column maps to 1/0. Returns the record's identity hash, by which the
/// gate finds it.
///
/// # Errors
///
/// A row past its bound (the registry is left untouched), or a registry
/// that cannot be read or written.
pub fn append_sweep_registry(
    registry_path: &Path,
    grid: &SweepGrid,
    rows: &[SweepRow],
    wall_ms: f64,
) -> Result<String, String> {
    if let Some(row) = rows.iter().find(|row| !row.within_bound()) {
        return Err(format!(
            "sweep self-validation failed: max wait {} exceeds the Theorem-2 bound {} \
             at c={}, lambda={}; nothing was recorded",
            row.wait_max, row.wait_bound, row.c, row.lambda
        ));
    }
    let mut metrics = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        for (key, cell) in COLUMNS.iter().zip(row.cells()) {
            let numeric = match cell {
                Cell::Float(v) => Some(v).filter(|v| v.is_finite()),
                Cell::Uint(v) => Some(v as f64),
                Cell::Int(v) => Some(v as f64),
                Cell::Text(s) if *key == "bound ok" => Some(if s == "yes" { 1.0 } else { 0.0 }),
                Cell::Text(_) => None,
            };
            if let Some(v) = numeric {
                metrics.push((format!("rows.{i}.{key}"), v));
            }
        }
    }
    let record = RunRecord {
        benchmark: "sweep".to_string(),
        config_hash: content_hash(&grid.config_pairs()),
        seed: grid.master_seed,
        provenance: Provenance::collect(),
        wall_ms,
        unix_time: unix_time_now(),
        metrics,
    };
    let identity = record.identity_hash();
    let mut registry = RunRegistry::open(registry_path).map_err(|e| e.to_string())?;
    match registry.append(record).map_err(|e| e.to_string())? {
        AppendOutcome::Appended => {
            eprintln!("registry: appended run to {}", registry_path.display());
        }
        AppendOutcome::Deduplicated => eprintln!(
            "registry: identical run already recorded in {} (dedup)",
            registry_path.display()
        ),
    }
    Ok(identity)
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

    fn grid() -> SweepGrid {
        SweepGrid {
            n: 2048,
            capacities: vec![2],
            lambdas: vec![0.75, 0.9375],
            window: 150,
            seeds: 1,
            master_seed: 7,
        }
    }

    fn row(lambda: f64, pool_per_bin: f64, wait_max: f64) -> SweepRow {
        SweepRow {
            lambda,
            c: 2,
            pool_per_bin,
            mf_pool_per_bin: 0.0,
            wait_mean: 1.0,
            mf_wait: 1.0,
            wait_max,
            wait_envelope: 5.0,
            wait_bound: 30.0,
        }
    }

    #[test]
    fn sweep_rows_flatten_with_bound_verdict() {
        let dir = temp_dir("sweep");
        let registry = dir.join("registry.jsonl");
        let rows = [row(0.75, 0.01, 4.0), row(0.9375, 0.2, 9.0)];
        let identity = append_sweep_registry(&registry, &grid(), &rows, 5.0).unwrap();
        let store = RunRegistry::open(&registry).unwrap();
        let record = &store.records()[0];
        assert_eq!(record.identity_hash(), identity);
        assert_eq!(record.benchmark, "sweep");
        assert_eq!(record.config_hash, content_hash(&grid().config_pairs()));
        assert_eq!(record.metric("rows.0.bound ok"), Some(1.0));
        assert_eq!(record.metric("rows.1.bound ok"), Some(1.0));
        assert_eq!(record.metric("rows.1.pool/n"), Some(0.2));
        assert_eq!(record.metric("rows.1.c"), Some(2.0));
        // lambda is a string column: present in the row, absent from the
        // numeric metrics.
        assert_eq!(record.metric("rows.0.lambda"), None);
        assert_eq!(record.metrics.len(), 2 * (COLUMNS.len() - 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_row_past_the_theorem2_bound_records_nothing() {
        let dir = temp_dir("past-bound");
        let registry = dir.join("registry.jsonl");
        let rows = [row(0.75, 0.01, 4.0), row(0.9375, 0.2, 31.0)];
        let err = append_sweep_registry(&registry, &grid(), &rows, 5.0).unwrap_err();
        assert!(err.contains("Theorem-2"), "{err}");
        assert!(!registry.exists(), "the registry was written");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
