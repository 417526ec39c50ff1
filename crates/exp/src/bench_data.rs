//! Loader for the committed `BENCH_*.json` baselines.
//!
//! Two jobs: flatten every numeric leaf of a benchmark file into
//! dotted-path metrics (`cells.0.arena.median_ns_per_round`), and
//! recover each benchmark's *canonical config pairs* — the ordered
//! `key=value` list whose [`content_hash`] identifies the experiment
//! configuration. The harnesses, the baseline stamper and the regression
//! gate all call [`config_pairs`] on the emitted JSON, so the three can
//! never disagree about what a configuration is.

use std::path::{Path, PathBuf};

use iba_obs::json::{self, content_hash, JsonValue, Provenance};

/// A parsed benchmark output file.
#[derive(Debug, Clone)]
pub struct BenchFile {
    /// Where it was loaded from.
    pub path: PathBuf,
    /// The `benchmark` field (harness name).
    pub benchmark: String,
    /// Embedded provenance block, when the file has been stamped.
    pub provenance: Option<Provenance>,
    /// Embedded config hash (lives inside the provenance block).
    pub config_hash: Option<String>,
    /// Every numeric leaf, dotted-path name → value, in file order.
    pub metrics: Vec<(String, f64)>,
    /// The full parsed document.
    pub value: JsonValue,
}

impl BenchFile {
    /// Loads and flattens a benchmark JSON file.
    pub fn load(path: &Path) -> Result<BenchFile, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let value =
            json::parse(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))?;
        let benchmark = value
            .get("benchmark")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("{}: missing 'benchmark' field", path.display()))?
            .to_string();
        let prov_value = value.get("provenance");
        let provenance = prov_value.and_then(Provenance::from_value);
        if prov_value.is_some() && provenance.is_none() {
            return Err(format!("{}: malformed 'provenance' block", path.display()));
        }
        let config_hash = prov_value
            .and_then(|p| p.get("config_hash"))
            .and_then(JsonValue::as_str)
            .map(str::to_string);
        let metrics = flatten_metrics(&value);
        Ok(BenchFile {
            path: path.to_path_buf(),
            benchmark,
            provenance,
            config_hash,
            metrics,
            value,
        })
    }

    /// The content hash of this file's canonical config pairs (computed
    /// fresh from the document, not read from the provenance block).
    pub fn computed_config_hash(&self) -> Option<String> {
        config_pairs(&self.benchmark, &self.value).map(|p| content_hash(&p))
    }
}

/// Flattens every numeric leaf of `value` into `(dotted.path, value)`
/// pairs, in document order. Booleans flatten to 0/1 (so invariants like
/// `bounded_load_wins_every_event` are gateable); strings and the
/// `provenance` / `schema` bookkeeping subtrees are skipped.
pub fn flatten_metrics(value: &JsonValue) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    flatten_into(value, &mut String::new(), &mut out, true);
    out
}

fn flatten_into(value: &JsonValue, path: &mut String, out: &mut Vec<(String, f64)>, root: bool) {
    match value {
        JsonValue::Number(v) => out.push((path.clone(), *v)),
        JsonValue::Bool(b) => out.push((path.clone(), if *b { 1.0 } else { 0.0 })),
        JsonValue::Object(fields) => {
            for (key, child) in fields {
                if root && matches!(key.as_str(), "provenance" | "schema") {
                    continue;
                }
                let len = path.len();
                if !path.is_empty() {
                    path.push('.');
                }
                path.push_str(key);
                flatten_into(child, path, out, false);
                path.truncate(len);
            }
        }
        JsonValue::Array(items) => {
            for (i, child) in items.iter().enumerate() {
                let len = path.len();
                if !path.is_empty() {
                    path.push('.');
                }
                path.push_str(&i.to_string());
                flatten_into(child, path, out, false);
                path.truncate(len);
            }
        }
        JsonValue::Null | JsonValue::String(_) => {}
    }
}

/// Renders a JSON number for canonical config hashing: integral values
/// without a fractional part (`1024`, not `1024.0`), everything else via
/// shortest round-trip formatting.
pub fn canon_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9.0e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// The canonical ordered config pairs for a benchmark document — the
/// parameters that *define* the experiment (sizes, rates, seeds), none
/// of its measurements. `None` when the benchmark is unknown or the
/// document lacks a required parameter; callers treat that as an error
/// rather than hashing a partial config.
pub fn config_pairs(benchmark: &str, doc: &JsonValue) -> Option<Vec<(String, String)>> {
    let mut pairs: Vec<(String, String)> = vec![("benchmark".to_string(), benchmark.to_string())];
    let push = |pairs: &mut Vec<(String, String)>, key: &str, v: Option<f64>| -> Option<()> {
        pairs.push((key.to_string(), canon_num(v?)));
        Some(())
    };
    let num = |v: &JsonValue, key: &str| v.get(key).and_then(JsonValue::as_f64);
    match benchmark {
        "obs_overhead" => {
            push(&mut pairs, "seed", num(doc, "seed"))?;
            push(&mut pairs, "warmup_rounds", num(doc, "warmup_rounds"))?;
            push(&mut pairs, "measured_rounds", num(doc, "measured_rounds"))?;
            let cells = doc.get("cells")?.as_array()?;
            let first = cells.first()?;
            push(&mut pairs, "n", num(first, "n"))?;
            push(&mut pairs, "lambda", num(first, "lambda"))?;
            let cs: Vec<String> = cells
                .iter()
                .map(|cell| num(cell, "c").map(canon_num))
                .collect::<Option<_>>()?;
            pairs.push(("c".to_string(), cs.join(",")));
        }
        "serve_net" => {
            push(&mut pairs, "seed", num(doc, "seed"))?;
            let server = doc.get("server")?;
            for key in ["n", "c", "shards", "round_interval_us", "window", "batch"] {
                push(&mut pairs, key, num(server, key))?;
            }
            push(&mut pairs, "requests", num(doc, "requests"))?;
        }
        "net_chaos" => {
            push(&mut pairs, "seed", num(doc, "seed"))?;
            let server = doc.get("server")?;
            for key in [
                "n",
                "c",
                "shards",
                "round_interval_us",
                "clients",
                "chaos_ingress",
                "shed_start",
            ] {
                push(&mut pairs, key, num(server, key))?;
            }
            push(&mut pairs, "requests", num(doc.get("calm")?, "requests"))?;
        }
        "membership" => {
            push(&mut pairs, "seed", num(doc, "seed"))?;
            let router = doc.get("router")?;
            for key in ["keys", "initial_bins", "vnodes_per_bin", "epsilon"] {
                push(&mut pairs, key, num(router, key))?;
            }
        }
        _ => return None,
    }
    Some(pairs)
}

/// The canonical config pairs of a parameter sweep. The `sweep` binary
/// (building its registry record) and `replicate` (computing the fresh
/// run's identity) both call this, so the two always hash the same
/// configuration identically.
pub fn sweep_config_pairs(
    n: u64,
    capacities: &[u32],
    lambdas: &[f64],
    window: u64,
    seeds: u64,
    master_seed: u64,
) -> Vec<(String, String)> {
    let cs: Vec<String> = capacities.iter().map(|c| c.to_string()).collect();
    let ls: Vec<String> = lambdas.iter().map(|l| canon_num(*l)).collect();
    vec![
        ("benchmark".to_string(), "sweep".to_string()),
        ("n".to_string(), n.to_string()),
        ("c".to_string(), cs.join(",")),
        ("lambda".to_string(), ls.join(",")),
        ("window".to_string(), window.to_string()),
        ("seeds".to_string(), seeds.to_string()),
        ("seed".to_string(), master_seed.to_string()),
    ]
}

/// Renders `prov` as a single-line JSON object with a trailing
/// `config_hash` field — the provenance block embedded into stamped
/// `BENCH_*.json` files.
pub fn provenance_json_with_hash(prov: &Provenance, config_hash: &str) -> String {
    let base = prov.to_json_object();
    format!(
        "{},\"config_hash\":{}}}",
        &base[..base.len() - 1],
        json::quoted(config_hash)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use iba_obs::json::SCHEMA_VERSION;

    #[test]
    fn provenance_block_with_hash_parses_back() {
        let prov = Provenance {
            schema_version: SCHEMA_VERSION,
            git_rev: "abc".into(),
            git_dirty: true,
            host: "h".into(),
            cores: 2,
            kernel: None,
            threads: None,
        };
        let block = provenance_json_with_hash(&prov, "fnv1a:0011223344556677");
        let v = json::parse(&block).unwrap();
        assert_eq!(Provenance::from_value(&v).unwrap(), prov);
        assert_eq!(
            v.get("config_hash").unwrap().as_str(),
            Some("fnv1a:0011223344556677")
        );
    }

    #[test]
    fn sweep_pairs_are_stable() {
        let pairs = sweep_config_pairs(2048, &[1, 2, 4], &[0.75, 0.9375], 150, 1, 20210705);
        let rendered: Vec<String> = pairs.iter().map(|(k, v)| format!("{k}={v}")).collect();
        assert_eq!(
            rendered,
            [
                "benchmark=sweep",
                "n=2048",
                "c=1,2,4",
                "lambda=0.75,0.9375",
                "window=150",
                "seeds=1",
                "seed=20210705",
            ]
        );
    }

    #[test]
    fn flatten_walks_objects_arrays_and_bools() {
        let doc = json::parse(
            "{\"benchmark\":\"x\",\"schema\":1,\
             \"provenance\":{\"cores\":8},\
             \"a\":{\"b\":1.5,\"skip\":\"text\"},\
             \"cells\":[{\"v\":2},{\"v\":3,\"ok\":true}]}",
        )
        .unwrap();
        let metrics = flatten_metrics(&doc);
        assert_eq!(
            metrics,
            vec![
                ("a.b".to_string(), 1.5),
                ("cells.0.v".to_string(), 2.0),
                ("cells.1.v".to_string(), 3.0),
                ("cells.1.ok".to_string(), 1.0),
            ]
        );
    }

    #[test]
    fn config_pairs_cover_the_committed_shapes() {
        let obs_overhead = json::parse(
            "{\"benchmark\":\"obs_overhead\",\"seed\":20210705,\
             \"warmup_rounds\":48,\"measured_rounds\":32,\
             \"cells\":[{\"n\":1000000,\"c\":2,\"lambda\":0.95},\
                         {\"n\":1000000,\"c\":4,\"lambda\":0.95}]}",
        )
        .unwrap();
        let pairs = config_pairs("obs_overhead", &obs_overhead).unwrap();
        let rendered: Vec<String> = pairs.iter().map(|(k, v)| format!("{k}={v}")).collect();
        assert_eq!(
            rendered,
            [
                "benchmark=obs_overhead",
                "seed=20210705",
                "warmup_rounds=48",
                "measured_rounds=32",
                "n=1000000",
                "lambda=0.95",
                "c=2,4",
            ]
        );
        // Unknown benchmarks and missing parameters refuse to hash.
        assert!(config_pairs("mystery", &obs_overhead).is_none());
        let truncated = json::parse("{\"benchmark\":\"serve_net\",\"seed\":1}").unwrap();
        assert!(config_pairs("serve_net", &truncated).is_none());
    }

    #[test]
    fn canon_num_renders_integers_plainly() {
        assert_eq!(canon_num(1024.0), "1024");
        assert_eq!(canon_num(0.95), "0.95");
        assert_eq!(canon_num(-3.0), "-3");
    }
}
