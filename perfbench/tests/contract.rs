//! Runs every workload of `BENCHMARK.json` at a tiny size and checks the
//! printed result against the file: the result keys, and every metric
//! name and unit in catalog order.

use std::path::PathBuf;
use std::process::Command;

use iba_obs::json::{parse, JsonValue};

fn benchmark() -> JsonValue {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    parse(&text).expect("BENCHMARK.json is JSON")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn section(bench: &JsonValue, key: &str) -> Vec<(String, String)> {
    bench
        .get(key)
        .and_then(JsonValue::as_array)
        .expect("section present")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(JsonValue::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn workloads(bench: &JsonValue) -> Vec<String> {
    bench
        .get("workloads")
        .and_then(JsonValue::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(JsonValue::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

/// Runs one tiny workload and returns its parsed result line.
fn run(workload: &str, traced: bool) -> JsonValue {
    let trace_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-trace");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--tiny",
        ])
        .args([
            "--trace",
            if traced { "1" } else { "0" },
            "--net-rate",
            "20000",
        ])
        .arg("--trace-dir")
        .arg(&trace_dir)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} (traced={traced}) failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("\"available_parallelism\""),
        "provenance line missing"
    );
    let last = stdout.lines().last().expect("some output");
    parse(last).expect("the last line is JSON")
}

fn check_result(result: &JsonValue, expected: &[(String, String)], positive: bool) {
    let JsonValue::Object(fields) = result else {
        panic!("result is an object");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&JsonValue::Bool(true)));
    assert!(result.get("attempted").and_then(JsonValue::as_u64).unwrap() >= 1);
    assert!(result.get("failed").and_then(JsonValue::as_u64).is_some());
    let Some(JsonValue::Object(metrics)) = result.get("metrics") else {
        panic!("metrics is an object");
    };
    let printed: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            (
                name.clone(),
                m.get("unit")
                    .and_then(JsonValue::as_str)
                    .unwrap()
                    .to_string(),
            )
        })
        .collect();
    assert_eq!(printed, expected);
    for (name, m) in metrics {
        let v = m
            .get("value")
            .and_then(JsonValue::as_f64)
            .expect("numeric value");
        assert!(v.is_finite(), "{name}");
        if positive {
            assert!(v > 0.0, "end-to-end metric {name} reads {v}");
        }
    }
}

#[test]
fn every_workload_prints_the_end_to_end_catalog() {
    let bench = benchmark();
    let expected = section(&bench, "end_to_end");
    for w in workloads(&bench) {
        check_result(&run(&w, false), &expected, true);
    }
}

#[test]
fn every_workload_prints_the_per_layer_catalog() {
    let bench = benchmark();
    let expected = section(&bench, "per_layer");
    for w in workloads(&bench) {
        check_result(&run(&w, true), &expected, false);
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &["--workload", "nope", "--seed", "1"][..],
        &["--workload", "sim_paper", "--trace", "2"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .expect("runs");
        assert_eq!(out.status.code(), Some(2));
        assert!(!String::from_utf8_lossy(&out.stdout).contains("\"metrics\""));
    }
}
