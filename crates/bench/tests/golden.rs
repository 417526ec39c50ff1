//! Golden-file regression tests.
//!
//! Every experiment is a pure function of `(scale, seeds)`, so its CSV
//! output is reproducible bit-for-bit. The golden directory is the
//! smoke-scale reproduction record: one `<experiment>.csv` per experiment
//! of `iba_bench::EXPERIMENTS`, which CI checks whole with `figures all
//! --scale smoke --check crates/bench/tests/golden`. These tests pin the
//! paper's figures, the replication grid and the cheap experiments in
//! tier-1: any unintended behavioral change to the process, the RNG, the
//! burn-in logic or the statistics shows up as a diff here.
//!
//! To regenerate after an *intentional* change:
//!
//! ```text
//! cargo run --release -p iba-bench --bin figures -- all --scale smoke --out crates/bench/tests/golden
//! ```

use std::fs;
use std::path::{Path, PathBuf};

use iba_bench::ablations::{
    chaos, choice_ablation, dominance, lemma_phases, policy_ablation, stabilization,
};
use iba_bench::compare::compare_head_to_head;
use iba_bench::figures::{
    fig4_left, fig4_right, fig5_left, fig5_right, sweet_spot, ExperimentOutput,
};
use iba_bench::record;
use iba_bench::scale::Scale;
use iba_bench::sweep::replication;

/// The suite is the workspace root's `[[test]]` target, so its manifest
/// directory is the repository root.
fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/bench/tests/golden")
}

fn check_golden(name: &str, output: &ExperimentOutput) {
    let path = record::path(&golden_dir(), name);
    let actual = output.table.to_csv();
    let expected =
        fs::read_to_string(&path).unwrap_or_else(|e| panic!("golden file {}: {e}", path.display()));
    assert_eq!(
        actual, expected,
        "output of '{name}' diverged from its golden file; if the change is \
         intentional, regenerate the smoke record with `figures all --scale smoke \
         --out crates/bench/tests/golden`"
    );
}

#[test]
fn every_golden_csv_names_an_experiment() {
    let strays = record::strays(&golden_dir()).expect("list the golden directory");
    assert!(strays.is_empty(), "CSVs naming no experiment: {strays:?}");
}

#[test]
fn golden_fig4_left() {
    check_golden("fig4-left", &fig4_left(Scale::Smoke));
}

#[test]
fn golden_fig4_right() {
    check_golden("fig4-right", &fig4_right(Scale::Smoke));
}

#[test]
fn golden_fig5_left() {
    check_golden("fig5-left", &fig5_left(Scale::Smoke));
}

#[test]
fn golden_fig5_right() {
    check_golden("fig5-right", &fig5_right(Scale::Smoke));
}

#[test]
fn golden_sweet_spot() {
    check_golden("sweet-spot", &sweet_spot(Scale::Smoke));
}

#[test]
fn golden_compare() {
    check_golden("compare", &compare_head_to_head(Scale::Smoke));
}

#[test]
fn golden_dominance() {
    check_golden("dominance", &dominance(Scale::Smoke));
}

#[test]
fn golden_lemma_phases() {
    check_golden("lemma-phases", &lemma_phases(Scale::Smoke));
}

#[test]
fn golden_stabilization() {
    check_golden("stabilization", &stabilization(Scale::Smoke));
}

#[test]
fn golden_choice_ablation() {
    check_golden("ablation-choices", &choice_ablation(Scale::Smoke));
}

#[test]
fn golden_policy_ablation() {
    check_golden("policy", &policy_ablation(Scale::Smoke));
}

#[test]
fn golden_chaos() {
    check_golden("chaos", &chaos(Scale::Smoke));
}

#[test]
fn golden_replication() {
    check_golden("replication", &replication(Scale::Smoke));
}
