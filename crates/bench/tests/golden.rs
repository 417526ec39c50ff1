//! Golden-file regression tests.
//!
//! Every experiment is a pure function of `(scale, seeds)`, so its CSV
//! output is reproducible bit-for-bit. These tests pin the smoke-scale
//! output of the paper's figures and of the cheap experiments against
//! checked-in golden files: any unintended behavioral change to the
//! process, the RNG, the burn-in logic or the statistics shows up as a
//! diff here.
//!
//! To regenerate after an *intentional* change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden
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
use iba_bench::scale::Scale;

/// The suite is the workspace root's `[[test]]` target, so its manifest
/// directory is the repository root.
fn golden_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("crates/bench/tests/golden")
        .join(format!("{name}.csv"))
}

fn check_golden(name: &str, output: &ExperimentOutput) {
    let path = golden_path(name);
    let actual = output.table.to_csv();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::create_dir_all(path.parent().unwrap()).expect("create golden dir");
        fs::write(&path, &actual).expect("write golden file");
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "golden file {} missing — run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "output of '{name}' diverged from its golden file; if the change is \
         intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn golden_fig4_left() {
    check_golden("fig4_left_smoke", &fig4_left(Scale::Smoke));
}

#[test]
fn golden_fig4_right() {
    check_golden("fig4_right_smoke", &fig4_right(Scale::Smoke));
}

#[test]
fn golden_fig5_left() {
    check_golden("fig5_left_smoke", &fig5_left(Scale::Smoke));
}

#[test]
fn golden_fig5_right() {
    check_golden("fig5_right_smoke", &fig5_right(Scale::Smoke));
}

#[test]
fn golden_sweet_spot() {
    check_golden("sweet_spot_smoke", &sweet_spot(Scale::Smoke));
}

#[test]
fn golden_compare() {
    check_golden("compare_smoke", &compare_head_to_head(Scale::Smoke));
}

#[test]
fn golden_dominance() {
    check_golden("dominance_smoke", &dominance(Scale::Smoke));
}

#[test]
fn golden_lemma_phases() {
    check_golden("lemma_phases_smoke", &lemma_phases(Scale::Smoke));
}

#[test]
fn golden_stabilization() {
    check_golden("stabilization_smoke", &stabilization(Scale::Smoke));
}

#[test]
fn golden_choice_ablation() {
    check_golden("ablation_choices_smoke", &choice_ablation(Scale::Smoke));
}

#[test]
fn golden_policy_ablation() {
    check_golden("policy_smoke", &policy_ablation(Scale::Smoke));
}

#[test]
fn golden_chaos() {
    check_golden("chaos_smoke", &chaos(Scale::Smoke));
}
