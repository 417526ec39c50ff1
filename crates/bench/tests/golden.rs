//! Golden-file regression tests.
//!
//! Every experiment is a pure function of `(scale, seeds)`, so its CSV
//! output is reproducible bit-for-bit. These tests pin the smoke-scale
//! output of the cheap experiments against checked-in golden files: any
//! unintended behavioral change to the process, the RNG, the burn-in
//! logic or the statistics shows up as a diff here.
//!
//! To regenerate after an *intentional* change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p iba-bench --test golden
//! ```

use std::fs;
use std::path::{Path, PathBuf};

use iba_bench::ablations::{
    choice_ablation, dominance, lemma_phases, policy_ablation, stabilization,
};
use iba_bench::figures::ExperimentOutput;
use iba_bench::scale::Scale;

/// The suite compiles under two manifests: `iba-bench`'s own and the
/// workspace root's `[[test]]` target. Resolve the golden directory from
/// either, so `cargo test` finds the same files from both.
fn golden_path(name: &str) -> PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let bench = manifest.join("crates").join("bench");
    let crate_dir = if bench.is_dir() { &bench } else { manifest };
    crate_dir
        .join("tests")
        .join("golden")
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
