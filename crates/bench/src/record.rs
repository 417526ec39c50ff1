//! The reproduction record: one CSV per experiment of [`EXPERIMENTS`],
//! committed at paper scale in `results_paper/` and at smoke scale in
//! `crates/bench/tests/golden/`.
//!
//! Every experiment is a deterministic function of its seeds, so a
//! record is checked byte for byte: `figures <command> --scale <s>
//! --check <dir>` compares each CSV it produces with `<dir>/<name>.csv`
//! ([`check`]) and, for `all`, refuses a CSV in `<dir>` that names no
//! experiment ([`strays`]). `figures all --scale <s> --out <dir>`
//! regenerates a record ([`write()`]).

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::EXPERIMENTS;

/// The record file of experiment `name` in `dir`.
pub fn path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.csv"))
}

/// Writes experiment `name`'s CSV into `dir`, creating the directory.
///
/// # Errors
///
/// The directory or the file cannot be written.
pub fn write(dir: &Path, name: &str, csv: &str) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    fs::write(path(dir, name), csv)
}

/// Compares experiment `name`'s CSV with its record in `dir`, byte for
/// byte.
///
/// # Errors
///
/// A message naming the experiment: the record is missing or unreadable,
/// or the first line (1-based) where the two differ, with both versions.
pub fn check(dir: &Path, name: &str, csv: &str) -> Result<(), String> {
    let file = path(dir, name);
    let recorded = fs::read(&file).map_err(|e| format!("{name}: {}: {e}", file.display()))?;
    if recorded == csv.as_bytes() {
        return Ok(());
    }
    let recorded = String::from_utf8_lossy(&recorded);
    let mut expected = recorded.split('\n');
    let mut actual = csv.split('\n');
    let mut line = 1;
    loop {
        match (expected.next(), actual.next()) {
            (Some(e), Some(a)) if e == a => line += 1,
            (e, a) => {
                let show =
                    |l: Option<&str>| l.map_or("<end of file>".to_string(), |l| format!("`{l}`"));
                return Err(format!(
                    "{name}: {} differs at line {line}: recorded {}, produced {}",
                    file.display(),
                    show(e),
                    show(a)
                ));
            }
        }
    }
}

/// The CSV files in `dir` whose stem names no experiment, sorted.
///
/// # Errors
///
/// `dir` cannot be listed.
pub fn strays(dir: &Path) -> io::Result<Vec<String>> {
    let mut strays = Vec::new();
    for entry in fs::read_dir(dir)? {
        let file = entry?.file_name();
        let file = file.to_string_lossy();
        if let Some(stem) = file.strip_suffix(".csv") {
            if !EXPERIMENTS.iter().any(|e| e.name == stem) {
                strays.push(file.into_owned());
            }
        }
    }
    strays.sort();
    Ok(strays)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    fn temp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("iba-bench-record-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// `n-invariance` at smoke scale is one of the cheapest experiments.
    fn csv() -> String {
        let experiment = EXPERIMENTS
            .iter()
            .find(|e| e.name == "n-invariance")
            .expect("listed");
        (experiment.run)(Scale::Smoke).table.to_csv()
    }

    #[test]
    fn a_written_record_checks_and_any_difference_fails_naming_the_experiment() {
        let dir = temp_dir("check");
        let csv = csv();
        write(&dir, "n-invariance", &csv).unwrap();
        assert_eq!(check(&dir, "n-invariance", &csv), Ok(()));
        assert_eq!(strays(&dir).unwrap(), Vec::<String>::new());

        // One changed byte on the second line.
        let mut changed = csv.clone().into_bytes();
        let at = csv.find('\n').unwrap() + 1;
        changed[at] = if changed[at] == b'9' { b'8' } else { b'9' };
        fs::write(path(&dir, "n-invariance"), &changed).unwrap();
        let err = check(&dir, "n-invariance", &csv).unwrap_err();
        assert!(err.starts_with("n-invariance: "), "{err}");
        assert!(err.contains("differs at line 2"), "{err}");

        // A record one line short ends before the output does.
        let short: Vec<&str> = csv.lines().collect();
        fs::write(
            path(&dir, "n-invariance"),
            short[..short.len() - 1].join("\n") + "\n",
        )
        .unwrap();
        let err = check(&dir, "n-invariance", &csv).unwrap_err();
        assert!(err.contains(&format!("line {}", short.len())), "{err}");

        // A missing record.
        fs::remove_file(path(&dir, "n-invariance")).unwrap();
        let err = check(&dir, "n-invariance", &csv).unwrap_err();
        assert!(err.starts_with("n-invariance: "), "{err}");

        // A stray CSV names no experiment; other files are not records.
        fs::write(dir.join("fig4_left_smoke.csv"), "a\n").unwrap();
        fs::write(dir.join("README.md"), "notes\n").unwrap();
        write(&dir, "fig4-left", "b\n").unwrap();
        assert_eq!(strays(&dir).unwrap(), ["fig4_left_smoke.csv"]);
        let _ = fs::remove_dir_all(&dir);
    }
}
