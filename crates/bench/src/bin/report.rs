//! Generates a complete Markdown results report — every experiment's
//! table in GitHub-Markdown form, with notes — suitable for pasting into
//! EXPERIMENTS.md or a paper-reproduction writeup.
//!
//! ```text
//! cargo run -p iba-bench --release --bin report -- [--scale quick] [--out report.md]
//! ```

use std::fs;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Instant;

use iba_bench::scale::Scale;
use iba_bench::EXPERIMENTS;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Quick;
    let mut out_path: Option<String> = None;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        match flag.as_str() {
            "--scale" => match iter.next().map(|v| Scale::from_str(v)) {
                Some(Ok(s)) => scale = s,
                _ => {
                    eprintln!("--scale requires paper|quick|smoke");
                    return ExitCode::FAILURE;
                }
            },
            "--out" => match iter.next() {
                Some(v) => out_path = Some(v.clone()),
                None => {
                    eprintln!("--out requires a path");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("unknown flag {other}\nusage: report [--scale S] [--out FILE]");
                return ExitCode::FAILURE;
            }
        }
    }

    let started = Instant::now();
    let mut doc = String::new();
    doc.push_str(&format!(
        "# Reproduction report — scale `{scale}` (n = {}, window = {} rounds, {} seeds)\n\n",
        scale.bins(),
        scale.window(),
        scale.seeds()
    ));
    for experiment in EXPERIMENTS {
        let output = (experiment.run)(scale);
        doc.push_str(&format!("## {}\n\n", experiment.title));
        doc.push_str(&output.table.to_markdown());
        doc.push('\n');
        for note in &output.notes {
            doc.push_str(&format!("> {note}\n"));
        }
        doc.push('\n');
    }
    doc.push_str(&format!(
        "_Generated in {:.1}s by the `report` binary._\n",
        started.elapsed().as_secs_f64()
    ));

    match out_path {
        Some(path) => {
            if let Err(e) = fs::write(&path, &doc) {
                eprintln!("failed to write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {path} in {:.1}s", started.elapsed().as_secs_f64());
        }
        None => print!("{doc}"),
    }
    ExitCode::SUCCESS
}
