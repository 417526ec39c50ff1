//! A minimal command-line parser for the figure harness.
//!
//! Hand-rolled because `clap` is not in the approved dependency set; the
//! surface is tiny: one subcommand (an experiment of [`EXPERIMENTS`], or
//! `all`) plus `--scale <preset>`, `--out <dir>`, `--check <dir>` and
//! `--markdown` flags.

use std::str::FromStr;

use crate::scale::Scale;
use crate::{Experiment, EXPERIMENTS};

/// Parsed command line for the `figures` binary.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// The experiment subcommand (e.g. `fig4-left`, `all`).
    pub command: String,
    /// Scale preset (default: quick).
    pub scale: Scale,
    /// Optional directory to also write CSV files into.
    pub out_dir: Option<String>,
    /// Optional reproduction record to compare every CSV with, byte for
    /// byte (see [`crate::record`]).
    pub check_dir: Option<String>,
    /// Print one Markdown document (a header, then a `## title` section
    /// per experiment) in place of the text tables and charts.
    pub markdown: bool,
}

impl Cli {
    /// The experiments the command selects, in [`EXPERIMENTS`] order:
    /// the one it names, or every one for `all`.
    pub fn experiments(&self) -> impl Iterator<Item = &'static Experiment> + '_ {
        EXPERIMENTS
            .iter()
            .filter(move |e| self.command == "all" || e.name == self.command)
    }
}

/// Usage text.
pub fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    format!(
        "usage: figures <command> [--scale paper|quick|smoke] [--out <dir>] [--check <dir>] \
         [--markdown]\n\
         commands: {}, all",
        names.join(", ")
    )
}

/// Parses the argument list (without the program name).
///
/// # Errors
///
/// Returns a human-readable error string on unknown commands, unknown
/// flags, missing flag values or malformed values.
pub fn parse(args: &[String]) -> Result<Cli, String> {
    let mut iter = args.iter();
    let command = iter.next().ok_or_else(usage)?.clone();
    if command != "all" && !EXPERIMENTS.iter().any(|e| e.name == command) {
        return Err(format!("unknown command '{command}'\n{}", usage()));
    }
    let mut cli = Cli {
        command,
        scale: Scale::Quick,
        out_dir: None,
        check_dir: None,
        markdown: false,
    };
    while let Some(flag) = iter.next() {
        match flag.as_str() {
            "--scale" => {
                let v = iter.next().ok_or("--scale requires a value")?;
                cli.scale = Scale::from_str(v)?;
            }
            "--out" => {
                let v = iter.next().ok_or("--out requires a value")?;
                cli.out_dir = Some(v.clone());
            }
            "--check" => {
                let v = iter.next().ok_or("--check requires a value")?;
                cli.check_dir = Some(v.clone());
            }
            "--markdown" => cli.markdown = true,
            other => return Err(format!("unknown flag '{other}'\n{}", usage())),
        }
    }
    Ok(cli)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_command_and_defaults() {
        let cli = parse(&strings(&["fig4-left"])).unwrap();
        assert_eq!(cli.command, "fig4-left");
        assert_eq!(cli.scale, Scale::Quick);
        assert_eq!(cli.out_dir, None);
        assert_eq!(cli.check_dir, None);
        assert!(!cli.markdown);
    }

    #[test]
    fn parses_all_flags() {
        let cli = parse(&strings(&[
            "all", "--scale", "smoke", "--out", "/tmp/x", "--check", "/tmp/y",
        ]))
        .unwrap();
        assert_eq!(cli.scale, Scale::Smoke);
        assert_eq!(cli.out_dir.as_deref(), Some("/tmp/x"));
        assert_eq!(cli.check_dir.as_deref(), Some("/tmp/y"));
    }

    #[test]
    fn parses_markdown_beside_the_record_flags() {
        let cli = parse(&strings(&[
            "all",
            "--scale",
            "smoke",
            "--check",
            "/tmp/y",
            "--markdown",
        ]))
        .unwrap();
        assert!(cli.markdown);
        assert_eq!(cli.scale, Scale::Smoke);
        assert_eq!(cli.check_dir.as_deref(), Some("/tmp/y"));
        assert!(
            parse(&strings(&["fig4-left", "--markdown"]))
                .unwrap()
                .markdown
        );
    }

    #[test]
    fn rejects_unknown_command_and_flags() {
        assert!(parse(&strings(&["fig9"])).is_err());
        assert!(parse(&strings(&["all", "--wat"])).is_err());
        assert!(parse(&strings(&["all", "--scale"])).is_err());
        assert!(parse(&strings(&["all", "--check"])).is_err());
        assert!(parse(&strings(&["all", "--seed", "9"])).is_err());
        assert!(parse(&[]).is_err());
    }

    #[test]
    fn every_experiment_parses_and_selects_itself() {
        for experiment in EXPERIMENTS {
            let cli = parse(&strings(&[experiment.name])).unwrap();
            let selected: Vec<&str> = cli.experiments().map(|e| e.name).collect();
            assert_eq!(selected, [experiment.name]);
        }
        let all = parse(&strings(&["all"])).unwrap();
        assert_eq!(all.experiments().count(), EXPERIMENTS.len());
    }
}
