//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <sim_paper|serve_tickets|net_open> --seed <n>
//!           --seconds <s> --trace <0|1> [--net-rate <req/s>] [--tiny]
//!           [--trace-dir <dir>]
//! ```
//!
//! One run sets the workload up several times (the median is `setup_s`),
//! checks that the program's outputs are correct, measures for `--seconds`
//! and prints every metric with its unit and sample count. The last line of
//! standard output is one JSON object; it is printed only when every check
//! passed. `--trace 0` prints the end-to-end metrics, `--trace 1` runs the
//! same workload untraced and then traced and prints the per-layer metrics.

mod cell;
mod host;
mod net_open;
mod report;
mod serve_tickets;
mod sim_paper;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

/// Command-line options shared by the workloads.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Small cells and short set-ups, for the benchmark's own tests.
    pub tiny: bool,
    /// Offered load of `net_open` in requests per second.
    pub net_rate: f64,
    /// Where a traced run writes its spans.
    pub trace_dir: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload <sim_paper|serve_tickets|net_open> --seed <n> \
--seconds <s> --trace <0|1> [--net-rate <req/s>] [--tiny] [--trace-dir <dir>]";

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        traced: false,
        tiny: false,
        net_rate: 100_000.0,
        trace_dir: PathBuf::from("perfbench/trace"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            opts.tiny = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => opts.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                opts.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--net-rate" => opts.net_rate = value.parse().map_err(|e| bad(&e))?,
            "--trace-dir" => opts.trace_dir = PathBuf::from(value),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    if !opts.net_rate.is_finite() || opts.net_rate <= 0.0 {
        return Err("--net-rate must be positive".into());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut outcome = match opts.workload.as_str() {
        "sim_paper" => sim_paper::run(&opts),
        "serve_tickets" => serve_tickets::run(&opts),
        "net_open" => net_open::run(&opts),
        other => {
            eprintln!("perfbench: unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if !opts.traced {
        outcome.metric("peak_rss_mb", host::peak_rss_mb(), 1);
    }
    outcome.param("seconds", opts.seconds);
    outcome.param("traced", opts.traced);

    println!(
        "provenance {}",
        host::provenance_json(&opts.workload, opts.seed, &outcome.params)
    );
    for c in &outcome.checks {
        println!(
            "check {:<28} {} {}",
            c.name,
            if c.ok { "ok  " } else { "FAIL" },
            c.detail
        );
    }
    if !outcome.passed() {
        eprintln!("perfbench: a correctness check failed; no result is printed");
        return ExitCode::from(1);
    }
    print!("{}", report::table(&outcome, opts.traced));
    match report::result_line(&outcome, opts.traced) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let o = parse(&args(
            "--net-rate 5000 --workload net_open --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(o.workload, "net_open");
        assert_eq!(
            (o.seed, o.seconds, o.traced, o.net_rate),
            (7, 3.0, true, 5000.0)
        );
    }

    #[test]
    fn rejects_bad_values() {
        assert!(parse(&args("--trace 2")).is_err());
        assert!(parse(&args("--seconds 0")).is_err());
        assert!(parse(&args("--seed")).is_err());
        assert!(parse(&args("--bogus 1")).is_err());
    }
}
