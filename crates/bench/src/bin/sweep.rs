//! Custom parameter sweep: measure CAPPED(c, λ) for an arbitrary grid of
//! capacities and rates, printing measured values next to the mean-field
//! prediction, the Section-V envelope and the Theorem-2 bound. The
//! paper's replication grid is the `replication` experiment of `figures`,
//! whose CSV is committed and checked byte for byte
//! ([`iba_bench::record`]).
//!
//! ```text
//! cargo run -p iba-bench --release --bin sweep -- \
//!     --n 8192 --c 1,2,3,4 --lambda 0.75,0.9375 --window 600 --seeds 3
//! ```

use std::process::ExitCode;

use iba_bench::sweep::{self, SweepGrid};

fn parse_args(args: &[String]) -> Result<SweepGrid, String> {
    let mut grid = SweepGrid {
        n: 1 << 13,
        capacities: vec![1, 2, 3],
        lambdas: vec![0.75],
        window: 600,
        seeds: 3,
        master_seed: 0x5eed,
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = |it: &mut std::slice::Iter<String>| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match flag.as_str() {
            "--n" => {
                grid.n = value(&mut iter)?
                    .parse()
                    .map_err(|e| format!("bad --n: {e}"))?
            }
            "--c" => {
                grid.capacities = value(&mut iter)?
                    .split(',')
                    .map(|s| s.parse().map_err(|e| format!("bad --c entry: {e}")))
                    .collect::<Result<_, _>>()?;
            }
            "--lambda" => {
                grid.lambdas = value(&mut iter)?
                    .split(',')
                    .map(|s| s.parse().map_err(|e| format!("bad --lambda entry: {e}")))
                    .collect::<Result<_, _>>()?;
            }
            "--window" => {
                grid.window = value(&mut iter)?
                    .parse()
                    .map_err(|e| format!("bad --window: {e}"))?;
            }
            "--seeds" => {
                grid.seeds = value(&mut iter)?
                    .parse()
                    .map_err(|e| format!("bad --seeds: {e}"))?;
            }
            "--seed" => {
                grid.master_seed = value(&mut iter)?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            other => {
                return Err(format!(
                    "unknown flag {other}\nusage: sweep [--n N] [--c 1,2,3] [--lambda 0.75,0.9] \
                     [--window W] [--seeds S] [--seed SEED]"
                ))
            }
        }
    }
    Ok(grid)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&raw) {
        Ok(grid) => {
            println!("{}", sweep::table(&grid).render());
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
