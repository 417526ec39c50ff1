//! Telemetry overhead on the instrumented arena round kernel: the same
//! warmed CAPPED(c, λ) process stepped with the registry disabled (every
//! probe reduced to a single relaxed load) versus enabled (allocation
//! counters, phase timers, and the flight recorder all firing).
//!
//! Toggling telemetry cannot change the trajectory — probes consume no
//! RNG and never branch on process state (pinned by
//! `telemetry_toggle_does_not_perturb_the_trajectory` in
//! `crates/core/tests/kernel_differential.rs`) — so any wall-clock gap
//! is pure probe cost. The acceptance cell is the paper-typical
//! n = 10⁶, c = 4, λ = 0.95; the committed `BENCH_obs_overhead.json`
//! baseline is regenerated by the `obs_overhead_baseline` binary.
//!
//! Setting `IBA_BENCH_QUICK=1` shrinks the cell to a seconds-long smoke
//! run (used by CI to keep this harness from rotting).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use iba_core::{CappedConfig, CappedProcess};
use iba_sim::process::{AllocationProcess, RoundReport};
use iba_sim::rng::SimRng;

fn quick() -> bool {
    std::env::var_os("IBA_BENCH_QUICK").is_some()
}

/// Builds an arena-kernel process and steps it to its stationary regime
/// so the benched rounds are representative.
fn warmed(n: usize, c: u32, lambda: f64, warmup: u64) -> CappedProcess {
    let config = CappedConfig::new(n, c, lambda).expect("valid cell");
    let mut p = CappedProcess::new(config);
    p.warm_start();
    let mut rng = SimRng::seed_from(1);
    let mut report = RoundReport::default();
    for _ in 0..warmup {
        p.step_into(&mut rng, &mut report);
    }
    p
}

fn bench_obs_overhead(c_bench: &mut Criterion) {
    let (n, warmup, samples): (usize, u64, usize) = if quick() {
        (20_000, 20, 5)
    } else {
        (1_000_000, 60, 10)
    };
    let (c, lambda) = (4u32, 0.95);
    let mut group = c_bench.benchmark_group("obs_overhead");
    group.sample_size(samples);
    for telemetry in [false, true] {
        let label = if telemetry { "on" } else { "off" };
        let id = BenchmarkId::new(format!("n{n}_c{c}_lambda{lambda}"), label);
        group.bench_function(id, |b| {
            iba_obs::set_enabled(telemetry);
            let mut p = warmed(n, c, lambda, warmup);
            let mut rng = SimRng::seed_from(2);
            let mut report = RoundReport::default();
            b.iter(|| p.step_into(&mut rng, &mut report));
        });
    }
    iba_obs::set_enabled(false);
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_obs_overhead
}
criterion_main!(benches);
