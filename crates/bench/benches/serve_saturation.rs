//! Serving-layer throughput: wall-clock cost of one service round across
//! shard counts, against the single-threaded process as the baseline, plus
//! a saturation probe at demand near the service limit.
//!
//! The interesting comparisons:
//!
//! - `service_round/central` vs the bare process: the cost of routing,
//!   channels, and merging, with randomness drawn by the driver;
//! - `open_loop_saturated`: rounds/second with ingress admission and
//!   ticket accounting in the loop, offered load at ~95 % of capacity.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use iba_core::config::CappedConfig;
use iba_core::process::CappedProcess;
use iba_serve::workload::{run_open_loop, OpenLoop};
use iba_serve::{CappedService, ServiceConfig};
use iba_sim::process::AllocationProcess;
use iba_sim::rng::SimRng;

const N: usize = 1 << 14;
const C: u32 = 4;
const LAMBDA: f64 = 0.75;

fn warmed_service(shards: usize) -> CappedService {
    let capped = CappedConfig::new(N, C, LAMBDA).expect("valid");
    let mut service =
        CappedService::spawn(ServiceConfig::new(capped, shards, 1).with_model_arrivals(true))
            .expect("valid service");
    for _ in 0..100 {
        service.run_round();
    }
    service
}

fn bench_service_round(c_bench: &mut Criterion) {
    let mut group = c_bench.benchmark_group("service_round");
    // Baseline: the bare single-threaded process on the same cell.
    group.bench_function(BenchmarkId::new("bare_process", "1"), |b| {
        let mut p = CappedProcess::new(CappedConfig::new(N, C, LAMBDA).expect("valid"));
        p.warm_start();
        let mut rng = SimRng::seed_from(1);
        for _ in 0..100 {
            p.step(&mut rng);
        }
        b.iter(|| p.step(&mut rng));
    });
    for &shards in &[1usize, 2, 4, 8] {
        group.bench_function(BenchmarkId::new("central", shards), |b| {
            let mut service = warmed_service(shards);
            b.iter(|| service.run_round());
        });
    }
    group.finish();
}

fn bench_open_loop_saturated(c_bench: &mut Criterion) {
    let mut group = c_bench.benchmark_group("open_loop_saturated");
    // Offered load ≈ 95 % of the λn service budget, submitted through the
    // dispatcher so admission and ticket bookkeeping are on the hot path.
    let rate = (LAMBDA * N as f64 * 0.95) as u64;
    for &shards in &[2usize, 8] {
        group.bench_function(BenchmarkId::from_parameter(shards), |b| {
            let capped = CappedConfig::new(N, C, 0.0).expect("valid");
            let mut service = CappedService::spawn(
                ServiceConfig::new(capped, shards, 1).with_ingress_capacity(2 * rate as usize),
            )
            .expect("valid service");
            let load = OpenLoop::new(rate);
            b.iter(|| run_open_loop(&mut service, &load, 1));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_service_round, bench_open_loop_saturated);
criterion_main!(benches);
