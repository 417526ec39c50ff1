//! Substrate microbenchmarks: raw generator output, uniform bin sampling,
//! buffer operations and the static sequential baselines.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use iba_baselines::sequential::{greedy_d, one_choice};
use iba_core::arena::BinArena;
use iba_core::ball::Ball;
use iba_core::config::Capacity;
use iba_sim::rng::{SimRng, SplitMix64, Xoshiro256PlusPlus};

fn bench_generators(c_bench: &mut Criterion) {
    let mut group = c_bench.benchmark_group("rng");
    group.bench_function("xoshiro256pp_next_u64", |b| {
        let mut rng = Xoshiro256PlusPlus::seed_from(1);
        b.iter(|| black_box(rng.next_u64()));
    });
    group.bench_function("splitmix64_next_u64", |b| {
        let mut rng = SplitMix64::new(1);
        b.iter(|| black_box(rng.next_u64()));
    });
    group.bench_function("uniform_bin_lemire", |b| {
        let mut rng = SimRng::seed_from(1);
        b.iter(|| black_box(rng.uniform_bin(1 << 15)));
    });
    group.bench_function("unit_f64", |b| {
        let mut rng = SimRng::seed_from(1);
        b.iter(|| black_box(rng.unit_f64()));
    });
    group.finish();
}

fn bench_buffers(c_bench: &mut Criterion) {
    let mut group = c_bench.benchmark_group("buffers");
    group.bench_function("bin_arena_accept_serve_c3", |b| {
        let mut arena = BinArena::new(vec![Capacity::finite(3).expect("valid")]);
        let mut label = 0u64;
        b.iter(|| {
            label += 1;
            arena.try_accept(0, Ball::generated_in(label));
            black_box(arena.serve(0))
        });
    });
    group.bench_function("vecdeque_push_pop_reference", |b| {
        let mut q: VecDeque<u64> = VecDeque::new();
        let mut label = 0u64;
        b.iter(|| {
            label += 1;
            q.push_back(label);
            black_box(q.pop_front())
        });
    });
    group.finish();
}

fn bench_sequential_baselines(c_bench: &mut Criterion) {
    let mut group = c_bench.benchmark_group("sequential_static");
    group.sample_size(10);
    let n = 1 << 14;
    group.bench_function(BenchmarkId::new("one_choice", n), |b| {
        let mut rng = SimRng::seed_from(2);
        b.iter(|| one_choice(n as u64, n, &mut rng).expect("valid"));
    });
    group.bench_function(BenchmarkId::new("greedy_d2", n), |b| {
        let mut rng = SimRng::seed_from(3);
        b.iter(|| greedy_d(n as u64, n, 2, &mut rng).expect("valid"));
    });
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(30)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_generators, bench_buffers, bench_sequential_baselines
}
criterion_main!(benches);
