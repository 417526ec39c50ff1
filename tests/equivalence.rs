//! Integration test: CAPPED(∞, λ) is the parallel GREEDY[1] process
//! (paper, Section II: "c = ∞ implies no capacity limit and therefore
//! CAPPED(∞, λ) is identical to GREEDY[1]").
//!
//! Capacities are finite, so the unbounded side is CAPPED at
//! `MAX_CAPACITY`, a capacity no load reaches in these runs: the tests
//! assert that it never rejects a ball (its pool is empty every round),
//! which is exactly what makes it CAPPED(∞, λ).
//!
//! The two implementations live in different crates and share no code, so
//! driving them with identical bin choices and asserting identical
//! trajectories is a strong differential test of both.

use infinite_balanced_allocation::core::MAX_CAPACITY;
use infinite_balanced_allocation::prelude::*;

/// CAPPED at the largest capacity: no load in these runs reaches it.
fn unbounded(n: usize, lambda: f64) -> CappedProcess {
    CappedProcess::new(CappedConfig::new(n, MAX_CAPACITY, lambda).expect("valid"))
}

/// Drives both processes with the same per-round choice vectors and
/// asserts the full reports coincide.
#[test]
fn capped_infinity_equals_greedy_one_trajectorywise() {
    let n = 64;
    let lambda = 0.75;
    let batch = (lambda * n as f64) as usize;

    let mut capped = unbounded(n, lambda);
    let mut greedy = GreedyBatchProcess::new(n, 1, lambda).expect("valid");
    let mut rng = SimRng::seed_from(1234);

    for round in 1..=300u64 {
        let choices: Vec<usize> = (0..batch).map(|_| rng.uniform_bin(n)).collect();
        let rc = capped.step_with_choices(&choices);
        let rg = greedy.step_with_choices(&choices);
        assert_eq!(rc.round, round);
        assert_eq!(rc.generated, rg.generated, "round {round}");
        assert_eq!(rc.accepted, rg.accepted, "round {round}");
        assert_eq!(rc.deleted, rg.deleted, "round {round}");
        assert_eq!(rc.pool_size, 0, "unbounded CAPPED never pools");
        assert_eq!(rg.pool_size, 0);
        assert_eq!(rc.buffered, rg.buffered, "round {round}");
        assert_eq!(rc.max_load, rg.max_load, "round {round}");
        assert_eq!(rc.failed_deletions, rg.failed_deletions, "round {round}");
        let mut wc = rc.waiting_times.clone();
        let mut wg = rg.waiting_times.clone();
        wc.sort_unstable();
        wg.sort_unstable();
        assert_eq!(wc, wg, "round {round}");
    }
}

/// With finite capacity the processes genuinely differ (CAPPED rejects),
/// so the equivalence above is not vacuous.
#[test]
fn finite_capacity_differs_from_greedy_one() {
    let n = 64;
    let lambda = 0.75;
    let batch = (lambda * n as f64) as usize;
    let mut capped = CappedProcess::new(CappedConfig::new(n, 1, lambda).expect("valid"));
    let mut greedy = GreedyBatchProcess::new(n, 1, lambda).expect("valid");
    let mut rng = SimRng::seed_from(1234);
    let mut saw_difference = false;
    let mut pooled = 0usize;
    for _ in 0..100 {
        let choices: Vec<usize> = (0..pooled + batch).map(|_| rng.uniform_bin(n)).collect();
        let rc = capped.step_with_choices(&choices);
        let rg = greedy.step_with_choices(&choices[..batch]);
        pooled = rc.pool_size as usize;
        if rc.pool_size > 0 || rc.buffered != rg.buffered {
            saw_difference = true;
        }
    }
    assert!(saw_difference, "finite capacity must reject sometimes");
}

/// The unbounded process's system load matches GREEDY[1]'s under
/// independent randomness too (distributional sanity, not pathwise).
#[test]
fn unbounded_and_greedy_agree_statistically() {
    let n = 256;
    let lambda = 0.75;
    let mut capped = unbounded(n, lambda);
    let mut greedy = GreedyBatchProcess::new(n, 1, lambda).expect("valid");
    let mut rng_a = SimRng::seed_from(1);
    let mut rng_b = SimRng::seed_from(2);
    let mut load_a = 0.0;
    let mut load_b = 0.0;
    let rounds = 600;
    for i in 0..rounds {
        let ra = capped.step(&mut rng_a);
        let rb = greedy.step(&mut rng_b);
        assert_eq!(ra.pool_size, 0, "round {i}: CAPPED rejected a ball");
        if i >= rounds / 2 {
            load_a += ra.buffered as f64;
            load_b += rb.buffered as f64;
        }
    }
    let mean_a = load_a / (rounds / 2) as f64;
    let mean_b = load_b / (rounds / 2) as f64;
    let rel = (mean_a - mean_b).abs() / mean_a.max(1.0);
    assert!(rel < 0.15, "system loads diverge: {mean_a} vs {mean_b}");
}
