//! Properties of the run-length pool: every operation the round kernel,
//! the service and the checkpoint codec apply to a [`Pool`] must agree
//! with a plain `Vec<Ball>` model of the same balls, and must leave the
//! runs in canonical form (labels strictly ascending, counts positive)
//! with a consistent cached length.

use proptest::prelude::*;

use iba_core::pool::{expand, is_canonical, push_run, Run};
use iba_core::{checkpoint, Ball, BinArena, CappedConfig, CappedProcess, Pool};
use iba_sim::stats::Histogram;
use iba_sim::{SimRng, Simulation};

/// The `i`-th bit of a stream keyed by `seed` (splitmix64), used as a
/// reproducible accept mask.
fn bit(seed: u64, i: u64) -> bool {
    let mut z = seed.wrapping_add(i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) & 1 == 1
}

/// Asserts that `pool` is canonical and holds exactly the `model` balls.
fn assert_matches(pool: &Pool, model: &[Ball], what: &str) {
    assert!(is_canonical(pool.runs()), "{what}: runs not canonical");
    assert!(pool.is_age_sorted(), "{what}: cached length drifted");
    assert_eq!(pool.len(), model.len(), "{what}: len");
    assert_eq!(pool.is_empty(), model.is_empty(), "{what}: is_empty");
    assert_eq!(pool.iter().len(), model.len(), "{what}: iter len");
    assert_eq!(pool.iter().collect::<Vec<_>>(), model, "{what}: balls");
    assert_eq!(
        pool.oldest_label(),
        model.first().map(|b| b.label()),
        "{what}: oldest"
    );
    assert_eq!(
        pool.youngest_label(),
        model.last().map(|b| b.label()),
        "{what}: youngest"
    );
}

/// The pool's bytes through an IBA1 checkpoint of a process holding it
/// (empty bins, so conservation needs only the pool), decoded back.
fn checkpoint_round_trip(pool: &Pool, round: u64) -> Pool {
    let config = CappedConfig::new(4, 2, 0.5).expect("valid");
    let bins = BinArena::new(vec![config.capacity(); 4]);
    let generated = pool.len() as u64;
    let process = CappedProcess::from_parts(config, bins, pool.clone(), round, generated, 0);
    let bytes = checkpoint::save(&Simulation::new(process, SimRng::seed_from(1)));
    let restored = checkpoint::restore(&bytes).expect("a valid pool decodes");
    restored.process().pool().clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random sequences of every pool operation agree with the model
    /// after each step.
    #[test]
    fn pool_operations_match_a_ball_vector_model(
        ops in prop::collection::vec((0u8..6, 0u64..64, any::<u64>()), 1..60),
    ) {
        let mut pool = Pool::new();
        let mut model: Vec<Ball> = Vec::new();
        let mut round = 0u64;
        for (step, &(op, a, seed)) in ops.iter().enumerate() {
            let what = format!("step {step} op {op}");
            match op {
                // Generation, or a surge at the current label (a % 3 == 0).
                0 => {
                    round += a % 3;
                    let count = seed % 8;
                    pool.push_generation(round, count);
                    model.extend(std::iter::repeat_n(Ball::generated_in(round), count as usize));
                }
                // A round's take and restore: every ball accepted or
                // rejected by a random mask; the rejects return as runs.
                1 => {
                    let runs = pool.take_runs();
                    prop_assert!(pool.is_empty());
                    let mut rejected = Vec::new();
                    for (i, ball) in expand(&runs).enumerate() {
                        if !bit(seed, i as u64) {
                            push_run(&mut rejected, ball.label(), 1);
                        }
                    }
                    pool.restore_runs(rejected);
                    let mut i = 0;
                    model.retain(|_| {
                        i += 1;
                        !bit(seed, i - 1)
                    });
                }
                // The sorted merge of drained bins, in any order.
                2 => {
                    let drained: Vec<Ball> = (0..a % 6)
                        .map(|i| Ball::generated_in((seed >> (i * 8)) % (round + 1)))
                        .collect();
                    pool.merge_balls(drained.iter().copied());
                    model.extend(drained);
                    model.sort();
                }
                // Survivor counts m(t, t') at every label and past them.
                3 => {
                    for t in 0..=round + 1 {
                        let expected = model.iter().filter(|b| b.label() <= t).count();
                        prop_assert_eq!(pool.survivors_from(t), expected);
                    }
                }
                // The age histogram, one weighted record per run.
                4 => {
                    let at = round + a % 4;
                    let expected: Histogram = model.iter().map(|b| b.age_at(at)).collect();
                    prop_assert_eq!(pool.age_histogram(at), expected);
                }
                // Encode and decode through an IBA1 checkpoint, which
                // stores one label per ball.
                _ => {
                    prop_assert_eq!(checkpoint_round_trip(&pool, round), pool.clone());
                }
            }
            assert_matches(&pool, &model, &what);
        }
    }

    /// Collecting balls in any order yields the canonical pool.
    #[test]
    fn from_iter_is_canonical(labels in prop::collection::vec(0u64..12, 0..80)) {
        let pool: Pool = labels.iter().map(|&l| Ball::generated_in(l)).collect();
        let mut model: Vec<Ball> = labels.iter().map(|&l| Ball::generated_in(l)).collect();
        model.sort();
        assert_matches(&pool, &model, "collected");
    }
}

#[test]
fn push_generation_appends_in_order() {
    let mut pool = Pool::new();
    pool.push_generation(1, 2);
    pool.push_generation(3, 1);
    assert_eq!(pool.len(), 3);
    assert!(pool.is_age_sorted());
    assert_eq!(pool.oldest_label(), Some(1));
    assert_eq!(pool.youngest_label(), Some(3));
    assert_eq!(pool.runs(), [Run::new(1, 2), Run::new(3, 1)]);
}

#[test]
fn a_surge_at_the_current_label_grows_the_youngest_run() {
    let mut pool = Pool::new();
    pool.push_generation(4, 2);
    pool.push_generation(4, 5);
    assert_eq!(pool.runs(), [Run::new(4, 7)]);
    assert_eq!(pool.len(), 7);
}

#[test]
fn push_generation_zero_is_noop() {
    let mut pool = Pool::new();
    pool.push_generation(1, 0);
    assert!(pool.is_empty());
    assert!(pool.runs().is_empty());
}

#[test]
fn new_pool_starts_empty() {
    let pool = Pool::new();
    assert!(pool.is_empty());
    assert_eq!(pool.oldest_label(), None);
    assert_eq!(pool.youngest_label(), None);
}

#[test]
#[should_panic(expected = "younger balls")]
fn push_generation_rejects_out_of_order() {
    let mut pool = Pool::new();
    pool.push_generation(5, 1);
    pool.push_generation(4, 1);
}

#[test]
fn take_restore_roundtrip() {
    let mut pool = Pool::new();
    pool.push_generation(1, 3);
    let runs = pool.take_runs();
    assert!(pool.is_empty());
    assert_eq!(runs, vec![Run::new(1, 3)]);
    pool.restore_runs(runs);
    assert_eq!(pool.len(), 3);
}

#[test]
#[should_panic(expected = "must follow take")]
fn restore_into_nonempty_pool_panics() {
    let mut pool = Pool::new();
    pool.push_generation(1, 1);
    pool.restore_runs(vec![Run::new(0, 1)]);
}

#[test]
#[should_panic(expected = "strictly ascending labels")]
fn restore_rejects_descending_labels() {
    let mut pool = Pool::new();
    pool.restore_runs(vec![Run::new(3, 1), Run::new(2, 1)]);
}

#[test]
#[should_panic(expected = "strictly ascending labels")]
fn restore_rejects_unmerged_equal_labels() {
    let mut pool = Pool::new();
    pool.restore_runs(vec![Run::new(2, 1), Run::new(2, 1)]);
}

#[test]
#[should_panic(expected = "positive counts")]
fn restore_rejects_an_empty_run() {
    let mut pool = Pool::new();
    pool.restore_runs(vec![Run::new(2, 0)]);
}

#[test]
fn survivors_counts_by_label() {
    let mut pool = Pool::new();
    pool.push_generation(1, 2);
    pool.push_generation(2, 3);
    pool.push_generation(4, 1);
    assert_eq!(pool.survivors_from(0), 0);
    assert_eq!(pool.survivors_from(1), 2);
    assert_eq!(pool.survivors_from(2), 5);
    assert_eq!(pool.survivors_from(3), 5);
    assert_eq!(pool.survivors_from(10), 6);
}

#[test]
fn age_histogram_at_round() {
    let mut pool = Pool::new();
    pool.push_generation(1, 1);
    pool.push_generation(3, 2);
    let h = pool.age_histogram(4);
    assert_eq!(h.count(), 3);
    assert_eq!(h.count_at(3), 1); // ball labeled 1
    assert_eq!(h.count_at(1), 2); // balls labeled 3
}

#[test]
fn from_iterator_sorts() {
    let pool: Pool = [3u64, 1, 2, 1]
        .into_iter()
        .map(Ball::generated_in)
        .collect();
    assert!(pool.is_age_sorted());
    assert_eq!(pool.oldest_label(), Some(1));
    assert_eq!(
        pool.runs(),
        [Run::new(1, 2), Run::new(2, 1), Run::new(3, 1)]
    );
}

#[test]
fn merge_balls_joins_runs_of_equal_labels() {
    let mut pool = Pool::new();
    pool.push_generation(2, 1);
    pool.push_generation(5, 1);
    pool.merge_balls([5, 1, 2, 7, 5].into_iter().map(Ball::generated_in));
    assert_eq!(
        pool.runs(),
        [
            Run::new(1, 1),
            Run::new(2, 2),
            Run::new(5, 3),
            Run::new(7, 1)
        ]
    );
    assert_eq!(pool.len(), 7);
}
