//! Property suite of the per-bin registers: random interleavings of fused
//! `BinShard::run_round`s with every mutator that rewrites a bin's
//! register — crash and recovery, degrade and raise (past the stride, to
//! unbounded and back), `push_bin_with` (overfull contents too),
//! `pop_bin` (one bin, or the upper bins into a shard of their own via
//! `from_parts`), and a `to_parts` round trip.
//!
//! Every round runs three ways: the fused kernel, a second shard walked
//! ball by ball through `try_accept` and finished with `serve_sweep`, and
//! the literal specification `SpecCapped`, rebuilt from its own state
//! whenever a bin joins or leaves. Stats, reject runs, served
//! `(bin, ball)` pairs and every bin's state must agree after each round.

use proptest::prelude::*;

use iba_core::pool::{expand, push_run, Run};
use iba_core::shard::{BinPart, BinShard, ShardRoundStats};
use iba_core::spec::{SpecBin, SpecCapped};
use iba_core::{Ball, Capacity, CappedConfig};
use iba_sim::{AllocationProcess, SimRng};

fn finite(c: u32) -> Capacity {
    Capacity::finite(c).expect("positive")
}

/// The fused kernel, the per-ball walk and the specification, in
/// lockstep.
struct Lockstep {
    fast: BinShard,
    walk: BinShard,
    spec: SpecCapped,
    c: u32,
    rng: SimRng,
}

impl Lockstep {
    fn new(n: usize, c: u32, seed: u64) -> Self {
        let config = CappedConfig::new(n, c, 0.0).expect("valid");
        Lockstep {
            fast: BinShard::new(&config, 0..n),
            walk: BinShard::new(&config, 0..n),
            spec: SpecCapped::from_config(&config),
            c,
            rng: SimRng::seed_from(seed),
        }
    }

    fn spec_bins(&self) -> Vec<SpecBin> {
        (0..self.spec.bins())
            .map(|i| {
                (
                    self.spec.capacity(i),
                    self.spec.queue_labels(i),
                    self.spec.is_bin_offline(i),
                )
            })
            .collect()
    }

    /// Replaces the specification by one in the same round holding
    /// `pool` and `bins` (its arrival model generates nothing; rounds
    /// inject their balls).
    fn rebuild_spec(&mut self, mut pool: Vec<u64>, bins: Vec<SpecBin>) {
        pool.sort_unstable();
        let config = CappedConfig::new(bins.len(), self.c, 0.0).expect("valid");
        self.spec = SpecCapped::from_state(&config, self.spec.round(), &pool, bins);
    }

    /// Applies mutator `op` (with parameter `x`) to all three.
    fn mutate(&mut self, op: u8, x: u64) {
        let n = self.fast.len();
        let bin = (x % n as u64) as usize;
        let stride_past = 2 * self.c.next_power_of_two() + 1;
        let capacity = match op {
            2 => Some(finite(1 + (x as u32 >> 8) % self.c)), // degrade
            3 => Some(finite(stride_past)),                  // past the stride
            4 => Some(Capacity::Infinite),
            5 => Some(finite(self.c)), // restore
            6 => Some(finite(1 + (x as u32 >> 8) % (2 * self.c + 4))),
            _ => None,
        };
        match op {
            0 | 1 => {
                let offline = op == 0;
                self.fast.set_offline(bin, offline);
                self.walk.set_offline(bin, offline);
                self.spec.set_bin_offline(bin, offline);
            }
            2..=6 => {
                let capacity = capacity.expect("capacity ops");
                self.fast.set_capacity(bin, capacity);
                self.walk.set_capacity(bin, capacity);
                self.spec.set_bin_capacity(bin, capacity);
            }
            7 => {
                // A bin joins, carrying up to c + 3 balls (overfull if
                // more than its capacity) from rounds up to now.
                let round = self.spec.round();
                let load = (x >> 8) % u64::from(self.c + 4);
                let mut labels: Vec<u64> = (0..load)
                    .map(|k| (x >> 16).wrapping_add(k) % (round + 1))
                    .collect();
                labels.sort_unstable();
                let balls: Vec<Ball> = labels.iter().map(|&l| Ball::generated_in(l)).collect();
                let capacity = if x & 1 == 0 {
                    finite(self.c)
                } else {
                    finite(1 + (x as u32 >> 4) % 5)
                };
                let offline = (x >> 1) & 3 == 0;
                self.fast.push_bin_with(capacity, &balls, offline);
                self.walk.push_bin_with(capacity, &balls, offline);
                let mut bins = self.spec_bins();
                bins.push((capacity, labels, offline));
                self.rebuild_spec(self.spec.pool_labels(), bins);
            }
            8 if n > 1 => {
                // The last bin leaves; its balls re-enter the pool.
                let part: BinPart = self.fast.pop_bin();
                assert_eq!(part, self.walk.pop_bin(), "popped bins diverged");
                let mut bins = self.spec_bins();
                let (cap, labels, offline) = bins.pop().expect("n > 1");
                let popped: Vec<u64> = part.1.iter().map(|b| b.label()).collect();
                assert_eq!((part.0, &popped, part.2), (cap, &labels, offline));
                let mut pool = self.spec.pool_labels();
                pool.extend(popped);
                self.rebuild_spec(pool, bins);
            }
            9 if n > 1 => {
                // Pop the upper bins off into their own shard, then push
                // them back.
                let at = 1 + (x as usize >> 8) % (n - 1);
                for shard in [&mut self.fast, &mut self.walk] {
                    let first = shard.first_bin() + at;
                    let mut parts: Vec<BinPart> = (at..n).map(|_| shard.pop_bin()).collect();
                    parts.reverse();
                    let upper = BinShard::from_parts(first, parts);
                    assert_eq!(upper.first_bin(), first);
                    for (cap, balls, offline) in upper.to_parts() {
                        shard.push_bin_with(cap, &balls, offline);
                    }
                }
            }
            10 => {
                // Rebuild the kernel's shard from its parts (the walk
                // keeps its arena, stride included).
                self.fast = BinShard::from_parts(self.fast.first_bin(), self.fast.to_parts());
            }
            _ => {}
        }
        assert_eq!(self.fast.to_parts(), self.walk.to_parts(), "op {op}");
    }

    /// One round: `fresh` new balls (labeled with the last completed
    /// round) join the pool, then every pooled ball throws at a uniform
    /// bin. Asserts that all three agree.
    fn round(&mut self, fresh: u64) {
        self.spec.inject_pool(fresh);
        let labels = self.spec.pool_labels();
        let n = self.fast.len();
        let choices: Vec<usize> = labels.iter().map(|_| self.rng.uniform_bin(n)).collect();
        let mut runs: Vec<Run> = Vec::new();
        for &label in &labels {
            push_run(&mut runs, label, 1);
        }
        let choices32: Vec<u32> = choices.iter().map(|&b| b as u32).collect();

        let (mut rejected, mut served) = (Vec::new(), Vec::new());
        let stats = self
            .fast
            .run_round(&choices32, &runs, &mut rejected, |b, ball| {
                served.push((b, ball))
            });

        let (mut walk_rejected, mut walk_served) = (Vec::new(), Vec::new());
        let mut accepted = 0;
        for (&b, &label) in choices.iter().zip(&labels) {
            let ball = Ball::generated_in(label);
            if self.walk.try_accept(b, ball) {
                accepted += 1;
            } else {
                walk_rejected.push(ball);
            }
        }
        let walk_stats = ShardRoundStats {
            accepted,
            ..self.walk.serve_sweep(|b, ball| walk_served.push((b, ball)))
        };

        let report = self.spec.step_with_choices(&choices);
        let round = self.spec.round();
        let rejected: Vec<Ball> = expand(&rejected).collect();
        assert_eq!(stats, walk_stats, "round {round}: stats");
        assert_eq!(rejected, walk_rejected, "round {round}: rejects");
        assert_eq!(served, walk_served, "round {round}: served balls");
        assert_eq!(self.fast.to_parts(), self.walk.to_parts(), "round {round}");

        assert_eq!(
            stats.accepted, report.accepted,
            "round {round}: spec accepted"
        );
        assert_eq!(stats.failed_deletions, report.failed_deletions);
        assert_eq!(stats.buffered, report.buffered);
        assert_eq!(stats.max_load, report.max_load);
        let pool: Vec<u64> = rejected.iter().map(Ball::label).collect();
        assert_eq!(pool, self.spec.pool_labels(), "round {round}: spec pool");
        let waits: Vec<u64> = served.iter().map(|(_, ball)| ball.age_at(round)).collect();
        assert_eq!(waits, report.waiting_times, "round {round}: spec waits");
        let parts: Vec<SpecBin> = self
            .fast
            .to_parts()
            .into_iter()
            .map(|(cap, balls, offline)| (cap, balls.iter().map(Ball::label).collect(), offline))
            .collect();
        assert_eq!(parts, self.spec_bins(), "round {round}: spec bins");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Fused rounds interleaved with random register mutators match the
    /// per-ball walk and the specification round by round.
    #[test]
    fn fused_rounds_match_walk_and_spec_under_every_mutator(
        n in 2usize..12,
        c in 1u32..4,
        seed in any::<u64>(),
        steps in prop::collection::vec((0u8..14, any::<u64>(), 0u64..16), 1..48),
    ) {
        let mut lockstep = Lockstep::new(n, c, seed);
        for (op, x, fresh) in steps {
            lockstep.mutate(op, x);
            lockstep.round(fresh);
        }
    }
}

/// Each mutator's register rewrite shows up in the very next fused round:
/// a deterministic walk through all of them on one shard.
#[test]
fn every_mutator_is_followed_by_a_matching_round() {
    let mut lockstep = Lockstep::new(6, 2, 11);
    for round in 0..4 {
        lockstep.round(6 + round);
    }
    for (op, x) in [
        (0, 1),
        (3, 2),
        (7, 0x0301),
        (4, 3),
        (1, 1),
        (2, 0x100),
        (9, 0x200),
        (10, 0),
        (8, 0),
        (6, 0x700),
        (5, 2),
        (5, 3),
    ] {
        lockstep.mutate(op, x);
        lockstep.round(7);
        lockstep.round(5);
    }
}
