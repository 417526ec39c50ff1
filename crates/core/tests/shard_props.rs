//! Property suite of the per-bin registers: random interleavings of
//! `BinArena` rounds (`accept_stream`, then `serve_sweep`) with every
//! mutator that rewrites a bin's register — crash and recovery, degrade
//! and raise (past the stride, far past it and back), `push_bin`,
//! `pop_bin`, and a rebuild through `from_bins` (the checkpoint restore's
//! path).
//!
//! Every round runs three ways: the kernel, a second arena walked ball by
//! ball through `try_accept` and finished with `serve_sweep`, and the
//! literal specification `SpecCapped`, rebuilt from its own state
//! whenever a bin joins or leaves. Stats, reject runs, served
//! `(bin, ball)` pairs and every bin's state must agree after each round.

use proptest::prelude::*;

use iba_core::pool::{expand, push_run, Run};
use iba_core::spec::{SpecBin, SpecCapped};
use iba_core::{Ball, BinArena, Capacity, CappedConfig};
use iba_sim::{AllocationProcess, SimRng};

fn finite(c: u32) -> Capacity {
    Capacity::finite(c).expect("positive")
}

/// One bin's live capacity, FIFO contents and offline flag.
type Part = (Capacity, Vec<Ball>, bool);

/// Every bin's [`Part`], in bin order.
fn parts(arena: &BinArena) -> Vec<Part> {
    (0..arena.bins())
        .map(|b| {
            let balls = arena.iter_bin(b).copied().collect();
            (arena.capacity(b), balls, arena.is_offline(b))
        })
        .collect()
}

/// An arena holding `parts`, built the way a checkpoint restore builds
/// one: `from_bins`, then the offline flags.
fn rebuild(parts: Vec<Part>) -> BinArena {
    let offline: Vec<bool> = parts.iter().map(|part| part.2).collect();
    let (caps, contents) = parts
        .into_iter()
        .map(|(cap, balls, _)| (cap, balls))
        .unzip();
    let mut arena = BinArena::from_bins(caps, contents);
    for (b, off) in offline.into_iter().enumerate() {
        arena.set_offline(b, off);
    }
    arena
}

/// Pops `arena`'s last bin, returning its [`Part`].
fn pop(arena: &mut BinArena) -> Part {
    let offline = arena.is_offline(arena.bins() - 1);
    let (cap, balls) = arena.pop_bin();
    (cap, balls, offline)
}

/// The kernel, the per-ball walk and the specification, in lockstep.
struct Lockstep {
    fast: BinArena,
    walk: BinArena,
    spec: SpecCapped,
    c: u32,
    rng: SimRng,
}

impl Lockstep {
    fn new(n: usize, c: u32, seed: u64) -> Self {
        let config = CappedConfig::new(n, c, 0.0).expect("valid");
        Lockstep {
            fast: BinArena::new(vec![config.capacity(); n]),
            walk: BinArena::new(vec![config.capacity(); n]),
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
        let n = self.fast.bins();
        let bin = (x % n as u64) as usize;
        let stride_past = 2 * self.c.next_power_of_two() + 1;
        let capacity = match op {
            2 => Some(finite(1 + (x as u32 >> 8) % self.c)), // degrade
            3 => Some(finite(stride_past)),                  // past the stride
            4 => Some(finite(64)),                           // far past the stride
            5 => Some(finite(self.c)),                       // restore
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
                // An empty, online bin joins.
                let capacity = if x & 1 == 0 {
                    finite(self.c)
                } else {
                    finite(1 + (x as u32 >> 4) % 5)
                };
                self.fast.push_bin(capacity);
                self.walk.push_bin(capacity);
                let mut bins = self.spec_bins();
                bins.push((capacity, Vec::new(), false));
                self.rebuild_spec(self.spec.pool_labels(), bins);
            }
            8 if n > 1 => {
                // The last bin leaves; its balls re-enter the pool.
                let part = pop(&mut self.fast);
                assert_eq!(part, pop(&mut self.walk), "popped bins diverged");
                let mut bins = self.spec_bins();
                let (cap, labels, offline) = bins.pop().expect("n > 1");
                let popped: Vec<u64> = part.1.iter().map(|b| b.label()).collect();
                assert_eq!((part.0, &popped, part.2), (cap, &labels, offline));
                let mut pool = self.spec.pool_labels();
                pool.extend(popped);
                self.rebuild_spec(pool, bins);
            }
            10 => {
                // Rebuild the kernel's arena from its parts, as a restore
                // does (the walk keeps its arena, stride included).
                self.fast = rebuild(parts(&self.fast));
            }
            _ => {}
        }
        assert_eq!(parts(&self.fast), parts(&self.walk), "op {op}");
    }

    /// One round: `fresh` new balls (labeled with the last completed
    /// round) join the pool, then every pooled ball throws at a uniform
    /// bin. Asserts that all three agree.
    fn round(&mut self, fresh: u64) {
        self.spec.inject_pool(fresh);
        let labels = self.spec.pool_labels();
        let n = self.fast.bins();
        let choices: Vec<usize> = labels.iter().map(|_| self.rng.uniform_bin(n)).collect();
        let mut runs: Vec<Run> = Vec::new();
        for &label in &labels {
            push_run(&mut runs, label, 1);
        }
        let choices32: Vec<u32> = choices.iter().map(|&b| b as u32).collect();

        let (mut rejected, mut served) = (Vec::new(), Vec::new());
        let accepted = self.fast.accept_stream(&choices32, &runs, &mut rejected);
        let stats = self.fast.serve_sweep(|b, ball| served.push((b, ball)));

        let (mut walk_rejected, mut walk_served) = (Vec::new(), Vec::new());
        let mut walked = 0;
        for (&b, &label) in choices.iter().zip(&labels) {
            let ball = Ball::generated_in(label);
            if self.walk.try_accept(b, ball) {
                walked += 1;
            } else {
                walk_rejected.push(ball);
            }
        }
        let walk_stats = self.walk.serve_sweep(|b, ball| walk_served.push((b, ball)));

        let report = self.spec.step_with_choices(&choices);
        let round = self.spec.round();
        let rejected: Vec<Ball> = expand(&rejected).collect();
        assert_eq!(
            (accepted, stats),
            (walked, walk_stats),
            "round {round}: stats"
        );
        assert_eq!(rejected, walk_rejected, "round {round}: rejects");
        assert_eq!(served, walk_served, "round {round}: served balls");
        assert_eq!(parts(&self.fast), parts(&self.walk), "round {round}");

        assert_eq!(accepted, report.accepted, "round {round}: spec accepted");
        assert_eq!(stats.failed_deletions, report.failed_deletions);
        assert_eq!(stats.buffered, report.buffered);
        assert_eq!(stats.max_load, report.max_load);
        let pool: Vec<u64> = rejected.iter().map(Ball::label).collect();
        assert_eq!(pool, self.spec.pool_labels(), "round {round}: spec pool");
        let waits: Vec<u64> = served.iter().map(|(_, ball)| ball.age_at(round)).collect();
        assert_eq!(waits, report.waiting_times, "round {round}: spec waits");
        let parts: Vec<SpecBin> = parts(&self.fast)
            .into_iter()
            .map(|(cap, balls, offline)| (cap, balls.iter().map(Ball::label).collect(), offline))
            .collect();
        assert_eq!(parts, self.spec_bins(), "round {round}: spec bins");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Kernel rounds interleaved with random register mutators match the
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

/// Each mutator's register rewrite shows up in the very next kernel round:
/// a deterministic walk through all of them on one arena.
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
