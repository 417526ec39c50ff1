//! Round workers: the only work that leaves the driver thread.
//!
//! The driver owns every shard. A [`Slot`] holds one shard's bins, the
//! tallies of its last round, and the request and reply buffers its
//! rounds reuse. Each round the driver routes requests into the slots,
//! hands the slot of shard `k ≥ 1` to persistent [`Worker`] `k − 1`, runs
//! shard 0 itself, and takes the slots back in shard order. A worker
//! keeps no state between rounds: it runs [`BinShard::run_round`] on the
//! slot it is given and returns it. The workers draw no randomness — the
//! driver draws every ball's bin from its own stream.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

use iba_core::pool::Run;
use iba_core::shard::{BinShard, ShardRoundStats};
use iba_core::Ball;

use crate::obs;

/// One shard as the driver holds it: its bins (boxed, so a slot is a
/// small message), its last round's tallies, and the buffers a round
/// fills. A round moves the slot to a worker thread and back.
#[derive(Debug)]
pub(crate) struct Slot {
    /// The shard's bins, `first_bin()..end()` globally.
    pub bins: Box<BinShard>,
    /// The local bin of every ball routed to this shard for the next
    /// round, in pool (oldest-first) order. The round consumes them.
    pub choices: Vec<u32>,
    /// The label runs of the routed balls: `choices[i]` belongs to the
    /// `i`-th ball of the runs. The round consumes them.
    pub runs: Vec<Run>,
    /// How many of `choices` the closed `runs` cover; the rest belong to
    /// the run being routed.
    routed: u64,
    /// The last round's rejected balls as runs, oldest-first, until the
    /// driver merges them into the pool.
    pub rejected: Vec<Run>,
    /// The last round's served balls with their local bin, in bin order.
    pub served: Vec<(u32, Ball)>,
    /// The last round's statistics; `buffered` and `max_load` describe
    /// the shard after its deletion stage.
    pub stats: ShardRoundStats,
}

impl Slot {
    /// Wraps `bins`, tallying their current load as if a round had just
    /// ended.
    pub fn new(bins: BinShard) -> Self {
        let loads = bins.loads();
        let stats = ShardRoundStats {
            buffered: loads.iter().sum::<usize>() as u64,
            max_load: loads.into_iter().max().unwrap_or(0) as u64,
            ..ShardRoundStats::default()
        };
        Slot {
            bins: Box::new(bins),
            choices: Vec::new(),
            runs: Vec::new(),
            routed: 0,
            rejected: Vec::new(),
            served: Vec::new(),
            stats,
        }
    }

    /// One past the last global bin this shard owns.
    pub fn end(&self) -> usize {
        self.bins.first_bin() + self.bins.len()
    }

    /// Ends the run labeled `label`: the balls routed since the last
    /// closed run become one run, if there are any.
    pub fn close_run(&mut self, label: u64) {
        let count = self.choices.len() as u64 - self.routed;
        if count > 0 {
            self.runs.push(Run::new(label, count));
            self.routed += count;
        }
    }

    /// Runs one bin-local round on the routed requests, refilling the
    /// reply buffers and the tallies.
    pub fn run(&mut self) {
        let timer = iba_obs::PhaseTimer::start();
        self.rejected.clear();
        self.served.clear();
        let served = &mut self.served;
        self.stats = self.bins.run_round(
            &self.choices,
            &self.runs,
            &mut self.rejected,
            |local, ball| served.push((local as u32, ball)),
        );
        self.choices.clear();
        self.runs.clear();
        self.routed = 0;
        if let Some(p) = obs::probes() {
            timer.observe(&p.shard_round_nanos);
        }
    }
}

/// A persistent thread that runs the rounds of the slots it is sent.
#[derive(Debug)]
pub(crate) struct Worker {
    jobs: Sender<Slot>,
    done: Receiver<Slot>,
    join: JoinHandle<()>,
}

impl Worker {
    /// Starts the worker that runs shard `shard`'s rounds.
    pub fn spawn(shard: usize) -> Self {
        let (jobs, inbox) = channel::<Slot>();
        let (outbox, done) = channel();
        let join = std::thread::Builder::new()
            .name(format!("iba-serve-round-{shard}"))
            .spawn(move || {
                for mut slot in inbox {
                    slot.run();
                    if outbox.send(slot).is_err() {
                        return; // driver gone
                    }
                }
            })
            .expect("spawn round worker thread");
        Worker { jobs, done, join }
    }

    /// Hands the worker a slot whose requests are routed.
    pub fn send(&self, slot: Slot) {
        self.jobs.send(slot).expect("round worker alive");
    }

    /// Waits for the slot back, its round run.
    pub fn recv(&self) -> Slot {
        self.done.recv().expect("round worker alive")
    }

    /// Ends the thread and joins it.
    pub fn stop(self) {
        drop(self.jobs);
        let _ = self.join.join();
    }
}
