//! Worker-thread internals: the per-shard command loop.
//!
//! Each worker owns one [`BinShard`] (a contiguous range of bins) and no
//! randomness: the driver draws every ball's bin from its own stream and
//! sends the worker requests already routed to local bins. The driver
//! broadcasts one command per round on the worker's private channel;
//! because mpsc channels deliver in send order, fault commands sent
//! before a round command are guaranteed to apply before that round
//! executes.

use std::sync::mpsc::{Receiver, Sender};

use iba_core::shard::{BinPart, BinShard};
use iba_core::{Ball, Capacity};

use crate::obs;

/// A fault operation targeting one local bin of a shard.
#[derive(Debug, Clone, Copy)]
pub(crate) enum FaultOp {
    /// Take the bin offline (`true`) or bring it back (`false`).
    Offline(bool),
    /// Change the bin's live capacity (`None` = unbounded).
    Capacity(Option<u32>),
}

/// One command from the driver to a shard worker.
#[derive(Debug)]
pub(crate) enum ShardCmd {
    /// Apply a fault operation to local bin `local` before the next round.
    Fault { local: u32, op: FaultOp },
    /// Execute one round on requests already routed to local bins.
    /// Requests are ordered oldest-first.
    Round {
        round: u64,
        requests: Vec<(u32, Ball)>,
    },
    /// Capture the shard's full state for a service checkpoint. The reply
    /// goes to the dedicated `reply` channel so it cannot interleave with
    /// round replies.
    Snapshot { reply: Sender<ShardSnapshot> },
    /// Append bins (capacity, FIFO contents oldest-first, offline flag)
    /// at the top of the shard's local index space — elastic growth, or
    /// the receiving half of a shard merge.
    PushBins { parts: Vec<BinPart> },
    /// Remove the top `count` bins and hand their state back in ascending
    /// bin order (elastic shrink). The worker never gives up its last bin;
    /// the driver clamps `count` accordingly.
    PopBins {
        count: usize,
        reply: Sender<Vec<BinPart>>,
    },
    /// Split the shard at local bin `at`, handing back the upper half in
    /// ascending bin order (the driver spawns a new worker for it).
    SplitOff {
        at: usize,
        reply: Sender<Vec<BinPart>>,
    },
    /// Terminate the worker loop.
    Stop,
}

/// One shard's checkpointable state, as captured by [`ShardCmd::Snapshot`]
/// between rounds.
#[derive(Debug)]
pub(crate) struct ShardSnapshot {
    pub shard: usize,
    /// Every bin's live capacity (fault injection may have diverged it
    /// from the configured profile), FIFO contents, and offline flag, in
    /// bin order.
    pub parts: Vec<BinPart>,
}

/// A worker's answer to one round command.
#[derive(Debug)]
pub(crate) struct ShardReply {
    pub shard: usize,
    pub round: u64,
    /// Balls accepted into this shard's bins this round.
    pub accepted: u64,
    /// Rejected balls, in request order (hence oldest-first).
    pub rejected: Vec<Ball>,
    /// Balls served this round, in bin order.
    pub served: Vec<Ball>,
    /// Waiting times of the served balls, in bin order.
    pub waits: Vec<u64>,
    /// Local bin index of each served ball, parallel to `served`.
    pub served_bins: Vec<u32>,
    /// Online bins whose deletion attempt found an empty buffer.
    pub failed_deletions: u64,
    /// Balls left buffered in this shard after the deletion stage.
    pub buffered: u64,
    /// Maximum bin load in this shard after the deletion stage.
    pub max_load: u64,
}

/// The worker loop: owns the shard state for its whole lifetime and
/// executes commands until `Stop` or the driver disappears.
pub(crate) fn worker_loop(
    shard_id: usize,
    mut bins: BinShard,
    cmds: Receiver<ShardCmd>,
    replies: Sender<ShardReply>,
) {
    for cmd in cmds {
        match cmd {
            ShardCmd::Fault { local, op } => match op {
                FaultOp::Offline(offline) => bins.set_offline(local as usize, offline),
                FaultOp::Capacity(capacity) => {
                    let capacity = match capacity {
                        None => Capacity::Infinite,
                        Some(c) => match Capacity::finite(c) {
                            Ok(cap) => cap,
                            Err(_) => continue, // malformed (0): skip, like FaultedProcess
                        },
                    };
                    bins.set_capacity(local as usize, capacity);
                }
            },
            ShardCmd::Round { round, requests } => {
                if run_round(shard_id, &mut bins, round, &requests, &replies).is_err() {
                    return; // driver gone
                }
            }
            ShardCmd::Snapshot { reply } => {
                let snapshot = ShardSnapshot {
                    shard: shard_id,
                    parts: bins.to_parts(),
                };
                if reply.send(snapshot).is_err() {
                    return; // driver gone
                }
            }
            ShardCmd::PushBins { parts } => {
                for (capacity, contents, offline) in parts {
                    bins.push_bin_with(capacity, &contents, offline);
                }
            }
            ShardCmd::PopBins { count, reply } => {
                debug_assert!(count < bins.len(), "driver keeps at least one bin");
                let mut parts: Vec<_> = (0..count).map(|_| bins.pop_bin()).collect();
                parts.reverse(); // popped top-down; hand back in bin order
                if reply.send(parts).is_err() {
                    return; // driver gone
                }
            }
            ShardCmd::SplitOff { at, reply } => {
                if reply.send(bins.split_off(at)).is_err() {
                    return; // driver gone
                }
            }
            ShardCmd::Stop => return,
        }
    }
}

fn run_round(
    shard_id: usize,
    bins: &mut BinShard,
    round: u64,
    requests: &[(u32, Ball)],
    replies: &Sender<ShardReply>,
) -> Result<(), ()> {
    let timer = iba_obs::PhaseTimer::start();
    let mut rejected = Vec::new();
    let mut served = Vec::new();
    let mut waits = Vec::new();
    let mut served_bins = Vec::new();
    let stats = bins.run_round(
        requests.iter().map(|&(local, ball)| (local as usize, ball)),
        &mut rejected,
        |local, ball| {
            served.push(ball);
            waits.push(ball.age_at(round));
            served_bins.push(local as u32);
        },
    );
    if let Some(p) = obs::probes() {
        timer.observe(&p.shard_round_nanos);
    }
    replies
        .send(ShardReply {
            shard: shard_id,
            round,
            accepted: stats.accepted,
            rejected,
            served,
            waits,
            served_bins,
            failed_deletions: stats.failed_deletions,
            buffered: stats.buffered,
            max_load: stats.max_load,
        })
        .map_err(|_| ())
}
