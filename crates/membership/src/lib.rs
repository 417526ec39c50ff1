//! Elastic membership for the CAPPED(c, λ) serve stack.
//!
//! The paper's process fixes `n` at construction; a production fleet does
//! not. This crate holds the three membership-change building blocks the
//! `iba-serve` dispatch service composes into runtime grow/shrink:
//!
//! - **Replayable plans** ([`plan`]) — [`MembershipEvent`]s (add/remove
//!   bins, split/merge shards) keyed to round boundaries in a
//!   [`MembershipPlan`], the same round-keyed container
//!   ([`iba_sim::plan::RoundPlan`]) the fault plans use, so a churn run
//!   replays bit-exactly.
//! - **Placement routers** ([`router`]) — two front-end placement
//!   strategies behind the [`Router`] trait: the classic round-robin
//!   resharder ([`RoundRobinRouter`], modulo over the live bin set — every
//!   membership change reshuffles almost every key) and consistent hashing
//!   with bounded loads ([`BoundedLoadRouter`], virtual nodes on a hash
//!   ring with a per-bin load cap of ⌈(1+ε)·avg⌉ — membership changes
//!   move `O(keys/n)` keys). The `membership_baseline` harness benchmarks
//!   them head-to-head on balls moved per membership change, following
//!   "Load Balancing with Dynamic Set of Balls and Bins"
//!   (Aamand–Knudsen–Thorup, arXiv:2104.05093).
//! - **Autoscaling policy** ([`autoscaler`]) — an [`Autoscaler`] consuming
//!   the pool-size-vs-Theorem-1-bound observations the telemetry layer
//!   already exports and emitting grow/shrink events with hysteresis,
//!   patience, and cooldown.
//!
//! The crate depends only on `iba-sim`, for the plan container; the
//! serve-side mechanics (arena grow/shrink, shard splits, ball draining)
//! live in `iba-core` and `iba-serve`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod autoscaler;
pub mod plan;
pub mod router;

pub use autoscaler::{Autoscaler, AutoscalerConfig, ScaleDecision};
pub use plan::{MembershipEvent, MembershipPlan};
pub use router::{moved_keys, BoundedLoadRouter, RoundRobinRouter, Router};
