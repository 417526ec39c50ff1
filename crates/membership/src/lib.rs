//! Elastic membership for the CAPPED(c, λ) serve stack.
//!
//! The paper's process fixes `n` at construction; a production fleet does
//! not. This crate holds the two membership-change building blocks the
//! `iba-serve` dispatch service composes into runtime grow/shrink:
//!
//! - **Replayable plans** ([`plan`]) — [`MembershipEvent`]s (add or
//!   remove bins at the top of the index space) keyed to round boundaries in a
//!   [`MembershipPlan`], the same round-keyed container
//!   ([`iba_sim::plan::RoundPlan`]) the fault plans use, so a churn run
//!   replays bit-exactly.
//! - **Autoscaling policy** ([`autoscaler`]) — an [`Autoscaler`] consuming
//!   per-round observations of the pool size against the Theorem 2 bound
//!   (the caller computes the bound) and emitting grow/shrink events with
//!   hysteresis, patience, and cooldown.
//!
//! The crate depends only on `iba-sim`, for the plan container; the
//! mechanics (arena grow and shrink, draining removed bins into the pool)
//! live in `iba_core::CappedProcess`, which the `iba-serve` service steps.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod autoscaler;
pub mod plan;

pub use autoscaler::{Autoscaler, AutoscalerConfig, ScaleDecision};
pub use plan::{MembershipEvent, MembershipPlan};
