//! Experiment registry and replication tooling for the workspace.
//!
//! Every sweep run in the workspace produces numbers that are only as
//! trustworthy as their provenance. This crate turns those runs into
//! first-class records:
//!
//! - [`registry`] — an append-only JSONL store of [`registry::RunRecord`]s
//!   (content-hashed config, seed, git revision, host, kernel mode, wall
//!   time, flattened metrics) with a strict parser and dedup-by-hash,
//!   plus the sweep's canonical config pairs.
//! - [`gate`] — the regression gate behind `replicate --check`: compares
//!   a fresh run against the newest prior record with the same config
//!   hash, direction-aware per metric; a gate that compared nothing
//!   fails.
//! - [`svg`] / [`report`] — std-only hand-rolled inline-SVG charts and
//!   the static `report.html` (provenance table, bound-vs-measured
//!   overlays, gate results).
//!
//! The crate has no binaries: `iba-bench`'s `replicate` ties these
//! together, running the quick paper replication sweep in process,
//! recording it, gating it and rendering the report. (`iba-bench` sits
//! above this crate, so the sweep cannot live here.)

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod gate;
pub mod registry;
pub mod report;
pub mod svg;
