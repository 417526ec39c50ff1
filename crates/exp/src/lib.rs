//! Experiment registry for the workspace.
//!
//! [`registry`] is an append-only JSONL store of
//! [`registry::RunRecord`]s: content-hashed config, seed, git revision,
//! host, kernel mode, wall time and flattened metrics. It is write-only:
//! nothing here reads the store back, and a re-run appends a second line.
//! `iba-top --snapshot-json` appends its run record there.
//!
//! The paper's numbers are not kept here: every experiment's CSV is
//! committed as the reproduction record and checked byte for byte by
//! `figures --check` (`iba_bench::record`).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod registry;
