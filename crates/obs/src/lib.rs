//! Unified telemetry for the CAPPED(c, λ) reproduction.
//!
//! This crate is the observability substrate every other workspace crate
//! records into. It is **std-only** and sits at the bottom of the
//! dependency stack (it depends on nothing, so `iba-sim`, `iba-core` and
//! `iba-serve` can all probe through it without cycles). Four pieces:
//!
//! - [`registry`] — named atomic counters, gauges and fixed-bucket
//!   histograms behind a process-wide on/off switch
//!   ([`set_enabled`]/[`enabled`]). **The disabled path of every probe is
//!   a single relaxed atomic load**, so probes live inside the hot round
//!   kernel; `kernel_differential::telemetry_toggle_does_not_perturb_the_trajectory`
//!   pins that switching it changes no trajectory.
//! - [`expo`] — Prometheus-style text exposition of a registry snapshot.
//! - [`json`] — the workspace's single hand-rolled JSON writer. Every
//!   JSONL producer (ServeSnapshot, the experiment run registry,
//!   flight-recorder post-mortems with their [`sink`]-rendered registry
//!   snapshot) renders through it and stamps a `schema` version field.
//! - [`flight`] — the flight recorder: a fixed-size ring of recent
//!   round-level events that dumps a JSON post-mortem (events + registry
//!   snapshot) on panic or invariant violation.
//!
//! Telemetry is write-only: nothing in the library reads back what it
//! wrote. The JSON reader in [`json`] is kept for tests (and the
//! benchmark's contract test); the exposition parser is test support.
//!
//! # Example
//!
//! ```
//! use iba_obs::{global, set_enabled, PhaseTimer};
//!
//! set_enabled(true);
//! let rounds = iba_obs::global().counter("doc_rounds_total");
//! let latency = global().histogram("doc_round_nanos");
//!
//! let timer = PhaseTimer::start();
//! rounds.inc(); // one relaxed fetch_add
//! timer.observe(&latency);
//!
//! let text = iba_obs::expo::render(&global().snapshot());
//! assert!(text.contains("doc_rounds_total 1"));
//! set_enabled(false);
//! rounds.inc(); // single relaxed load, no write
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod expo;
pub mod flight;
pub mod json;
pub mod registry;
pub mod sink;

pub use registry::{
    enabled, global, init_from_env, set_enabled, Counter, Gauge, Histogram, HistogramSnapshot,
    PhaseTimer, Registry, RegistrySnapshot,
};

/// The strict exposition parser, shared with the integration suites.
#[cfg(test)]
#[path = "../tests/support/expo_parse.rs"]
mod expo_parse;
