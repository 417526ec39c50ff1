//! A dispatch service running the CAPPED(c, λ) discipline of
//! *"Infinite Balanced Allocation via Finite Capacities"* (ICDCS 2021) as
//! a live system instead of an offline simulation.
//!
//! The crate turns [`iba_core::process::CappedProcess`] into a service:
//!
//! - **The process plus tickets** ([`service`]) — the service holds one
//!   `CappedProcess` over the live bins and steps it once per round with
//!   the round's arrivals (model balls plus admitted requests); a sink on
//!   the process's serve sweep records each served ball's bin, and one
//!   pass completes the tickets. The service starts no thread; between
//!   rounds faults, membership changes and checkpoints are plain calls on
//!   the driver.
//! - **Round clock** ([`clock`]) — rounds are logical epochs; an optional
//!   wall-clock pacing mode spaces them at a fixed interval.
//! - **Admission front end** ([`dispatch`]) — clients submit requests
//!   through a [`Dispatcher`] backed by a *bounded* ingress queue
//!   (backpressure), receive a per-request [`Ticket`], and are notified of
//!   service with a [`Completion`] carrying the measured waiting time.
//! - **Network front end** ([`net`] + [`proto`]) — a std-only,
//!   non-blocking TCP listener speaking a small length-prefixed wire
//!   protocol for allocation requests (explicit saturation replies as
//!   backpressure, streamed completion notifications), with the
//!   [`iba_obs`] Prometheus exposition served over minimal HTTP
//!   (`GET /metrics`) on the same event loop for mid-run scraping.
//! - **Workload generation** ([`workload`]) — open-loop λn-per-round
//!   arrivals plus burst/surge scenarios described by the same
//!   [`iba_sim::faults::FaultPlan`] schedules the simulator uses.
//! - **Live metrics** ([`metrics`]) — periodic JSON-lines snapshots of
//!   pool size, max bin load, and exact p50/p99/p999 waiting-time
//!   quantiles ([`iba_core::metrics::WaitQuantiles`]).
//!
//! Everything is std-only: no async runtime, no external crates.
//!
//! # Determinism and the differential guarantee
//!
//! The driver owns the service's only RNG stream and steps the process
//! with it: the arrival sample, then one bulk draw of every pooled ball's
//! bin, oldest-first, exactly as `CappedProcess::step` does. So the
//! service's round-by-round trajectory — pool size, bin loads, waiting
//! times — is **bit-identical** to the bare process under the same seed,
//! and its checkpoint embeds the process's checkpoint byte for byte. The `differential` integration test pins
//! this.
//!
//! # Example
//!
//! ```
//! use iba_core::CappedConfig;
//! use iba_serve::{ServiceConfig, CappedService};
//!
//! # fn main() -> Result<(), iba_sim::error::ConfigError> {
//! let capped = CappedConfig::new(64, 2, 0.75)?;
//! let mut service =
//!     CappedService::spawn(ServiceConfig::new(capped, 1, 7).with_model_arrivals(true))?;
//! let report = service.run_round();
//! assert_eq!(report.generated, 48); // λn = 0.75 · 64
//! assert!(service.conserves_balls());
//! service.shutdown();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chaos;
pub mod checkpoint;
pub mod client;
pub mod clock;
pub mod dispatch;
pub mod metrics;
pub mod net;
mod obs;
pub mod proto;
pub mod service;
pub mod workload;

pub use chaos::{NetFault, NetFaultPlan};
pub use checkpoint::{ResumeError, ServeCheckpointError};
pub use client::{ClientConfig, ClientError, ClientStats, NetClient};
pub use clock::{Pacing, RoundClock};
pub use dispatch::{Completion, Dispatcher, SubmitError, Ticket};
pub use metrics::ServeSnapshot;
pub use net::{
    run_net_loop, AdmissionControl, NetFrontend, NetLoopOptions, NetLoopSummary, NetStats,
};
pub use proto::{CloseReason, Frame, FrameDecoder, ProtoError};
pub use service::{CappedService, RngMode, ServiceConfig};
// Re-exported so serve-layer users can name the round kernel reported by
// `CappedService::kernel_mode` without a direct `iba_core` dependency.
pub use iba_core::KernelMode;
pub use workload::{run_open_loop, OpenLoop, WorkloadSummary};
