//! The metric catalog and the result a workload hands back.
//!
//! Every workload reports every end-to-end metric: each name below is
//! defined for all three workloads (see the README). Per-layer metrics of
//! a layer a workload never enters read 0, which is the work it did there.
//! Informational metrics are printed in the table of an untraced run but
//! not in the result line: on the 2-vCPU host they follow the share of
//! time the host ran slow, so no bound of 25 % holds them (README).

use std::collections::BTreeMap;

use iba_obs::json::JsonObjWriter;

use crate::stats::Windowed;

/// End-to-end metrics `(name, unit)`, measured with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("balls_per_s", "1/s"),
];

/// Informational end-to-end metrics `(name, unit)`, printed untraced.
pub const INFO: &[(&str, &str)] = &[
    ("completed_per_s", "1/s"),
    ("round_us_p50", "us"),
    ("round_us_p99", "us"),
    ("complete_us_p50", "us"),
    ("complete_us_p90", "us"),
    ("complete_us_p99", "us"),
];

/// Per-layer metrics `(name, unit)`, measured in the traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("burnin.rounds", "count"),
    ("burnin.ns_per_round", "ns"),
    ("engine.observe_ns_per_round", "ns"),
    ("rng.fill_ns_per_ball", "ns"),
    ("process.step_ns_per_round", "ns"),
    ("core.generate_ns", "ns"),
    ("core.accept_ns", "ns"),
    ("core.serve_ns", "ns"),
    ("core.thrown_per_round", "count"),
    ("core.accept_ratio", "ratio"),
    ("core.fast_accept_share", "ratio"),
    ("dispatch.submit_ns", "ns"),
    ("dispatch.saturated_share", "ratio"),
    ("service.round_ns", "ns"),
    ("service.route_ns", "ns"),
    ("service.merge_ns", "ns"),
    ("shard.round_ns", "ns"),
    ("service.admit_per_round", "count"),
    ("completion.drain_ns_per_round", "ns"),
    ("proto.encode_ns_per_frame", "ns"),
    ("proto.decode_ns_per_frame", "ns"),
    ("proto.bytes_per_request", "bytes"),
    ("net.poll_ns", "ns"),
    ("net.polls_per_round", "count"),
    ("net.idle_poll_share", "ratio"),
    ("net.notify_ns_per_completion", "ns"),
    ("net.admit_us_p50", "us"),
    ("net.admit_us_p99", "us"),
    ("client.write_ns_per_batch", "ns"),
    ("client.read_ns_per_call", "ns"),
    ("gen.late_us_p99", "us"),
    ("failed_share", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("reconcile.residual_share", "ratio"),
];

/// Largest reconciliation residual a traced run accepts: the round-path
/// layers' self times must cover at least this share less than all of the
/// traced round wall time.
pub const RECONCILE_TOLERANCE: f64 = 0.10;

#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    /// `name -> (value, samples)`; units come from the catalog.
    pub metrics: BTreeMap<&'static str, (f64, u64)>,
    pub params: Vec<(String, String)>,
}

impl Outcome {
    pub fn check(&mut self, name: &'static str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name,
            ok,
            detail: detail.into(),
        });
    }

    pub fn metric(&mut self, name: &'static str, value: f64, samples: u64) {
        debug_assert!(
            END_TO_END
                .iter()
                .chain(INFO)
                .chain(PER_LAYER)
                .any(|(n, _)| *n == name),
            "{name} is not in the catalog"
        );
        self.metrics.insert(name, (value, samples));
    }

    /// Records the `q`-quantile of `samples` (ns) of a typical second, in
    /// microseconds.
    pub fn timing(&mut self, name: &'static str, samples: &Windowed, q: f64) {
        let (ns, count) = samples.typical(q);
        self.metric(name, ns / 1e3, count);
    }

    pub fn param(&mut self, key: &str, value: impl ToString) {
        self.params.push((key.to_string(), value.to_string()));
    }

    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }
}

/// The catalog a run prints: end-to-end untraced, per-layer traced.
pub fn catalog(traced: bool) -> &'static [(&'static str, &'static str)] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// The final result line. Missing per-layer metrics read 0; a missing
/// end-to-end metric is a bug in the workload and fails the run.
pub fn result_line(outcome: &Outcome, traced: bool) -> Result<String, String> {
    let mut metrics = JsonObjWriter::new();
    for &(name, unit) in catalog(traced) {
        let value = match outcome.metrics.get(name) {
            Some(&(v, _)) => v,
            None if traced => 0.0,
            None => return Err(format!("workload did not measure {name}")),
        };
        if !value.is_finite() {
            return Err(format!("{name} is not finite"));
        }
        let mut m = JsonObjWriter::new();
        m.field_f64("value", value);
        m.field_str("unit", unit);
        metrics.field_raw(name, &m.finish());
    }
    let mut w = JsonObjWriter::new();
    w.field_bool("correct", true);
    w.field_u64("attempted", outcome.attempted.max(1));
    w.field_u64("failed", outcome.failed);
    w.field_raw("metrics", &metrics.finish());
    Ok(w.finish())
}

/// Human-readable table: every printed metric with its unit and the
/// number of samples behind it, then the informational ones.
pub fn table(outcome: &Outcome, traced: bool) -> String {
    let mut out = String::new();
    let info: &[(&str, &str)] = if traced { &[] } else { INFO };
    for &(name, unit) in catalog(traced).iter().chain(info) {
        let (value, samples) = outcome.metrics.get(name).copied().unwrap_or((0.0, 0));
        out.push_str(&format!(
            "  {name:<32} {value:>16.4} {unit:<6} samples={samples}\n"
        ));
    }
    out
}
