//! Live metrics export: point-in-time service snapshots and their
//! JSON-lines encoding.
//!
//! The service accumulates an exact waiting-time histogram as rounds
//! execute and keeps its bins' loads; [`ServeSnapshot`] captures them at
//! one instant and [`ServeSnapshot::to_json_line`] renders the snapshot
//! as one line of JSON through the workspace's shared writer
//! ([`iba_obs::json`]), stamped with the current
//! [`schema version`](iba_obs::json::SCHEMA_VERSION), suitable for
//! appending to a metrics log and ingesting with any JSONL tool.

use iba_core::metrics::WaitQuantiles;
use iba_obs::json::JsonObjWriter;

/// A point-in-time view of a running [`CappedService`]
/// (see [`CappedService::snapshot`]).
///
/// [`CappedService`]: crate::service::CappedService
/// [`CappedService::snapshot`]: crate::service::CappedService::snapshot
#[derive(Debug, Clone, PartialEq)]
pub struct ServeSnapshot {
    /// Last completed round.
    pub round: u64,
    /// Live bin count after that round (elastic membership moves this at
    /// runtime; equals the configured `n` for non-elastic services).
    pub bins: u64,
    /// Pool size (balls awaiting allocation) after that round.
    pub pool_size: u64,
    /// Total balls in bin buffers.
    pub buffered: u64,
    /// Maximum bin load.
    pub max_load: u64,
    /// Lifetime count of balls entering the system (model arrivals,
    /// admitted requests, and fault surges).
    pub total_generated: u64,
    /// Lifetime count of client requests admitted from the ingress queue.
    pub total_admitted: u64,
    /// Lifetime count of served (deleted) balls.
    pub total_served: u64,
    /// Exact waiting-time quantiles over every ball served so far
    /// (`None` until the first service).
    pub wait: Option<WaitQuantiles>,
}

impl ServeSnapshot {
    /// Renders the snapshot as one JSON line (no trailing newline),
    /// leading with the shared `schema` version field.
    ///
    /// # Examples
    ///
    /// ```
    /// use iba_serve::metrics::ServeSnapshot;
    /// let snap = ServeSnapshot {
    ///     round: 3,
    ///     bins: 16,
    ///     pool_size: 10,
    ///     buffered: 4,
    ///     max_load: 2,
    ///     total_generated: 50,
    ///     total_admitted: 50,
    ///     total_served: 36,
    ///     wait: None,
    /// };
    /// assert!(snap.to_json_line().starts_with("{\"schema\":1,\"round\":3,"));
    /// ```
    pub fn to_json_line(&self) -> String {
        let mut w = JsonObjWriter::with_schema();
        w.field_u64("round", self.round);
        w.field_u64("bins", self.bins);
        w.field_u64("pool_size", self.pool_size);
        w.field_u64("buffered", self.buffered);
        w.field_u64("max_load", self.max_load);
        w.field_u64("total_generated", self.total_generated);
        w.field_u64("total_admitted", self.total_admitted);
        w.field_u64("total_served", self.total_served);
        match &self.wait {
            None => w.field_null("wait"),
            Some(q) => {
                let mut wait = JsonObjWriter::new();
                wait.field_u64("count", q.count);
                wait.field_f64_fixed("mean", q.mean, 6);
                wait.field_u64("p50", q.p50);
                wait.field_u64("p99", q.p99);
                wait.field_u64("p999", q.p999);
                wait.field_u64("max", q.max);
                w.field_raw("wait", &wait.finish());
            }
        }
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iba_sim::stats::Histogram;

    fn snapshot(wait: Option<WaitQuantiles>) -> ServeSnapshot {
        ServeSnapshot {
            round: 12,
            bins: 24,
            pool_size: 345,
            buffered: 67,
            max_load: 2,
            total_generated: 1000,
            total_admitted: 900,
            total_served: 800,
            wait,
        }
    }

    #[test]
    fn json_line_without_quantiles() {
        let line = snapshot(None).to_json_line();
        assert_eq!(
            line,
            "{\"schema\":1,\"round\":12,\"bins\":24,\"pool_size\":345,\"buffered\":67,\
             \"max_load\":2,\"total_generated\":1000,\
             \"total_admitted\":900,\"total_served\":800,\"wait\":null}"
        );
    }

    #[test]
    fn json_line_with_quantiles_parses() {
        let hist: Histogram = (0..100).collect();
        let q = WaitQuantiles::from_histogram(&hist).unwrap();
        let line = snapshot(Some(q)).to_json_line();
        assert!(line.contains("\"p999\":"));
        assert!(line.contains("\"mean\":49.5"));
        assert!(!line.contains('\n'));
        // Structurally valid per the shared parser, with the schema stamp.
        let v = iba_obs::json::parse(&line).unwrap();
        assert_eq!(
            v.get("schema").and_then(|s| s.as_u64()),
            Some(iba_obs::json::SCHEMA_VERSION)
        );
        let wait = v.get("wait").unwrap();
        assert_eq!(wait.get("count").and_then(|c| c.as_u64()), Some(100));
        assert_eq!(wait.get("mean").and_then(|m| m.as_f64()), Some(49.5));
    }
}
