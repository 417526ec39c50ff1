//! The static HTML regression report.
//!
//! One self-contained `report.html`: no scripts, no external assets, all
//! charts inline SVG — it must render from `file://` in CI artifact
//! viewers. Sections: run provenance table, bound-vs-measured overlays
//! (pool occupancy vs the paper's Theorem 2 bound, wait quantiles vs the
//! predicted envelope), and the regression-gate verdicts.

use crate::gate::{GateReport, GateStatus};
use crate::registry::RunRecord;
use crate::svg::{line_chart, Series};

use std::fmt::Write as _;

/// One sweep measurement used by the bound-vs-measured overlays.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Arrival rate λ.
    pub lambda: f64,
    /// Capacity c.
    pub c: f64,
    /// Measured stationary pool fraction (pool/n).
    pub pool_frac: f64,
    /// Mean-field predicted pool fraction.
    pub mf_pool_frac: f64,
    /// Theorem-2 finite-capacity pool bound, as a fraction of n.
    pub bound_frac: f64,
    /// Measured mean wait (rounds).
    pub avg_wait: f64,
    /// Measured maximum wait (rounds).
    pub max_wait: f64,
    /// Predicted wait envelope (rounds).
    pub wait_envelope: f64,
    /// Theorem-2 waiting-time bound (rounds).
    pub wait_bound: f64,
}

/// Everything the report renders from.
#[derive(Debug, Clone, Default)]
pub struct ReportInput {
    /// Seconds since the epoch when the report was generated.
    pub generated_unix: u64,
    /// All registry records (earlier runs plus fresh ones).
    pub registry: Vec<RunRecord>,
    /// Sweep measurements for the overlays (empty ⇒ overlay section
    /// renders a placeholder note instead of charts).
    pub sweep: Vec<SweepPoint>,
    /// Gate verdicts, one per compared run.
    pub gates: Vec<GateReport>,
}

fn esc(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

fn short_hash(h: &str) -> String {
    let tail = h.strip_prefix("fnv1a:").unwrap_or(h);
    tail.chars().take(12).collect()
}

fn short_rev(rev: &str) -> String {
    rev.chars().take(12).collect()
}

const STYLE: &str = "\
body{font:15px/1.5 system-ui,sans-serif;margin:2rem auto;max-width:72rem;padding:0 1rem;color:#1a1a1a}\
h1{font-size:1.6rem}h2{font-size:1.2rem;margin-top:2.2rem;border-bottom:1px solid #ccc}\
table{border-collapse:collapse;font-size:13px;margin:0.8rem 0}\
th,td{border:1px solid #ccc;padding:3px 8px;text-align:left}\
th{background:#f2f2f2}\
td.num{text-align:right;font-variant-numeric:tabular-nums}\
.pass{color:#007040}.fail{color:#b00020;font-weight:600}.missing{color:#666}\
.chart{max-width:640px;display:block;margin:0.6rem 0;background:#fff}\
.chart .title{font-size:14px;font-weight:600}\
.chart .tick{font-size:10px;fill:#333}\
.chart .axis{font-size:12px;fill:#111}\
.chart .grid{stroke:#e4e4e4}\
.note{color:#555;font-size:13px}\
code{background:#f4f4f4;padding:0 3px}";

/// Renders the full report document.
pub fn render_html(input: &ReportInput) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "<!DOCTYPE html><html lang=\"en\"><head><meta charset=\"utf-8\">\
         <title>iba experiment report</title><style>{STYLE}</style></head><body>\
         <h1>Infinite Balanced Allocation — experiment report</h1>\
         <p class=\"note\">Generated at unix time {}. Replicate with \
         <code>cargo run --release -p iba-bench --bin replicate -- --quick --check</code>.</p>",
        input.generated_unix
    );
    render_provenance_table(&mut out, input);
    render_overlays(&mut out, input);
    render_gates(&mut out, input);
    out.push_str("</body></html>");
    out
}

fn render_provenance_table(out: &mut String, input: &ReportInput) {
    out.push_str(
        "<h2 id=\"provenance\">Run provenance</h2>\
         <table><tr><th>benchmark</th><th>config hash</th><th>seed</th>\
         <th>git rev</th><th>dirty</th><th>host</th><th>cores</th><th>kernel</th>\
         <th>threads</th><th>wall ms</th><th>unix time</th></tr>",
    );
    for r in &input.registry {
        let p = &r.provenance;
        let _ = write!(
            out,
            "<tr><td>{}</td><td><code>{}</code></td><td class=\"num\">{}</td>\
             <td><code>{}</code></td><td>{}</td><td>{}</td><td class=\"num\">{}</td>\
             <td>{}</td><td class=\"num\">{}</td><td class=\"num\">{:.0}</td>\
             <td class=\"num\">{}</td></tr>",
            esc(&r.benchmark),
            short_hash(&r.config_hash),
            r.seed,
            short_rev(&p.git_rev),
            p.git_dirty,
            esc(&p.host),
            p.cores,
            esc(p.kernel.as_deref().unwrap_or("")),
            p.threads.map(|t| t.to_string()).unwrap_or_default(),
            r.wall_ms,
            r.unix_time,
        );
    }
    out.push_str("</table>");
}

fn render_overlays(out: &mut String, input: &ReportInput) {
    out.push_str("<h2 id=\"overlays\">Bound vs measured</h2>");
    if input.sweep.is_empty() {
        out.push_str(
            "<p class=\"note\">No sweep data in this run — pool and wait overlays \
             need a replication sweep (<code>replicate --quick</code>).</p>",
        );
    } else {
        // Pool occupancy vs the Theorem-2 finite-capacity bound, one
        // measured + dashed prediction/bound series per capacity c. The
        // bound is Θ(n) (it has a 12·c·n term) while the measured pool is
        // a small fraction of n, so the overlay lives on a log10 axis —
        // both visible, gap honest.
        let log10 = |v: f64| v.max(1.0e-9).log10();
        let mut cs: Vec<f64> = input.sweep.iter().map(|p| p.c).collect();
        cs.sort_by(f64::total_cmp);
        cs.dedup();
        let sorted_for = |c: f64, f: &dyn Fn(&SweepPoint) -> f64| -> Vec<(f64, f64)> {
            let mut v: Vec<(f64, f64)> = input
                .sweep
                .iter()
                .filter(|p| p.c == c)
                .map(|p| (p.lambda, f(p)))
                .collect();
            v.sort_by(|a, b| a.0.total_cmp(&b.0));
            v
        };
        let mut series = Vec::new();
        for c in &cs {
            series.push(Series::solid(
                &format!("measured c={c}"),
                sorted_for(*c, &|p| log10(p.pool_frac)),
            ));
            series.push(Series::dashed(
                &format!("mean-field c={c}"),
                sorted_for(*c, &|p| log10(p.mf_pool_frac)),
            ));
            series.push(Series::dashed(
                &format!("Thm 2 bound c={c}"),
                sorted_for(*c, &|p| log10(p.bound_frac)),
            ));
        }
        let _ = write!(
            out,
            "<div id=\"overlay-pool-bound\">{}</div>",
            line_chart(
                "Stationary pool occupancy vs Theorem 2 bound",
                "lambda",
                "log10(pool / n)",
                &series,
            )
        );
        let mut wait_series = Vec::new();
        for c in &cs {
            wait_series.push(Series::solid(
                &format!("avg wait c={c}"),
                sorted_for(*c, &|p| p.avg_wait),
            ));
            wait_series.push(Series::solid(
                &format!("max wait c={c}"),
                sorted_for(*c, &|p| p.max_wait),
            ));
            wait_series.push(Series::dashed(
                &format!("envelope c={c}"),
                sorted_for(*c, &|p| p.wait_envelope),
            ));
            wait_series.push(Series::dashed(
                &format!("Thm 2 bound c={c}"),
                sorted_for(*c, &|p| p.wait_bound),
            ));
        }
        let _ = write!(
            out,
            "<div id=\"overlay-wait-quantiles\">{}</div>",
            line_chart(
                "Wait quantiles vs predicted envelope",
                "lambda",
                "wait (rounds)",
                &wait_series,
            )
        );
    }
}

fn render_gates(out: &mut String, input: &ReportInput) {
    out.push_str("<h2 id=\"gate\">Regression gate</h2>");
    if input.gates.is_empty() {
        out.push_str(
            "<p class=\"note\">No gate comparisons ran: no prior record shares a \
             config hash with this run, so the gate compared nothing and does not \
             pass. The next run on this configuration will be gated.</p>",
        );
        return;
    }
    for gate in &input.gates {
        let failures = gate.failures().count();
        let verdict = if gate.passed() {
            "<span class=\"pass\">PASS</span>".to_string()
        } else {
            format!("<span class=\"fail\">FAIL ({failures} metric(s))</span>")
        };
        let _ = write!(out, "<h3>{} — {verdict}</h3>", esc(&gate.label));
        out.push_str(
            "<table><tr><th>metric</th><th>baseline</th><th>fresh</th>\
             <th>delta</th><th>status</th></tr>",
        );
        for check in &gate.checks {
            // Keep the table digestible: list failures and schema drift;
            // fold silent passes into the summary row.
            if check.status == GateStatus::Pass {
                continue;
            }
            let (class, word) = match check.status {
                GateStatus::Pass => ("pass", "pass"),
                GateStatus::Fail => ("fail", "FAIL"),
                GateStatus::Missing => ("missing", "missing"),
            };
            let fmt = |v: Option<f64>| v.map(|v| format!("{v:.6}")).unwrap_or_default();
            let _ = write!(
                out,
                "<tr><td><code>{}</code></td><td class=\"num\">{}</td>\
                 <td class=\"num\">{}</td><td class=\"num\">{}</td>\
                 <td class=\"{class}\">{word}</td></tr>",
                esc(&check.metric),
                fmt(check.baseline),
                fmt(check.fresh),
                check
                    .delta
                    .map(|d| format!("{:+.1}%", d * 100.0))
                    .unwrap_or_default(),
            );
        }
        let passes = gate
            .checks
            .iter()
            .filter(|c| c.status == GateStatus::Pass)
            .count();
        let _ = write!(
            out,
            "<tr><td colspan=\"4\">… and {passes} gated metric(s) within threshold</td>\
             <td class=\"pass\">pass</td></tr></table>",
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{compare, DEFAULT_THRESHOLD};

    #[test]
    fn report_contains_all_sections_and_charts() {
        let input = ReportInput {
            generated_unix: 1_750_000_000,
            registry: vec![],
            sweep: vec![SweepPoint {
                lambda: 0.75,
                c: 2.0,
                pool_frac: 0.01,
                mf_pool_frac: 0.012,
                bound_frac: 26.0,
                avg_wait: 1.2,
                max_wait: 4.0,
                wait_envelope: 6.0,
                wait_bound: 40.0,
            }],
            gates: vec![compare(
                "sweep fnv1a:0123",
                &[("rows.0.avg wait".to_string(), 1.0)],
                &[("rows.0.avg wait".to_string(), 3.0)],
                DEFAULT_THRESHOLD,
            )],
        };
        let html = render_html(&input);
        for marker in [
            "overlay-pool-bound",
            "overlay-wait-quantiles",
            "Run provenance",
            "Regression gate",
            "FAIL",
        ] {
            assert!(html.contains(marker), "report missing {marker}");
        }
        assert!(html.starts_with("<!DOCTYPE html>") && html.ends_with("</html>"));
    }

    #[test]
    fn empty_input_still_renders() {
        let html = render_html(&ReportInput::default());
        assert!(html.contains("compared nothing"));
        assert!(html.contains("need a replication sweep"));
    }
}
