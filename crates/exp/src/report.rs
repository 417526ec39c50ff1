//! The static HTML regression report.
//!
//! One self-contained `report.html`: no scripts, no external assets, all
//! charts inline SVG — it must render from `file://` in CI artifact
//! viewers. Sections: run provenance table, per-benchmark performance
//! trajectories (each metric normalised to its committed baseline),
//! bound-vs-measured overlays (pool occupancy vs the paper's Theorem 1
//! bound, wait quantiles vs the predicted envelope, goodput under
//! chaos), and the regression-gate verdicts including the explicit
//! noisy-metric opt-out list.

use crate::bench_data::BenchFile;
use crate::gate::{GateReport, GateStatus};
use crate::registry::RunRecord;
use crate::svg::{bar_chart, line_chart, Series};

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
    /// Theorem-1 finite-capacity pool bound, as a fraction of n.
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
    /// The committed `BENCH_*.json` baselines.
    pub bench: Vec<BenchFile>,
    /// All registry records (committed history plus fresh runs).
    pub registry: Vec<RunRecord>,
    /// Sweep measurements for the overlays (empty ⇒ overlay section
    /// renders a placeholder note instead of charts).
    pub sweep: Vec<SweepPoint>,
    /// Gate verdicts, one per compared run.
    pub gates: Vec<GateReport>,
}

/// The benchmark's headline trajectory metrics (scale-free ratios and
/// structural fractions — the values worth eyeballing across PRs).
fn headline_metrics(benchmark: &str) -> &'static [&'static str] {
    match benchmark {
        "round_kernel" => &[
            "cells.0.arena_speedup",
            "cells.1.arena_speedup",
            "cells.2.arena_speedup",
        ],
        "obs_overhead" => &["cells.0.overhead_percent"],
        "serve_net" => &["accepted_per_sec", "admission_latency_us.p99"],
        "net_chaos" => &[
            "goodput_retained",
            "chaos.retry_amplification",
            "calm.goodput_per_sec",
        ],
        "membership" => &["router.total_moved_ratio", "gauntlet.balls_moved"],
        _ => &[],
    }
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
.pass{color:#007040}.fail{color:#b00020;font-weight:600}.noisy{color:#806000}.missing{color:#666}\
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
         <code>cargo run --release -p iba-exp --bin replicate -- --quick --check</code>.</p>",
        input.generated_unix
    );
    render_provenance_table(&mut out, input);
    render_trajectories(&mut out, input);
    render_overlays(&mut out, input);
    render_gates(&mut out, input);
    out.push_str("</body></html>");
    out
}

fn render_provenance_table(out: &mut String, input: &ReportInput) {
    out.push_str(
        "<h2 id=\"provenance\">Run provenance</h2>\
         <table><tr><th>source</th><th>benchmark</th><th>config hash</th><th>seed</th>\
         <th>git rev</th><th>dirty</th><th>host</th><th>cores</th><th>kernel</th>\
         <th>threads</th><th>wall ms</th><th>unix time</th></tr>",
    );
    for bf in &input.bench {
        let (rev, dirty, host, cores, kernel, threads) = match &bf.provenance {
            Some(p) => (
                short_rev(&p.git_rev),
                p.git_dirty.to_string(),
                p.host.clone(),
                p.cores.to_string(),
                p.kernel.clone().unwrap_or_default(),
                p.threads.map(|t| t.to_string()).unwrap_or_default(),
            ),
            None => (
                "unstamped".to_string(),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
            ),
        };
        let _ = write!(
            out,
            "<tr><td>committed</td><td>{}</td><td><code>{}</code></td><td></td>\
             <td><code>{}</code></td><td>{}</td><td>{}</td><td class=\"num\">{}</td>\
             <td>{}</td><td class=\"num\">{}</td><td></td><td></td></tr>",
            esc(&bf.benchmark),
            esc(&bf
                .config_hash
                .as_deref()
                .map(short_hash)
                .unwrap_or_default()),
            esc(&rev),
            dirty,
            esc(&host),
            cores,
            esc(&kernel),
            threads,
        );
    }
    for r in &input.registry {
        let p = &r.provenance;
        let _ = write!(
            out,
            "<tr><td>registry</td><td>{}</td><td><code>{}</code></td><td class=\"num\">{}</td>\
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

fn render_trajectories(out: &mut String, input: &ReportInput) {
    out.push_str(
        "<h2 id=\"trajectory\">Performance trajectory</h2>\
         <p class=\"note\">Each headline metric normalised to its committed baseline \
         (run 0). Registry runs follow in time order; a flat line at 1.0 is a \
         perfectly reproduced baseline.</p>",
    );
    for bf in &input.bench {
        let mut runs: Vec<&RunRecord> = input
            .registry
            .iter()
            .filter(|r| r.benchmark == bf.benchmark)
            .collect();
        runs.sort_by_key(|r| r.unix_time);
        let names: Vec<&str> = {
            let selected = headline_metrics(&bf.benchmark);
            if selected.is_empty() {
                bf.metrics.iter().take(3).map(|(n, _)| n.as_str()).collect()
            } else {
                selected.to_vec()
            }
        };
        let mut series = Vec::new();
        for name in names {
            let base = match bf.metrics.iter().find(|(n, _)| n == name) {
                Some((_, v)) if *v != 0.0 => *v,
                _ => continue,
            };
            let mut points = vec![(0.0, 1.0)];
            for (i, run) in runs.iter().enumerate() {
                if let Some(v) = run.metric(name) {
                    points.push(((i + 1) as f64, v / base));
                }
            }
            series.push(Series::solid(name, points));
        }
        let _ = write!(
            out,
            "<div id=\"trajectory-{}\">{}</div>",
            esc(&bf.benchmark),
            line_chart(
                &format!("{} — trajectory vs committed baseline", bf.benchmark),
                "run (0 = committed baseline)",
                "metric / baseline",
                &series,
            )
        );
    }
}

fn render_overlays(out: &mut String, input: &ReportInput) {
    out.push_str("<h2 id=\"overlays\">Bound vs measured</h2>");
    if input.sweep.is_empty() {
        out.push_str(
            "<p class=\"note\">No sweep data in this run — pool and wait overlays \
             need a replication sweep (<code>replicate --quick</code>).</p>",
        );
    } else {
        // Pool occupancy vs the Theorem-1 finite-capacity bound, one
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
                &format!("Thm 1 bound c={c}"),
                sorted_for(*c, &|p| log10(p.bound_frac)),
            ));
        }
        let _ = write!(
            out,
            "<div id=\"overlay-pool-bound\">{}</div>",
            line_chart(
                "Stationary pool occupancy vs Theorem 1 bound",
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
    // Goodput under chaos: committed baseline vs fresh registry runs.
    let mut groups = Vec::new();
    if let Some(bf) = input.bench.iter().find(|b| b.benchmark == "net_chaos") {
        let get = |name: &str| {
            bf.metrics
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or(0.0)
        };
        groups.push((
            "committed".to_string(),
            vec![get("calm.goodput_per_sec"), get("chaos.goodput_per_sec")],
        ));
    }
    let mut chaos_runs: Vec<&RunRecord> = input
        .registry
        .iter()
        .filter(|r| r.benchmark == "net_chaos")
        .collect();
    chaos_runs.sort_by_key(|r| r.unix_time);
    for r in chaos_runs {
        groups.push((
            format!("run @{}", short_rev(&r.provenance.git_rev)),
            vec![
                r.metric("calm.goodput_per_sec").unwrap_or(0.0),
                r.metric("chaos.goodput_per_sec").unwrap_or(0.0),
            ],
        ));
    }
    if !groups.is_empty() {
        let _ = write!(
            out,
            "<div id=\"overlay-goodput-chaos\">{}</div>",
            bar_chart(
                "Goodput: calm vs chaos",
                "requests / s",
                &["calm", "chaos"],
                &groups,
            )
        );
    }
}

fn render_gates(out: &mut String, input: &ReportInput) {
    out.push_str("<h2 id=\"gate\">Regression gate</h2>");
    if input.gates.is_empty() {
        out.push_str(
            "<p class=\"note\">No gate comparisons ran (no prior record shares a \
             config hash with this run — the gate passes vacuously and the next \
             run on this configuration will be gated).</p>",
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
            // Keep the table digestible: list failures, noisy exemptions
            // and schema drift; fold silent passes into the summary row.
            if check.status == GateStatus::Pass {
                continue;
            }
            let (class, word) = match check.status {
                GateStatus::Pass => ("pass", "pass"),
                GateStatus::Fail => ("fail", "FAIL"),
                GateStatus::Noisy => ("noisy", "noisy (exempt)"),
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
        let noisy: Vec<&str> = gate.noisy_metrics().collect();
        if !noisy.is_empty() {
            let _ = write!(
                out,
                "<p class=\"note\">Noisy opt-outs (compared, never gated): {}</p>",
                noisy
                    .iter()
                    .map(|n| format!("<code>{}</code>", esc(n)))
                    .collect::<Vec<_>>()
                    .join(", ")
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{compare, GateConfig};
    use iba_obs::json::{self, Provenance, SCHEMA_VERSION};
    use std::path::PathBuf;

    fn bench_file(benchmark: &str, metrics: &[(&str, f64)]) -> BenchFile {
        BenchFile {
            path: PathBuf::from(format!("BENCH_{benchmark}.json")),
            benchmark: benchmark.to_string(),
            provenance: Some(Provenance {
                schema_version: SCHEMA_VERSION,
                git_rev: "abc123".into(),
                git_dirty: false,
                host: "host".into(),
                cores: 4,
                kernel: None,
                threads: None,
            }),
            config_hash: Some("fnv1a:0123456789abcdef".into()),
            metrics: metrics.iter().map(|(n, v)| (n.to_string(), *v)).collect(),
            value: json::parse("{}").unwrap(),
        }
    }

    #[test]
    fn report_contains_all_sections_and_charts() {
        let input = ReportInput {
            generated_unix: 1_750_000_000,
            bench: vec![
                bench_file("round_kernel", &[("cells.0.arena_speedup", 3.0)]),
                bench_file("serve_net", &[("accepted_per_sec", 900_000.0)]),
                bench_file("obs_overhead", &[("cells.0.overhead_percent", 4.4)]),
                bench_file(
                    "net_chaos",
                    &[
                        ("goodput_retained", 0.8),
                        ("calm.goodput_per_sec", 17_000.0),
                        ("chaos.goodput_per_sec", 14_000.0),
                    ],
                ),
                bench_file("membership", &[("router.total_moved_ratio", 0.18)]),
            ],
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
                "round_kernel fnv1a:0123",
                &[("cells.0.arena_speedup".to_string(), 3.0)],
                &[("cells.0.arena_speedup".to_string(), 1.0)],
                &GateConfig::default(),
            )],
        };
        let html = render_html(&input);
        for marker in [
            "trajectory-round_kernel",
            "trajectory-serve_net",
            "trajectory-obs_overhead",
            "trajectory-net_chaos",
            "trajectory-membership",
            "overlay-pool-bound",
            "overlay-wait-quantiles",
            "overlay-goodput-chaos",
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
        assert!(html.contains("passes vacuously"));
        assert!(html.contains("need a replication sweep"));
    }
}
