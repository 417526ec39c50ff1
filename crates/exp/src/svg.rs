//! Hand-rolled inline SVG charts for the static report.
//!
//! Std-only, no templating: each function returns a complete `<svg>`
//! element ready to embed in the report HTML. The charts are modest —
//! axes, ticks, polylines, a legend — but entirely self-contained,
//! which is the point: the report must render from `file://` with no
//! network access.

use std::fmt::Write as _;

/// Chart canvas size and margins.
const WIDTH: f64 = 640.0;
const HEIGHT: f64 = 320.0;
const MARGIN_LEFT: f64 = 72.0;
const MARGIN_RIGHT: f64 = 24.0;
const MARGIN_TOP: f64 = 34.0;
const MARGIN_BOTTOM: f64 = 46.0;

/// Line color cycle (Okabe–Ito palette, colorblind-safe).
pub const PALETTE: &[&str] = &[
    "#0072b2", "#d55e00", "#009e73", "#cc79a7", "#e69f00", "#56b4e9", "#f0e442", "#000000",
];

/// One plotted series.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// `(x, y)` points in data coordinates.
    pub points: Vec<(f64, f64)>,
    /// Draw a dashed line (used for theory bounds vs measured data).
    pub dashed: bool,
}

impl Series {
    /// A solid measured-data series.
    pub fn solid(label: &str, points: Vec<(f64, f64)>) -> Series {
        Series {
            label: label.to_string(),
            points,
            dashed: false,
        }
    }

    /// A dashed series (theory bounds).
    pub fn dashed(label: &str, points: Vec<(f64, f64)>) -> Series {
        Series {
            label: label.to_string(),
            points,
            dashed: true,
        }
    }
}

fn esc(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// Formats an axis tick value compactly (SI-ish suffixes for large
/// magnitudes, trimmed decimals for small ones).
fn tick_label(v: f64) -> String {
    let a = v.abs();
    if a >= 1.0e9 {
        format!("{:.3}G", v / 1.0e9)
    } else if a >= 1.0e6 {
        format!("{:.3}M", v / 1.0e6)
    } else if a >= 1.0e4 {
        format!("{:.0}k", v / 1.0e3)
    } else if a >= 100.0 || v.fract() == 0.0 {
        format!("{v:.0}")
    } else if a >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.3}")
    }
    .trim_end_matches(".000")
    .to_string()
}

fn data_range(series: &[Series], axis: usize) -> (f64, f64) {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for s in series {
        for p in &s.points {
            let v = if axis == 0 { p.0 } else { p.1 };
            if v.is_finite() {
                lo = lo.min(v);
                hi = hi.max(v);
            }
        }
    }
    if !lo.is_finite() {
        return (0.0, 1.0);
    }
    if lo == hi {
        // Degenerate range: pad around the single value.
        let pad = if lo == 0.0 { 1.0 } else { lo.abs() * 0.1 };
        return (lo - pad, hi + pad);
    }
    (lo, hi)
}

/// Renders a line chart of `series` with axes, ticks and a legend.
pub fn line_chart(title: &str, x_label: &str, y_label: &str, series: &[Series]) -> String {
    let (x_lo, x_hi) = data_range(series, 0);
    let (y_lo_raw, y_hi_raw) = data_range(series, 1);
    // Anchor the y axis at zero when the data lives near it: trajectory
    // charts that clip to the data range exaggerate noise.
    let y_lo = if y_lo_raw > 0.0 && y_lo_raw < 0.5 * y_hi_raw {
        0.0
    } else {
        y_lo_raw
    };
    let y_hi = y_hi_raw + (y_hi_raw - y_lo) * 0.05;
    let plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT;
    let plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM;
    let sx = move |x: f64| MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w;
    let sy = move |y: f64| MARGIN_TOP + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h;

    let mut out = String::new();
    let _ = write!(
        out,
        "<svg viewBox=\"0 0 {WIDTH} {HEIGHT}\" class=\"chart\" role=\"img\" \
         aria-label=\"{}\" xmlns=\"http://www.w3.org/2000/svg\">",
        esc(title)
    );
    let _ = write!(
        out,
        "<text x=\"{}\" y=\"20\" class=\"title\" text-anchor=\"middle\">{}</text>",
        WIDTH / 2.0,
        esc(title)
    );
    // Gridlines + ticks: 5 divisions per axis.
    for i in 0..=4 {
        let fy = y_lo + (y_hi - y_lo) * f64::from(i) / 4.0;
        let py = sy(fy);
        let _ = write!(
            out,
            "<line x1=\"{MARGIN_LEFT}\" y1=\"{py:.1}\" x2=\"{:.1}\" y2=\"{py:.1}\" class=\"grid\"/>\
             <text x=\"{:.1}\" y=\"{:.1}\" class=\"tick\" text-anchor=\"end\">{}</text>",
            WIDTH - MARGIN_RIGHT,
            MARGIN_LEFT - 6.0,
            py + 4.0,
            tick_label(fy)
        );
        let fx = x_lo + (x_hi - x_lo) * f64::from(i) / 4.0;
        let px = sx(fx);
        let _ = write!(
            out,
            "<text x=\"{px:.1}\" y=\"{:.1}\" class=\"tick\" text-anchor=\"middle\">{}</text>",
            HEIGHT - MARGIN_BOTTOM + 18.0,
            tick_label(fx)
        );
    }
    // Axis labels.
    let _ = write!(
        out,
        "<text x=\"{:.1}\" y=\"{:.1}\" class=\"axis\" text-anchor=\"middle\">{}</text>",
        MARGIN_LEFT + plot_w / 2.0,
        HEIGHT - 8.0,
        esc(x_label)
    );
    let _ = write!(
        out,
        "<text x=\"14\" y=\"{:.1}\" class=\"axis\" text-anchor=\"middle\" \
         transform=\"rotate(-90 14 {:.1})\">{}</text>",
        MARGIN_TOP + plot_h / 2.0,
        MARGIN_TOP + plot_h / 2.0,
        esc(y_label)
    );
    // Series.
    for (i, s) in series.iter().enumerate() {
        let color = PALETTE[i % PALETTE.len()];
        let dash = if s.dashed {
            " stroke-dasharray=\"6 4\""
        } else {
            ""
        };
        let mut path = String::new();
        for (j, (x, y)) in s.points.iter().enumerate() {
            let _ = write!(
                path,
                "{}{:.1},{:.1}",
                if j == 0 { "" } else { " " },
                sx(*x),
                sy(*y)
            );
        }
        let _ = write!(
            out,
            "<polyline points=\"{path}\" fill=\"none\" stroke=\"{color}\" stroke-width=\"2\"{dash}/>"
        );
        for (x, y) in &s.points {
            let _ = write!(
                out,
                "<circle cx=\"{:.1}\" cy=\"{:.1}\" r=\"2.6\" fill=\"{color}\"/>",
                sx(*x),
                sy(*y)
            );
        }
        // Legend row, top-right inside the plot.
        let ly = MARGIN_TOP + 8.0 + 16.0 * i as f64;
        let lx = WIDTH - MARGIN_RIGHT - 150.0;
        let _ = write!(
            out,
            "<line x1=\"{lx}\" y1=\"{ly:.1}\" x2=\"{:.1}\" y2=\"{ly:.1}\" stroke=\"{color}\" \
             stroke-width=\"2\"{dash}/>\
             <text x=\"{:.1}\" y=\"{:.1}\" class=\"tick\">{}</text>",
            lx + 22.0,
            lx + 27.0,
            ly + 4.0,
            esc(&s.label)
        );
    }
    // Frame.
    let _ = write!(
        out,
        "<rect x=\"{MARGIN_LEFT}\" y=\"{MARGIN_TOP}\" width=\"{plot_w:.1}\" height=\"{plot_h:.1}\" \
         fill=\"none\" stroke=\"#444\"/></svg>"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_chart_is_well_formed_and_escaped() {
        let svg = line_chart(
            "pool/n vs <lambda>",
            "lambda",
            "pool/n",
            &[
                Series::solid("measured", vec![(0.5, 0.01), (0.75, 0.05), (0.9375, 0.2)]),
                Series::dashed(
                    "Theorem 2 bound",
                    vec![(0.5, 0.02), (0.75, 0.1), (0.9375, 0.4)],
                ),
            ],
        );
        assert!(svg.starts_with("<svg") && svg.ends_with("</svg>"));
        assert!(svg.contains("&lt;lambda&gt;"));
        assert!(svg.contains("stroke-dasharray"));
        assert_eq!(svg.matches("<polyline").count(), 2);
        // No raw NaN/inf leaked into coordinates.
        assert!(!svg.contains("NaN") && !svg.contains("inf"));
    }

    #[test]
    fn charts_survive_degenerate_data() {
        let flat = line_chart("flat", "x", "y", &[Series::solid("s", vec![(1.0, 5.0)])]);
        assert!(flat.contains("<svg") && !flat.contains("NaN"));
        let empty = line_chart("empty", "x", "y", &[]);
        assert!(empty.contains("<svg") && !empty.contains("NaN"));
    }
}
