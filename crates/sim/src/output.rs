//! Plain-text tables and CSV emission for experiment results.
//!
//! The figure harness prints every regenerated series both as an aligned
//! text table (for the terminal / EXPERIMENTS.md) and as CSV (for external
//! plotting, and as the committed reproduction record). CSV is hand-rolled
//! because `serde` alone cannot serialize to a text format and `csv` is
//! not in the approved dependency set.

use std::fmt::Write as _;

/// A cell value in a result table.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// Text cell.
    Text(String),
    /// Integer cell.
    Int(i64),
    /// Unsigned integer cell.
    Uint(u64),
    /// Floating-point cell, rendered with 4 significant decimals.
    Float(f64),
}

impl Cell {
    fn render(&self) -> String {
        match self {
            Cell::Text(s) => s.clone(),
            Cell::Int(v) => v.to_string(),
            Cell::Uint(v) => v.to_string(),
            Cell::Float(v) => {
                if v.is_finite() {
                    format!("{v:.4}")
                } else {
                    v.to_string()
                }
            }
        }
    }

    fn render_csv(&self) -> String {
        match self {
            Cell::Text(s) => escape_csv(s),
            Cell::Int(v) => v.to_string(),
            Cell::Uint(v) => v.to_string(),
            Cell::Float(v) => format!("{v}"),
        }
    }
}

impl From<&str> for Cell {
    fn from(s: &str) -> Self {
        Cell::Text(s.to_string())
    }
}

impl From<String> for Cell {
    fn from(s: String) -> Self {
        Cell::Text(s)
    }
}

impl From<f64> for Cell {
    fn from(v: f64) -> Self {
        Cell::Float(v)
    }
}

impl From<u64> for Cell {
    fn from(v: u64) -> Self {
        Cell::Uint(v)
    }
}

impl From<i64> for Cell {
    fn from(v: i64) -> Self {
        Cell::Int(v)
    }
}

impl From<usize> for Cell {
    fn from(v: usize) -> Self {
        Cell::Uint(v as u64)
    }
}

/// Escapes a CSV field per RFC 4180 (quote when the field contains commas,
/// quotes or newlines; double embedded quotes).
fn escape_csv(field: &str) -> String {
    if field.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// A result table with a title, column headers and rows.
///
/// # Examples
///
/// ```
/// use iba_sim::output::Table;
/// let mut t = Table::new("demo", &["c", "pool/n"]);
/// t.row(vec![1u64.into(), 2.5f64.into()]);
/// let text = t.render();
/// assert!(text.contains("pool/n"));
/// assert!(text.contains("2.5000"));
/// let csv = t.to_csv();
/// assert!(csv.starts_with("c,pool/n\n"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<Cell>>,
}

impl Table {
    /// Creates an empty table with the given title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row length differs from the header count.
    pub fn row(&mut self, cells: Vec<Cell>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match header count"
        );
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Renders an aligned text table.
    pub fn render(&self) -> String {
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(Cell::render).collect())
            .collect();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &rendered {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        let head: Vec<String> = self
            .headers
            .iter()
            .zip(&widths)
            .map(|(h, w)| format!("{h:>w$}"))
            .collect();
        let _ = writeln!(out, "{}", head.join("  "));
        let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        let _ = writeln!(out, "{}", rule.join("  "));
        for row in &rendered {
            let line: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            let _ = writeln!(out, "{}", line.join("  "));
        }
        out
    }

    /// Renders the table as a GitHub-flavored Markdown table (used when
    /// pasting experiment results into EXPERIMENTS.md).
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "| {} |", self.headers.join(" | "));
        let _ = writeln!(
            out,
            "|{}|",
            self.headers
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        );
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(Cell::render).collect();
            let _ = writeln!(out, "| {} |", cells.join(" | "));
        }
        out
    }

    /// Renders the table as RFC-4180 CSV (headers + rows, no title).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.headers
                .iter()
                .map(|h| escape_csv(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter()
                    .map(Cell::render_csv)
                    .collect::<Vec<_>>()
                    .join(",")
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> Table {
        let mut t = Table::new("pool size", &["lambda", "c", "pool/n"]);
        t.row(vec!["0.75".into(), 1u64.into(), 2.3861f64.into()]);
        t.row(vec!["0.75".into(), 2u64.into(), 1.6910f64.into()]);
        t
    }

    #[test]
    fn render_aligns_columns() {
        let text = demo().render();
        assert!(text.starts_with("# pool size\n"));
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5); // title, header, rule, two rows
                                    // All data lines have the same width.
        assert_eq!(lines[1].len(), lines[3].len());
        assert_eq!(lines[3].len(), lines[4].len());
    }

    #[test]
    fn csv_roundtrip_basics() {
        let csv = demo().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "lambda,c,pool/n");
        assert_eq!(lines[1], "0.75,1,2.3861");
        assert_eq!(lines.len(), 3);
    }

    #[test]
    fn markdown_renders_header_rule_and_rows() {
        let md = demo().to_markdown();
        let lines: Vec<&str> = md.lines().collect();
        assert_eq!(lines[0], "| lambda | c | pool/n |");
        assert_eq!(lines[1], "|---|---|---|");
        assert!(lines[2].starts_with("| 0.75 | 1 |"));
        assert_eq!(lines.len(), 4);
    }

    #[test]
    fn csv_escapes_special_characters() {
        let mut t = Table::new("x", &["name"]);
        t.row(vec!["a,b".into()]);
        t.row(vec!["say \"hi\"".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec![1u64.into()]);
    }

    #[test]
    fn cell_conversions() {
        assert_eq!(Cell::from(3usize), Cell::Uint(3));
        assert_eq!(Cell::from(-4i64), Cell::Int(-4));
        assert_eq!(Cell::from("x"), Cell::Text("x".into()));
        assert_eq!(Cell::from(String::from("y")), Cell::Text("y".into()));
    }

    #[test]
    fn float_rendering() {
        assert_eq!(Cell::Float(1.0).render(), "1.0000");
        assert_eq!(Cell::Float(f64::INFINITY).render(), "inf");
        // CSV keeps full precision.
        assert_eq!(Cell::Float(0.1).render_csv(), "0.1");
    }

    #[test]
    fn empty_table() {
        let t = Table::new("empty", &["a"]);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.title(), "empty");
        assert!(t.render().contains("empty"));
    }
}
