//! In-memory spans for the traced run.
//!
//! A span has a name, the id of the request or round it belongs to, the
//! index of the span that caused it, and start/end times in nanoseconds
//! since a shared epoch. Spans are kept in a bounded buffer and written out
//! once the run ends. A layer's self time is its span's duration minus the
//! part of that interval its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: u32,
    pub start: u64,
    pub end: u64,
}

/// One thread's span buffer. Tracers that share an epoch can be merged.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    cap: usize,
}

impl Tracer {
    pub fn new(epoch: Instant, cap: usize) -> Self {
        Tracer {
            epoch,
            spans: Vec::with_capacity(cap),
            cap,
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The nanosecond stamp of `t` on this tracer's clock.
    pub fn stamp(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Whether the buffer is full; callers stop tracing then.
    pub fn full(&self) -> bool {
        self.spans.len() >= self.cap
    }

    /// Opens a span starting now and returns its index.
    pub fn open(&mut self, name: &'static str, id: u64, parent: u32) -> u32 {
        let start = self.now();
        self.record(name, id, parent, start, start)
    }

    /// Closes span `idx` now.
    pub fn close(&mut self, idx: u32) {
        let end = self.now();
        self.spans[idx as usize].end = end;
    }

    /// Appends a span timed by the caller and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: u32,
        start: u64,
        end: u64,
    ) -> u32 {
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            id,
            parent,
            start,
            end,
        });
        idx
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends `other`'s spans, re-basing their parent indices.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != ROOT {
                s.parent += base;
            }
            s
        }));
    }

    /// Writes the spans as tab-separated `index name id parent start end`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index\tname\tid\tparent\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{i}\t{}\t{}\t{parent}\t{}\t{}",
                s.name, s.id, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals clipped to it. Children may overlap (parallel work), so the
/// covered part is a union, never a plain sum.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != ROOT {
            children[s.parent as usize].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            let duration = s.end.saturating_sub(s.start);
            duration - covered(s.start, s.end, kids).min(duration)
        })
        .collect()
}

/// Length of the union of `intervals` inside `[lo, hi]`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// Per-name totals over a span set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl LayerTotals {
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end.saturating_sub(s.start);
        t.self_ns += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: u32, start: u64, end: u64) -> Span {
        Span {
            name,
            id: 0,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let spans = [
            span("round", ROOT, 0, 100),
            span("a", 0, 10, 30),
            span("b", 0, 40, 70),
            span("a.inner", 1, 12, 20),
        ];
        assert_eq!(self_times(&spans), vec![50, 12, 30, 8]);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two parallel workers under one merge span.
        let spans = [
            span("merge", ROOT, 0, 100),
            span("shard", 0, 10, 60),
            span("shard", 0, 20, 80),
        ];
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = [
            span("p", ROOT, 50, 100),
            span("c", 0, 0, 70),
            span("c", 0, 90, 200),
        ];
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn self_time_never_underflows() {
        let spans = [span("p", ROOT, 10, 20), span("c", 0, 0, 1000)];
        assert_eq!(self_times(&spans), vec![0, 1000]);
    }

    #[test]
    fn totals_group_by_name() {
        let spans = [
            span("round", ROOT, 0, 100),
            span("step", 0, 0, 60),
            span("round", ROOT, 100, 150),
            span("step", 2, 100, 140),
        ];
        let t = totals_by_name(&spans);
        assert_eq!(
            t["round"],
            LayerTotals {
                count: 2,
                total_ns: 150,
                self_ns: 50
            }
        );
        assert_eq!(t["step"].self_ns, 100);
        assert_eq!(t["step"].mean_ns(), 50.0);
    }

    #[test]
    fn absorb_rebases_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch, 8);
        a.record("x", 0, ROOT, 0, 10);
        let mut b = Tracer::new(epoch, 8);
        let root = b.record("y", 1, ROOT, 0, 10);
        b.record("z", 1, root, 2, 4);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, 1);
        assert_eq!(a.spans()[1].parent, ROOT);
        assert_eq!(self_times(a.spans()), vec![10, 8, 2]);
    }
}
