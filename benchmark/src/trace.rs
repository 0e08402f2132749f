//! Spans recorded by the benchmark around each public call into a layer.
//!
//! A traced run records `{name, start_ns, end_ns, parent, op_id}` into a
//! preallocated in-memory buffer per thread and writes them out as JSON
//! lines when the run ends. A layer's **self time** is its span's duration
//! minus the part of that interval its child spans cover.
//!
//! The untraced run uses [`NoTrace`], whose methods are empty and inline
//! away, so end-to-end numbers carry no clock reads for spans.

use crate::stats::Sample;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// "No parent" and, as a span handle, "not recorded".
pub const NONE: u32 = u32::MAX;

/// One finished span. `parent` indexes the same buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op_id: u64,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Where the line driver and the decomposed epoch report their spans.
pub trait Trace {
    /// Open a span; the handle goes to [`Trace::end`] and to children.
    fn begin(&mut self, name: &'static str, parent: u32, op_id: u64) -> u32;
    /// Close a span opened by [`Trace::begin`].
    fn end(&mut self, span: u32);
}

/// The untraced run: nothing is read, nothing is stored.
pub struct NoTrace;

impl Trace for NoTrace {
    #[inline(always)]
    fn begin(&mut self, _name: &'static str, _parent: u32, _op_id: u64) -> u32 {
        NONE
    }
    #[inline(always)]
    fn end(&mut self, _span: u32) {}
}

/// A fixed-capacity span buffer; one per recording thread, all sharing the
/// same time origin so their timestamps are comparable.
pub struct SpanBuf {
    origin: Instant,
    spans: Vec<SpanRec>,
    cap: usize,
    dropped: u64,
}

impl SpanBuf {
    /// Preallocate room for `cap` spans timed from `origin`.
    pub fn new(origin: Instant, cap: usize) -> Self {
        SpanBuf { origin, spans: Vec::with_capacity(cap), cap, dropped: 0 }
    }

    /// Spans that did not fit (a run that drops spans under-reports layers).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

impl Trace for SpanBuf {
    #[inline]
    fn begin(&mut self, name: &'static str, parent: u32, op_id: u64) -> u32 {
        if self.spans.len() == self.cap {
            self.dropped += 1;
            return NONE;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans
            .push(SpanRec { name, start_ns, end_ns: start_ns, parent, op_id });
        id
    }

    #[inline]
    fn end(&mut self, span: u32) {
        let now = self.now_ns();
        if let Some(rec) = self.spans.get_mut(span as usize) {
            rec.end_ns = now;
        }
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals (clipped to the span, overlapping children counted once).
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let mut children: Vec<u32> = (0..spans.len() as u32)
        .filter(|&i| spans[i as usize].parent != NONE)
        .collect();
    children.sort_unstable_by_key(|&i| (spans[i as usize].parent, spans[i as usize].start_ns));
    let mut selfs: Vec<u64> = spans.iter().map(SpanRec::dur_ns).collect();
    let mut at = 0;
    while at < children.len() {
        let parent = spans[children[at] as usize].parent;
        let Some(p) = spans.get(parent as usize) else {
            at += 1;
            continue;
        };
        // Sweep this parent's children in start order, merging overlaps.
        let mut covered = 0u64;
        let mut reach = p.start_ns;
        while at < children.len() && spans[children[at] as usize].parent == parent {
            let c = &spans[children[at] as usize];
            let lo = c.start_ns.max(reach);
            let hi = c.end_ns.min(p.end_ns);
            if hi > lo {
                covered += hi - lo;
                reach = hi;
            }
            at += 1;
        }
        selfs[parent as usize] = p.dur_ns().saturating_sub(covered);
    }
    selfs
}

/// Duration and self-time samples of one span name.
#[derive(Default)]
pub struct NameStats {
    pub dur: Sample,
    pub self_time: Sample,
    pub total_ns: f64,
    pub total_self_ns: f64,
}

/// Per-name statistics over any number of thread buffers.
pub fn summarize(buffers: &[&[SpanRec]]) -> BTreeMap<&'static str, NameStats> {
    let mut durs: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for spans in buffers {
        let selfs = self_times(spans);
        for (rec, &s) in spans.iter().zip(&selfs) {
            let entry = durs.entry(rec.name).or_default();
            entry.0.push(rec.dur_ns() as f64);
            entry.1.push(s as f64);
        }
    }
    durs.into_iter()
        .map(|(name, (d, s))| {
            let stats = NameStats {
                total_ns: d.iter().sum(),
                total_self_ns: s.iter().sum(),
                dur: Sample::new(d),
                self_time: Sample::new(s),
            };
            (name, stats)
        })
        .collect()
}

/// Median duration of `name` in a summary (0 when the layer never ran).
pub fn p50(summary: &BTreeMap<&'static str, NameStats>, name: &str) -> f64 {
    summary.get(name).map_or(0.0, |s| s.dur.p(0.5))
}

/// Median self time of `name` (0 when the layer never ran).
pub fn self_p50(summary: &BTreeMap<&'static str, NameStats>, name: &str) -> f64 {
    summary.get(name).map_or(0.0, |s| s.self_time.p(0.5))
}

/// Summed duration of `name` (0 when the layer never ran).
pub fn total(summary: &BTreeMap<&'static str, NameStats>, name: &str) -> f64 {
    summary.get(name).map_or(0.0, |s| s.total_ns)
}

/// Write the first `limit` spans of each buffer as JSON lines.
pub fn write_jsonl(
    path: &std::path::Path,
    buffers: &[&[SpanRec]],
    limit: usize,
) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (thread, spans) in buffers.iter().enumerate() {
        for (id, s) in spans.iter().take(limit).enumerate() {
            let parent = if s.parent == NONE {
                -1
            } else {
                s.parent as i64
            };
            writeln!(
                out,
                "{{\"thread\":{thread},\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op_id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op_id
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> SpanRec {
        SpanRec { name, start_ns: start, end_ns: end, parent, op_id: 0 }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let spans = [
            span("root", 0, 100, NONE), // 0
            span("a", 10, 30, 0),       // 1: adjacent to b
            span("b", 30, 50, 0),       // 2
            span("a.inner", 12, 20, 1), // 3: nested in a
            span("c", 70, 90, 0),       // 4
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 100 - 20 - 20 - 20, "grandchildren are not subtracted twice");
        assert_eq!(selfs[1], 20 - 8);
        assert_eq!(selfs[2], 20);
        assert_eq!(selfs[3], 8);
        assert_eq!(selfs[4], 20);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once_and_clip() {
        let spans = [
            span("root", 100, 200, NONE),
            span("x", 110, 150, 0),
            span("y", 140, 160, 0), // overlaps x by 10
            span("z", 190, 230, 0), // overhangs the parent by 30
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 100 - (40 + 10 + 10));
    }

    #[test]
    fn buffer_records_parent_links_and_drops_when_full() {
        let mut buf = SpanBuf::new(Instant::now(), 2);
        let root = buf.begin("root", NONE, 7);
        let child = buf.begin("child", root, 7);
        let lost = buf.begin("lost", root, 7);
        buf.end(lost);
        buf.end(child);
        buf.end(root);
        assert_eq!(lost, NONE);
        assert_eq!(buf.dropped(), 1);
        assert_eq!(buf.spans().len(), 2);
        assert_eq!(buf.spans()[1].parent, root);
        assert_eq!(buf.spans()[1].op_id, 7);
        assert!(buf.spans()[0].end_ns >= buf.spans()[1].end_ns);
        let summary = summarize(&[buf.spans()]);
        assert_eq!(summary["root"].dur.n(), 1);
        assert_eq!(p50(&summary, "absent"), 0.0);
    }

    #[test]
    fn no_trace_hands_out_the_none_handle() {
        let mut t = NoTrace;
        let s = t.begin("x", NONE, 0);
        t.end(s);
        assert_eq!(s, NONE);
    }
}
