//! In-memory span recorder around the benchmark's calls into each layer.
//!
//! A span is `(name, start, end, parent, id)`; spans of one request share
//! its id, batch-level spans carry the batch id. Disabled tracers record
//! nothing and never read the clock, so an untraced run pays only a branch.

use std::fmt::Write as _;
use std::time::Instant;

/// Ids at or above this mark batches rather than requests.
pub const BATCH_ID_BASE: u64 = 1 << 40;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub id: u64,
}

/// Handle returned by [`Tracer::begin`]; `None` when tracing is off.
#[must_use]
pub struct Open(Option<usize>);

pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool, t0: Instant) -> Self {
        Tracer {
            on,
            t0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "toggle tracing between spans only");
        self.on = on;
    }

    pub fn ns_since_start(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.t0).as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, id: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.ns_since_start(Instant::now()),
            end_ns: 0,
            parent: self.stack.last().copied(),
            id,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn end(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let now = self.ns_since_start(Instant::now());
        assert_eq!(self.stack.pop(), Some(idx), "spans must nest");
        self.spans[idx].end_ns = now;
    }

    /// Times `f` as one span.
    pub fn span<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name, id);
        let out = f();
        self.end(open);
        out
    }

    /// Open spans; pass to [`Tracer::unwind_to`] after a caught panic.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Closes, at the current time, every span opened above `depth`.
    pub fn unwind_to(&mut self, depth: usize) {
        let now = self.ns_since_start(Instant::now());
        while self.stack.len() > depth {
            let idx = self.stack.pop().expect("non-empty");
            self.spans[idx].end_ns = now;
        }
    }

    /// Forgets every span recorded after the first `len`.
    pub fn truncate(&mut self, len: usize) {
        assert!(self.stack.is_empty(), "truncate between spans only");
        self.spans.truncate(len);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans recorded at or after `from_ns` (closed spans only).
    pub fn spans_since(&self, from_ns: u64) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.start_ns >= from_ns)
    }

    /// Chrome trace-event JSON ("X" complete events, microseconds), with
    /// `meta` as string-valued `otherData`.
    pub fn chrome_json(&self, meta: &[(&str, String)]) -> String {
        let mut out = String::from("{\"otherData\":{");
        for (i, (k, v)) in meta.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(out, "{sep}\"{k}\":\"{v}\"");
        }
        out.push_str("},\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let (key, id) = if s.id >= BATCH_ID_BASE {
                ("batch", s.id - BATCH_ID_BASE)
            } else {
                ("req", s.id)
            };
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"{}\":{},\"span\":{},\"parent\":{}}}}}",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                key,
                id,
                i,
                s.parent.map_or(-1, |p| p as i64),
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Per-name totals: calls, inclusive time and self time (inclusive minus
/// the time its direct children cover), in ns.
#[derive(Debug, Clone, Default)]
pub struct SelfRow {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// A span's self time as disjoint intervals: `(start, end, name)`.
pub type Segment = (u64, u64, &'static str);

/// Splits the given spans (a nested, single-threaded set) into self-time
/// segments sorted by start.
pub fn self_segments(spans: &[&Span]) -> Vec<Segment> {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    // Parents before children: earlier start first, longer span first.
    order.sort_by_key(|&i| (spans[i].start_ns, u64::MAX - spans[i].end_ns));
    let mut out = Vec::with_capacity(spans.len() * 2);
    // Stack of (span index, cursor = end of the last emitted piece).
    let mut stack: Vec<(usize, u64)> = Vec::new();
    let close_until = |stack: &mut Vec<(usize, u64)>, out: &mut Vec<Segment>, t: u64| {
        while let Some(&(top, cursor)) = stack.last() {
            let s = spans[top];
            if s.end_ns > t {
                break;
            }
            if s.end_ns > cursor {
                out.push((cursor, s.end_ns, s.name));
            }
            stack.pop();
            if let Some(parent) = stack.last_mut() {
                parent.1 = s.end_ns;
            }
        }
    };
    for &i in &order {
        let s = spans[i];
        close_until(&mut stack, &mut out, s.start_ns);
        if let Some(&mut (top, ref mut cursor)) = stack.last_mut() {
            if s.start_ns > *cursor {
                out.push((*cursor, s.start_ns, spans[top].name));
            }
        }
        stack.push((i, s.start_ns));
    }
    close_until(&mut stack, &mut out, u64::MAX);
    out.sort_by_key(|seg| seg.0);
    out
}

/// Sums self segments per name.
pub fn self_table(spans: &[&Span]) -> std::collections::BTreeMap<&'static str, SelfRow> {
    let mut rows: std::collections::BTreeMap<&'static str, SelfRow> = Default::default();
    for s in spans {
        let r = rows.entry(s.name).or_default();
        r.calls += 1;
        r.total_ns += s.end_ns - s.start_ns;
    }
    for (a, b, name) in self_segments(spans) {
        rows.entry(name).or_default().self_ns += b - a;
    }
    rows
}

/// Attributes each window `[from, to)` to the self segments it overlaps,
/// time no segment covers going to `"idle"`. A request's time-to-first-
/// token window thus charges its queueing to whatever work blocked it.
pub fn attribute_windows(
    segments: &[Segment],
    windows: &[(u64, u64)],
) -> std::collections::BTreeMap<&'static str, u64> {
    let mut out: std::collections::BTreeMap<&'static str, u64> = Default::default();
    for &(from, to) in windows {
        let mut covered = 0;
        let first = segments.partition_point(|seg| seg.1 <= from);
        for &(a, b, name) in segments[first..].iter().take_while(|seg| seg.0 < to) {
            let overlap = b.min(to).saturating_sub(a.max(from));
            if overlap > 0 {
                *out.entry(name).or_default() += overlap;
                covered += overlap;
            }
        }
        *out.entry("idle").or_default() += (to - from).saturating_sub(covered);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent: None,
            id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span("batch", 0, 100),
            span("fetch", 10, 30),
            span("decode", 40, 90),
        ];
        let refs: Vec<&Span> = spans.iter().collect();
        let t = self_table(&refs);
        assert_eq!(t["batch"].self_ns, 100 - 20 - 50);
        assert_eq!(t["fetch"].self_ns, 20);
        assert_eq!(t["decode"].total_ns, 50);
        let segs = self_segments(&refs);
        let total: u64 = segs.iter().map(|s| s.1 - s.0).sum();
        assert_eq!(total, 100, "self segments tile the root span");
    }

    #[test]
    fn windows_split_across_segments_and_idle() {
        let segs = vec![(0, 10, "a"), (10, 20, "b"), (30, 40, "a")];
        let got = attribute_windows(&segs, &[(5, 35)]);
        assert_eq!(got["a"], 5 + 5);
        assert_eq!(got["b"], 10);
        assert_eq!(got["idle"], 10);
    }
}
