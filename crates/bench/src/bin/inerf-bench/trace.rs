//! Spans recorded from the benchmark's own files around calls into each
//! layer: name, start, end, the span that caused it, and an operation id
//! shared by the spans of one operation. Kept in memory, written out once
//! when the run ends. Every timing the benchmark reports comes from
//! [`Tracer::span`], so a traced and an untraced run measure the same
//! interval and differ only in whether the span is stored.

use std::io::Write;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op: u64,
}

/// Spans this tracer reserves room for up front, so recording inside a
/// timed region does not allocate until a run exceeds it.
const SPAN_CAPACITY: usize = 1 << 16;

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::with_capacity(if enabled { SPAN_CAPACITY } else { 0 }),
            open: Vec::with_capacity(16),
        }
    }

    /// Switches recording on or off mid-run; the traced pass alternates it
    /// across operations to measure what recording costs.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Runs `f` as a span named `name` of operation `op`, nested under the
    /// span currently open, and returns its result with the elapsed
    /// seconds. `f` receives the tracer back so it can open child spans.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        op: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, f64) {
        if !self.enabled {
            let t0 = Instant::now();
            let r = f(self);
            return (r, t0.elapsed().as_secs_f64());
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied();
        self.open.push(id);
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            op,
        });
        let start = self.epoch.elapsed();
        let r = f(self);
        let end = self.epoch.elapsed();
        self.open.pop();
        let span = &mut self.spans[id as usize];
        span.start_ns = start.as_nanos() as u64;
        span.end_ns = end.as_nanos() as u64;
        (r, (end - start).as_secs_f64())
    }

    /// Writes one JSON object per span to `path` (parent directories are
    /// created), each with its self time.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, (span, self_ns)) in self.spans.iter().zip(self_times(&self.spans)).enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{},\"self_ns\":{self_ns}}}",
                span.name, span.start_ns, span.end_ns, span.op
            )?;
        }
        out.flush()
    }
}

/// Self time of each span: its duration minus the part of that interval
/// its child spans cover. Spans nest on one thread, so the children of a
/// span never overlap each other.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for span in spans {
        if let Some(p) = span.parent {
            own[p as usize] = own[p as usize].saturating_sub(span.end_ns - span.start_ns);
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root 0..100 with children 10..40 and 50..70; the first child has
        // its own child 20..30, which must not be charged to the root twice.
        let spans = [
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(20, 30, Some(1)),
            span(50, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 10, 20]);
    }

    #[test]
    fn spans_nest_under_the_open_span_and_share_the_op_id() {
        let mut t = Tracer::new(true);
        let (v, secs) = t.span("outer", 7, |t| {
            t.span("inner", 7, |_| 1).0 + t.span("inner", 7, |_| 2).0
        });
        assert_eq!(v, 3);
        assert!(secs >= 0.0);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].name, s[0].parent, s[0].op), ("outer", None, 7));
        assert_eq!((s[1].parent, s[2].parent), (Some(0), Some(0)));
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
    }

    #[test]
    fn a_disabled_tracer_times_but_stores_nothing() {
        let mut t = Tracer::new(false);
        let (v, secs) = t.span("x", 0, |_| 5);
        assert_eq!(v, 5);
        assert!(secs >= 0.0);
        assert!(t.spans().is_empty());
        t.set_enabled(true);
        t.span("y", 1, |_| ());
        assert_eq!(t.spans().len(), 1);
    }
}
