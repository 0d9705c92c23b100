//! In-memory span tracing for the per-layer passes.
//!
//! Spans are recorded by the harness around its calls into each layer —
//! nothing inside `jsonx` is instrumented. The buffer is allocated up
//! front, spans carry the chunk sequence number as their identifier, and
//! the whole buffer is written out once, when the pass has ended. A
//! disabled tracer takes no clock readings at all, so the same pass run
//! with it gives the untraced wall the overhead share is measured against.

use std::collections::BTreeMap;
use std::time::Instant;

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded call into a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.call`, e.g. `structural.scan`.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span this one ran inside, or [`NO_PARENT`].
    pub parent: u32,
    /// Chunk sequence number (spans of one chunk share it).
    pub id: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span recorder.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A recording tracer with room for `capacity` spans.
    pub fn recording(capacity: usize) -> Tracer {
        Tracer {
            enabled: true,
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(8),
        }
    }

    /// A tracer that records nothing and never reads the clock.
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` become
    /// its children.
    pub fn span<R>(&mut self, name: &'static str, id: u32, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            id,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index as usize].end_ns = self.now_ns();
        out
    }

    /// The recorded buffer.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per-name totals of a span buffer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotal {
    pub calls: u64,
    /// Sum of the spans' durations.
    pub total_ns: u64,
    /// Sum of the spans' durations minus what their child spans cover.
    pub self_ns: u64,
}

/// Self time of each span, index for index: its duration minus the
/// durations of its direct children (children never overlap — the tracer
/// is single-threaded and strictly nested).
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if span.parent != NO_PARENT {
            child_ns[span.parent as usize] += span.duration_ns();
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(span, covered)| span.duration_ns().saturating_sub(covered))
        .collect()
}

/// Calls, total time and self time per span name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, NameTotal> {
    let mut totals: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_ns(spans)) {
        let entry = totals.entry(span.name).or_default();
        entry.calls += 1;
        entry.total_ns += span.duration_ns();
        entry.self_ns += own;
    }
    totals
}

/// Serialises a span buffer as one JSON document (written at exit to
/// `benchmark/out/trace-<workload>.json`).
pub fn spans_to_json(workload: &str, spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96 + 64);
    out.push_str("{\"workload\":\"");
    out.push_str(workload);
    out.push_str("\",\"spans\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = if s.parent == NO_PARENT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"id\":{}}}",
            s.name, s.start_ns, s.end_ns, parent, s.id
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // pass [0,100) > chunk [10,90) > {scan [10,40), decode [40,80)}
        let spans = vec![
            span("pass", 0, 100, NO_PARENT),
            span("chunk", 10, 90, 0),
            span("scan", 10, 40, 1),
            span("decode", 40, 80, 1),
        ];
        let t = self_times(&spans);
        assert_eq!(t["pass"].self_ns, 20);
        assert_eq!(t["chunk"].self_ns, 10);
        assert_eq!(t["scan"].self_ns, 30);
        assert_eq!(t["decode"].self_ns, 40);
        assert_eq!(t["pass"].total_ns, 100);
        let sum: u64 = t.values().map(|n| n.self_ns).sum();
        assert_eq!(sum, 100, "self times partition the root span");
    }

    #[test]
    fn same_name_spans_accumulate() {
        let spans = vec![
            span("chunk", 0, 50, NO_PARENT),
            span("scan", 0, 20, 0),
            span("chunk", 50, 100, NO_PARENT),
            span("scan", 60, 70, 2),
        ];
        let t = self_times(&spans);
        assert_eq!(t["scan"].calls, 2);
        assert_eq!(t["scan"].self_ns, 30);
        assert_eq!(t["chunk"].self_ns, 30 + 40);
    }

    #[test]
    fn tracer_nests_and_disabled_records_nothing() {
        let mut t = Tracer::recording(8);
        let got = t.span("outer", 3, |t| t.span("inner", 3, |_| 7));
        assert_eq!(got, 7);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!(spans[1].parent, 0);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let mut off = Tracer::disabled();
        assert_eq!(off.span("outer", 0, |t| t.span("inner", 0, |_| 1)), 1);
        assert!(off.into_spans().is_empty());
    }
}
