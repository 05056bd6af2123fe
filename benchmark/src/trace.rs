//! Spans recorded from the benchmark's side of each layer boundary.
//!
//! The benchmark is one closed-loop client on one thread, so spans nest
//! as a stack: a span's parent is whatever span was open when it began.
//! Spans stay in memory and are written out once, at exit. With the
//! tracer off, [`Tracer::span`] only calls its closure, so the untraced
//! run and the traced run execute the same workload code.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a workload op.
    pub parent: Option<usize>,
    /// The workload op this span belongs to.
    pub op: usize,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    op: usize,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: false,
            epoch: Instant::now(),
            op: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Sets the op id stamped on the spans that follow.
    pub fn set_op(&mut self, op: usize) {
        self.op = op;
    }

    /// Runs `f` inside a span called `name` (or bare, with the tracer
    /// off). The closure gets the tracer back to open child spans.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a JSON array, one object per span, in start order.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (index, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "  {{\"id\": {index}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"op\": {}}}{}",
                span.name,
                span.start_ns,
                span.end_ns,
                span.op,
                if index + 1 == self.spans.len() {
                    ""
                } else {
                    ","
                }
            );
        }
        out.push(']');
        out
    }
}

/// Self time per span name: each span's duration minus the part its
/// child spans cover, summed over all spans of that name.
pub fn self_times_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            covered[parent] += span.duration_ns();
        }
    }
    let mut by_name = BTreeMap::new();
    for (span, covered) in spans.iter().zip(covered) {
        *by_name.entry(span.name).or_insert(0) += span.duration_ns().saturating_sub(covered);
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span("op", 0, 100, None),
            span("suite", 10, 60, Some(0)),
            span("cache", 20, 30, Some(1)),
            span("suite", 70, 90, Some(0)),
        ];
        let own = self_times_ns(&spans);
        assert_eq!(own["op"], 100 - 50 - 20);
        assert_eq!(own["suite"], (50 - 10) + 20);
        assert_eq!(own["cache"], 10);
        // Self times partition the root span.
        assert_eq!(own.values().sum::<u64>(), 100);
    }

    #[test]
    fn spans_nest_by_call_stack_and_carry_the_op() {
        let mut tracer = Tracer::new();
        tracer.set_on(true);
        tracer.set_op(7);
        let out = tracer.span("op", |t| t.span("inner", |_| 5) + t.span("inner", |_| 6));
        assert_eq!(out, 11);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].name, spans[0].parent), ("op", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert_eq!((spans[2].name, spans[2].parent), ("inner", Some(0)));
        assert!(spans.iter().all(|s| s.op == 7 && s.end_ns >= s.start_ns));
        assert!(spans[0].end_ns >= spans[2].end_ns);
    }

    #[test]
    fn an_idle_tracer_records_nothing() {
        let mut tracer = Tracer::new();
        assert_eq!(tracer.span("op", |_| 3), 3);
        assert!(tracer.spans().is_empty());
        assert_eq!(tracer.to_json(), "[\n]");
    }
}
