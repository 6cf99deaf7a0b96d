//! In-memory spans around the calls into each layer, written out when the
//! traced pass ends. Allocation counts are sampled at the same boundaries.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::alloc::AllocCount;
use crate::json::Value;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one run share an identifier.
    pub run_id: u32,
    /// Allocations made by the recording thread while the span was open.
    pub alloc: AllocCount,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span, to be passed back to [`Tracer::end`].
#[derive(Clone, Copy, Debug)]
pub struct Open(usize);

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    alloc_at_begin: Vec<AllocCount>,
}

impl Tracer {
    /// A tracer whose clock starts at `origin`. Tracers filled on worker
    /// threads take the main tracer's origin so that [`Tracer::adopt`] can
    /// merge them onto one time axis.
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
            alloc_at_begin: Vec::new(),
        }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &str, run_id: u32) -> Open {
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: 0,
            end_ns: 0,
            parent: self.stack.last().copied(),
            run_id,
            alloc: AllocCount::default(),
        });
        self.stack.push(idx);
        // Sampled last so that the tracer's own bookkeeping stays outside.
        self.alloc_at_begin.push(AllocCount::now());
        self.spans[idx].start_ns = self.now_ns();
        Open(idx)
    }

    /// Close `open`, which must be the innermost open span; returns it.
    pub fn end(&mut self, open: Open) -> &Span {
        let end_ns = self.now_ns();
        let alloc = AllocCount::now();
        assert_eq!(self.stack.pop(), Some(open.0), "spans must nest");
        let begin = self.alloc_at_begin.pop().expect("one sample per open span");
        let span = &mut self.spans[open.0];
        span.end_ns = end_ns;
        span.alloc = alloc.since(begin);
        span
    }

    /// Run `f` inside a span; returns its result and the span's duration.
    pub fn time<R>(&mut self, name: &str, run_id: u32, f: impl FnOnce() -> R) -> (R, u64) {
        let open = self.begin(name, run_id);
        let out = f();
        (out, self.end(open).dur_ns())
    }

    /// Append a finished worker tracer's spans under the innermost open
    /// span of this one.
    pub fn adopt(&mut self, worker: Tracer) {
        assert!(worker.stack.is_empty(), "worker left a span open");
        let offset = self.spans.len();
        let top = self.stack.last().copied();
        self.spans.extend(worker.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset).or(top);
            s
        }));
    }

    /// A span's duration minus the part of it that its children cover.
    /// Children that ran side by side on two threads cover their union.
    pub fn self_time_ns(&self, idx: usize) -> u64 {
        let me = &self.spans[idx];
        let mut kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
            .filter(|(a, b)| a < b)
            .collect();
        kids.sort_unstable();
        let (mut covered, mut edge) = (0, me.start_ns);
        for (a, b) in kids {
            if b > edge {
                covered += b - a.max(edge);
                edge = b;
            }
        }
        me.dur_ns() - covered
    }

    /// One JSON object per line: the span fields plus its self time.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let line = Value::obj([
                ("id", Value::Num(i as f64)),
                ("name", Value::str(&*s.name)),
                ("start_ns", Value::Num(s.start_ns as f64)),
                ("end_ns", Value::Num(s.end_ns as f64)),
                (
                    "parent",
                    s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                ),
                ("run_id", Value::Num(f64::from(s.run_id))),
                ("self_ns", Value::Num(self.self_time_ns(i) as f64)),
                ("allocs", Value::Num(s.alloc.calls as f64)),
                ("alloc_bytes", Value::Num(s.alloc.bytes as f64)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            run_id: 0,
            alloc: AllocCount::default(),
        }
    }

    fn tracer_of(spans: Vec<Span>) -> Tracer {
        let mut t = Tracer::new(Instant::now());
        t.spans = spans;
        t
    }

    #[test]
    fn self_time_subtracts_sibling_children_but_not_grandchildren() {
        let t = tracer_of(vec![
            span("run", 0, 100, None),
            span("build", 0, 10, Some(0)),
            span("simulate", 10, 90, Some(0)),
            span("simulate.inner", 20, 60, Some(2)),
        ]);
        assert_eq!(t.self_time_ns(0), 10);
        assert_eq!(t.self_time_ns(1), 10);
        assert_eq!(t.self_time_ns(2), 40);
        assert_eq!(t.self_time_ns(3), 40);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Two workers under one grid span: 10..60 and 30..90 cover 80.
        let t = tracer_of(vec![
            span("grid", 0, 100, None),
            span("run", 10, 60, Some(0)),
            span("run", 30, 90, Some(0)),
            span("run", 40, 50, Some(0)),
        ]);
        assert_eq!(t.self_time_ns(0), 20);
    }

    #[test]
    fn begin_end_nest_and_adopt_reparents() {
        let origin = Instant::now();
        let mut main = Tracer::new(origin);
        let outer = main.begin("grid", 0);
        let mut worker = Tracer::new(origin);
        let run = worker.begin("run", 7);
        let (_, _) = worker.time("build", 7, || ());
        worker.end(run);
        main.adopt(worker);
        main.end(outer);
        let names: Vec<_> = main.spans().iter().map(|s| (&*s.name, s.parent)).collect();
        assert_eq!(
            names,
            [("grid", None), ("run", Some(0)), ("build", Some(1))]
        );
        assert!(main.spans().iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(main.spans()[2].run_id, 7);
    }
}
