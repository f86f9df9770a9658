//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end, the span that caused it, and the
//! id of the batch, update or training iteration it belongs to. Each
//! thread records into its own [`Tracer`]; the run merges them with
//! [`Spans::absorb`] and writes them out when it ends. A disabled tracer
//! records nothing and costs one branch per call.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer function the span times, e.g. `dtree.serve.insert`.
    pub name: &'static str,
    /// Batch, update or iteration id the span belongs to.
    pub id: u64,
    /// Index (within the same [`Spans`]) of the enclosing span.
    pub parent: Option<usize>,
    /// Thread the span ran on (0 = the benchmark's main thread).
    pub thread: u32,
    /// Nanoseconds since the run's origin.
    pub start_ns: u64,
    /// Nanoseconds since the run's origin.
    pub end_ns: u64,
    /// Units of work the call did (packets, rows, records, ...).
    pub work: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span recorder.
pub struct Tracer {
    on: bool,
    origin: Instant,
    thread: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle to an open span, closed by [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    /// A recorder for `thread`, timing against the run-wide `origin`.
    pub fn new(on: bool, origin: Instant, thread: u32) -> Tracer {
        Tracer { on, origin, thread, spans: Vec::new(), open: Vec::new() }
    }

    /// True when spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, id: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            id,
            parent: self.open.last().copied(),
            thread: self.thread,
            start_ns: self.now_ns(),
            end_ns: 0,
            work: 0,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    /// Close `span`, recording the work it did; `name` replaces the
    /// name given at [`Self::begin`] when the outcome decides it (an
    /// update turns out to be an insert, a delete or a refusal).
    pub fn end_as(&mut self, span: Open, name: Option<&'static str>, work: u64) {
        let Some(idx) = span.0 else { return };
        let end = self.now_ns();
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(idx), "spans must close innermost first");
        let s = &mut self.spans[idx];
        s.end_ns = end;
        s.work = work;
        if let Some(name) = name {
            s.name = name;
        }
    }

    /// Close `span`, recording the work it did.
    pub fn end(&mut self, span: Open, work: u64) {
        self.end_as(span, None, work);
    }

    /// Time `f` as one span.
    pub fn time<R>(&mut self, name: &'static str, id: u64, work: u64, f: impl FnOnce() -> R) -> R {
        let span = self.begin(name, id);
        let out = f();
        self.end(span, work);
        out
    }

    /// Hand the recorded spans over.
    pub fn finish(self) -> Vec<Span> {
        debug_assert!(self.open.is_empty(), "spans left open");
        self.spans
    }
}

/// Spans merged from every thread of a run.
#[derive(Default)]
pub struct Spans {
    spans: Vec<Span>,
}

/// Per-name aggregate of a set of spans.
#[derive(Debug, Clone, Default)]
pub struct NameStats {
    /// Duration of every span of this name, in nanoseconds.
    pub durs_ns: Vec<f64>,
    /// Sum of the spans' work.
    pub work: u64,
    /// Sum of the spans' self time: duration minus the time their
    /// child spans cover.
    pub self_ns: u64,
}

impl Spans {
    /// Append one thread's spans, re-basing their parent indices.
    pub fn absorb(&mut self, spans: Vec<Span>) {
        let base = self.spans.len();
        self.spans.extend(spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Aggregate durations, work and self time by span name.
    pub fn by_name(&self) -> BTreeMap<&'static str, NameStats> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.durs_ns.push(s.dur_ns() as f64);
            e.work += s.work;
            e.self_ns += s.dur_ns().saturating_sub(child);
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\": {i}, \"name\": \"{}\", \"id\": {}, \"parent\": {parent}, \
                 \"thread\": {}, \"start_ns\": {}, \"end_ns\": {}, \"work\": {}}}",
                s.name, s.id, s.thread, s.start_ns, s.end_ns, s.work
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now(), 0);
        let v = t.time("a", 1, 5, || 7);
        assert_eq!(v, 7);
        assert!(t.finish().is_empty());
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span { name: "p", id: 0, parent: None, thread: 0, start_ns: 0, end_ns: 100, work: 0 },
            Span {
                name: "c",
                id: 0,
                parent: Some(0),
                thread: 0,
                start_ns: 10,
                end_ns: 40,
                work: 3,
            },
            Span {
                name: "c",
                id: 1,
                parent: Some(0),
                thread: 0,
                start_ns: 50,
                end_ns: 70,
                work: 4,
            },
        ];
        let mut all = Spans::default();
        all.absorb(vec![Span {
            name: "q",
            id: 9,
            parent: None,
            thread: 1,
            start_ns: 0,
            end_ns: 5,
            work: 0,
        }]);
        all.absorb(spans);
        let by = all.by_name();
        assert_eq!(by["p"].self_ns, 50);
        assert_eq!(by["c"].self_ns, 50);
        assert_eq!(by["c"].work, 7);
        assert_eq!(by["c"].durs_ns, vec![30.0, 20.0]);
        assert_eq!(by["q"].self_ns, 5);
    }

    #[test]
    fn nested_spans_link_to_their_parent() {
        let mut t = Tracer::new(true, Instant::now(), 0);
        let outer = t.begin("outer", 3);
        let inner = t.begin("inner", 3);
        t.end(inner, 1);
        t.end_as(outer, Some("renamed"), 2);
        let spans = t.finish();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "renamed");
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
