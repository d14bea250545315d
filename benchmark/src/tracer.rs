//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, start and end (ns since the tracer started), the
//! span that caused it, and the id of the operation it belongs to (one
//! round, point, job or program). Spans stay in memory and are written
//! as JSON once the workload ends. With tracing off every call is a
//! single branch.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Span recorder; shared by reference with executor callbacks.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

/// Per span name: count, total and self nanoseconds.
pub type SelfTimes = BTreeMap<&'static str, (u64, u64, u64)>;

impl Tracer {
    /// A tracer that records nothing.
    #[must_use]
    pub fn off() -> Self {
        Tracer {
            on: false,
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A recording tracer.
    #[must_use]
    pub fn on() -> Self {
        Tracer {
            on: true,
            ..Tracer::off()
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.t0).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span now; close it with [`Tracer::end`].
    pub fn begin(&self, name: &'static str, op: u64, parent: Option<SpanId>) -> Option<SpanId> {
        self.on
            .then(|| self.record(name, op, parent, Instant::now(), None))
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&self, id: Option<SpanId>) {
        if let Some(SpanId(i)) = id {
            let end = self.ns(Instant::now());
            self.spans.lock().expect("span list poisoned")[i].end_ns = end;
        }
    }

    /// Records a span whose interval was measured elsewhere (e.g. by an
    /// executor callback on another thread).
    pub fn span_between(
        &self,
        name: &'static str,
        op: u64,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        self.on
            .then(|| self.record(name, op, parent, start, Some(end)))
    }

    fn record(
        &self,
        name: &'static str,
        op: u64,
        parent: Option<SpanId>,
        start: Instant,
        end: Option<Instant>,
    ) -> SpanId {
        let start_ns = self.ns(start);
        let end_ns = end.map_or(start_ns, |e| self.ns(e));
        let mut spans = self.spans.lock().expect("span list poisoned");
        spans.push(Span {
            name,
            op,
            parent: parent.map(|SpanId(p)| p),
            start_ns,
            end_ns,
        });
        SpanId(spans.len() - 1)
    }

    /// Durations in nanoseconds of every span named `name`.
    #[must_use]
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("span list poisoned");
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Count, total and self time per span name. A span's self time is
    /// its duration minus the time its child spans cover.
    #[must_use]
    pub fn self_times(&self) -> SelfTimes {
        let spans = self.spans.lock().expect("span list poisoned");
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = SelfTimes::new();
        for (s, child) in spans.iter().zip(child_ns) {
            let total = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_insert((0, 0, 0));
            e.0 += 1;
            e.1 += total;
            e.2 += total.saturating_sub(child);
        }
        out
    }

    /// Writes every span as a JSON array.
    ///
    /// # Errors
    /// If the file cannot be written.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let spans = self.spans.lock().expect("span list poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 < spans.len() { "," } else { "" };
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}{comma}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}
