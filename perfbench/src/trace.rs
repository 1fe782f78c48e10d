//! In-memory spans recorded around the benchmark's own calls into each
//! layer's public functions. Spans are kept in memory and written out
//! when the run ends; self time is a span's duration minus the part its
//! child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records nothing until enabled.
    pub fn new() -> Tracer {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Open a span named `name` for request `request`; close it with
    /// [`Tracer::end`]. With tracing off nothing is recorded.
    pub fn begin(&mut self, name: &'static str, request: u64) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        Some(id)
    }

    pub fn end(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
            self.open.retain(|&o| o != id);
        }
    }

    /// Run `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let id = self.begin(name, request);
        let out = f(self);
        self.end(id);
        out
    }

    /// Total and self time per span name, in nanoseconds.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let e = out.entry(s.name).or_default();
            e.0 += dur;
            e.1 += dur.saturating_sub(child);
        }
        out
    }

    /// Write every span as one JSON line, then one summary line per name
    /// with its total and self time.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let mut o = nd_graph::json::JsonObject::new();
            o.field_u64("id", id as u64)
                .field_str("name", s.name)
                .field_u64("start_ns", s.start_ns)
                .field_u64("end_ns", s.end_ns)
                .field_u64("request", s.request);
            match s.parent {
                Some(p) => o.field_u64("parent", p as u64),
                None => o.field_null("parent"),
            };
            writeln!(out, "{}", o.finish())?;
        }
        for (name, (total, own)) in self.self_times() {
            let mut o = nd_graph::json::JsonObject::new();
            o.field_str("summary", name)
                .field_u64("total_ns", total)
                .field_u64("self_ns", own);
            writeln!(out, "{}", o.finish())?;
        }
        out.flush()
    }
}
