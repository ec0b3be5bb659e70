//! Spans recorded by the harness around its own calls into each layer's
//! public functions. Held in memory, written once when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;
use std::time::Instant;

pub type SpanId = u32;

/// One timed call. `query` groups the spans of one request (or of one
/// update round); `parent` is the span that caused this one.
#[derive(Debug, Clone)]
pub struct Span {
    pub parent: Option<SpanId>,
    pub query: u64,
    pub name: &'static str,
    pub server: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(
        &mut self,
        parent: Option<SpanId>,
        query: u64,
        name: &'static str,
        server: Option<u32>,
    ) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            parent,
            query,
            name,
            server,
            start_ns,
            end_ns: start_ns,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Close a span; returns its duration in nanoseconds.
    pub fn end(&mut self, id: SpanId) -> u64 {
        let now = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        span.dur_ns()
    }

    /// Time one call as a child span of `parent`.
    pub fn call<T>(
        &mut self,
        parent: SpanId,
        name: &'static str,
        server: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let query = self.spans[parent as usize].query;
        let id = self.begin(Some(parent), query, name, server);
        let out = f();
        let ns = self.end(id);
        (out, ns)
    }

    /// Time one call as a top-level span of request `query`.
    pub fn root_call<T>(
        &mut self,
        query: u64,
        name: &'static str,
        server: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let id = self.begin(None, query, name, server);
        let out = f();
        let ns = self.end(id);
        (out, ns)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name: a span's duration minus the part of it its
    /// child spans cover.
    pub fn self_time_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0) += s.dur_ns().saturating_sub(covered);
        }
        out
    }

    /// Write `{"columns": [...], "spans": [[id, parent, query, name,
    /// server, start_ns, end_ns], ...]}`.
    pub fn write_json(&self, path: &Path) -> io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 64 + 128);
        out.push_str(
            "{\"columns\":[\"id\",\"parent\",\"query\",\"name\",\"server\",\"start_ns\",\"end_ns\"],\"spans\":[",
        );
        let opt = |v: Option<u32>| v.map_or("null".to_owned(), |v| v.to_string());
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            write!(
                out,
                "[{id},{},{},\"{}\",{},{},{}]",
                opt(s.parent),
                s.query,
                s.name,
                opt(s.server),
                s.start_ns,
                s.end_ns
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::default();
        t.spans.extend([
            Span {
                parent: None,
                query: 1,
                name: "query",
                server: None,
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                parent: Some(0),
                query: 1,
                name: "live",
                server: Some(3),
                start_ns: 10,
                end_ns: 70,
            },
        ]);
        let st = t.self_time_ns();
        assert_eq!(st["query"], 40);
        assert_eq!(st["live"], 60);
    }
}
