//! Spans recorded by the benchmark around its calls into each layer's public
//! functions. Kept in memory; written as Chrome trace-event JSON when the
//! run ends (load the file in `chrome://tracing` or Perfetto).

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Spans kept for the trace file. `served_mix` makes ~100 k requests; the
/// file keeps the first ones, the metrics use all.
const MAX_SPANS: usize = 40_000;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// 1-based; 0 is "no parent".
    pub id: u32,
    pub parent: u32,
    /// The statement (or ladder rung repetition) the span belongs to.
    pub stmt: u64,
    pub start_us: f64,
    pub end_us: f64,
}

/// Handle of an open span.
pub struct Open(Option<usize>);

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    dropped: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            dropped: 0,
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, stmt: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return Open(None);
        }
        let id = self.spans.len() as u32 + 1;
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            id,
            parent: self.stack.last().copied().unwrap_or(0),
            stmt,
            start_us,
            end_us: start_us,
        });
        self.stack.push(id);
        Open(Some(id as usize - 1))
    }

    pub fn end(&mut self, open: Open) {
        if let Open(Some(idx)) = open {
            self.spans[idx].end_us = self.now_us();
            self.stack.pop();
        }
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn recorded(&self) -> u64 {
        self.spans.len() as u64 + self.dropped
    }

    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 140 + 64);
        out.push_str("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"args\": {{\"id\": {}, \"parent\": {}, \"stmt\": {}}}}}",
                s.name,
                s.start_us,
                s.end_us - s.start_us,
                s.id,
                s.parent,
                s.stmt
            );
        }
        out.push_str("\n]}\n");
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_link_to_their_parent() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", 7);
        let inner = t.begin("inner", 7);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(inner);
        t.end(outer);
        let sibling = t.begin("sibling", 8);
        t.end(sibling);
        let spans = t.spans();
        assert_eq!(
            (spans[0].parent, spans[1].parent, spans[2].parent),
            (0, 1, 0)
        );
        assert_eq!((spans[0].stmt, spans[2].stmt), (7, 8));
        assert!(spans[1].end_us - spans[1].start_us >= 2000.0);
        assert!(spans[0].end_us >= spans[1].end_us);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.begin("x", 0);
        t.end(s);
        assert!(t.spans().is_empty());
    }
}
