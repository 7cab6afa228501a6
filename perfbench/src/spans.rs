//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, start, end, the span that caused it, and the id of
//! the op it belongs to. Spans stay in memory until the run ends; a
//! disabled recorder costs one branch per call.

use std::fmt::Write as _;
use std::time::Instant;

/// Span parent meaning "no parent".
pub const ROOT: usize = usize::MAX;

#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: usize,
    op: u64,
}

/// One thread's span recorder.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last.
    stack: Vec<usize>,
}

impl Spans {
    pub fn new(enabled: bool, origin: Instant) -> Spans {
        Spans {
            enabled,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off for the spans that follow.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn time<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let id = self.spans.len();
        let parent = self.stack.last().copied().unwrap_or(ROOT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        self.stack.push(id);
        let r = f();
        self.stack.pop();
        self.spans[id].end_ns = self.now_ns();
        r
    }

    /// Opens a span that `close` ends; for spans that wrap code which
    /// itself records spans through `self`.
    pub fn open(&mut self, name: &'static str, op: u64) -> usize {
        if !self.enabled {
            return ROOT;
        }
        let id = self.spans.len();
        let parent = self.stack.last().copied().unwrap_or(ROOT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        self.stack.push(id);
        id
    }

    pub fn close(&mut self, id: usize) {
        if id == ROOT {
            return;
        }
        assert_eq!(self.stack.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Records a finished span with explicit bounds (for intervals measured
    /// elsewhere, such as how long a request waited for its sender).
    pub fn record(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let parent = self.stack.last().copied().unwrap_or(ROOT);
        self.spans.push(Span {
            name,
            start_ns: at(start),
            end_ns: at(end),
            parent,
            op,
        });
    }

    /// Moves `other`'s spans into `self`, keeping their parent links.
    pub fn absorb(&mut self, other: Spans) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != ROOT {
                s.parent += base;
            }
            s
        }));
    }

    /// Per span name: count, total time and self time (duration minus the
    /// part covered by child spans), in milliseconds, sorted by name.
    pub fn summary(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child_ns[s.parent] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut rows: Vec<(&'static str, usize, f64, f64)> = Vec::new();
        for (s, child) in self.spans.iter().zip(&child_ns) {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let own = dur.saturating_sub(*child);
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += dur as f64 / 1e6;
                    r.3 += own as f64 / 1e6;
                }
                None => rows.push((s.name, 1, dur as f64 / 1e6, own as f64 / 1e6)),
            }
        }
        rows.sort_by(|a, b| a.0.cmp(b.0));
        rows
    }

    /// All spans as a JSON array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op\": {}}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.op,
                if i + 1 == self.spans.len() { "" } else { "," }
            );
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut s = Spans::new(true, Instant::now());
        let outer = s.open("outer", 1);
        s.time("inner", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        s.close(outer);
        let rows = s.summary();
        let inner = rows.iter().find(|r| r.0 == "inner").unwrap();
        let outer = rows.iter().find(|r| r.0 == "outer").unwrap();
        assert!(inner.2 >= 5.0);
        assert!(outer.3 < outer.2 && outer.3 >= 0.0);
        assert!(s.to_json().contains("\"parent\": 0"));
    }

    #[test]
    fn disabled_records_nothing() {
        let mut s = Spans::new(false, Instant::now());
        let id = s.open("x", 0);
        assert_eq!(s.time("y", 0, || 7), 7);
        s.close(id);
        assert!(s.summary().is_empty());
    }
}
