//! Spans recorded by the benchmark around its own calls into each layer:
//! name, start, end, parent, thread and (on `whatif_stream`) query id.
//! Spans stay in memory until the run ends; [`Trace::write_jsonl`] then
//! writes them out. A layer's self time is its spans' durations minus the
//! part of each interval its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// 0 for the benchmark's main thread, 1.. for profiling workers.
    pub thread: u32,
    pub query: Option<u32>,
}

/// Spans named here are the benchmark's own structure, not a layer: their
/// self time is time spent outside every layer call.
pub const BENCH_SPANS: [&str; 2] = ["pass", "pool"];

pub struct Trace {
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    /// Query id stamped on every span opened while it is set.
    pub query: Option<u32>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace { epoch: Instant::now(), spans: Vec::new(), stack: Vec::new(), query: None }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, nested under the innermost open
    /// span of this thread.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Trace) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            thread: 0,
            query: self.query,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// The innermost open span — the parent a worker's spans hang under.
    pub fn current(&self) -> Option<usize> {
        self.stack.last().copied()
    }

    /// Adopt a leaf span a worker thread timed against this trace's clock.
    pub fn adopt(&mut self, name: &'static str, start_ns: u64, end_ns: u64, thread: u32) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.current(),
            thread,
            query: self.query,
        });
    }

    /// Self time per span name, in seconds. Children may run on other
    /// threads; the part of the parent they cover is their union.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut self_ns: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let mut iv: Vec<(u64, u64)> = children[i]
                .iter()
                .map(|&c| {
                    let c = &self.spans[c];
                    (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                })
                .filter(|(a, b)| a < b)
                .collect();
            iv.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in iv {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            *self_ns.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(covered);
        }
        self_ns.into_iter().map(|(name, ns)| (name, ns as f64 / 1e9)).collect()
    }

    /// Every span as one JSON line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let query = s.query.map_or("null".to_string(), |q| format!("\"q{q}\""));
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"thread\":{},\"query\":{query}}}",
                s.name, s.start_ns, s.end_ns, s.thread
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, thread: 0, query: None }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Trace::new();
        t.spans = vec![
            span("pass", 0, 100, None),
            span("pool", 10, 60, Some(0)),
            // Two overlapping worker spans cover 15..55 of the pool.
            span("profile", 15, 40, Some(1)),
            span("profile", 20, 55, Some(1)),
            span("execute", 60, 90, Some(0)),
        ];
        let s = t.self_seconds();
        assert_eq!(s["pass"], 20e-9);
        assert_eq!(s["pool"], 10e-9);
        assert_eq!(s["profile"], 60e-9, "busy time sums both workers");
        assert_eq!(s["execute"], 30e-9);
    }

    #[test]
    fn nested_spans_record_their_parents() {
        let mut t = Trace::new();
        t.query = Some(7);
        t.span("exec", |t| {
            t.span("key", |_| ());
            t.adopt("profile", 0, 1, 1);
        });
        assert_eq!(t.spans.len(), 3);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].parent, Some(0));
        assert!(t.spans.iter().all(|s| s.query == Some(7)));
    }
}
