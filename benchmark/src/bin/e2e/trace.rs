//! Spans recorded by the benchmark around its own calls into each
//! layer, kept in memory, written out at exit, and reduced to per-layer
//! self time.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed call: `req` is shared by every span of one request.
#[derive(Debug, Clone)]
pub struct Span {
    pub req: u64,
    pub parent: Option<u32>,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An in-memory span log; span ids are indices into it.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, req: u64, parent: Option<u32>, layer: &'static str) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            req,
            parent,
            layer,
            start_ns,
            end_ns: start_ns,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn end(&mut self, id: u32) {
        let now = self.now_ns();
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end_ns = now;
        }
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        req: u64,
        parent: Option<u32>,
        layer: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(req, parent, layer);
        let out = f();
        self.end(id);
        out
    }

    /// Self time of every span, grouped by layer, in nanoseconds: the
    /// span's duration minus the durations of its child spans.
    pub fn self_times(&self) -> BTreeMap<&'static str, Vec<u64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                if let Some(c) = child_ns.get_mut(p as usize) {
                    *c += span.end_ns - span.start_ns;
                }
            }
        }
        let mut out: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let own = (span.end_ns - span.start_ns).saturating_sub(children);
            out.entry(span.layer).or_default().push(own);
        }
        out
    }

    /// Appends the spans as tab-separated lines tagged with `log`.
    pub fn write_to(&self, log: &str, out: &mut impl Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{log}\t{}\t{id}\t{parent}\t{}\t{}\t{}",
                s.req, s.layer, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(Instant::now());
        t.spans.push(Span {
            req: 1,
            parent: None,
            layer: "root",
            start_ns: 0,
            end_ns: 100,
        });
        t.spans.push(Span {
            req: 1,
            parent: Some(0),
            layer: "a",
            start_ns: 10,
            end_ns: 40,
        });
        t.spans.push(Span {
            req: 1,
            parent: Some(0),
            layer: "b",
            start_ns: 50,
            end_ns: 60,
        });
        t.spans.push(Span {
            req: 1,
            parent: Some(1),
            layer: "c",
            start_ns: 20,
            end_ns: 25,
        });
        let own = t.self_times();
        assert_eq!(own["root"], vec![60]);
        assert_eq!(own["a"], vec![25]);
        assert_eq!(own["b"], vec![10]);
        assert_eq!(own["c"], vec![5]);
        let sum: u64 = own.values().flatten().sum();
        assert_eq!(sum, 100, "self times add up to the root span");
    }
}
