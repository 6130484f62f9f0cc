//! In-memory spans for the traced run.
//!
//! A span is one call into a layer: its name, the operation it belongs
//! to, the span that caused it, and its start and end in nanoseconds from
//! a shared epoch. Spans are appended to per-thread buffers while the
//! run is timed and written out only once it has ended.

use crate::stats::Samples;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Marks a span with no parent.
pub const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub op: u64,
    pub parent: u32,
    pub layer: &'static str,
    pub start: u64,
    pub end: u64,
}

/// A per-thread span buffer measured against a shared epoch.
#[derive(Debug, Clone)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::with_capacity(1 << 16),
        }
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its index, which children pass
    /// as their `parent`.
    pub fn record(
        &mut self,
        op: u64,
        parent: u32,
        layer: &'static str,
        start: u64,
        end: u64,
    ) -> u32 {
        self.spans.push(Span {
            op,
            parent,
            layer,
            start,
            end,
        });
        (self.spans.len() - 1) as u32
    }

    /// Closes a span recorded before its end was known.
    pub fn set_end(&mut self, index: u32, end: u64) {
        if let Some(s) = self.spans.get_mut(index as usize) {
            s.end = end;
        }
    }

    /// Appends another buffer's spans, re-basing their parent indices.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != ROOT {
                s.parent += base;
            }
            s
        }));
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span of `layer`.
    pub fn durations(&self, layer: &str) -> Samples {
        let mut out = Samples::with_capacity(0);
        for s in self.spans.iter().filter(|s| s.layer == layer) {
            out.push(s.end.saturating_sub(s.start));
        }
        out
    }

    /// Writes one tab-separated line per span:
    /// `index op parent layer start_ns end_ns` (parent `-` for roots).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index\top\tparent\tlayer\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent == ROOT {
                writeln!(out, "{i}\t{}\t-\t{}\t{}\t{}", s.op, s.layer, s.start, s.end)?;
            } else {
                writeln!(
                    out,
                    "{i}\t{}\t{}\t{}\t{}\t{}",
                    s.op, s.parent, s.layer, s.start, s.end
                )?;
            }
        }
        out.flush()
    }
}

/// Nanoseconds one `record` costs, clock reads included: the per-span
/// price of tracing.
pub fn span_cost_ns() -> f64 {
    const N: u64 = 200_000;
    let mut t = Tracer::new(Instant::now());
    let started = Instant::now();
    for i in 0..N {
        let a = t.now();
        let b = t.now();
        t.record(i, ROOT, "probe", a, b);
    }
    let cost = started.elapsed().as_nanos() as f64 / N as f64;
    std::hint::black_box(t.len());
    cost
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_rebases_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        let root = a.record(1, ROOT, "op", 0, 10);
        a.record(1, root, "child", 2, 5);
        let mut b = Tracer::new(epoch);
        let broot = b.record(2, ROOT, "op", 20, 30);
        b.record(2, broot, "child", 21, 29);
        a.absorb(b);
        assert_eq!(a.len(), 4);
        assert_eq!(a.spans[3].parent, 2);
        assert_eq!(a.spans[2].parent, ROOT);
        let mut d = a.durations("child");
        assert_eq!(d.len(), 2);
        assert_eq!(d.percentile_ns(crate::stats::P50), Some(3));
    }
}
