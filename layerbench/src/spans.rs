//! In-memory span buffer and self-time math.
//!
//! A span is one timed call from the benchmark into a layer: name, start,
//! end and the span that caused it. Spans of one operation share an op
//! id. A span's self time is its duration minus the part of its interval
//! that its child spans cover; overlapping children are counted once.

use std::io::Write;
use std::time::Instant;

/// No parent: a root span.
pub const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub op: u64,
    pub parent: u32,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Nanoseconds since a shared epoch, so spans from several threads line up.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn new() -> Self {
        Clock(Instant::now())
    }

    #[inline]
    pub fn now(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

impl Default for Clock {
    fn default() -> Self {
        Clock::new()
    }
}

/// Bounded span buffer. Once full it overwrites its oldest spans, so a
/// long traced loop costs the same per op from start to end; `recorded`
/// counts every span ever pushed.
#[derive(Debug)]
pub struct SpanBuf {
    spans: Vec<Span>,
    cap: usize,
    next: usize,
    pub recorded: u64,
}

impl SpanBuf {
    pub fn with_capacity(cap: usize) -> Self {
        SpanBuf {
            spans: Vec::with_capacity(cap.min(1 << 16)),
            cap: cap.max(1),
            next: 0,
            recorded: 0,
        }
    }

    /// Appends a span and returns its slot (a parent id for its children).
    #[inline]
    pub fn push(&mut self, span: Span) -> u32 {
        self.recorded += 1;
        let slot = if self.spans.len() < self.cap {
            self.spans.push(span);
            self.spans.len() - 1
        } else {
            let slot = self.next;
            self.spans[slot] = span;
            self.next = (slot + 1) % self.cap;
            slot
        };
        slot as u32
    }

    /// Spans currently held, in slot order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Whether no span was ever overwritten.
    pub fn complete(&self) -> bool {
        self.recorded as usize == self.spans.len()
    }

    /// Groups held spans by op: `(root, children)` per op whose root is
    /// held. Requires [`SpanBuf::complete`] (slots are parent ids).
    pub fn ops(&self) -> Vec<(Span, Vec<Span>)> {
        let mut out: Vec<(Span, Vec<Span>)> = Vec::new();
        let mut root_slot: Vec<usize> = vec![usize::MAX; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent == ROOT {
                root_slot[i] = out.len();
                out.push((*s, Vec::new()));
            } else if let Some(&r) = root_slot.get(s.parent as usize) {
                if r != usize::MAX {
                    out[r].1.push(*s);
                }
            }
        }
        out
    }

    /// Writes every held span as one tab-separated line.
    pub fn write_tsv(&self, w: &mut impl Write, tag: &str) -> std::io::Result<()> {
        for s in &self.spans {
            let parent = if s.parent == ROOT { -1 } else { i64::from(s.parent) };
            writeln!(w, "{tag}\t{}\t{parent}\t{}\t{}\t{}", s.op, s.name, s.start, s.end)?;
        }
        Ok(())
    }
}

/// Length of the union of `children` clipped to `[start, end)`.
pub fn covered(start: u64, end: u64, children: impl Iterator<Item = (u64, u64)>) -> u64 {
    let mut iv: Vec<(u64, u64)> =
        children.map(|(s, e)| (s.max(start), e.min(end))).filter(|(s, e)| s < e).collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time of `parent`: its duration minus what `children` cover.
pub fn self_time(parent: &Span, children: &[Span]) -> u64 {
    parent.duration() - covered(parent.start, parent.end, children.iter().map(|c| (c.start, c.end)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: u32, start: u64, end: u64) -> Span {
        Span { op: 1, parent, name: "x", start, end }
    }

    #[test]
    fn self_time_subtracts_child_coverage() {
        let p = span(ROOT, 100, 200);
        assert_eq!(self_time(&p, &[]), 100);
        // Disjoint children.
        assert_eq!(self_time(&p, &[span(0, 110, 120), span(0, 150, 170)]), 70);
        // Overlapping children are counted once.
        assert_eq!(self_time(&p, &[span(0, 110, 140), span(0, 130, 160), span(0, 120, 125)]), 50);
        // Children reaching outside the parent are clipped to it.
        assert_eq!(self_time(&p, &[span(0, 50, 120), span(0, 190, 400)]), 70);
        // A child covering the whole parent leaves no self time.
        assert_eq!(self_time(&p, &[span(0, 100, 200)]), 0);
    }

    #[test]
    fn covered_merges_touching_intervals() {
        assert_eq!(covered(0, 100, [(10, 20), (20, 30), (40, 50)].into_iter()), 30);
        assert_eq!(covered(0, 100, [(60, 70), (10, 80)].into_iter()), 70);
    }

    #[test]
    fn buffer_groups_children_under_their_root() {
        let mut b = SpanBuf::with_capacity(16);
        let r = b.push(span(ROOT, 0, 10));
        b.push(Span { op: 1, parent: r, name: "c", start: 2, end: 4 });
        let r2 = b.push(Span { op: 2, parent: ROOT, name: "x", start: 10, end: 20 });
        b.push(Span { op: 2, parent: r2, name: "c", start: 11, end: 19 });
        let ops = b.ops();
        assert_eq!(ops.len(), 2);
        assert_eq!(self_time(&ops[0].0, &ops[0].1), 8);
        assert_eq!(self_time(&ops[1].0, &ops[1].1), 2);
        assert!(b.complete());
    }

    #[test]
    fn full_buffer_overwrites_oldest() {
        let mut b = SpanBuf::with_capacity(2);
        for i in 0..5 {
            b.push(span(ROOT, i, i + 1));
        }
        assert_eq!(b.recorded, 5);
        assert_eq!(b.spans().len(), 2);
        assert!(!b.complete());
    }
}
