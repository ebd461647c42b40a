//! In-memory span recording for the traced run.
//!
//! A span is one call into a layer's public function, timed from the
//! benchmark's side: name, start, end, and the id of the operation it
//! belongs to. Spans stay in per-thread memory while a run measures and
//! are written out once, at exit. Each log keeps the most recent
//! `capacity` spans (a ring) and counts the rest, so a long traced run
//! has bounded memory.

use std::io::{self, Write};
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Public function the span times (for example `tree.get`).
    pub name: &'static str,
    /// Operation id: the recording thread in the high 16 bits, its call
    /// sequence number below.
    pub op: u64,
    /// Start, nanoseconds since the log's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the log's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration, nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A bounded per-thread span ring.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    thread: u64,
    seq: u64,
    capacity: usize,
    spans: Vec<Span>,
    /// Next slot to overwrite once the ring is full.
    head: usize,
}

impl SpanLog {
    /// An empty log for `thread` whose timestamps count from `epoch`.
    pub fn new(epoch: Instant, thread: u16, capacity: usize) -> Self {
        assert!(capacity > 0, "span capacity must be positive");
        SpanLog {
            epoch,
            thread: u64::from(thread) << 48,
            seq: 0,
            capacity,
            spans: Vec::with_capacity(capacity),
            head: 0,
        }
    }

    /// Nanoseconds since the epoch.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a span from `start_ns` to `end_ns`; returns its duration.
    #[inline]
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64) -> u64 {
        let span = Span {
            name,
            op: self.thread | self.seq,
            start_ns,
            end_ns,
        };
        self.seq += 1;
        if self.spans.len() < self.capacity {
            self.spans.push(span);
        } else {
            self.spans[self.head] = span;
            self.head = (self.head + 1) % self.capacity;
        }
        span.dur_ns()
    }

    /// Times `f` as one span named `name`.
    #[inline]
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = self.now_ns();
        let r = f();
        let end = self.now_ns();
        self.record(name, start, end);
        r
    }

    /// The retained spans, oldest first.
    pub fn spans(&self) -> impl Iterator<Item = &Span> {
        let (newer, older) = self.spans.split_at(self.head);
        older.iter().chain(newer)
    }
}

/// Writes every retained span of `logs` as tab-separated lines
/// `name op start_ns end_ns`, under a header line.
pub fn write_tsv<'a>(
    out: &mut impl Write,
    logs: impl IntoIterator<Item = &'a SpanLog>,
) -> io::Result<()> {
    writeln!(out, "name\top\tstart_ns\tend_ns")?;
    for log in logs {
        for s in log.spans() {
            writeln!(out, "{}\t{:#x}\t{}\t{}", s.name, s.op, s.start_ns, s.end_ns)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_the_newest_spans_in_order() {
        let mut log = SpanLog::new(Instant::now(), 3, 4);
        for i in 0..10u64 {
            log.record("x", i, i + 1);
        }
        let starts: Vec<u64> = log.spans().map(|s| s.start_ns).collect();
        assert_eq!(starts, vec![6, 7, 8, 9]);
        assert_eq!(log.spans().next().map(|s| s.op), Some((3 << 48) | 6));
        assert!(log.spans().all(|s| s.dur_ns() == 1 && s.name == "x"));
    }
}
