//! Span recorder of the traced pass.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer's public API; nothing inside the program is
//! instrumented. They are kept in memory (storage reserved up front, so
//! recording allocates nothing in steady state) and written out when the
//! benchmark ends. The end-to-end pass runs the same driver code with a
//! disabled tracer, whose calls are one branch each.

use std::io::Write;
use std::time::Instant;

/// Index of a recorded span; [`NO_SPAN`] for "none".
pub type SpanId = u32;

/// The parent of a root span, and the id a disabled tracer hands out.
pub const NO_SPAN: SpanId = u32::MAX;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary the span wraps, e.g. `server.submit`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch; `0` while open.
    pub end_ns: u64,
    /// The span that caused this one, or [`NO_SPAN`].
    pub parent: SpanId,
    /// Request the span belongs to (spans of one request share it).
    pub request: u64,
}

impl Span {
    /// The span's duration, nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder owned by one benchmark thread.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// A recording tracer with room for `capacity` spans, timing from
    /// `epoch` (tracers of one run share an epoch so their spans merge
    /// onto one clock).
    pub fn recording(epoch: Instant, capacity: usize) -> Self {
        Self {
            enabled: true,
            epoch,
            spans: Vec::with_capacity(capacity),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The epoch spans are timed from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Opens a span. Close it with [`end`](Self::end).
    #[inline]
    pub fn begin(&mut self, name: &'static str, request: u64, parent: SpanId) -> SpanId {
        if !self.enabled {
            return NO_SPAN;
        }
        let id = self.spans.len() as SpanId;
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent,
            request,
        });
        id
    }

    /// Closes a span opened by [`begin`](Self::begin).
    #[inline]
    pub fn end(&mut self, id: SpanId) {
        if id == NO_SPAN {
            return;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end_ns = now;
        }
    }

    /// Records a span around `f`.
    #[inline]
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: SpanId,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, request, parent);
        let out = f();
        self.end(id);
        out
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves another tracer's spans in behind this one's, re-basing
    /// their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as SpanId;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_SPAN {
                s.parent += base;
            }
            s
        }));
    }
}

/// Each span's self time, nanoseconds: its duration minus the durations
/// of the spans that name it as parent. A replayed child (the same
/// input run again outside its parent's interval) counts like a nested
/// one, which is what lets a layer be timed from outside the program;
/// it also means a replay that ran slower than the original leaves a
/// negative self time, which is kept so that noise around zero is not
/// folded onto one side of it.
pub fn self_times_ns(spans: &[Span]) -> Vec<i64> {
    let mut children = vec![0i64; spans.len()];
    for span in spans {
        if let Some(sum) = children.get_mut(span.parent as usize) {
            *sum += span.duration_ns() as i64;
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, covered)| span.duration_ns() as i64 - covered)
        .collect()
}

/// Writes spans as JSON lines: name, start, end, parent, request id.
pub fn write_jsonl(spans: &[Span], out: &mut impl Write) -> std::io::Result<()> {
    for (id, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_SPAN {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
            s.name, s.start_ns, s.end_ns, s.request
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: SpanId) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = [
            span("serve", 0, 100, NO_SPAN),
            span("layer", 10, 40, 0),
            span("layer", 40, 70, 0),
            span("matmul", 12, 22, 1),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 20, 30, 10]);
    }

    #[test]
    fn a_replayed_child_outside_the_interval_still_counts() {
        let spans = [span("step", 0, 50, NO_SPAN), span("forward", 200, 240, 0)];
        assert_eq!(self_times_ns(&spans), vec![10, 40]);
    }

    #[test]
    fn a_replay_slower_than_its_parent_leaves_a_negative_self_time() {
        let spans = [span("a", 0, 10, NO_SPAN), span("b", 100, 130, 0)];
        assert_eq!(self_times_ns(&spans)[0], -20);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        let id = t.begin("x", 1, NO_SPAN);
        assert_eq!(id, NO_SPAN);
        t.end(id);
        assert_eq!(t.span("y", 1, NO_SPAN, || 7), 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn recording_tracer_links_parents_and_absorbs() {
        let epoch = Instant::now();
        let mut a = Tracer::recording(epoch, 8);
        let root = a.begin("request", 5, NO_SPAN);
        a.span("submit", 5, root, || ());
        a.end(root);
        let mut b = Tracer::recording(epoch, 8);
        let other = b.begin("request", 6, NO_SPAN);
        b.span("wait", 6, other, || ());
        b.end(other);
        a.absorb(b);
        let spans = a.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[3].parent, 2);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));

        let mut text = Vec::new();
        write_jsonl(spans, &mut text).expect("write to memory");
        let text = String::from_utf8(text).expect("ascii");
        assert_eq!(text.lines().count(), 4);
        assert!(text
            .lines()
            .next()
            .expect("a line")
            .contains("\"parent\":null"));
        assert!(text.contains("\"name\":\"wait\""));
    }
}
