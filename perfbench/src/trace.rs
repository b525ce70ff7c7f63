//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer (name, start, end, parent, request id), kept in memory, and
//! written out when the run ends. A span's self time is its duration
//! minus the part of its interval that its children cover: children
//! are clipped to the parent and overlapping children are merged, so a
//! child that runs past its parent or two concurrent children are never
//! counted twice.

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the recorder's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Span name: the layer and the call, e.g. `server.net.compress`.
    pub name: &'static str,
    /// Start, ns since epoch.
    pub start: u64,
    /// End, ns since epoch.
    pub end: u64,
    /// Index of the parent span in the recorder, if any.
    pub parent: Option<usize>,
    /// Request the span belongs to.
    pub request: u64,
}

impl Span {
    /// Duration in ns.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Total length of the union of `children` clipped to `[start, end]`.
pub fn covered(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of a span with the given child intervals, ns.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    end.saturating_sub(start) - covered(start, end, children)
}

/// A per-thread span recorder. Disabled recorders cost one branch per
/// call and record nothing.
pub struct Tracer {
    allowed: bool,
    enabled: Cell<bool>,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    /// A recorder; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Tracer {
            allowed: enabled,
            enabled: Cell::new(enabled),
            epoch,
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Turn recording on or off for the spans started from now on. A
    /// recorder made disabled stays disabled.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.set(self.allowed && enabled);
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, nested under the innermost
    /// span still open on this recorder.
    pub fn span<T>(&self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        if !self.enabled.get() {
            return f();
        }
        let parent = self.open.borrow().last().copied();
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start: self.now(),
                end: 0,
                parent,
                request,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end = self.now();
        out
    }

    /// Take the recorded spans, leaving the recorder empty.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.borrow_mut())
    }
}

/// Per-name totals over a set of spans.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Sum of durations, ns.
    pub total_ns: u64,
    /// Sum of self times, ns.
    pub self_ns: u64,
}

/// Aggregate spans by name and check the accounting rule: for every
/// span, self time plus the union of its children equals its duration.
/// Returns the per-name totals and the largest accounting error, ns
/// (0 whenever children stay inside their parent and do not overlap).
pub fn aggregate(spans: &[Span]) -> (Vec<(&'static str, NameTotals)>, u64) {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    let mut by_name: Vec<(&'static str, NameTotals)> = Vec::new();
    let mut worst = 0u64;
    for (i, s) in spans.iter().enumerate() {
        let own = self_time(s.start, s.end, &children[i]);
        let child_sum: u64 = children[i].iter().map(|&(a, b)| b.saturating_sub(a)).sum();
        worst = worst.max((own + child_sum).abs_diff(s.duration()));
        let slot = match by_name.iter().position(|(n, _)| *n == s.name) {
            Some(p) => p,
            None => {
                by_name.push((s.name, NameTotals::default()));
                by_name.len() - 1
            }
        };
        let t = &mut by_name[slot].1;
        t.count += 1;
        t.total_ns += s.duration();
        t.self_ns += own;
    }
    (by_name, worst)
}

/// Concatenate per-thread span lists, shifting parent indices so they
/// still point at the same spans.
pub fn merge(lists: Vec<Vec<Span>>) -> Vec<Span> {
    let mut all = Vec::new();
    for list in lists {
        let offset = all.len();
        all.extend(list.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }
    all
}

/// Write spans as one JSON object per line.
pub fn write_jsonl(mut out: impl Write, spans: &[Span]) -> std::io::Result<()> {
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
            s.name, s.start, s.end, s.request
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_disjoint_children() {
        assert_eq!(self_time(0, 100, &[]), 100);
        assert_eq!(self_time(0, 100, &[(10, 20), (30, 50)]), 70);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        // A child starting before and one ending after the parent count
        // only for their overlap with it.
        assert_eq!(self_time(10, 100, &[(0, 20), (90, 200)]), 70);
        // A child wholly outside the parent covers nothing.
        assert_eq!(self_time(10, 100, &[(200, 300)]), 90);
        // A child covering the whole parent leaves no self time.
        assert_eq!(self_time(10, 100, &[(0, 1000)]), 0);
    }

    #[test]
    fn overlapping_children_are_merged() {
        // [10,40) ∪ [30,60) ∪ [60,70) = [10,70): 60 covered.
        assert_eq!(covered(0, 100, &[(30, 60), (10, 40), (60, 70)]), 60);
        assert_eq!(self_time(0, 100, &[(30, 60), (10, 40), (60, 70)]), 40);
        // Nested duplicates count once.
        assert_eq!(covered(0, 100, &[(20, 80), (30, 40), (20, 80)]), 60);
    }

    #[test]
    fn recorder_nests_and_accounts() {
        let t = Tracer::new(true, Instant::now());
        t.span("outer", 7, || {
            t.span("inner.a", 7, || std::hint::black_box(1 + 1));
            t.span("inner.b", 7, || std::hint::black_box(2 + 2));
        });
        let spans = t.take();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.request == 7 && s.end >= s.start));
        let (totals, worst) = aggregate(&spans);
        assert_eq!(worst, 0);
        let outer = &totals.iter().find(|(n, _)| *n == "outer").unwrap().1;
        let inner: u64 = spans[1].duration() + spans[2].duration();
        assert_eq!(outer.self_ns + inner, outer.total_ns);
        let mut buf = Vec::new();
        write_jsonl(&mut buf, &spans).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap().lines().count(), 3);
    }

    #[test]
    fn merge_keeps_parents() {
        let a = vec![
            Span {
                name: "p",
                start: 0,
                end: 10,
                parent: None,
                request: 1,
            },
            Span {
                name: "c",
                start: 1,
                end: 2,
                parent: Some(0),
                request: 1,
            },
        ];
        let merged = merge(vec![a.clone(), a]);
        assert_eq!(merged.len(), 4);
        assert_eq!(merged[3].parent, Some(2));
        assert_eq!(merged[1].parent, Some(0));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let t = Tracer::new(false, Instant::now());
        assert_eq!(t.span("x", 1, || 5), 5);
        t.set_enabled(true);
        t.span("x", 1, || ());
        assert!(t.take().is_empty());
        let t = Tracer::new(true, Instant::now());
        t.set_enabled(false);
        t.span("x", 1, || ());
        t.set_enabled(true);
        t.span("y", 2, || ());
        t.set_enabled(false);
        t.span("z", 3, || ());
        let spans = t.take();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "y");
    }

    #[test]
    fn accounting_flags_overlapping_children() {
        let spans = vec![
            Span {
                name: "p",
                start: 0,
                end: 100,
                parent: None,
                request: 1,
            },
            Span {
                name: "c",
                start: 10,
                end: 60,
                parent: Some(0),
                request: 1,
            },
            Span {
                name: "c",
                start: 40,
                end: 90,
                parent: Some(0),
                request: 1,
            },
        ];
        let (totals, worst) = aggregate(&spans);
        // Union covers 80 ns, so self is 20; the raw child sum is 100,
        // so self + children overshoots the parent by the 20 ns overlap.
        assert_eq!(totals[0].1.self_ns, 20);
        assert_eq!(worst, 20);
    }
}
