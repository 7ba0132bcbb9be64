//! Benchmark-side spans: one around every call the benchmark makes into
//! a layer of the program, kept in memory and written out when the run
//! ends. The program itself is not instrumented by the benchmark.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. `trace` is shared by the spans of one operation
/// (a load, one job rep, a scan); `parent` is 0 at the root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub trace: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Collects spans when enabled; a disabled tracer runs the closure and
/// records nothing, which is the "tracing off" of the end-to-end runs.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// The identity of an open span, handed to the closure so that it can
/// open children.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    pub trace: u64,
    pub span: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Runs `f` as the root span of a new trace.
    pub fn root<T>(&self, name: &str, f: impl FnOnce(Ctx) -> T) -> T {
        let trace = self.id();
        self.record(trace, 0, name, f)
    }

    /// Runs `f` as a child of `parent`.
    pub fn child<T>(&self, parent: Ctx, name: &str, f: impl FnOnce(Ctx) -> T) -> T {
        self.record(parent.trace, parent.span, name, f)
    }

    fn record<T>(&self, trace: u64, parent: u64, name: &str, f: impl FnOnce(Ctx) -> T) -> T {
        if !self.enabled {
            return f(Ctx { trace, span: 0 });
        }
        let id = self.id();
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f(Ctx { trace, span: id });
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans
            .lock()
            .expect("no span is recorded while panicking")
            .push(Span {
                id,
                parent,
                trace,
                name: name.to_string(),
                start_ns,
                end_ns,
            });
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("no span is recorded while panicking")
            .clone()
    }
}

/// Nanoseconds of `[start, end)` covered by the union of `children`
/// (each clipped to the interval).
pub fn covered_ns(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let (mut covered, mut cursor) = (0u64, start);
    for &(s, e) in children.iter() {
        let (s, e) = (s.max(cursor), e.min(end));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// A span's self time: its duration minus the part of it its child
/// spans cover (overlapping children are not subtracted twice).
/// Returns nanoseconds summed by span name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<String, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<String, u64> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |c| covered_ns(s.start_ns, s.end_ns, c));
        *out.entry(s.name.clone()).or_default() += (s.end_ns - s.start_ns).saturating_sub(covered);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            trace: 1,
            name: name.to_string(),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children_once() {
        let spans = vec![
            span(1, 0, "job", 0, 100),
            // Two overlapping children cover [10, 60); one pokes past the end.
            span(2, 1, "rpc", 10, 40),
            span(3, 1, "rpc", 30, 60),
            span(4, 1, "rpc", 90, 130),
            // A grandchild only reduces its own parent.
            span(5, 2, "disk", 15, 25),
        ];
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["job"], 100 - 50 - 10);
        assert_eq!(by_name["rpc"], (30 - 10) + 30 + 40);
        assert_eq!(by_name["disk"], 10);
    }

    #[test]
    fn covered_clips_to_the_parent_interval() {
        assert_eq!(covered_ns(10, 20, &mut [(0, 12), (18, 40)]), 4);
        assert_eq!(covered_ns(10, 20, &mut [(0, 5), (25, 30)]), 0);
        assert_eq!(covered_ns(10, 20, &mut [(0, 100)]), 10);
        assert_eq!(covered_ns(10, 20, &mut []), 0);
    }

    #[test]
    fn tracer_nests_and_a_disabled_tracer_records_nothing() {
        let t = Tracer::new(true);
        let got = t.root("outer", |ctx| t.child(ctx, "inner", |_| 7));
        assert_eq!(got, 7);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let (inner, outer) = (&spans[0], &spans[1]);
        assert_eq!(
            (inner.name.as_str(), outer.name.as_str()),
            ("inner", "outer")
        );
        assert_eq!(inner.parent, outer.id);
        assert_eq!(inner.trace, outer.trace);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        let off = Tracer::new(false);
        assert_eq!(off.root("outer", |ctx| off.child(ctx, "inner", |_| 7)), 7);
        assert!(off.spans().is_empty());
    }
}
