//! # pangea-obs
//!
//! Zero-dependency observability primitives for the Pangea
//! reproduction: a lock-free metrics registry (counters, gauges, log2
//! latency histograms), wire-propagated trace context, and a bounded
//! in-memory span ring with an optional JSONL sink.
//!
//! Everything here is `std`-only by design — the crate sits *below*
//! `pangea-common` in the dependency order so every layer (storage
//! daemon, manager, wire client, driver) can register into the same
//! registry without cycles. Handles are cheap `Arc` clones and all hot
//! paths are single relaxed atomic operations; snapshotting is the only
//! place a lock is taken.
//!
//! The span model is deliberately small: a [`TraceCtx`] carries a
//! `job` id and the *caller's* span id across the wire; each receiver
//! allocates its own span id, records a [`SpanRecord`] whose `parent`
//! is the caller's span, and propagates `(job, own span)` into any
//! fan-out it performs. One driver job is therefore a tree of spans
//! scattered over every participating node's ring, correlated by
//! `job` and stitched by `parent`.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub mod names;
pub mod spantree;
pub mod timeseries;

pub use spantree::{SpanTree, TreeSpan};
pub use timeseries::{
    windowed_bucket_delta, windowed_rate_per_sec, NodeSpan, ScrapeStore, SeriesPoint,
};

/// Number of log2 buckets in a [`Histogram`]: bucket `i` counts values
/// `v` with `bit_length(v) == i` (bucket 0 holds `v == 0`), so the
/// last bucket absorbs everything at or above 2^62 — far beyond any
/// realistic nanosecond latency.
pub const HISTOGRAM_BUCKETS: usize = 64;

fn bucket_of(value: u64) -> usize {
    (64 - value.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
}

/// Upper bound (inclusive-ish, power of two) represented by bucket `i`;
/// used when estimating quantiles from a bucket vector.
pub fn bucket_bound(index: usize) -> u64 {
    if index == 0 {
        0
    } else if index >= 63 {
        u64::MAX
    } else {
        1u64 << index
    }
}

/// Estimates the `q`-quantile (`0.0..=1.0`) of a log2 bucket vector, as
/// produced by [`Histogram::snapshot`] or shipped over the wire. The
/// quantile rank's bucket `i` spans `[2^(i-1), 2^i)`, and the estimate
/// interpolates linearly inside it: the `k`-th of the bucket's `c`
/// observations sits at the middle of the `k`-th of `c` equal slices.
/// Monotone in `q` and allocation-free.
pub fn quantile_from_buckets(buckets: &[u64], q: f64) -> u64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0;
    }
    let rank = (((total as f64) * q.clamp(0.0, 1.0)).ceil() as u64).max(1);
    let mut seen = 0u64;
    for (i, &c) in buckets.iter().enumerate() {
        if seen + c >= rank {
            if i == 0 {
                return 0;
            }
            let lo = 2f64.powi(i as i32 - 1);
            let within = ((rank - seen) as f64 - 0.5) / c as f64;
            return (lo + lo * within) as u64;
        }
        seen += c;
    }
    bucket_bound(buckets.len().saturating_sub(1))
}

/// A monotonically increasing counter. Cloning shares the same cell.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh, unregistered counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Overwrites the value (used by `IoStats::reset`-style views).
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }
}

/// A last-write-wins gauge. Cloning shares the same cell.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// A fresh, unregistered gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overwrites the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramCells {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for HistogramCells {
    fn default() -> Self {
        Self {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// A fixed log2-bucket histogram (intended for nanosecond latencies).
/// Cloning shares the same cells; recording is three relaxed atomics.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Arc<HistogramCells>);

impl Histogram {
    /// A fresh, unregistered histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&self, value: u64) {
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(value, Ordering::Relaxed);
        self.0.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// `(count, sum, buckets)` at this instant. The three reads are not
    /// mutually atomic — fine for monitoring, not for accounting.
    pub fn snapshot(&self) -> (u64, u64, Vec<u64>) {
        let count = self.0.count.load(Ordering::Relaxed);
        let sum = self.0.sum.load(Ordering::Relaxed);
        let buckets = self
            .0
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        (count, sum, buckets)
    }

    /// Estimated `q`-quantile of the recorded values.
    pub fn quantile(&self, q: f64) -> u64 {
        let (_, _, buckets) = self.snapshot();
        quantile_from_buckets(&buckets, q)
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// One named metric's value at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// Monotonic counter value.
    Counter(u64),
    /// Last-set gauge value.
    Gauge(u64),
    /// Histogram `count`, `sum`, and log2 bucket counts.
    Histogram {
        /// Number of observations.
        count: u64,
        /// Sum of all observed values.
        sum: u64,
        /// Per-bucket observation counts (see [`HISTOGRAM_BUCKETS`]).
        buckets: Vec<u64>,
    },
}

/// A `(name, value)` pair from [`Registry::snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricSnapshot {
    /// The metric's registry name, e.g. `rpc.count.TaskRun`.
    pub name: String,
    /// The value at snapshot time.
    pub value: MetricValue,
}

/// A process-local registry of named metrics. `counter`/`gauge`/
/// `histogram` get-or-create, so every layer can ask for the same name
/// and share the cell; snapshots come back sorted by name, which gives
/// `MetricsDump` a stable pagination order.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter registered under `name`, created at zero on first
    /// use. Panics if `name` is already a different metric kind.
    pub fn counter(&self, name: &str) -> Counter {
        let mut m = self.metrics.lock().unwrap();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter::new()))
        {
            Metric::Counter(c) => c.clone(),
            other => panic!("metric {name} is not a counter: {other:?}"),
        }
    }

    /// The gauge registered under `name`, created at zero on first use.
    /// Panics if `name` is already a different metric kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut m = self.metrics.lock().unwrap();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Gauge::new()))
        {
            Metric::Gauge(g) => g.clone(),
            other => panic!("metric {name} is not a gauge: {other:?}"),
        }
    }

    /// The histogram registered under `name`, created empty on first
    /// use. Panics if `name` is already a different metric kind.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut m = self.metrics.lock().unwrap();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::new()))
        {
            Metric::Histogram(h) => h.clone(),
            other => panic!("metric {name} is not a histogram: {other:?}"),
        }
    }

    /// Every registered metric, sorted by name.
    pub fn snapshot(&self) -> Vec<MetricSnapshot> {
        let m = self.metrics.lock().unwrap();
        m.iter()
            .map(|(name, metric)| MetricSnapshot {
                name: name.clone(),
                value: match metric {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => {
                        let (count, sum, buckets) = h.snapshot();
                        MetricValue::Histogram {
                            count,
                            sum,
                            buckets,
                        }
                    }
                },
            })
            .collect()
    }
}

/// Wire-propagated trace context: the driver's `job` id plus the span
/// id of the *caller* — the receiving side allocates its own span and
/// records the caller's as `parent`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    /// Fleet-unique job id, allocated once per driver-level operation.
    pub job: u64,
    /// The caller's span id (becomes the receiver's span parent).
    pub span: u64,
}

/// One completed span: a single RPC (or local unit of work) attributed
/// to a job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Job id this span belongs to.
    pub job: u64,
    /// This span's id, fleet-unique (see [`next_span_id`]).
    pub span: u64,
    /// The caller's span id, or 0 at the root.
    pub parent: u64,
    /// Operation name (request opcode name, or a local label).
    pub op: String,
    /// The remote peer involved, when known (address or node id).
    pub peer: String,
    /// Monotonic start, nanoseconds since the process's obs epoch.
    pub start_ns: u64,
    /// Monotonic end, nanoseconds since the process's obs epoch.
    pub end_ns: u64,
    /// Request payload bytes handled under this span.
    pub bytes: u64,
    /// `"ok"` or a short error description.
    pub outcome: String,
}

/// Default capacity of a [`TraceRing`].
pub const DEFAULT_RING_CAPACITY: usize = 4096;

#[derive(Debug, Default)]
struct RingInner {
    next_seq: u64,
    spans: VecDeque<(u64, SpanRecord)>,
    /// Total records ever evicted by capacity (not by readers).
    dropped: u64,
}

/// A bounded ring of recent [`SpanRecord`]s. Every record gets a
/// strictly increasing sequence number, so dumps can paginate with
/// "give me everything at or after seq N" even while old records are
/// being evicted.
#[derive(Debug)]
pub struct TraceRing {
    capacity: usize,
    inner: Mutex<RingInner>,
    sink: Mutex<Option<File>>,
}

impl Default for TraceRing {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_RING_CAPACITY)
    }
}

impl TraceRing {
    /// An empty ring holding at most `capacity` records.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            inner: Mutex::new(RingInner::default()),
            sink: Mutex::new(None),
        }
    }

    /// Appends `record`, evicting the oldest record when full, and
    /// mirrors it to the JSONL sink when one is configured.
    pub fn record(&self, record: SpanRecord) {
        {
            let mut sink = self.sink.lock().unwrap();
            if let Some(file) = sink.as_mut() {
                let _ = file.write_all(jsonl_line(&record).as_bytes());
            }
        }
        let mut inner = self.inner.lock().unwrap();
        let seq = inner.next_seq;
        inner.next_seq += 1;
        if inner.spans.len() == self.capacity {
            inner.spans.pop_front();
            inner.dropped += 1;
        }
        inner.spans.push_back((seq, record));
    }

    /// All retained records with sequence number `>= start`, oldest
    /// first, as `(seq, record)` pairs. Evicted records are silently
    /// skipped; readers that must *know* about the skip (an incremental
    /// scraper presenting a trace as complete) use
    /// [`TraceRing::since_with_gap`].
    pub fn since(&self, start: u64) -> Vec<(u64, SpanRecord)> {
        self.since_with_gap(start).0
    }

    /// Like [`TraceRing::since`], but also reports the **gap**: how many
    /// records with sequence number `>= start` once existed but have
    /// already been evicted by capacity. A nonzero gap means the reader's
    /// cursor fell behind the ring and the returned slice is *not* the
    /// complete history past `start`.
    pub fn since_with_gap(&self, start: u64) -> (Vec<(u64, SpanRecord)>, u64) {
        let inner = self.inner.lock().unwrap();
        // The oldest sequence still retained; an empty ring retains
        // nothing, so everything up to `next_seq` is gone.
        let oldest = inner
            .spans
            .front()
            .map(|(seq, _)| *seq)
            .unwrap_or(inner.next_seq);
        let gap = oldest.min(inner.next_seq).saturating_sub(start);
        let spans = inner
            .spans
            .iter()
            .filter(|(seq, _)| *seq >= start)
            .cloned()
            .collect();
        (spans, gap)
    }

    /// Total records ever evicted by capacity pressure — the value
    /// behind each daemon's `trace.dropped_spans` counter.
    pub fn dropped_total(&self) -> u64 {
        self.inner.lock().unwrap().dropped
    }

    /// The sequence number the *next* record will get.
    pub fn next_seq(&self) -> u64 {
        self.inner.lock().unwrap().next_seq
    }

    /// Mirrors every subsequent record to `path` as one JSON object per
    /// line (appending; the file is created if missing).
    pub fn set_jsonl_sink(&self, path: &Path) -> std::io::Result<()> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        *self.sink.lock().unwrap() = Some(file);
        Ok(())
    }
}

/// Escapes `s` for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn jsonl_line(r: &SpanRecord) -> String {
    format!(
        "{{\"job\":{},\"span\":{},\"parent\":{},\"op\":\"{}\",\"peer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"bytes\":{},\"outcome\":\"{}\"}}\n",
        r.job,
        r.span,
        r.parent,
        json_escape(&r.op),
        json_escape(&r.peer),
        r.start_ns,
        r.end_ns,
        r.bytes,
        json_escape(&r.outcome),
    )
}

static NEXT_JOB: AtomicU64 = AtomicU64::new(1);
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);

/// Allocates a fleet-unique job id: the process id in the high 32 bits
/// plus a process-local counter, so concurrent drivers cannot collide.
pub fn next_job_id() -> u64 {
    ((std::process::id() as u64) << 32) | (NEXT_JOB.fetch_add(1, Ordering::Relaxed) & 0xffff_ffff)
}

/// Allocates a fleet-unique span id (never 0 — 0 means "no parent"),
/// salted like [`next_job_id`]: the process id in the high 32 bits plus
/// a process-local counter. Every daemon in a job's fan-out allocates
/// span ids independently, and a cross-node span tree is stitched by
/// matching `parent` against span ids from *other* processes — bare
/// per-process counters would collide (every process starts at 1) and
/// make that stitching ambiguous.
pub fn next_span_id() -> u64 {
    ((std::process::id() as u64) << 32) | (NEXT_SPAN.fetch_add(1, Ordering::Relaxed) & 0xffff_ffff)
}

/// One process's observability bundle: a metrics [`Registry`], a span
/// [`TraceRing`], and a monotonic epoch for span timestamps.
#[derive(Debug, Clone)]
pub struct Obs {
    registry: Arc<Registry>,
    ring: Arc<TraceRing>,
    epoch: Instant,
}

impl Default for Obs {
    fn default() -> Self {
        Self::new()
    }
}

impl Obs {
    /// A bundle over a fresh registry and a default-capacity ring.
    pub fn new() -> Self {
        Self::with_registry(Arc::new(Registry::new()))
    }

    /// A bundle over an existing registry (so e.g. `IoStats` counters
    /// and RPC metrics land in the same `MetricsDump`).
    pub fn with_registry(registry: Arc<Registry>) -> Self {
        Self {
            registry,
            ring: Arc::new(TraceRing::default()),
            epoch: Instant::now(),
        }
    }

    /// The shared metrics registry.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The shared span ring.
    pub fn ring(&self) -> &Arc<TraceRing> {
        &self.ring
    }

    /// Monotonic nanoseconds since this bundle was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_share_cells_across_clones() {
        let reg = Registry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.add(3);
        b.inc();
        assert_eq!(reg.counter("x").get(), 4);
        let g = reg.gauge("g");
        g.set(17);
        assert_eq!(reg.gauge("g").get(), 17);
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        reg.gauge("m");
        reg.counter("m");
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::new();
        for v in [0u64, 1, 2, 3, 900, 1000, 1100, 1_000_000] {
            h.observe(v);
        }
        let (count, sum, buckets) = h.snapshot();
        assert_eq!(count, 8);
        assert_eq!(sum, 1_003_006);
        assert_eq!(buckets.iter().sum::<u64>(), 8);
        // p50 lands on the 4th observation (value 3), the second of
        // two in [2, 4): 2 + 2 * 1.5/2. p99 lands on the 1M
        // observation, alone in [2^19, 2^20): its middle.
        assert_eq!(h.quantile(0.5), 3);
        assert_eq!(h.quantile(0.99), 3 << 18);
        assert_eq!(quantile_from_buckets(&[], 0.5), 0);
    }

    #[test]
    fn quantiles_interpolate_inside_a_bucket() {
        // 1 000 values spread evenly across [2^10, 2^11).
        let h = Histogram::new();
        for i in 0..1000u64 {
            h.observe(1024 + i * 1024 / 1000);
        }
        let mid = 1024.0 + 512.0;
        let p50 = h.quantile(0.5) as f64;
        assert!(
            (p50 - mid).abs() <= 0.1 * mid,
            "p50 {p50} vs midpoint {mid}"
        );
        let qs: Vec<u64> = (0..=100).map(|q| h.quantile(q as f64 / 100.0)).collect();
        assert!(qs.windows(2).all(|w| w[0] <= w[1]), "monotone in q: {qs:?}");
        assert!(qs.iter().all(|&v| (1024..2048).contains(&v)), "{qs:?}");
    }

    #[test]
    fn registry_snapshot_is_sorted_by_name() {
        let reg = Registry::new();
        reg.counter("b").inc();
        reg.counter("a").add(2);
        reg.histogram("c").observe(5);
        let snap = reg.snapshot();
        let names: Vec<_> = snap.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["a", "b", "c"]);
        assert_eq!(snap[0].value, MetricValue::Counter(2));
    }

    #[test]
    fn ring_bounds_evict_oldest_and_seqs_keep_rising() {
        let ring = TraceRing::with_capacity(2);
        let span = |n: u64| SpanRecord {
            job: 1,
            span: n,
            parent: 0,
            op: "op".into(),
            peer: String::new(),
            start_ns: 0,
            end_ns: 1,
            bytes: 0,
            outcome: "ok".into(),
        };
        for n in 0..5 {
            ring.record(span(n));
        }
        let all = ring.since(0);
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].0, 3);
        assert_eq!(all[1].0, 4);
        assert_eq!(ring.next_seq(), 5);
        assert_eq!(ring.since(5).len(), 0);
    }

    #[test]
    fn wrapped_ring_reports_the_readers_gap() {
        let ring = TraceRing::with_capacity(3);
        let span = |n: u64| SpanRecord {
            job: 1,
            span: n,
            parent: 0,
            op: "op".into(),
            peer: String::new(),
            start_ns: 0,
            end_ns: 1,
            bytes: 0,
            outcome: "ok".into(),
        };
        // Nothing recorded: no gap whatever the cursor.
        assert_eq!(ring.since_with_gap(0).1, 0);
        for n in 0..10 {
            ring.record(span(n));
        }
        // Seqs 0..7 were evicted; a reader parked at 0 lost 7 records.
        let (spans, gap) = ring.since_with_gap(0);
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].0, 7);
        assert_eq!(gap, 7);
        assert_eq!(ring.dropped_total(), 7);
        // A reader inside the retained window sees no gap.
        assert_eq!(ring.since_with_gap(8).1, 0);
        // A reader parked at next_seq sees no gap and no spans.
        let (spans, gap) = ring.since_with_gap(10);
        assert!(spans.is_empty());
        assert_eq!(gap, 0);
        // A drained-then-wrapped reader: cursor 5, everything up to 7
        // evicted — the two records 5 and 6 are gone.
        assert_eq!(ring.since_with_gap(5).1, 2);
    }

    #[test]
    fn span_ids_are_pid_salted_for_fleet_uniqueness() {
        let a = next_span_id();
        let b = next_span_id();
        assert_ne!(a, 0);
        assert_ne!(a, b);
        assert_eq!(a >> 32, std::process::id() as u64);
    }

    #[test]
    fn jsonl_sink_writes_one_escaped_line_per_span() {
        let dir = std::env::temp_dir().join(format!("pangea-obs-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        let _ = std::fs::remove_file(&path);
        let ring = TraceRing::with_capacity(8);
        ring.set_jsonl_sink(&path).unwrap();
        ring.record(SpanRecord {
            job: 7,
            span: 1,
            parent: 0,
            op: "TaskRun".into(),
            peer: "127.0.0.1:1\"quote".into(),
            start_ns: 10,
            end_ns: 20,
            bytes: 3,
            outcome: "ok".into(),
        });
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1);
        assert!(text.contains("\"job\":7"));
        assert!(text.contains("\\\"quote"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn ids_are_unique_and_nonzero() {
        let a = next_job_id();
        let b = next_job_id();
        assert_ne!(a, b);
        assert_ne!(next_span_id(), 0);
        assert_eq!(a >> 32, std::process::id() as u64);
    }
}
