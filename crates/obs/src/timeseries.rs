//! The manager-side retained telemetry store.
//!
//! `pangea-mgr`'s scrape loop periodically pulls every worker's
//! `MetricsDump` and folds the results in here: a per-node, per-metric
//! ring of timestamped samples (so windowed *rates* can be derived from
//! monotonic counters) plus a fleet-wide span store indexed by job id
//! (so one `TraceQuery` can stitch a cross-node span tree long after
//! each daemon's own ring has rotated).
//!
//! Everything is bounded: each series keeps the last
//! [`DEFAULT_SAMPLES_PER_SERIES`] samples, each job keeps at most
//! [`DEFAULT_SPANS_PER_JOB`] spans, and at most [`DEFAULT_JOB_CAPACITY`]
//! jobs are retained (oldest-inserted evicted first). The store also
//! carries the per-node **dropped-span ledger** the scraper feeds when a
//! worker's ring wraps past its cursor — a trace served from here can
//! therefore say "incomplete" instead of merely looking complete.
//!
//! The windowed-rate math ([`windowed_rate_per_sec`],
//! [`windowed_bucket_delta`]) is exposed as free functions: counter
//! *resets* (a worker restarting mid-window re-registers its counters at
//! zero) must clamp to zero, never underflow, and that contract is unit
//! tested independently of any store.

use crate::{names, quantile_from_buckets, MetricSnapshot, MetricValue, SpanRecord};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Mutex;
use std::time::Instant;

/// Samples retained per `(node, metric)` series.
pub const DEFAULT_SAMPLES_PER_SERIES: usize = 256;
/// Spans retained per job (the overflow is counted, not silent).
pub const DEFAULT_SPANS_PER_JOB: usize = 16_384;
/// Jobs retained in the span store (oldest-inserted evicted first).
pub const DEFAULT_JOB_CAPACITY: usize = 64;

/// Synthetic per-node rollup series the store derives from every scrape:
/// the sum of all `rpc.count.*` counters.
pub const ROLLUP_RPC_COUNT: &str = "rpc.total.count";
/// Rollup of all `rpc.bytes.*` counters.
pub const ROLLUP_RPC_BYTES: &str = "rpc.total.bytes";
/// Rollup of all `rpc.latency_ns.*` histograms (bucket-wise sum).
pub const ROLLUP_RPC_LATENCY: &str = "rpc.total.latency_ns";

/// One timestamped sample of one node's metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeriesPoint {
    /// Milliseconds since the store's epoch at scrape time.
    pub at_ms: u64,
    /// The metric's value at that instant.
    pub value: MetricValue,
}

/// One span in the fleet-wide store: a [`SpanRecord`] plus the node it
/// was scraped from and its ring sequence number there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeSpan {
    /// Display name of the node that recorded the span (`mgr`,
    /// `worker3`, `driver`).
    pub node: String,
    /// The span's sequence number in that node's ring.
    pub seq: u64,
    /// The span itself.
    pub record: SpanRecord,
}

#[derive(Debug, Default)]
struct NodeSeries {
    series: BTreeMap<String, VecDeque<SeriesPoint>>,
    /// Spans this node's ring evicted past the scraper's cursor —
    /// history that can never be scraped.
    dropped_spans: u64,
}

#[derive(Debug, Default)]
struct StoreInner {
    nodes: BTreeMap<String, NodeSeries>,
    jobs: BTreeMap<u64, Vec<NodeSpan>>,
    /// Insertion order of job ids, for bounded eviction.
    job_order: VecDeque<u64>,
    /// Spans discarded because a single job hit its span cap.
    overflow_spans: u64,
}

/// The retained fleet-telemetry store (see the module docs).
#[derive(Debug)]
pub struct ScrapeStore {
    inner: Mutex<StoreInner>,
    samples_per_series: usize,
    spans_per_job: usize,
    job_capacity: usize,
    epoch: Instant,
}

impl Default for ScrapeStore {
    fn default() -> Self {
        Self::new()
    }
}

impl ScrapeStore {
    /// A store with the default retention bounds.
    pub fn new() -> Self {
        Self::with_capacity(
            DEFAULT_SAMPLES_PER_SERIES,
            DEFAULT_SPANS_PER_JOB,
            DEFAULT_JOB_CAPACITY,
        )
    }

    /// A store with explicit retention bounds (all clamped to ≥ 1).
    pub fn with_capacity(samples_per_series: usize, spans_per_job: usize, jobs: usize) -> Self {
        Self {
            inner: Mutex::new(StoreInner::default()),
            samples_per_series: samples_per_series.max(1),
            spans_per_job: spans_per_job.max(1),
            job_capacity: jobs.max(1),
            epoch: Instant::now(),
        }
    }

    /// Milliseconds since this store was created — the timestamp base
    /// every sample is recorded against.
    pub fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// Folds one scraped metric snapshot into `node`'s series at
    /// `at_ms`, deriving the synthetic `rpc.total.*` rollups (total RPC
    /// count, total payload bytes, bucket-summed latency histogram) so
    /// windowed fleet rates are single-series reads.
    pub fn record_metrics(&self, node: &str, at_ms: u64, metrics: &[MetricSnapshot]) {
        let mut rpc_count = 0u64;
        let mut rpc_bytes = 0u64;
        let mut latency: Option<(u64, u64, Vec<u64>)> = None;
        for m in metrics {
            match (&m.value, m.name.as_str()) {
                (MetricValue::Counter(v), name) if name.starts_with(names::RPC_COUNT_PREFIX) => {
                    rpc_count = rpc_count.wrapping_add(*v);
                }
                (MetricValue::Counter(v), name) if name.starts_with(names::RPC_BYTES_PREFIX) => {
                    rpc_bytes = rpc_bytes.wrapping_add(*v);
                }
                (
                    MetricValue::Histogram {
                        count,
                        sum,
                        buckets,
                    },
                    name,
                ) if name.starts_with(names::RPC_LATENCY_NS_PREFIX) => {
                    let (tc, ts, tb) = latency.get_or_insert((0, 0, Vec::new()));
                    *tc = tc.wrapping_add(*count);
                    *ts = ts.wrapping_add(*sum);
                    if tb.len() < buckets.len() {
                        tb.resize(buckets.len(), 0);
                    }
                    for (t, b) in tb.iter_mut().zip(buckets) {
                        *t = t.wrapping_add(*b);
                    }
                }
                _ => {}
            }
        }
        let mut inner = self.inner.lock().unwrap();
        let entry = inner.nodes.entry(node.to_string()).or_default();
        for m in metrics {
            push_sample(
                entry,
                &m.name,
                at_ms,
                m.value.clone(),
                self.samples_per_series,
            );
        }
        push_sample(
            entry,
            ROLLUP_RPC_COUNT,
            at_ms,
            MetricValue::Counter(rpc_count),
            self.samples_per_series,
        );
        push_sample(
            entry,
            ROLLUP_RPC_BYTES,
            at_ms,
            MetricValue::Counter(rpc_bytes),
            self.samples_per_series,
        );
        if let Some((count, sum, buckets)) = latency {
            push_sample(
                entry,
                ROLLUP_RPC_LATENCY,
                at_ms,
                MetricValue::Histogram {
                    count,
                    sum,
                    buckets,
                },
                self.samples_per_series,
            );
        }
    }

    /// Folds scraped `(ring seq, span)` records from `node` into the
    /// job-indexed span store, evicting the oldest retained *job* when
    /// the job bound is hit and counting (never silently dropping)
    /// spans past a single job's cap.
    pub fn record_spans(&self, node: &str, spans: Vec<(u64, SpanRecord)>) {
        if spans.is_empty() {
            return;
        }
        let mut inner = self.inner.lock().unwrap();
        let inner = &mut *inner;
        for (seq, record) in spans {
            let job = record.job;
            if let std::collections::btree_map::Entry::Vacant(e) = inner.jobs.entry(job) {
                e.insert(Vec::new());
                inner.job_order.push_back(job);
                while inner.job_order.len() > self.job_capacity {
                    if let Some(evicted) = inner.job_order.pop_front() {
                        inner.jobs.remove(&evicted);
                    }
                }
            }
            // This span's own job may have been the one evicted
            // (pathological tiny capacity).
            let Some(slot) = inner.jobs.get_mut(&job) else {
                continue;
            };
            if slot.len() >= self.spans_per_job {
                inner.overflow_spans += 1;
                continue;
            }
            slot.push(NodeSpan {
                node: node.to_string(),
                seq,
                record,
            });
        }
    }

    /// Accumulates `delta` spans lost to `node`'s wrapped ring (the
    /// scraper's cursor gap).
    pub fn note_dropped(&self, node: &str, delta: u64) {
        if delta == 0 {
            return;
        }
        let mut inner = self.inner.lock().unwrap();
        inner
            .nodes
            .entry(node.to_string())
            .or_default()
            .dropped_spans += delta;
    }

    /// Spans lost to `node`'s ring wrapping, cumulatively.
    pub fn node_dropped(&self, node: &str) -> u64 {
        self.inner
            .lock()
            .unwrap()
            .nodes
            .get(node)
            .map(|n| n.dropped_spans)
            .unwrap_or(0)
    }

    /// Fleet-wide span loss: ring-wrap gaps across every node plus
    /// spans discarded by a single job's cap. Nonzero means a served
    /// trace may be incomplete.
    pub fn dropped_total(&self) -> u64 {
        let inner = self.inner.lock().unwrap();
        inner.overflow_spans + inner.nodes.values().map(|n| n.dropped_spans).sum::<u64>()
    }

    /// Every node with at least one recorded sample, sorted.
    pub fn nodes(&self) -> Vec<String> {
        self.inner.lock().unwrap().nodes.keys().cloned().collect()
    }

    /// The most recent sample of `(node, metric)`, if any.
    pub fn latest(&self, node: &str, name: &str) -> Option<SeriesPoint> {
        let inner = self.inner.lock().unwrap();
        inner.nodes.get(node)?.series.get(name)?.back().cloned()
    }

    /// The most recent scalar value of `(node, metric)` — counter or
    /// gauge; `None` for histograms or unknown series.
    pub fn latest_scalar(&self, node: &str, name: &str) -> Option<u64> {
        match self.latest(node, name)?.value {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => Some(v),
            MetricValue::Histogram { .. } => None,
        }
    }

    /// All samples of `(node, metric)` with `at_ms >= since_ms`, oldest
    /// first.
    pub fn window(&self, node: &str, name: &str, since_ms: u64) -> Vec<SeriesPoint> {
        let inner = self.inner.lock().unwrap();
        inner
            .nodes
            .get(node)
            .and_then(|n| n.series.get(name))
            .map(|ring| {
                ring.iter()
                    .filter(|p| p.at_ms >= since_ms)
                    .cloned()
                    .collect()
            })
            .unwrap_or_default()
    }

    /// The windowed per-second rate of a counter series over the last
    /// `window_ms` (ending now): the sum of non-negative sample deltas
    /// divided by the covered wall time. Counter resets clamp to zero
    /// contribution; fewer than two samples (or a zero-length window)
    /// rate as `0.0`.
    pub fn counter_rate_per_sec(&self, node: &str, name: &str, window_ms: u64) -> f64 {
        let since = self.now_ms().saturating_sub(window_ms);
        let points: Vec<(u64, u64)> = self
            .window(node, name, since)
            .into_iter()
            .filter_map(|p| match p.value {
                MetricValue::Counter(v) | MetricValue::Gauge(v) => Some((p.at_ms, v)),
                MetricValue::Histogram { .. } => None,
            })
            .collect();
        windowed_rate_per_sec(&points)
    }

    /// The `q`-quantile of a histogram series *over the last window*:
    /// the bucket-wise delta between the newest and oldest sample in
    /// the window (clamped per bucket, so a worker restart reads as an
    /// empty window, not an underflow), digested through
    /// [`quantile_from_buckets`]. With fewer than two samples in the
    /// window the newest sample's cumulative buckets are used — the
    /// best available answer right after startup.
    pub fn histogram_window_quantile(&self, node: &str, name: &str, window_ms: u64, q: f64) -> u64 {
        let since = self.now_ms().saturating_sub(window_ms);
        let samples: Vec<Vec<u64>> = self
            .window(node, name, since)
            .into_iter()
            .filter_map(|p| match p.value {
                MetricValue::Histogram { buckets, .. } => Some(buckets),
                _ => None,
            })
            .collect();
        match samples.as_slice() {
            [] => 0,
            [only] => quantile_from_buckets(only, q),
            [first, .., last] => quantile_from_buckets(&windowed_bucket_delta(first, last), q),
        }
    }

    /// Every retained span of `job`, in scrape order.
    pub fn job_spans(&self, job: u64) -> Vec<NodeSpan> {
        self.inner
            .lock()
            .unwrap()
            .jobs
            .get(&job)
            .cloned()
            .unwrap_or_default()
    }

    /// Retained job ids with their span counts, newest-inserted last.
    pub fn jobs(&self) -> Vec<(u64, usize)> {
        let inner = self.inner.lock().unwrap();
        inner
            .job_order
            .iter()
            .filter_map(|job| inner.jobs.get(job).map(|s| (*job, s.len())))
            .collect()
    }
}

fn push_sample(node: &mut NodeSeries, name: &str, at_ms: u64, value: MetricValue, capacity: usize) {
    let ring = node.series.entry(name.to_string()).or_default();
    if ring.len() == capacity {
        ring.pop_front();
    }
    ring.push_back(SeriesPoint { at_ms, value });
}

/// The per-second rate of a monotonic counter from timestamped samples
/// (`(at_ms, value)`, oldest first): the sum of **non-negative**
/// consecutive deltas over the covered wall time. A counter reset (a
/// restarted worker re-registers at zero, so a later sample is smaller)
/// contributes zero for that step instead of underflowing; fewer than
/// two samples, or samples covering zero wall time, rate as `0.0`.
pub fn windowed_rate_per_sec(points: &[(u64, u64)]) -> f64 {
    if points.len() < 2 {
        return 0.0;
    }
    let elapsed_ms = points[points.len() - 1].0.saturating_sub(points[0].0);
    if elapsed_ms == 0 {
        return 0.0;
    }
    let grown: u64 = points
        .windows(2)
        .map(|w| w[1].1.saturating_sub(w[0].1))
        .sum();
    (grown as f64) * 1000.0 / (elapsed_ms as f64)
}

/// The bucket-wise delta `last - first` of two cumulative histogram
/// snapshots, clamped per bucket (a restarted worker's buckets shrink;
/// the delta must read as empty, never wrap). Length mismatches are
/// tolerated: missing buckets count as zero.
pub fn windowed_bucket_delta(first: &[u64], last: &[u64]) -> Vec<u64> {
    (0..first.len().max(last.len()))
        .map(|i| {
            let f = first.get(i).copied().unwrap_or(0);
            let l = last.get(i).copied().unwrap_or(0);
            l.saturating_sub(f)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counter(name: &str, value: u64) -> MetricSnapshot {
        MetricSnapshot {
            name: name.into(),
            value: MetricValue::Counter(value),
        }
    }

    fn span(job: u64, id: u64) -> SpanRecord {
        SpanRecord {
            job,
            span: id,
            parent: 0,
            op: "op".into(),
            peer: String::new(),
            start_ns: 0,
            end_ns: 1,
            bytes: 0,
            outcome: "ok".into(),
        }
    }

    #[test]
    fn rate_needs_two_samples_and_wall_time() {
        assert_eq!(windowed_rate_per_sec(&[]), 0.0);
        assert_eq!(windowed_rate_per_sec(&[(0, 100)]), 0.0);
        // Zero-length window: two samples at the same instant.
        assert_eq!(windowed_rate_per_sec(&[(5, 10), (5, 99)]), 0.0);
        // 100 increments over 2 seconds.
        assert_eq!(windowed_rate_per_sec(&[(0, 0), (2000, 100)]), 50.0);
    }

    #[test]
    fn counter_reset_clamps_to_zero_never_underflows() {
        // The worker restarted between samples 2 and 3: 500 → 20. The
        // reset step contributes 0; growth before and after counts.
        let rate = windowed_rate_per_sec(&[(0, 400), (1000, 500), (2000, 20), (3000, 70)]);
        assert_eq!(rate, 50.0); // (100 + 0 + 50) / 3s
                                // Strictly decreasing series rates as exactly 0.
        assert_eq!(windowed_rate_per_sec(&[(0, 100), (1000, 1)]), 0.0);
    }

    #[test]
    fn bucket_delta_clamps_and_tolerates_length_mismatch() {
        assert_eq!(windowed_bucket_delta(&[], &[]), Vec::<u64>::new());
        assert_eq!(windowed_bucket_delta(&[1, 5], &[4, 3]), vec![3, 0]);
        assert_eq!(windowed_bucket_delta(&[1], &[1, 7]), vec![0, 7]);
        assert_eq!(windowed_bucket_delta(&[1, 7], &[2]), vec![1, 0]);
    }

    #[test]
    fn window_quantile_handles_empty_single_and_reset() {
        let store = ScrapeStore::new();
        // No samples at all: 0.
        assert_eq!(store.histogram_window_quantile("w0", "h", 1000, 0.99), 0);
        // A single sample: its cumulative quantile.
        let mut buckets = vec![0u64; 64];
        buckets[4] = 10; // ten observations in [8, 16)
        store.record_metrics(
            "w0",
            store.now_ms(),
            &[MetricSnapshot {
                name: "h".into(),
                value: MetricValue::Histogram {
                    count: 10,
                    sum: 100,
                    buckets: buckets.clone(),
                },
            }],
        );
        // The 5th of ten: 8 + 8 * 4.5/10.
        assert_eq!(store.histogram_window_quantile("w0", "h", 10_000, 0.5), 11);
        // A restart: the next snapshot is smaller everywhere. The
        // windowed delta must be empty → quantile 0, not garbage.
        let mut smaller = vec![0u64; 64];
        smaller[4] = 2;
        store.record_metrics(
            "w0",
            store.now_ms(),
            &[MetricSnapshot {
                name: "h".into(),
                value: MetricValue::Histogram {
                    count: 2,
                    sum: 20,
                    buckets: smaller,
                },
            }],
        );
        assert_eq!(store.histogram_window_quantile("w0", "h", 10_000, 0.5), 0);
        // An empty histogram snapshot pair stays 0.
        assert_eq!(quantile_from_buckets(&[], 0.99), 0);
        assert_eq!(quantile_from_buckets(&[0; 64], 0.99), 0);
    }

    #[test]
    fn rollups_sum_rpc_series() {
        let store = ScrapeStore::new();
        store.record_metrics(
            "w1",
            7,
            &[
                counter("rpc.count.Ping", 3),
                counter("rpc.count.TaskRun", 2),
                counter("rpc.bytes.TaskRun", 640),
                counter("io.net_bytes", 999), // not an rpc.* series
            ],
        );
        assert_eq!(store.latest_scalar("w1", ROLLUP_RPC_COUNT), Some(5));
        assert_eq!(store.latest_scalar("w1", ROLLUP_RPC_BYTES), Some(640));
        assert_eq!(store.latest_scalar("w1", "io.net_bytes"), Some(999));
        assert_eq!(store.latest_scalar("w2", ROLLUP_RPC_COUNT), None);
    }

    #[test]
    fn series_rings_are_bounded() {
        let store = ScrapeStore::with_capacity(4, 16, 4);
        for i in 0..10 {
            store.record_metrics("w0", i, &[counter("c", i)]);
        }
        let window = store.window("w0", "c", 0);
        assert_eq!(window.len(), 4);
        assert_eq!(window[0].at_ms, 6);
        assert_eq!(store.latest_scalar("w0", "c"), Some(9));
    }

    #[test]
    fn span_store_indexes_by_job_and_bounds_both_ways() {
        let store = ScrapeStore::with_capacity(8, 2, 2);
        store.record_spans("w0", vec![(0, span(1, 10)), (1, span(1, 11))]);
        store.record_spans("w1", vec![(0, span(1, 12)), (5, span(2, 20))]);
        // Job 1 hit its 2-span cap: the third span is counted overflow.
        assert_eq!(store.job_spans(1).len(), 2);
        assert_eq!(store.dropped_total(), 1);
        assert_eq!(store.job_spans(2).len(), 1);
        assert_eq!(store.jobs(), vec![(1, 2), (2, 1)]);
        // A third job evicts the oldest (job 1).
        store.record_spans("w0", vec![(9, span(3, 30))]);
        assert!(store.job_spans(1).is_empty());
        assert_eq!(store.jobs(), vec![(2, 1), (3, 1)]);
        // Node attribution survives.
        assert_eq!(store.job_spans(2)[0].node, "w1");
        assert_eq!(store.job_spans(2)[0].seq, 5);
    }

    #[test]
    fn dropped_ledger_accumulates_per_node() {
        let store = ScrapeStore::new();
        assert_eq!(store.node_dropped("w0"), 0);
        store.note_dropped("w0", 7);
        store.note_dropped("w0", 0);
        store.note_dropped("w1", 2);
        assert_eq!(store.node_dropped("w0"), 7);
        assert_eq!(store.dropped_total(), 9);
    }

    #[test]
    fn counter_rate_reads_from_the_store_window() {
        let store = ScrapeStore::new();
        let now = store.now_ms();
        store.record_metrics("w0", now, &[counter("c", 0)]);
        store.record_metrics("w0", now + 1000, &[counter("c", 500)]);
        // Samples are timestamped in the future relative to "now", so a
        // generous window covers both.
        let rate = store.counter_rate_per_sec("w0", "c", 60_000);
        assert_eq!(rate, 500.0);
        // Samples at the same instant cover zero wall time → 0.
        let store = ScrapeStore::new();
        let at = store.now_ms() + 5;
        store.record_metrics("w0", at, &[counter("c", 0)]);
        store.record_metrics("w0", at, &[counter("c", 500)]);
        assert_eq!(store.counter_rate_per_sec("w0", "c", 60_000), 0.0);
    }
}
