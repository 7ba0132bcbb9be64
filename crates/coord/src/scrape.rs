//! The manager's fleet scrape loop — continuous telemetry collection.
//!
//! A background thread (spawned by [`MgrServer::bind_full`]) wakes every
//! scrape interval and:
//!
//! 1. **Self-scrapes** the manager: its own registry snapshot and span
//!    ring fold into the retained [`ScrapeStore`] as node `mgr`.
//! 2. **Scrapes every alive worker** with the *incremental*
//!    `MetricsDump` form: each worker's span cursor persists across
//!    scrapes, so a quiet fleet ships metrics but zero spans, scrape
//!    after scrape. A ring that wrapped past the cursor surfaces as a
//!    sequence gap — the loss is counted into the store's dropped
//!    ledger and logged, never silently absorbed into a
//!    complete-looking trace.
//! 3. **Exports windowed rates** back into the manager's own registry
//!    as `fleet.<node>.*` gauges (RPCs/s, bytes/s, latency p50/p99 over
//!    the window, resource gauges, per-worker heartbeat staleness).
//!    `top --watch` reads them with the ordinary `MetricsDump` RPC —
//!    continuous rates cost no new wire surface.
//!
//! Scrape failures are per-worker and non-fatal: a dead daemon costs
//! one `mgr.scrape.errors` increment and its connection, nothing else.
//! Worker connections idle in a [`ClientPool`] between ticks.
//!
//! [`MgrServer::bind_full`]: crate::daemon::MgrServer::bind_full
//! [`ScrapeStore`]: pangea_obs::ScrapeStore

use crate::daemon::ManagerDaemon;
use crate::signals::tick;
use pangea_common::{FxHashMap, Result};
use pangea_net::{ClientPool, PangeaClient, WireMetric, WireSpan, WorkerState};
use pangea_obs::timeseries::{ROLLUP_RPC_BYTES, ROLLUP_RPC_COUNT, ROLLUP_RPC_LATENCY};
use pangea_obs::{names, MetricSnapshot, MetricValue, SpanRecord};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The series name per-worker heartbeat staleness is retained under in
/// each worker's scrape store slice. The manager is the one measuring —
/// no worker registry carries this metric.
pub const STALENESS_SERIES: &str = "heartbeat.staleness_ms";

/// Converts scraped wire metrics back into registry-shaped snapshots.
pub(crate) fn snapshot_of(metrics: &[WireMetric]) -> Vec<MetricSnapshot> {
    metrics
        .iter()
        .map(|m| match m {
            WireMetric::Counter { name, value } => MetricSnapshot {
                name: name.clone(),
                value: MetricValue::Counter(*value),
            },
            WireMetric::Gauge { name, value } => MetricSnapshot {
                name: name.clone(),
                value: MetricValue::Gauge(*value),
            },
            WireMetric::Histogram {
                name,
                count,
                sum,
                buckets,
            } => MetricSnapshot {
                name: name.clone(),
                value: MetricValue::Histogram {
                    count: *count,
                    sum: *sum,
                    buckets: buckets.clone(),
                },
            },
        })
        .collect()
}

/// Converts one scraped wire span into the store's `(seq, record)` form.
pub(crate) fn record_of(s: WireSpan) -> (u64, SpanRecord) {
    (
        s.seq,
        SpanRecord {
            job: s.job,
            span: s.span,
            parent: s.parent,
            op: s.op,
            peer: s.peer,
            start_ns: s.start_ns,
            end_ns: s.end_ns,
            bytes: s.bytes,
            outcome: s.outcome,
        },
    )
}

/// The inverse of [`record_of`] — serving a stored span back out over
/// the `TraceQuery` RPC.
pub(crate) fn wire_of(seq: u64, r: SpanRecord) -> WireSpan {
    WireSpan {
        seq,
        job: r.job,
        span: r.span,
        parent: r.parent,
        op: r.op,
        peer: r.peer,
        start_ns: r.start_ns,
        end_ns: r.end_ns,
        bytes: r.bytes,
        outcome: r.outcome,
    }
}

/// One worker incarnation: its slot and registration epoch. A
/// replacement at a slot is a new process whose span ring restarts at
/// sequence 0, so its cursor must not be the dead incarnation's.
type Incarnation = (u32, u64);

/// Scraper state that must survive between ticks: the idle worker
/// connections, and each incarnation's incremental span cursor.
struct ScraperState {
    pool: ClientPool,
    cursors: FxHashMap<Incarnation, u64>,
    mgr_cursor: u64,
}

/// Spawns the scrape thread; `stop` is shared with the liveness ticker.
pub(crate) fn spawn(
    daemon: Arc<ManagerDaemon>,
    secret: Option<String>,
    interval: Duration,
    stop: Arc<AtomicBool>,
) -> Result<JoinHandle<()>> {
    let interval = interval.max(Duration::from_millis(10));
    Ok(std::thread::Builder::new()
        .name("pangea-mgr-scrape".into())
        .spawn(move || {
            // The pool's counters land in the manager's own registry.
            let pool = ClientPool::new(daemon.obs().registry().clone(), secret.as_deref(), None);
            let mut state = ScraperState {
                pool,
                cursors: FxHashMap::default(),
                mgr_cursor: 0,
            };
            while tick(&stop, interval) {
                scrape_once(&daemon, interval, &mut state);
            }
        })?)
}

/// One full scrape pass (see the module docs for the three stages).
fn scrape_once(daemon: &ManagerDaemon, interval: Duration, state: &mut ScraperState) {
    let store = daemon.scrape_store();
    let reg = daemon.obs().registry();
    let at = store.now_ms();

    // -- 1. the manager itself ------------------------------------------
    // Freshen the fleet-max staleness gauge exactly like the MetricsDump
    // arm, then snapshot: the retained series must match what an RPC
    // dump at this instant would have shown.
    let staleness = daemon
        .membership()
        .max_staleness()
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    reg.gauge(names::MGR_HEARTBEAT_STALENESS_MS).set(staleness);
    store.record_metrics("mgr", at, &reg.snapshot());
    let (spans, gap) = daemon.obs().ring().since_with_gap(state.mgr_cursor);
    if gap > 0 {
        store.note_dropped("mgr", gap);
    }
    if let Some((last_seq, _)) = spans.last() {
        state.mgr_cursor = last_seq + 1;
    }
    store.record_spans("mgr", spans);

    // -- 2. every alive worker ------------------------------------------
    let workers = daemon.membership().workers();
    // Forget replaced incarnations. A Dead one that resumes heartbeating
    // keeps its cursor, since its ring did not restart.
    let listed = |i: &Incarnation| workers.iter().any(|w| (w.node, w.epoch) == *i);
    state.cursors.retain(|i, _| listed(i));
    for w in &workers {
        let incarnation = (w.node, w.epoch);
        if w.state != WorkerState::Alive {
            continue;
        }
        let name = format!("worker{}", w.node);
        let from = state.cursors.get(&incarnation).copied().unwrap_or(0);
        let scraped = state
            .pool
            .call(&w.addr, |c: &mut PangeaClient| c.metrics_dump_since(from));
        match scraped {
            Ok((metrics, spans, cursor)) => {
                // A first span sequence beyond the cursor means the
                // worker's ring wrapped past us: that history is gone.
                // Count and log it — a trace stitched later must be
                // able to say "incomplete" instead of looking whole.
                let gap = spans
                    .first()
                    .map(|s| s.seq.saturating_sub(from))
                    .unwrap_or(0);
                if gap > 0 {
                    store.note_dropped(&name, gap);
                    reg.counter(names::MGR_SCRAPE_DROPPED_SPANS).add(gap);
                    eprintln!(
                        "pangea-mgr: scrape of {name} lost {gap} spans \
                         (ring wrapped past cursor {from})"
                    );
                }
                store.record_metrics(&name, at, &snapshot_of(&metrics));
                store.record_spans(&name, spans.into_iter().map(record_of).collect());
                state.cursors.insert(incarnation, cursor);
            }
            Err(e) => {
                reg.counter(names::MGR_SCRAPE_ERRORS).inc();
                eprintln!("pangea-mgr: scrape of {name} at {} failed: {e}", w.addr);
            }
        }
    }

    // Per-worker heartbeat staleness, measured manager-side, folded into
    // each worker's series — `top --watch` names the laggard, not just
    // the fleet max.
    for (node, ms) in daemon.membership().staleness_by_node() {
        store.record_metrics(
            &format!("worker{}", node.raw()),
            at,
            &[MetricSnapshot {
                name: STALENESS_SERIES.to_string(),
                value: MetricValue::Gauge(ms),
            }],
        );
    }

    // -- 3. windowed rates back out as fleet.* gauges -------------------
    let window_ms = (interval.as_millis() as u64).saturating_mul(5).max(10_000);
    for node in store.nodes() {
        let rate = store.counter_rate_per_sec(&node, ROLLUP_RPC_COUNT, window_ms);
        reg.gauge(&names::fleet(&node, names::FLEET_RPC_PER_SEC))
            .set(rate.round() as u64);
        let rate = store.counter_rate_per_sec(&node, ROLLUP_RPC_BYTES, window_ms);
        reg.gauge(&names::fleet(&node, names::FLEET_BYTES_PER_SEC))
            .set(rate.round() as u64);
        reg.gauge(&names::fleet(&node, names::FLEET_RPC_P50_NS))
            .set(store.histogram_window_quantile(&node, ROLLUP_RPC_LATENCY, window_ms, 0.50));
        reg.gauge(&names::fleet(&node, names::FLEET_RPC_P99_NS))
            .set(store.histogram_window_quantile(&node, ROLLUP_RPC_LATENCY, window_ms, 0.99));
        for (series, gauge) in [
            (names::MEM_SHARE_BYTES, "share_bytes"),
            (names::MEM_SESSION_BYTES, "session_bytes"),
            (names::POOL_PEERS, "pool_peers"),
            (STALENESS_SERIES, "staleness_ms"),
            (names::TRACE_DROPPED_SPANS, "ring_dropped_spans"),
            (names::PAGING_HITS, "paging_hits"),
            (names::PAGING_MISSES, "paging_misses"),
            (names::PAGING_EVICTIONS, "paging_evictions"),
            (names::PAGING_SPILL_BYTES, "spill_bytes"),
            (names::PAGING_POOL_USED_BYTES, "pool_used"),
            (names::PAGING_POOL_CAPACITY_BYTES, "pool_capacity"),
        ] {
            if let Some(v) = store.latest_scalar(&node, series) {
                reg.gauge(&names::fleet(&node, gauge)).set(v);
            }
        }
        let lost = store.node_dropped(&node);
        if lost > 0 {
            reg.gauge(&names::fleet(&node, names::FLEET_SCRAPE_DROPPED_SPANS))
                .set(lost);
        }
    }
    reg.counter(names::MGR_SCRAPE_TICKS).inc();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_and_record_forms_convert_losslessly() {
        let w = WireSpan {
            seq: 9,
            job: 1,
            span: 2,
            parent: 3,
            op: "TaskRun".into(),
            peer: "p".into(),
            start_ns: 4,
            end_ns: 5,
            bytes: 6,
            outcome: "ok".into(),
        };
        let (seq, rec) = record_of(w.clone());
        assert_eq!(wire_of(seq, rec), w);
    }

    #[test]
    fn snapshots_convert_all_three_kinds() {
        let wire = vec![
            WireMetric::Counter {
                name: "c".into(),
                value: 1,
            },
            WireMetric::Gauge {
                name: "g".into(),
                value: 2,
            },
            WireMetric::Histogram {
                name: "h".into(),
                count: 3,
                sum: 4,
                buckets: vec![0, 3],
            },
        ];
        let snaps = snapshot_of(&wire);
        assert_eq!(snaps.len(), 3);
        assert_eq!(snaps[0].value, MetricValue::Counter(1));
        assert_eq!(snaps[1].value, MetricValue::Gauge(2));
        assert!(matches!(
            &snaps[2].value,
            MetricValue::Histogram { count: 3, sum: 4, buckets } if buckets == &vec![0, 3]
        ));
    }
}
