//! Counters the daemons already serve, read from outside: one `Stats`
//! RPC (and, for a traced run, one `MetricsDump`) per worker, taken
//! outside the timed regions and differenced around a phase.

use pangea::net::{PangeaClient, RemoteStats, WireMetric};
use std::collections::BTreeMap;

/// One worker's counters at an instant.
#[derive(Debug, Clone, Default)]
pub struct WorkerCounters {
    pub stats: RemoteStats,
    /// `MetricsDump` counters and gauges by registry name.
    pub values: BTreeMap<String, u64>,
    /// `MetricsDump` histograms by registry name: bucket counts.
    pub histograms: BTreeMap<String, Vec<u64>>,
}

/// Reads one worker. `with_metrics` adds the `MetricsDump`.
pub fn read_worker(addr: &str, with_metrics: bool) -> Result<WorkerCounters, String> {
    let mut client = PangeaClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut out = WorkerCounters {
        stats: client
            .remote_stats()
            .map_err(|e| format!("stats {addr}: {e}"))?,
        ..Default::default()
    };
    if with_metrics {
        let (metrics, _spans) = client
            .metrics_dump()
            .map_err(|e| format!("metrics {addr}: {e}"))?;
        for m in metrics {
            match m {
                WireMetric::Counter { name, value } | WireMetric::Gauge { name, value } => {
                    out.values.insert(name, value);
                }
                WireMetric::Histogram { name, buckets, .. } => {
                    out.histograms.insert(name, buckets);
                }
            }
        }
    }
    Ok(out)
}

pub fn read_fleet(addrs: &[String], with_metrics: bool) -> Result<Vec<WorkerCounters>, String> {
    addrs.iter().map(|a| read_worker(a, with_metrics)).collect()
}

impl WorkerCounters {
    /// `after - before`, field by field. Counters only grow within one
    /// process; a worker replaced in between would go backwards, so the
    /// callers never difference across a kill.
    pub fn since(&self, before: &WorkerCounters) -> WorkerCounters {
        let (a, b) = (&self.stats, &before.stats);
        WorkerCounters {
            stats: RemoteStats {
                net_bytes: a.net_bytes.saturating_sub(b.net_bytes),
                net_messages: a.net_messages.saturating_sub(b.net_messages),
                disk_read_bytes: a.disk_read_bytes.saturating_sub(b.disk_read_bytes),
                disk_write_bytes: a.disk_write_bytes.saturating_sub(b.disk_write_bytes),
                repair_bytes: a.repair_bytes.saturating_sub(b.repair_bytes),
                shuffle_bytes: a.shuffle_bytes.saturating_sub(b.shuffle_bytes),
                paging_hits: a.paging_hits.saturating_sub(b.paging_hits),
                paging_misses: a.paging_misses.saturating_sub(b.paging_misses),
                paging_evictions: a.paging_evictions.saturating_sub(b.paging_evictions),
                paging_spill_bytes: a.paging_spill_bytes.saturating_sub(b.paging_spill_bytes),
                pool_used_bytes: a.pool_used_bytes,
                pool_capacity_bytes: a.pool_capacity_bytes,
            },
            values: self
                .values
                .iter()
                .map(|(k, v)| {
                    let was = before.values.get(k).copied().unwrap_or(0);
                    (k.clone(), v.saturating_sub(was))
                })
                .collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, buckets)| {
                    let was = before.histograms.get(k);
                    let diff = buckets
                        .iter()
                        .enumerate()
                        .map(|(i, n)| {
                            n.saturating_sub(was.and_then(|w| w.get(i)).copied().unwrap_or(0))
                        })
                        .collect();
                    (k.clone(), diff)
                })
                .collect(),
        }
    }

    /// Adds another delta into this one (summing over reps or workers).
    pub fn add(&mut self, other: &WorkerCounters) {
        let (a, b) = (&mut self.stats, &other.stats);
        a.net_bytes += b.net_bytes;
        a.net_messages += b.net_messages;
        a.disk_read_bytes += b.disk_read_bytes;
        a.disk_write_bytes += b.disk_write_bytes;
        a.repair_bytes += b.repair_bytes;
        a.shuffle_bytes += b.shuffle_bytes;
        a.paging_hits += b.paging_hits;
        a.paging_misses += b.paging_misses;
        a.paging_evictions += b.paging_evictions;
        a.paging_spill_bytes += b.paging_spill_bytes;
        a.pool_used_bytes = a.pool_used_bytes.max(b.pool_used_bytes);
        a.pool_capacity_bytes = a.pool_capacity_bytes.max(b.pool_capacity_bytes);
        for (k, v) in &other.values {
            *self.values.entry(k.clone()).or_default() += v;
        }
        for (k, buckets) in &other.histograms {
            let mine = self.histograms.entry(k.clone()).or_default();
            mine.resize(mine.len().max(buckets.len()), 0);
            for (slot, n) in mine.iter_mut().zip(buckets) {
                *slot += n;
            }
        }
    }

    pub fn value(&self, name: &str) -> u64 {
        self.values.get(name).copied().unwrap_or(0)
    }
}

/// Per-worker deltas between two fleet snapshots of the same processes.
pub fn fleet_delta(before: &[WorkerCounters], after: &[WorkerCounters]) -> Vec<WorkerCounters> {
    after.iter().zip(before).map(|(a, b)| a.since(b)).collect()
}

/// The sum of per-worker deltas.
pub fn total(workers: &[WorkerCounters]) -> WorkerCounters {
    let mut sum = WorkerCounters::default();
    workers.iter().for_each(|w| sum.add(w));
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters(disk: u64, hits: u64, rpc: u64, buckets: &[u64]) -> WorkerCounters {
        WorkerCounters {
            stats: RemoteStats {
                disk_write_bytes: disk,
                paging_hits: hits,
                ..Default::default()
            },
            values: [("rpc.count.TaskRun".to_string(), rpc)].into(),
            histograms: [("rpc.latency_ns.TaskRun".to_string(), buckets.to_vec())].into(),
        }
    }

    #[test]
    fn deltas_subtract_and_totals_add() {
        let before = [counters(100, 5, 2, &[1, 0, 0]), counters(50, 1, 0, &[])];
        let after = [counters(180, 9, 5, &[1, 2, 1]), counters(60, 1, 4, &[0, 4])];
        let delta = fleet_delta(&before, &after);
        assert_eq!(delta[0].stats.disk_write_bytes, 80);
        assert_eq!(delta[0].stats.paging_hits, 4);
        assert_eq!(delta[0].value("rpc.count.TaskRun"), 3);
        assert_eq!(delta[0].histograms["rpc.latency_ns.TaskRun"], vec![0, 2, 1]);
        let sum = total(&delta);
        assert_eq!(sum.stats.disk_write_bytes, 90);
        assert_eq!(sum.value("rpc.count.TaskRun"), 7);
        assert_eq!(sum.histograms["rpc.latency_ns.TaskRun"], vec![0, 6, 1]);
        assert_eq!(sum.value("absent"), 0);
    }
}
