//! What the benchmark runs and what it reports: the four workloads and
//! the catalog of metrics. `BENCHMARK.json` at the repository root lists
//! the same names; a test keeps the two in step.

/// The job a workload runs over its loaded input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `map_reduce(tokenize, count)` over zipf-like lines.
    WordcountRoomy,
    /// Map-only `map_shuffle(tokenize)` over zipf-like lines.
    ShuffleWide,
    /// `map_reduce(tokenize, count)` over mostly-unique tokens in a pool
    /// smaller than the keyed state.
    WordcountTight,
    /// Kill one worker, replace it, `recover_worker`.
    Repair,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// Input records at full size (`--smoke` runs a fiftieth).
    pub records: usize,
    pub pool_mb: usize,
    pub page_kb: usize,
    /// One line: what this workload stresses that the others do not.
    pub why: &'static str,
}

/// Workers in the fleet.
pub const WORKERS: u32 = 3;
/// Hash partitions of every keyed set.
pub const PARTITIONS: u32 = 6;
/// Tokens per generated line and words in the zipf-like vocabulary.
pub const TOKENS_PER_LINE: usize = 8;
pub const VOCABULARY: usize = 1000;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "wordcount-roomy",
        kind: Kind::WordcountRoomy,
        records: 1_000_000,
        pool_mb: 64,
        page_kb: 16,
        why: "1M lines x 8 zipf tokens, resident in 64 MB pools: scan, map/emit and source-side combine do the work; wire and ledgers carry ~1K partials per mapper",
    },
    Workload {
        name: "shuffle-wide",
        kind: Kind::ShuffleWide,
        records: 100_000,
        pool_mb: 64,
        page_kb: 16,
        why: "100K lines, map-only: all 800K tokens cross worker to worker, so IngestAppend framing, pipelining credit and SpillLedger dedup carry the job",
    },
    Workload {
        name: "wordcount-tight",
        kind: Kind::WordcountTight,
        records: 100_000,
        pool_mb: 16,
        page_kb: 64,
        why: "100K lines, ~400K distinct keys, 16 MB pools: 7 MB of keyed state per worker grows by hash splits, ledgers spill runs, the wire carries 400K partials",
    },
    Workload {
        name: "repair",
        kind: Kind::Repair,
        records: 600_000,
        pool_mb: 64,
        page_kb: 16,
        why: "600K 60 B records plus a replica on a second key; kill -9 a worker, replace it, recover_worker: the RecoverPush/RecoverAppend sessions",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Which way a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; per-layer metrics have none.
    pub bound: Option<f64>,
}

fn def(name: impl Into<String>, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the fleet sees, measured with tracing off.
pub fn end_to_end() -> Vec<MetricDef> {
    let bounded = |name: &str, unit, better, bound| MetricDef {
        bound: Some(bound),
        ..def(name, unit, better)
    };
    vec![
        bounded("setup_s", "s", Lower, 0.25),
        bounded("load_rec_per_s", "1/s", Higher, 0.25),
        bounded("job_rec_per_s", "1/s", Higher, 0.25),
        bounded("fleet_cpu_s_per_mrec", "s", Lower, 0.25),
        bounded("fleet_rss_peak_mb", "MB", Lower, 0.25),
        bounded("disk_bytes_per_input_byte", "ratio", Lower, 0.05),
    ]
}

/// The opcodes whose served-RPC histograms and spans are reported.
pub const OPCODES: [&str; 8] = [
    "TaskRun",
    "IngestBegin",
    "IngestAppend",
    "IngestEnd",
    "Append",
    "FetchPage",
    "RecoverPush",
    "RecoverAppend",
];

/// Fleet counters: deltas over the job phase summed over workers.
pub const FLEET_COUNTERS: [(&str, &str, Better); 19] = [
    ("paging.hits", "count", Higher),
    ("paging.misses", "count", Lower),
    ("paging.evictions", "count", Lower),
    ("paging.spill_bytes", "bytes", Lower),
    ("paging.hit_ratio", "ratio", Higher),
    ("io.disk_read_bytes", "bytes", Lower),
    ("io.disk_write_bytes", "bytes", Lower),
    ("io.shuffle_bytes", "bytes", Lower),
    ("io.repair_bytes", "bytes", Lower),
    ("io.net_bytes", "bytes", Lower),
    ("io.net_messages", "count", Lower),
    ("net.credit_stalls", "count", Lower),
    ("net.credit_stalls_ms", "ms", Lower),
    ("net.busy_rejects", "count", Lower),
    ("ingest.dedup_hits", "count", Lower),
    ("repair.dedup_hits", "count", Lower),
    ("pool.dials", "count", Lower),
    ("pool.hits", "count", Higher),
    ("trace.dropped_spans", "count", Lower),
];

/// One number per layer, from the traced run. Layer names are the
/// crate and module names of the program.
pub fn per_layer() -> Vec<MetricDef> {
    let mut m = vec![
        def("net.frame.roundtrip_mb_s", "MB/s", Higher),
        def("net.proto.encode_mb_s", "MB/s", Higher),
        def("net.proto.decode_mb_s", "MB/s", Higher),
        def("net.wire.map_emit_mrec_s", "Mrec/s", Higher),
        def("net.wire.reduce_fold_mrec_s", "Mrec/s", Higher),
        def("net.wire.route_mrec_s", "Mrec/s", Higher),
        def("net.rpc.ping_p50_us", "us", Lower),
        def("net.rpc.ping_p99_us", "us", Lower),
        def("net.rpc.append_mb_s.w1", "MB/s", Higher),
        def("net.rpc.append_mb_s.w8", "MB/s", Higher),
        def("net.rpc.append_mb_s.w64", "MB/s", Higher),
        def("storage.pool.pin_hit_mops_s", "Mops/s", Higher),
        def("storage.pool.evict_clean_kops_s", "kops/s", Higher),
        def("storage.pool.evict_dirty_kops_s", "kops/s", Higher),
        def("storage.pool.miss_reload_kops_s", "kops/s", Higher),
        def("core.seq.write_mrec_s", "Mrec/s", Higher),
        def("core.seq.scan_mrec_s", "Mrec/s", Higher),
        def("core.hash.insert_merge_mops_s.x1", "Mops/s", Higher),
        def("core.hash.insert_merge_mops_s.x4", "Mops/s", Higher),
        def("core.hash.insert_merge_mops_s.x16", "Mops/s", Higher),
        def("core.ledger.insert_if_absent_mops_s.n32k", "Mops/s", Higher),
        def(
            "core.ledger.insert_if_absent_mops_s.n256k",
            "Mops/s",
            Higher,
        ),
        def("core.ledger.insert_if_absent_mops_s.n1m", "Mops/s", Higher),
        def("core.ledger.contains_mops_s.n1m", "Mops/s", Higher),
        def("probe.failed", "count", Lower),
        def("task.single_worker_mrec_s", "Mrec/s", Higher),
        def("task.fleet_speedup", "ratio", Higher),
    ];
    m.extend(FLEET_COUNTERS.iter().map(|&(n, u, b)| def(n, u, b)));
    for op in OPCODES {
        m.push(def(format!("rpc.{op}.count"), "count", Lower));
        m.push(def(format!("rpc.{op}.bytes"), "bytes", Lower));
        m.push(def(format!("rpc.{op}.p50_us"), "us", Lower));
        m.push(def(format!("rpc.{op}.p99_us"), "us", Lower));
        m.push(def(format!("span.{op}.self_ms"), "ms", Lower));
    }
    m.extend([
        def("span.DriverJob.self_ms", "ms", Lower),
        def("span.DriverRpc.self_ms", "ms", Lower),
        def("span.critical_path_ms", "ms", Lower),
        def("span.straggler_skew", "ratio", Lower),
        def("proc.worker_cpu_s", "s", Lower),
        def("proc.worker_cpu_max_s", "s", Lower),
        def("proc.driver_cpu_s", "s", Lower),
        def("proc.mgr_cpu_s", "s", Lower),
        def("proc.worker_rss_peak_mb", "MB", Lower),
        def("phase.corpus_gen_s", "s", Lower),
        def("phase.fleet_boot_s", "s", Lower),
        def("phase.load_dispatch_s", "s", Lower),
        def("phase.load_finish_s", "s", Lower),
        def("phase.replica_register_s", "s", Lower),
        def("phase.job_s_min", "s", Lower),
        def("phase.job_s_max", "s", Lower),
        def("phase.scan_s", "s", Lower),
        def("phase.verify_s", "s", Lower),
        def("phase.kill_detect_s", "s", Lower),
        def("phase.replacement_boot_s", "s", Lower),
        def("model.job_s", "s", Lower),
        def("model.residual_share", "share", Lower),
        def("trace.overhead_share", "share", Lower),
    ]);
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use std::collections::HashSet;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn the_catalog_fits_the_benchmark_contract() {
        let (e2e, layers) = (end_to_end(), per_layer());
        assert!((1..=16).contains(&e2e.len()));
        assert!(
            (1..=128).contains(&layers.len()),
            "{} per-layer metrics",
            layers.len()
        );
        assert!((2..=8).contains(&WORKLOADS.len()));
        let mut seen = HashSet::new();
        for m in e2e.iter().chain(&layers) {
            assert!(name_ok(&m.name), "bad name {}", m.name);
            assert!(unit_ok(m.unit), "bad unit {}", m.unit);
            assert!(seen.insert(m.name.clone()), "{} is listed twice", m.name);
        }
        for w in WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name.to_string()));
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: why is too long",
                w.name
            );
        }
        assert!(e2e
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(layers.iter().all(|m| m.bound.is_none()));
        let setup = e2e.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }

    /// `BENCHMARK.json` sits outside this package; when the checkout
    /// has it, its lists must be the catalog above, name for name.
    #[test]
    fn benchmark_json_lists_the_same_workloads_and_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return;
        };
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let field =
            |v: &json::Value, k: &str| v.get(k).and_then(|s| s.as_str().map(str::to_string));
        let listed = |key: &str| -> Vec<json::Value> {
            match doc.get(key) {
                Some(json::Value::Arr(items)) => items.clone(),
                _ => panic!("BENCHMARK.json has no {key} list"),
            }
        };
        let workloads: Vec<(String, String)> = listed("workloads")
            .iter()
            .map(|w| (field(w, "name").unwrap(), field(w, "why").unwrap()))
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, ours);
        for (key, defs) in [("end_to_end", end_to_end()), ("per_layer", per_layer())] {
            let file: Vec<(String, String, String, Option<f64>)> = listed(key)
                .iter()
                .map(|m| {
                    (
                        field(m, "name").unwrap(),
                        field(m, "unit").unwrap(),
                        field(m, "better").unwrap(),
                        m.get("bound").and_then(|b| b.as_f64()),
                    )
                })
                .collect();
            let code: Vec<(String, String, String, Option<f64>)> = defs
                .iter()
                .map(|m| {
                    (
                        m.name.clone(),
                        m.unit.to_string(),
                        m.better.as_str().to_string(),
                        m.bound,
                    )
                })
                .collect();
            assert_eq!(file, code, "{key} differs from the catalog");
        }
    }
}
