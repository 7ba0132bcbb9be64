//! Bounded-memory suite for distributed task execution: a real
//! `pangea-mgr` and `pangead` workers over loopback TCP, each worker
//! given a buffer pool several times smaller than the job's working
//! state, and four properties proven:
//!
//! 1. A distributed tokenize→combine→reduce over input several × the
//!    per-worker pool budget **completes** — the combine accumulators,
//!    reduce accumulators, and dedup ledgers spill through the paged
//!    pool instead of exhausting it.
//! 2. The output matches a **serial `SimCluster` run record-for-record**
//!    under the same tiny pool (same engine, same spill paths).
//! 3. The driver still moves **zero payload bytes** — spilling is a
//!    node-local affair.
//! 4. The pressure is **observable**: `MetricsDump` reports
//!    `paging.spill_bytes > 0` somewhere in the fleet, and every
//!    worker's pool residency stays within its configured budget.

use pangea::cluster::{ClusterConfig, PartitionScheme, SimCluster};
use pangea::common::{NodeId, KB};
use pangea::coord::{MgrServer, RemoteCluster, WorkerAgent};
use pangea::core::{NodeConfig, StorageNode};
use pangea::net::{KeySpec, MapSpec, PangeaClient, PangeadServer, ReduceSpec, WireMetric};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

const SECRET: &str = "pressure-deployment-secret";

/// The per-worker pool budget under test: 16 frames of 4 KB. The corpus
/// below is sized to several × this, so task state cannot all stay
/// resident.
const POOL_BYTES: usize = 64 * KB;
const PAGE_BYTES: usize = 4 * KB;

fn dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "pangea-pressure-e2e-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn tiny_node(tag: &str) -> StorageNode {
    StorageNode::new(
        NodeConfig::new(dir(tag))
            .with_pool_capacity(POOL_BYTES)
            .with_page_size(PAGE_BYTES),
    )
    .unwrap()
}

fn worker(tag: &str, mgr: &str, slot: u32) -> (PangeadServer, WorkerAgent) {
    let server =
        PangeadServer::bind_with_secret(tiny_node(tag), "127.0.0.1:0", Some(SECRET.into()))
            .unwrap();
    let agent = WorkerAgent::register(
        mgr,
        Some(SECRET),
        &server.local_addr().to_string(),
        Some(NodeId(slot)),
        Duration::from_millis(50),
    )
    .unwrap();
    (server, agent)
}

fn mgr_server() -> (MgrServer, String) {
    let mgr = MgrServer::bind_with(
        "127.0.0.1:0",
        Duration::from_millis(300),
        Some(SECRET.into()),
    )
    .unwrap();
    let addr = mgr.local_addr().to_string();
    (mgr, addr)
}

/// Three-token lines with thousands of distinct keys: per-mapper combine
/// state alone (~distinct keys × entry bytes) exceeds the whole pool, so
/// the accumulators must page.
fn lines() -> Vec<String> {
    (0..12_000)
        .map(|i| {
            format!(
                "k{:04} k{:04} pad-{:02} xfiller-{:05}",
                i % 6000,
                (i * 7 + 3) % 6000,
                i % 13,
                i
            )
        })
        .collect()
}

fn counter_value(metrics: &[WireMetric], name: &str) -> u64 {
    metrics
        .iter()
        .find_map(|m| match m {
            WireMetric::Counter { name: n, value } if n == name => Some(*value),
            _ => None,
        })
        .unwrap_or(0)
}

fn gauge_value(metrics: &[WireMetric], name: &str) -> Option<u64> {
    metrics.iter().find_map(|m| match m {
        WireMetric::Gauge { name: n, value } if n == name => Some(*value),
        _ => None,
    })
}

fn snapshot_remote(cluster: &RemoteCluster, name: &str) -> BTreeMap<(u32, Vec<u8>), u32> {
    let set = cluster.get_dist_set(name).unwrap().unwrap();
    let mut m = BTreeMap::new();
    set.for_each_record(|n, rec| {
        *m.entry((n.raw(), rec.to_vec())).or_insert(0) += 1;
    })
    .unwrap();
    m
}

fn snapshot_sim(cluster: &SimCluster, name: &str) -> BTreeMap<(u32, Vec<u8>), u32> {
    let set = cluster.get_dist_set(name).unwrap();
    let mut m = BTreeMap::new();
    set.for_each_record(|n, rec| {
        *m.entry((n.raw(), rec.to_vec())).or_insert(0) += 1;
    })
    .unwrap();
    m
}

#[test]
fn wordcount_over_input_several_times_the_pool_budget_spills_and_matches_sim() {
    let (_mgr, mgr_addr) = mgr_server();
    let fleet: Vec<_> = (0..4)
        .map(|i| worker(&format!("mem{i}"), &mgr_addr, i))
        .collect();

    let cluster = RemoteCluster::connect(&mgr_addr, Some(SECRET)).unwrap();
    let corpus = lines();
    let payload: usize = corpus.iter().map(|l| l.len()).sum();
    assert!(
        payload >= 4 * POOL_BYTES,
        "corpus ({payload}B) must dwarf the per-worker pool ({POOL_BYTES}B)"
    );

    let set = cluster
        .create_dist_set("lines", PartitionScheme::round_robin(8))
        .unwrap();
    let mut d = set.loader().unwrap();
    for row in &corpus {
        d.dispatch(row.as_bytes()).unwrap();
    }
    d.finish().unwrap();

    // Property 1 + 3: the job completes under pressure, with zero
    // payload bytes through the driver.
    let map = MapSpec::tokenize(b' ');
    let reduce = ReduceSpec::count(KeySpec::WholeRecord, b'|');
    let driver_before = cluster.workers().stats().snapshot();
    let report = cluster
        .map_reduce(
            "lines",
            "counts",
            &map,
            &reduce,
            PartitionScheme::hash_field("word", 8, b'|', 0),
        )
        .unwrap();
    let driver_delta = cluster
        .workers()
        .stats()
        .snapshot()
        .delta_since(&driver_before);
    assert_eq!(driver_delta.net_bytes, 0, "payload crossed the driver");
    assert_eq!(driver_delta.net_messages, 0);
    assert_eq!(driver_delta.shuffle_bytes, 0);
    assert_eq!(driver_delta.repair_bytes, 0);

    // The fold is exact despite the spilling: recompute from the corpus.
    let mut expect: BTreeMap<Vec<u8>, i64> = BTreeMap::new();
    for line in &corpus {
        for tok in line.split(' ') {
            *expect.entry(tok.as_bytes().to_vec()).or_insert(0) += 1;
        }
    }
    assert_eq!(report.scanned, corpus.len() as u64);
    assert_eq!(report.records_out, expect.len() as u64);
    let mut seen: BTreeMap<Vec<u8>, i64> = BTreeMap::new();
    cluster
        .get_dist_set("counts")
        .unwrap()
        .unwrap()
        .for_each_record(|_, rec| {
            let (word, count) = reduce.decode_record(rec).unwrap();
            assert!(seen.insert(word.to_vec(), count).is_none(), "dup key");
        })
        .unwrap();
    assert_eq!(seen, expect, "counts diverged under memory pressure");

    // Property 4: the pressure is visible. At least one worker spilled
    // task state through the pool, and every worker's residency stayed
    // within its configured budget.
    let mut fleet_spill = 0u64;
    for (i, (server, _)) in fleet.iter().enumerate() {
        let mut c = PangeaClient::connect_with_secret(server.local_addr(), Some(SECRET)).unwrap();
        let (metrics, _) = c.metrics_dump().unwrap();
        fleet_spill += counter_value(&metrics, "paging.spill_bytes");
        let used = gauge_value(&metrics, "paging.pool_used_bytes")
            .unwrap_or_else(|| panic!("worker {i}: no paging.pool_used_bytes gauge"));
        let capacity = gauge_value(&metrics, "paging.pool_capacity_bytes")
            .unwrap_or_else(|| panic!("worker {i}: no paging.pool_capacity_bytes gauge"));
        assert_eq!(capacity, POOL_BYTES as u64, "worker {i}");
        assert!(
            used <= capacity,
            "worker {i}: pool residency {used}B exceeds its {capacity}B budget"
        );
        // The raw Stats RPC carries the same paging counters (what
        // the benchmark and scripts read).
        let stats = c.remote_stats().unwrap();
        assert_eq!(
            stats.paging_spill_bytes,
            counter_value(&metrics, "paging.spill_bytes")
        );
        assert_eq!(stats.pool_capacity_bytes, POOL_BYTES as u64);
    }
    assert!(
        fleet_spill > 0,
        "input {payload}B over {POOL_BYTES}B pools must spill task state somewhere"
    );

    // Property 2: record-for-record (and placement) parity with the
    // serial engine under the same tiny pool.
    let sim = SimCluster::bootstrap(
        ClusterConfig::new(dir("sim-pressure-parity"), 4)
            .with_pool_capacity(POOL_BYTES)
            .with_page_size(PAGE_BYTES),
        "pangea-default-keypair",
    )
    .unwrap();
    let sset = sim
        .create_dist_set("lines", PartitionScheme::round_robin(8))
        .unwrap();
    let mut sd = sset.loader().unwrap();
    for row in &corpus {
        sd.dispatch(row.as_bytes()).unwrap();
    }
    sd.finish().unwrap();
    sim.map_reduce(
        "lines",
        "counts",
        &map,
        &reduce,
        PartitionScheme::hash_field("word", 8, b'|', 0),
    )
    .unwrap();
    assert_eq!(
        snapshot_remote(&cluster, "counts"),
        snapshot_sim(&sim, "counts"),
        "spilling distributed run and spilling serial run must converge"
    );
}
