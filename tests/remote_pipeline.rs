//! Pipelined-wire suite for the multiplexed protocol: real `pangea-mgr`
//! and `pangead` workers over loopback TCP, a wordcount shuffle whose
//! mappers push with the daemons' fixed window (`PIPELINE_WINDOW`,
//! 8 batches in flight per peer), and four properties proven:
//!
//! 1. The pipelined run materializes the output **record-for-record
//!    identical to a serial `SimCluster` run** — pipelining reorders
//!    acks, never records.
//! 2. The driver still moves **exactly zero payload bytes** while the
//!    pipelined job runs — correlation ids change scheduling, not
//!    accounting.
//! 3. The pipelining is **observable fleet-wide**: the fleet's
//!    aggregated `net.inflight` histogram has submissions at depth ≥ 2
//!    and a p99 above 1.
//! 4. A worker killed mid-pipeline surfaces the **typed**
//!    [`PangeaError::NodeUnavailable`], and after slot recovery an
//!    idempotent retry converges with no duplicates.
//!
//! A separate test pins the credit protocol to PR 8's tight-pool
//! machinery: receivers whose buffer pool is far smaller than the
//! shuffle grant tiny credits, senders demonstrably stall on them
//! (`net.credit_stalls > 0`), and receiver pool residency stays within
//! budget for the whole job.

use pangea::cluster::{ClusterConfig, PartitionScheme, SimCluster};
use pangea::common::{NodeId, PangeaError, KB, MB};
use pangea::coord::{MgrServer, RemoteCluster, WorkerAgent};
use pangea::core::{NodeConfig, StorageNode};
use pangea::net::{FilterSpec, KeySpec, MapSpec, PangeaClient, PangeadServer, WireMetric};
use pangea::obs::quantile_from_buckets;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SECRET: &str = "pipeline-deployment-secret";

fn dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "pangea-pipeline-e2e-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Worker pool sized so flow-control credit stays above the window
/// (2 MB free / 128 KB batches ⇒ credit 16 > 8): depth is then limited
/// by the *window*, which is what this suite measures.
fn roomy_node(tag: &str) -> StorageNode {
    StorageNode::new(
        NodeConfig::new(dir(tag))
            .with_pool_capacity(2 * MB)
            .with_page_size(4 * KB),
    )
    .unwrap()
}

fn worker_with(node: StorageNode, mgr: &str, slot: u32) -> (PangeadServer, WorkerAgent) {
    let server = PangeadServer::bind_with_secret(node, "127.0.0.1:0", Some(SECRET.into())).unwrap();
    let agent = WorkerAgent::register(
        mgr,
        Some(SECRET),
        &server.local_addr().to_string(),
        Some(NodeId(slot)),
        Duration::from_millis(50),
    )
    .unwrap();
    assert_eq!(agent.node(), NodeId(slot));
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

/// Four-token lines: every scanned record flat-maps into four shuffled
/// emissions. A push batch closes at `PUSH_BATCH_BYTES` of encoded
/// entries (a 4-byte token and 16 B of framing each), so the tests size
/// their inputs for every (mapper, destination) pair to fill at least
/// three batches: 100 000 lines over four workers, 130 000 over three.
fn lines(n: u32) -> Vec<String> {
    (0..n)
        .map(|i| {
            format!(
                "w{:03} t{:03} u{:02} v{:02}",
                i % 199,
                (i * 7 + 3) % 151,
                i % 17,
                (i + 5) % 23
            )
        })
        .collect()
}

fn load(cluster: &RemoteCluster, rows: &[String]) {
    let set = cluster
        .create_dist_set("lines", PartitionScheme::round_robin(8))
        .unwrap();
    let mut d = set.loader().unwrap();
    for row in rows {
        d.dispatch(row.as_bytes()).unwrap();
    }
    d.finish().unwrap();
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

fn histogram_buckets(metrics: &[WireMetric], name: &str) -> Option<Vec<u64>> {
    metrics.iter().find_map(|m| match m {
        WireMetric::Histogram {
            name: n, buckets, ..
        } if n == name => Some(buckets.clone()),
        _ => None,
    })
}

/// The fleet-wide `net.inflight` histogram (summed over every worker's
/// buckets), checking each worker also gauges its live connections.
fn fleet_inflight(fleet: &[(PangeadServer, WorkerAgent)]) -> Vec<u64> {
    let mut agg = Vec::new();
    for (i, (server, _)) in fleet.iter().enumerate() {
        let mut c = PangeaClient::connect_with_secret(server.local_addr(), Some(SECRET)).unwrap();
        let (metrics, _) = c.metrics_dump().unwrap();
        let buckets = histogram_buckets(&metrics, "net.inflight")
            .unwrap_or_else(|| panic!("worker {i}: no net.inflight histogram"));
        if agg.is_empty() {
            agg = vec![0u64; buckets.len()];
        }
        for (a, b) in agg.iter_mut().zip(&buckets) {
            *a += *b;
        }
        assert!(
            gauge_value(&metrics, "net.conns_open").is_some(),
            "worker {i}: the server core must gauge its live connections"
        );
    }
    agg
}

#[test]
fn pipelined_shuffle_matches_serial_and_sim_with_zero_driver_payload() {
    let (_mgr, mgr_addr) = mgr_server();
    let fleet: Vec<_> = (0..4)
        .map(|i| worker_with(roomy_node(&format!("pl-{i}")), &mgr_addr, i))
        .collect();
    let cluster = RemoteCluster::connect(&mgr_addr, Some(SECRET)).unwrap();

    let rows = lines(100_000);
    load(&cluster, &rows);
    let map = MapSpec::tokenize(b' ');
    let scheme = || PartitionScheme::hash_whole("word", 8);

    // The pipelined run: windowed pushes, and not one payload byte
    // through the driver while they fly.
    let driver_before = cluster.workers().stats().snapshot();
    let pipelined = cluster
        .map_shuffle("lines", "tokens", &map, scheme())
        .unwrap();
    let driver_delta = cluster
        .workers()
        .stats()
        .snapshot()
        .delta_since(&driver_before);
    assert_eq!(pipelined.records_out, rows.len() as u64 * 4);
    assert_eq!(driver_delta.net_bytes, 0, "payload crossed the driver");
    assert_eq!(driver_delta.net_messages, 0);
    assert_eq!(driver_delta.shuffle_bytes, 0);

    // The output matches the serial SimCluster reference
    // record-for-record.
    let sim = SimCluster::bootstrap(
        ClusterConfig::new(dir("sim-pipeline-parity"), 4)
            .with_pool_capacity(2 * MB)
            .with_page_size(4 * KB),
        "pangea-default-keypair",
    )
    .unwrap();
    let sset = sim
        .create_dist_set("lines", PartitionScheme::round_robin(8))
        .unwrap();
    let mut sd = sset.loader().unwrap();
    for row in &rows {
        sd.dispatch(row.as_bytes()).unwrap();
    }
    sd.finish().unwrap();
    sim.map_shuffle("lines", "tokens", &map, scheme()).unwrap();
    assert_eq!(
        snapshot_remote(&cluster, "tokens"),
        snapshot_sim(&sim, "tokens"),
        "pipelined distributed run and the serial sim must converge"
    );

    // Fleet-wide observability. Depth d lands in the log2 bucket of d,
    // so buckets from index 2 up hold submissions at depth ≥ 2: the
    // fleet drove depth past 1, and its p99 clears 1 (the pools were
    // sized so the window, not the receiver's credit, was the binding
    // constraint).
    let agg = fleet_inflight(&fleet);
    assert!(
        agg.iter().skip(2).sum::<u64>() > 0,
        "an 8-deep window must record submissions at depth ≥ 2: {agg:?}"
    );
    let p99 = quantile_from_buckets(&agg, 0.99);
    assert!(p99 > 1, "fleet net.inflight p99 must clear 1: {agg:?}");
}

/// The credit protocol against PR 8's tight-pool state: receivers with
/// a 64 KB pool grant ~1 batch of credit, so 8-deep senders stall on
/// the grant (visible in `net.credit_stalls`) instead of burying the
/// receiver — whose pool residency never exceeds its budget.
#[test]
fn tight_pool_receivers_throttle_pipelined_senders_via_credit() {
    const POOL_BYTES: usize = 64 * KB;
    let (_mgr, mgr_addr) = mgr_server();
    let fleet: Vec<_> = (0..3)
        .map(|i| {
            let node = StorageNode::new(
                NodeConfig::new(dir(&format!("cr{i}")))
                    .with_pool_capacity(POOL_BYTES)
                    .with_page_size(4 * KB),
            )
            .unwrap();
            worker_with(node, &mgr_addr, i)
        })
        .collect();
    let cluster = RemoteCluster::connect(&mgr_addr, Some(SECRET)).unwrap();

    let rows = lines(130_000);
    load(&cluster, &rows);
    let report = cluster
        .map_shuffle(
            "lines",
            "tokens",
            &MapSpec::tokenize(b' '),
            PartitionScheme::hash_whole("word", 8),
        )
        .unwrap();
    assert_eq!(report.records_out, rows.len() as u64 * 4);

    let mut fleet_stalls = 0u64;
    for (i, (server, _)) in fleet.iter().enumerate() {
        let mut c = PangeaClient::connect_with_secret(server.local_addr(), Some(SECRET)).unwrap();
        let (metrics, _) = c.metrics_dump().unwrap();
        fleet_stalls += counter_value(&metrics, "net.credit_stalls");
        let used = gauge_value(&metrics, "paging.pool_used_bytes")
            .unwrap_or_else(|| panic!("worker {i}: no paging.pool_used_bytes gauge"));
        let capacity = gauge_value(&metrics, "paging.pool_capacity_bytes")
            .unwrap_or_else(|| panic!("worker {i}: no paging.pool_capacity_bytes gauge"));
        assert_eq!(capacity, POOL_BYTES as u64, "worker {i}");
        assert!(
            used <= capacity,
            "worker {i}: pool residency {used}B exceeds its {capacity}B budget"
        );
    }
    assert!(
        fleet_stalls > 0,
        "64 KB pools must grant credit below an 8-deep window somewhere"
    );
}

/// A destination killed while pipelines are in flight: the job fails
/// with the typed [`PangeaError::NodeUnavailable`], and once the slot
/// is replaced and recovered, the *same* job retries to a duplicate-free
/// output (the receivers' provenance-tag dedup absorbs every batch the
/// first attempt already landed).
#[test]
fn mid_pipeline_kill_is_typed_and_idempotent_retry_converges() {
    let (_mgr, mgr_addr) = mgr_server();
    let (s0, _a0) = worker_with(roomy_node("pk0"), &mgr_addr, 0);
    let (s1, _a1) = worker_with(roomy_node("pk1"), &mgr_addr, 1);
    let (s2, a2) = worker_with(roomy_node("pk2"), &mgr_addr, 2);

    let cluster = RemoteCluster::connect(&mgr_addr, Some(SECRET)).unwrap();
    let rows: Vec<String> = (0..900)
        .map(|i| format!("u{}|w{:02}|row-{i:05}", i % 7, i % 13))
        .collect();
    let set = cluster
        .create_dist_set("lines", PartitionScheme::hash_field("uid", 8, b'|', 0))
        .unwrap();
    let mut d = set.loader().unwrap();
    for row in &rows {
        d.dispatch(row.as_bytes()).unwrap();
    }
    d.finish().unwrap();
    // Replicate the input so the killed worker's share is recoverable
    // before the retry.
    cluster
        .register_replica(
            "lines",
            "lines_f1",
            PartitionScheme::hash_field("f1", 8, b'|', 1),
        )
        .unwrap();

    let map = MapSpec::extract(KeySpec::Field {
        delim: b'|',
        index: 1,
    })
    .with_filter(FilterSpec::KeyPresent {
        key: KeySpec::Field {
            delim: b'|',
            index: 0,
        },
    });
    let scheme = || PartitionScheme::hash_whole("word", 8);

    // Kill worker 2 at the task rendezvous: every mapper is mid-job with
    // pipelined pushes toward it when its process dies.
    let victim = std::sync::Mutex::new(Some((s2, a2)));
    let arrivals = Arc::new(AtomicUsize::new(0));
    let hook_arrivals = Arc::clone(&arrivals);
    cluster.set_task_hook(Some(Arc::new(move |n: NodeId| {
        if n == NodeId(2) {
            if let Some((mut server, mut agent)) = victim.lock().unwrap().take() {
                agent.abandon();
                server.shutdown();
            }
        }
        hook_arrivals.fetch_add(1, Ordering::SeqCst);
        let deadline = Instant::now() + Duration::from_secs(10);
        while hook_arrivals.load(Ordering::SeqCst) < 3 {
            assert!(Instant::now() < deadline, "task rendezvous timed out");
            std::thread::sleep(Duration::from_millis(1));
        }
    })));
    let outcome = cluster.map_shuffle("lines", "words", &map, scheme());
    cluster.set_task_hook(None);
    match outcome {
        Err(PangeaError::NodeUnavailable(n)) => assert_eq!(n, NodeId(2)),
        other => panic!("expected typed NodeUnavailable(node#2), got {other:?}"),
    }

    // Replace the slot, restore its input share, and retry the same job:
    // it converges duplicate-free, matching a clean serial sim.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let dead = cluster.dead_workers().unwrap();
        if dead.contains(&NodeId(2)) {
            break;
        }
        assert!(Instant::now() < deadline, "node#2 never declared dead");
        std::thread::sleep(Duration::from_millis(50));
    }
    let (_s2b, _a2b) = worker_with(roomy_node("pk2-replacement"), &mgr_addr, 2);
    let recovery = cluster.recover_worker(NodeId(2)).unwrap();
    assert!(recovery.objects_restored > 0);

    let report = cluster
        .map_shuffle("lines", "words", &map, scheme())
        .unwrap();
    assert_eq!(report.records_out, 900, "retry materializes every record");

    let sim = SimCluster::bootstrap(
        ClusterConfig::new(dir("sim-kill-parity"), 3)
            .with_pool_capacity(2 * MB)
            .with_page_size(4 * KB),
        "pangea-default-keypair",
    )
    .unwrap();
    let sset = sim
        .create_dist_set("lines", PartitionScheme::hash_field("uid", 8, b'|', 0))
        .unwrap();
    let mut sd = sset.loader().unwrap();
    for row in &rows {
        sd.dispatch(row.as_bytes()).unwrap();
    }
    sd.finish().unwrap();
    sim.map_shuffle("lines", "words", &map, scheme()).unwrap();
    assert_eq!(
        snapshot_remote(&cluster, "words"),
        snapshot_sim(&sim, "words"),
        "retried pipelined job and clean serial sim must converge"
    );
    drop((s0, s1));
}
