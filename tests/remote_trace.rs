//! E2E suite for continuous fleet telemetry: a real `pangea-mgr` with
//! its scrape loop on, real `pangead` workers over loopback TCP, and
//! the `pangea-mgr trace` path proven end to end:
//!
//! 1. A distributed map-reduce leaves a **single connected cross-node
//!    span tree** in the manager's retained store — rooted at the
//!    driver's job span, every worker `TaskRun`/`IngestAppend`
//!    reachable from it, with a non-empty critical path and byte
//!    attribution on the cross-node hops.
//! 2. The scrape loop is **incremental and bounded**: once the fleet
//!    goes idle, repeated scrapes ship zero new spans.
//! 3. Resource gauges are truthful: each worker's retained
//!    `mem.share_bytes` matches the ground-truth sum of its in-process
//!    sets' bytes-on-disk within one scrape interval.
//! 4. A worker ring that **wraps past the scrape cursor** surfaces as a
//!    nonzero dropped-span count — an incomplete trace must say so.
//! 5. Two jobs running **at once on one `RemoteCluster`** each stitch
//!    into a tree of their own: every traced job owns its context.
//! 6. A **replacement worker** is scraped from its own ring's start,
//!    not from the dead incarnation's cursor, so a recovery's spans on
//!    the replacement reach the job's tree.

use pangea::cluster::PartitionScheme;
use pangea::common::{NodeId, KB};
use pangea::coord::{trace, ManagerClient, MgrServer, RemoteCluster, WorkerAgent};
use pangea::core::{NodeConfig, StorageNode};
use pangea::net::{FilterSpec, KeySpec, MapSpec, PangeadServer, ReduceSpec, WireMetric};
use pangea::obs::{SpanRecord, SpanTree};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SECRET: &str = "trace-deployment-secret";
const SCRAPE: Duration = Duration::from_millis(50);

fn dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "pangea-trace-e2e-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn small_node(tag: &str) -> StorageNode {
    StorageNode::new(
        NodeConfig::new(dir(tag))
            .with_pool_capacity(256 * KB)
            .with_page_size(4 * KB),
    )
    .unwrap()
}

fn worker(tag: &str, mgr: &str, slot: u32) -> (PangeadServer, WorkerAgent) {
    let server =
        PangeadServer::bind_with_secret(small_node(tag), "127.0.0.1:0", Some(SECRET.into()))
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

/// A manager with the scrape loop ticking fast enough for the tests'
/// deadlines.
fn scraping_mgr() -> (MgrServer, String) {
    let mgr = MgrServer::bind_full(
        "127.0.0.1:0",
        Duration::from_millis(300),
        Some(SECRET.into()),
        Some(SCRAPE),
    )
    .unwrap();
    let addr = mgr.local_addr().to_string();
    (mgr, addr)
}

fn word_map() -> MapSpec {
    MapSpec::extract(KeySpec::Field {
        delim: b'|',
        index: 1,
    })
    .with_filter(FilterSpec::KeyPresent {
        key: KeySpec::Field {
            delim: b'|',
            index: 0,
        },
    })
}

/// Polls the manager's trace store until `job` stitches into a tree
/// passing `done`, or panics at the deadline with the last tree's
/// shape.
fn wait_for_tree(mgr_addr: &str, job: u64, done: impl Fn(&SpanTree) -> bool) -> (SpanTree, u64) {
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        let (tree, dropped) = trace::fetch(mgr_addr, Some(SECRET), job).unwrap();
        if done(&tree) {
            return (tree, dropped);
        }
        assert!(
            Instant::now() < deadline,
            "trace for job {job} never converged: {} spans, {} roots, missing {:?}",
            tree.spans.len(),
            tree.roots.len(),
            tree.missing_parents
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn gauge_value(metrics: &[WireMetric], name: &str) -> Option<u64> {
    metrics.iter().find_map(|m| match m {
        WireMetric::Gauge { name: n, value } if n == name => Some(*value),
        _ => None,
    })
}

#[test]
fn map_reduce_leaves_one_connected_cross_node_tree() {
    let (_mgr, mgr_addr) = scraping_mgr();
    let fleet: Vec<_> = (0..4)
        .map(|i| worker(&format!("t{i}"), &mgr_addr, i))
        .collect();
    let cluster = RemoteCluster::connect(&mgr_addr, Some(SECRET)).unwrap();

    // 97 distinct words over 8 partitions: every mapper pushes to every
    // destination, so the tree genuinely spans all four workers.
    let rows: Vec<String> = (0..400)
        .map(|i| format!("u{}|w{:02}|row-{i:05}", i % 7, i % 97))
        .collect();
    let set = cluster
        .create_dist_set("lines", PartitionScheme::round_robin(8))
        .unwrap();
    let mut d = set.loader().unwrap();
    for row in &rows {
        d.dispatch(row.as_bytes()).unwrap();
    }
    d.finish().unwrap();

    cluster
        .map_reduce(
            "lines",
            "counts",
            &word_map(),
            &ReduceSpec::count(KeySpec::WholeRecord, b'|'),
            PartitionScheme::hash_field("word", 8, b'|', 0),
        )
        .unwrap();
    let job = cluster.workers().last_job().expect("map_reduce is traced");

    // The scrape loop needs a tick or two to pull every worker's spans;
    // converged means: one root, nothing orphaned, and the job's full
    // fan-out present. A fetch can land between the scrapes of two
    // workers, so the job is complete only once every worker's last
    // span, its `IngestEnd`, is in: each worker recorded all its other
    // spans of the job before serving that one.
    let has = |tree: &SpanTree, op: &str| tree.spans.iter().any(|s| s.record.op == op);
    let ended = |tree: &SpanTree, w: u32| {
        let name = format!("worker{w}");
        tree.spans
            .iter()
            .any(|s| s.node == name && s.record.op == "IngestEnd")
    };
    let (tree, dropped) = wait_for_tree(&mgr_addr, job, |tree| {
        tree.is_connected()
            && has(tree, "TaskRun")
            && has(tree, "IngestAppend")
            && (0..4).all(|w| ended(tree, w))
    });
    assert_eq!(dropped, 0, "no ring wrapped in this quiet fleet");

    // Shape: the driver's job span is the single root; one DriverRpc
    // per driver-issued RPC under it; every worker contributed spans.
    let root = &tree.spans[tree.roots[0]];
    assert_eq!(root.record.op, "DriverJob");
    assert_eq!(root.node, "driver");
    assert!(
        root.children
            .iter()
            .all(|&c| tree.spans[c].record.op == "DriverRpc"),
        "every top-level span is a driver RPC"
    );
    for w in 0..4 {
        let name = format!("worker{w}");
        assert!(
            tree.spans.iter().any(|s| s.node == name),
            "no spans scraped from {name}"
        );
    }
    // Every span in the tree belongs to the queried job.
    assert!(tree.spans.iter().all(|s| s.record.job == job));

    // Analysis: a non-empty critical path from the root, and byte
    // attribution on cross-node hops (the mappers pushed real payload).
    let path = tree.critical_path();
    assert!(!path.is_empty());
    assert_eq!(path[0], tree.roots[0]);
    let hops = tree.bytes_per_hop();
    assert!(
        hops.iter().any(|(_, _, b)| *b > 0),
        "cross-node hops must carry bytes: {hops:?}"
    );

    // The CLI renders the same tree: the JSON document the CI smoke
    // parses reports it connected, and the waterfall marks the path.
    let json = trace::run(&mgr_addr, Some(SECRET), job, true).unwrap();
    assert!(json.contains("\"connected\":true"), "{json}");
    assert!(json.contains("\"roots\":1"), "{json}");
    let text = trace::run(&mgr_addr, Some(SECRET), job, false).unwrap();
    assert!(text.contains("critical path"), "{text}");
    assert!(text.contains("DriverJob"), "{text}");

    // -- incremental & bounded: an idle fleet ships no new spans -------
    let count_now = tree.spans.len();
    std::thread::sleep(SCRAPE * 4);
    let (tree2, _) = trace::fetch(&mgr_addr, Some(SECRET), job).unwrap();
    assert_eq!(
        tree2.spans.len(),
        count_now,
        "idle rescrapes must not grow the job's span set"
    );

    // -- resource gauges: retained share bytes match ground truth ------
    std::thread::sleep(SCRAPE * 3);
    let (metrics, _) = pangea::net::PangeaClient::connect_with_secret(&mgr_addr, Some(SECRET))
        .unwrap()
        .metrics_dump()
        .unwrap();
    for (i, (server, _agent)) in fleet.iter().enumerate() {
        let node = server.daemon().node();
        let truth: u64 = node
            .set_ids()
            .into_iter()
            .filter_map(|id| node.get_set_by_id(id))
            .map(|s| s.bytes_on_disk())
            .sum();
        assert!(truth > 0, "worker {i} holds real shares");
        let scraped = gauge_value(&metrics, &format!("fleet.worker{i}.share_bytes"))
            .unwrap_or_else(|| panic!("no fleet share gauge for worker {i}"));
        assert_eq!(scraped, truth, "worker {i} share bytes diverged");
    }
    // The fleet rate gauges exist for every node, manager included.
    assert!(gauge_value(&metrics, "fleet.mgr.rpc_per_sec").is_some());
    for i in 0..4 {
        assert!(
            gauge_value(&metrics, &format!("fleet.worker{i}.rpc_per_sec")).is_some(),
            "no rate gauge for worker {i}"
        );
        assert!(
            gauge_value(&metrics, &format!("fleet.worker{i}.staleness_ms")).is_some(),
            "no per-worker staleness for worker {i}"
        );
    }
}

#[test]
fn wrapped_worker_ring_surfaces_as_dropped_spans() {
    let (_mgr, mgr_addr) = scraping_mgr();
    let (server, _agent) = worker("wrap0", &mgr_addr, 0);

    // Let the scraper establish its cursor on the live ring first.
    std::thread::sleep(SCRAPE * 4);

    // Stuff the worker's ring far past its capacity (4096) in bursts,
    // faster than any scrape can drain: the ring evicts history the
    // manager never saw. One burst's loss is not deterministic — a
    // scrape tick can land mid-burst and drain part of the ring — so
    // re-burst until the manager's drop ledger has provably
    // accumulated over a thousand lost spans.
    let ring = server.daemon().obs().ring();
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut next_span = 1_000_000u64;
    let dropped = loop {
        for i in 0..6000u64 {
            ring.record(SpanRecord {
                job: 777,
                span: next_span + i,
                parent: 0,
                op: "Burst".to_string(),
                peer: String::new(),
                start_ns: i,
                end_ns: i + 1,
                bytes: 0,
                outcome: "ok".to_string(),
            });
        }
        next_span += 6000;
        std::thread::sleep(SCRAPE * 2);
        let (_, dropped) = ManagerClient::connect(&mgr_addr, Some(SECRET))
            .unwrap()
            .trace_query(777)
            .unwrap();
        if dropped >= 1000 {
            break dropped;
        }
        assert!(
            Instant::now() < deadline,
            "scraper never accumulated the wrapped ring's span loss (at {dropped})"
        );
    };
    assert!(dropped >= 1000, "loop contract");

    // The loss is also on the manager's own registry (scrape counter)
    // and the per-node fleet gauge, so `top` shows it without a trace.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let (metrics, _) = pangea::net::PangeaClient::connect_with_secret(&mgr_addr, Some(SECRET))
            .unwrap()
            .metrics_dump()
            .unwrap();
        let counted = metrics.iter().any(|m| {
            matches!(m, WireMetric::Counter { name, value }
                if name == "mgr.scrape.dropped_spans" && *value > 0)
        });
        let gauged =
            gauge_value(&metrics, "fleet.worker0.scrape_dropped_spans").is_some_and(|v| v > 0);
        if counted && gauged {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "dropped-span loss never reached the manager's metrics"
        );
        std::thread::sleep(Duration::from_millis(25));
    }

    // And the stitched trace for the burst job warns instead of looking
    // complete.
    let text = trace::run(&mgr_addr, Some(SECRET), 777, false).unwrap();
    assert!(text.contains("WARNING"), "{text}");
}

/// Loads `rows` into a round-robin set `name` through the driver.
fn load(cluster: &RemoteCluster, name: &str, rows: &[String]) {
    let set = cluster
        .create_dist_set(name, PartitionScheme::round_robin(8))
        .unwrap();
    let mut d = set.loader().unwrap();
    for row in rows {
        d.dispatch(row.as_bytes()).unwrap();
    }
    d.finish().unwrap();
}

fn count_op(tree: &SpanTree, op: &str, node: &str) -> usize {
    tree.spans
        .iter()
        .filter(|s| s.record.op == op && s.node == node)
        .count()
}

/// Two `map_reduce` jobs on one handle, their tasks held in flight
/// together by a rendezvous: each job's tree holds exactly its own
/// driver root and one `TaskRun` per worker, and nothing of the other.
#[test]
fn concurrent_jobs_on_one_handle_each_own_their_trace() {
    const WORKERS: u32 = 3;
    let (_mgr, mgr_addr) = scraping_mgr();
    let _fleet: Vec<_> = (0..WORKERS)
        .map(|i| worker(&format!("cj{i}"), &mgr_addr, i))
        .collect();
    let cluster = RemoteCluster::connect(&mgr_addr, Some(SECRET)).unwrap();
    let rows: Vec<String> = (0..300)
        .map(|i| format!("u{}|w{:02}|row-{i:05}", i % 7, i % 31))
        .collect();
    load(&cluster, "lines", &rows);

    // Every task of both jobs must arrive before any is released, so a
    // single shared trace slot could not tell the jobs apart.
    let arrivals = Arc::new(AtomicUsize::new(0));
    let hook_arrivals = Arc::clone(&arrivals);
    cluster.set_task_hook(Some(Arc::new(move |_: NodeId| {
        hook_arrivals.fetch_add(1, Ordering::SeqCst);
        let deadline = Instant::now() + Duration::from_secs(10);
        while hook_arrivals.load(Ordering::SeqCst) < 2 * WORKERS as usize {
            assert!(Instant::now() < deadline, "task rendezvous timed out");
            std::thread::sleep(Duration::from_millis(1));
        }
    })));
    let driver_cursor = cluster.workers().obs().ring().next_seq();
    let reduce = ReduceSpec::count(KeySpec::WholeRecord, b'|');
    std::thread::scope(|s| {
        let jobs: Vec<_> = ["counts_a", "counts_b"]
            .into_iter()
            .map(|output| {
                let (cluster, reduce) = (&cluster, &reduce);
                s.spawn(move || {
                    cluster
                        .map_reduce(
                            "lines",
                            output,
                            &word_map(),
                            reduce,
                            PartitionScheme::hash_field("word", 8, b'|', 0),
                        )
                        .unwrap()
                })
            })
            .collect();
        for job in jobs {
            assert_eq!(job.join().unwrap().scanned, rows.len() as u64);
        }
    });
    cluster.set_task_hook(None);
    assert_eq!(arrivals.load(Ordering::SeqCst), 2 * WORKERS as usize);

    // The two jobs' ids, from the driver roots the jobs recorded.
    let ids: Vec<u64> = cluster
        .workers()
        .obs()
        .ring()
        .since(driver_cursor)
        .into_iter()
        .filter(|(_, s)| s.op == "DriverJob")
        .map(|(_, s)| s.job)
        .collect();
    assert_eq!(ids.len(), 2, "one driver root per job: {ids:?}");
    assert_ne!(ids[0], ids[1]);
    for &job in &ids {
        let (tree, _) = wait_for_tree(&mgr_addr, job, |tree| {
            tree.is_connected()
                && (0..WORKERS).all(|w| count_op(tree, "TaskRun", &format!("worker{w}")) >= 1)
        });
        assert!(
            tree.spans.iter().all(|s| s.record.job == job),
            "job {job}'s tree holds another job's span"
        );
        assert_eq!(tree.roots.len(), 1);
        assert_eq!(tree.spans[tree.roots[0]].record.op, "DriverJob");
        assert_eq!(count_op(&tree, "DriverJob", "driver"), 1);
        for w in 0..WORKERS {
            assert_eq!(
                count_op(&tree, "TaskRun", &format!("worker{w}")),
                1,
                "job {job}: worker{w} ran exactly one task"
            );
        }
    }
}

/// A replacement `pangead`'s ring restarts at sequence 0. The scraper
/// must read it from there, not from the dead incarnation's cursor, or
/// the recovery's spans on the replacement never reach the fleet store.
#[test]
fn replacement_worker_spans_reach_the_recovery_trace() {
    let (_mgr, mgr_addr) = scraping_mgr();
    let (_s0, _a0) = worker("rp0", &mgr_addr, 0);
    let (mut s1, mut a1) = worker("rp1", &mgr_addr, 1);
    let (_s2, _a2) = worker("rp2", &mgr_addr, 2);
    let cluster = RemoteCluster::connect(&mgr_addr, Some(SECRET)).unwrap();

    let rows: Vec<String> = (0..300)
        .map(|i| format!("u{}|w{:02}|row-{i:05}", i % 7, i % 31))
        .collect();
    let set = cluster
        .create_dist_set("users", PartitionScheme::hash_field("uid", 8, b'|', 0))
        .unwrap();
    let mut d = set.loader().unwrap();
    for row in &rows {
        d.dispatch(row.as_bytes()).unwrap();
    }
    d.finish().unwrap();
    cluster
        .register_replica(
            "users",
            "users_f1",
            PartitionScheme::hash_field("f1", 8, b'|', 1),
        )
        .unwrap();

    // Traced jobs until slot 1's ring is far past anything one recovery
    // records on a fresh ring, then let the scraper catch up to it.
    let mut job = 0;
    while s1.daemon().obs().ring().next_seq() < 200 {
        cluster
            .map_shuffle(
                "users",
                "words",
                &word_map(),
                PartitionScheme::hash_whole("word", 8),
            )
            .unwrap();
        job = cluster.workers().last_job().unwrap();
    }
    wait_for_tree(&mgr_addr, job, |tree| {
        tree.is_connected() && count_op(tree, "TaskRun", "worker1") == 1
    });

    a1.abandon();
    s1.shutdown();
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cluster.dead_workers().unwrap().contains(&NodeId(1)) {
        assert!(Instant::now() < deadline, "node#1 never declared dead");
        std::thread::sleep(Duration::from_millis(50));
    }
    let (s1b, _a1b) = worker("rp1-replacement", &mgr_addr, 1);
    let report = cluster.recover_worker(NodeId(1)).unwrap();
    assert!(report.objects_restored > 0);
    let job = cluster.workers().last_job().unwrap();
    let recorded = s1b.daemon().obs().ring().next_seq();
    assert!(recorded < 200, "one recovery recorded {recorded} spans");

    let ops = ["RecoverBegin", "RecoverAppend", "RecoverEnd"];
    let (tree, _) = wait_for_tree(&mgr_addr, job, |tree| {
        ops.iter().all(|op| count_op(tree, op, "worker1") > 0)
    });
    assert!(tree.spans.iter().all(|s| s.record.job == job));
    // The appends arrived from the survivors' pushes.
    assert!(
        tree.spans.iter().any(|s| s.node != "worker1"
            && s.record.op == "RecoverPush"
            && s.record.outcome == "ok"),
        "no survivor push in the recovery tree"
    );
}
