//! Fault-injection suite for worker→worker recovery: a real `pangea-mgr`
//! and `pangead` processes over loopback TCP, workers killed
//! mid-workload, and three properties proven:
//!
//! 1. Repairing a killed worker moves **zero payload bytes through the
//!    driver** — survivors stream their shares straight to the
//!    replacement (`IoStats` ledgers on both sides are the witness).
//! 2. Two dead slots are repaired **concurrently** (a rendezvous hook
//!    shows both repairs in flight at once) and the end state matches a
//!    serial `SimCluster` run node-for-node.
//! 3. A batched dispatch flushing into a freshly-dead worker surfaces
//!    the typed [`PangeaError::NodeUnavailable`] — no hang, no panic,
//!    no error-prose parsing.

use pangea::cluster::{ClusterConfig, DispatchConfig, PartitionScheme, SimCluster};
use pangea::common::{NodeId, PangeaError, KB};
use pangea::coord::{MgrServer, RemoteCluster, WorkerAgent};
use pangea::core::{NodeConfig, StorageNode};
use pangea::net::{PangeaClient, PangeadServer, WireMetric};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SECRET: &str = "recovery-deployment-secret";

fn dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "pangea-recovery-e2e-{tag}-{}-{:?}",
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

/// Boots one worker: a secret-gated `pangead` plus its heartbeating
/// control-plane agent, registered at an explicit slot.
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

fn records(n: u32) -> Vec<String> {
    (0..n)
        .map(|i| format!("{}|{}|row-{i:05}", i % 53, i % 17))
        .collect()
}

/// Per-node multiset of a remote distributed set's records.
fn snapshot_remote(cluster: &RemoteCluster, name: &str) -> BTreeMap<(u32, Vec<u8>), u32> {
    let set = cluster.get_dist_set(name).unwrap().unwrap();
    let mut m = BTreeMap::new();
    set.for_each_record(|n, rec| {
        *m.entry((n.raw(), rec.to_vec())).or_insert(0) += 1;
    })
    .unwrap();
    m
}

/// Per-node multiset of a simulated distributed set's records.
fn snapshot_sim(cluster: &SimCluster, name: &str) -> BTreeMap<(u32, Vec<u8>), u32> {
    let set = cluster.get_dist_set(name).unwrap();
    let mut m = BTreeMap::new();
    set.for_each_record(|n, rec| {
        *m.entry((n.raw(), rec.to_vec())).or_insert(0) += 1;
    })
    .unwrap();
    m
}

/// Pulls one named counter out of a `MetricsDump` metric list (0 when
/// the node never touched it).
fn counter_value(metrics: &[WireMetric], name: &str) -> u64 {
    metrics
        .iter()
        .find_map(|m| match m {
            WireMetric::Counter { name: n, value } if n == name => Some(*value),
            _ => None,
        })
        .unwrap_or(0)
}

fn wait_dead(cluster: &RemoteCluster, nodes: &[NodeId]) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let dead = cluster.dead_workers().unwrap();
        if nodes.iter().all(|n| dead.contains(n)) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "manager never declared {nodes:?} dead (saw {dead:?})"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn killed_worker_recovers_worker_to_worker_with_zero_driver_payload() {
    let (_mgr, mgr_addr) = mgr_server();
    let (s0, _a0) = worker("w0", &mgr_addr, 0);
    let (mut s1, mut a1) = worker("w1", &mgr_addr, 1);
    let (s2, _a2) = worker("w2", &mgr_addr, 2);
    let (s3, _a3) = worker("w3", &mgr_addr, 3);

    let cluster = RemoteCluster::connect(&mgr_addr, Some(SECRET)).unwrap();
    assert_eq!(cluster.alive_nodes().len(), 4);

    // Workload: a hash set plus a replica under a different key (the
    // sibling recovery will need), loaded through the driver.
    let rows = records(400);
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
    let before_users = snapshot_remote(&cluster, "users");
    let before_f1 = snapshot_remote(&cluster, "users_f1");

    // Kill worker 1 mid-workload: heartbeats stop, process gone.
    a1.abandon();
    s1.shutdown();
    wait_dead(&cluster, &[NodeId(1)]);

    // A replacement takes the slot; repair it.
    let (s1b, _a1b) = worker("w1-replacement", &mgr_addr, 1);
    let driver_before = cluster.workers().stats().snapshot();
    let report = cluster.recover_worker(NodeId(1)).unwrap();
    let driver_delta = cluster
        .workers()
        .stats()
        .snapshot()
        .delta_since(&driver_before);

    // The tentpole claim: recovery moved real payload — but none of it
    // through the driver. The driver's shared ledger saw zero payload
    // bytes; the survivors and the replacement attribute the same
    // traffic to their own peer-repair counters.
    assert!(report.objects_restored > 0);
    assert!(report.bytes_moved > 0, "repair moved payload somewhere");
    assert_eq!(
        driver_delta.net_bytes, 0,
        "survivor/rebuilt payload crossed the driver's wire"
    );
    assert_eq!(driver_delta.repair_bytes, 0, "the driver repairs nothing");
    let pushed: u64 = [&s0, &s2, &s3]
        .iter()
        .map(|s| s.daemon().stats().snapshot().repair_bytes)
        .sum();
    let received = s1b.daemon().stats().snapshot().repair_bytes;
    assert!(pushed > 0, "survivors pushed repair payload worker→worker");
    assert!(received > 0, "the replacement appended repair payload");
    assert_eq!(
        received, report.bytes_moved,
        "the engine's byte report is the replacement's appended payload"
    );

    // The recovery ran as one traced job: every driver RPC span under
    // its id is ok, each survivor served a traced `RecoverPush`, and the
    // replacement's span set stitches the whole fan-out — driver-issued
    // begin/end plus appends whose parents live on the survivors.
    let job = cluster.workers().last_job().expect("recovery is traced");
    let driver_spans = cluster.workers().obs().ring().since(0);
    let job_spans: Vec<_> = driver_spans.iter().filter(|(_, s)| s.job == job).collect();
    assert!(!job_spans.is_empty(), "driver recorded no spans for {job}");
    assert!(
        job_spans.iter().all(|(_, s)| s.outcome == "ok"),
        "recovery RPCs all succeeded: {job_spans:?}"
    );
    for (name, server) in [("s0", &s0), ("s2", &s2), ("s3", &s3)] {
        let mut dump =
            PangeaClient::connect_with_secret(server.local_addr(), Some(SECRET)).unwrap();
        let (metrics, spans) = dump.metrics_dump().unwrap();
        assert!(
            counter_value(&metrics, "rpc.count.RecoverPush") >= 1,
            "survivor {name} served no RecoverPush"
        );
        assert!(
            spans
                .iter()
                .any(|s| s.job == job && s.op == "RecoverPush" && s.outcome == "ok"),
            "survivor {name} has no RecoverPush span under job {job}"
        );
    }
    {
        let mut dump = PangeaClient::connect_with_secret(s1b.local_addr(), Some(SECRET)).unwrap();
        let (metrics, spans) = dump.metrics_dump().unwrap();
        let begun = counter_value(&metrics, "sessions.repair.begun");
        assert!(begun >= 1, "replacement opened repair sessions");
        assert_eq!(
            begun,
            counter_value(&metrics, "sessions.repair.ended"),
            "every repair session sealed"
        );
        for op in ["RecoverBegin", "RecoverAppend", "RecoverEnd"] {
            assert!(
                spans.iter().any(|s| s.job == job && s.op == op),
                "replacement has no {op} span under job {job}: {spans:?}"
            );
        }
        // The appends arrived from the survivors' RecoverPush spans,
        // not from the driver: their parents are not local span ids.
        let own: BTreeMap<u64, ()> = spans.iter().map(|s| (s.span, ())).collect();
        assert!(
            spans
                .iter()
                .any(|s| s.job == job && s.op == "RecoverAppend" && !own.contains_key(&s.parent)),
            "repair appends must stitch under survivor spans"
        );
    }

    // The set is fully readable and placed exactly as before the kill.
    assert_eq!(snapshot_remote(&cluster, "users"), before_users);
    assert_eq!(snapshot_remote(&cluster, "users_f1"), before_f1);
    let scheme = set.scheme().unwrap();
    set.for_each_record(|node, rec| {
        assert_eq!(scheme.node_of(rec, 0, 4), node);
    })
    .unwrap();

    // Repair is retryable and idempotent end to end: provisioning
    // tolerates existing sets and the repair session seeds itself with
    // what the replacement already holds, so running recovery again
    // restores nothing and duplicates nothing.
    let again = cluster.recover_worker(NodeId(1)).unwrap();
    assert_eq!(again.objects_restored, 0, "retry must not re-restore");
    assert_eq!(again.bytes_moved, 0);
    assert_eq!(snapshot_remote(&cluster, "users"), before_users);
    assert_eq!(snapshot_remote(&cluster, "users_f1"), before_f1);
}

#[test]
fn two_dead_slots_repair_concurrently_and_match_the_serial_sim() {
    let (_mgr, mgr_addr) = mgr_server();
    let (_s0, _a0) = worker("p0", &mgr_addr, 0);
    let (mut s1, mut a1) = worker("p1", &mgr_addr, 1);
    let (mut s2, mut a2) = worker("p2", &mgr_addr, 2);
    let (_s3, _a3) = worker("p3", &mgr_addr, 3);

    let cluster = RemoteCluster::connect(&mgr_addr, Some(SECRET)).unwrap();
    let rows = records(400);
    let set = cluster
        .create_dist_set("users", PartitionScheme::hash_field("uid", 8, b'|', 0))
        .unwrap();
    let mut d = set.loader().unwrap();
    for row in &rows {
        d.dispatch(row.as_bytes()).unwrap();
    }
    d.finish().unwrap();
    // r = 2: two concurrent failures must be tolerable, so objects whose
    // copies span ≤ 2 nodes get two extra colliding-set copies.
    cluster
        .core()
        .register_replica_with_r(
            "users",
            "users_f1",
            PartitionScheme::hash_field("f1", 8, b'|', 1),
            2,
        )
        .unwrap();
    let before_users = snapshot_remote(&cluster, "users");
    let before_f1 = snapshot_remote(&cluster, "users_f1");

    // Two workers die.
    a1.abandon();
    s1.shutdown();
    a2.abandon();
    s2.shutdown();
    wait_dead(&cluster, &[NodeId(1), NodeId(2)]);
    let (_s1b, _a1b) = worker("p1-replacement", &mgr_addr, 1);
    let (_s2b, _a2b) = worker("p2-replacement", &mgr_addr, 2);

    // Rendezvous: each slot's repair announces itself, then waits for
    // the other. `overlapped` only becomes true if both repairs were in
    // flight at the same time — a serialized run times out the wait and
    // fails the assertion below.
    let arrivals = Arc::new(AtomicUsize::new(0));
    let overlapped = Arc::new(AtomicBool::new(false));
    {
        let arrivals = Arc::clone(&arrivals);
        let overlapped = Arc::clone(&overlapped);
        cluster.set_recovery_hook(Some(Arc::new(move |n: NodeId| {
            arrivals.fetch_add(1, Ordering::SeqCst);
            let deadline = Instant::now() + Duration::from_secs(10);
            while arrivals.load(Ordering::SeqCst) < 2 {
                // A serialized run can never release the first repair:
                // fail it loudly rather than report false overlap.
                assert!(
                    Instant::now() < deadline,
                    "repair of {n} waited 10s without a concurrent peer repair"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
            overlapped.store(true, Ordering::SeqCst);
        })));
    }
    let reports = cluster
        .recover_workers(&[NodeId(1), NodeId(2)])
        .unwrap()
        .into_iter()
        .collect::<Vec<_>>();
    cluster.set_recovery_hook(None);
    assert_eq!(reports.len(), 2);
    assert!(
        overlapped.load(Ordering::SeqCst),
        "slot repairs ran serially; expected overlapping RPCs"
    );
    assert!(reports.iter().all(|r| r.objects_restored > 0));

    // End state identical to before the kills…
    assert_eq!(snapshot_remote(&cluster, "users"), before_users);
    assert_eq!(snapshot_remote(&cluster, "users_f1"), before_f1);

    // …and node-for-node identical to the same double failure repaired
    // *serially* on the in-process simulation.
    let sim = SimCluster::bootstrap(
        ClusterConfig::new(dir("sim-parallel-parity"), 4)
            .with_pool_capacity(256 * KB)
            .with_page_size(4 * KB),
        "pangea-default-keypair",
    )
    .unwrap();
    let sset = sim
        .create_dist_set("users", PartitionScheme::hash_field("uid", 8, b'|', 0))
        .unwrap();
    let mut sd = sset.loader().unwrap();
    for row in &rows {
        sd.dispatch(row.as_bytes()).unwrap();
    }
    sd.finish().unwrap();
    sim.register_replica_with_r(
        "users",
        "users_f1",
        PartitionScheme::hash_field("f1", 8, b'|', 1),
        2,
    )
    .unwrap();
    sim.kill_node(NodeId(1)).unwrap();
    sim.kill_node(NodeId(2)).unwrap();
    sim.recover_node(NodeId(1)).unwrap();
    sim.recover_node(NodeId(2)).unwrap();
    assert_eq!(
        snapshot_remote(&cluster, "users"),
        snapshot_sim(&sim, "users"),
        "parallel remote repair and serial sim repair must converge"
    );
    assert_eq!(
        snapshot_remote(&cluster, "users_f1"),
        snapshot_sim(&sim, "users_f1"),
    );
}

/// A catalog mixing hash-only replica groups with a round-robin-carrying
/// group: the hash groups must still repair both dead slots
/// *concurrently* (the serial fallback is scoped to the round-robin
/// group now, not the whole recovery), the round-robin target's repair
/// must ship ~the lost share (`Absent` filters at the source instead of
/// shipping every survivor's whole share), and the end state must be
/// exactly the pre-kill one.
#[test]
fn mixed_groups_keep_hash_parallelism_and_absent_trims_rr_repair() {
    let (_mgr, mgr_addr) = mgr_server();
    let (s0, _a0) = worker("m0", &mgr_addr, 0);
    let (mut s1, mut a1) = worker("m1", &mgr_addr, 1);
    let (mut s2, mut a2) = worker("m2", &mgr_addr, 2);
    let (s3, _a3) = worker("m3", &mgr_addr, 3);

    let cluster = RemoteCluster::connect(&mgr_addr, Some(SECRET)).unwrap();
    let rows = records(400);
    // Hash group: users (hash) + users_f1 (hash), r = 2.
    let users = cluster
        .create_dist_set("users", PartitionScheme::hash_field("uid", 8, b'|', 0))
        .unwrap();
    let mut d = users.loader().unwrap();
    for row in &rows {
        d.dispatch(row.as_bytes()).unwrap();
    }
    d.finish().unwrap();
    cluster
        .core()
        .register_replica_with_r(
            "users",
            "users_f1",
            PartitionScheme::hash_field("f1", 8, b'|', 1),
            2,
        )
        .unwrap();
    // Round-robin-carrying group: lines (round-robin source) replicated
    // into lines_f1 (hash), r = 2 — recovery of `lines` is defined by
    // absence, the case the serial phase exists for.
    let lines = cluster
        .create_dist_set("lines", PartitionScheme::round_robin(8))
        .unwrap();
    let mut d = lines.loader().unwrap();
    for row in &rows {
        d.dispatch(row.as_bytes()).unwrap();
    }
    d.finish().unwrap();
    cluster
        .core()
        .register_replica_with_r(
            "lines",
            "lines_f1",
            PartitionScheme::hash_field("f1", 8, b'|', 1),
            2,
        )
        .unwrap();
    let before: Vec<_> = ["users", "users_f1", "lines", "lines_f1"]
        .iter()
        .map(|s| snapshot_remote(&cluster, s))
        .collect();

    a1.abandon();
    s1.shutdown();
    a2.abandon();
    s2.shutdown();
    wait_dead(&cluster, &[NodeId(1), NodeId(2)]);
    let (s1b, _a1b) = worker("m1-replacement", &mgr_addr, 1);
    let (s2b, _a2b) = worker("m2-replacement", &mgr_addr, 2);

    // The rendezvous proves the hash phase still overlaps: with the old
    // whole-recovery serial fallback, the first slot's repair would
    // park here forever and fail the deadline.
    let arrivals = Arc::new(AtomicUsize::new(0));
    let overlapped = Arc::new(AtomicBool::new(false));
    {
        let arrivals = Arc::clone(&arrivals);
        let overlapped = Arc::clone(&overlapped);
        cluster.set_recovery_hook(Some(Arc::new(move |n: NodeId| {
            arrivals.fetch_add(1, Ordering::SeqCst);
            let deadline = Instant::now() + Duration::from_secs(10);
            while arrivals.load(Ordering::SeqCst) < 2 {
                assert!(
                    Instant::now() < deadline,
                    "hash-phase repair of {n} waited 10s without a concurrent peer"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
            overlapped.store(true, Ordering::SeqCst);
        })));
    }
    let reports = cluster.recover_workers(&[NodeId(1), NodeId(2)]).unwrap();
    cluster.set_recovery_hook(None);
    assert!(
        overlapped.load(Ordering::SeqCst),
        "hash-only groups must still repair concurrently"
    );
    assert_eq!(reports.len(), 2);
    assert!(reports.iter().all(|r| r.objects_restored > 0));
    assert!(
        reports
            .iter()
            .all(|r| r.replicas_recovered.iter().any(|s| s == "lines")),
        "the round-robin group was repaired too: {reports:?}"
    );

    // End state: hash sets restored *in place* (placement is
    // content-determined); the round-robin set restored in *content* —
    // a double failure's absence-defined lost shares are indivisible,
    // so the first repaired slot absorbs both and placement (arbitrary
    // by design for round-robin) shifts while the record multiset is
    // exactly preserved.
    for (name, snap) in ["users", "users_f1", "lines_f1"]
        .iter()
        .zip([&before[0], &before[1], &before[3]])
    {
        assert_eq!(&snapshot_remote(&cluster, name), snap, "{name} diverged");
    }
    let contents = |snap: &BTreeMap<(u32, Vec<u8>), u32>| -> BTreeMap<Vec<u8>, u32> {
        let mut m = BTreeMap::new();
        for ((_, rec), n) in snap {
            *m.entry(rec.clone()).or_insert(0) += n;
        }
        m
    };
    assert_eq!(
        contents(&snapshot_remote(&cluster, "lines")),
        contents(&before[2]),
        "round-robin set contents diverged"
    );

    // The payload still flowed worker→worker (the per-record source
    // filtering of the round-robin repair is priced exactly by the
    // daemon-scope `absent_push_filters_at_the_source…` test; here the
    // end-state equality above is the witness that Absent lost nothing).
    let survivor_pushed: u64 = [&s0, &s3, &s1b, &s2b]
        .iter()
        .map(|s| s.daemon().stats().snapshot().repair_bytes)
        .sum();
    assert!(
        survivor_pushed > 0,
        "repair payload moved worker→worker at all"
    );
}

#[test]
fn dispatch_flush_into_freshly_dead_worker_is_a_typed_error() {
    let (_mgr, mgr_addr) = mgr_server();
    let (_s0, _a0) = worker("d0", &mgr_addr, 0);
    let (mut s1, mut a1) = worker("d1", &mgr_addr, 1);

    let cluster = RemoteCluster::connect(&mgr_addr, Some(SECRET)).unwrap();
    let set = cluster
        .create_dist_set("events", PartitionScheme::round_robin(2))
        .unwrap();
    let mut d = set
        .loader_with(DispatchConfig {
            // Eight records a batch: the warm-up encodes to 13 B and
            // the 13-14 B `after-death` records to 17-18 B, so seven
            // records come to at most 126 B and eight to at least 132 B.
            max_batch_bytes: 132,
        })
        .unwrap();
    d.dispatch(b"0|warm-up").unwrap();

    // The worker dies with records still pending for it: the membership
    // snapshot has not been refreshed, so the dispatcher still believes
    // in the slot and its address.
    a1.abandon();
    s1.shutdown();

    let started = Instant::now();
    let mut outcome = Ok(());
    for i in 0..64u32 {
        match d.dispatch(format!("{i}|after-death").as_bytes()) {
            Ok(_) => {}
            Err(e) => {
                outcome = Err(e);
                break;
            }
        }
    }
    if outcome.is_ok() {
        outcome = d.finish();
    }
    match outcome {
        Err(PangeaError::NodeUnavailable(n)) => assert_eq!(n, NodeId(1)),
        other => panic!("expected typed NodeUnavailable(node#1), got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "a dead worker must fail fast, not hang the flush"
    );
}

/// A worker killed with a full window of `Append`s in flight fails the
/// load typed and fast, and the failed load leaks no open writer: once
/// the set is dropped, no survivor holds a pinned page.
#[test]
fn kill_with_a_full_append_window_fails_typed_and_leaks_no_writer() {
    let (_mgr, mgr_addr) = mgr_server();
    let (s0, _a0) = worker("w0", &mgr_addr, 0);
    let (mut s1, mut a1) = worker("w1", &mgr_addr, 1);
    let (s2, _a2) = worker("w2", &mgr_addr, 2);

    let cluster = RemoteCluster::connect(&mgr_addr, Some(SECRET)).unwrap();
    let set = cluster
        .create_dist_set("events", PartitionScheme::round_robin(3))
        .unwrap();
    let mut d = set
        .loader_with(DispatchConfig {
            // Eight records a batch: the 14-16 B `before-death`
            // records encode to 18-20 B, seven of them to at most 140 B
            // and eight to at least 144 B.
            max_batch_bytes: 144,
        })
        .unwrap();
    // Round-robin: eight batches of eight per worker, none acked yet —
    // a full default window on every stream.
    for i in 0..3 * 64u32 {
        d.dispatch(format!("{i}|before-death").as_bytes()).unwrap();
    }

    a1.abandon();
    s1.shutdown();

    let started = Instant::now();
    let mut outcome = Ok(());
    for i in 0..3 * 64u32 {
        if let Err(e) = d.dispatch(format!("{i}|after-death").as_bytes()) {
            outcome = Err(e);
            break;
        }
    }
    if outcome.is_ok() {
        outcome = d.finish();
    } else {
        drop(d);
    }
    match outcome {
        Err(PangeaError::NodeUnavailable(n)) => assert_eq!(n, NodeId(1)),
        other => panic!("expected typed NodeUnavailable(node#1), got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "a dead worker must fail the load fast, not hang it"
    );

    wait_dead(&cluster, &[NodeId(1)]);
    cluster.drop_dist_set("events").unwrap();
    for (slot, server) in [(0, &s0), (2, &s2)] {
        let node = server.daemon().node();
        assert!(node.get_set("events").is_none(), "slot {slot} dropped");
        assert_eq!(
            node.paging_stats().pinned_pages,
            0,
            "slot {slot} holds no page of the failed load"
        );
    }
}
