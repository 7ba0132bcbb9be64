//! End-to-end control-plane test: one `pangea-mgr` plus three `pangead`
//! workers over real loopback TCP, driven purely through
//! [`RemoteCluster`] — no shared memory between the driver and any
//! worker. Covers the acceptance flow: registration, wire-served
//! catalog, batched dispatch, a shipped map-shuffle, a worker killed and
//! detected via missed heartbeats, and replica-based recovery — with
//! payload net-byte accounting matching the equivalent `SimNetwork` run.

use pangea::cluster::{ClusterConfig, PartitionScheme, SimCluster};
use pangea::common::{NodeId, PangeaError, KB};
use pangea::coord::{MgrServer, RemoteCluster, WorkerAgent};
use pangea::core::{NodeConfig, StorageNode};
use pangea::net::{KeySpec, MapSpec, PangeaClient, PangeadServer, WireMetric, WorkerState};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const SECRET: &str = "e2e-deployment-secret";

fn dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "pangea-coord-e2e-{tag}-{}-{:?}",
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

fn records(n: u32) -> Vec<String> {
    (0..n)
        .map(|i| format!("{}|{}|row-{i:05}", i % 37, i % 11))
        .collect()
}

/// The byte count the same load costs on the in-process simulation:
/// every record crosses the simulated wire once (external loader).
fn sim_net_bytes_for_load(rows: &[String]) -> u64 {
    let config = ClusterConfig::new(dir("sim-parity"), 3)
        .with_pool_capacity(256 * KB)
        .with_page_size(4 * KB);
    let cluster = SimCluster::bootstrap(config, "pangea-default-keypair").unwrap();
    let set = cluster
        .create_dist_set("users", PartitionScheme::hash_field("uid", 6, b'|', 0))
        .unwrap();
    let mut d = set.loader().unwrap();
    for row in rows {
        d.dispatch(row.as_bytes()).unwrap();
    }
    d.finish().unwrap();
    cluster.network().bytes_moved()
}

#[test]
fn full_control_plane_flow_over_loopback_tcp() {
    // -- Control plane up: manager with a tight liveness timeout. ------
    let mgr = MgrServer::bind_with(
        "127.0.0.1:0",
        Duration::from_millis(300),
        Some(SECRET.into()),
    )
    .unwrap();
    let mgr_addr = mgr.local_addr().to_string();

    // -- Three workers register and heartbeat. -------------------------
    let (_s0, _a0) = worker("w0", &mgr_addr, 0);
    let (mut s1, mut a1) = worker("w1", &mgr_addr, 1);
    let (_s2, _a2) = worker("w2", &mgr_addr, 2);

    let cluster = RemoteCluster::connect(&mgr_addr, Some(SECRET)).unwrap();
    assert_eq!(cluster.num_nodes(), 3);
    assert_eq!(cluster.alive_nodes(), vec![NodeId(0), NodeId(1), NodeId(2)]);

    // An unauthenticated driver is rejected with a typed error.
    match RemoteCluster::connect(&mgr_addr, None) {
        Err(PangeaError::Unauthenticated(_)) => {}
        other => panic!("expected Unauthenticated, got {other:?}"),
    }

    // -- Partitioned set via the wire catalog, batched dispatch. -------
    let rows = records(300);
    let set = cluster
        .create_dist_set("users", PartitionScheme::hash_field("uid", 6, b'|', 0))
        .unwrap();
    let before_load = cluster.workers().stats().snapshot().net_bytes;
    let mut d = set.loader().unwrap();
    for row in &rows {
        d.dispatch(row.as_bytes()).unwrap();
    }
    d.finish().unwrap();
    let load_bytes = cluster.workers().stats().snapshot().net_bytes - before_load;

    // Payload accounting parity with the simulation: the same load over
    // SimNetwork moves exactly the same payload bytes.
    let payload: u64 = rows.iter().map(|r| r.len() as u64).sum();
    assert_eq!(load_bytes, payload);
    assert_eq!(load_bytes, sim_net_bytes_for_load(&rows));

    // Fewer wire messages than records: dispatch batched per destination.
    let msgs = cluster.workers().stats().snapshot().net_messages;
    assert!(
        msgs * 10 <= rows.len() as u64,
        "batching should collapse {} records into few RPCs, saw {msgs}",
        rows.len()
    );

    assert_eq!(set.total_records().unwrap(), 300);
    // The catalog entry round-tripped the wire: stats accumulated and
    // the scheme survived as a declarative spec.
    let entry = cluster.core().catalog().entry("users").unwrap().unwrap();
    assert_eq!(entry.stats.objects, 300);
    assert_eq!(entry.scheme.key_name, "uid");

    // Hash placement held: every record landed where the scheme says.
    let scheme = set.scheme().unwrap();
    set.for_each_record(|node, rec| {
        assert_eq!(scheme.node_of(rec, 0, 3), node);
    })
    .unwrap();

    // -- A replica under a different key (recovery needs a sibling). ---
    let report = cluster
        .register_replica(
            "users",
            "users_f1",
            PartitionScheme::hash_field("f1", 6, b'|', 1),
        )
        .unwrap();
    assert_eq!(report.objects, 300);
    assert_eq!(
        cluster.best_replica("users", "f1").unwrap().as_deref(),
        Some("users_f1"),
        "the wire-served statistics DB answers best-replica queries"
    );

    // -- Distributed shuffle, shipped to the data. ---------------------
    // Every worker maps its own share to field 1 and pushes the routed
    // output straight to its peers: not one payload byte through the
    // driver.
    let before_shuffle = cluster.workers().stats().snapshot();
    let report = cluster
        .map_shuffle(
            "users",
            "f1_words",
            &MapSpec::extract(KeySpec::Field {
                delim: b'|',
                index: 1,
            }),
            PartitionScheme::hash_whole("word", 4),
        )
        .unwrap();
    let driver_delta = cluster
        .workers()
        .stats()
        .snapshot()
        .delta_since(&before_shuffle);
    assert_eq!(report.records_out, 300);
    assert_eq!(
        driver_delta.net_bytes, 0,
        "shuffle payload crossed the driver"
    );
    let words = cluster.get_dist_set("f1_words").unwrap().unwrap();
    let word_scheme = words.scheme().unwrap();
    let mut seen = 0usize;
    words
        .for_each_record(|node, rec| {
            assert_eq!(word_scheme.node_of(rec, 0, 3), node, "misrouted {rec:?}");
            seen += 1;
        })
        .unwrap();
    assert_eq!(seen, rows.len());

    // -- Kill a worker; the manager detects it via missed heartbeats. --
    let before_kill = snapshot_set(&cluster, "users");
    let before_kill_f1 = snapshot_set(&cluster, "users_f1");
    a1.abandon(); // heartbeats stop, no deregistration: a crash
    s1.shutdown();

    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let dead = cluster.dead_workers().unwrap();
        if dead.contains(&NodeId(1)) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "manager never declared node#1 dead"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    assert_eq!(cluster.alive_nodes(), vec![NodeId(0), NodeId(2)]);

    // Recovery without a replacement is a usage error, not a hang.
    match cluster.recover_worker(NodeId(1)) {
        Err(PangeaError::InvalidUsage(m)) => assert!(m.contains("--slot 1"), "{m}"),
        other => panic!("expected usage error, got {other:?}"),
    }

    // -- A replacement takes the slot; recovery restores the data. -----
    let (_s1b, a1b) = worker("w1-replacement", &mgr_addr, 1);
    assert!(a1b.epoch() > a1.epoch(), "replacement gets a fresh epoch");
    let recovery = cluster.recover_worker(NodeId(1)).unwrap();
    assert_eq!(recovery.failed, NodeId(1));
    assert!(recovery.objects_restored > 0);
    assert!(recovery.bytes_moved > 0, "recovery moved bytes over TCP");
    assert_eq!(cluster.alive_nodes().len(), 3);

    assert_eq!(
        snapshot_set(&cluster, "users"),
        before_kill,
        "every 'users' record restored"
    );
    assert_eq!(
        snapshot_set(&cluster, "users_f1"),
        before_kill_f1,
        "every 'users_f1' record restored"
    );
    // Hash replicas are restored *in place*: keys still map home.
    let f1 = cluster.get_dist_set("users_f1").unwrap().unwrap();
    let f1_scheme = f1.scheme().unwrap();
    f1.for_each_record(|node, rec| {
        assert_eq!(f1_scheme.node_of(rec, 0, 3), node);
    })
    .unwrap();

    // -- Every pooled connection came back once: a load, a job, scans
    // and a recovery later, nothing is checked out on the driver or on
    // any worker.
    let driver = cluster.workers().obs().registry();
    let checkouts = pool_balance("the driver", |name| driver.counter(name).get());
    assert!(checkouts > 0, "the driver's RPCs go through its pool");
    for server in [&_s0, &_s1b, &_s2] {
        let addr = server.local_addr();
        let (metrics, _) = PangeaClient::connect_with_secret(addr, Some(SECRET))
            .unwrap()
            .metrics_dump()
            .unwrap();
        pool_balance(&format!("worker at {addr}"), |name| {
            metrics
                .iter()
                .find_map(|m| match m {
                    WireMetric::Counter { name: n, value } if n == name => Some(*value),
                    _ => None,
                })
                .unwrap_or(0)
        });
    }

    // -- Clean exit deregisters (Left, not Dead — recovery skips it). --
    let (_s3, mut a3) = worker("w3", &mgr_addr, 3);
    a3.shutdown().unwrap();
    let workers = cluster.refresh_membership().unwrap();
    let w3 = workers.iter().find(|w| w.node == 3).unwrap();
    assert_eq!(w3.state, WorkerState::Left);
}

/// Asserts `pool.checkouts == pool.checkins + pool.drops` over one
/// node's counters, and returns its checkouts.
fn pool_balance(who: &str, counter: impl Fn(&str) -> u64) -> u64 {
    let (out, back, drops) = (
        counter("pool.checkouts"),
        counter("pool.checkins"),
        counter("pool.drops"),
    );
    assert_eq!(
        out,
        back + drops,
        "{who}: {out} checkouts != {back} checkins + {drops} drops"
    );
    out
}

fn snapshot_set(cluster: &RemoteCluster, name: &str) -> BTreeMap<Vec<u8>, u32> {
    let set = cluster.get_dist_set(name).unwrap().unwrap();
    let mut m = BTreeMap::new();
    set.for_each_record(|_, rec| {
        *m.entry(rec.to_vec()).or_insert(0) += 1;
    })
    .unwrap();
    m
}

/// A load streams into one writer per worker: with default batching,
/// each worker ends with as many pages of the set as the in-process
/// `SimCluster` fills from the same input, and writes each of them
/// exactly once — sealed full, or sealed as the tail at `finish`.
#[test]
fn streamed_load_fills_pages_like_the_sim_and_writes_each_once() {
    let mgr = MgrServer::bind_with(
        "127.0.0.1:0",
        Duration::from_millis(300),
        Some(SECRET.into()),
    )
    .unwrap();
    let mgr_addr = mgr.local_addr().to_string();
    let servers: Vec<_> = (0..3)
        .map(|slot| worker(&format!("stream{slot}"), &mgr_addr, slot))
        .collect();
    let cluster = RemoteCluster::connect(&mgr_addr, Some(SECRET)).unwrap();
    let scheme = PartitionScheme::hash_field("uid", 6, b'|', 0);
    let rows = records(4000);

    let set = cluster.create_dist_set("users", scheme.clone()).unwrap();
    let node = |slot: usize| servers[slot].0.daemon().node().clone();
    let written = |slot: usize| node(slot).disk_stats().snapshot().disk_write_bytes;
    let before: Vec<u64> = (0..3).map(written).collect();
    let mut d = set.loader().unwrap();
    for row in &rows {
        d.dispatch(row.as_bytes()).unwrap();
    }
    d.finish().unwrap();

    let config = ClusterConfig::new(dir("stream-sim"), 3)
        .with_pool_capacity(256 * KB)
        .with_page_size(4 * KB);
    let sim = SimCluster::bootstrap(config, "pangea-default-keypair").unwrap();
    let sim_set = sim.create_dist_set("users", scheme).unwrap();
    let mut d = sim_set.loader().unwrap();
    for row in &rows {
        d.dispatch(row.as_bytes()).unwrap();
    }
    d.finish().unwrap();

    for (slot, before) in before.into_iter().enumerate() {
        let remote = node(slot).get_set("users").unwrap();
        let pages = remote.num_pages();
        let sim_pages = sim_set.local(NodeId(slot as u32)).unwrap().num_pages();
        assert!(pages > 1, "slot {slot} holds a multi-page share");
        assert_eq!(pages, sim_pages, "slot {slot} fills pages like the sim");
        assert_eq!(
            written(slot) - before,
            pages * 4 * KB as u64,
            "slot {slot} writes each page of the load once"
        );
        assert_eq!(node(slot).paging_stats().pinned_pages, 0);
    }
    assert_eq!(snapshot_set(&cluster, "users").values().sum::<u32>(), 4000);
}

/// A scan of a share too large for one reply pages through several,
/// and the driver's ledger is charged each record's payload exactly
/// once: the sum of the record lengths, as a load of the same records
/// is charged.
#[test]
fn multi_reply_scan_charges_each_record_once() {
    let mgr = MgrServer::bind_with(
        "127.0.0.1:0",
        Duration::from_millis(300),
        Some(SECRET.into()),
    )
    .unwrap();
    let mgr_addr = mgr.local_addr().to_string();
    let servers: Vec<_> = (0..3)
        .map(|slot| worker(&format!("scan{slot}"), &mgr_addr, slot))
        .collect();
    let cluster = RemoteCluster::connect(&mgr_addr, Some(SECRET)).unwrap();
    let rows = records(60_000);
    let set = cluster
        .create_dist_set("users", PartitionScheme::round_robin(3))
        .unwrap();
    let mut d = set.loader().unwrap();
    for row in &rows {
        d.dispatch(row.as_bytes()).unwrap();
    }
    d.finish().unwrap();

    let scans = |slot: usize| {
        let reg = servers[slot].0.daemon().obs().registry().clone();
        reg.counter("rpc.count.Scan").get()
    };
    let before_scans: Vec<u64> = (0..3).map(scans).collect();
    let before = cluster.workers().stats().snapshot().net_bytes;
    let got = snapshot_set(&cluster, "users");
    let charged = cluster.workers().stats().snapshot().net_bytes - before;

    let want = rows.iter().fold(BTreeMap::new(), |mut m, r| {
        *m.entry(r.as_bytes().to_vec()).or_insert(0u32) += 1;
        m
    });
    assert!(got == want, "the scan returns every record once");
    let payload: u64 = rows.iter().map(|r| r.len() as u64).sum();
    assert_eq!(charged, payload, "each record's payload is charged once");
    for (slot, before) in before_scans.into_iter().enumerate() {
        let replies = scans(slot) - before;
        assert!(
            replies >= 2,
            "slot {slot} served its share in {replies} replies"
        );
    }
}
