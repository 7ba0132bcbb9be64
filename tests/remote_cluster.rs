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
use pangea::net::{KeySpec, MapSpec, PangeadServer, WorkerState};
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

    // -- Clean exit deregisters (Left, not Dead — recovery skips it). --
    let (_s3, mut a3) = worker("w3", &mgr_addr, 3);
    a3.shutdown().unwrap();
    let workers = cluster.refresh_membership().unwrap();
    let w3 = workers.iter().find(|w| w.node == 3).unwrap();
    assert_eq!(w3.state, WorkerState::Left);
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
