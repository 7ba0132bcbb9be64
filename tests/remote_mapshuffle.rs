//! Fault-and-parity suite for the distributed map-shuffle: a real
//! `pangea-mgr` and `pangead` processes over loopback TCP, declarative
//! map tasks shipped to every worker, and four properties proven:
//!
//! 1. A distributed map-shuffle moves **zero payload bytes through the
//!    driver** — every record flows mapper→destination worker, and the
//!    moved payload is attributed to the workers' `shuffle_bytes`
//!    counters (`IoStats` ledgers on both sides are the witness).
//! 2. The materialized output set matches a **serial `SimCluster` run
//!    record-for-record** (same engine, different backend).
//! 3. Per-worker tasks run **in parallel** (a rendezvous hook shows all
//!    task RPCs in flight at once).
//! 4. A worker killed mid-job surfaces the **typed**
//!    [`PangeaError::NodeUnavailable`], and — after the slot is
//!    recovered — an idempotent retry completes without duplicates.

use pangea::cluster::{ClusterConfig, PartitionScheme, SimCluster};
use pangea::common::{NodeId, PangeaError, KB};
use pangea::coord::{MgrServer, RemoteCluster, WorkerAgent};
use pangea::core::{NodeConfig, StorageNode};
use pangea::net::{
    FilterSpec, KeySpec, MapSpec, PangeaClient, PangeadServer, ReduceSpec, WireMetric,
};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SECRET: &str = "mapshuffle-deployment-secret";

fn dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "pangea-mapshuffle-e2e-{tag}-{}-{:?}",
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

/// `user|word|payload` rows: few distinct words, so the mapped output
/// carries plenty of honest duplicates the provenance-tag dedup must
/// *not* collapse.
fn records(n: u32) -> Vec<String> {
    (0..n)
        .map(|i| format!("u{}|w{:02}|row-{i:05}", i % 7, i % 13))
        .collect()
}

/// The job under test everywhere below: keep rows whose user field is
/// not empty, emit the word field, and hash the emitted word over 8
/// partitions.
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

fn word_scheme() -> PartitionScheme {
    PartitionScheme::hash_whole("word", 8)
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

/// A serial `SimCluster` reference run: same rows, same job, in-process.
fn sim_reference(tag: &str, nodes: u32, rows: &[String]) -> SimCluster {
    let sim = SimCluster::bootstrap(
        ClusterConfig::new(dir(tag), nodes)
            .with_pool_capacity(256 * KB)
            .with_page_size(4 * KB),
        "pangea-default-keypair",
    )
    .unwrap();
    let set = sim
        .create_dist_set("lines", PartitionScheme::round_robin(8))
        .unwrap();
    let mut d = set.loader().unwrap();
    for row in rows {
        d.dispatch(row.as_bytes()).unwrap();
    }
    d.finish().unwrap();
    sim.map_shuffle("lines", "words", &word_map(), word_scheme())
        .unwrap();
    sim
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
fn map_shuffle_ships_tasks_with_zero_driver_payload_and_matches_sim() {
    let (_mgr, mgr_addr) = mgr_server();
    let fleet: Vec<_> = (0..4)
        .map(|i| worker(&format!("z{i}"), &mgr_addr, i))
        .collect();

    let cluster = RemoteCluster::connect(&mgr_addr, Some(SECRET)).unwrap();
    assert_eq!(cluster.alive_nodes().len(), 4);

    let rows = records(400);
    let set = cluster
        .create_dist_set("lines", PartitionScheme::round_robin(8))
        .unwrap();
    let mut d = set.loader().unwrap();
    for row in &rows {
        d.dispatch(row.as_bytes()).unwrap();
    }
    d.finish().unwrap();

    // The tentpole: the job runs as shipped tasks, and the driver's
    // shared ledger sees not one payload byte while it does.
    let driver_before = cluster.workers().stats().snapshot();
    let report = cluster
        .map_shuffle("lines", "words", &word_map(), word_scheme())
        .unwrap();
    let driver_delta = cluster
        .workers()
        .stats()
        .snapshot()
        .delta_since(&driver_before);
    assert_eq!(report.scanned, 400);
    assert_eq!(report.records_out, 400, "KeyPresent keeps every row");
    assert!(report.bytes_out > 0);
    assert_eq!(report.tasks.len(), 4, "one task per worker");
    assert!(report.tasks.iter().all(|(_, t)| t.scanned > 0));
    assert_eq!(
        driver_delta.net_bytes, 0,
        "map-shuffle payload crossed the driver's wire"
    );
    assert_eq!(driver_delta.net_messages, 0);
    assert_eq!(driver_delta.shuffle_bytes, 0, "the driver shuffles nothing");
    assert_eq!(driver_delta.repair_bytes, 0);

    // The same traffic is attributed worker-side: every worker mapped
    // its share (mapper attribution), and together they appended the
    // materialized output (destination attribution).
    let per_worker: Vec<u64> = fleet
        .iter()
        .map(|(s, _)| s.daemon().stats().snapshot().shuffle_bytes)
        .collect();
    assert!(
        per_worker.iter().all(|&b| b > 0),
        "every worker moved shuffle payload: {per_worker:?}"
    );
    assert!(per_worker.iter().sum::<u64>() >= report.bytes_out);

    // The output is a normal catalog set, fully readable, placed by its
    // scheme, with honest duplicates intact…
    let out = cluster.get_dist_set("words").unwrap().unwrap();
    assert_eq!(out.total_records().unwrap(), 400);
    let scheme = out.scheme().unwrap();
    out.for_each_record(|node, rec| {
        assert!(rec.starts_with(b"w"), "{rec:?} not a projected word");
        assert_eq!(scheme.node_of(rec, 0, 4), node, "{rec:?} misrouted");
    })
    .unwrap();

    // …and matches the serial SimCluster run record-for-record.
    let sim = sim_reference("sim-parity", 4, &rows);
    assert_eq!(
        snapshot_remote(&cluster, "words"),
        snapshot_sim(&sim, "words"),
        "distributed tasks and the serial sim must materialize the same set"
    );
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

/// The observability tentpole, end to end: one distributed wordcount,
/// then `MetricsDump` against every worker proves (a) per-opcode RPC
/// counts matching the job's exact RPC plan, (b) latency histograms
/// populated for every served opcode, and (c) one `job_id`-correlated
/// span set per worker covering the whole fan-out — the driver's
/// `TaskRun` plus the ingest RPCs the *other* mappers pushed in — while
/// the driver's payload ledger still reads exactly zero.
#[test]
fn metrics_dump_correlates_one_job_across_every_worker() {
    let (_mgr, mgr_addr) = mgr_server();
    let fleet: Vec<_> = (0..3)
        .map(|i| worker(&format!("obs{i}"), &mgr_addr, i))
        .collect();
    let cluster = RemoteCluster::connect(&mgr_addr, Some(SECRET)).unwrap();

    // 97 distinct words (coprime with the 8-way input striping) so
    // every mapper emits words into every output partition: each
    // (mapper, destination) pair is guaranteed live, which is what
    // makes the RPC plan below exact.
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

    let driver_before = cluster.workers().stats().snapshot();
    cluster
        .map_shuffle("lines", "words", &word_map(), word_scheme())
        .unwrap();
    let job = cluster.workers().last_job().expect("map_shuffle is traced");

    // The driver recorded one span per RPC it issued under the job, all
    // ok, and its payload ledger never moved (the dump below uses its
    // own fresh clients, so it cannot move it either).
    let driver_spans: Vec<_> = cluster
        .workers()
        .obs()
        .ring()
        .since(0)
        .into_iter()
        .filter(|(_, s)| s.job == job)
        .collect();
    // 3 TaskRun + 3 IngestBegin + 3 IngestEnd at minimum.
    assert!(driver_spans.len() >= 9, "driver spans: {driver_spans:?}");
    assert!(driver_spans.iter().all(|(_, s)| s.outcome == "ok"));

    for (i, (server, _agent)) in fleet.iter().enumerate() {
        let mut dump =
            PangeaClient::connect_with_secret(server.local_addr(), Some(SECRET)).unwrap();
        let (metrics, spans) = dump.metrics_dump().unwrap();

        // (a) Exact opcode counts from the job's RPC plan: the driver
        // opens and seals one ingest session and runs one task on every
        // worker; the two *other* mappers each push at least one
        // `IngestAppend` batch (13 distinct words cover all 8 output
        // partitions, so every mapper emits to every destination — the
        // self-destined share never becomes an RPC).
        let count = |name: &str| counter_value(&metrics, name);
        assert_eq!(count("rpc.count.TaskRun"), 1, "worker {i}");
        assert_eq!(count("rpc.count.IngestBegin"), 1, "worker {i}");
        assert_eq!(count("rpc.count.IngestEnd"), 1, "worker {i}");
        assert!(
            count("rpc.count.IngestAppend") >= 2,
            "worker {i}: expected pushes from both peer mappers, got {}",
            count("rpc.count.IngestAppend")
        );
        assert!(count("rpc.bytes.IngestAppend") > 0, "worker {i}");
        assert_eq!(
            counter_value(&metrics, "sessions.ingest.begun"),
            1,
            "worker {i}"
        );
        assert_eq!(
            counter_value(&metrics, "sessions.ingest.ended"),
            1,
            "worker {i}"
        );

        // (b) A populated latency histogram for every served opcode.
        for op in ["TaskRun", "IngestBegin", "IngestAppend", "IngestEnd"] {
            let hist = metrics.iter().find_map(|m| match m {
                WireMetric::Histogram { name, count, .. }
                    if name == &format!("rpc.latency_ns.{op}") =>
                {
                    Some(*count)
                }
                _ => None,
            });
            assert_eq!(
                hist,
                Some(count(&format!("rpc.count.{op}"))),
                "worker {i}: histogram count must match rpc.count.{op}"
            );
        }

        // (c) The job's complete span set on this worker: every opcode
        // in the fan-out appears under the driver's job id, stitched to
        // a parent span, monotonic, and ok.
        let job_spans: Vec<_> = spans.iter().filter(|s| s.job == job).collect();
        for op in ["TaskRun", "IngestBegin", "IngestAppend", "IngestEnd"] {
            assert!(
                job_spans.iter().any(|s| s.op == op),
                "worker {i}: no {op} span under job {job}: {job_spans:?}"
            );
        }
        for s in &job_spans {
            assert_eq!(s.outcome, "ok", "worker {i}: {s:?}");
            assert_ne!(s.span, 0, "worker {i}: {s:?}");
            assert_ne!(s.parent, 0, "worker {i}: spans stitch to a caller");
            assert!(s.end_ns >= s.start_ns, "worker {i}: {s:?}");
        }
        // The ingest pushes arrived from the peer mappers' TaskRun
        // spans, not from the driver: at least one `IngestAppend` span's
        // parent is missing from this worker's own span ids.
        let own: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.span).collect();
        assert!(
            job_spans
                .iter()
                .any(|s| s.op == "IngestAppend" && !own.contains(&s.parent)),
            "worker {i}: ingest pushes must stitch under remote mapper spans"
        );
    }

    // The dump clients used their own ledgers: the driver's shared
    // payload ledger is still untouched by the whole job + inspection.
    let driver_delta = cluster
        .workers()
        .stats()
        .snapshot()
        .delta_since(&driver_before);
    assert_eq!(driver_delta.net_bytes, 0);
    assert_eq!(driver_delta.shuffle_bytes, 0);
}

/// Round-robin *output* parity: both backends stripe per source node
/// with a slot-offset start, so even ordinal-placed outputs land on the
/// same nodes as the serial reference — the divergence the old
/// per-source-from-zero vs global-ordinal split silently hid.
#[test]
fn round_robin_output_matches_serial_sim_per_node() {
    let (_mgr, mgr_addr) = mgr_server();
    let _fleet: Vec<_> = (0..3)
        .map(|i| worker(&format!("rr{i}"), &mgr_addr, i))
        .collect();

    let cluster = RemoteCluster::connect(&mgr_addr, Some(SECRET)).unwrap();
    let rows = records(300);
    let set = cluster
        .create_dist_set("lines", PartitionScheme::hash_field("uid", 8, b'|', 0))
        .unwrap();
    let mut d = set.loader().unwrap();
    for row in &rows {
        d.dispatch(row.as_bytes()).unwrap();
    }
    d.finish().unwrap();

    // Identity map, round-robin output over 7 partitions striping 3
    // nodes (a partition count coprime to the fleet, so any striping
    // mistake shows up as misplacement, not coincidental agreement).
    let report = cluster
        .map_shuffle(
            "lines",
            "sprayed",
            &MapSpec::identity(),
            PartitionScheme::round_robin(7),
        )
        .unwrap();
    assert_eq!(report.records_out, 300);

    let sim = SimCluster::bootstrap(
        ClusterConfig::new(dir("sim-rr-parity"), 3)
            .with_pool_capacity(256 * KB)
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
    sim.map_shuffle(
        "lines",
        "sprayed",
        &MapSpec::identity(),
        PartitionScheme::round_robin(7),
    )
    .unwrap();
    assert_eq!(
        snapshot_remote(&cluster, "sprayed"),
        snapshot_sim(&sim, "sprayed"),
        "round-robin outputs must place per-node identically under the \
         documented per-source striping"
    );
}

/// The tentpole: a full distributed map-combine-reduce. Raw text lines
/// flat-map into words, every mapper combines its share per key, the
/// destinations merge partials, and the materialized counts match the
/// serial fold — with zero driver payload and strictly fewer shuffle
/// bytes than the same job shipped uncombined.
#[test]
fn reduce_wordcount_combines_at_the_source_and_matches_sim() {
    let (_mgr, mgr_addr) = mgr_server();
    let fleet: Vec<_> = (0..4)
        .map(|i| worker(&format!("red{i}"), &mgr_addr, i))
        .collect();

    let cluster = RemoteCluster::connect(&mgr_addr, Some(SECRET)).unwrap();
    // Raw space-separated lines — no pre-split input; the flat-map
    // tokenizes. Few distinct words, so combining collapses a lot.
    let lines: Vec<String> = (0..120)
        .map(|i| {
            format!(
                "w{:02} w{:02} v{:02} filler{}",
                i % 7,
                i % 7,
                (i + 1) % 13,
                i % 3
            )
        })
        .collect();
    let set = cluster
        .create_dist_set("lines", PartitionScheme::round_robin(8))
        .unwrap();
    let mut d = set.loader().unwrap();
    for row in &lines {
        d.dispatch(row.as_bytes()).unwrap();
    }
    d.finish().unwrap();

    let map = MapSpec::tokenize(b' ');
    let reduce = ReduceSpec::count(KeySpec::WholeRecord, b'|');
    let out_scheme = || PartitionScheme::hash_field("word", 8, b'|', 0);

    // Baseline: the same job uncombined (map-only shuffle of raw
    // tokens) — its task reports price the unreduced shuffle.
    let plain = cluster
        .map_shuffle(
            "lines",
            "tokens",
            &map,
            PartitionScheme::hash_whole("word", 8),
        )
        .unwrap();
    assert_eq!(plain.records_out, 120 * 4, "every token materializes");

    let driver_before = cluster.workers().stats().snapshot();
    let reduced = cluster
        .map_reduce("lines", "counts", &map, &reduce, out_scheme())
        .unwrap();
    let driver_delta = cluster
        .workers()
        .stats()
        .snapshot()
        .delta_since(&driver_before);

    // Zero payload through the driver, real payload on every worker.
    assert_eq!(
        driver_delta.net_bytes, 0,
        "reduce payload crossed the driver"
    );
    assert_eq!(driver_delta.shuffle_bytes, 0);
    let per_worker: Vec<u64> = fleet
        .iter()
        .map(|(s, _)| s.daemon().stats().snapshot().shuffle_bytes)
        .collect();
    assert!(
        per_worker.iter().all(|&b| b > 0),
        "every worker moved shuffle payload: {per_worker:?}"
    );

    // Source-side combine shrinks the shuffle: the reduced job shipped
    // strictly fewer worker→worker bytes than the uncombined one.
    let shipped = |r: &pangea::cluster::MapShuffleReport| -> u64 {
        r.tasks.iter().map(|(_, t)| t.emitted_bytes).sum()
    };
    assert!(
        shipped(&reduced) < shipped(&plain),
        "combine must shrink shuffle bytes: {} vs {}",
        shipped(&reduced),
        shipped(&plain)
    );
    assert_eq!(reduced.scanned, 120, "reduce scans the raw lines");
    assert_eq!(
        reduced.records_out,
        7 + 13 + 3,
        "one materialized record per distinct word"
    );

    // The counts are right: every `word|count` row carries the fold of
    // the whole corpus, and each word lives on exactly one node.
    let mut seen = std::collections::HashMap::new();
    cluster
        .get_dist_set("counts")
        .unwrap()
        .unwrap()
        .for_each_record(|node, rec| {
            let (word, count) = reduce.decode_record(rec).unwrap();
            assert!(
                seen.insert(word.to_vec(), (node, count)).is_none(),
                "word duplicated across the output"
            );
        })
        .unwrap();
    // w00..w06 appear twice per line in 120/7-ish lines; spot-check by
    // recomputing from the corpus.
    let mut expect = std::collections::HashMap::new();
    for line in &lines {
        for tok in line.split(' ') {
            *expect.entry(tok.as_bytes().to_vec()).or_insert(0i64) += 1;
        }
    }
    assert_eq!(seen.len(), expect.len());
    for (word, count) in &expect {
        assert_eq!(seen[word].1, *count, "miscount for {word:?}");
    }

    // Record-for-record (and placement) parity with the serial fold.
    let sim = SimCluster::bootstrap(
        ClusterConfig::new(dir("sim-reduce-parity"), 4)
            .with_pool_capacity(256 * KB)
            .with_page_size(4 * KB),
        "pangea-default-keypair",
    )
    .unwrap();
    let sset = sim
        .create_dist_set("lines", PartitionScheme::round_robin(8))
        .unwrap();
    let mut sd = sset.loader().unwrap();
    for row in &lines {
        sd.dispatch(row.as_bytes()).unwrap();
    }
    sd.finish().unwrap();
    sim.map_reduce("lines", "counts", &map, &reduce, out_scheme())
        .unwrap();
    assert_eq!(
        snapshot_remote(&cluster, "counts"),
        snapshot_sim(&sim, "counts"),
        "distributed combine-then-merge and the serial fold must converge"
    );

    // A reduce demands a key-field hash scheme; anything else is a
    // typed usage error before anything destructive runs.
    match cluster.map_reduce(
        "lines",
        "counts",
        &map,
        &reduce,
        PartitionScheme::hash_whole("word", 8),
    ) {
        Err(PangeaError::Remote(m)) | Err(PangeaError::InvalidUsage(m)) => {
            assert!(m.contains("hash_field"), "{m}");
        }
        other => panic!("expected typed usage error, got {other:?}"),
    }
    assert_eq!(
        cluster
            .get_dist_set("counts")
            .unwrap()
            .unwrap()
            .total_records()
            .unwrap(),
        23,
        "the rejected job must not have touched the existing output"
    );
}

#[test]
fn per_worker_tasks_run_in_parallel() {
    let (_mgr, mgr_addr) = mgr_server();
    let _fleet: Vec<_> = (0..3)
        .map(|i| worker(&format!("p{i}"), &mgr_addr, i))
        .collect();

    let cluster = RemoteCluster::connect(&mgr_addr, Some(SECRET)).unwrap();
    let set = cluster
        .create_dist_set("lines", PartitionScheme::round_robin(8))
        .unwrap();
    let mut d = set.loader().unwrap();
    for row in records(60) {
        d.dispatch(row.as_bytes()).unwrap();
    }
    d.finish().unwrap();

    // Rendezvous: each worker's task announces itself, then waits for
    // the others. `overlapped` only becomes true if all three task
    // launches were in flight at the same time — a serialized driver
    // would park the first task forever and fail the deadline loudly.
    let arrivals = Arc::new(AtomicUsize::new(0));
    let overlapped = Arc::new(AtomicBool::new(false));
    {
        let arrivals = Arc::clone(&arrivals);
        let overlapped = Arc::clone(&overlapped);
        cluster.set_task_hook(Some(Arc::new(move |n: NodeId| {
            arrivals.fetch_add(1, Ordering::SeqCst);
            let deadline = Instant::now() + Duration::from_secs(10);
            while arrivals.load(Ordering::SeqCst) < 3 {
                assert!(
                    Instant::now() < deadline,
                    "task for {n} waited 10s without concurrent peer tasks"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
            overlapped.store(true, Ordering::SeqCst);
        })));
    }
    let report = cluster
        .map_shuffle("lines", "words", &word_map(), word_scheme())
        .unwrap();
    cluster.set_task_hook(None);
    assert!(
        overlapped.load(Ordering::SeqCst),
        "tasks ran serially; expected overlapping TaskRun RPCs"
    );
    assert_eq!(report.tasks.len(), 3);
    assert_eq!(report.records_out, 60);
}

#[test]
fn killed_worker_mid_job_is_typed_and_idempotent_retry_completes() {
    let (_mgr, mgr_addr) = mgr_server();
    let (s0, _a0) = worker("k0", &mgr_addr, 0);
    let (s1, _a1) = worker("k1", &mgr_addr, 1);
    let (s2, a2) = worker("k2", &mgr_addr, 2);
    let (s3, _a3) = worker("k3", &mgr_addr, 3);

    let cluster = RemoteCluster::connect(&mgr_addr, Some(SECRET)).unwrap();
    let rows = records(400);
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
    let before_lines = snapshot_remote(&cluster, "lines");

    // The kill is injected at the task rendezvous: once every task
    // launch is in flight, worker 2's process dies *before its TaskRun
    // is issued* — its own task dials a dead address, and sibling
    // mappers lose their push destination mid-task.
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
        while hook_arrivals.load(Ordering::SeqCst) < 4 {
            assert!(Instant::now() < deadline, "task rendezvous timed out");
            std::thread::sleep(Duration::from_millis(1));
        }
    })));
    let outcome = cluster.map_shuffle("lines", "words", &word_map(), word_scheme());
    cluster.set_task_hook(None);
    match outcome {
        Err(PangeaError::NodeUnavailable(n)) => assert_eq!(n, NodeId(2)),
        other => panic!("expected typed NodeUnavailable(node#2), got {other:?}"),
    }

    // The failed job was traced too: the driver's span ring holds the
    // fatal RPC against the killed worker with the typed outcome text,
    // correlated under the failed job's id.
    let failed_job = cluster
        .workers()
        .last_job()
        .expect("the failed job allocated a trace id");
    let spans = cluster.workers().obs().ring().since(0);
    assert!(
        spans
            .iter()
            .any(|(_, s)| s.job == failed_job && s.outcome.contains("unavailable")),
        "no NodeUnavailable-outcome driver span under job {failed_job}: {spans:?}"
    );

    // While the slot is known-dead, the job is refused up front with
    // the same typed error — a task fleet missing a slot would silently
    // drop that slot's input share from the output.
    wait_dead(&cluster, &[NodeId(2)]);
    match cluster.map_shuffle("lines", "words", &word_map(), word_scheme()) {
        Err(PangeaError::NodeUnavailable(n)) => assert_eq!(n, NodeId(2)),
        other => panic!("expected dead-slot refusal, got {other:?}"),
    }

    // A replacement takes the slot; recovery restores the lost input
    // share worker→worker (PR 3), and the retry of the *same* job
    // completes — materializing the output afresh, no duplicates.
    let (_s2b, _a2b) = worker("k2-replacement", &mgr_addr, 2);
    let recovery = cluster.recover_worker(NodeId(2)).unwrap();
    assert!(recovery.objects_restored > 0);
    assert_eq!(snapshot_remote(&cluster, "lines"), before_lines);

    let report = cluster
        .map_shuffle("lines", "words", &word_map(), word_scheme())
        .unwrap();
    assert_eq!(report.records_out, 400, "retry materializes every record");
    assert_eq!(
        cluster
            .get_dist_set("words")
            .unwrap()
            .unwrap()
            .total_records()
            .unwrap(),
        400,
        "no duplicates survive the failed first attempt"
    );

    // Record-for-record parity with a clean serial sim run: the failed
    // attempt left no trace in the materialized output.
    let sim = SimCluster::bootstrap(
        ClusterConfig::new(dir("sim-retry-parity"), 4)
            .with_pool_capacity(256 * KB)
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
    sim.map_shuffle("lines", "words", &word_map(), word_scheme())
        .unwrap();
    assert_eq!(
        snapshot_remote(&cluster, "words"),
        snapshot_sim(&sim, "words"),
        "retried remote job and clean serial sim must converge"
    );
    drop((s0, s1, s3));
}

#[test]
fn closure_keyed_scheme_is_a_typed_not_wire_safe_error() {
    let (_mgr, mgr_addr) = mgr_server();
    let _fleet: Vec<_> = (0..2)
        .map(|i| worker(&format!("c{i}"), &mgr_addr, i))
        .collect();

    let cluster = RemoteCluster::connect(&mgr_addr, Some(SECRET)).unwrap();
    let set = cluster
        .create_dist_set("lines", PartitionScheme::round_robin(4))
        .unwrap();
    let mut d = set.loader().unwrap();
    d.dispatch(b"0|w|x").unwrap();
    d.finish().unwrap();

    // A UDF-closure scheme cannot ship with a task: typed error, no
    // silent fallback through the driver.
    let closure_scheme = PartitionScheme::hash("word", 8, |r: &[u8]| r.to_vec());
    match cluster.map_shuffle("lines", "words", &MapSpec::identity(), closure_scheme) {
        Err(PangeaError::NotWireSafe(m)) => {
            assert!(m.contains("hash_field") || m.contains("closure"), "{m}");
            assert!(!m.contains("driver-routed"), "{m}");
        }
        other => panic!("expected typed NotWireSafe, got {other:?}"),
    }
    // The declarative equivalent works.
    cluster
        .map_shuffle(
            "lines",
            "words",
            &MapSpec::identity(),
            PartitionScheme::hash_whole("word", 8),
        )
        .unwrap();
    // A rejected job must reject *before* anything destructive: a
    // closure scheme that happens to share the output's kind/partitions/
    // key name fails typed and leaves the existing output untouched.
    let lookalike = PartitionScheme::hash("word", 8, |r: &[u8]| r.to_vec());
    match cluster.map_shuffle("lines", "words", &MapSpec::identity(), lookalike) {
        Err(PangeaError::NotWireSafe(_)) => {}
        other => panic!("expected typed NotWireSafe, got {other:?}"),
    }
    let out = cluster.get_dist_set("words").unwrap().unwrap();
    assert_eq!(
        out.total_records().unwrap(),
        1,
        "a rejected job must not have dropped the existing output"
    );
}
