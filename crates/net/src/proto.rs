//! The pangead request/response protocol.
//!
//! Messages cover the core node operations the cluster layer needs from a
//! remote peer: set creation, sequential append, page enumeration and
//! fetch (the recovery read path), full scans, shipped map tasks and
//! their ingest sessions, worker-to-worker repair, the control plane,
//! and statistics and trace probes. Encoding reuses `pangea_common::codec`: every field
//! is a length-prefixed record in a [`ByteWriter`] stream, so the wire
//! format inherits the codec's self-framing and its truncation checks.
//! One encoded message travels inside one [`crate::frame`] frame.

use crate::wire::{ReduceSpec, RepairFilter, SchemeSpec, TaskSpec, WireCatalogEntry, WireWorker};
use pangea_common::{ByteReader, ByteWriter, PangeaError, Result};
use pangea_obs::TraceCtx;

/// A client/cluster → pangead message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Shared-secret handshake. On daemons configured with a secret this
    /// must be the first message of every connection; other requests are
    /// answered with [`Response::Denied`] until it succeeds.
    Hello {
        /// The deployment's shared secret.
        secret: String,
    },
    /// `createSet(name, durability)` with an optional page-size override
    /// (`None` uses the serving node's default).
    CreateSet {
        /// Locality-set name, unique per node.
        name: String,
        /// `"write-through"` or `"write-back"` (the paper's string form).
        durability: String,
        /// Page size override in bytes.
        page_size: Option<u64>,
    },
    /// Appends records through the sequential write service.
    Append {
        /// Target locality set.
        set: String,
        /// Record payloads, written in order.
        records: Vec<Vec<u8>>,
    },
    /// Enumerates a set's page ordinals (dense).
    PageNumbers {
        /// Target locality set.
        set: String,
    },
    /// Fetches one page's raw bytes — the recovery read path.
    FetchPage {
        /// Target locality set.
        set: String,
        /// Page ordinal.
        num: u64,
    },
    /// Reads every record of a set through the sequential read service.
    Scan {
        /// Target locality set.
        set: String,
    },
    /// Reads the serving node's I/O counters.
    Stats,
    /// Drops a locality set (used by distributed-set teardown).
    DropSet {
        /// Target locality set.
        set: String,
    },
    /// Counts a set's records server-side (no payload crosses the wire
    /// — diagnostics like `total_records` stay O(1) in wire bytes).
    Count {
        /// Target locality set.
        set: String,
    },

    // ---- Worker→worker recovery (peer repair) -----------------------
    /// Record hashes (`fx_hash64`) of a local set, in storage order —
    /// the peer pull a replacement uses to learn the surviving share of
    /// a round-robin recovery target without moving any payload.
    /// Paginated by a `(page, record)` cursor so a huge set can never
    /// overflow one reply frame and each chunk costs only its own scan:
    /// the server returns at most [`HASH_CHUNK`] hashes from the cursor
    /// on, with [`Response::Hashes::next`] carrying the resume point.
    HashList {
        /// Target locality set.
        set: String,
        /// Page ordinal to start at (0 for the first chunk).
        start_page: u64,
        /// Records to skip within the starting page.
        start_record: u64,
    },
    /// Opens a repair session for `set` on the replacement node: the
    /// session's dedup ledger is seeded with the record hashes of every
    /// peer in `present_from` (pulled worker→worker via [`Request::HashList`]),
    /// so subsequent [`Request::RecoverAppend`]s restore each lost
    /// record exactly once. Replaces any existing session for the set.
    RecoverBegin {
        /// The recovery target set.
        set: String,
        /// Peer `pangead` addresses holding the surviving share.
        present_from: Vec<String>,
    },
    /// Survivor→replacement delivery of candidate records: the session
    /// appends only records its ledger has not seen, making concurrent
    /// pushes from several survivors (and retries) idempotent.
    RecoverAppend {
        /// The recovery target set (must have an open session).
        set: String,
        /// Candidate record payloads.
        records: Vec<Vec<u8>>,
    },
    /// Seals the repair session and returns its append totals.
    RecoverEnd {
        /// The recovery target set.
        set: String,
    },
    /// Record hashes already *present* in an open repair session's
    /// dedup ledger (seeded at [`Request::RecoverBegin`] from the
    /// target's own records plus its peers' surviving shares) —
    /// paginated by an index cursor like [`Request::HashList`], at most
    /// [`HASH_CHUNK`] hashes per reply. A survivor running an
    /// [`crate::wire::RepairFilter::Absent`] push pulls this from the
    /// replacement and filters at the source, so the surviving share's
    /// payload never crosses the wire.
    RepairLedger {
        /// The recovery target set (must have an open session).
        set: String,
        /// Index of the first ledger hash to return (0 for the first
        /// chunk).
        start: u64,
    },
    /// Driver→survivor orchestration: scan the local share of
    /// `source_set`, keep records matching `filter`, and stream them in
    /// batches straight to `target_set` on the `pangead` at
    /// `target_addr` — the driver never touches the payload.
    RecoverPush {
        /// The survivor-local source set to scan.
        source_set: String,
        /// The recovery target set on the replacement.
        target_set: String,
        /// The replacement `pangead`'s address.
        target_addr: String,
        /// Which scanned records to ship.
        filter: RepairFilter,
    },

    // ---- Distributed map-shuffle (task shipping + push shuffle) -----
    /// Driver→worker: run one shipped map task — scan the local share of
    /// the task's input, apply its declarative map, and stream routed
    /// batches straight to each destination worker's ingest session.
    /// The driver never touches the record payload.
    TaskRun {
        /// The task, wire form.
        spec: TaskSpec,
    },
    /// Opens a shuffle-ingest session for `set` on a destination worker.
    /// The local `set` share is truncated first — a begin is the
    /// idempotent open of a *fresh* attempt, so partial output from a
    /// failed prior attempt never leaks into the retry. Mirrors
    /// [`Request::RecoverBegin`]'s session pattern, but the dedup ledger
    /// tracks provenance tags ([`crate::wire::ingest_tag`]) instead of
    /// record content: shuffle output may contain honest duplicates.
    IngestBegin {
        /// The ingest target set (must already exist on the node).
        set: String,
        /// When present, the session runs in *reducing* mode: incoming
        /// records are `key|value` partials folded into a keyed
        /// accumulator and materialized at [`Request::IngestEnd`],
        /// instead of being appended record-for-record.
        reduce: Option<ReduceSpec>,
    },
    /// Mapper→destination delivery of routed records, each carrying its
    /// provenance tag: the session appends only tags its ledger has not
    /// seen, making within-attempt RPC retries (lost acks) idempotent.
    IngestAppend {
        /// The ingest target set (must have an open session).
        set: String,
        /// `(tag, record)` pairs.
        entries: Vec<(u64, Vec<u8>)>,
    },
    /// Seals the ingest session and returns its append totals.
    /// Idempotent via a sealed-totals tombstone, like
    /// [`Request::RecoverEnd`].
    IngestEnd {
        /// The ingest target set.
        set: String,
    },

    // ---- Manager (pangea-mgr) requests: membership ------------------
    /// Registers a worker with the manager. `slot` pins a node id — a
    /// replacement worker re-registers its predecessor's slot; `None`
    /// takes the next free slot.
    MgrRegisterWorker {
        /// The address the worker's `pangead` serves on.
        addr: String,
        /// Explicit node slot (raw `NodeId`), or `None` for the next one.
        slot: Option<u64>,
    },
    /// Worker liveness heartbeat.
    MgrHeartbeat {
        /// The sender's node slot.
        node: u32,
        /// The sender's registration epoch.
        epoch: u64,
    },
    /// Clean worker shutdown: deregisters the slot.
    MgrDeregisterWorker {
        /// The sender's node slot.
        node: u32,
        /// The sender's registration epoch.
        epoch: u64,
    },
    /// Membership snapshot (sweeps liveness first).
    MgrListWorkers,

    // ---- Manager requests: catalog + statistics DB ------------------
    /// Registers a distributed set in the wire-served catalog.
    MgrRegisterSet {
        /// Cluster-wide set name.
        name: String,
        /// Its partitioning scheme (declarative form).
        scheme: SchemeSpec,
    },
    /// Removes a set from the catalog (and its replica group).
    MgrDeregisterSet {
        /// Cluster-wide set name.
        name: String,
    },
    /// Looks up one catalog entry.
    MgrEntry {
        /// Cluster-wide set name.
        name: String,
    },
    /// All registered set names, sorted.
    MgrSetNames,
    /// Adds dispatch counts to a set's statistics.
    MgrAddStats {
        /// Cluster-wide set name.
        name: String,
        /// Objects dispatched.
        objects: u64,
        /// Payload bytes dispatched.
        bytes: u64,
    },
    /// Puts two sets in the same replica group (`registerReplica`).
    MgrLinkReplicas {
        /// First set.
        a: String,
        /// Second set.
        b: String,
    },
    /// Members of a replica group.
    MgrGroupMembers {
        /// Raw `ReplicaGroupId`.
        group: u64,
    },
    /// All replica groups, ascending.
    MgrGroups,
    /// The statistics service: the group member organized by `key`.
    MgrBestReplica {
        /// The set whose group is consulted.
        set: String,
        /// The desired partitioning key.
        key: String,
    },
    /// Pulls the serving process's observability state: every
    /// registered metric plus the retained span ring, paginated by a
    /// pair of cursors (metric index, span sequence number) like
    /// [`Request::HashList`]/[`Request::RepairLedger`]. Subsumes the
    /// ad-hoc [`Request::Stats`] RPC, which survives as a compat view.
    MetricsDump {
        /// Index of the first metric to return (0 for the first chunk).
        metrics_start: u64,
        /// Ring sequence number of the first span to return (0 for the
        /// first chunk; evicted spans are silently skipped).
        spans_start: u64,
    },
    /// Manager-served: pulls one job's fleet-wide spans from the
    /// scrape-loop's retained store, paginated by a plain index into
    /// the job's span list (0 for the first chunk).
    TraceQuery {
        /// The job whose stitched trace is wanted.
        job: u64,
        /// Index of the first span to return.
        start: u64,
    },
    /// Client → manager: contributes locally recorded spans to the
    /// fleet span store under a display name. Drivers use this to hand
    /// over their `DriverRpc` root spans — they are transient clients
    /// the scrape loop can never reach, yet every cross-node trace is
    /// rooted in one of their rings.
    TracePush {
        /// Display name the spans are attributed to (e.g. `driver`).
        node: String,
        /// `(ring seq, span)` records, oldest first.
        spans: Vec<crate::wire::WireSpan>,
    },
}

/// A pangead → client message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Success without payload.
    Ok,
    /// Set created; carries the node-local set id.
    Created {
        /// Raw `SetId` on the serving node.
        set: u64,
    },
    /// Records appended.
    Appended {
        /// Number of records written.
        records: u64,
    },
    /// Page enumeration.
    Pages {
        /// Dense page ordinals.
        nums: Vec<u64>,
    },
    /// One page's raw bytes.
    Page {
        /// The page image.
        bytes: Vec<u8>,
    },
    /// Scanned records, in storage order.
    Records {
        /// Record payloads.
        records: Vec<Vec<u8>>,
    },
    /// Counter snapshot of the serving node.
    Stats {
        /// Payload bytes received over the wire by this server.
        net_bytes: u64,
        /// Wire messages handled.
        net_messages: u64,
        /// Bytes read from the node's disks.
        disk_read_bytes: u64,
        /// Bytes written to the node's disks.
        disk_write_bytes: u64,
        /// Peer-repair payload bytes this node moved (pushed to a peer
        /// or appended from one) during worker→worker recovery.
        repair_bytes: u64,
        /// Map-shuffle payload bytes this node moved (shipped to a peer
        /// or appended from one) during a distributed map-shuffle.
        shuffle_bytes: u64,
        /// Buffer-pool page pins satisfied from resident frames.
        paging_hits: u64,
        /// Buffer-pool page pins that had to read from disk.
        paging_misses: u64,
        /// Pages evicted from the pool to make room.
        paging_evictions: u64,
        /// Bytes written to disk by spills and dirty evictions.
        paging_spill_bytes: u64,
        /// Bytes currently resident in the buffer pool.
        pool_used_bytes: u64,
        /// Total buffer-pool capacity in bytes.
        pool_capacity_bytes: u64,
    },
    /// The operation failed on the serving node.
    Err {
        /// Display form of the remote error.
        message: String,
    },
    /// The connection failed the shared-secret handshake; decodes to
    /// [`PangeaError::Unauthenticated`] on the client.
    Denied {
        /// Why the peer was rejected.
        message: String,
    },
    /// The server is at its connection cap and refused this connection
    /// before serving anything; decodes to [`PangeaError::Busy`] on the
    /// client so callers can back off and redial without parsing prose.
    /// Handled structurally by the error conversions in this file (it
    /// never reaches a dispatch arm), which the opcode rule excludes to
    /// stay non-vacuous. // lint:allow(opcode-coverage)
    Busy {
        /// Why the connection was refused.
        message: String,
    },
    /// Worker registered (or re-registered) with the manager.
    WorkerRegistered {
        /// The assigned node slot.
        node: u32,
        /// The slot's fresh registration epoch.
        epoch: u64,
    },
    /// Membership snapshot.
    Workers {
        /// One record per known slot, ascending by node.
        workers: Vec<WireWorker>,
    },
    /// One catalog entry (or `None` when the set is unknown).
    CatalogEntry {
        /// The entry, if registered.
        entry: Option<WireCatalogEntry>,
    },
    /// A list of names (set names, group members, …), sorted by the
    /// serving operation's contract.
    Names {
        /// The names.
        names: Vec<String>,
    },
    /// A replica group id.
    Group {
        /// Raw `ReplicaGroupId`.
        group: u64,
    },
    /// All replica groups.
    Groups {
        /// Raw `ReplicaGroupId`s, ascending.
        groups: Vec<u64>,
    },
    /// An optional name (the statistics service's best-replica answer).
    MaybeName {
        /// The name, if any member matched.
        name: Option<String>,
    },
    /// A membership operation carried an out-of-date epoch; decodes to
    /// [`PangeaError::StaleEpoch`] on the client (zombie incarnations
    /// must be able to tell "replaced" from other failures).
    Stale {
        /// The node slot addressed.
        node: u32,
        /// The epoch the sender held.
        held: u64,
        /// The slot's current epoch at the manager.
        current: u64,
    },
    /// A one-shot scan reply would exceed the frame budget; decodes to
    /// [`PangeaError::ScanTooLarge`] so readers can fall back to the
    /// page-by-page `FetchPage` path without parsing error prose.
    ScanTooLarge {
        /// The set whose scan was refused.
        set: String,
        /// The per-reply byte budget.
        budget: u64,
    },
    /// A server-side record count.
    Count {
        /// Records in the set.
        records: u64,
    },
    /// Record hashes of a set (the [`Request::HashList`] reply).
    Hashes {
        /// `fx_hash64` of each record in this chunk, in storage order.
        hashes: Vec<u64>,
        /// When more records follow, the `(page, record)` cursor to
        /// resume the next chunk at.
        next: Option<(u64, u64)>,
    },
    /// Repair-session acknowledgement: what one [`Request::RecoverAppend`]
    /// batch (or, for [`Request::RecoverEnd`], the whole session)
    /// actually appended after dedup.
    RepairAck {
        /// Records appended.
        appended: u64,
        /// Payload bytes appended.
        bytes: u64,
        /// Credit grant: how many more in-flight batches the receiver's
        /// pool residency can absorb right now. `0` means "no
        /// information" (a legacy peer) — senders treat it as
        /// unconstrained; any other value caps the sender's pipeline
        /// window until the next ack revises it.
        credit: u64,
    },
    /// Outcome of one [`Request::TaskRun`] (a worker's full
    /// scan-map-route-stream pass over its local input share).
    TaskDone {
        /// Records scanned in the local input share.
        scanned: u64,
        /// Records that survived the map and were shipped.
        emitted: u64,
        /// Payload bytes shipped worker→worker.
        emitted_bytes: u64,
        /// Records the destinations appended after dedup.
        appended: u64,
        /// Payload bytes the destinations appended.
        appended_bytes: u64,
    },
    /// Ingest-session acknowledgement: what one [`Request::IngestAppend`]
    /// batch (or, for [`Request::IngestEnd`], the whole session)
    /// actually appended after tag dedup.
    IngestAck {
        /// Records appended.
        appended: u64,
        /// Payload bytes appended.
        bytes: u64,
        /// Credit grant, as in [`Response::RepairAck::credit`]: `0` is
        /// "no information", anything else caps the sender's window.
        credit: u64,
    },
    /// Outcome of one [`Request::RecoverPush`] (a survivor's full
    /// scan-filter-stream pass against the replacement).
    Pushed {
        /// Records scanned in the local source share.
        scanned: u64,
        /// Records that matched the filter and were shipped.
        pushed: u64,
        /// Payload bytes shipped worker→worker.
        pushed_bytes: u64,
        /// Records the replacement appended after dedup.
        appended: u64,
        /// Payload bytes the replacement appended.
        appended_bytes: u64,
    },
    /// One [`Request::MetricsDump`] chunk: metrics (sorted by name) and
    /// retained spans, with a resume cursor when either list has more.
    Metrics {
        /// Metric snapshots in this chunk.
        metrics: Vec<crate::wire::WireMetric>,
        /// `(ring seq, span)` records in this chunk, oldest first.
        spans: Vec<crate::wire::WireSpan>,
        /// When more remains, the `(metrics_start, spans_start)` cursor
        /// pair to resume the next chunk at.
        next: Option<(u64, u64)>,
    },
    /// One [`Request::TraceQuery`] chunk: the job's retained spans,
    /// each tagged with the node it was scraped from.
    Trace {
        /// `(node, span)` pairs in this chunk, store order.
        spans: Vec<(String, crate::wire::WireSpan)>,
        /// Fleet-wide spans known lost at query time (a worker ring
        /// wrapped past the scraper's cursor, or the store's own
        /// bounds) — nonzero means the tree may be incomplete.
        dropped: u64,
        /// When more remains, the start index to resume at.
        next: Option<u64>,
    },
}

/// Maximum hashes in one [`Response::Hashes`] chunk: 1 Mi hashes encode
/// to 12 MiB, comfortably inside [`crate::frame::MAX_FRAME`], so a hash
/// pull over a set of any size pages (by `(page, record)` cursor)
/// instead of overflowing a frame.
pub const HASH_CHUNK: usize = 1 << 20;

// Opcodes. Stable over the protocol's life; add, never renumber.
const REQ_PING: u64 = 1;
const REQ_CREATE_SET: u64 = 2;
const REQ_APPEND: u64 = 3;
const REQ_PAGE_NUMBERS: u64 = 4;
const REQ_FETCH_PAGE: u64 = 5;
const REQ_SCAN: u64 = 6;
// 7-10 were the retired driver-routed shuffle and raw delivery.
const REQ_STATS: u64 = 11;
const REQ_HELLO: u64 = 12;
const REQ_DROP_SET: u64 = 13;
const REQ_MGR_REGISTER_WORKER: u64 = 14;
const REQ_MGR_HEARTBEAT: u64 = 15;
const REQ_MGR_DEREGISTER_WORKER: u64 = 16;
const REQ_MGR_LIST_WORKERS: u64 = 17;
const REQ_MGR_REGISTER_SET: u64 = 18;
const REQ_MGR_DEREGISTER_SET: u64 = 19;
const REQ_MGR_ENTRY: u64 = 20;
const REQ_MGR_SET_NAMES: u64 = 21;
const REQ_MGR_ADD_STATS: u64 = 22;
const REQ_MGR_LINK_REPLICAS: u64 = 23;
const REQ_MGR_GROUP_MEMBERS: u64 = 24;
const REQ_MGR_GROUPS: u64 = 25;
const REQ_MGR_BEST_REPLICA: u64 = 26;
const REQ_COUNT: u64 = 27;
const REQ_HASH_LIST: u64 = 28;
const REQ_RECOVER_BEGIN: u64 = 29;
const REQ_RECOVER_APPEND: u64 = 30;
const REQ_RECOVER_END: u64 = 31;
const REQ_RECOVER_PUSH: u64 = 32;
const REQ_TASK_RUN: u64 = 33;
const REQ_INGEST_BEGIN: u64 = 34;
const REQ_INGEST_APPEND: u64 = 35;
const REQ_INGEST_END: u64 = 36;
const REQ_REPAIR_LEDGER: u64 = 37;
const REQ_METRICS_DUMP: u64 = 38;
const REQ_TRACE_QUERY: u64 = 39;
const REQ_TRACE_PUSH: u64 = 40;

const RESP_OK: u64 = 1;
const RESP_CREATED: u64 = 2;
const RESP_APPENDED: u64 = 3;
const RESP_PAGES: u64 = 4;
const RESP_PAGE: u64 = 5;
const RESP_RECORDS: u64 = 6;
// 7 was the retired raw-delivery ack.
const RESP_STATS: u64 = 8;
const RESP_ERR: u64 = 9;
const RESP_DENIED: u64 = 10;
const RESP_WORKER_REGISTERED: u64 = 11;
const RESP_WORKERS: u64 = 12;
const RESP_CATALOG_ENTRY: u64 = 13;
const RESP_NAMES: u64 = 14;
const RESP_GROUP: u64 = 15;
const RESP_GROUPS: u64 = 16;
const RESP_MAYBE_NAME: u64 = 17;
const RESP_STALE: u64 = 18;
const RESP_SCAN_TOO_LARGE: u64 = 19;
const RESP_COUNT: u64 = 20;
const RESP_HASHES: u64 = 21;
const RESP_REPAIR_ACK: u64 = 22;
const RESP_PUSHED: u64 = 23;
const RESP_TASK_DONE: u64 = 24;
const RESP_INGEST_ACK: u64 = 25;
const RESP_METRICS: u64 = 26;
const RESP_TRACE: u64 = 27;
const RESP_BUSY: u64 = 28;

/// Trailing-envelope marker for a wire-propagated [`TraceCtx`]: a
/// request payload may be followed by `(TRACE_MARK, job, span)` after
/// its last body field. Decoders that predate tracing never look past
/// the body (the protocol has always ignored trailing bytes), and
/// [`Request::decode_traced`] treats anything that fails to parse as
/// "no context" — so the envelope is both backward and forward
/// compatible with untraced peers.
const TRACE_MARK: u64 = 0x5041_4e47_4541_5443; // "PANGEATC"

fn put_list(w: &mut ByteWriter, items: &[Vec<u8>]) {
    w.write_record(&(items.len() as u64));
    for item in items {
        w.write_bytes(item);
    }
}

fn get_list(r: &mut ByteReader<'_>) -> Result<Vec<Vec<u8>>> {
    let n: u64 = r.read_record()?;
    let mut out = Vec::with_capacity(n.min(1 << 20) as usize);
    for _ in 0..n {
        out.push(r.read_bytes()?.to_vec());
    }
    Ok(out)
}

fn put_opt_u64(w: &mut ByteWriter, v: Option<u64>) {
    // 0 marks "absent"; legitimate values here (page sizes) are never 0.
    w.write_record(&v.unwrap_or(0));
}

fn get_opt_u64(r: &mut ByteReader<'_>) -> Result<Option<u64>> {
    let v: u64 = r.read_record()?;
    Ok(if v == 0 { None } else { Some(v) })
}

fn bad_opcode(kind: &str, op: u64) -> PangeaError {
    PangeaError::Corruption(format!("unknown {kind} opcode {op}"))
}

impl Request {
    /// Encodes this request into one frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        match self {
            Self::Ping => w.write_record(&REQ_PING),
            Self::CreateSet {
                name,
                durability,
                page_size,
            } => {
                w.write_record(&REQ_CREATE_SET);
                w.write_record(name);
                w.write_record(durability);
                put_opt_u64(&mut w, *page_size);
            }
            Self::Append { set, records } => {
                w.write_record(&REQ_APPEND);
                w.write_record(set);
                put_list(&mut w, records);
            }
            Self::PageNumbers { set } => {
                w.write_record(&REQ_PAGE_NUMBERS);
                w.write_record(set);
            }
            Self::FetchPage { set, num } => {
                w.write_record(&REQ_FETCH_PAGE);
                w.write_record(set);
                w.write_record(num);
            }
            Self::Scan { set } => {
                w.write_record(&REQ_SCAN);
                w.write_record(set);
            }
            Self::Stats => w.write_record(&REQ_STATS),
            Self::Hello { secret } => {
                w.write_record(&REQ_HELLO);
                w.write_record(secret);
            }
            Self::DropSet { set } => {
                w.write_record(&REQ_DROP_SET);
                w.write_record(set);
            }
            Self::Count { set } => {
                w.write_record(&REQ_COUNT);
                w.write_record(set);
            }
            Self::HashList {
                set,
                start_page,
                start_record,
            } => {
                w.write_record(&REQ_HASH_LIST);
                w.write_record(set);
                w.write_record(start_page);
                w.write_record(start_record);
            }
            Self::RecoverBegin { set, present_from } => {
                w.write_record(&REQ_RECOVER_BEGIN);
                w.write_record(set);
                w.write_record(&(present_from.len() as u64));
                for addr in present_from {
                    w.write_record(addr);
                }
            }
            Self::RecoverAppend { set, records } => {
                w.write_record(&REQ_RECOVER_APPEND);
                w.write_record(set);
                put_list(&mut w, records);
            }
            Self::RecoverEnd { set } => {
                w.write_record(&REQ_RECOVER_END);
                w.write_record(set);
            }
            Self::RecoverPush {
                source_set,
                target_set,
                target_addr,
                filter,
            } => {
                w.write_record(&REQ_RECOVER_PUSH);
                w.write_record(source_set);
                w.write_record(target_set);
                w.write_record(target_addr);
                filter.put(&mut w);
            }
            Self::TaskRun { spec } => {
                w.write_record(&REQ_TASK_RUN);
                spec.put(&mut w);
            }
            Self::IngestBegin { set, reduce } => {
                w.write_record(&REQ_INGEST_BEGIN);
                w.write_record(set);
                ReduceSpec::put_opt(reduce, &mut w);
            }
            Self::RepairLedger { set, start } => {
                w.write_record(&REQ_REPAIR_LEDGER);
                w.write_record(set);
                w.write_record(start);
            }
            Self::IngestAppend { set, entries } => {
                w.write_record(&REQ_INGEST_APPEND);
                w.write_record(set);
                w.write_record(&(entries.len() as u64));
                for (tag, rec) in entries {
                    w.write_record(tag);
                    w.write_bytes(rec);
                }
            }
            Self::IngestEnd { set } => {
                w.write_record(&REQ_INGEST_END);
                w.write_record(set);
            }
            Self::MgrRegisterWorker { addr, slot } => {
                w.write_record(&REQ_MGR_REGISTER_WORKER);
                w.write_record(addr);
                // u64::MAX marks "next free slot"; real slots are u32.
                w.write_record(&slot.unwrap_or(u64::MAX));
            }
            Self::MgrHeartbeat { node, epoch } => {
                w.write_record(&REQ_MGR_HEARTBEAT);
                w.write_record(&(*node as u64));
                w.write_record(epoch);
            }
            Self::MgrDeregisterWorker { node, epoch } => {
                w.write_record(&REQ_MGR_DEREGISTER_WORKER);
                w.write_record(&(*node as u64));
                w.write_record(epoch);
            }
            Self::MgrListWorkers => w.write_record(&REQ_MGR_LIST_WORKERS),
            Self::MgrRegisterSet { name, scheme } => {
                w.write_record(&REQ_MGR_REGISTER_SET);
                w.write_record(name);
                scheme.put(&mut w);
            }
            Self::MgrDeregisterSet { name } => {
                w.write_record(&REQ_MGR_DEREGISTER_SET);
                w.write_record(name);
            }
            Self::MgrEntry { name } => {
                w.write_record(&REQ_MGR_ENTRY);
                w.write_record(name);
            }
            Self::MgrSetNames => w.write_record(&REQ_MGR_SET_NAMES),
            Self::MgrAddStats {
                name,
                objects,
                bytes,
            } => {
                w.write_record(&REQ_MGR_ADD_STATS);
                w.write_record(name);
                w.write_record(objects);
                w.write_record(bytes);
            }
            Self::MgrLinkReplicas { a, b } => {
                w.write_record(&REQ_MGR_LINK_REPLICAS);
                w.write_record(a);
                w.write_record(b);
            }
            Self::MgrGroupMembers { group } => {
                w.write_record(&REQ_MGR_GROUP_MEMBERS);
                w.write_record(group);
            }
            Self::MgrGroups => w.write_record(&REQ_MGR_GROUPS),
            Self::MgrBestReplica { set, key } => {
                w.write_record(&REQ_MGR_BEST_REPLICA);
                w.write_record(set);
                w.write_record(key);
            }
            Self::MetricsDump {
                metrics_start,
                spans_start,
            } => {
                w.write_record(&REQ_METRICS_DUMP);
                w.write_record(metrics_start);
                w.write_record(spans_start);
            }
            Self::TraceQuery { job, start } => {
                w.write_record(&REQ_TRACE_QUERY);
                w.write_record(job);
                w.write_record(start);
            }
            Self::TracePush { node, spans } => {
                w.write_record(&REQ_TRACE_PUSH);
                w.write_record(node);
                w.write_record(&(spans.len() as u64));
                for s in spans {
                    s.put(&mut w);
                }
            }
        }
        w.into_bytes()
    }

    /// Encodes this request with an optional trailing [`TraceCtx`]
    /// envelope. With `None` this is byte-identical to
    /// [`Request::encode`]; with a context, `(marker, job, span)` is
    /// appended after the body, where untraced decoders never look.
    pub fn encode_traced(&self, ctx: Option<&TraceCtx>) -> Vec<u8> {
        let mut bytes = self.encode();
        if let Some(ctx) = ctx {
            let mut w = ByteWriter::new();
            w.write_record(&TRACE_MARK);
            w.write_record(&ctx.job);
            w.write_record(&ctx.span);
            bytes.extend_from_slice(w.as_bytes());
        }
        bytes
    }

    /// Decodes a request from one frame payload.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let mut r = ByteReader::new(bytes);
        Self::decode_from(&mut r)
    }

    /// Decodes a request and, when the payload carries a trailing
    /// [`TraceCtx`] envelope, the context. A missing, truncated, or
    /// unrecognizable envelope decodes to `None` — never an error — so
    /// frames from peers that predate tracing (or postdate this
    /// decoder) stay valid.
    pub fn decode_traced(bytes: &[u8]) -> Result<(Self, Option<TraceCtx>)> {
        let mut r = ByteReader::new(bytes);
        let req = Self::decode_from(&mut r)?;
        let ctx = read_trace(&mut r);
        Ok((req, ctx))
    }

    fn decode_from(r: &mut ByteReader<'_>) -> Result<Self> {
        let op: u64 = r.read_record()?;
        Ok(match op {
            REQ_PING => Self::Ping,
            REQ_CREATE_SET => Self::CreateSet {
                name: r.read_record()?,
                durability: r.read_record()?,
                page_size: get_opt_u64(r)?,
            },
            REQ_APPEND => Self::Append {
                set: r.read_record()?,
                records: get_list(r)?,
            },
            REQ_PAGE_NUMBERS => Self::PageNumbers {
                set: r.read_record()?,
            },
            REQ_FETCH_PAGE => Self::FetchPage {
                set: r.read_record()?,
                num: r.read_record()?,
            },
            REQ_SCAN => Self::Scan {
                set: r.read_record()?,
            },
            REQ_STATS => Self::Stats,
            REQ_HELLO => Self::Hello {
                secret: r.read_record()?,
            },
            REQ_DROP_SET => Self::DropSet {
                set: r.read_record()?,
            },
            REQ_COUNT => Self::Count {
                set: r.read_record()?,
            },
            REQ_HASH_LIST => Self::HashList {
                set: r.read_record()?,
                start_page: r.read_record()?,
                start_record: r.read_record()?,
            },
            REQ_RECOVER_BEGIN => {
                let set = r.read_record()?;
                let n: u64 = r.read_record()?;
                let mut present_from = Vec::with_capacity(n.min(1 << 20) as usize);
                for _ in 0..n {
                    present_from.push(r.read_record()?);
                }
                Self::RecoverBegin { set, present_from }
            }
            REQ_RECOVER_APPEND => Self::RecoverAppend {
                set: r.read_record()?,
                records: get_list(r)?,
            },
            REQ_RECOVER_END => Self::RecoverEnd {
                set: r.read_record()?,
            },
            REQ_RECOVER_PUSH => Self::RecoverPush {
                source_set: r.read_record()?,
                target_set: r.read_record()?,
                target_addr: r.read_record()?,
                filter: RepairFilter::get(r)?,
            },
            REQ_TASK_RUN => Self::TaskRun {
                spec: TaskSpec::get(r)?,
            },
            REQ_INGEST_BEGIN => Self::IngestBegin {
                set: r.read_record()?,
                reduce: ReduceSpec::get_opt(r)?,
            },
            REQ_REPAIR_LEDGER => Self::RepairLedger {
                set: r.read_record()?,
                start: r.read_record()?,
            },
            REQ_INGEST_APPEND => {
                let set = r.read_record()?;
                let n: u64 = r.read_record()?;
                let mut entries = Vec::with_capacity(n.min(1 << 20) as usize);
                for _ in 0..n {
                    let tag: u64 = r.read_record()?;
                    entries.push((tag, r.read_bytes()?.to_vec()));
                }
                Self::IngestAppend { set, entries }
            }
            REQ_INGEST_END => Self::IngestEnd {
                set: r.read_record()?,
            },
            REQ_MGR_REGISTER_WORKER => {
                let addr = r.read_record()?;
                let slot: u64 = r.read_record()?;
                Self::MgrRegisterWorker {
                    addr,
                    slot: (slot != u64::MAX).then_some(slot),
                }
            }
            REQ_MGR_HEARTBEAT => Self::MgrHeartbeat {
                node: r.read_record::<u64>()? as u32,
                epoch: r.read_record()?,
            },
            REQ_MGR_DEREGISTER_WORKER => Self::MgrDeregisterWorker {
                node: r.read_record::<u64>()? as u32,
                epoch: r.read_record()?,
            },
            REQ_MGR_LIST_WORKERS => Self::MgrListWorkers,
            REQ_MGR_REGISTER_SET => Self::MgrRegisterSet {
                name: r.read_record()?,
                scheme: SchemeSpec::get(r)?,
            },
            REQ_MGR_DEREGISTER_SET => Self::MgrDeregisterSet {
                name: r.read_record()?,
            },
            REQ_MGR_ENTRY => Self::MgrEntry {
                name: r.read_record()?,
            },
            REQ_MGR_SET_NAMES => Self::MgrSetNames,
            REQ_MGR_ADD_STATS => Self::MgrAddStats {
                name: r.read_record()?,
                objects: r.read_record()?,
                bytes: r.read_record()?,
            },
            REQ_MGR_LINK_REPLICAS => Self::MgrLinkReplicas {
                a: r.read_record()?,
                b: r.read_record()?,
            },
            REQ_MGR_GROUP_MEMBERS => Self::MgrGroupMembers {
                group: r.read_record()?,
            },
            REQ_MGR_GROUPS => Self::MgrGroups,
            REQ_MGR_BEST_REPLICA => Self::MgrBestReplica {
                set: r.read_record()?,
                key: r.read_record()?,
            },
            REQ_METRICS_DUMP => Self::MetricsDump {
                metrics_start: r.read_record()?,
                spans_start: r.read_record()?,
            },
            REQ_TRACE_QUERY => Self::TraceQuery {
                job: r.read_record()?,
                start: r.read_record()?,
            },
            REQ_TRACE_PUSH => {
                let node = r.read_record()?;
                let n: u64 = r.read_record()?;
                let mut spans = Vec::with_capacity(n.min(1 << 20) as usize);
                for _ in 0..n {
                    spans.push(crate::wire::WireSpan::get(r)?);
                }
                Self::TracePush { node, spans }
            }
            other => return Err(bad_opcode("request", other)),
        })
    }

    /// This request's opcode name — the per-opcode label the metrics
    /// registry and span records key on (`rpc.count.TaskRun`, ...).
    pub fn name(&self) -> &'static str {
        match self {
            Self::Ping => "Ping",
            Self::CreateSet { .. } => "CreateSet",
            Self::Append { .. } => "Append",
            Self::PageNumbers { .. } => "PageNumbers",
            Self::FetchPage { .. } => "FetchPage",
            Self::Scan { .. } => "Scan",
            Self::Stats => "Stats",
            Self::Hello { .. } => "Hello",
            Self::DropSet { .. } => "DropSet",
            Self::Count { .. } => "Count",
            Self::HashList { .. } => "HashList",
            Self::RecoverBegin { .. } => "RecoverBegin",
            Self::RecoverAppend { .. } => "RecoverAppend",
            Self::RecoverEnd { .. } => "RecoverEnd",
            Self::RepairLedger { .. } => "RepairLedger",
            Self::RecoverPush { .. } => "RecoverPush",
            Self::TaskRun { .. } => "TaskRun",
            Self::IngestBegin { .. } => "IngestBegin",
            Self::IngestAppend { .. } => "IngestAppend",
            Self::IngestEnd { .. } => "IngestEnd",
            Self::MgrRegisterWorker { .. } => "MgrRegisterWorker",
            Self::MgrHeartbeat { .. } => "MgrHeartbeat",
            Self::MgrDeregisterWorker { .. } => "MgrDeregisterWorker",
            Self::MgrListWorkers => "MgrListWorkers",
            Self::MgrRegisterSet { .. } => "MgrRegisterSet",
            Self::MgrDeregisterSet { .. } => "MgrDeregisterSet",
            Self::MgrEntry { .. } => "MgrEntry",
            Self::MgrSetNames => "MgrSetNames",
            Self::MgrAddStats { .. } => "MgrAddStats",
            Self::MgrLinkReplicas { .. } => "MgrLinkReplicas",
            Self::MgrGroupMembers { .. } => "MgrGroupMembers",
            Self::MgrGroups => "MgrGroups",
            Self::MgrBestReplica { .. } => "MgrBestReplica",
            Self::MetricsDump { .. } => "MetricsDump",
            Self::TraceQuery { .. } => "TraceQuery",
            Self::TracePush { .. } => "TracePush",
        }
    }
}

/// Attempts to read a trailing trace envelope; anything short of a
/// complete, marked `(TRACE_MARK, job, span)` triple is `None`.
fn read_trace(r: &mut ByteReader<'_>) -> Option<TraceCtx> {
    if r.is_exhausted() {
        return None;
    }
    let mark: u64 = r.read_record().ok()?;
    if mark != TRACE_MARK {
        return None;
    }
    let job = r.read_record().ok()?;
    let span = r.read_record().ok()?;
    Some(TraceCtx { job, span })
}

impl Response {
    /// Encodes this response into one frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        match self {
            Self::Ok => w.write_record(&RESP_OK),
            Self::Created { set } => {
                w.write_record(&RESP_CREATED);
                w.write_record(set);
            }
            Self::Appended { records } => {
                w.write_record(&RESP_APPENDED);
                w.write_record(records);
            }
            Self::Pages { nums } => {
                w.write_record(&RESP_PAGES);
                w.write_record(&(nums.len() as u64));
                for n in nums {
                    w.write_record(n);
                }
            }
            Self::Page { bytes } => {
                w.write_record(&RESP_PAGE);
                w.write_bytes(bytes);
            }
            Self::Records { records } => {
                w.write_record(&RESP_RECORDS);
                put_list(&mut w, records);
            }
            Self::Stats {
                net_bytes,
                net_messages,
                disk_read_bytes,
                disk_write_bytes,
                repair_bytes,
                shuffle_bytes,
                paging_hits,
                paging_misses,
                paging_evictions,
                paging_spill_bytes,
                pool_used_bytes,
                pool_capacity_bytes,
            } => {
                w.write_record(&RESP_STATS);
                w.write_record(net_bytes);
                w.write_record(net_messages);
                w.write_record(disk_read_bytes);
                w.write_record(disk_write_bytes);
                w.write_record(repair_bytes);
                w.write_record(shuffle_bytes);
                w.write_record(paging_hits);
                w.write_record(paging_misses);
                w.write_record(paging_evictions);
                w.write_record(paging_spill_bytes);
                w.write_record(pool_used_bytes);
                w.write_record(pool_capacity_bytes);
            }
            Self::Err { message } => {
                w.write_record(&RESP_ERR);
                w.write_record(message);
            }
            Self::Denied { message } => {
                w.write_record(&RESP_DENIED);
                w.write_record(message);
            }
            Self::Busy { message } => {
                w.write_record(&RESP_BUSY);
                w.write_record(message);
            }
            Self::WorkerRegistered { node, epoch } => {
                w.write_record(&RESP_WORKER_REGISTERED);
                w.write_record(&(*node as u64));
                w.write_record(epoch);
            }
            Self::Workers { workers } => {
                w.write_record(&RESP_WORKERS);
                w.write_record(&(workers.len() as u64));
                for wk in workers {
                    wk.put(&mut w);
                }
            }
            Self::CatalogEntry { entry } => {
                w.write_record(&RESP_CATALOG_ENTRY);
                w.write_record(&(entry.is_some() as u64));
                if let Some(e) = entry {
                    e.put(&mut w);
                }
            }
            Self::Names { names } => {
                w.write_record(&RESP_NAMES);
                w.write_record(&(names.len() as u64));
                for n in names {
                    w.write_record(n);
                }
            }
            Self::Group { group } => {
                w.write_record(&RESP_GROUP);
                w.write_record(group);
            }
            Self::Groups { groups } => {
                w.write_record(&RESP_GROUPS);
                w.write_record(&(groups.len() as u64));
                for g in groups {
                    w.write_record(g);
                }
            }
            Self::MaybeName { name } => {
                w.write_record(&RESP_MAYBE_NAME);
                w.write_record(&(name.is_some() as u64));
                if let Some(n) = name {
                    w.write_record(n);
                }
            }
            Self::Stale {
                node,
                held,
                current,
            } => {
                w.write_record(&RESP_STALE);
                w.write_record(&(*node as u64));
                w.write_record(held);
                w.write_record(current);
            }
            Self::ScanTooLarge { set, budget } => {
                w.write_record(&RESP_SCAN_TOO_LARGE);
                w.write_record(set);
                w.write_record(budget);
            }
            Self::Count { records } => {
                w.write_record(&RESP_COUNT);
                w.write_record(records);
            }
            Self::Hashes { hashes, next } => {
                w.write_record(&RESP_HASHES);
                w.write_record(&(next.is_some() as u64));
                if let Some((page, record)) = next {
                    w.write_record(page);
                    w.write_record(record);
                }
                w.write_record(&(hashes.len() as u64));
                for h in hashes {
                    w.write_record(h);
                }
            }
            Self::RepairAck {
                appended,
                bytes,
                credit,
            } => {
                w.write_record(&RESP_REPAIR_ACK);
                w.write_record(appended);
                w.write_record(bytes);
                // Trailing field: pre-credit decoders never read past
                // `bytes` (the protocol has always ignored trailing
                // bytes), and a pre-credit *encoder*'s reply decodes as
                // credit 0 ("no information").
                w.write_record(credit);
            }
            Self::Pushed {
                scanned,
                pushed,
                pushed_bytes,
                appended,
                appended_bytes,
            } => {
                w.write_record(&RESP_PUSHED);
                w.write_record(scanned);
                w.write_record(pushed);
                w.write_record(pushed_bytes);
                w.write_record(appended);
                w.write_record(appended_bytes);
            }
            Self::TaskDone {
                scanned,
                emitted,
                emitted_bytes,
                appended,
                appended_bytes,
            } => {
                w.write_record(&RESP_TASK_DONE);
                w.write_record(scanned);
                w.write_record(emitted);
                w.write_record(emitted_bytes);
                w.write_record(appended);
                w.write_record(appended_bytes);
            }
            Self::IngestAck {
                appended,
                bytes,
                credit,
            } => {
                w.write_record(&RESP_INGEST_ACK);
                w.write_record(appended);
                w.write_record(bytes);
                w.write_record(credit);
            }
            Self::Metrics {
                metrics,
                spans,
                next,
            } => {
                w.write_record(&RESP_METRICS);
                w.write_record(&u64::from(next.is_some()));
                if let Some((m, s)) = next {
                    w.write_record(m);
                    w.write_record(s);
                }
                w.write_record(&(metrics.len() as u64));
                for m in metrics {
                    m.put(&mut w);
                }
                w.write_record(&(spans.len() as u64));
                for s in spans {
                    s.put(&mut w);
                }
            }
            Self::Trace {
                spans,
                dropped,
                next,
            } => {
                w.write_record(&RESP_TRACE);
                w.write_record(dropped);
                w.write_record(&u64::from(next.is_some()));
                if let Some(n) = next {
                    w.write_record(n);
                }
                w.write_record(&(spans.len() as u64));
                for (node, s) in spans {
                    w.write_record(node);
                    s.put(&mut w);
                }
            }
        }
        w.into_bytes()
    }

    /// Decodes a response from one frame payload.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let mut r = ByteReader::new(bytes);
        let op: u64 = r.read_record()?;
        Ok(match op {
            RESP_OK => Self::Ok,
            RESP_CREATED => Self::Created {
                set: r.read_record()?,
            },
            RESP_APPENDED => Self::Appended {
                records: r.read_record()?,
            },
            RESP_PAGES => {
                let n: u64 = r.read_record()?;
                let mut nums = Vec::with_capacity(n.min(1 << 20) as usize);
                for _ in 0..n {
                    nums.push(r.read_record()?);
                }
                Self::Pages { nums }
            }
            RESP_PAGE => Self::Page {
                bytes: r.read_bytes()?.to_vec(),
            },
            RESP_RECORDS => Self::Records {
                records: get_list(&mut r)?,
            },
            RESP_STATS => Self::Stats {
                net_bytes: r.read_record()?,
                net_messages: r.read_record()?,
                disk_read_bytes: r.read_record()?,
                disk_write_bytes: r.read_record()?,
                repair_bytes: r.read_record()?,
                shuffle_bytes: r.read_record()?,
                paging_hits: r.read_record()?,
                paging_misses: r.read_record()?,
                paging_evictions: r.read_record()?,
                paging_spill_bytes: r.read_record()?,
                pool_used_bytes: r.read_record()?,
                pool_capacity_bytes: r.read_record()?,
            },
            RESP_ERR => Self::Err {
                message: r.read_record()?,
            },
            RESP_DENIED => Self::Denied {
                message: r.read_record()?,
            },
            RESP_BUSY => Self::Busy {
                message: r.read_record()?,
            },
            RESP_WORKER_REGISTERED => Self::WorkerRegistered {
                node: r.read_record::<u64>()? as u32,
                epoch: r.read_record()?,
            },
            RESP_WORKERS => {
                let n: u64 = r.read_record()?;
                let mut workers = Vec::with_capacity(n.min(1 << 20) as usize);
                for _ in 0..n {
                    workers.push(WireWorker::get(&mut r)?);
                }
                Self::Workers { workers }
            }
            RESP_CATALOG_ENTRY => {
                let present: u64 = r.read_record()?;
                Self::CatalogEntry {
                    entry: if present != 0 {
                        Some(WireCatalogEntry::get(&mut r)?)
                    } else {
                        None
                    },
                }
            }
            RESP_NAMES => {
                let n: u64 = r.read_record()?;
                let mut names = Vec::with_capacity(n.min(1 << 20) as usize);
                for _ in 0..n {
                    names.push(r.read_record()?);
                }
                Self::Names { names }
            }
            RESP_GROUP => Self::Group {
                group: r.read_record()?,
            },
            RESP_GROUPS => {
                let n: u64 = r.read_record()?;
                let mut groups = Vec::with_capacity(n.min(1 << 20) as usize);
                for _ in 0..n {
                    groups.push(r.read_record()?);
                }
                Self::Groups { groups }
            }
            RESP_MAYBE_NAME => {
                let present: u64 = r.read_record()?;
                Self::MaybeName {
                    name: if present != 0 {
                        Some(r.read_record()?)
                    } else {
                        None
                    },
                }
            }
            RESP_STALE => Self::Stale {
                node: r.read_record::<u64>()? as u32,
                held: r.read_record()?,
                current: r.read_record()?,
            },
            RESP_SCAN_TOO_LARGE => Self::ScanTooLarge {
                set: r.read_record()?,
                budget: r.read_record()?,
            },
            RESP_COUNT => Self::Count {
                records: r.read_record()?,
            },
            RESP_HASHES => {
                let has_next: u64 = r.read_record()?;
                let next = if has_next != 0 {
                    Some((r.read_record()?, r.read_record()?))
                } else {
                    None
                };
                let n: u64 = r.read_record()?;
                let mut hashes = Vec::with_capacity(n.min(1 << 20) as usize);
                for _ in 0..n {
                    hashes.push(r.read_record()?);
                }
                Self::Hashes { hashes, next }
            }
            RESP_REPAIR_ACK => Self::RepairAck {
                appended: r.read_record()?,
                bytes: r.read_record()?,
                credit: if r.is_exhausted() {
                    0
                } else {
                    r.read_record()?
                },
            },
            RESP_PUSHED => Self::Pushed {
                scanned: r.read_record()?,
                pushed: r.read_record()?,
                pushed_bytes: r.read_record()?,
                appended: r.read_record()?,
                appended_bytes: r.read_record()?,
            },
            RESP_TASK_DONE => Self::TaskDone {
                scanned: r.read_record()?,
                emitted: r.read_record()?,
                emitted_bytes: r.read_record()?,
                appended: r.read_record()?,
                appended_bytes: r.read_record()?,
            },
            RESP_INGEST_ACK => Self::IngestAck {
                appended: r.read_record()?,
                bytes: r.read_record()?,
                credit: if r.is_exhausted() {
                    0
                } else {
                    r.read_record()?
                },
            },
            RESP_METRICS => {
                let has_next: u64 = r.read_record()?;
                let next = if has_next != 0 {
                    Some((r.read_record()?, r.read_record()?))
                } else {
                    None
                };
                let n: u64 = r.read_record()?;
                let mut metrics = Vec::with_capacity(n.min(1 << 20) as usize);
                for _ in 0..n {
                    metrics.push(crate::wire::WireMetric::get(&mut r)?);
                }
                let n: u64 = r.read_record()?;
                let mut spans = Vec::with_capacity(n.min(1 << 20) as usize);
                for _ in 0..n {
                    spans.push(crate::wire::WireSpan::get(&mut r)?);
                }
                Self::Metrics {
                    metrics,
                    spans,
                    next,
                }
            }
            RESP_TRACE => {
                let dropped = r.read_record()?;
                let has_next: u64 = r.read_record()?;
                let next = if has_next != 0 {
                    Some(r.read_record()?)
                } else {
                    None
                };
                let n: u64 = r.read_record()?;
                let mut spans = Vec::with_capacity(n.min(1 << 20) as usize);
                for _ in 0..n {
                    let node = r.read_record()?;
                    spans.push((node, crate::wire::WireSpan::get(&mut r)?));
                }
                Self::Trace {
                    spans,
                    dropped,
                    next,
                }
            }
            other => return Err(bad_opcode("response", other)),
        })
    }

    /// Converts an error response into `Err`, passing others through.
    /// Errors with a wire opcode of their own come back as their typed
    /// [`PangeaError`] variant; everything else collapses to `Remote`.
    pub fn into_result(self) -> Result<Response> {
        match self {
            Self::Err { message } => Err(PangeaError::Remote(message)),
            Self::Denied { message } => Err(PangeaError::Unauthenticated(message)),
            Self::Busy { message } => Err(PangeaError::Busy(message)),
            Self::Stale {
                node,
                held,
                current,
            } => Err(PangeaError::StaleEpoch {
                node: pangea_common::NodeId(node),
                held: pangea_common::Epoch(held),
                current: pangea_common::Epoch(current),
            }),
            Self::ScanTooLarge { set, budget } => Err(PangeaError::ScanTooLarge { set, budget }),
            other => Ok(other),
        }
    }
}

/// Encodes a [`PangeaError`] as the wire error response. Kinds clients
/// dispatch on (authentication, epoch staleness, scan overflow) keep
/// their own opcodes so the client-side error stays typed.
pub fn error_response(e: &PangeaError) -> Response {
    match e {
        PangeaError::Unauthenticated(m) => Response::Denied { message: m.clone() },
        PangeaError::Busy(m) => Response::Busy { message: m.clone() },
        PangeaError::StaleEpoch {
            node,
            held,
            current,
        } => Response::Stale {
            node: node.raw(),
            held: held.raw(),
            current: current.raw(),
        },
        PangeaError::ScanTooLarge { set, budget } => Response::ScanTooLarge {
            set: set.clone(),
            budget: *budget,
        },
        other => Response::Err {
            message: other.to_string(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{WireMetric, WireSpan};

    fn roundtrip_req(r: Request) {
        assert_eq!(Request::decode(&r.encode()).unwrap(), r);
    }

    fn roundtrip_resp(r: Response) {
        assert_eq!(Response::decode(&r.encode()).unwrap(), r);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_req(Request::Ping);
        roundtrip_req(Request::CreateSet {
            name: "events".into(),
            durability: "write-back".into(),
            page_size: Some(4096),
        });
        roundtrip_req(Request::CreateSet {
            name: "u".into(),
            durability: "write-through".into(),
            page_size: None,
        });
        roundtrip_req(Request::Append {
            set: "events".into(),
            records: vec![b"a".to_vec(), vec![], b"ccc".to_vec()],
        });
        roundtrip_req(Request::PageNumbers { set: "s".into() });
        roundtrip_req(Request::FetchPage {
            set: "s".into(),
            num: 17,
        });
        roundtrip_req(Request::Scan { set: "s".into() });
        roundtrip_req(Request::Stats);
        roundtrip_req(Request::Hello {
            secret: "deployment-secret".into(),
        });
        roundtrip_req(Request::DropSet { set: "gone".into() });
        roundtrip_req(Request::Count { set: "s".into() });
        roundtrip_resp(Response::Count { records: 12345 });
    }

    #[test]
    fn recovery_messages_roundtrip() {
        roundtrip_req(Request::HashList {
            set: "users".into(),
            start_page: 0,
            start_record: 0,
        });
        roundtrip_req(Request::HashList {
            set: "users".into(),
            start_page: 17,
            start_record: 1 << 20,
        });
        roundtrip_req(Request::RecoverBegin {
            set: "users".into(),
            present_from: vec![],
        });
        roundtrip_req(Request::RecoverBegin {
            set: "users".into(),
            present_from: vec!["127.0.0.1:7781".into(), "127.0.0.1:7782".into()],
        });
        roundtrip_req(Request::RecoverAppend {
            set: "users".into(),
            records: vec![b"a|1".to_vec(), vec![], b"b|2".to_vec()],
        });
        roundtrip_req(Request::RecoverEnd {
            set: "users".into(),
        });
        roundtrip_req(Request::RecoverPush {
            source_set: "users_f1".into(),
            target_set: "users".into(),
            target_addr: "127.0.0.1:7783".into(),
            filter: crate::wire::RepairFilter::All,
        });
        roundtrip_req(Request::RecoverPush {
            source_set: "users_f1".into(),
            target_set: "users".into(),
            target_addr: "127.0.0.1:7783".into(),
            filter: crate::wire::RepairFilter::Lost {
                scheme: crate::wire::SchemeSpec::Hash {
                    key_name: "uid".into(),
                    partitions: 6,
                    key: crate::wire::KeySpec::WholeRecord,
                },
                failed: 2,
                nodes: 4,
            },
        });
        roundtrip_resp(Response::Hashes {
            hashes: vec![],
            next: None,
        });
        roundtrip_resp(Response::Hashes {
            hashes: vec![1, u64::MAX, 42],
            next: Some((9, 123)),
        });
        roundtrip_resp(Response::RepairAck {
            appended: 10,
            bytes: 1000,
            credit: 0,
        });
        roundtrip_resp(Response::RepairAck {
            appended: 10,
            bytes: 1000,
            credit: 8,
        });
        roundtrip_resp(Response::Pushed {
            scanned: 100,
            pushed: 40,
            pushed_bytes: 4000,
            appended: 38,
            appended_bytes: 3800,
        });
    }

    #[test]
    fn map_shuffle_messages_roundtrip() {
        use crate::wire::{EmitSpec, FilterSpec, KeySpec, MapSpec, SchemeSpec};
        let spec = crate::wire::TaskSpec {
            input: "lines".into(),
            output: "words".into(),
            map: MapSpec {
                filter: Some(FilterSpec::KeyEquals {
                    key: KeySpec::Field {
                        delim: b'|',
                        index: 0,
                    },
                    value: b"7".to_vec(),
                }),
                emit: EmitSpec::Fields {
                    delim: b'|',
                    indices: vec![1, 2],
                },
            },
            reduce: Some(crate::wire::ReduceSpec::sum(KeySpec::WholeRecord, b'|', 1)),
            scheme: SchemeSpec::Hash {
                key_name: "word".into(),
                partitions: 8,
                key: KeySpec::WholeRecord,
            },
            nodes: 4,
            source: 1,
            dests: vec![(0, "127.0.0.1:7781".into()), (2, "127.0.0.1:7783".into())],
        };
        roundtrip_req(Request::TaskRun { spec });
        roundtrip_req(Request::IngestBegin {
            set: "words".into(),
            reduce: None,
        });
        roundtrip_req(Request::IngestBegin {
            set: "counts".into(),
            reduce: Some(crate::wire::ReduceSpec::count(KeySpec::WholeRecord, b'|')),
        });
        roundtrip_req(Request::RepairLedger {
            set: "users".into(),
            start: 1 << 20,
        });
        roundtrip_req(Request::IngestAppend {
            set: "words".into(),
            entries: vec![(7, b"the".to_vec()), (9, vec![]), (7, b"the".to_vec())],
        });
        roundtrip_req(Request::IngestEnd {
            set: "words".into(),
        });
        roundtrip_resp(Response::TaskDone {
            scanned: 100,
            emitted: 60,
            emitted_bytes: 600,
            appended: 60,
            appended_bytes: 600,
        });
        roundtrip_resp(Response::IngestAck {
            appended: 12,
            bytes: 340,
            credit: 0,
        });
        roundtrip_resp(Response::IngestAck {
            appended: 12,
            bytes: 340,
            credit: 3,
        });
    }

    #[test]
    fn creditless_acks_decode_as_credit_zero() {
        // A pre-credit peer stops writing after `bytes`; the tolerant
        // decoder reads that as "no information".
        for (op, resp) in [
            (
                RESP_REPAIR_ACK,
                Response::RepairAck {
                    appended: 4,
                    bytes: 77,
                    credit: 0,
                },
            ),
            (
                RESP_INGEST_ACK,
                Response::IngestAck {
                    appended: 4,
                    bytes: 77,
                    credit: 0,
                },
            ),
        ] {
            let mut w = pangea_common::codec::ByteWriter::new();
            w.write_record(&op);
            w.write_record(&4u64);
            w.write_record(&77u64);
            assert_eq!(Response::decode(w.as_bytes()).unwrap(), resp);
        }
    }

    #[test]
    fn busy_roundtrips_and_is_typed() {
        roundtrip_resp(Response::Busy {
            message: "at connection cap".into(),
        });
        let err = Response::Busy {
            message: "at connection cap".into(),
        }
        .into_result()
        .unwrap_err();
        assert!(matches!(err, PangeaError::Busy(_)));
        assert!(matches!(
            error_response(&PangeaError::Busy("full".into())),
            Response::Busy { .. }
        ));
    }

    #[test]
    fn truncated_task_run_is_an_error() {
        use crate::wire::{KeySpec, MapSpec, SchemeSpec};
        let enc = Request::TaskRun {
            spec: crate::wire::TaskSpec {
                input: "in".into(),
                output: "out".into(),
                map: MapSpec::extract(KeySpec::Field {
                    delim: b'|',
                    index: 1,
                }),
                reduce: None,
                scheme: SchemeSpec::RoundRobin { partitions: 3 },
                nodes: 3,
                source: 0,
                dests: vec![(0, "127.0.0.1:1".into()), (1, "127.0.0.1:2".into())],
            },
        }
        .encode();
        for cut in 1..enc.len() {
            assert!(
                Request::decode(&enc[..cut]).is_err(),
                "truncation at {cut} must not decode"
            );
        }
    }

    #[test]
    fn truncated_recovery_messages_are_errors() {
        let enc = Request::RecoverPush {
            source_set: "src".into(),
            target_set: "tgt".into(),
            target_addr: "127.0.0.1:7783".into(),
            filter: crate::wire::RepairFilter::Lost {
                scheme: crate::wire::SchemeSpec::Hash {
                    key_name: "k".into(),
                    partitions: 3,
                    key: crate::wire::KeySpec::Field {
                        delim: b'|',
                        index: 1,
                    },
                },
                failed: 1,
                nodes: 3,
            },
        }
        .encode();
        for cut in 1..enc.len() {
            assert!(
                Request::decode(&enc[..cut]).is_err(),
                "truncation at {cut} must not decode"
            );
        }
    }

    #[test]
    fn manager_requests_roundtrip() {
        roundtrip_req(Request::MgrRegisterWorker {
            addr: "127.0.0.1:7781".into(),
            slot: None,
        });
        roundtrip_req(Request::MgrRegisterWorker {
            addr: "127.0.0.1:7782".into(),
            slot: Some(2),
        });
        roundtrip_req(Request::MgrHeartbeat { node: 1, epoch: 4 });
        roundtrip_req(Request::MgrDeregisterWorker { node: 1, epoch: 4 });
        roundtrip_req(Request::MgrListWorkers);
        roundtrip_req(Request::MgrRegisterSet {
            name: "lineitem".into(),
            scheme: crate::wire::SchemeSpec::Hash {
                key_name: "l_orderkey".into(),
                partitions: 8,
                key: crate::wire::KeySpec::Field {
                    delim: b'|',
                    index: 0,
                },
            },
        });
        roundtrip_req(Request::MgrDeregisterSet {
            name: "lineitem".into(),
        });
        roundtrip_req(Request::MgrEntry {
            name: "lineitem".into(),
        });
        roundtrip_req(Request::MgrSetNames);
        roundtrip_req(Request::MgrAddStats {
            name: "lineitem".into(),
            objects: 10,
            bytes: 1000,
        });
        roundtrip_req(Request::MgrLinkReplicas {
            a: "x".into(),
            b: "y".into(),
        });
        roundtrip_req(Request::MgrGroupMembers { group: 3 });
        roundtrip_req(Request::MgrGroups);
        roundtrip_req(Request::MgrBestReplica {
            set: "lineitem".into(),
            key: "l_partkey".into(),
        });
    }

    #[test]
    fn manager_responses_roundtrip() {
        roundtrip_resp(Response::Denied {
            message: "bad secret".into(),
        });
        roundtrip_resp(Response::WorkerRegistered { node: 2, epoch: 5 });
        roundtrip_resp(Response::Workers {
            workers: vec![crate::wire::WireWorker {
                node: 0,
                addr: "127.0.0.1:9000".into(),
                epoch: 1,
                state: crate::wire::WorkerState::Alive,
            }],
        });
        roundtrip_resp(Response::CatalogEntry { entry: None });
        roundtrip_resp(Response::CatalogEntry {
            entry: Some(crate::wire::WireCatalogEntry {
                name: "s".into(),
                scheme: crate::wire::SchemeSpec::RoundRobin { partitions: 3 },
                group: Some(1),
                objects: 7,
                bytes: 70,
            }),
        });
        roundtrip_resp(Response::Names {
            names: vec!["a".into(), "b".into()],
        });
        roundtrip_resp(Response::Group { group: 9 });
        roundtrip_resp(Response::Groups { groups: vec![1, 2] });
        roundtrip_resp(Response::MaybeName { name: None });
        roundtrip_resp(Response::MaybeName {
            name: Some("replica".into()),
        });
        roundtrip_resp(Response::Stale {
            node: 1,
            held: 3,
            current: 7,
        });
        roundtrip_resp(Response::ScanTooLarge {
            set: "big".into(),
            budget: 1 << 25,
        });
    }

    #[test]
    fn typed_errors_survive_the_wire() {
        use pangea_common::{Epoch, NodeId};
        let stale = PangeaError::StaleEpoch {
            node: NodeId(2),
            held: Epoch(4),
            current: Epoch(9),
        };
        match error_response(&stale).into_result() {
            Err(PangeaError::StaleEpoch {
                node,
                held,
                current,
            }) => assert_eq!((node, held, current), (NodeId(2), Epoch(4), Epoch(9))),
            other => panic!("{other:?}"),
        }
        let too_large = PangeaError::ScanTooLarge {
            set: "events".into(),
            budget: 42,
        };
        match error_response(&too_large).into_result() {
            Err(PangeaError::ScanTooLarge { set, budget }) => {
                assert_eq!((set.as_str(), budget), ("events", 42));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn denied_converts_to_unauthenticated() {
        let resp = error_response(&PangeaError::Unauthenticated("no hello".into()));
        match resp.into_result() {
            Err(PangeaError::Unauthenticated(m)) => assert!(m.contains("no hello")),
            other => panic!("expected Unauthenticated, got {other:?}"),
        }
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_resp(Response::Ok);
        roundtrip_resp(Response::Created { set: 9 });
        roundtrip_resp(Response::Appended { records: 1000 });
        roundtrip_resp(Response::Pages {
            nums: vec![0, 1, 2, 9],
        });
        roundtrip_resp(Response::Page {
            bytes: vec![7; 4096],
        });
        roundtrip_resp(Response::Records {
            records: vec![b"x".to_vec(), b"yy".to_vec()],
        });
        roundtrip_resp(Response::Stats {
            net_bytes: 1,
            net_messages: 2,
            disk_read_bytes: 3,
            disk_write_bytes: 4,
            repair_bytes: 5,
            shuffle_bytes: 6,
            paging_hits: 7,
            paging_misses: 8,
            paging_evictions: 9,
            paging_spill_bytes: 10,
            pool_used_bytes: 11,
            pool_capacity_bytes: 12,
        });
        roundtrip_resp(Response::Err {
            message: "set 'x' missing".into(),
        });
    }

    #[test]
    fn unknown_opcodes_are_corruption() {
        let mut w = pangea_common::ByteWriter::new();
        w.write_record(&999u64);
        assert!(matches!(
            Request::decode(w.as_bytes()),
            Err(PangeaError::Corruption(_))
        ));
        assert!(matches!(
            Response::decode(w.as_bytes()),
            Err(PangeaError::Corruption(_))
        ));
    }

    #[test]
    fn truncated_message_is_an_error() {
        let enc = Request::Append {
            set: "s".into(),
            records: vec![b"abc".to_vec()],
        }
        .encode();
        for cut in 1..enc.len() {
            assert!(
                Request::decode(&enc[..cut]).is_err(),
                "truncation at {cut} must not decode"
            );
        }
    }

    #[test]
    fn metrics_dump_and_metrics_roundtrip() {
        roundtrip_req(Request::MetricsDump {
            metrics_start: 0,
            spans_start: 0,
        });
        roundtrip_req(Request::MetricsDump {
            metrics_start: 512,
            spans_start: u64::MAX,
        });
        roundtrip_resp(Response::Metrics {
            metrics: vec![],
            spans: vec![],
            next: None,
        });
        roundtrip_resp(Response::Metrics {
            metrics: vec![
                WireMetric::Counter {
                    name: "rpc.count.Ping".into(),
                    value: 42,
                },
                WireMetric::Gauge {
                    name: "sessions.ingest.live".into(),
                    value: 0,
                },
                WireMetric::Histogram {
                    name: "rpc.latency_ns.Ping".into(),
                    count: 3,
                    sum: 999,
                    buckets: vec![0, 1, 2, 0],
                },
            ],
            spans: vec![WireSpan {
                seq: 9,
                job: (7 << 32) | 1,
                span: 11,
                parent: 10,
                op: "TaskRun".into(),
                peer: "127.0.0.1:7781".into(),
                start_ns: 100,
                end_ns: 250,
                bytes: 64,
                outcome: "ok".into(),
            }],
            next: Some((512, 10)),
        });
    }

    #[test]
    fn trace_query_push_and_trace_roundtrip() {
        let sample = WireSpan {
            seq: 3,
            job: (7 << 32) | 2,
            span: (7 << 32) | 8,
            parent: 0,
            op: "DriverRpc".into(),
            peer: "mgr:127.0.0.1:7700".into(),
            start_ns: 10,
            end_ns: 9_000,
            bytes: 128,
            outcome: "ok".into(),
        };
        roundtrip_req(Request::TraceQuery { job: 0, start: 0 });
        roundtrip_req(Request::TraceQuery {
            job: u64::MAX,
            start: 4096,
        });
        roundtrip_req(Request::TracePush {
            node: "driver".into(),
            spans: vec![],
        });
        roundtrip_req(Request::TracePush {
            node: "driver".into(),
            spans: vec![sample.clone(), sample.clone()],
        });
        roundtrip_resp(Response::Trace {
            spans: vec![],
            dropped: 0,
            next: None,
        });
        roundtrip_resp(Response::Trace {
            spans: vec![("w0".into(), sample.clone()), ("driver".into(), sample)],
            dropped: 4097,
            next: Some(2048),
        });
    }

    #[test]
    fn trace_ctx_roundtrips_on_the_wire() {
        let req = Request::Scan { set: "s".into() };
        let ctx = TraceCtx { job: 7, span: 3 };
        let enc = req.encode_traced(Some(&ctx));
        let (back, got) = Request::decode_traced(&enc).unwrap();
        assert_eq!(back, req);
        assert_eq!(got, Some(ctx));
        // Untraced encode is byte-identical to the legacy frame and
        // decodes with no context.
        let plain = req.encode_traced(None);
        assert_eq!(plain, req.encode());
        let (back, got) = Request::decode_traced(&plain).unwrap();
        assert_eq!(back, req);
        assert_eq!(got, None);
    }

    #[test]
    fn truncated_or_garbled_trace_trailer_degrades_to_none() {
        let req = Request::Ping;
        let traced = req.encode_traced(Some(&TraceCtx { job: 1, span: 2 }));
        let plain_len = req.encode().len();
        // Any truncation strictly inside the trailer keeps the request
        // decodable and yields no context (a peer speaking a newer
        // envelope than ours must still be understood).
        for cut in plain_len..traced.len() {
            let (back, got) = Request::decode_traced(&traced[..cut]).unwrap();
            assert_eq!(back, req);
            assert_eq!(got, None, "cut at {cut}");
        }
        // Trailing bytes that are not a marked triple are ignored too.
        let mut garbled = req.encode();
        garbled.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef]);
        let (back, got) = Request::decode_traced(&garbled).unwrap();
        assert_eq!(back, req);
        assert_eq!(got, None);
        // Truncating the *body* stays a hard error even via the traced
        // decoder.
        assert!(Request::decode_traced(&req.encode()[..4]).is_err());
    }

    #[test]
    fn err_response_converts_to_remote_error() {
        let r = error_response(&PangeaError::usage("nope"));
        match r.into_result() {
            Err(PangeaError::Remote(m)) => assert!(m.contains("nope")),
            other => panic!("expected Remote error, got {other:?}"),
        }
    }
}
