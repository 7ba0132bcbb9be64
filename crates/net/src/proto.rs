//! The pangead request/response protocol.
//!
//! Messages cover the core node operations the cluster layer needs from a
//! remote peer: set creation, sequential append, cursor-paged scans,
//! shipped map tasks and their ingest sessions, worker-to-worker repair,
//! the control plane, and statistics and trace probes.
//!
//! Both message families are declared once, in the `wire_table!` table
//! below — the one table every tagged wire type is declared in: each
//! variant's docs, fields and opcode. The table generates the enums,
//! their encoders and decoders, `name()` and the `OPCODES` list, so an
//! opcode, its variant and its field order cannot drift apart. Opcodes
//! are stable over the protocol's life (add, never renumber — requests
//! 4, 5 and 7–10 and responses 3, 4, 5, 7, 19 and 22 are retired).
//! Every field travels through `Wire`, the crate's one field codec: a
//! length-prefixed record in a [`ByteWriter`] stream, so the wire format
//! inherits the codec's self-framing and its truncation checks.
//!
//! A payload is `opcode · fields` for a response and
//! `opcode · Option<TraceCtx> · fields` for a request, where the trace
//! context is a header field like any other. Decoding is strict: a
//! truncated message, an out-of-range field and unconsumed trailing bytes
//! are all [`PangeaError::Corruption`]. One encoded message travels
//! inside one [`crate::frame`] frame.

use crate::client::RemoteStats;
use crate::wire::{
    wire_table, RepairFilter, RepairPushReport, SchemeSpec, Wire, WireCatalogEntry, WireMetric,
    WireSpan, WireWorker,
};
use crate::{ReduceSpec, TaskReport, TaskSpec};
use pangea_common::{ByteReader, ByteWriter, PangeaError, Result};
use pangea_obs::TraceCtx;

wire_table! {
    /// A client/cluster → pangead message.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Request: message {
        /// Liveness probe.
        Ping = 1,
        /// Shared-secret handshake. On daemons configured with a secret this
        /// must be the first message of every connection; other requests are
        /// answered with [`Response::Denied`] until it succeeds.
        Hello {
            /// The deployment's shared secret.
            secret: String,
        } = 12,
        /// `createSet(name, durability)` with an optional page-size override
        /// (`None` uses the serving node's default).
        CreateSet {
            /// Locality-set name, unique per node.
            name: String,
            /// `"write-through"` or `"write-back"` (the paper's string form).
            durability: String,
            /// Page size override in bytes.
            page_size: Option<u64>,
        } = 2,
        /// Appends records through the sequential write service: every
        /// `Append` into a set resumes the set's one loader writer, so
        /// pages are sealed when full. Acked with a
        /// [`Response::SessionAck`] whose credit paces a pipelined loader.
        Append {
            /// Target locality set.
            set: String,
            /// Record payloads, written in order.
            records: Vec<Vec<u8>>,
        } = 3,
        /// Seals the tail page of the set's loader writer and closes it:
        /// the durability point of a load. Idempotent; `Ok` also when no
        /// writer is open.
        AppendEnd {
            /// Target locality set.
            set: String,
        } = 41,
        /// Reads a set's records through the sequential read service, one
        /// reply at a time: paged by a `(page, record)` cursor like
        /// [`Request::HashList`], so a share of any size streams in
        /// replies that close at [`crate::PUSH_BATCH_BYTES`], with
        /// [`Response::Records::next`] carrying the resume point.
        Scan {
            /// Target locality set.
            set: String,
            /// Page ordinal to start at (0 for the first reply).
            start_page: u64,
            /// Records to skip within the starting page.
            start_record: u64,
        } = 6,
        /// Reads the serving node's I/O counters.
        Stats = 11,
        /// Drops a locality set (used by distributed-set teardown).
        DropSet {
            /// Target locality set.
            set: String,
        } = 13,
        /// Counts a set's records server-side (no payload crosses the wire
        /// — diagnostics like `total_records` stay O(1) in wire bytes).
        Count {
            /// Target locality set.
            set: String,
        } = 27,

        // ---- Worker→worker recovery (peer repair) -----------------------
        /// Record keys (`record_key`) of a local set, in storage order —
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
        } = 28,
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
        } = 29,
        /// Survivor→replacement delivery of candidate records: the session
        /// appends only records its ledger has not seen, making concurrent
        /// pushes from several survivors (and retries) idempotent.
        RecoverAppend {
            /// The recovery target set (must have an open session).
            set: String,
            /// Candidate record payloads.
            records: Vec<Vec<u8>>,
        } = 30,
        /// Seals the repair session and returns its append totals.
        RecoverEnd {
            /// The recovery target set.
            set: String,
        } = 31,
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
        } = 37,
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
        } = 32,

        // ---- Distributed map-shuffle (task shipping + push shuffle) -----
        /// Driver→worker: run one shipped map task — scan the local share of
        /// the task's input, apply its declarative map, and stream routed
        /// batches straight to each destination worker's ingest session.
        /// The driver never touches the record payload.
        TaskRun {
            /// The task, wire form.
            spec: TaskSpec,
        } = 33,
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
            /// records are `key|value` partials, stored as one sorted run
            /// per source and merged into one record per key at
            /// [`Request::IngestEnd`], instead of being appended
            /// record-for-record.
            reduce: Option<ReduceSpec>,
        } = 34,
        /// Mapper→destination delivery of routed records, each carrying its
        /// provenance tag: the session appends only tags its ledger has not
        /// seen, making within-attempt RPC retries (lost acks) idempotent.
        IngestAppend {
            /// The ingest target set (must have an open session).
            set: String,
            /// `(tag, record)` pairs.
            entries: Vec<(u64, Vec<u8>)>,
        } = 35,
        /// Seals the ingest session and returns its append totals.
        /// Idempotent via a sealed-totals tombstone, like
        /// [`Request::RecoverEnd`].
        IngestEnd {
            /// The ingest target set.
            set: String,
        } = 36,

        // ---- Manager (pangea-mgr) requests: membership ------------------
        /// Registers a worker with the manager. `slot` pins a node id — a
        /// replacement worker re-registers its predecessor's slot; `None`
        /// takes the next free slot.
        MgrRegisterWorker {
            /// The address the worker's `pangead` serves on.
            addr: String,
            /// Explicit node slot (raw `NodeId`), or `None` for the next one.
            slot: Option<u64>,
        } = 14,
        /// Worker liveness heartbeat.
        MgrHeartbeat {
            /// The sender's node slot.
            node: u32,
            /// The sender's registration epoch.
            epoch: u64,
        } = 15,
        /// Clean worker shutdown: deregisters the slot.
        MgrDeregisterWorker {
            /// The sender's node slot.
            node: u32,
            /// The sender's registration epoch.
            epoch: u64,
        } = 16,
        /// Membership snapshot (sweeps liveness first).
        MgrListWorkers = 17,

        // ---- Manager requests: catalog + statistics DB ------------------
        /// Registers a distributed set in the wire-served catalog.
        MgrRegisterSet {
            /// Cluster-wide set name.
            name: String,
            /// Its partitioning scheme (declarative form).
            scheme: SchemeSpec,
        } = 18,
        /// Removes a set from the catalog (and its replica group).
        MgrDeregisterSet {
            /// Cluster-wide set name.
            name: String,
        } = 19,
        /// Looks up one catalog entry.
        MgrEntry {
            /// Cluster-wide set name.
            name: String,
        } = 20,
        /// All registered set names, sorted.
        MgrSetNames = 21,
        /// Adds dispatch counts to a set's statistics.
        MgrAddStats {
            /// Cluster-wide set name.
            name: String,
            /// Objects dispatched.
            objects: u64,
            /// Payload bytes dispatched.
            bytes: u64,
        } = 22,
        /// Puts two sets in the same replica group (`registerReplica`).
        MgrLinkReplicas {
            /// First set.
            a: String,
            /// Second set.
            b: String,
        } = 23,
        /// Members of a replica group.
        MgrGroupMembers {
            /// Raw `ReplicaGroupId`.
            group: u64,
        } = 24,
        /// All replica groups, ascending.
        MgrGroups = 25,
        /// The statistics service: the group member organized by `key`.
        MgrBestReplica {
            /// The set whose group is consulted.
            set: String,
            /// The desired partitioning key.
            key: String,
        } = 26,
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
        } = 38,
        /// Manager-served: pulls one job's fleet-wide spans from the
        /// scrape-loop's retained store, paginated by a plain index into
        /// the job's span list (0 for the first chunk).
        TraceQuery {
            /// The job whose stitched trace is wanted.
            job: u64,
            /// Index of the first span to return.
            start: u64,
        } = 39,
        /// Client → manager: contributes locally recorded spans to the
        /// fleet span store under a display name. Drivers use this to hand
        /// over their `DriverRpc` root spans — they are transient clients
        /// the scrape loop can never reach, yet every cross-node trace is
        /// rooted in one of their rings.
        TracePush {
            /// Display name the spans are attributed to (e.g. `driver`).
            node: String,
            /// `(ring seq, span)` records, oldest first.
            spans: Vec<WireSpan>,
        } = 40,
    }

    /// A pangead → client message.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Response: message {
        /// Success without payload.
        Ok = 1,
        /// Set created; carries the node-local set id.
        Created {
            /// Raw `SetId` on the serving node.
            set: u64,
        } = 2,
        /// One [`Request::Scan`] reply: records in storage order, at
        /// least one whenever `next` is set, closed once their encoded
        /// size reaches [`crate::PUSH_BATCH_BYTES`].
        Records {
            /// When more records follow, the `(page, record)` cursor to
            /// resume the next reply at.
            next: Option<(u64, u64)>,
            /// Record payloads.
            records: Vec<Vec<u8>>,
        } = 6,
        /// Counter snapshot of the serving node.
        Stats {
            /// The node's counters.
            stats: RemoteStats,
        } = 8,
        /// The operation failed on the serving node.
        Err {
            /// Display form of the remote error.
            message: String,
        } = 9,
        /// The connection failed the shared-secret handshake; decodes to
        /// [`PangeaError::Unauthenticated`] on the client.
        Denied {
            /// Why the peer was rejected.
            message: String,
        } = 10,
        /// The server is at its connection cap and refused this connection
        /// before serving anything; decodes to [`PangeaError::Busy`] on the
        /// client so callers can back off and redial without parsing prose.
        /// Handled structurally by the error conversions in this file (it
        /// never reaches a dispatch arm), so the opcode rule's handler leg
        /// waives it. // lint:allow(opcode-coverage)
        Busy {
            /// Why the connection was refused.
            message: String,
        } = 28,
        /// Worker registered (or re-registered) with the manager.
        WorkerRegistered {
            /// The assigned node slot.
            node: u32,
            /// The slot's fresh registration epoch.
            epoch: u64,
        } = 11,
        /// Membership snapshot.
        Workers {
            /// One record per known slot, ascending by node.
            workers: Vec<WireWorker>,
        } = 12,
        /// One catalog entry (or `None` when the set is unknown).
        CatalogEntry {
            /// The entry, if registered.
            entry: Option<WireCatalogEntry>,
        } = 13,
        /// A list of names (set names, group members, …), sorted by the
        /// serving operation's contract.
        Names {
            /// The names.
            names: Vec<String>,
        } = 14,
        /// A replica group id.
        Group {
            /// Raw `ReplicaGroupId`.
            group: u64,
        } = 15,
        /// All replica groups.
        Groups {
            /// Raw `ReplicaGroupId`s, ascending.
            groups: Vec<u64>,
        } = 16,
        /// An optional name (the statistics service's best-replica answer).
        MaybeName {
            /// The name, if any member matched.
            name: Option<String>,
        } = 17,
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
        } = 18,
        /// A server-side record count.
        Count {
            /// Records in the set.
            records: u64,
        } = 20,
        /// Record hashes of a set (the [`Request::HashList`] reply).
        Hashes {
            /// When more records follow, the `(page, record)` cursor to
            /// resume the next chunk at.
            next: Option<(u64, u64)>,
            /// `record_key` of each record in this chunk, in storage order.
            hashes: Vec<u64>,
        } = 21,
        /// Outcome of one [`Request::TaskRun`] (a worker's full
        /// scan-map-route-stream pass over its local input share).
        TaskDone {
            /// The task's counters.
            report: TaskReport,
        } = 24,
        /// The ack of every pipelined append, for loads, ingest and repair
        /// sessions alike: what one [`Request::Append`]/
        /// [`Request::IngestAppend`]/[`Request::RecoverAppend`] batch (or,
        /// for [`Request::IngestEnd`]/[`Request::RecoverEnd`], the whole
        /// session) actually appended after dedup.
        SessionAck {
            /// Records appended.
            appended: u64,
            /// Payload bytes appended.
            bytes: u64,
            /// Credit grant: how many more in-flight batches the receiver's
            /// pool residency can absorb right now, at least 1. It caps the
            /// sender's pipeline window until the next ack revises it.
            credit: u64,
        } = 25,
        /// Outcome of one [`Request::RecoverPush`] (a survivor's full
        /// scan-filter-stream pass against the replacement).
        Pushed {
            /// The push's counters.
            report: RepairPushReport,
        } = 23,
        /// One [`Request::MetricsDump`] chunk: metrics (sorted by name) and
        /// retained spans, with a resume cursor when either list has more.
        Metrics {
            /// When more remains, the `(metrics_start, spans_start)` cursor
            /// pair to resume the next chunk at.
            next: Option<(u64, u64)>,
            /// Metric snapshots in this chunk.
            metrics: Vec<WireMetric>,
            /// `(ring seq, span)` records in this chunk, oldest first.
            spans: Vec<WireSpan>,
        } = 26,
        /// One [`Request::TraceQuery`] chunk: the job's retained spans,
        /// each tagged with the node it was scraped from.
        Trace {
            /// Fleet-wide spans known lost at query time (a worker ring
            /// wrapped past the scraper's cursor, or the store's own
            /// bounds) — nonzero means the tree may be incomplete.
            dropped: u64,
            /// When more remains, the start index to resume at.
            next: Option<u64>,
            /// `(node, span)` pairs in this chunk, store order.
            spans: Vec<(String, WireSpan)>,
        } = 27,
    }
}

/// Maximum hashes in one [`Response::Hashes`] chunk: 1 Mi hashes encode
/// to 12 MiB, comfortably inside [`crate::frame::MAX_FRAME`], so a hash
/// pull over a set of any size pages (by `(page, record)` cursor)
/// instead of overflowing a frame.
pub const HASH_CHUNK: usize = 1 << 20;

impl Request {
    /// Encodes this request, without a trace context, into one frame
    /// payload.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_traced(None)
    }

    /// Encodes this request with `ctx` in its header.
    pub fn encode_traced(&self, ctx: Option<&TraceCtx>) -> Vec<u8> {
        self.encode_with(|w| ctx.copied().put(w))
    }

    /// Decodes a request from one frame payload, discarding any trace
    /// context.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        Ok(Self::decode_traced(bytes)?.0)
    }

    /// Decodes a request and the trace context its header carries.
    pub fn decode_traced(bytes: &[u8]) -> Result<(Self, Option<TraceCtx>)> {
        Self::decode_with(bytes, Option::<TraceCtx>::get)
    }
}

impl Response {
    /// Encodes this response into one frame payload.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_with(|_| {})
    }

    /// Decodes a response from one frame payload.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        Ok(Self::decode_with(bytes, |_| Ok(()))?.0)
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
            other => Ok(other),
        }
    }
}

/// Encodes a [`PangeaError`] as the wire error response. Kinds clients
/// dispatch on (authentication, connection cap, epoch staleness) keep
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
        other => Response::Err {
            message: other.to_string(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        CmpOp, EmitSpec, FilterSpec, Job, KeySpec, MapSpec, ReduceOp, WireCatalogEntry, WireMetric,
        WireWorker, WorkerState,
    };

    fn span(op: &str) -> WireSpan {
        WireSpan {
            seq: 9,
            job: (7 << 32) | 1,
            span: 11,
            parent: 10,
            op: op.into(),
            peer: "127.0.0.1:7781".into(),
            start_ns: 100,
            end_ns: 250,
            bytes: 64,
            outcome: "ok".into(),
        }
    }

    /// At least one sample per request opcode, and every shape a field
    /// can take (empty and full lists, `None` and `Some`, each filter).
    fn request_samples() -> Vec<Request> {
        let pipe = KeySpec::Field {
            delim: b'|',
            index: 0,
        };
        let hash = SchemeSpec::Hash {
            key_name: "uid".into(),
            partitions: 6,
            key: pipe,
        };
        let task = TaskSpec {
            job: Job {
                input: "lines".into(),
                output: "words".into(),
                map: MapSpec {
                    filter: Some(FilterSpec::KeyEquals {
                        key: pipe,
                        value: b"7".to_vec(),
                    }),
                    emit: EmitSpec::Fields {
                        delim: b'|',
                        indices: vec![1, 2],
                    },
                },
                reduce: Some(ReduceSpec::sum(KeySpec::WholeRecord, b'|', 1)),
                scheme: hash.clone(),
                nodes: 4,
            },
            source: 1,
            dests: vec![(0, "127.0.0.1:7781".into()), (2, "127.0.0.1:7783".into())],
        };
        let push = |filter| Request::RecoverPush {
            source_set: "users_f1".into(),
            target_set: "users".into(),
            target_addr: "127.0.0.1:7783".into(),
            filter,
        };
        vec![
            Request::Ping,
            Request::Hello {
                secret: "deployment-secret".into(),
            },
            Request::CreateSet {
                name: "events".into(),
                durability: "write-back".into(),
                page_size: Some(4096),
            },
            Request::CreateSet {
                name: "u".into(),
                durability: "write-through".into(),
                page_size: None,
            },
            Request::Append {
                set: "events".into(),
                records: vec![b"a".to_vec(), vec![], b"ccc".to_vec()],
            },
            Request::AppendEnd {
                set: "events".into(),
            },
            Request::Scan {
                set: "s".into(),
                start_page: 0,
                start_record: 0,
            },
            Request::Scan {
                set: "s".into(),
                start_page: 17,
                start_record: 1 << 20,
            },
            Request::Stats,
            Request::DropSet { set: "gone".into() },
            Request::Count { set: "s".into() },
            Request::HashList {
                set: "users".into(),
                start_page: 17,
                start_record: 1 << 20,
            },
            Request::RecoverBegin {
                set: "users".into(),
                present_from: vec![],
            },
            Request::RecoverBegin {
                set: "users".into(),
                present_from: vec!["127.0.0.1:7781".into(), "127.0.0.1:7782".into()],
            },
            Request::RecoverAppend {
                set: "users".into(),
                records: vec![b"a|1".to_vec(), vec![], b"b|2".to_vec()],
            },
            Request::RecoverEnd {
                set: "users".into(),
            },
            Request::RepairLedger {
                set: "users".into(),
                start: 1 << 20,
            },
            push(RepairFilter::All),
            push(RepairFilter::Absent),
            push(RepairFilter::Lost {
                scheme: hash.clone(),
                failed: 2,
                nodes: 4,
            }),
            Request::TaskRun { spec: task },
            Request::IngestBegin {
                set: "words".into(),
                reduce: None,
            },
            Request::IngestBegin {
                set: "counts".into(),
                reduce: Some(ReduceSpec::count(KeySpec::WholeRecord, b'|')),
            },
            Request::IngestAppend {
                set: "words".into(),
                entries: vec![(7, b"the".to_vec()), (9, vec![]), (7, b"the".to_vec())],
            },
            Request::IngestEnd {
                set: "words".into(),
            },
            Request::MgrRegisterWorker {
                addr: "127.0.0.1:7781".into(),
                slot: None,
            },
            Request::MgrRegisterWorker {
                addr: "127.0.0.1:7782".into(),
                slot: Some(2),
            },
            Request::MgrHeartbeat { node: 1, epoch: 4 },
            Request::MgrDeregisterWorker { node: 1, epoch: 4 },
            Request::MgrListWorkers,
            Request::MgrRegisterSet {
                name: "lineitem".into(),
                scheme: hash,
            },
            Request::MgrDeregisterSet {
                name: "lineitem".into(),
            },
            Request::MgrEntry {
                name: "lineitem".into(),
            },
            Request::MgrSetNames,
            Request::MgrAddStats {
                name: "lineitem".into(),
                objects: 10,
                bytes: 1000,
            },
            Request::MgrLinkReplicas {
                a: "x".into(),
                b: "y".into(),
            },
            Request::MgrGroupMembers { group: 3 },
            Request::MgrGroups,
            Request::MgrBestReplica {
                set: "lineitem".into(),
                key: "l_partkey".into(),
            },
            Request::MetricsDump {
                metrics_start: 512,
                spans_start: u64::MAX,
            },
            Request::TraceQuery {
                job: u64::MAX,
                start: 4096,
            },
            Request::TracePush {
                node: "driver".into(),
                spans: vec![],
            },
            Request::TracePush {
                node: "driver".into(),
                spans: vec![span("DriverRpc"), span("DriverRpc")],
            },
        ]
    }

    /// At least one sample per response opcode, with the same coverage
    /// of field shapes as [`request_samples`].
    fn response_samples() -> Vec<Response> {
        let counters = (100, 40, 4000, 38, 3800);
        vec![
            Response::Ok,
            Response::Created { set: 9 },
            Response::Records {
                next: None,
                records: vec![],
            },
            Response::Records {
                next: Some((9, 123)),
                records: vec![b"x".to_vec(), vec![], b"yy".to_vec()],
            },
            Response::Stats {
                stats: RemoteStats {
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
                },
            },
            Response::Err {
                message: "set 'x' missing".into(),
            },
            Response::Denied {
                message: "bad secret".into(),
            },
            Response::Busy {
                message: "at connection cap".into(),
            },
            Response::WorkerRegistered { node: 2, epoch: 5 },
            Response::Workers {
                workers: vec![WireWorker {
                    node: 0,
                    addr: "127.0.0.1:9000".into(),
                    epoch: 1,
                    state: WorkerState::Alive,
                }],
            },
            Response::CatalogEntry { entry: None },
            Response::CatalogEntry {
                entry: Some(WireCatalogEntry {
                    name: "s".into(),
                    scheme: SchemeSpec::RoundRobin { partitions: 3 },
                    group: Some(1),
                    objects: 7,
                    bytes: 70,
                }),
            },
            Response::Names {
                names: vec!["a".into(), "b".into()],
            },
            Response::Group { group: 9 },
            Response::Groups { groups: vec![1, 2] },
            Response::MaybeName { name: None },
            Response::MaybeName {
                name: Some("replica".into()),
            },
            Response::Stale {
                node: 1,
                held: 3,
                current: 7,
            },
            Response::Count { records: 12345 },
            Response::Hashes {
                next: None,
                hashes: vec![],
            },
            Response::Hashes {
                next: Some((9, 123)),
                hashes: vec![1, u64::MAX, 42],
            },
            Response::Pushed {
                report: RepairPushReport {
                    scanned: counters.0,
                    pushed: counters.1,
                    pushed_bytes: counters.2,
                    appended: counters.3,
                    appended_bytes: counters.4,
                },
            },
            Response::TaskDone {
                report: TaskReport {
                    scanned: counters.0,
                    emitted: counters.1,
                    emitted_bytes: counters.2,
                    appended: counters.3,
                    appended_bytes: counters.4,
                },
            },
            Response::SessionAck {
                appended: 12,
                bytes: 340,
                credit: 3,
            },
            Response::Metrics {
                next: None,
                metrics: vec![],
                spans: vec![],
            },
            Response::Metrics {
                next: Some((512, 10)),
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
                spans: vec![span("TaskRun")],
            },
            Response::Trace {
                dropped: 0,
                next: None,
                spans: vec![],
            },
            Response::Trace {
                dropped: 4097,
                next: Some(2048),
                spans: vec![("w0".into(), span("TaskRun")), ("driver".into(), span("x"))],
            },
        ]
    }

    /// Sorted names of a family's table and of a sample list.
    fn names_of<'a>(
        opcodes: &[(u64, &'a str)],
        samples: &[&'a str],
    ) -> (Vec<&'a str>, Vec<&'a str>) {
        let mut table: Vec<&str> = opcodes.iter().map(|(_, n)| *n).collect();
        let mut seen = samples.to_vec();
        table.sort_unstable();
        seen.sort_unstable();
        seen.dedup();
        (table, seen)
    }

    #[test]
    fn every_opcode_roundtrips() {
        let ctx = TraceCtx { job: 7, span: 3 };
        let requests = request_samples();
        for req in &requests {
            assert_eq!(&Request::decode(&req.encode()).unwrap(), req);
            let (back, got) = Request::decode_traced(&req.encode_traced(Some(&ctx))).unwrap();
            assert_eq!((&back, got), (req, Some(ctx)));
            assert_eq!(Request::decode_traced(&req.encode()).unwrap().1, None);
        }
        let responses = response_samples();
        for resp in &responses {
            assert_eq!(&Response::decode(&resp.encode()).unwrap(), resp);
        }
        let names: Vec<&str> = requests.iter().map(Request::name).collect();
        let (table, seen) = names_of(Request::OPCODES, &names);
        assert_eq!(seen, table, "a request opcode has no sample");
        let names: Vec<&str> = responses.iter().map(Response::name).collect();
        let (table, seen) = names_of(Response::OPCODES, &names);
        assert_eq!(seen, table, "a response opcode has no sample");
        for opcodes in [Request::OPCODES, Response::OPCODES] {
            let mut ops: Vec<u64> = opcodes.iter().map(|(op, _)| *op).collect();
            ops.sort_unstable();
            ops.dedup();
            assert_eq!(ops.len(), opcodes.len(), "opcodes must be unique");
        }
        assert_eq!((Request::OPCODES.len(), Response::OPCODES.len()), (35, 22));
    }

    /// One `label hex` line per encoded value: one value per variant of
    /// every tagged wire type, then every request sample (without and
    /// with a trace context) and every response sample.
    fn golden_lines() -> Vec<String> {
        fn line<T: Wire>(label: &str, v: &T) -> String {
            let mut w = ByteWriter::new();
            v.put(&mut w);
            hex(label, w.as_bytes())
        }
        fn hex(label: &str, bytes: &[u8]) -> String {
            let digits: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
            format!("{label} {digits}")
        }
        let key = KeySpec::Field {
            delim: b'|',
            index: 3,
        };
        let hash = SchemeSpec::Hash {
            key_name: "uid".into(),
            partitions: 6,
            key,
        };
        let mut lines = vec![
            line("KeySpec.WholeRecord", &KeySpec::WholeRecord),
            line("KeySpec.Field", &key),
            line("SchemeSpec.Hash", &hash),
            line(
                "SchemeSpec.RoundRobin",
                &SchemeSpec::RoundRobin { partitions: 4 },
            ),
            line(
                "RepairFilter.Lost",
                &RepairFilter::Lost {
                    scheme: hash,
                    failed: 1,
                    nodes: 3,
                },
            ),
            line("RepairFilter.All", &RepairFilter::All),
            line("RepairFilter.Absent", &RepairFilter::Absent),
            line(
                "FilterSpec.KeyEquals",
                &FilterSpec::KeyEquals {
                    key,
                    value: b"7".to_vec(),
                },
            ),
            line("FilterSpec.KeyPresent", &FilterSpec::KeyPresent { key }),
            line(
                "FilterSpec.KeyCompare",
                &FilterSpec::KeyCompare {
                    key,
                    cmp: CmpOp::Ge,
                    value: -42,
                },
            ),
            line("EmitSpec.Record", &EmitSpec::Record),
            line("EmitSpec.Key", &EmitSpec::Key(key)),
            line(
                "EmitSpec.Fields",
                &EmitSpec::Fields {
                    delim: b',',
                    indices: vec![2, 0],
                },
            ),
            line("EmitSpec.Tokens", &EmitSpec::Tokens { delim: b' ' }),
            line(
                "WireMetric.Counter",
                &WireMetric::Counter {
                    name: "c".into(),
                    value: 42,
                },
            ),
            line(
                "WireMetric.Gauge",
                &WireMetric::Gauge {
                    name: "g".into(),
                    value: 7,
                },
            ),
            line(
                "WireMetric.Histogram",
                &WireMetric::Histogram {
                    name: "h".into(),
                    count: 3,
                    sum: 999,
                    buckets: vec![0, 1, 2],
                },
            ),
        ];
        for cmp in [
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
            CmpOp::Eq,
            CmpOp::Ne,
        ] {
            lines.push(line(&format!("CmpOp.{cmp:?}"), &cmp));
        }
        for op in [ReduceOp::Count, ReduceOp::Sum, ReduceOp::Min, ReduceOp::Max] {
            let spec = ReduceSpec {
                key,
                op,
                delim: b'|',
                value_index: 2,
            };
            lines.push(line(&format!("ReduceSpec.{op:?}"), &spec));
        }
        for state in [WorkerState::Alive, WorkerState::Dead, WorkerState::Left] {
            lines.push(line(&format!("WorkerState.{state:?}"), &state));
        }
        let ctx = TraceCtx { job: 7, span: 3 };
        for (i, req) in request_samples().iter().enumerate() {
            lines.push(hex(&format!("request.{i}.{}", req.name()), &req.encode()));
            let traced = req.encode_traced(Some(&ctx));
            lines.push(hex(&format!("traced.{i}.{}", req.name()), &traced));
        }
        for (i, resp) in response_samples().iter().enumerate() {
            let label = format!("response.{i}.{}", resp.name());
            lines.push(hex(&label, &resp.encode()));
        }
        lines
    }

    /// Every tagged wire value and every sample message encodes to the
    /// bytes pinned in `tests/wire_golden.txt`. The protocol adds
    /// opcodes and tags but never changes an existing encoding, so a
    /// line here changes only when a sample is added.
    #[test]
    fn encodings_match_the_golden_bytes() {
        let golden: Vec<&str> = include_str!("../tests/wire_golden.txt").lines().collect();
        let lines = golden_lines();
        for (got, want) in lines.iter().zip(&golden) {
            assert_eq!(got, want, "encoding differs from the golden bytes");
        }
        assert_eq!(lines.len(), golden.len(), "golden line count differs");
    }

    #[test]
    fn every_strict_prefix_and_any_trailing_byte_is_corruption() {
        let ctx = TraceCtx { job: 1, span: 2 };
        let requests = request_samples()
            .into_iter()
            .flat_map(|r| [r.encode(), r.encode_traced(Some(&ctx))]);
        let check = |enc: Vec<u8>, decode: &dyn Fn(&[u8]) -> Result<()>| {
            for cut in 0..enc.len() {
                assert!(decode(&enc[..cut]).is_err(), "cut at {cut} decoded");
            }
            let mut long = enc;
            long.push(0);
            assert!(matches!(decode(&long), Err(PangeaError::Corruption(_))));
        };
        for enc in requests {
            check(enc, &|b| Request::decode_traced(b).map(drop));
        }
        for resp in response_samples() {
            check(resp.encode(), &|b| Response::decode(b).map(drop));
        }
    }

    /// A request's opcode, looked up by name so the table stays the one
    /// place each number is written.
    fn opcode(name: &str) -> u64 {
        let entry = Request::OPCODES.iter().find(|(_, n)| *n == name);
        entry.expect("a request of that name").0
    }

    /// The ingest hot path's layout, byte for byte: opcode, an absent
    /// trace context, the set, the entry count, then a u64 tag record
    /// and a byte record per entry.
    #[test]
    fn ingest_append_layout_is_pinned() {
        let req = Request::IngestAppend {
            set: "words".into(),
            entries: vec![(7, b"the".to_vec()), (9, vec![])],
        };
        let mut w = ByteWriter::new();
        w.write_record(&opcode("IngestAppend"));
        w.write_record(&0u64);
        w.write_record(&"words".to_string());
        w.write_record(&2u64);
        w.write_record(&7u64);
        w.write_bytes(b"the");
        w.write_record(&9u64);
        w.write_bytes(b"");
        assert_eq!(req.encode(), w.into_bytes());
    }

    /// Narrow fields read through a range check: a value above the
    /// field's type is corruption, not a silently truncated number.
    #[test]
    fn out_of_range_narrow_fields_are_corruption() {
        let mut w = ByteWriter::new();
        w.write_record(&opcode("MgrRegisterSet"));
        w.write_record(&0u64); // no trace context
        w.write_record(&"set".to_string());
        w.write_record(&2u64); // round-robin scheme
        w.write_record(&((1u64 << 32) | 4)); // partitions
        assert!(matches!(
            Request::decode(w.as_bytes()),
            Err(PangeaError::Corruption(m)) if m.contains("out of range")
        ));
        let mut w = ByteWriter::new();
        w.write_record(&opcode("MgrHeartbeat"));
        w.write_record(&0u64);
        w.write_record(&(1u64 << 32)); // node
        w.write_record(&1u64); // epoch
        assert!(matches!(
            Request::decode(w.as_bytes()),
            Err(PangeaError::Corruption(m)) if m.contains("out of range")
        ));
    }

    /// DESIGN.md's opcode table lists exactly the table's requests, in
    /// order, and names every response in the table or under it.
    #[test]
    fn design_md_opcode_table_matches_the_message_table() {
        let design = include_str!("../../../DESIGN.md");
        let start = design
            .find("### Opcode table")
            .expect("DESIGN.md has an opcode table");
        let section = &design[start..];
        let section = &section[..section.find("\n## ").unwrap_or(section.len())];
        let rows: Vec<&str> = section
            .lines()
            .filter_map(|l| l.strip_prefix("| `")?.split('`').next())
            .collect();
        let table: Vec<&str> = Request::OPCODES.iter().map(|(_, n)| *n).collect();
        assert_eq!(
            rows, table,
            "DESIGN.md request rows differ from the message table"
        );
        let words: Vec<&str> = section
            .split(|c: char| !c.is_ascii_alphanumeric() && c != '_')
            .collect();
        for (_, name) in Response::OPCODES {
            assert!(
                words.contains(name),
                "DESIGN.md opcode table never names {name}"
            );
        }
    }

    #[test]
    fn busy_roundtrips_and_is_typed() {
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
    fn unknown_opcodes_are_corruption() {
        let mut w = ByteWriter::new();
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
    fn err_response_converts_to_remote_error() {
        let r = error_response(&PangeaError::usage("nope"));
        match r.into_result() {
            Err(PangeaError::Remote(m)) => assert!(m.contains("nope")),
            other => panic!("expected Remote error, got {other:?}"),
        }
    }
}
