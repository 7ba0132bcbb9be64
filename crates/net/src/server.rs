//! `pangead` — the Pangea node daemon.
//!
//! * [`Pangead`] — the protocol brain of a node daemon: wraps one
//!   [`StorageNode`] and dispatches decoded requests against it. The
//!   dispatch is pure request → response and does not know about sockets,
//!   so it is testable (and reusable) without any networking.
//! * [`PangeadServer`] — one [`Pangead`] served behind the
//!   [`FramedServer`] core (`framed.rs`), which runs each connection's
//!   requests on that connection's own thread.

use crate::client::{PangeaClient, RemoteStats};
use crate::framed::{
    metrics_dump_response, serve_instrumented, FramedServer, FramedService, ServerConfig,
    DEFAULT_DRAIN,
};
use crate::load::LoadWriters;
use crate::pipeline::{PushBatch, PushStream, PIPELINE_WINDOW, PUSH_BATCH_BYTES};
use crate::pool::ClientPool;
use crate::proto::{Request, Response};
use crate::session::{backing_set_name, local_set, Session, SessionTable, Sink, INGEST, REPAIR};
use crate::wire::{RecordPredicate, RepairFilter, RepairPushReport};
use pangea_common::{record_key, IoStats, PangeaError, Result, WriteCause};
use pangea_core::{ObjectIter, SetOptions, SpillLedger, StorageNode};
use pangea_obs::{names, Obs, TraceCtx};
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// In-memory entries a session dedup ledger holds before spilling
/// sorted runs through the pool (≈512 KB of heap per session).
const LEDGER_SPILL_ENTRIES: usize = 64 * 1024;

/// Root partitions for a mapper's combine accumulator. Small: the
/// accumulator grows by page splits under memory headroom, so roots
/// only set the floor of pinned pages per running task.
pub(crate) const ACC_ROOT_PARTITIONS: u32 = 2;

/// The protocol brain of a Pangea node daemon: dispatches decoded
/// requests against the wrapped [`StorageNode`].
#[derive(Debug)]
pub struct Pangead {
    node: StorageNode,
    /// Shuffle-ingest sessions, by destination set.
    ingests: SessionTable,
    /// Peer-repair sessions, by recovery target set: a table apart from
    /// `ingests`, so a repair session and an ingest session on one set
    /// never replace each other.
    repairs: SessionTable,
    /// The loader's writers, one per set that `Append`s are filling.
    loads: LoadWriters,
    /// Idle outbound connections to sibling daemons, by the address
    /// they were dialed at: repair and shuffle pushes reuse one dial per
    /// peer instead of reconnecting per push. Its dials present the
    /// deployment secret set by [`Pangead::with_peer_secret`].
    pub(crate) peers: Arc<ClientPool>,
    /// Payload bytes and messages received by this daemon.
    stats: Arc<IoStats>,
    /// This daemon's observability bundle: the metrics registry (shared
    /// with [`Pangead::stats`], so `io.*` volumes and `rpc.*` metrics
    /// land in one `MetricsDump`) plus the span ring.
    obs: Obs,
    /// Monotonic id appended to session backing-set names (ledgers,
    /// reducing sessions' runs, combine accumulators, Absent-diff
    /// ledgers), so a replaced session's not-yet-released set never
    /// collides with its successor's.
    session_seq: AtomicU64,
}

impl Pangead {
    /// Wraps a storage node.
    pub fn new(node: StorageNode) -> Self {
        let stats = Arc::new(IoStats::new());
        let obs = Obs::with_registry(stats.registry().clone());
        Self {
            node,
            ingests: SessionTable::new(INGEST),
            repairs: SessionTable::new(REPAIR),
            loads: LoadWriters::default(),
            peers: Arc::new(ClientPool::new(stats.registry().clone(), None, None)),
            stats,
            obs,
            session_seq: AtomicU64::new(0),
        }
    }

    /// A fresh, collision-free backing-set name for per-session state.
    pub(crate) fn session_set_name(&self, set: &str, kind: &str) -> String {
        backing_set_name(set, kind, self.session_seq.fetch_add(1, Ordering::Relaxed))
    }

    /// Sets the secret this daemon presents when dialing its peers —
    /// independent of the inbound secret the surrounding
    /// [`FramedServer`] enforces, though deployments share one.
    pub fn with_peer_secret(mut self, secret: Option<String>) -> Self {
        let reg = self.stats.registry().clone();
        self.peers = Arc::new(ClientPool::new(reg, secret.as_deref(), None));
        self
    }

    /// The ack of a session append or end, stamped with this daemon's
    /// credit grant: how many more in-flight push batches its pool
    /// residency can absorb. Free pool bytes divided by the batch size
    /// ([`PUSH_BATCH_BYTES`]), clamped to `[1, PIPELINE_WINDOW]` — never
    /// 0, because a full pool must still admit one batch at a time for
    /// the spill machinery to make progress against, and never above the
    /// window no sender exceeds.
    fn session_ack(&self, (appended, bytes): (u64, u64)) -> Response {
        let p = self.node.paging_stats();
        let free = p.pool_capacity.saturating_sub(p.pool_used);
        let credit = (free / PUSH_BATCH_BYTES as u64).clamp(1, PIPELINE_WINDOW as u64);
        Response::SessionAck {
            appended,
            bytes,
            credit,
        }
    }

    /// The wrapped storage node.
    pub fn node(&self) -> &StorageNode {
        &self.node
    }

    /// Payload bytes received by this daemon (the server-side view of
    /// the transport's `record_net` accounting).
    pub fn stats(&self) -> &Arc<IoStats> {
        &self.stats
    }

    /// This daemon's observability bundle (metrics + span ring) — what
    /// its `MetricsDump` RPC serves.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Freshens the resource gauges every `MetricsDump` serves — the
    /// signals the tiered-memory arc will assert bounded-RSS claims
    /// against: `mem.share_bytes` (page-aligned on-disk footprint of
    /// every local share), `mem.session_bytes` (payload accumulated in
    /// still-open repair/ingest sessions), and `pool.peers` (pooled
    /// idle daemon connections). Computed on demand: a scrape interval
    /// is orders of magnitude longer than a walk over the catalog.
    fn freshen_resource_gauges(&self) {
        let reg = self.obs.registry();
        let share_bytes: u64 = self
            .node
            .set_ids()
            .into_iter()
            .filter_map(|id| self.node.get_set_by_id(id))
            .map(|set| set.bytes_on_disk())
            .sum();
        reg.gauge(names::MEM_SHARE_BYTES).set(share_bytes);
        reg.gauge(names::MEM_SESSION_BYTES)
            .set(self.repairs.open_bytes() + self.ingests.open_bytes());
        reg.gauge(names::POOL_PEERS).set(self.peers.idle() as u64);
        // The tiered-memory signals: pin hits/misses and spill volume as
        // counters (the scrape loop computes rates), pool residency as
        // gauges — `paging.pool_used_bytes ≤ paging.pool_capacity_bytes`
        // is the bounded-memory claim in one comparison.
        let p = self.node.paging_stats();
        reg.counter(names::PAGING_HITS).set(p.hits);
        reg.counter(names::PAGING_MISSES).set(p.misses);
        reg.counter(names::PAGING_EVICTIONS).set(p.evictions);
        reg.counter(names::PAGING_SPILL_BYTES).set(p.spill_bytes);
        reg.gauge(names::PAGING_POOL_USED_BYTES).set(p.pool_used);
        reg.gauge(names::PAGING_POOL_CAPACITY_BYTES)
            .set(p.pool_capacity);
        reg.gauge(names::PAGING_RESIDENT_PAGES)
            .set(p.resident_pages);
        reg.gauge(names::PAGING_PINNED_PAGES).set(p.pinned_pages);
        // Disk writes live in the node's own counters; the dump carries
        // their total and its split by cause, so a fleet snapshot says
        // which path wrote a job's bytes.
        let disk = self.node.disk_stats();
        reg.counter(names::IO_DISK_WRITE_BYTES)
            .set(disk.snapshot().disk_write_bytes);
        for cause in WriteCause::ALL {
            reg.counter(cause.metric())
                .set(disk.write_cause_bytes(cause));
        }
    }

    /// Handles one untraced request, turning node errors into
    /// [`Response::Err`].
    pub fn handle(&self, req: Request) -> Response {
        FramedService::handle(self, req, None, 0)
    }

    /// Dispatches one decoded request. `ctx`, when present, is the
    /// *child* context minted by [`serve_instrumented`] — `(job, this
    /// request's own span)` — which fan-out arms forward to peers.
    fn dispatch(&self, req: Request, ctx: Option<TraceCtx>) -> Result<Response> {
        match req {
            Request::Ping => Ok(Response::Ok),
            // The server layer handles handshakes; reaching here means no
            // secret is required on this daemon.
            Request::Hello { .. } => Ok(Response::Ok),
            Request::CreateSet {
                name,
                durability,
                page_size,
            } => {
                let mut options = SetOptions::from_durability_str(&durability)?;
                if let Some(ps) = page_size {
                    options = options.with_page_size(ps as usize);
                }
                // Idempotent, like DropSet — but only for a *matching*
                // request: a set that already exists with the same
                // options answers with its id, so distributed
                // (re-)provisioning — e.g. retrying a failed recovery —
                // needs no error parsing, while conflicting options
                // still fail loudly instead of being silently ignored.
                // A request without a page-size override expresses no
                // preference and matches any existing page size; only an
                // *explicit* mismatch conflicts. The catalog, not the
                // node, rejects duplicate distributed-set creation.
                if let Some(existing) = self.node.get_set(&name) {
                    let same = existing.durability() == options.durability
                        && page_size.is_none_or(|ps| existing.page_size() == ps as usize);
                    if same {
                        return Ok(Response::Created {
                            set: existing.id().raw(),
                        });
                    }
                    return Err(PangeaError::usage(format!(
                        "set '{name}' already exists with different options"
                    )));
                }
                let set = self.node.create_set(&name, options)?;
                Ok(Response::Created {
                    set: set.id().raw(),
                })
            }
            Request::Append { set, records } => {
                let acked = self.loads.append(&self.node, &set, &records)?;
                self.record_received(records.iter().map(Vec::as_slice));
                Ok(self.session_ack(acked))
            }
            Request::AppendEnd { set } => {
                self.loads.end(&set)?;
                Ok(Response::Ok)
            }
            Request::Scan {
                set,
                start_page,
                start_record,
            } => {
                // A reply closes by the push batch rule, so a share of
                // any size streams in bounded replies; the record that
                // fills one still rides in it, so every reply makes
                // progress whatever a record's size.
                let mut batch = PushBatch::default();
                let mut full = None;
                let next = walk_share(&self.get_set(&set)?, (start_page, start_record), |rec| {
                    full = batch.push(rec.to_vec());
                    full.is_some()
                })?;
                let records = full.unwrap_or_else(|| batch.take());
                Ok(Response::Records { next, records })
            }
            Request::Count { set } => {
                let set = self.get_set(&set)?;
                let mut records = 0u64;
                for num in set.page_numbers() {
                    let pin = set.pin_page(num)?;
                    records += ObjectIter::new(&pin).count() as u64;
                }
                Ok(Response::Count { records })
            }
            Request::DropSet { set } => {
                // Idempotent: dropping a set the node never held is a
                // no-op, so distributed teardown needs no error parsing.
                // Session and loader state keyed by this set dies with
                // it, so tombstones never accumulate across jobs.
                self.repairs.forget(&set, self.obs.registry());
                self.ingests.forget(&set, self.obs.registry());
                self.loads.retire(&set, || match self.node.get_set(&set) {
                    Some(set) => self.node.drop_set(set.id()),
                    None => Ok(()),
                })?;
                Ok(Response::Ok)
            }
            Request::Stats => {
                let net = self.stats.snapshot();
                let disk = self.node.disk_stats().snapshot();
                let paging = self.node.paging_stats();
                let stats = RemoteStats {
                    net_bytes: net.net_bytes,
                    net_messages: net.net_messages,
                    disk_read_bytes: disk.disk_read_bytes,
                    disk_write_bytes: disk.disk_write_bytes,
                    repair_bytes: net.repair_bytes,
                    shuffle_bytes: net.shuffle_bytes,
                    paging_hits: paging.hits,
                    paging_misses: paging.misses,
                    paging_evictions: paging.evictions,
                    paging_spill_bytes: paging.spill_bytes,
                    pool_used_bytes: paging.pool_used,
                    pool_capacity_bytes: paging.pool_capacity,
                };
                Ok(Response::Stats { stats })
            }
            Request::HashList {
                set,
                start_page,
                start_record,
            } => {
                let mut hashes = Vec::new();
                let next = walk_share(&self.get_set(&set)?, (start_page, start_record), |rec| {
                    hashes.push(record_key(rec));
                    hashes.len() >= crate::proto::HASH_CHUNK
                })?;
                Ok(Response::Hashes { hashes, next })
            }
            Request::RecoverBegin { set, present_from } => {
                let target = self.get_set(&set)?;
                self.repairs.open(&set, self.obs.registry(), || {
                    let mut ledger = SpillLedger::new(
                        &self.node,
                        self.session_set_name(&set, "repair-ledger"),
                        LEDGER_SPILL_ENTRIES,
                    );
                    // Seed with what this node already holds: a retried
                    // repair (some batches of a failed attempt committed
                    // durably) must not append those records again.
                    for num in target.page_numbers() {
                        let pin = target.pin_page(num)?;
                        let mut it = ObjectIter::new(&pin);
                        while let Some(rec) = it.next() {
                            ledger.insert_if_absent(record_key(rec))?;
                        }
                    }
                    for addr in &present_from {
                        // One `HASH_CHUNK` of the peer's share at a time,
                        // straight into the ledger: the heap this holds
                        // is a chunk plus the ledger's generation,
                        // whatever the share's size. A retried walk
                        // re-inserts what it already saw, a no-op.
                        self.peers.call(addr, |peer: &mut PangeaClient| {
                            peer.hash_list_for_each(&set, |hashes| {
                                hashes
                                    .into_iter()
                                    .try_for_each(|h| ledger.insert_if_absent(h).map(drop))
                            })
                        })?;
                    }
                    // Freeze the seeded ledger for `RepairLedger`
                    // paging: Absent-filtered survivors diff against
                    // exactly what was present when the session opened
                    // (the snapshot is index-stable while concurrent
                    // pushes grow the live ledger).
                    ledger.freeze_snapshot();
                    Ok(Session::new(ledger, Sink::Write(None)))
                })?;
                Ok(Response::Ok)
            }
            Request::RecoverAppend { set, records } => {
                let target = self.get_set(&set)?;
                let pairs = records.iter().map(|rec| (record_key(rec), rec.as_slice()));
                let reg = self.obs.registry();
                let acked = self.repairs.append(&target, pairs, &self.stats, reg)?;
                self.record_received(records.iter().map(Vec::as_slice));
                Ok(self.session_ack(acked))
            }
            Request::RecoverEnd { set } => {
                let sealed = self.repairs.end(&self.node, &set, self.obs.registry())?;
                Ok(self.session_ack(sealed))
            }
            Request::RepairLedger { set, start } => {
                let session = self.repairs.get(&set)?;
                let session = session.lock();
                let hashes = session
                    .ledger
                    .snapshot_chunk(start, crate::proto::HASH_CHUNK)?;
                let end = start.saturating_add(hashes.len() as u64);
                let next = (end < session.ledger.snapshot_len()).then_some((0, end));
                Ok(Response::Hashes { hashes, next })
            }
            Request::RecoverPush {
                source_set,
                target_set,
                target_addr,
                filter,
            } => self.recover_push(&source_set, &target_set, &target_addr, &filter, ctx),
            Request::TaskRun { spec } => self.run_task(&spec, ctx),
            Request::MetricsDump {
                metrics_start,
                spans_start,
            } => {
                self.freshen_resource_gauges();
                Ok(metrics_dump_response(&self.obs, metrics_start, spans_start))
            }
            Request::IngestBegin { set, reduce } => {
                // Truncate the local share: a begin is the idempotent
                // open of a *fresh* attempt, so partial output from a
                // failed prior attempt never survives into the retry
                // (provenance tags cannot be recovered from disk the way
                // repair sessions reseed from record content).
                let existing = self.get_set(&set)?;
                self.ingests.open(&set, self.obs.registry(), || {
                    let options = SetOptions {
                        durability: existing.durability(),
                        page_size: Some(existing.page_size()),
                        estimated_pages: None,
                    };
                    self.loads.retire(&set, || {
                        self.node.drop_set(existing.id())?;
                        self.node.create_set(&set, options)
                    })?;
                    let sink = match reduce {
                        Some(spec) => {
                            Sink::runs(spec, self.session_seq.fetch_add(1, Ordering::Relaxed))
                        }
                        None => Sink::Write(None),
                    };
                    let ledger = SpillLedger::new(
                        &self.node,
                        self.session_set_name(&set, "ingest-ledger"),
                        LEDGER_SPILL_ENTRIES,
                    );
                    Ok(Session::new(ledger, sink))
                })?;
                Ok(Response::Ok)
            }
            Request::IngestAppend { set, entries } => {
                let acked = self.ingest_append(&set, &entries)?;
                self.record_received(entries.iter().map(|(_, rec)| rec.as_slice()));
                Ok(self.session_ack(acked))
            }
            Request::IngestEnd { set } => {
                let sealed = self.ingests.end(&self.node, &set, self.obs.registry())?;
                Ok(self.session_ack(sealed))
            }
            Request::MgrRegisterWorker { .. }
            | Request::MgrHeartbeat { .. }
            | Request::MgrDeregisterWorker { .. }
            | Request::MgrListWorkers
            | Request::MgrRegisterSet { .. }
            | Request::MgrDeregisterSet { .. }
            | Request::MgrEntry { .. }
            | Request::MgrSetNames
            | Request::MgrAddStats { .. }
            | Request::MgrLinkReplicas { .. }
            | Request::MgrGroupMembers { .. }
            | Request::MgrGroups
            | Request::MgrBestReplica { .. }
            | Request::TraceQuery { .. }
            | Request::TracePush { .. } => Err(PangeaError::usage(
                "manager request sent to a storage node; connect to pangea-mgr instead",
            )),
        }
    }

    /// Appends one tagged batch, tags as dedup keys, into this daemon's
    /// ingest session for `set`.
    pub(crate) fn ingest_append(
        &self,
        set: &str,
        entries: &[(u64, Vec<u8>)],
    ) -> Result<(u64, u64)> {
        let target = self.get_set(set)?;
        let pairs = entries.iter().map(|(tag, rec)| (*tag, rec.as_slice()));
        self.ingests
            .append(&target, pairs, &self.stats, self.obs.registry())
    }

    /// Charges one appended batch of `payloads` to the inbound net
    /// counters: one message per record, as the simulation counts its
    /// transfers, in one update per batch. A refused batch is not
    /// charged.
    fn record_received<'r>(&self, payloads: impl Iterator<Item = &'r [u8]>) {
        let (messages, bytes) = payloads.fold((0, 0), |(n, b), rec| (n + 1, b + rec.len()));
        self.stats.record_net_batch(messages, bytes);
    }

    /// The survivor half of peer repair: scan the local `source_set`,
    /// keep what `filter` selects, and stream it in batches straight to
    /// `target_set` on the replacement at `target_addr`. The orchestrating
    /// driver only ever sees the outcome counters.
    ///
    /// An [`RepairFilter::Absent`] filter is resolved here: the
    /// survivor first pulls the replacement's seeded present-hash
    /// ledger (paginated `RepairLedger` — hashes only, no payload) and
    /// keeps only records absent from it, so a round-robin repair ships
    /// ~the lost share instead of the survivor's whole share.
    fn recover_push(
        &self,
        source_set: &str,
        target_set: &str,
        target_addr: &str,
        filter: &RepairFilter,
        ctx: Option<TraceCtx>,
    ) -> Result<Response> {
        enum Keep {
            Compiled(RecordPredicate),
            Absent(SpillLedger),
        }
        let source = self.get_set(source_set)?;
        // One pooled stream for the whole push: repeated pushes to the
        // same replacement (per survivor × source × pass) pay one dial
        // between them, not one each. Its window keeps the scan
        // producing while the replacement appends, and the
        // replacement's credit grants shrink it when its pool runs hot:
        // repair streaming is the heaviest sustained push in the system,
        // exactly the traffic a memory-pressured receiver must be able
        // to slow down.
        let mut stream = PushStream::open(&self.peers, target_addr, ctx)?;
        let keep = match filter {
            // The replacement's seeded ledger streams in `HASH_CHUNK`
            // pages into a local [`SpillLedger`]: the survivor never
            // materializes the whole ledger in heap, so a huge
            // replacement share costs this node at most the ledger's
            // in-memory generation plus pool-paged runs.
            RepairFilter::Absent => {
                let mut present = SpillLedger::new(
                    &self.node,
                    self.session_set_name(target_set, "absent-diff"),
                    LEDGER_SPILL_ENTRIES,
                );
                // The snapshot enumerates each seeded hash exactly
                // once, so a plain insert (no membership probe) is
                // enough.
                stream.call(|c| {
                    c.repair_ledger_for_each(target_set, |hashes| {
                        hashes.into_iter().try_for_each(|h| present.insert(h))
                    })
                })?;
                Keep::Absent(present)
            }
            other => Keep::Compiled(other.compile()?),
        };
        let request = |records: Vec<Vec<u8>>| Request::RecoverAppend {
            set: target_set.to_string(),
            records,
        };
        let mut report = RepairPushReport::default();
        let mut batch = PushBatch::default();
        for num in source.page_numbers() {
            let pin = source.pin_page(num)?;
            let mut it = ObjectIter::new(&pin);
            while let Some(rec) = it.next() {
                report.scanned += 1;
                let wanted = match &keep {
                    Keep::Compiled(f) => f(rec),
                    Keep::Absent(present) => !present.contains(record_key(rec))?,
                };
                if !wanted {
                    continue;
                }
                report.pushed += 1;
                report.pushed_bytes += rec.len() as u64;
                if let Some(full) = batch.push(rec.to_vec()) {
                    stream.send(full, request)?;
                }
            }
        }
        stream.send(batch.take(), request)?;
        (report.appended, report.appended_bytes) = stream.finish()?;
        // Survivor-side attribution: this node moved `pushed_bytes` of
        // repair payload to a peer without touching the driver.
        self.stats.record_repair(report.pushed_bytes as usize);
        Ok(Response::Pushed { report })
    }

    pub(crate) fn get_set(&self, name: &str) -> Result<pangea_core::LocalitySet> {
        local_set(&self.node, name)
    }
}

/// The one walker behind the cursor-paged reads of a share (`Scan`,
/// `HashList`): hands `set`'s records to `take` in storage order from
/// the `(start_page, start_record)` cursor on, until `take` says its
/// reply is full. Returns the cursor of the first record not taken, or `None`
/// once the share is exhausted. The cursor names the page to resume at,
/// so a reply costs only its own pins — pages before it are never
/// pinned again, whatever the share's size.
fn walk_share(
    set: &pangea_core::LocalitySet,
    (start_page, start_record): (u64, u64),
    mut take: impl FnMut(&[u8]) -> bool,
) -> Result<Option<(u64, u64)>> {
    let mut full = false;
    for num in set.page_numbers() {
        if num < start_page {
            continue;
        }
        let pin = set.pin_page(num)?;
        let mut it = ObjectIter::new(&pin);
        let mut idx = 0u64;
        while let Some(rec) = it.next() {
            if num > start_page || idx >= start_record {
                if full {
                    return Ok(Some((num, idx)));
                }
                full = take(rec);
            }
            idx += 1;
        }
    }
    Ok(None)
}

impl FramedService for Pangead {
    fn handle(&self, req: Request, ctx: Option<TraceCtx>, req_bytes: usize) -> Response {
        serve_instrumented(&self.obs, req, ctx, req_bytes, |req, child| {
            self.dispatch(req, child)
        })
    }
}

/// A running `pangead` server: one [`Pangead`] behind a [`FramedServer`].
#[derive(Debug)]
pub struct PangeadServer {
    daemon: Arc<Pangead>,
    server: FramedServer,
}

impl PangeadServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// serving `node` without a handshake secret.
    pub fn bind(node: StorageNode, addr: impl ToSocketAddrs) -> Result<Self> {
        Self::bind_with_secret(node, addr, None)
    }

    /// Binds `addr` and serves `node`, requiring every connection to
    /// open with [`Request::Hello`] carrying `secret` when one is given.
    pub fn bind_with_secret(
        node: StorageNode,
        addr: impl ToSocketAddrs,
        secret: Option<String>,
    ) -> Result<Self> {
        Self::bind_with_config(node, addr, secret, ServerConfig::default())
    }

    /// [`PangeadServer::bind_with_secret`] with an explicit
    /// [`ServerConfig`] (the connection cap). The server's `net.conns_open`
    /// and `net.busy_rejects` land in the daemon's own registry, so one
    /// `MetricsDump` serves storage, session, and wire-core health.
    pub fn bind_with_config(
        node: StorageNode,
        addr: impl ToSocketAddrs,
        secret: Option<String>,
        mut config: ServerConfig,
    ) -> Result<Self> {
        // The deployment shares one secret: what peers must present to
        // this daemon is also what this daemon presents when it dials
        // repair peers.
        let daemon = Arc::new(Pangead::new(node).with_peer_secret(secret.clone()));
        if config.registry.is_none() {
            config.registry = Some(daemon.obs().registry().clone());
        }
        let server = FramedServer::bind_with_config(
            Arc::clone(&daemon) as Arc<dyn FramedService>,
            addr,
            secret,
            config,
        )?;
        Ok(Self { daemon, server })
    }

    /// The bound address (with the resolved ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// The protocol daemon (for inspecting the node or its counters).
    pub fn daemon(&self) -> &Arc<Pangead> {
        &self.daemon
    }

    /// Gracefully stops the server with the default drain window: stops
    /// accepting, lets in-flight requests finish, closes connections,
    /// and joins every handler thread. Idempotent.
    pub fn shutdown(&mut self) {
        self.server.shutdown(DEFAULT_DRAIN);
    }

    /// [`PangeadServer::shutdown`] with an explicit drain window.
    pub fn shutdown_with_drain(&mut self, drain: Duration) {
        self.server.shutdown(drain);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::PangeaClient;
    use crate::frame::read_frame_corr;
    use crate::wire::WireMetric;
    use pangea_core::NodeConfig;
    use std::net::TcpStream;
    use std::time::Instant;

    fn node(tag: &str) -> StorageNode {
        node_with_pool(tag, 256 * pangea_common::KB)
    }

    fn node_with_pool(tag: &str, pool: usize) -> StorageNode {
        let dir = std::env::temp_dir().join(format!(
            "pangea-pangead-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        StorageNode::new(
            NodeConfig::new(dir)
                .with_pool_capacity(pool)
                .with_page_size(4 * pangea_common::KB),
        )
        .unwrap()
    }

    /// Loads `rows` into `set` as one pipelined batch, seals the load,
    /// and returns the acked record count.
    fn load<R: AsRef<[u8]>>(c: &mut PangeaClient, set: &str, rows: &[R]) -> u64 {
        let records = rows.iter().map(|r| r.as_ref().to_vec()).collect();
        let (corr, bytes) = c.append_submit(set, records).unwrap();
        let (appended, ..) = c.ingest_append_await(corr, bytes).unwrap();
        c.append_end(set).unwrap();
        appended
    }

    /// Page pins (hits and reloads) the node has served so far.
    fn pins(node: &StorageNode) -> u64 {
        let s = node.paging_stats();
        s.hits + s.misses
    }

    /// A scan of `set` from its first record.
    fn scan_req(set: &str) -> Request {
        Request::Scan {
            set: set.into(),
            start_page: 0,
            start_record: 0,
        }
    }

    /// Every record of `set`, asking again from each reply's cursor.
    fn scan_all(d: &Pangead, set: &str) -> Vec<Vec<u8>> {
        let mut all = Vec::new();
        let mut from = Some((0, 0));
        while let Some((start_page, start_record)) = from {
            match d.handle(Request::Scan {
                set: set.into(),
                start_page,
                start_record,
            }) {
                Response::Records { records, next } => {
                    all.extend(records);
                    from = next;
                }
                other => panic!("{other:?}"),
            }
        }
        all
    }

    /// Record `i` of a large synthetic share: the zero-padded number,
    /// then fixed padding.
    fn row(i: u64) -> Vec<u8> {
        format!("{i:07}|sixteen-byte-pad").into_bytes()
    }

    #[test]
    fn dispatch_covers_the_set_lifecycle() {
        let d = Pangead::new(node("lifecycle"));
        let resp = d.handle(Request::CreateSet {
            name: "events".into(),
            durability: "write-back".into(),
            page_size: None,
        });
        assert!(matches!(resp, Response::Created { .. }), "{resp:?}");
        let resp = d.handle(Request::Append {
            set: "events".into(),
            records: vec![b"a".to_vec(), b"bb".to_vec()],
        });
        assert!(
            matches!(
                resp,
                Response::SessionAck {
                    appended: 2,
                    bytes: 3,
                    ..
                }
            ),
            "{resp:?}"
        );
        let end = Request::AppendEnd {
            set: "events".into(),
        };
        assert_eq!(d.handle(end), Response::Ok);
        match d.handle(scan_req("events")) {
            Response::Records {
                records,
                next: None,
            } => {
                assert_eq!(records, vec![b"a".to_vec(), b"bb".to_vec()]);
            }
            other => panic!("{other:?}"),
        }
        // Dropping the set makes it unknown.
        assert_eq!(
            d.handle(Request::DropSet {
                set: "events".into()
            }),
            Response::Ok
        );
        assert!(matches!(d.handle(scan_req("events")), Response::Err { .. }));
    }

    #[test]
    fn loader_writer_follows_the_set_across_drop_and_truncate() {
        let d = Pangead::new(node("load-writer"));
        let create = || Request::CreateSet {
            name: "events".into(),
            durability: "write-through".into(),
            page_size: None,
        };
        let append = |rec: &str| {
            let records = vec![rec.as_bytes().to_vec()];
            match d.handle(Request::Append {
                set: "events".into(),
                records,
            }) {
                Response::SessionAck { appended: 1, .. } => {}
                other => panic!("{other:?}"),
            }
        };
        let end = || {
            let end = Request::AppendEnd {
                set: "events".into(),
            };
            assert_eq!(d.handle(end), Response::Ok);
        };
        let scan = || match d.handle(scan_req("events")) {
            Response::Records {
                records,
                next: None,
            } => records,
            other => panic!("{other:?}"),
        };
        assert!(matches!(d.handle(create()), Response::Created { .. }));
        // No writer open yet: the end is a no-op.
        end();

        // A writer left open on the set's first life...
        append("old");
        let drop = Request::DropSet {
            set: "events".into(),
        };
        assert_eq!(d.handle(drop), Response::Ok);
        assert!(matches!(d.handle(create()), Response::Created { .. }));
        // ...never receives an append into its second life.
        append("new");
        end();
        end();
        assert_eq!(scan(), vec![b"new".to_vec()]);

        // The same across the truncation an `IngestBegin` does.
        append("stale");
        let begin = Request::IngestBegin {
            set: "events".into(),
            reduce: None,
        };
        assert_eq!(d.handle(begin), Response::Ok);
        append("fresh");
        end();
        assert_eq!(scan(), vec![b"fresh".to_vec()]);
        let ingest_end = Request::IngestEnd {
            set: "events".into(),
        };
        assert!(matches!(d.handle(ingest_end), Response::SessionAck { .. }));
        assert_eq!(d.node().paging_stats().pinned_pages, 0);
        // Sealed once, at the end: one page written per load.
        let page = 4 * pangea_common::KB as u64;
        let sealed = d.node().disk_stats().write_cause_bytes(WriteCause::Seal);
        assert_eq!(sealed, 4 * page);
        // The dump says so too.
        let dump = d.handle(Request::MetricsDump {
            metrics_start: 0,
            spans_start: 0,
        });
        let Response::Metrics { metrics, .. } = dump else {
            panic!("{dump:?}");
        };
        let seal = metrics.iter().find_map(|m| match m {
            WireMetric::Counter { name, value } if name == WriteCause::Seal.metric() => {
                Some(*value)
            }
            _ => None,
        });
        assert_eq!(seal, Some(sealed));
    }

    #[test]
    fn missing_set_is_a_wire_error() {
        let d = Pangead::new(node("missing"));
        match d.handle(scan_req("nope")) {
            Response::Err { message } => assert!(message.contains("nope")),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn manager_requests_are_rejected_by_storage_nodes() {
        let d = Pangead::new(node("mgr-reject"));
        match d.handle(Request::MgrListWorkers) {
            Response::Err { message } => assert!(message.contains("pangea-mgr")),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn server_binds_and_shuts_down() {
        let mut server = PangeadServer::bind(node("bind"), "127.0.0.1:0").unwrap();
        assert_ne!(server.local_addr().port(), 0);
        server.shutdown();
        server.shutdown(); // idempotent
    }

    #[test]
    fn shutdown_drains_open_connections() {
        let mut server = PangeadServer::bind(node("drain"), "127.0.0.1:0").unwrap();
        let mut client = PangeaClient::connect(server.local_addr()).unwrap();
        client.ping().unwrap();
        // The connection is idle (registered, not in flight): shutdown
        // closes it and joins the handler instead of hanging forever.
        server.shutdown_with_drain(Duration::from_millis(200));
        assert!(client.ping().is_err(), "connection closed by drain");
    }

    #[test]
    fn handshake_gates_every_request_when_secret_is_set() {
        let server = PangeadServer::bind_with_secret(
            node("secret"),
            "127.0.0.1:0",
            Some("letmein".to_string()),
        )
        .unwrap();

        // No Hello: first real request is rejected with a typed error.
        let mut bare = PangeaClient::connect(server.local_addr()).unwrap();
        match bare.ping() {
            Err(PangeaError::Unauthenticated(m)) => assert!(m.contains("Hello"), "{m}"),
            other => panic!("expected Unauthenticated, got {other:?}"),
        }

        // Wrong secret: rejected.
        match PangeaClient::connect_with_secret(server.local_addr(), Some("wrong")) {
            Err(PangeaError::Unauthenticated(_)) => {}
            other => panic!("expected Unauthenticated, got {other:?}"),
        }

        // Right secret: full service.
        let mut authed =
            PangeaClient::connect_with_secret(server.local_addr(), Some("letmein")).unwrap();
        authed.ping().unwrap();
        authed.create_set("ok", "write-through", None).unwrap();
        assert_eq!(load(&mut authed, "ok", &["x"]), 1);
    }

    #[test]
    fn repair_session_dedups_and_totals() {
        let d = Pangead::new(node("repair-session"));
        d.handle(Request::CreateSet {
            name: "tgt".into(),
            durability: "write-through".into(),
            page_size: None,
        });
        // Appending without a session is a typed protocol error.
        assert!(matches!(
            d.handle(Request::RecoverAppend {
                set: "tgt".into(),
                records: vec![b"x".to_vec()],
            }),
            Response::Err { .. }
        ));
        assert_eq!(
            d.handle(Request::RecoverBegin {
                set: "tgt".into(),
                present_from: vec![],
            }),
            Response::Ok
        );
        // Duplicates are dropped within and across batches. Every ack
        // also carries a live (pool-derived) credit grant, so totals
        // are matched by pattern, never whole-value equality.
        assert!(matches!(
            d.handle(Request::RecoverAppend {
                set: "tgt".into(),
                records: vec![b"a|1".to_vec(), b"b|22".to_vec(), b"a|1".to_vec()],
            }),
            Response::SessionAck {
                appended: 2,
                bytes: 7,
                ..
            }
        ));
        assert!(matches!(
            d.handle(Request::RecoverAppend {
                set: "tgt".into(),
                records: vec![b"b|22".to_vec(), b"c|333".to_vec()],
            }),
            Response::SessionAck {
                appended: 1,
                bytes: 5,
                ..
            }
        ));
        assert!(matches!(
            d.handle(Request::RecoverEnd { set: "tgt".into() }),
            Response::SessionAck {
                appended: 3,
                bytes: 12,
                ..
            }
        ));
        // Sealing is idempotent: a retried RecoverEnd (lost ack) reads
        // the same totals back instead of failing.
        assert!(matches!(
            d.handle(Request::RecoverEnd { set: "tgt".into() }),
            Response::SessionAck {
                appended: 3,
                bytes: 12,
                ..
            }
        ));
        // A set that never had a session is still an error…
        assert!(matches!(
            d.handle(Request::RecoverEnd { set: "nope".into() }),
            Response::Err { .. }
        ));
        // …and a fresh RecoverBegin clears the sealed totals.
        assert_eq!(
            d.handle(Request::RecoverBegin {
                set: "tgt".into(),
                present_from: vec![],
            }),
            Response::Ok
        );
        assert!(matches!(
            d.handle(Request::RecoverEnd { set: "tgt".into() }),
            Response::SessionAck {
                appended: 0,
                bytes: 0,
                ..
            }
        ));
        match d.handle(scan_req("tgt")) {
            Response::Records {
                records,
                next: None,
            } => {
                assert_eq!(
                    records,
                    vec![b"a|1".to_vec(), b"b|22".to_vec(), b"c|333".to_vec()]
                );
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(d.stats().snapshot().repair_bytes, 12);
    }

    #[test]
    fn create_set_is_idempotent_and_begin_seeds_from_local_records() {
        let d = Pangead::new(node("reprovision"));
        let first = match d.handle(Request::CreateSet {
            name: "tgt".into(),
            durability: "write-through".into(),
            page_size: None,
        }) {
            Response::Created { set } => set,
            other => panic!("{other:?}"),
        };
        // Re-provisioning (a recovery retry) answers with the same set.
        assert_eq!(
            d.handle(Request::CreateSet {
                name: "tgt".into(),
                durability: "write-through".into(),
                page_size: None,
            }),
            Response::Created { set: first }
        );
        // Conflicting options still fail loudly — idempotency never
        // silently ignores what the caller asked for.
        assert!(matches!(
            d.handle(Request::CreateSet {
                name: "tgt".into(),
                durability: "write-back".into(),
                page_size: None,
            }),
            Response::Err { .. }
        ));
        // Records surviving a partial earlier repair seed the session:
        // a retried push appends nothing.
        d.handle(Request::Append {
            set: "tgt".into(),
            records: vec![b"kept|1".to_vec()],
        });
        assert_eq!(
            d.handle(Request::RecoverBegin {
                set: "tgt".into(),
                present_from: vec![],
            }),
            Response::Ok
        );
        assert!(matches!(
            d.handle(Request::RecoverAppend {
                set: "tgt".into(),
                records: vec![b"kept|1".to_vec(), b"new|2".to_vec()],
            }),
            Response::SessionAck {
                appended: 1,
                bytes: 5,
                ..
            }
        ));
        assert!(matches!(
            d.handle(Request::RecoverEnd { set: "tgt".into() }),
            Response::SessionAck {
                appended: 1,
                bytes: 5,
                ..
            }
        ));
    }

    #[test]
    fn hash_list_matches_record_hashes() {
        let d = Pangead::new(node("hashes"));
        d.handle(Request::CreateSet {
            name: "s".into(),
            durability: "write-through".into(),
            page_size: None,
        });
        d.handle(Request::Append {
            set: "s".into(),
            records: vec![b"one".to_vec(), b"two".to_vec()],
        });
        match d.handle(Request::HashList {
            set: "s".into(),
            start_page: 0,
            start_record: 0,
        }) {
            Response::Hashes { hashes, next } => {
                assert_eq!(
                    hashes,
                    vec![
                        pangea_common::record_key(b"one"),
                        pangea_common::record_key(b"two")
                    ]
                );
                assert_eq!(next, None);
            }
            other => panic!("{other:?}"),
        }
        // Pagination: the cursor skips records within the start page.
        match d.handle(Request::HashList {
            set: "s".into(),
            start_page: 0,
            start_record: 1,
        }) {
            Response::Hashes { hashes, next } => {
                assert_eq!(hashes, vec![pangea_common::record_key(b"two")]);
                assert_eq!(next, None);
            }
            other => panic!("{other:?}"),
        }
    }

    /// The tentpole flow over real sockets at daemon scope: a survivor
    /// pushes its filtered share straight into a replacement's repair
    /// session, a round-robin-style session is pre-seeded from a peer,
    /// and both sides attribute the payload to their repair counters.
    #[test]
    fn recover_push_streams_survivor_to_replacement() {
        let secret = Some("push-secret".to_string());
        let survivor =
            PangeadServer::bind_with_secret(node("push-survivor"), "127.0.0.1:0", secret.clone())
                .unwrap();
        let replacement = PangeadServer::bind_with_secret(
            node("push-replacement"),
            "127.0.0.1:0",
            secret.clone(),
        )
        .unwrap();
        let mut sc =
            PangeaClient::connect_with_secret(survivor.local_addr(), Some("push-secret")).unwrap();
        let mut rc =
            PangeaClient::connect_with_secret(replacement.local_addr(), Some("push-secret"))
                .unwrap();
        sc.create_set("src", "write-through", None).unwrap();
        rc.create_set("tgt", "write-through", None).unwrap();
        let rows: Vec<String> = (0..60).map(|i| format!("{}|row-{i}", i % 7)).collect();
        load(&mut sc, "src", &rows);

        // Lost filter: only records placing on slot 1 of a 3-node fleet.
        let filter = crate::wire::RepairFilter::Lost {
            scheme: crate::wire::SchemeSpec::Hash {
                key_name: "k".into(),
                partitions: 6,
                key: crate::wire::KeySpec::Field {
                    delim: b'|',
                    index: 0,
                },
            },
            failed: 1,
            nodes: 3,
        };
        let keep = filter.compile().unwrap();
        let expect: Vec<&String> = rows.iter().filter(|r| keep(r.as_bytes())).collect();
        assert!(!expect.is_empty() && expect.len() < rows.len());

        rc.recover_begin("tgt", &[]).unwrap();
        let push = sc
            .recover_push("src", "tgt", &replacement.local_addr().to_string(), &filter)
            .unwrap();
        assert_eq!(push.scanned, rows.len() as u64);
        assert_eq!(push.pushed, expect.len() as u64);
        assert_eq!(push.appended, push.pushed, "fresh session appends all");
        assert_eq!(push.pushed_bytes, push.appended_bytes);
        // A retried push is idempotent: the session dedups every record.
        let again = sc
            .recover_push("src", "tgt", &replacement.local_addr().to_string(), &filter)
            .unwrap();
        assert_eq!(again.appended, 0);
        let (appended, bytes) = rc.recover_end("tgt").unwrap();
        assert_eq!(appended, expect.len() as u64);
        assert!(bytes > 0);
        let got = rc.scan("tgt").unwrap();
        assert_eq!(
            got,
            expect
                .iter()
                .map(|r| r.as_bytes().to_vec())
                .collect::<Vec<_>>()
        );
        assert!(survivor.daemon().stats().snapshot().repair_bytes > 0);
        assert!(replacement.daemon().stats().snapshot().repair_bytes > 0);

        // Seeding from a peer that already holds the surviving share
        // (the round-robin path): nothing new is appended. The survivor
        // plays the peer, holding the whole "tgt2" surviving share.
        sc.create_set("tgt2", "write-through", None).unwrap();
        load(&mut sc, "tgt2", &rows);
        rc.create_set("tgt2", "write-through", None).unwrap();
        rc.recover_begin("tgt2", &[survivor.local_addr().to_string()])
            .unwrap();
        let seeded = sc
            .recover_push(
                "src",
                "tgt2",
                &replacement.local_addr().to_string(),
                &crate::wire::RepairFilter::All,
            )
            .unwrap();
        assert_eq!(seeded.pushed, rows.len() as u64, "All ships everything");
        assert_eq!(seeded.appended, 0, "present-on-peer records are skipped");
    }

    /// The Absent filter ships only the lost share: the survivor pulls
    /// the replacement's seeded ledger (`RepairLedger`) and filters at
    /// the source, so present records never cross the wire — unlike
    /// `All`, which ships everything and dedups at the destination.
    #[test]
    fn absent_push_filters_at_the_source_against_the_session_ledger() {
        let secret = Some("absent-secret".to_string());
        let survivor =
            PangeadServer::bind_with_secret(node("absent-survivor"), "127.0.0.1:0", secret.clone())
                .unwrap();
        let replacement = PangeadServer::bind_with_secret(
            node("absent-replacement"),
            "127.0.0.1:0",
            secret.clone(),
        )
        .unwrap();
        let mut sc =
            PangeaClient::connect_with_secret(survivor.local_addr(), Some("absent-secret"))
                .unwrap();
        let mut rc =
            PangeaClient::connect_with_secret(replacement.local_addr(), Some("absent-secret"))
                .unwrap();
        sc.create_set("src", "write-through", None).unwrap();
        rc.create_set("tgt", "write-through", None).unwrap();
        let rows: Vec<String> = (0..60).map(|i| format!("{i}|row-{i}")).collect();
        load(&mut sc, "src", &rows);
        // The replacement already holds a surviving share of 20 rows;
        // RecoverBegin seeds the session ledger from them.
        load(&mut rc, "tgt", &rows[..20]);
        rc.recover_begin("tgt", &[]).unwrap();

        // The ledger RPC pages the seeded hashes.
        assert_eq!(sc.call(&Request::Ping).unwrap(), Response::Ok);
        let mut probe =
            PangeaClient::connect_with_secret(replacement.local_addr(), Some("absent-secret"))
                .unwrap();
        let mut seeded = 0;
        probe
            .repair_ledger_for_each("tgt", |hashes| {
                seeded += hashes.len();
                Ok(())
            })
            .unwrap();
        assert_eq!(seeded, 20);

        let push = sc
            .recover_push(
                "src",
                "tgt",
                &replacement.local_addr().to_string(),
                &crate::wire::RepairFilter::Absent,
            )
            .unwrap();
        assert_eq!(push.scanned, 60);
        assert_eq!(push.pushed, 40, "present records filtered at the source");
        assert_eq!(push.appended, 40, "everything shipped was genuinely lost");
        assert_eq!(push.pushed_bytes, push.appended_bytes);
        let (appended, _) = rc.recover_end("tgt").unwrap();
        assert_eq!(appended, 40);
        assert_eq!(rc.count("tgt").unwrap(), 60, "full set restored");
        // Without an open session the ledger is a typed protocol error.
        assert!(probe.repair_ledger_for_each("tgt", |_| Ok(())).is_err());
    }

    /// The Absent diff on the indexed ledger: the survivor's copy of a
    /// seeded ledger two flushed runs deep costs a present record one
    /// page pin and an absent one (nearly) none, and exactly the absent
    /// records cross the wire.
    #[test]
    fn absent_diff_over_a_spilled_ledger_ships_only_the_absent_records() {
        let present = 2 * LEDGER_SPILL_ENTRIES + 1000;
        let absent = LEDGER_SPILL_ENTRIES;
        // Pools that hold both shares and the ledgers' runs: the pins
        // below are counted, and need not each be a reload from disk.
        let pool = 16 * pangea_common::MB;
        let survivor =
            PangeadServer::bind(node_with_pool("diff-survivor", pool), "127.0.0.1:0").unwrap();
        let replacement =
            PangeadServer::bind(node_with_pool("diff-replacement", pool), "127.0.0.1:0").unwrap();
        let mut sc = PangeaClient::connect(survivor.local_addr()).unwrap();
        let mut rc = PangeaClient::connect(replacement.local_addr()).unwrap();
        sc.create_set("src", "write-back", None).unwrap();
        rc.create_set("tgt", "write-back", None).unwrap();
        // Absent and present records alternate through the source until
        // the absent ones run out.
        let rows: Vec<Vec<u8>> = (0..present + absent).map(|i| row(i as u64)).collect();
        let is_absent = |i: usize| i % 2 == 1 && i / 2 < absent;
        let held: Vec<&Vec<u8>> = (0..rows.len())
            .filter(|&i| !is_absent(i))
            .map(|i| &rows[i])
            .collect();
        for chunk in rows.chunks(8192) {
            load(&mut sc, "src", chunk);
        }
        for chunk in held.chunks(8192) {
            load(&mut rc, "tgt", chunk);
        }
        rc.recover_begin("tgt", &[]).unwrap();

        let before = pins(survivor.daemon().node());
        let push = sc
            .recover_push(
                "src",
                "tgt",
                &replacement.local_addr().to_string(),
                &crate::wire::RepairFilter::Absent,
            )
            .unwrap();
        let push_pins = pins(survivor.daemon().node()) - before;
        assert_eq!(push.scanned, rows.len() as u64);
        assert_eq!(push.pushed, absent as u64, "only the absent records ship");
        assert_eq!(push.appended, absent as u64);
        assert!(
            push_pins <= (present + rows.len() / 10) as u64,
            "{push_pins} pins diffing {present} present and {absent} absent records"
        );
        assert_eq!(rc.recover_end("tgt").unwrap().0, absent as u64);
        assert_eq!(rc.count("tgt").unwrap(), rows.len() as u64, "restored");
    }

    /// A peer that holds `len` synthetic record hashes and serves them as
    /// a real share would: `HashList` replies of `chunk` hashes, cursor
    /// by chunk.
    #[derive(Debug)]
    struct HashShare {
        len: u64,
        chunk: u64,
        served: AtomicU64,
    }

    impl HashShare {
        fn serve(len: u64, chunk: u64) -> (Arc<Self>, FramedServer) {
            let share = Arc::new(Self {
                len,
                chunk,
                served: AtomicU64::new(0),
            });
            let server = FramedServer::bind(share.clone(), "127.0.0.1:0", None).unwrap();
            (share, server)
        }

        fn hash(i: u64) -> u64 {
            pangea_common::mix64(i)
        }
    }

    impl FramedService for HashShare {
        fn handle(&self, req: Request, _ctx: Option<TraceCtx>, _bytes: usize) -> Response {
            let Request::HashList { start_page, .. } = req else {
                return Response::Err {
                    message: "a hash share serves HashList only".into(),
                };
            };
            let end = self.len.min((start_page + 1) * self.chunk);
            self.served.fetch_add(1, Ordering::SeqCst);
            Response::Hashes {
                hashes: (start_page * self.chunk..end).map(Self::hash).collect(),
                next: (end < self.len).then_some((start_page + 1, 0)),
            }
        }
    }

    /// `RecoverBegin` used to pull a peer's whole share into one `Vec`
    /// before the first ledger insert. The pull streams now: a chunk is
    /// asked for only once the one before it was consumed, so a share of
    /// more than four full chunks never has two of them in the client.
    #[test]
    fn hash_list_streams_a_share_one_chunk_at_a_time() {
        let chunk = crate::proto::HASH_CHUNK as u64;
        let (share, peer) = HashShare::serve(4 * chunk + 1000, chunk);
        let mut client = PangeaClient::connect(peer.local_addr()).unwrap();
        let (mut chunks, mut next) = (0u64, 0u64);
        client
            .hash_list_for_each("tgt", |hashes| {
                chunks += 1;
                assert_eq!(share.served.load(Ordering::SeqCst), chunks, "one held");
                assert!(hashes.len() as u64 <= chunk);
                let want = (next..).map(HashShare::hash).take(hashes.len());
                assert!(hashes.iter().copied().eq(want), "chunk {chunks}");
                next += hashes.len() as u64;
                Ok(())
            })
            .unwrap();
        assert_eq!((chunks, next), (5, share.len));
    }

    /// Seeding a repair session from a peer's share, several chunks and
    /// two flushed runs long: the frozen snapshot is the share's hash
    /// set.
    #[test]
    fn recover_begin_seeds_the_ledger_from_a_chunked_peer_share() {
        let len = 2 * LEDGER_SPILL_ENTRIES as u64 + 1000;
        let (share, peer) = HashShare::serve(len, 30_000);
        let d = Pangead::new(node("seed-stream"));
        d.handle(Request::CreateSet {
            name: "tgt".into(),
            durability: "write-back".into(),
            page_size: None,
        });
        assert_eq!(
            d.handle(Request::RecoverBegin {
                set: "tgt".into(),
                present_from: vec![peer.local_addr().to_string()],
            }),
            Response::Ok
        );
        assert_eq!(share.served.load(Ordering::SeqCst), 5);
        let mut seeded = Vec::new();
        loop {
            match d.handle(Request::RepairLedger {
                set: "tgt".into(),
                start: seeded.len() as u64,
            }) {
                Response::Hashes { hashes, next } => {
                    seeded.extend(hashes);
                    if next.is_none() {
                        break;
                    }
                }
                other => panic!("{other:?}"),
            }
        }
        seeded.sort_unstable();
        let mut want: Vec<u64> = (0..len).map(HashShare::hash).collect();
        want.sort_unstable();
        assert!(seeded == want, "the snapshot is the share's hash set");
    }

    #[test]
    fn ingest_session_dedups_tags_not_content() {
        let d = Pangead::new(node("ingest-session"));
        d.handle(Request::CreateSet {
            name: "out".into(),
            durability: "write-through".into(),
            page_size: None,
        });
        // Appending without a session is a typed protocol error.
        assert!(matches!(
            d.handle(Request::IngestAppend {
                set: "out".into(),
                entries: vec![(1, b"x".to_vec())],
            }),
            Response::Err { .. }
        ));
        assert_eq!(
            d.handle(Request::IngestBegin {
                set: "out".into(),
                reduce: None,
            }),
            Response::Ok
        );
        // Identical bytes under distinct tags are honest duplicates and
        // both append; a replayed tag dedups away. (Acks also carry a
        // live credit grant, so totals are matched by pattern.)
        assert!(matches!(
            d.handle(Request::IngestAppend {
                set: "out".into(),
                entries: vec![
                    (crate::wire::ingest_tag(0, 0, b"the"), b"the".to_vec()),
                    (crate::wire::ingest_tag(0, 1, b"the"), b"the".to_vec()),
                    (crate::wire::ingest_tag(0, 0, b"the"), b"the".to_vec()),
                ],
            }),
            Response::SessionAck {
                appended: 2,
                bytes: 6,
                ..
            }
        ));
        // A lost-ack replay of the same batch appends nothing.
        assert!(matches!(
            d.handle(Request::IngestAppend {
                set: "out".into(),
                entries: vec![(crate::wire::ingest_tag(0, 1, b"the"), b"the".to_vec())],
            }),
            Response::SessionAck {
                appended: 0,
                bytes: 0,
                ..
            }
        ));
        assert!(matches!(
            d.handle(Request::IngestEnd { set: "out".into() }),
            Response::SessionAck {
                appended: 2,
                bytes: 6,
                ..
            }
        ));
        // Sealing is idempotent (lost-ack retry reads the tombstone)…
        assert!(matches!(
            d.handle(Request::IngestEnd { set: "out".into() }),
            Response::SessionAck {
                appended: 2,
                bytes: 6,
                ..
            }
        ));
        // …and a fresh begin truncates the partial output of the prior
        // attempt, so a job retry starts from zero records.
        assert_eq!(
            d.handle(Request::IngestBegin {
                set: "out".into(),
                reduce: None,
            }),
            Response::Ok
        );
        match d.handle(scan_req("out")) {
            Response::Records {
                records,
                next: None,
            } => assert!(records.is_empty(), "{records:?}"),
            other => panic!("{other:?}"),
        }
        assert!(d.stats().snapshot().shuffle_bytes > 0);
    }

    /// A map-only session writes through one writer, so small batches
    /// fill pages instead of sealing one each — and the page that
    /// writer keeps pinned must not get in the way of a retry's begin
    /// or a `DropSet`.
    #[test]
    fn map_only_session_packs_small_batches_into_shared_pages() {
        let d = Pangead::new(node("ingest-pages"));
        d.handle(Request::CreateSet {
            name: "out".into(),
            durability: "write-back".into(),
            page_size: None,
        });
        let begin = Request::IngestBegin {
            set: "out".into(),
            reduce: None,
        };
        assert_eq!(d.handle(begin.clone()), Response::Ok);
        let mut framed = 0usize;
        for batch in 0..100u64 {
            let entries: Vec<(u64, Vec<u8>)> = (0..3u64)
                .map(|i| {
                    let rec = format!("batch-{batch:03}-record-{i}").into_bytes();
                    framed += pangea_core::page::RECORD_PREFIX + rec.len();
                    (crate::wire::ingest_tag(0, batch * 3 + i, &rec), rec)
                })
                .collect();
            assert!(matches!(
                d.handle(Request::IngestAppend {
                    set: "out".into(),
                    entries,
                }),
                Response::SessionAck { appended: 3, .. }
            ));
        }
        let set = d.node.get_set("out").unwrap();
        let room = set.page_size() - pangea_core::page::PAGE_HEADER;
        assert_eq!(set.num_pages(), framed.div_ceil(room) as u64);
        assert!(set.num_pages() < 10, "not a page per batch");

        // A retry's begin replaces the still-open session: its pinned
        // page goes with it, and the truncated set starts empty.
        assert_eq!(d.handle(begin), Response::Ok);
        match d.handle(scan_req("out")) {
            Response::Records {
                records,
                next: None,
            } => assert!(records.is_empty(), "{records:?}"),
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            d.handle(Request::IngestAppend {
                set: "out".into(),
                entries: vec![(1, b"again".to_vec())],
            }),
            Response::SessionAck { appended: 1, .. }
        ));
        assert!(matches!(
            d.handle(Request::IngestEnd { set: "out".into() }),
            Response::SessionAck { appended: 1, .. }
        ));
        assert_eq!(d.node.pool().pool_stats().pinned_pages, 0, "sealed");
        match d.handle(scan_req("out")) {
            Response::Records {
                records,
                next: None,
            } => assert_eq!(records, vec![b"again".to_vec()]),
            other => panic!("{other:?}"),
        }

        // So does a drop with the session open.
        assert_eq!(
            d.handle(Request::IngestBegin {
                set: "out".into(),
                reduce: None,
            }),
            Response::Ok
        );
        d.handle(Request::IngestAppend {
            set: "out".into(),
            entries: vec![(2, b"open".to_vec())],
        });
        assert_eq!(
            d.handle(Request::DropSet { set: "out".into() }),
            Response::Ok
        );
        assert_eq!(d.node.pool().pool_stats().pinned_pages, 0);
    }

    /// A reducing session dedups through the indexed ledger like a
    /// map-only one: past two flushed runs, a lost-ack replay of an early
    /// batch is refused record by record at one page pin each, and the
    /// fresh partials before it stop at the run filters. Two sources
    /// share every key, each sending it at the ordinal its sorted output
    /// gives it, so the end folds each key from both runs.
    #[test]
    fn reducing_session_replay_dedups_across_flushed_runs_without_page_walks() {
        use crate::{KeySpec, ReduceSpec};
        use std::collections::BTreeMap;
        const BATCH: u64 = 256;
        let fresh = 2 * LEDGER_SPILL_ENTRIES as u64 + 4 * BATCH;
        let d = Pangead::new(node("ingest-reduce-replay"));
        d.handle(Request::CreateSet {
            name: "sums".into(),
            durability: "write-back".into(),
            page_size: None,
        });
        let reduce = ReduceSpec::sum(KeySpec::WholeRecord, b'|', 1);
        assert_eq!(
            d.handle(Request::IngestBegin {
                set: "sums".into(),
                reduce: Some(reduce.clone()),
            }),
            Response::Ok
        );
        let batch = |b: u64| -> Vec<(u64, Vec<u8>)> {
            let per_source = BATCH / 2;
            (0..2u32)
                .flat_map(|source| {
                    (b * per_source..(b + 1) * per_source).map(move |ordinal| {
                        let value = (ordinal + u64::from(source)) % 17;
                        let rec = format!("w{ordinal:06}|{value}").into_bytes();
                        (crate::wire::ingest_tag(source, ordinal, &rec), rec)
                    })
                })
                .collect()
        };
        let mut expect: BTreeMap<Vec<u8>, i64> = BTreeMap::new();
        let before = pins(&d.node);
        for b in 0..fresh / BATCH {
            let entries = batch(b);
            for (_, rec) in &entries {
                let (key, value) = reduce.decode_record(rec).unwrap();
                *expect.entry(key.to_vec()).or_insert(0) += value;
            }
            assert!(matches!(
                d.handle(Request::IngestAppend {
                    set: "sums".into(),
                    entries,
                }),
                Response::SessionAck {
                    appended: BATCH,
                    ..
                }
            ));
        }
        let fresh_pins = pins(&d.node) - before;
        assert!(
            fresh_pins * 20 < fresh,
            "{fresh_pins} pins probing {fresh} fresh tags"
        );

        let dedup = d.obs.registry().counter(names::INGEST_DEDUP_HITS);
        let (hits_before, before) = (dedup.get(), pins(&d.node));
        assert!(matches!(
            d.handle(Request::IngestAppend {
                set: "sums".into(),
                entries: batch(1),
            }),
            Response::SessionAck {
                appended: 0,
                bytes: 0,
                ..
            }
        ));
        assert_eq!(dedup.get() - hits_before, BATCH);
        let replay_pins = pins(&d.node) - before;
        assert!(
            replay_pins <= BATCH + BATCH / 10,
            "{replay_pins} pins refusing {BATCH} replayed tags"
        );

        let want: Vec<Vec<u8>> = expect
            .iter()
            .map(|(key, value)| reduce.encode_record(key, *value))
            .collect();
        let bytes: u64 = want.iter().map(|r| r.len() as u64).sum();
        match d.handle(Request::IngestEnd { set: "sums".into() }) {
            Response::SessionAck {
                appended, bytes: b, ..
            } => assert_eq!((appended, b), (want.len() as u64, bytes)),
            other => panic!("{other:?}"),
        }
        assert!(scan_all(&d, "sums") == want, "the merge folds both runs");
        assert_eq!(d.node.pool().pool_stats().pinned_pages, 0, "sealed");
    }

    /// An append that was already waiting on the session lock when the
    /// batch ahead of it failed must fail too — it used to run on the
    /// poisoned session's half-updated state (and, on a reduce
    /// accumulator whose spill had failed, panic the io thread, leaving
    /// its sender waiting for an ack forever).
    #[test]
    fn append_queued_behind_a_failed_batch_fails_too() {
        let d = Arc::new(Pangead::new(node("ingest-poison")));
        d.handle(Request::CreateSet {
            name: "out".into(),
            durability: "write-back".into(),
            page_size: None,
        });
        d.handle(Request::IngestBegin {
            set: "out".into(),
            reduce: None,
        });
        let session = d.ingests.get("out").unwrap();
        let mut guard = session.lock();
        let queued = {
            let d = Arc::clone(&d);
            std::thread::spawn(move || {
                d.handle(Request::IngestAppend {
                    set: "out".into(),
                    entries: vec![(1, b"late".to_vec())],
                })
            })
        };
        // The map, this test and the queued append each hold the session.
        while Arc::strong_count(&session) < 3 {
            std::thread::yield_now();
        }
        // What a failing batch does before it lets go of the lock.
        guard.poisoned = true;
        drop(guard);
        d.ingests.forget("out", d.obs.registry());
        assert!(matches!(queued.join().unwrap(), Response::Err { .. }));
        match d.handle(scan_req("out")) {
            Response::Records {
                records,
                next: None,
            } => assert!(records.is_empty(), "{records:?}"),
            other => panic!("{other:?}"),
        }
    }

    /// A batch dedups its own repeats by the session's key, before any
    /// of it reaches the ledger: a repair batch carrying one record twice
    /// restores it once, while an ingest batch keeps equal bytes under
    /// two tags. The inbound net counters still see every record.
    #[test]
    fn a_batch_drops_its_own_repeated_keys_and_keeps_equal_bytes_under_two_tags() {
        let d = Pangead::new(node("batch-repeats"));
        for name in ["tgt", "out"] {
            d.handle(Request::CreateSet {
                name: name.into(),
                durability: "write-back".into(),
                page_size: None,
            });
        }
        d.handle(Request::RecoverBegin {
            set: "tgt".into(),
            present_from: vec![],
        });
        let net_before = d.stats().snapshot();
        assert!(matches!(
            d.handle(Request::RecoverAppend {
                set: "tgt".into(),
                records: vec![b"twice".to_vec(), b"once".to_vec(), b"twice".to_vec()],
            }),
            Response::SessionAck {
                appended: 2,
                bytes: 9,
                ..
            }
        ));
        let net = d.stats().snapshot().delta_since(&net_before);
        assert_eq!((net.net_messages, net.net_bytes), (3, 14));
        d.handle(Request::RecoverEnd { set: "tgt".into() });

        d.handle(Request::IngestBegin {
            set: "out".into(),
            reduce: None,
        });
        assert!(matches!(
            d.handle(Request::IngestAppend {
                set: "out".into(),
                entries: vec![
                    (1, b"the".to_vec()),
                    (2, b"the".to_vec()),
                    (1, b"the".to_vec())
                ],
            }),
            Response::SessionAck { appended: 2, .. }
        ));
        d.handle(Request::IngestEnd { set: "out".into() });
        for (set, want) in [("tgt", ["twice", "once"]), ("out", ["the", "the"])] {
            match d.handle(scan_req(set)) {
                Response::Records {
                    records,
                    next: None,
                } => {
                    assert_eq!(records, want.map(|r| r.as_bytes().to_vec()), "{set}")
                }
                other => panic!("{other:?}"),
            }
        }
    }

    /// A store that fails part-way through a batch poisons the ingest
    /// session after writing the records before the failure; the retry's
    /// begin truncates them, and the retried batch converges.
    #[test]
    fn a_store_failing_mid_batch_poisons_the_session_and_the_retry_converges() {
        let d = Pangead::new(node("ingest-mid-batch"));
        d.handle(Request::CreateSet {
            name: "out".into(),
            durability: "write-back".into(),
            page_size: None,
        });
        let begin = Request::IngestBegin {
            set: "out".into(),
            reduce: None,
        };
        assert_eq!(d.handle(begin.clone()), Response::Ok);
        let oversized = vec![b'x'; d.node.get_set("out").unwrap().page_size()];
        assert!(matches!(
            d.handle(Request::IngestAppend {
                set: "out".into(),
                entries: vec![
                    (1, b"first".to_vec()),
                    (2, oversized),
                    (3, b"third".to_vec())
                ],
            }),
            Response::Err { .. }
        ));
        assert!(d.ingests.get("out").is_err(), "the session ended");
        assert!(matches!(
            d.handle(Request::IngestAppend {
                set: "out".into(),
                entries: vec![(3, b"third".to_vec())],
            }),
            Response::Err { .. }
        ));

        assert_eq!(d.handle(begin), Response::Ok);
        let retry = Request::IngestAppend {
            set: "out".into(),
            entries: vec![(1, b"first".to_vec()), (3, b"third".to_vec())],
        };
        assert!(matches!(
            d.handle(retry.clone()),
            Response::SessionAck { appended: 2, .. }
        ));
        assert!(matches!(
            d.handle(retry),
            Response::SessionAck { appended: 0, .. }
        ));
        assert!(matches!(
            d.handle(Request::IngestEnd { set: "out".into() }),
            Response::SessionAck {
                appended: 2,
                bytes: 10,
                ..
            }
        ));
        match d.handle(scan_req("out")) {
            Response::Records {
                records,
                next: None,
            } => {
                assert_eq!(records, vec![b"first".to_vec(), b"third".to_vec()])
            }
            other => panic!("{other:?}"),
        }
    }

    /// The repair session's twin of the replay test above: its content
    /// ledger is the indexed one, so past two flushed runs a replayed
    /// batch is refused at one page pin per record and the fresh records
    /// before it stop at the run filters.
    #[test]
    fn repair_session_replay_dedups_across_flushed_runs_without_page_walks() {
        const BATCH: u64 = 256;
        let fresh = 2 * LEDGER_SPILL_ENTRIES as u64 + 4 * BATCH;
        let d = Pangead::new(node("repair-replay"));
        d.handle(Request::CreateSet {
            name: "tgt".into(),
            durability: "write-back".into(),
            page_size: None,
        });
        assert_eq!(
            d.handle(Request::RecoverBegin {
                set: "tgt".into(),
                present_from: vec![],
            }),
            Response::Ok
        );
        let batch = |b: u64| -> Vec<Vec<u8>> { (b * BATCH..(b + 1) * BATCH).map(row).collect() };
        let before = pins(&d.node);
        for b in 0..fresh / BATCH {
            assert!(matches!(
                d.handle(Request::RecoverAppend {
                    set: "tgt".into(),
                    records: batch(b),
                }),
                Response::SessionAck {
                    appended: BATCH,
                    ..
                }
            ));
        }
        let fresh_pins = pins(&d.node) - before;
        assert!(
            fresh_pins * 20 < fresh,
            "{fresh_pins} pins storing {fresh} fresh records"
        );

        let dedup = d.obs.registry().counter(names::REPAIR_DEDUP_HITS);
        let (hits_before, before) = (dedup.get(), pins(&d.node));
        assert!(matches!(
            d.handle(Request::RecoverAppend {
                set: "tgt".into(),
                records: batch(1),
            }),
            Response::SessionAck {
                appended: 0,
                bytes: 0,
                ..
            }
        ));
        assert_eq!(dedup.get() - hits_before, BATCH);
        let replay_pins = pins(&d.node) - before;
        assert!(
            replay_pins <= BATCH + BATCH / 10,
            "{replay_pins} pins refusing {BATCH} replayed records"
        );
        assert!(matches!(
            d.handle(Request::RecoverEnd { set: "tgt".into() }),
            Response::SessionAck { appended, .. } if appended == fresh
        ));
        assert_eq!(d.node.pool().pool_stats().pinned_pages, 0, "sealed");
    }

    /// A repair session writes through one writer, so small batches fill
    /// pages instead of sealing one each — and a retry's `RecoverBegin`
    /// over the half-finished session re-seeds from every record it
    /// stored, the open page's included.
    #[test]
    fn repair_session_packs_small_batches_and_a_retried_begin_reseeds_from_them() {
        let d = Pangead::new(node("repair-pages"));
        d.handle(Request::CreateSet {
            name: "tgt".into(),
            durability: "write-back".into(),
            page_size: None,
        });
        let begin = Request::RecoverBegin {
            set: "tgt".into(),
            present_from: vec![],
        };
        // Eight distinct seven-byte records per batch.
        let batch = |b: u64| -> Vec<Vec<u8>> {
            (0..8u64)
                .map(|i| format!("{b:03}-{i:03}").into_bytes())
                .collect()
        };
        assert_eq!(d.handle(begin.clone()), Response::Ok);
        let mut framed = 0usize;
        for b in 0..100 {
            let records = batch(b);
            framed += records
                .iter()
                .map(|r| pangea_core::page::RECORD_PREFIX + r.len())
                .sum::<usize>();
            assert!(matches!(
                d.handle(Request::RecoverAppend {
                    set: "tgt".into(),
                    records,
                }),
                Response::SessionAck { appended: 8, .. }
            ));
        }
        let set = d.node.get_set("tgt").unwrap();
        let room = set.page_size() - pangea_core::page::PAGE_HEADER;
        assert_eq!(set.num_pages(), framed.div_ceil(room) as u64);
        assert!(set.num_pages() < 10, "not a page per batch");
        assert_eq!(d.node.pool().pool_stats().pinned_pages, 1, "the open page");

        // The attempt dies here; its retry begins again and replays.
        assert_eq!(d.handle(begin), Response::Ok);
        assert_eq!(d.node.pool().pool_stats().pinned_pages, 0, "closed");
        for b in 0..100 {
            assert!(matches!(
                d.handle(Request::RecoverAppend {
                    set: "tgt".into(),
                    records: batch(b),
                }),
                Response::SessionAck { appended: 0, .. }
            ));
        }
        assert!(matches!(
            d.handle(Request::RecoverAppend {
                set: "tgt".into(),
                records: vec![b"lost-by-the-first-attempt".to_vec()],
            }),
            Response::SessionAck { appended: 1, .. }
        ));
        assert!(matches!(
            d.handle(Request::RecoverEnd { set: "tgt".into() }),
            Response::SessionAck { appended: 1, .. }
        ));
        assert_eq!(d.node.pool().pool_stats().pinned_pages, 0, "sealed");
        let want: Vec<Vec<u8>> = (0..100)
            .flat_map(batch)
            .chain([b"lost-by-the-first-attempt".to_vec()])
            .collect();
        match d.handle(scan_req("tgt")) {
            Response::Records {
                records,
                next: None,
            } => assert_eq!(records, want),
            other => panic!("{other:?}"),
        }

        // A drop with the session open takes its pinned page along.
        d.handle(Request::RecoverBegin {
            set: "tgt".into(),
            present_from: vec![],
        });
        d.handle(Request::RecoverAppend {
            set: "tgt".into(),
            records: vec![b"open".to_vec()],
        });
        assert_eq!(
            d.handle(Request::DropSet { set: "tgt".into() }),
            Response::Ok
        );
        assert_eq!(d.node.pool().pool_stats().pinned_pages, 0);
    }

    /// A batch that fails part-way ends its repair session: later
    /// appends — one already queued on the session lock included — are
    /// refused, and the retry's begin re-seeds from what the failed
    /// batch did store.
    #[test]
    fn repair_append_behind_a_failed_batch_is_refused_and_the_retry_reseeds() {
        let d = Arc::new(Pangead::new(node("repair-poison")));
        d.handle(Request::CreateSet {
            name: "tgt".into(),
            durability: "write-back".into(),
            page_size: None,
        });
        let begin = Request::RecoverBegin {
            set: "tgt".into(),
            present_from: vec![],
        };
        assert_eq!(d.handle(begin.clone()), Response::Ok);
        // No page holds the middle record, so the batch fails after
        // storing the first one.
        let oversized = vec![b'x'; d.node.get_set("tgt").unwrap().page_size()];
        assert!(matches!(
            d.handle(Request::RecoverAppend {
                set: "tgt".into(),
                records: vec![b"first".to_vec(), oversized, b"third".to_vec()],
            }),
            Response::Err { .. }
        ));
        assert!(d.repairs.get("tgt").is_err(), "the session ended");
        match d.handle(Request::RecoverAppend {
            set: "tgt".into(),
            records: vec![b"third".to_vec()],
        }) {
            Response::Err { message } => assert!(message.contains("RecoverBegin"), "{message}"),
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            d.handle(Request::RecoverEnd { set: "tgt".into() }),
            Response::Err { .. }
        ));

        assert_eq!(d.handle(begin), Response::Ok);
        assert!(matches!(
            d.handle(Request::RecoverAppend {
                set: "tgt".into(),
                records: vec![b"first".to_vec(), b"third".to_vec()],
            }),
            Response::SessionAck { appended: 1, .. }
        ));

        let session = d.repairs.get("tgt").unwrap();
        let mut guard = session.lock();
        let queued = {
            let d = Arc::clone(&d);
            std::thread::spawn(move || {
                d.handle(Request::RecoverAppend {
                    set: "tgt".into(),
                    records: vec![b"late".to_vec()],
                })
            })
        };
        // The map, this test and the queued append each hold the session.
        while Arc::strong_count(&session) < 3 {
            std::thread::yield_now();
        }
        // What a failing batch does before it lets go of the lock.
        guard.poisoned = true;
        d.repairs.forget("tgt", d.obs.registry());
        drop(guard);
        assert!(matches!(queued.join().unwrap(), Response::Err { .. }));
        match d.handle(scan_req("tgt")) {
            Response::Records {
                records,
                next: None,
            } => {
                assert_eq!(records, vec![b"first".to_vec(), b"third".to_vec()])
            }
            other => panic!("{other:?}"),
        }
    }

    /// A reducing ingest session keeps incoming `key|value` partials
    /// (tag-deduped) as per-source runs and merges them at the seal —
    /// which stays tombstone-idempotent like the plain session.
    #[test]
    fn reducing_ingest_session_folds_partials_and_materializes_at_end() {
        use crate::{KeySpec, ReduceSpec};
        let d = Pangead::new(node("ingest-reduce"));
        d.handle(Request::CreateSet {
            name: "counts".into(),
            durability: "write-through".into(),
            page_size: None,
        });
        let reduce = ReduceSpec::count(KeySpec::WholeRecord, b'|');
        assert_eq!(
            d.handle(Request::IngestBegin {
                set: "counts".into(),
                reduce: Some(reduce.clone()),
            }),
            Response::Ok
        );
        // Two mappers' partials for "the" (3 + 2), one for "fox" (1),
        // each source's in its sorted order; a replayed tag dedups away
        // instead of double-counting.
        assert!(matches!(
            d.handle(Request::IngestAppend {
                set: "counts".into(),
                entries: vec![
                    (crate::wire::ingest_tag(0, 7, b"fox|1"), b"fox|1".to_vec()),
                    (crate::wire::ingest_tag(1, 7, b"the|2"), b"the|2".to_vec()),
                    (crate::wire::ingest_tag(0, 9, b"the|3"), b"the|3".to_vec()),
                    (crate::wire::ingest_tag(1, 7, b"the|2"), b"the|2".to_vec()),
                ],
            }),
            Response::SessionAck {
                appended: 3,
                bytes: 15,
                ..
            }
        ));
        // Nothing is stored until the seal…
        match d.handle(scan_req("counts")) {
            Response::Records {
                records,
                next: None,
            } => assert!(records.is_empty(), "{records:?}"),
            other => panic!("{other:?}"),
        }
        // …which materializes one record per key, sorted, and is
        // idempotent on retry.
        for _ in 0..2 {
            assert!(matches!(
                d.handle(Request::IngestEnd {
                    set: "counts".into()
                }),
                Response::SessionAck {
                    appended: 2,
                    bytes: 10,
                    ..
                }
            ));
        }
        match d.handle(scan_req("counts")) {
            Response::Records {
                records,
                next: None,
            } => {
                assert_eq!(records, vec![b"fox|1".to_vec(), b"the|5".to_vec()]);
            }
            other => panic!("{other:?}"),
        }
    }

    /// One source's reduce partials for keys `keys`, in the order its
    /// mapper ships them, tagged by position: `(tag, key|value)`.
    fn partials(reduce: &crate::ReduceSpec, source: u32, keys: &[String]) -> Vec<(u64, Vec<u8>)> {
        keys.iter()
            .enumerate()
            .map(|(ordinal, key)| {
                let value = (ordinal as i64 * 7 + i64::from(source)) % 23 - 5;
                let rec = reduce.encode_record(key.as_bytes(), value);
                (crate::wire::ingest_tag(source, ordinal as u64, &rec), rec)
            })
            .collect()
    }

    /// The names of `set`'s run and ingest-ledger backing sets on `d`.
    fn ingest_backing_sets(d: &Pangead, set: &str) -> Vec<String> {
        let (run, ledger) = (format!("{set}::run-"), format!("{set}::ingest-ledger."));
        d.node
            .set_ids()
            .into_iter()
            .filter_map(|id| d.node.get_set_by_id(id))
            .map(|s| s.name().to_string())
            .filter(|name| name.starts_with(&run) || name.starts_with(&ledger))
            .collect()
    }

    /// A run that goes backwards was not produced by the protocol: the
    /// end refuses it as corruption instead of sorting it, leaves no
    /// tombstone, and the next begin starts clean.
    #[test]
    fn a_run_going_backwards_fails_the_end_as_corruption() {
        use crate::{KeySpec, ReduceSpec};
        let d = Pangead::new(node("ingest-reduce-backwards"));
        d.handle(Request::CreateSet {
            name: "counts".into(),
            durability: "write-back".into(),
            page_size: None,
        });
        let reduce = ReduceSpec::count(KeySpec::WholeRecord, b'|');
        let begin = Request::IngestBegin {
            set: "counts".into(),
            reduce: Some(reduce.clone()),
        };
        assert_eq!(d.handle(begin.clone()), Response::Ok);
        let tagged = |source, ordinal, rec: &[u8]| {
            (crate::wire::ingest_tag(source, ordinal, rec), rec.to_vec())
        };
        assert!(matches!(
            d.handle(Request::IngestAppend {
                set: "counts".into(),
                entries: vec![
                    tagged(0, 0, b"ant|1"),
                    tagged(1, 0, b"bee|4"),
                    tagged(0, 1, b"cat|2"),
                    tagged(0, 2, b"bat|3"),
                ],
            }),
            Response::SessionAck { appended: 4, .. }
        ));
        match d.ingests.end(&d.node, "counts", d.obs.registry()) {
            Err(PangeaError::Corruption(m)) => assert!(m.contains("backwards"), "{m}"),
            other => panic!("{other:?}"),
        }
        // No tombstone: a retried end fails loudly, not with totals.
        assert!(matches!(
            d.handle(Request::IngestEnd {
                set: "counts".into()
            }),
            Response::Err { .. }
        ));
        assert!(ingest_backing_sets(&d, "counts").is_empty());
        assert_eq!(d.node.pool().pool_stats().pinned_pages, 0);

        // The next attempt's begin truncates whatever the failed merge
        // wrote, and its sorted runs seal.
        assert_eq!(d.handle(begin), Response::Ok);
        assert!(scan_all(&d, "counts").is_empty());
        assert!(matches!(
            d.handle(Request::IngestAppend {
                set: "counts".into(),
                entries: vec![
                    tagged(0, 0, b"ant|1"),
                    tagged(0, 1, b"bat|3"),
                    tagged(0, 2, b"cat|2"),
                    tagged(1, 0, b"bat|4"),
                ],
            }),
            Response::SessionAck { appended: 4, .. }
        ));
        assert!(matches!(
            d.handle(Request::IngestEnd {
                set: "counts".into()
            }),
            Response::SessionAck { appended: 3, .. }
        ));
        assert_eq!(
            scan_all(&d, "counts"),
            vec![b"ant|1".to_vec(), b"bat|7".to_vec(), b"cat|2".to_vec()]
        );
    }

    /// A dead attempt's queued batches (a prefix of each source's
    /// stream) interleave, batch by batch, with a full retry's — batched
    /// differently, so some batches are half new. The first arrival of
    /// every ordinal is still in order, so the sealed output equals a
    /// clean single-attempt session's record for record.
    #[test]
    fn interleaved_dead_attempt_and_retry_merge_like_one_clean_attempt() {
        use crate::{KeySpec, ReduceSpec};
        let d = Pangead::new(node("ingest-reduce-interleave"));
        let reduce = ReduceSpec::sum(KeySpec::WholeRecord, b'|', 1);
        // Three sources whose sorted keys overlap: every key is shipped
        // by one, two or three of them.
        let streams: Vec<Vec<(u64, Vec<u8>)>> = (0..3u32)
            .map(|source| {
                let keys: Vec<String> = (0..300u32)
                    .filter(|k| (k + source) % 3 != 0 || k % 5 == 0)
                    .map(|k| format!("key-{k:04}"))
                    .collect();
                partials(&reduce, source, &keys)
            })
            .collect();
        let begin = |set: &str| {
            d.handle(Request::CreateSet {
                name: set.into(),
                durability: "write-back".into(),
                page_size: None,
            });
            assert_eq!(
                d.handle(Request::IngestBegin {
                    set: set.into(),
                    reduce: Some(reduce.clone()),
                }),
                Response::Ok
            );
        };
        let append = |set: &str, entries: &[(u64, Vec<u8>)]| {
            d.handle(Request::IngestAppend {
                set: set.into(),
                entries: entries.to_vec(),
            });
        };
        let end = |set: &str| match d.handle(Request::IngestEnd { set: set.into() }) {
            Response::SessionAck {
                appended, bytes, ..
            } => (appended, bytes),
            other => panic!("{other:?}"),
        };

        begin("clean");
        for stream in &streams {
            stream.chunks(16).for_each(|batch| append("clean", batch));
        }
        let clean_totals = end("clean");
        let clean = scan_all(&d, "clean");
        let mut expect = std::collections::BTreeMap::<Vec<u8>, i64>::new();
        for (_, rec) in streams.iter().flatten() {
            let (key, value) = reduce.decode_record(rec).unwrap();
            *expect.entry(key.to_vec()).or_insert(0) += value;
        }
        let want: Vec<Vec<u8>> = expect
            .iter()
            .map(|(key, value)| reduce.encode_record(key, *value))
            .collect();
        assert!(clean == want, "a clean attempt folds every key once");

        for seed in 0..8u64 {
            let set = format!("retried-{seed}");
            begin(&set);
            // Per source, the dead attempt's batches of 11 up to a cut,
            // and the retry's batches of 16 over the whole stream.
            let mut queues: Vec<std::collections::VecDeque<_>> = streams
                .iter()
                .enumerate()
                .flat_map(|(s, stream)| {
                    let cut = stream.len() * (seed as usize * 3 + s + 1) / 26;
                    [
                        stream[..cut].chunks(11).collect(),
                        stream.chunks(16).collect(),
                    ]
                })
                .collect();
            let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            while queues.iter().any(|q| !q.is_empty()) {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                let live: Vec<usize> = (0..queues.len())
                    .filter(|&i| !queues[i].is_empty())
                    .collect();
                let pick = live[(rng % live.len() as u64) as usize];
                let batch = queues[pick].pop_front().expect("a live queue");
                append(&set, batch);
            }
            assert_eq!(end(&set), clean_totals, "seed {seed}");
            assert!(
                scan_all(&d, &set) == clean,
                "seed {seed}: not the clean output"
            );
        }
    }

    /// However a reducing session goes — sealed, poisoned by a failed
    /// append, replaced by a fresh begin, or dropped with its set — its
    /// run sets and its ledger's set go with it, and no page stays
    /// pinned.
    #[test]
    fn reducing_sessions_leave_no_backing_sets_however_they_end() {
        use crate::{KeySpec, ReduceSpec};
        let d = Pangead::new(node("ingest-reduce-orphans"));
        let reduce = ReduceSpec::count(KeySpec::WholeRecord, b'|');
        // Past the ledger's in-memory generation, so it has flushed a
        // run into a backing set of its own.
        let keys: Vec<String> = (0..LEDGER_SPILL_ENTRIES / 2 + 100)
            .map(|k| format!("{k:06}"))
            .collect();
        let open = |how: &str| {
            d.handle(Request::CreateSet {
                name: "out".into(),
                durability: "write-back".into(),
                page_size: None,
            });
            assert_eq!(
                d.handle(Request::IngestBegin {
                    set: "out".into(),
                    reduce: Some(reduce.clone()),
                }),
                Response::Ok
            );
            for source in 0..2 {
                for batch in partials(&reduce, source, &keys).chunks(4096) {
                    assert!(
                        matches!(
                            d.handle(Request::IngestAppend {
                                set: "out".into(),
                                entries: batch.to_vec(),
                            }),
                            Response::SessionAck { .. }
                        ),
                        "{how}"
                    );
                }
            }
            let mut held = ingest_backing_sets(&d, "out");
            held.sort();
            assert_eq!(held.len(), 3, "{how}: {held:?}");
            assert!(held[0].contains("::ingest-ledger."), "{how}: {held:?}");
            assert!(held[1].contains("::run-0."), "{how}: {held:?}");
            assert!(held[2].contains("::run-1."), "{how}: {held:?}");
        };
        let released = |how: &str| {
            assert!(
                ingest_backing_sets(&d, "out").is_empty(),
                "{how}: {:?}",
                ingest_backing_sets(&d, "out")
            );
            assert_eq!(d.node.pool().pool_stats().pinned_pages, 0, "{how}");
        };

        open("sealed");
        assert!(matches!(
            d.handle(Request::IngestEnd { set: "out".into() }),
            Response::SessionAck { appended, .. } if appended == keys.len() as u64
        ));
        released("sealed");

        open("poisoned");
        let too_big = vec![b'x'; 8 * pangea_common::KB];
        assert!(matches!(
            d.handle(Request::IngestAppend {
                set: "out".into(),
                entries: vec![(crate::wire::ingest_tag(0, 1 << 40, &too_big), too_big)],
            }),
            Response::Err { .. }
        ));
        released("poisoned");

        open("replaced");
        assert_eq!(
            d.handle(Request::IngestBegin {
                set: "out".into(),
                reduce: Some(reduce.clone()),
            }),
            Response::Ok
        );
        released("replaced");

        open("dropped");
        assert_eq!(
            d.handle(Request::DropSet { set: "out".into() }),
            Response::Ok
        );
        released("dropped");
    }

    /// A provenance tag carries 16 bits of source slot, so a task
    /// naming a wider slot is refused up front as a usage error, while
    /// the widest slot that fits runs.
    #[test]
    fn a_task_whose_source_overflows_a_tag_is_a_usage_error() {
        use crate::{Job, KeySpec, MapSpec, SchemeSpec, TaskSpec};
        let d = Pangead::new(node("task-wide-source"));
        d.handle(Request::CreateSet {
            name: "lines".into(),
            durability: "write-back".into(),
            page_size: None,
        });
        let spec = |source| TaskSpec {
            job: Job {
                input: "lines".into(),
                output: "words".into(),
                map: MapSpec::extract(KeySpec::WholeRecord),
                reduce: None,
                scheme: SchemeSpec::Hash {
                    key_name: "word".into(),
                    partitions: 1,
                    key: KeySpec::WholeRecord,
                },
                nodes: 1,
            },
            source,
            dests: vec![],
        };
        match d.run_task(&spec(u32::from(u16::MAX) + 1), None) {
            Err(PangeaError::InvalidUsage(m)) => assert!(m.contains("16 bits"), "{m}"),
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            d.run_task(&spec(u32::from(u16::MAX)), None),
            Ok(Response::TaskDone {
                report: crate::TaskReport { scanned: 0, .. }
            })
        ));
    }

    /// The tentpole flow at daemon scope over real sockets: a shipped
    /// map task scans its local input share, applies the declarative
    /// map, and streams routed batches straight into the destination
    /// daemons' ingest sessions — and a re-run task is idempotent.
    #[test]
    fn run_task_maps_and_routes_to_destination_ingests() {
        use crate::{Job, KeySpec, MapSpec, SchemeSpec, TaskSpec};
        let secret = Some("task-secret".to_string());
        let mapper =
            PangeadServer::bind_with_secret(node("task-mapper"), "127.0.0.1:0", secret.clone())
                .unwrap();
        let dest0 =
            PangeadServer::bind_with_secret(node("task-dest0"), "127.0.0.1:0", secret.clone())
                .unwrap();
        let dest1 =
            PangeadServer::bind_with_secret(node("task-dest1"), "127.0.0.1:0", secret.clone())
                .unwrap();
        let mut mc =
            PangeaClient::connect_with_secret(mapper.local_addr(), Some("task-secret")).unwrap();
        let mut c0 =
            PangeaClient::connect_with_secret(dest0.local_addr(), Some("task-secret")).unwrap();
        let mut c1 =
            PangeaClient::connect_with_secret(dest1.local_addr(), Some("task-secret")).unwrap();
        mc.create_set("lines", "write-through", None).unwrap();
        let rows: Vec<String> = (0..80)
            .map(|i| format!("{}|w{}|junk", i % 2, i % 9))
            .collect();
        load(&mut mc, "lines", &rows);
        for c in [&mut c0, &mut c1] {
            c.create_set("words", "write-through", None).unwrap();
            c.ingest_begin("words", None).unwrap();
        }

        // Keep rows whose first field is "1", emit field 1, route by the
        // whole emitted record over 4 partitions striping 2 nodes.
        let spec = TaskSpec {
            job: Job {
                input: "lines".into(),
                output: "words".into(),
                map: MapSpec::extract(KeySpec::Field {
                    delim: b'|',
                    index: 1,
                })
                .with_filter(crate::FilterSpec::KeyEquals {
                    key: KeySpec::Field {
                        delim: b'|',
                        index: 0,
                    },
                    value: b"1".to_vec(),
                }),
                reduce: None,
                scheme: SchemeSpec::Hash {
                    key_name: "word".into(),
                    partitions: 4,
                    key: KeySpec::WholeRecord,
                },
                // The mapper plays slot 2 — outside the 2-wide
                // destination stripe — so nothing self-routes and every
                // record crosses a real socket to dest0/dest1 (the
                // self-destined shortcut would otherwise expect slot 0
                // to be this daemon's own ingest session, per the
                // TaskSpec::source contract).
                nodes: 2,
            },
            source: 2,
            dests: vec![
                (0, dest0.local_addr().to_string()),
                (1, dest1.local_addr().to_string()),
            ],
        };
        let report = mc.run_task(&spec).unwrap();
        assert_eq!(report.scanned, rows.len() as u64);
        assert_eq!(report.emitted, 40, "half the rows pass the filter");
        assert_eq!(report.appended, report.emitted, "fresh sessions append all");
        assert_eq!(report.emitted_bytes, report.appended_bytes);

        // A re-run task (a retry) re-derives the same tags: nothing new.
        let again = mc.run_task(&spec).unwrap();
        assert_eq!(again.emitted, 40);
        assert_eq!(again.appended, 0, "provenance tags dedup the retry");

        // Every emitted record landed on the node its scheme names, and
        // honest duplicates survived (multiple rows share each word).
        let (e0, _) = c0.ingest_end("words").unwrap();
        let (e1, _) = c1.ingest_end("words").unwrap();
        assert_eq!(e0 + e1, 40);
        let scheme = crate::wire::SchemeSpec::Hash {
            key_name: "word".into(),
            partitions: 4,
            key: KeySpec::WholeRecord,
        };
        let mut seen = 0u64;
        for (n, c) in [(0u32, &mut c0), (1u32, &mut c1)] {
            for rec in c.scan("words").unwrap() {
                assert_eq!(scheme.node_of(&rec, 0, 2), n, "{rec:?} misrouted");
                assert!(rec.starts_with(b"w"), "{rec:?} not a projected word");
                seen += 1;
            }
        }
        assert_eq!(seen, 40);
        // Both sides attribute the payload to their shuffle counters.
        assert!(mapper.daemon().stats().snapshot().shuffle_bytes > 0);
        assert!(
            dest0.daemon().stats().snapshot().shuffle_bytes
                + dest1.daemon().stats().snapshot().shuffle_bytes
                > 0
        );
    }

    #[test]
    fn hello_is_harmless_without_a_secret() {
        let server = PangeadServer::bind(node("nosecret"), "127.0.0.1:0").unwrap();
        let mut client =
            PangeaClient::connect_with_secret(server.local_addr(), Some("anything")).unwrap();
        client.ping().unwrap();
    }

    /// Dropping a set must clear its session state: before the fix a
    /// sealed-session tombstone survived `DropSet`, so a retried
    /// `RecoverEnd`/`IngestEnd` against a *recreated* set of the same
    /// name answered the dead set's totals instead of erroring.
    #[test]
    fn drop_set_clears_session_tombstones_and_open_sessions() {
        let d = Pangead::new(node("tombstone"));
        let create = Request::CreateSet {
            name: "s".into(),
            durability: "write-through".into(),
            page_size: None,
        };
        d.handle(create.clone());
        // Seal a repair session and an ingest session on the first life.
        d.handle(Request::RecoverBegin {
            set: "s".into(),
            present_from: vec![],
        });
        d.handle(Request::RecoverAppend {
            set: "s".into(),
            records: vec![b"a|1".to_vec()],
        });
        assert!(matches!(
            d.handle(Request::RecoverEnd { set: "s".into() }),
            Response::SessionAck {
                appended: 1,
                bytes: 3,
                ..
            }
        ));
        d.handle(Request::IngestBegin {
            set: "s".into(),
            reduce: None,
        });
        d.handle(Request::IngestAppend {
            set: "s".into(),
            entries: vec![(crate::wire::ingest_tag(0, 0, b"x"), b"x".to_vec())],
        });
        assert!(matches!(
            d.handle(Request::IngestEnd { set: "s".into() }),
            Response::SessionAck {
                appended: 1,
                bytes: 1,
                ..
            }
        ));

        // Drop and recreate the set under the same name.
        assert_eq!(d.handle(Request::DropSet { set: "s".into() }), Response::Ok);
        assert!(matches!(d.handle(create), Response::Created { .. }));

        // The new life has no sessions: a retried seal is a typed
        // protocol error, not the dead set's totals.
        assert!(matches!(
            d.handle(Request::RecoverEnd { set: "s".into() }),
            Response::Err { .. }
        ));
        assert!(matches!(
            d.handle(Request::IngestEnd { set: "s".into() }),
            Response::Err { .. }
        ));
        // And fresh sessions start from zero, unpolluted by the old
        // ledgers.
        d.handle(Request::RecoverBegin {
            set: "s".into(),
            present_from: vec![],
        });
        assert!(matches!(
            d.handle(Request::RecoverAppend {
                set: "s".into(),
                records: vec![b"a|1".to_vec()],
            }),
            Response::SessionAck {
                appended: 1,
                bytes: 3,
                ..
            }
        ));
        // Dropping with sessions still open clears them too.
        assert_eq!(d.handle(Request::DropSet { set: "s".into() }), Response::Ok);
        assert!(matches!(
            d.handle(Request::RecoverAppend {
                set: "s".into(),
                records: vec![b"a|1".to_vec()],
            }),
            Response::Err { .. }
        ));
    }

    /// Ingest and repair sessions live in separate tables: one kind's
    /// session on a set neither answers for nor is replaced by the other
    /// kind's requests.
    #[test]
    fn repair_and_ingest_sessions_are_namespaced_per_kind() {
        let d = Pangead::new(node("namespaced"));
        for name in ["s", "t"] {
            d.handle(Request::CreateSet {
                name: name.into(),
                durability: "write-through".into(),
                page_size: None,
            });
        }
        d.handle(Request::RecoverBegin {
            set: "s".into(),
            present_from: vec![],
        });
        // An open repair session on `s` is not an ingest session.
        match d.handle(Request::IngestAppend {
            set: "s".into(),
            entries: vec![(crate::wire::ingest_tag(0, 0, b"x"), b"x".to_vec())],
        }) {
            Response::Err { message } => {
                assert!(message.contains("no ingest session"), "{message}")
            }
            other => panic!("{other:?}"),
        }
        // A whole ingest session on another set leaves it untouched.
        d.handle(Request::IngestBegin {
            set: "t".into(),
            reduce: None,
        });
        assert!(matches!(
            d.handle(Request::IngestEnd { set: "t".into() }),
            Response::SessionAck { appended: 0, .. }
        ));
        assert!(matches!(
            d.handle(Request::RecoverAppend {
                set: "s".into(),
                records: vec![b"a|1".to_vec()],
            }),
            Response::SessionAck { appended: 1, .. }
        ));
        assert!(matches!(
            d.handle(Request::RecoverEnd { set: "s".into() }),
            Response::SessionAck { appended: 1, .. }
        ));
    }

    /// Distinct records that differ only across an 8-byte word boundary
    /// are each restored: the repair ledger keys records by
    /// `record_key`, which keeps them apart where `fx_hash64` folds 24
    /// of these 300 names onto others.
    #[test]
    fn look_alike_records_are_all_restored() {
        let d = Pangead::new(node("look-alike"));
        d.handle(Request::CreateSet {
            name: "tgt".into(),
            durability: "write-back".into(),
            page_size: None,
        });
        d.handle(Request::RecoverBegin {
            set: "tgt".into(),
            present_from: vec![],
        });
        let records: Vec<Vec<u8>> = (0..100)
            .flat_map(|b| (0..3).map(move |r| format!("batch-{b:03}-record-{r}").into_bytes()))
            .collect();
        assert!(matches!(
            d.handle(Request::RecoverAppend {
                set: "tgt".into(),
                records,
            }),
            Response::SessionAck { appended: 300, .. }
        ));
    }

    /// Every checked-out peer connection is returned exactly once:
    /// `checkouts == checkins + drops` must hold after successful pushes
    /// AND after a push that fails mid-flight (before the fix the
    /// failure path leaked the checkout without a matching drop).
    #[test]
    fn failed_push_accounts_for_the_checked_out_peer() {
        let secret = Some("acct-secret".to_string());
        let survivor =
            PangeadServer::bind_with_secret(node("acct-survivor"), "127.0.0.1:0", secret.clone())
                .unwrap();
        let replacement = PangeadServer::bind_with_secret(
            node("acct-replacement"),
            "127.0.0.1:0",
            secret.clone(),
        )
        .unwrap();
        let mut sc =
            PangeaClient::connect_with_secret(survivor.local_addr(), Some("acct-secret")).unwrap();
        let mut rc =
            PangeaClient::connect_with_secret(replacement.local_addr(), Some("acct-secret"))
                .unwrap();
        sc.create_set("src", "write-through", None).unwrap();
        load(&mut sc, "src", &["a|1", "b|2"]);
        rc.create_set("tgt", "write-through", None).unwrap();

        let balanced = |d: &Pangead| {
            let reg = d.obs().registry();
            let (out, back, drops) = (
                reg.counter("pool.checkouts").get(),
                reg.counter("pool.checkins").get(),
                reg.counter("pool.drops").get(),
            );
            assert_eq!(out, back + drops, "checkouts {out} != {back} + {drops}");
            (out, back, drops)
        };

        // No open session on the replacement: the Absent push fails at
        // the ledger RPC, *after* the peer was checked out.
        let err = sc.recover_push(
            "src",
            "tgt",
            &replacement.local_addr().to_string(),
            &crate::wire::RepairFilter::Absent,
        );
        assert!(err.is_err());
        let (out, _, drops) = balanced(survivor.daemon());
        assert_eq!(out, 1, "the failed push did check a peer out");
        assert_eq!(drops, 1, "…and dropped it on the error path");

        // A successful push balances through the checkin path.
        rc.recover_begin("tgt", &[]).unwrap();
        sc.recover_push(
            "src",
            "tgt",
            &replacement.local_addr().to_string(),
            &crate::wire::RepairFilter::Absent,
        )
        .unwrap();
        let (out, back, _) = balanced(survivor.daemon());
        assert_eq!(out, 2);
        assert_eq!(back, 1);
    }

    /// A peer restarted at the same address leaves a dead idle
    /// connection in the pusher's pool. The next `RecoverPush` and the
    /// next map task into the new peer each ping it, find it dead, and
    /// dial afresh, so both succeed.
    #[test]
    fn pushes_redial_a_peer_restarted_at_the_same_address() {
        use crate::{Job, KeySpec, MapSpec, SchemeSpec, TaskSpec};
        const SECRET: &str = "restart-secret";
        let pusher = PangeadServer::bind_with_secret(
            node("restart-pusher"),
            "127.0.0.1:0",
            Some(SECRET.into()),
        )
        .unwrap();
        let mut pc = PangeaClient::connect_with_secret(pusher.local_addr(), Some(SECRET)).unwrap();
        pc.create_set("src", "write-through", None).unwrap();
        let rows = ["a|1", "b|2", "c|3"];
        load(&mut pc, "src", &rows);
        let serve = |tag: &str, addr: &str| {
            PangeadServer::bind_with_secret(node(tag), addr, Some(SECRET.into())).unwrap()
        };
        let mut peer = serve("restart-peer-1", "127.0.0.1:0");
        let addr = peer.local_addr().to_string();
        // The pusher plays slot 1 and routes everything to slot 0, the
        // peer, so every record crosses the socket.
        let spec = TaskSpec {
            job: Job {
                input: "src".into(),
                output: "words".into(),
                map: MapSpec::identity(),
                reduce: None,
                scheme: SchemeSpec::Hash {
                    key_name: "row".into(),
                    partitions: 1,
                    key: KeySpec::WholeRecord,
                },
                nodes: 1,
            },
            source: 1,
            dests: vec![(0, addr.clone())],
        };
        let mut push_both = |peer: &PangeadServer| {
            let mut c = PangeaClient::connect_with_secret(peer.local_addr(), Some(SECRET)).unwrap();
            c.create_set("tgt", "write-through", None).unwrap();
            c.create_set("words", "write-through", None).unwrap();
            c.recover_begin("tgt", &[]).unwrap();
            c.ingest_begin("words", None).unwrap();
            let pushed = pc
                .recover_push("src", "tgt", &addr, &RepairFilter::All)
                .expect("RecoverPush into the peer");
            assert_eq!(pushed.appended, rows.len() as u64);
            let mapped = pc.run_task(&spec).expect("map task into the peer");
            assert_eq!(mapped.appended, rows.len() as u64);
            assert_eq!(c.recover_end("tgt").unwrap().0, rows.len() as u64);
            assert_eq!(c.ingest_end("words").unwrap().0, rows.len() as u64);
        };
        push_both(&peer);
        peer.shutdown();
        drop(peer);
        let peer = serve("restart-peer-2", &addr);
        push_both(&peer);
        let reg = pusher.daemon().obs().registry();
        let count = |name: &str| reg.counter(name).get();
        assert_eq!(count("pool.dials"), 2, "one dial per peer incarnation");
        assert_eq!(count("pool.drops"), 1, "the stale connection was dropped");
        assert_eq!(
            count("pool.checkouts"),
            count("pool.checkins") + count("pool.drops")
        );
    }

    /// The pipelined session contract over a real socket: several
    /// `IngestAppend` batches in flight on one connection, acks awaited
    /// *out of order* (the client parks responses by correlation id),
    /// and a lost-ack replay of an already-applied batch — identical
    /// provenance tags — dedups away entirely. The sealed totals count
    /// exactly one copy of every record.
    #[test]
    fn pipelined_ingest_acks_out_of_order_and_replays_stay_idempotent() {
        let server = PangeadServer::bind_with_secret(
            node("pipe-dest"),
            "127.0.0.1:0",
            Some("pipe-secret".to_string()),
        )
        .unwrap();
        let mut c =
            PangeaClient::connect_with_secret(server.local_addr(), Some("pipe-secret")).unwrap();
        c.create_set("out", "write-through", None).unwrap();
        c.ingest_begin("out", None).unwrap();
        let batch = |n: u64| -> Vec<(u64, Vec<u8>)> {
            (0..8u64)
                .map(|i| {
                    let rec = format!("b{n}r{i}").into_bytes();
                    (crate::wire::ingest_tag(0, n * 8 + i, &rec), rec)
                })
                .collect()
        };

        // Three batches on the wire before a single response is read.
        let (corr1, p1) = c.ingest_append_submit("out", batch(0)).unwrap();
        let (corr2, p2) = c.ingest_append_submit("out", batch(1)).unwrap();
        let (corr3, p3) = c.ingest_append_submit("out", batch(2)).unwrap();
        assert_eq!(c.pipelined(), 3);

        // Await newest-first: earlier responses park until asked for.
        let (a3, _, credit) = c.ingest_append_await(corr3, p3).unwrap();
        assert_eq!(a3, 8);
        assert!(credit >= 1, "a live receiver always grants at least 1");
        let (a1, ..) = c.ingest_append_await(corr1, p1).unwrap();
        let (a2, ..) = c.ingest_append_await(corr2, p2).unwrap();
        assert_eq!((a1, a2), (8, 8));
        assert_eq!(c.pipelined(), 0);

        // Lost-ack replay: batch 1 rides again with identical tags and
        // appends nothing — pipelined retries stay idempotent.
        let (corr_r, p_r) = c.ingest_append_submit("out", batch(1)).unwrap();
        let (ra, rb, _) = c.ingest_append_await(corr_r, p_r).unwrap();
        assert_eq!((ra, rb), (0, 0));

        let (appended, _) = c.ingest_end("out").unwrap();
        assert_eq!(appended, 24, "one copy of each record, replay deduped");
    }

    /// The accept path is capped, not an unbounded thread spawn: the
    /// connection beyond `max_conns` is refused with a typed
    /// [`PangeaError::Busy`] before any request is served, the reject is
    /// counted, and closing a live connection frees its slot (the
    /// `net.conns_open` gauge follows).
    #[test]
    fn connection_cap_rejects_with_typed_busy_and_frees_on_close() {
        let server = PangeadServer::bind_with_config(
            node("conn-cap"),
            "127.0.0.1:0",
            None,
            ServerConfig {
                max_conns: 2,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut held: Vec<PangeaClient> = Vec::new();
        for _ in 0..2 {
            let mut c = PangeaClient::connect(server.local_addr()).unwrap();
            c.ping().unwrap(); // handshake done: the slot is registered
            held.push(c);
        }
        let reg = server.daemon().obs().registry();
        assert_eq!(reg.gauge("net.conns_open").get(), 2);

        // One over the cap: the server answers a typed Busy at accept
        // and hangs up. Read it raw — writing first would race the
        // server's close into a connection reset.
        let mut over = TcpStream::connect(server.local_addr()).unwrap();
        let (corr, payload) = read_frame_corr(&mut over).unwrap().unwrap();
        assert_eq!(corr, 0, "a connection-level error answers no request");
        match Response::decode(&payload).unwrap().into_result() {
            Err(PangeaError::Busy(m)) => assert!(m.contains("cap"), "{m}"),
            other => panic!("expected Busy, got {other:?}"),
        }
        assert_eq!(reg.counter("net.busy_rejects").get(), 1);

        // Hanging up frees the slot for the next dial.
        drop(held.pop());
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let admitted = PangeaClient::connect(server.local_addr())
                .map(|mut c| c.ping().is_ok())
                .unwrap_or(false);
            if admitted {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "slot was never freed after the peer hung up"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(reg.gauge("net.conns_open").get() <= 2);
    }

    /// A plain `call` is a window-of-one submit on the same correlated
    /// path, so it may run while pipelined batches are outstanding: the
    /// ping answers `Ok`, and both earlier acks stay parked for their
    /// own awaits, intact.
    #[test]
    fn call_interleaves_with_outstanding_pipelined_submits() {
        let server = PangeadServer::bind(node("call-mid-pipe"), "127.0.0.1:0").unwrap();
        let mut c = PangeaClient::connect(server.local_addr()).unwrap();
        c.create_set("out", "write-through", None).unwrap();
        c.ingest_begin("out", None).unwrap();
        let batch = |n: u64| -> Vec<(u64, Vec<u8>)> {
            (0..4u64)
                .map(|i| {
                    let rec = format!("b{n}r{i}").into_bytes();
                    (crate::wire::ingest_tag(0, n * 4 + i, &rec), rec)
                })
                .collect()
        };
        let (corr1, p1) = c.ingest_append_submit("out", batch(0)).unwrap();
        let (corr2, p2) = c.ingest_append_submit("out", batch(1)).unwrap();
        assert_eq!(c.pipelined(), 2);

        c.ping().unwrap();
        assert_eq!(c.pipelined(), 2, "the ping's own round trip is done");

        let (a1, b1, _) = c.ingest_append_await(corr1, p1).unwrap();
        let (a2, b2, _) = c.ingest_append_await(corr2, p2).unwrap();
        assert_eq!((a1, a2), (4, 4));
        assert_eq!((b1, b2), (p1 as u64, p2 as u64));
        assert_eq!(c.pipelined(), 0);
        assert_eq!(c.ingest_end("out").unwrap(), (8, (p1 + p2) as u64));
    }
}
