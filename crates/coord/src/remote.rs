//! [`RemoteCluster`] — the client frontend that drives a real Pangea
//! deployment: N `pangead` processes plus one `pangea-mgr`, with no
//! shared memory anywhere. It speaks only `PangeaClient`/manager RPCs
//! and reuses `pangea-cluster`'s generic engine, so distributed-set
//! dispatch (batched), replication, and recovery are the *same code*
//! that runs in `SimCluster` — only the [`WorkerBackend`] and catalog
//! seams differ.
//!
//! Byte accounting: every record appended to a remote worker counts its
//! payload length once in the shared client-side ledger (and once in
//! the receiving daemon's counters), exactly like a `SimNetwork`
//! transfer of the same record — so a load measured here matches the
//! same load on the simulation. Scans, which are free shared-memory
//! reads in the simulation, *do* cross the wire here and are charged to
//! the same ledger (the driver-mediated recovery cost; see DESIGN.md
//! §control-plane).

use crate::client::{ManagerClient, MgrConn, RemoteCatalog};
use pangea_cluster::engine::{
    Catalog, ClusterCore, EngineSet, MapShuffleReport, PeerRepair, RecordSink, RecoveryReport,
    ReplicaReport, TaskExec, WorkerBackend,
};
use pangea_cluster::{PartitionKind, PartitionScheme};
use pangea_common::ReplicaGroupId;
use pangea_common::{Epoch, FxHashMap, IoStats, NodeId, PangeaError, Result};
use pangea_net::{
    MapSpec, PangeaClient, ReduceSpec, RepairFilter, RepairPushReport, SchemeSpec, TaskReport,
    TaskSpec, WireSpan, WireWorker, WorkerState,
};
use pangea_obs::{Obs, SpanRecord, TraceCtx};
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Default heartbeat cadence for [`WorkerAgent`]s.
pub const DEFAULT_HEARTBEAT: Duration = Duration::from_millis(500);

struct RemoteWorkersInner {
    /// Slot `i` holds the advertised address of worker `i` while it is
    /// alive; `None` marks a dead/left slot.
    slots: RwLock<Vec<Option<String>>>,
    /// One pooled idle client per worker, keyed with the advertised
    /// address it was opened against (so a slot replacement at a new
    /// address never reuses a stale connection). The pool holds only
    /// *idle* connections: a client is checked out for the duration of
    /// an RPC, so one slow or hung worker never blocks RPCs to others.
    clients: Mutex<FxHashMap<NodeId, (String, PangeaClient)>>,
    secret: Option<String>,
    /// Shared payload-byte ledger across all per-worker clients.
    stats: Arc<IoStats>,
    /// Driver-side observability bundle over the same registry as
    /// `stats`: every RPC the driver issues lands one span in its ring,
    /// correlated by the active job id.
    obs: Obs,
    /// The `(job id, job-root span id)` for the RPCs currently in
    /// flight (set for the duration of a `map_shuffle`/`map_reduce`/
    /// recovery call, `None` between jobs). Shared across the per-slot
    /// orchestration threads. Every driver RPC span parents under the
    /// job root, so one job stitches into exactly one tree.
    job: Mutex<Option<(u64, u64)>>,
    /// The most recently allocated job id — what a caller correlates
    /// worker-side spans against after a job returns.
    last_job: Mutex<Option<u64>>,
    /// The driver ring's incremental export cursor: spans below it have
    /// already been pushed to the manager's fleet span store. Drivers
    /// are transient and unscrapable, so they *push* their `DriverRpc`
    /// root spans after each traced job instead of being polled.
    trace_cursor: Mutex<u64>,
    /// Test-only rendezvous invoked at the start of each worker's map
    /// task (before the `TaskRun` RPC is issued) — lets a fault-injection
    /// test prove per-worker tasks genuinely overlap, and inject a kill
    /// at a deterministic point. Mirrors `RemoteCluster`'s recovery hook.
    task_hook: Mutex<Option<Arc<dyn Fn(NodeId) + Send + Sync>>>,
}

impl std::fmt::Debug for RemoteWorkersInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteWorkersInner")
            .field("slots", &self.slots)
            .finish()
    }
}

/// The remote [`WorkerBackend`]: every operation is an RPC against the
/// slot's `pangead`. Cheap to clone.
#[derive(Debug, Clone)]
pub struct RemoteWorkers {
    inner: Arc<RemoteWorkersInner>,
}

impl RemoteWorkers {
    fn new(secret: Option<&str>) -> Self {
        let stats = Arc::new(IoStats::new());
        Self {
            inner: Arc::new(RemoteWorkersInner {
                slots: RwLock::new(Vec::new()),
                clients: Mutex::new(FxHashMap::default()),
                secret: secret.map(str::to_string),
                stats: Arc::clone(&stats),
                obs: Obs::with_registry(stats.registry().clone()),
                job: Mutex::new(None),
                last_job: Mutex::new(None),
                trace_cursor: Mutex::new(0),
                task_hook: Mutex::new(None),
            }),
        }
    }

    /// The shared client-side wire ledger (payload net bytes).
    pub fn stats(&self) -> &Arc<IoStats> {
        &self.inner.stats
    }

    /// The driver-side observability bundle: the metrics registry shared
    /// with [`RemoteWorkers::stats`] plus the span ring holding one
    /// driver span per RPC issued under a traced job.
    pub fn obs(&self) -> &Obs {
        &self.inner.obs
    }

    /// The id of the most recently traced job (`map_shuffle`,
    /// `map_reduce`, or a recovery), or `None` before the first one.
    /// Worker-side `MetricsDump` spans carry the same id.
    pub fn last_job(&self) -> Option<u64> {
        *self.inner.last_job.lock()
    }

    /// Drains the driver ring's spans past the export cursor into wire
    /// form, advancing the cursor. Returns the spans plus the number of
    /// spans the ring evicted before they could be exported (nonzero
    /// when jobs outpace pushes — the manager counts the loss so traces
    /// can report themselves incomplete).
    fn drain_trace(&self) -> (Vec<WireSpan>, u64) {
        let mut cursor = self.inner.trace_cursor.lock();
        let (spans, gap) = self.inner.obs.ring().since_with_gap(*cursor);
        if let Some((last_seq, _)) = spans.last() {
            *cursor = last_seq + 1;
        }
        let wire = spans
            .into_iter()
            .map(|(seq, r)| WireSpan {
                seq,
                job: r.job,
                span: r.span,
                parent: r.parent,
                op: r.op,
                peer: r.peer,
                start_ns: r.start_ns,
                end_ns: r.end_ns,
                bytes: r.bytes,
                outcome: r.outcome,
            })
            .collect();
        (wire, gap)
    }

    /// Scopes a fresh trace job id around `f`: every RPC issued from
    /// any thread while `f` runs carries `TraceCtx { job, .. }` on the
    /// wire and records a driver span under it. The whole scope is
    /// itself recorded as one `DriverJob` root span; per-RPC driver
    /// spans parent under it, so a job's fleet-wide spans stitch into
    /// exactly one tree with the driver at the root.
    fn with_job<T>(&self, f: impl FnOnce() -> T) -> T {
        let job = pangea_obs::next_job_id();
        let root = pangea_obs::next_span_id();
        *self.inner.job.lock() = Some((job, root));
        *self.inner.last_job.lock() = Some(job);
        let start = self.inner.obs.now_ns();
        let out = f();
        *self.inner.job.lock() = None;
        self.inner.obs.ring().record(SpanRecord {
            job,
            span: root,
            parent: 0,
            op: "DriverJob".to_string(),
            peer: String::new(),
            start_ns: start,
            end_ns: self.inner.obs.now_ns(),
            bytes: 0,
            outcome: "ok".to_string(),
        });
        out
    }

    fn addr_of(&self, n: NodeId) -> Result<String> {
        self.inner
            .slots
            .read()
            .get(n.raw() as usize)
            .and_then(Clone::clone)
            .ok_or(PangeaError::NodeUnavailable(n))
    }

    /// Installs a fresh membership snapshot: alive slots keep (or gain)
    /// their address, everything else is evicted along with its cached
    /// client connection.
    fn install_membership(&self, workers: &[WireWorker]) {
        let len = workers
            .iter()
            .map(|w| w.node as usize + 1)
            .max()
            .unwrap_or(0);
        let mut slots = vec![None; len];
        for w in workers {
            if w.state == WorkerState::Alive {
                slots[w.node as usize] = Some(w.addr.clone());
            }
        }
        let mut clients = self.inner.clients.lock();
        clients.retain(|n, (opened_against, _)| {
            slots
                .get(n.raw() as usize)
                .and_then(|s| s.as_deref())
                .is_some_and(|addr| addr == opened_against)
        });
        *self.inner.slots.write() = slots;
    }

    /// Runs `f` (a single RPC — it may be retried once) with the slot's
    /// pooled client, connecting on first use. The client is checked
    /// *out* of the pool for the call — the pool lock is never held
    /// across socket I/O, so a hung worker cannot wedge RPCs to other
    /// workers (or membership refreshes).
    ///
    /// A *pooled* connection may have gone stale while idle (worker
    /// restarted at the same address). An `Io` failure on a pooled
    /// connection means the request got no response byte — `pangead`
    /// always writes a response before closing, and mid-response
    /// failures surface as `Corruption` — so the call is retried once on
    /// a fresh connection.
    ///
    /// A fresh connection that *also* fails at the socket level (refused,
    /// reset, EOF mid-request) means the worker process is gone even if
    /// the membership snapshot still lists it: the error surfaces as the
    /// typed [`PangeaError::NodeUnavailable`], so a batched dispatch
    /// flushing into a freshly-dead worker fails the same way it would
    /// against an evicted slot — callers dispatch on the variant, not on
    /// error prose. Non-I/O failures propagate unchanged.
    fn with_client<T>(&self, n: NodeId, f: impl Fn(&mut PangeaClient) -> Result<T>) -> Result<T> {
        let addr = self.addr_of(n)?;
        let job = *self.inner.job.lock();
        let ctx = job.map(|(job, _)| TraceCtx {
            job,
            span: pangea_obs::next_span_id(),
        });
        let start = self.inner.obs.now_ns();
        let out = self.with_client_at(n, &addr, ctx, f);
        if let Some(ctx) = ctx {
            // One driver span per RPC: the root of the worker-side span
            // tree this request grows (the receiving daemon records its
            // own child span with `parent = ctx.span`). The outcome is
            // the *final* result after the stale-connection retry — a
            // killed worker surfaces here as the typed
            // `NodeUnavailable` text.
            self.inner.obs.ring().record(SpanRecord {
                job: ctx.job,
                span: ctx.span,
                parent: job.map(|(_, root)| root).unwrap_or(0),
                op: "DriverRpc".to_string(),
                peer: addr,
                start_ns: start,
                end_ns: self.inner.obs.now_ns(),
                bytes: 0,
                outcome: match &out {
                    Ok(_) => "ok".to_string(),
                    Err(e) => e.to_string(),
                },
            });
        }
        out
    }

    /// The untraced body of [`RemoteWorkers::with_client`]: pool
    /// checkout, the stale-idle-connection retry, and the Io →
    /// `NodeUnavailable` mapping.
    fn with_client_at<T>(
        &self,
        n: NodeId,
        addr: &str,
        ctx: Option<TraceCtx>,
        f: impl Fn(&mut PangeaClient) -> Result<T>,
    ) -> Result<T> {
        let cached = self.inner.clients.lock().remove(&n);
        if let Some((opened_against, mut client)) = cached {
            if opened_against == addr {
                client.set_trace(ctx);
                match f(&mut client) {
                    Ok(out) => {
                        self.check_in(n, addr.to_string(), client);
                        return Ok(out);
                    }
                    // Stale idle connection: provably unprocessed, retry
                    // below on a fresh one.
                    Err(PangeaError::Io(_)) => {}
                    Err(e) => return Err(e),
                }
            }
        }
        let mut client = PangeaClient::connect_with(
            addr,
            self.inner.secret.as_deref(),
            Some(Arc::clone(&self.inner.stats)),
        )
        .map_err(|e| match e {
            PangeaError::Io(_) => PangeaError::NodeUnavailable(n),
            other => PangeaError::Remote(format!("connecting {n} at {addr}: {other}")),
        })?;
        client.set_trace(ctx);
        let out = f(&mut client);
        match out {
            Ok(out) => {
                self.check_in(n, addr.to_string(), client);
                Ok(out)
            }
            Err(PangeaError::Io(_)) => Err(PangeaError::NodeUnavailable(n)),
            Err(e) => Err(e),
        }
    }

    /// Returns an idle connection to the pool. Concurrent callers may
    /// have raced a connection in; last one in wins the single idle
    /// slot, the loser just closes.
    fn check_in(&self, n: NodeId, addr: String, mut client: PangeaClient) {
        client.set_trace(None);
        self.inner.clients.lock().insert(n, (addr, client));
    }
}

/// A sink appending to one remote set: each batch is one `Append` RPC
/// (the daemon seals its write after every request, so `finish` is a
/// no-op here).
#[derive(Debug)]
struct RemoteSink {
    workers: RemoteWorkers,
    node: NodeId,
    set: String,
}

impl RecordSink for RemoteSink {
    fn append(&mut self, _from: NodeId, records: &[Vec<u8>]) -> Result<()> {
        if records.is_empty() {
            return Ok(());
        }
        // The RPC *is* the wire: the client charges the batch's payload
        // bytes to the shared ledger, mirroring a SimNetwork transfer.
        self.workers
            .with_client(self.node, |c| c.append(&self.set, records))?;
        Ok(())
    }

    fn finish(self: Box<Self>) -> Result<()> {
        Ok(())
    }
}

impl WorkerBackend for RemoteWorkers {
    fn num_nodes(&self) -> u32 {
        self.inner.slots.read().len() as u32
    }

    fn alive_nodes(&self) -> Vec<NodeId> {
        self.inner
            .slots
            .read()
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|_| NodeId(i as u32)))
            .collect()
    }

    fn create_set(&self, n: NodeId, name: &str) -> Result<()> {
        self.with_client(n, |c| c.create_set(name, "write-through", None))?;
        Ok(())
    }

    fn drop_set(&self, n: NodeId, name: &str) -> Result<()> {
        // DropSet is idempotent on the daemon: nodes that never held
        // the set answer Ok (mirrors SimWorkers).
        self.with_client(n, |c| c.drop_set(name))
    }

    fn open_sink(&self, n: NodeId, set: &str) -> Result<Box<dyn RecordSink>> {
        // Fail early if the slot has no address.
        self.addr_of(n)?;
        Ok(Box::new(RemoteSink {
            workers: self.clone(),
            node: n,
            set: set.to_string(),
        }))
    }

    fn scan(&self, n: NodeId, set: &str, f: &mut dyn FnMut(&[u8]) -> Result<()>) -> Result<()> {
        // Prefer the one-shot scan RPC (exact record-byte accounting);
        // fall back to the page-by-page recovery read path when the set
        // no longer fits one reply frame.
        let records = match self.with_client(n, |c| c.scan(set)) {
            Ok(records) => records,
            Err(PangeaError::ScanTooLarge { .. }) => {
                return self.scan_pages(n, set, f);
            }
            Err(e) => return Err(e),
        };
        for rec in &records {
            f(rec)?;
        }
        Ok(())
    }

    fn count(&self, n: NodeId, set: &str) -> Result<u64> {
        // Server-side count: no record payload crosses the wire, so
        // diagnostics like `total_records` stay O(1) in wire bytes and
        // never inflate the shared payload ledger.
        self.with_client(n, |c| c.count(set))
    }

    fn net_bytes(&self) -> u64 {
        self.inner.stats.snapshot().net_bytes
    }

    fn peer_repair(&self) -> Option<&dyn PeerRepair> {
        Some(self)
    }

    fn task_exec(&self) -> Option<&dyn TaskExec> {
        Some(self)
    }
}

/// The remote task-shipping capability: every operation is a control
/// RPC (no record payload on the driver's connections) — each worker
/// scans its own share and streams the mapped output straight to the
/// destination workers' ingest sessions.
impl TaskExec for RemoteWorkers {
    fn ingest_begin(&self, dest: NodeId, set: &str, reduce: Option<&ReduceSpec>) -> Result<()> {
        self.with_client(dest, |c| c.ingest_begin(set, reduce))
    }

    fn map_task(
        &self,
        worker: NodeId,
        input: &str,
        output: &str,
        map: &MapSpec,
        reduce: Option<&ReduceSpec>,
        scheme: &SchemeSpec,
        nodes: u32,
    ) -> Result<TaskReport> {
        // Clone the hook out before invoking it (never hold the lock
        // across the call — it would serialize "parallel" tasks).
        let hook = self.inner.task_hook.lock().clone();
        if let Some(hook) = hook {
            hook(worker);
        }
        // The engine hands logical job parameters; this backend owns the
        // address book, so it fills in the wire task's destinations and
        // the executing worker's provenance slot.
        let dests: Vec<(u32, String)> = self
            .inner
            .slots
            .read()
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|addr| (i as u32, addr.clone())))
            .collect();
        let spec = TaskSpec {
            input: input.to_string(),
            output: output.to_string(),
            map: map.clone(),
            reduce: reduce.cloned(),
            scheme: scheme.clone(),
            nodes,
            source: worker.raw(),
            dests,
        };
        self.with_client(worker, |c| c.run_task(&spec))
    }

    fn ingest_end(&self, dest: NodeId, set: &str) -> Result<(u64, u64)> {
        self.with_client(dest, |c| c.ingest_end(set))
    }
}

/// The remote peer-repair capability: every operation is a control RPC
/// (no record payload on the driver's connections) — survivors and the
/// replacement move the data among themselves.
impl PeerRepair for RemoteWorkers {
    fn repair_begin(&self, target: NodeId, target_set: &str, present_on: &[NodeId]) -> Result<()> {
        let peers: Vec<String> = present_on
            .iter()
            .map(|&n| self.addr_of(n))
            .collect::<Result<_>>()?;
        self.with_client(target, |c| c.recover_begin(target_set, &peers))
    }

    fn repair_push(
        &self,
        survivor: NodeId,
        source_set: &str,
        target: NodeId,
        target_set: &str,
        filter: &RepairFilter,
    ) -> Result<RepairPushReport> {
        let target_addr = self.addr_of(target)?;
        self.with_client(survivor, |c| {
            c.recover_push(source_set, target_set, &target_addr, filter)
        })
    }

    fn repair_end(&self, target: NodeId, target_set: &str) -> Result<(u64, u64)> {
        self.with_client(target, |c| c.recover_end(target_set))
    }
}

impl RemoteWorkers {
    /// The page-level scan: fetch raw pages and parse them with the page
    /// codec, as a recovering node would (the `FetchPage` read path).
    fn scan_pages(
        &self,
        n: NodeId,
        set: &str,
        f: &mut dyn FnMut(&[u8]) -> Result<()>,
    ) -> Result<()> {
        let nums = self.with_client(n, |c| c.page_numbers(set))?;
        for num in nums {
            let bytes = self.with_client(n, |c| c.fetch_page(set, num))?;
            for rec in pangea_core::RecordSlices::new(&bytes) {
                f(rec)?;
            }
        }
        Ok(())
    }
}

/// A handle to a real Pangea deployment: one `pangea-mgr` plus N
/// `pangead` workers, driven entirely over the wire.
pub struct RemoteCluster {
    core: ClusterCore,
    workers: RemoteWorkers,
    mgr: MgrConn,
    /// Highest epoch at which each slot was ever *observed* Dead. A
    /// slot is only recoverable once it is Alive at a *newer* epoch —
    /// a genuine replacement — never when the same incarnation merely
    /// resumed heartbeating after a pause.
    dead_epochs: Mutex<FxHashMap<NodeId, u64>>,
    /// Test-only rendezvous invoked at the start of each slot's repair
    /// (after validation, before any data moves) — lets a fault-injection
    /// test prove two slot recoveries genuinely overlap in time.
    recovery_hook: Mutex<Option<Arc<dyn Fn(NodeId) + Send + Sync>>>,
}

impl std::fmt::Debug for RemoteCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteCluster")
            .field("workers", &self.workers)
            .finish()
    }
}

impl RemoteCluster {
    /// Connects to the manager, fetches the membership snapshot, and
    /// builds the engine over the remote seams.
    pub fn connect(mgr_addr: &str, secret: Option<&str>) -> Result<Self> {
        let mgr = MgrConn::connect(mgr_addr, secret)?;
        let catalog = Arc::new(RemoteCatalog::new(MgrConn::connect(mgr_addr, secret)?));
        let workers = RemoteWorkers::new(secret);
        let core = ClusterCore::new(
            Arc::new(workers.clone()) as Arc<dyn WorkerBackend>,
            catalog as Arc<dyn Catalog>,
        );
        let cluster = Self {
            core,
            workers,
            mgr,
            dead_epochs: Mutex::new(FxHashMap::default()),
            recovery_hook: Mutex::new(None),
        };
        cluster.refresh_membership()?;
        Ok(cluster)
    }

    /// The generic engine (shared with `SimCluster`).
    pub fn core(&self) -> &ClusterCore {
        &self.core
    }

    /// The remote worker backend (for its shared wire ledger).
    pub fn workers(&self) -> &RemoteWorkers {
        &self.workers
    }

    /// Re-reads membership from the manager (sweeping liveness there)
    /// and installs it into the backend. Returns the snapshot.
    pub fn refresh_membership(&self) -> Result<Vec<WireWorker>> {
        let workers = self.mgr.with(|m| m.list_workers())?;
        self.workers.install_membership(&workers);
        let mut dead = self.dead_epochs.lock();
        for w in &workers {
            if w.state == WorkerState::Dead {
                let e = dead.entry(NodeId(w.node)).or_insert(0);
                *e = (*e).max(w.epoch);
            }
        }
        Ok(workers)
    }

    /// Total node slots the manager knows.
    pub fn num_nodes(&self) -> u32 {
        self.workers.num_nodes()
    }

    /// Alive workers per the last membership refresh.
    pub fn alive_nodes(&self) -> Vec<NodeId> {
        self.workers.alive_nodes()
    }

    /// Workers the manager has declared dead (missed heartbeats) —
    /// the trigger for [`RemoteCluster::recover_worker`].
    pub fn dead_workers(&self) -> Result<Vec<NodeId>> {
        Ok(self
            .refresh_membership()?
            .into_iter()
            .filter(|w| w.state == WorkerState::Dead)
            .map(|w| NodeId(w.node))
            .collect())
    }

    /// Creates a distributed set via the wire catalog: registered at the
    /// manager, materialized on every alive worker. The scheme must be
    /// declarative (`hash_field`/`hash_whole`/round-robin).
    pub fn create_dist_set(&self, name: &str, scheme: PartitionScheme) -> Result<EngineSet> {
        self.core.create_dist_set(name, scheme)
    }

    /// Looks up a cataloged distributed set.
    pub fn get_dist_set(&self, name: &str) -> Result<Option<EngineSet>> {
        self.core.get_dist_set(name)
    }

    /// Drops a distributed set everywhere.
    pub fn drop_dist_set(&self, name: &str) -> Result<()> {
        self.core.drop_dist_set(name)
    }

    /// Registers `target` as a replica of `source` (default `r = 1`).
    pub fn register_replica(
        &self,
        source: &str,
        target: &str,
        scheme: PartitionScheme,
    ) -> Result<ReplicaReport> {
        self.core.register_replica_with_r(source, target, scheme, 1)
    }

    /// The statistics service's best-replica answer, straight from the
    /// manager (§9.1.2).
    pub fn best_replica(&self, set: &str, key: &str) -> Result<Option<String>> {
        self.mgr.with(|m| m.best_replica(set, key))
    }

    /// Installs (or clears) the test-only recovery rendezvous. Hidden:
    /// fault-injection instrumentation, not API.
    #[doc(hidden)]
    pub fn set_recovery_hook(&self, hook: Option<Arc<dyn Fn(NodeId) + Send + Sync>>) {
        *self.recovery_hook.lock() = hook;
    }

    /// Recovers a dead worker whose slot a replacement `pangead` has
    /// already re-registered (same slot, fresh epoch): re-creates every
    /// cataloged set on the replacement, then restores its lost data
    /// from surviving replicas — the data flows worker→worker (survivors
    /// stream their shares straight to the replacement, one push in
    /// flight per survivor); this driver only orchestrates and never
    /// touches a record payload.
    pub fn recover_worker(&self, failed: NodeId) -> Result<RecoveryReport> {
        let out = self.workers.with_job(|| {
            self.ensure_replacement(failed)?;
            self.core.provision_node(failed)?;
            self.repair_slot(failed)
        });
        self.push_driver_trace();
        out
    }

    /// Pushes the driver ring's unexported spans to the manager's fleet
    /// span store (node `driver`), so `pangea-mgr trace` can root the
    /// cross-node tree — the scrape loop only reaches registered
    /// workers, and this driver is neither. Best-effort by design: a
    /// trace push must never fail a job that already succeeded, so
    /// errors are logged and the spans retry with the next job's push
    /// (the export cursor only advances on success).
    pub fn push_driver_trace(&self) {
        let cursor_before = *self.workers.inner.trace_cursor.lock();
        let (spans, gap) = self.workers.drain_trace();
        if gap > 0 {
            eprintln!(
                "pangea driver: ring evicted {gap} spans before export; \
                 stitched traces of earlier jobs may be missing their roots"
            );
        }
        if spans.is_empty() {
            return;
        }
        if let Err(e) = self.mgr.with(|m| m.trace_push("driver", spans)) {
            *self.workers.inner.trace_cursor.lock() = cursor_before;
            eprintln!("pangea driver: trace push failed (will retry next job): {e}");
        }
    }

    /// Validates that a *replacement* holds the failed slot: Alive at a
    /// fresh epoch, never the same incarnation resumed.
    fn ensure_replacement(&self, failed: NodeId) -> Result<()> {
        let snapshot = self.refresh_membership()?;
        let slot = snapshot.iter().find(|w| w.node == failed.raw());
        match slot {
            Some(w) if w.state == WorkerState::Alive => {
                // Alive is not enough: the same incarnation may have
                // revived after a pause, its data intact — provisioning
                // over it would fail (and recovery would be pointless).
                // Only a fresh epoch proves a replacement took the slot.
                if let Some(&dead_epoch) = self.dead_epochs.lock().get(&failed) {
                    if w.epoch <= dead_epoch {
                        return Err(PangeaError::usage(format!(
                            "{failed} revived as the same incarnation \
                             ({}); its data was never lost, nothing to recover",
                            pangea_common::Epoch(w.epoch)
                        )));
                    }
                }
            }
            Some(_) => {
                return Err(PangeaError::usage(format!(
                    "no replacement registered for {failed}; start a pangead \
                     with --slot {} first",
                    failed.raw()
                )))
            }
            None => return Err(PangeaError::NodeUnavailable(failed)),
        }
        Ok(())
    }

    /// The repair half of recovery: the slot must already be validated
    /// and provisioned (multi-slot recovery provisions every replacement
    /// before any repair starts, so concurrent repairs never scan a
    /// fellow replacement whose sets do not exist yet).
    fn repair_slot(&self, failed: NodeId) -> Result<RecoveryReport> {
        self.repair_slot_in(failed, None, true)
    }

    /// [`RemoteCluster::repair_slot`] restricted to a subset of replica
    /// groups (`None` = all). `fire_hook` gates the test-only
    /// rendezvous so a two-phase repair announces each slot once.
    fn repair_slot_in(
        &self,
        failed: NodeId,
        groups: Option<&[ReplicaGroupId]>,
        fire_hook: bool,
    ) -> Result<RecoveryReport> {
        let start = Instant::now();
        let net_before = self.workers.net_bytes();
        // Clone the hook out before invoking it: an `if let` over the
        // guard would hold the lock for the whole call and serialize
        // concurrent slot repairs on it.
        if fire_hook {
            let hook = self.recovery_hook.lock().clone();
            if let Some(hook) = hook {
                hook(failed);
            }
        }
        let mut report = self.core.recover_sets_in(failed, groups)?;
        self.dead_epochs.lock().remove(&failed);
        // The engine already charged the worker→worker payload; any
        // driver-side payload (none, by design — asserted by the
        // fault-injection suite) would surface on the shared ledger.
        report.bytes_moved += self.workers.net_bytes() - net_before;
        report.duration = start.elapsed();
        Ok(report)
    }

    /// Recovers several dead slots. Every replacement is validated and
    /// provisioned before any repair begins — a repair scans *all*
    /// survivors, and a fellow replacement is a (legitimately empty)
    /// survivor whose sets must already exist.
    ///
    /// The per-slot repairs run concurrently (one orchestration thread
    /// per slot) for every replica group whose members are all
    /// hash-partitioned: hash placement makes each slot's lost share
    /// disjoint, so concurrent repairs cannot restore a record twice.
    /// Groups with a round-robin member are repaired in a second,
    /// serial phase — a round-robin lost share is defined by *absence*,
    /// and two sessions snapshotting the surviving share concurrently
    /// could both restore the same record. The serial fallback is
    /// scoped to exactly those groups: hash-only groups keep their
    /// parallelism whatever else the catalog holds. Reports come back
    /// in `failed` order, each slot's two phases merged.
    pub fn recover_workers(&self, failed: &[NodeId]) -> Result<Vec<RecoveryReport>> {
        // Two concurrent repairs of one slot would race on the
        // replacement's session map; reject the caller bug up front.
        let mut seen = pangea_common::FxHashSet::default();
        for &n in failed {
            if !seen.insert(n) {
                return Err(PangeaError::usage(format!(
                    "slot {n} listed twice; each failed slot is recovered once"
                )));
            }
        }
        if failed.len() < 2 {
            return failed.iter().map(|&n| self.recover_worker(n)).collect();
        }
        let out = self
            .workers
            .with_job(|| self.recover_workers_traced(failed));
        self.push_driver_trace();
        out
    }

    /// The body of [`RemoteCluster::recover_workers`] for two or more
    /// slots, running under an already-scoped trace job.
    fn recover_workers_traced(&self, failed: &[NodeId]) -> Result<Vec<RecoveryReport>> {
        for &n in failed {
            self.ensure_replacement(n)?;
        }
        for &n in failed {
            self.core.provision_node(n)?;
        }
        // Only replica-group members are recovery targets; unreplicated
        // sets (and the groups' round-robin colliding sets, which are
        // repair *sources*) do not constrain parallelism — so consult
        // the groups directly instead of paying one manager RPC per
        // cataloged set.
        let mut hash_groups = Vec::new();
        let mut rr_groups = Vec::new();
        for group in self.core.catalog().groups()? {
            let mut all_hash = true;
            for member in self.core.catalog().group_members(group)? {
                if let Some(entry) = self.core.catalog().entry(&member)? {
                    all_hash &= entry.scheme.kind == PartitionKind::Hash;
                }
            }
            if all_hash {
                hash_groups.push(group);
            } else {
                rr_groups.push(group);
            }
        }
        if rr_groups.is_empty() {
            // Single parallel phase over everything.
            return std::thread::scope(|s| {
                let handles: Vec<_> = failed
                    .iter()
                    .map(|&n| s.spawn(move || self.repair_slot(n)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| {
                        h.join().unwrap_or_else(|_| {
                            Err(PangeaError::Remote("a recovery thread panicked".into()))
                        })
                    })
                    .collect()
            });
        }
        // Phase 1: hash-only groups, all slots concurrently (skipped
        // when there are none). The rendezvous hook fires here — or in
        // phase 2 when phase 1 is empty — so each slot announces once.
        let mut reports: Vec<RecoveryReport> = if hash_groups.is_empty() {
            failed
                .iter()
                .map(|&n| RecoveryReport {
                    failed: n,
                    replicas_recovered: Vec::new(),
                    objects_restored: 0,
                    colliding_restored: 0,
                    bytes_moved: 0,
                    duration: Duration::ZERO,
                })
                .collect()
        } else {
            let hash_groups = &hash_groups;
            std::thread::scope(|s| {
                let handles: Vec<_> = failed
                    .iter()
                    .map(|&n| s.spawn(move || self.repair_slot_in(n, Some(hash_groups), true)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| {
                        h.join().unwrap_or_else(|_| {
                            Err(PangeaError::Remote("a recovery thread panicked".into()))
                        })
                    })
                    .collect::<Result<Vec<_>>>()
            })?
        };
        // Phase 2: round-robin-carrying groups, slot by slot.
        for (slot, report) in failed.iter().zip(reports.iter_mut()) {
            let serial = self.repair_slot_in(*slot, Some(&rr_groups), hash_groups.is_empty())?;
            report.replicas_recovered.extend(serial.replicas_recovered);
            report.objects_restored += serial.objects_restored;
            report.colliding_restored += serial.colliding_restored;
            report.bytes_moved += serial.bytes_moved;
            report.duration += serial.duration;
        }
        Ok(reports)
    }

    /// A distributed map-shuffle: ships one declarative map task to
    /// every worker holding a share of `input`; each worker scans its
    /// *local* share, applies `map`, and streams the routed output
    /// **directly to the destination workers**, materializing `output`
    /// as a normal cataloged set under `scheme`. The driver only plans,
    /// launches the per-worker tasks in parallel, and collects reports
    /// — it moves zero record bytes (all data is attributed to the
    /// workers' `shuffle_bytes` counters, never this driver's ledger).
    ///
    /// `scheme` must be declarative (`hash_field`/`hash_whole`/
    /// round-robin); a closure-keyed scheme fails with the typed
    /// [`PangeaError::NotWireSafe`].
    ///
    /// Jobs are retryable end to end: a worker killed mid-task surfaces
    /// a typed error, and re-running the same call (after recovering
    /// the worker) materializes the output afresh without duplicates.
    pub fn map_shuffle(
        &self,
        input: &str,
        output: &str,
        map: &MapSpec,
        scheme: PartitionScheme,
    ) -> Result<MapShuffleReport> {
        self.refresh_membership()?;
        let out = self
            .workers
            .with_job(|| self.core.map_shuffle(input, output, map, scheme));
        self.push_driver_trace();
        out
    }

    /// A distributed map-**combine-reduce**: like
    /// [`RemoteCluster::map_shuffle`] plus a declarative
    /// [`ReduceSpec`] folding the mapped output per key. Each mapper
    /// pre-aggregates its local share before shipping (source-side
    /// combine — the shuffle pays for distinct keys, not raw
    /// emissions), each destination merges the incoming partials in a
    /// reducing ingest session, and `IngestEnd` materializes one
    /// `key<delim>value` record per key into a normal cataloged set.
    /// The driver still moves zero record bytes, and the result
    /// matches the serial `SimCluster::map_reduce` reference
    /// record-for-record (the fold is associative and commutative by
    /// construction).
    ///
    /// `scheme` must hash by the reduced key — field 0 under the
    /// reduce's delimiter (`hash_field(name, parts, reduce.delim, 0)`).
    pub fn map_reduce(
        &self,
        input: &str,
        output: &str,
        map: &MapSpec,
        reduce: &ReduceSpec,
        scheme: PartitionScheme,
    ) -> Result<MapShuffleReport> {
        self.refresh_membership()?;
        let out = self
            .workers
            .with_job(|| self.core.map_reduce(input, output, map, reduce, scheme));
        self.push_driver_trace();
        out
    }

    /// Installs (or clears) the test-only per-task rendezvous. Hidden:
    /// fault-injection instrumentation, not API.
    #[doc(hidden)]
    pub fn set_task_hook(&self, hook: Option<Arc<dyn Fn(NodeId) + Send + Sync>>) {
        *self.workers.inner.task_hook.lock() = hook;
    }
}

/// The worker-side control-plane agent: registers the local `pangead`
/// with the manager, heartbeats on a background thread, and deregisters
/// on clean shutdown (so the manager never feeds a cleanly-exited worker
/// to recovery). Dropping the agent without calling
/// [`WorkerAgent::shutdown`] stops the heartbeats but does *not*
/// deregister — indistinguishable from a crash, which is exactly what
/// liveness sweeping is for.
#[derive(Debug)]
pub struct WorkerAgent {
    mgr_addr: String,
    secret: Option<String>,
    node: NodeId,
    epoch: Epoch,
    stop: Arc<AtomicBool>,
    beat: Option<JoinHandle<()>>,
}

impl WorkerAgent {
    /// Registers with the manager (optionally pinning a slot — how a
    /// replacement takes over a dead worker's identity) and starts
    /// heartbeating every `interval`.
    pub fn register(
        mgr_addr: &str,
        secret: Option<&str>,
        advertise: &str,
        slot: Option<NodeId>,
        interval: Duration,
    ) -> Result<Self> {
        let mut mgr = ManagerClient::connect(mgr_addr, secret)?;
        let (node, epoch) = mgr.register_worker(advertise, slot)?;
        let stop = Arc::new(AtomicBool::new(false));
        let beat = {
            let stop = Arc::clone(&stop);
            let mgr_addr = mgr_addr.to_string();
            let secret = secret.map(str::to_string);
            std::thread::Builder::new()
                .name(format!("pangea-heartbeat-{node}"))
                .spawn(move || {
                    let mut conn = Some(mgr);
                    loop {
                        let deadline = Instant::now() + interval;
                        while Instant::now() < deadline {
                            if stop.load(Ordering::SeqCst) {
                                return;
                            }
                            std::thread::sleep(
                                Duration::from_millis(5)
                                    .min(deadline.saturating_duration_since(Instant::now())),
                            );
                        }
                        if stop.load(Ordering::SeqCst) {
                            return;
                        }
                        if conn.is_none() {
                            conn =
                                ManagerClient::connect(mgr_addr.as_str(), secret.as_deref()).ok();
                        }
                        if let Some(m) = conn.as_mut() {
                            match m.heartbeat(node, epoch) {
                                Ok(()) => {}
                                // Replaced by a newer incarnation: stop
                                // beating for good.
                                Err(PangeaError::StaleEpoch { .. }) => return,
                                Err(_) => conn = None,
                            }
                        }
                    }
                })?
        };
        Ok(Self {
            mgr_addr: mgr_addr.to_string(),
            secret: secret.map(str::to_string),
            node,
            epoch,
            stop,
            beat: Some(beat),
        })
    }

    /// The slot the manager assigned.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// This incarnation's registration epoch.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    fn stop_heartbeats(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.beat.take() {
            let _ = handle.join();
        }
    }

    /// Clean exit: stops heartbeating and deregisters with the manager.
    pub fn shutdown(&mut self) -> Result<()> {
        self.stop_heartbeats();
        ManagerClient::connect(self.mgr_addr.as_str(), self.secret.as_deref())?
            .deregister_worker(self.node, self.epoch)
    }

    /// Crash simulation: stops heartbeating *without* deregistering, so
    /// the manager's liveness sweep declares the worker dead.
    pub fn abandon(&mut self) {
        self.stop_heartbeats();
    }
}

impl Drop for WorkerAgent {
    fn drop(&mut self) {
        self.stop_heartbeats();
    }
}
