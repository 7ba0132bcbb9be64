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

use crate::client::{MgrConn, RemoteCatalog};
use crate::signals::tick;
use pangea_cluster::engine::{
    fan_out, Catalog, ClusterCore, EngineSet, MapShuffleReport, PeerRepair, RecordSink,
    RecoveryReport, ReplicaReport, TaskExec, WorkerBackend,
};
use pangea_cluster::{PartitionKind, PartitionScheme};
use pangea_common::ReplicaGroupId;
use pangea_common::{Epoch, FxHashMap, IoStats, NodeId, PangeaError, Result};
use pangea_net::{
    for_each_chunk, ClientPool, Job, MapSpec, PangeaClient, PushStream, ReduceSpec, RepairFilter,
    RepairPushReport, Request, TaskReport, TaskSpec, WireSpan, WireWorker, WorkerState,
};
use pangea_obs::{Obs, SpanRecord, TraceCtx};
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A test-only rendezvous called with a slot number at a fixed point
/// of a task or a repair (see [`RemoteCluster::set_task_hook`]).
pub type SlotHook = Arc<dyn Fn(NodeId) + Send + Sync>;

/// Default heartbeat cadence for [`WorkerAgent`]s.
pub const DEFAULT_HEARTBEAT: Duration = Duration::from_millis(500);

struct RemoteWorkersInner {
    /// Slot `i` holds the advertised address of worker `i` while it is
    /// alive; `None` marks a dead/left slot.
    slots: RwLock<Vec<Option<String>>>,
    /// Idle connections to the workers, by advertised address (so a
    /// slot replacement at a new address never reuses a stale one). A
    /// connection is checked out for the duration of an RPC, so one
    /// slow or hung worker never blocks RPCs to others.
    pool: Arc<ClientPool>,
    /// Shared payload-byte ledger across all per-worker clients.
    stats: Arc<IoStats>,
    /// Driver-side observability bundle over the same registry as
    /// `stats`: every RPC the driver issues under a traced job lands one
    /// span in its ring, correlated by the job id.
    obs: Obs,
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
    task_hook: Mutex<Option<SlotHook>>,
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
    /// The `(job id, job-root span id)` every RPC through this handle
    /// carries, or `None` outside traced jobs. Each traced job runs on
    /// a clone of its own (see `RemoteCluster::run_traced`), so
    /// concurrent jobs never share — or overwrite — a trace context,
    /// and every driver RPC span parents under its own job's root.
    job: Option<(u64, u64)>,
}

impl RemoteWorkers {
    fn new(secret: Option<&str>) -> Self {
        let stats = Arc::new(IoStats::new());
        Self {
            inner: Arc::new(RemoteWorkersInner {
                slots: RwLock::new(Vec::new()),
                pool: Arc::new(ClientPool::new(
                    stats.registry().clone(),
                    secret,
                    Some(Arc::clone(&stats)),
                )),
                stats: Arc::clone(&stats),
                obs: Obs::with_registry(stats.registry().clone()),
                last_job: Mutex::new(None),
                trace_cursor: Mutex::new(0),
                task_hook: Mutex::new(None),
            }),
            job: None,
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

    fn addr_of(&self, n: NodeId) -> Result<String> {
        self.inner
            .slots
            .read()
            .get(n.raw() as usize)
            .and_then(Clone::clone)
            .ok_or(PangeaError::NodeUnavailable(n))
    }

    /// Installs a fresh membership snapshot: alive slots keep (or gain)
    /// their address, everything else is evicted.
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
        *self.inner.slots.write() = slots;
    }

    /// Runs `f` (a single RPC, or one reply of a paged read) on a
    /// pooled connection to slot `n`, under the pool's one-shot rule: an
    /// `Io` failure on a pooled connection, which may have gone stale
    /// while idle, is retried once on a fresh one.
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
        let job = self.job;
        let ctx = job.map(|(job, _)| TraceCtx {
            job,
            span: pangea_obs::next_span_id(),
        });
        let start = self.inner.obs.now_ns();
        let out = self
            .inner
            .pool
            .call(&addr, |c: &mut PangeaClient| {
                c.set_trace(ctx);
                f(c)
            })
            .map_err(|e| unavailable(n, e));
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
}

/// An I/O failure on a fresh connection to slot `n`: the worker is gone.
fn unavailable(n: NodeId, e: PangeaError) -> PangeaError {
    match e {
        PangeaError::Io(_) => PangeaError::NodeUnavailable(n),
        other => other,
    }
}

/// A sink streaming one load into one remote set on a [`PushStream`]
/// of its own, held for the dispatcher's life: its `Append` batches
/// ride the stream's window, paced by the worker's credit, and the
/// worker's set-owned writer seals each page as it fills. `finish`
/// drains the window and sends `AppendEnd`, which seals the tail page:
/// the load is durable once `finish` returns, as a shuffle's output is
/// once `IngestEnd` returns. Each ack charges its batch's payload bytes
/// to the shared ledger, mirroring a `SimNetwork` transfer. Loads run
/// outside traced jobs, so the stream carries no trace context. An I/O
/// failure means the worker is gone, which callers see as the typed
/// [`PangeaError::NodeUnavailable`].
#[derive(Debug)]
struct RemoteSink {
    node: NodeId,
    set: String,
    stream: PushStream,
}

impl RecordSink for RemoteSink {
    fn append(&mut self, _from: NodeId, records: Vec<Vec<u8>>) -> Result<()> {
        let set = &self.set;
        let request = |records| Request::Append {
            set: set.clone(),
            records,
        };
        let sent = self.stream.send(records, request);
        sent.map_err(|e| unavailable(self.node, e))
    }

    fn finish(self: Box<Self>) -> Result<()> {
        let Self { node, set, stream } = *self;
        let sealed = stream.finish_with(|c| c.append_end(&set));
        sealed.map(drop).map_err(|e| unavailable(node, e))
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
        let addr = self.addr_of(n)?;
        let stream =
            PushStream::open(&self.inner.pool, &addr, None).map_err(|e| unavailable(n, e))?;
        Ok(Box::new(RemoteSink {
            node: n,
            set: set.to_string(),
            stream,
        }))
    }

    fn scan(&self, n: NodeId, set: &str, f: &mut dyn FnMut(&[u8]) -> Result<()>) -> Result<()> {
        // One pooled RPC per reply: `with_client` may retry a call on a
        // stale connection, and a retried reply is the same cursor asked
        // again — `f` never sees a record twice, and each reply's
        // payload is charged to the ledger once, when it arrives.
        for_each_chunk(
            "scan",
            |cursor| self.with_client(n, |c| c.scan_chunk(set, cursor)),
            |records| records.iter().try_for_each(|rec| f(rec)),
        )
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
    fn ingest_begin(&self, dest: NodeId, job: &Job) -> Result<()> {
        self.with_client(dest, |c| c.ingest_begin(&job.output, job.reduce.as_ref()))
    }

    fn map_task(&self, worker: NodeId, job: &Job) -> Result<TaskReport> {
        // Clone the hook out before invoking it (never hold the lock
        // across the call — it would serialize "parallel" tasks).
        let hook = self.inner.task_hook.lock().clone();
        if let Some(hook) = hook {
            hook(worker);
        }
        // The engine hands the logical job; this backend owns the
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
            job: job.clone(),
            source: worker.raw(),
            dests,
        };
        self.with_client(worker, |c| c.run_task(&spec))
    }

    fn ingest_end(&self, dest: NodeId, job: &Job) -> Result<(u64, u64)> {
        self.with_client(dest, |c| c.ingest_end(&job.output))
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
    recovery_hook: Mutex<Option<SlotHook>>,
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
    pub fn set_recovery_hook(&self, hook: Option<SlotHook>) {
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
        self.run_traced(|core| {
            self.ensure_replacement(failed)?;
            core.provision_node(failed)?;
            self.fire_recovery_hook(failed);
            self.repair_slot(core, failed, None)
        })
    }

    /// Runs `body` as one traced job: allocates the job and its root
    /// span, hands `body` an engine over a [`RemoteWorkers`] clone that
    /// carries that context (every RPC it issues, from any thread,
    /// carries `TraceCtx { job, .. }` and records a driver span under
    /// the root), then records the `DriverJob` root span and pushes the
    /// driver's spans to the manager. The context belongs to this call
    /// alone, so jobs running at once on one handle stitch into one
    /// tree each.
    fn run_traced<T>(&self, body: impl FnOnce(&ClusterCore) -> Result<T>) -> Result<T> {
        let job = pangea_obs::next_job_id();
        let root = pangea_obs::next_span_id();
        *self.workers.inner.last_job.lock() = Some(job);
        let workers = RemoteWorkers {
            inner: Arc::clone(&self.workers.inner),
            job: Some((job, root)),
        };
        let core = ClusterCore::new(Arc::new(workers), Arc::clone(self.core.catalog()));
        let obs = &self.workers.inner.obs;
        let start = obs.now_ns();
        let out = body(&core);
        obs.ring().record(SpanRecord {
            job,
            span: root,
            parent: 0,
            op: "DriverJob".to_string(),
            peer: String::new(),
            start_ns: start,
            end_ns: obs.now_ns(),
            bytes: 0,
            outcome: "ok".to_string(),
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
        if let Err(e) = self.mgr.with(|m| m.trace_push("driver", spans.clone())) {
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

    /// Invokes the test-only recovery rendezvous, if one is installed,
    /// once per slot repair. The hook is cloned out first: an `if let`
    /// over the guard would hold the lock for the whole call and
    /// serialize concurrent slot repairs on it.
    fn fire_recovery_hook(&self, failed: NodeId) {
        let hook = self.recovery_hook.lock().clone();
        if let Some(hook) = hook {
            hook(failed);
        }
    }

    /// The repair half of recovery, restricted to a subset of replica
    /// groups (`None` = all): the slot must already be validated and
    /// provisioned (multi-slot recovery provisions every replacement
    /// before any repair starts, so concurrent repairs never scan a
    /// fellow replacement whose sets do not exist yet).
    fn repair_slot(
        &self,
        core: &ClusterCore,
        failed: NodeId,
        groups: Option<&[ReplicaGroupId]>,
    ) -> Result<RecoveryReport> {
        let start = Instant::now();
        let net_before = self.workers.net_bytes();
        let mut report = core.recover_sets_in(failed, groups)?;
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
        self.run_traced(|core| self.recover_workers_traced(core, failed))
    }

    /// The body of [`RemoteCluster::recover_workers`] for two or more
    /// slots, running under an already-scoped trace job.
    fn recover_workers_traced(
        &self,
        core: &ClusterCore,
        failed: &[NodeId],
    ) -> Result<Vec<RecoveryReport>> {
        for &n in failed {
            self.ensure_replacement(n)?;
        }
        for &n in failed {
            core.provision_node(n)?;
        }
        // Only replica-group members are recovery targets; unreplicated
        // sets (and the groups' round-robin colliding sets, which are
        // repair *sources*) do not constrain parallelism — so consult
        // the groups directly instead of paying one manager RPC per
        // cataloged set.
        let catalog = core.catalog();
        let mut hash_groups = Vec::new();
        let mut rr_groups = Vec::new();
        for group in catalog.groups()? {
            let mut all_hash = true;
            for member in catalog.group_members(group)? {
                if let Some(entry) = catalog.entry(&member)? {
                    all_hash &= entry.scheme.kind == PartitionKind::Hash;
                }
            }
            if all_hash {
                hash_groups.push(group);
            } else {
                rr_groups.push(group);
            }
        }
        // Phase 1: hash-only groups, every slot at once (an empty list
        // repairs nothing). Each slot announces itself here, once.
        let mut reports = fan_out(failed, |n| {
            self.fire_recovery_hook(n);
            self.repair_slot(core, n, Some(&hash_groups))
        })?;
        // Phase 2: round-robin-carrying groups, slot by slot.
        if !rr_groups.is_empty() {
            for report in &mut reports {
                let serial = self.repair_slot(core, report.failed, Some(&rr_groups))?;
                report.replicas_recovered.extend(serial.replicas_recovered);
                report.objects_restored += serial.objects_restored;
                report.colliding_restored += serial.colliding_restored;
                report.bytes_moved += serial.bytes_moved;
                report.duration += serial.duration;
            }
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
        self.run_traced(|core| core.map_shuffle(input, output, map, scheme))
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
        self.run_traced(|core| core.map_reduce(input, output, map, reduce, scheme))
    }

    /// Installs (or clears) the test-only per-task rendezvous. Hidden:
    /// fault-injection instrumentation, not API.
    #[doc(hidden)]
    pub fn set_task_hook(&self, hook: Option<SlotHook>) {
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
    /// The manager handle registration, heartbeats and deregistration
    /// share.
    mgr: Arc<MgrConn>,
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
        let mgr = Arc::new(MgrConn::connect(mgr_addr, secret)?);
        let (node, epoch) = mgr.with(|m| m.register_worker(advertise, slot))?;
        let stop = Arc::new(AtomicBool::new(false));
        let beat = {
            let stop = Arc::clone(&stop);
            let mgr = Arc::clone(&mgr);
            std::thread::Builder::new()
                .name(format!("pangea-heartbeat-{node}"))
                .spawn(move || {
                    while tick(&stop, interval) {
                        // Replaced by a newer incarnation: stop beating
                        // for good. Any other failure is retried by the
                        // next beat.
                        if let Err(PangeaError::StaleEpoch { .. }) =
                            mgr.with(|m| m.heartbeat(node, epoch))
                        {
                            return;
                        }
                    }
                })?
        };
        Ok(Self {
            mgr,
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
        self.mgr
            .with(|m| m.deregister_worker(self.node, self.epoch))
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
