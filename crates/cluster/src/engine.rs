//! The generic cluster engine: one implementation of distributed-set
//! dispatch, heterogeneous replication, and failure recovery, shared by
//! every cluster frontend.
//!
//! The engine is written against two seams:
//!
//! * [`WorkerBackend`] — where a node's data lives and how records get
//!   there. `SimCluster` backs this with in-process [`StorageNode`]s and
//!   a [`SimNetwork`] for the wire; `pangea-coord`'s
//!   `RemoteCluster` backs it with `PangeaClient` RPCs against remote
//!   `pangead` processes (the RPC *is* the wire there — no separate
//!   transfer is paid).
//! * [`Catalog`] — where distributed-set metadata lives. `Manager` is
//!   the in-process implementation; `pangea-coord` serves the same
//!   catalog over the framed protocol from a `pangea-mgr` daemon.
//!
//! Record movement is batched per destination ([`DispatchConfig`]): a
//! dispatcher accumulates records per target node and flushes them as
//! one delivery once their encoded size reaches a byte bound, so a
//! TCP-backed cluster pays one round trip per *batch* instead of one per
//! record, while payload byte accounting is unchanged (a batch's net
//! bytes are exactly the sum of its records').
//!
//! [`StorageNode`]: pangea_core::StorageNode
//! [`SimNetwork`]: crate::SimNetwork

use crate::manager::CatalogEntry;
use crate::partition::{PartitionKind, PartitionScheme};
use crate::replication::colliding_set_name;
use pangea_common::{
    record_key, FxHashMap, FxHashSet, NodeId, PangeaError, ReplicaGroupId, Result,
};
use pangea_net::{
    Job, KeySpec, MapSpec, PushBatch, ReduceSpec, RepairFilter, RepairPushReport, TaskReport,
    PUSH_BATCH_BYTES,
};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A destination for routed records on one node. Sinks are opened by a
/// [`WorkerBackend`] and written by the engine's batching layer.
pub trait RecordSink {
    /// Delivers one batch of records originating from node `from`
    /// (`NodeId(u32::MAX)` = external client). The implementation pays
    /// whatever wire cost the batch incurs and appends every record, in
    /// order, to the destination set. It takes the batch by value, so a
    /// remote sink ships it without copying.
    fn append(&mut self, from: NodeId, records: Vec<Vec<u8>>) -> Result<()>;

    /// Seals the sink (flushes the destination's in-progress page).
    fn finish(self: Box<Self>) -> Result<()>;
}

/// Where worker data lives: the engine's view of N storage nodes.
///
/// # Accounting contract
///
/// `net_bytes` must grow by exactly the payload bytes of every remote
/// delivery ([`RecordSink::append`] with `from != to`, or a remote
/// scan's transfer toward the caller), as [`SimNetwork::transfer`]
/// charges them, so recovery reports and cross-backend comparisons line
/// up.
///
/// [`SimNetwork::transfer`]: crate::SimNetwork::transfer
///
/// # Width contract
///
/// Placement stripes over `num_nodes()` and the engine assumes that
/// width is *stable over a set's lifetime*: slot replacement (same
/// `NodeId`, new worker) is supported, growing the fleet is not — a set
/// created at width N and consulted at width N′ ≠ N would misjudge
/// placement. Scans fail loudly on a node that never held the set, so
/// a grown fleet surfaces as an error, not silent misplacement;
/// elastic rebalancing is a ROADMAP item.
pub trait WorkerBackend: fmt::Debug + Send + Sync {
    /// Total node slots (alive or failed).
    fn num_nodes(&self) -> u32;

    /// Nodes currently alive, ascending.
    fn alive_nodes(&self) -> Vec<NodeId>;

    /// Creates the node-local locality set backing a distributed set
    /// (write-through: user data survives process failure, paper §7).
    fn create_set(&self, n: NodeId, name: &str) -> Result<()>;

    /// Drops the node-local set, ignoring nodes that never held it.
    fn drop_set(&self, n: NodeId, name: &str) -> Result<()>;

    /// Opens a write sink into `set` on node `n`.
    fn open_sink(&self, n: NodeId, set: &str) -> Result<Box<dyn RecordSink>>;

    /// Runs `f` over every record of `set` on node `n`, in storage order.
    fn scan(&self, n: NodeId, set: &str, f: &mut dyn FnMut(&[u8]) -> Result<()>) -> Result<()>;

    /// Counts the records of `set` on node `n`. The default scans;
    /// remote backends override it with a count RPC so diagnostics do
    /// not ship the dataset over the wire.
    fn count(&self, n: NodeId, set: &str) -> Result<u64> {
        let mut count = 0u64;
        self.scan(n, set, &mut |_| {
            count += 1;
            Ok(())
        })?;
        Ok(count)
    }

    /// Payload bytes this backend has moved across its wire so far.
    fn net_bytes(&self) -> u64;

    /// Peer-repair capability: backends whose nodes can move recovery
    /// data directly between each other (worker→worker) return `Some`,
    /// and [`ClusterCore::recover_sets`] orchestrates repairs through it
    /// with one push in flight per survivor. The default `None` keeps
    /// the driver-mediated serial path — `SimCluster`'s in-process
    /// backend stays byte-for-byte identical to the pre-peer engine.
    fn peer_repair(&self) -> Option<&dyn PeerRepair> {
        None
    }

    /// Task-shipping capability: backends whose nodes can *execute a
    /// shipped map task* against their local input share (streaming the
    /// routed output straight to destination peers) return `Some`, and
    /// [`ClusterCore::map_shuffle`] launches one task per worker in
    /// parallel through it. The default `None` keeps the in-process
    /// serial path — `SimCluster` scans and dispatches through the
    /// driver exactly as a dispatcher-loaded set would.
    fn task_exec(&self) -> Option<&dyn TaskExec> {
        None
    }
}

/// Distributed map-task execution (ship the task to the data, in the
/// spirit of Sector/Sphere's in-storage processing): the driver plans,
/// the storage fabric scans, maps, and moves the bytes.
///
/// Implementations must be callable from multiple threads at once — the
/// engine runs each step on every node in parallel ([`fan_out`]). Tasks
/// are idempotent by contract: each destination's ingest session dedups
/// on provenance tags, so a retried or duplicated task never
/// double-appends.
pub trait TaskExec: Send + Sync {
    /// Opens (or resets) the shuffle-ingest session for the job's
    /// output on the destination node, truncating its local share. With
    /// a reduce, the session folds incoming partials into a keyed
    /// accumulator (materialized at [`TaskExec::ingest_end`]) instead
    /// of appending record-for-record.
    fn ingest_begin(&self, dest: NodeId, job: &Job) -> Result<()>;

    /// Ships the job to `worker` as one map task: scan the local share
    /// of its input, map (combining per key first under a reduce),
    /// route by its scheme, and stream straight to the destinations'
    /// ingest sessions for its output.
    fn map_task(&self, worker: NodeId, job: &Job) -> Result<TaskReport>;

    /// Seals the destination's ingest session for the job's output;
    /// returns its `(appended, appended_bytes)` totals.
    fn ingest_end(&self, dest: NodeId, job: &Job) -> Result<(u64, u64)>;
}

/// Worker→worker repair operations (paper §7 recovery without bouncing
/// payload through a client layer, in the spirit of Sector/Sphere's
/// replica-to-replica repair): the driver orchestrates, the storage
/// fabric moves the bytes.
///
/// Implementations must be callable from multiple threads at once — the
/// engine runs one [`PeerRepair::repair_push`] per survivor in parallel.
/// Pushes are idempotent by contract: the target's repair session dedups
/// on record hash, so a retried or duplicated push never double-restores.
pub trait PeerRepair: Send + Sync {
    /// Opens a repair session for `target_set` on the `target` node,
    /// seeding its dedup ledger with the record hashes the nodes in
    /// `present_on` still hold (pulled peer-to-peer; empty for hash
    /// targets, whose lost share is recomputed by placement instead).
    fn repair_begin(&self, target: NodeId, target_set: &str, present_on: &[NodeId]) -> Result<()>;

    /// One survivor→replacement push: `survivor` scans its local share
    /// of `source_set`, keeps what `filter` selects, and streams it
    /// straight into `target_set` on `target`.
    fn repair_push(
        &self,
        survivor: NodeId,
        source_set: &str,
        target: NodeId,
        target_set: &str,
        filter: &RepairFilter,
    ) -> Result<RepairPushReport>;

    /// Seals the session; returns its `(appended, appended_bytes)`.
    fn repair_end(&self, target: NodeId, target_set: &str) -> Result<(u64, u64)>;
}

/// Where distributed-set metadata lives: the manager catalog +
/// statistics database (paper §3.3), local or wire-served.
pub trait Catalog: fmt::Debug + Send + Sync {
    /// Registers a new distributed set.
    fn register_set(&self, name: &str, scheme: PartitionScheme) -> Result<()>;
    /// Removes a set from the catalog and its replica group.
    fn deregister_set(&self, name: &str) -> Result<()>;
    /// A copy of one catalog entry.
    fn entry(&self, name: &str) -> Result<Option<CatalogEntry>>;
    /// True when the set is registered.
    fn contains(&self, name: &str) -> Result<bool> {
        Ok(self.entry(name)?.is_some())
    }
    /// All registered set names, sorted.
    fn set_names(&self) -> Result<Vec<String>>;
    /// Adds dispatch counts to a set's statistics.
    fn add_stats(&self, name: &str, objects: u64, bytes: u64) -> Result<()>;
    /// Puts `a` and `b` in the same replica group.
    fn link_replicas(&self, a: &str, b: &str) -> Result<ReplicaGroupId>;
    /// Members of a replica group.
    fn group_members(&self, group: ReplicaGroupId) -> Result<Vec<String>>;
    /// All replica groups, ascending.
    fn groups(&self) -> Result<Vec<ReplicaGroupId>>;
    /// The statistics service's best-replica answer (§9.1.2).
    fn best_replica(&self, set: &str, key: &str) -> Result<Option<String>>;
}

/// The per-destination batch bound for record movement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DispatchConfig {
    /// Flush a destination once its pending records' encoded size
    /// (payload plus 4 B of framing each) reaches this many bytes.
    pub max_batch_bytes: usize,
}

impl Default for DispatchConfig {
    /// The batch rule every push shares, [`PUSH_BATCH_BYTES`].
    fn default() -> Self {
        Self {
            max_batch_bytes: PUSH_BATCH_BYTES,
        }
    }
}

impl DispatchConfig {
    /// One delivery per record — the pre-batching behavior, kept for
    /// round-trip-count comparisons.
    pub fn unbatched() -> Self {
        Self { max_batch_bytes: 0 }
    }
}

/// Outcome of registering a replica: the group plus colliding statistics.
#[derive(Debug, Clone)]
pub struct ReplicaReport {
    /// The replication group both sets now belong to.
    pub group: ReplicaGroupId,
    /// Distinct objects in the group.
    pub objects: u64,
    /// Objects whose every copy landed on one node (stored in the
    /// colliding set).
    pub colliding: u64,
}

impl ReplicaReport {
    /// Colliding objects as a fraction of all objects.
    pub fn colliding_ratio(&self) -> f64 {
        if self.objects == 0 {
            0.0
        } else {
            self.colliding as f64 / self.objects as f64
        }
    }
}

/// Outcome of a distributed map-shuffle job.
#[derive(Debug, Clone)]
pub struct MapShuffleReport {
    /// The materialized output set's cluster-wide name.
    pub output: String,
    /// Records scanned across every worker's input share.
    pub scanned: u64,
    /// Records materialized into the output set (post-map, post-dedup).
    pub records_out: u64,
    /// Payload bytes materialized into the output set.
    pub bytes_out: u64,
    /// Per-worker task outcomes, in alive-node order (empty on the
    /// serial in-process path, which runs no per-worker tasks).
    pub tasks: Vec<(NodeId, TaskReport)>,
    /// Wall-clock job time.
    pub duration: Duration,
}

/// Outcome of recovering a failed node.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// The node that failed and was re-provisioned.
    pub failed: NodeId,
    /// Replica sets whose lost partitions were restored.
    pub replicas_recovered: Vec<String>,
    /// Objects restored from surviving replicas.
    pub objects_restored: u64,
    /// Of those, objects restored from the colliding set.
    pub colliding_restored: u64,
    /// Network bytes moved by the recovery (filled by the frontend,
    /// which owns the backend's byte ledger across the whole operation).
    pub bytes_moved: u64,
    /// Wall-clock recovery time (the Fig. 6 metric; frontend-filled).
    pub duration: Duration,
}

/// The shared distributed engine: a worker backend plus a catalog.
/// Cheap to clone.
#[derive(Debug, Clone)]
pub struct ClusterCore {
    workers: Arc<dyn WorkerBackend>,
    catalog: Arc<dyn Catalog>,
}

impl ClusterCore {
    /// Builds an engine over a backend and a catalog.
    pub fn new(workers: Arc<dyn WorkerBackend>, catalog: Arc<dyn Catalog>) -> Self {
        Self { workers, catalog }
    }

    /// The worker backend.
    pub fn workers(&self) -> &Arc<dyn WorkerBackend> {
        &self.workers
    }

    /// The catalog.
    pub fn catalog(&self) -> &Arc<dyn Catalog> {
        &self.catalog
    }

    /// Creates a distributed set: a same-named locality set on every
    /// alive worker plus a catalog entry with its partitioning scheme.
    pub fn create_dist_set(&self, name: &str, scheme: PartitionScheme) -> Result<EngineSet> {
        self.catalog.register_set(name, scheme)?;
        for n in self.workers.alive_nodes() {
            self.workers.create_set(n, name)?;
        }
        Ok(EngineSet {
            core: self.clone(),
            name: name.to_string(),
        })
    }

    /// Looks up a cataloged distributed set.
    pub fn get_dist_set(&self, name: &str) -> Result<Option<EngineSet>> {
        Ok(self.catalog.contains(name)?.then(|| EngineSet {
            core: self.clone(),
            name: name.to_string(),
        }))
    }

    /// Drops a distributed set everywhere.
    pub fn drop_dist_set(&self, name: &str) -> Result<()> {
        for n in self.workers.alive_nodes() {
            self.workers.drop_set(n, name)?;
        }
        self.catalog.deregister_set(name)
    }

    /// Re-creates the local locality set of every cataloged distributed
    /// set on a (fresh) node — the provisioning half of recovery; data
    /// is restored separately by [`ClusterCore::recover_sets`].
    pub fn provision_node(&self, n: NodeId) -> Result<()> {
        for name in self.catalog.set_names()? {
            self.workers.create_set(n, &name)?;
        }
        Ok(())
    }

    /// Registers `target` as a replica of `source` under `scheme`,
    /// tolerating `r` concurrent node failures: the source is
    /// repartitioned into the target, both join one replication group,
    /// and objects whose copies span fewer than `r + 1` nodes are stored
    /// in the group's colliding set with `r` extra copies (paper §7).
    pub fn register_replica_with_r(
        &self,
        source: &str,
        target: &str,
        scheme: PartitionScheme,
        r: u32,
    ) -> Result<ReplicaReport> {
        if scheme.kind != PartitionKind::Hash {
            return Err(PangeaError::usage(
                "replicas must use a keyed (hash) partitioning scheme",
            ));
        }
        let src = self
            .get_dist_set(source)?
            .ok_or_else(|| PangeaError::usage(format!("unknown source set '{source}'")))?;
        let tgt = self.create_dist_set(target, scheme.clone())?;
        // Repartition: run the target's partitioner over the source
        // (paper §7 `partitionSet(myLineitems, myReplica, partitionComp)`).
        let nodes = self.workers.num_nodes();
        let mut sinks =
            BatchedSinks::new(self.clone(), tgt.name.clone(), DispatchConfig::default());
        src.try_for_each_record(|from, rec| {
            let to = scheme.node_of(rec, 0, nodes);
            sinks.push(from, to, rec)
        })?;
        sinks.finish()?;
        let (objects, bytes) = self
            .catalog
            .entry(source)?
            .map(|e| (e.stats.objects, e.stats.bytes))
            .unwrap_or((0, 0));
        self.catalog.add_stats(target, objects, bytes)?;
        let group = self.catalog.link_replicas(source, target)?;
        let (objects, colliding) = self.rebuild_colliding_set(group, r)?;
        Ok(ReplicaReport {
            group,
            objects,
            colliding,
        })
    }

    /// Recomputes the group's colliding set from scratch: maps every
    /// object to its node in every member, finds objects spanning fewer
    /// than `r + 1` distinct nodes, and stores `r` extra copies of each
    /// on the nodes after its colliding node. Returns
    /// `(objects, colliding)`.
    fn rebuild_colliding_set(&self, group: ReplicaGroupId, r: u32) -> Result<(u64, u64)> {
        let members = self.catalog.group_members(group)?;
        let nodes = self.workers.num_nodes();
        // Object hash → distinct nodes hosting any copy.
        let mut placement: FxHashMap<u64, FxHashSet<NodeId>> = FxHashMap::default();
        for member in &members {
            let set = self
                .get_dist_set(member)?
                .ok_or_else(|| PangeaError::usage(format!("unknown member '{member}'")))?;
            set.for_each_record(|node, rec| {
                placement.entry(record_key(rec)).or_default().insert(node);
            })?;
        }
        let objects = placement.len() as u64;
        let colliding: FxHashMap<u64, NodeId> = placement
            .into_iter()
            .filter(|(_, nodes_of)| nodes_of.len() <= r as usize)
            .map(|(h, nodes_of)| (h, *nodes_of.iter().next().expect("non-empty placement")))
            .collect();
        // (Re)create the colliding set and fill it with `r` extra copies
        // of each colliding object, placed on the nodes after the
        // colliding node (wrapping), HDFS-style.
        let name = colliding_set_name(group);
        if self.catalog.contains(&name)? {
            self.drop_dist_set(&name)?;
        }
        let cset = self.create_dist_set(&name, PartitionScheme::round_robin(nodes))?;
        if !colliding.is_empty() {
            let mut sinks =
                BatchedSinks::new(self.clone(), cset.name.clone(), DispatchConfig::default());
            // One scan of the first member yields every object's bytes.
            let first = self
                .get_dist_set(&members[0])?
                .ok_or_else(|| PangeaError::usage("group has no members"))?;
            let mut stored: FxHashSet<u64> = FxHashSet::default();
            first.try_for_each_record(|from, rec| {
                let h = record_key(rec);
                let Some(&collide_node) = colliding.get(&h) else {
                    return Ok(());
                };
                if !stored.insert(h) {
                    return Ok(()); // copy already stored during this scan
                }
                for i in 1..=r {
                    let to = NodeId((collide_node.raw() + i) % nodes);
                    sinks.push(from, to, rec)?;
                }
                Ok(())
            })?;
            sinks.finish()?;
        }
        Ok((objects, colliding.len() as u64))
    }

    /// A distributed map-shuffle (the paper's "move computation to the
    /// data" applied to the shuffle): applies the declarative `map` to
    /// every record of `input` and materializes the routed output as a
    /// normal cataloged set named `output` under `scheme`.
    ///
    /// Backends exposing [`WorkerBackend::task_exec`] run it
    /// distributed: the driver ships one task per worker in parallel,
    /// each worker scans its *local* input share and streams the mapped
    /// output **directly to the destination workers** — the driver only
    /// plans and collects reports, moving zero record bytes. `scheme`
    /// must be declarative there (`hash_field`/`hash_whole`/
    /// round-robin); a closure-keyed scheme fails with the typed
    /// [`PangeaError::NotWireSafe`]. Backends without the capability
    /// (`SimCluster`) run the same job serially in-process, where
    /// UDF-closure schemes work fine.
    ///
    /// An existing output set under the *same* scheme is replaced — a
    /// retried job (e.g. after a mid-task worker failure) materializes
    /// afresh, so retries never duplicate records. An output set with a
    /// different scheme is a usage error. A fleet with a dead slot is
    /// refused with the typed [`PangeaError::NodeUnavailable`] (the
    /// slot's input share would silently go missing): recover it first.
    pub fn map_shuffle(
        &self,
        input: &str,
        output: &str,
        map: &MapSpec,
        scheme: PartitionScheme,
    ) -> Result<MapShuffleReport> {
        self.map_shuffle_inner(input, output, map, None, scheme)
    }

    /// A distributed map-**combine-reduce**: like
    /// [`ClusterCore::map_shuffle`], plus a declarative [`ReduceSpec`]
    /// folding the mapped output per key. Mappers pre-aggregate their
    /// share before shipping (source-side combine — the shuffle pays
    /// for distinct keys, not raw emissions), destinations merge the
    /// incoming partials in reducing ingest sessions, and the
    /// materialized output holds one `key<delim>value` record per key.
    ///
    /// The output `scheme` must be hash-partitioned **by the reduced
    /// key** — field 0 under the reduce's delimiter (e.g.
    /// `PartitionScheme::hash_field(name, parts, reduce.delim, 0)`) —
    /// so a key's partials from every mapper converge on one node;
    /// anything else is a typed usage error before anything runs.
    pub fn map_reduce(
        &self,
        input: &str,
        output: &str,
        map: &MapSpec,
        reduce: &ReduceSpec,
        scheme: PartitionScheme,
    ) -> Result<MapShuffleReport> {
        self.map_shuffle_inner(input, output, map, Some(reduce), scheme)
    }

    fn map_shuffle_inner(
        &self,
        input: &str,
        output: &str,
        map: &MapSpec,
        reduce: Option<&ReduceSpec>,
        scheme: PartitionScheme,
    ) -> Result<MapShuffleReport> {
        let start = Instant::now();
        if input == output {
            return Err(PangeaError::usage(format!(
                "map-shuffle output '{output}' cannot be its own input"
            )));
        }
        if let Some(reduce) = reduce {
            // A reduce needs every partial of a key on one node, and the
            // materialized output is `key<delim>value` — so placement
            // must be a hash over exactly the output's key field. This
            // also rules out closure-keyed and round-robin schemes in
            // *both* backends, keeping the serial reference's semantics
            // identical to the distributed run.
            if !ReduceSpec::delim_ok(reduce.delim) {
                return Err(PangeaError::usage(format!(
                    "reduce delimiter {:#04x} can appear inside a rendered \
                     decimal value and would corrupt the key|value partial \
                     encoding; pick a non-digit, non-'-' byte",
                    reduce.delim
                )));
            }
            let keyed_right = scheme.kind == PartitionKind::Hash
                && scheme.key_spec()
                    == Some(KeySpec::Field {
                        delim: reduce.delim,
                        index: 0,
                    });
            if !keyed_right {
                return Err(PangeaError::usage(format!(
                    "a reduced output is `key{0}value` records and must be \
                     hash-partitioned by its key: build the scheme with \
                     hash_field(name, partitions, b'{0}', 0)",
                    reduce.delim as char
                )));
            }
        }
        let src = self
            .get_dist_set(input)?
            .ok_or_else(|| PangeaError::usage(format!("unknown input set '{input}'")))?;
        // Every validation runs before anything destructive: a rejected
        // job (closure-keyed scheme, dead slot) must never have dropped
        // the caller's existing output set first.
        let shipped = match self.workers.task_exec() {
            None => None,
            Some(exec) => Some((
                exec,
                scheme.to_spec().map_err(|_| {
                    PangeaError::NotWireSafe(format!(
                        "scheme '{}' is keyed by an opaque closure (a UDF) and \
                         cannot ship with a map task; build it with \
                         hash_field/hash_whole",
                        scheme.key_name
                    ))
                })?,
            )),
        };
        // Every slot holds a share of the input; running with a dead
        // slot would silently drop that share from the output (or fail
        // with a misleading routing error mid-task). Typed, so callers
        // recover the slot and retry.
        let alive = self.workers.alive_nodes();
        for slot in 0..self.workers.num_nodes() {
            if !alive.contains(&NodeId(slot)) {
                return Err(PangeaError::NodeUnavailable(NodeId(slot)));
            }
        }
        if let Some(existing) = self.catalog.entry(output)? {
            // Co-partitioning (kind/key/partition-count) is not enough
            // here: two hash_field schemes sharing a key *name* but
            // splitting differently would silently replace the output,
            // so the declarative key spec must match too.
            let same = existing.scheme.kind == scheme.kind
                && existing.scheme.partitions == scheme.partitions
                && existing.scheme.key_name == scheme.key_name
                && existing.scheme.key_spec() == scheme.key_spec();
            if !same {
                return Err(PangeaError::usage(format!(
                    "output set '{output}' already exists under a different \
                     scheme; drop it first"
                )));
            }
            self.drop_dist_set(output)?;
        }
        match shipped {
            Some((exec, spec)) => {
                let job = Job {
                    input: input.to_string(),
                    output: output.to_string(),
                    map: map.clone(),
                    reduce: reduce.cloned(),
                    scheme: spec,
                    nodes: self.workers.num_nodes(),
                };
                self.map_shuffle_tasks(exec, &job, scheme, start)
            }
            None => self.map_shuffle_serial(&src, output, map, reduce, scheme, start),
        }
    }

    /// The in-process path: one serial scan-map-dispatch through the
    /// driver, batched per destination like any dispatcher load — the
    /// record-for-record reference for the distributed path.
    ///
    /// Round-robin outputs stripe **per source node** with a
    /// slot-offset start — source `s`'s `i`-th emission lands on
    /// partition `(s + i) % partitions` — exactly the rule each remote
    /// mapper applies, so per-node parity holds for round-robin output
    /// schemes too (the scan visits each node's share in the same
    /// storage order a shipped task would).
    ///
    /// With a reduce, the whole input folds into one keyed accumulator
    /// here (a single global fold — the associative/commutative
    /// reference the distributed combine-then-merge must equal) and the
    /// encoded `key|value` records dispatch through the scheme.
    fn map_shuffle_serial(
        &self,
        src: &EngineSet,
        output: &str,
        map: &MapSpec,
        reduce: Option<&ReduceSpec>,
        scheme: PartitionScheme,
        start: Instant,
    ) -> Result<MapShuffleReport> {
        let out = self.create_dist_set(output, scheme.clone())?;
        let nodes = self.workers.num_nodes();
        let mut sinks = BatchedSinks::new(
            self.clone(),
            out.name().to_string(),
            DispatchConfig::default(),
        );
        let (mut scanned, mut records_out, mut bytes_out) = (0u64, 0u64, 0u64);
        match reduce {
            Some(reduce) => {
                let mut acc: std::collections::BTreeMap<Vec<u8>, i64> = Default::default();
                src.try_for_each_record(|_, rec| {
                    scanned += 1;
                    map.for_each_emit(rec, &mut |mapped| {
                        if let Some((key, value)) = reduce.key_value(mapped) {
                            reduce.fold_into(&mut acc, key, value);
                        }
                        Ok(())
                    })
                })?;
                // The fold collapsed per-record origins; the reduced
                // records dispatch as a driver load (external origin),
                // like any loader-fed set.
                for (key, value) in &acc {
                    let rec = reduce.encode_record(key, *value);
                    let to = scheme.node_of(&rec, 0, nodes);
                    records_out += 1;
                    bytes_out += rec.len() as u64;
                    sinks.push(NodeId(u32::MAX), to, &rec)?;
                }
            }
            None => {
                let mut emitted_of: FxHashMap<NodeId, u64> = FxHashMap::default();
                src.try_for_each_record(|from, rec| {
                    scanned += 1;
                    map.for_each_emit(rec, &mut |mapped| {
                        let seq = emitted_of.entry(from).or_insert(0);
                        let to = scheme.node_of(mapped, from.raw() as u64 + *seq, nodes);
                        *seq += 1;
                        records_out += 1;
                        bytes_out += mapped.len() as u64;
                        sinks.push(from, to, mapped)
                    })
                })?;
            }
        }
        sinks.finish()?;
        self.catalog.add_stats(output, records_out, bytes_out)?;
        Ok(MapShuffleReport {
            output: output.to_string(),
            scanned,
            records_out,
            bytes_out,
            tasks: Vec::new(),
            duration: start.elapsed(),
        })
    }

    /// The distributed path: ingest sessions bracket one shipped task
    /// per worker, and each step — begins, tasks, ends — runs on every
    /// node at once ([`fan_out`]). Sessions are sealed whatever happens,
    /// and the sealed totals — not the task acks — are authoritative
    /// for the materialized output (a task whose ack was lost still
    /// appended for real).
    fn map_shuffle_tasks(
        &self,
        exec: &dyn TaskExec,
        job: &Job,
        scheme: PartitionScheme,
        start: Instant,
    ) -> Result<MapShuffleReport> {
        self.create_dist_set(&job.output, scheme)?;
        let alive = self.workers.alive_nodes();
        fan_out(&alive, |dest| exec.ingest_begin(dest, job))?;
        let tasks = fan_out(&alive, |worker| exec.map_task(worker, job));
        // Seal every session whatever happened: a failed job must not
        // leave destinations holding tag ledgers forever. (Should a
        // seal itself fail — daemon unreachable — the retry's
        // `ingest_begin` replaces the session.)
        let ends = fan_out(&alive, |dest| exec.ingest_end(dest, job));
        let tasks: Vec<(NodeId, TaskReport)> = alive.iter().copied().zip(tasks?).collect();
        let (mut records_out, mut bytes_out) = (0u64, 0u64);
        for (a, b) in ends? {
            records_out += a;
            bytes_out += b;
        }
        self.catalog
            .add_stats(&job.output, records_out, bytes_out)?;
        let mut totals = TaskReport::default();
        for (_, task) in &tasks {
            totals.merge(task);
        }
        Ok(MapShuffleReport {
            output: job.output.clone(),
            scanned: totals.scanned,
            records_out,
            bytes_out,
            tasks,
            duration: start.elapsed(),
        })
    }

    /// Count of colliding objects currently stored for `group`.
    pub fn colliding_objects(&self, group: ReplicaGroupId) -> Result<u64> {
        match self.get_dist_set(&colliding_set_name(group))? {
            Some(s) => s.total_records(),
            None => Ok(0),
        }
    }

    /// Restores the data a failed node lost (paper §7): for every member
    /// of every replication group, re-derives the objects that lived on
    /// `failed` by running the member's partitioner over a surviving
    /// sibling replica, plus the colliding set for objects with no
    /// surviving copy. The node slot must already be re-provisioned
    /// (fresh node, empty sets — see [`ClusterCore::provision_node`]).
    ///
    /// Backends exposing [`WorkerBackend::peer_repair`] recover
    /// worker→worker: survivors stream their shares straight to the
    /// replacement (one push in flight per survivor), the engine fills
    /// `bytes_moved` with the peer payload, and the orchestrating driver
    /// moves zero record bytes. Otherwise the driver-mediated serial
    /// path runs and `bytes_moved`/`duration` are left for the frontend.
    pub fn recover_sets(&self, failed: NodeId) -> Result<RecoveryReport> {
        self.recover_sets_in(failed, None)
    }

    /// [`ClusterCore::recover_sets`] restricted to a subset of replica
    /// groups (`None` = all). Lets an orchestrator split one slot's
    /// repair into phases with different parallelism rules — e.g.
    /// hash-only groups repaired concurrently across slots while
    /// round-robin groups run serially (`RemoteCluster::recover_workers`).
    pub fn recover_sets_in(
        &self,
        failed: NodeId,
        groups: Option<&[ReplicaGroupId]>,
    ) -> Result<RecoveryReport> {
        let groups = match groups {
            Some(groups) => groups.to_vec(),
            None => self.catalog.groups()?,
        };
        match self.workers.peer_repair() {
            Some(repair) => self.recover_sets_peer(repair, failed, &groups),
            None => self.recover_sets_serial(failed, &groups),
        }
    }

    fn recover_sets_serial(
        &self,
        failed: NodeId,
        groups: &[ReplicaGroupId],
    ) -> Result<RecoveryReport> {
        let mut report = RecoveryReport {
            failed,
            replicas_recovered: Vec::new(),
            objects_restored: 0,
            colliding_restored: 0,
            bytes_moved: 0,
            duration: Duration::ZERO,
        };
        for &group in groups {
            let members = self.group_members_checked(group, failed)?;
            for target in &members {
                let sources: Vec<&String> = members.iter().filter(|m| *m != target).collect();
                self.recover_member(group, target, &sources, failed, &mut report)?;
                report.replicas_recovered.push(target.clone());
            }
        }
        Ok(report)
    }

    fn group_members_checked(&self, group: ReplicaGroupId, failed: NodeId) -> Result<Vec<String>> {
        let members = self.catalog.group_members(group)?;
        if members.len() < 2 {
            return Err(PangeaError::UnrecoverableFailure(format!(
                "replica group {group} has a single member; cannot recover {failed}"
            )));
        }
        Ok(members)
    }

    /// The worker→worker recovery path. Per `(group, target)` pair:
    /// open a dedup session on the replacement (seeded with the
    /// surviving share for round-robin targets), push every sibling
    /// share in parallel — one thread, and thus one RPC in flight, per
    /// survivor — then push the colliding set, then seal the session.
    /// The session's hash ledger replays the serial path's `seen`-set
    /// semantics across concurrent pushers, so the restored contents
    /// match a serial run record-for-record (order aside).
    fn recover_sets_peer(
        &self,
        repair: &dyn PeerRepair,
        failed: NodeId,
        groups: &[ReplicaGroupId],
    ) -> Result<RecoveryReport> {
        let mut report = RecoveryReport {
            failed,
            replicas_recovered: Vec::new(),
            objects_restored: 0,
            colliding_restored: 0,
            bytes_moved: 0,
            duration: Duration::ZERO,
        };
        let survivors: Vec<NodeId> = self
            .workers
            .alive_nodes()
            .into_iter()
            .filter(|&n| n != failed)
            .collect();
        for &group in groups {
            let members = self.group_members_checked(group, failed)?;
            let cset = colliding_set_name(group);
            let have_cset = self.catalog.contains(&cset)?;
            for target in &members {
                let t_entry = self
                    .catalog
                    .entry(target)?
                    .ok_or_else(|| PangeaError::usage(format!("unknown target '{target}'")))?;
                // Hash targets recompute their lost share by placement on
                // every survivor; round-robin targets define it by absence,
                // so the session pulls the surviving share's hashes first
                // — and survivors then diff against that seeded ledger at
                // the *source* (`Absent`), shipping ~the lost share
                // instead of their whole share (`All` would dedup at the
                // replacement after paying for every present record).
                let (filter, present_on): (RepairFilter, &[NodeId]) = match t_entry.scheme.kind {
                    PartitionKind::Hash => (
                        RepairFilter::Lost {
                            scheme: t_entry.scheme.to_spec()?,
                            failed: failed.raw(),
                            nodes: self.workers.num_nodes(),
                        },
                        &[],
                    ),
                    PartitionKind::RoundRobin => (RepairFilter::Absent, &survivors),
                };
                repair.repair_begin(failed, target, present_on)?;
                // The two push passes, with the session closed whatever
                // happens: a failed push must not leave the replacement
                // holding the session's hash ledger forever. (Should the
                // close itself fail — daemon unreachable — the next
                // repair attempt's `repair_begin` replaces the session.)
                let outcome = (|| {
                    // Pass 1: sibling replicas, in parallel per survivor.
                    let sources: Vec<String> =
                        members.iter().filter(|m| *m != target).cloned().collect();
                    let siblings =
                        push_parallel(repair, &survivors, &sources, failed, target, &filter)?;
                    // Pass 2: the colliding set (objects with no surviving
                    // sibling copy); the session dedups against pass 1.
                    let csets = if have_cset {
                        push_parallel(
                            repair,
                            &survivors,
                            std::slice::from_ref(&cset),
                            failed,
                            target,
                            &filter,
                        )?
                    } else {
                        RepairPushReport::default()
                    };
                    Ok::<_, PangeaError>((siblings, csets))
                })();
                let ended = repair.repair_end(failed, target);
                let (_siblings, csets) = outcome?;
                // The session totals are authoritative: a push whose ack
                // was lost to a connection failure (and whose retry then
                // deduped to zero) still appended for real, and only the
                // session counted it.
                let (session_appended, session_bytes) = ended?;
                report.objects_restored += session_appended;
                // Pass-level split for the colliding share comes from
                // the pass-2 acks (best effort under lost acks).
                report.colliding_restored += csets.appended;
                // `bytes_moved` is the *restored* payload (what the
                // replacement appended after dedup), mirroring the
                // serial path where shipped == appended; duplicate
                // sibling pushes and All-filter overshoot are visible
                // in the per-node `repair_bytes` counters instead.
                report.bytes_moved += session_bytes;
                report.replicas_recovered.push(target.clone());
            }
        }
        Ok(report)
    }

    /// Restores `target`'s lost share on `failed` from the surviving
    /// sibling replicas and the group's colliding set. With two replicas
    /// one sibling suffices (the paper's "arbitrarily selects another
    /// replica"); with three or more, an object may have been co-located
    /// with the target's copy in one sibling but not another, so all
    /// siblings are consulted and the `seen` set dedups.
    fn recover_member(
        &self,
        group: ReplicaGroupId,
        target: &str,
        sources: &[&String],
        failed: NodeId,
        report: &mut RecoveryReport,
    ) -> Result<()> {
        let nodes = self.workers.num_nodes();
        let t_entry = self
            .catalog
            .entry(target)?
            .ok_or_else(|| PangeaError::usage(format!("unknown target '{target}'")))?;
        let tgt = self
            .get_dist_set(target)?
            .ok_or_else(|| PangeaError::usage(format!("unknown target '{target}'")))?;
        let mut sinks =
            BatchedSinks::new(self.clone(), tgt.name.clone(), DispatchConfig::default());
        let mut seen: FxHashSet<u64> = FxHashSet::default();
        // For round-robin targets the lost share cannot be recomputed by
        // key; diff against the surviving share instead ("calculate the
        // key range for all lost partitions" generalized to arbitrary
        // physical organizations).
        let present: Option<FxHashSet<u64>> = match t_entry.scheme.kind {
            PartitionKind::Hash => None,
            PartitionKind::RoundRobin => {
                let mut p = FxHashSet::default();
                tgt.for_each_record(|_, rec| {
                    p.insert(record_key(rec));
                })?;
                Some(p)
            }
        };
        let is_lost = |rec: &[u8]| -> bool {
            match &present {
                None => t_entry.scheme.node_of(rec, 0, nodes) == failed,
                Some(p) => !p.contains(&record_key(rec)),
            }
        };
        // Pass 1: surviving sibling replicas.
        for source in sources {
            let src = self
                .get_dist_set(source)?
                .ok_or_else(|| PangeaError::usage(format!("unknown source '{source}'")))?;
            src.try_for_each_record(|from, rec| {
                if !is_lost(rec) || !seen.insert(record_key(rec)) {
                    return Ok(());
                }
                sinks.push(from, failed, rec)?;
                report.objects_restored += 1;
                Ok(())
            })?;
        }
        // Pass 2: colliding objects (no surviving sibling copy).
        if let Some(cset) = self.get_dist_set(&colliding_set_name(group))? {
            cset.try_for_each_record(|from, rec| {
                if !is_lost(rec) || !seen.insert(record_key(rec)) {
                    return Ok(());
                }
                sinks.push(from, failed, rec)?;
                report.objects_restored += 1;
                report.colliding_restored += 1;
                Ok(())
            })?;
        }
        sinks.finish()
    }
}

/// Runs one repair push per `(survivor, source)` pair with one thread —
/// and therefore one RPC in flight — per survivor, each survivor working
/// through `sources` in order ([`fan_out`]).
fn push_parallel(
    repair: &dyn PeerRepair,
    survivors: &[NodeId],
    sources: &[String],
    target: NodeId,
    target_set: &str,
    filter: &RepairFilter,
) -> Result<RepairPushReport> {
    let pushed = fan_out(survivors, |survivor| {
        let mut total = RepairPushReport::default();
        for source in sources {
            total.merge(&repair.repair_push(survivor, source, target, target_set, filter)?);
        }
        Ok(total)
    })?;
    let mut total = RepairPushReport::default();
    for push in &pushed {
        total.merge(push);
    }
    Ok(total)
}

/// Runs `f` once per node, each on a scoped thread of its own, and
/// joins every thread before returning — so a step that failed on one
/// node never orphans the others, and every node's step has run. The
/// results come back in `nodes` order. A panicking step becomes
/// [`PangeaError::Remote`]. When several steps fail, a typed
/// [`PangeaError::NodeUnavailable`] (the node is *gone*) wins over the
/// secondary failures its death caused in sibling steps that talked to
/// it; otherwise the first failure in `nodes` order wins.
pub fn fan_out<T: Send>(
    nodes: &[NodeId],
    f: impl Fn(NodeId) -> Result<T> + Sync,
) -> Result<Vec<T>> {
    let f = &f;
    let results: Vec<Result<T>> = std::thread::scope(|s| {
        let handles: Vec<_> = nodes.iter().map(|&n| s.spawn(move || f(n))).collect();
        handles
            .into_iter()
            .zip(nodes)
            .map(|(h, n)| {
                h.join().unwrap_or_else(|_| {
                    Err(PangeaError::Remote(format!("the step on {n} panicked")))
                })
            })
            .collect()
    });
    let mut out = Vec::with_capacity(results.len());
    let mut first_err: Option<PangeaError> = None;
    for r in results {
        match r {
            Ok(v) => out.push(v),
            Err(e) => {
                let prefer = matches!(e, PangeaError::NodeUnavailable(_))
                    && !matches!(first_err, Some(PangeaError::NodeUnavailable(_)));
                if first_err.is_none() || prefer {
                    first_err = Some(e);
                }
            }
        }
    }
    match first_err {
        Some(e) => Err(e),
        None => Ok(out),
    }
}

/// A distributed dataset handle served by the engine: one locality set
/// per worker plus catalog metadata.
#[derive(Debug, Clone)]
pub struct EngineSet {
    core: ClusterCore,
    name: String,
}

impl EngineSet {
    /// The set's cluster-wide name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The owning engine.
    pub fn core(&self) -> &ClusterCore {
        &self.core
    }

    /// The set's partitioning scheme, from the catalog.
    pub fn scheme(&self) -> Result<PartitionScheme> {
        Ok(self
            .core
            .catalog
            .entry(&self.name)?
            .ok_or_else(|| PangeaError::usage(format!("set '{}' not cataloged", self.name)))?
            .scheme)
    }

    /// A dispatcher that routes records to workers by the set's scheme,
    /// with default per-destination batching. `origin` is the node (or
    /// client) the records are sent from, for network accounting.
    pub fn dispatcher(&self, origin: NodeId) -> Result<EngineDispatcher> {
        self.dispatcher_with(origin, DispatchConfig::default())
    }

    /// [`EngineSet::dispatcher`] with explicit batching thresholds.
    pub fn dispatcher_with(
        &self,
        origin: NodeId,
        config: DispatchConfig,
    ) -> Result<EngineDispatcher> {
        let scheme = self.scheme()?;
        let nodes = self.core.workers.num_nodes();
        Ok(EngineDispatcher {
            sinks: BatchedSinks::new(self.core.clone(), self.name.clone(), config),
            set_name: self.name.clone(),
            catalog: Arc::clone(&self.core.catalog),
            scheme,
            origin,
            nodes,
            ordinal: 0,
            objects: 0,
            bytes: 0,
        })
    }

    /// A dispatcher for records loaded from outside the cluster (every
    /// delivery crosses the wire).
    pub fn loader(&self) -> Result<EngineDispatcher> {
        self.dispatcher(NodeId(u32::MAX))
    }

    /// [`EngineSet::loader`] with explicit batching thresholds.
    pub fn loader_with(&self, config: DispatchConfig) -> Result<EngineDispatcher> {
        self.dispatcher_with(NodeId(u32::MAX), config)
    }

    /// Runs `f` over every record of the set on every alive node.
    pub fn for_each_record(&self, mut f: impl FnMut(NodeId, &[u8])) -> Result<()> {
        self.try_for_each_record(|n, rec| {
            f(n, rec);
            Ok(())
        })
    }

    /// Fallible variant of [`EngineSet::for_each_record`]: the first
    /// error aborts the scan.
    pub fn try_for_each_record(
        &self,
        mut f: impl FnMut(NodeId, &[u8]) -> Result<()>,
    ) -> Result<()> {
        for n in self.core.workers.alive_nodes() {
            self.core
                .workers
                .scan(n, &self.name, &mut |rec| f(n, rec))?;
        }
        Ok(())
    }

    /// Counts records per alive node (placement diagnostics).
    pub fn records_per_node(&self) -> Result<Vec<(NodeId, u64)>> {
        let mut out = Vec::new();
        for n in self.core.workers.alive_nodes() {
            out.push((n, self.core.workers.count(n, &self.name)?));
        }
        Ok(out)
    }

    /// Total records across alive nodes.
    pub fn total_records(&self) -> Result<u64> {
        Ok(self.records_per_node()?.iter().map(|(_, c)| c).sum())
    }
}

/// Routes records to workers according to a partitioning scheme, paying
/// network costs per flushed batch rather than per record (see
/// [`DispatchConfig`]).
pub struct EngineDispatcher {
    sinks: BatchedSinks,
    set_name: String,
    catalog: Arc<dyn Catalog>,
    scheme: PartitionScheme,
    origin: NodeId,
    nodes: u32,
    ordinal: u64,
    objects: u64,
    bytes: u64,
}

impl fmt::Debug for EngineDispatcher {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EngineDispatcher")
            .field("set", &self.set_name)
            .field("dispatched", &self.objects)
            .finish()
    }
}

impl EngineDispatcher {
    /// Routes one record, returning the node it will land on. Delivery
    /// may be deferred until the destination's batch flushes (or
    /// [`EngineDispatcher::finish`]), so delivery errors can surface on
    /// a later call.
    pub fn dispatch(&mut self, record: &[u8]) -> Result<NodeId> {
        let node = self.scheme.node_of(record, self.ordinal, self.nodes);
        self.ordinal += 1;
        self.sinks.push(self.origin, node, record)?;
        self.objects += 1;
        self.bytes += record.len() as u64;
        Ok(node)
    }

    /// Records dispatched so far.
    pub fn dispatched(&self) -> u64 {
        self.objects
    }

    /// Flushes every pending batch, seals all sinks, and publishes
    /// statistics to the catalog.
    pub fn finish(self) -> Result<()> {
        self.sinks.finish()?;
        self.catalog
            .add_stats(&self.set_name, self.objects, self.bytes)
    }
}

/// Per-destination batching over backend sinks: records accumulate per
/// `(origin, destination)` run and flush as one [`RecordSink::append`]
/// when the batch is full, the origin changes, or the batch is sealed.
struct BatchedSinks {
    core: ClusterCore,
    set: String,
    config: DispatchConfig,
    slots: FxHashMap<NodeId, SinkSlot>,
}

struct SinkSlot {
    sink: Box<dyn RecordSink>,
    /// Origin of the pending batch; a batch never mixes origins so the
    /// local-delivery (`from == to`) free path stays exact.
    from: NodeId,
    pending: PushBatch<Vec<u8>>,
}

impl SinkSlot {
    fn flush(&mut self) -> Result<()> {
        let records = self.pending.take();
        self.deliver(records)
    }

    fn deliver(&mut self, records: Vec<Vec<u8>>) -> Result<()> {
        if records.is_empty() {
            return Ok(());
        }
        self.sink.append(self.from, records)
    }
}

impl Drop for BatchedSinks {
    fn drop(&mut self) {
        // Best effort: a dispatcher dropped without `finish()` (e.g. an
        // unrelated error unwinding past it) still tries to deliver its
        // pending batches rather than silently discarding them. Errors
        // are swallowed here — `finish()` is the checked path, and only
        // it seals the sinks.
        for slot in self.slots.values_mut() {
            let _ = slot.flush();
        }
    }
}

impl BatchedSinks {
    fn new(core: ClusterCore, set: String, config: DispatchConfig) -> Self {
        Self {
            core,
            set,
            config,
            slots: FxHashMap::default(),
        }
    }

    fn push(&mut self, from: NodeId, to: NodeId, record: &[u8]) -> Result<()> {
        if !self.slots.contains_key(&to) {
            let sink = self.core.workers.open_sink(to, &self.set)?;
            self.slots.insert(
                to,
                SinkSlot {
                    sink,
                    from,
                    pending: PushBatch::new(self.config.max_batch_bytes),
                },
            );
        }
        let slot = self.slots.get_mut(&to).expect("just ensured");
        if slot.from != from {
            slot.flush()?;
            slot.from = from;
        }
        match slot.pending.push(record.to_vec()) {
            Some(full) => slot.deliver(full),
            None => Ok(()),
        }
    }

    fn finish(mut self) -> Result<()> {
        for (_, mut slot) in self.slots.drain() {
            slot.flush()?;
            slot.sink.finish()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{mpsc, Mutex};

    fn nodes(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    #[test]
    fn fan_out_returns_results_in_node_order() {
        let out = fan_out(&[NodeId(3), NodeId(1), NodeId(2)], |n| Ok(n.raw() * 10)).unwrap();
        assert_eq!(out, vec![30, 10, 20]);
        assert!(fan_out(&[], |_| Ok(())).unwrap().is_empty());
    }

    #[test]
    fn fan_out_runs_every_step_even_when_one_fails_early() {
        // The failing step releases its siblings as it fails, so each
        // of them finishes after the failure.
        let (release, released) = mpsc::channel();
        let released = Mutex::new(released);
        let ran = AtomicUsize::new(0);
        let out = fan_out(&nodes(4), |n| {
            if n == NodeId(0) {
                for _ in 0..3 {
                    release.send(()).expect("siblings are waiting");
                }
                return Err(PangeaError::Remote("node 0 failed first".into()));
            }
            released.lock().unwrap().recv().unwrap();
            ran.fetch_add(1, Ordering::SeqCst);
            Ok(())
        });
        assert!(matches!(out, Err(PangeaError::Remote(_))), "{out:?}");
        assert_eq!(ran.load(Ordering::SeqCst), 3, "every sibling step ran");
    }

    #[test]
    fn fan_out_turns_a_panicking_step_into_remote() {
        let out = fan_out(&nodes(3), |n| {
            if n == NodeId(1) {
                panic!("step on node 1 panicked on purpose");
            }
            Ok(n)
        });
        match out {
            Err(PangeaError::Remote(msg)) => assert!(msg.contains("node#1"), "{msg}"),
            other => panic!("expected Remote, got {other:?}"),
        }
    }

    #[test]
    fn fan_out_prefers_node_unavailable_over_sibling_errors_in_any_order() {
        for order in [[NodeId(0), NodeId(1)], [NodeId(1), NodeId(0)]] {
            let out: Result<Vec<()>> = fan_out(&order, |n| {
                Err(if n == NodeId(1) {
                    PangeaError::NodeUnavailable(n)
                } else {
                    PangeaError::Remote("push to node 1 failed".into())
                })
            });
            assert!(
                matches!(out, Err(PangeaError::NodeUnavailable(NodeId(1)))),
                "order {order:?}: {out:?}"
            );
        }
    }
}
