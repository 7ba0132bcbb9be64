//! The simulated Pangea cluster: one light-weight manager plus N worker
//! nodes, each running a full per-node storage engine (paper §3.3).
//!
//! Substitution note (DESIGN.md §2): the paper's 11–31 AWS nodes become
//! N in-process workers. Each worker owns its own buffer pool, disk
//! directories, paging strategy, and catalog slice — the per-node code
//! paths the experiments measure run for real; only the wire between
//! nodes is simulated (byte-counted, optionally throttled).
//!
//! Since the control-plane refactor, `SimCluster` is a thin frontend
//! over the generic [`ClusterCore`] engine: [`SimWorkers`] implements
//! the [`WorkerBackend`] seam with in-process [`StorageNode`]s and a
//! [`SimNetwork`], and the in-process [`Manager`] implements the
//! catalog seam. `pangea-coord`'s `RemoteCluster` drives the *same*
//! engine against remote `pangead` processes and a wire-served catalog.

use crate::engine::{
    ClusterCore, DispatchConfig, EngineDispatcher, EngineSet, MapShuffleReport, RecordSink,
    WorkerBackend,
};
use crate::manager::Manager;
use crate::network::SimNetwork;
use crate::partition::PartitionScheme;
use pangea_common::{NodeId, PangeaError, Result};
use pangea_core::{LocalitySet, NodeConfig, ObjectIter, SeqWriter, SetOptions, StorageNode};
use parking_lot::RwLock;
use std::path::PathBuf;
use std::sync::Arc;

/// Cluster construction parameters.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of worker nodes.
    pub nodes: u32,
    /// Root directory; worker `i` stores under `<root>/node<i>`.
    pub data_root: PathBuf,
    /// Per-worker buffer pool capacity in bytes.
    pub pool_capacity: usize,
    /// Default page size.
    pub page_size: usize,
    /// Disks per worker.
    pub disks: usize,
    /// Optional per-disk bandwidth (bytes/s).
    pub disk_bandwidth: Option<u64>,
    /// Optional aggregate network bandwidth (bytes/s).
    pub net_bandwidth: Option<u64>,
    /// Paging strategy for every worker.
    pub strategy: String,
    /// The public key registered for this deployment (paper §3.3:
    /// bootstrap must present the matching private key).
    pub auth_key: String,
}

impl ClusterConfig {
    /// `nodes` workers rooted at `data_root` with library defaults and
    /// the default test key pair.
    pub fn new(data_root: impl Into<PathBuf>, nodes: u32) -> Self {
        Self {
            nodes: nodes.max(1),
            data_root: data_root.into(),
            pool_capacity: 16 * pangea_common::MB,
            page_size: 64 * pangea_common::KB,
            disks: 1,
            disk_bandwidth: None,
            net_bandwidth: None,
            strategy: "data-aware".into(),
            auth_key: "pangea-default-keypair".into(),
        }
    }

    /// Overrides the per-worker pool capacity.
    pub fn with_pool_capacity(mut self, bytes: usize) -> Self {
        self.pool_capacity = bytes;
        self
    }

    /// Overrides the default page size.
    pub fn with_page_size(mut self, bytes: usize) -> Self {
        self.page_size = bytes;
        self
    }

    /// Overrides the per-worker disk count.
    pub fn with_disks(mut self, disks: usize) -> Self {
        self.disks = disks;
        self
    }

    /// Sets disk bandwidth pacing.
    pub fn with_disk_bandwidth(mut self, bytes_per_sec: u64) -> Self {
        self.disk_bandwidth = Some(bytes_per_sec);
        self
    }

    /// Sets network bandwidth pacing.
    pub fn with_net_bandwidth(mut self, bytes_per_sec: u64) -> Self {
        self.net_bandwidth = Some(bytes_per_sec);
        self
    }

    /// Overrides the paging strategy.
    pub fn with_strategy(mut self, name: &str) -> Self {
        self.strategy = name.to_string();
        self
    }

    /// Registers the deployment key the bootstrap must match.
    pub fn with_auth_key(mut self, key: &str) -> Self {
        self.auth_key = key.to_string();
        self
    }

    fn node_config(&self, n: NodeId) -> NodeConfig {
        let mut cfg = NodeConfig::new(self.data_root.join(format!("node{}", n.raw())))
            .with_pool_capacity(self.pool_capacity)
            .with_page_size(self.page_size)
            .with_disks(self.disks)
            .with_strategy(&self.strategy);
        if let Some(bw) = self.disk_bandwidth {
            cfg = cfg.with_disk_bandwidth(bw);
        }
        cfg
    }
}

/// The in-process [`WorkerBackend`]: a slot vector of [`StorageNode`]s
/// plus the [`SimNetwork`] every remote delivery pays.
#[derive(Debug)]
pub struct SimWorkers {
    /// Slot `i` hosts worker `i`; `None` marks a failed node.
    workers: RwLock<Vec<Option<StorageNode>>>,
    net: Arc<SimNetwork>,
}

impl SimWorkers {
    fn get(&self, n: NodeId) -> Result<StorageNode> {
        self.workers
            .read()
            .get(n.raw() as usize)
            .and_then(|w| w.clone())
            .ok_or(PangeaError::NodeUnavailable(n))
    }

    fn local_set(&self, n: NodeId, name: &str) -> Result<LocalitySet> {
        self.get(n)?
            .get_set(name)
            .ok_or_else(|| PangeaError::usage(format!("set '{name}' missing on {n}")))
    }
}

/// The in-process sink: one [`SeqWriter`] held open for the operation's
/// lifetime (batches land on shared pages, sealed once at `finish`),
/// fed through the network for byte accounting.
struct SimSink {
    writer: SeqWriter,
    net: Arc<SimNetwork>,
    to: NodeId,
}

impl RecordSink for SimSink {
    fn append(&mut self, from: NodeId, records: &[Vec<u8>]) -> Result<()> {
        if records.is_empty() {
            return Ok(());
        }
        // One transfer per batch: the payload is the records
        // back-to-back, so net bytes equal the sum of record lengths —
        // identical accounting to per-record transfers, in fewer
        // messages.
        let total: usize = records.iter().map(Vec::len).sum();
        let mut payload = Vec::with_capacity(total);
        for rec in records {
            payload.extend_from_slice(rec);
        }
        let delivered = self.net.transfer(from, self.to, &payload)?;
        let mut off = 0;
        for rec in records {
            let next = off + rec.len();
            self.writer.add_object(&delivered[off..next])?;
            off = next;
        }
        Ok(())
    }

    fn finish(mut self: Box<Self>) -> Result<()> {
        self.writer.finish()
    }
}

impl WorkerBackend for SimWorkers {
    fn num_nodes(&self) -> u32 {
        self.workers.read().len() as u32
    }

    fn alive_nodes(&self) -> Vec<NodeId> {
        self.workers
            .read()
            .iter()
            .enumerate()
            .filter_map(|(i, w)| w.as_ref().map(|_| NodeId(i as u32)))
            .collect()
    }

    fn create_set(&self, n: NodeId, name: &str) -> Result<()> {
        self.get(n)?.create_set(name, SetOptions::write_through())?;
        Ok(())
    }

    fn drop_set(&self, n: NodeId, name: &str) -> Result<()> {
        let node = self.get(n)?;
        if let Some(local) = node.get_set(name) {
            node.drop_set(local.id())?;
        }
        Ok(())
    }

    fn open_sink(&self, n: NodeId, set: &str) -> Result<Box<dyn RecordSink>> {
        Ok(Box::new(SimSink {
            writer: self.local_set(n, set)?.writer(),
            net: Arc::clone(&self.net),
            to: n,
        }))
    }

    fn scan(&self, n: NodeId, set: &str, f: &mut dyn FnMut(&[u8]) -> Result<()>) -> Result<()> {
        let local = self.local_set(n, set)?;
        for num in local.page_numbers() {
            let pin = local.pin_page(num)?;
            let mut it = ObjectIter::new(&pin);
            while let Some(rec) = it.next() {
                f(rec)?;
            }
        }
        Ok(())
    }

    fn net_bytes(&self) -> u64 {
        self.net.bytes_moved()
    }
}

#[derive(Debug)]
pub(crate) struct ClusterInner {
    config: ClusterConfig,
    backend: Arc<SimWorkers>,
    manager: Arc<Manager>,
    /// The simulated interconnect.
    net: Arc<SimNetwork>,
    core: ClusterCore,
}

/// A handle to the simulated cluster. Cheap to clone.
#[derive(Debug, Clone)]
pub struct SimCluster {
    pub(crate) inner: Arc<ClusterInner>,
}

impl SimCluster {
    /// Bootstraps the cluster. Per the paper (§3.3), the user must submit
    /// the deployment's private key; "a non-valid key will cause the
    /// whole system to terminate".
    pub fn bootstrap(config: ClusterConfig, private_key: &str) -> Result<Self> {
        if private_key != config.auth_key {
            return Err(PangeaError::AuthenticationFailed);
        }
        let mut workers = Vec::with_capacity(config.nodes as usize);
        for n in 0..config.nodes {
            let dir = config.data_root.join(format!("node{n}"));
            let _ = std::fs::remove_dir_all(&dir);
            workers.push(Some(StorageNode::new(config.node_config(NodeId(n)))?));
        }
        let net = Arc::new(match config.net_bandwidth {
            Some(bw) => SimNetwork::with_bandwidth(bw),
            None => SimNetwork::unlimited(),
        });
        let backend = Arc::new(SimWorkers {
            workers: RwLock::new(workers),
            net: Arc::clone(&net),
        });
        let manager = Arc::new(Manager::new());
        let core = ClusterCore::new(
            Arc::clone(&backend) as Arc<dyn WorkerBackend>,
            Arc::clone(&manager) as Arc<dyn crate::engine::Catalog>,
        );
        Ok(Self {
            inner: Arc::new(ClusterInner {
                config,
                backend,
                manager,
                net,
                core,
            }),
        })
    }

    /// Total node slots (alive or failed).
    pub fn num_nodes(&self) -> u32 {
        self.inner.config.nodes
    }

    /// Nodes currently alive, ascending.
    pub fn alive_nodes(&self) -> Vec<NodeId> {
        self.inner.backend.alive_nodes()
    }

    /// The storage engine of one worker.
    pub fn worker(&self, n: NodeId) -> Result<StorageNode> {
        self.inner.backend.get(n)
    }

    /// The manager's catalog / statistics database.
    pub fn manager(&self) -> &Manager {
        &self.inner.manager
    }

    /// The generic engine this frontend drives (shared with
    /// `RemoteCluster` in `pangea-coord`).
    pub fn core(&self) -> &ClusterCore {
        &self.inner.core
    }

    /// The simulated cluster interconnect.
    pub fn network(&self) -> &Arc<SimNetwork> {
        &self.inner.net
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.inner.config
    }

    /// Kills a node: its memory vanishes and its disks are wiped
    /// (total machine loss, the Fig. 6 failure model).
    pub fn kill_node(&self, n: NodeId) -> Result<()> {
        let mut workers = self.inner.backend.workers.write();
        let slot = workers
            .get_mut(n.raw() as usize)
            .ok_or(PangeaError::NodeUnavailable(n))?;
        if slot.take().is_none() {
            return Err(PangeaError::NodeUnavailable(n));
        }
        drop(workers);
        let _ =
            std::fs::remove_dir_all(self.inner.config.data_root.join(format!("node{}", n.raw())));
        Ok(())
    }

    /// Re-provisions a failed slot with a fresh, empty worker and
    /// re-creates the local locality sets of every cataloged distributed
    /// set. The data is restored separately by recovery (§7).
    pub fn restart_node(&self, n: NodeId) -> Result<StorageNode> {
        let mut workers = self.inner.backend.workers.write();
        let slot = workers
            .get_mut(n.raw() as usize)
            .ok_or(PangeaError::NodeUnavailable(n))?;
        if slot.is_some() {
            return Err(PangeaError::usage(format!("{n} is still alive")));
        }
        let node = StorageNode::new(self.inner.config.node_config(n))?;
        *slot = Some(node.clone());
        drop(workers);
        self.inner.core.provision_node(n)?;
        Ok(node)
    }

    // ------------------------------------------------------------------
    // Distributed sets
    // ------------------------------------------------------------------

    /// Creates a distributed set: a same-named write-through locality set
    /// on every alive worker plus a catalog entry with its partitioning
    /// scheme.
    pub fn create_dist_set(&self, name: &str, scheme: PartitionScheme) -> Result<DistSet> {
        let inner = self.inner.core.create_dist_set(name, scheme)?;
        Ok(DistSet {
            cluster: self.clone(),
            inner,
        })
    }

    /// Looks up a cataloged distributed set.
    pub fn get_dist_set(&self, name: &str) -> Option<DistSet> {
        self.inner
            .core
            .get_dist_set(name)
            .ok()
            .flatten()
            .map(|inner| DistSet {
                cluster: self.clone(),
                inner,
            })
    }

    /// Drops a distributed set everywhere.
    pub fn drop_dist_set(&self, name: &str) -> Result<()> {
        self.inner.core.drop_dist_set(name)
    }

    /// A map-shuffle over the cluster: applies the declarative `map` to
    /// every record of `input` and materializes the routed output as a
    /// normal distributed set named `output` under `scheme`. In the
    /// simulation this runs serially through the engine's dispatch path
    /// (UDF-closure schemes work fine here); `RemoteCluster` runs the
    /// *same* engine call distributed — one shipped task per worker —
    /// and this serial run is the record-for-record reference for it.
    /// That parity covers round-robin output schemes too: both backends
    /// stripe RR outputs per source node with a slot-offset start
    /// (source `s`'s `i`-th emission → partition `(s + i) %
    /// partitions`), so placement is identical, not merely balanced.
    pub fn map_shuffle(
        &self,
        input: &str,
        output: &str,
        map: &pangea_net::MapSpec,
        scheme: PartitionScheme,
    ) -> Result<MapShuffleReport> {
        self.inner.core.map_shuffle(input, output, map, scheme)
    }

    /// A map-**combine-reduce** over the cluster: like
    /// [`SimCluster::map_shuffle`] plus a declarative
    /// [`pangea_net::ReduceSpec`] folding the mapped output per key
    /// (count/sum/min/max of a delimited numeric field). Here the fold
    /// runs as one serial in-process pass — the reference the
    /// distributed combine-then-merge (`RemoteCluster::map_reduce`)
    /// must match record-for-record.
    pub fn map_reduce(
        &self,
        input: &str,
        output: &str,
        map: &pangea_net::MapSpec,
        reduce: &pangea_net::ReduceSpec,
        scheme: PartitionScheme,
    ) -> Result<MapShuffleReport> {
        self.inner
            .core
            .map_reduce(input, output, map, reduce, scheme)
    }
}

/// A distributed dataset: one locality set per worker plus manager
/// metadata.
#[derive(Debug, Clone)]
pub struct DistSet {
    cluster: SimCluster,
    inner: EngineSet,
}

impl DistSet {
    /// The set's cluster-wide name.
    pub fn name(&self) -> &str {
        self.inner.name()
    }

    /// The owning cluster.
    pub fn cluster(&self) -> &SimCluster {
        &self.cluster
    }

    /// The set's partitioning scheme, from the manager catalog.
    pub fn scheme(&self) -> Result<PartitionScheme> {
        self.inner.scheme()
    }

    /// The node-local locality set on worker `n` (in-process backends
    /// only; remote clusters read through the wire instead).
    pub fn local(&self, n: NodeId) -> Result<LocalitySet> {
        self.cluster.inner.backend.local_set(n, self.name())
    }

    /// A dispatcher that routes records to workers by the set's scheme,
    /// batching per destination. `origin` is the node (or client) the
    /// records are sent from, for network accounting; loading from
    /// outside the cluster uses [`DistSet::loader`].
    pub fn dispatcher(&self, origin: NodeId) -> Result<Dispatcher> {
        Ok(Dispatcher {
            inner: self.inner.dispatcher(origin)?,
        })
    }

    /// [`DistSet::dispatcher`] with explicit batching thresholds.
    pub fn dispatcher_with(&self, origin: NodeId, config: DispatchConfig) -> Result<Dispatcher> {
        Ok(Dispatcher {
            inner: self.inner.dispatcher_with(origin, config)?,
        })
    }

    /// A dispatcher for records loaded from outside the cluster (every
    /// delivery crosses the wire).
    pub fn loader(&self) -> Result<Dispatcher> {
        self.dispatcher(NodeId(u32::MAX))
    }

    /// [`DistSet::loader`] with explicit batching thresholds.
    pub fn loader_with(&self, config: DispatchConfig) -> Result<Dispatcher> {
        self.dispatcher_with(NodeId(u32::MAX), config)
    }

    /// Runs `f` over every record of the set on every alive node
    /// (single-threaded convenience; hot paths scan per node).
    pub fn for_each_record(&self, f: impl FnMut(NodeId, &[u8])) -> Result<()> {
        self.inner.for_each_record(f)
    }

    /// Fallible variant of [`DistSet::for_each_record`]: the first error
    /// aborts the scan.
    pub fn try_for_each_record(&self, f: impl FnMut(NodeId, &[u8]) -> Result<()>) -> Result<()> {
        self.inner.try_for_each_record(f)
    }

    /// Counts records per alive node (placement diagnostics).
    pub fn records_per_node(&self) -> Result<Vec<(NodeId, u64)>> {
        self.inner.records_per_node()
    }

    /// Total records across alive nodes.
    pub fn total_records(&self) -> Result<u64> {
        self.inner.total_records()
    }
}

/// Routes records to workers according to a partitioning scheme, paying
/// network costs per flushed batch (see [`DispatchConfig`]).
#[derive(Debug)]
pub struct Dispatcher {
    inner: EngineDispatcher,
}

impl Dispatcher {
    /// Routes one record, returning the node it lands on. Delivery may
    /// be deferred until the destination's batch flushes.
    pub fn dispatch(&mut self, record: &[u8]) -> Result<NodeId> {
        self.inner.dispatch(record)
    }

    /// Records dispatched so far.
    pub fn dispatched(&self) -> u64 {
        self.inner.dispatched()
    }

    /// Flushes all batches, seals all writers, and publishes statistics
    /// to the manager.
    pub fn finish(self) -> Result<()> {
        self.inner.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "pangea-cluster-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn small_cluster(tag: &str, nodes: u32) -> SimCluster {
        let cfg = ClusterConfig::new(test_root(tag), nodes)
            .with_pool_capacity(256 * pangea_common::KB)
            .with_page_size(4 * pangea_common::KB);
        SimCluster::bootstrap(cfg, "pangea-default-keypair").unwrap()
    }

    fn first_field(rec: &[u8]) -> Vec<u8> {
        rec.split(|&b| b == b'|').next().unwrap_or(rec).to_vec()
    }

    #[test]
    fn bad_key_terminates_bootstrap() {
        let cfg = ClusterConfig::new(test_root("auth"), 2).with_auth_key("right");
        assert!(matches!(
            SimCluster::bootstrap(cfg.clone(), "wrong"),
            Err(PangeaError::AuthenticationFailed)
        ));
        assert!(SimCluster::bootstrap(cfg, "right").is_ok());
    }

    #[test]
    fn round_robin_dispatch_balances_nodes() {
        let c = small_cluster("rr", 4);
        let s = c
            .create_dist_set("points", PartitionScheme::round_robin(8))
            .unwrap();
        let mut d = s.loader().unwrap();
        for i in 0..400u32 {
            d.dispatch(format!("{i}|payload").as_bytes()).unwrap();
        }
        d.finish().unwrap();
        let per_node = s.records_per_node().unwrap();
        assert_eq!(per_node.len(), 4);
        for (_, count) in &per_node {
            assert_eq!(*count, 100, "round robin balances exactly: {per_node:?}");
        }
        assert_eq!(s.total_records().unwrap(), 400);
        assert_eq!(c.manager().entry("points").unwrap().stats.objects, 400);
        assert!(c.network().bytes_moved() > 0);
    }

    #[test]
    fn batching_moves_the_same_bytes_in_fewer_messages() {
        // The satellite claim behind DispatchConfig: identical payload
        // accounting, strictly fewer SimNetwork::transfer calls.
        let run = |tag: &str, config: DispatchConfig| {
            let c = small_cluster(tag, 3);
            let s = c
                .create_dist_set("batched", PartitionScheme::round_robin(3))
                .unwrap();
            let mut d = s.loader_with(config).unwrap();
            for i in 0..300u32 {
                d.dispatch(format!("{i}|row-{i:04}").as_bytes()).unwrap();
            }
            d.finish().unwrap();
            assert_eq!(s.total_records().unwrap(), 300);
            let snap = c.network().stats().snapshot();
            (snap.net_bytes, snap.net_messages)
        };
        let (bytes_unbatched, msgs_unbatched) = run("unbatched", DispatchConfig::unbatched());
        let (bytes_batched, msgs_batched) = run("batched", DispatchConfig::default());
        assert_eq!(
            bytes_batched, bytes_unbatched,
            "batching must not change payload accounting"
        );
        assert_eq!(
            msgs_unbatched, 300,
            "one transfer per record without batching"
        );
        assert!(
            msgs_batched * 10 <= msgs_unbatched,
            "batching should collapse transfers ≥10×: {msgs_batched} vs {msgs_unbatched}"
        );
    }

    #[test]
    fn hash_dispatch_groups_keys_on_one_node() {
        let c = small_cluster("hash", 3);
        let s = c
            .create_dist_set(
                "orders",
                PartitionScheme::hash("o_orderkey", 6, first_field),
            )
            .unwrap();
        let mut d = s.loader().unwrap();
        for i in 0..300u32 {
            d.dispatch(format!("{}|row{}", i % 30, i).as_bytes())
                .unwrap();
        }
        d.finish().unwrap();
        // Every record with the same key is on exactly one node.
        let mut key_nodes: std::collections::HashMap<Vec<u8>, NodeId> =
            std::collections::HashMap::new();
        s.for_each_record(|node, rec| {
            let k = first_field(rec);
            let prev = key_nodes.insert(k.clone(), node);
            if let Some(p) = prev {
                assert_eq!(p, node, "key {k:?} split across nodes");
            }
        })
        .unwrap();
        assert_eq!(key_nodes.len(), 30);
    }

    #[test]
    fn kill_makes_node_unavailable_and_restart_reprovisions() {
        let c = small_cluster("kill", 3);
        let s = c
            .create_dist_set("data", PartitionScheme::round_robin(3))
            .unwrap();
        let mut d = s.loader().unwrap();
        for i in 0..30u32 {
            d.dispatch(&i.to_le_bytes()).unwrap();
        }
        d.finish().unwrap();
        c.kill_node(NodeId(1)).unwrap();
        assert_eq!(c.alive_nodes(), vec![NodeId(0), NodeId(2)]);
        assert!(matches!(
            c.worker(NodeId(1)),
            Err(PangeaError::NodeUnavailable(_))
        ));
        assert!(c.kill_node(NodeId(1)).is_err(), "already dead");
        // Survivors keep serving their shares.
        assert_eq!(s.total_records().unwrap(), 20);
        // Restart provisions an empty node with the set re-created.
        c.restart_node(NodeId(1)).unwrap();
        assert_eq!(c.alive_nodes().len(), 3);
        assert_eq!(s.total_records().unwrap(), 20, "restart restores no data");
        assert!(s.local(NodeId(1)).is_ok());
    }

    #[test]
    fn map_shuffle_serial_materializes_a_routed_set() {
        use pangea_net::{FilterSpec, KeySpec, MapSpec};
        let c = small_cluster("mapshuffle", 3);
        let s = c
            .create_dist_set("lines", PartitionScheme::round_robin(3))
            .unwrap();
        let mut d = s.loader().unwrap();
        for i in 0..120u32 {
            d.dispatch(format!("{}|w{}|junk", i % 2, i % 9).as_bytes())
                .unwrap();
        }
        d.finish().unwrap();
        // Keep rows whose first field is "1", emit field 1, hash by the
        // emitted word.
        let map = MapSpec::extract(KeySpec::Field {
            delim: b'|',
            index: 1,
        })
        .with_filter(FilterSpec::KeyEquals {
            key: KeySpec::Field {
                delim: b'|',
                index: 0,
            },
            value: b"1".to_vec(),
        });
        let report = c
            .map_shuffle(
                "lines",
                "words",
                &map,
                PartitionScheme::hash_whole("word", 6),
            )
            .unwrap();
        assert_eq!(report.scanned, 120);
        assert_eq!(report.records_out, 60, "half the rows pass the filter");
        assert!(report.bytes_out > 0);
        let out = c.get_dist_set("words").unwrap();
        assert_eq!(out.total_records().unwrap(), 60);
        // Every output record is a projected word placed by its hash,
        // and honest duplicates survive (rows share words).
        let scheme = out.scheme().unwrap();
        out.for_each_record(|node, rec| {
            assert!(rec.starts_with(b"w"));
            assert_eq!(scheme.node_of(rec, 0, 3), node);
        })
        .unwrap();
        assert_eq!(c.manager().entry("words").unwrap().stats.objects, 60);
        // Re-running the job replaces the output instead of duplicating.
        let again = c
            .map_shuffle(
                "lines",
                "words",
                &map,
                PartitionScheme::hash_whole("word", 6),
            )
            .unwrap();
        assert_eq!(again.records_out, 60);
        assert_eq!(
            c.get_dist_set("words").unwrap().total_records().unwrap(),
            60
        );
        // A conflicting-scheme output is a usage error.
        assert!(c
            .map_shuffle("lines", "words", &map, PartitionScheme::round_robin(3))
            .is_err());
        // …and so is shuffling a set into itself.
        assert!(c
            .map_shuffle("lines", "lines", &map, PartitionScheme::hash_whole("w", 6))
            .is_err());
    }

    #[test]
    fn duplicate_dist_set_rejected() {
        let c = small_cluster("dup", 2);
        c.create_dist_set("s", PartitionScheme::round_robin(2))
            .unwrap();
        assert!(c
            .create_dist_set("s", PartitionScheme::round_robin(2))
            .is_err());
        assert!(c.get_dist_set("s").is_some());
        assert!(c.get_dist_set("t").is_none());
    }

    #[test]
    fn drop_dist_set_removes_everywhere() {
        let c = small_cluster("drop", 2);
        let s = c
            .create_dist_set("gone", PartitionScheme::round_robin(2))
            .unwrap();
        let mut d = s.loader().unwrap();
        d.dispatch(b"x").unwrap();
        d.finish().unwrap();
        c.drop_dist_set("gone").unwrap();
        assert!(c.get_dist_set("gone").is_none());
        for n in c.alive_nodes() {
            assert!(c.worker(n).unwrap().get_set("gone").is_none());
        }
    }
}
