//! Typed clients for `pangea-mgr`: the [`ManagerClient`] RPC wrapper and
//! the [`RemoteCatalog`] implementation of the engine's catalog seam.

use pangea_cluster::engine::Catalog;
use pangea_cluster::{CatalogEntry, PartitionScheme, SetStats};
use pangea_common::{Epoch, NodeId, PangeaError, ReplicaGroupId, Result};
use pangea_net::{ClientPool, PangeaClient, Request, Response, SchemeSpec, WireSpan, WireWorker};
use std::net::ToSocketAddrs;
use std::sync::Arc;

/// A connected manager client: one connection, typed manager RPCs.
#[derive(Debug)]
pub struct ManagerClient {
    client: PangeaClient,
}

impl ManagerClient {
    /// Connects to a `pangea-mgr` at `addr`, performing the handshake
    /// when a secret is given.
    pub fn connect(addr: impl ToSocketAddrs, secret: Option<&str>) -> Result<Self> {
        Ok(Self {
            client: PangeaClient::connect_with_secret(addr, secret)?,
        })
    }

    fn unexpected(resp: Response) -> PangeaError {
        PangeaError::Remote(format!("unexpected manager response: {resp:?}"))
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<()> {
        self.client.ping()
    }

    /// Registers a worker advertising `addr`, optionally pinning a slot.
    pub fn register_worker(&mut self, addr: &str, slot: Option<NodeId>) -> Result<(NodeId, Epoch)> {
        let req = Request::MgrRegisterWorker {
            addr: addr.to_string(),
            slot: slot.map(|n| n.raw() as u64),
        };
        match self.client.call(&req)? {
            Response::WorkerRegistered { node, epoch } => Ok((NodeId(node), Epoch(epoch))),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Sends one heartbeat for `(node, epoch)`.
    pub fn heartbeat(&mut self, node: NodeId, epoch: Epoch) -> Result<()> {
        let req = Request::MgrHeartbeat {
            node: node.raw(),
            epoch: epoch.raw(),
        };
        match self.client.call(&req)? {
            Response::Ok => Ok(()),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Deregisters `(node, epoch)` on clean shutdown.
    pub fn deregister_worker(&mut self, node: NodeId, epoch: Epoch) -> Result<()> {
        let req = Request::MgrDeregisterWorker {
            node: node.raw(),
            epoch: epoch.raw(),
        };
        match self.client.call(&req)? {
            Response::Ok => Ok(()),
            other => Err(Self::unexpected(other)),
        }
    }

    /// The manager's membership snapshot (liveness swept server-side).
    pub fn list_workers(&mut self) -> Result<Vec<WireWorker>> {
        match self.client.call(&Request::MgrListWorkers)? {
            Response::Workers { workers } => Ok(workers),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Registers a distributed set in the wire-served catalog.
    pub fn register_set(&mut self, name: &str, scheme: &SchemeSpec) -> Result<()> {
        let req = Request::MgrRegisterSet {
            name: name.to_string(),
            scheme: scheme.clone(),
        };
        match self.client.call(&req)? {
            Response::Ok => Ok(()),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Removes a set from the catalog.
    pub fn deregister_set(&mut self, name: &str) -> Result<()> {
        let req = Request::MgrDeregisterSet {
            name: name.to_string(),
        };
        match self.client.call(&req)? {
            Response::Ok => Ok(()),
            other => Err(Self::unexpected(other)),
        }
    }

    /// One catalog entry, if registered.
    pub fn entry(&mut self, name: &str) -> Result<Option<pangea_net::WireCatalogEntry>> {
        let req = Request::MgrEntry {
            name: name.to_string(),
        };
        match self.client.call(&req)? {
            Response::CatalogEntry { entry } => Ok(entry),
            other => Err(Self::unexpected(other)),
        }
    }

    /// All registered set names, sorted.
    pub fn set_names(&mut self) -> Result<Vec<String>> {
        match self.client.call(&Request::MgrSetNames)? {
            Response::Names { names } => Ok(names),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Adds dispatch counts to a set's statistics.
    pub fn add_stats(&mut self, name: &str, objects: u64, bytes: u64) -> Result<()> {
        let req = Request::MgrAddStats {
            name: name.to_string(),
            objects,
            bytes,
        };
        match self.client.call(&req)? {
            Response::Ok => Ok(()),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Puts `a` and `b` in the same replica group.
    pub fn link_replicas(&mut self, a: &str, b: &str) -> Result<ReplicaGroupId> {
        let req = Request::MgrLinkReplicas {
            a: a.to_string(),
            b: b.to_string(),
        };
        match self.client.call(&req)? {
            Response::Group { group } => Ok(ReplicaGroupId(group)),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Members of a replica group.
    pub fn group_members(&mut self, group: ReplicaGroupId) -> Result<Vec<String>> {
        let req = Request::MgrGroupMembers { group: group.raw() };
        match self.client.call(&req)? {
            Response::Names { names } => Ok(names),
            other => Err(Self::unexpected(other)),
        }
    }

    /// All replica groups, ascending.
    pub fn groups(&mut self) -> Result<Vec<ReplicaGroupId>> {
        match self.client.call(&Request::MgrGroups)? {
            Response::Groups { groups } => Ok(groups.into_iter().map(ReplicaGroupId).collect()),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Contributes locally recorded spans to the manager's fleet span
    /// store under the display name `node`. Drivers push their
    /// `DriverRpc` root spans this way — the scrape loop only reaches
    /// registered workers, and every cross-node trace roots in a
    /// driver's ring.
    pub fn trace_push(&mut self, node: &str, spans: Vec<WireSpan>) -> Result<()> {
        let req = Request::TracePush {
            node: node.to_string(),
            spans,
        };
        match self.client.call(&req)? {
            Response::Ok => Ok(()),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Pulls one job's fleet-wide spans from the manager's retained
    /// store, following the index cursor until the manager reports no
    /// more (with the same no-progress corruption guard the other
    /// paginated pulls use). Returns the `(node, span)` pairs plus the
    /// fleet's dropped-span count at query time — nonzero means the
    /// stitched tree may be missing history.
    pub fn trace_query(&mut self, job: u64) -> Result<(Vec<(String, WireSpan)>, u64)> {
        let mut all = Vec::new();
        let mut start = 0u64;
        loop {
            let req = Request::TraceQuery { job, start };
            match self.client.call(&req)? {
                Response::Trace {
                    spans,
                    dropped,
                    next,
                } => {
                    let advanced = !spans.is_empty();
                    all.extend(spans);
                    match next {
                        Some(n) => {
                            if !advanced && n <= start {
                                return Err(PangeaError::Corruption(format!(
                                    "trace-query cursor did not advance past {start}"
                                )));
                            }
                            start = n;
                        }
                        None => return Ok((all, dropped)),
                    }
                }
                other => return Err(Self::unexpected(other)),
            }
        }
    }

    /// The statistics service's best-replica answer.
    pub fn best_replica(&mut self, set: &str, key: &str) -> Result<Option<String>> {
        let req = Request::MgrBestReplica {
            set: set.to_string(),
            key: key.to_string(),
        };
        match self.client.call(&req)? {
            Response::MaybeName { name } => Ok(name),
            other => Err(Self::unexpected(other)),
        }
    }
}

/// A typed view of a pooled connection, for [`ClientPool::call`].
impl From<PangeaClient> for ManagerClient {
    fn from(client: PangeaClient) -> Self {
        Self { client }
    }
}

impl From<ManagerClient> for PangeaClient {
    fn from(manager: ManagerClient) -> Self {
        manager.client
    }
}

/// A reconnecting handle to one `pangea-mgr`: its idle connection
/// lives in a [`ClientPool`], checked out for the duration of each call
/// so no lock is held across socket I/O (a wedged manager socket blocks
/// its own caller, not every other thread's manager traffic).
#[derive(Debug)]
pub struct MgrConn {
    addr: String,
    pool: ClientPool,
}

impl MgrConn {
    /// Connects once (validating address + handshake) and keeps the
    /// connection as the idle one.
    pub fn connect(addr: &str, secret: Option<&str>) -> Result<Self> {
        let pool = ClientPool::new(Arc::default(), secret, None);
        let client = pool.checkout(addr)?;
        pool.checkin(addr, client);
        Ok(Self {
            addr: addr.to_string(),
            pool,
        })
    }

    /// Runs the one-shot `f` with a checked-out manager client under the
    /// pool's rule: retried once on a fresh connection when it fails
    /// with an I/O error on the pooled one. The connection returns to
    /// the pool only on success.
    pub fn with<T>(&self, f: impl FnMut(&mut ManagerClient) -> Result<T>) -> Result<T> {
        self.pool.call(&self.addr, f)
    }
}

/// The wire-served implementation of the engine's [`Catalog`] seam:
/// every lookup and registration is an RPC against `pangea-mgr`.
/// Schemes must be declarative ([`PartitionScheme::hash_field`] /
/// [`PartitionScheme::hash_whole`] / round-robin) — closure-keyed UDF
/// schemes cannot cross the wire.
#[derive(Debug)]
pub struct RemoteCatalog {
    mgr: MgrConn,
}

impl RemoteCatalog {
    /// Wraps a manager connection.
    pub fn new(mgr: MgrConn) -> Self {
        Self { mgr }
    }

    fn entry_from_wire(e: pangea_net::WireCatalogEntry) -> CatalogEntry {
        CatalogEntry {
            name: e.name,
            scheme: PartitionScheme::from_spec(&e.scheme),
            group: e.group.map(ReplicaGroupId),
            stats: SetStats {
                objects: e.objects,
                bytes: e.bytes,
            },
        }
    }
}

impl Catalog for RemoteCatalog {
    fn register_set(&self, name: &str, scheme: PartitionScheme) -> Result<()> {
        let spec = scheme.to_spec()?;
        self.mgr.with(|m| m.register_set(name, &spec))
    }

    fn deregister_set(&self, name: &str) -> Result<()> {
        self.mgr.with(|m| m.deregister_set(name))
    }

    fn entry(&self, name: &str) -> Result<Option<CatalogEntry>> {
        Ok(self.mgr.with(|m| m.entry(name))?.map(Self::entry_from_wire))
    }

    fn set_names(&self) -> Result<Vec<String>> {
        self.mgr.with(|m| m.set_names())
    }

    fn add_stats(&self, name: &str, objects: u64, bytes: u64) -> Result<()> {
        self.mgr.with(|m| m.add_stats(name, objects, bytes))
    }

    fn link_replicas(&self, a: &str, b: &str) -> Result<ReplicaGroupId> {
        self.mgr.with(|m| m.link_replicas(a, b))
    }

    fn group_members(&self, group: ReplicaGroupId) -> Result<Vec<String>> {
        self.mgr.with(|m| m.group_members(group))
    }

    fn groups(&self) -> Result<Vec<ReplicaGroupId>> {
        self.mgr.with(|m| m.groups())
    }

    fn best_replica(&self, set: &str, key: &str) -> Result<Option<String>> {
        self.mgr.with(|m| m.best_replica(set, key))
    }
}
