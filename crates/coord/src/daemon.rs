//! `pangea-mgr` — the Pangea manager daemon (paper §3.3).
//!
//! Serves the manager's catalog + statistics database and the cluster
//! membership table over the same framed protocol `pangead` speaks. The
//! daemon is deliberately light-weight, exactly as the paper stresses:
//! it stores per-*set* metadata and per-*worker* liveness, never
//! per-page locations (those live in each worker's meta files, §4).
//!
//! Like [`Pangead`], the request dispatch is pure request → response —
//! [`ManagerDaemon::handle`] — and the serving loop is the shared
//! [`FramedServer`] (handshake enforcement, graceful drain included).
//!
//! [`Pangead`]: pangea_net::Pangead

use crate::membership::Membership;
use crate::signals::tick;
use pangea_cluster::{CatalogEntry, Manager, PartitionScheme};
use pangea_common::{Epoch, IoStats, NodeId, PangeaError, ReplicaGroupId, Result};
use pangea_net::{
    metrics_dump_response, serve_instrumented, FramedServer, FramedService, RemoteStats, Request,
    Response, ServerConfig, TraceCtx, WireCatalogEntry, WireSpan,
};
use pangea_obs::{names, Obs, ScrapeStore};
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The default liveness timeout: a worker missing heartbeats for this
/// long is declared dead.
pub const DEFAULT_LIVENESS_TIMEOUT: Duration = Duration::from_secs(3);

/// The default fleet-scrape interval (see [`MgrServer::bind_full`]).
pub const DEFAULT_SCRAPE_INTERVAL: Duration = Duration::from_secs(1);

/// Maximum spans in one [`Response::Trace`] chunk.
pub const TRACE_CHUNK: usize = 1024;

/// The protocol brain of the manager daemon: catalog + membership
/// behind the wire protocol.
#[derive(Debug)]
pub struct ManagerDaemon {
    catalog: Manager,
    membership: Membership,
    stats: Arc<IoStats>,
    /// The manager's observability bundle, sharing the registry behind
    /// [`ManagerDaemon::stats`] so one `MetricsDump` covers both.
    obs: Obs,
    /// The retained fleet telemetry the scrape loop folds into and the
    /// `TraceQuery` RPC serves out of.
    scrape: Arc<ScrapeStore>,
}

impl ManagerDaemon {
    /// A fresh manager with the given liveness timeout.
    pub fn new(liveness_timeout: Duration) -> Self {
        let stats = Arc::new(IoStats::new());
        let obs = Obs::with_registry(stats.registry().clone());
        Self {
            catalog: Manager::new(),
            membership: Membership::new(liveness_timeout),
            stats,
            obs,
            scrape: Arc::new(ScrapeStore::new()),
        }
    }

    /// The wrapped catalog / statistics database.
    pub fn catalog(&self) -> &Manager {
        &self.catalog
    }

    /// The membership table.
    pub fn membership(&self) -> &Membership {
        &self.membership
    }

    /// Wire counters (requests handled).
    pub fn stats(&self) -> &Arc<IoStats> {
        &self.stats
    }

    /// The manager's observability bundle (metrics + span ring).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The retained fleet-telemetry store the scrape loop maintains.
    pub fn scrape_store(&self) -> &Arc<ScrapeStore> {
        &self.scrape
    }

    /// Handles one untraced request, turning errors into
    /// [`Response::Err`].
    pub fn handle(&self, req: Request) -> Response {
        FramedService::handle(self, req, None, 0)
    }

    fn entry_to_wire(entry: CatalogEntry) -> Result<WireCatalogEntry> {
        Ok(WireCatalogEntry {
            name: entry.name,
            scheme: entry.scheme.to_spec()?,
            group: entry.group.map(ReplicaGroupId::raw),
            objects: entry.stats.objects,
            bytes: entry.stats.bytes,
        })
    }

    fn dispatch(&self, req: Request) -> Result<Response> {
        match req {
            Request::Ping => Ok(Response::Ok),
            // The server layer handles handshakes; reaching here means no
            // secret is required on this daemon.
            Request::Hello { .. } => Ok(Response::Ok),
            Request::MetricsDump {
                metrics_start,
                spans_start,
            } => {
                // Freshen the staleness gauge at dump time: the oldest
                // un-heartbeated interval across alive workers, in ms.
                let staleness = self
                    .membership
                    .max_staleness()
                    .map(|d| d.as_millis() as u64)
                    .unwrap_or(0);
                self.obs
                    .registry()
                    .gauge(names::MGR_HEARTBEAT_STALENESS_MS)
                    .set(staleness);
                Ok(metrics_dump_response(&self.obs, metrics_start, spans_start))
            }

            // ---- fleet trace store -------------------------------------
            Request::TraceQuery { job, start } => {
                let all = self.scrape.job_spans(job);
                let total = all.len() as u64;
                let spans: Vec<(String, WireSpan)> = all
                    .into_iter()
                    .skip(start as usize)
                    .take(TRACE_CHUNK)
                    .map(|ns| (ns.node, crate::scrape::wire_of(ns.seq, ns.record)))
                    .collect();
                let next_at = start.saturating_add(spans.len() as u64);
                Ok(Response::Trace {
                    spans,
                    dropped: self.scrape.dropped_total(),
                    next: (next_at < total).then_some(next_at),
                })
            }
            Request::TracePush { node, spans } => {
                self.scrape.record_spans(
                    &node,
                    spans.into_iter().map(crate::scrape::record_of).collect(),
                );
                Ok(Response::Ok)
            }
            Request::Stats => {
                let net = self.stats.snapshot();
                // The manager holds no storage node, so every paging
                // field is zero by construction.
                Ok(Response::Stats {
                    stats: RemoteStats {
                        net_bytes: net.net_bytes,
                        net_messages: net.net_messages,
                        ..RemoteStats::default()
                    },
                })
            }

            // ---- membership --------------------------------------------
            Request::MgrRegisterWorker { addr, slot } => {
                // The wire field is u64 (u64::MAX reserved for "next
                // free"); slots are u32 node ids — reject, don't truncate.
                let slot = slot
                    .map(|s| {
                        u32::try_from(s).map(NodeId).map_err(|_| {
                            PangeaError::usage(format!("slot {s} exceeds the u32 node-id space"))
                        })
                    })
                    .transpose()?;
                let (node, epoch) = self.membership.register(&addr, slot)?;
                Ok(Response::WorkerRegistered {
                    node: node.raw(),
                    epoch: epoch.raw(),
                })
            }
            Request::MgrHeartbeat { node, epoch } => {
                self.membership.sweep();
                self.membership.heartbeat(NodeId(node), Epoch(epoch))?;
                Ok(Response::Ok)
            }
            Request::MgrDeregisterWorker { node, epoch } => {
                self.membership.deregister(NodeId(node), Epoch(epoch))?;
                Ok(Response::Ok)
            }
            Request::MgrListWorkers => {
                self.membership.sweep();
                Ok(Response::Workers {
                    workers: self.membership.workers(),
                })
            }

            // ---- catalog + statistics DB -------------------------------
            Request::MgrRegisterSet { name, scheme } => {
                self.catalog
                    .register_set(&name, PartitionScheme::from_spec(&scheme))?;
                Ok(Response::Ok)
            }
            Request::MgrDeregisterSet { name } => {
                self.catalog.deregister_set(&name);
                Ok(Response::Ok)
            }
            Request::MgrEntry { name } => Ok(Response::CatalogEntry {
                entry: self
                    .catalog
                    .entry(&name)
                    .map(Self::entry_to_wire)
                    .transpose()?,
            }),
            Request::MgrSetNames => Ok(Response::Names {
                names: self.catalog.set_names(),
            }),
            Request::MgrAddStats {
                name,
                objects,
                bytes,
            } => {
                self.catalog.add_stats(&name, objects, bytes)?;
                Ok(Response::Ok)
            }
            Request::MgrLinkReplicas { a, b } => Ok(Response::Group {
                group: self.catalog.link_replicas(&a, &b)?.raw(),
            }),
            Request::MgrGroupMembers { group } => Ok(Response::Names {
                names: self.catalog.group_members(ReplicaGroupId(group)),
            }),
            Request::MgrGroups => Ok(Response::Groups {
                groups: self
                    .catalog
                    .groups()
                    .into_iter()
                    .map(ReplicaGroupId::raw)
                    .collect(),
            }),
            Request::MgrBestReplica { set, key } => Ok(Response::MaybeName {
                name: self.catalog.best_replica(&set, &key),
            }),

            // ---- everything else belongs to storage nodes --------------
            other => Err(PangeaError::usage(format!(
                "storage request {other:?} sent to the manager daemon; \
                 connect to a pangead instead"
            ))),
        }
    }
}

impl FramedService for ManagerDaemon {
    fn handle(&self, req: Request, ctx: Option<TraceCtx>, req_bytes: usize) -> Response {
        self.stats.record_net(0);
        // The manager fans nothing out, so the child span goes unused.
        serve_instrumented(&self.obs, req, ctx, req_bytes, |req, _child| {
            self.dispatch(req)
        })
    }
}

/// A running `pangea-mgr` server: one [`ManagerDaemon`] behind a
/// [`FramedServer`], plus a background liveness ticker.
#[derive(Debug)]
pub struct MgrServer {
    daemon: Arc<ManagerDaemon>,
    server: FramedServer,
    /// Stops the liveness ticker and the scrape loop at shutdown.
    tick_stop: Arc<AtomicBool>,
    ticker: Option<JoinHandle<()>>,
    scraper: Option<JoinHandle<()>>,
}

impl MgrServer {
    /// Binds `addr` with the default liveness timeout and no secret.
    pub fn bind(addr: impl ToSocketAddrs) -> Result<Self> {
        Self::bind_with(addr, DEFAULT_LIVENESS_TIMEOUT, None)
    }

    /// Binds `addr` with an explicit liveness timeout and optional
    /// shared handshake secret.
    ///
    /// Liveness is swept by a background ticker (a fraction of the
    /// liveness timeout), not only lazily on membership RPCs: a worker
    /// that dies mid-shuffle is declared Dead on schedule even when the
    /// control plane is otherwise idle. Epoch guards are untouched — the
    /// sweep only flips silent Alive slots to Dead.
    pub fn bind_with(
        addr: impl ToSocketAddrs,
        liveness_timeout: Duration,
        secret: Option<String>,
    ) -> Result<Self> {
        Self::bind_full(addr, liveness_timeout, secret, None)
    }

    /// [`MgrServer::bind_with`] plus the fleet scrape loop: with a
    /// `scrape_interval`, a background thread periodically pulls
    /// `MetricsDump` from every alive worker (incrementally — each
    /// worker's span cursor persists across scrapes, so an idle fleet
    /// ships zero spans) and folds the results into the daemon's
    /// [`ScrapeStore`], which backs the `TraceQuery` RPC and the
    /// `fleet.<node>.*` rate gauges `top --watch` reads. The scraper
    /// dials workers with the same deployment `secret` the inbound
    /// handshake enforces.
    pub fn bind_full(
        addr: impl ToSocketAddrs,
        liveness_timeout: Duration,
        secret: Option<String>,
        scrape_interval: Option<Duration>,
    ) -> Result<Self> {
        let daemon = Arc::new(ManagerDaemon::new(liveness_timeout));
        // Publish the wire core's health (`net.conns_open`,
        // `net.busy_rejects`) into the manager's own registry so one
        // `MetricsDump` covers catalog, membership, and server core.
        let server = FramedServer::bind_with_config(
            Arc::clone(&daemon) as Arc<dyn FramedService>,
            addr,
            secret.clone(),
            ServerConfig {
                registry: Some(daemon.obs().registry().clone()),
                ..ServerConfig::default()
            },
        )?;
        let tick_stop = Arc::new(AtomicBool::new(false));
        let ticker = {
            let daemon = Arc::clone(&daemon);
            let stop = Arc::clone(&tick_stop);
            // Tick well inside the timeout so detection latency is
            // bounded by ~1.25× the timeout, never by the next RPC.
            let interval = (liveness_timeout / 4).max(Duration::from_millis(10));
            std::thread::Builder::new()
                .name("pangea-mgr-liveness".into())
                .spawn(move || {
                    while tick(&stop, interval) {
                        daemon.membership().sweep();
                    }
                })?
        };
        let scraper = match scrape_interval {
            Some(interval) => Some(crate::scrape::spawn(
                Arc::clone(&daemon),
                secret,
                interval,
                Arc::clone(&tick_stop),
            )?),
            None => None,
        };
        Ok(Self {
            daemon,
            server,
            tick_stop,
            ticker: Some(ticker),
            scraper,
        })
    }

    /// The bound address (with the resolved ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// The protocol daemon (for inspecting catalog or membership).
    pub fn daemon(&self) -> &Arc<ManagerDaemon> {
        &self.daemon
    }

    /// Gracefully stops the server (drain + join) and the liveness
    /// ticker. Idempotent.
    pub fn shutdown(&mut self) {
        self.tick_stop.store(true, Ordering::SeqCst);
        if let Some(ticker) = self.ticker.take() {
            let _ = ticker.join();
        }
        if let Some(scraper) = self.scraper.take() {
            let _ = scraper.join();
        }
        self.server.shutdown(pangea_net::DEFAULT_DRAIN);
    }
}

impl Drop for MgrServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pangea_net::{SchemeSpec, WorkerState};

    fn daemon() -> ManagerDaemon {
        ManagerDaemon::new(Duration::from_millis(50))
    }

    #[test]
    fn membership_lifecycle_over_the_protocol() {
        let d = daemon();
        let (node, epoch) = match d.handle(Request::MgrRegisterWorker {
            addr: "127.0.0.1:7781".into(),
            slot: None,
        }) {
            Response::WorkerRegistered { node, epoch } => (node, epoch),
            other => panic!("{other:?}"),
        };
        assert_eq!(node, 0);
        assert_eq!(
            d.handle(Request::MgrHeartbeat { node, epoch }),
            Response::Ok
        );
        // Stale epoch is rejected with the typed wire response naming
        // both epochs, so zombies can tell "replaced" from other errors.
        match d.handle(Request::MgrHeartbeat {
            node,
            epoch: epoch + 1,
        }) {
            Response::Stale { held, current, .. } => {
                assert_eq!((held, current), (epoch + 1, epoch));
            }
            other => panic!("{other:?}"),
        }
        // Miss heartbeats long enough and the list shows Dead.
        std::thread::sleep(Duration::from_millis(120));
        match d.handle(Request::MgrListWorkers) {
            Response::Workers { workers } => {
                assert_eq!(workers.len(), 1);
                assert_eq!(workers[0].state, WorkerState::Dead);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn catalog_round_trips_schemes_and_stats() {
        let d = daemon();
        let scheme = SchemeSpec::Hash {
            key_name: "k".into(),
            partitions: 6,
            key: pangea_net::KeySpec::Field {
                delim: b'|',
                index: 0,
            },
        };
        assert_eq!(
            d.handle(Request::MgrRegisterSet {
                name: "orders".into(),
                scheme: scheme.clone(),
            }),
            Response::Ok
        );
        assert_eq!(
            d.handle(Request::MgrAddStats {
                name: "orders".into(),
                objects: 10,
                bytes: 500,
            }),
            Response::Ok
        );
        match d.handle(Request::MgrEntry {
            name: "orders".into(),
        }) {
            Response::CatalogEntry { entry: Some(e) } => {
                assert_eq!(e.scheme, scheme);
                assert_eq!((e.objects, e.bytes), (10, 500));
                assert_eq!(e.group, None);
            }
            other => panic!("{other:?}"),
        }
        match d.handle(Request::MgrEntry {
            name: "missing".into(),
        }) {
            Response::CatalogEntry { entry: None } => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn liveness_ticker_sweeps_without_any_membership_rpc() {
        let mut mgr = MgrServer::bind_with("127.0.0.1:0", Duration::from_millis(60), None).unwrap();
        let (node, _epoch) = match mgr.daemon().handle(Request::MgrRegisterWorker {
            addr: "127.0.0.1:7781".into(),
            slot: None,
        }) {
            Response::WorkerRegistered { node, epoch } => (node, epoch),
            other => panic!("{other:?}"),
        };
        // No heartbeats, and — crucially — no membership RPC to trigger
        // a lazy sweep: read the table directly. The background ticker
        // alone must declare the silent worker dead.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let workers = mgr.daemon().membership().workers();
            if workers[node as usize].state == WorkerState::Dead {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "ticker never swept the silent worker dead: {workers:?}"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        mgr.shutdown();
        mgr.shutdown(); // idempotent
    }

    #[test]
    fn storage_requests_are_rejected_by_the_manager() {
        let d = daemon();
        let scan = |set: String| Request::Scan {
            set,
            start_page: 0,
            start_record: 0,
        };
        match d.handle(scan("s".into())) {
            Response::Err { message } => assert!(message.contains("pangead")),
            other => panic!("{other:?}"),
        }
        // Traced, the rejection lands in the ring as a span whose
        // outcome is bounded like a worker's, not the whole message.
        let ctx = TraceCtx { job: 1, span: 2 };
        let resp = FramedService::handle(&d, scan("s".repeat(200)), Some(ctx), 0);
        assert!(matches!(resp, Response::Err { .. }));
        let spans = d.obs().ring().since(0);
        let (_, span) = spans.last().expect("the traced request left a span");
        assert_eq!((span.job, span.parent, span.op.as_str()), (1, 2, "Scan"));
        assert_eq!(span.outcome.chars().count(), 96, "{}", span.outcome);
    }
}
