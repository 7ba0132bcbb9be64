//! # pangea-coord
//!
//! The cluster control plane of the Pangea reproduction (paper §3.3):
//! everything that turns a pile of `pangead` storage daemons into a
//! managed deployment.
//!
//! * [`ManagerDaemon`] / [`MgrServer`] — `pangea-mgr`, the light-weight
//!   manager daemon: serves the locality-set catalog + statistics
//!   database and tracks cluster membership (registration, heartbeats,
//!   liveness sweeping, epochs) over the same framed protocol `pangead`
//!   speaks. Also available as the `pangea-mgr` binary.
//! * [`Membership`] — the registration/heartbeat/epoch table behind the
//!   daemon; dead-worker detection feeds the recovery path (§7/§8).
//! * [`ManagerClient`] / [`RemoteCatalog`] — typed manager RPCs, and the
//!   wire-served implementation of the engine's catalog seam.
//! * [`RemoteCluster`] / [`RemoteWorkers`] — the client frontend driving
//!   N real `pangead` processes through `pangea-cluster`'s generic
//!   engine: create distributed sets via the wire catalog, dispatch with
//!   per-destination batching, run distributed map-shuffles (the driver
//!   ships declarative tasks; workers stream the mapped output straight
//!   to each other), and recover dead workers — with no shared memory
//!   anywhere.
//! * [`WorkerAgent`] — the worker-side agent: registers the local
//!   `pangead`, heartbeats in the background, deregisters on clean exit.
//!
//! The `pangead` binary also lives here (it grew `--manager` /
//! `--advertise` / `--slot` / `--secret` flags), so both daemons ship
//! from one crate.

pub mod cli;
pub mod client;
pub mod daemon;
pub mod membership;
pub mod remote;
pub mod scrape;
pub mod signals;
pub mod top;
pub mod trace;

pub use client::{ManagerClient, MgrConn, RemoteCatalog};
pub use daemon::{
    ManagerDaemon, MgrServer, DEFAULT_LIVENESS_TIMEOUT, DEFAULT_SCRAPE_INTERVAL, TRACE_CHUNK,
};
pub use membership::Membership;
pub use remote::{RemoteCluster, RemoteWorkers, WorkerAgent, DEFAULT_HEARTBEAT};
pub use signals::wait_for_termination;
