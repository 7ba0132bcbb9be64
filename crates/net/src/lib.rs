//! # pangea-net
//!
//! The wire layer of the Pangea reproduction: everything between the
//! distributed logic in `pangea-cluster`/`pangea-coord` and actual bytes
//! on a socket.
//!
//! * [`frame`] — length-prefixed binary framing over a byte stream (the
//!   page codec's layout lifted onto sockets), with oversized-frame
//!   rejection on both sides and a correlation id per frame.
//! * [`proto`] — the request/response protocol: set creation, append,
//!   page enumeration/fetch, scan, shipped map tasks and their ingest
//!   sessions, worker-to-worker repair, the control plane, and stats and
//!   trace probes.
//! * [`wire`] — wire forms of control-plane state: declarative key
//!   specs, partitioning schemes, map specs and task specs (the
//!   distributed map-shuffle ships these *to* the data), catalog
//!   entries, and membership records served by the `pangea-coord`
//!   manager daemon.
//! * [`FramedServer`] — a reusable accept loop (handshake enforcement,
//!   graceful drain) shared by `pangead` and `pangea-mgr`.
//! * [`Pangead`] / [`PangeadServer`] — the node daemon: a [`StorageNode`]
//!   served behind the protocol (the `pangead` binary lives in
//!   `pangea-coord`, next to `pangea-mgr`).
//! * [`PangeaClient`] — a thin typed client over one connection.
//!
//! Byte accounting matches the in-process `SimNetwork` of
//! `pangea-cluster`: *payload* bytes go to `IoStats::record_net`, and
//! framing and protocol headers are charged as serialization, so a
//! workload measured over TCP reports the same net-byte volume as the
//! same workload on the simulation.
//!
//! [`StorageNode`]: pangea_core::StorageNode

pub mod client;
pub mod frame;
pub mod proto;
pub mod server;
pub mod wire;

pub use client::{PangeaClient, RemoteStats};
pub use frame::{FRAME_OVERHEAD, MAX_FRAME};
pub use pangea_obs::TraceCtx;
pub use proto::{error_response, Request, Response};
pub use server::{
    metrics_dump_response, FramedServer, FramedService, Pangead, PangeadServer, ServerConfig,
    DEFAULT_DRAIN, DEFAULT_IO_THREADS, DEFAULT_MAX_CONNS, DEFAULT_PIPELINE_WINDOW,
    MAX_PIPELINE_WINDOW, METRICS_CHUNK, SPANS_CHUNK,
};
pub use wire::{
    ingest_tag, CmpOp, EmitSpec, FilterSpec, KeySpec, MapSpec, ReduceOp, ReduceSpec, RepairFilter,
    RepairPushReport, SchemeSpec, TaskReport, TaskSpec, WireCatalogEntry, WireMetric, WireSpan,
    WireWorker, WorkerState,
};
