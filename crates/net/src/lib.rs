//! # pangea-net
//!
//! The wire layer of the Pangea reproduction: everything between the
//! distributed logic in `pangea-cluster`/`pangea-coord` and actual bytes
//! on a socket.
//!
//! * [`frame`] — length-prefixed binary framing over a byte stream (the
//!   page codec's layout lifted onto sockets): one 12-byte header of
//!   length and correlation id per frame, with oversized-frame rejection
//!   on both sides.
//! * [`proto`] — the request/response protocol, declared once in a
//!   message table that generates its codec, opcodes and names: set
//!   creation, append, cursor-paged scan, shipped map tasks
//!   and their ingest sessions, worker-to-worker repair, the control
//!   plane, and stats and trace probes. A request's header carries its
//!   trace context.
//! * [`wire`] — the crate's one field codec (`Wire`: integers,
//!   strings, lists, options, pairs, trace contexts, and every wire
//!   type), its two declaration macros (`wire_table!`, the one table
//!   every tagged type — messages and wire enums alike — is declared
//!   in, and `wire_struct!`), and the wire forms of control-plane state:
//!   declarative key specs, partitioning schemes, repair filters,
//!   catalog entries, and membership records served by the
//!   `pangea-coord` manager daemon.
//! * `algebra` (crate-private; its types are re-exported here) — the
//!   task algebra: filter, emit, map and reduce specs, and the job, task
//!   spec and task report the distributed map-shuffle ships *to* the
//!   data.
//! * [`framed`] — [`FramedServer`], the server core shared by `pangead`
//!   and `pangea-mgr`: one thread per connection runs that connection's
//!   requests in order, behind a connection cap, an optional handshake
//!   and a graceful drain; and [`serve_instrumented`], the per-opcode
//!   metrics and span recording both daemons wrap around their dispatch.
//! * [`Pangead`] / [`PangeadServer`] — the node daemon: a [`StorageNode`]
//!   served behind the protocol (the `pangead` binary lives in
//!   `pangea-coord`, next to `pangea-mgr`).
//! * `session` (crate-private) — the daemon's one begin/append/end
//!   machine, shared by shuffle ingest and peer repair; `load`
//!   (crate-private) — the set-owned writers a loader's `Append`s fill;
//!   `task` (crate-private) — the mapper a shipped `TaskRun` runs.
//! * [`pipeline`] — [`PushStream`], the one sender every push runs on
//!   (mapper ingest, repair streaming and a driver's load): a pooled
//!   connection with a credit-paced window of batches in flight, its
//!   summed acks, and its check-in or discard; and [`PushBatch`], the
//!   one batch rule they fill their batches by ([`PUSH_BATCH_BYTES`]
//!   encoded bytes).
//! * [`PangeaClient`] — a thin typed client over one connection, and
//!   [`for_each_chunk`], the one loop behind every cursor-paged read
//!   (`Scan`, `HashList`, `RepairLedger`).
//! * [`pool`] — [`ClientPool`], the one cache of idle connections (a
//!   daemon's peers, the driver's workers, the manager's scrape targets)
//!   and its one rule for a connection that went stale while idle.
//!
//! Byte accounting matches the in-process `SimNetwork` of
//! `pangea-cluster`: *payload* bytes go to `IoStats::record_net`, and
//! framing and protocol headers are charged as serialization, so a
//! workload measured over TCP reports the same net-byte volume as the
//! same workload on the simulation.
//!
//! [`StorageNode`]: pangea_core::StorageNode

mod algebra;
pub mod client;
pub mod frame;
pub mod framed;
mod load;
pub mod pipeline;
pub mod pool;
pub mod proto;
pub mod server;
mod session;
mod task;
pub mod wire;

pub use algebra::{
    CmpOp, EmitSpec, FilterSpec, Job, MapSpec, ReduceOp, ReduceSpec, TaskReport, TaskSpec,
};
pub use client::{for_each_chunk, PangeaClient, RemoteStats};
pub use frame::{FRAME_OVERHEAD, MAX_FRAME};
pub use framed::{
    metrics_dump_response, serve_instrumented, FramedServer, FramedService, ServerConfig,
    DEFAULT_DRAIN, DEFAULT_MAX_CONNS, METRICS_CHUNK, SPANS_CHUNK,
};
pub use pangea_obs::TraceCtx;
pub use pipeline::{BatchEntry, PushBatch, PushStream, PIPELINE_WINDOW, PUSH_BATCH_BYTES};
pub use pool::ClientPool;
pub use proto::{error_response, Request, Response};
pub use server::{Pangead, PangeadServer};
pub use wire::{
    ingest_tag, KeySpec, RepairFilter, RepairPushReport, SchemeSpec, WireCatalogEntry, WireMetric,
    WireSpan, WireWorker, WorkerState,
};
