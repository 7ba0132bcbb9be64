//! Framed TCP serving, and `pangead` — the Pangea node daemon.
//!
//! Two layers:
//!
//! * [`FramedServer`] — a reusable io-pool server core for any
//!   [`FramedService`]: one reader thread per accepted connection demuxes
//!   correlated frames into a per-connection FIFO queue, a bounded worker
//!   pool ([`ServerConfig::io_threads`]) executes handlers, and responses
//!   are re-serialized per connection under a write lock — so one
//!   connection can carry many in-flight requests while execution stays
//!   strictly in submission order per connection (which is what the
//!   begin/append/end session protocols require). Connections beyond
//!   [`ServerConfig::max_conns`] are refused with a typed
//!   [`Response::Busy`] instead of an unbounded thread spawn; an optional
//!   shared-secret handshake rejects unauthenticated peers with a typed
//!   [`Response::Denied`]; graceful shutdown stops accepting, drains
//!   in-flight requests, closes the remaining connections, and joins
//!   every thread. `pangead` and `pangea-mgr` (the `pangea-coord`
//!   manager daemon) both serve through it.
//! * [`Pangead`] — the protocol brain of a node daemon: wraps one
//!   [`StorageNode`] and dispatches decoded requests against it. The
//!   dispatch is pure request → response and does not know about sockets,
//!   so it is testable (and reusable) without any networking.

use crate::client::PangeaClient;
use crate::frame::{read_frame_corr, write_frame, write_frame_corr};
use crate::proto::{error_response, Request, Response};
use crate::wire::{
    ingest_tag, ReduceSpec, RepairFilter, SchemeSpec, TaskReport, TaskSpec, WireMetric, WireSpan,
};
use pangea_common::{fx_hash64, FxHashMap, IoStats, PangeaError, Result};
use pangea_core::{
    HashConfig, ObjectIter, ReduceBuffer, SeqWriter, SetOptions, SpillLedger, StorageNode,
};
use pangea_obs::{names, Counter, Gauge, MetricValue, Obs, Registry, SpanRecord, TraceCtx};
use parking_lot::Mutex;
use std::collections::hash_map::Entry;
use std::collections::VecDeque;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long [`FramedServer::shutdown`] waits for in-flight requests
/// before closing their connections anyway.
pub const DEFAULT_DRAIN: Duration = Duration::from_secs(5);

/// Worker threads in the io pool when [`ServerConfig`] does not say.
pub const DEFAULT_IO_THREADS: usize = 4;

/// Live-connection cap when [`ServerConfig`] does not say.
pub const DEFAULT_MAX_CONNS: usize = 256;

/// Tuning for the [`FramedServer`] io-pool core.
#[derive(Debug, Clone, Default)]
pub struct ServerConfig {
    /// Worker threads executing handlers (`0` = [`DEFAULT_IO_THREADS`]).
    /// Heavyweight requests that themselves fan out over the wire
    /// (task runs, repair pushes) are offloaded to dedicated threads so
    /// they can never occupy the whole pool and deadlock a fleet of
    /// daemons all waiting on each other.
    pub io_threads: usize,
    /// Live-connection cap (`0` = [`DEFAULT_MAX_CONNS`]). Connections
    /// beyond it are refused with a typed [`Response::Busy`].
    pub max_conns: usize,
    /// When set, the server publishes `net.conns_open` (gauge) and
    /// `net.busy_rejects` (counter) here.
    pub registry: Option<Arc<Registry>>,
    /// Outbound push-pipelining window for the daemon's own fan-out
    /// (task ingest, repair streaming): batches in flight per peer
    /// before awaiting the oldest ack. `0` keeps
    /// [`DEFAULT_PIPELINE_WINDOW`]; `1` is strict-serial. Receiver
    /// credit can shrink the effective window below this, never above
    /// [`MAX_PIPELINE_WINDOW`]. Ignored by [`FramedServer`] itself
    /// (which has no outbound pushes); [`PangeadServer`] applies it to
    /// its [`Pangead`].
    pub pipeline_window: u32,
}

/// Anything that can answer one decoded request. Implementations must
/// not block indefinitely: a pool worker (or offload thread) holds its
/// connection's execution slot for the duration of a call.
pub trait FramedService: std::fmt::Debug + Send + Sync + 'static {
    /// Handles one request, mapping internal errors to error responses.
    fn handle(&self, req: Request) -> Response;

    /// Handles one request with its wire-decoded [`TraceCtx`] (when the
    /// frame carried one) and the request payload size in bytes.
    /// Observability-aware services override this to record per-opcode
    /// metrics and span records; the default simply forwards to
    /// [`FramedService::handle`], so plain services need no change.
    fn handle_traced(&self, req: Request, _ctx: Option<TraceCtx>, _req_bytes: usize) -> Response {
        self.handle(req)
    }
}

/// One accepted connection as the io pool sees it: its demuxed request
/// queue, the write half responses are serialized onto, and the claim
/// flag that guarantees at most one executor drains the queue at a time
/// (per-connection FIFO ⇒ per-(connection, session) ordering).
#[derive(Debug)]
struct ConnState {
    id: u64,
    /// Clone of the socket used only to `shutdown(2)` it — unblocking
    /// the reader — at server shutdown or on a fatal write error.
    stream: TcpStream,
    /// The write half. Responses are one `write_frame_corr` under this
    /// lock, so frames from pool workers and offload threads never
    /// interleave.
    writer: Mutex<TcpStream>,
    /// Demuxed `(correlation, payload)` requests, submission order.
    queue: Mutex<VecDeque<(u64, Vec<u8>)>>,
    /// True while an executor owns the queue (it is either on the run
    /// queue or being drained). The claim moves with the work: a worker
    /// that offloads a heavyweight request keeps the connection claimed
    /// until the offload thread releases it.
    claimed: AtomicBool,
    /// Flipped by a successful `Hello`; checked at execution time (the
    /// per-connection FIFO makes a pipelined Hello-then-requests safe).
    authenticated: AtomicBool,
    /// Poisoned: drop queued work and stop executing (auth rejection or
    /// a failed response write).
    close: AtomicBool,
}

/// State shared by the accept loop, readers, and the worker pool.
#[derive(Debug)]
struct ServerShared {
    conns: Mutex<FxHashMap<u64, Arc<ConnState>>>,
    /// Connections with queued work, awaiting a pool worker. A
    /// connection appears at most once (the `claimed` flag gates entry).
    /// `std::sync` rather than the parking_lot shim: the condvar must
    /// pair with its own mutex's guard type.
    run_queue: std::sync::Mutex<VecDeque<Arc<ConnState>>>,
    work_ready: std::sync::Condvar,
    readers: Mutex<Vec<JoinHandle<()>>>,
    offloads: Mutex<Vec<JoinHandle<()>>>,
    next_conn: AtomicU64,
    in_flight: AtomicUsize,
    stop_workers: AtomicBool,
    secret: Option<String>,
    max_conns: usize,
    conns_open: Gauge,
    busy_rejects: Counter,
}

impl ServerShared {
    fn deregister(&self, id: u64) {
        let mut conns = self.conns.lock();
        conns.remove(&id);
        self.conns_open.set(conns.len() as u64);
    }
}

/// Puts `conn` on the run queue if no executor owns it yet. Called by
/// readers after enqueueing work and by executors when they release a
/// non-empty connection.
fn schedule_conn(shared: &ServerShared, conn: &Arc<ConnState>) {
    if conn
        .claimed
        .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
        .is_ok()
    {
        shared
            .run_queue
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push_back(Arc::clone(conn));
        shared.work_ready.notify_one();
    }
}

/// Releases an executor's claim, re-scheduling the connection if work
/// arrived between the last queue pop and the release (the standard
/// lost-wakeup handoff: release first, then re-check).
fn release_conn(shared: &ServerShared, conn: &Arc<ConnState>) {
    conn.claimed.store(false, Ordering::SeqCst);
    if !conn.queue.lock().is_empty() {
        schedule_conn(shared, conn);
    }
}

/// A running framed server: accept loop, per-connection readers, and a
/// bounded worker pool over one [`FramedService`]. Dropping the server
/// shuts it down gracefully.
#[derive(Debug)]
pub struct FramedServer {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    /// Clone of the accept socket, used to unblock the accept loop at
    /// shutdown (switching it to non-blocking) without relying on a
    /// self-connect that may be firewalled on wildcard binds. Dropped
    /// (closing the listening socket) once the accept loop is joined:
    /// while any clone lives, the kernel keeps completing handshakes
    /// into the dead server's backlog, and a client that "connects"
    /// there would block forever awaiting a response no one serves.
    listener: Option<TcpListener>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    shared: Arc<ServerShared>,
}

impl FramedServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and serves
    /// `service` with default [`ServerConfig`]. When `secret` is set,
    /// every connection must open with a matching [`Request::Hello`]
    /// before any other request.
    pub fn bind(
        service: Arc<dyn FramedService>,
        addr: impl ToSocketAddrs,
        secret: Option<String>,
    ) -> Result<Self> {
        Self::bind_with_config(service, addr, secret, ServerConfig::default())
    }

    /// [`FramedServer::bind`] with explicit io-pool tuning.
    pub fn bind_with_config(
        service: Arc<dyn FramedService>,
        addr: impl ToSocketAddrs,
        secret: Option<String>,
        config: ServerConfig,
    ) -> Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let wake_handle = listener.try_clone()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let io_threads = match config.io_threads {
            0 => DEFAULT_IO_THREADS,
            n => n,
        };
        let max_conns = match config.max_conns {
            0 => DEFAULT_MAX_CONNS,
            n => n,
        };
        let (conns_open, busy_rejects) = match &config.registry {
            Some(reg) => (
                reg.gauge(names::NET_CONNS_OPEN),
                reg.counter(names::NET_BUSY_REJECTS),
            ),
            None => (Gauge::new(), Counter::new()),
        };
        let shared = Arc::new(ServerShared {
            conns: Mutex::new(FxHashMap::default()),
            run_queue: std::sync::Mutex::new(VecDeque::new()),
            work_ready: std::sync::Condvar::new(),
            readers: Mutex::new(Vec::new()),
            offloads: Mutex::new(Vec::new()),
            next_conn: AtomicU64::new(0),
            in_flight: AtomicUsize::new(0),
            stop_workers: AtomicBool::new(false),
            secret,
            max_conns,
            conns_open,
            busy_rejects,
        });
        let mut workers = Vec::with_capacity(io_threads);
        for i in 0..io_threads {
            let service = Arc::clone(&service);
            let shared = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("framed-io-{i}"))
                    .spawn(move || worker_loop(service, shared))?,
            );
        }
        let accept = {
            let shutdown = Arc::clone(&shutdown);
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("framed-accept-{local_addr}"))
                .spawn(move || accept_loop(listener, shutdown, shared))?
        };
        Ok(Self {
            local_addr,
            shutdown,
            listener: Some(wake_handle),
            accept: Some(accept),
            workers,
            shared,
        })
    }

    /// The bound address (with the resolved ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Connections currently registered (diagnostics).
    pub fn open_connections(&self) -> usize {
        self.shared.conns.lock().len()
    }

    /// Gracefully stops the server: no new connections are accepted,
    /// in-flight requests (queued or executing) get up to `drain` to
    /// finish (their responses are written), remaining connections are
    /// closed, and every reader, pool worker, and offload thread is
    /// joined. Idempotent.
    pub fn shutdown(&mut self, drain: Duration) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop: flip the shared socket non-blocking so
        // the pending accept returns WouldBlock and the loop sees the
        // flag. The throwaway self-connect is a second wake-up path for
        // platforms where the mode switch does not interrupt an accept
        // already in progress.
        if let Some(listener) = &self.listener {
            let _ = listener.set_nonblocking(true);
        }
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        // Close the listening socket for real: new connection attempts
        // must be refused (a typed, prompt failure at the client), not
        // parked in the backlog of a server that will never answer.
        drop(self.listener.take());
        // Drain: wait for requests already demuxed (queued or being
        // handled). Connections idle between requests are not in flight
        // and close immediately.
        let deadline = Instant::now() + drain;
        while self.shared.in_flight.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Unblock readers waiting for their peer's next request, then
        // join them.
        for (_, conn) in self.shared.conns.lock().drain() {
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
        self.shared.conns_open.set(0);
        for handle in self.shared.readers.lock().drain(..) {
            let _ = handle.join();
        }
        // Stop the pool (workers re-check the flag on a short wait
        // timeout, so a missed notify cannot hang the join).
        self.shared.stop_workers.store(true, Ordering::SeqCst);
        self.shared.work_ready.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        for handle in self.shared.offloads.lock().drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for FramedServer {
    fn drop(&mut self) {
        self.shutdown(DEFAULT_DRAIN);
    }
}

fn accept_loop(listener: TcpListener, shutdown: Arc<AtomicBool>, shared: Arc<ServerShared>) {
    for conn in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let stream = match conn {
            Ok(s) => s,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                // Only reachable once shutdown() flips the socket
                // non-blocking; re-check the flag at the top of the loop.
                std::thread::yield_now();
                continue;
            }
            Err(_) => {
                // Persistent accept errors (e.g. fd exhaustion) must not
                // busy-spin a core; back off briefly before retrying.
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        stream.set_nodelay(true).ok();
        // The connection cap replaces the old unbounded handler spawn:
        // beyond it, refuse with a typed Busy the client can dispatch on
        // (back off, redial) instead of parking in a thread pile-up.
        if shared.conns.lock().len() >= shared.max_conns {
            shared.busy_rejects.inc();
            let mut stream = stream;
            let busy = error_response(&PangeaError::Busy(format!(
                "at the {}-connection cap",
                shared.max_conns
            )));
            let _ = write_frame(&mut stream, &busy.encode());
            let _ = stream.shutdown(Shutdown::Both);
            continue;
        }
        let (writer, shutdown_handle) = match (stream.try_clone(), stream.try_clone()) {
            (Ok(w), Ok(s)) => (w, s),
            _ => continue,
        };
        let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
        let conn = Arc::new(ConnState {
            id: conn_id,
            stream: shutdown_handle,
            writer: Mutex::new(writer),
            queue: Mutex::new(VecDeque::new()),
            claimed: AtomicBool::new(false),
            authenticated: AtomicBool::new(shared.secret.is_none()),
            close: AtomicBool::new(false),
        });
        {
            let mut conns = shared.conns.lock();
            conns.insert(conn_id, Arc::clone(&conn));
            shared.conns_open.set(conns.len() as u64);
        }
        let reader_shared = Arc::clone(&shared);
        let spawned = std::thread::Builder::new()
            .name("framed-read".into())
            .spawn(move || reader_loop(stream, conn, reader_shared));
        match spawned {
            Ok(handle) => {
                let mut readers = shared.readers.lock();
                readers.retain(|h| !h.is_finished());
                readers.push(handle);
            }
            Err(_) => shared.deregister(conn_id),
        }
    }
}

/// Reads frames off one connection until EOF or a fatal stream error,
/// demuxing each into the connection's work queue.
fn reader_loop(mut stream: TcpStream, conn: Arc<ConnState>, shared: Arc<ServerShared>) {
    loop {
        match read_frame_corr(&mut stream) {
            Ok(Some((corr, payload))) => {
                shared.in_flight.fetch_add(1, Ordering::SeqCst);
                conn.queue.lock().push_back((corr, payload));
                schedule_conn(&shared, &conn);
            }
            Ok(None) => break, // peer hung up cleanly
            Err(e) => {
                // Desynchronized stream: report once (uncorrelated — the
                // reader no longer knows which request is which), then
                // give up.
                let mut w = conn.writer.lock();
                let _ = write_frame(&mut *w, &error_response(&e).encode());
                break;
            }
        }
    }
    // Queued requests keep executing; their responses land in the OS
    // buffer of a half-closed socket (or fail, poisoning the conn).
    shared.deregister(conn.id);
}

/// One io-pool worker: pop a runnable connection, drain its queue.
fn worker_loop(service: Arc<dyn FramedService>, shared: Arc<ServerShared>) {
    loop {
        let conn = {
            let mut rq = shared.run_queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if shared.stop_workers.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(c) = rq.pop_front() {
                    break c;
                }
                // The timeout re-checks `stop_workers`, so a notify lost
                // to a race can never hang the shutdown join.
                rq = shared
                    .work_ready
                    .wait_timeout(rq, Duration::from_millis(100))
                    .unwrap_or_else(|e| e.into_inner())
                    .0;
            }
        };
        drain_conn(&service, &shared, conn);
    }
}

/// True for requests that themselves issue nested outbound RPCs (mapper
/// fan-out, repair pushes, peer ledger seeding). These run on dedicated
/// offload threads: if they could occupy every pool worker, a ring of
/// daemons pushing to each other would deadlock — every pool full of
/// senders, no worker left to serve the matching appends.
fn is_heavyweight(req: &Request) -> bool {
    matches!(
        req,
        Request::TaskRun { .. } | Request::RecoverPush { .. } | Request::RecoverBegin { .. }
    )
}

/// Executes one connection's queued requests in FIFO order until the
/// queue is empty (release), a heavyweight request is offloaded (the
/// claim moves with it), or the connection is poisoned.
fn drain_conn(service: &Arc<dyn FramedService>, shared: &Arc<ServerShared>, conn: Arc<ConnState>) {
    loop {
        if conn.close.load(Ordering::SeqCst) {
            let dropped = {
                let mut q = conn.queue.lock();
                let n = q.len();
                q.clear();
                n
            };
            if dropped > 0 {
                shared.in_flight.fetch_sub(dropped, Ordering::SeqCst);
            }
            release_conn(shared, &conn);
            return;
        }
        let Some((corr, payload)) = conn.queue.lock().pop_front() else {
            release_conn(shared, &conn);
            return;
        };
        match Request::decode_traced(&payload) {
            Ok((Request::Hello { secret }, _)) => {
                let response = match &shared.secret {
                    Some(expected) if *expected == secret => {
                        conn.authenticated.store(true, Ordering::SeqCst);
                        Response::Ok
                    }
                    Some(_) => {
                        conn.close.store(true, Ordering::SeqCst);
                        error_response(&PangeaError::Unauthenticated(
                            "handshake secret does not match".into(),
                        ))
                    }
                    // No secret configured: a Hello is a harmless no-op.
                    None => Response::Ok,
                };
                let rejected = conn.close.load(Ordering::SeqCst);
                finish_request(shared, &conn, corr, response);
                if rejected {
                    let _ = conn.stream.shutdown(Shutdown::Both);
                }
            }
            Ok((req, _)) if !conn.authenticated.load(Ordering::SeqCst) => {
                conn.close.store(true, Ordering::SeqCst);
                finish_request(
                    shared,
                    &conn,
                    corr,
                    error_response(&PangeaError::Unauthenticated(format!(
                        "this daemon requires a Hello handshake before {req:?}"
                    ))),
                );
                let _ = conn.stream.shutdown(Shutdown::Both);
            }
            Ok((req, ctx)) if is_heavyweight(&req) => {
                let service2 = Arc::clone(service);
                let shared2 = Arc::clone(shared);
                let conn2 = Arc::clone(&conn);
                let bytes = payload.len();
                let spawned = std::thread::Builder::new()
                    .name("framed-offload".into())
                    .spawn(move || {
                        let response = service2.handle_traced(req, ctx, bytes);
                        finish_request(&shared2, &conn2, corr, response);
                        // Hand the still-claimed connection back to the
                        // pool (later queued requests stayed parked, so
                        // FIFO order held across the offload).
                        release_conn(&shared2, &conn2);
                    });
                match spawned {
                    Ok(handle) => {
                        let mut offloads = shared.offloads.lock();
                        offloads.retain(|h| !h.is_finished());
                        offloads.push(handle);
                        return;
                    }
                    Err(_) => {
                        // Could not spawn (the request moved into the
                        // failed closure): answer typed-Busy so the
                        // caller retries instead of hanging.
                        finish_request(
                            shared,
                            &conn,
                            corr,
                            error_response(&PangeaError::Busy(
                                "no thread available for a task/push request".into(),
                            )),
                        );
                    }
                }
            }
            Ok((req, ctx)) => {
                let response = service.handle_traced(req, ctx, payload.len());
                finish_request(shared, &conn, corr, response);
            }
            Err(e) => finish_request(shared, &conn, corr, error_response(&e)),
        }
    }
}

/// Writes one response frame (mirroring the request's correlation) and
/// retires its in-flight slot. A failed write poisons the connection.
fn finish_request(shared: &ServerShared, conn: &ConnState, corr: u64, response: Response) {
    let write_ok = {
        let mut w = conn.writer.lock();
        write_frame_corr(&mut *w, corr, &response.encode()).is_ok()
    };
    shared.in_flight.fetch_sub(1, Ordering::SeqCst);
    if !write_ok {
        conn.close.store(true, Ordering::SeqCst);
        let _ = conn.stream.shutdown(Shutdown::Both);
    }
}

/// Maximum metrics in one [`Response::Metrics`] chunk.
pub const METRICS_CHUNK: usize = 512;
/// Maximum spans in one [`Response::Metrics`] chunk.
pub const SPANS_CHUNK: usize = 1024;

/// Builds one [`Response::Metrics`] chunk from an [`Obs`] bundle: the
/// registry snapshot paged by metric index, the span ring paged by ring
/// sequence number, and a resume cursor while either list has more.
/// Shared by `pangead` and `pangea-mgr` — both daemons serve the
/// identical `MetricsDump` wire shape.
pub fn metrics_dump_response(obs: &Obs, metrics_start: u64, spans_start: u64) -> Response {
    // Freshen the span-loss ledger BEFORE snapshotting so the very dump
    // that lost history also reports it: a ring that wrapped past a
    // reader's cursor must never present a complete-looking trace.
    obs.registry()
        .counter(names::TRACE_DROPPED_SPANS)
        .set(obs.ring().dropped_total());
    let snapshot = obs.registry().snapshot();
    let total_metrics = snapshot.len() as u64;
    let metrics: Vec<WireMetric> = snapshot
        .into_iter()
        .skip(metrics_start as usize)
        .take(METRICS_CHUNK)
        .map(|m| match m.value {
            MetricValue::Counter(value) => WireMetric::Counter {
                name: m.name,
                value,
            },
            MetricValue::Gauge(value) => WireMetric::Gauge {
                name: m.name,
                value,
            },
            MetricValue::Histogram {
                count,
                sum,
                buckets,
            } => WireMetric::Histogram {
                name: m.name,
                count,
                sum,
                buckets,
            },
        })
        .collect();
    let metrics_next = metrics_start.saturating_add(metrics.len() as u64);
    let retained = obs.ring().since(spans_start);
    let more_spans = retained.len() > SPANS_CHUNK;
    let spans: Vec<WireSpan> = retained
        .into_iter()
        .take(SPANS_CHUNK)
        .map(|(seq, s)| WireSpan {
            seq,
            job: s.job,
            span: s.span,
            parent: s.parent,
            op: s.op,
            peer: s.peer,
            start_ns: s.start_ns,
            end_ns: s.end_ns,
            bytes: s.bytes,
            outcome: s.outcome,
        })
        .collect();
    // Advance the span cursor past what this chunk shipped; when the
    // ring was drained, park it at the ring's next sequence number so a
    // resumed dump does not re-fetch these spans.
    let spans_next = spans
        .last()
        .map(|s| s.seq + 1)
        .unwrap_or_else(|| obs.ring().next_seq().max(spans_start));
    let next = (metrics_next < total_metrics || more_spans).then_some((metrics_next, spans_next));
    Response::Metrics {
        metrics,
        spans,
        next,
    }
}

/// A span outcome label for one response: `"ok"`, or the error's wire
/// message truncated to keep ring records bounded.
fn outcome_of(resp: &Response) -> String {
    let text = match resp {
        Response::Err { message } => message.as_str(),
        Response::Denied { message } => message.as_str(),
        Response::Stale { .. } => "stale epoch",
        Response::ScanTooLarge { .. } => "scan too large",
        _ => return "ok".to_string(),
    };
    let mut out = String::with_capacity(96);
    for c in text.chars().take(96) {
        out.push(c);
    }
    out
}

/// One open repair session on a replacement node: the dedup ledger plus
/// running totals, keyed by target set in [`Pangead::repairs`].
#[derive(Debug)]
struct RepairSession {
    /// `fx_hash64` of every record either present in the surviving share
    /// (seeded at `RecoverBegin`) or appended by this session — each
    /// lost record is restored exactly once, however many survivors
    /// push it and however often a push is retried. A [`SpillLedger`],
    /// so a huge share's ledger pages through the pool instead of
    /// growing unbounded heap; its frozen snapshot (taken after
    /// seeding) is what the paginated `RepairLedger` RPC serves —
    /// index-stable while concurrent pushes keep growing the live
    /// membership.
    seen: SpillLedger,
    appended: u64,
    bytes: u64,
    /// The one sequential writer every append of this session goes
    /// through, as in a map-only [`IngestSession`]: opened by the first
    /// append and finished by `RecoverEnd`, so a page is sealed when it
    /// fills, not per batch. A `RecoverBegin` that replaces this session
    /// closes it before re-seeding from the target, so the records of
    /// the open page are part of what the retry dedups against; a
    /// session that dies any other way seals through the writer's own
    /// `Drop`.
    writer: Option<SeqWriter>,
    /// Set, under the session lock, when a batch failed part-way or a
    /// new begin replaced this session; an append already queued on the
    /// lock must then fail instead of writing behind a retry's back.
    poisoned: bool,
}

/// One open shuffle-ingest session on a destination node: the
/// provenance-tag dedup ledger plus running totals, keyed by target set
/// in [`Pangead::ingests`]. Unlike a [`RepairSession`], the ledger
/// tracks [`ingest_tag`]s — `(source, ordinal, bytes)` provenance — not
/// record content: a shuffle output may contain honest duplicates, and
/// only *re-pushed* records (task retries, lost-ack replays) dedup away.
#[derive(Debug)]
struct IngestSession {
    seen: SpillLedger,
    appended: u64,
    bytes: u64,
    /// Reducing mode: incoming records are `key|value` partials folded
    /// into this keyed accumulator (after the usual tag dedup) instead
    /// of being appended; `IngestEnd` materializes the accumulator into
    /// the set in sorted-key order. The accumulator is a [`ReduceBuffer`]
    /// over pool pages (the paper's §8 hash service), so a fold larger
    /// than memory spills partial aggregates instead of killing the
    /// worker. The per-batch totals then count partials *accepted into
    /// the fold*, and the sealed totals count what was materialized.
    reduce: Option<(ReduceSpec, ReduceBuffer)>,
    /// Map-only mode: the one sequential writer every append of this
    /// session goes through, opened by the first append, so that small
    /// batches share pages instead of sealing one each. `IngestEnd`
    /// finishes it; a session that dies any other way (poisoned,
    /// replaced by a new begin, `DropSet`) seals the open page through
    /// the writer's own `Drop`.
    writer: Option<SeqWriter>,
    /// Set, under the session lock, when a batch failed part-way or a
    /// new begin replaced this session. Later appends no longer find
    /// the session; one that was already queued on its lock must fail
    /// the same way instead of running on the half-updated state (a
    /// reduce accumulator whose spill failed panics on its next use).
    poisoned: bool,
}

/// Per-push batching thresholds for the survivor's streaming loop
/// (mirrors the engine's default `DispatchConfig`).
const PUSH_BATCH_RECORDS: usize = 256;
const PUSH_BATCH_BYTES: usize = 128 * 1024;

/// Most distinct peer addresses the outbound pool caches idle
/// connections for (see [`Pangead::checkin_peer`]).
const PEER_POOL_CAP: usize = 64;

/// Default pipeline window for this daemon's *outbound* pushes (mapper
/// ingest fan-out, repair streaming): how many batches may be in flight
/// on one peer connection before the sender awaits the oldest ack.
pub const DEFAULT_PIPELINE_WINDOW: u32 = 8;

/// Ceiling on any pipeline window — configured or credit-granted. Caps
/// the unacked bytes one sender can park in a receiver's socket and
/// session state (`MAX_PIPELINE_WINDOW * PUSH_BATCH_BYTES` ≈ 8 MB).
pub const MAX_PIPELINE_WINDOW: u32 = 64;

/// In-memory entries a session dedup ledger holds before spilling
/// sorted runs through the pool (≈512 KB of heap per session).
const LEDGER_SPILL_ENTRIES: usize = 64 * 1024;

/// Root partitions for per-session reduce accumulators. Small: a
/// session accumulator grows by page splits under memory headroom, so
/// roots only set the floor of pinned pages per open session.
const ACC_ROOT_PARTITIONS: u32 = 2;

/// How a [`PipelinedPeer`] reads one ack of the batch family it
/// carries (`PangeaClient::{ingest,recover}_append_await`): the acked
/// `(appended, appended_bytes, credit)`.
type AwaitAck = fn(&mut PangeaClient, u64, usize) -> Result<(u64, u64, u64)>;

/// A checked-out peer connection plus its pipelined-push state: the
/// correlation ids of unacked submits (oldest first, each with the
/// payload bytes it carried, for ack-time net accounting) and the
/// receiver's latest credit grant.
#[derive(Debug)]
struct PipelinedPeer {
    client: PangeaClient,
    await_ack: AwaitAck,
    /// `(correlation, payload_bytes)` of unacked submits, oldest first.
    inflight: VecDeque<(u64, usize)>,
    /// Latest credit grant from the receiver; `0` = no information yet
    /// (nothing acked, or a legacy peer), treated as unconstrained.
    credit: u64,
}

impl PipelinedPeer {
    fn new(client: PangeaClient, await_ack: AwaitAck) -> Self {
        Self {
            client,
            await_ack,
            inflight: VecDeque::new(),
            credit: 0,
        }
    }

    /// The window that gates the next submit: the configured window,
    /// shrunk by the receiver's latest credit grant. Never below 1 — a
    /// memory-pressured receiver throttles senders to strict-serial,
    /// it does not starve them (its spill machinery needs batches to
    /// keep arriving one at a time to make progress against).
    fn effective_window(&self, configured: u32) -> usize {
        let configured = configured.max(1) as usize;
        if self.credit == 0 {
            configured
        } else {
            configured.min(self.credit as usize).max(1)
        }
    }

    /// Awaits the oldest outstanding ack, adopting the receiver's fresh
    /// credit grant. Returns the acked `(appended, appended_bytes)`.
    fn await_oldest(&mut self) -> Result<(u64, u64)> {
        // Nothing in flight means nothing to await — a no-op, not a
        // panic, so callers can drain unconditionally.
        let Some((corr, payload_bytes)) = self.inflight.pop_front() else {
            return Ok((0, 0));
        };
        let (appended, bytes, credit) = (self.await_ack)(&mut self.client, corr, payload_bytes)?;
        self.credit = credit;
        Ok((appended, bytes))
    }
}

/// The protocol brain of a Pangea node daemon: dispatches decoded
/// requests against the wrapped [`StorageNode`].
#[derive(Debug)]
pub struct Pangead {
    node: StorageNode,
    /// Open peer-repair sessions, by recovery target set. Each session
    /// carries its own lock so appends into one target never block
    /// sessions of unrelated sets behind disk I/O; the outer map lock
    /// is only ever held for a lookup.
    repairs: Mutex<FxHashMap<String, Arc<Mutex<RepairSession>>>>,
    /// Totals of sessions already sealed, by target set — the tombstone
    /// that makes `RecoverEnd` idempotent: a retry whose first ack was
    /// lost to a connection failure re-reads the same totals instead of
    /// failing on a session that no longer exists. Cleared by the next
    /// `RecoverBegin` for the set. Two `u64`s per recovered set.
    ended: Mutex<FxHashMap<String, (u64, u64)>>,
    /// Open shuffle-ingest sessions, by destination set. Same locking
    /// shape as [`Pangead::repairs`]: per-session locks, the outer map
    /// lock held only for lookups.
    ingests: Mutex<FxHashMap<String, Arc<Mutex<IngestSession>>>>,
    /// Sealed ingest totals, the `IngestEnd` idempotency tombstone
    /// (mirrors [`Pangead::ended`]).
    ingests_ended: Mutex<FxHashMap<String, (u64, u64)>>,
    /// Pooled *idle* outbound connections to sibling daemons, keyed by
    /// the advertised address they were opened against. A client is
    /// checked out for the duration of one RPC — the pool lock is never
    /// held across socket I/O — so repair pushes and shuffle pushes
    /// reuse one dial per peer instead of reconnecting per push.
    peers: Mutex<FxHashMap<String, PangeaClient>>,
    /// The deployment secret this daemon presents when it dials *other*
    /// daemons (repair peers). Independent of the inbound secret the
    /// surrounding [`FramedServer`] enforces, though deployments
    /// conventionally share one.
    peer_secret: Option<String>,
    /// Outbound pipeline window (batches in flight per peer connection)
    /// for every task and repair push; see [`DEFAULT_PIPELINE_WINDOW`].
    pipeline_window: u32,
    /// Payload bytes and messages received by this daemon.
    stats: Arc<IoStats>,
    /// This daemon's observability bundle: the metrics registry (shared
    /// with [`Pangead::stats`], so `io.*` volumes and `rpc.*` metrics
    /// land in one `MetricsDump`) plus the span ring.
    obs: Obs,
    /// Monotonic id appended to session backing-set names (ledger runs,
    /// reduce accumulators, combine accumulators, Absent-diff ledgers),
    /// so a replaced session's not-yet-released set never collides with
    /// its successor's.
    session_seq: AtomicU64,
}

impl Pangead {
    /// Wraps a storage node.
    pub fn new(node: StorageNode) -> Self {
        let stats = Arc::new(IoStats::new());
        let obs = Obs::with_registry(stats.registry().clone());
        Self {
            node,
            repairs: Mutex::new(FxHashMap::default()),
            ended: Mutex::new(FxHashMap::default()),
            ingests: Mutex::new(FxHashMap::default()),
            ingests_ended: Mutex::new(FxHashMap::default()),
            peers: Mutex::new(FxHashMap::default()),
            peer_secret: None,
            pipeline_window: DEFAULT_PIPELINE_WINDOW,
            stats,
            obs,
            session_seq: AtomicU64::new(0),
        }
    }

    /// A fresh, collision-free backing-set name for per-session state.
    fn session_set_name(&self, set: &str, kind: &str) -> String {
        let seq = self.session_seq.fetch_add(1, Ordering::Relaxed);
        format!("{set}::{kind}.{seq}")
    }

    /// Sets the secret this daemon presents when dialing repair peers.
    pub fn with_peer_secret(mut self, secret: Option<String>) -> Self {
        self.peer_secret = secret;
        self
    }

    /// Sets the default outbound pipeline window (`0` keeps the
    /// built-in [`DEFAULT_PIPELINE_WINDOW`]; values are clamped to
    /// [`MAX_PIPELINE_WINDOW`]). `1` makes every push strict-serial —
    /// the pre-pipelining behavior.
    pub fn with_pipeline_window(mut self, window: u32) -> Self {
        if window != 0 {
            self.pipeline_window = window.min(MAX_PIPELINE_WINDOW);
        }
        self
    }

    /// The credit grant stamped on every `IngestAck`/`RepairAck`: how
    /// many more in-flight push batches this daemon's pool residency
    /// can absorb. Free pool bytes divided by the batch ceiling,
    /// clamped to `[1, MAX_PIPELINE_WINDOW]` — never 0, because 0 is
    /// the wire's "no information" value (legacy peers) and because a
    /// full pool must still admit one batch at a time for the spill
    /// machinery to make progress against.
    fn flow_credit(&self) -> u64 {
        let p = self.node.paging_stats();
        let free = p.pool_capacity.saturating_sub(p.pool_used);
        (free / PUSH_BATCH_BYTES as u64).clamp(1, MAX_PIPELINE_WINDOW as u64)
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
        // Clone the session handles out first: the outer map locks are
        // never held while a session lock (which appends hold across
        // disk I/O) is taken.
        let repairs: Vec<_> = self.repairs.lock().values().cloned().collect();
        let ingests: Vec<_> = self.ingests.lock().values().cloned().collect();
        let session_bytes: u64 = repairs
            .iter()
            .map(|s| s.lock().bytes)
            .chain(ingests.iter().map(|s| s.lock().bytes))
            .sum();
        reg.gauge(names::MEM_SESSION_BYTES).set(session_bytes);
        reg.gauge(names::POOL_PEERS)
            .set(self.peers.lock().len() as u64);
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
    }

    /// Handles one request, turning node errors into [`Response::Err`].
    pub fn handle(&self, req: Request) -> Response {
        self.handle_full(req, None, 0)
    }

    /// The instrumented handler behind both [`Pangead::handle`] and the
    /// [`FramedService::handle_traced`] seam: per-opcode count/bytes/
    /// latency metrics always; a [`SpanRecord`] when the frame carried
    /// a [`TraceCtx`]. The span id is allocated *before* dispatch so
    /// any fan-out this request performs (a `TaskRun`'s ingest pushes,
    /// a `RecoverPush`'s appends) propagates `(job, this span)` and the
    /// job's span tree stitches together across nodes.
    fn handle_full(&self, req: Request, ctx: Option<TraceCtx>, req_bytes: usize) -> Response {
        let op = req.name();
        let reg = self.obs.registry();
        reg.counter(&names::rpc_count(op)).inc();
        reg.counter(&names::rpc_bytes(op)).add(req_bytes as u64);
        let child = ctx.map(|c| TraceCtx {
            job: c.job,
            span: pangea_obs::next_span_id(),
        });
        let start = self.obs.now_ns();
        let resp = match self.dispatch(req, child) {
            Ok(resp) => resp,
            Err(e) => error_response(&e),
        };
        let end = self.obs.now_ns();
        reg.histogram(&names::rpc_latency_ns(op))
            .observe(end.saturating_sub(start));
        if let (Some(ctx), Some(child)) = (ctx, child) {
            self.obs.ring().record(SpanRecord {
                job: ctx.job,
                span: child.span,
                parent: ctx.span,
                op: op.to_string(),
                peer: String::new(),
                start_ns: start,
                end_ns: end,
                bytes: req_bytes as u64,
                outcome: outcome_of(&resp),
            });
        }
        resp
    }

    /// Dispatches one decoded request. `ctx`, when present, is the
    /// *child* context minted by [`Pangead::handle_full`] — `(job, this
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
                let set = self.get_set(&set)?;
                let mut writer = set.writer();
                for rec in &records {
                    self.stats.record_net(rec.len());
                    writer.add_object(rec)?;
                }
                writer.finish()?;
                Ok(Response::Appended {
                    records: records.len() as u64,
                })
            }
            Request::PageNumbers { set } => Ok(Response::Pages {
                nums: self.get_set(&set)?.page_numbers(),
            }),
            Request::FetchPage { set, num } => {
                let set = self.get_set(&set)?;
                let pin = set.pin_page(num)?;
                let bytes = pin.read().to_vec();
                Ok(Response::Page { bytes })
            }
            Request::Scan { set } => {
                let set = self.get_set(&set)?;
                let mut records = Vec::new();
                // Refuse (with a protocol error, not a dead socket) once
                // the reply could no longer fit one frame; large sets are
                // read page-by-page through FetchPage instead.
                let budget = crate::frame::MAX_FRAME / 2;
                let mut bytes = 0usize;
                for num in set.page_numbers() {
                    let pin = set.pin_page(num)?;
                    let mut it = ObjectIter::new(&pin);
                    while let Some(rec) = it.next() {
                        bytes += rec.len() + 4;
                        if bytes > budget {
                            return Err(PangeaError::ScanTooLarge {
                                set: set.name().to_string(),
                                budget: budget as u64,
                            });
                        }
                        records.push(rec.to_vec());
                    }
                }
                Ok(Response::Records { records })
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
                //
                // Session state keyed by this set dies with it. Open
                // repair/ingest sessions and — crucially — sealed-totals
                // tombstones must not survive the drop: a set recreated
                // under the same name would otherwise answer a
                // `RecoverEnd`/`IngestEnd` retry with a *previous
                // life's* totals, and tombstones would accumulate
                // forever across jobs. Dropping a session's `Arc` also
                // releases its spill ledger and accumulator backing
                // sets.
                self.repairs.lock().remove(&set);
                self.ended.lock().remove(&set);
                self.ingests.lock().remove(&set);
                self.ingests_ended.lock().remove(&set);
                let reg = self.obs.registry();
                reg.gauge(names::SESSIONS_REPAIR_LIVE)
                    .set(self.repairs.lock().len() as u64);
                reg.gauge(names::SESSIONS_INGEST_LIVE)
                    .set(self.ingests.lock().len() as u64);
                if let Some(set) = self.node.get_set(&set) {
                    self.node.drop_set(set.id())?;
                }
                Ok(Response::Ok)
            }
            Request::Stats => {
                let net = self.stats.snapshot();
                let disk = self.node.disk_stats().snapshot();
                let paging = self.node.paging_stats();
                Ok(Response::Stats {
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
                })
            }
            Request::HashList {
                set,
                start_page,
                start_record,
            } => {
                let set = self.get_set(&set)?;
                let mut hashes = Vec::new();
                let mut next = None;
                // The cursor names the page to resume at, so a chunk
                // costs only its own scan — pages before it are never
                // pinned again, whatever the set's size.
                'pages: for num in set.page_numbers() {
                    if num < start_page {
                        continue;
                    }
                    let pin = set.pin_page(num)?;
                    let mut it = ObjectIter::new(&pin);
                    let mut idx = 0u64;
                    while let Some(rec) = it.next() {
                        let skip = num == start_page && idx < start_record;
                        if !skip {
                            if hashes.len() >= crate::proto::HASH_CHUNK {
                                next = Some((num, idx));
                                break 'pages;
                            }
                            hashes.push(fx_hash64(rec));
                        }
                        idx += 1;
                    }
                }
                Ok(Response::Hashes { hashes, next })
            }
            Request::RecoverBegin { set, present_from } => {
                let target = self.get_set(&set)?;
                // A session a failed attempt left open still holds its
                // writer's page: close it first (waiting out an append in
                // flight on it), so the seeding scan below reads every
                // record that attempt stored and the retry appends none
                // of them twice.
                let stale = self.repairs.lock().remove(&set);
                if let Some(stale) = stale {
                    let mut stale = stale.lock();
                    stale.poisoned = true;
                    stale.writer = None;
                }
                let mut session = RepairSession {
                    seen: SpillLedger::new(
                        &self.node,
                        self.session_set_name(&set, "repair-ledger"),
                        LEDGER_SPILL_ENTRIES,
                    ),
                    appended: 0,
                    bytes: 0,
                    writer: None,
                    poisoned: false,
                };
                // Seed with what this node already holds: a retried
                // repair (some batches of a failed attempt committed
                // durably) must not append those records again.
                for num in target.page_numbers() {
                    let pin = target.pin_page(num)?;
                    let mut it = ObjectIter::new(&pin);
                    while let Some(rec) = it.next() {
                        session.seen.insert_if_absent(fx_hash64(rec))?;
                    }
                }
                for addr in &present_from {
                    let mut peer = self.checkout_peer(addr)?;
                    // One `HASH_CHUNK` of the peer's share at a time,
                    // straight into the ledger: the heap this holds is a
                    // chunk plus the ledger's generation, whatever the
                    // share's size.
                    let seeded = peer.hash_list_for_each(&set, |hashes| {
                        hashes
                            .into_iter()
                            .try_for_each(|h| session.seen.insert_if_absent(h).map(drop))
                    });
                    match seeded {
                        Ok(()) => self.checkin_peer(addr, peer),
                        Err(e) => {
                            // A failed RPC leaves the stream state
                            // unknown; account for the drop so the
                            // checkout counters stay truthful.
                            self.discard_peer(peer);
                            return Err(e);
                        }
                    }
                }
                // Freeze the seeded ledger for `RepairLedger` paging:
                // Absent-filtered survivors diff against exactly what
                // was present when the session opened (the snapshot is
                // index-stable while concurrent pushes grow the live
                // ledger).
                session.seen.freeze_snapshot();
                // Clear any sealed-totals tombstone: `RecoverBegin` is
                // the idempotent open of a fresh repair attempt.
                self.ended.lock().remove(&set);
                let live = {
                    let mut repairs = self.repairs.lock();
                    repairs.insert(set, Arc::new(Mutex::new(session)));
                    repairs.len()
                };
                let reg = self.obs.registry();
                reg.counter(names::SESSIONS_REPAIR_BEGUN).inc();
                reg.gauge(names::SESSIONS_REPAIR_LIVE).set(live as u64);
                Ok(Response::Ok)
            }
            Request::RecoverAppend { set, records } => {
                let target = self.get_set(&set)?;
                let gone = || {
                    PangeaError::usage(format!(
                        "no repair session for '{}'; RecoverBegin first",
                        target.name()
                    ))
                };
                let session = self
                    .repairs
                    .lock()
                    .get(target.name())
                    .cloned()
                    .ok_or_else(gone)?;
                // The session lock serializes concurrent survivor pushes
                // into one target: the dedup check and the append must be
                // atomic per record, and the session's one storage writer
                // sees a single writer's order. Unrelated sets' sessions
                // proceed in parallel.
                let mut session = session.lock();
                if session.poisoned {
                    return Err(gone());
                }
                let replays = self.obs.registry().counter(names::REPAIR_DEDUP_HITS);
                let outcome = (|| -> Result<(u64, u64)> {
                    let RepairSession { seen, writer, .. } = &mut *session;
                    let writer = writer.get_or_insert_with(|| target.writer());
                    let (mut appended, mut bytes) = (0u64, 0u64);
                    for rec in &records {
                        self.stats.record_net(rec.len());
                        let h = fx_hash64(rec);
                        if seen.contains(h)? {
                            replays.inc();
                            continue;
                        }
                        // Ledger only after the record is stored: a
                        // failed append must leave the hash unseen, or
                        // the contractually-idempotent retry would dedup
                        // the record away and lose it forever.
                        writer.add_object(rec)?;
                        seen.insert(h)?;
                        appended += 1;
                        bytes += rec.len() as u64;
                    }
                    Ok((appended, bytes))
                })();
                match outcome {
                    Ok((appended, bytes)) => {
                        session.appended += appended;
                        session.bytes += bytes;
                        self.stats.record_repair(bytes as usize);
                        Ok(Response::RepairAck {
                            appended,
                            bytes,
                            credit: self.flow_credit(),
                        })
                    }
                    // What the writer holds after a failed batch is
                    // unknown, so the session ends here, still under its
                    // lock: appends queued behind this one are refused,
                    // and the retry's `RecoverBegin` re-seeds from what
                    // the target really stores.
                    Err(e) => {
                        session.poisoned = true;
                        self.repairs.lock().remove(target.name());
                        Err(e)
                    }
                }
            }
            Request::RecoverEnd { set } => {
                // The orchestrator only ends a session after its pushes
                // return, so no appender still holds the session here.
                let Some(session) = self.repairs.lock().remove(&set) else {
                    // Retried seal (the first ack was lost): answer the
                    // recorded totals again.
                    if let Some(&(appended, bytes)) = self.ended.lock().get(&set) {
                        return Ok(Response::RepairAck {
                            appended,
                            bytes,
                            credit: self.flow_credit(),
                        });
                    }
                    return Err(PangeaError::usage(format!(
                        "no repair session for '{set}' to end"
                    )));
                };
                let mut session = session.lock();
                // A failed seal leaves no tombstone: a retried end fails
                // loudly, and the next attempt's begin re-seeds.
                if let Some(mut writer) = session.writer.take() {
                    writer.finish()?;
                }
                self.ended
                    .lock()
                    .insert(set, (session.appended, session.bytes));
                let reg = self.obs.registry();
                reg.counter(names::SESSIONS_REPAIR_ENDED).inc();
                reg.gauge(names::SESSIONS_REPAIR_LIVE)
                    .set(self.repairs.lock().len() as u64);
                Ok(Response::RepairAck {
                    appended: session.appended,
                    bytes: session.bytes,
                    credit: self.flow_credit(),
                })
            }
            Request::RepairLedger { set, start } => {
                let session = self.repairs.lock().get(&set).cloned().ok_or_else(|| {
                    PangeaError::usage(format!("no repair session for '{set}'; RecoverBegin first"))
                })?;
                let session = session.lock();
                let hashes = session
                    .seen
                    .snapshot_chunk(start, crate::proto::HASH_CHUNK)?;
                let end = start.saturating_add(hashes.len() as u64);
                let next = (end < session.seen.snapshot_len()).then_some((0, end));
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
                let options = SetOptions {
                    durability: existing.durability(),
                    page_size: Some(existing.page_size()),
                    estimated_pages: None,
                };
                // A session a failed attempt left open still pins its
                // writer's page in the set about to be dropped: close it
                // first (waiting out an append in flight on it).
                let stale = self.ingests.lock().remove(&set);
                if let Some(stale) = stale {
                    let mut stale = stale.lock();
                    stale.poisoned = true;
                    stale.writer = None;
                }
                self.node.drop_set(existing.id())?;
                self.node.create_set(&set, options)?;
                self.ingests_ended.lock().remove(&set);
                let reduce = match reduce {
                    Some(spec) => {
                        // The session's keyed accumulator lives on pool
                        // pages (paper §8 hash service): a fold larger
                        // than the memory budget spills partial
                        // aggregates instead of growing unbounded heap.
                        let acc = ReduceBuffer::create(
                            &self.node,
                            &self.session_set_name(&set, "reduce-acc"),
                            HashConfig::new(ACC_ROOT_PARTITIONS),
                            spec.merge_fn(),
                        )?;
                        Some((spec, acc))
                    }
                    None => None,
                };
                let session = IngestSession {
                    seen: SpillLedger::new(
                        &self.node,
                        self.session_set_name(&set, "ingest-ledger"),
                        LEDGER_SPILL_ENTRIES,
                    ),
                    appended: 0,
                    bytes: 0,
                    reduce,
                    writer: None,
                    poisoned: false,
                };
                let live = {
                    let mut ingests = self.ingests.lock();
                    ingests.insert(set, Arc::new(Mutex::new(session)));
                    ingests.len()
                };
                let reg = self.obs.registry();
                reg.counter(names::SESSIONS_INGEST_BEGUN).inc();
                reg.gauge(names::SESSIONS_INGEST_LIVE).set(live as u64);
                Ok(Response::Ok)
            }
            Request::IngestAppend { set, entries } => {
                let (appended, bytes) = self.ingest_append_session(&set, &entries, true)?;
                Ok(Response::IngestAck {
                    appended,
                    bytes,
                    credit: self.flow_credit(),
                })
            }
            Request::IngestEnd { set } => {
                let Some(session) = self.ingests.lock().remove(&set) else {
                    // Retried seal (the first ack was lost): answer the
                    // recorded totals again.
                    if let Some(&(appended, bytes)) = self.ingests_ended.lock().get(&set) {
                        return Ok(Response::IngestAck {
                            appended,
                            bytes,
                            credit: self.flow_credit(),
                        });
                    }
                    return Err(PangeaError::usage(format!(
                        "no ingest session for '{set}' to end"
                    )));
                };
                let mut session = session.lock();
                let (appended, bytes) = match session.reduce.take() {
                    // Reducing seal: re-aggregate the accumulator's
                    // in-memory pages with its spilled partials, then
                    // materialize into the (begin-truncated) set in
                    // sorted-key order so the stored order stays
                    // deterministic. The sealed totals are what was
                    // *materialized*; a failed write leaves no
                    // tombstone, so a retried seal fails loudly and the
                    // job-level retry's begin truncates and starts
                    // clean.
                    Some((spec, acc)) => {
                        let mut pairs = acc.finalize()?;
                        pairs.sort_unstable_by(|a, b| a.0.cmp(&b.0));
                        let target = self.get_set(&set)?;
                        let mut writer = target.writer();
                        let (mut n, mut b) = (0u64, 0u64);
                        for (key, value) in &pairs {
                            let rec = spec.encode_record(key, *value);
                            writer.add_object(&rec)?;
                            n += 1;
                            b += rec.len() as u64;
                        }
                        writer.finish()?;
                        (n, b)
                    }
                    None => {
                        if let Some(mut writer) = session.writer.take() {
                            writer.finish()?;
                        }
                        (session.appended, session.bytes)
                    }
                };
                self.ingests_ended.lock().insert(set, (appended, bytes));
                let reg = self.obs.registry();
                reg.counter(names::SESSIONS_INGEST_ENDED).inc();
                reg.gauge(names::SESSIONS_INGEST_LIVE)
                    .set(self.ingests.lock().len() as u64);
                Ok(Response::IngestAck {
                    appended,
                    bytes,
                    credit: self.flow_credit(),
                })
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

    /// Connects to a sibling `pangead` with this daemon's peer secret.
    fn dial_peer(&self, addr: &str) -> Result<PangeaClient> {
        PangeaClient::connect_with_secret(addr, self.peer_secret.as_deref())
            .map_err(|e| PangeaError::Remote(format!("dialing peer {addr}: {e}")))
    }

    /// Checks the pooled idle connection to `addr` out of the peer pool,
    /// or dials afresh. A pooled connection may have gone stale while
    /// idle (peer restarted at the same address) — that is detected on
    /// the first submit over it, not probed for here: a validation ping
    /// would cost a full round trip per checkout *and* serialize the
    /// connection right before the pipelined pushers try to fill a
    /// window, and every push path already retries through
    /// [`Pangead::discard_peer`] + redial on RPC failure anyway.
    /// Callers return the connection with [`Pangead::checkin_peer`] on
    /// success and hand it to [`Pangead::discard_peer`] when an RPC on
    /// it failed (its stream state is unknown). Every successful
    /// checkout ends in exactly one of the two, so
    /// `pool.checkouts == pool.checkins + pool.drops` holds at every
    /// idle instant — the invariant the accounting unit test pins.
    fn checkout_peer(&self, addr: &str) -> Result<PangeaClient> {
        if let Some(client) = self.peers.lock().remove(addr) {
            let reg = self.obs.registry();
            reg.counter(names::POOL_CHECKOUTS).inc();
            reg.counter(names::POOL_HITS).inc();
            return Ok(client);
        }
        self.obs.registry().counter(names::POOL_DIALS).inc();
        let client = self.dial_peer(addr)?;
        // Counted only once the connection exists: a failed dial hands
        // the caller nothing, so it must not look like a checkout that
        // never came back.
        self.obs.registry().counter(names::POOL_CHECKOUTS).inc();
        Ok(client)
    }

    /// Returns an idle peer connection to the pool. Concurrent pushers
    /// may race one in; last one in wins the single idle slot, the
    /// loser just closes. The pool is bounded at [`PEER_POOL_CAP`]
    /// distinct addresses, evicting an arbitrary idle entry when full:
    /// entries for replaced or dead peers are never checked out again,
    /// so an unbounded map would pin one dead socket per churned worker
    /// address forever — and refusing inserts instead would stop
    /// pooling new peers for the daemon's lifetime.
    fn checkin_peer(&self, addr: &str, mut client: PangeaClient) {
        // A connection with pipelined requests still outstanding is not
        // idle — its stream carries unread responses that would poison
        // whatever checks it out next. Callers are supposed to drain
        // before checkin; treat a violation as a drop, not a landmine.
        if client.pipelined() != 0 {
            self.discard_peer(client);
            return;
        }
        self.obs.registry().counter(names::POOL_CHECKINS).inc();
        // An idle pooled connection must never carry a stale job's
        // trace context into whatever checks it out next.
        client.set_trace(None);
        let mut peers = self.peers.lock();
        if peers.len() >= PEER_POOL_CAP && !peers.contains_key(addr) {
            if let Some(victim) = peers.keys().next().cloned() {
                peers.remove(&victim);
            }
            self.obs.registry().counter(names::POOL_EVICTIONS).inc();
        }
        peers.insert(addr.to_string(), client);
    }

    /// Closes a checked-out connection whose RPC failed. Taking the
    /// client by value makes the accounting structural: an error path
    /// cannot forget the counter without also forgetting to close.
    fn discard_peer(&self, client: PangeaClient) {
        drop(client);
        self.obs.registry().counter(names::POOL_DROPS).inc();
    }

    /// The mapper half of the distributed map-shuffle: scan the local
    /// share of the task's input, apply the declarative map (possibly
    /// multi-emit), route each output record by the task's scheme, and
    /// stream batches straight to each destination worker's ingest
    /// session — one pooled connection per destination for the task's
    /// lifetime. With a [`ReduceSpec`] the mapper *combines* first:
    /// the whole share folds into a keyed accumulator and only the
    /// encoded per-key partials ship, so the shuffle pays for distinct
    /// keys instead of raw emissions. The orchestrating driver only
    /// ever sees the outcome counters.
    ///
    /// Round-robin output striping is **per source**: mapper `s`'s
    /// `i`-th emission lands on partition `(s + i) % partitions` (the
    /// `s` offset decorrelates the mappers' first records). The serial
    /// engine reference applies the identical rule per scanned node,
    /// so per-node parity holds for round-robin outputs too.
    fn run_task(&self, spec: &TaskSpec, ctx: Option<TraceCtx>) -> Result<Response> {
        let input = self.get_set(&spec.input)?;
        let nodes = spec.nodes.max(1);
        if spec.reduce.is_some() && matches!(spec.scheme, SchemeSpec::RoundRobin { .. }) {
            return Err(PangeaError::usage(
                "a reduce needs key-determined placement; round-robin output \
                 schemes cannot host one",
            ));
        }
        let mut addr_of: FxHashMap<u32, &str> = FxHashMap::default();
        for (node, addr) in &spec.dests {
            addr_of.insert(*node, addr.as_str());
        }
        // Per-destination pipeline window: this daemon's deployment
        // setting, already capped at `MAX_PIPELINE_WINDOW`.
        let window = self.pipeline_window;
        let mut conns: FxHashMap<String, PipelinedPeer> = FxHashMap::default();
        let mut batches: FxHashMap<u32, (Vec<(u64, Vec<u8>)>, usize)> = FxHashMap::default();
        let mut report = TaskReport::default();
        let outcome = (|| -> Result<()> {
            match &spec.reduce {
                // Source-side combine: fold the whole local share, then
                // ship one encoded partial per key. Tags derive from
                // the key (a retried task re-derives the same fold, so
                // its partials dedup away at the destinations). The
                // fold runs through a pool-paged [`ReduceBuffer`], so a
                // share whose distinct keys exceed the memory budget
                // spills partial aggregates instead of OOMing the
                // worker; sorting the finalized pairs keeps the shipped
                // order deterministic across retries.
                Some(reduce) => {
                    let mut acc = ReduceBuffer::create(
                        &self.node,
                        &self.session_set_name(&spec.output, "combine"),
                        HashConfig::new(ACC_ROOT_PARTITIONS),
                        reduce.merge_fn(),
                    )?;
                    for num in input.page_numbers() {
                        let pin = input.pin_page(num)?;
                        let mut it = ObjectIter::new(&pin);
                        while let Some(rec) = it.next() {
                            report.scanned += 1;
                            spec.map.for_each_emit(rec, &mut |out| {
                                if let Some((key, value)) = reduce.accumulate(out) {
                                    acc.insert_merge(&key, value)?;
                                }
                                Ok(())
                            })?;
                        }
                    }
                    let mut pairs = acc.finalize()?;
                    pairs.sort_unstable_by(|a, b| a.0.cmp(&b.0));
                    for (key, value) in &pairs {
                        let out = reduce.encode_record(key, *value);
                        let dest = spec.scheme.node_of(&out, 0, nodes);
                        let tag = ingest_tag(spec.source, fx_hash64(key), &out);
                        self.route_output(
                            spec,
                            &addr_of,
                            &mut conns,
                            &mut batches,
                            &mut report,
                            dest,
                            tag,
                            out,
                            window,
                            ctx,
                        )?;
                    }
                }
                None => {
                    // The emission sequence number doubles as the
                    // round-robin stripe position and the provenance-tag
                    // ordinal: stable across retries (storage order is
                    // deterministic), and distinct per emission so a
                    // flat-map record emitting the same token twice
                    // keeps both honest duplicates.
                    for num in input.page_numbers() {
                        let pin = input.pin_page(num)?;
                        let mut it = ObjectIter::new(&pin);
                        while let Some(rec) = it.next() {
                            report.scanned += 1;
                            spec.map.for_each_emit(rec, &mut |out| {
                                let seq = report.emitted;
                                let dest =
                                    spec.scheme.node_of(out, spec.source as u64 + seq, nodes);
                                let tag = ingest_tag(spec.source, seq, out);
                                self.route_output(
                                    spec,
                                    &addr_of,
                                    &mut conns,
                                    &mut batches,
                                    &mut report,
                                    dest,
                                    tag,
                                    out.to_vec(),
                                    window,
                                    ctx,
                                )
                            })?;
                        }
                    }
                }
            }
            for (dest, (entries, _)) in std::mem::take(&mut batches) {
                if entries.is_empty() {
                    continue;
                }
                let (a, b) =
                    self.deliver_entries(spec, &addr_of, &mut conns, dest, entries, window, ctx)?;
                report.appended += a;
                report.appended_bytes += b;
            }
            // Drain every destination's outstanding acks: the task's
            // totals only count what the receivers acknowledged, and a
            // connection may only go back to the pool once nothing is
            // in flight on it.
            let addrs: Vec<String> = conns.keys().cloned().collect();
            for addr in addrs {
                let mut failed = None;
                if let Some(peer) = conns.get_mut(&addr) {
                    while !peer.inflight.is_empty() {
                        match peer.await_oldest() {
                            Ok((a, b)) => {
                                report.appended += a;
                                report.appended_bytes += b;
                            }
                            Err(e) => {
                                failed = Some(e);
                                break;
                            }
                        }
                    }
                }
                if let Some(e) = failed {
                    if let Some(peer) = conns.remove(&addr) {
                        self.discard_peer(peer.client);
                    }
                    return Err(e);
                }
            }
            Ok(())
        })();
        // Healthy (drained) connections go back to the pool even when
        // the task failed on another destination; the failed connection
        // was already dropped by `ingest_into`, and any connection the
        // failure left with acks still in flight is discarded by
        // `checkin_peer`'s pipelined guard.
        for (addr, peer) in conns.drain() {
            self.checkin_peer(&addr, peer.client);
        }
        outcome?;
        // Mapper-side attribution: this node shipped `emitted_bytes` of
        // shuffle payload to its peers without touching the driver —
        // labeled by mode, so combine/reduce traffic is distinguishable
        // from map-only traffic in a dump.
        if spec.reduce.is_some() {
            self.stats
                .record_shuffle_reduce(report.emitted_bytes as usize);
        } else {
            self.stats.record_shuffle(report.emitted_bytes as usize);
        }
        Ok(Response::TaskDone {
            scanned: report.scanned,
            emitted: report.emitted,
            emitted_bytes: report.emitted_bytes,
            appended: report.appended,
            appended_bytes: report.appended_bytes,
        })
    }

    /// Queues one routed output record for its destination, flushing
    /// the destination's batch once a size threshold trips.
    #[allow(clippy::too_many_arguments)]
    fn route_output(
        &self,
        spec: &TaskSpec,
        addr_of: &FxHashMap<u32, &str>,
        conns: &mut FxHashMap<String, PipelinedPeer>,
        batches: &mut FxHashMap<u32, (Vec<(u64, Vec<u8>)>, usize)>,
        report: &mut TaskReport,
        dest: u32,
        tag: u64,
        out: Vec<u8>,
        window: u32,
        ctx: Option<TraceCtx>,
    ) -> Result<()> {
        report.emitted += 1;
        report.emitted_bytes += out.len() as u64;
        let (batch, batch_bytes) = batches.entry(dest).or_default();
        *batch_bytes += out.len();
        batch.push((tag, out));
        if batch.len() >= PUSH_BATCH_RECORDS || *batch_bytes >= PUSH_BATCH_BYTES {
            let entries = std::mem::take(batch);
            *batch_bytes = 0;
            let (a, b) = self.deliver_entries(spec, addr_of, conns, dest, entries, window, ctx)?;
            report.appended += a;
            report.appended_bytes += b;
        }
        Ok(())
    }

    /// Delivers one tagged batch to its destination: the self-destined
    /// share never touches a socket (appended straight into this
    /// daemon's own ingest session — the sim's free local delivery,
    /// remotely); every other slot goes through its pooled connection.
    ///
    /// For a remote destination the returned totals are *not* this
    /// batch's: they are whatever older in-flight batches got acked
    /// while making window room (possibly nothing). This batch's own
    /// totals surface from some later call or the task's final drain —
    /// the task-level sums come out identical to the serial protocol.
    #[allow(clippy::too_many_arguments)]
    fn deliver_entries(
        &self,
        spec: &TaskSpec,
        addr_of: &FxHashMap<u32, &str>,
        conns: &mut FxHashMap<String, PipelinedPeer>,
        dest: u32,
        entries: Vec<(u64, Vec<u8>)>,
        window: u32,
        ctx: Option<TraceCtx>,
    ) -> Result<(u64, u64)> {
        if dest == spec.source {
            self.ingest_append_session(&spec.output, &entries, false)
        } else {
            let addr = *addr_of.get(&dest).ok_or_else(|| {
                PangeaError::usage(format!("task has no destination address for slot {dest}"))
            })?;
            self.ingest_into(conns, addr, &spec.output, entries, window, ctx)
        }
    }

    /// The shared `IngestAppend` implementation: dedup-appends one
    /// tagged batch into the open ingest session for `set`.
    ///
    /// `over_wire` decides whether the batch's payload is charged to
    /// this daemon's inbound net counters — `false` for a mapper's
    /// self-destined shortcut, which never touches a socket (mirroring
    /// the simulation's free local delivery).
    ///
    /// The session lock serializes concurrent mapper pushes into one
    /// destination set: tag check and append are atomic per record, and
    /// the session's one storage writer sees one writer's order (a page
    /// is sealed when it fills or at `IngestEnd`, not per batch).
    /// Unrelated sets proceed in parallel. Any failure mid-batch leaves
    /// "what was stored" unknowable while some tags may already sit in
    /// the ledger — a retried append would dedup those records away —
    /// so the session is poisoned: retries of this attempt fail loudly,
    /// and the job-level retry's `IngestBegin` truncates and starts
    /// clean.
    fn ingest_append_session(
        &self,
        set: &str,
        entries: &[(u64, Vec<u8>)],
        over_wire: bool,
    ) -> Result<(u64, u64)> {
        let target = self.get_set(set)?;
        let gone =
            || PangeaError::usage(format!("no ingest session for '{set}'; IngestBegin first"));
        let session = self.ingests.lock().get(set).cloned().ok_or_else(gone)?;
        let mut session = session.lock();
        if session.poisoned {
            return Err(gone());
        }
        let dedup = self.obs.registry().counter(names::INGEST_DEDUP_HITS);
        let outcome = (|| -> Result<(u64, u64)> {
            let IngestSession {
                seen,
                reduce,
                writer,
                ..
            } = &mut *session;
            let (mut appended, mut bytes) = (0u64, 0u64);
            match reduce {
                // Reducing session: fold accepted partials into the
                // keyed accumulator; nothing touches storage until the
                // seal materializes it. Tag dedup is unchanged, so
                // lost-ack replays of a combine batch stay idempotent.
                Some((spec, acc)) => {
                    for (tag, rec) in entries {
                        if over_wire {
                            self.stats.record_net(rec.len());
                        }
                        if seen.contains(*tag)? {
                            dedup.inc();
                            continue;
                        }
                        let (key, value) = spec.decode_record(rec)?;
                        acc.insert_merge(key, value)?;
                        seen.insert(*tag)?;
                        appended += 1;
                        bytes += rec.len() as u64;
                    }
                }
                None => {
                    let writer = writer.get_or_insert_with(|| target.writer());
                    for (tag, rec) in entries {
                        if over_wire {
                            self.stats.record_net(rec.len());
                        }
                        if seen.contains(*tag)? {
                            dedup.inc();
                            continue;
                        }
                        writer.add_object(rec)?;
                        seen.insert(*tag)?;
                        appended += 1;
                        bytes += rec.len() as u64;
                    }
                }
            }
            Ok((appended, bytes))
        })();
        match outcome {
            Ok((appended, bytes)) => {
                session.appended += appended;
                session.bytes += bytes;
                // Destination-side attribution, labeled by session mode:
                // bytes folded into a reducing session are reduce-mode
                // shuffle traffic, everything else is map-mode.
                if session.reduce.is_some() {
                    self.stats.record_shuffle_reduce(bytes as usize);
                } else {
                    self.stats.record_shuffle(bytes as usize);
                }
                Ok((appended, bytes))
            }
            Err(e) => {
                session.poisoned = true;
                drop(session);
                self.ingests.lock().remove(set);
                Err(e)
            }
        }
    }

    /// Pipelines one tagged batch into the ingest session for `output`
    /// on the daemon at `addr`, opening (and caching in `conns`) the
    /// destination connection on first use. A connection whose RPC
    /// failed is dropped, never cached.
    ///
    /// The batch is *submitted*, not round-tripped: up to the effective
    /// window (the configured `window`, shrunk by the receiver's latest
    /// credit grant) of batches ride the wire unacked, so the mapper
    /// keeps scanning while the receiver appends. When the window is
    /// full the oldest ack is awaited first — and when it is the
    /// *credit* that made the window small, the wait is counted as a
    /// credit stall: the receiver's pool residency is throttling this
    /// sender, which is backpressure working as designed.
    fn ingest_into(
        &self,
        conns: &mut FxHashMap<String, PipelinedPeer>,
        addr: &str,
        output: &str,
        entries: Vec<(u64, Vec<u8>)>,
        window: u32,
        ctx: Option<TraceCtx>,
    ) -> Result<(u64, u64)> {
        let peer = match conns.entry(addr.to_string()) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(v) => {
                // Fan-out propagation: every ingest RPC this task sends
                // carries `(job, the TaskRun's span)`, so the
                // destination's span records stitch under the task that
                // produced them.
                let mut conn = self.checkout_peer(addr)?;
                conn.set_trace(ctx);
                v.insert(PipelinedPeer::new(conn, PangeaClient::ingest_append_await))
            }
        };
        let submit = |c: &mut PangeaClient| c.ingest_append_submit(output, entries);
        match self.pipelined_submit(peer, window, submit) {
            Ok(acked) => Ok(acked),
            Err(e) => {
                // Dropped, not returned — and counted, so a failed push
                // doesn't strand the checkout accounting.
                if let Some(peer) = conns.remove(addr) {
                    self.discard_peer(peer.client);
                }
                Err(e)
            }
        }
    }

    /// One pipelined submit against a peer: make window room (awaiting
    /// oldest acks, with credit-stall accounting), then send. Returns
    /// the totals of whatever acks were drained for room.
    fn pipelined_submit(
        &self,
        peer: &mut PipelinedPeer,
        window: u32,
        submit: impl FnOnce(&mut PangeaClient) -> Result<(u64, usize)>,
    ) -> Result<(u64, u64)> {
        let reg = self.obs.registry();
        let (mut appended, mut bytes) = (0u64, 0u64);
        while peer.inflight.len() >= peer.effective_window(window) {
            let credit_limited = peer.effective_window(window) < window.max(1) as usize;
            let start = Instant::now();
            let (a, b) = peer.await_oldest()?;
            appended += a;
            bytes += b;
            if credit_limited {
                reg.counter(names::NET_CREDIT_STALLS).inc();
                reg.counter(names::NET_CREDIT_STALLS_MS)
                    .add(start.elapsed().as_millis() as u64);
            }
        }
        let (corr, payload_bytes) = submit(&mut peer.client)?;
        peer.inflight.push_back((corr, payload_bytes));
        reg.histogram(names::NET_INFLIGHT)
            .observe(peer.inflight.len() as u64);
        Ok((appended, bytes))
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
        let source = self.get_set(source_set)?;
        // One pooled connection for the whole push: repeated pushes to
        // the same replacement (per survivor × source × pass) no longer
        // pay a fresh dial + handshake each (the ROADMAP hot-path item).
        let mut client = self.checkout_peer(target_addr)?;
        client.set_trace(ctx);
        let mut peer = PipelinedPeer::new(client, PangeaClient::recover_append_await);
        match self.recover_push_with(&source, target_set, &mut peer, filter) {
            Ok(resp) => {
                self.checkin_peer(target_addr, peer.client);
                Ok(resp)
            }
            Err(e) => {
                // Any mid-push failure leaves the stream state unknown;
                // close the connection and account for it so the pool
                // counters stay truthful on every error path.
                self.discard_peer(peer.client);
                Err(e)
            }
        }
    }

    /// The push body, with the peer checked out by [`Pangead::
    /// recover_push`]. An `Absent` filter streams the replacement's
    /// seeded ledger in `HASH_CHUNK` pages into a local [`SpillLedger`]
    /// — the survivor never materializes the whole ledger in heap, so a
    /// huge replacement share costs this node at most the ledger's
    /// in-memory generation plus pool-paged runs.
    fn recover_push_with(
        &self,
        source: &pangea_core::LocalitySet,
        target_set: &str,
        peer: &mut PipelinedPeer,
        filter: &RepairFilter,
    ) -> Result<Response> {
        enum Keep {
            Compiled(Box<dyn Fn(&[u8]) -> bool + Send + Sync>),
            Absent(SpillLedger),
        }
        let keep = match filter {
            RepairFilter::Absent => {
                let mut present = SpillLedger::new(
                    &self.node,
                    self.session_set_name(target_set, "absent-diff"),
                    LEDGER_SPILL_ENTRIES,
                );
                // The snapshot enumerates each seeded hash exactly
                // once, so a plain insert (no membership probe) is
                // enough.
                peer.client.repair_ledger_for_each(target_set, |hashes| {
                    for h in hashes {
                        present.insert(h)?;
                    }
                    Ok(())
                })?;
                Keep::Absent(present)
            }
            other => Keep::Compiled(other.compile()?),
        };
        let (mut scanned, mut pushed, mut pushed_bytes) = (0u64, 0u64, 0u64);
        let (mut appended, mut appended_bytes) = (0u64, 0u64);
        let mut batch: Vec<Vec<u8>> = Vec::new();
        let mut batch_bytes = 0usize;
        // The windowed pipeline: batches are *submitted* and their acks
        // collected later, so the scan keeps producing while the
        // replacement appends. The replacement's credit grants shrink
        // the window when its pool runs hot — repair streaming is the
        // heaviest sustained push in the system, exactly the traffic a
        // memory-pressured receiver must be able to slow down.
        let mut flush = |peer: &mut PipelinedPeer, batch: &mut Vec<Vec<u8>>| -> Result<()> {
            if batch.is_empty() {
                return Ok(());
            }
            let records = std::mem::take(batch);
            let (a, b) = self.pipelined_submit(peer, self.pipeline_window, |c| {
                c.recover_append_submit(target_set, records)
            })?;
            appended += a;
            appended_bytes += b;
            Ok(())
        };
        for num in source.page_numbers() {
            let pin = source.pin_page(num)?;
            let mut it = ObjectIter::new(&pin);
            while let Some(rec) = it.next() {
                scanned += 1;
                let wanted = match &keep {
                    Keep::Compiled(f) => f(rec),
                    Keep::Absent(present) => !present.contains(fx_hash64(rec))?,
                };
                if !wanted {
                    continue;
                }
                pushed += 1;
                pushed_bytes += rec.len() as u64;
                batch_bytes += rec.len();
                batch.push(rec.to_vec());
                if batch.len() >= PUSH_BATCH_RECORDS || batch_bytes >= PUSH_BATCH_BYTES {
                    flush(peer, &mut batch)?;
                    batch_bytes = 0;
                }
            }
        }
        flush(peer, &mut batch)?;
        // Drain the tail of the pipeline: the push's totals are the sum
        // of every ack, same as the serial protocol's.
        while !peer.inflight.is_empty() {
            let (a, b) = peer.await_oldest()?;
            appended += a;
            appended_bytes += b;
        }
        // Survivor-side attribution: this node moved `pushed_bytes` of
        // repair payload to a peer without touching the driver.
        self.stats.record_repair(pushed_bytes as usize);
        Ok(Response::Pushed {
            scanned,
            pushed,
            pushed_bytes,
            appended,
            appended_bytes,
        })
    }

    fn get_set(&self, name: &str) -> Result<pangea_core::LocalitySet> {
        self.node
            .get_set(name)
            .ok_or_else(|| PangeaError::usage(format!("locality set '{name}' not found")))
    }
}

impl FramedService for Pangead {
    fn handle(&self, req: Request) -> Response {
        Pangead::handle(self, req)
    }

    fn handle_traced(&self, req: Request, ctx: Option<TraceCtx>, req_bytes: usize) -> Response {
        self.handle_full(req, ctx, req_bytes)
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

    /// [`PangeadServer::bind_with_secret`] with explicit io-pool tuning
    /// (`--io-threads` / connection cap). The server's `net.conns_open`
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
        let daemon = Arc::new(
            Pangead::new(node)
                .with_peer_secret(secret.clone())
                .with_pipeline_window(config.pipeline_window),
        );
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
    use pangea_core::NodeConfig;

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

    /// Page pins (hits and reloads) the node has served so far.
    fn pins(node: &StorageNode) -> u64 {
        let s = node.paging_stats();
        s.hits + s.misses
    }

    /// Record `i` of a large synthetic share: the number fills the first
    /// word `fx_hash64` folds and two fixed words follow, so distinct
    /// records never collide and their hashes differ in their low bits.
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
        assert_eq!(resp, Response::Appended { records: 2 });
        match d.handle(Request::Scan {
            set: "events".into(),
        }) {
            Response::Records { records } => {
                assert_eq!(records, vec![b"a".to_vec(), b"bb".to_vec()]);
            }
            other => panic!("{other:?}"),
        }
        match d.handle(Request::PageNumbers {
            set: "events".into(),
        }) {
            Response::Pages { nums } => assert_eq!(nums, vec![0]),
            other => panic!("{other:?}"),
        }
        match d.handle(Request::FetchPage {
            set: "events".into(),
            num: 0,
        }) {
            Response::Page { bytes } => assert_eq!(bytes.len(), 4 * pangea_common::KB),
            other => panic!("{other:?}"),
        }
        // Dropping the set makes it unknown.
        assert_eq!(
            d.handle(Request::DropSet {
                set: "events".into()
            }),
            Response::Ok
        );
        assert!(matches!(
            d.handle(Request::Scan {
                set: "events".into()
            }),
            Response::Err { .. }
        ));
    }

    #[test]
    fn missing_set_is_a_wire_error() {
        let d = Pangead::new(node("missing"));
        match d.handle(Request::Scan { set: "nope".into() }) {
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
        assert_eq!(authed.append("ok", &["x"]).unwrap(), 1);
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
            Response::RepairAck {
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
            Response::RepairAck {
                appended: 1,
                bytes: 5,
                ..
            }
        ));
        assert!(matches!(
            d.handle(Request::RecoverEnd { set: "tgt".into() }),
            Response::RepairAck {
                appended: 3,
                bytes: 12,
                ..
            }
        ));
        // Sealing is idempotent: a retried RecoverEnd (lost ack) reads
        // the same totals back instead of failing.
        assert!(matches!(
            d.handle(Request::RecoverEnd { set: "tgt".into() }),
            Response::RepairAck {
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
            Response::RepairAck {
                appended: 0,
                bytes: 0,
                ..
            }
        ));
        match d.handle(Request::Scan { set: "tgt".into() }) {
            Response::Records { records } => {
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
            Response::RepairAck {
                appended: 1,
                bytes: 5,
                ..
            }
        ));
        assert!(matches!(
            d.handle(Request::RecoverEnd { set: "tgt".into() }),
            Response::RepairAck {
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
                        pangea_common::fx_hash64(b"one"),
                        pangea_common::fx_hash64(b"two")
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
                assert_eq!(hashes, vec![pangea_common::fx_hash64(b"two")]);
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
        sc.append("src", &rows).unwrap();

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
        sc.append("tgt2", &rows).unwrap();
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
        sc.append("src", &rows).unwrap();
        // The replacement already holds a surviving share of 20 rows;
        // RecoverBegin seeds the session ledger from them.
        rc.append("tgt", &rows[..20]).unwrap();
        rc.recover_begin("tgt", &[]).unwrap();

        // The ledger RPC pages the seeded hashes.
        assert_eq!(sc.call(&Request::Ping).unwrap(), Response::Ok);
        let mut probe =
            PangeaClient::connect_with_secret(replacement.local_addr(), Some("absent-secret"))
                .unwrap();
        let ledger = probe.repair_ledger("tgt").unwrap();
        assert_eq!(ledger.len(), 20);

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
        assert!(probe.repair_ledger("tgt").is_err());
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
            sc.append("src", chunk).unwrap();
        }
        for chunk in held.chunks(8192) {
            rc.append("tgt", chunk).unwrap();
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
        fn handle(&self, req: Request) -> Response {
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
            Response::IngestAck {
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
            Response::IngestAck {
                appended: 0,
                bytes: 0,
                ..
            }
        ));
        assert!(matches!(
            d.handle(Request::IngestEnd { set: "out".into() }),
            Response::IngestAck {
                appended: 2,
                bytes: 6,
                ..
            }
        ));
        // Sealing is idempotent (lost-ack retry reads the tombstone)…
        assert!(matches!(
            d.handle(Request::IngestEnd { set: "out".into() }),
            Response::IngestAck {
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
        match d.handle(Request::Scan { set: "out".into() }) {
            Response::Records { records } => assert!(records.is_empty(), "{records:?}"),
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
                Response::IngestAck { appended: 3, .. }
            ));
        }
        let set = d.node.get_set("out").unwrap();
        let room = set.page_size() - pangea_core::page::PAGE_HEADER;
        assert_eq!(set.num_pages(), framed.div_ceil(room) as u64);
        assert!(set.num_pages() < 10, "not a page per batch");

        // A retry's begin replaces the still-open session: its pinned
        // page goes with it, and the truncated set starts empty.
        assert_eq!(d.handle(begin), Response::Ok);
        match d.handle(Request::Scan { set: "out".into() }) {
            Response::Records { records } => assert!(records.is_empty(), "{records:?}"),
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            d.handle(Request::IngestAppend {
                set: "out".into(),
                entries: vec![(1, b"again".to_vec())],
            }),
            Response::IngestAck { appended: 1, .. }
        ));
        assert!(matches!(
            d.handle(Request::IngestEnd { set: "out".into() }),
            Response::IngestAck { appended: 1, .. }
        ));
        assert_eq!(d.node.pool().pool_stats().pinned_pages, 0, "sealed");
        match d.handle(Request::Scan { set: "out".into() }) {
            Response::Records { records } => assert_eq!(records, vec![b"again".to_vec()]),
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
    /// fresh partials before it stop at the run filters.
    #[test]
    fn reducing_session_replay_dedups_across_flushed_runs_without_page_walks() {
        use crate::wire::{KeySpec, ReduceSpec};
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
            (b * BATCH..(b + 1) * BATCH)
                .map(|i| {
                    let rec = format!("w{:04}|{}", i % 2000, i % 17).into_bytes();
                    (crate::wire::ingest_tag(0, i, &rec), rec)
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
                Response::IngestAck {
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
            Response::IngestAck {
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
            Response::IngestAck {
                appended, bytes: b, ..
            } => assert_eq!((appended, b), (want.len() as u64, bytes)),
            other => panic!("{other:?}"),
        }
        match d.handle(Request::Scan { set: "sums".into() }) {
            Response::Records { records } => assert_eq!(records, want),
            other => panic!("{other:?}"),
        }
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
        let session = d.ingests.lock().get("out").cloned().unwrap();
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
        d.ingests.lock().remove("out");
        assert!(matches!(queued.join().unwrap(), Response::Err { .. }));
        match d.handle(Request::Scan { set: "out".into() }) {
            Response::Records { records } => assert!(records.is_empty(), "{records:?}"),
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
                Response::RepairAck {
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
            Response::RepairAck {
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
            Response::RepairAck { appended, .. } if appended == fresh
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
        // Seven bytes each: `fx_hash64` folds them as one word, so no
        // two records collide in the content ledger.
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
                Response::RepairAck { appended: 8, .. }
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
                Response::RepairAck { appended: 0, .. }
            ));
        }
        assert!(matches!(
            d.handle(Request::RecoverAppend {
                set: "tgt".into(),
                records: vec![b"lost-by-the-first-attempt".to_vec()],
            }),
            Response::RepairAck { appended: 1, .. }
        ));
        assert!(matches!(
            d.handle(Request::RecoverEnd { set: "tgt".into() }),
            Response::RepairAck { appended: 1, .. }
        ));
        assert_eq!(d.node.pool().pool_stats().pinned_pages, 0, "sealed");
        let want: Vec<Vec<u8>> = (0..100)
            .flat_map(batch)
            .chain([b"lost-by-the-first-attempt".to_vec()])
            .collect();
        match d.handle(Request::Scan { set: "tgt".into() }) {
            Response::Records { records } => assert_eq!(records, want),
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
        assert!(d.repairs.lock().is_empty(), "the session ended");
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
            Response::RepairAck { appended: 1, .. }
        ));

        let session = d.repairs.lock().get("tgt").cloned().unwrap();
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
        d.repairs.lock().remove("tgt");
        drop(guard);
        assert!(matches!(queued.join().unwrap(), Response::Err { .. }));
        match d.handle(Request::Scan { set: "tgt".into() }) {
            Response::Records { records } => {
                assert_eq!(records, vec![b"first".to_vec(), b"third".to_vec()])
            }
            other => panic!("{other:?}"),
        }
    }

    /// A reducing ingest session folds incoming `key|value` partials
    /// (tag-deduped) and materializes the accumulator at the seal —
    /// which stays tombstone-idempotent like the plain session.
    #[test]
    fn reducing_ingest_session_folds_partials_and_materializes_at_end() {
        use crate::wire::{KeySpec, ReduceSpec};
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
        // Two mappers' partials for "the" (3 + 2), one for "fox" (1);
        // a replayed tag dedups away instead of double-counting.
        assert!(matches!(
            d.handle(Request::IngestAppend {
                set: "counts".into(),
                entries: vec![
                    (crate::wire::ingest_tag(0, 7, b"the|3"), b"the|3".to_vec()),
                    (crate::wire::ingest_tag(1, 7, b"the|2"), b"the|2".to_vec()),
                    (crate::wire::ingest_tag(0, 9, b"fox|1"), b"fox|1".to_vec()),
                    (crate::wire::ingest_tag(1, 7, b"the|2"), b"the|2".to_vec()),
                ],
            }),
            Response::IngestAck {
                appended: 3,
                bytes: 15,
                ..
            }
        ));
        // Nothing is stored until the seal…
        match d.handle(Request::Scan {
            set: "counts".into(),
        }) {
            Response::Records { records } => assert!(records.is_empty(), "{records:?}"),
            other => panic!("{other:?}"),
        }
        // …which materializes one record per key, sorted, and is
        // idempotent on retry.
        for _ in 0..2 {
            assert!(matches!(
                d.handle(Request::IngestEnd {
                    set: "counts".into()
                }),
                Response::IngestAck {
                    appended: 2,
                    bytes: 10,
                    ..
                }
            ));
        }
        match d.handle(Request::Scan {
            set: "counts".into(),
        }) {
            Response::Records { records } => {
                assert_eq!(records, vec![b"fox|1".to_vec(), b"the|5".to_vec()]);
            }
            other => panic!("{other:?}"),
        }
    }

    /// The tentpole flow at daemon scope over real sockets: a shipped
    /// map task scans its local input share, applies the declarative
    /// map, and streams routed batches straight into the destination
    /// daemons' ingest sessions — and a re-run task is idempotent.
    #[test]
    fn run_task_maps_and_routes_to_destination_ingests() {
        use crate::wire::{KeySpec, MapSpec, SchemeSpec, TaskSpec};
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
        mc.append("lines", &rows).unwrap();
        for c in [&mut c0, &mut c1] {
            c.create_set("words", "write-through", None).unwrap();
            c.ingest_begin("words", None).unwrap();
        }

        // Keep rows whose first field is "1", emit field 1, route by the
        // whole emitted record over 4 partitions striping 2 nodes.
        let spec = TaskSpec {
            input: "lines".into(),
            output: "words".into(),
            map: MapSpec::extract(KeySpec::Field {
                delim: b'|',
                index: 1,
            })
            .with_filter(crate::wire::FilterSpec::KeyEquals {
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
            // The mapper plays slot 2 — outside the 2-wide destination
            // stripe — so nothing self-routes and every record crosses
            // a real socket to dest0/dest1 (the self-destined shortcut
            // would otherwise expect slot 0 to be this daemon's own
            // ingest session, per the TaskSpec::source contract).
            nodes: 2,
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
            Response::RepairAck {
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
            Response::IngestAck {
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
            Response::RepairAck {
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
        sc.append("src", &["a|1", "b|2"]).unwrap();
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
        let payload = crate::frame::read_frame(&mut over).unwrap().unwrap();
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
