//! The framed server core `pangead` and `pangea-mgr` both serve through.
//!
//! [`FramedServer`] serves any [`FramedService`] with one thread per
//! accepted connection. That thread reads a frame, decodes it, runs the
//! handler, writes the response and only then reads the next frame, so
//! a connection's requests execute strictly in submission order (which
//! the begin/append/end session protocols require) with no queue, pool
//! or hand-off between reading and running. A client may still pipeline:
//! frames it sends ahead wait in the socket until their turn. Every
//! request a client pipelines must therefore answer small (the
//! `SessionAck` of `Append`, `IngestAppend` and `RecoverAppend`): while
//! this thread writes a response it reads nothing, so a large response
//! to a client blocked in its own write would leave both stuck.
//! Connections beyond [`ServerConfig::max_conns`] are refused with a
//! typed [`Response::Busy`], which makes the cap the bound on serving
//! threads; an optional shared-secret handshake rejects unauthenticated
//! peers with a typed [`Response::Denied`]; graceful shutdown stops
//! accepting, drains in-flight requests, closes the remaining
//! connections and joins every thread.
//!
//! A request that itself calls other daemons (a `TaskRun`'s pushes, a
//! `RecoverPush`) holds only its own connection's thread while it waits.
//! There is no shared pool to exhaust, so a ring of daemons pushing to
//! each other cannot deadlock on this core.

use crate::frame::{read_frame_corr, write_frame_corr};
use crate::proto::{error_response, Request, Response};
use crate::wire::{WireMetric, WireSpan};
use pangea_common::{FxHashMap, PangeaError, Result};
use pangea_obs::{names, Counter, Gauge, MetricValue, Obs, Registry, SpanRecord, TraceCtx};
use parking_lot::Mutex;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long [`FramedServer::shutdown`] waits for in-flight requests
/// before closing their connections anyway.
pub const DEFAULT_DRAIN: Duration = Duration::from_secs(5);

/// Live-connection cap when [`ServerConfig`] does not say.
pub const DEFAULT_MAX_CONNS: usize = 256;

/// Tuning for the [`FramedServer`] core.
#[derive(Debug, Clone, Default)]
pub struct ServerConfig {
    /// Live-connection cap (`0` = [`DEFAULT_MAX_CONNS`]), and so the cap
    /// on serving threads. Connections beyond it are refused with a
    /// typed [`Response::Busy`].
    pub max_conns: usize,
    /// When set, the server publishes `net.conns_open` (gauge) and
    /// `net.busy_rejects` (counter) here.
    pub registry: Option<Arc<Registry>>,
}

/// Anything that can answer one decoded request. A call runs on its
/// connection's own thread, so while it runs that connection reads no
/// further request; other connections are unaffected.
pub trait FramedService: std::fmt::Debug + Send + Sync + 'static {
    /// Handles one request with the [`TraceCtx`] its header carried and
    /// its payload size in bytes, mapping internal errors to error
    /// responses.
    fn handle(&self, req: Request, ctx: Option<TraceCtx>, req_bytes: usize) -> Response;
}

/// Serves one request under the daemons' shared instrumentation:
/// per-opcode `rpc.count`/`rpc.bytes`/`rpc.latency_ns` always, and a
/// [`SpanRecord`] when the header carried a [`TraceCtx`]. The child span
/// id is minted *before* `dispatch` runs and handed to it, so any
/// fan-out the request performs (a `TaskRun`'s ingest pushes, a
/// `RecoverPush`'s appends) propagates `(job, this span)` and the job's
/// span tree stitches together across nodes. Errors become error
/// responses.
pub fn serve_instrumented(
    obs: &Obs,
    req: Request,
    ctx: Option<TraceCtx>,
    req_bytes: usize,
    dispatch: impl FnOnce(Request, Option<TraceCtx>) -> Result<Response>,
) -> Response {
    let op = req.name();
    let reg = obs.registry();
    reg.counter(&names::rpc_count(op)).inc();
    reg.counter(&names::rpc_bytes(op)).add(req_bytes as u64);
    let child = ctx.map(|c| TraceCtx {
        job: c.job,
        span: pangea_obs::next_span_id(),
    });
    let start = obs.now_ns();
    let resp = dispatch(req, child).unwrap_or_else(|e| error_response(&e));
    let end = obs.now_ns();
    reg.histogram(&names::rpc_latency_ns(op))
        .observe(end.saturating_sub(start));
    if let (Some(ctx), Some(child)) = (ctx, child) {
        obs.ring().record(SpanRecord {
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

/// State shared by the accept loop and the connection threads.
#[derive(Debug)]
struct ServerShared {
    service: Arc<dyn FramedService>,
    /// A clone of each live connection's socket, by connection id, used
    /// only to `shutdown(2)` it (unblocking its thread) at server
    /// shutdown.
    conns: Mutex<FxHashMap<u64, TcpStream>>,
    threads: Mutex<Vec<JoinHandle<()>>>,
    next_conn: AtomicU64,
    /// Requests read and not yet answered.
    in_flight: AtomicUsize,
    secret: Option<String>,
    max_conns: usize,
    conns_open: Gauge,
    busy_rejects: Counter,
}

/// A connection's registration in `conns`, released however its thread
/// ends (a panicking handler included) or when it never starts: the
/// socket is shut down, else the clone in `conns` keeps it open and the
/// client waits forever, and a request being served leaves `in_flight`.
struct ConnGuard {
    shared: Arc<ServerShared>,
    id: u64,
    serving: bool,
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        if self.serving {
            self.shared.in_flight.fetch_sub(1, Ordering::SeqCst);
        }
        let mut conns = self.shared.conns.lock();
        let stream = conns.remove(&self.id);
        self.shared.conns_open.set(conns.len() as u64);
        drop(conns);
        if let Some(stream) = stream {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

/// A running framed server: an accept loop and one thread per
/// connection over one [`FramedService`]. Dropping the server shuts it
/// down gracefully.
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

    /// [`FramedServer::bind`] with an explicit [`ServerConfig`].
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
            service,
            conns: Mutex::new(FxHashMap::default()),
            threads: Mutex::new(Vec::new()),
            next_conn: AtomicU64::new(0),
            in_flight: AtomicUsize::new(0),
            secret,
            max_conns,
            conns_open,
            busy_rejects,
        });
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
    /// requests already read get up to `drain` to finish (their
    /// responses are written), remaining connections are closed, and
    /// every connection thread is joined. Idempotent.
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
        // Drain: wait for requests being handled. Connections idle
        // between requests are not in flight and close immediately.
        let deadline = Instant::now() + drain;
        while self.shared.in_flight.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Unblock threads waiting for their peer's next request, then
        // join them.
        for (_, stream) in self.shared.conns.lock().drain() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        self.shared.conns_open.set(0);
        for handle in self.shared.threads.lock().drain(..) {
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
        let mut stream = match conn {
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
        // The connection cap bounds the serving threads: beyond it,
        // refuse with a typed Busy the client can dispatch on (back off,
        // redial) instead of parking in a thread pile-up.
        if shared.conns.lock().len() >= shared.max_conns {
            shared.busy_rejects.inc();
            let busy = error_response(&PangeaError::Busy(format!(
                "at the {}-connection cap",
                shared.max_conns
            )));
            let _ = write_frame_corr(&mut stream, 0, &busy.encode());
            let _ = stream.shutdown(Shutdown::Both);
            continue;
        }
        let Ok(shutdown_handle) = stream.try_clone() else {
            continue;
        };
        let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
        {
            let mut conns = shared.conns.lock();
            conns.insert(conn_id, shutdown_handle);
            shared.conns_open.set(conns.len() as u64);
        }
        let guard = ConnGuard {
            shared: Arc::clone(&shared),
            id: conn_id,
            serving: false,
        };
        let spawned = std::thread::Builder::new()
            .name("framed-conn".into())
            .spawn(move || serve_conn(stream, guard));
        if let Ok(handle) = spawned {
            let mut threads = shared.threads.lock();
            threads.retain(|h| !h.is_finished());
            threads.push(handle);
        }
    }
}

/// Serves one connection until EOF, a fatal stream error, a refused
/// handshake or a failed response write: read a frame, run it, write
/// its response, read the next.
fn serve_conn(mut stream: TcpStream, mut guard: ConnGuard) {
    let shared = Arc::clone(&guard.shared);
    let mut authenticated = shared.secret.is_none();
    loop {
        let (corr, payload) = match read_frame_corr(&mut stream) {
            Ok(Some(frame)) => frame,
            Ok(None) => break, // peer hung up cleanly
            Err(e) => {
                // Desynchronized stream: report once on correlation 0
                // (which request the bytes belonged to is unknown), then
                // give up.
                let _ = write_frame_corr(&mut stream, 0, &error_response(&e).encode());
                break;
            }
        };
        shared.in_flight.fetch_add(1, Ordering::SeqCst);
        guard.serving = true;
        let (response, close) = match Request::decode_traced(&payload) {
            Ok((Request::Hello { secret }, _)) => match &shared.secret {
                Some(expected) if *expected == secret => {
                    authenticated = true;
                    (Response::Ok, false)
                }
                Some(_) => (
                    error_response(&PangeaError::Unauthenticated(
                        "handshake secret does not match".into(),
                    )),
                    true,
                ),
                // No secret configured: a Hello is a harmless no-op.
                None => (Response::Ok, false),
            },
            Ok((req, _)) if !authenticated => (
                error_response(&PangeaError::Unauthenticated(format!(
                    "this daemon requires a Hello handshake before {req:?}"
                ))),
                true,
            ),
            Ok((req, ctx)) => (shared.service.handle(req, ctx, payload.len()), false),
            Err(e) => (error_response(&e), false),
        };
        let written = write_frame_corr(&mut stream, corr, &response.encode()).is_ok();
        shared.in_flight.fetch_sub(1, Ordering::SeqCst);
        guard.serving = false;
        if close || !written {
            break;
        }
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
        _ => return "ok".to_string(),
    };
    let mut out = String::with_capacity(96);
    for c in text.chars().take(96) {
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::PangeaClient;
    use std::sync::{Condvar, Mutex as StdMutex};

    /// A stub service. `Ping` waits until `rendezvous` pings, from any
    /// connections, have arrived (10 s at most, then it answers an
    /// error), then holds for `hold`. Any other request answers
    /// `Created` with its position in the order requests ran.
    #[derive(Debug)]
    struct Stub {
        rendezvous: usize,
        hold: Duration,
        arrived: StdMutex<usize>,
        all_arrived: Condvar,
        ran: AtomicU64,
    }

    impl Stub {
        fn serve(rendezvous: usize, hold: Duration, secret: Option<&str>) -> FramedServer {
            let stub = Arc::new(Self {
                rendezvous,
                hold,
                arrived: StdMutex::new(0),
                all_arrived: Condvar::new(),
                ran: AtomicU64::new(0),
            });
            FramedServer::bind(stub, "127.0.0.1:0", secret.map(str::to_string)).unwrap()
        }
    }

    impl FramedService for Stub {
        fn handle(&self, req: Request, _ctx: Option<TraceCtx>, _bytes: usize) -> Response {
            if !matches!(req, Request::Ping) {
                return Response::Created {
                    set: self.ran.fetch_add(1, Ordering::SeqCst),
                };
            }
            let mut arrived = self.arrived.lock().unwrap();
            *arrived += 1;
            self.all_arrived.notify_all();
            let (_arrived, wait) = self
                .all_arrived
                .wait_timeout_while(arrived, Duration::from_secs(10), |n| *n < self.rendezvous)
                .unwrap();
            if wait.timed_out() {
                return Response::Err {
                    message: "rendezvous timed out".into(),
                };
            }
            std::thread::sleep(self.hold);
            Response::Ok
        }
    }

    /// Each connection's request blocks until every other connection's
    /// request has started: the ring a fleet of daemons pushing to each
    /// other forms. All eight finish, because no connection waits for a
    /// thread another one holds; a shared pool of fewer than eight
    /// serving threads would deadlock here until the stub times out.
    #[test]
    fn requests_waiting_on_other_connections_all_finish() {
        const CONNS: usize = 8;
        let server = Stub::serve(CONNS, Duration::ZERO, None);
        let addr = server.local_addr();
        let pings: Vec<_> = (0..CONNS)
            .map(|_| std::thread::spawn(move || PangeaClient::connect(addr)?.ping()))
            .collect();
        for ping in pings {
            ping.join().unwrap().unwrap();
        }
    }

    /// A `Hello` and the requests behind it, all sent before any answer
    /// is read: the handshake admits the rest, and the answers come back
    /// in submission order, each run in that order.
    #[test]
    fn pipelined_hello_and_requests_answer_in_submission_order() {
        const REQUESTS: u64 = 6;
        let server = Stub::serve(1, Duration::ZERO, Some("pipe"));
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let hello = Request::Hello {
            secret: "pipe".into(),
        };
        write_frame_corr(&mut stream, 1, &hello.encode()).unwrap();
        for corr in 2..=REQUESTS + 1 {
            let req = Request::CreateSet {
                name: format!("s{corr}"),
                durability: "write-through".into(),
                page_size: None,
            };
            write_frame_corr(&mut stream, corr, &req.encode()).unwrap();
        }
        let mut answers = Vec::new();
        for _ in 0..=REQUESTS {
            let (corr, payload) = read_frame_corr(&mut stream).unwrap().unwrap();
            answers.push((corr, Response::decode(&payload).unwrap()));
        }
        let want: Vec<(u64, Response)> = std::iter::once((1, Response::Ok))
            .chain((0..REQUESTS).map(|set| (set + 2, Response::Created { set })))
            .collect();
        assert_eq!(answers, want);
    }

    /// Shutdown waits for a request that is still running, writes its
    /// response, and only then closes the connection.
    #[test]
    fn shutdown_waits_for_a_running_request_and_answers_it() {
        let mut server = Stub::serve(1, Duration::from_millis(300), None);
        let addr = server.local_addr();
        let ping = std::thread::spawn(move || {
            let mut client = PangeaClient::connect(addr)?;
            client.ping()?;
            Ok::<_, PangeaError>(client)
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.shared.in_flight.load(Ordering::SeqCst) == 0 {
            assert!(Instant::now() < deadline, "the ping never arrived");
            std::thread::sleep(Duration::from_millis(1));
        }
        server.shutdown(DEFAULT_DRAIN);
        let mut client = ping.join().unwrap().expect("the running ping is answered");
        assert_eq!(server.open_connections(), 0);
        assert!(
            client.ping().is_err(),
            "the connection closes after the drain"
        );
    }

    /// Panics on `DropSet`; answers `Ok` to anything else.
    #[derive(Debug)]
    struct Panicky;

    impl FramedService for Panicky {
        fn handle(&self, req: Request, _ctx: Option<TraceCtx>, _bytes: usize) -> Response {
            if matches!(req, Request::DropSet { .. }) {
                panic!("handler panics on purpose");
            }
            Response::Ok
        }
    }

    /// A handler that panics ends its connection: the client's call
    /// fails at once instead of waiting forever, the connection is
    /// deregistered, nothing stays in flight, and the next connection
    /// is served.
    #[test]
    fn a_panicking_handler_closes_its_connection() {
        let server = FramedServer::bind(Arc::new(Panicky), "127.0.0.1:0", None).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(1)))
            .unwrap();
        let drop_set = Request::DropSet { set: "s".into() };
        write_frame_corr(&mut stream, 1, &drop_set.encode()).unwrap();
        match read_frame_corr(&mut stream) {
            Ok(None) => {}
            Err(PangeaError::Io(e))
                if !matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            other => panic!("the connection must close without an answer, got {other:?}"),
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.open_connections() > 0 {
            assert!(Instant::now() < deadline, "the connection stays registered");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(server.shared.in_flight.load(Ordering::SeqCst), 0);
        PangeaClient::connect(server.local_addr())
            .unwrap()
            .ping()
            .expect("the next connection is served");
    }
}
