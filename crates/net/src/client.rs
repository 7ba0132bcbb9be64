//! A thin synchronous client for `pangead`.
//!
//! One client owns one connection. Every request is a correlated frame:
//! [`PangeaClient::submit`] sends it and [`PangeaClient::await_response`]
//! reads its answer, parking answers to other outstanding submits, so a
//! pipelined sender keeps a window of batches in flight. A plain
//! [`PangeaClient::call`] is the same path with a window of one. Typed
//! methods mirror the paper's node API (`createSet`, `addObject`, the
//! sequential scan) so an application can talk to a remote node with the
//! same vocabulary it uses in-process.

use crate::algebra::{ReduceSpec, TaskReport, TaskSpec};
use crate::frame::{read_frame_corr, write_frame_corr, FRAME_OVERHEAD};
use crate::proto::{Request, Response};
use crate::wire::{wire_struct, RepairFilter, RepairPushReport, Wire, WireMetric, WireSpan};
use pangea_common::{ByteReader, ByteWriter, FxHashMap, IoStats, PangeaError, Result};
use pangea_obs::TraceCtx;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::Arc;

/// One reply of a cursor-paged read: its items, and the `(page,
/// record)` cursor to resume at when more follow.
pub type Chunk<T> = (Vec<T>, Option<(u64, u64)>);

/// Counter snapshot reported by a remote node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RemoteStats {
    /// Payload bytes the remote daemon received.
    pub net_bytes: u64,
    /// Wire payload messages the remote daemon handled.
    pub net_messages: u64,
    /// Bytes the remote node read from its disks.
    pub disk_read_bytes: u64,
    /// Bytes the remote node wrote to its disks.
    pub disk_write_bytes: u64,
    /// Peer-repair payload bytes the remote daemon moved worker→worker.
    pub repair_bytes: u64,
    /// Map-shuffle payload bytes the remote daemon moved worker→worker.
    pub shuffle_bytes: u64,
    /// Buffer-pool page pins satisfied from resident frames.
    pub paging_hits: u64,
    /// Buffer-pool page pins that had to read from disk.
    pub paging_misses: u64,
    /// Pages evicted from the pool to make room.
    pub paging_evictions: u64,
    /// Bytes the remote node wrote to disk via spills and dirty
    /// evictions.
    pub paging_spill_bytes: u64,
    /// Bytes currently resident in the remote node's buffer pool.
    pub pool_used_bytes: u64,
    /// The remote node's total buffer-pool capacity in bytes.
    pub pool_capacity_bytes: u64,
}

wire_struct! {
    RemoteStats {
        net_bytes, net_messages, disk_read_bytes, disk_write_bytes, repair_bytes, shuffle_bytes,
        paging_hits, paging_misses, paging_evictions, paging_spill_bytes, pool_used_bytes,
        pool_capacity_bytes
    }
}

/// A connected `pangead` client.
#[derive(Debug)]
pub struct PangeaClient {
    stream: TcpStream,
    addr: SocketAddr,
    stats: Arc<IoStats>,
    /// When set, every outgoing request carries this [`TraceCtx`] in its
    /// header (see `Request::encode_traced`).
    trace: Option<TraceCtx>,
    /// Next correlation id handed out by [`PangeaClient::submit`].
    /// Starts at 1 — the server answers correlation 0 only with
    /// connection-level errors.
    next_corr: u64,
    /// Responses that arrived while awaiting a different correlation id
    /// (out-of-order completion), parked until their id is awaited.
    parked: FxHashMap<u64, Response>,
    /// Correlation ids submitted but not yet awaited.
    inflight: usize,
}

impl PangeaClient {
    /// Connects to a `pangead` at `addr`.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self> {
        Self::connect_with(addr, None, None)
    }

    /// Connects and, when `secret` is given, performs the
    /// [`Request::Hello`] handshake before returning. A rejected
    /// handshake surfaces as [`PangeaError::Unauthenticated`].
    pub fn connect_with_secret(addr: impl ToSocketAddrs, secret: Option<&str>) -> Result<Self> {
        Self::connect_with(addr, secret, None)
    }

    /// Full-control constructor: optional handshake secret, and an
    /// optional externally owned counter set so several clients (e.g.
    /// one per worker in a `RemoteCluster`) can share one ledger.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        secret: Option<&str>,
        stats: Option<Arc<IoStats>>,
    ) -> Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let addr = stream.peer_addr()?;
        let mut client = Self {
            stream,
            addr,
            stats: stats.unwrap_or_else(|| Arc::new(IoStats::new())),
            trace: None,
            next_corr: 1,
            parked: FxHashMap::default(),
            inflight: 0,
        };
        if let Some(secret) = secret {
            match client.call(&Request::Hello {
                secret: secret.to_string(),
            })? {
                Response::Ok => {}
                other => return Err(Self::unexpected(other)),
            }
        }
        Ok(client)
    }

    /// The server's address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Client-side wire counters (serialized request/response bytes).
    pub fn stats(&self) -> &Arc<IoStats> {
        &self.stats
    }

    /// Attaches (or, with `None`, clears) the trace context every
    /// subsequent request on this connection propagates. Callers that
    /// pool connections must clear it on check-in.
    pub fn set_trace(&mut self, ctx: Option<TraceCtx>) {
        self.trace = ctx;
    }

    /// The trace context currently attached to this connection.
    pub fn trace(&self) -> Option<TraceCtx> {
        self.trace
    }

    /// One round trip: [`PangeaClient::submit`] then
    /// [`PangeaClient::await_response`]. Pipelined submits may still be
    /// outstanding; their answers are parked for their own awaits.
    /// Error responses become typed errors.
    pub fn call(&mut self, req: &Request) -> Result<Response> {
        let corr = self.submit(req)?;
        self.await_response(corr)
    }

    /// Sends `req` without waiting for its response; returns the
    /// correlation id to pass to [`PangeaClient::await_response`]. Up to
    /// the caller's window of submits may be outstanding at once — the
    /// server executes them in submission order per connection and may
    /// complete them out of order across sessions.
    pub fn submit(&mut self, req: &Request) -> Result<u64> {
        let corr = self.next_corr;
        let encoded = req.encode_traced(self.trace.as_ref());
        self.stats
            .record_serialization(encoded.len() + FRAME_OVERHEAD);
        write_frame_corr(&mut self.stream, corr, &encoded)?;
        self.next_corr += 1;
        self.inflight += 1;
        Ok(corr)
    }

    /// Awaits the response to a prior [`PangeaClient::submit`].
    /// Responses to *other* outstanding submits that arrive first are
    /// parked and handed out when their id is awaited, so completion
    /// order is free. A correlation-0 frame is a connection-level
    /// server error (e.g. [`Response::Busy`] from the accept path) and
    /// fails the await typed.
    pub fn await_response(&mut self, corr: u64) -> Result<Response> {
        self.inflight = self.inflight.saturating_sub(1);
        if let Some(resp) = self.parked.remove(&corr) {
            return resp.into_result();
        }
        loop {
            let (got, payload) =
                read_frame_corr(&mut self.stream)?.ok_or_else(Self::closed_early)?;
            self.stats
                .record_serialization(payload.len() + FRAME_OVERHEAD);
            let resp = Response::decode(&payload)?;
            if got == corr {
                return resp.into_result();
            }
            if got == 0 {
                // Not an answer to any submit: the server speaks corr 0
                // only for connection-level rejections.
                resp.into_result()?;
                return Err(PangeaError::Corruption(
                    "uncorrelated response while awaiting a pipelined request".to_string(),
                ));
            }
            self.parked.insert(got, resp);
        }
    }

    /// Pipelined requests submitted but not yet awaited.
    pub fn pipelined(&self) -> usize {
        self.inflight
    }

    fn closed_early() -> PangeaError {
        PangeaError::Io(Arc::new(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "server closed the connection mid-request",
        )))
    }

    fn unexpected(resp: Response) -> PangeaError {
        PangeaError::Remote(format!("unexpected response: {resp:?}"))
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<()> {
        match self.call(&Request::Ping)? {
            Response::Ok => Ok(()),
            other => Err(Self::unexpected(other)),
        }
    }

    /// `createSet(name, durability)` on the remote node; returns the raw
    /// remote set id.
    pub fn create_set(
        &mut self,
        name: &str,
        durability: &str,
        page_size: Option<usize>,
    ) -> Result<u64> {
        let req = Request::CreateSet {
            name: name.to_string(),
            durability: durability.to_string(),
            page_size: page_size.map(|p| p as u64),
        };
        match self.call(&req)? {
            Response::Created { set } => Ok(set),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Sends one batch of records into the remote set's loader writer
    /// and returns `(correlation, payload_bytes)` for a later
    /// [`PangeaClient::ingest_append_await`]; a load ends with
    /// [`PangeaClient::append_end`]. Takes the batch by value: the
    /// hot path hands its buffer over instead of copying every payload
    /// byte a second time. Net-payload accounting is deferred to the ack.
    pub fn append_submit(&mut self, set: &str, records: Vec<Vec<u8>>) -> Result<(u64, usize)> {
        let payload_bytes: usize = records.iter().map(Vec::len).sum();
        let corr = self.submit(&Request::Append {
            set: set.to_string(),
            records,
        })?;
        Ok((corr, payload_bytes))
    }

    /// Seals the tail page of the remote set's loader writer: once this
    /// returns, every record appended before it is durable. Idempotent.
    pub fn append_end(&mut self, set: &str) -> Result<()> {
        let req = Request::AppendEnd {
            set: set.to_string(),
        };
        match self.call(&req)? {
            Response::Ok => Ok(()),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Reads every record of a remote set, in storage order, collected
    /// from the replies of [`PangeaClient::scan_chunk`].
    pub fn scan(&mut self, set: &str) -> Result<Vec<Vec<u8>>> {
        let mut all = Vec::new();
        for_each_chunk(
            "scan",
            |cursor| self.scan_chunk(set, cursor),
            |records| {
                all.extend(records);
                Ok(())
            },
        )?;
        Ok(all)
    }

    /// One reply of a paged scan: the remote set's records from the
    /// `(page, record)` cursor on, closed at [`crate::PUSH_BATCH_BYTES`],
    /// plus the cursor to resume at when more follow. Charges the
    /// records' payload bytes to this client's ledger. A cursor names a
    /// reply, so asking again for the same cursor is idempotent.
    pub fn scan_chunk(
        &mut self,
        set: &str,
        (start_page, start_record): (u64, u64),
    ) -> Result<Chunk<Vec<u8>>> {
        let req = Request::Scan {
            set: set.to_string(),
            start_page,
            start_record,
        };
        match self.call(&req)? {
            Response::Records { records, next } => {
                let bytes: usize = records.iter().map(Vec::len).sum();
                self.stats.record_net(bytes);
                Ok((records, next))
            }
            other => Err(Self::unexpected(other)),
        }
    }

    /// Counts a remote set's records server-side (no payload bytes
    /// cross the wire).
    pub fn count(&mut self, set: &str) -> Result<u64> {
        let req = Request::Count {
            set: set.to_string(),
        };
        match self.call(&req)? {
            Response::Count { records } => Ok(records),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Streams the remote set's record hashes, in storage order, one
    /// wire chunk at a time (no payload crosses the wire — the peer pull
    /// of a repair session). The client never holds more than one chunk,
    /// so a share of any size seeds a ledger with bounded heap.
    pub fn hash_list_for_each(
        &mut self,
        set: &str,
        f: impl FnMut(Vec<u64>) -> Result<()>,
    ) -> Result<()> {
        let request = |(start_page, start_record)| Request::HashList {
            set: set.to_string(),
            start_page,
            start_record,
        };
        for_each_chunk("hash-list", |cursor| self.hashes(&request(cursor)), f)
    }

    /// One [`Response::Hashes`] chunk and its resume cursor.
    fn hashes(&mut self, req: &Request) -> Result<Chunk<u64>> {
        match self.call(req)? {
            Response::Hashes { hashes, next } => Ok((hashes, next)),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Opens a repair session for `set` on the remote node, seeding its
    /// dedup ledger from the peers in `present_from`.
    pub fn recover_begin(&mut self, set: &str, present_from: &[String]) -> Result<()> {
        let req = Request::RecoverBegin {
            set: set.to_string(),
            present_from: present_from.to_vec(),
        };
        match self.call(&req)? {
            Response::Ok => Ok(()),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Seals a repair session; returns its `(appended, appended_bytes)`
    /// totals.
    pub fn recover_end(&mut self, set: &str) -> Result<(u64, u64)> {
        let req = Request::RecoverEnd {
            set: set.to_string(),
        };
        match self.call(&req)? {
            Response::SessionAck {
                appended, bytes, ..
            } => Ok((appended, bytes)),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Orders the remote node (a survivor) to stream its filtered share
    /// of `source_set` straight to `target_set` on the `pangead` at
    /// `target_addr`. No payload crosses *this* connection — only the
    /// push outcome comes back.
    pub fn recover_push(
        &mut self,
        source_set: &str,
        target_set: &str,
        target_addr: &str,
        filter: &RepairFilter,
    ) -> Result<RepairPushReport> {
        let req = Request::RecoverPush {
            source_set: source_set.to_string(),
            target_set: target_set.to_string(),
            target_addr: target_addr.to_string(),
            filter: filter.clone(),
        };
        match self.call(&req)? {
            Response::Pushed { report } => Ok(report),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Runs one shipped map task on the remote worker (the task scans
    /// its local input share and streams routed batches straight to the
    /// destination workers). No record payload crosses *this*
    /// connection — only the task outcome comes back.
    pub fn run_task(&mut self, spec: &TaskSpec) -> Result<TaskReport> {
        let req = Request::TaskRun { spec: spec.clone() };
        match self.call(&req)? {
            Response::TaskDone { report } => Ok(report),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Opens (or resets) a shuffle-ingest session for `set` on the
    /// remote node, truncating its local share of the set. With a
    /// `reduce`, the session keeps each source's incoming `key|value`
    /// partials as a sorted run instead of appending records, and
    /// merges the runs into one record per key at
    /// [`PangeaClient::ingest_end`].
    pub fn ingest_begin(&mut self, set: &str, reduce: Option<&ReduceSpec>) -> Result<()> {
        let req = Request::IngestBegin {
            set: set.to_string(),
            reduce: reduce.cloned(),
        };
        match self.call(&req)? {
            Response::Ok => Ok(()),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Streams the remote repair-session ledger one wire chunk at a
    /// time, handing each chunk to `f` as it arrives. The client never
    /// holds more than one chunk in memory, so a survivor can diff
    /// against an arbitrarily large replacement ledger with bounded
    /// heap.
    pub fn repair_ledger_for_each(
        &mut self,
        set: &str,
        f: impl FnMut(Vec<u64>) -> Result<()>,
    ) -> Result<()> {
        // The ledger's cursor is an entry index, carried in the second
        // half of the shared `(page, record)` cursor.
        let request = |(_, start)| Request::RepairLedger {
            set: set.to_string(),
            start,
        };
        for_each_chunk("repair-ledger", |cursor| self.hashes(&request(cursor)), f)
    }

    /// Pulls the remote daemon's full observability dump: every
    /// registered metric plus all retained span records, following the
    /// `(metrics, spans)` cursor pair until the server reports no more
    /// (mirroring [`for_each_chunk`]'s pagination, with the same
    /// no-progress corruption check).
    pub fn metrics_dump(&mut self) -> Result<(Vec<WireMetric>, Vec<WireSpan>)> {
        let (metrics, spans, _) = self.metrics_dump_since(0)?;
        Ok((metrics, spans))
    }

    /// The incremental form of [`PangeaClient::metrics_dump`] the
    /// manager's scrape loop runs on: spans are pulled from ring
    /// sequence `from` only, and the returned cursor is where the
    /// *next* scrape should resume — one past the last span shipped, or
    /// parked at `from` when nothing new happened (so an idle fleet
    /// transfers metrics but zero spans, scrape after scrape). A ring
    /// that wrapped past `from` shows up as a first span sequence
    /// greater than the cursor; callers diff the two to report loss.
    pub fn metrics_dump_since(
        &mut self,
        from: u64,
    ) -> Result<(Vec<WireMetric>, Vec<WireSpan>, u64)> {
        let (mut metrics, mut spans) = (Vec::new(), Vec::new());
        let (mut metrics_start, mut spans_start) = (0u64, from);
        loop {
            let req = Request::MetricsDump {
                metrics_start,
                spans_start,
            };
            match self.call(&req)? {
                Response::Metrics {
                    metrics: m,
                    spans: s,
                    next,
                } => {
                    let advanced = !m.is_empty() || !s.is_empty();
                    metrics.extend(m);
                    spans.extend(s);
                    match next {
                        Some((mn, sn)) => {
                            if !advanced && mn <= metrics_start && sn <= spans_start {
                                return Err(PangeaError::Corruption(format!(
                                    "metrics-dump cursor did not advance past \
                                     ({metrics_start}, {spans_start})"
                                )));
                            }
                            metrics_start = mn;
                            spans_start = sn;
                        }
                        None => {
                            let cursor = spans.last().map(|s: &WireSpan| s.seq + 1).unwrap_or(
                                // Nothing shipped in the final chunk:
                                // the parked cursor (or `from` when the
                                // whole dump was one quiet chunk) is
                                // already right.
                                spans_start,
                            );
                            return Ok((metrics, spans, cursor));
                        }
                    }
                }
                other => return Err(Self::unexpected(other)),
            }
        }
    }

    /// Sends one batch of tagged records into an open ingest session and
    /// returns `(correlation, payload_bytes)` for a later
    /// [`PangeaClient::ingest_append_await`], which reports what the tag
    /// dedup appended. Takes the batch by value, like
    /// [`PangeaClient::append_submit`].
    pub fn ingest_append_submit(
        &mut self,
        set: &str,
        entries: Vec<(u64, Vec<u8>)>,
    ) -> Result<(u64, usize)> {
        let payload_bytes: usize = entries.iter().map(|(_, r)| r.len()).sum();
        let corr = self.submit(&Request::IngestAppend {
            set: set.to_string(),
            entries,
        })?;
        Ok((corr, payload_bytes))
    }

    /// Awaits one pipelined batch — a submitted `Append` (see
    /// [`PangeaClient::append_submit`]), `IngestAppend` (see
    /// [`PangeaClient::ingest_append_submit`]) or `RecoverAppend`,
    /// which all ack with one [`Response::SessionAck`]; returns
    /// `(appended, appended_bytes, credit)` — `credit` is the
    /// receiver's current pool-residency grant, at least 1.
    pub fn ingest_append_await(
        &mut self,
        corr: u64,
        payload_bytes: usize,
    ) -> Result<(u64, u64, u64)> {
        match self.await_response(corr)? {
            Response::SessionAck {
                appended,
                bytes,
                credit,
            } => {
                self.stats.record_net(payload_bytes);
                Ok((appended, bytes, credit))
            }
            other => Err(Self::unexpected(other)),
        }
    }

    /// Seals an ingest session; returns its `(appended, appended_bytes)`
    /// totals. Idempotent on the daemon (sealed-totals tombstone).
    pub fn ingest_end(&mut self, set: &str) -> Result<(u64, u64)> {
        let req = Request::IngestEnd {
            set: set.to_string(),
        };
        match self.call(&req)? {
            Response::SessionAck {
                appended, bytes, ..
            } => Ok((appended, bytes)),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Drops a remote locality set.
    pub fn drop_set(&mut self, set: &str) -> Result<()> {
        let req = Request::DropSet {
            set: set.to_string(),
        };
        match self.call(&req)? {
            Response::Ok => Ok(()),
            other => Err(Self::unexpected(other)),
        }
    }

    /// The remote node's counter snapshot.
    pub fn remote_stats(&mut self) -> Result<RemoteStats> {
        match self.call(&Request::Stats)? {
            Response::Stats { stats } => Ok(stats),
            other => Err(Self::unexpected(other)),
        }
    }
}

/// The one loop behind every cursor-paged read — `Scan`, `HashList` and
/// `RepairLedger`: asks `fetch(cursor)` from `(0, 0)` on and hands every
/// chunk to `f` as it arrives, until a reply names no continuation.
/// Each `fetch` is one request for one chunk, so a caller that retries
/// a failed request (a stale pooled connection) retries only that
/// chunk: the cursor names it, and asking again is idempotent.
pub fn for_each_chunk<T>(
    what: &str,
    mut fetch: impl FnMut((u64, u64)) -> Result<Chunk<T>>,
    mut f: impl FnMut(Vec<T>) -> Result<()>,
) -> Result<()> {
    let mut cursor = (0u64, 0u64);
    loop {
        let (chunk, next) = fetch(cursor)?;
        // A continuation must make progress, or a confused server would
        // loop us forever.
        if matches!(next, Some(n) if chunk.is_empty() || n <= cursor) {
            return Err(PangeaError::Corruption(format!(
                "{what} cursor did not advance past {cursor:?}"
            )));
        }
        f(chunk)?;
        match next {
            Some(n) => cursor = n,
            None => return Ok(()),
        }
    }
}
