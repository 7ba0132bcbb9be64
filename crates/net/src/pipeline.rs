//! The one sender behind every push: a mapper's ingest fan-out, a
//! survivor's repair stream and a driver's load. A [`PushStream`] owns
//! a pushed stream's whole life on one pooled connection: it keeps up
//! to a window of batches in flight, awaits the oldest ack when the
//! window is full, lets the receiver's credit grant shrink the window
//! when its pool runs hot, sums the acks, and at the end checks the
//! connection back in or, after any failure, discards it. All three
//! fill their batches by one rule, [`PushBatch`]: a batch closes once
//! its encoded size reaches [`PUSH_BATCH_BYTES`].

use crate::client::PangeaClient;
use crate::pool::ClientPool;
use crate::proto::Request;
use pangea_common::{PangeaError, Result};
use pangea_obs::{names, TraceCtx};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// The pipeline window for pushes: how many batches may be in flight
/// on one connection before the sender awaits the oldest ack. The
/// receiver's credit grant is the only thing that shrinks it.
pub const PIPELINE_WINDOW: u32 = 8;

/// The one batch rule of every push — a mapper's ingest batches, a
/// survivor's repair batches and, through `pangea-cluster`'s default
/// `DispatchConfig`, a driver's load batches: a batch closes once its
/// encoded size reaches this many bytes. It is also the unit of a
/// receiver's credit grant.
pub const PUSH_BATCH_BYTES: usize = 128 * 1024;

/// Codec framing of one record in a batch: its `u32` length prefix.
const RECORD_FRAMING: usize = 4;

/// What one item adds to a batch's encoded size: its payload plus its
/// codec framing.
pub trait BatchEntry {
    /// The item's encoded size in a batch.
    fn encoded_len(&self) -> usize;

    /// The item's payload bytes, what its ack charges to the net ledger.
    fn payload_len(&self) -> usize;
}

/// A plain record (`Append`, `RecoverAppend`): 4 B of framing.
impl BatchEntry for Vec<u8> {
    fn encoded_len(&self) -> usize {
        RECORD_FRAMING + self.len()
    }

    fn payload_len(&self) -> usize {
        self.len()
    }
}

/// A tagged entry (`IngestAppend`): the tag travels as one 8-byte
/// record, so 16 B of framing.
impl BatchEntry for (u64, Vec<u8>) {
    fn encoded_len(&self) -> usize {
        RECORD_FRAMING + 8 + self.1.encoded_len()
    }

    fn payload_len(&self) -> usize {
        self.1.len()
    }
}

/// One destination's pending batch under the batch rule.
#[derive(Debug)]
pub struct PushBatch<T> {
    items: Vec<T>,
    encoded: usize,
    limit: usize,
}

impl<T: BatchEntry> PushBatch<T> {
    /// An empty batch that closes at `limit` encoded bytes; `0` closes
    /// it at every item.
    pub fn new(limit: usize) -> Self {
        Self {
            items: Vec::new(),
            encoded: 0,
            limit,
        }
    }

    /// Adds `item`, and hands the batch back once it is full.
    pub fn push(&mut self, item: T) -> Option<Vec<T>> {
        self.encoded += item.encoded_len();
        self.items.push(item);
        (self.encoded >= self.limit).then(|| self.take())
    }

    /// Takes what is pending, full or not, leaving the batch empty.
    pub fn take(&mut self) -> Vec<T> {
        self.encoded = 0;
        std::mem::take(&mut self.items)
    }
}

impl<T: BatchEntry> Default for PushBatch<T> {
    /// A batch under [`PUSH_BATCH_BYTES`].
    fn default() -> Self {
        Self::new(PUSH_BATCH_BYTES)
    }
}

/// One pushed stream to one daemon, from open to finish: a pooled
/// connection with up to a window of batches in flight on it, the
/// receiver's latest credit grant, and the acked totals so far.
///
/// A failed call discards the connection, and so does dropping the
/// stream before [`PushStream::finish`]: either way its state is
/// unknown. Every later call on a discarded stream fails typed. Only a
/// finished stream goes back to the pool, so each open ends in exactly
/// one check-in or discard.
#[derive(Debug)]
pub struct PushStream {
    pool: Arc<ClientPool>,
    addr: String,
    /// The connection; `None` once discarded or checked in.
    client: Option<PangeaClient>,
    /// `(correlation, payload_bytes)` of unacked batches, oldest first.
    inflight: VecDeque<(u64, usize)>,
    /// Latest credit grant from the receiver; `0` = nothing acked yet,
    /// treated as unconstrained.
    credit: u64,
    /// Acked `(appended, appended_bytes)`, summed over every ack.
    acked: (u64, u64),
}

impl PushStream {
    /// Checks a connection to `addr` out of `pool` (the pooled one when
    /// a ping proves it live, else a fresh dial) and sets the trace
    /// context every request on it carries.
    pub fn open(pool: &Arc<ClientPool>, addr: &str, ctx: Option<TraceCtx>) -> Result<Self> {
        let mut client = pool.checkout(addr)?;
        client.set_trace(ctx);
        Ok(Self {
            pool: Arc::clone(pool),
            addr: addr.to_string(),
            client: Some(client),
            inflight: VecDeque::new(),
            credit: 0,
            acked: (0, 0),
        })
    }

    /// Runs `f` on the connection: a plain call between batches, or the
    /// window's own submits and awaits. A failure discards the stream.
    pub(crate) fn call<R>(&mut self, f: impl FnOnce(&mut PangeaClient) -> Result<R>) -> Result<R> {
        let Some(client) = self.client.as_mut() else {
            let closed = format!("the push stream to {} is closed", self.addr);
            return Err(PangeaError::usage(closed));
        };
        let out = f(client);
        if out.is_err() {
            self.discard();
        }
        out
    }

    /// Sends one batch as the request `request` builds from it, without
    /// awaiting its ack: first the window gets room by awaiting the
    /// oldest acks. When it is the receiver's credit that made the
    /// window small, the wait counts as a credit stall: backpressure
    /// working as designed. An empty batch sends nothing.
    pub fn send<T: BatchEntry>(
        &mut self,
        batch: Vec<T>,
        request: impl FnOnce(Vec<T>) -> Request,
    ) -> Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        while self.inflight.len() >= self.window() {
            let credit_limited = self.window() < PIPELINE_WINDOW as usize;
            let start = Instant::now();
            self.await_oldest()?;
            if credit_limited {
                let reg = &self.pool.reg;
                reg.counter(names::NET_CREDIT_STALLS).inc();
                reg.counter(names::NET_CREDIT_STALLS_MS)
                    .add(start.elapsed().as_millis() as u64);
            }
        }
        let payload_bytes = batch.iter().map(BatchEntry::payload_len).sum();
        let corr = self.call(|c| c.submit(&request(batch)))?;
        self.inflight.push_back((corr, payload_bytes));
        self.pool
            .reg
            .histogram(names::NET_INFLIGHT)
            .observe(self.inflight.len() as u64);
        Ok(())
    }

    /// [`PushStream::finish_with`] and no closing call.
    pub fn finish(self) -> Result<(u64, u64)> {
        self.finish_with(|_| Ok(()))
    }

    /// Awaits every outstanding ack, makes the closing call `close`
    /// (a load's `AppendEnd`), checks the connection back in, and
    /// returns the acked `(appended, appended_bytes)` totals.
    pub fn finish_with(
        mut self,
        close: impl FnOnce(&mut PangeaClient) -> Result<()>,
    ) -> Result<(u64, u64)> {
        while !self.inflight.is_empty() {
            self.await_oldest()?;
        }
        self.call(close)?;
        if let Some(client) = self.client.take() {
            self.pool.checkin(&self.addr, client);
        }
        Ok(self.acked)
    }

    /// The window that gates the next send: [`PIPELINE_WINDOW`], shrunk
    /// by the receiver's latest credit grant. Never below 1 — a
    /// memory-pressured receiver throttles senders to strict-serial,
    /// it does not starve them (its spill machinery needs batches to
    /// keep arriving one at a time to make progress against).
    fn window(&self) -> usize {
        let window = PIPELINE_WINDOW as usize;
        if self.credit == 0 {
            window
        } else {
            window.min(self.credit as usize).max(1)
        }
    }

    /// Awaits the oldest outstanding ack, adding it to the totals and
    /// adopting the receiver's fresh credit grant.
    fn await_oldest(&mut self) -> Result<()> {
        if let Some((corr, payload_bytes)) = self.inflight.pop_front() {
            let (appended, bytes, credit) =
                self.call(|c| c.ingest_append_await(corr, payload_bytes))?;
            self.credit = credit;
            self.acked.0 += appended;
            self.acked.1 += bytes;
        }
        Ok(())
    }

    /// Closes the connection, if still held, without pooling it.
    fn discard(&mut self) {
        if let Some(client) = self.client.take() {
            self.pool.discard(client);
        }
    }
}

impl Drop for PushStream {
    /// A stream dropped before `finish` is discarded, never pooled.
    fn drop(&mut self) {
        self.discard();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::PangeadServer;
    use pangea_common::KB;
    use pangea_core::{NodeConfig, StorageNode};
    use pangea_obs::Registry;

    /// A daemon on an ephemeral port over a fresh node with a
    /// `pool_kb` KiB pool, and a client on it with an open ingest
    /// session for `out`.
    fn receiver(tag: &str, pool_kb: usize) -> (PangeadServer, String, PangeaClient) {
        let dir = std::env::temp_dir().join(format!("pangea-push-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = NodeConfig::new(dir)
            .with_pool_capacity(pool_kb * KB)
            .with_page_size(4 * KB);
        let server = PangeadServer::bind(StorageNode::new(config).unwrap(), "127.0.0.1:0").unwrap();
        let addr = server.local_addr().to_string();
        let mut c = PangeaClient::connect(&addr).unwrap();
        c.create_set("out", "write-through", None).unwrap();
        c.ingest_begin("out", None).unwrap();
        (server, addr, c)
    }

    /// A pool counting into a registry of its own.
    fn pool() -> (Arc<ClientPool>, Arc<Registry>) {
        let reg = Arc::new(Registry::new());
        (Arc::new(ClientPool::new(Arc::clone(&reg), None, None)), reg)
    }

    /// Asserts `pool.checkouts == pool.checkins + pool.drops` and
    /// returns `(checkins, drops)`.
    fn balanced(reg: &Registry) -> (u64, u64) {
        let n = |name| reg.counter(name).get();
        let (checkins, drops) = (n(names::POOL_CHECKINS), n(names::POOL_DROPS));
        assert_eq!(n(names::POOL_CHECKOUTS), checkins + drops);
        (checkins, drops)
    }

    /// Batch `b`: eight tagged records.
    fn entries(b: u64) -> Vec<(u64, Vec<u8>)> {
        (0..8)
            .map(|i| {
                let rec = format!("b{b}r{i}").into_bytes();
                (crate::wire::ingest_tag(0, b * 8 + i, &rec), rec)
            })
            .collect()
    }

    fn ingest(entries: Vec<(u64, Vec<u8>)>) -> Request {
        Request::IngestAppend {
            set: "out".into(),
            entries,
        }
    }

    #[test]
    fn finish_sums_every_ack_with_the_window_full_and_at_one() {
        let batches = 20u64;
        let bytes: u64 = (0..batches)
            .flat_map(entries)
            .map(|(_, rec)| rec.len() as u64)
            .sum();
        // A 4 MiB pool grants the whole window; a 128 KiB one grants a
        // window of 1, so every send after the first ack stalls on it.
        for (pool_kb, stalls) in [(4096, false), (128, true)] {
            let (_server, addr, mut c) = receiver(&format!("sum-{pool_kb}"), pool_kb);
            let (pool, reg) = pool();
            let mut stream = PushStream::open(&pool, &addr, None).unwrap();
            for b in 0..batches {
                stream.send(entries(b), ingest).unwrap();
            }
            stream.send(Vec::new(), ingest).unwrap();
            assert_eq!(stream.finish().unwrap(), (batches * 8, bytes));
            let stalled = reg.counter(names::NET_CREDIT_STALLS).get();
            assert_eq!(stalled > 0, stalls, "{pool_kb} KiB: {stalled} stalls");
            assert_eq!(balanced(&reg), (1, 0), "a finished stream is pooled");
            assert_eq!(c.ingest_end("out").unwrap(), (batches * 8, bytes));
        }
    }

    #[test]
    fn a_failed_send_discards_the_connection_and_later_calls_fail_typed() {
        let (_server, addr, mut c) = receiver("fail", 4096);
        c.ingest_end("out").unwrap();
        let (pool, reg) = pool();
        let mut stream = PushStream::open(&pool, &addr, None).unwrap();
        // A window of batches goes out unacked; the next send awaits the
        // oldest ack, which the sealed session refuses.
        for b in 0..u64::from(PIPELINE_WINDOW) {
            stream.send(entries(b), ingest).unwrap();
        }
        let refused = stream.send(entries(8), ingest).unwrap_err();
        assert!(matches!(refused, PangeaError::Remote(_)), "{refused:?}");
        assert_eq!(balanced(&reg), (0, 1), "the failed stream is discarded");
        let later = stream.send(entries(9), ingest).unwrap_err();
        assert!(matches!(later, PangeaError::InvalidUsage(_)), "{later:?}");
        let finished = stream.finish().unwrap_err();
        assert!(
            matches!(finished, PangeaError::InvalidUsage(_)),
            "{finished:?}"
        );
        assert_eq!(balanced(&reg), (0, 1), "discarded once, never pooled");
    }

    #[test]
    fn a_stream_dropped_unfinished_is_discarded() {
        let (_server, addr, _c) = receiver("drop", 4096);
        let (pool, reg) = pool();
        let mut stream = PushStream::open(&pool, &addr, None).unwrap();
        stream.send(entries(0), ingest).unwrap();
        drop(stream);
        assert_eq!(balanced(&reg), (0, 1));
        assert_eq!(pool.idle(), 0, "nothing went back to the pool");
    }

    /// A batch's encoded size grows by exactly what its request's
    /// encoding grows by: 16 B plus payload per tagged entry, 4 B plus
    /// payload per plain record.
    #[test]
    fn encoded_len_is_what_the_request_encoding_adds() {
        let ingest = |entries: Vec<(u64, Vec<u8>)>| {
            Request::IngestAppend {
                set: "s".into(),
                entries,
            }
            .encode()
            .len()
        };
        let repair = |records: Vec<Vec<u8>>| {
            Request::RecoverAppend {
                set: "s".into(),
                records,
            }
            .encode()
            .len()
        };
        let entries: Vec<(u64, Vec<u8>)> = vec![(7, b"the".to_vec()), (u64::MAX, vec![])];
        let records: Vec<Vec<u8>> = vec![b"a|1".to_vec(), vec![], vec![0; 300]];
        let tagged: usize = entries.iter().map(BatchEntry::encoded_len).sum();
        let plain: usize = records.iter().map(BatchEntry::encoded_len).sum();
        assert_eq!(tagged, 2 * 16 + 3);
        assert_eq!(ingest(entries) - ingest(vec![]), tagged);
        assert_eq!(repair(records) - repair(vec![]), plain);
    }

    #[test]
    fn a_batch_closes_when_its_encoded_size_reaches_the_limit() {
        // Three 6-byte records encode to 10 B each.
        let mut batch = PushBatch::new(30);
        assert!(batch.push(b"rec-01".to_vec()).is_none());
        assert!(batch.push(b"rec-02".to_vec()).is_none());
        let full = batch.push(b"rec-03".to_vec()).expect("30 B reached");
        assert_eq!(full.len(), 3);
        assert!(batch.take().is_empty(), "a closed batch starts empty");
        let mut single = PushBatch::new(0);
        assert_eq!(single.push(vec![]), Some(vec![vec![]]));
    }
}
