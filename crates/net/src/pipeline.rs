//! The one window loop behind every pipelined push: a mapper's ingest
//! fan-out, a survivor's repair stream and a driver's load. Each keeps
//! up to a window of batches in flight on one connection, awaits the
//! oldest ack when the window is full, and lets the receiver's credit
//! grant shrink the window when its pool runs hot. All three fill their
//! batches by one rule, [`PushBatch`]: a batch closes once its encoded
//! size reaches [`PUSH_BATCH_BYTES`].

use crate::client::PangeaClient;
use pangea_common::Result;
use pangea_obs::{names, Registry};
use std::collections::VecDeque;
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
}

/// A plain record (`Append`, `RecoverAppend`): 4 B of framing.
impl BatchEntry for Vec<u8> {
    fn encoded_len(&self) -> usize {
        RECORD_FRAMING + self.len()
    }
}

/// A tagged entry (`IngestAppend`): the tag travels as one 8-byte
/// record, so 16 B of framing.
impl BatchEntry for (u64, Vec<u8>) {
    fn encoded_len(&self) -> usize {
        RECORD_FRAMING + 8 + self.1.encoded_len()
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

/// A connection plus its pipelined-push state: the correlation ids of
/// unacked submits (oldest first, each with the payload bytes it
/// carried, for ack-time net accounting) and the receiver's latest
/// credit grant.
#[derive(Debug)]
pub struct PipelinedPeer {
    pub(crate) client: PangeaClient,
    /// `(correlation, payload_bytes)` of unacked submits, oldest first.
    inflight: VecDeque<(u64, usize)>,
    /// Latest credit grant from the receiver; `0` = nothing acked yet,
    /// treated as unconstrained.
    credit: u64,
}

impl PipelinedPeer {
    /// Wraps a connection with nothing in flight.
    pub fn new(client: PangeaClient) -> Self {
        Self {
            client,
            inflight: VecDeque::new(),
            credit: 0,
        }
    }

    /// The connection, for plain calls between pipelined submits.
    pub fn client(&mut self) -> &mut PangeaClient {
        &mut self.client
    }

    /// Gives the connection back. Drain first: a connection with acks
    /// still in flight is not idle.
    pub fn into_client(self) -> PangeaClient {
        self.client
    }

    /// The window that gates the next submit: [`PIPELINE_WINDOW`],
    /// shrunk by the receiver's latest credit grant. Never below 1 — a
    /// memory-pressured receiver throttles senders to strict-serial,
    /// it does not starve them (its spill machinery needs batches to
    /// keep arriving one at a time to make progress against).
    fn effective_window(&self) -> usize {
        let window = PIPELINE_WINDOW as usize;
        if self.credit == 0 {
            window
        } else {
            window.min(self.credit as usize).max(1)
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
        let (appended, bytes, credit) = self.client.ingest_append_await(corr, payload_bytes)?;
        self.credit = credit;
        Ok((appended, bytes))
    }

    /// One pipelined submit: make window room (awaiting the oldest
    /// acks), then send. When it is the receiver's *credit* that made
    /// the window small, the wait is counted in `reg` as a credit
    /// stall: backpressure working as designed. Returns the totals of
    /// whatever acks were drained for room — not this batch's, which
    /// surface from a later submit or [`PipelinedPeer::drain`].
    pub fn submit(
        &mut self,
        reg: &Registry,
        submit: impl FnOnce(&mut PangeaClient) -> Result<(u64, usize)>,
    ) -> Result<(u64, u64)> {
        let (mut appended, mut bytes) = (0u64, 0u64);
        while self.inflight.len() >= self.effective_window() {
            let credit_limited = self.effective_window() < PIPELINE_WINDOW as usize;
            let start = Instant::now();
            let (a, b) = self.await_oldest()?;
            appended += a;
            bytes += b;
            if credit_limited {
                reg.counter(names::NET_CREDIT_STALLS).inc();
                reg.counter(names::NET_CREDIT_STALLS_MS)
                    .add(start.elapsed().as_millis() as u64);
            }
        }
        let (corr, payload_bytes) = submit(&mut self.client)?;
        self.inflight.push_back((corr, payload_bytes));
        reg.histogram(names::NET_INFLIGHT)
            .observe(self.inflight.len() as u64);
        Ok((appended, bytes))
    }

    /// Awaits every outstanding ack — a connection goes back to a pool
    /// only once nothing is in flight — and returns their summed totals.
    pub fn drain(&mut self) -> Result<(u64, u64)> {
        let (mut appended, mut bytes) = (0u64, 0u64);
        while !self.inflight.is_empty() {
            let (a, b) = self.await_oldest()?;
            appended += a;
            bytes += b;
        }
        Ok((appended, bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::Request;

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
