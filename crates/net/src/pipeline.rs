//! The one window loop behind every pipelined push: a mapper's ingest
//! fan-out, a survivor's repair stream and a driver's load. Each keeps
//! up to a window of batches in flight on one connection, awaits the
//! oldest ack when the window is full, and lets the receiver's credit
//! grant shrink the window when its pool runs hot.

use crate::client::PangeaClient;
use pangea_common::Result;
use pangea_obs::{names, Registry};
use std::collections::VecDeque;
use std::time::Instant;

/// The pipeline window for pushes: how many batches may be in flight
/// on one connection before the sender awaits the oldest ack. The
/// receiver's credit grant is the only thing that shrinks it.
pub const PIPELINE_WINDOW: u32 = 8;

/// Ceiling on any credit grant: the most unacked batches a receiver
/// invites one sender to park in its socket and session state (about
/// 8 MB at the daemon's 128 KB batch ceiling).
pub const MAX_PIPELINE_WINDOW: u32 = 64;

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
