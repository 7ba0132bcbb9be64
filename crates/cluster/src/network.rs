//! Byte-counted, optionally throttled inter-node transport.
//!
//! The repository substitutes the paper's real cluster network with an
//! in-process channel that still *does the work* a network does: every
//! transfer serializes through a byte buffer (one copy out, one copy in),
//! is counted in [`IoStats`], and is paced by a token-bucket [`Throttle`]
//! when a bandwidth is configured. Relative shapes that depend on bytes
//! moved (shuffle vs. co-partitioned joins, recovery traffic) therefore
//! survive the substitution; see DESIGN.md §2.
//!
//! `SimNetwork` carries the in-process [`SimCluster`]; the same engine
//! runs over real sockets as `pangea-coord`'s `RemoteCluster`, whose
//! daemons charge payload bytes the same way (DESIGN.md §2a).
//!
//! [`SimCluster`]: crate::SimCluster

use pangea_common::{IoStats, NodeId, Result, Throttle};
use std::sync::Arc;

/// The simulated cluster interconnect.
#[derive(Debug, Clone)]
pub struct SimNetwork {
    throttle: Arc<Throttle>,
    stats: Arc<IoStats>,
}

impl SimNetwork {
    /// An unthrottled network (unit tests).
    pub fn unlimited() -> Self {
        Self {
            throttle: Arc::new(Throttle::unlimited()),
            stats: Arc::new(IoStats::new()),
        }
    }

    /// A network paced at `bytes_per_sec` aggregate bandwidth.
    pub fn with_bandwidth(bytes_per_sec: u64) -> Self {
        Self {
            throttle: Arc::new(Throttle::bytes_per_sec(bytes_per_sec)),
            stats: Arc::new(IoStats::new()),
        }
    }

    /// Network traffic counters.
    pub fn stats(&self) -> &Arc<IoStats> {
        &self.stats
    }

    /// Transfers `payload` from `from` to `to`: pays the copy, the
    /// accounting, and (if configured) the bandwidth pacing. Local
    /// deliveries (`from == to`) are free — Pangea reads local pages
    /// through shared memory (paper §5).
    pub fn transfer(&self, from: NodeId, to: NodeId, payload: &[u8]) -> Result<Vec<u8>> {
        if from == to {
            return Ok(payload.to_vec());
        }
        self.throttle.consume(payload.len());
        self.stats.record_net(payload.len());
        self.stats.record_copy(payload.len());
        Ok(payload.to_vec())
    }

    /// Total bytes moved across the wire so far.
    pub fn bytes_moved(&self) -> u64 {
        self.stats.snapshot().net_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remote_transfers_are_counted() {
        let net = SimNetwork::unlimited();
        let out = net.transfer(NodeId(0), NodeId(1), b"hello").unwrap();
        assert_eq!(out, b"hello");
        assert_eq!(net.bytes_moved(), 5);
        assert_eq!(net.stats().snapshot().net_messages, 1);
    }

    #[test]
    fn local_delivery_is_free() {
        let net = SimNetwork::unlimited();
        let out = net.transfer(NodeId(2), NodeId(2), b"local").unwrap();
        assert_eq!(out, b"local");
        assert_eq!(net.bytes_moved(), 0);
    }

    #[test]
    fn throttled_network_still_delivers() {
        let net = SimNetwork::with_bandwidth(100 * pangea_common::MB as u64);
        for i in 0..10u8 {
            let out = net.transfer(NodeId(0), NodeId(1), &[i; 100]).unwrap();
            assert_eq!(out, [i; 100]);
        }
        assert_eq!(net.bytes_moved(), 1000);
    }
}
