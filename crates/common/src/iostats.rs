//! I/O statistics counters.
//!
//! Every disk, buffer pool, and network path in the workspace feeds these
//! counters. The paper's analysis repeatedly argues from I/O *volume* (e.g.
//! "the average size of data written to disk by page-out operations is
//! 5074.2 MB (2.5× of Pangea)", §9.2.1); the benches report the same volumes
//! from these counters so the shape of each comparison is auditable even on
//! hardware whose raw speeds differ from the paper's testbed.
//!
//! Since the observability PR, [`IoStats`] is a *view* over a
//! [`pangea_obs::Registry`]: every counter is registered under an
//! `io.`-prefixed name, so a `MetricsDump` of the owning process reports
//! the same numbers these typed accessors do. The typed API (and its
//! exact byte accounting, which the SimNetwork parity and remote
//! payload-delta tests assert on) is unchanged.

use pangea_obs::{names, Counter, Registry};
use std::sync::Arc;

/// Shared, thread-safe counters for one subsystem (a disk manager, a buffer
/// pool, a simulated network, ...), backed by named registry counters.
#[derive(Debug)]
pub struct IoStats {
    registry: Arc<Registry>,
    disk_reads: Counter,
    disk_read_bytes: Counter,
    disk_writes: Counter,
    disk_write_bytes: Counter,
    pages_evicted: Counter,
    pages_flushed: Counter,
    net_messages: Counter,
    net_bytes: Counter,
    serializations: Counter,
    serialized_bytes: Counter,
    copies: Counter,
    copied_bytes: Counter,
    repairs: Counter,
    repair_bytes: Counter,
    shuffles: Counter,
    shuffle_map_bytes: Counter,
    shuffle_reduce_bytes: Counter,
    /// `io.disk_write_bytes.{seal,spill,evict}`, indexed by [`WriteCause`].
    write_cause_bytes: [Counter; 3],
}

/// Why a page was written to disk: the split of `io.disk_write_bytes`
/// that says which storage path wrote a workload's bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteCause {
    /// A writer sealed a full (or final) page of a write-through set.
    Seal,
    /// A service spilled a pinned page it could no longer keep resident.
    Spill,
    /// A dirty page was written back before it left the pool.
    Evict,
}

impl WriteCause {
    /// Every cause, in counter order.
    pub const ALL: [WriteCause; 3] = [Self::Seal, Self::Spill, Self::Evict];

    /// The metric this cause's bytes are counted under.
    pub fn metric(self) -> &'static str {
        match self {
            Self::Seal => names::IO_DISK_WRITE_BYTES_SEAL,
            Self::Spill => names::IO_DISK_WRITE_BYTES_SPILL,
            Self::Evict => names::IO_DISK_WRITE_BYTES_EVICT,
        }
    }
}

impl Default for IoStats {
    fn default() -> Self {
        Self::new()
    }
}

impl IoStats {
    /// Creates zeroed counters over a fresh registry.
    pub fn new() -> Self {
        Self::with_registry(Arc::new(Registry::new()))
    }

    /// Creates the `io.*` counter views over an existing registry, so a
    /// process's RPC metrics and its I/O volumes share one
    /// `MetricsDump`.
    pub fn with_registry(registry: Arc<Registry>) -> Self {
        Self {
            disk_reads: registry.counter(names::IO_DISK_READS),
            disk_read_bytes: registry.counter(names::IO_DISK_READ_BYTES),
            disk_writes: registry.counter(names::IO_DISK_WRITES),
            disk_write_bytes: registry.counter(names::IO_DISK_WRITE_BYTES),
            pages_evicted: registry.counter(names::IO_PAGES_EVICTED),
            pages_flushed: registry.counter(names::IO_PAGES_FLUSHED),
            net_messages: registry.counter(names::IO_NET_MESSAGES),
            net_bytes: registry.counter(names::IO_NET_BYTES),
            serializations: registry.counter(names::IO_SERIALIZATIONS),
            serialized_bytes: registry.counter(names::IO_SERIALIZED_BYTES),
            copies: registry.counter(names::IO_COPIES),
            copied_bytes: registry.counter(names::IO_COPIED_BYTES),
            repairs: registry.counter(names::IO_REPAIRS),
            repair_bytes: registry.counter(names::IO_REPAIR_BYTES),
            shuffles: registry.counter(names::IO_SHUFFLES),
            shuffle_map_bytes: registry.counter(names::IO_SHUFFLE_BYTES_MAP),
            shuffle_reduce_bytes: registry.counter(names::IO_SHUFFLE_BYTES_REDUCE),
            write_cause_bytes: WriteCause::ALL.map(|cause| registry.counter(cause.metric())),
            registry,
        }
    }

    /// The registry these counters are registered in — the seam the
    /// daemons use to put RPC metrics and I/O volumes in one dump.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Records one disk read of `bytes`.
    #[inline]
    pub fn record_disk_read(&self, bytes: usize) {
        self.disk_reads.inc();
        self.disk_read_bytes.add(bytes as u64);
    }

    /// Records one disk write of `bytes`.
    #[inline]
    pub fn record_disk_write(&self, bytes: usize) {
        self.disk_writes.inc();
        self.disk_write_bytes.add(bytes as u64);
    }

    /// Attributes `bytes` of page writes (already counted by
    /// [`IoStats::record_disk_write`]) to the path that wrote them.
    #[inline]
    pub fn record_write_cause(&self, cause: WriteCause, bytes: usize) {
        self.write_cause_bytes[cause as usize].add(bytes as u64);
    }

    /// Page bytes written for `cause` so far.
    pub fn write_cause_bytes(&self, cause: WriteCause) -> u64 {
        self.write_cause_bytes[cause as usize].get()
    }

    /// Records one page eviction from a buffer pool.
    #[inline]
    pub fn record_eviction(&self) {
        self.pages_evicted.inc();
    }

    /// Records one dirty-page flush.
    #[inline]
    pub fn record_flush(&self) {
        self.pages_flushed.inc();
    }

    /// Records one network message of `bytes`.
    #[inline]
    pub fn record_net(&self, bytes: usize) {
        self.record_net_batch(1, bytes);
    }

    /// Records `messages` network messages of `bytes` in all — a
    /// received batch, charged once instead of once per record.
    #[inline]
    pub fn record_net_batch(&self, messages: usize, bytes: usize) {
        self.net_messages.add(messages as u64);
        self.net_bytes.add(bytes as u64);
    }

    /// Records one (de)serialization pass over `bytes` — the "interfacing
    /// overhead" the paper charges layered systems for.
    #[inline]
    pub fn record_serialization(&self, bytes: usize) {
        self.serializations.inc();
        self.serialized_bytes.add(bytes as u64);
    }

    /// Records one buffer-to-buffer copy of `bytes` (client↔server, layer
    /// crossings).
    #[inline]
    pub fn record_copy(&self, bytes: usize) {
        self.copies.inc();
        self.copied_bytes.add(bytes as u64);
    }

    /// Records one peer-repair transfer of `bytes` — payload moved
    /// directly between workers during replica recovery, attributed
    /// separately from ordinary dispatch traffic so a recovery run can
    /// prove its data flowed worker→worker rather than through the
    /// driver (which records `net` bytes, never `repair` bytes).
    #[inline]
    pub fn record_repair(&self, bytes: usize) {
        self.repairs.inc();
        self.repair_bytes.add(bytes as u64);
    }

    /// Records one map-shuffle transfer of `bytes` — payload a mapper
    /// streamed directly to a destination worker during a distributed
    /// map-shuffle, attributed separately from dispatch traffic so a
    /// shuffle run can prove its data flowed worker→worker rather than
    /// through the driver (the driver records `net` bytes, never
    /// `shuffle` bytes — mirroring [`IoStats::record_repair`]). This is
    /// the map-mode label; reducing sessions use
    /// [`IoStats::record_shuffle_reduce`].
    #[inline]
    pub fn record_shuffle(&self, bytes: usize) {
        self.shuffles.inc();
        self.shuffle_map_bytes.add(bytes as u64);
    }

    /// Records one *reducing* shuffle transfer of `bytes`: payload that
    /// flowed into a combine/reduce ingest session rather than a plain
    /// map-only append. Totals still land in
    /// [`IoStatsSnapshot::shuffle_bytes`]; the map/reduce split is the
    /// `io.shuffle_bytes.{map,reduce}` label pair.
    #[inline]
    pub fn record_shuffle_reduce(&self, bytes: usize) {
        self.shuffles.inc();
        self.shuffle_reduce_bytes.add(bytes as u64);
    }

    /// Takes a consistent-enough snapshot for reporting.
    pub fn snapshot(&self) -> IoStatsSnapshot {
        let shuffle_map_bytes = self.shuffle_map_bytes.get();
        let shuffle_reduce_bytes = self.shuffle_reduce_bytes.get();
        IoStatsSnapshot {
            disk_reads: self.disk_reads.get(),
            disk_read_bytes: self.disk_read_bytes.get(),
            disk_writes: self.disk_writes.get(),
            disk_write_bytes: self.disk_write_bytes.get(),
            pages_evicted: self.pages_evicted.get(),
            pages_flushed: self.pages_flushed.get(),
            net_messages: self.net_messages.get(),
            net_bytes: self.net_bytes.get(),
            serializations: self.serializations.get(),
            serialized_bytes: self.serialized_bytes.get(),
            copies: self.copies.get(),
            copied_bytes: self.copied_bytes.get(),
            repairs: self.repairs.get(),
            repair_bytes: self.repair_bytes.get(),
            shuffles: self.shuffles.get(),
            shuffle_bytes: shuffle_map_bytes + shuffle_reduce_bytes,
            shuffle_map_bytes,
            shuffle_reduce_bytes,
        }
    }

    /// Resets all counters to zero.
    pub fn reset(&self) {
        self.disk_reads.set(0);
        self.disk_read_bytes.set(0);
        self.disk_writes.set(0);
        self.disk_write_bytes.set(0);
        self.pages_evicted.set(0);
        self.pages_flushed.set(0);
        self.net_messages.set(0);
        self.net_bytes.set(0);
        self.serializations.set(0);
        self.serialized_bytes.set(0);
        self.copies.set(0);
        self.copied_bytes.set(0);
        self.repairs.set(0);
        self.repair_bytes.set(0);
        self.shuffles.set(0);
        self.shuffle_map_bytes.set(0);
        self.shuffle_reduce_bytes.set(0);
        for c in &self.write_cause_bytes {
            c.set(0);
        }
    }
}

/// A point-in-time copy of [`IoStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStatsSnapshot {
    /// Number of disk read operations.
    pub disk_reads: u64,
    /// Total bytes read from disk.
    pub disk_read_bytes: u64,
    /// Number of disk write operations.
    pub disk_writes: u64,
    /// Total bytes written to disk.
    pub disk_write_bytes: u64,
    /// Pages evicted from a buffer pool.
    pub pages_evicted: u64,
    /// Dirty pages flushed.
    pub pages_flushed: u64,
    /// Network messages sent.
    pub net_messages: u64,
    /// Network bytes sent.
    pub net_bytes: u64,
    /// Serialization/deserialization passes.
    pub serializations: u64,
    /// Bytes passed through (de)serialization.
    pub serialized_bytes: u64,
    /// Buffer-to-buffer copies.
    pub copies: u64,
    /// Bytes copied between buffers.
    pub copied_bytes: u64,
    /// Peer-repair transfers (worker→worker recovery pushes).
    pub repairs: u64,
    /// Payload bytes moved worker→worker during replica recovery.
    pub repair_bytes: u64,
    /// Map-shuffle transfers (worker→worker shuffle pushes).
    pub shuffles: u64,
    /// Payload bytes moved worker→worker during distributed map-shuffle
    /// (both modes; always `shuffle_map_bytes + shuffle_reduce_bytes`).
    pub shuffle_bytes: u64,
    /// Shuffle payload delivered to map-only (plain append) sessions.
    pub shuffle_map_bytes: u64,
    /// Shuffle payload delivered to combining/reducing sessions.
    pub shuffle_reduce_bytes: u64,
}

impl IoStatsSnapshot {
    /// Component-wise difference `self - earlier`; saturates at zero.
    pub fn delta_since(&self, earlier: &IoStatsSnapshot) -> IoStatsSnapshot {
        IoStatsSnapshot {
            disk_reads: self.disk_reads.saturating_sub(earlier.disk_reads),
            disk_read_bytes: self.disk_read_bytes.saturating_sub(earlier.disk_read_bytes),
            disk_writes: self.disk_writes.saturating_sub(earlier.disk_writes),
            disk_write_bytes: self
                .disk_write_bytes
                .saturating_sub(earlier.disk_write_bytes),
            pages_evicted: self.pages_evicted.saturating_sub(earlier.pages_evicted),
            pages_flushed: self.pages_flushed.saturating_sub(earlier.pages_flushed),
            net_messages: self.net_messages.saturating_sub(earlier.net_messages),
            net_bytes: self.net_bytes.saturating_sub(earlier.net_bytes),
            serializations: self.serializations.saturating_sub(earlier.serializations),
            serialized_bytes: self
                .serialized_bytes
                .saturating_sub(earlier.serialized_bytes),
            copies: self.copies.saturating_sub(earlier.copies),
            copied_bytes: self.copied_bytes.saturating_sub(earlier.copied_bytes),
            repairs: self.repairs.saturating_sub(earlier.repairs),
            repair_bytes: self.repair_bytes.saturating_sub(earlier.repair_bytes),
            shuffles: self.shuffles.saturating_sub(earlier.shuffles),
            shuffle_bytes: self.shuffle_bytes.saturating_sub(earlier.shuffle_bytes),
            shuffle_map_bytes: self
                .shuffle_map_bytes
                .saturating_sub(earlier.shuffle_map_bytes),
            shuffle_reduce_bytes: self
                .shuffle_reduce_bytes
                .saturating_sub(earlier.shuffle_reduce_bytes),
        }
    }

    /// Total bytes that touched a disk in either direction.
    pub fn disk_bytes_total(&self) -> u64 {
        self.disk_read_bytes + self.disk_write_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = IoStats::new();
        s.record_disk_read(100);
        s.record_disk_read(50);
        s.record_disk_write(10);
        s.record_eviction();
        s.record_flush();
        s.record_net(7);
        s.record_serialization(32);
        s.record_copy(64);
        s.record_repair(48);
        s.record_shuffle(24);
        let snap = s.snapshot();
        assert_eq!(snap.disk_reads, 2);
        assert_eq!(snap.disk_read_bytes, 150);
        assert_eq!(snap.disk_writes, 1);
        assert_eq!(snap.disk_write_bytes, 10);
        assert_eq!(snap.pages_evicted, 1);
        assert_eq!(snap.pages_flushed, 1);
        assert_eq!(snap.net_messages, 1);
        assert_eq!(snap.net_bytes, 7);
        assert_eq!(snap.serialized_bytes, 32);
        assert_eq!(snap.copied_bytes, 64);
        assert_eq!(snap.repairs, 1);
        assert_eq!(snap.repair_bytes, 48);
        assert_eq!(snap.shuffles, 1);
        assert_eq!(snap.shuffle_bytes, 24);
        assert_eq!(snap.disk_bytes_total(), 160);
    }

    #[test]
    fn delta_and_reset() {
        let s = IoStats::new();
        s.record_disk_write(10);
        let a = s.snapshot();
        s.record_disk_write(30);
        let b = s.snapshot();
        let d = b.delta_since(&a);
        assert_eq!(d.disk_writes, 1);
        assert_eq!(d.disk_write_bytes, 30);
        s.reset();
        assert_eq!(s.snapshot(), IoStatsSnapshot::default());
    }

    #[test]
    fn shuffle_modes_split_but_total_holds() {
        let s = IoStats::new();
        s.record_shuffle(100);
        s.record_shuffle_reduce(40);
        let snap = s.snapshot();
        assert_eq!(snap.shuffles, 2);
        assert_eq!(snap.shuffle_map_bytes, 100);
        assert_eq!(snap.shuffle_reduce_bytes, 40);
        assert_eq!(snap.shuffle_bytes, 140);
    }

    #[test]
    fn io_counters_are_visible_through_the_registry() {
        let s = IoStats::new();
        s.record_net(9);
        let snap = s.registry().snapshot();
        let net = snap
            .iter()
            .find(|m| m.name == "io.net_bytes")
            .expect("io.net_bytes registered");
        assert_eq!(net.value, pangea_obs::MetricValue::Counter(9));
    }
}
