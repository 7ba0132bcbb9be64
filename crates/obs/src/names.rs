//! The canonical registry of metric names.
//!
//! Every metric a Pangea process registers is named here, once. These
//! strings are *join keys*, not labels: the scrape loop's time-series
//! store, `pangea-mgr top`, the bench baseline diff, and the e2e suites
//! all match on them, so a typo in one producer silently drops a column
//! everywhere downstream. The `metric-name-registry` lint rule
//! (`cargo run -p pangea-lint`) rejects any `counter("…")` /
//! `gauge("…")` / `histogram("…")` call whose name is a string literal
//! instead of a constant or helper from this module.
//!
//! Dynamic families (`rpc.count.<Op>`, `fleet.<node>.<series>`) get a
//! prefix constant plus a formatting helper, so the producers and the
//! `strip_prefix` consumers share one spelling.

// -- io.* — byte/operation volumes ([`pangea_common::IoStats`] views) ---

/// Disk read operations.
pub const IO_DISK_READS: &str = "io.disk_reads";
/// Bytes read from disk.
pub const IO_DISK_READ_BYTES: &str = "io.disk_read_bytes";
/// Disk write operations.
pub const IO_DISK_WRITES: &str = "io.disk_writes";
/// Bytes written to disk.
pub const IO_DISK_WRITE_BYTES: &str = "io.disk_write_bytes";
/// Page bytes written because a writer sealed a write-through page.
pub const IO_DISK_WRITE_BYTES_SEAL: &str = "io.disk_write_bytes.seal";
/// Page bytes written because a service spilled a pinned page.
pub const IO_DISK_WRITE_BYTES_SPILL: &str = "io.disk_write_bytes.spill";
/// Page bytes written back because a dirty page was evicted.
pub const IO_DISK_WRITE_BYTES_EVICT: &str = "io.disk_write_bytes.evict";
/// Pages evicted from a buffer pool.
pub const IO_PAGES_EVICTED: &str = "io.pages_evicted";
/// Dirty pages flushed.
pub const IO_PAGES_FLUSHED: &str = "io.pages_flushed";
/// Network messages sent.
pub const IO_NET_MESSAGES: &str = "io.net_messages";
/// Network bytes sent.
pub const IO_NET_BYTES: &str = "io.net_bytes";
/// Serialization/deserialization passes.
pub const IO_SERIALIZATIONS: &str = "io.serializations";
/// Bytes passed through (de)serialization.
pub const IO_SERIALIZED_BYTES: &str = "io.serialized_bytes";
/// Buffer-to-buffer copies.
pub const IO_COPIES: &str = "io.copies";
/// Bytes copied between buffers.
pub const IO_COPIED_BYTES: &str = "io.copied_bytes";
/// Peer-repair transfers (worker→worker recovery pushes).
pub const IO_REPAIRS: &str = "io.repairs";
/// Payload bytes moved worker→worker during replica recovery.
pub const IO_REPAIR_BYTES: &str = "io.repair_bytes";
/// Map-shuffle transfers (worker→worker shuffle pushes).
pub const IO_SHUFFLES: &str = "io.shuffles";
/// Shuffle payload delivered to map-only (plain append) sessions.
pub const IO_SHUFFLE_BYTES_MAP: &str = "io.shuffle_bytes.map";
/// Shuffle payload delivered to combining/reducing sessions.
pub const IO_SHUFFLE_BYTES_REDUCE: &str = "io.shuffle_bytes.reduce";

// -- net.* — server-core connection accounting ---------------------------

/// Connections currently accepted and not yet closed.
pub const NET_CONNS_OPEN: &str = "net.conns_open";
/// Connections refused with a typed `Busy` beyond the accept cap.
pub const NET_BUSY_REJECTS: &str = "net.busy_rejects";
/// Pipelined pushes that stalled waiting for receiver credit.
pub const NET_CREDIT_STALLS: &str = "net.credit_stalls";
/// Total milliseconds spent in credit stalls.
pub const NET_CREDIT_STALLS_MS: &str = "net.credit_stalls_ms";
/// In-flight window depth observed per pipelined push.
pub const NET_INFLIGHT: &str = "net.inflight";

// -- trace.* / mem.* -----------------------------------------------------

/// Spans evicted unread from this process's bounded trace ring.
pub const TRACE_DROPPED_SPANS: &str = "trace.dropped_spans";
/// Resident bytes across all locally stored shares.
pub const MEM_SHARE_BYTES: &str = "mem.share_bytes";
/// Resident bytes across live ingest/repair session state.
pub const MEM_SESSION_BYTES: &str = "mem.session_bytes";

// -- pool.* — outbound peer-connection pool ------------------------------

/// Idle peer connections currently pooled.
pub const POOL_PEERS: &str = "pool.peers";
/// Peer checkouts (hits + dials). Invariant: `pool.checkouts ==
/// pool.checkins + pool.drops` once the fleet is quiescent.
pub const POOL_CHECKOUTS: &str = "pool.checkouts";
/// Checkouts served from the pool without dialing.
pub const POOL_HITS: &str = "pool.hits";
/// Checkouts that dialed a fresh connection.
pub const POOL_DIALS: &str = "pool.dials";
/// Connections returned to the pool after a successful call.
pub const POOL_CHECKINS: &str = "pool.checkins";
/// Pooled connections evicted past the per-peer cap.
pub const POOL_EVICTIONS: &str = "pool.evictions";
/// Connections discarded after a failed call.
pub const POOL_DROPS: &str = "pool.drops";

// -- paging.* — pool-paged task state ------------------------------------

/// Page lookups served from the resident pool.
pub const PAGING_HITS: &str = "paging.hits";
/// Page lookups that had to read a spilled page back.
pub const PAGING_MISSES: &str = "paging.misses";
/// Pages evicted to disk under pool pressure.
pub const PAGING_EVICTIONS: &str = "paging.evictions";
/// Bytes spilled to disk by the pager.
pub const PAGING_SPILL_BYTES: &str = "paging.spill_bytes";
/// Bytes currently resident in the pool.
pub const PAGING_POOL_USED_BYTES: &str = "paging.pool_used_bytes";
/// The pool's configured byte budget.
pub const PAGING_POOL_CAPACITY_BYTES: &str = "paging.pool_capacity_bytes";
/// Pages currently resident.
pub const PAGING_RESIDENT_PAGES: &str = "paging.resident_pages";
/// Resident pages pinned against eviction.
pub const PAGING_PINNED_PAGES: &str = "paging.pinned_pages";

// -- sessions.* / dedup — ingest + repair session lifecycle --------------

/// Repair sessions begun.
pub const SESSIONS_REPAIR_BEGUN: &str = "sessions.repair.begun";
/// Repair sessions ended.
pub const SESSIONS_REPAIR_ENDED: &str = "sessions.repair.ended";
/// Repair sessions currently live.
pub const SESSIONS_REPAIR_LIVE: &str = "sessions.repair.live";
/// Ingest sessions begun.
pub const SESSIONS_INGEST_BEGUN: &str = "sessions.ingest.begun";
/// Ingest sessions ended.
pub const SESSIONS_INGEST_ENDED: &str = "sessions.ingest.ended";
/// Ingest sessions currently live.
pub const SESSIONS_INGEST_LIVE: &str = "sessions.ingest.live";
/// Repair-session pushes deduplicated by the ledger (idempotent retries).
pub const REPAIR_DEDUP_HITS: &str = "repair.dedup_hits";
/// Ingest-session pushes deduplicated by provenance (idempotent retries).
pub const INGEST_DEDUP_HITS: &str = "ingest.dedup_hits";

// -- mgr.* — manager-side scrape loop ------------------------------------

/// Worst heartbeat staleness across registered workers, milliseconds.
pub const MGR_HEARTBEAT_STALENESS_MS: &str = "mgr.heartbeat_staleness_ms";
/// Fleet spans lost to ring eviction before a scrape could read them.
pub const MGR_SCRAPE_DROPPED_SPANS: &str = "mgr.scrape.dropped_spans";
/// Scrape attempts that failed (unreachable worker, bad dump).
pub const MGR_SCRAPE_ERRORS: &str = "mgr.scrape.errors";
/// Completed scrape ticks.
pub const MGR_SCRAPE_TICKS: &str = "mgr.scrape.ticks";

// -- dynamic families ----------------------------------------------------

/// Per-op RPC counter family: `rpc.count.<Op>`.
pub const RPC_COUNT_PREFIX: &str = "rpc.count.";
/// Per-op RPC request-byte family: `rpc.bytes.<Op>`.
pub const RPC_BYTES_PREFIX: &str = "rpc.bytes.";
/// Per-op RPC latency histogram family: `rpc.latency_ns.<Op>`.
pub const RPC_LATENCY_NS_PREFIX: &str = "rpc.latency_ns.";
/// Manager-held per-node rate gauge family: `fleet.<node>.<series>`.
pub const FLEET_PREFIX: &str = "fleet.";

/// `rpc.count.<op>` — one served RPC of this opcode.
pub fn rpc_count(op: &str) -> String {
    format!("{RPC_COUNT_PREFIX}{op}")
}

/// `rpc.bytes.<op>` — request payload bytes for this opcode.
pub fn rpc_bytes(op: &str) -> String {
    format!("{RPC_BYTES_PREFIX}{op}")
}

/// `rpc.latency_ns.<op>` — service latency histogram for this opcode.
pub fn rpc_latency_ns(op: &str) -> String {
    format!("{RPC_LATENCY_NS_PREFIX}{op}")
}

/// `fleet.<node>.<series>` — a scraped per-node series republished as a
/// manager gauge for `top --watch`.
pub fn fleet(node: &str, series: &str) -> String {
    format!("{FLEET_PREFIX}{node}.{series}")
}

// -- fleet.* series suffixes (shared by scrape.rs and `top --watch`) -----

/// Windowed RPCs per second.
pub const FLEET_RPC_PER_SEC: &str = "rpc_per_sec";
/// Windowed request bytes per second.
pub const FLEET_BYTES_PER_SEC: &str = "bytes_per_sec";
/// Windowed p50 RPC latency, nanoseconds.
pub const FLEET_RPC_P50_NS: &str = "rpc_p50_ns";
/// Windowed p99 RPC latency, nanoseconds.
pub const FLEET_RPC_P99_NS: &str = "rpc_p99_ns";
/// Spans this node dropped, as seen by the scrape loop.
pub const FLEET_SCRAPE_DROPPED_SPANS: &str = "scrape_dropped_spans";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dynamic_helpers_agree_with_their_prefixes() {
        assert_eq!(rpc_count("TaskRun"), "rpc.count.TaskRun");
        assert_eq!(rpc_bytes("TaskRun"), "rpc.bytes.TaskRun");
        assert_eq!(rpc_latency_ns("Ping"), "rpc.latency_ns.Ping");
        assert_eq!(
            fleet("worker0", FLEET_RPC_PER_SEC),
            "fleet.worker0.rpc_per_sec"
        );
        for (name, prefix) in [
            (rpc_count("x"), RPC_COUNT_PREFIX),
            (rpc_bytes("x"), RPC_BYTES_PREFIX),
            (rpc_latency_ns("x"), RPC_LATENCY_NS_PREFIX),
            (fleet("n", "s"), FLEET_PREFIX),
        ] {
            assert!(name.starts_with(prefix));
        }
    }
}
