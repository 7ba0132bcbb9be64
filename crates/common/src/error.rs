//! The workspace-wide error type.

use crate::ids::{Epoch, NodeId, PageId, SetId};
use std::fmt;
use std::io;
use std::sync::Arc;

/// Convenience alias used throughout the workspace.
pub type Result<T> = std::result::Result<T, PangeaError>;

/// Errors produced anywhere in the Pangea reproduction.
///
/// Several variants intentionally model *paper-observable failures* — e.g.
/// [`PangeaError::DbminBlocked`] reproduces DBMIN refusing admission when the
/// total desired locality-set size exceeds memory (Fig. 3 "failed cases shown
/// as gaps"), and [`PangeaError::SystemFailure`] reproduces hard baseline
/// failures such as Ignite's segmentation fault at 2 billion points.
#[derive(Debug, Clone)]
pub enum PangeaError {
    /// An underlying file-system operation failed.
    Io(Arc<io::Error>),
    /// The referenced locality set does not exist in the catalog.
    SetNotFound(SetId),
    /// The referenced page does not exist (neither buffered nor on disk).
    PageNotFound(PageId),
    /// The buffer pool cannot satisfy an allocation even after eviction:
    /// every remaining page is pinned.
    OutOfMemory {
        /// Bytes that were requested.
        requested: usize,
        /// Total pool capacity in bytes.
        capacity: usize,
        /// Bytes currently pinned and therefore unevictable.
        pinned: usize,
    },
    /// DBMIN admission control blocked the request because the sum of the
    /// desired locality-set sizes exceeds the available buffer pool.
    DbminBlocked {
        /// Sum of desired sizes, in pages (normalized to bytes).
        desired_bytes: usize,
        /// Available pool bytes.
        available_bytes: usize,
    },
    /// A baseline system failed hard (e.g. Ignite segfault, Redis OOM);
    /// reported as a failure row in benchmark output, matching the paper's
    /// "failed cases shown as gaps".
    SystemFailure(String),
    /// Cluster bootstrap was attempted with an invalid key (paper §3.3:
    /// "A non-valid key will cause the whole system to terminate").
    AuthenticationFailed,
    /// A wire peer failed (or skipped) the shared-secret handshake and
    /// was rejected before any request was served.
    Unauthenticated(String),
    /// The server is at its connection cap and refused the connection
    /// before serving any request. Typed so callers can back off and
    /// redial instead of parsing error prose.
    Busy(String),
    /// A membership operation carried an out-of-date registration epoch —
    /// the sender is a stale incarnation of a node slot that has since
    /// been replaced (or swept dead) by the manager.
    StaleEpoch {
        /// The node slot the operation addressed.
        node: NodeId,
        /// The epoch the sender holds.
        held: Epoch,
        /// The slot's current epoch at the manager.
        current: Epoch,
    },
    /// The referenced node is not part of the cluster or has failed.
    NodeUnavailable(NodeId),
    /// More nodes failed concurrently than the replication scheme tolerates.
    UnrecoverableFailure(String),
    /// Persistent data failed an integrity check when read back.
    Corruption(String),
    /// A remote node reported a failure over the wire protocol. The
    /// original error kind does not survive the trip; the message does.
    /// (Kinds clients dispatch on — [`PangeaError::Unauthenticated`],
    /// [`PangeaError::Busy`], [`PangeaError::StaleEpoch`] — travel
    /// typed instead.)
    Remote(String),
    /// A declarative wire form was required but the value is backed by
    /// an in-process closure (a UDF) that cannot cross the wire — e.g. a
    /// `PartitionScheme::hash` scheme handed to a distributed
    /// map-shuffle, which ships the task to every worker. Typed so
    /// callers can rebuild the scheme with `hash_field`/`hash_whole`
    /// (or run the job in-process) without parsing prose.
    NotWireSafe(String),
    /// An API was used incorrectly (e.g. writing to a read-configured set).
    InvalidUsage(String),
    /// Invalid configuration (page size 0, no disks, ...).
    InvalidConfig(String),
}

impl PangeaError {
    /// Builds an [`PangeaError::InvalidUsage`] from anything displayable.
    pub fn usage(msg: impl fmt::Display) -> Self {
        Self::InvalidUsage(msg.to_string())
    }

    /// Builds an [`PangeaError::InvalidConfig`] from anything displayable.
    pub fn config(msg: impl fmt::Display) -> Self {
        Self::InvalidConfig(msg.to_string())
    }

    /// True when the error models a *system-level* failure that the paper
    /// plots as a gap (DBMIN blocking, baseline crash, OOM).
    pub fn is_reported_as_gap(&self) -> bool {
        matches!(
            self,
            Self::DbminBlocked { .. } | Self::SystemFailure(_) | Self::OutOfMemory { .. }
        )
    }
}

impl fmt::Display for PangeaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "I/O error: {e}"),
            Self::SetNotFound(s) => write!(f, "locality set {s} not found"),
            Self::PageNotFound(p) => write!(f, "page {p} not found"),
            Self::OutOfMemory {
                requested,
                capacity,
                pinned,
            } => write!(
                f,
                "buffer pool out of memory: requested {requested} B, \
                 capacity {capacity} B, {pinned} B pinned"
            ),
            Self::DbminBlocked {
                desired_bytes,
                available_bytes,
            } => write!(
                f,
                "DBMIN blocked: desired locality-set total {desired_bytes} B \
                 exceeds available {available_bytes} B"
            ),
            Self::SystemFailure(m) => write!(f, "system failure: {m}"),
            Self::AuthenticationFailed => write!(f, "invalid key pair; system terminated"),
            Self::Unauthenticated(m) => write!(f, "unauthenticated peer rejected: {m}"),
            Self::Busy(m) => write!(f, "server busy: {m}"),
            Self::StaleEpoch {
                node,
                held,
                current,
            } => write!(
                f,
                "stale epoch for {node}: sender holds {held}, manager is at {current}"
            ),
            Self::NodeUnavailable(n) => write!(f, "{n} is unavailable"),
            Self::UnrecoverableFailure(m) => write!(f, "unrecoverable failure: {m}"),
            Self::Corruption(m) => write!(f, "data corruption: {m}"),
            Self::Remote(m) => write!(f, "remote node error: {m}"),
            Self::NotWireSafe(m) => write!(f, "not wire-safe: {m}"),
            Self::InvalidUsage(m) => write!(f, "invalid usage: {m}"),
            Self::InvalidConfig(m) => write!(f, "invalid configuration: {m}"),
        }
    }
}

impl std::error::Error for PangeaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e.as_ref()),
            _ => None,
        }
    }
}

impl From<io::Error> for PangeaError {
    fn from(e: io::Error) -> Self {
        Self::Io(Arc::new(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_errors_convert_and_chain() {
        let e: PangeaError = io::Error::new(io::ErrorKind::NotFound, "gone").into();
        assert!(e.to_string().contains("gone"));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn gap_classification_matches_paper_failures() {
        assert!(PangeaError::DbminBlocked {
            desired_bytes: 10,
            available_bytes: 5
        }
        .is_reported_as_gap());
        assert!(PangeaError::SystemFailure("ignite segfault".into()).is_reported_as_gap());
        assert!(!PangeaError::SetNotFound(SetId(1)).is_reported_as_gap());
    }

    #[test]
    fn display_is_human_readable() {
        let msg = PangeaError::OutOfMemory {
            requested: 4096,
            capacity: 8192,
            pinned: 8192,
        }
        .to_string();
        assert!(msg.contains("4096"));
        assert!(msg.contains("pinned"));
    }
}
