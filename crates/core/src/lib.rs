//! # pangea-core
//!
//! The paper's primary contribution: a per-node monolithic storage engine
//! that manages *all* data — user data, job data, shuffle data, hash
//! data — in one unified buffer pool, with locality sets as the unit of
//! storage and paging (paper §3–§6, §8).
//!
//! * [`StorageNode`] — one node's engine: unified buffer pool, user-level
//!   file system, and the data-aware paging loop.
//! * [`LocalitySet`] — the application-facing dataset handle, carrying
//!   the Table 1 attributes that the paging system consumes.
//! * Services (paper §8), each of which teaches the locality set its
//!   access pattern at runtime:
//!   * sequential write — [`SeqWriter`]
//!   * sequential read — [`PageIterator`]
//!   * shuffle — [`ShuffleService`] / [`VirtualShuffleBuffer`]
//!   * hash aggregation — [`VirtualHashBuffer`]
//!   * join & broadcast maps — [`JoinMap`] / [`broadcast_map`]
//!
//! The distributed pieces (manager, dispatch, heterogeneous replication,
//! recovery) live in `pangea-cluster` and drive these per-node engines.

pub mod attributes;
pub mod hash;
pub mod hashpage;
pub mod join;
pub mod ledger;
pub mod node;
pub mod page;
pub mod scan;
pub mod seq;
pub mod set;
pub mod shuffle;

pub use attributes::{SetAttributes, SetOptions};
pub use hash::{
    counting_hash_buffer, CountingHashBuffer, HashConfig, ReduceBuffer, VirtualHashBuffer,
};
pub use join::{broadcast_map, JoinMap, JoinMapBuilder};
pub use ledger::SpillLedger;
pub use node::{NodeConfig, PagingStats, StorageNode};
pub use page::{ObjectIter, RecordSlices};
pub use scan::PageIterator;
pub use seq::SeqWriter;
pub use set::LocalitySet;
pub use shuffle::{ShuffleConfig, ShuffleService, VirtualShuffleBuffer};

// Re-export the attribute vocabulary so applications need only this crate.
pub use pangea_paging::{CurrentOp, Durability, ReadPattern, WritePattern};
