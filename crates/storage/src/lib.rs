//! # pangea-storage
//!
//! Single-node storage substrate for Pangea: the shared-memory **arena**,
//! the unified **buffer pool** (paper §5), the multi-disk **disk manager**,
//! and the per-locality-set **paged file** with its meta file (paper §4).
//!
//! This crate provides *mechanism* only. The eviction *policy* lives in
//! `pangea-paging`, and the orchestration (locality sets, services, the
//! data-aware paging loop) lives in `pangea-core`.
//!
//! ## Concurrency & safety model
//!
//! The buffer pool owns one contiguous arena, standing in for the paper's
//! anonymous-`mmap` shared-memory region. Pages are non-overlapping blocks
//! placed by a [`pangea_alloc::PoolAllocator`]. Page bytes are only
//! reachable through [`pool::PageReadGuard`] / [`pool::PageWriteGuard`],
//! which hold a per-frame reader-writer lock, so the usual Rust aliasing
//! rules are enforced dynamically per page. A guard borrows the
//! [`pool::PagePin`] (or [`pool::EvictedFrame`]) it came from: the borrow
//! checker keeps the pin, and with it the page's block and the arena,
//! alive for as long as the guard, so taking a guard costs the frame
//! lock and no reference count. All `unsafe` in the workspace's storage
//! layer is confined to [`arena`] and the guard constructors in
//! [`pool`], with invariants documented at each site.

pub mod arena;
pub mod disk;
pub mod file;
pub mod pool;

pub use arena::Arena;
pub use disk::{DiskConfig, DiskManager};
pub use file::{PageLoc, PagedFile};
pub use pool::{
    BufferPool, BufferPoolConfig, EvictedFrame, PagePin, PageReadGuard, PageWriteGuard, PoolStats,
};
