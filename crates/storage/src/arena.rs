//! The shared-memory arena backing one node's buffer pool.
//!
//! Stands in for the paper's anonymous `mmap` region (§5): one large,
//! page-aligned allocation whose lifetime equals the storage node's. The
//! arena itself is dumb memory; placement comes from `pangea-alloc` and
//! aliasing discipline from the buffer pool's per-frame locks.
//!
//! # Safety invariants
//!
//! * The allocation lives until the `Arena` is dropped; all raw slices
//!   handed out are invalidated before then by the buffer pool (a guard
//!   borrows the pin or evicted frame it came from, which holds the pool,
//!   and with it the arena, alive).
//! * Callers of [`Arena::slice`] / [`Arena::slice_mut`] must guarantee that
//!   `[offset, offset+len)` lies inside the arena (checked here with
//!   asserts) **and** that the range is not aliased mutably elsewhere —
//!   the buffer pool guarantees this by (a) allocating non-overlapping
//!   blocks and (b) wrapping access in per-frame RwLocks.

use std::alloc::{alloc_zeroed, dealloc, Layout};
use std::ptr::NonNull;

/// Alignment of the arena base; matches a typical OS page.
const ARENA_ALIGN: usize = 4096;

/// One contiguous, heap-allocated memory region.
#[derive(Debug)]
pub struct Arena {
    base: NonNull<u8>,
    len: usize,
}

// SAFETY: the arena is a plain byte region; synchronization of access is
// the caller's responsibility (enforced by the buffer pool's frame locks).
unsafe impl Send for Arena {}
unsafe impl Sync for Arena {}

impl Arena {
    /// Allocates a zeroed arena of `len` bytes.
    ///
    /// # Panics
    /// Panics if `len` is zero or allocation fails (a storage node cannot
    /// run without its buffer pool).
    pub fn new(len: usize) -> Self {
        assert!(len > 0, "arena must be non-empty");
        let layout = Layout::from_size_align(len, ARENA_ALIGN).expect("bad arena layout");
        // SAFETY: layout has non-zero size (asserted above).
        let ptr = unsafe { alloc_zeroed(layout) };
        let base = NonNull::new(ptr).expect("arena allocation failed");
        Self { base, len }
    }

    /// Arena size in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the arena has zero length (never, by construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns a shared slice of the range.
    ///
    /// # Safety
    /// Caller must ensure no concurrent mutable access to this range. The
    /// buffer pool enforces this with per-frame RwLocks.
    #[inline]
    pub unsafe fn slice(&self, offset: usize, len: usize) -> &[u8] {
        assert!(
            offset.checked_add(len).is_some_and(|end| end <= self.len),
            "arena slice [{offset}, {offset}+{len}) out of bounds ({})",
            self.len
        );
        std::slice::from_raw_parts(self.base.as_ptr().add(offset), len)
    }

    /// Returns a mutable slice of the range.
    ///
    /// # Safety
    /// Caller must ensure this range is not aliased at all for the duration
    /// of the borrow. The buffer pool enforces this with per-frame RwLocks
    /// plus the non-overlap guarantee of the pool allocator.
    #[inline]
    #[allow(clippy::mut_from_ref)] // interior mutability via external locking
    pub unsafe fn slice_mut(&self, offset: usize, len: usize) -> &mut [u8] {
        assert!(
            offset.checked_add(len).is_some_and(|end| end <= self.len),
            "arena slice [{offset}, {offset}+{len}) out of bounds ({})",
            self.len
        );
        std::slice::from_raw_parts_mut(self.base.as_ptr().add(offset), len)
    }
}

impl Drop for Arena {
    fn drop(&mut self) {
        let layout = Layout::from_size_align(self.len, ARENA_ALIGN).expect("bad arena layout");
        // SAFETY: base was allocated with exactly this layout in `new`.
        unsafe { dealloc(self.base.as_ptr(), layout) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_is_zeroed_and_writable() {
        let a = Arena::new(4096);
        // SAFETY: test owns the arena exclusively.
        unsafe {
            assert!(a.slice(0, 4096).iter().all(|&b| b == 0));
            a.slice_mut(100, 4).copy_from_slice(&[1, 2, 3, 4]);
            assert_eq!(a.slice(100, 4), &[1, 2, 3, 4]);
            // Neighbouring bytes untouched.
            assert_eq!(a.slice(99, 1), &[0]);
            assert_eq!(a.slice(104, 1), &[0]);
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_slice_panics() {
        let a = Arena::new(64);
        // SAFETY: bounds check fires before any deref.
        unsafe {
            let _ = a.slice(60, 8);
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn overflowing_range_panics() {
        let a = Arena::new(64);
        // SAFETY: bounds check fires before any deref.
        unsafe {
            let _ = a.slice(usize::MAX, 2);
        }
    }
}
