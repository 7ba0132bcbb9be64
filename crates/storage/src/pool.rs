//! The unified buffer pool (paper §5).
//!
//! One pool per node caches *all* data — user data, job data, shuffle data,
//! hash data — in a single shared-memory arena. Pages are variable-sized
//! blocks placed by a TLSF (default) or slab allocator. Each cached page has
//! a pinned/unpinned state driven by reference counting, a dirty/clean flag,
//! and an access-recency stamp from the node's logical [`AccessClock`].
//!
//! The pool is *mechanism only*: when an allocation fails it reports
//! [`PangeaError::OutOfMemory`] and the caller (the storage node in
//! `pangea-core`) asks the paging system for victims, evicts them through
//! [`BufferPool::evict`], and retries — mirroring the paper's flow where
//! "the paging system will evict one or more unpinned pages and recycle
//! their memory".

use crate::arena::Arena;
use pangea_alloc::{allocator_by_name, PoolAllocator};
use pangea_common::{AccessClock, FxHashMap, IoStats, PageId, PangeaError, Result, SetId, Tick};
use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// Buffer pool construction parameters.
#[derive(Debug, Clone)]
pub struct BufferPoolConfig {
    /// Arena size in bytes (the paper configures 50 GB per worker; tests and
    /// benches use a few MB).
    pub capacity: usize,
    /// `"tlsf"` (default) or `"slab"` — paper §5 supports both.
    pub allocator: String,
}

impl BufferPoolConfig {
    /// A TLSF-backed pool of `capacity` bytes.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            allocator: "tlsf".to_string(),
        }
    }

    /// Switches to the slab allocator.
    pub fn with_slab_allocator(mut self) -> Self {
        self.allocator = "slab".to_string();
        self
    }
}

/// Frame bookkeeping for one cached page.
#[derive(Debug)]
pub(crate) struct Frame {
    page: PageId,
    offset: usize,
    len: usize,
    pin_count: AtomicU32,
    dirty: AtomicBool,
    last_access: AtomicU64,
    /// Guards the page's bytes in the arena.
    lock: RwLock<()>,
}

#[derive(Debug)]
struct PoolInner {
    arena: Arena,
    alloc: Mutex<Box<dyn PoolAllocator>>,
    frames: Mutex<FxHashMap<PageId, Arc<Frame>>>,
    clock: AccessClock,
    stats: Arc<IoStats>,
    capacity: usize,
}

/// A node's unified buffer pool. Cheap to clone (shared handle).
#[derive(Debug, Clone)]
pub struct BufferPool {
    inner: Arc<PoolInner>,
}

/// Point-in-time pool statistics (feeds the Fig. 4 memory report).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Arena capacity in bytes.
    pub capacity: usize,
    /// Bytes currently allocated to frames.
    pub used: usize,
    /// Number of resident pages.
    pub resident_pages: usize,
    /// Number of resident pages with at least one pin.
    pub pinned_pages: usize,
    /// Bytes belonging to pinned pages.
    pub pinned_bytes: usize,
}

impl BufferPool {
    /// Creates a pool with the given configuration.
    pub fn new(config: BufferPoolConfig) -> Result<Self> {
        if config.capacity == 0 {
            return Err(PangeaError::config("buffer pool capacity must be > 0"));
        }
        let alloc = allocator_by_name(&config.allocator, config.capacity)?;
        Ok(Self {
            inner: Arc::new(PoolInner {
                arena: Arena::new(config.capacity),
                alloc: Mutex::new(alloc),
                frames: Mutex::new(FxHashMap::default()),
                clock: AccessClock::new(),
                stats: Arc::new(IoStats::new()),
                capacity: config.capacity,
            }),
        })
    }

    /// Arena capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// The pool's logical access clock.
    pub fn clock(&self) -> &AccessClock {
        &self.inner.clock
    }

    /// The pool's I/O counters (evictions, flushes).
    pub fn stats(&self) -> &Arc<IoStats> {
        &self.inner.stats
    }

    /// Bytes currently allocated to frames.
    pub fn used(&self) -> usize {
        self.inner.alloc.lock().used()
    }

    /// Creates a brand-new page and returns it pinned.
    ///
    /// Fresh pages start dirty (they have no on-disk image yet). Fails with
    /// [`PangeaError::OutOfMemory`] when the arena cannot fit the page; the
    /// caller is expected to evict and retry.
    pub fn create_page(&self, page: PageId, len: usize) -> Result<PagePin> {
        if len == 0 {
            return Err(PangeaError::usage("page length must be > 0"));
        }
        let mut frames = self.inner.frames.lock();
        if frames.contains_key(&page) {
            return Err(PangeaError::usage(format!("page {page} already resident")));
        }
        // Bind before matching: a guard temporary in the match scrutinee
        // would live across the arms and deadlock with the re-lock below.
        let allocated = self.inner.alloc.lock().alloc(len);
        let offset = match allocated {
            Some(o) => o,
            None => {
                let stats = self.stats_snapshot_locked(&frames);
                return Err(PangeaError::OutOfMemory {
                    requested: len,
                    capacity: self.inner.capacity,
                    pinned: stats.pinned_bytes,
                });
            }
        };
        let tick = self.inner.clock.advance();
        let frame = Arc::new(Frame {
            page,
            offset,
            len,
            pin_count: AtomicU32::new(1),
            dirty: AtomicBool::new(true),
            last_access: AtomicU64::new(tick),
            lock: RwLock::new(()),
        });
        frames.insert(page, Arc::clone(&frame));
        Ok(PagePin {
            frame,
            pool: Arc::clone(&self.inner),
        })
    }

    /// Creates a page and fills it from `data` (used when caching a page
    /// read from disk). The page starts *clean*.
    pub fn insert_from_disk(&self, page: PageId, data: &[u8]) -> Result<PagePin> {
        let pin = self.create_page(page, data.len())?;
        pin.write().copy_from_slice(data);
        pin.frame.dirty.store(false, Ordering::Release);
        Ok(pin)
    }

    /// Pins an already-resident page, bumping its access recency.
    pub fn pin_existing(&self, page: PageId) -> Option<PagePin> {
        let frames = self.inner.frames.lock();
        let frame = frames.get(&page)?;
        frame.pin_count.fetch_add(1, Ordering::AcqRel);
        frame
            .last_access
            .store(self.inner.clock.advance(), Ordering::Relaxed);
        Some(PagePin {
            frame: Arc::clone(frame),
            pool: Arc::clone(&self.inner),
        })
    }

    /// True when the page is resident.
    pub fn contains(&self, page: PageId) -> bool {
        self.inner.frames.lock().contains_key(&page)
    }

    /// Access metadata for one resident page: `(pin_count, dirty,
    /// last_access)`. Used by the paging system's cost model.
    pub fn page_meta(&self, page: PageId) -> Option<(u32, bool, Tick)> {
        let frames = self.inner.frames.lock();
        let f = frames.get(&page)?;
        Some((
            f.pin_count.load(Ordering::Acquire),
            f.dirty.load(Ordering::Acquire),
            f.last_access.load(Ordering::Relaxed),
        ))
    }

    /// Resident page numbers of one set, unsorted.
    pub fn resident_of_set(&self, set: SetId) -> Vec<pangea_common::PageNum> {
        self.inner
            .frames
            .lock()
            .keys()
            .filter(|p| p.set == set)
            .map(|p| p.num)
            .collect()
    }

    /// All resident pages, unsorted.
    pub fn resident_pages(&self) -> Vec<PageId> {
        self.inner.frames.lock().keys().copied().collect()
    }

    /// Removes an unpinned page from the pool, handing its bytes (and dirty
    /// state) to the caller for optional flushing. Returns `Ok(None)` when
    /// the page is not resident, `Err(InvalidUsage)` when it is pinned.
    ///
    /// The arena block is recycled when the returned [`EvictedFrame`] is
    /// dropped, after any flush completes.
    pub fn evict(&self, page: PageId) -> Result<Option<EvictedFrame>> {
        let mut frames = self.inner.frames.lock();
        let Some(frame) = frames.get(&page) else {
            return Ok(None);
        };
        if frame.pin_count.load(Ordering::Acquire) > 0 {
            return Err(PangeaError::usage(format!(
                "cannot evict pinned page {page}"
            )));
        }
        let frame = frames.remove(&page).expect("checked above");
        self.inner.stats.record_eviction();
        Ok(Some(EvictedFrame {
            frame,
            pool: Arc::clone(&self.inner),
        }))
    }

    /// Removes a page its caller still holds pinned, consuming that pin.
    /// Succeeds when `pin` is the page's only pin; the check and the
    /// removal happen under the frame-table lock, so no other thread can
    /// pin (or evict) the page in between — which an unpin followed by
    /// [`BufferPool::evict`] cannot promise. When someone else also
    /// holds a pin the page stays resident and the pin is handed back.
    pub fn evict_pinned(&self, pin: PagePin) -> std::result::Result<EvictedFrame, PagePin> {
        let mut frames = self.inner.frames.lock();
        // Pins are only ever added from an existing pin (`clone`) or
        // under the table lock (`pin_existing`), so a count of one seen
        // here — ours — cannot grow before the frame leaves the table.
        if pin.frame.pin_count.load(Ordering::Acquire) != 1 {
            return Err(pin);
        }
        let Some(frame) = frames.remove(&pin.frame.page) else {
            return Err(pin);
        };
        drop(frames);
        drop(pin);
        self.inner.stats.record_eviction();
        Ok(EvictedFrame {
            frame,
            pool: Arc::clone(&self.inner),
        })
    }

    /// Discards an unpinned page without offering its bytes back (used for
    /// lifetime-ended transient data, which is never flushed).
    pub fn drop_page(&self, page: PageId) -> Result<bool> {
        Ok(self.evict(page)?.is_some())
    }

    fn stats_snapshot_locked(&self, frames: &FxHashMap<PageId, Arc<Frame>>) -> PoolStats {
        let mut pinned_pages = 0;
        let mut pinned_bytes = 0;
        for f in frames.values() {
            if f.pin_count.load(Ordering::Acquire) > 0 {
                pinned_pages += 1;
                pinned_bytes += f.len;
            }
        }
        PoolStats {
            capacity: self.inner.capacity,
            used: self.inner.alloc.lock().used(),
            resident_pages: frames.len(),
            pinned_pages,
            pinned_bytes,
        }
    }

    /// Point-in-time pool statistics.
    pub fn pool_stats(&self) -> PoolStats {
        let frames = self.inner.frames.lock();
        self.stats_snapshot_locked(&frames)
    }
}

/// RAII pin on a resident page. While any pin exists the page cannot be
/// evicted. Cloning a pin increments the pin count.
#[derive(Debug)]
pub struct PagePin {
    frame: Arc<Frame>,
    pool: Arc<PoolInner>,
}

impl PagePin {
    /// The pinned page's id.
    pub fn page_id(&self) -> PageId {
        self.frame.page
    }

    /// The page length in bytes.
    pub fn len(&self) -> usize {
        self.frame.len
    }

    /// Always false; pages are non-empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// True when the page has unflushed modifications.
    pub fn is_dirty(&self) -> bool {
        self.frame.dirty.load(Ordering::Acquire)
    }

    /// Marks the page clean (after the caller flushed it).
    pub fn mark_clean(&self) {
        self.frame.dirty.store(false, Ordering::Release);
    }

    /// Marks the page dirty without writing through a guard.
    pub fn mark_dirty(&self) {
        self.frame.dirty.store(true, Ordering::Release);
    }

    /// Last access tick of this page.
    pub fn last_access(&self) -> Tick {
        self.frame.last_access.load(Ordering::Relaxed)
    }

    /// Acquires shared read access to the page bytes, bumping recency.
    pub fn read(&self) -> PageReadGuard<'_> {
        self.frame
            .last_access
            .store(self.pool.clock.advance(), Ordering::Relaxed);
        let lock = self.frame.lock.read();
        // SAFETY: the frame's arena block [offset, offset+len) is exclusive
        // to this frame (allocator non-overlap) and stays reserved while
        // the pin borrowed for `'_` lives; the arena lives in `pool`, which
        // the pin keeps alive; and mutation is excluded by the held read
        // lock.
        let bytes = unsafe { self.pool.arena.slice(self.frame.offset, self.frame.len) };
        PageReadGuard { _lock: lock, bytes }
    }

    /// Acquires exclusive write access to the page bytes, bumping recency
    /// and marking the page dirty.
    pub fn write(&self) -> PageWriteGuard<'_> {
        self.frame
            .last_access
            .store(self.pool.clock.advance(), Ordering::Relaxed);
        self.frame.dirty.store(true, Ordering::Release);
        let lock = self.frame.lock.write();
        // SAFETY: as in `read`, plus exclusivity from the held write lock.
        let bytes = unsafe { self.pool.arena.slice_mut(self.frame.offset, self.frame.len) };
        PageWriteGuard { _lock: lock, bytes }
    }
}

impl Clone for PagePin {
    fn clone(&self) -> Self {
        self.frame.pin_count.fetch_add(1, Ordering::AcqRel);
        Self {
            frame: Arc::clone(&self.frame),
            pool: Arc::clone(&self.pool),
        }
    }
}

impl Drop for PagePin {
    fn drop(&mut self) {
        self.frame.pin_count.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Shared read access to a page's bytes. Borrows the [`PagePin`] (or
/// [`EvictedFrame`]) it came from, which keeps the block reserved and
/// the arena alive, and holds the frame's read lock.
pub struct PageReadGuard<'a> {
    _lock: RwLockReadGuard<'a, ()>,
    bytes: &'a [u8],
}

impl Deref for PageReadGuard<'_> {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.bytes
    }
}

/// Exclusive write access to a page's bytes. Borrows the [`PagePin`] it
/// came from and holds the frame's write lock.
pub struct PageWriteGuard<'a> {
    _lock: RwLockWriteGuard<'a, ()>,
    bytes: &'a mut [u8],
}

impl Deref for PageWriteGuard<'_> {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.bytes
    }
}

impl DerefMut for PageWriteGuard<'_> {
    fn deref_mut(&mut self) -> &mut [u8] {
        self.bytes
    }
}

/// A page removed from the pool, alive until its (optional) flush is done.
/// Dropping it recycles the arena block.
pub struct EvictedFrame {
    frame: Arc<Frame>,
    pool: Arc<PoolInner>,
}

impl EvictedFrame {
    /// The evicted page's id.
    pub fn page_id(&self) -> PageId {
        self.frame.page
    }

    /// True when the page holds unflushed modifications and must be written
    /// back before its memory is reused.
    pub fn is_dirty(&self) -> bool {
        self.frame.dirty.load(Ordering::Acquire)
    }

    /// The evicted page's bytes (for flushing).
    pub fn bytes(&self) -> PageReadGuard<'_> {
        let lock = self.frame.lock.read();
        // SAFETY: the block is still reserved in the allocator until this
        // EvictedFrame, borrowed for `'_`, drops; no pins exist (checked
        // at eviction).
        let bytes = unsafe { self.pool.arena.slice(self.frame.offset, self.frame.len) };
        PageReadGuard { _lock: lock, bytes }
    }

    /// Page length in bytes.
    pub fn len(&self) -> usize {
        self.frame.len
    }

    /// Always false; pages are non-empty.
    pub fn is_empty(&self) -> bool {
        false
    }
}

impl Drop for EvictedFrame {
    fn drop(&mut self) {
        self.pool.alloc.lock().free(self.frame.offset);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(cap: usize) -> BufferPool {
        BufferPool::new(BufferPoolConfig::new(cap)).unwrap()
    }

    fn pid(set: u64, num: u64) -> PageId {
        PageId::new(SetId(set), num)
    }

    #[test]
    fn create_write_read_roundtrip() {
        let p = pool(1 << 16);
        let pin = p.create_page(pid(1, 0), 4096).unwrap();
        assert!(pin.is_dirty(), "fresh pages start dirty");
        pin.write()[..5].copy_from_slice(b"hello");
        assert_eq!(&pin.read()[..5], b"hello");
        assert_eq!(pin.len(), 4096);
        assert!(p.contains(pid(1, 0)));
    }

    #[test]
    fn duplicate_create_rejected() {
        let p = pool(1 << 16);
        let _a = p.create_page(pid(1, 0), 128).unwrap();
        assert!(matches!(
            p.create_page(pid(1, 0), 128),
            Err(PangeaError::InvalidUsage(_))
        ));
    }

    #[test]
    fn pinned_pages_cannot_be_evicted() {
        let p = pool(1 << 16);
        let pin = p.create_page(pid(1, 0), 128).unwrap();
        assert!(p.evict(pid(1, 0)).is_err());
        drop(pin);
        let ev = p.evict(pid(1, 0)).unwrap().expect("now evictable");
        assert!(ev.is_dirty());
        drop(ev);
        assert_eq!(p.used(), 0, "arena block recycled after eviction");
    }

    #[test]
    fn evict_pinned_needs_the_only_pin() {
        let p = pool(1 << 16);
        let pin = p.create_page(pid(1, 0), 128).unwrap();
        let other = p.pin_existing(pid(1, 0)).unwrap();
        let Err(pin) = p.evict_pinned(pin) else {
            panic!("a second pin is live");
        };
        assert!(p.contains(pid(1, 0)), "the page stays resident");
        drop(other);
        let Ok(ev) = p.evict_pinned(pin) else {
            panic!("the sole pin must evict");
        };
        assert!(!p.contains(pid(1, 0)));
        drop(ev);
        assert_eq!(p.used(), 0, "arena block recycled");
        assert_eq!(p.stats().snapshot().pages_evicted, 1);
    }

    #[test]
    fn guards_borrow_their_pin() {
        let p = pool(1 << 16);
        let pin = p.create_page(pid(1, 0), 64).unwrap();
        let counts = |pin: &PagePin| (Arc::strong_count(&pin.pool), Arc::strong_count(&pin.frame));
        let idle = counts(&pin);
        {
            let _read = pin.read();
            assert_eq!(counts(&pin), idle, "a read guard takes no Arc");
        }
        {
            let _write = pin.write();
            assert_eq!(counts(&pin), idle, "a write guard takes no Arc");
        }
        drop(pin);
        let ev = p.evict(pid(1, 0)).unwrap().unwrap();
        let idle = (Arc::strong_count(&ev.pool), Arc::strong_count(&ev.frame));
        let _bytes = ev.bytes();
        assert_eq!(
            (Arc::strong_count(&ev.pool), Arc::strong_count(&ev.frame)),
            idle,
            "a flush guard takes no Arc"
        );
    }

    #[test]
    fn clone_pin_keeps_page_pinned() {
        let p = pool(1 << 16);
        let pin = p.create_page(pid(1, 0), 128).unwrap();
        let pin2 = pin.clone();
        drop(pin);
        assert!(p.evict(pid(1, 0)).is_err(), "clone still pins");
        drop(pin2);
        assert!(p.evict(pid(1, 0)).unwrap().is_some());
    }

    #[test]
    fn oom_when_all_pages_pinned() {
        let p = pool(8192);
        let _a = p.create_page(pid(1, 0), 4096).unwrap();
        let _b = p.create_page(pid(1, 1), 4096).unwrap();
        match p.create_page(pid(1, 2), 4096) {
            Err(PangeaError::OutOfMemory {
                requested, pinned, ..
            }) => {
                assert_eq!(requested, 4096);
                assert_eq!(pinned, 8192);
            }
            other => panic!("expected OOM, got {other:?}"),
        }
    }

    #[test]
    fn evicting_makes_room_again() {
        let p = pool(8192);
        let a = p.create_page(pid(1, 0), 4096).unwrap();
        let _b = p.create_page(pid(1, 1), 4096).unwrap();
        drop(a);
        let ev = p.evict(pid(1, 0)).unwrap().unwrap();
        drop(ev); // recycles
        assert!(p.create_page(pid(1, 2), 4096).is_ok());
    }

    #[test]
    fn insert_from_disk_is_clean_and_correct() {
        let p = pool(1 << 16);
        let data: Vec<u8> = (0..=255u8).cycle().take(1024).collect();
        let pin = p.insert_from_disk(pid(2, 0), &data).unwrap();
        assert!(!pin.is_dirty(), "disk-loaded pages start clean");
        assert_eq!(&*pin.read(), &data[..]);
    }

    #[test]
    fn evicted_frame_exposes_bytes_for_flush() {
        let p = pool(1 << 16);
        let pin = p.create_page(pid(1, 0), 64).unwrap();
        pin.write().copy_from_slice(&[7u8; 64]);
        drop(pin);
        let ev = p.evict(pid(1, 0)).unwrap().unwrap();
        assert_eq!(&*ev.bytes(), &[7u8; 64]);
        assert_eq!(ev.page_id(), pid(1, 0));
        assert_eq!(ev.len(), 64);
    }

    #[test]
    fn recency_advances_on_access() {
        let p = pool(1 << 16);
        let a = p.create_page(pid(1, 0), 64).unwrap();
        let t0 = a.last_access();
        let _ = a.read();
        let t1 = a.last_access();
        assert!(t1 > t0);
        let _ = a.write();
        assert!(a.last_access() > t1);
    }

    #[test]
    fn pin_existing_bumps_recency_and_counts() {
        let p = pool(1 << 16);
        let a = p.create_page(pid(1, 0), 64).unwrap();
        let t0 = a.last_access();
        drop(a);
        let b = p.pin_existing(pid(1, 0)).unwrap();
        assert!(b.last_access() > t0);
        assert!(p.pin_existing(pid(9, 9)).is_none());
    }

    #[test]
    fn page_meta_reports_state() {
        let p = pool(1 << 16);
        let a = p.create_page(pid(1, 0), 64).unwrap();
        let (pins, dirty, _) = p.page_meta(pid(1, 0)).unwrap();
        assert_eq!(pins, 1);
        assert!(dirty);
        a.mark_clean();
        drop(a);
        let (pins, dirty, _) = p.page_meta(pid(1, 0)).unwrap();
        assert_eq!(pins, 0);
        assert!(!dirty);
    }

    #[test]
    fn resident_listing_per_set() {
        let p = pool(1 << 16);
        let _a = p.create_page(pid(1, 0), 64).unwrap();
        let _b = p.create_page(pid(1, 3), 64).unwrap();
        let _c = p.create_page(pid(2, 0), 64).unwrap();
        let mut s1 = p.resident_of_set(SetId(1));
        s1.sort_unstable();
        assert_eq!(s1, vec![0, 3]);
        assert_eq!(p.resident_pages().len(), 3);
    }

    #[test]
    fn pool_stats_track_pins() {
        let p = pool(1 << 16);
        let a = p.create_page(pid(1, 0), 4096).unwrap();
        let b = p.create_page(pid(1, 1), 4096).unwrap();
        drop(b);
        let s = p.pool_stats();
        assert_eq!(s.resident_pages, 2);
        assert_eq!(s.pinned_pages, 1);
        assert_eq!(s.pinned_bytes, 4096);
        assert!(s.used >= 8192);
        drop(a);
    }

    #[test]
    fn concurrent_writers_to_distinct_pages() {
        let p = pool(1 << 20);
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let p = p.clone();
            handles.push(std::thread::spawn(move || {
                let pin = p.create_page(pid(5, t), 4096).unwrap();
                pin.write().fill(t as u8);
                // Re-read and verify.
                assert!(pin.read().iter().all(|&b| b == t as u8));
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(p.resident_pages().len(), 8);
    }

    #[test]
    fn concurrent_readers_share_a_page() {
        let p = pool(1 << 16);
        let pin = p.create_page(pid(1, 0), 1024).unwrap();
        pin.write().fill(0xAB);
        let mut handles = Vec::new();
        for _ in 0..4 {
            let pin = pin.clone();
            handles.push(std::thread::spawn(move || {
                let g = pin.read();
                assert!(g.iter().all(|&b| b == 0xAB));
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn zero_capacity_rejected() {
        assert!(BufferPool::new(BufferPoolConfig::new(0)).is_err());
    }

    #[test]
    fn slab_pool_also_works() {
        let p = BufferPool::new(BufferPoolConfig::new(1 << 16).with_slab_allocator()).unwrap();
        let pin = p.create_page(pid(1, 0), 100).unwrap();
        pin.write().fill(3);
        assert!(pin.read().iter().all(|&b| b == 3));
    }
}
