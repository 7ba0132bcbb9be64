//! The per-node storage engine: one unified buffer pool, one multi-disk
//! file system, one paging strategy — serving every locality set on the
//! node (paper §3.3 components 1–3).
//!
//! The node is the *mechanism* half of paging: when a page allocation
//! fails it snapshots the pool's residency state, asks the configured
//! [`PagingStrategy`] for victims, evicts them (flushing dirty write-back
//! pages whose lifetime has not ended — the paper's "spill"), and retries.

use crate::attributes::{SetAttributes, SetOptions};
use crate::set::LocalitySet;
use pangea_common::{FxHashMap, IoStats, PageId, PageNum, PangeaError, Result, SetId, WriteCause};
use pangea_paging::{strategy_by_name, CurrentOp, Durability, PageView, PagingStrategy};
use pangea_storage::{BufferPool, BufferPoolConfig, DiskConfig, DiskManager, PagePin, PagedFile};
use parking_lot::{Mutex, RwLock};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Eviction rounds attempted before an allocation is declared out of
/// memory. Each round can free many pages, so this bounds pathological
/// strategies, not normal operation.
const MAX_EVICTION_ROUNDS: usize = 256;

/// Storage-node construction parameters.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Unified buffer pool capacity in bytes.
    pub pool_capacity: usize,
    /// Pool allocator: `"tlsf"` (default) or `"slab"`.
    pub pool_allocator: String,
    /// Root directory for this node's simulated disks.
    pub data_dir: PathBuf,
    /// Number of disk drives to stripe locality-set files over.
    pub num_disks: usize,
    /// Optional per-disk bandwidth throttle (bytes/second). `None`
    /// disables throttling (unit tests); benches set it so wall-clock
    /// shapes track I/O volume.
    pub disk_bandwidth: Option<u64>,
    /// Paging strategy name (see [`pangea_paging::strategy_by_name`]).
    pub strategy: String,
    /// Default page size for new locality sets.
    pub default_page_size: usize,
}

impl NodeConfig {
    /// A node rooted at `dir` with sensible defaults: 64 MB pool, one
    /// disk, unthrottled, data-aware paging, 256 KB pages.
    pub fn new(dir: impl AsRef<Path>) -> Self {
        Self {
            pool_capacity: 64 * pangea_common::MB,
            pool_allocator: "tlsf".into(),
            data_dir: dir.as_ref().to_path_buf(),
            num_disks: 1,
            disk_bandwidth: None,
            strategy: "data-aware".into(),
            default_page_size: 256 * pangea_common::KB,
        }
    }

    /// Overrides the buffer pool capacity.
    pub fn with_pool_capacity(mut self, bytes: usize) -> Self {
        self.pool_capacity = bytes;
        self
    }

    /// Overrides the number of disks.
    pub fn with_disks(mut self, n: usize) -> Self {
        self.num_disks = n;
        self
    }

    /// Sets the per-disk bandwidth throttle.
    pub fn with_disk_bandwidth(mut self, bytes_per_sec: u64) -> Self {
        self.disk_bandwidth = Some(bytes_per_sec);
        self
    }

    /// Overrides the paging strategy.
    pub fn with_strategy(mut self, name: &str) -> Self {
        self.strategy = name.to_string();
        self
    }

    /// Overrides the default page size.
    pub fn with_page_size(mut self, bytes: usize) -> Self {
        self.default_page_size = bytes;
        self
    }

    /// Switches the pool to the slab allocator.
    pub fn with_slab_allocator(mut self) -> Self {
        self.pool_allocator = "slab".into();
        self
    }
}

/// Per-set state owned by the node.
#[derive(Debug)]
pub(crate) struct SetState {
    pub(crate) id: SetId,
    pub(crate) name: String,
    pub(crate) page_size: usize,
    pub(crate) attrs: RwLock<SetAttributes>,
    pub(crate) file: PagedFile,
    /// Next page ordinal to allocate (pages are dense `0..next_page`).
    pub(crate) next_page: AtomicU64,
}

impl SetState {
    pub(crate) fn attrs(&self) -> SetAttributes {
        *self.attrs.read()
    }
}

#[derive(Debug)]
pub(crate) struct NodeInner {
    pub(crate) pool: BufferPool,
    pub(crate) disks: Arc<DiskManager>,
    strategy: Mutex<Box<dyn PagingStrategy>>,
    pub(crate) sets: RwLock<FxHashMap<SetId, Arc<SetState>>>,
    names: Mutex<FxHashMap<String, SetId>>,
    next_set: AtomicU64,
    default_page_size: usize,
    paging: PagingCounters,
}

/// Node-level paging counters, shared by every locality set: a pin that
/// found its page resident (hit), a pin that had to read the disk
/// (miss), and bytes written out by spills and dirty-page eviction
/// flushes. Evictions themselves are counted by the pool's own stats.
#[derive(Debug, Default)]
struct PagingCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    spill_bytes: AtomicU64,
}

/// One coherent snapshot of a node's paging activity, combining the
/// node-level pin/spill counters with the pool's eviction counter and
/// residency gauges. This is the task-state memory story in numbers: a
/// job whose working set exceeds `pool_capacity` shows `spill_bytes`
/// and `misses` climbing while `pool_used` stays bounded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PagingStats {
    /// Page pins satisfied from the pool.
    pub hits: u64,
    /// Page pins that had to load the page from disk.
    pub misses: u64,
    /// Pages evicted from the pool.
    pub evictions: u64,
    /// Bytes flushed out by explicit spills and dirty-page evictions.
    pub spill_bytes: u64,
    /// Bytes of pool frames currently allocated.
    pub pool_used: u64,
    /// The pool's hard capacity in bytes (the `--pool-mb` budget).
    pub pool_capacity: u64,
    /// Pages currently resident in the pool.
    pub resident_pages: u64,
    /// Resident pages currently pinned by some service.
    pub pinned_pages: u64,
}

/// One worker node's storage engine. Cheap to clone (shared handle); all
/// methods are thread-safe.
#[derive(Debug, Clone)]
pub struct StorageNode {
    pub(crate) inner: Arc<NodeInner>,
}

impl StorageNode {
    /// Creates a node: allocates the buffer pool, opens the disks, and
    /// instantiates the paging strategy.
    pub fn new(config: NodeConfig) -> Result<Self> {
        if config.default_page_size <= crate::page::PAGE_HEADER {
            return Err(PangeaError::config(format!(
                "default page size {} too small",
                config.default_page_size
            )));
        }
        let mut pool_cfg = BufferPoolConfig::new(config.pool_capacity);
        pool_cfg.allocator = config.pool_allocator.clone();
        let pool = BufferPool::new(pool_cfg)?;
        let mut disk_cfg = DiskConfig::under(&config.data_dir, config.num_disks);
        if let Some(bw) = config.disk_bandwidth {
            disk_cfg = disk_cfg.with_bandwidth(bw);
        }
        let disks = Arc::new(DiskManager::new(disk_cfg)?);
        let capacity_pages = (config.pool_capacity / config.default_page_size).max(1) as u64;
        let strategy = strategy_by_name(&config.strategy, capacity_pages)?;
        Ok(Self {
            inner: Arc::new(NodeInner {
                pool,
                disks,
                strategy: Mutex::new(strategy),
                sets: RwLock::new(FxHashMap::default()),
                names: Mutex::new(FxHashMap::default()),
                next_set: AtomicU64::new(1),
                default_page_size: config.default_page_size,
                paging: PagingCounters::default(),
            }),
        })
    }

    /// The node's unified buffer pool.
    pub fn pool(&self) -> &BufferPool {
        &self.inner.pool
    }

    /// The node's disk manager.
    pub fn disks(&self) -> &Arc<DiskManager> {
        &self.inner.disks
    }

    /// Disk I/O counters (reads/writes move through these).
    pub fn disk_stats(&self) -> &Arc<IoStats> {
        self.inner.disks.stats()
    }

    /// Configured paging strategy name.
    pub fn strategy_name(&self) -> &'static str {
        self.inner.strategy.lock().name()
    }

    /// Default page size for new sets.
    pub fn default_page_size(&self) -> usize {
        self.inner.default_page_size
    }

    /// Snapshot of the node's paging activity (pin hits/misses, spill
    /// bytes) combined with the pool's eviction counter and residency.
    pub fn paging_stats(&self) -> PagingStats {
        let pool = self.inner.pool.pool_stats();
        PagingStats {
            hits: self.inner.paging.hits.load(Ordering::Relaxed),
            misses: self.inner.paging.misses.load(Ordering::Relaxed),
            evictions: self.inner.pool.stats().snapshot().pages_evicted,
            spill_bytes: self.inner.paging.spill_bytes.load(Ordering::Relaxed),
            pool_used: self.inner.pool.used() as u64,
            pool_capacity: self.inner.pool.capacity() as u64,
            resident_pages: pool.resident_pages as u64,
            pinned_pages: pool.pinned_pages as u64,
        }
    }

    // ------------------------------------------------------------------
    // Set lifecycle
    // ------------------------------------------------------------------

    /// Creates a locality set (paper §3.2 `createSet`). Names are unique
    /// per node.
    pub fn create_set(&self, name: &str, options: SetOptions) -> Result<LocalitySet> {
        let page_size = options.page_size.unwrap_or(self.inner.default_page_size);
        if page_size <= crate::page::PAGE_HEADER + crate::page::RECORD_PREFIX {
            return Err(PangeaError::config(format!(
                "page size {page_size} too small for the record layout"
            )));
        }
        if page_size > self.inner.pool.capacity() {
            return Err(PangeaError::config(format!(
                "page size {page_size} exceeds pool capacity {}",
                self.inner.pool.capacity()
            )));
        }
        let mut names = self.inner.names.lock();
        if names.contains_key(name) {
            return Err(PangeaError::usage(format!(
                "locality set '{name}' already exists"
            )));
        }
        let id = SetId(self.inner.next_set.fetch_add(1, Ordering::Relaxed));
        let attrs = SetAttributes {
            durability: options.durability,
            estimated_pages: options.estimated_pages,
            ..Default::default()
        };
        let state = Arc::new(SetState {
            id,
            name: name.to_string(),
            page_size,
            attrs: RwLock::new(attrs),
            file: PagedFile::create(id, Arc::clone(&self.inner.disks)),
            next_page: AtomicU64::new(0),
        });
        self.inner
            .strategy
            .lock()
            .update_set(id, attrs.profile(page_size))?;
        names.insert(name.to_string(), id);
        self.inner.sets.write().insert(id, Arc::clone(&state));
        Ok(LocalitySet::new(self.clone(), state))
    }

    /// Looks a set up by name.
    pub fn get_set(&self, name: &str) -> Option<LocalitySet> {
        let id = *self.inner.names.lock().get(name)?;
        let state = Arc::clone(self.inner.sets.read().get(&id)?);
        Some(LocalitySet::new(self.clone(), state))
    }

    /// Looks a set up by id.
    pub fn get_set_by_id(&self, id: SetId) -> Option<LocalitySet> {
        let state = Arc::clone(self.inner.sets.read().get(&id)?);
        Some(LocalitySet::new(self.clone(), state))
    }

    /// All locality sets currently on this node.
    pub fn set_ids(&self) -> Vec<SetId> {
        let mut v: Vec<SetId> = self.inner.sets.read().keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Removes a set entirely: drops its resident pages (no flush) and
    /// deletes its files.
    pub fn drop_set(&self, id: SetId) -> Result<()> {
        let state = self
            .inner
            .sets
            .write()
            .remove(&id)
            .ok_or(PangeaError::SetNotFound(id))?;
        self.inner.names.lock().remove(&state.name);
        for num in self.inner.pool.resident_of_set(id) {
            // Pinned pages mean the caller is still using the set; that is
            // an API misuse we surface rather than ignore.
            self.inner.pool.drop_page(PageId::new(id, num))?;
            self.inner
                .strategy
                .lock()
                .on_page_evicted(PageId::new(id, num));
        }
        state.file.delete()?;
        self.inner.strategy.lock().remove_set(id);
        Ok(())
    }

    /// Re-publishes a set's paging profile after an attribute change.
    pub(crate) fn republish_profile(&self, state: &SetState) -> Result<()> {
        let profile = state.attrs().profile(state.page_size);
        self.inner.strategy.lock().update_set(state.id, profile)
    }

    // ------------------------------------------------------------------
    // Page operations
    // ------------------------------------------------------------------

    /// Allocates and pins a brand-new page of `set`, evicting as needed.
    /// The page bytes are initialized as an empty record page.
    pub(crate) fn new_pinned_page(&self, state: &SetState) -> Result<PagePin> {
        let num = state.next_page.fetch_add(1, Ordering::Relaxed);
        let page = PageId::new(state.id, num);
        let pin = self.with_room(state.page_size, || {
            self.inner.pool.create_page(page, state.page_size)
        })?;
        crate::page::init_record_page(&mut pin.write());
        self.inner
            .strategy
            .lock()
            .on_page_cached(page, pin.last_access());
        Ok(pin)
    }

    /// Pins page `num` of `set`, loading it from disk when not resident
    /// (paper §4: "When reading a page, Pangea first checks the buffer
    /// pool [...] If the page is not present, the page needs to be cached
    /// first").
    pub(crate) fn pin_page(&self, state: &SetState, num: PageNum) -> Result<PagePin> {
        let page = PageId::new(state.id, num);
        if let Some(pin) = self.inner.pool.pin_existing(page) {
            self.inner.paging.hits.fetch_add(1, Ordering::Relaxed);
            self.inner
                .strategy
                .lock()
                .on_page_accessed(page, pin.last_access());
            return Ok(pin);
        }
        self.inner.paging.misses.fetch_add(1, Ordering::Relaxed);
        let bytes = state.file.read_page(num)?;
        let pin = self.with_room(bytes.len(), || {
            // Another thread may have loaded it while we read the disk.
            if let Some(pin) = self.inner.pool.pin_existing(page) {
                return Ok(pin);
            }
            self.inner.pool.insert_from_disk(page, &bytes)
        })?;
        self.inner
            .strategy
            .lock()
            .on_page_cached(page, pin.last_access());
        Ok(pin)
    }

    /// Seals a page a writer has finished with: under `write-through`
    /// durability the page is persisted immediately and marked clean;
    /// under `write-back` it stays dirty in memory until evicted.
    pub(crate) fn seal_page(&self, state: &SetState, pin: &PagePin) -> Result<()> {
        if state.attrs().durability == Durability::WriteThrough {
            let bytes = pin.read();
            self.write_page(state, pin.page_id().num, &bytes, WriteCause::Seal)?;
            drop(bytes);
            pin.mark_clean();
            self.inner.disks.stats().record_flush();
        }
        Ok(())
    }

    /// Writes one page image to its set's file, attributing the bytes
    /// to `cause` — every page write goes through here, so the
    /// `io.disk_write_bytes.*` split adds up to the page bytes written.
    fn write_page(
        &self,
        state: &SetState,
        num: PageNum,
        bytes: &[u8],
        cause: WriteCause,
    ) -> Result<()> {
        state.file.write_page(num, bytes)?;
        self.inner
            .disks
            .stats()
            .record_write_cause(cause, bytes.len());
        Ok(())
    }

    /// Explicitly spills a pinned page: flushes its bytes to the set's
    /// file and removes it from the pool, recycling its memory. The
    /// caller hands over its pin, which must be the only one it holds.
    /// Used by the hash service when a full hash page must be "unpinned
    /// and spilled to disk as partial-aggregation results" (paper §8).
    ///
    /// The frame is removed *while still pinned* ([`BufferPool::
    /// evict_pinned`]): unpinning first would let an eviction round on
    /// another thread take the page — or its short flush pin — in
    /// between. A round that already holds that flush pin keeps the
    /// page resident instead; it is clean by then, so that round or a
    /// later one drops it without writing.
    pub(crate) fn spill_page_out(&self, state: &SetState, pin: PagePin) -> Result<()> {
        let page = pin.page_id();
        {
            let bytes = pin.read();
            self.write_page(state, page.num, &bytes, WriteCause::Spill)?;
            self.inner
                .paging
                .spill_bytes
                .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        }
        pin.mark_clean();
        self.inner.disks.stats().record_flush();
        if let Ok(frame) = self.inner.pool.evict_pinned(pin) {
            drop(frame); // recycles the arena block
            self.inner.strategy.lock().on_page_evicted(page);
        }
        Ok(())
    }

    /// Marks a set's lifetime ended: unpinned resident pages are dropped
    /// immediately without flushing ("data that will not be accessed
    /// should be evicted as soon as their lifetimes expire", §3.1), and
    /// the paging system will evict any still-pinned remainder first.
    pub(crate) fn end_lifetime(&self, state: &SetState) -> Result<()> {
        {
            let mut attrs = state.attrs.write();
            attrs.lifetime_ended = true;
            attrs.op = CurrentOp::None;
        }
        self.republish_profile(state)?;
        let mut strategy = self.inner.strategy.lock();
        for num in self.inner.pool.resident_of_set(state.id) {
            let page = PageId::new(state.id, num);
            if self
                .inner
                .pool
                .evict(page)
                .map(|e| e.is_some())
                .unwrap_or(false)
            {
                strategy.on_page_evicted(page);
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Eviction (the mechanism half of paper §6)
    // ------------------------------------------------------------------

    /// Runs `attempt`; on [`PangeaError::OutOfMemory`] evicts victims
    /// chosen by the paging strategy and retries, up to
    /// [`MAX_EVICTION_ROUNDS`] rounds.
    ///
    /// Under concurrency, two threads can pick the same victims: the
    /// loser's eviction round frees nothing even though memory was just
    /// released (and possibly re-consumed). An empty round is therefore
    /// not proof of exhaustion — OOM is surfaced only after several
    /// consecutive empty rounds.
    pub(crate) fn with_room<T>(
        &self,
        _requested: usize,
        mut attempt: impl FnMut() -> Result<T>,
    ) -> Result<T> {
        let mut consecutive_empty = 0u32;
        for _ in 0..MAX_EVICTION_ROUNDS {
            match attempt() {
                Err(PangeaError::OutOfMemory { .. }) => {
                    if self.evict_round()? == 0 {
                        consecutive_empty += 1;
                        if consecutive_empty >= 8 {
                            return attempt(); // surface the real OOM error
                        }
                        std::thread::yield_now();
                    } else {
                        consecutive_empty = 0;
                    }
                }
                other => return other,
            }
        }
        attempt()
    }

    /// One eviction round: snapshot residency, ask the strategy for
    /// victims, evict and (when required) spill them. Returns the number
    /// of pages actually evicted.
    pub(crate) fn evict_round(&self) -> Result<usize> {
        let views = self.page_views();
        if views.is_empty() {
            return Ok(0);
        }
        let now = self.inner.pool.clock().now();
        let victims = {
            let mut strategy = self.inner.strategy.lock();
            strategy.choose_victims(&views, now)
        };
        let mut evicted = 0;
        for page in victims {
            if self.evict_one(page)? {
                evicted += 1;
            }
        }
        Ok(evicted)
    }

    /// Evicts a single page, spilling it first when it is dirty, its
    /// set is still alive, and (write-back) it has no up-to-date on-disk
    /// image. Returns false when the page was pinned or already gone.
    ///
    /// Ordering matters: the flush happens *while the page is still
    /// resident* (under a short-lived pin), and only then is the frame
    /// removed. A reader that misses the pool therefore always finds a
    /// complete on-disk image — flushing after removal would open a
    /// window where a concurrent `pin_page` reads a stale or in-flight
    /// file version.
    fn evict_one(&self, page: PageId) -> Result<bool> {
        let Some(state) = self.inner.sets.read().get(&page.set).cloned() else {
            // Set dropped concurrently; nothing to spill to.
            let _ = self.inner.pool.drop_page(page);
            self.inner.strategy.lock().on_page_evicted(page);
            return Ok(true);
        };
        let attrs = state.attrs();
        let Some(pin) = self.inner.pool.pin_existing(page) else {
            return Ok(false); // evicted by a racing round
        };
        if pin.is_dirty() && !attrs.lifetime_ended {
            // Paper §5: "Before evicting an unpinned page that is marked
            // as dirty but is still within its locality set's lifetime,
            // we need to make sure that all the changes are written back
            // to the Pangea file system first."
            let bytes = pin.read();
            self.write_page(&state, page.num, &bytes, WriteCause::Evict)?;
            self.inner
                .paging
                .spill_bytes
                .fetch_add(bytes.len() as u64, Ordering::Relaxed);
            drop(bytes);
            pin.mark_clean();
            self.inner.disks.stats().record_flush();
        }
        drop(pin);
        // Another thread may have pinned it meanwhile — skip then; the
        // flush above is still valid (the page is now clean).
        match self.inner.pool.evict(page) {
            Ok(Some(frame)) => {
                drop(frame); // recycles the arena block
                self.inner.strategy.lock().on_page_evicted(page);
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    /// Snapshot of every resident page as the paging strategies see it.
    /// Pages of `Location: pinned` sets are reported unevictable.
    fn page_views(&self) -> Vec<PageView> {
        let sets = self.inner.sets.read();
        self.inner
            .pool
            .resident_pages()
            .into_iter()
            .filter_map(|page| {
                let (pins, dirty, last_access) = self.inner.pool.page_meta(page)?;
                let location_pinned = sets
                    .get(&page.set)
                    .map(|s| s.attrs().pinned)
                    .unwrap_or(false);
                Some(PageView {
                    page,
                    last_access,
                    evictable: pins == 0 && !location_pinned,
                    dirty,
                })
            })
            .collect()
    }

    /// Flushes every dirty resident page of live sets to disk and
    /// persists all meta files (an orderly shutdown / checkpoint).
    pub fn checkpoint(&self) -> Result<()> {
        let sets: Vec<Arc<SetState>> = self.inner.sets.read().values().cloned().collect();
        for state in sets {
            if state.attrs().lifetime_ended {
                continue;
            }
            for num in self.inner.pool.resident_of_set(state.id) {
                let page = PageId::new(state.id, num);
                let Some(pin) = self.inner.pool.pin_existing(page) else {
                    continue;
                };
                if pin.is_dirty() {
                    // The write-back an eviction would otherwise do.
                    let bytes = pin.read();
                    self.write_page(&state, num, &bytes, WriteCause::Evict)?;
                    drop(bytes);
                    pin.mark_clean();
                    self.inner.disks.stats().record_flush();
                }
            }
            state.file.persist_meta()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pangea_common::KB;
    use std::path::PathBuf;

    fn test_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "pangea-node-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn node(tag: &str, pool: usize, page: usize) -> StorageNode {
        StorageNode::new(
            NodeConfig::new(test_dir(tag))
                .with_pool_capacity(pool)
                .with_page_size(page),
        )
        .unwrap()
    }

    #[test]
    fn create_and_lookup_sets() {
        let n = node("lookup", 64 * KB, 4 * KB);
        let s = n.create_set("points", SetOptions::write_through()).unwrap();
        assert_eq!(n.get_set("points").unwrap().id(), s.id());
        assert!(n.get_set("missing").is_none());
        assert!(n.create_set("points", SetOptions::default()).is_err());
        assert_eq!(n.set_ids(), vec![s.id()]);
    }

    #[test]
    fn page_size_validation() {
        let n = node("pagesz", 64 * KB, 4 * KB);
        assert!(n
            .create_set("tiny", SetOptions::default().with_page_size(4))
            .is_err());
        assert!(n
            .create_set("huge", SetOptions::default().with_page_size(1 << 30))
            .is_err());
    }

    #[test]
    fn eviction_spills_write_back_pages_and_reloads_them() {
        // Pool fits 4 pages; write 8, then read them all back.
        let n = node("spill", 16 * KB, 4 * KB);
        let s = n.create_set("job", SetOptions::write_back()).unwrap();
        let mut w = s.writer();
        for i in 0..8u64 {
            w.add_object(&i.to_le_bytes()).unwrap();
            w.seal_current().unwrap(); // force one record per page
        }
        w.finish().unwrap();
        assert!(
            n.disk_stats().snapshot().pages_flushed > 0,
            "evictions must have spilled dirty pages"
        );
        // Every record is recoverable (resident or spilled).
        let mut seen = Vec::new();
        for num in s.page_numbers() {
            let pin = s.pin_page(num).unwrap();
            crate::page::ObjectIter::new(&pin).for_each(|rec| {
                seen.push(u64::from_le_bytes(rec.try_into().unwrap()));
            });
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn write_through_pages_flush_on_seal_not_on_evict() {
        let n = node("wt", 16 * KB, 4 * KB);
        let s = n.create_set("user", SetOptions::write_through()).unwrap();
        let mut w = s.writer();
        w.add_object(b"persist me").unwrap();
        w.finish().unwrap();
        let after_seal = n.disk_stats().snapshot();
        assert_eq!(after_seal.pages_flushed, 1, "seal persisted the page");
        // Evicting the (clean) page must not write again.
        let evicted = n.evict_round().unwrap();
        assert!(evicted >= 1);
        assert_eq!(
            n.disk_stats().snapshot().pages_flushed,
            after_seal.pages_flushed
        );
        // And it reloads from disk.
        let pin = s.pin_page(0).unwrap();
        let mut it = crate::page::ObjectIter::new(&pin);
        assert_eq!(it.next(), Some(b"persist me".as_slice()));
    }

    #[test]
    fn write_causes_sum_to_the_disk_write_counter() {
        // Pool of 4 pages: a write-through seal, a write-back set of 8
        // pages written back on eviction, and one explicit spill.
        let n = node("causes", 16 * KB, 4 * KB);
        let wt = n.create_set("user", SetOptions::write_through()).unwrap();
        let mut w = wt.writer();
        w.add_object(b"sealed").unwrap();
        w.finish().unwrap();
        let wb = n.create_set("job", SetOptions::write_back()).unwrap();
        let mut w = wb.writer();
        for i in 0..8u64 {
            w.add_object(&i.to_le_bytes()).unwrap();
            w.seal_current().unwrap();
        }
        w.finish().unwrap();
        let spilled = n.create_set("hash", SetOptions::write_back()).unwrap();
        spilled.spill_page_out(spilled.new_page().unwrap()).unwrap();

        let stats = n.disk_stats();
        let by_cause = WriteCause::ALL.map(|c| stats.write_cause_bytes(c));
        let page = 4 * KB as u64;
        assert_eq!(by_cause[WriteCause::Seal as usize], page);
        assert_eq!(by_cause[WriteCause::Spill as usize], page);
        assert!(by_cause[WriteCause::Evict as usize] >= page);
        assert_eq!(
            by_cause.iter().sum::<u64>(),
            stats.snapshot().disk_write_bytes
        );
    }

    #[test]
    fn lifetime_ended_pages_drop_without_flush() {
        let n = node("lifetime", 16 * KB, 4 * KB);
        let s = n.create_set("tmp", SetOptions::write_back()).unwrap();
        let mut w = s.writer();
        w.add_object(b"scratch").unwrap();
        w.finish().unwrap();
        s.end_lifetime().unwrap();
        assert_eq!(
            n.disk_stats().snapshot().pages_flushed,
            0,
            "expired data must never be spilled"
        );
        assert!(n.pool().resident_of_set(s.id()).is_empty());
    }

    #[test]
    fn oom_when_everything_is_pinned() {
        let n = node("oom", 8 * KB, 4 * KB);
        let s = n.create_set("s", SetOptions::write_back()).unwrap();
        let _a = s.new_page().unwrap();
        let _b = s.new_page().unwrap();
        match s.new_page() {
            Err(PangeaError::OutOfMemory { .. }) => {}
            other => panic!("expected OOM, got {other:?}"),
        }
    }

    #[test]
    fn drop_set_removes_pages_and_files() {
        let n = node("dropset", 32 * KB, 4 * KB);
        let s = n.create_set("gone", SetOptions::write_back()).unwrap();
        let mut w = s.writer();
        for i in 0..4u64 {
            w.add_object(&i.to_le_bytes()).unwrap();
            w.seal_current().unwrap();
        }
        w.finish().unwrap();
        let id = s.id();
        drop(w);
        n.drop_set(id).unwrap();
        assert!(n.get_set("gone").is_none());
        assert!(n.pool().resident_of_set(id).is_empty());
        assert!(n.get_set_by_id(id).is_none());
    }

    #[test]
    fn checkpoint_then_reload_meta() {
        let dir = test_dir("ckpt");
        let n = StorageNode::new(
            NodeConfig::new(&dir)
                .with_pool_capacity(32 * KB)
                .with_page_size(4 * KB),
        )
        .unwrap();
        let s = n.create_set("durable", SetOptions::write_back()).unwrap();
        let mut w = s.writer();
        w.add_object(b"survives").unwrap();
        w.finish().unwrap();
        n.checkpoint().unwrap();
        // The page is now on disk even though the set is write-back.
        assert!(s.bytes_on_disk() > 0);
    }

    #[test]
    fn pinned_location_sets_are_never_victims() {
        let n = node("pinned", 16 * KB, 4 * KB);
        let s = n.create_set("keep", SetOptions::write_back()).unwrap();
        s.set_pinned(true).unwrap();
        let mut w = s.writer();
        w.add_object(b"a").unwrap();
        w.finish().unwrap();
        assert_eq!(n.evict_round().unwrap(), 0, "pinned set has no victims");
        s.set_pinned(false).unwrap();
        assert!(n.evict_round().unwrap() >= 1);
    }
}
