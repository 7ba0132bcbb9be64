//! The hash service and virtual hash buffer (paper §8).
//!
//! "Pangea's hash service adopts a dynamic partitioning approach, where
//! each page contains an independent hash table, as well as all of its
//! associated key-value pairs. [...] We start from K pages as K root
//! partitions, all indexed by a virtual hash buffer. When there is no
//! free memory in one page, we allocate a new page from the buffer pool
//! and split a new child hash partition from the partition in the page
//! that has used up its memory. We iterate using this process until
//! there is no page that can be allocated from the buffer pool [...].
//! Then, when a page is full, the system needs to select a page, unpin
//! it, and spill it to disk as partial-aggregation results. When all
//! objects are inserted through the virtual hash buffer, we re-aggregate
//! those spilled partial aggregation results for each partition."
//!
//! Splitting is extendible: each root partition keeps a directory of
//! pages addressed by the upper hash bits; a full page of local depth
//! `d` splits its entries with bit `d` into a sibling of depth `d+1`.

use crate::attributes::SetOptions;
use crate::hashpage::{self, HashInsert};
use crate::node::StorageNode;
use crate::set::LocalitySet;
use pangea_common::{fx_hash64, FxHashMap, PageNum, PangeaError, Record, Result};
use pangea_paging::{ReadPattern, WritePattern};
use pangea_storage::PagePin;
use std::marker::PhantomData;

/// Hard cap on a root partition's directory depth; with page splitting
/// bounded by memory this is never reached in practice.
const MAX_DEPTH: u32 = 20;

/// Hash-service construction parameters.
#[derive(Debug, Clone)]
pub struct HashConfig {
    /// Number of root partitions `K` (the paper initializes 200 for the
    /// Table 4 benchmark; tests use a handful).
    pub root_partitions: u32,
    /// Page size for hash pages; `None` uses the node default.
    pub page_size: Option<usize>,
}

impl HashConfig {
    /// `k` root partitions with the node's default page size.
    pub fn new(root_partitions: u32) -> Self {
        Self {
            root_partitions,
            page_size: None,
        }
    }

    /// Overrides the hash page size.
    pub fn with_page_size(mut self, bytes: usize) -> Self {
        self.page_size = Some(bytes);
        self
    }
}

/// One root partition's extendible directory.
#[derive(Debug)]
struct RootPartition {
    /// Maps the low `depth` sub-hash bits to an index into
    /// [`VirtualHashBuffer::pages`].
    dir: Vec<u32>,
    depth: u32,
}

/// A distributed aggregation hash map over Pangea pages: keys are byte
/// strings, values any [`Record`]; collisions on insert are resolved by
/// the merge function (the paper's `buffer->set(key, value)` for
/// aggregation).
pub struct VirtualHashBuffer<V, F>
where
    V: Record,
    F: FnMut(&mut V, V),
{
    set: LocalitySet,
    /// Page ordinals spilled to disk as partial-aggregation results.
    spilled_pages: Vec<PageNum>,
    roots: Vec<RootPartition>,
    pages: Vec<Option<PagePin>>,
    merge: F,
    n_buckets: u32,
    scratch: Vec<u8>,
    spilled_entries: u64,
    /// Set by [`VirtualHashBuffer::finalize`]; a buffer dropped without
    /// finalizing (an aborted task, a poisoned session) releases its
    /// pins and backing set in `Drop` instead of leaking them.
    released: bool,
    _values: PhantomData<V>,
}

impl<V, F> Drop for VirtualHashBuffer<V, F>
where
    V: Record,
    F: FnMut(&mut V, V),
{
    fn drop(&mut self) {
        if self.released {
            return;
        }
        for slot in &mut self.pages {
            slot.take();
        }
        let _ = self.set.end_lifetime();
        let id = self.set.id();
        let _ = self.set.node().drop_set(id);
    }
}

impl<V, F> std::fmt::Debug for VirtualHashBuffer<V, F>
where
    V: Record,
    F: FnMut(&mut V, V),
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VirtualHashBuffer")
            .field("set", &self.set.id())
            .field("roots", &self.roots.len())
            .field("pages", &self.pages.len())
            .field("spilled_pages", &self.spilled_pages.len())
            .field("spilled_entries", &self.spilled_entries)
            .finish()
    }
}

#[inline]
fn route(key: &[u8], k: u32) -> (usize, u64) {
    let h = fx_hash64(key);
    ((h % k as u64) as usize, h >> 32)
}

impl<V, F> VirtualHashBuffer<V, F>
where
    V: Record,
    F: FnMut(&mut V, V),
{
    /// Creates the backing write-back locality set (`random-mutable-write`
    /// plus `random-read`, per §3.2's service-driven attribute inference)
    /// and pins `K` empty root pages.
    pub fn create(node: &StorageNode, name: &str, config: HashConfig, merge: F) -> Result<Self> {
        if config.root_partitions == 0 {
            return Err(PangeaError::config("need at least one root partition"));
        }
        let page_size = config.page_size.unwrap_or(node.default_page_size());
        let set = node.create_set(name, SetOptions::write_back().with_page_size(page_size))?;
        set.declare_write(WritePattern::RandomMutable)?;
        set.declare_read(ReadPattern::Random)?;
        let n_buckets = hashpage::buckets_for(page_size);
        let mut pages = Vec::with_capacity(config.root_partitions as usize);
        let mut roots = Vec::with_capacity(config.root_partitions as usize);
        for _ in 0..config.root_partitions {
            let pin = set.new_page()?;
            hashpage::init(&mut pin.write(), n_buckets, 0)?;
            roots.push(RootPartition {
                dir: vec![pages.len() as u32],
                depth: 0,
            });
            pages.push(Some(pin));
        }
        Ok(Self {
            set,
            spilled_pages: Vec::new(),
            roots,
            pages,
            merge,
            n_buckets,
            scratch: Vec::new(),
            spilled_entries: 0,
            released: false,
            _values: PhantomData,
        })
    }

    /// The backing locality set.
    pub fn set(&self) -> &LocalitySet {
        &self.set
    }

    /// Number of hash pages currently pinned.
    pub fn num_pages(&self) -> usize {
        self.pages.len()
    }

    /// Entries spilled to disk as partial-aggregation results so far.
    pub fn spilled_entries(&self) -> u64 {
        self.spilled_entries
    }

    /// Live entries across all in-memory pages (spilled partials not
    /// included).
    pub fn in_memory_items(&self) -> u64 {
        self.pages
            .iter()
            .flatten()
            .map(|p| hashpage::n_items(&p.read()) as u64)
            .sum()
    }

    fn page_for(&self, root: usize, sub: u64) -> usize {
        let r = &self.roots[root];
        let slot = (sub & ((1u64 << r.depth) - 1)) as usize;
        r.dir[slot] as usize
    }

    fn page(&self, idx: usize) -> &PagePin {
        self.pages[idx]
            .as_ref()
            .expect("hash pages are always present")
    }

    /// Inserts `key → val`, merging with the existing value when the key
    /// is already present (the paper's `find` / `insert` / `set` flow,
    /// fused because aggregation always merges).
    pub fn insert_merge(&mut self, key: &[u8], val: V) -> Result<()> {
        let (root, sub) = route(key, self.roots.len() as u32);
        let page_idx = self.page_for(root, sub);
        let pin = self.page(page_idx);
        let mut guard = pin.write();
        self.scratch.clear();
        match hashpage::lookup(&guard, key) {
            Some(existing) => {
                let mut current = V::decode(existing)?;
                (self.merge)(&mut current, val);
                current.encode(&mut self.scratch);
                // Re-borrow val for the retry path below.
                match hashpage::insert(&mut guard, key, &self.scratch)? {
                    HashInsert::Inserted | HashInsert::Updated => Ok(()),
                    HashInsert::Full => {
                        drop(guard);
                        let merged = V::decode(&self.scratch)?;
                        self.make_room(root, page_idx)?;
                        self.insert_no_merge(key, merged)
                    }
                }
            }
            None => {
                val.encode(&mut self.scratch);
                match hashpage::insert(&mut guard, key, &self.scratch)? {
                    HashInsert::Inserted | HashInsert::Updated => Ok(()),
                    HashInsert::Full => {
                        drop(guard);
                        let v = V::decode(&self.scratch)?;
                        self.make_room(root, page_idx)?;
                        // Retry the full merge path: the key may land
                        // on a different page after a split.
                        self.insert_merge(key, v)
                    }
                }
            }
        }
    }

    /// Insert after a merge already happened (no second merge on retry).
    fn insert_no_merge(&mut self, key: &[u8], val: V) -> Result<()> {
        let (root, sub) = route(key, self.roots.len() as u32);
        loop {
            let page_idx = self.page_for(root, sub);
            self.scratch.clear();
            val.encode(&mut self.scratch);
            let outcome = hashpage::insert(&mut self.page(page_idx).write(), key, &self.scratch)?;
            match outcome {
                HashInsert::Inserted | HashInsert::Updated => return Ok(()),
                HashInsert::Full => self.make_room(root, page_idx)?,
            }
        }
    }

    /// Looks up the current in-memory value for `key`. Spilled partial
    /// aggregates are only folded in by [`VirtualHashBuffer::finalize`].
    pub fn get(&self, key: &[u8]) -> Result<Option<V>> {
        let (root, sub) = route(key, self.roots.len() as u32);
        let pin = self.page(self.page_for(root, sub));
        let guard = pin.read();
        match hashpage::lookup(&guard, key) {
            Some(bytes) => Ok(Some(V::decode(bytes)?)),
            None => Ok(None),
        }
    }

    /// A full page needs room: split the partition if the pool can give
    /// us a page, otherwise spill the page as partial-aggregation results.
    fn make_room(&mut self, root: usize, page_idx: usize) -> Result<()> {
        if self.roots[root].depth < MAX_DEPTH {
            match self.set.new_page() {
                Ok(new_pin) => return self.split(root, page_idx, new_pin),
                Err(PangeaError::OutOfMemory { .. }) => {}
                Err(e) => return Err(e),
            }
        }
        self.spill_page(root, page_idx)
    }

    /// Splits `page_idx` (local depth `d`) into itself plus a sibling of
    /// depth `d+1`, redistributing entries by sub-hash bit `d`.
    fn split(&mut self, root: usize, page_idx: usize, new_pin: PagePin) -> Result<()> {
        let old_depth = hashpage::local_depth(&self.page(page_idx).read());
        // Grow the directory if the page is at the directory's depth.
        if old_depth == self.roots[root].depth {
            let r = &mut self.roots[root];
            let old = std::mem::take(&mut r.dir);
            r.dir = old.iter().chain(old.iter()).copied().collect();
            r.depth += 1;
        }
        let new_idx = self.pages.len() as u32;
        hashpage::init(&mut new_pin.write(), self.n_buckets, old_depth + 1)?;
        self.pages.push(Some(new_pin));
        // Re-point directory slots whose bit `old_depth` is set.
        {
            let r = &mut self.roots[root];
            for (slot, target) in r.dir.iter_mut().enumerate() {
                if *target == page_idx as u32 && (slot >> old_depth) & 1 == 1 {
                    *target = new_idx;
                }
            }
        }
        // Redistribute: drain the old page, reinsert by bit `old_depth`.
        let moved = hashpage::entries(&self.page(page_idx).read());
        {
            let mut old_guard = self.page(page_idx).write();
            hashpage::init(&mut old_guard, self.n_buckets, old_depth + 1)?;
        }
        for (key, val) in moved {
            let (_, sub) = route(&key, self.roots.len() as u32);
            let dest = if (sub >> old_depth) & 1 == 1 {
                new_idx as usize
            } else {
                page_idx
            };
            let r = hashpage::insert(&mut self.page(dest).write(), &key, &val)?;
            debug_assert!(
                !matches!(r, HashInsert::Full),
                "redistributed entries always fit a fresh page"
            );
        }
        Ok(())
    }

    /// Spills the full page itself — "select a page, unpin it, and spill
    /// it to disk as partial-aggregation results" (§8): its bytes are
    /// flushed to the set's file, the pool frame is freed, and a fresh
    /// page takes its slot in the directory.
    fn spill_page(&mut self, _root: usize, page_idx: usize) -> Result<()> {
        let pin = self.pages[page_idx]
            .take()
            .expect("hash pages are always present");
        let depth = hashpage::local_depth(&pin.read());
        self.spilled_entries += hashpage::n_items(&pin.read()) as u64;
        self.spilled_pages.push(pin.page_id().num);
        self.set.spill_page_out(pin)?;
        // The freed frame makes room for this allocation (`new_page`
        // evicts for it in the rare case a racing round kept the frame).
        let fresh = self.set.new_page()?;
        hashpage::init(&mut fresh.write(), self.n_buckets, depth)?;
        self.pages[page_idx] = Some(fresh);
        Ok(())
    }

    /// Re-aggregates spilled partials with the in-memory pages and
    /// returns every `(key, value)` pair, ending the lifetime of the
    /// hash set and its spill set (paper: "we re-aggregate those spilled
    /// partial aggregation results for each partition").
    pub fn finalize(mut self) -> Result<Vec<(Vec<u8>, V)>> {
        let mut result: FxHashMap<Vec<u8>, V> = FxHashMap::default();
        let fold =
            |result: &mut FxHashMap<Vec<u8>, V>, merge: &mut F, bytes: &[u8]| -> Result<()> {
                let mut pending: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
                hashpage::for_each(bytes, |k, v| pending.push((k.to_vec(), v.to_vec())));
                for (k, v_bytes) in pending {
                    let v = V::decode(&v_bytes)?;
                    match result.entry(k) {
                        std::collections::hash_map::Entry::Occupied(mut e) => merge(e.get_mut(), v),
                        std::collections::hash_map::Entry::Vacant(e) => {
                            e.insert(v);
                        }
                    }
                }
                Ok(())
            };
        // In-memory pages first; drop each pin as it is folded so the
        // pool frees up for reloading spilled pages.
        for slot in &mut self.pages {
            let pin = slot.take().expect("hash pages are always present");
            let guard = pin.read();
            fold(&mut result, &mut self.merge, &guard)?;
            drop(guard);
        }
        // Spilled partial-aggregation pages, reloaded from the set's file.
        let spilled = std::mem::take(&mut self.spilled_pages);
        for num in spilled {
            let pin = self.set.pin_page(num)?;
            let guard = pin.read();
            fold(&mut result, &mut self.merge, &guard)?;
            drop(guard);
        }
        // Expire and drop the backing set.
        self.set.end_lifetime()?;
        let id = self.set.id();
        self.set.node().drop_set(id)?;
        self.released = true;
        Ok(result.into_iter().collect())
    }
}

/// Convenience alias: string keys, `u64` counts, addition merge — the
/// shape of the paper's Table 4 `<string,int>` aggregation.
pub type CountingHashBuffer = VirtualHashBuffer<u64, fn(&mut u64, u64)>;

/// The distributed task algebra's accumulator shape: byte-string keys,
/// signed 64-bit partials, an op-specific merge (count/sum/min/max)
/// passed as a plain function pointer so sessions can hold the buffer
/// as a concrete type.
pub type ReduceBuffer = VirtualHashBuffer<i64, fn(&mut i64, i64)>;

/// Creates a counting (sum) hash buffer.
pub fn counting_hash_buffer(
    node: &StorageNode,
    name: &str,
    config: HashConfig,
) -> Result<CountingHashBuffer> {
    VirtualHashBuffer::create(node, name, config, |acc: &mut u64, v: u64| *acc += v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{NodeConfig, StorageNode};
    use pangea_common::KB;

    fn node(tag: &str, pool_kb: usize) -> StorageNode {
        let dir = std::env::temp_dir().join(format!(
            "pangea-hash-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        StorageNode::new(
            NodeConfig::new(dir)
                .with_pool_capacity(pool_kb * KB)
                .with_page_size(KB),
        )
        .unwrap()
    }

    #[test]
    fn aggregates_counts_in_memory() {
        let n = node("counts", 64);
        let mut h = counting_hash_buffer(&n, "agg", HashConfig::new(2)).unwrap();
        for i in 0..300u32 {
            h.insert_merge(format!("k{}", i % 30).as_bytes(), 1)
                .unwrap();
        }
        assert_eq!(h.get(b"k0").unwrap(), Some(10));
        assert_eq!(h.get(b"k29").unwrap(), Some(10));
        assert_eq!(h.get(b"nope").unwrap(), None);
        let out = h.finalize().unwrap();
        assert_eq!(out.len(), 30);
        assert!(out.iter().all(|(_, v)| *v == 10));
    }

    #[test]
    fn splits_grow_pages_under_memory_headroom() {
        let n = node("split", 256);
        let mut h = counting_hash_buffer(&n, "agg", HashConfig::new(1)).unwrap();
        assert_eq!(h.num_pages(), 1);
        for i in 0..2000u32 {
            h.insert_merge(format!("key-{i:06}").as_bytes(), 1).unwrap();
        }
        assert!(h.num_pages() > 1, "partition must have split");
        assert_eq!(h.spilled_entries(), 0, "no spill with plenty of memory");
        assert_eq!(h.in_memory_items(), 2000);
        let out = h.finalize().unwrap();
        assert_eq!(out.len(), 2000);
        assert!(out.iter().all(|(_, v)| *v == 1));
    }

    #[test]
    fn spills_and_reaggregates_under_pressure() {
        // 8 KB pool, 1 KB pages: only ~8 hash pages fit.
        let n = node("spill", 8);
        let mut h = counting_hash_buffer(&n, "agg", HashConfig::new(2)).unwrap();
        for round in 0..10u32 {
            for i in 0..120u32 {
                let _ = round;
                h.insert_merge(format!("key-{i:04}").as_bytes(), 1).unwrap();
            }
        }
        assert!(h.spilled_entries() > 0, "pressure must force spilling");
        let out = h.finalize().unwrap();
        assert_eq!(out.len(), 120, "re-aggregation dedups spilled partials");
        assert!(
            out.iter().all(|(_, v)| *v == 10),
            "every key aggregated across spills: {:?}",
            out.iter().find(|(_, v)| *v != 10)
        );
    }

    #[test]
    fn merge_function_is_respected() {
        let n = node("merge", 64);
        let mut h: VirtualHashBuffer<u64, _> =
            VirtualHashBuffer::create(&n, "max", HashConfig::new(2), |acc: &mut u64, v| {
                *acc = (*acc).max(v)
            })
            .unwrap();
        h.insert_merge(b"k", 3).unwrap();
        h.insert_merge(b"k", 9).unwrap();
        h.insert_merge(b"k", 5).unwrap();
        assert_eq!(h.get(b"k").unwrap(), Some(9));
    }

    #[test]
    fn string_values_resize_in_place_entries() {
        let n = node("strings", 64);
        let mut h: VirtualHashBuffer<String, _> =
            VirtualHashBuffer::create(&n, "cat", HashConfig::new(1), |acc: &mut String, v| {
                acc.push_str(&v)
            })
            .unwrap();
        h.insert_merge(b"k", "a".to_string()).unwrap();
        h.insert_merge(b"k", "bb".to_string()).unwrap();
        h.insert_merge(b"k", "ccc".to_string()).unwrap();
        assert_eq!(h.get(b"k").unwrap(), Some("abbccc".to_string()));
        let out = h.finalize().unwrap();
        assert_eq!(out, vec![(b"k".to_vec(), "abbccc".to_string())]);
    }

    #[test]
    fn finalize_releases_all_storage() {
        let n = node("release", 32);
        let mut h = counting_hash_buffer(&n, "agg", HashConfig::new(4)).unwrap();
        for i in 0..500u32 {
            h.insert_merge(format!("k{i}").as_bytes(), 1).unwrap();
        }
        let before = n.set_ids().len();
        let _ = h.finalize().unwrap();
        assert!(n.set_ids().len() < before, "hash + spill sets dropped");
        assert_eq!(n.pool().pool_stats().pinned_pages, 0);
    }

    #[test]
    fn zero_partitions_rejected() {
        let n = node("zero", 32);
        assert!(counting_hash_buffer(&n, "agg", HashConfig::new(0)).is_err());
    }
}
