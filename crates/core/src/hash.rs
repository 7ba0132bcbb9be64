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
//! pages addressed by the hash's split bits; a full page of local depth
//! `d` splits its entries with split bit `d` into a sibling of depth
//! `d+1`. A key is hashed once per operation, and root, split and
//! bucket choices read disjoint bits of that hash (laid out in
//! [`crate::hashpage`]).
//!
//! One departure from the quoted text: a buffer stops splitting, and
//! starts spilling, while a quarter of the pool is still unpinned — see
//! `UNPINNED_SHARE` for why "no page that can be allocated" is too late
//! in a pool the buffer shares.

use crate::attributes::SetOptions;
use crate::hashpage::{self, HashInsert};
use crate::node::StorageNode;
use crate::set::LocalitySet;
use pangea_common::{FxHashMap, PageNum, PangeaError, Record, Result};
use pangea_paging::{ReadPattern, WritePattern};
use pangea_storage::PagePin;
use std::collections::hash_map::Entry;
use std::marker::PhantomData;

/// Hard cap on a root partition's directory depth; with page splitting
/// bounded by memory this is never reached in practice.
const MAX_DEPTH: u32 = 20;

/// A split goes ahead only while it leaves at least `1 / UNPINNED_SHARE`
/// of the pool's bytes unpinned; past that the full page is spilled. The
/// paper splits "until there is no page that can be allocated", which
/// takes the hash service for the pool's only pinner. In a daemon a
/// combine buffer, a reduce buffer, the mapper's input page, a ledger's
/// run page and the seal's writer pin from one pool, and a buffer's
/// pages cannot be evicted: two buffers that split up to the last frame
/// leave the next input pin nothing to evict (`tests/remote_pressure.rs`
/// died that way every second run, at 16 frames). A quarter is far more
/// than those other pinners hold at once (a page or two each) and still
/// lets keyed state fill three quarters of the pool before it spills.
const UNPINNED_SHARE: usize = 4;

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

/// Page `idx` of a buffer's `pages`. A function of the field, not of the
/// buffer, so a page's guard can live beside `&mut` borrows of the
/// buffer's other fields (its merge function, its scratch value).
fn page(pages: &[Option<PagePin>], idx: usize) -> &PagePin {
    pages[idx].as_ref().expect("hash pages are always present")
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

    /// The page `hash` lives on: its root's directory, indexed by as many
    /// of the hash's split bits as the directory is deep.
    fn page_for(&self, root: usize, hash: u64) -> usize {
        let r = &self.roots[root];
        let slot = (hashpage::split_bits(hash) & ((1u64 << r.depth) - 1)) as usize;
        r.dir[slot] as usize
    }

    /// Inserts `key → val`, merging with the existing value when the key
    /// is already present (the paper's `find` / `insert` / `set` flow,
    /// fused because aggregation always merges): one hash of the key,
    /// one walk of its bucket chain, and a merged value of unchanged
    /// length written where the old one was.
    pub fn insert_merge(&mut self, key: &[u8], val: V) -> Result<()> {
        let hash = hashpage::hash_key(key);
        let root = hashpage::root_of(hash, self.roots.len() as u32);
        let mut page_idx = self.page_for(root, hash);
        {
            let mut guard = page(&self.pages, page_idx).write();
            let probe = hashpage::find(&guard, hash, key);
            self.scratch.clear();
            match hashpage::value(&guard, probe) {
                Some(existing) => {
                    let mut current = V::decode(existing)?;
                    (self.merge)(&mut current, val);
                    current.encode(&mut self.scratch);
                }
                None => val.encode(&mut self.scratch),
            }
            if hashpage::put(&mut guard, probe, key, &self.scratch)? != HashInsert::Full {
                return Ok(());
            }
        }
        // The page is full and no longer holds the key: `scratch` is the
        // only copy of its (merged) value, and whichever page the key
        // maps to once there is room cannot hold it either.
        loop {
            self.make_room(root, page_idx)?;
            page_idx = self.page_for(root, hash);
            let mut guard = page(&self.pages, page_idx).write();
            if hashpage::append(&mut guard, hash, key, &self.scratch)? != HashInsert::Full {
                return Ok(());
            }
        }
    }

    /// Looks up the current in-memory value for `key`. Spilled partial
    /// aggregates are only folded in by [`VirtualHashBuffer::finalize`].
    pub fn get(&self, key: &[u8]) -> Result<Option<V>> {
        let hash = hashpage::hash_key(key);
        let root = hashpage::root_of(hash, self.roots.len() as u32);
        let guard = page(&self.pages, self.page_for(root, hash)).read();
        hashpage::value(&guard, hashpage::find(&guard, hash, key))
            .map(V::decode)
            .transpose()
    }

    /// A full page needs room: split the partition while the pool can
    /// give us a page and keep its unpinned reserve (see
    /// [`UNPINNED_SHARE`]), otherwise spill the page as
    /// partial-aggregation results.
    fn make_room(&mut self, root: usize, page_idx: usize) -> Result<()> {
        if self.roots[root].depth < MAX_DEPTH && self.split_leaves_reserve() {
            match self.set.new_page() {
                Ok(new_pin) => return self.split(root, page_idx, new_pin),
                Err(PangeaError::OutOfMemory { .. }) => {}
                Err(e) => return Err(e),
            }
        }
        self.spill_page(page_idx)
    }

    /// Whether one more pinned page of ours still leaves the pool its
    /// unpinned reserve. Counts every pin in the pool, not only this
    /// buffer's: the reserve is for whoever else works beside it.
    fn split_leaves_reserve(&self) -> bool {
        let pool = self.set.node().pool().pool_stats();
        pool.pinned_bytes + self.set.page_size() <= pool.capacity - pool.capacity / UNPINNED_SHARE
    }

    /// Splits `page_idx` (local depth `d`) into itself plus a sibling of
    /// depth `d+1`, redistributing entries by split bit `d` straight
    /// from a copy of the old page's bytes.
    fn split(&mut self, root: usize, page_idx: usize, new_pin: PagePin) -> Result<()> {
        let n_buckets = self.n_buckets;
        let old_depth = {
            let mut old = page(&self.pages, page_idx).write();
            let mut new = new_pin.write();
            let old_depth = hashpage::local_depth(&old);
            let moved = old[..hashpage::used_bytes(&old)].to_vec();
            hashpage::init(&mut old, n_buckets, old_depth + 1)?;
            hashpage::init(&mut new, n_buckets, old_depth + 1)?;
            hashpage::for_each(&moved, |key, val| {
                let hash = hashpage::hash_key(key);
                let dest = if (hashpage::split_bits(hash) >> old_depth) & 1 == 1 {
                    &mut new
                } else {
                    &mut old
                };
                let outcome = hashpage::append(dest, hash, key, val)?;
                debug_assert!(
                    outcome != HashInsert::Full,
                    "redistributed entries always fit a fresh page"
                );
                Ok(())
            })?;
            old_depth
        };
        // Grow the directory if the page is at the directory's depth.
        let r = &mut self.roots[root];
        if old_depth == r.depth {
            r.dir.extend_from_within(..);
            r.depth += 1;
        }
        // Re-point directory slots whose bit `old_depth` is set.
        let new_idx = self.pages.len() as u32;
        for (slot, target) in r.dir.iter_mut().enumerate() {
            if *target == page_idx as u32 && (slot >> old_depth) & 1 == 1 {
                *target = new_idx;
            }
        }
        self.pages.push(Some(new_pin));
        Ok(())
    }

    /// Spills the full page itself — "select a page, unpin it, and spill
    /// it to disk as partial-aggregation results" (§8): its bytes are
    /// flushed to the set's file, the pool frame is freed, and a fresh
    /// page takes its slot in the directory.
    fn spill_page(&mut self, page_idx: usize) -> Result<()> {
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

    /// Returns every `(key, value)` pair, ending the lifetime of the
    /// hash set (paper: "we re-aggregate those spilled partial
    /// aggregation results for each partition"). In-memory pages hold
    /// disjoint keys, so their entries go straight to the output — one
    /// allocation per key, nothing in between. Only when pages were
    /// spilled is anything re-aggregated: the spilled partials fold in
    /// spill order, then the in-memory values fold onto them, so each
    /// key's partials merge in the order they were inserted.
    pub fn finalize(mut self) -> Result<Vec<(Vec<u8>, V)>> {
        let mut out: Vec<(Vec<u8>, V)> = Vec::with_capacity(self.in_memory_items() as usize);
        // Drop each pin as its page is read, so the pool frees up for
        // reloading spilled pages.
        for slot in &mut self.pages {
            let pin = slot.take().expect("hash pages are always present");
            hashpage::for_each(&pin.read(), |k, v| {
                out.push((k.to_vec(), V::decode(v)?));
                Ok(())
            })?;
        }
        if !self.spilled_pages.is_empty() {
            let mut older: FxHashMap<Vec<u8>, V> = FxHashMap::default();
            for num in std::mem::take(&mut self.spilled_pages) {
                let pin = self.set.pin_page(num)?;
                hashpage::for_each(&pin.read(), |k, v| {
                    let v = V::decode(v)?;
                    match older.get_mut(k) {
                        Some(acc) => (self.merge)(acc, v),
                        None => {
                            older.insert(k.to_vec(), v);
                        }
                    }
                    Ok(())
                })?;
            }
            for (k, v) in out.drain(..) {
                match older.entry(k) {
                    Entry::Occupied(mut e) => (self.merge)(e.get_mut(), v),
                    Entry::Vacant(e) => {
                        e.insert(v);
                    }
                }
            }
            out.extend(older);
        }
        // Expire and drop the backing set.
        self.set.end_lifetime()?;
        let id = self.set.id();
        self.set.node().drop_set(id)?;
        self.released = true;
        Ok(out)
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
        // 8 KB pool, 1 KB pages, 400 keys of 24 B entries: more keyed
        // state than the whole pool.
        let n = node("spill", 8);
        let mut h = counting_hash_buffer(&n, "agg", HashConfig::new(2)).unwrap();
        for _round in 0..10u32 {
            for i in 0..400u32 {
                h.insert_merge(format!("key-{i:04}").as_bytes(), 1).unwrap();
            }
        }
        assert!(h.spilled_entries() > 0, "pressure must force spilling");
        let out = h.finalize().unwrap();
        assert_eq!(out.len(), 400, "re-aggregation dedups spilled partials");
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

    /// Root, split and bucket choices read disjoint bits of the key's
    /// hash. They used to share the low ones: with `K = 2`, `h % K`
    /// fixed the parity of `h & (n_buckets - 1)`, so every page used
    /// half its buckets and chains were twice as long as laid out.
    #[test]
    fn every_page_of_a_two_root_buffer_uses_all_its_buckets() {
        let n = node("buckets", 1024);
        let config = HashConfig::new(2).with_page_size(4 * KB);
        let mut h = counting_hash_buffer(&n, "agg", config).unwrap();
        for i in 0..6000u32 {
            h.insert_merge(format!("word-{i}").as_bytes(), 1).unwrap();
        }
        assert!(h.num_pages() > 8, "{} pages", h.num_pages());
        assert_eq!(h.spilled_entries(), 0);
        // Per page, `n` keys thrown at `b` buckets leave b·e^(-n/b) empty.
        let (mut items, mut expected_used) = (0.0f64, 0.0f64);
        let mut used = [0.0f64; 2];
        for pin in h.pages.iter().flatten() {
            let bytes = pin.read();
            let lens = hashpage::chain_lengths(&bytes);
            let (n, b) = (hashpage::n_items(&bytes) as f64, lens.len() as f64);
            assert_eq!(lens.iter().sum::<u32>() as f64, n);
            items += n;
            expected_used += b * (1.0 - (-n / b).exp());
            for (bucket, len) in lens.iter().enumerate() {
                if *len > 0 {
                    used[bucket % 2] += 1.0;
                }
            }
        }
        for parity in [0, 1] {
            assert!(
                used[parity] > 0.9 * expected_used / 2.0,
                "parity {parity}: {} buckets in use, expected ~{:.0}",
                used[parity],
                expected_used / 2.0
            );
        }
        // `buckets_for` lays out a bucket per 64 B, two to three of
        // these ~24 B entries: that is the chain a probe should walk.
        let mean_chain = items / (used[0] + used[1]);
        assert!(
            mean_chain < 1.1 * items / expected_used && mean_chain < 3.0,
            "mean chain {mean_chain:.2}, expected {:.2}",
            items / expected_used
        );
    }

    /// What a reference-test value type brings: its keys, the value of
    /// the `i`-th insert, and its merge.
    struct Shape<V> {
        name: &'static str,
        key: fn(u32) -> Vec<u8>,
        value: fn(u64) -> V,
        merge: fn(&mut V, V),
    }

    fn text_key(k: u32) -> Vec<u8> {
        format!("key-{k:05}").into_bytes()
    }

    /// `finalize` equals a `BTreeMap` fold of the same inserts, and
    /// nothing outlives the buffer, over {no split, split-only, forced
    /// spill, spill-then-more-inserts}.
    fn check_against_reference<V>(shape: &Shape<V>)
    where
        V: Record + Clone + PartialEq + std::fmt::Debug,
    {
        // (scenario, pool KB at 1 KB pages, keys, rounds over them, keys
        // of a second phase that starts half-way into the first's)
        let scenarios = [
            ("no split", 256, 16, 3, 0),
            ("split only", 256, 2000, 3, 0),
            ("forced spill", 8, 400, 3, 0),
            ("spill then more inserts", 8, 400, 2, 300),
        ];
        for (scenario, pool_kb, keys, rounds, more) in scenarios {
            let what = format!("{} / {scenario}", shape.name);
            let n = node(
                &format!("ref-{}-{pool_kb}-{keys}-{more}", shape.name),
                pool_kb,
            );
            let mut h =
                VirtualHashBuffer::create(&n, "acc", HashConfig::new(2), shape.merge).unwrap();
            let mut reference: std::collections::BTreeMap<Vec<u8>, V> = Default::default();
            let mut op = 0u64;
            let mut insert = |h: &mut VirtualHashBuffer<V, _>, k: u32| {
                let (key, val) = ((shape.key)(k), (shape.value)(op));
                op += 1;
                h.insert_merge(&key, val.clone()).unwrap();
                match reference.entry(key) {
                    std::collections::btree_map::Entry::Occupied(mut e) => {
                        (shape.merge)(e.get_mut(), val)
                    }
                    std::collections::btree_map::Entry::Vacant(e) => {
                        e.insert(val);
                    }
                }
            };
            for _ in 0..rounds {
                for k in 0..keys {
                    insert(&mut h, k);
                }
            }
            match scenario {
                "no split" => assert_eq!(h.num_pages(), 2, "{what}"),
                "split only" => assert!(h.num_pages() > 2, "{what}"),
                _ => assert!(h.spilled_entries() > 0, "{what}: must spill"),
            }
            if pool_kb == 256 {
                assert_eq!(h.spilled_entries(), 0, "{what}");
            }
            for _ in 0..rounds {
                for k in keys / 2..keys / 2 + more {
                    insert(&mut h, k);
                }
            }
            let mut got = h.finalize().unwrap();
            got.sort_by(|a, b| a.0.cmp(&b.0));
            let want: Vec<(Vec<u8>, V)> = reference.into_iter().collect();
            assert_eq!(got.len(), want.len(), "{what}");
            assert!(got == want, "{what}: finalize differs from the reference");
            assert_eq!(n.pool().pool_stats().pinned_pages, 0, "{what}");
            assert!(n.get_set("acc").is_none(), "{what}: backing set left");

            // Dropped without finalize (an aborted task): nothing leaks.
            let mut h =
                VirtualHashBuffer::create(&n, "acc", HashConfig::new(2), shape.merge).unwrap();
            for k in 0..keys {
                h.insert_merge(&(shape.key)(k), (shape.value)(k as u64))
                    .unwrap();
            }
            drop(h);
            assert_eq!(n.pool().pool_stats().pinned_pages, 0, "{what}: drop");
            assert!(n.get_set("acc").is_none(), "{what}: drop left the set");
        }
    }

    #[test]
    fn reference_i64_wrapping_sum() {
        check_against_reference(&Shape::<i64> {
            name: "sum",
            key: text_key,
            value: |i| (i as i64).wrapping_mul(0x2545_F491_4F6C_DD1D),
            merge: |acc, v| *acc = acc.wrapping_add(v),
        });
    }

    #[test]
    fn reference_i64_min() {
        check_against_reference(&Shape::<i64> {
            name: "min",
            key: text_key,
            value: |i| (i as i64).wrapping_mul(0x2545_F491_4F6C_DD1D) >> 20,
            merge: |acc, v| *acc = (*acc).min(v),
        });
    }

    /// Every merge grows the value, so every store after a key's first
    /// takes the unlink-and-append path — and concatenation shows any
    /// partial folded out of insertion order.
    #[test]
    fn reference_string_concat() {
        check_against_reference(&Shape::<String> {
            name: "concat",
            key: text_key,
            value: |i| format!("{:x}.", i % 251),
            merge: |acc, v| acc.push_str(&v),
        });
    }

    /// `pangea-kmeans`' aggregation state: `u32` cluster keys, a vector
    /// of per-dimension sums plus a count, added element-wise.
    #[test]
    fn reference_f64_vector_sums() {
        check_against_reference(&Shape::<Vec<f64>> {
            name: "vector",
            key: |k| k.to_le_bytes().to_vec(),
            value: |i| vec![i as f64, (i % 7) as f64, (i % 13) as f64 * 0.5, 1.0],
            merge: |acc, v| {
                for (a, b) in acc.iter_mut().zip(v) {
                    *a += b;
                }
            },
        });
    }

    #[test]
    fn an_entry_larger_than_a_page_is_an_error_not_a_loop() {
        let n = node("oversize", 8);
        let mut h: VirtualHashBuffer<String, _> =
            VirtualHashBuffer::create(&n, "cat", HashConfig::new(1), |acc: &mut String, v| {
                acc.push_str(&v)
            })
            .unwrap();
        h.insert_merge(b"k", "x".repeat(600)).unwrap();
        assert!(h.insert_merge(b"k", "y".repeat(600)).is_err());
    }
}
