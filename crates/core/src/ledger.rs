//! A spill-capable membership ledger for dedup state (paper §3.1's
//! "job data" tier applied to session bookkeeping).
//!
//! Repair and shuffle-ingest sessions dedup retried batches by content
//! or provenance hash. Those ledgers used to be plain heap hash sets —
//! one more per-task structure growing outside the memory budget. A
//! [`SpillLedger`] keeps at most `threshold` entries in heap; when the
//! in-memory generation fills, it is sorted and flushed as a *run* of
//! record pages through the node's paged pool ([`LocalitySet::
//! spill_page_out`]), LSM-style. What stays in heap per run is a
//! `(min, max, count)` fence per page and a blocked Bloom filter over
//! the run's entries.
//!
//! A membership probe goes, in order: the in-memory generation; then,
//! per flushed run, the run's filter (one cache line, no pool access —
//! this is where nearly every *fresh* hash, i.e. nearly all real
//! traffic, stops), the page fences (a binary search that names the one
//! page that could hold the hash), one pin of that page, and a binary
//! search over its entries. Run pages are ordinary record pages whose
//! records are all 8 bytes, so entry `i` sits at a fixed stride and is
//! never reached by walking its predecessors. A fresh probe therefore
//! pins nothing unless a filter answers a false positive (~1 % per
//! run); a present probe pins the page holding the entry plus those
//! false positives. The filter has no false negatives by construction:
//! it is built from exactly the entries the run's pages hold.
//!
//! Heap bound per ledger: 8 B × `threshold` for the generation's
//! entries, plus 1.25 B per spilled entry for the filters (10 bits
//! each, rounded up to one 64 B block per run) and 32 B per run page
//! for the fences. A 267 K-entry session at the default threshold holds
//! about 334 KB where a heap set would hold 2.1 MB. The filter's shape
//! (10 bits per entry, 6 probes in one 512-bit block) is a constant:
//! every ledger has the same job, and a larger filter buys nothing once
//! false-positive pins are already a few percent of probes.
//!
//! The ledger also supports a *frozen snapshot*: the repair protocol
//! pages a session's seeded ledger out to survivors (`RepairLedger`)
//! and needs a stable enumeration even while new entries keep arriving.
//! Freezing records the current runs plus a sorted copy of the current
//! generation (≤ `threshold` entries); the snapshot enumerates exactly
//! the entries present at freeze time, in a stable order, regardless of
//! later inserts or flushes.

use crate::attributes::SetOptions;
use crate::node::StorageNode;
use crate::page;
use crate::set::LocalitySet;
use pangea_common::{mix64, FxHashSet, PageNum, PangeaError, Result};
use pangea_paging::{ReadPattern, WritePattern};
use std::cmp::Ordering;

/// Default in-memory generation size: 64Ki hashes ≈ 512 KB of heap per
/// session before the first flush.
pub const DEFAULT_LEDGER_THRESHOLD: usize = 64 * 1024;

/// Payload bytes of one run-page record: a little-endian `u64` hash.
const ENTRY_BYTES: usize = 8;

/// One flushed page of a sorted run.
#[derive(Debug, Clone, Copy)]
struct RunPage {
    num: PageNum,
    count: u64,
    min: u64,
    max: u64,
}

/// Entry `i` of a pinned run page, addressed by stride.
fn entry(page_bytes: &[u8], i: usize) -> Result<u64> {
    page::fixed_record(page_bytes, ENTRY_BYTES, i)
        .and_then(|rec| rec.try_into().ok())
        .map(u64::from_le_bytes)
        .ok_or_else(|| PangeaError::Corruption("ledger run page shorter than its index".into()))
}

/// Binary search of a pinned run page's `count` sorted entries.
fn search_page(page_bytes: &[u8], count: usize, h: u64) -> Result<bool> {
    let (mut lo, mut hi) = (0, count);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        match entry(page_bytes, mid)?.cmp(&h) {
            Ordering::Less => lo = mid + 1,
            Ordering::Greater => hi = mid,
            Ordering::Equal => return Ok(true),
        }
    }
    Ok(false)
}

const FILTER_BITS_PER_ENTRY: usize = 10;
const FILTER_PROBES: u32 = 6;
const FILTER_BLOCK_BITS: usize = 512;

/// One cache line of filter bits.
#[derive(Debug, Clone, Copy, Default)]
#[repr(align(64))]
struct FilterBlock([u64; FILTER_BLOCK_BITS / 64]);

/// What one hash looks like to every run's filter, computed once per
/// probe: the value that picks its block, and the bits it sets there.
/// Entries are hashes already, but sequential and strided ones occur
/// (tests, ordinal-derived tags), so both come from a mix of the entry,
/// not from the entry itself.
struct FilterKey {
    mixed: u64,
    mask: FilterBlock,
}

impl FilterKey {
    fn of(h: u64) -> Self {
        let mixed = mix64(h.wrapping_add(0x9E37_79B9_7F4A_7C15));
        // The high bits of `mixed` pick the block; a second multiply
        // decorrelates the in-block positions from that choice.
        let mut bits = mixed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 10;
        let mut mask = FilterBlock::default();
        for _ in 0..FILTER_PROBES {
            let bit = (bits % FILTER_BLOCK_BITS as u64) as usize;
            mask.0[bit / 64] |= 1 << (bit % 64);
            bits /= FILTER_BLOCK_BITS as u64;
        }
        Self { mixed, mask }
    }
}

/// A blocked Bloom filter over one run's entries: every entry sets all
/// its bits inside a single block, so a probe reads one cache line.
#[derive(Debug)]
struct RunFilter {
    blocks: Vec<FilterBlock>,
}

impl RunFilter {
    fn build(entries: &[u64]) -> Self {
        let n_blocks = (entries.len() * FILTER_BITS_PER_ENTRY)
            .div_ceil(FILTER_BLOCK_BITS)
            .max(1);
        let mut filter = Self {
            blocks: vec![FilterBlock::default(); n_blocks],
        };
        for &h in entries {
            let key = FilterKey::of(h);
            let block = filter.block_of(&key);
            for (word, bits) in filter.blocks[block].0.iter_mut().zip(key.mask.0) {
                *word |= bits;
            }
        }
        filter
    }

    /// Multiply-shift range reduction of the key's high bits.
    fn block_of(&self, key: &FilterKey) -> usize {
        ((key.mixed as u128 * self.blocks.len() as u128) >> 64) as usize
    }

    fn may_contain(&self, key: &FilterKey) -> bool {
        let words = &self.blocks[self.block_of(key)].0;
        words
            .iter()
            .zip(key.mask.0)
            .all(|(w, bits)| w & bits == bits)
    }
}

/// One flushed generation: its pages' fences in key order and the
/// filter over everything they hold.
#[derive(Debug)]
struct Run {
    pages: Vec<RunPage>,
    filter: RunFilter,
}

/// The frozen-snapshot bookkeeping: how many runs were flushed before
/// the freeze, plus a sorted copy of the generation at freeze time.
#[derive(Debug, Default)]
struct Frozen {
    runs: usize,
    tail: Vec<u64>,
}

/// A set of `u64` hashes whose memory footprint is capped: at most
/// `threshold` live heap entries, everything older in sorted runs of
/// pool-paged record pages.
#[derive(Debug)]
pub struct SpillLedger {
    node: StorageNode,
    name: String,
    threshold: usize,
    gen: FxHashSet<u64>,
    set: Option<LocalitySet>,
    runs: Vec<Run>,
    spilled_len: u64,
    frozen: Option<Frozen>,
}

impl SpillLedger {
    /// Creates an empty ledger. The backing set `name` is created lazily
    /// on the first flush (small sessions never touch the pool); a
    /// leftover set under the same name (a predecessor that died without
    /// cleanup) is dropped first.
    pub fn new(node: &StorageNode, name: impl Into<String>, threshold: usize) -> Self {
        Self {
            node: node.clone(),
            name: name.into(),
            threshold: threshold.max(1),
            gen: FxHashSet::default(),
            set: None,
            runs: Vec::new(),
            spilled_len: 0,
            frozen: None,
        }
    }

    /// Total entries inserted (assuming callers honor the
    /// check-then-insert contract of [`SpillLedger::insert`]).
    pub fn len(&self) -> u64 {
        self.spilled_len + self.gen.len() as u64
    }

    /// True when no entry was ever inserted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries flushed out of heap so far.
    pub fn spilled_len(&self) -> u64 {
        self.spilled_len
    }

    /// Membership probe: the in-memory generation, then each flushed
    /// run's filter and fences, and only for a run that passes both one
    /// page pin and a binary search of that page.
    pub fn contains(&self, h: u64) -> Result<bool> {
        if self.gen.contains(&h) {
            return Ok(true);
        }
        let Some(set) = &self.set else {
            return Ok(false);
        };
        let key = FilterKey::of(h);
        for run in &self.runs {
            if !run.filter.may_contain(&key) {
                continue;
            }
            let idx = run.pages.partition_point(|p| p.max < h);
            let Some(p) = run.pages.get(idx) else {
                continue;
            };
            if h < p.min {
                continue;
            }
            let pin = set.pin_page(p.num)?;
            let guard = pin.read();
            if search_page(&guard, p.count as usize, h)? {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Inserts `h` into the current generation, flushing it as a run
    /// when full. Callers must have checked [`SpillLedger::contains`]
    /// first — a duplicate of a flushed entry stays correct for
    /// membership but inflates `len`.
    pub fn insert(&mut self, h: u64) -> Result<()> {
        if self.gen.insert(h) && self.gen.len() >= self.threshold {
            self.flush_gen()?;
        }
        Ok(())
    }

    /// Checked insert: returns `true` when `h` was absent and is now a
    /// member. This is the one-call form of check-then-insert.
    pub fn insert_if_absent(&mut self, h: u64) -> Result<bool> {
        if self.contains(h)? {
            return Ok(false);
        }
        self.insert(h)?;
        Ok(true)
    }

    fn backing_set(&mut self) -> Result<&LocalitySet> {
        if self.set.is_none() {
            if let Some(leftover) = self.node.get_set(&self.name) {
                self.node.drop_set(leftover.id())?;
            }
            let set = self.node.create_set(&self.name, SetOptions::write_back())?;
            set.declare_write(WritePattern::Sequential)?;
            set.declare_read(ReadPattern::Random)?;
            self.set = Some(set);
        }
        Ok(self.set.as_ref().expect("just created"))
    }

    /// Sorts and flushes the in-memory generation as one run of spilled
    /// record pages, leaving only the page fences and the run's filter
    /// in heap.
    fn flush_gen(&mut self) -> Result<()> {
        if self.gen.is_empty() {
            return Ok(());
        }
        let mut sorted: Vec<u64> = self.gen.drain().collect();
        sorted.sort_unstable();
        let set = self.backing_set()?.clone();
        let mut pages = Vec::new();
        let mut i = 0;
        while i < sorted.len() {
            let pin = set.new_page()?;
            let start = i;
            {
                let mut guard = pin.write();
                while i < sorted.len() && page::append_record(&mut guard, &sorted[i].to_le_bytes())
                {
                    i += 1;
                }
            }
            debug_assert!(i > start, "a fresh page holds at least one hash");
            pages.push(RunPage {
                num: pin.page_id().num,
                count: (i - start) as u64,
                min: sorted[start],
                max: sorted[i - 1],
            });
            set.spill_page_out(pin)?;
        }
        self.spilled_len += sorted.len() as u64;
        self.runs.push(Run {
            pages,
            filter: RunFilter::build(&sorted),
        });
        Ok(())
    }

    // ------------------------------------------------------------------
    // Frozen snapshot (stable enumeration for the repair protocol)
    // ------------------------------------------------------------------

    /// Freezes the current membership for stable enumeration: the runs
    /// flushed so far plus a sorted copy of the in-memory generation.
    /// Later inserts and flushes do not disturb the snapshot (runs are
    /// append-only and never rewritten).
    pub fn freeze_snapshot(&mut self) {
        let mut tail: Vec<u64> = self.gen.iter().copied().collect();
        tail.sort_unstable();
        self.frozen = Some(Frozen {
            runs: self.runs.len(),
            tail,
        });
    }

    /// Entries in the frozen snapshot. Zero when never frozen.
    pub fn snapshot_len(&self) -> u64 {
        let Some(f) = &self.frozen else { return 0 };
        let spilled: u64 = self.runs[..f.runs]
            .iter()
            .flat_map(|r| r.pages.iter())
            .map(|p| p.count)
            .sum();
        spilled + f.tail.len() as u64
    }

    /// Returns up to `limit` snapshot entries starting at global index
    /// `start` (frozen runs in flush order, then the frozen tail).
    pub fn snapshot_chunk(&self, start: u64, limit: usize) -> Result<Vec<u64>> {
        let Some(f) = &self.frozen else {
            return Ok(Vec::new());
        };
        let mut out = Vec::with_capacity(limit.min(1024));
        let mut skip = start;
        for p in self.runs[..f.runs].iter().flat_map(|r| r.pages.iter()) {
            if out.len() >= limit {
                return Ok(out);
            }
            if skip >= p.count {
                skip -= p.count;
                continue;
            }
            let set = self.set.as_ref().expect("runs imply a backing set");
            let pin = set.pin_page(p.num)?;
            let guard = pin.read();
            // A chunk may start mid-page: seek there by stride.
            let first = skip as usize;
            let last = (p.count as usize).min(first.saturating_add(limit - out.len()));
            for i in first..last {
                out.push(entry(&guard, i)?);
            }
            skip = 0;
        }
        let skip = skip as usize;
        if skip < f.tail.len() {
            let take = limit.saturating_sub(out.len());
            out.extend(f.tail[skip..].iter().take(take).copied());
        }
        Ok(out)
    }
}

impl Drop for SpillLedger {
    fn drop(&mut self) {
        // Best-effort: a session torn down mid-job must not leak its
        // backing set (name collisions on retry, stranded disk files).
        if let Some(set) = self.set.take() {
            let _ = set.end_lifetime();
            let id = set.id();
            let _ = set.node().drop_set(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeConfig;
    use pangea_common::KB;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicBool, Ordering as AtomicOrdering};

    fn node_with(tag: &str, pool: usize, page_size: usize) -> StorageNode {
        let dir = std::env::temp_dir().join(format!(
            "pangea-ledger-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        StorageNode::new(
            NodeConfig::new(dir)
                .with_pool_capacity(pool)
                .with_page_size(page_size),
        )
        .unwrap()
    }

    fn node(tag: &str) -> StorageNode {
        node_with(tag, 16 * KB, KB)
    }

    /// `n` distinct, uniformly spread hashes (a Weyl sequence through
    /// the bijection [`mix64`]).
    fn uniform(seed: u64, n: usize) -> Vec<u64> {
        (1..=n as u64)
            .map(|i| mix64(seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))))
            .collect()
    }

    /// Page pins (hits and reloads) the node has served so far.
    fn pins(n: &StorageNode) -> u64 {
        let s = n.paging_stats();
        s.hits + s.misses
    }

    #[test]
    fn small_ledgers_stay_in_heap() {
        let n = node("small");
        let mut l = SpillLedger::new(&n, "led", 100);
        for h in 0..50u64 {
            assert!(l.insert_if_absent(h).unwrap());
        }
        assert!(!l.insert_if_absent(7).unwrap());
        assert_eq!(l.len(), 50);
        assert_eq!(l.spilled_len(), 0);
        assert!(n.get_set("led").is_none(), "no backing set until a flush");
    }

    #[test]
    fn membership_survives_spilling() {
        let n = node("spill");
        let mut l = SpillLedger::new(&n, "led", 64);
        // Insert enough to force several runs through a 16 KB pool.
        for h in (0..1000u64).map(|i| i * 7 + 3) {
            l.insert(h).unwrap();
        }
        assert!(l.spilled_len() > 0, "threshold 64 must have flushed");
        assert_eq!(l.len(), 1000);
        for h in (0..1000u64).map(|i| i * 7 + 3) {
            assert!(l.contains(h).unwrap(), "lost {h}");
        }
        assert!(!l.contains(1).unwrap());
        assert!(!l.contains(7 * 1000 + 3).unwrap());
    }

    /// The ledger against a `HashSet` over run shapes from one entry per
    /// run (threshold 1) to several pages per run (threshold 300 on 1 KB
    /// pages, which hold 84 entries), probed with every member, fresh
    /// hashes, and the neighbours of every page fence.
    #[test]
    fn agrees_with_a_hash_set_reference() {
        let boundary: Vec<u64> = [0, 1, 2, u64::MAX - 2, u64::MAX - 1, u64::MAX]
            .into_iter()
            .chain(uniform(11, 394))
            .collect();
        let inputs = [
            ("uniform", uniform(7, 400)),
            ("sequential", (0..400u64).collect()),
            ("strided", (0..400u64).map(|i| i * 7 + 3).collect()),
            ("boundary", boundary),
        ];
        for (page_size, threshold) in [KB, 16 * KB]
            .into_iter()
            .flat_map(|p| [1, 7, 64, 300].map(|t| (p, t)))
        {
            for (shape, input) in &inputs {
                let case = format!("{shape}, threshold {threshold}, {page_size} B pages");
                let n = node_with(
                    &format!("ref-{shape}-{threshold}-{page_size}"),
                    64 * KB,
                    page_size,
                );
                let mut l = SpillLedger::new(&n, "led", threshold);
                let mut want = HashSet::new();
                // Every input once, then a replayed prefix.
                for &h in input.iter().chain(&input[..50]) {
                    assert_eq!(
                        l.insert_if_absent(h).unwrap(),
                        want.insert(h),
                        "insert_if_absent({h}) ({case})"
                    );
                }
                assert_eq!(l.len(), want.len() as u64, "{case}");
                assert!(l.spilled_len() > 0, "{case}");

                let mut probes = input.clone();
                probes.extend([0, 1, u64::MAX - 1, u64::MAX]);
                probes.extend(uniform(99, 200));
                for p in l.runs.iter().flat_map(|r| r.pages.iter()) {
                    for fence in [p.min, p.max] {
                        probes.extend([fence.wrapping_sub(1), fence, fence.wrapping_add(1)]);
                    }
                }
                for h in probes {
                    assert_eq!(
                        l.contains(h).unwrap(),
                        want.contains(&h),
                        "contains({h}) ({case})"
                    );
                }
            }
        }
    }

    #[test]
    fn run_filter_has_no_false_negatives_and_few_false_positives() {
        let n = DEFAULT_LEDGER_THRESHOLD;
        let cases: [(&str, Vec<u64>, Vec<u64>, f64); 2] = [
            ("uniform", uniform(1, n), uniform(2, 100_000), 0.03),
            (
                "sequential",
                (0..n as u64).collect(),
                (n as u64..n as u64 + 100_000).collect(),
                0.05,
            ),
        ];
        for (shape, entries, fresh, limit) in cases {
            let filter = RunFilter::build(&entries);
            assert_eq!(filter.blocks.len(), n * 10 / 512);
            assert!(
                entries
                    .iter()
                    .all(|&h| filter.may_contain(&FilterKey::of(h))),
                "false negative ({shape})"
            );
            let members: HashSet<u64> = entries.iter().copied().collect();
            let fresh: Vec<u64> = fresh.into_iter().filter(|h| !members.contains(h)).collect();
            let hits = fresh
                .iter()
                .filter(|&&h| filter.may_contain(&FilterKey::of(h)))
                .count();
            let rate = hits as f64 / fresh.len() as f64;
            assert!(rate < limit, "{shape}: false-positive rate {rate:.4}");
        }
    }

    /// The point of the filter and the stride search, in pool terms: a
    /// fresh probe pins (almost) nothing, a present one the page that
    /// holds it.
    #[test]
    fn probes_pin_only_the_pages_they_must() {
        let n = node_with("pins", 512 * KB, KB);
        let mut l = SpillLedger::new(&n, "led", 2048);
        let members = uniform(3, 8 * 2048);
        for &h in &members {
            l.insert(h).unwrap();
        }
        assert_eq!(l.runs.len(), 8);
        assert_eq!(l.spilled_len(), members.len() as u64, "all flushed");

        let before = pins(&n);
        for h in uniform(4, 10_000) {
            assert!(!l.contains(h).unwrap());
        }
        let fresh_pins = pins(&n) - before;
        assert!(
            fresh_pins < 8 * 10_000 / 20,
            "{fresh_pins} pins for 10 000 fresh probes of 8 runs"
        );

        let before = pins(&n);
        for &h in &members[..10_000] {
            assert!(l.contains(h).unwrap());
        }
        let present_pins = pins(&n) - before;
        assert!(
            (10_000..14_000).contains(&present_pins),
            "{present_pins} pins for 10 000 present probes"
        );
    }

    #[test]
    fn frozen_snapshot_is_stable_and_complete() {
        let n = node("freeze");
        // 1 KB pages hold 84 entries: runs of 150 span two pages, and
        // the 50 entries left over stay in the frozen tail.
        let mut l = SpillLedger::new(&n, "led", 150);
        let seeded: Vec<u64> = (0..500u64).map(|i| i * 13 + 1).collect();
        for &h in &seeded {
            l.insert(h).unwrap();
        }
        l.freeze_snapshot();
        assert_eq!(l.snapshot_len(), 500);
        // Keep inserting after the freeze; the snapshot must not move.
        for h in (0..500u64).map(|i| i * 17 + 2) {
            l.insert_if_absent(h).unwrap();
        }
        let enumerate = |chunk: usize| {
            let mut all = Vec::new();
            loop {
                let got = l.snapshot_chunk(all.len() as u64, chunk).unwrap();
                if got.is_empty() {
                    break all;
                }
                assert!(got.len() <= chunk);
                all.extend(got);
            }
        };
        // 37 and 5 make chunks start mid-page (the stride seek).
        let all = enumerate(1000);
        for chunk in [1, 5, 37, 84] {
            assert_eq!(enumerate(chunk), all, "chunks of {chunk}");
        }
        for start in 0..all.len() {
            let end = all.len().min(start + 10);
            assert_eq!(
                l.snapshot_chunk(start as u64, 10).unwrap(),
                all[start..end],
                "chunk at {start}"
            );
        }
        let mut sorted = all;
        sorted.sort_unstable();
        assert_eq!(sorted, seeded, "every entry exactly once");
    }

    /// `spill_page_out` used to unpin the page before removing it, so an
    /// eviction round on another thread could take its short flush pin
    /// (or the whole page) in between and fail the flush.
    #[test]
    fn flushing_tolerates_a_concurrent_eviction_round() {
        let n = node("race");
        let stop = AtomicBool::new(false);
        let mut l = SpillLedger::new(&n, "led", 8);
        let flushed = std::thread::scope(|s| {
            let evictor = s.spawn(|| {
                while !stop.load(AtomicOrdering::SeqCst) {
                    n.evict_round().unwrap();
                }
            });
            let flushed = (0..40_000u64).try_for_each(|h| l.insert(h));
            stop.store(true, AtomicOrdering::SeqCst);
            evictor.join().unwrap();
            flushed
        });
        flushed.expect("a flush must survive the evictor's transient pin");
        assert_eq!(l.spilled_len(), 40_000);
        for h in (0..40_000u64).step_by(97) {
            assert!(l.contains(h).unwrap(), "lost {h}");
        }
    }

    #[test]
    fn drop_releases_the_backing_set() {
        let n = node("drop");
        {
            let mut l = SpillLedger::new(&n, "led", 8);
            for h in 0..100u64 {
                l.insert(h).unwrap();
            }
            assert!(n.get_set("led").is_some());
        }
        assert!(n.get_set("led").is_none(), "drop must release the set");
        assert_eq!(n.pool().pool_stats().pinned_pages, 0);
    }

    #[test]
    fn leftover_set_from_a_dead_predecessor_is_replaced() {
        let n = node("leftover");
        {
            let mut l = SpillLedger::new(&n, "led", 4);
            for h in 0..20u64 {
                l.insert(h).unwrap();
            }
            // Simulate a crash: forget the ledger without Drop.
            std::mem::forget(l);
        }
        assert!(n.get_set("led").is_some(), "leaked by the forget");
        let mut l2 = SpillLedger::new(&n, "led", 4);
        for h in 100..120u64 {
            l2.insert(h).unwrap();
        }
        assert!(l2.contains(110).unwrap());
        assert!(!l2.contains(5).unwrap(), "previous life's entries are gone");
    }
}
