//! The sequential read service (paper §8): the paper's long-lived-worker
//! model, where workers pull pages in a loop and there is no "wave of
//! tasks" (§5). [`LocalitySet::page_iterators`] is the
//! `getPageIterators(numThreads)` API: N iterators sharing one atomic
//! cursor over the set's pages. Each `next()` pins (and, if spilled,
//! reloads) the next unclaimed page.

use crate::set::LocalitySet;
use pangea_common::{PageNum, Result};
use pangea_paging::ReadPattern;
use pangea_storage::PagePin;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// One of N concurrent page iterators over a locality set.
///
/// All iterators from one [`LocalitySet::page_iterators`] call share a
/// cursor, so each page is delivered to exactly one iterator.
#[derive(Debug)]
pub struct PageIterator {
    set: LocalitySet,
    pages: Arc<Vec<PageNum>>,
    cursor: Arc<AtomicUsize>,
}

impl PageIterator {
    /// Pins and returns the next unclaimed page, or `None` when the scan
    /// is complete. Pages spilled to disk are transparently reloaded.
    #[allow(clippy::should_implement_trait)] // fallible iterator
    pub fn next(&mut self) -> Option<Result<PagePin>> {
        let i = self.cursor.fetch_add(1, Ordering::Relaxed);
        let num = *self.pages.get(i)?;
        Some(self.set.pin_page(num))
    }

    /// Total pages in the shared scan.
    pub fn total_pages(&self) -> usize {
        self.pages.len()
    }
}

impl LocalitySet {
    /// Returns `threads` iterators sharing one scan over the whole set
    /// (paper §8: `getPageIterators(numThreads)`). Declares the
    /// `sequential-read` pattern on the set.
    pub fn page_iterators(&self, threads: usize) -> Result<Vec<PageIterator>> {
        self.declare_read(ReadPattern::Sequential)?;
        let pages = Arc::new(self.page_numbers());
        let cursor = Arc::new(AtomicUsize::new(0));
        Ok((0..threads.max(1))
            .map(|_| PageIterator {
                set: self.clone(),
                pages: Arc::clone(&pages),
                cursor: Arc::clone(&cursor),
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::SetOptions;
    use crate::node::{NodeConfig, StorageNode};
    use crate::page::ObjectIter;
    use pangea_common::KB;
    use pangea_paging::CurrentOp;
    use std::sync::atomic::AtomicU64;

    fn node(tag: &str, pool_kb: usize) -> StorageNode {
        let dir = std::env::temp_dir().join(format!(
            "pangea-scan-{tag}-{}-{:?}",
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

    fn fill(set: &LocalitySet, n: u64) {
        let mut w = set.writer();
        for i in 0..n {
            w.add_object(&i.to_le_bytes()).unwrap();
        }
        w.finish().unwrap();
    }

    #[test]
    fn page_iterators_cover_every_page_exactly_once() {
        let n = node("iters", 64);
        let s = n.create_set("s", SetOptions::write_back()).unwrap();
        fill(&s, 500);
        let iters = s.page_iterators(4).unwrap();
        assert_eq!(s.attributes().op, CurrentOp::Read);
        let sum = Arc::new(AtomicU64::new(0));
        let count = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for mut it in iters {
                let sum = Arc::clone(&sum);
                let count = Arc::clone(&count);
                scope.spawn(move || {
                    while let Some(pin) = it.next() {
                        let pin = pin.unwrap();
                        ObjectIter::new(&pin).for_each(|rec| {
                            sum.fetch_add(
                                u64::from_le_bytes(rec.try_into().unwrap()),
                                Ordering::Relaxed,
                            );
                            count.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        assert_eq!(count.load(Ordering::Relaxed), 500);
        assert_eq!(sum.load(Ordering::Relaxed), (0..500).sum::<u64>());
    }

    #[test]
    fn iterators_over_an_empty_set_are_empty() {
        let n = node("empty", 16);
        let s = n.create_set("s", SetOptions::write_back()).unwrap();
        let mut iters = s.page_iterators(2).unwrap();
        assert!(iters[0].next().is_none());
        assert!(iters[1].next().is_none());
    }

    /// A pool of 8 one-KB pages under a set several times larger: every
    /// scan reloads spilled pages from disk and still sees every record.
    #[test]
    fn repeated_scans_reread_spilled_data() {
        let n = node("rescan", 8);
        let s = n.create_set("s", SetOptions::write_back()).unwrap();
        fill(&s, 3000);
        assert!(s.num_pages() > 16, "the set must outgrow the pool");
        for _ in 0..3 {
            let mut records = 0;
            for mut it in s.page_iterators(2).unwrap() {
                while let Some(pin) = it.next() {
                    records += ObjectIter::new(&pin.unwrap()).count();
                }
            }
            assert_eq!(records, 3000);
        }
        assert!(n.paging_stats().misses > 0, "spilled pages were read back");
    }
}
