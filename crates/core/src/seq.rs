//! The sequential write service (paper §8).
//!
//! A [`SeqWriter`] is the paper's "sequential allocator": it allocates
//! bytes from its current page's host memory sequentially; when a page
//! fills up the writer seals it (persisting under `write-through`),
//! unpins it, and pins a fresh page. Each of multiple threads uses its
//! *own* writer, so threads write to separate pages — exactly the paper's
//! "allows each of multiple threads to use a sequential allocator to
//! write to a separate page in a locality set".

use crate::page;
use crate::set::LocalitySet;
use pangea_common::{PangeaError, Record, Result};
use pangea_paging::WritePattern;
use pangea_storage::PagePin;

/// A sequential, append-only writer over one locality set.
#[derive(Debug)]
pub struct SeqWriter {
    set: LocalitySet,
    current: Option<PagePin>,
    objects_written: u64,
    /// Scratch buffer reused across [`SeqWriter::add_record`] calls.
    scratch: Vec<u8>,
}

impl SeqWriter {
    pub(crate) fn new(set: LocalitySet) -> Self {
        // Using the writer teaches the set its writing pattern (§3.2):
        // the sequential write service implies `sequential-write`.
        let _ = set.declare_write(WritePattern::Sequential);
        Self {
            set,
            current: None,
            objects_written: 0,
            scratch: Vec::new(),
        }
    }

    /// The set this writer appends to.
    pub fn set(&self) -> &LocalitySet {
        &self.set
    }

    /// Objects written so far through this writer.
    pub fn objects_written(&self) -> u64 {
        self.objects_written
    }

    /// Appends one object (raw payload bytes). The paper's
    /// `myData.addObject(myObject)`.
    pub fn add_object(&mut self, payload: &[u8]) -> Result<()> {
        self.add_objects([payload])
    }

    /// Appends a run of objects, in order, taking the current page's
    /// write guard once per page fill rather than once per object; no
    /// guard is held across a seal. An object larger than a page fails
    /// the call, and the objects before it stay written.
    pub fn add_objects<'p>(&mut self, payloads: impl IntoIterator<Item = &'p [u8]>) -> Result<()> {
        let mut payloads = payloads.into_iter();
        let mut next = payloads.next();
        while let Some(first) = next {
            self.check_fits(first)?;
            let pin = match &mut self.current {
                Some(pin) => pin,
                slot => slot.insert(self.set.new_page()?),
            };
            let mut bytes = pin.write();
            while let Some(payload) = next {
                if !page::append_record(&mut bytes, payload) {
                    break;
                }
                self.objects_written += 1;
                next = payloads.next();
            }
            drop(bytes);
            if let Some(payload) = next {
                // The page is full, or the object fits in no page: an
                // oversized object leaves the page open, as it found it.
                self.check_fits(payload)?;
                self.seal_current()?;
            }
        }
        Ok(())
    }

    /// Rejects an object too large for an empty page.
    fn check_fits(&self, payload: &[u8]) -> Result<()> {
        let max_payload = self.set.page_size() - page::PAGE_HEADER - page::RECORD_PREFIX;
        if payload.len() > max_payload {
            return Err(PangeaError::usage(format!(
                "object of {} B exceeds page capacity {max_payload} B",
                payload.len()
            )));
        }
        Ok(())
    }

    /// Appends one typed record (encoded through the workspace codec).
    /// The paper's `myData.addData(myVec)` generalized over [`Record`].
    pub fn add_record<R: Record>(&mut self, record: &R) -> Result<()> {
        self.scratch.clear();
        record.encode(&mut self.scratch);
        let bytes = std::mem::take(&mut self.scratch);
        let result = self.add_object(&bytes);
        self.scratch = bytes;
        result
    }

    /// Appends every record of an iterator.
    pub fn add_all<R: Record>(&mut self, records: impl IntoIterator<Item = R>) -> Result<()> {
        for r in records {
            self.add_record(&r)?;
        }
        Ok(())
    }

    /// Seals the current page (if any): persists it under
    /// `write-through`, then unpins it so it becomes evictable.
    pub fn seal_current(&mut self) -> Result<()> {
        if let Some(pin) = self.current.take() {
            self.set.seal_page(&pin)?;
        }
        Ok(())
    }

    /// Finishes writing: seals the in-progress page and marks the set
    /// idle. Must be called; dropping a writer with an unsealed page
    /// seals it on a best-effort basis.
    pub fn finish(&mut self) -> Result<()> {
        self.seal_current()?;
        self.set.declare_idle()
    }
}

impl Drop for SeqWriter {
    fn drop(&mut self) {
        let _ = self.seal_current();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::SetOptions;
    use crate::node::{NodeConfig, StorageNode};
    use crate::page::ObjectIter;
    use pangea_common::KB;

    fn node(tag: &str) -> StorageNode {
        let dir = std::env::temp_dir().join(format!(
            "pangea-seq-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        StorageNode::new(
            NodeConfig::new(dir)
                .with_pool_capacity(64 * KB)
                .with_page_size(KB),
        )
        .unwrap()
    }

    fn read_all(set: &LocalitySet) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        for num in set.page_numbers() {
            let pin = set.pin_page(num).unwrap();
            ObjectIter::new(&pin).for_each(|r| out.push(r.to_vec()));
        }
        out
    }

    #[test]
    fn writes_roll_over_page_boundaries() {
        let n = node("rollover");
        let s = n.create_set("s", SetOptions::write_back()).unwrap();
        let mut w = s.writer();
        // 1 KB pages hold ~12 such records; write 100 to force rollover.
        for i in 0..100u64 {
            w.add_object(format!("record-{i:04}").as_bytes()).unwrap();
        }
        w.finish().unwrap();
        assert!(s.num_pages() > 1, "must have rolled over");
        let recs = read_all(&s);
        assert_eq!(recs.len(), 100);
        assert_eq!(recs[0], b"record-0000");
        assert_eq!(recs[99], b"record-0099");
        assert_eq!(w.objects_written(), 100);
    }

    fn page_images(set: &LocalitySet) -> Vec<Vec<u8>> {
        set.page_numbers()
            .into_iter()
            .map(|num| set.pin_page(num).unwrap().read().to_vec())
            .collect()
    }

    #[test]
    fn a_run_fills_the_same_pages_as_one_object_at_a_time() {
        let n = node("run");
        let objects: Vec<Vec<u8>> = (0..300u64)
            .map(|i| format!("object-{i}-{}", "x".repeat((i % 40) as usize)).into_bytes())
            .collect();
        let one = n.create_set("one", SetOptions::write_back()).unwrap();
        let mut w1 = one.writer();
        for obj in &objects {
            w1.add_object(obj).unwrap();
        }
        w1.finish().unwrap();
        let run = n.create_set("run", SetOptions::write_back()).unwrap();
        let mut w2 = run.writer();
        // Uneven runs, so some start mid-page and some end exactly at a
        // page's last object.
        for chunk in objects.chunks(37) {
            w2.add_objects(chunk.iter().map(Vec::as_slice)).unwrap();
        }
        w2.finish().unwrap();
        assert!(run.num_pages() > 1, "the runs must roll over pages");
        assert_eq!(page_images(&run), page_images(&one));
        assert_eq!(w2.objects_written(), w1.objects_written());
        assert_eq!(w2.objects_written(), 300);
    }

    #[test]
    fn an_oversized_object_mid_run_fails_after_the_objects_before_it() {
        let n = node("run-oversize");
        let s = n.create_set("s", SetOptions::write_back()).unwrap();
        let mut w = s.writer();
        let big = vec![7u8; 2 * KB];
        let run: Vec<&[u8]> = vec![b"kept-0", b"kept-1", &big, b"never-written"];
        assert!(w.add_objects(run).is_err());
        assert_eq!(w.objects_written(), 2);
        // The open page is left as it was: the writer goes on filling it.
        w.add_object(b"after").unwrap();
        w.finish().unwrap();
        assert_eq!(s.num_pages(), 1);
        assert_eq!(
            read_all(&s),
            vec![b"kept-0".to_vec(), b"kept-1".to_vec(), b"after".to_vec()]
        );
    }

    #[test]
    fn oversized_objects_are_rejected() {
        let n = node("oversize");
        let s = n.create_set("s", SetOptions::write_back()).unwrap();
        let mut w = s.writer();
        assert!(w.add_object(&vec![0u8; 2 * KB]).is_err());
    }

    #[test]
    fn typed_records_roundtrip() {
        let n = node("typed");
        let s = n.create_set("s", SetOptions::write_back()).unwrap();
        let mut w = s.writer();
        w.add_record(&vec![1.0f64, 2.0, 3.0]).unwrap();
        w.add_all((0..3u64).map(|i| format!("s{i}"))).unwrap();
        w.finish().unwrap();
        let recs = read_all(&s);
        assert_eq!(recs.len(), 4);
        let v = <Vec<f64> as Record>::decode(&recs[0]).unwrap();
        assert_eq!(v, vec![1.0, 2.0, 3.0]);
        assert_eq!(recs[1], b"s0");
    }

    #[test]
    fn two_writers_use_separate_pages() {
        let n = node("two");
        let s = n.create_set("s", SetOptions::write_back()).unwrap();
        let mut w1 = s.writer();
        let mut w2 = s.writer();
        w1.add_object(b"from-w1").unwrap();
        w2.add_object(b"from-w2").unwrap();
        w1.finish().unwrap();
        w2.finish().unwrap();
        assert_eq!(s.num_pages(), 2, "each writer pinned its own page");
        let mut recs = read_all(&s);
        recs.sort();
        assert_eq!(recs, vec![b"from-w1".to_vec(), b"from-w2".to_vec()]);
    }

    #[test]
    fn write_through_sets_persist_each_sealed_page() {
        let n = node("wt");
        let s = n.create_set("s", SetOptions::write_through()).unwrap();
        let mut w = s.writer();
        for i in 0..40u64 {
            w.add_object(format!("persisted-{i}").as_bytes()).unwrap();
        }
        w.finish().unwrap();
        assert_eq!(
            s.bytes_on_disk(),
            s.num_pages() * KB as u64,
            "every sealed page has an on-disk image"
        );
    }
}
