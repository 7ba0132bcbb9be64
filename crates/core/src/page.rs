//! In-page record layout shared by the sequential, shuffle, and spill
//! services.
//!
//! Every page written by those services is self-framing: an 8-byte header
//! holding the number of payload bytes in use, followed by a stream of
//! length-prefixed records (`u32` little-endian length + payload). A page
//! can therefore be scanned by an [`ObjectIter`] with no external index —
//! this is the "object iterator" of the paper's sequential read service
//! (§8), and it works identically for pages filled by one sequential writer
//! or by many concurrent shuffle writers (the shuffle service appends whole
//! records, so the stream stays valid).

use pangea_common::{PangeaError, Result};
use pangea_storage::{PagePin, PageReadGuard};

/// Bytes reserved at the start of every record page.
pub const PAGE_HEADER: usize = 8;

/// Per-record framing overhead (the `u32` length prefix).
pub const RECORD_PREFIX: usize = 4;

/// Initializes `bytes` as an empty record page.
pub fn init_record_page(bytes: &mut [u8]) {
    debug_assert!(bytes.len() >= PAGE_HEADER);
    bytes[..PAGE_HEADER].copy_from_slice(&0u64.to_le_bytes());
}

/// Payload-region bytes currently used in an initialized record page.
pub fn used_bytes(bytes: &[u8]) -> usize {
    let mut hdr = [0u8; 8];
    hdr.copy_from_slice(&bytes[..PAGE_HEADER]);
    u64::from_le_bytes(hdr) as usize
}

fn set_used(bytes: &mut [u8], used: usize) {
    bytes[..PAGE_HEADER].copy_from_slice(&(used as u64).to_le_bytes());
}

/// Bytes still available for records in the page.
pub fn free_bytes(bytes: &[u8]) -> usize {
    bytes.len() - PAGE_HEADER - used_bytes(bytes)
}

/// Appends one length-prefixed record. Returns `false` (leaving the page
/// untouched) when the record does not fit.
pub fn append_record(bytes: &mut [u8], payload: &[u8]) -> bool {
    let need = RECORD_PREFIX + payload.len();
    let used = used_bytes(bytes);
    if used + need > bytes.len() - PAGE_HEADER {
        return false;
    }
    let at = PAGE_HEADER + used;
    bytes[at..at + 4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes[at + 4..at + need].copy_from_slice(payload);
    set_used(bytes, used + need);
    true
}

/// Appends a pre-framed run of records (each already carrying its `u32`
/// length prefix), as produced by a shuffle staging buffer. Returns the
/// number of bytes consumed from `framed` — always a whole number of
/// records, possibly zero when nothing fits.
pub fn append_framed(bytes: &mut [u8], framed: &[u8]) -> usize {
    let mut fits = 0usize;
    let room = bytes.len() - PAGE_HEADER - used_bytes(bytes);
    while fits < framed.len() {
        let rest = &framed[fits..];
        if rest.len() < RECORD_PREFIX {
            break;
        }
        let len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as usize;
        let rec = RECORD_PREFIX + len;
        if fits + rec > room || rec > rest.len() {
            break;
        }
        fits += rec;
    }
    if fits > 0 {
        let used = used_bytes(bytes);
        let at = PAGE_HEADER + used;
        bytes[at..at + fits].copy_from_slice(&framed[..fits]);
        set_used(bytes, used + fits);
    }
    fits
}

/// Payload of record `i` in a page whose records all carry `len`-byte
/// payloads. Such a page has a fixed stride, so a record is addressed
/// directly rather than by walking the prefixes before it. `None` when
/// record `i` does not lie inside the used region.
pub fn fixed_record(bytes: &[u8], len: usize, i: usize) -> Option<&[u8]> {
    let start = i
        .checked_mul(RECORD_PREFIX + len)?
        .checked_add(RECORD_PREFIX)?;
    let end = start.checked_add(len)?;
    if end > used_bytes(bytes) {
        return None;
    }
    bytes.get(PAGE_HEADER + start..PAGE_HEADER + end)
}

/// Iterates the records of one page snapshot (a byte slice from a read
/// guard or a disk read). A *lending* iterator: each `next` borrows the
/// underlying bytes, so no per-record allocation happens.
#[derive(Debug, Clone)]
pub struct RecordSlices<'a> {
    payload: &'a [u8],
    pos: usize,
}

impl<'a> RecordSlices<'a> {
    /// Builds an iterator over an initialized record page.
    pub fn new(page_bytes: &'a [u8]) -> Self {
        let used = used_bytes(page_bytes);
        Self {
            payload: &page_bytes[PAGE_HEADER..PAGE_HEADER + used],
            pos: 0,
        }
    }

    /// Validating variant for bytes read back from disk.
    pub fn checked(page_bytes: &'a [u8]) -> Result<Self> {
        if page_bytes.len() < PAGE_HEADER {
            return Err(PangeaError::Corruption("page shorter than header".into()));
        }
        let used = used_bytes(page_bytes);
        if used > page_bytes.len() - PAGE_HEADER {
            return Err(PangeaError::Corruption(format!(
                "page header claims {used} used bytes of {} available",
                page_bytes.len() - PAGE_HEADER
            )));
        }
        Ok(Self::new(page_bytes))
    }
}

impl<'a> Iterator for RecordSlices<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        if self.pos + RECORD_PREFIX > self.payload.len() {
            return None;
        }
        let len = u32::from_le_bytes(
            self.payload[self.pos..self.pos + 4]
                .try_into()
                .expect("4 bytes"),
        ) as usize;
        let start = self.pos + RECORD_PREFIX;
        if start + len > self.payload.len() {
            return None; // torn tail; treat as end of stream
        }
        self.pos = start + len;
        Some(&self.payload[start..start + len])
    }
}

/// The paper's object iterator (§8: `createObjectIterator(page)` /
/// `objIter->next()`): owns a read guard on a pinned page and lends out
/// record payloads one at a time without copying.
pub struct ObjectIter<'a> {
    guard: PageReadGuard<'a>,
    pos: usize,
    used: usize,
}

impl<'a> ObjectIter<'a> {
    /// Opens an iterator over a pinned record page.
    pub fn new(pin: &'a PagePin) -> Self {
        let guard = pin.read();
        let used = used_bytes(&guard);
        Self {
            guard,
            pos: 0,
            used,
        }
    }

    /// The next record payload, or `None` at end of page.
    #[allow(clippy::should_implement_trait)] // lending iterator: borrows self
    pub fn next(&mut self) -> Option<&[u8]> {
        let payload = &self.guard[PAGE_HEADER..PAGE_HEADER + self.used];
        if self.pos + RECORD_PREFIX > payload.len() {
            return None;
        }
        let len = u32::from_le_bytes(payload[self.pos..self.pos + 4].try_into().expect("4 bytes"))
            as usize;
        let start = self.pos + RECORD_PREFIX;
        if start + len > payload.len() {
            return None;
        }
        self.pos = start + len;
        Some(&payload[start..start + len])
    }

    /// Runs `f` over every remaining record.
    pub fn for_each(mut self, mut f: impl FnMut(&[u8])) {
        while let Some(rec) = self.next() {
            f(rec);
        }
    }

    /// Number of records remaining (consumes the iterator).
    pub fn count(mut self) -> usize {
        let mut n = 0;
        while self.next().is_some() {
            n += 1;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(cap: usize) -> Vec<u8> {
        let mut v = vec![0xEEu8; cap];
        init_record_page(&mut v);
        v
    }

    #[test]
    fn empty_page_has_no_records() {
        let p = page(64);
        assert_eq!(used_bytes(&p), 0);
        assert_eq!(free_bytes(&p), 64 - PAGE_HEADER);
        assert_eq!(RecordSlices::new(&p).count(), 0);
    }

    #[test]
    fn append_and_iterate_roundtrip() {
        let mut p = page(128);
        assert!(append_record(&mut p, b"alpha"));
        assert!(append_record(&mut p, b""));
        assert!(append_record(&mut p, b"gamma!"));
        let recs: Vec<&[u8]> = RecordSlices::new(&p).collect();
        assert_eq!(recs, vec![b"alpha".as_slice(), b"", b"gamma!"]);
    }

    #[test]
    fn append_refuses_when_full() {
        let mut p = page(PAGE_HEADER + RECORD_PREFIX + 4);
        assert!(append_record(&mut p, b"1234"));
        assert!(!append_record(&mut p, b"x"), "no room for prefix+payload");
        assert_eq!(RecordSlices::new(&p).count(), 1);
    }

    #[test]
    fn append_framed_takes_whole_records_only() {
        let mut staged = Vec::new();
        for payload in [b"aa".as_slice(), b"bbbb", b"cc"] {
            staged.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            staged.extend_from_slice(payload);
        }
        // Room for the first two records only.
        let mut p = page(PAGE_HEADER + (4 + 2) + (4 + 4) + 3);
        let taken = append_framed(&mut p, &staged);
        assert_eq!(taken, (4 + 2) + (4 + 4));
        let recs: Vec<&[u8]> = RecordSlices::new(&p).collect();
        assert_eq!(recs, vec![b"aa".as_slice(), b"bbbb"]);
        // The remainder fits on a fresh page.
        let mut q = page(64);
        assert_eq!(append_framed(&mut q, &staged[taken..]), 4 + 2);
        assert_eq!(RecordSlices::new(&q).next(), Some(b"cc".as_slice()));
    }

    #[test]
    fn fixed_record_addresses_by_stride() {
        let mut p = page(PAGE_HEADER + 3 * (RECORD_PREFIX + 8) + 5);
        for v in [10u64, 20, 30] {
            assert!(append_record(&mut p, &v.to_le_bytes()));
        }
        for (i, v) in [10u64, 20, 30].into_iter().enumerate() {
            assert_eq!(fixed_record(&p, 8, i), Some(v.to_le_bytes().as_slice()));
        }
        assert_eq!(fixed_record(&p, 8, 3), None, "past the used region");
        assert_eq!(fixed_record(&p, 8, usize::MAX), None, "no overflow");
        set_used(&mut p, 1000);
        assert_eq!(fixed_record(&p, 8, 50), None, "corrupt header, no panic");
    }

    #[test]
    fn checked_rejects_corrupt_headers() {
        let mut p = page(32);
        set_used(&mut p, 1000);
        assert!(RecordSlices::checked(&p).is_err());
        assert!(RecordSlices::checked(&[0u8; 4]).is_err());
    }

    #[test]
    fn torn_record_tail_is_ignored() {
        let mut p = page(64);
        assert!(append_record(&mut p, b"ok"));
        // Simulate a torn write: header claims more bytes than one whole
        // record provides.
        let used = used_bytes(&p);
        set_used(&mut p, used + 5);
        let recs: Vec<&[u8]> = RecordSlices::new(&p).collect();
        assert_eq!(recs, vec![b"ok".as_slice()]);
    }
}
