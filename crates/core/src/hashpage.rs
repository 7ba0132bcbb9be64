//! An independent hash table living entirely inside one page's bytes
//! (paper §8, hash service: "each page contains an independent hash
//! table, as well as all of its associated key-value pairs").
//!
//! The layout bounds all allocation to the page's memory, mirroring the
//! paper's memcached-slab-allocator-in-a-page trick:
//!
//! ```text
//! [u32 n_buckets][u32 n_items][u32 heap_top][u32 local_depth]
//! [bucket heads: n_buckets × u32]            (0 = empty)
//! [entries, bump-allocated upward]
//!    entry: [u32 next][u16 klen][u16 vlen][key bytes][value bytes]
//! ```
//!
//! Values are updated in place when the new value has the same encoded
//! length (the common case for aggregation states); otherwise the old
//! entry is unlinked and a new one appended. When the bump heap reaches
//! the end of the page the table reports [`HashInsert::Full`] and the
//! virtual hash buffer splits the partition or spills the page.
//!
//! **One hash, three indexes.** Every operation takes the key's
//! [`hash_key`], computed once by the caller, and the page and the
//! virtual hash buffer carve it up so that no two choices read the same
//! bits:
//!
//! ```text
//! bits  0..32   root partition      (`root_of`: multiply-shift by K)
//! bits 32..52   split bits, upward  (`split_bits`: bit 32+d splits depth d)
//! bits   ..64   bucket, downward    (the top log2(n_buckets) bits)
//! ```
//!
//! Keys that share a page agree on the root and on the page's `d` split
//! bits, so a bucket index drawn from either would leave most of the
//! page's buckets empty and its chains that much longer. Bucket and
//! split bits meet only when `d + log2(n_buckets) > 32`, i.e. when one
//! root partition holds more than 2^32 buckets' worth of pages.

use pangea_common::{fx_hash64, mix64, PangeaError, Result};

/// Fixed header size.
const HDR: usize = 16;
/// Per-entry fixed overhead (`next` + `klen` + `vlen`).
const ENTRY_HDR: usize = 8;

/// Outcome of an insert into one hash page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HashInsert {
    /// A new key was added.
    Inserted,
    /// An existing key's value was replaced.
    Updated,
    /// The page has no room; split or spill.
    Full,
}

/// The hash every page operation takes: `fx_hash64` finished with
/// `mix64`, so that all 64 bits vary with every byte of the key (fx's
/// low bits do not: for a key of exactly eight bytes they are the first
/// byte's).
#[inline]
pub fn hash_key(key: &[u8]) -> u64 {
    mix64(fx_hash64(key))
}

/// The root partition, of `k`, that `hash` belongs to.
#[inline]
pub fn root_of(hash: u64, k: u32) -> usize {
    (((hash & 0xFFFF_FFFF) * k as u64) >> 32) as usize
}

/// The bits an extendible directory of depth `d` indexes by its low `d`.
#[inline]
pub fn split_bits(hash: u64) -> u64 {
    hash >> 32
}

/// Chooses a bucket count for a page: one bucket per ~64 bytes keeps
/// chains short for typical small aggregation entries.
pub fn buckets_for(page_size: usize) -> u32 {
    ((page_size / 64).max(4) as u32).next_power_of_two()
}

/// Initializes `bytes` as an empty hash page with `n_buckets` buckets and
/// the given extendible-split depth.
pub fn init(bytes: &mut [u8], n_buckets: u32, local_depth: u32) -> Result<()> {
    let need = HDR + n_buckets as usize * 4 + ENTRY_HDR;
    if bytes.len() < need {
        return Err(PangeaError::config(format!(
            "hash page of {} B cannot hold {n_buckets} buckets",
            bytes.len()
        )));
    }
    bytes[0..4].copy_from_slice(&n_buckets.to_le_bytes());
    bytes[4..8].copy_from_slice(&0u32.to_le_bytes());
    let heap_top = (HDR + n_buckets as usize * 4) as u32;
    bytes[8..12].copy_from_slice(&heap_top.to_le_bytes());
    bytes[12..16].copy_from_slice(&local_depth.to_le_bytes());
    bytes[HDR..HDR + n_buckets as usize * 4].fill(0);
    Ok(())
}

#[inline]
fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"))
}

#[inline]
fn write_u32(bytes: &mut [u8], at: usize, v: u32) {
    bytes[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

#[inline]
fn read_u16(bytes: &[u8], at: usize) -> u16 {
    u16::from_le_bytes(bytes[at..at + 2].try_into().expect("2 bytes"))
}

/// Number of buckets.
pub fn n_buckets(bytes: &[u8]) -> u32 {
    read_u32(bytes, 0)
}

/// Number of live entries.
pub fn n_items(bytes: &[u8]) -> u32 {
    read_u32(bytes, 4)
}

/// Bytes of the page consumed (header + buckets + heap).
pub fn used_bytes(bytes: &[u8]) -> usize {
    read_u32(bytes, 8) as usize
}

/// The page's extendible-hashing local depth (managed by the virtual
/// hash buffer's splitting logic).
pub fn local_depth(bytes: &[u8]) -> u32 {
    read_u32(bytes, 12)
}

/// Updates the local depth (after a split).
pub fn set_local_depth(bytes: &mut [u8], depth: u32) {
    write_u32(bytes, 12, depth);
}

/// Byte offset of the bucket head `hash` chains from: multiply-shift of
/// the hash's high half, i.e. its top `log2(n_buckets)` bits.
#[inline]
fn bucket_slot(bytes: &[u8], hash: u64) -> usize {
    let nb = n_buckets(bytes) as u64;
    HDR + (((hash >> 32) * nb) >> 32) as usize * 4
}

// Entry accessors -------------------------------------------------------

#[inline]
fn entry_key(bytes: &[u8], at: usize) -> &[u8] {
    let klen = read_u16(bytes, at + 4) as usize;
    &bytes[at + ENTRY_HDR..at + ENTRY_HDR + klen]
}

#[inline]
fn entry_val_range(bytes: &[u8], at: usize) -> (usize, usize) {
    let klen = read_u16(bytes, at + 4) as usize;
    let vlen = read_u16(bytes, at + 6) as usize;
    let start = at + ENTRY_HDR + klen;
    (start, start + vlen)
}

/// Where one walk of a key's bucket chain ended: at the key's entry, or
/// at the end of the chain. [`value`] reads through it and [`put`]
/// writes through it, so a lookup-then-store probes the page once. A
/// probe is only good for the page bytes it was taken from, unchanged.
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct Probe {
    /// Offset of the bucket head.
    slot: usize,
    /// Offset of the `next` link that points at `at`: the bucket head,
    /// or the entry before it in the chain.
    link: usize,
    /// Offset of the key's entry; 0 when the key is absent.
    at: usize,
}

/// Walks `key`'s bucket chain once. `hash` must be `hash_key(key)`.
pub fn find(bytes: &[u8], hash: u64, key: &[u8]) -> Probe {
    let slot = bucket_slot(bytes, hash);
    let mut link = slot;
    let mut at = read_u32(bytes, slot) as usize;
    while at != 0 && entry_key(bytes, at) != key {
        link = at;
        at = read_u32(bytes, at) as usize;
    }
    Probe { slot, link, at }
}

/// The value bytes of the entry `probe` found, if it found one.
pub fn value(bytes: &[u8], probe: Probe) -> Option<&[u8]> {
    (probe.at != 0).then(|| {
        let (s, e) = entry_val_range(bytes, probe.at);
        &bytes[s..e]
    })
}

/// Stores `key → val` where `probe` (from [`find`] on these bytes, for
/// this key) ended. A replacement of the same length happens in place;
/// one of a different length unlinks the old entry (its bytes become
/// dead slab space, as in a real slab allocator) and appends a new one.
/// On [`HashInsert::Full`] the key is no longer in the page: the caller
/// holds the only copy of its value.
pub fn put(bytes: &mut [u8], probe: Probe, key: &[u8], val: &[u8]) -> Result<HashInsert> {
    if probe.at != 0 {
        let (s, e) = entry_val_range(bytes, probe.at);
        if e - s == val.len() {
            bytes[s..e].copy_from_slice(val);
            return Ok(HashInsert::Updated);
        }
        let next = read_u32(bytes, probe.at);
        write_u32(bytes, probe.link, next);
        write_u32(bytes, 4, n_items(bytes) - 1);
    }
    push(bytes, probe.slot, key, val)
}

/// Adds `key → val` without looking for `key` first: for a key the
/// caller knows the page does not hold (a split's redistribution, a
/// retry after [`put`] reported the page full).
pub fn append(bytes: &mut [u8], hash: u64, key: &[u8], val: &[u8]) -> Result<HashInsert> {
    let slot = bucket_slot(bytes, hash);
    push(bytes, slot, key, val)
}

/// Bump-allocates an entry at the heap top and links it at the head of
/// the bucket at `slot`. An entry no empty page could hold is an error,
/// not `Full`: making room would never help.
fn push(bytes: &mut [u8], slot: usize, key: &[u8], val: &[u8]) -> Result<HashInsert> {
    if key.len() > u16::MAX as usize || val.len() > u16::MAX as usize {
        return Err(PangeaError::usage("hash key/value longer than 64 KiB"));
    }
    let heap_top = used_bytes(bytes);
    let need = ENTRY_HDR + key.len() + val.len();
    if heap_top + need > bytes.len() {
        let heap_start = HDR + n_buckets(bytes) as usize * 4;
        if heap_start + need > bytes.len() {
            return Err(PangeaError::usage(format!(
                "hash entry of {need} B does not fit an empty {} B hash page",
                bytes.len()
            )));
        }
        return Ok(HashInsert::Full);
    }
    let head = read_u32(bytes, slot);
    write_u32(bytes, heap_top, head);
    bytes[heap_top + 4..heap_top + 6].copy_from_slice(&(key.len() as u16).to_le_bytes());
    bytes[heap_top + 6..heap_top + 8].copy_from_slice(&(val.len() as u16).to_le_bytes());
    bytes[heap_top + ENTRY_HDR..heap_top + ENTRY_HDR + key.len()].copy_from_slice(key);
    bytes[heap_top + ENTRY_HDR + key.len()..heap_top + need].copy_from_slice(val);
    write_u32(bytes, slot, heap_top as u32);
    write_u32(bytes, 8, (heap_top + need) as u32);
    write_u32(bytes, 4, n_items(bytes) + 1);
    Ok(HashInsert::Inserted)
}

/// Calls `f(key, value)` for every live entry, stopping at its first
/// error.
pub fn for_each(bytes: &[u8], mut f: impl FnMut(&[u8], &[u8]) -> Result<()>) -> Result<()> {
    let nb = n_buckets(bytes);
    for b in 0..nb {
        let mut at = read_u32(bytes, HDR + b as usize * 4) as usize;
        while at != 0 {
            let key = entry_key(bytes, at);
            let (s, e) = entry_val_range(bytes, at);
            f(key, &bytes[s..e])?;
            at = read_u32(bytes, at) as usize;
        }
    }
    Ok(())
}

/// Length of every bucket's chain, in bucket order.
#[cfg(test)]
pub(crate) fn chain_lengths(bytes: &[u8]) -> Vec<u32> {
    (0..n_buckets(bytes) as usize)
        .map(|b| {
            let mut len = 0;
            let mut at = read_u32(bytes, HDR + b * 4) as usize;
            while at != 0 {
                len += 1;
                at = read_u32(bytes, at) as usize;
            }
            len
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh(cap: usize) -> Vec<u8> {
        let mut v = vec![0u8; cap];
        init(&mut v, buckets_for(cap), 0).unwrap();
        v
    }

    fn insert(bytes: &mut [u8], key: &[u8], val: &[u8]) -> Result<HashInsert> {
        let probe = find(bytes, hash_key(key), key);
        put(bytes, probe, key, val)
    }

    fn lookup<'a>(bytes: &'a [u8], key: &[u8]) -> Option<&'a [u8]> {
        value(bytes, find(bytes, hash_key(key), key))
    }

    fn entries(bytes: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut out = Vec::with_capacity(n_items(bytes) as usize);
        for_each(bytes, |k, v| {
            out.push((k.to_vec(), v.to_vec()));
            Ok(())
        })
        .unwrap();
        out
    }

    #[test]
    fn empty_table_has_nothing() {
        let p = fresh(1024);
        assert_eq!(n_items(&p), 0);
        assert!(lookup(&p, b"missing").is_none());
        assert!(entries(&p).is_empty());
    }

    #[test]
    fn insert_lookup_roundtrip() {
        let mut p = fresh(4096);
        for i in 0..50u32 {
            let k = format!("key-{i}");
            let r = insert(&mut p, k.as_bytes(), &i.to_le_bytes()).unwrap();
            assert_eq!(r, HashInsert::Inserted);
        }
        assert_eq!(n_items(&p), 50);
        for i in 0..50u32 {
            let k = format!("key-{i}");
            let v = lookup(&p, k.as_bytes()).expect("present");
            assert_eq!(u32::from_le_bytes(v.try_into().unwrap()), i);
        }
        assert!(lookup(&p, b"key-50").is_none());
    }

    #[test]
    fn same_length_update_is_in_place() {
        let mut p = fresh(1024);
        insert(&mut p, b"k", &7u64.to_le_bytes()).unwrap();
        let used = used_bytes(&p);
        let r = insert(&mut p, b"k", &9u64.to_le_bytes()).unwrap();
        assert_eq!(r, HashInsert::Updated);
        assert_eq!(used_bytes(&p), used, "no heap growth on in-place update");
        assert_eq!(
            lookup(&p, b"k").unwrap(),
            &9u64.to_le_bytes(),
            "value replaced"
        );
        assert_eq!(n_items(&p), 1);
    }

    #[test]
    fn resized_update_relinks() {
        let mut p = fresh(1024);
        insert(&mut p, b"k", b"short").unwrap();
        insert(&mut p, b"other", b"x").unwrap();
        let r = insert(&mut p, b"k", b"a much longer value").unwrap();
        assert_eq!(r, HashInsert::Inserted, "resize appends a fresh entry");
        assert_eq!(lookup(&p, b"k").unwrap(), b"a much longer value");
        assert_eq!(lookup(&p, b"other").unwrap(), b"x");
        assert_eq!(n_items(&p), 2, "no phantom entries");
        let mut keys: Vec<_> = entries(&p).into_iter().map(|(k, _)| k).collect();
        keys.sort();
        assert_eq!(keys, vec![b"k".to_vec(), b"other".to_vec()]);
    }

    #[test]
    fn reports_full_and_stays_consistent() {
        let mut p = fresh(256);
        let mut inserted = 0u32;
        loop {
            let k = format!("key-{inserted:04}");
            match insert(&mut p, k.as_bytes(), &[0u8; 16]).unwrap() {
                HashInsert::Inserted => inserted += 1,
                HashInsert::Full => break,
                HashInsert::Updated => unreachable!(),
            }
        }
        assert!(inserted > 0);
        assert_eq!(n_items(&p), inserted);
        // Everything inserted before the page filled is still there.
        for i in 0..inserted {
            let k = format!("key-{i:04}");
            assert!(lookup(&p, k.as_bytes()).is_some());
        }
    }

    #[test]
    fn colliding_keys_chain_correctly() {
        // Force collisions with a 4-bucket table.
        let mut p = vec![0u8; 2048];
        init(&mut p, 4, 0).unwrap();
        for i in 0..64u32 {
            insert(&mut p, format!("k{i}").as_bytes(), &i.to_le_bytes()).unwrap();
        }
        for i in 0..64u32 {
            let v = lookup(&p, format!("k{i}").as_bytes()).unwrap();
            assert_eq!(u32::from_le_bytes(v.try_into().unwrap()), i);
        }
        assert_eq!(entries(&p).len(), 64);
    }

    #[test]
    fn append_skips_the_probe_and_chains_like_put() {
        let mut p = fresh(2048);
        for i in 0..40u32 {
            let k = format!("key-{i}");
            let r = append(
                &mut p,
                hash_key(k.as_bytes()),
                k.as_bytes(),
                &i.to_le_bytes(),
            );
            assert_eq!(r.unwrap(), HashInsert::Inserted);
        }
        assert_eq!(n_items(&p), 40);
        for i in 0..40u32 {
            let v = lookup(&p, format!("key-{i}").as_bytes()).expect("present");
            assert_eq!(u32::from_le_bytes(v.try_into().unwrap()), i);
        }
    }

    #[test]
    fn an_entry_no_empty_page_could_hold_is_an_error_not_full() {
        let mut p = fresh(256);
        assert!(insert(&mut p, b"k", &[0u8; 300]).is_err());
        assert_eq!(
            insert(&mut p, b"k", &[0u8; 100]).unwrap(),
            HashInsert::Inserted
        );
        // A resize that no longer fits leaves the key out of the page.
        assert_eq!(insert(&mut p, b"k", &[0u8; 150]).unwrap(), HashInsert::Full);
        assert!(lookup(&p, b"k").is_none());
        assert_eq!(n_items(&p), 0);
    }

    #[test]
    fn local_depth_roundtrips() {
        let mut p = fresh(512);
        assert_eq!(local_depth(&p), 0);
        set_local_depth(&mut p, 3);
        assert_eq!(local_depth(&p), 3);
    }

    #[test]
    fn init_rejects_impossible_layouts() {
        let mut tiny = vec![0u8; 16];
        assert!(init(&mut tiny, 64, 0).is_err());
    }

    #[test]
    fn oversized_keys_rejected() {
        let mut p = fresh(1 << 18);
        let big = vec![0u8; (u16::MAX as usize) + 1];
        assert!(insert(&mut p, &big, b"v").is_err());
    }
}
