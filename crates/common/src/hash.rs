//! A fast, non-cryptographic hasher for hot internal hash maps.
//!
//! The performance guide recommends replacing SipHash for hot paths where
//! HashDoS is not a concern. `rustc-hash` is not on the sanctioned dependency
//! list, so this is a self-contained implementation of the same FxHash
//! algorithm (multiply-xor over machine words, as used by rustc and Firefox).

use std::hash::{BuildHasherDefault, Hasher};

/// Seed constant: 2^64 / golden ratio, the classic Fibonacci-hashing
/// multiplier.
const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The FxHash hasher state.
#[derive(Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf));
            // Length-tag the tail so "a" and "a\0" differ.
            self.add_to_hash(rem.len() as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add_to_hash(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add_to_hash(v as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

/// The splitmix64 finalizer: a bijection on `u64` that spreads
/// sequential and strided inputs over the whole range. [`fx_hash64`]
/// leaves its low bits only as varied as the low bytes of the last
/// word it folded; callers that carve several independent indexes out
/// of one hash pass it through this first.
#[inline]
pub fn mix64(x: u64) -> u64 {
    let x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Hashes a byte slice to a `u64` in one call.
///
/// This is the hash used for shuffle partitioning and for the in-page hash
/// tables of the hash service.
#[inline]
pub fn fx_hash64(bytes: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(bytes);
    h.finish()
}

/// The key a repair session, a `HashList` and the `Absent` diff
/// identify a record by: a 64-bit hash of its content that mixes inside
/// the fold — each 8-byte word (the tail zero-padded) goes through
/// [`mix64`] together with the running state, seeded with the length.
/// [`fx_hash64`] folds each word with one multiply, so look-alike
/// records whose difference straddles two words collide readily (24 of
/// the 300 names `batch-{000..099}-record-{0..2}`); a collision here
/// drops a distinct record as a replay, so this key must behave like a
/// random 64-bit value: 600 K records collide with probability ~1e-8.
#[inline]
pub fn record_key(bytes: &[u8]) -> u64 {
    let mut h = bytes.len() as u64;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        h = mix64(h ^ u64::from_le_bytes(c.try_into().unwrap()));
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut buf = [0u8; 8];
        buf[..rem.len()].copy_from_slice(rem);
        h = mix64(h ^ u64::from_le_bytes(buf));
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_inputs_hash_equal() {
        assert_eq!(fx_hash64(b"lineitem"), fx_hash64(b"lineitem"));
    }

    #[test]
    fn different_inputs_hash_differently() {
        // Not guaranteed in general, but these must differ for a sane hash.
        assert_ne!(fx_hash64(b"a"), fx_hash64(b"b"));
        assert_ne!(fx_hash64(b"a"), fx_hash64(b"a\0"));
        assert_ne!(fx_hash64(b""), fx_hash64(b"\0"));
    }

    #[test]
    fn tail_handling_covers_every_remainder_length() {
        let base: Vec<u8> = (0u8..32).collect();
        let mut seen = std::collections::HashSet::new();
        for len in 0..=16 {
            assert!(
                seen.insert(fx_hash64(&base[..len])),
                "collision at len {len}"
            );
        }
    }

    #[test]
    fn record_key_separates_look_alike_names() {
        let distinct = |names: &[String], key: fn(&[u8]) -> u64| {
            names
                .iter()
                .map(|n| key(n.as_bytes()))
                .collect::<std::collections::HashSet<_>>()
                .len()
        };
        let names: Vec<String> = (0..100)
            .flat_map(|b| (0..3).map(move |r| format!("batch-{b:03}-record-{r}")))
            .collect();
        // The fold `fx_hash64` does cannot tell these apart; the key must.
        assert!(distinct(&names, fx_hash64) < names.len());
        assert_eq!(distinct(&names, record_key), names.len());
        let long: Vec<String> = (0..100_000)
            .map(|b| format!("batch-{b:06}-record-{}", b % 3))
            .collect();
        assert_eq!(distinct(&long, record_key), long.len());
        assert_ne!(record_key(b"a"), record_key(b"a\0"));
        assert_ne!(record_key(b""), record_key(b"\0"));
    }

    #[test]
    fn distribution_is_not_degenerate() {
        // Hash 10_000 distinct keys into 64 buckets; every bucket should
        // receive something and no bucket should hold more than 5x its share.
        let mut buckets = [0u32; 64];
        for i in 0..10_000u64 {
            let h = fx_hash64(&i.to_le_bytes());
            buckets[(h % 64) as usize] += 1;
        }
        let expected = 10_000 / 64;
        for (i, &b) in buckets.iter().enumerate() {
            assert!(b > 0, "bucket {i} empty");
            assert!(b < expected * 5, "bucket {i} overloaded: {b}");
        }
    }
}
