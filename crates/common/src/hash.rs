//! Fast, non-cryptographic hashing for database workloads.
//!
//! The default `SipHash` hasher in `std` protects against HashDoS attacks but
//! is slow for the short integer keys that dominate join processing. This
//! module provides an `Fx`-style multiplicative hasher (the algorithm used by
//! rustc) implemented from scratch so the workspace does not need an extra
//! dependency, plus [`FxHashMap`] / [`FxHashSet`] aliases that are drop-in
//! replacements for the standard containers.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

/// 64-bit Fx multiplicative hash constant (derived from the golden ratio).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

/// A fast multiplicative hasher suitable for integer-like keys.
///
/// Quality is lower than SipHash but throughput is much higher; this is the
/// standard tradeoff for in-memory database operators where the key
/// distribution is not adversarial.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
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
        for chunk in &mut chunks {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add_to_hash(i as u64);
        self.add_to_hash((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// Hash a single `u64` key directly (used by specialized probe tables).
#[inline]
pub fn hash_u64(x: u64) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(x);
    h.finish()
}

/// Hash a slice of `u64` values word-by-word — the key hash of the
/// compiled online path's probe memos, computed **once** per key
/// occurrence and then reused for lookup and insertion (a map keyed by
/// the slice itself would re-hash it on every probe).
#[inline]
pub fn hash_vals(vals: &[u64]) -> u64 {
    let mut h = FxHasher::default();
    for &v in vals {
        h.write_u64(v);
    }
    h.finish()
}

/// Folds one key column into a batch of running hashes: for every `i`,
/// `hashes[i] = (hashes[i].rotate_left(5) ^ col[i]) * SEED` — exactly one
/// [`FxHasher::write_u64`] step. Calling this once per key position over
/// zeroed hashes reproduces [`hash_vals`] of every row's projected key at
/// once, but column-at-a-time: the loop body is branch-free over two
/// contiguous slices, so the compiler unrolls and autovectorizes the
/// 8-wide `chunks_exact` blocks instead of re-walking short per-row key
/// slices. The columnar kernels use this to hoist key hashing out of
/// their per-row probe loops.
#[inline]
pub fn hash_fold_column(hashes: &mut [u64], col: &[u64]) {
    debug_assert_eq!(hashes.len(), col.len());
    let n = hashes.len().min(col.len());
    let (hash_chunks, hash_tail) = hashes[..n].split_at_mut(n - n % 8);
    let (col_chunks, col_tail) = col[..n].split_at(n - n % 8);
    for (hs, vs) in hash_chunks.chunks_exact_mut(8).zip(col_chunks.chunks_exact(8)) {
        for i in 0..8 {
            hs[i] = (hs[i].rotate_left(ROTATE) ^ vs[i]).wrapping_mul(SEED);
        }
    }
    for (h, &v) in hash_tail.iter_mut().zip(col_tail) {
        *h = (h.rotate_left(ROTATE) ^ v).wrapping_mul(SEED);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(hash_u64(42), hash_u64(42));
        assert_eq!(hash_vals(&[1, 2]), hash_vals(&[1, 2]));
    }

    #[test]
    fn distinguishes_order() {
        assert_ne!(hash_vals(&[1, 2]), hash_vals(&[2, 1]));
    }

    #[test]
    fn map_round_trip() {
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        for i in 0..1000u64 {
            m.insert(i, i * i);
        }
        for i in 0..1000u64 {
            assert_eq!(m[&i], i * i);
        }
        assert_eq!(m.len(), 1000);
    }

    #[test]
    fn set_round_trip() {
        let mut s: FxHashSet<(u64, u64)> = FxHashSet::default();
        for i in 0..100u64 {
            s.insert((i, i + 1));
        }
        assert!(s.contains(&(5, 6)));
        assert!(!s.contains(&(6, 5)));
    }

    #[test]
    fn byte_writes_cover_remainder() {
        let mut h1 = FxHasher::default();
        h1.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut h2 = FxHasher::default();
        h2.write(&[1, 2, 3, 4, 5, 6, 7, 8, 10]);
        assert_ne!(h1.finish(), h2.finish());
    }

    #[test]
    fn column_fold_matches_row_hashing() {
        // Build 37 rows of width 3 (odd count exercises the chunk tail),
        // fold column-at-a-time, and compare with per-row `hash_vals`.
        let rows: Vec<[u64; 3]> = (0..37u64)
            .map(|i| [i.wrapping_mul(0x9e37), i ^ 0xdead, u64::MAX - i])
            .collect();
        let mut hashes = vec![0u64; rows.len()];
        for k in 0..3 {
            let col: Vec<u64> = rows.iter().map(|r| r[k]).collect();
            hash_fold_column(&mut hashes, &col);
        }
        for (row, &h) in rows.iter().zip(&hashes) {
            assert_eq!(h, hash_vals(row));
        }
    }

    #[test]
    fn reasonable_distribution_low_bits() {
        // Sequential keys should not all collide in the low bits used for
        // bucket selection.
        let mut buckets = [0usize; 16];
        for i in 0..16_000u64 {
            buckets[(hash_u64(i) & 0xf) as usize] += 1;
        }
        for &b in &buckets {
            assert!(b > 500, "bucket badly underfull: {b}");
        }
    }
}
