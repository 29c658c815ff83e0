//! Fibonacci hashing: the one integer hash behind the coherence directory's
//! set index and the paging manager's resident map.
//!
//! Multiplying by 2^64 / φ spreads every bit of the key over the high bits
//! of the product, so a fastrange reduction (`(hash * n) >> 64`) can use
//! it as it is.  Hash tables that index buckets by the *low* bits use
//! [`FibHasher`], which folds the high half down.  Unlike std's
//! `RandomState`, neither depends on a per-process key.

use std::hash::{BuildHasherDefault, Hasher};

/// 2^64 / φ, rounded to odd.
const FIBONACCI: u64 = 0x9E37_79B9_7F4A_7C15;

/// The Fibonacci hash of `x`: its product with 2^64 / φ.
#[must_use]
#[inline]
pub fn fib_hash(x: u64) -> u64 {
    x.wrapping_mul(FIBONACCI)
}

/// A [`Hasher`] for integer keys built on [`fib_hash`].  `finish` folds the
/// product's high half into its low bits, which is where hashbrown takes
/// its bucket index from.
#[derive(Debug, Clone, Copy, Default)]
pub struct FibHasher(u64);

impl Hasher for FibHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.0 = fib_hash(self.0 ^ i);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// Builds [`FibHasher`]s: `HashMap<K, V, FibBuildHasher>` for integer keys
/// that are never iterated.
pub type FibBuildHasher = BuildHasherDefault<FibHasher>;

#[cfg(test)]
mod tests {
    use std::collections::{HashMap, HashSet};

    use super::*;

    #[test]
    fn fold_reaches_the_low_bits() {
        // Keys with twelve zero low bits give products with twelve zero low
        // bits; only the fold spreads them over a 1024-bucket table.
        let buckets: HashSet<u64> = (0..1024u64)
            .map(|k| {
                let mut h = FibHasher::default();
                h.write_u64(k << 12);
                h.finish() & 1023
            })
            .collect();
        assert!(buckets.len() > 600, "{} distinct buckets", buckets.len());
    }

    #[test]
    fn map_round_trips() {
        let mut map: HashMap<u64, u64, FibBuildHasher> = HashMap::default();
        for k in 0..10_000u64 {
            map.insert(k << 12, k);
        }
        assert!((0..10_000u64).all(|k| map.get(&(k << 12)) == Some(&k)));
    }
}
