//! A cheap hasher for the simulator's hot `u64`-keyed maps.
//!
//! The per-access bookkeeping maps (the L1 line index, the L1/L2 pending
//! fill tables, and the traversal engine's in-flight fetch and warp
//! tables) are keyed by line indices, byte addresses and warp tokens the
//! simulator computes itself. std's default SipHash defends against keys
//! crafted to collide, which such keys never are, and it dominated the
//! cost of a memory access. [`MulHasher`] is one folded 64×64→128-bit
//! multiply instead. Nothing iterates these maps in hash order (snapshot
//! export sorts), so the hasher affects speed only, never results.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Odd 64-bit constant (2^64 / φ): spreads consecutive and strided keys
/// over the whole product.
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// Folded-multiply hasher for simulator-computed integer keys. Not
/// collision-resistant: do not use it for keys from outside the program.
#[derive(Debug, Default, Clone, Copy)]
pub struct MulHasher(u64);

impl Hasher for MulHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        // The high half carries the upper key bits into hashbrown's bucket
        // index (low bits), the low half the lower key bits into its tag
        // byte (top bits), so keys differing only in high or only in low
        // bits still spread.
        let p = u128::from(self.0 ^ x) * u128::from(K);
        self.0 = (p as u64) ^ ((p >> 64) as u64);
    }
}

/// A `u64`-keyed map hashed with [`MulHasher`].
pub type U64Map<V> = HashMap<u64, V, BuildHasherDefault<MulHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash(x: u64) -> u64 {
        BuildHasherDefault::<MulHasher>::default().hash_one(x)
    }

    #[test]
    fn strided_keys_spread_over_low_and_high_bits() {
        // Line indices strided by a power of two (same low bits) must still
        // land in distinct buckets of a 1024-bucket table, and their top
        // seven bits (hashbrown's tag) must not all agree.
        for stride in [1u64, 64, 4096, 1 << 20] {
            let mut buckets: Vec<u64> = (0..512u64).map(|i| hash(i * stride) & 1023).collect();
            buckets.sort_unstable();
            buckets.dedup();
            assert!(
                buckets.len() > 300,
                "stride {stride}: {} buckets",
                buckets.len()
            );
            let tags: std::collections::BTreeSet<u64> =
                (0..512u64).map(|i| hash(i * stride) >> 57).collect();
            assert!(tags.len() > 64, "stride {stride}: {} tags", tags.len());
        }
    }

    #[test]
    fn byte_writes_agree_with_word_writes() {
        let mut a = MulHasher::default();
        a.write(&0x0123_4567_89ab_cdefu64.to_le_bytes());
        let mut b = MulHasher::default();
        b.write_u64(0x0123_4567_89ab_cdef);
        assert_eq!(a.finish(), b.finish());
    }
}
