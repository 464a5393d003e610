//! A fast hasher for the engine's internal hash maps.
//!
//! The per-delta path hashes small keys constantly: interned-id bucket
//! keys, primary keys, group keys, probe keys and the interner's own
//! values. The standard library's SipHash costs tens of nanoseconds per
//! key; these maps use the multiply-rotate hash rustc uses internally (one
//! multiply per word) instead. On the 264-node shortest-path workload at
//! one thread that took about 10% off the wall time (2-CPU x86-64 host).
//!
//! Two additions keep it well behaved on the values tuples carry. A final
//! mixing step spreads the high bits of the state into the low bits the
//! table indexes by — integers hash through their `f64` bit pattern, whose
//! low bits are all zero for every small integer, and without it they
//! would all land in one bucket group. And every map starts from a
//! per-process random seed, so bucket placement cannot be worked out from
//! the input alone. None of the maps is ever iterated in an order that
//! anything observable depends on, so neither the function nor the seed
//! can change a result — only lookup speed.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// The multiply-rotate ("Fx") hasher with a mixing finish.
#[derive(Debug, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    /// The state through the splitmix64 finalizer, so every output bit
    /// depends on every state bit.
    #[inline]
    fn finish(&self) -> u64 {
        let mut h = self.hash;
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^ (h >> 31)
    }
}

/// Builds [`FxHasher`]s that start from the per-process seed.
#[derive(Debug, Clone, Copy)]
pub struct FxBuildHasher {
    seed: u64,
}

impl Default for FxBuildHasher {
    fn default() -> Self {
        static PROCESS_SEED: OnceLock<u64> = OnceLock::new();
        FxBuildHasher {
            seed: *PROCESS_SEED.get_or_init(|| RandomState::new().hash_one(SEED)),
        }
    }
}

impl BuildHasher for FxBuildHasher {
    type Hasher = FxHasher;

    fn build_hasher(&self) -> FxHasher {
        FxHasher { hash: self.seed }
    }
}

/// A `HashMap` hashed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of(value: impl Hash) -> u64 {
        FxBuildHasher::default().hash_one(value)
    }

    #[test]
    fn equal_keys_hash_alike_and_small_keys_spread() {
        assert_eq!(hash_of([1u32, 2, 3]), hash_of([1u32, 2, 3]));
        let distinct: std::collections::HashSet<u64> = (0u32..1000).map(hash_of).collect();
        assert_eq!(distinct.len(), 1000);
        assert_ne!(hash_of("abcdefghij"), hash_of("abcdefghik"));
    }

    #[test]
    fn integral_floats_spread_over_low_bits() {
        // Small integers hash through f64 bit patterns whose low 52 bits
        // are mostly zero; the finish must still spread them over the low
        // bits a table indexes by.
        let buckets: std::collections::HashSet<u64> = (0..256)
            .map(|i| hash_of(f64::from(i).to_bits()) & 0xff)
            .collect();
        assert!(buckets.len() > 128, "{} distinct buckets", buckets.len());
    }
}
