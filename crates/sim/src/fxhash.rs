//! Dependency-free hashers for the engines' hot-path maps.
//!
//! SipHash — `std`'s default, chosen for HashDoS resistance — would cost
//! the tagged engine dearly: under the unbounded-tag policies every token
//! delivery and every firing probes a node's `SparseRows` map
//! (`crate::store`), so the hasher sits squarely on the simulator's inner
//! loop. Simulation keys are small integers produced by the engine itself
//! (tag counters), never attacker-controlled, so the DoS-resistance tax
//! buys nothing here.
//!
//! [`FxHasher`] is the classic multiply-xor design used by rustc
//! (`FxHash`): one wrapping multiply and a rotate per word. [`TagHasher`]
//! keeps a tag's own value in the bits that pick its bucket, so the tags a
//! node sees back to back sit in adjacent buckets; the token store keys its
//! rows with it. The workspace builds offline with no external crates
//! (DESIGN.md §8), so both are written out rather than pulled in.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant from FxHash (derived from the golden ratio, as
/// in Fibonacci hashing); spreads low-entropy integer keys across the high
/// bits, which `HashMap` then uses for bucket selection.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The per-word mixing step: fold `word` in, then diffuse with one
/// wrapping multiply.
#[inline]
fn mix(hash: u64, word: u64) -> u64 {
    (hash.rotate_left(5) ^ word).wrapping_mul(SEED)
}

/// A fast, non-cryptographic, deterministic hasher (FxHash64).
///
/// Deterministic across runs and platforms — unlike `RandomState`, two
/// engines hashing the same tag stream produce identical bucket layouts,
/// which keeps behavior reproducible under profiling.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
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
            self.hash = mix(self.hash, u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.hash = mix(self.hash, u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.hash = mix(self.hash, n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.hash = mix(self.hash, n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.hash = mix(self.hash, n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.hash = mix(self.hash, n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.hash = mix(self.hash, n as u64);
    }
}

/// `BuildHasher` producing [`FxHasher`]s (stateless, zero-sized).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed through [`FxHasher`] — drop-in for hot-path maps whose
/// keys the simulator itself generates.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` hashed through [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// Bits of a [`TagHasher`] hash that are the tag itself; the 7 above them
/// are FxHash's.
const TAG_BITS: u64 = (1 << 57) - 1;

/// A hasher for maps keyed by one engine tag (a `u64`): the low 57 bits of
/// the hash are the tag itself, the top 7 bits are [`FxHasher`]'s.
///
/// The design relies on std's `HashMap`, a SwissTable, taking the bucket
/// from the hash's low bits and the control byte that filters a probe from
/// its top 7. Tags `t` and `t + 1` then land in adjacent buckets, so a
/// node's sliding window of live tags fills one stretch of the table and
/// streams through the host cache, while the FxHash top bits still give
/// neighbouring tags distinct control bytes. A std that picked buckets
/// differently would cost speed, never correctness: the map compares keys.
///
/// A key of several words folds them with FxHash's rotate-xor and no
/// multiply; one `u64` folds to itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct TagHasher {
    tag: u64,
}

impl Hasher for TagHasher {
    #[inline]
    fn finish(&self) -> u64 {
        (self.tag.wrapping_mul(SEED) & !TAG_BITS) | (self.tag & TAG_BITS)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for c in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..c.len()].copy_from_slice(c);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.tag = self.tag.rotate_left(5) ^ n;
    }
}

/// `BuildHasher` producing [`TagHasher`]s (stateless, zero-sized).
pub type TagBuildHasher = BuildHasherDefault<TagHasher>;

/// A `HashMap` from tags to `V`, hashed through [`TagHasher`].
pub type TagHashMap<V> = HashMap<u64, V, TagBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash_u64(v: u64) -> u64 {
        let mut h = FxHasher::default();
        h.write_u64(v);
        h.finish()
    }

    #[test]
    fn deterministic_across_instances() {
        assert_eq!(hash_u64(0xdead_beef), hash_u64(0xdead_beef));
        let b = FxBuildHasher::default();
        assert_eq!(b.hash_one(42u64), b.hash_one(42u64));
    }

    #[test]
    fn sequential_tags_spread_over_high_bits() {
        // Tags are allocated sequentially; the multiply must spread them so
        // the map does not degenerate. Check the top byte takes many values
        // over a small consecutive range.
        let mut top_bytes = FxHashSet::default();
        for t in 0u64..256 {
            top_bytes.insert((hash_u64(t) >> 56) as u8);
        }
        assert!(top_bytes.len() > 100, "only {} distinct top bytes", top_bytes.len());
    }

    #[test]
    fn tag_hash_is_the_tag_under_fxhash_top_bits() {
        let b = TagBuildHasher::default();
        // The low 57 bits place the tag: tags below 2^57 hash to
        // themselves there, so consecutive tags take adjacent buckets.
        for t in (0u64..4096).chain((1 << 57) - 4096..1 << 57).chain([0xdead_beef, 1 << 56]) {
            assert_eq!(b.hash_one(t) & TAG_BITS, t, "tag {t}");
            assert_eq!(b.hash_one(t) >> 57, hash_u64(t) >> 57, "tag {t}: FxHash's top bits");
        }
        // The top 7 bits are the control byte filtering a probe: over a
        // run of consecutive tags they must take many of their 128 values.
        let mut top_bits = FxHashSet::default();
        for t in 1_000_000u64..1_000_256 {
            top_bits.insert(b.hash_one(t) >> 57);
        }
        assert!(top_bits.len() > 100, "only {} distinct top-7-bit values", top_bits.len());
    }

    #[test]
    fn byte_stream_matches_padded_tail() {
        // A non-multiple-of-8 write folds its tail zero-padded; the same
        // logical prefix must hash differently from a different one.
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3]);
        let mut b = FxHasher::default();
        b.write(&[1, 2, 4]);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn map_roundtrips_like_std() {
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        for t in 0..1000u64 {
            m.insert(t, t * 3);
        }
        for t in (0..1000u64).step_by(2) {
            m.remove(&t);
        }
        assert_eq!(m.len(), 500);
        assert_eq!(m.get(&501), Some(&1503));
        assert_eq!(m.get(&500), None);
    }
}
