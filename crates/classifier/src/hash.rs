//! A fixed, fast hasher for maps keyed by small integers.
//!
//! Entry ids, switch ids, table ids, exact headers and short vertex-id
//! slices are not attacker-chosen, so the DoS resistance of the
//! standard library's SipHash buys nothing for them and costs a few
//! dozen cycles per lookup. [`IdHasher`] folds each 64-bit word of the
//! key into its state with one multiply and one rotate.
//!
//! The hasher is deterministic (no per-process seed). No code may let
//! map iteration order reach an observable result; maps that are
//! drained in a fixed order sort first.

use std::hash::{BuildHasher, Hasher};

/// Odd multiplier with well-spread bits (2^64 / φ).
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// [`BuildHasher`] for the multiply-rotate hasher; use it as the third
/// type parameter of `HashMap`/`HashSet`.
///
/// ```
/// use std::collections::HashMap;
/// use sdnprobe_classifier::IdHashBuilder;
///
/// let mut m: HashMap<u64, &str, IdHashBuilder> = HashMap::default();
/// m.insert(7, "seven");
/// assert_eq!(m.get(&7), Some(&"seven"));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHashBuilder;

impl BuildHasher for IdHashBuilder {
    type Hasher = IdHasher;

    fn build_hasher(&self) -> IdHasher {
        IdHasher(0)
    }
}

/// Multiply-rotate hasher over 64-bit words; see the module docs.
#[derive(Debug, Clone, Copy)]
pub struct IdHasher(u64);

impl IdHasher {
    #[inline]
    fn word(&mut self, w: u64) {
        // The multiply carries every input bit upward; the rotate brings
        // the well-mixed high half down to the low bits a table indexes
        // by, before the next word lands on them.
        self.0 = (self.0 ^ w).wrapping_mul(K).rotate_left(26);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.word(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.word(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.word(u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.word(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.word(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.word(v);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.word(v as u64);
        self.word((v >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.word(v as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn hash<T: std::hash::Hash>(v: T) -> u64 {
        IdHashBuilder.hash_one(v)
    }

    #[test]
    fn deterministic_and_word_sensitive() {
        assert_eq!(hash(42u64), hash(42u64));
        assert_ne!(hash(42u64), hash(43u64));
        assert_ne!(hash((1u64, 2u64)), hash((2u64, 1u64)));
        // Slices hash their length and their bytes: trailing zeros count.
        assert_ne!(hash(&[1u32, 0][..]), hash(&[1u32][..]));
        assert_ne!(hash(1u128 << 64), hash(1u128));
    }

    #[test]
    fn sequential_ids_spread_over_low_bits() {
        // A table indexes by the low bits: 4096 consecutive ids must land
        // in nearly as many distinct buckets of a 4096-slot table.
        let buckets: HashSet<u64> = (0..4096u64).map(|id| hash(id) & 4095).collect();
        assert!(buckets.len() > 2400, "{} buckets", buckets.len());
        // And the high 7 bits a SwissTable keeps as tags vary too.
        let tags: HashSet<u64> = (0..4096u64).map(|id| hash(id) >> 57).collect();
        assert_eq!(tags.len(), 128);
    }
}
