//! Concrete packet headers.

use std::fmt;

use crate::ternary::{Ternary, MAX_BITS};

/// A concrete packet header: `len` bits, every bit fixed.
///
/// This is what actually rides in a test packet; ternary patterns
/// ([`crate::Ternary`]) describe *sets* of these.
///
/// # Examples
///
/// ```
/// use sdnprobe_headerspace::{Header, Ternary};
///
/// let h = Header::new(0b0010_1000, 8);
/// let pattern: Ternary = "00101xxx".parse()?;
/// // Header string form reads bit 0 first, like the paper's H[k].
/// assert_eq!(h.to_string(), "00010100");
/// assert!(pattern.matches(Header::new(0b0001_0100, 8)));
/// # Ok::<(), sdnprobe_headerspace::HeaderSpaceError>(())
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Header {
    bits: u128,
    len: u32,
}

impl Header {
    /// Creates a header from its bits; bits at or above `len` are cleared.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero or exceeds 128.
    pub fn new(bits: u128, len: u32) -> Self {
        assert!(
            (1..=MAX_BITS).contains(&len),
            "header length must be in 1..={MAX_BITS}, got {len}"
        );
        let mask = if len as usize == 128 {
            u128::MAX
        } else {
            (1u128 << len) - 1
        };
        Self {
            bits: bits & mask,
            len,
        }
    }

    /// Raw bit content (bit k of the header at shift k).
    pub fn bits(&self) -> u128 {
        self.bits
    }

    /// Header length in bits.
    pub fn len(&self) -> u32 {
        self.len
    }

    /// Always false; headers have at least one bit.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Bit `k` of the header (`H[k]`).
    ///
    /// # Panics
    ///
    /// Panics if `k >= self.len()`.
    pub fn bit(&self, k: u32) -> bool {
        assert!(k < self.len, "bit index {k} out of range");
        self.bits >> k & 1 == 1
    }

    /// Returns a copy with bit `k` set to `bit`.
    ///
    /// # Panics
    ///
    /// Panics if `k >= self.len()`.
    pub fn with_bit(&self, k: u32, bit: bool) -> Self {
        assert!(k < self.len, "bit index {k} out of range");
        let mask = 1u128 << k;
        Self {
            bits: if bit {
                self.bits | mask
            } else {
                self.bits & !mask
            },
            len: self.len,
        }
    }

    /// The header after a set-field rewrite, `T(h, set_field)`: bits the
    /// set field fixes take its values, the others are kept. The
    /// concrete counterpart of [`Ternary::apply_set_field`].
    pub fn apply_set_field(&self, set_field: &Ternary) -> Self {
        Self::new(
            (self.bits & !set_field.care_mask()) | set_field.value_bits(),
            self.len,
        )
    }
}

impl fmt::Display for Header {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for k in 0..self.len {
            write!(f, "{}", if self.bit(k) { '1' } else { '0' })?;
        }
        Ok(())
    }
}

impl fmt::Debug for Header {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Header({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_are_masked_to_len() {
        let h = Header::new(0b1111_0000, 4);
        assert_eq!(h.bits(), 0);
        assert_eq!(h.len(), 4);
    }

    #[test]
    fn bit_accessors() {
        let h = Header::new(0b0101, 4);
        assert!(h.bit(0));
        assert!(!h.bit(1));
        assert!(h.bit(2));
        assert!(!h.bit(3));
    }

    #[test]
    fn with_bit_round_trip() {
        let h = Header::new(0, 8).with_bit(3, true).with_bit(7, true);
        assert_eq!(h.bits(), 0b1000_1000);
        assert_eq!(h.with_bit(3, false).bits(), 0b1000_0000);
    }

    #[test]
    fn set_field_rewrites_only_fixed_bits() {
        let h = Header::new(0b0000_1111, 8);
        // Bit 0 first: the set field fixes bit 0 to 0 and bit 1 to 1.
        let s: Ternary = "01xxxxxx".parse().unwrap();
        assert_eq!(h.apply_set_field(&s).bits(), 0b0000_1110);
        assert_eq!(h.apply_set_field(&Ternary::wildcard(8)), h);
        // The image is a member of the ternary image.
        let m = Ternary::from_header(h);
        assert!(m.apply_set_field(&s).matches(h.apply_set_field(&s)));
    }

    #[test]
    fn display_reads_bit0_first() {
        assert_eq!(Header::new(0b0001, 4).to_string(), "1000");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bit_out_of_range_panics() {
        Header::new(0, 4).bit(4);
    }

    #[test]
    fn ordering_is_total() {
        let a = Header::new(1, 8);
        let b = Header::new(2, 8);
        assert!(a < b);
    }
}
