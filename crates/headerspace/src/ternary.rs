//! Ternary bitstrings over the alphabet `{0, 1, x}`.
//!
//! A [`Ternary`] models a packet-header pattern in the header space
//! `{0,1,x}^L` used throughout the SDNProbe paper: `0`/`1` bits are fixed
//! and `x` is a wildcard that matches either value. Match fields and
//! set fields of flow entries are both ternaries; a set field additionally
//! interprets fixed bits as "overwrite" and wildcards as "pass through"
//! (see [`Ternary::apply_set_field`]).
//!
//! Bit `k` (`0 <= k < len`) corresponds to the k-th character of the
//! string form, i.e. `H[k]` in the paper's notation. Headers are at most
//! [`MAX_BITS`] bits long, which comfortably covers the paper's 8-bit
//! worked examples and the 32-bit IPv4-style rules used in evaluation.

use std::fmt;
use std::str::FromStr;

use rand::RngCore;

use crate::error::HeaderSpaceError;
use crate::header::Header;

/// Maximum supported header length in bits.
pub const MAX_BITS: u32 = 128;

/// A ternary bit pattern: every bit is `0`, `1`, or wildcard `x`.
///
/// # Examples
///
/// ```
/// use sdnprobe_headerspace::Ternary;
///
/// let a: Ternary = "0010xxxx".parse()?;
/// let b: Ternary = "001xxxxx".parse()?;
/// assert!(a.is_subset_of(&b));
/// assert_eq!(a.intersect(&b), Some(a));
/// # Ok::<(), sdnprobe_headerspace::HeaderSpaceError>(())
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ternary {
    /// Bitmask of fixed ("cared about") bits; bit k set means position k is
    /// fixed to the corresponding bit of `value`.
    care: u128,
    /// Values of the fixed bits; bits outside `care` are always zero.
    value: u128,
    /// Header length in bits.
    len: u32,
}

impl Ternary {
    /// Creates a ternary from raw `care`/`value` masks.
    ///
    /// Bits of `value` outside `care` are cleared, and bits of both masks
    /// beyond `len` are cleared, so the representation is canonical.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero or exceeds [`MAX_BITS`].
    pub fn from_masks(care: u128, value: u128, len: u32) -> Self {
        assert!(
            (1..=MAX_BITS).contains(&len),
            "header length must be in 1..={MAX_BITS}, got {len}"
        );
        let width = Self::width_mask(len);
        let care = care & width;
        Self {
            care,
            value: value & care,
            len,
        }
    }

    /// The all-wildcard ternary `x^len`, which matches every header.
    ///
    /// This is the paper's default set field (`set:xxxxxxxx`) and the
    /// initial header space `O_0 = {x}^L` of a legality check.
    pub fn wildcard(len: u32) -> Self {
        Self::from_masks(0, 0, len)
    }

    /// A fully concrete ternary equal to the given header.
    pub fn from_header(header: Header) -> Self {
        Self::from_masks(Self::width_mask(header.len()), header.bits(), header.len())
    }

    /// An IPv4-style destination-prefix pattern: the first `prefix_len`
    /// bits of `addr` (counting from bit 0) are fixed, the rest wildcard.
    ///
    /// # Panics
    ///
    /// Panics if `prefix_len > len` or `len` is out of range.
    pub fn prefix(addr: u128, prefix_len: u32, len: u32) -> Self {
        assert!(prefix_len <= len, "prefix length exceeds header length");
        let care = if prefix_len == 0 {
            0
        } else {
            Self::width_mask(prefix_len)
        };
        Self::from_masks(care, addr, len)
    }

    fn width_mask(len: u32) -> u128 {
        if len as usize == 128 {
            u128::MAX
        } else {
            (1u128 << len) - 1
        }
    }

    /// Header length in bits.
    pub fn len(&self) -> u32 {
        self.len
    }

    /// Always false: a ternary has at least one bit.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Mask of fixed bit positions.
    pub fn care_mask(&self) -> u128 {
        self.care
    }

    /// Values at the fixed bit positions (zero elsewhere).
    pub fn value_bits(&self) -> u128 {
        self.value
    }

    /// Number of fixed (non-wildcard) bits.
    pub fn fixed_bit_count(&self) -> u32 {
        self.care.count_ones()
    }

    /// Number of wildcard bits.
    pub fn wildcard_bit_count(&self) -> u32 {
        self.len - self.fixed_bit_count()
    }

    /// Returns the bit at position `k`: `Some(true)`/`Some(false)` when
    /// fixed, `None` when wildcard.
    ///
    /// # Panics
    ///
    /// Panics if `k >= self.len()`.
    pub fn bit(&self, k: u32) -> Option<bool> {
        assert!(k < self.len, "bit index {k} out of range");
        if self.care >> k & 1 == 1 {
            Some(self.value >> k & 1 == 1)
        } else {
            None
        }
    }

    /// Returns a copy with bit `k` fixed to `bit`.
    ///
    /// # Panics
    ///
    /// Panics if `k >= self.len()`.
    pub fn with_bit(&self, k: u32, bit: bool) -> Self {
        assert!(k < self.len, "bit index {k} out of range");
        let mask = 1u128 << k;
        Self {
            care: self.care | mask,
            value: if bit {
                self.value | mask
            } else {
                self.value & !mask
            },
            len: self.len,
        }
    }

    /// True if every bit is fixed, i.e. the pattern matches exactly one
    /// header.
    pub fn is_concrete(&self) -> bool {
        self.care == Self::width_mask(self.len)
    }

    /// True if every bit is a wildcard.
    pub fn is_wildcard(&self) -> bool {
        self.care == 0
    }

    /// True if the concrete header matches this pattern.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn matches(&self, header: Header) -> bool {
        self.assert_same_len(header.len());
        (header.bits() ^ self.value) & self.care == 0
    }

    /// Intersection of two patterns, or `None` if they are disjoint.
    ///
    /// Two ternaries intersect unless some bit is fixed to different
    /// values in both.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn intersect(&self, other: &Ternary) -> Option<Ternary> {
        self.assert_same_len(other.len);
        let conflict = (self.value ^ other.value) & self.care & other.care;
        if conflict != 0 {
            return None;
        }
        Some(Ternary {
            care: self.care | other.care,
            value: self.value | other.value,
            len: self.len,
        })
    }

    /// True if the two patterns share at least one header.
    pub fn overlaps(&self, other: &Ternary) -> bool {
        self.assert_same_len(other.len);
        (self.value ^ other.value) & self.care & other.care == 0
    }

    /// True if every header matched by `self` is matched by `other`.
    pub fn is_subset_of(&self, other: &Ternary) -> bool {
        self.assert_same_len(other.len);
        // `other`'s fixed bits must all be fixed identically in `self`.
        other.care & !self.care == 0 && (self.value ^ other.value) & other.care == 0
    }

    /// Applies a set-field rewrite: the paper's `T(h, s)`.
    ///
    /// Fixed bits of `set_field` overwrite the corresponding bits; its
    /// wildcard bits leave the original bit (fixed or wildcard) unchanged.
    ///
    /// ```
    /// use sdnprobe_headerspace::Ternary;
    ///
    /// let input: Ternary = "000xxxxx".parse()?;
    /// let set: Ternary = "0111xxxx".parse()?;
    /// assert_eq!(input.apply_set_field(&set).to_string(), "0111xxxx");
    /// # Ok::<(), sdnprobe_headerspace::HeaderSpaceError>(())
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn apply_set_field(&self, set_field: &Ternary) -> Ternary {
        self.assert_same_len(set_field.len);
        let care = self.care | set_field.care;
        let value = (self.value & !set_field.care) | set_field.value;
        Ternary {
            care,
            value,
            len: self.len,
        }
    }

    /// Preimage of this pattern under a set-field rewrite: the pattern
    /// matched by exactly those headers `h` with `T(h, set_field) ∈ self`.
    ///
    /// Returns `None` when no preimage exists (the set field writes a bit
    /// to a value this pattern excludes). Bits overwritten by the set
    /// field are unconstrained in the preimage.
    ///
    /// ```
    /// use sdnprobe_headerspace::Ternary;
    ///
    /// let out: Ternary = "0111xxxx".parse()?;
    /// let set: Ternary = "0111xxxx".parse()?;
    /// // Everything maps into `out` under `set`.
    /// assert_eq!(out.preimage_under(&set), Some(Ternary::wildcard(8)));
    /// let bad: Ternary = "1xxxxxxx".parse()?;
    /// assert_eq!(bad.preimage_under(&set), None);
    /// # Ok::<(), sdnprobe_headerspace::HeaderSpaceError>(())
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn preimage_under(&self, set_field: &Ternary) -> Option<Ternary> {
        self.assert_same_len(set_field.len);
        // Where the set field writes, the image bit is s[k]; if this
        // pattern fixes that bit differently, the preimage is empty.
        let written = set_field.care;
        if (self.value ^ set_field.value) & self.care & written != 0 {
            return None;
        }
        // Remaining constraints apply to pass-through bits only.
        Some(Ternary {
            care: self.care & !written,
            value: self.value & !written,
            len: self.len,
        })
    }

    /// The lowest concrete header matching this pattern (wildcards = 0).
    pub fn min_header(&self) -> Header {
        Header::new(self.value, self.len)
    }

    /// Samples a uniformly random concrete header matching this pattern.
    pub fn sample_header<R: RngCore + ?Sized>(&self, rng: &mut R) -> Header {
        let mut random = ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128;
        random &= Self::width_mask(self.len);
        Header::new(self.value | (random & !self.care), self.len)
    }

    /// Number of concrete headers matched, as `f64` (may exceed `u128`
    /// precision for long headers; exact below 2^53 wildcards—in practice
    /// always).
    pub fn header_count(&self) -> f64 {
        2f64.powi(self.wildcard_bit_count() as i32)
    }

    /// Iterates over every concrete header matched by this pattern.
    ///
    /// Intended for tests and small patterns.
    ///
    /// # Panics
    ///
    /// Panics if the pattern has more than 24 wildcard bits.
    pub fn enumerate(&self) -> impl Iterator<Item = Header> + '_ {
        let wild = self.wildcard_bit_count();
        assert!(wild <= 24, "refusing to enumerate 2^{wild} headers");
        let free_positions: Vec<u32> = (0..self.len).filter(|k| self.care >> k & 1 == 0).collect();
        let base = self.value;
        let len = self.len;
        (0u64..1u64 << wild).map(move |combo| {
            let mut bits = base;
            for (i, &pos) in free_positions.iter().enumerate() {
                if combo >> i & 1 == 1 {
                    bits |= 1u128 << pos;
                }
            }
            Header::new(bits, len)
        })
    }

    /// Complement as a union of ternaries: one per fixed bit, with that
    /// bit flipped and all earlier fixed bits released to wildcard.
    ///
    /// The returned patterns are pairwise disjoint and their union is
    /// exactly the set of headers *not* matched by `self`. An all-wildcard
    /// pattern returns an empty vector (its complement is empty).
    pub fn complement(&self) -> Vec<Ternary> {
        let mut out = Vec::with_capacity(self.fixed_bit_count() as usize);
        let mut seen_care = 0u128;
        for k in 0..self.len {
            let mask = 1u128 << k;
            if self.care & mask != 0 {
                // Differ at bit k, agree with `self` on fixed bits above k
                // being irrelevant: release previously-seen fixed bits.
                let care = (self.care & !seen_care) | mask;
                let value = (self.value & care) ^ mask;
                out.push(Ternary {
                    care,
                    value,
                    len: self.len,
                });
                seen_care |= mask;
            }
        }
        out
    }

    /// True if every header matched by `self` is matched by at least one
    /// of `patterns`, i.e. `self ⊆ ⋃ patterns`.
    ///
    /// Exact even when the cover requires several patterns jointly:
    /// decided by recursively splitting on a bit some overlapping pattern
    /// fixes but `self` leaves wildcard (the same scheme as
    /// `HeaderSet::contains_ternary`). Used as the early-exit emptiness
    /// check for `m − ⋃ qᵢ`, skipping the complement expansion entirely
    /// when a rule is fully shadowed.
    ///
    /// # Panics
    ///
    /// Panics if any pattern length differs from `self`'s.
    pub fn is_covered_by(&self, patterns: &[Ternary]) -> bool {
        if patterns.iter().any(|q| self.is_subset_of(q)) {
            return true;
        }
        // Cardinality bound: `self ∩ q` holds exactly 2^w headers (w =
        // joint wildcard bits) when the two overlap, so if those sizes
        // cannot even sum to |self| the union cannot cover it. This
        // settles the common not-covered case without any splitting.
        let wild = self.len - self.care.count_ones();
        if wild < 128 {
            let mut have = 0u128;
            for q in patterns.iter().filter(|q| q.overlaps(self)) {
                let joint = self.len - (self.care | q.care).count_ones();
                have = have.saturating_add(1u128 << joint.min(127));
            }
            if have < 1u128 << wild {
                return false;
            }
        }
        let Some(q) = patterns.iter().find(|q| q.overlaps(self)) else {
            return false;
        };
        for k in 0..self.len {
            if q.bit(k).is_some() && self.bit(k).is_none() {
                return self.with_bit(k, false).is_covered_by(patterns)
                    && self.with_bit(k, true).is_covered_by(patterns);
            }
        }
        // `self` fixes every bit `q` fixes and they overlap, so self ⊆ q.
        true
    }

    fn assert_same_len(&self, other_len: u32) {
        assert_eq!(
            self.len, other_len,
            "ternary length mismatch: {} vs {}",
            self.len, other_len
        );
    }
}

impl fmt::Display for Ternary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for k in 0..self.len {
            let c = match self.bit(k) {
                Some(true) => '1',
                Some(false) => '0',
                None => 'x',
            };
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for Ternary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Ternary({self})")
    }
}

impl FromStr for Ternary {
    type Err = HeaderSpaceError;

    /// Parses the paper's string form, e.g. `"00101xxx"`. The k-th
    /// character is bit `H[k]`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let len = s.len() as u32;
        if len == 0 || len > MAX_BITS {
            return Err(HeaderSpaceError::BadLength { len: s.len() });
        }
        let mut care = 0u128;
        let mut value = 0u128;
        for (k, c) in s.chars().enumerate() {
            let mask = 1u128 << k;
            match c {
                '0' => care |= mask,
                '1' => {
                    care |= mask;
                    value |= mask;
                }
                'x' | 'X' | '*' => {}
                other => {
                    return Err(HeaderSpaceError::BadCharacter {
                        character: other,
                        position: k,
                    })
                }
            }
        }
        Ok(Ternary { care, value, len })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn t(s: &str) -> Ternary {
        s.parse().expect("valid ternary")
    }

    #[test]
    fn parse_and_display_round_trip() {
        for s in ["00101xxx", "xxxxxxxx", "01010101", "x", "1", "0"] {
            assert_eq!(t(s).to_string(), s);
        }
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(Ternary::from_str("").is_err());
        assert!(Ternary::from_str("01a").is_err());
        assert!(Ternary::from_str(&"x".repeat(129)).is_err());
    }

    #[test]
    fn paper_example_edge_b2_c2_exists() {
        // Figure 3: b2.out = 0011xxxx, c2.in = 001xxxxx - 00100xxx.
        // The paper checks 0011xxxx ∩ (001xxxxx − 00100xxx) ≠ ∅; here we
        // verify the ternary-level overlap used by step-1 edge building.
        let b2_out = t("0011xxxx");
        let c2_match = t("001xxxxx");
        assert!(b2_out.overlaps(&c2_match));
        // And b2_out is disjoint from the overlapping rule c1 = 00100xxx,
        // so the subtraction cannot remove the intersection.
        assert!(!b2_out.overlaps(&t("00100xxx")));
    }

    #[test]
    fn paper_example_no_edge_c1_e2() {
        // c1.out = 00100xxx, e2.in = 001xxxxx − 0010xxxx: every header in
        // 00100xxx also matches e1's 0010xxxx, so the edge must not exist.
        let c1_out = t("00100xxx");
        let e2_match = t("001xxxxx");
        let e1_match = t("0010xxxx");
        assert!(c1_out.overlaps(&e2_match));
        assert!(c1_out.is_subset_of(&e1_match), "all of c1.out matches e1");
    }

    #[test]
    fn intersect_basics() {
        assert_eq!(t("00xx").intersect(&t("0x1x")), Some(t("001x")));
        assert_eq!(t("00xx").intersect(&t("01xx")), None);
        let w = Ternary::wildcard(8);
        assert_eq!(w.intersect(&t("00101xxx")), Some(t("00101xxx")));
    }

    #[test]
    fn intersect_is_commutative_and_idempotent() {
        let a = t("0x1x0x1x");
        let b = t("xx100x1x");
        assert_eq!(a.intersect(&b), b.intersect(&a));
        assert_eq!(a.intersect(&a), Some(a));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn intersect_length_mismatch_panics() {
        let _ = t("0x").intersect(&t("0x1"));
    }

    #[test]
    fn subset_relation() {
        assert!(t("0010xxxx").is_subset_of(&t("001xxxxx")));
        assert!(!t("001xxxxx").is_subset_of(&t("0010xxxx")));
        assert!(t("0010").is_subset_of(&t("0010")));
        assert!(t("00100xxx").is_subset_of(&Ternary::wildcard(8)));
    }

    #[test]
    fn apply_set_field_paper_d1() {
        // Rule d1 in Figure 3: input 000xxxxx, set field 0111xxxx,
        // output 0111xxxx.
        let input = t("000xxxxx");
        let set = t("0111xxxx");
        assert_eq!(input.apply_set_field(&set), t("0111xxxx"));
    }

    #[test]
    fn apply_default_set_field_is_identity() {
        let h = t("0x10x1x0");
        assert_eq!(h.apply_set_field(&Ternary::wildcard(8)), h);
    }

    #[test]
    fn set_field_overwrites_fixed_and_wild_bits() {
        let h = t("01xx");
        let s = t("x0x1");
        // bit0: s wild -> keep 0; bit1: s=0 overwrites 1; bit2: both wild;
        // bit3: s=1 overwrites wildcard.
        assert_eq!(h.apply_set_field(&s), t("00x1"));
    }

    #[test]
    fn matches_and_bits() {
        let p = t("0x1x");
        assert!(p.matches(Header::new(0b0100, 4)));
        assert!(p.matches(Header::new(0b1110, 4)));
        assert!(!p.matches(Header::new(0b0001, 4)));
        assert_eq!(p.bit(0), Some(false));
        assert_eq!(p.bit(1), None);
        assert_eq!(p.bit(2), Some(true));
    }

    #[test]
    fn with_bit_fixes_bits() {
        let p = t("xxxx").with_bit(2, true).with_bit(0, false);
        assert_eq!(p.to_string(), "0x1x");
        assert_eq!(p.with_bit(2, false).to_string(), "0x0x");
    }

    #[test]
    fn complement_partitions_space() {
        let p = t("0x10");
        let comp = p.complement();
        // Complement pieces are disjoint from p and from each other, and
        // together with p cover the whole 4-bit space.
        let mut covered = 0usize;
        for h in Ternary::wildcard(4).enumerate() {
            let in_p = p.matches(h);
            let in_comp = comp.iter().filter(|c| c.matches(h)).count();
            assert!(in_comp <= 1, "complement pieces overlap on {h:?}");
            assert_eq!(in_p, in_comp == 0, "complement wrong at {h:?}");
            covered += 1;
        }
        assert_eq!(covered, 16);
    }

    #[test]
    fn complement_of_wildcard_is_empty() {
        assert!(Ternary::wildcard(8).complement().is_empty());
    }

    #[test]
    fn prefix_patterns() {
        let p = Ternary::prefix(0b1010, 4, 32);
        assert!(p.matches(Header::new(0b1010, 32)));
        assert!(p.matches(Header::new(0b1_0000_1010, 32)));
        assert!(!p.matches(Header::new(0b0010, 32)));
        assert_eq!(p.fixed_bit_count(), 4);
        assert_eq!(Ternary::prefix(0, 0, 16), Ternary::wildcard(16));
    }

    #[test]
    fn enumerate_counts() {
        assert_eq!(t("0x1x").enumerate().count(), 4);
        assert_eq!(t("0010").enumerate().count(), 1);
        let all: Vec<_> = t("xx").enumerate().collect();
        assert_eq!(all.len(), 4);
    }

    #[test]
    fn sample_header_always_matches() {
        let p = t("0x10x1xx");
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert!(p.matches(p.sample_header(&mut rng)));
        }
    }

    #[test]
    fn min_header_matches() {
        let p = t("1x0x");
        assert!(p.matches(p.min_header()));
        assert_eq!(p.min_header().bits(), 0b0001);
    }

    #[test]
    fn header_count() {
        assert_eq!(t("xx0x").header_count(), 8.0);
        assert_eq!(t("0000").header_count(), 1.0);
    }

    #[test]
    fn canonical_representation_equality() {
        // Value bits outside the care mask must not affect equality.
        let a = Ternary::from_masks(0b0011, 0b1101, 4);
        let b = Ternary::from_masks(0b0011, 0b0001, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn full_width_128_bits() {
        let w = Ternary::wildcard(128);
        assert_eq!(w.wildcard_bit_count(), 128);
        let c = Ternary::from_header(Header::new(u128::MAX, 128));
        assert!(c.is_concrete());
        assert!(c.is_subset_of(&w));
    }
}
