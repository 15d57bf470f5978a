//! Header-space sets: unions of ternary patterns.
//!
//! A [`HeaderSet`] represents an arbitrary subset of `{0,1}^L` as a union
//! (DNF) of [`Ternary`] patterns, following Header Space Analysis. It
//! supports the operations SDNProbe needs along a tested path:
//! intersection (`O_i ∩ r.in`), subtraction (`r.m − ⋃ q.m` for overlapping
//! rules), and the set-field transform `T(·, r.s)`.
//!
//! The representation is kept small with subsumption pruning: any term
//! that is a subset of another term is dropped.

use std::fmt;

use rand::RngCore;

use crate::header::Header;
use crate::termvec::TermVec;
use crate::ternary::Ternary;

/// A union of ternary patterns describing a set of headers.
///
/// # Examples
///
/// ```
/// use sdnprobe_headerspace::{HeaderSet, Ternary};
///
/// // e2's input in the paper's Figure 3: 001xxxxx − 0010xxxx.
/// let m: Ternary = "001xxxxx".parse()?;
/// let overlap: Ternary = "0010xxxx".parse()?;
/// let input = HeaderSet::from(m).subtract_ternary(&overlap);
/// assert!(!input.is_empty());
/// // 00100xxx ⊆ 0010xxxx, so it is gone:
/// assert!(!input.contains_ternary(&"00100xxx".parse()?));
/// // but 0011xxxx remains:
/// assert!(input.contains_ternary(&"0011xxxx".parse()?));
/// # Ok::<(), sdnprobe_headerspace::HeaderSpaceError>(())
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct HeaderSet {
    /// DNF terms; pairwise non-subsuming, all of equal length. Stored
    /// inline for the 1–2 term sets that dominate legality checking.
    terms: TermVec,
    /// Header length in bits; kept even when `terms` is empty.
    len: u32,
}

impl HeaderSet {
    /// The empty set over `len`-bit headers.
    pub fn empty(len: u32) -> Self {
        Self {
            terms: TermVec::new(),
            len,
        }
    }

    /// The full space `{x}^len` (the paper's `O_0`).
    pub fn full(len: u32) -> Self {
        let mut terms = TermVec::new();
        terms.push(Ternary::wildcard(len));
        Self { terms, len }
    }

    /// Builds a set from a union of patterns.
    ///
    /// # Panics
    ///
    /// Panics if the patterns have differing lengths or the iterator is
    /// empty and no length can be inferred — use [`HeaderSet::empty`] for
    /// an explicitly empty set.
    pub fn from_union<I: IntoIterator<Item = Ternary>>(patterns: I) -> Self {
        let mut iter = patterns.into_iter();
        let first = iter
            .next()
            .expect("from_union requires at least one pattern");
        let mut set = HeaderSet::from(first);
        for t in iter {
            set.insert(t);
        }
        set
    }

    /// Header length in bits.
    pub fn len_bits(&self) -> u32 {
        self.len
    }

    /// True if the set contains no headers.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// The DNF terms of this set.
    pub fn terms(&self) -> &[Ternary] {
        self.terms.as_slice()
    }

    /// Number of DNF terms (representation size, not cardinality).
    pub fn term_count(&self) -> usize {
        self.terms.len()
    }

    /// Adds a pattern to the union, maintaining subsumption pruning.
    ///
    /// # Panics
    ///
    /// Panics if the pattern length differs from the set's.
    pub fn insert(&mut self, t: Ternary) {
        assert_eq!(t.len(), self.len, "pattern length mismatch");
        if self.terms.iter().any(|u| t.is_subset_of(u)) {
            return;
        }
        self.terms.retain(|u| !u.is_subset_of(&t));
        self.terms.push(t);
    }

    /// True if the concrete header is in the set.
    pub fn contains(&self, h: Header) -> bool {
        self.terms.iter().any(|t| t.matches(h))
    }

    /// True if *every* header matching `t` is in the set.
    ///
    /// Exact even when `t` straddles several terms (checked by recursive
    /// splitting on a distinguishing bit).
    pub fn contains_ternary(&self, t: &Ternary) -> bool {
        if self.terms.iter().any(|u| t.is_subset_of(u)) {
            return true;
        }
        // Find a term overlapping `t` and split on one of the term's fixed
        // bits that is wildcard in `t`; if no term overlaps, `t` has a
        // header outside the set.
        let Some(u) = self.terms.iter().find(|u| u.overlaps(t)) else {
            return false;
        };
        for k in 0..self.len {
            if u.bit(k).is_some() && t.bit(k).is_none() {
                return self.contains_ternary(&t.with_bit(k, false))
                    && self.contains_ternary(&t.with_bit(k, true));
            }
        }
        // `t` fixes every bit `u` fixes and they overlap, so t ⊆ u.
        true
    }

    /// Intersection with a single pattern.
    pub fn intersect_ternary(&self, t: &Ternary) -> HeaderSet {
        let mut out = HeaderSet::empty(self.len);
        for u in &self.terms {
            if let Some(i) = u.intersect(t) {
                out.insert(i);
            }
        }
        out
    }

    /// Intersection of two sets (pairwise term intersection).
    pub fn intersect(&self, other: &HeaderSet) -> HeaderSet {
        let mut out = HeaderSet::empty(self.len);
        for u in &self.terms {
            for v in &other.terms {
                if let Some(i) = u.intersect(v) {
                    out.insert(i);
                }
            }
        }
        out
    }

    /// True iff the two sets share at least one header, without
    /// materializing the intersection. Terms are unions, so one
    /// overlapping term pair suffices.
    pub fn intersects(&self, other: &HeaderSet) -> bool {
        self.terms
            .iter()
            .any(|u| other.terms.iter().any(|v| u.overlaps(v)))
    }

    /// Union of two sets.
    pub fn union(&self, other: &HeaderSet) -> HeaderSet {
        let mut out = self.clone();
        for t in &other.terms {
            out.insert(*t);
        }
        out
    }

    /// Subtracts every header matching `t`: `self ∩ ¬t`.
    ///
    /// This is the operation behind the paper's rule input
    /// `r.in = r.m − ⋃_{q >o r} q.m`.
    pub fn subtract_ternary(&self, t: &Ternary) -> HeaderSet {
        let mut out = HeaderSet::empty(self.len);
        for u in &self.terms {
            if !u.overlaps(t) {
                out.insert(*u);
                continue;
            }
            if u.is_subset_of(t) {
                continue; // entirely removed
            }
            for piece in t.complement() {
                if let Some(i) = u.intersect(&piece) {
                    out.insert(i);
                }
            }
        }
        out
    }

    /// Subtracts another set term by term.
    pub fn subtract(&self, other: &HeaderSet) -> HeaderSet {
        let mut out = self.clone();
        for t in &other.terms {
            if out.is_empty() {
                break;
            }
            out = out.subtract_ternary(t);
        }
        out
    }

    /// Applies a set-field rewrite to the whole set: `T(self, set_field)`.
    ///
    /// The image of each term is itself a ternary, so the result is exact.
    pub fn apply_set_field(&self, set_field: &Ternary) -> HeaderSet {
        let mut out = HeaderSet::empty(self.len);
        for u in &self.terms {
            out.insert(u.apply_set_field(set_field));
        }
        out
    }

    /// Preimage of the whole set under a set-field rewrite: headers `h`
    /// with `T(h, set_field) ∈ self`.
    pub fn preimage_under(&self, set_field: &Ternary) -> HeaderSet {
        let mut out = HeaderSet::empty(self.len);
        for u in &self.terms {
            if let Some(p) = u.preimage_under(set_field) {
                out.insert(p);
            }
        }
        out
    }

    /// In-place [`HeaderSet::intersect_ternary`]: replaces `self` with
    /// `self ∩ t`.
    ///
    /// Replays exactly the insert sequence of the pure variant, so the
    /// resulting term order — observable through [`HeaderSet::terms`] and
    /// [`HeaderSet::any_header`] — is identical; only the intermediate
    /// allocation is gone (inline storage is reused directly).
    pub fn intersect_ternary_in_place(&mut self, t: &Ternary) {
        let old = std::mem::take(&mut self.terms);
        for u in old.iter() {
            if let Some(i) = u.intersect(t) {
                self.insert(i);
            }
        }
    }

    /// In-place [`HeaderSet::intersect`]; same term order as the pure
    /// variant.
    pub fn intersect_in_place(&mut self, other: &HeaderSet) {
        let old = std::mem::take(&mut self.terms);
        for u in old.iter() {
            for v in &other.terms {
                if let Some(i) = u.intersect(v) {
                    self.insert(i);
                }
            }
        }
    }

    /// In-place [`HeaderSet::subtract_ternary`]; same term order as the
    /// pure variant.
    pub fn subtract_ternary_in_place(&mut self, t: &Ternary) {
        let old = std::mem::take(&mut self.terms);
        for u in old.iter() {
            if !u.overlaps(t) {
                self.insert(*u);
                continue;
            }
            if u.is_subset_of(t) {
                continue;
            }
            for piece in t.complement() {
                if let Some(i) = u.intersect(&piece) {
                    self.insert(i);
                }
            }
        }
    }

    /// In-place [`HeaderSet::apply_set_field`]; same term order as the
    /// pure variant.
    pub fn apply_set_field_in_place(&mut self, set_field: &Ternary) {
        let old = std::mem::take(&mut self.terms);
        for u in old.iter() {
            self.insert(u.apply_set_field(set_field));
        }
    }

    /// True if every header in the set matches at least one of the
    /// patterns, i.e. `self − ⋃ patterns = ∅`.
    ///
    /// This decides emptiness of the paper's rule input
    /// `r.in = r.m − ⋃_{q >o r} q.m` without materializing the
    /// subtraction's complement pieces (see [`Ternary::is_covered_by`]).
    pub fn is_covered_by(&self, patterns: &[Ternary]) -> bool {
        self.terms.iter().all(|t| t.is_covered_by(patterns))
    }

    /// Any concrete header from the set, or `None` if empty.
    pub fn any_header(&self) -> Option<Header> {
        self.terms.as_slice().first().map(|t| t.min_header())
    }

    /// Samples a header approximately uniformly: picks a term weighted by
    /// its cardinality, then a uniform header within it. Headers in the
    /// overlap of two terms are slightly over-weighted; exactness is not
    /// required by any caller (used for randomized probe headers).
    pub fn sample_header<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<Header> {
        if self.terms.is_empty() {
            return None;
        }
        let weights: Vec<f64> = self.terms.iter().map(|t| t.header_count()).collect();
        let total: f64 = weights.iter().sum();
        let mut pick = (rng.next_u64() as f64 / u64::MAX as f64) * total;
        for (t, w) in self.terms.iter().zip(&weights) {
            if pick <= *w {
                return Some(t.sample_header(rng));
            }
            pick -= w;
        }
        self.terms.as_slice().last().map(|t| t.sample_header(rng))
    }

    /// Exact number of headers in the set (inclusion–exclusion free:
    /// computed by disjoint decomposition). Intended for tests and small
    /// sets.
    pub fn exact_count(&self) -> u128 {
        // Decompose into disjoint pieces: subtract earlier terms from each.
        let mut count = 0u128;
        for (i, t) in self.terms.iter().enumerate() {
            let mut piece = HeaderSet::from(*t);
            for prev in &self.terms.as_slice()[..i] {
                piece = piece.subtract_ternary(prev);
            }
            for disjoint in piece.terms.iter() {
                count += 1u128 << disjoint.wildcard_bit_count();
            }
        }
        count
    }
}

impl From<Ternary> for HeaderSet {
    fn from(t: Ternary) -> Self {
        let mut terms = TermVec::new();
        terms.push(t);
        Self {
            terms,
            len: t.len(),
        }
    }
}

impl FromIterator<Ternary> for HeaderSet {
    /// Collects patterns into a set.
    ///
    /// # Panics
    ///
    /// Panics on an empty iterator; use [`HeaderSet::empty`] instead.
    fn from_iter<I: IntoIterator<Item = Ternary>>(iter: I) -> Self {
        Self::from_union(iter)
    }
}

impl Extend<Ternary> for HeaderSet {
    fn extend<I: IntoIterator<Item = Ternary>>(&mut self, iter: I) {
        for t in iter {
            self.insert(t);
        }
    }
}

impl fmt::Display for HeaderSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.terms.is_empty() {
            return write!(f, "∅");
        }
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, " ∪ ")?;
            }
            write!(f, "{t}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for HeaderSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "HeaderSet({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: &str) -> Ternary {
        s.parse().expect("valid ternary")
    }

    fn brute_force(set: &HeaderSet) -> Vec<Header> {
        Ternary::wildcard(set.len_bits())
            .enumerate()
            .filter(|h| set.contains(*h))
            .collect()
    }

    #[test]
    fn empty_and_full() {
        assert!(HeaderSet::empty(8).is_empty());
        assert!(!HeaderSet::full(8).is_empty());
        assert_eq!(HeaderSet::full(4).exact_count(), 16);
        assert_eq!(HeaderSet::empty(4).exact_count(), 0);
    }

    #[test]
    fn display_forms() {
        assert_eq!(HeaderSet::empty(4).to_string(), "∅");
        let s = HeaderSet::from_union([t("00xx"), t("11xx")]);
        assert!(s.to_string().contains(" ∪ "));
    }

    #[test]
    fn insert_prunes_subsumed_terms() {
        let mut s = HeaderSet::from(t("0010xxxx"));
        s.insert(t("00101xxx")); // subset, ignored
        assert_eq!(s.term_count(), 1);
        s.insert(t("001xxxxx")); // superset, replaces
        assert_eq!(s.term_count(), 1);
        assert_eq!(s.terms()[0], t("001xxxxx"));
    }

    #[test]
    fn paper_e2_input() {
        // e2.in = 001xxxxx − 0010xxxx = 0011xxxx
        let input = HeaderSet::from(t("001xxxxx")).subtract_ternary(&t("0010xxxx"));
        assert_eq!(brute_force(&input).len(), 16);
        assert!(input.contains_ternary(&t("0011xxxx")));
        assert!(!input.contains(Header::new(0, 8)));
    }

    #[test]
    fn paper_legal_path_b2_c2_e2() {
        // 0011xxxx ∩ (001xxxxx − 00100xxx) ∩ (001xxxxx − 0010xxxx)
        //   = 0011xxxx  (paper, Section V-A, Figure 4)
        let b2_out = HeaderSet::from(t("0011xxxx"));
        let c2_in = HeaderSet::from(t("001xxxxx")).subtract_ternary(&t("00100xxx"));
        let e2_in = HeaderSet::from(t("001xxxxx")).subtract_ternary(&t("0010xxxx"));
        let result = b2_out.intersect(&c2_in).intersect(&e2_in);
        assert!(result.contains_ternary(&t("0011xxxx")));
        assert_eq!(result.exact_count(), 16);
    }

    #[test]
    fn paper_illegal_mpc_path() {
        // Section V-B: 00101xxx ∩ 0010xxxx ∩ 00100xxx = ∅
        let a = HeaderSet::from(t("00101xxx"));
        let out = a
            .intersect_ternary(&t("0010xxxx"))
            .intersect_ternary(&t("00100xxx"));
        assert!(out.is_empty());
    }

    #[test]
    fn subtract_then_contains_agrees_with_brute_force() {
        let base = HeaderSet::from_union([t("0xx1xx"), t("x10xxx")]);
        let minus = HeaderSet::from_union([t("0101xx"), t("xx0x1x")]);
        let diff = base.subtract(&minus);
        for h in Ternary::wildcard(6).enumerate() {
            let expect = base.contains(h) && !minus.contains(h);
            assert_eq!(diff.contains(h), expect, "mismatch at {h}");
        }
    }

    #[test]
    fn intersect_agrees_with_brute_force() {
        let a = HeaderSet::from_union([t("0xx1"), t("x10x")]);
        let b = HeaderSet::from_union([t("xx11"), t("010x")]);
        let i = a.intersect(&b);
        for h in Ternary::wildcard(4).enumerate() {
            assert_eq!(i.contains(h), a.contains(h) && b.contains(h));
        }
    }

    #[test]
    fn union_agrees_with_brute_force() {
        let a = HeaderSet::from(t("00xx"));
        let b = HeaderSet::from(t("x11x"));
        let u = a.union(&b);
        for h in Ternary::wildcard(4).enumerate() {
            assert_eq!(u.contains(h), a.contains(h) || b.contains(h));
        }
    }

    #[test]
    fn subtract_everything_gives_empty() {
        let a = HeaderSet::from(t("0010xxxx"));
        assert!(a.subtract(&HeaderSet::full(8)).is_empty());
        assert!(a.subtract_ternary(&Ternary::wildcard(8)).is_empty());
    }

    #[test]
    fn subtract_disjoint_is_identity() {
        let a = HeaderSet::from(t("00xx"));
        let d = a.subtract_ternary(&t("11xx"));
        assert_eq!(d, a);
    }

    #[test]
    fn apply_set_field_on_set() {
        let a = HeaderSet::from_union([t("000xxx"), t("111xxx")]);
        let s = t("01xxxx");
        let out = a.apply_set_field(&s);
        // Both terms map into 01?xxx patterns.
        assert!(out.contains_ternary(&t("010xxx")));
        assert!(out.contains_ternary(&t("011xxx")));
        assert!(!out.contains(Header::new(0, 6)));
    }

    #[test]
    fn contains_ternary_straddling_terms() {
        // 0xxx = 00xx ∪ 01xx: containment must be detected across terms.
        let s = HeaderSet::from_union([t("00xx"), t("01xx")]);
        assert!(s.contains_ternary(&t("0xxx")));
        assert!(!s.contains_ternary(&t("xxxx")));
    }

    #[test]
    fn any_header_is_member() {
        let s = HeaderSet::from(t("1x0x"));
        assert!(s.contains(s.any_header().expect("non-empty")));
        assert!(HeaderSet::empty(4).any_header().is_none());
    }

    #[test]
    fn sample_header_is_member() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let s = HeaderSet::from_union([t("00xx"), t("11xx")]);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let h = s.sample_header(&mut rng).expect("non-empty");
            assert!(s.contains(h));
        }
        assert!(HeaderSet::empty(4).sample_header(&mut rng).is_none());
    }

    #[test]
    fn exact_count_with_overlapping_terms() {
        // 00xx (4) ∪ 0x1x (4) overlap on 001x (2) => 6 headers.
        let s = HeaderSet::from_union([t("00xx"), t("0x1x")]);
        assert_eq!(s.exact_count(), 6);
        assert_eq!(brute_force(&s).len(), 6);
    }

    #[test]
    fn preimage_round_trip() {
        let s_field = t("01xxxx");
        let out = HeaderSet::from_union([t("01x1xx"), t("10xxxx")]);
        let pre = out.preimage_under(&s_field);
        // Forward image of the preimage sits inside `out`; and every h
        // whose image is in `out` is in the preimage.
        for h in Ternary::wildcard(6).enumerate() {
            let image = Header::new((h.bits() & !s_field.care_mask()) | s_field.value_bits(), 6);
            assert_eq!(pre.contains(h), out.contains(image), "at {h}");
        }
    }

    #[test]
    fn in_place_ops_match_pure_variants_exactly() {
        // Bit-identity matters: term *order* decides `any_header`, so the
        // in-place variants must reproduce the pure results field for
        // field, not just as equal sets.
        let bases = [
            HeaderSet::from_union([t("0xx1xx"), t("x10xxx"), t("11xxx0")]),
            HeaderSet::from(t("001xxx")),
            HeaderSet::empty(6),
        ];
        let args = [t("0101xx"), t("xx0x1x"), t("xxxxxx"), t("010101")];
        for base in &bases {
            for a in &args {
                let pure = base.intersect_ternary(a);
                let mut inplace = base.clone();
                inplace.intersect_ternary_in_place(a);
                assert_eq!(pure.terms(), inplace.terms());

                let pure = base.subtract_ternary(a);
                let mut inplace = base.clone();
                inplace.subtract_ternary_in_place(a);
                assert_eq!(pure.terms(), inplace.terms());

                let pure = base.apply_set_field(a);
                let mut inplace = base.clone();
                inplace.apply_set_field_in_place(a);
                assert_eq!(pure.terms(), inplace.terms());

                let other = HeaderSet::from_union([*a, t("1x1x1x")]);
                let pure = base.intersect(&other);
                let mut inplace = base.clone();
                inplace.intersect_in_place(&other);
                assert_eq!(pure.terms(), inplace.terms());
            }
        }
    }

    #[test]
    fn is_covered_by_agrees_with_materialized_subtraction() {
        let base = HeaderSet::from_union([t("0xx1xx"), t("x10xxx")]);
        let cases: [&[Ternary]; 5] = [
            &[t("xxxxxx")],
            &[t("0xxxxx"), t("x1xxxx")],
            &[t("0101xx")],
            &[],
            &[t("0xx1xx"), t("x10xxx")],
        ];
        for patterns in cases {
            let mut diff = base.clone();
            for q in patterns {
                diff = diff.subtract_ternary(q);
            }
            assert_eq!(
                base.is_covered_by(patterns),
                diff.is_empty(),
                "patterns {patterns:?}"
            );
        }
        // A cover that needs both patterns jointly (neither alone covers).
        let m = HeaderSet::from(t("xxxx"));
        assert!(m.is_covered_by(&[t("0xxx"), t("1xxx")]));
        assert!(!m.is_covered_by(&[t("0xxx")]));
        assert!(HeaderSet::empty(4).is_covered_by(&[]));
    }

    #[test]
    fn extend_and_collect() {
        let mut s = HeaderSet::empty(4);
        s.extend([t("00xx"), t("11xx")]);
        assert_eq!(s.term_count(), 2);
        let c: HeaderSet = [t("0xxx"), t("1xxx")].into_iter().collect();
        assert_eq!(c.exact_count(), 16);
    }
}
