//! Inline small-vector storage for DNF terms.
//!
//! Header sets along a tested path almost always hold one or two terms
//! (a rule's input is a match field minus a few overlaps; chaining
//! intersects them down further). [`TermVec`] keeps up to
//! [`INLINE_TERMS`] terms on the stack and only touches the heap when a
//! subtraction genuinely fragments the space — removing the allocation
//! per chaining step that dominated legality checking.
//!
//! The implementation is zero-dependency and `forbid(unsafe_code)`-clean:
//! the inline buffer is a plain `[Ternary; INLINE_TERMS]` padded with a
//! placeholder pattern, never a `MaybeUninit`.

use crate::ternary::Ternary;

/// Number of terms stored inline before spilling to the heap.
pub(crate) const INLINE_TERMS: usize = 2;

/// A `Vec<Ternary>` look-alike with inline storage for small sets.
#[derive(Clone)]
pub(crate) enum TermVec {
    /// Up to [`INLINE_TERMS`] live terms; slots at `len..` hold an
    /// arbitrary placeholder and are never read.
    Inline {
        len: u8,
        buf: [Ternary; INLINE_TERMS],
    },
    /// Spilled storage once the set outgrows the inline buffer.
    Heap(Vec<Ternary>),
}

impl TermVec {
    /// An empty vector (inline, no heap allocation).
    pub(crate) fn new() -> Self {
        TermVec::Inline {
            len: 0,
            buf: [Ternary::wildcard(1); INLINE_TERMS],
        }
    }

    pub(crate) fn len(&self) -> usize {
        match self {
            TermVec::Inline { len, .. } => *len as usize,
            TermVec::Heap(v) => v.len(),
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub(crate) fn as_slice(&self) -> &[Ternary] {
        match self {
            TermVec::Inline { len, buf } => &buf[..*len as usize],
            TermVec::Heap(v) => v,
        }
    }

    pub(crate) fn push(&mut self, t: Ternary) {
        match self {
            TermVec::Inline { len, buf } => {
                let n = *len as usize;
                if n < INLINE_TERMS {
                    buf[n] = t;
                    *len += 1;
                } else {
                    let mut v = Vec::with_capacity(INLINE_TERMS * 2);
                    v.extend_from_slice(buf);
                    v.push(t);
                    *self = TermVec::Heap(v);
                }
            }
            TermVec::Heap(v) => v.push(t),
        }
    }

    /// Keeps only the terms satisfying `pred`, preserving order (the
    /// same contract as `Vec::retain`; order is observable through
    /// [`crate::HeaderSet::terms`]).
    pub(crate) fn retain(&mut self, mut pred: impl FnMut(&Ternary) -> bool) {
        match self {
            TermVec::Inline { len, buf } => {
                let mut kept = 0usize;
                for i in 0..*len as usize {
                    if pred(&buf[i]) {
                        buf[kept] = buf[i];
                        kept += 1;
                    }
                }
                *len = kept as u8;
            }
            TermVec::Heap(v) => v.retain(pred),
        }
    }

    pub(crate) fn iter(&self) -> std::slice::Iter<'_, Ternary> {
        self.as_slice().iter()
    }
}

impl PartialEq for TermVec {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for TermVec {}

impl std::fmt::Debug for TermVec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl<'a> IntoIterator for &'a TermVec {
    type Item = &'a Ternary;
    type IntoIter = std::slice::Iter<'a, Ternary>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: &str) -> Ternary {
        s.parse().expect("valid ternary")
    }

    #[test]
    fn stays_inline_up_to_capacity() {
        let mut v = TermVec::new();
        assert!(v.is_empty());
        v.push(t("00xx"));
        v.push(t("11xx"));
        assert!(matches!(v, TermVec::Inline { .. }));
        assert_eq!(v.as_slice(), &[t("00xx"), t("11xx")]);
    }

    #[test]
    fn spills_and_keeps_order() {
        let mut v = TermVec::new();
        for s in ["00xx", "01xx", "10xx", "11xx"] {
            v.push(t(s));
        }
        assert!(matches!(v, TermVec::Heap(_)));
        assert_eq!(v.as_slice(), &[t("00xx"), t("01xx"), t("10xx"), t("11xx")]);
        assert_eq!(v.len(), 4);
    }

    #[test]
    fn retain_matches_vec_semantics() {
        for count in 0..6usize {
            let mut tv = TermVec::new();
            let mut reference = Vec::new();
            for i in 0..count {
                let term = Ternary::prefix(i as u128, 3, 8);
                tv.push(term);
                reference.push(term);
            }
            tv.retain(|u| u.value_bits() % 2 == 0);
            reference.retain(|u| u.value_bits() % 2 == 0);
            assert_eq!(tv.as_slice(), reference.as_slice(), "count {count}");
        }
    }

    #[test]
    fn equality_ignores_representation() {
        let mut inline = TermVec::new();
        inline.push(t("00xx"));
        let heap = TermVec::Heap(vec![t("00xx")]);
        assert_eq!(inline, heap);
    }
}
