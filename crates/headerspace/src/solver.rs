//! Witness solver: finds a concrete header inside `m − ⋃ qᵢ`.
//!
//! The SDNProbe paper uses MiniSat/Z3 to pick a header that matches a
//! rule's match field while avoiding every higher-priority overlapping
//! rule (§V-A), and to pick *unique* probe headers that match nothing
//! except the tested entries (§VI). Both tasks are instances of the same
//! tiny SAT fragment:
//!
//! > find `h` with `h ∈ m` and `h ∉ qᵢ` for every negative pattern `qᵢ`.
//!
//! Each negative pattern contributes one clause — "differ from `qᵢ` in at
//! least one of its fixed bits" — so a complete DPLL procedure with unit
//! propagation solves it without an external SAT solver. This module is
//! the workspace's MiniSat substitute (see DESIGN.md §2) and is
//! benchmarked against the paper's reported 0.5–2.4 ms per header.

use crate::header::Header;
use crate::ternary::Ternary;

/// A witness query: one positive pattern and a set of negative patterns.
///
/// # Examples
///
/// ```
/// use sdnprobe_headerspace::{solver::WitnessQuery, Ternary};
///
/// let m: Ternary = "001xxxxx".parse()?;
/// let q1: Ternary = "0010xxxx".parse()?;
/// let h = WitnessQuery::new(m).avoid(q1).solve().expect("0011xxxx is free");
/// assert!(m.matches(h) && !q1.matches(h));
/// # Ok::<(), sdnprobe_headerspace::HeaderSpaceError>(())
/// ```
#[derive(Debug, Clone)]
pub struct WitnessQuery {
    positive: Ternary,
    negatives: Vec<Ternary>,
}

impl WitnessQuery {
    /// Starts a query for a header matching `positive`.
    pub fn new(positive: Ternary) -> Self {
        Self {
            positive,
            negatives: Vec::new(),
        }
    }

    /// Adds a pattern the witness must *not* match.
    ///
    /// Patterns whose length differs from the positive's are rejected by
    /// [`WitnessQuery::solve`]; patterns disjoint from the positive are
    /// vacuously satisfied and pruned up front.
    #[must_use]
    pub fn avoid(mut self, negative: Ternary) -> Self {
        self.negatives.push(negative);
        self
    }

    /// Adds several patterns to avoid.
    #[must_use]
    pub fn avoid_all<I: IntoIterator<Item = Ternary>>(mut self, negatives: I) -> Self {
        self.negatives.extend(negatives);
        self
    }

    /// Forbids specific concrete headers (used for probe-header
    /// uniqueness).
    #[must_use]
    pub fn avoid_headers<I: IntoIterator<Item = Header>>(self, headers: I) -> Self {
        self.avoid_all(headers.into_iter().map(Ternary::from_header))
    }

    /// Finds a witness header, or `None` if `m − ⋃ qᵢ` is empty.
    ///
    /// # Panics
    ///
    /// Panics if any negative's length differs from the positive's.
    pub fn solve(&self) -> Option<Header> {
        let len = self.positive.len();
        let mut clauses: Vec<Ternary> = Vec::with_capacity(self.negatives.len());
        for q in &self.negatives {
            assert_eq!(q.len(), len, "negative pattern length mismatch");
            // Restrict q to the positive: only the overlap can be matched.
            match self.positive.intersect(q) {
                // The positive is entirely inside q: unsatisfiable.
                Some(_) if self.positive.is_subset_of(q) => return None,
                Some(_) => clauses.push(*q),
                None => {} // disjoint: vacuously avoided
            }
        }
        dpll(self.positive, &clauses).map(|t| t.min_header())
    }
}

/// DPLL over the partial assignment `assign` (fixed bits = decided).
///
/// A clause `q` is *satisfied* once `assign` fixes some bit of `q.care`
/// to the opposite value, *violated* when `assign ⊆ q`, and *unit* when
/// exactly one `q`-fixed bit is still free and all others agree with `q`.
fn dpll(assign: Ternary, clauses: &[Ternary]) -> Option<Ternary> {
    let mut assign = assign;
    // Unit propagation to fixpoint.
    loop {
        let mut changed = false;
        for q in clauses {
            // Already satisfied: some fixed bit differs.
            let both = assign.care_mask() & q.care_mask();
            if (assign.value_bits() ^ q.value_bits()) & both != 0 {
                continue;
            }
            let free = q.care_mask() & !assign.care_mask();
            match free.count_ones() {
                0 => {
                    // All of q's bits agree: assignment region ⊆ q.
                    return None;
                }
                1 => {
                    let k = free.trailing_zeros();
                    let forced = q.value_bits() >> k & 1 == 0; // flip q's bit
                    assign = assign.with_bit(k, forced);
                    changed = true;
                }
                _ => {}
            }
        }
        if !changed {
            break;
        }
    }
    // Pick the free bit that appears in the most unresolved clauses.
    let mut best: Option<(u32, u32)> = None; // (count, bit)
    for q in clauses {
        let both = assign.care_mask() & q.care_mask();
        if (assign.value_bits() ^ q.value_bits()) & both != 0 {
            continue; // satisfied
        }
        let mut free = q.care_mask() & !assign.care_mask();
        while free != 0 {
            let k = free.trailing_zeros();
            free &= free - 1;
            let count = clauses
                .iter()
                .filter(|c| c.care_mask() >> k & 1 == 1)
                .count() as u32;
            if best.is_none_or(|(bc, _)| count > bc) {
                best = Some((count, k));
            }
        }
    }
    let Some((_, k)) = best else {
        // Every clause satisfied: any completion works.
        return Some(assign);
    };
    // Try the value that immediately differs from more clauses first.
    let zeros = clauses
        .iter()
        .filter(|c| c.care_mask() >> k & 1 == 1 && c.value_bits() >> k & 1 == 1)
        .count();
    let ones = clauses
        .iter()
        .filter(|c| c.care_mask() >> k & 1 == 1 && c.value_bits() >> k & 1 == 0)
        .count();
    let preferred = zeros < ones; // assigning `false` satisfies `zeros` clauses
    for value in [preferred, !preferred] {
        if let Some(found) = dpll(assign.with_bit(k, value), clauses) {
            return Some(found);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: &str) -> Ternary {
        s.parse().expect("valid ternary")
    }

    fn brute(positive: &Ternary, negatives: &[Ternary]) -> Vec<Header> {
        positive
            .enumerate()
            .filter(|h| !negatives.iter().any(|q| q.matches(*h)))
            .collect()
    }

    #[test]
    fn no_negatives_returns_min_header() {
        let h = WitnessQuery::new(t("0x1x")).solve().expect("non-empty");
        assert!(t("0x1x").matches(h));
    }

    #[test]
    fn paper_rule_input_c2() {
        // c2.in = 001xxxxx − 00100xxx; a witness must exist.
        let h = WitnessQuery::new(t("001xxxxx"))
            .avoid(t("00100xxx"))
            .solve()
            .expect("c2 input non-empty");
        assert!(t("001xxxxx").matches(h));
        assert!(!t("00100xxx").matches(h));
    }

    #[test]
    fn fully_shadowed_rule_has_no_witness() {
        // match 00100xxx shadowed by higher-priority 0010xxxx.
        assert!(WitnessQuery::new(t("00100xxx"))
            .avoid(t("0010xxxx"))
            .solve()
            .is_none());
    }

    #[test]
    fn disjoint_negatives_are_ignored() {
        let h = WitnessQuery::new(t("00xxxxxx"))
            .avoid(t("11xxxxxx"))
            .solve();
        assert!(h.is_some());
    }

    #[test]
    fn shattered_space_requires_search() {
        // Avoid every header with bit0=0 and every header with bit1=1:
        // witness must have bit0=1, bit1=0.
        let h = WitnessQuery::new(Ternary::wildcard(8))
            .avoid(t("0xxxxxxx"))
            .avoid(t("x1xxxxxx"))
            .solve()
            .expect("10xxxxxx remains");
        assert!(h.bit(0));
        assert!(!h.bit(1));
    }

    #[test]
    fn unsat_via_complementary_negatives() {
        // q's cover the whole space bit by bit.
        assert!(WitnessQuery::new(Ternary::wildcard(4))
            .avoid(t("0xxx"))
            .avoid(t("1xxx"))
            .solve()
            .is_none());
    }

    #[test]
    fn nested_prefixes_like_campus_rules() {
        // Longest-prefix stacks: avoid /2, /3, /4 extensions of the /1.
        let q = WitnessQuery::new(t("1xxxxxxx"))
            .avoid(t("10xxxxxx"))
            .avoid(t("110xxxxx"))
            .avoid(t("1110xxxx"));
        let h = q.solve().expect("1111xxxx remains");
        assert!(t("1111xxxx").matches(h));
    }

    #[test]
    fn avoid_headers_for_uniqueness() {
        let taken = [Header::new(0b0000, 4), Header::new(0b0001, 4)];
        let h = WitnessQuery::new(t("00xx"))
            .avoid_headers(taken)
            .solve()
            .expect("two headers remain");
        assert!(!taken.contains(&h));
        assert!(t("00xx").matches(h));
    }

    #[test]
    fn exhausting_all_headers_is_unsat() {
        let all: Vec<Header> = t("00xx").enumerate().collect();
        assert!(WitnessQuery::new(t("00xx"))
            .avoid_headers(all)
            .solve()
            .is_none());
    }

    #[test]
    fn agrees_with_brute_force_on_grid() {
        // Systematic small-space check of sat/unsat agreement.
        let patterns = [
            t("xxxxxx"),
            t("0xxxxx"),
            t("x1xxxx"),
            t("00xxxx"),
            t("xx11xx"),
            t("010101"),
            t("xxxx00"),
            t("1x0x1x"),
        ];
        for pos in &patterns {
            for i in 0..patterns.len() {
                for j in i..patterns.len() {
                    let negs = vec![patterns[i], patterns[j]];
                    let expect = !brute(pos, &negs).is_empty();
                    let q = WitnessQuery::new(*pos).avoid_all(negs.clone());
                    match q.solve() {
                        Some(h) => {
                            assert!(expect, "solver found spurious witness {h}");
                            assert!(pos.matches(h));
                            assert!(!negs.iter().any(|n| n.matches(h)));
                        }
                        None => assert!(!expect, "solver missed witness for {pos}"),
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_negative_length_panics() {
        let _ = WitnessQuery::new(t("0xxx")).avoid(t("0xxxxxxx")).solve();
    }
}
