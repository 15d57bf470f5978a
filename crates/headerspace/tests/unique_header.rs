//! Differential test of `HeaderSet::unique_header` against the two
//! queries it replaces, copied here as they were written:
//!
//! * the baselines' query, which hands every taken header to each
//!   term's witness query and leaves the pruning to the solver;
//! * the MLPC query, which hands each term only the taken headers that
//!   term matches, in insertion order.
//!
//! Both fall back to any header of the set when every term is
//! exhausted. All three must pick the same header.

use rand::rngs::StdRng;
use rand::Rng;
use sdnprobe_headerspace::solver::WitnessQuery;
use sdnprobe_headerspace::{Header, HeaderSet, Ternary};
use sdnprobe_integration::check;

const LEN: u32 = 8;

fn avoid_all_taken(space: &HeaderSet, taken: &[Header]) -> Option<Header> {
    space
        .terms()
        .iter()
        .find_map(|t| {
            WitnessQuery::new(*t)
                .avoid_headers(taken.iter().copied())
                .solve()
        })
        .or_else(|| space.any_header())
}

fn avoid_taken_in_term(space: &HeaderSet, taken: &[Header]) -> Option<Header> {
    space
        .terms()
        .iter()
        .find_map(|t| {
            WitnessQuery::new(*t)
                .avoid_all(
                    taken
                        .iter()
                        .filter(|h| t.matches(**h))
                        .map(|h| Ternary::from_header(*h)),
                )
                .solve()
        })
        .or_else(|| space.any_header())
}

fn assert_agrees(space: &HeaderSet, taken: &[Header]) {
    let got = space.unique_header(taken);
    assert_eq!(
        got,
        avoid_all_taken(space, taken),
        "{space} avoiding {taken:?}"
    );
    assert_eq!(
        got,
        avoid_taken_in_term(space, taken),
        "{space} avoiding {taken:?}"
    );
    match got {
        None => assert!(space.is_empty()),
        Some(h) => {
            assert!(space.contains(h), "{h} outside {space}");
            let free = (0u128..1 << LEN)
                .map(|bits| Header::new(bits, LEN))
                .any(|h| space.contains(h) && !taken.contains(&h));
            assert_eq!(!taken.contains(&h), free, "{h} for {space}");
        }
    }
}

fn arb_ternary(rng: &mut StdRng) -> Ternary {
    let (care, value) = (rng.gen::<u8>(), rng.gen::<u8>());
    Ternary::from_masks(care as u128, value as u128, LEN)
}

fn arb_set(rng: &mut StdRng) -> HeaderSet {
    let mut set = HeaderSet::empty(LEN);
    for _ in 0..rng.gen_range(0..=4) {
        set.insert(arb_ternary(rng));
    }
    set
}

/// Taken headers drawn from the set's own terms and from anywhere.
fn arb_taken(rng: &mut StdRng, space: &HeaderSet) -> Vec<Header> {
    let mut taken = Vec::new();
    for _ in 0..rng.gen_range(0..12) {
        let inside = match space.terms() {
            [] => None,
            terms if rng.gen_bool(0.6) => {
                Some(terms[rng.gen_range(0..terms.len())].sample_header(rng))
            }
            _ => None,
        };
        taken.push(inside.unwrap_or_else(|| Header::new(rng.gen::<u8>() as u128, LEN)));
    }
    taken
}

#[test]
fn random_sets_agree_with_both_old_queries() {
    check(512, 0x0e1, |rng| {
        let space = arb_set(rng);
        let taken = arb_taken(rng, &space);
        assert_agrees(&space, &taken);
        assert_agrees(&space, &[]);
    });
}

#[test]
fn an_exhausted_term_passes_to_the_next_one() {
    check(128, 0x0e2, |rng| {
        // A four-header term, every header of it taken (in shuffled
        // order, among others), ahead of a wide second term.
        let small = Ternary::from_masks(0xF3, rng.gen::<u8>() as u128, LEN);
        let wide = Ternary::from_masks(0x01, !small.value_bits() & 1, LEN);
        let space = HeaderSet::from_union([small, wide]);
        assert_eq!(space.term_count(), 2);
        let mut taken: Vec<Header> = small.enumerate().collect();
        taken.extend(arb_taken(rng, &space));
        for i in (1..taken.len()).rev() {
            taken.swap(i, rng.gen_range(0..=i));
        }
        assert_agrees(&space, &taken);
        let h = space.unique_header(&taken).expect("the wide term is free");
        assert!(wide.matches(h) && !small.matches(h));
    });
}

#[test]
fn a_fully_taken_set_falls_back_to_any_header() {
    let small = Ternary::from_masks(0xFC, 0x24, LEN);
    let space = HeaderSet::from(small);
    let taken: Vec<Header> = small.enumerate().collect();
    assert_agrees(&space, &taken);
    assert_eq!(space.unique_header(&taken), space.any_header());
    assert_eq!(HeaderSet::empty(LEN).unique_header(&taken), None);
}
