//! Term-order oracle for the header-set no-op rules.
//!
//! `intersect` hands `self` back when every term lies inside a term of
//! the other set, and the set-field operations hand `self` back for an
//! all-wildcard set field. Plans rest on those results being the very
//! terms, in the very order, that the pairwise-`insert` loop builds:
//! `any_header` and `sample_header` read the first terms. The oracles
//! below are that loop, copied here so a change to the kernel cannot
//! change the reference with it.

use rand::rngs::StdRng;
use rand::Rng;
use sdnprobe_headerspace::{Header, HeaderSet, Ternary};
use sdnprobe_integration::check;

const LEN: u32 = 8;
const CASES: u32 = 512;

fn oracle_intersect(a: &HeaderSet, b: &HeaderSet) -> HeaderSet {
    let mut out = HeaderSet::empty(a.len_bits());
    for u in a.terms() {
        for v in b.terms() {
            if let Some(i) = u.intersect(v) {
                out.insert(i);
            }
        }
    }
    out
}

fn oracle_apply(a: &HeaderSet, s: &Ternary) -> HeaderSet {
    let mut out = HeaderSet::empty(a.len_bits());
    for u in a.terms() {
        out.insert(u.apply_set_field(s));
    }
    out
}

fn oracle_preimage(a: &HeaderSet, s: &Ternary) -> HeaderSet {
    let mut out = HeaderSet::empty(a.len_bits());
    for u in a.terms() {
        if let Some(p) = u.preimage_under(s) {
            out.insert(p);
        }
    }
    out
}

/// Every fast-pathed operation equals its oracle, terms for terms.
fn assert_matches_oracles(a: &HeaderSet, b: &HeaderSet, s: &Ternary) {
    assert_eq!(
        a.intersect(b).terms(),
        oracle_intersect(a, b).terms(),
        "intersect {a} ∩ {b}"
    );

    let mut image = a.clone();
    image.apply_set_field_in_place(s);
    assert_eq!(
        image.terms(),
        oracle_apply(a, s).terms(),
        "apply {a} by {s}"
    );

    let expect = oracle_preimage(a, s);
    assert_eq!(
        a.preimage_under(s).terms(),
        expect.terms(),
        "preimage {a} under {s}"
    );
}

fn arb_ternary(rng: &mut StdRng) -> Ternary {
    let (care, value) = (rng.gen::<u8>(), rng.gen::<u8>());
    Ternary::from_masks(care as u128, value as u128, LEN)
}

fn arb_set(rng: &mut StdRng, max_terms: usize) -> HeaderSet {
    let mut set = HeaderSet::empty(LEN);
    for _ in 0..rng.gen_range(0..=max_terms) {
        set.insert(arb_ternary(rng));
    }
    set
}

/// A superset of `t`: some of its fixed bits freed.
fn widen(rng: &mut StdRng, t: &Ternary) -> Ternary {
    let care = t.care_mask() & rng.gen::<u8>() as u128;
    Ternary::from_masks(care, t.value_bits(), t.len())
}

/// A set holding a superset of each of the given terms, plus noise,
/// in shuffled order.
fn covering(rng: &mut StdRng, terms: &[Ternary]) -> HeaderSet {
    let mut pool: Vec<Ternary> = terms.iter().map(|t| widen(rng, t)).collect();
    for _ in 0..rng.gen_range(0..3) {
        pool.push(arb_ternary(rng));
    }
    for i in (1..pool.len()).rev() {
        pool.swap(i, rng.gen_range(0..=i));
    }
    let mut set = HeaderSet::empty(LEN);
    for t in pool {
        set.insert(t);
    }
    set
}

fn set_field(rng: &mut StdRng) -> Ternary {
    if rng.gen_bool(0.5) {
        Ternary::wildcard(LEN)
    } else {
        arb_ternary(rng)
    }
}

#[test]
fn random_sets_match_the_insert_loop() {
    check(CASES, 0x23, |rng| {
        let (a, b) = (arb_set(rng, 6), arb_set(rng, 6));
        let s = set_field(rng);
        assert_matches_oracles(&a, &b, &s);
        assert_matches_oracles(&b, &a, &s);
    });
}

#[test]
fn contained_sets_match_the_insert_loop() {
    let (mut contained, mut partial) = (0, 0);
    check(CASES, 0x16, |rng| {
        let a = arb_set(rng, 6);
        let b = covering(rng, a.terms());
        assert!(a.is_termwise_subset_of(&b));
        contained += 1;
        let s = set_field(rng);
        assert_matches_oracles(&a, &b, &s);
        // Only some terms covered: the pair loop must run.
        if a.term_count() >= 2 {
            let b = covering(rng, &a.terms()[..a.term_count() / 2]);
            partial += usize::from(!a.is_termwise_subset_of(&b));
            assert_matches_oracles(&a, &b, &s);
        }
    });
    assert!(
        contained > 0 && partial > 0,
        "{contained} contained, {partial} partial"
    );
}

#[test]
fn empty_sets_match_the_insert_loop() {
    check(64, 0xe, |rng| {
        let (a, e) = (arb_set(rng, 6), HeaderSet::empty(LEN));
        let s = set_field(rng);
        assert_matches_oracles(&e, &a, &s);
        assert_matches_oracles(&a, &e, &s);
        assert_matches_oracles(&e, &e, &s);
    });
}

#[test]
fn termwise_subset_implies_subset() {
    check(CASES, 0x5b, |rng| {
        let a = arb_set(rng, 6);
        let b = if rng.gen_bool(0.5) {
            covering(rng, a.terms())
        } else {
            arb_set(rng, 6)
        };
        if a.is_termwise_subset_of(&b) {
            for h in (0u128..1 << LEN).map(|bits| Header::new(bits, LEN)) {
                assert!(!a.contains(h) || b.contains(h), "{h} in {a}, not in {b}");
            }
        }
    });
}

/// A /16 minus a /24 over 32-bit destination addresses: 8 terms, one per
/// bit of the /24 beyond the /16, the shape rule inputs take under a
/// more specific overlapping route.
fn slash16_minus_slash24(net16: u128, sub8: u128) -> HeaderSet {
    let outer = Ternary::prefix(net16, 16, 32);
    let inner = Ternary::prefix(net16 | sub8 << 16, 24, 32);
    let set = HeaderSet::from(outer).subtract_ternary(&inner);
    assert_eq!(set.term_count(), 8);
    set
}

#[test]
fn route_shaped_sets_match_the_insert_loop() {
    check(64, 0x1624, |rng| {
        let net16 = rng.gen::<u16>() as u128;
        let a = slash16_minus_slash24(net16, rng.gen::<u8>() as u128);
        let wild = Ternary::wildcard(32);
        let rewrite = Ternary::prefix(rng.gen::<u32>() as u128, rng.gen_range(1..=32), 32);
        let others = [
            // Contained: itself, its /16, the full space.
            a.clone(),
            HeaderSet::from(Ternary::prefix(net16, 16, 32)),
            HeaderSet::full(32),
            // Not contained: another /24 cut from the same /16, and a
            // cover of only the first term.
            slash16_minus_slash24(net16, rng.gen::<u8>() as u128),
            HeaderSet::from(a.terms()[0]),
        ];
        for b in &others {
            for s in [&wild, &rewrite] {
                assert_matches_oracles(&a, b, s);
                assert_matches_oracles(b, &a, s);
            }
        }
    });
}
