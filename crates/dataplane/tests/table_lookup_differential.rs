//! Differential property tests pinning [`FlowTable`] to a naive model
//! under arbitrary mutation histories.
//!
//! The model is a plain `Vec` of live entries kept sorted by precedence
//! (priority descending, id ascending). After any interleaving of
//! installs, removals, action-only replaces (rewritten in place) and
//! replaces that move an entry (new match or priority), the table must
//! agree with the model on iteration order and id lookups, and the trie
//! lookup must be *bit-identical* to a first-match scan over
//! [`FlowTable::iter`] — same winning entry under priority ties (lowest
//! id) and same misses.
//!
//! [`FlowTable`]: sdnprobe_dataplane::FlowTable

use sdnprobe_integration::check;
use std::cmp::Reverse;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sdnprobe_dataplane::{Action, EntryId, FlowEntry, FlowTable, Network, TableId};
use sdnprobe_headerspace::{Header, Ternary};
use sdnprobe_topology::{PortId, SwitchId, Topology};

/// A random 8-bit prefix rule with a random priority in `0..4`.
fn random_entry(rng: &mut StdRng, port: u32) -> FlowEntry {
    let m = Ternary::prefix(rng.gen::<u8>() as u128, rng.gen_range(0..=8), 8);
    FlowEntry::new(m, Action::Output(PortId(port))).with_priority(rng.gen_range(0..4))
}

/// Replays a random install/remove/replace sequence on one switch of
/// two networks at once and returns both plus the model of their table
/// and the removed ids.
///
/// Network `a` applies every replace directly. Network `b` routes each
/// replace through a random intermediate entry first, so the two reach
/// the same contents by different histories: `a` rewrites action-only
/// replaces in place where `b` moves the entry away and back.
fn mutated(seed: u64, ops: usize) -> (Network, Network, Vec<(EntryId, FlowEntry)>, Vec<EntryId>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut a = Network::new(Topology::new(1));
    let mut b = Network::new(Topology::new(1));
    let s = SwitchId(0);
    let mut model: Vec<(EntryId, FlowEntry)> = Vec::new();
    let mut removed = Vec::new();
    for _ in 0..ops {
        let roll = rng.gen_range(0..10);
        if roll < 5 || model.len() < 2 {
            let e = random_entry(&mut rng, 40);
            let id = a.install(s, TableId(0), e).expect("install");
            assert_eq!(b.install(s, TableId(0), e), Ok(id));
            model.push((id, e));
        } else if roll < 7 {
            let (id, _) = model.swap_remove(rng.gen_range(0..model.len()));
            a.remove(id).expect("entry is live");
            b.remove(id).expect("entry is live");
            removed.push(id);
        } else {
            let i = rng.gen_range(0..model.len());
            let old = model[i].1;
            let e = if roll < 9 {
                // Action-only: same match and priority, the in-place path.
                old.with_action(Action::Output(PortId(rng.gen_range(41..48))))
            } else {
                random_entry(&mut rng, 41)
            };
            let detour = random_entry(&mut rng, 49);
            a.replace_entry(model[i].0, e).expect("entry is live");
            b.replace_entry(model[i].0, detour).expect("entry is live");
            b.replace_entry(model[i].0, e).expect("entry is live");
            model[i].1 = e;
        }
    }
    model.sort_by_key(|(id, e)| (Reverse(e.priority()), *id));
    (a, b, model, removed)
}

/// The oracle: the first entry in precedence order that matches.
fn first_match(tab: &FlowTable, h: Header) -> Option<EntryId> {
    tab.iter()
        .find(|(_, e)| e.match_field().matches(h))
        .map(|(id, _)| id)
}

fn table(net: &Network) -> &FlowTable {
    net.flow_table(SwitchId(0), TableId(0)).expect("table 0")
}

const CASES: u32 = 120;

/// After a random mutation history the table equals its twin built
/// by a different history, and both match the naive model and have
/// trie lookups that agree with the first-match scan on every header.
#[test]
fn table_matches_naive_model() {
    check(CASES, 1, |rng| {
        let seed = rng.gen_range(0u64..5_000);
        let ops = rng.gen_range(1usize..40);
        let (a, b, model, removed) = mutated(seed, ops);
        assert!(
            table(&a) == table(&b),
            "histories diverged after seed {seed} x {ops} ops"
        );
        // `PartialEq` ignores the trie, and `b` moved its entry on every
        // replace, so both tables' id and trie lookups are checked.
        for tab in [table(&a), table(&b)] {
            let order: Vec<(EntryId, FlowEntry)> = tab.iter().map(|(id, e)| (id, *e)).collect();
            assert_eq!(&order, &model, "iter order after seed {seed} x {ops} ops");
            for (id, e) in &model {
                assert_eq!(tab.get(*id), Some(e));
            }
            for id in &removed {
                assert_eq!(tab.get(*id), None);
            }
            for bits in 0..=255u128 {
                let h = Header::new(bits, 8);
                assert_eq!(
                    tab.lookup(h).map(|(id, _)| id),
                    first_match(tab, h),
                    "divergence at header {:#010b} after seed {} x {} ops",
                    bits,
                    seed,
                    ops
                );
            }
        }
    });
}

/// Priority ties break toward the lowest entry id in the trie lookup,
/// even when the tied entries were installed out of id order.
#[test]
fn duplicate_priorities_tie_break_identically() {
    check(CASES, 2, |rng| {
        let seed = rng.gen_range(0u64..3_000);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = Network::new(Topology::new(1));
        let s = SwitchId(0);
        // Several overlapping wildcard-heavy rules at one priority.
        for _ in 0..8 {
            let m = Ternary::prefix(rng.gen::<u8>() as u128, rng.gen_range(0..=2), 8);
            let e = FlowEntry::new(m, Action::Output(PortId(40))).with_priority(3);
            net.install(s, TableId(0), e).expect("install");
        }
        let table = net.flow_table(s, TableId(0)).expect("table 0");
        for bits in 0..=255u128 {
            let h = Header::new(bits, 8);
            assert_eq!(table.lookup(h).map(|(id, _)| id), first_match(table, h));
        }
    });
}
