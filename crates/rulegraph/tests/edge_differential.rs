//! Differential property tests pinning the trie-accelerated step-1
//! edge construction to a pairwise reference.
//!
//! [`RuleGraph::from_network`] and [`RuleGraph::apply_update`] collect
//! edge candidates from the peer switch's flow tables; the reference
//! here checks every vertex pair. Both must give the exact same edge
//! *set* on any policy, including ones mutated through the incremental
//! path, and every successor list must stay ascending. The policies mix
//! in two-table `goto` pipelines and high-priority `Drop` and
//! `ToController` entries, which sit in the tables the candidates come
//! from but have no vertex.

use sdnprobe_integration::check;
use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sdnprobe_dataplane::{Action, EntryId, FlowEntry, Network, TableId};
use sdnprobe_headerspace::Ternary;
use sdnprobe_rulegraph::{RuleGraph, RuleUpdate};
use sdnprobe_topology::{PortId, SwitchId, Topology};

/// Random loop-free network: links only go id-upward, matching the
/// forwarding direction, so the policy graph stays acyclic. About half
/// the switches get a second table behind a wildcard `goto` in table 0.
fn random_network(seed: u64, switches: usize, rules: usize) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut topo = Topology::new(switches);
    for i in 1..switches {
        topo.add_link(SwitchId(rng.gen_range(0..i)), SwitchId(i));
    }
    let mut net = Network::new(topo);
    for s in 0..switches {
        if rng.gen_bool(0.5) {
            let t1 = net.add_table(SwitchId(s)).expect("switch exists");
            let goto = FlowEntry::new(Ternary::wildcard(8), Action::GotoTable(t1));
            net.install(SwitchId(s), TableId(0), goto)
                .expect("forward goto");
        }
    }
    for _ in 0..rules {
        let s = SwitchId(rng.gen_range(0..switches));
        random_install(&mut rng, &mut net, s);
    }
    net
}

/// Installs one random entry on `s`: mostly a forwarding entry, some
/// with a set field, in the second table or above the `goto` in table
/// 0; otherwise a high-priority `Drop` or `ToController` entry, which
/// shadows forwarding entries but has no vertex.
fn random_install(rng: &mut StdRng, net: &mut Network, s: SwitchId) -> EntryId {
    let m = Ternary::prefix(rng.gen::<u8>() as u128, rng.gen_range(0..=5), 8);
    let last = net.table_count(s).expect("switch exists") - 1;
    let table = TableId(rng.gen_range(0..=last));
    if rng.gen_bool(0.2) {
        let action = if rng.gen_bool(0.5) {
            Action::Drop
        } else {
            Action::ToController
        };
        let e = FlowEntry::new(m, action).with_priority(rng.gen_range(4..7));
        return net.install(s, table, e).expect("install");
    }
    let forward: Vec<PortId> = net
        .topology()
        .neighbors(s)
        .iter()
        .filter(|n| n.peer.0 > s.0)
        .map(|n| n.port)
        .collect();
    let action = if forward.is_empty() || rng.gen_bool(0.3) {
        Action::Output(PortId(40))
    } else {
        Action::Output(forward[rng.gen_range(0..forward.len())])
    };
    // Above the `goto` when it lands in table 0 of a pipeline.
    let priority = rng.gen_range(0..4) + u16::from(last > 0 && table.0 == 0);
    let mut e = FlowEntry::new(m, action).with_priority(priority);
    if rng.gen_bool(0.25) {
        e = e.with_set_field(Ternary::prefix(
            rng.gen::<u8>() as u128,
            rng.gen_range(0..3),
            8,
        ));
    }
    net.install(s, table, e).expect("install")
}

/// Edge set keyed by entry ids so it survives vertex renumbering.
/// Asserts on the way that every successor list is ascending, as the
/// expansion DFS, which walks them in order, relies on.
fn edge_set(g: &RuleGraph) -> BTreeSet<(u64, u64)> {
    for u in g.vertex_ids() {
        let succs = g.successors(u);
        assert!(
            succs.windows(2).all(|w| w[0] < w[1]),
            "successors of {u} out of order: {succs:?}"
        );
    }
    g.vertex_ids()
        .flat_map(|u| {
            g.successors(u)
                .iter()
                .map(move |&v| (g.vertex(u).entry.0, g.vertex(v).entry.0))
        })
        .collect()
}

/// Pairwise reference for the step-1 edges, with no classifier index:
/// `u → v` iff `u` forwards to `v`'s switch, `u ≠ v`, and
/// `u.output ∩ v.input ≠ ∅`. Keyed by entry ids like [`edge_set`].
fn pairwise_edge_set(g: &RuleGraph) -> BTreeSet<(u64, u64)> {
    let mut edges = BTreeSet::new();
    for u in g.vertex_ids() {
        let from = g.vertex(u);
        for v in g.vertex_ids() {
            let to = g.vertex(v);
            if u != v
                && from.next_switch == Some(to.switch)
                && !from.output().intersect(&to.input).is_empty()
            {
                edges.insert((from.entry.0, to.entry.0));
            }
        }
    }
    edges
}

const CASES: u32 = 80;

/// Trie-collected edges equal pairwise edges on random policies.
#[test]
fn trie_edges_equal_pairwise_edges() {
    check(CASES, 1, |rng| {
        let seed = rng.gen_range(0u64..4_000);
        let net = random_network(seed, 5, 14);
        let Ok(g) = RuleGraph::from_network(&net) else {
            return; // no forwarding rules at this seed
        };
        assert_eq!(edge_set(&g), pairwise_edge_set(&g));
    });
}

/// The equivalence survives incremental installs and removals of
/// forwarding and non-forwarding entries in either table.
#[test]
fn trie_edges_equal_pairwise_after_incremental_updates() {
    check(CASES, 2, |rng| {
        let seed = rng.gen_range(0u64..2_000);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9));
        let mut net = random_network(seed, 4, 8);
        let Ok(mut g) = RuleGraph::from_network(&net) else {
            return;
        };
        let mut live: Vec<EntryId> = net
            .topology()
            .switches()
            .flat_map(|s| net.entries_on(s))
            .collect();
        for _ in 0..6 {
            if live.len() > 2 && rng.gen_bool(0.4) {
                let id = live.swap_remove(rng.gen_range(0..live.len()));
                let location = net.location(id).expect("live entry");
                let old = net.remove(id).expect("live entry");
                g.apply_update(
                    &net,
                    &RuleUpdate::Removed {
                        entry: id,
                        old,
                        location,
                    },
                )
                .expect("removal never loops");
            } else {
                let s = SwitchId(rng.gen_range(0..4));
                let id = random_install(&mut rng, &mut net, s);
                live.push(id);
                g.apply_update(&net, &RuleUpdate::Added { entry: id })
                    .expect("id-upward forwarding never loops");
            }
            // The incrementally maintained edges, a fresh build of the
            // mutated network and the pairwise reference must coincide.
            let incremental_edges = edge_set(&g);
            let Ok(scratch) = RuleGraph::from_network(&net) else {
                assert_eq!(g.vertex_count(), 0, "only non-forwarding entries remain");
                continue;
            };
            assert_eq!(&incremental_edges, &edge_set(&scratch));
            assert_eq!(&incremental_edges, &pairwise_edge_set(&g));
        }
    });
}
