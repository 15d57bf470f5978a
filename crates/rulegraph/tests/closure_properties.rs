//! Property tests for rule-graph construction: the legal transitive
//! closure, rule inputs, and path header spaces are checked against
//! brute-force semantics on small random networks.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sdnprobe_dataplane::{Action, FlowEntry, Network, Outcome, TableId};
use sdnprobe_headerspace::{Header, HeaderSet, Ternary};
use sdnprobe_integration::check;
use sdnprobe_rulegraph::{RuleGraph, VertexId};
use sdnprobe_topology::{PortId, SwitchId, Topology};

/// Random loop-free network over an 8-bit header space.
fn random_network(seed: u64, switches: usize, rules: usize) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut topo = Topology::new(switches);
    for i in 1..switches {
        topo.add_link(SwitchId(rng.gen_range(0..i)), SwitchId(i));
    }
    let mut net = Network::new(topo);
    for _ in 0..rules {
        let s = SwitchId(rng.gen_range(0..switches));
        let m = Ternary::prefix(rng.gen::<u8>() as u128, rng.gen_range(0..=5), 8);
        let forward: Vec<PortId> = net
            .topology()
            .neighbors(s)
            .iter()
            .filter(|n| n.peer.0 > s.0)
            .map(|n| n.port)
            .collect();
        let action = if forward.is_empty() || rng.gen_bool(0.35) {
            Action::Output(PortId(40))
        } else {
            Action::Output(forward[rng.gen_range(0..forward.len())])
        };
        let mut e = FlowEntry::new(m, action).with_priority(rng.gen_range(0..4));
        if rng.gen_bool(0.2) {
            e = e.with_set_field(Ternary::prefix(
                rng.gen::<u8>() as u128,
                rng.gen_range(0..3),
                8,
            ));
        }
        let _ = net.install(s, TableId(0), e);
    }
    net
}

/// Brute-force legal reachability: enumerate every real path from `u`
/// over step-1 edges, chaining header sets.
fn brute_force_reachable(graph: &RuleGraph, u: VertexId) -> Vec<VertexId> {
    let mut reached = std::collections::BTreeSet::new();
    fn rec(
        graph: &RuleGraph,
        cur: VertexId,
        set: &HeaderSet,
        reached: &mut std::collections::BTreeSet<VertexId>,
    ) {
        for &next in graph.successors(cur) {
            let chained = graph.chain(set, next);
            if chained.is_empty() {
                continue;
            }
            reached.insert(next);
            rec(graph, next, &chained, reached);
        }
    }
    let start = graph.vertex(u).output().clone();
    if !start.is_empty() {
        rec(graph, u, &start, &mut reached);
    }
    reached.into_iter().collect()
}

const CASES: u32 = 120;

/// Closure successors equal brute-force legal reachability. The
/// 8-switch networks add deeper paths, where rows reuse rows that
/// were themselves built by reuse.
#[test]
fn closure_matches_brute_force() {
    check(CASES, 1, |rng| {
        let seed = rng.gen_range(0u64..4_000);
        for (switches, rules) in [(5, 10), (8, 40)] {
            let net = random_network(seed, switches, rules);
            let Ok(graph) = RuleGraph::from_network(&net) else {
                continue;
            };
            for u in graph.vertex_ids() {
                let expect = brute_force_reachable(&graph, u);
                let got: Vec<VertexId> = graph.closure_successors(u).to_vec();
                assert_eq!(
                    got, expect,
                    "closure mismatch from {u} ({switches} switches, seed {seed})"
                );
            }
        }
    });
}

/// Every rule input is exactly "matches this rule first" in the
/// data plane: a header is in `r.in` iff the switch's lookup picks
/// `r` for it.
#[test]
fn rule_inputs_match_dataplane_lookup() {
    check(CASES, 2, |rng| {
        let seed = rng.gen_range(0u64..2_000);
        let net = random_network(seed, 4, 8);
        let Ok(graph) = RuleGraph::from_network(&net) else {
            return;
        };
        for v in graph.vertex_ids() {
            let vert = graph.vertex(v);
            let table = net.flow_table(vert.switch, vert.table).expect("exists");
            for bits in 0u128..256 {
                let h = Header::new(bits, 8);
                let picked = table.lookup(h).map(|(id, _)| id);
                assert_eq!(
                    vert.input.contains(h),
                    picked == Some(vert.entry),
                    "input wrong at {} for rule {} (seed {})",
                    h,
                    vert.entry,
                    seed
                );
            }
        }
    });
}

/// `HS(ℓ)` is exact: a header traverses the real path in the data
/// plane iff it is in the computed path header space. (Verified by
/// injecting at the path head and checking the visited rule
/// sequence.)
#[test]
fn path_header_space_matches_forwarding() {
    check(CASES, 3, |rng| {
        let seed = rng.gen_range(0u64..1_500);
        let net = random_network(seed, 4, 8);
        let Ok(graph) = RuleGraph::from_network(&net) else {
            return;
        };
        // Take a couple of 2-3 rule real paths from the step-1 graph.
        let mut paths = Vec::new();
        for u in graph.vertex_ids() {
            for &v in graph.successors(u) {
                paths.push(vec![u, v]);
                for &w in graph.successors(v) {
                    paths.push(vec![u, v, w]);
                }
            }
        }
        for path in paths.into_iter().take(12) {
            let hs = graph.path_header_space(&path);
            let entry_switch = graph.vertex(path[0]).switch;
            let entries: Vec<_> = path.iter().map(|&v| graph.vertex(v).entry).collect();
            for bits in (0u128..256).step_by(7) {
                let h = Header::new(bits, 8);
                let trace = net.inject(entry_switch, h);
                let matched = trace.entries_matched();
                let traverses =
                    matched.len() >= entries.len() && matched[..entries.len()] == entries[..];
                assert_eq!(
                    hs.contains(h),
                    traverses,
                    "HS(l) wrong at {} on path {:?} (seed {})",
                    h,
                    entries,
                    seed
                );
            }
        }
    });
}

/// Shadowed rules never appear in any forwarding trace.
#[test]
fn shadowed_rules_are_dead() {
    check(CASES, 4, |rng| {
        let seed = rng.gen_range(0u64..1_000);
        let net = random_network(seed, 4, 10);
        let Ok(graph) = RuleGraph::from_network(&net) else {
            return;
        };
        let shadowed: Vec<_> = graph
            .vertex_ids()
            .filter(|&v| graph.vertex(v).is_shadowed())
            .map(|v| graph.vertex(v).entry)
            .collect();
        if shadowed.is_empty() {
            return;
        }
        for s in net.topology().switches() {
            for bits in (0u128..256).step_by(5) {
                let trace = net.inject(s, Header::new(bits, 8));
                for step in &trace.steps {
                    assert!(
                        !shadowed.contains(&step.entry),
                        "shadowed rule {} matched a packet (seed {})",
                        step.entry,
                        seed
                    );
                }
                // Bound runaway traces (loops are rejected at build).
                assert!(trace.outcome != Outcome::TtlExceeded);
            }
        }
    });
}
