//! Property tests for the Minimum Legal Path Cover solver.
//!
//! The paper's Theorem 4 (legal augmenting paths yield a *minimum* legal
//! path cover) is proved only in its unavailable full report, so this
//! suite validates the implementation empirically: on thousands of small
//! random networks, the solver's cover is compared against an exhaustive
//! minimum computed by enumerating every legal cover path and solving
//! set cover by dynamic programming over vertex bitmasks.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sdnprobe::{generate, generate_randomized_with_cache, ExpansionCache, Parallelism};
use sdnprobe_dataplane::{Action, FlowEntry, Network, TableId};
use sdnprobe_headerspace::Ternary;
use sdnprobe_integration::check;
use sdnprobe_rulegraph::{RuleGraph, VertexId};
use sdnprobe_topology::{PortId, SwitchId, Topology};

/// Builds a random small network with overlapping prefix rules over an
/// 8-bit header space; loops are avoided by forwarding only to
/// higher-numbered switches.
fn random_network(seed: u64, switches: usize, rules: usize) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut topo = Topology::new(switches);
    // A connected forward DAG-ish topology.
    for i in 1..switches {
        topo.add_link(SwitchId(rng.gen_range(0..i)), SwitchId(i));
    }
    let mut net = Network::new(topo);
    for _ in 0..rules {
        let s = SwitchId(rng.gen_range(0..switches));
        let plen = rng.gen_range(0..=5);
        let m = Ternary::prefix(rng.gen::<u8>() as u128, plen, 8);
        let forward: Vec<PortId> = net
            .topology()
            .neighbors(s)
            .iter()
            .filter(|n| n.peer.0 > s.0)
            .map(|n| n.port)
            .collect();
        let action = if forward.is_empty() || rng.gen_bool(0.35) {
            Action::Output(PortId(40)) // host egress
        } else {
            Action::Output(forward[rng.gen_range(0..forward.len())])
        };
        let mut e = FlowEntry::new(m, action).with_priority(rng.gen_range(0..4));
        if rng.gen_bool(0.25) {
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

/// Every legal cover path in the closure graph, as (vertex bitmask of
/// the *expanded real path*).
fn enumerate_legal_cover_masks(graph: &RuleGraph) -> Vec<u32> {
    let ids: Vec<VertexId> = graph.vertex_ids().collect();
    let index: std::collections::HashMap<VertexId, usize> =
        ids.iter().enumerate().map(|(i, v)| (*v, i)).collect();
    let mut masks = Vec::new();
    // DFS over closure-edge paths starting at every vertex.
    fn rec(
        graph: &RuleGraph,
        index: &std::collections::HashMap<VertexId, usize>,
        cover: &mut Vec<VertexId>,
        masks: &mut Vec<u32>,
    ) {
        if let Some((real, _)) = graph.expand_cover_path(cover) {
            let mut mask = 0u32;
            for v in real {
                mask |= 1 << index[&v];
            }
            masks.push(mask);
        } else {
            return; // no legal expansion: extensions cannot help
        }
        let last = *cover.last().expect("non-empty");
        for &next in graph.closure_successors(last) {
            if cover.contains(&next) || graph.vertex(next).is_shadowed() {
                continue;
            }
            cover.push(next);
            rec(graph, index, cover, masks);
            cover.pop();
        }
    }
    for &v in &ids {
        if graph.vertex(v).is_shadowed() {
            continue;
        }
        let mut cover = vec![v];
        rec(graph, &index, &mut cover, &mut masks);
    }
    masks.sort_unstable();
    masks.dedup();
    masks
}

/// Exhaustive minimum number of legal paths covering `universe`.
fn brute_force_min_cover(masks: &[u32], universe: u32) -> Option<usize> {
    if universe == 0 {
        return Some(0);
    }
    let size = universe.count_ones() as usize;
    // BFS over covered-subsets, at most 2^n states (n <= 12 in tests).
    let mut best: Vec<Option<usize>> = vec![None; 1 << size];
    // Compress universe bits to dense indices.
    let bits: Vec<u32> = (0..32).filter(|b| universe >> b & 1 == 1).collect();
    let compress = |mask: u32| -> u32 {
        bits.iter()
            .enumerate()
            .filter(|(_, b)| mask >> **b & 1 == 1)
            .fold(0u32, |acc, (i, _)| acc | 1 << i)
    };
    let full = (1u32 << size) - 1;
    let mut frontier = vec![0u32];
    best[0] = Some(0);
    let mut depth = 0usize;
    while !frontier.is_empty() {
        depth += 1;
        if depth > size + 1 {
            return None;
        }
        let mut next = Vec::new();
        for &state in &frontier {
            for m in masks {
                let covered = state | compress(*m);
                if best[covered as usize].is_none() {
                    best[covered as usize] = Some(depth);
                    if covered == full {
                        return Some(depth);
                    }
                    next.push(covered);
                }
            }
        }
        frontier = next;
    }
    None
}

const CASES: u32 = 200;

/// The solver's cover size equals the exhaustive minimum.
#[test]
fn mlpc_is_minimum() {
    check(CASES, 1, |rng| {
        let seed = rng.gen_range(0u64..5_000);
        let switches = rng.gen_range(2usize..5);
        let rules = rng.gen_range(2usize..9);
        let net = random_network(seed, switches, rules);
        let Ok(graph) = RuleGraph::from_network(&net) else {
            return; // no forwarding rules in this draw
        };
        let active: Vec<VertexId> = graph
            .vertex_ids()
            .filter(|&v| !graph.vertex(v).is_shadowed())
            .collect();
        if active.len() > 10 {
            return; // too large for the exhaustive optimum
        }
        let plan = generate(&graph);
        assert!(plan.covers_all_rules(&graph));
        for p in &plan.probes {
            assert!(graph.is_real_path_legal(&p.path));
        }
        let ids: Vec<VertexId> = graph.vertex_ids().collect();
        let index: std::collections::HashMap<VertexId, usize> =
            ids.iter().enumerate().map(|(i, v)| (*v, i)).collect();
        let universe = active.iter().fold(0u32, |acc, v| acc | 1 << index[v]);
        let masks = enumerate_legal_cover_masks(&graph);
        let optimal = brute_force_min_cover(&masks, universe)
            .expect("active rules are coverable by singletons");
        assert_eq!(
            plan.packet_count(),
            optimal,
            "solver used {} probes, optimum is {} (seed {})",
            plan.packet_count(),
            optimal,
            seed
        );
    });
}

/// Randomized covers are valid and never smaller than the minimum.
#[test]
fn randomized_cover_is_valid() {
    check(CASES, 2, |rng| {
        let seed = rng.gen_range(0u64..2_000);
        let net = random_network(seed, 4, 8);
        let Ok(graph) = RuleGraph::from_network(&net) else {
            return;
        };
        let minimum = generate(&graph).packet_count();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xDEAD);
        let plan = generate_randomized_with_cache(
            &graph,
            &mut rng,
            &mut ExpansionCache::new(),
            Parallelism::auto(),
        );
        assert!(plan.covers_all_rules(&graph));
        assert!(plan.packet_count() >= minimum);
        for p in &plan.probes {
            assert!(graph.is_real_path_legal(&p.path));
            assert!(p.header_space.contains(p.header));
        }
    });
}
