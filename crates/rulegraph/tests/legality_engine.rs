//! Differential tests for the legality-engine fast path: the word-packed
//! closure bit-matrix must agree with set-based reference semantics, and
//! the memoized cover-path expansion must be bit-identical to the
//! uncached DFS — including after incremental graph mutations.

use sdnprobe_integration::check;
use std::collections::HashSet;

#[path = "support/detour.rs"]
mod detour;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sdnprobe_dataplane::{Action, EntryId, FlowEntry, Network, TableId};
use sdnprobe_headerspace::{HeaderSet, Ternary};
use sdnprobe_rulegraph::{ExpansionCache, RuleGraph, RuleUpdate, VertexId};
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
        let _ = net.install(s, TableId(0), random_entry(&mut rng, &net, s));
    }
    net
}

/// Random prefix-match entry forwarding in switch-id order (acyclic).
fn random_entry(rng: &mut StdRng, net: &Network, s: SwitchId) -> FlowEntry {
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
    e
}

/// Reference legal closure as a plain edge set, recomputed from public
/// chaining primitives (the representation the bit-matrix replaced).
fn reference_closure_set(graph: &RuleGraph) -> HashSet<(usize, usize)> {
    let mut edges = HashSet::new();
    for u in graph.vertex_ids() {
        fn rec(
            graph: &RuleGraph,
            src: VertexId,
            cur: VertexId,
            set: &HeaderSet,
            edges: &mut HashSet<(usize, usize)>,
        ) {
            for &next in graph.successors(cur) {
                let chained = graph.chain(set, next);
                if chained.is_empty() {
                    continue;
                }
                edges.insert((src.0, next.0));
                rec(graph, src, next, &chained, edges);
            }
        }
        let start = graph.vertex(u).output().clone();
        if !start.is_empty() {
            rec(graph, u, u, &start, &mut edges);
        }
    }
    edges
}

/// A spread of cover-path candidates: closure-edge pairs and chained
/// triples, plus their reverses (guaranteed-dead probes).
fn cover_path_candidates(graph: &RuleGraph) -> Vec<Vec<VertexId>> {
    let mut paths = Vec::new();
    for u in graph.vertex_ids() {
        for &v in graph.closure_successors(u) {
            paths.push(vec![u, v]);
            paths.push(vec![v, u]);
            for &w in graph.closure_successors(v) {
                paths.push(vec![u, v, w]);
                for &x in graph.closure_successors(w) {
                    paths.push(vec![u, v, w, x]);
                }
            }
        }
    }
    paths.truncate(64);
    paths
}

/// Asserts one probe agrees between the cached and uncached engines.
fn assert_probe_identical(
    graph: &RuleGraph,
    cache: &mut ExpansionCache,
    cover: &[VertexId],
    seed: u64,
) {
    let expect = graph.expand_cover_path(cover);
    let alive = graph.is_cover_path_expandable(cover, cache);
    assert_eq!(
        alive,
        expect.is_some(),
        "expandability mismatch on {cover:?} (seed {seed})"
    );
    let got = graph.expand_cover_path_cached(cover, cache).map(|real| {
        let hs = graph.path_entry_space(&real);
        (real, hs)
    });
    assert_eq!(got, expect, "expansion mismatch on {cover:?} (seed {seed})");
}

const CASES: u32 = 96;

/// The word-packed closure bit-matrix answers exactly the edge set
/// the old `HashSet<(usize, usize)>` held, on random DAGs.
#[test]
fn bitset_closure_matches_hashset_reference() {
    check(CASES, 1, |rng| {
        let seed = rng.gen_range(0u64..3_000);
        let net = random_network(seed, 5, 12);
        let Ok(graph) = RuleGraph::from_network(&net) else {
            return;
        };
        let reference = reference_closure_set(&graph);
        for u in graph.vertex_ids() {
            for v in graph.vertex_ids() {
                assert_eq!(
                    graph.has_closure_edge(u, v),
                    reference.contains(&(u.0, v.0)),
                    "bitset closure wrong at ({u}, {v}) (seed {seed})"
                );
            }
            // Adjacency lists and bit rows must describe the same graph.
            let from_lists: HashSet<usize> =
                graph.closure_successors(u).iter().map(|v| v.0).collect();
            let from_bits: HashSet<usize> = graph
                .vertex_ids()
                .filter(|&v| graph.has_closure_edge(u, v))
                .map(|v| v.0)
                .collect();
            assert_eq!(from_lists, from_bits, "row {u} diverged (seed {seed})");
        }
    });
}

/// Cached expansion is bit-identical to the uncached DFS: same real
/// paths, same entry header spaces, same liveness — across probe
/// orders that exercise exact hits, prefix resumes, and dead-prefix
/// short circuits.
#[test]
fn cached_expansion_matches_uncached() {
    check(CASES, 2, |rng| {
        let seed = rng.gen_range(0u64..1_500);
        let net = random_network(seed, 5, 12);
        let Ok(graph) = RuleGraph::from_network(&net) else {
            return;
        };
        let paths = cover_path_candidates(&graph);
        let mut cache = ExpansionCache::new();
        // Prefixes first (seeds resumable states), then full paths.
        for path in &paths {
            for plen in 2..=path.len() {
                assert_probe_identical(&graph, &mut cache, &path[..plen], seed);
            }
        }
        // Second pass: everything answers from the memo, identically.
        for path in &paths {
            assert_probe_identical(&graph, &mut cache, path, seed);
        }
        assert!(cache.hits() > 0 || paths.is_empty());
        // A fresh cache probed in full-path-first order (prefix lookups
        // miss) must also agree.
        let mut cold = ExpansionCache::new();
        for path in &paths {
            assert_probe_identical(&graph, &mut cold, path, seed);
            for plen in 2..path.len() {
                assert_probe_identical(&graph, &mut cold, &path[..plen], seed);
            }
        }
    });
}

/// A cache held across incremental graph mutations self-invalidates
/// (via the generation counter) and keeps agreeing with the uncached
/// DFS after every update.
#[test]
fn cache_agrees_after_incremental_mutations() {
    check(CASES, 3, |rng| {
        let seed = rng.gen_range(0u64..600);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_cafe);
        let mut net = random_network(seed, 5, 10);
        let Ok(mut graph) = RuleGraph::from_network(&net) else {
            return;
        };
        let mut installed: Vec<EntryId> =
            graph.vertex_ids().map(|v| graph.vertex(v).entry).collect();
        let mut cache = ExpansionCache::new();
        for _ in 0..6 {
            // Mutate: remove an existing rule or install a fresh one.
            if installed.len() > 2 && rng.gen_bool(0.4) {
                let id = installed.swap_remove(rng.gen_range(0..installed.len()));
                let location = net.location(id).unwrap();
                let old = net.remove(id).unwrap();
                let update = RuleUpdate::Removed {
                    entry: id,
                    old,
                    location,
                };
                if graph.apply_update(&net, &update).is_err() {
                    return;
                }
            } else {
                let s = SwitchId(rng.gen_range(0..5));
                let e = random_entry(&mut rng, &net, s);
                let id = net.install(s, TableId(0), e).unwrap();
                installed.push(id);
                if graph
                    .apply_update(&net, &RuleUpdate::Added { entry: id })
                    .is_err()
                {
                    return;
                }
            }
            for path in cover_path_candidates(&graph).iter().take(24) {
                assert_probe_identical(&graph, &mut cache, path, seed);
            }
        }
    });
}

/// Detour graphs checked per test, and cover paths sampled per graph.
const DETOUR_CASES: u32 = 48;
const CHAINS_PER_GRAPH: usize = 80;

/// Up to [`CHAINS_PER_GRAPH`] cover paths of three and four vertices
/// along closure edges, sampled evenly.
fn chains(graph: &RuleGraph, rng: &mut StdRng) -> Vec<Vec<VertexId>> {
    let mut out = Vec::new();
    for u in graph.vertex_ids() {
        for &v in graph.closure_successors(u) {
            for &w in graph.closure_successors(v) {
                out.push(vec![u, v, w]);
                for &x in graph.closure_successors(w) {
                    out.push(vec![u, v, w, x]);
                }
            }
        }
    }
    let keep = CHAINS_PER_GRAPH as f64 / out.len().max(1) as f64;
    out.retain(|_| keep >= 1.0 || rng.gen_bool(keep));
    out
}

/// The same prefix-first and full-path-first passes as
/// `cached_expansion_matches_uncached`, over detour graphs, where the
/// canonical expansion is not the shortest legal path and resuming a
/// memoized prefix can fail where the full DFS succeeds.
#[test]
fn cached_expansion_matches_uncached_on_detour_graphs() {
    let mut case = 0;
    check(DETOUR_CASES, 5, |rng| {
        case += 1;
        let graph =
            RuleGraph::from_network(&detour::detour_network(rng)).expect("detour graphs are DAGs");
        let paths = chains(&graph, rng);
        let mut cache = ExpansionCache::new();
        for path in &paths {
            for plen in 2..=path.len() {
                assert_probe_identical(&graph, &mut cache, &path[..plen], case);
            }
        }
        for path in &paths {
            assert_probe_identical(&graph, &mut cache, path, case);
        }
        let mut cold = ExpansionCache::new();
        for path in &paths {
            assert_probe_identical(&graph, &mut cold, path, case);
            for plen in 2..path.len() {
                assert_probe_identical(&graph, &mut cold, &path[..plen], case);
            }
        }
        // Suffixes first: every probe of a longer path is a splice.
        let mut spliced = ExpansionCache::new();
        for path in &paths {
            for start in (0..path.len() - 1).rev() {
                assert_probe_identical(&graph, &mut spliced, &path[start..], case);
            }
        }
    });
}

/// How often the fixed schedules reach the memo's resume fallback,
/// predicted from public data: the library keeps no such count.
#[derive(Debug, Default)]
struct ResumeReach {
    /// `probe` resumed a canonical prefix, failed, and the path is live.
    resume_fallback: usize,
}

/// Fixed probe schedules on fresh memos, each step checked against the
/// uncached DFS:
///
/// 1. `[c1, c2]` expanded, then `[c0, c1, c2]` probed with no prefix
///    entry, then `[c0, .., c3]` probed (resuming the triple) and
///    expanded, then `[c0, c1, c2]` expanded;
/// 2. `[c0, c1]` expanded, then `[c0, c1, c2]` probed: a resume of the
///    canonical prefix, which must fall back to the full DFS when the
///    canonical prefix cannot be extended.
#[test]
fn detour_graphs_reach_the_resume_fallback() {
    let mut reach = ResumeReach::default();
    let mut case = 0;
    check(DETOUR_CASES, 6, |rng| {
        case += 1;
        let graph =
            RuleGraph::from_network(&detour::detour_network(rng)).expect("detour graphs are DAGs");
        let canon = |cover: &[VertexId]| graph.expand_cover_path(cover).map(|(real, _)| real);
        for cover in chains(&graph, rng) {
            let (c0, c1) = (cover[0], cover[1]);
            let triple = &cover[..3];
            let expect = canon(triple);

            let mut cache = ExpansionCache::new();
            assert_probe_identical(&graph, &mut cache, &triple[1..], case);
            assert_eq!(
                graph.is_cover_path_expandable(triple, &mut cache),
                expect.is_some(),
                "liveness on {triple:?} (case {case})"
            );
            if cover.len() == 4 {
                assert_probe_identical(&graph, &mut cache, &cover, case);
            }
            assert_probe_identical(&graph, &mut cache, triple, case);

            let mut cache = ExpansionCache::new();
            assert_probe_identical(&graph, &mut cache, &[c0, c1], case);
            let head = canon(&[c0, c1]);
            if let (Some(full), Some(head)) = (&expect, &head) {
                if !full.starts_with(head) {
                    reach.resume_fallback += 1;
                }
            }
            assert_probe_identical(&graph, &mut cache, triple, case);
        }
    });
    assert!(reach.resume_fallback >= 100, "{reach:?}");
}
