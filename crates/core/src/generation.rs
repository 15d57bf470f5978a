//! Test-packet generation: Minimum Legal Path Cover (Algorithm 1).
//!
//! SDNProbe reduces probe minimization to the **Minimum Legal Path
//! Cover** problem on the rule graph's legal transitive closure: find the
//! fewest legal paths such that every rule lies on at least one
//! (Definition 2). A maximum matching on the bipartite split graph with
//! *legal augmenting paths* (Definition 3) yields the cover
//! (`|cover| = n − |M|`, Theorem 4); the randomized variant substitutes
//! Dyer–Frieze randomized greedy matching so each detection round draws
//! fresh paths and headers (§V-C).
//!
//! The matcher here mutates the matching along a candidate augmenting
//! path and validates, at every edge addition, that the cover path formed
//! through that edge still admits a real legal expansion — backtracking
//! otherwise. This keeps the produced cover sound (every path legal) by
//! construction; optimality is validated empirically against brute force
//! in the test suite (the paper's proof lives in its unavailable full
//! report).

use rand::seq::SliceRandom;
use rand::RngCore;
use sdnprobe_headerspace::{Header, HeaderSet};
use sdnprobe_rulegraph::{ExpansionCache, RuleGraph, VertexId};

use crate::parallel::{parallel_map, Parallelism};
use crate::plan::{PlannedProbe, TestPlan};
use crate::traffic::TrafficProfile;

/// Generates the minimum set of test packets for a rule graph
/// (Algorithm 1: bipartite graph → modified Hopcroft–Karp with legal
/// augmenting paths → header construction), with a fresh expansion memo
/// and every available core for the per-path expansion stage.
///
/// # Examples
///
/// See the crate-level example in [`crate`].
pub fn generate(graph: &RuleGraph) -> TestPlan {
    generate_with_cache(graph, &mut ExpansionCache::new(), Parallelism::auto())
}

/// [`generate`] with an explicit thread budget, reusing a caller-held
/// expansion memo.
///
/// The augmenting-path matching phase is inherently sequential and runs
/// on the calling thread regardless of `parallelism`; only the per-path
/// legal expansion fans out. The returned plan is bit-identical for any
/// thread count — see `DESIGN.md` § Concurrency model.
///
/// Every cache entry is a pure function of the graph, so the plan is
/// also bit-identical no matter what state the cache is in — fresh,
/// warmed by earlier runs, or shared with the randomized generators.
/// Reuse pays off when plans are regenerated over a stable (or
/// incrementally updated) rule graph, as in continuous monitoring: the
/// matching phase's legality probes and the expansion stage become memo
/// lookups. The cache self-invalidates when the graph's
/// [`generation`](RuleGraph::generation) changes.
pub fn generate_with_cache(
    graph: &RuleGraph,
    cache: &mut ExpansionCache,
    parallelism: Parallelism,
) -> TestPlan {
    plan(graph, Strategy::Minimum, cache, parallelism)
}

/// Generates a randomized test plan (§V-C): randomized greedy legal
/// matching (different tested paths every call) plus randomized header
/// selection within each path's header space.
///
/// All RNG consumption (matching order, path breaks, header sampling)
/// happens on the calling thread in a fixed order, so for a fixed seed
/// the plan is bit-identical at every thread count and whatever the
/// cache holds (same guarantees as [`generate_with_cache`]).
pub fn generate_randomized_with_cache(
    graph: &RuleGraph,
    rng: &mut impl RngCore,
    cache: &mut ExpansionCache,
    parallelism: Parallelism,
) -> TestPlan {
    plan(graph, Strategy::Randomized(rng), cache, parallelism)
}

/// Like [`generate_randomized_with_cache`], but probe headers are
/// preferentially drawn from headers observed in real traffic on the
/// tested path's switches (the paper's sFlow-based sampling). Falls back
/// to uniform sampling for paths where no observed header fits `HS(ℓ)`,
/// so an empty profile yields exactly the uniform plan.
pub fn generate_weighted_with_cache(
    graph: &RuleGraph,
    rng: &mut impl RngCore,
    profile: &TrafficProfile,
    cache: &mut ExpansionCache,
    parallelism: Parallelism,
) -> TestPlan {
    plan(
        graph,
        Strategy::TrafficWeighted(rng, profile),
        cache,
        parallelism,
    )
}

/// How a plan picks its matching and its probe headers. The paper's
/// generators are one algorithm with these three strategies.
enum Strategy<'a> {
    /// Algorithm 1: maximum legal matching, deterministic minimum header.
    Minimum,
    /// Randomized greedy matching, uniformly sampled headers.
    Randomized(&'a mut dyn RngCore),
    /// Randomized greedy matching; headers prefer real traffic seen on
    /// the path's switches (§V-C's `HS(ℓ) ∩ h^t(ℓ)` selection).
    TrafficWeighted(&'a mut dyn RngCore, &'a TrafficProfile),
}

/// The one planning routine behind every public generator: match, then
/// expand and pick headers. `cache` is lent to the matcher and handed
/// back afterwards.
fn plan(
    graph: &RuleGraph,
    mut strategy: Strategy<'_>,
    cache: &mut ExpansionCache,
    parallelism: Parallelism,
) -> TestPlan {
    let mut matcher = LegalMatcher::new(graph, std::mem::take(cache));
    match &mut strategy {
        Strategy::Minimum => matcher.run_maximum(),
        Strategy::Randomized(rng) | Strategy::TrafficWeighted(rng, _) => {
            matcher.run_randomized_greedy(*rng)
        }
    }
    let plan = build_plan(graph, &mut matcher, &mut strategy, parallelism);
    *cache = matcher.cache;
    plan
}

/// Matching state over the rule graph's closure edges, maintaining the
/// legality invariant for every implied cover path.
struct LegalMatcher<'g> {
    graph: &'g RuleGraph,
    /// `next[u] = v`: matched bipartite edge `(u, v')` — `v` follows `u`
    /// on a cover path. Dense (indexed by vertex id): the matcher walks
    /// these on every legality probe, so array indexing beats hashing.
    next: Vec<Option<usize>>,
    /// Inverse of `next`.
    prev: Vec<Option<usize>>,
    /// Live vertices that can carry packets (non-shadowed).
    active: Vec<VertexId>,
    /// Shadowed vertices, excluded from covering.
    shadowed: Vec<VertexId>,
    /// Expansion memo: the matching phase re-probes cover paths that
    /// grow one closure edge at a time, so nearly every legality check
    /// resumes from a cached prefix. Owned by the matcher while it runs;
    /// callers may hand in a warm memo from an earlier run and take it
    /// back after.
    cache: ExpansionCache,
    /// Reusable cover-path scratch so every legality probe doesn't
    /// allocate a fresh `Vec`.
    path_buf: Vec<VertexId>,
}

impl<'g> LegalMatcher<'g> {
    fn new(graph: &'g RuleGraph, cache: ExpansionCache) -> Self {
        let (active, shadowed) = graph
            .vertex_ids()
            .partition(|&v| !graph.vertex(v).is_shadowed());
        let cap = graph.vertex_ids().map(|v| v.0 + 1).max().unwrap_or(0);
        Self {
            graph,
            next: vec![None; cap],
            prev: vec![None; cap],
            active,
            shadowed,
            cache,
            path_buf: Vec::new(),
        }
    }

    /// Writes the cover path running through vertex `x` under the
    /// current matching into `path`.
    fn fill_cover_path(&self, x: usize, path: &mut Vec<VertexId>) {
        let mut start = x;
        while let Some(p) = self.prev[start] {
            start = p;
        }
        path.clear();
        path.push(VertexId(start));
        let mut cur = start;
        while let Some(n) = self.next[cur] {
            path.push(VertexId(n));
            cur = n;
        }
    }

    /// The cover path running through vertex `x` under the current
    /// matching.
    fn cover_path_through(&self, x: usize) -> Vec<VertexId> {
        let mut path = Vec::new();
        self.fill_cover_path(x, &mut path);
        path
    }

    /// True if the cover path through `x` admits a legal real expansion.
    fn path_legal_through(&mut self, x: usize) -> bool {
        let mut path = std::mem::take(&mut self.path_buf);
        self.fill_cover_path(x, &mut path);
        let legal = self.graph.is_cover_path_expandable(&path, &mut self.cache);
        self.path_buf = path;
        legal
    }

    /// Maximum legal matching: Kuhn-style augmenting search over closure
    /// edges with legality validation at every tentative edge addition.
    /// Active left vertices are processed in vertex-id order
    /// (switch-major, as `vertex_ids` yields them); plans depend on that
    /// order.
    fn run_maximum(&mut self) {
        // Take the order out instead of cloning it; restored below.
        let order = std::mem::take(&mut self.active);
        let max = self.graph.vertex_ids().map(|v| v.0).max().unwrap_or(0);
        // Stamped visited set: each attempt bumps the stamp instead of
        // allocating (or zeroing) a fresh array.
        let mut visited = vec![0u32; max + 1];
        for (i, &u) in order.iter().enumerate() {
            self.try_augment(u.0, i as u32 + 1, &mut visited);
        }
        self.active = order;
    }

    /// One augmenting attempt from free left vertex `u`. On failure the
    /// matching is restored exactly. A right vertex counts as visited
    /// when its mark equals `stamp`.
    fn try_augment(&mut self, u: usize, stamp: u32, visited: &mut [u32]) -> bool {
        debug_assert!(self.next[u].is_none());
        // `graph` is a shared borrow independent of `self`, so iterating
        // its successor slice needs no intermediate Vec.
        let graph = self.graph;
        for &v in graph.closure_successors(VertexId(u)) {
            let v = v.0;
            if visited[v] == stamp {
                continue;
            }
            visited[v] = stamp;
            if graph.vertex(VertexId(v)).is_shadowed() {
                continue;
            }
            match self.prev[v] {
                None => {
                    // v is a free right vertex: add (u, v) and validate.
                    self.link(u, v);
                    if self.path_legal_through(u) {
                        return true;
                    }
                    self.unlink(u, v);
                }
                Some(w) => {
                    // Steal v from w, validate, then re-augment w.
                    self.unlink(w, v);
                    self.link(u, v);
                    if self.path_legal_through(u) && self.try_augment(w, stamp, visited) {
                        return true;
                    }
                    self.unlink(u, v);
                    self.link(w, v);
                }
            }
        }
        false
    }

    /// Randomized greedy legal matching (Dyer–Frieze): random vertex and
    /// neighbour order, first legal free neighbour, no augmentation.
    ///
    /// A vertex is additionally left unmatched with a small probability,
    /// deliberately breaking paths at random points so that *every* rule
    /// appears as a tested-path terminal with some probability per round
    /// — the property §V-C relies on ("the location of switches is not
    /// always at the end of a test path"). The extra breaks are part of
    /// why Randomized SDNProbe sends noticeably more packets than the
    /// minimum (paper: +72 % on average).
    fn run_randomized_greedy(&mut self, rng: &mut dyn RngCore) {
        const BREAK_PROBABILITY: f64 = 0.15;
        // Take the order out instead of cloning it; `cover_paths` sorts,
        // so restoring the shuffled order is observationally identical.
        let mut order = std::mem::take(&mut self.active);
        order.shuffle(rng);
        // Reusable successor scratch — one allocation for the whole run.
        let mut succs: Vec<usize> = Vec::new();
        for &u in &order {
            if rand::Rng::gen_bool(rng, BREAK_PROBABILITY) {
                continue; // leave `u` as a path terminal this round
            }
            succs.clear();
            succs.extend(self.graph.closure_successors(u).iter().map(|v| v.0));
            succs.shuffle(rng);
            for &v in &succs {
                if self.prev[v].is_some() || self.graph.vertex(VertexId(v)).is_shadowed() {
                    continue;
                }
                self.link(u.0, v);
                if self.path_legal_through(u.0) {
                    break;
                }
                self.unlink(u.0, v);
            }
        }
        self.active = order;
    }

    fn link(&mut self, u: usize, v: usize) {
        self.next[u] = Some(v);
        self.prev[v] = Some(u);
    }

    fn unlink(&mut self, u: usize, v: usize) {
        self.next[u] = None;
        self.prev[v] = None;
    }

    /// Extracts the cover paths implied by the matching.
    fn cover_paths(&self) -> Vec<Vec<VertexId>> {
        let mut paths = Vec::new();
        for &v in &self.active {
            if self.prev[v.0].is_none() {
                paths.push(self.cover_path_through(v.0));
            }
        }
        paths.sort();
        paths
    }
}

fn build_plan(
    graph: &RuleGraph,
    matcher: &mut LegalMatcher<'_>,
    strategy: &mut Strategy<'_>,
    parallelism: Parallelism,
) -> TestPlan {
    let covers = matcher.cover_paths();
    // Stage 1 (sequential): each matched cover path's canonical
    // expansion. The matcher probed the final chains, so this is mostly
    // memo lookups — pairs and single vertices, which it checks by a
    // closure lookup alone, run their small search here — and on a
    // reused cache it is pure lookups.
    let paths: Vec<Vec<VertexId>> = covers
        .iter()
        .map(|cover| {
            graph
                .expand_cover_path_cached(cover, &mut matcher.cache)
                .expect("matcher maintains the legality invariant")
        })
        .collect();
    // Stage 2 (parallel): each path's entry header space, a backward
    // projection over the immutable graph, so the fan-out cannot change
    // any result; `parallel_map` returns them in cover order.
    let spaces: Vec<HeaderSet> =
        parallel_map(parallelism, &paths, |path| graph.path_entry_space(path));
    // Stage 3 (sequential, in cover order): header selection consumes
    // the RNG and deduplicates against `taken`, so it must run in the
    // original order to keep plans bit-identical across thread counts.
    let mut probes = Vec::new();
    let mut taken = TakenHeaders::default();
    for ((cover, path), header_space) in covers.into_iter().zip(paths).zip(spaces) {
        let header = choose_header(graph, &path, &header_space, &taken, strategy);
        taken.push(header);
        probes.push(PlannedProbe {
            entry_switch: graph.vertex(path[0]).switch,
            terminal_switch: graph.vertex(*path.last().expect("non-empty")).switch,
            cover,
            path,
            header_space,
            header,
        });
    }
    TestPlan {
        probes,
        shadowed: matcher.shadowed.clone(),
    }
}

/// Headers already assigned to probes, kept both in insertion order (the
/// solver enumerates them) and hashed (the per-candidate uniqueness
/// check is a set lookup instead of an `O(probes)` scan).
#[derive(Default)]
struct TakenHeaders {
    ordered: Vec<Header>,
    set: std::collections::HashSet<Header>,
}

impl TakenHeaders {
    fn push(&mut self, h: Header) {
        self.ordered.push(h);
        self.set.insert(h);
    }

    fn contains(&self, h: &Header) -> bool {
        self.set.contains(h)
    }
}

/// Picks a unique header from `HS(ℓ)`: must not collide with another
/// probe's header (§VI's uniqueness constraint). Each strategy tries its
/// own pick first; [`HeaderSet::unique_header`] settles collisions.
/// Header spaces exhausted by uniqueness constraints are practically
/// impossible (spaces ≫ probe count); then any member is taken rather
/// than failing the whole plan.
fn choose_header(
    graph: &RuleGraph,
    path: &[VertexId],
    space: &HeaderSet,
    taken: &TakenHeaders,
    strategy: &mut Strategy<'_>,
) -> Header {
    let unique = |h: Option<Header>| h.filter(|h| !taken.contains(h));
    // Rejection-sample a few times before falling back to the solver.
    let sampled = |rng: &mut dyn RngCore| (0..16).find_map(|_| unique(space.sample_header(rng)));
    let picked = match strategy {
        Strategy::Minimum => unique(space.any_header()),
        Strategy::Randomized(rng) => sampled(*rng),
        Strategy::TrafficWeighted(rng, profile) => {
            unique(profile.sample_for_path(graph, path, space, *rng)).or_else(|| sampled(*rng))
        }
    };
    picked
        .or_else(|| space.unique_header(&taken.ordered))
        .expect("legal path is non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdnprobe_dataplane::{Action, FlowEntry, Network, TableId};
    use sdnprobe_headerspace::Ternary;
    use sdnprobe_topology::{PortId, SwitchId, Topology};

    fn t(s: &str) -> Ternary {
        s.parse().expect("valid ternary")
    }

    fn randomized(g: &RuleGraph, rng: &mut impl RngCore) -> TestPlan {
        generate_randomized_with_cache(g, rng, &mut ExpansionCache::new(), Parallelism::auto())
    }

    /// The paper's Figure 3 network (same construction as the rulegraph
    /// tests).
    fn figure3() -> (
        Network,
        std::collections::HashMap<&'static str, sdnprobe_dataplane::EntryId>,
    ) {
        let (a, b, c, d, e) = (
            SwitchId(0),
            SwitchId(1),
            SwitchId(2),
            SwitchId(3),
            SwitchId(4),
        );
        let mut topo = Topology::new(5);
        topo.add_link(a, b);
        topo.add_link(b, c);
        topo.add_link(b, d);
        topo.add_link(c, e);
        topo.add_link(d, e);
        let mut net = Network::new(topo);
        let mut ids = std::collections::HashMap::new();
        let port = |net: &Network, from: SwitchId, to: SwitchId| {
            net.topology().port_towards(from, to).expect("adjacent")
        };
        let host = PortId(9);
        let p = port(&net, a, b);
        ids.insert(
            "a1",
            net.install(
                a,
                TableId(0),
                FlowEntry::new(t("00101xxx"), Action::Output(p)),
            )
            .unwrap(),
        );
        let p = port(&net, b, c);
        ids.insert(
            "b1",
            net.install(
                b,
                TableId(0),
                FlowEntry::new(t("0010xxxx"), Action::Output(p)).with_priority(2),
            )
            .unwrap(),
        );
        ids.insert(
            "b2",
            net.install(
                b,
                TableId(0),
                FlowEntry::new(t("0011xxxx"), Action::Output(p)).with_priority(1),
            )
            .unwrap(),
        );
        let p = port(&net, b, d);
        ids.insert(
            "b3",
            net.install(
                b,
                TableId(0),
                FlowEntry::new(t("000xxxxx"), Action::Output(p)).with_priority(0),
            )
            .unwrap(),
        );
        let p = port(&net, c, e);
        ids.insert(
            "c1",
            net.install(
                c,
                TableId(0),
                FlowEntry::new(t("00100xxx"), Action::Output(p)).with_priority(2),
            )
            .unwrap(),
        );
        ids.insert(
            "c2",
            net.install(
                c,
                TableId(0),
                FlowEntry::new(t("001xxxxx"), Action::Output(p)).with_priority(1),
            )
            .unwrap(),
        );
        let p = port(&net, d, e);
        ids.insert(
            "d1",
            net.install(
                d,
                TableId(0),
                FlowEntry::new(t("000xxxxx"), Action::Output(p)).with_set_field(t("0111xxxx")),
            )
            .unwrap(),
        );
        ids.insert(
            "e1",
            net.install(
                e,
                TableId(0),
                FlowEntry::new(t("0010xxxx"), Action::Output(host)).with_priority(2),
            )
            .unwrap(),
        );
        ids.insert(
            "e2",
            net.install(
                e,
                TableId(0),
                FlowEntry::new(t("001xxxxx"), Action::Output(host)).with_priority(1),
            )
            .unwrap(),
        );
        ids.insert(
            "e3",
            net.install(
                e,
                TableId(0),
                FlowEntry::new(t("0111xxxx"), Action::Output(host)).with_priority(0),
            )
            .unwrap(),
        );
        (net, ids)
    }

    #[test]
    fn figure3_minimum_is_four_packets() {
        // The paper's worked example produces exactly 4 tested paths:
        // a1->b1->c2->e1, b2->(c2)->e2, b3->d1->e3, c1 (Figure 6).
        let (net, _) = figure3();
        let g = RuleGraph::from_network(&net).unwrap();
        let plan = generate(&g);
        assert_eq!(plan.packet_count(), 4);
        assert!(plan.covers_all_rules(&g));
        // Every probe path must be legal and its header must traverse it.
        for p in &plan.probes {
            assert!(g.is_real_path_legal(&p.path));
            assert!(p.header_space.contains(p.header));
        }
    }

    #[test]
    fn figure3_probe_headers_are_unique() {
        let (net, _) = figure3();
        let g = RuleGraph::from_network(&net).unwrap();
        let plan = generate(&g);
        let mut headers: Vec<Header> = plan.probes.iter().map(|p| p.header).collect();
        headers.sort_unstable();
        headers.dedup();
        assert_eq!(headers.len(), plan.packet_count());
    }

    #[test]
    fn figure3_matches_paper_paths() {
        let (net, ids) = figure3();
        let g = RuleGraph::from_network(&net).unwrap();
        let v = |n: &str| g.vertex_of_entry(ids[n]).unwrap();
        let plan = generate(&g);
        let paths: Vec<Vec<VertexId>> = plan.probes.iter().map(|p| p.path.clone()).collect();
        // c1 must be covered; since c1's only legal continuation is e1
        // and only predecessor is b1, it appears on some path (possibly
        // alone, as in the paper).
        assert!(paths.iter().any(|p| p.contains(&v("c1"))));
        // b3 -> d1 -> e3 must appear as one chain (it is forced).
        assert!(paths
            .iter()
            .any(|p| p.windows(3).any(|w| w == [v("b3"), v("d1"), v("e3")])
                || p.as_slice() == [v("b3"), v("d1"), v("e3")]));
    }

    #[test]
    fn randomized_covers_and_varies() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let (net, _) = figure3();
        let g = RuleGraph::from_network(&net).unwrap();
        let mut seen_paths = std::collections::HashSet::new();
        for seed in 0..20 {
            let mut rng = StdRng::seed_from_u64(seed);
            let plan = randomized(&g, &mut rng);
            assert!(plan.covers_all_rules(&g), "seed {seed} missed rules");
            assert!(plan.packet_count() >= 4, "cannot beat the minimum");
            for p in &plan.probes {
                assert!(g.is_real_path_legal(&p.path));
                assert!(p.header_space.contains(p.header));
                seen_paths.insert(p.path.clone());
            }
        }
        // Randomization must explore more distinct tested paths than the
        // static minimum uses.
        assert!(
            seen_paths.len() > 4,
            "only {} distinct paths over 20 seeds",
            seen_paths.len()
        );
    }

    #[test]
    fn randomized_uses_more_packets_on_average() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let (net, _) = figure3();
        let g = RuleGraph::from_network(&net).unwrap();
        let min = generate(&g).packet_count();
        let total: usize = (0..50)
            .map(|seed| randomized(&g, &mut StdRng::seed_from_u64(seed)).packet_count())
            .sum();
        let avg = total as f64 / 50.0;
        assert!(avg >= min as f64, "randomized can never beat the minimum");
        assert!(avg > min as f64, "greedy should sometimes be suboptimal");
    }

    #[test]
    fn single_rule_network() {
        let mut topo = Topology::new(2);
        topo.add_link(SwitchId(0), SwitchId(1));
        let mut net = Network::new(topo);
        net.install(
            SwitchId(0),
            TableId(0),
            FlowEntry::new(t("0xxxxxxx"), Action::Output(PortId(33))),
        )
        .unwrap();
        let g = RuleGraph::from_network(&net).unwrap();
        let plan = generate(&g);
        assert_eq!(plan.packet_count(), 1);
        assert_eq!(plan.probes[0].path.len(), 1);
        assert_eq!(plan.probes[0].entry_switch, SwitchId(0));
        assert_eq!(plan.probes[0].terminal_switch, SwitchId(0));
    }

    #[test]
    fn shadowed_rules_are_reported_not_covered() {
        let mut topo = Topology::new(2);
        topo.add_link(SwitchId(0), SwitchId(1));
        let mut net = Network::new(topo);
        let p = net
            .topology()
            .port_towards(SwitchId(0), SwitchId(1))
            .unwrap();
        let dead = net
            .install(
                SwitchId(0),
                TableId(0),
                FlowEntry::new(t("00xxxxxx"), Action::Output(p)),
            )
            .unwrap();
        net.install(
            SwitchId(0),
            TableId(0),
            FlowEntry::new(t("0xxxxxxx"), Action::Output(p)).with_priority(9),
        )
        .unwrap();
        net.install(
            SwitchId(1),
            TableId(0),
            FlowEntry::new(t("xxxxxxxx"), Action::Output(PortId(50))),
        )
        .unwrap();
        let g = RuleGraph::from_network(&net).unwrap();
        let plan = generate(&g);
        let dead_v = g.vertex_of_entry(dead).unwrap();
        assert!(plan.shadowed.contains(&dead_v));
        assert!(plan.covers_all_rules(&g));
        assert!(plan.probes.iter().all(|p| !p.path.contains(&dead_v)));
    }

    #[test]
    fn plan_beats_or_equals_per_rule_count() {
        let (net, _) = figure3();
        let g = RuleGraph::from_network(&net).unwrap();
        let plan = generate(&g);
        assert!(plan.packet_count() <= g.vertex_count());
    }
}
