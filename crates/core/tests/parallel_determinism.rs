//! The pipeline's determinism guarantee: plans are bit-identical at any
//! thread count.
//!
//! The parallel stages (legal path expansion, probe sends) are
//! order-preserving and side-effect free; every RNG-consuming or
//! state-dependent stage (matching, header selection, suspicion) runs
//! sequentially on the calling thread. These tests pin that contract
//! by comparing whole plans across thread budgets — see DESIGN.md
//! § Concurrency model.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sdnprobe::{
    generate_randomized_with_cache, generate_weighted_with_cache, generate_with_cache,
    ExpansionCache, Parallelism, TestPlan, TrafficProfile,
};
use sdnprobe_rulegraph::RuleGraph;
use sdnprobe_topology::generate::rocketfuel_like;
use sdnprobe_workloads::{synthesize, WorkloadSpec};

#[path = "../../rulegraph/tests/support/detour.rs"]
mod detour;

/// A mid-size Rocketfuel-like workload: enough cover paths that the
/// parallel expansion stage actually fans out (see
/// `plan_is_large_enough_to_fan_out`).
fn graph() -> RuleGraph {
    let topo = rocketfuel_like(20, 36, 4242);
    let sn = synthesize(
        &topo,
        &WorkloadSpec {
            flows: 120,
            k: 3,
            nested_fraction: 0.2,
            diversion_fraction: 0.25,
            min_path_len: 4,
            seed: 4242,
        },
    );
    RuleGraph::from_network(&sn.network).expect("loop-free workload")
}

/// Every field of every probe, via the derived Debug representation —
/// any divergence (paths, headers, header spaces, shadowed set) shows.
fn fingerprint(plan: &TestPlan) -> String {
    format!("{plan:?}")
}

/// The minimum plan with a fresh memo.
fn minimum(graph: &RuleGraph, parallelism: Parallelism) -> TestPlan {
    generate_with_cache(graph, &mut ExpansionCache::new(), parallelism)
}

/// The uniform randomized plan with a fresh memo.
fn randomized(graph: &RuleGraph, rng: &mut StdRng, parallelism: Parallelism) -> TestPlan {
    generate_randomized_with_cache(graph, rng, &mut ExpansionCache::new(), parallelism)
}

/// The traffic-weighted plan with a fresh memo.
fn weighted(
    graph: &RuleGraph,
    rng: &mut StdRng,
    profile: &TrafficProfile,
    parallelism: Parallelism,
) -> TestPlan {
    generate_weighted_with_cache(graph, rng, profile, &mut ExpansionCache::new(), parallelism)
}

/// The expansion stage gives a worker 64 cover paths
/// (`MIN_ITEMS_PER_THREAD` in `src/parallel.rs`), so with 208 covers a
/// budget of 2 threads runs two workers and a budget of 4 or 8 runs
/// three; a smaller plan would compare the inline path with itself.
#[test]
fn plan_is_large_enough_to_fan_out() {
    assert_eq!(
        minimum(&graph(), Parallelism::sequential()).packet_count(),
        208
    );
}

#[test]
fn minimum_plan_identical_across_thread_counts() {
    let graph = graph();
    let baseline = fingerprint(&minimum(&graph, Parallelism::sequential()));
    for threads in [2, 4, 8] {
        let plan = minimum(&graph, Parallelism::with_threads(threads));
        assert_eq!(
            fingerprint(&plan),
            baseline,
            "minimum plan diverged at {threads} threads"
        );
    }
    // The auto setting (all cores) must also match.
    let auto = minimum(&graph, Parallelism::auto());
    assert_eq!(fingerprint(&auto), baseline);
}

#[test]
fn randomized_plan_identical_across_thread_counts_for_fixed_seed() {
    let graph = graph();
    for seed in [0u64, 7, 2018] {
        let mut rng = StdRng::seed_from_u64(seed);
        let baseline = fingerprint(&randomized(&graph, &mut rng, Parallelism::sequential()));
        for threads in [2, 8] {
            let mut rng = StdRng::seed_from_u64(seed);
            let plan = randomized(&graph, &mut rng, Parallelism::with_threads(threads));
            assert_eq!(
                fingerprint(&plan),
                baseline,
                "seed {seed} diverged at {threads} threads"
            );
        }
    }
}

#[test]
fn weighted_plan_identical_across_thread_counts_for_fixed_seed() {
    let graph = graph();
    let profile = TrafficProfile::new(64);
    let mut rng = StdRng::seed_from_u64(11);
    let baseline = fingerprint(&weighted(
        &graph,
        &mut rng,
        &profile,
        Parallelism::sequential(),
    ));
    let mut rng = StdRng::seed_from_u64(11);
    let parallel = weighted(&graph, &mut rng, &profile, Parallelism::with_threads(8));
    assert_eq!(fingerprint(&parallel), baseline);
}

#[test]
fn weighted_plan_with_empty_profile_is_the_uniform_plan() {
    // With no observed traffic every path falls back to uniform sampling,
    // which must consume the RNG exactly as the uniform generator does.
    let graph = graph();
    let profile = TrafficProfile::new(64);
    for seed in [0u64, 7, 2018] {
        let uniform = randomized(
            &graph,
            &mut StdRng::seed_from_u64(seed),
            Parallelism::sequential(),
        );
        let plan = weighted(
            &graph,
            &mut StdRng::seed_from_u64(seed),
            &profile,
            Parallelism::sequential(),
        );
        assert_eq!(fingerprint(&plan), fingerprint(&uniform), "seed {seed}");
    }
}

#[test]
fn warm_cache_plans_identical_to_fresh() {
    // Reusing one expansion memo across runs — including sharing it
    // between the deterministic, randomized and traffic-weighted
    // generators — must not change a single bit of any plan: every cache
    // entry is a pure function of the graph.
    let graph = graph();
    let baseline = fingerprint(&minimum(&graph, Parallelism::sequential()));
    let mut rng = StdRng::seed_from_u64(7);
    let rand_baseline = fingerprint(&randomized(&graph, &mut rng, Parallelism::sequential()));
    // Observed traffic: the minimum plan's probe headers at their entry
    // switches, so weighted picks differ from uniform ones.
    let mut profile = TrafficProfile::new(64);
    for probe in &minimum(&graph, Parallelism::sequential()).probes {
        profile.record(probe.entry_switch, probe.header);
    }
    let mut rng = StdRng::seed_from_u64(7);
    let weighted_baseline = fingerprint(&weighted(
        &graph,
        &mut rng,
        &profile,
        Parallelism::sequential(),
    ));
    let mut cache = ExpansionCache::new();
    for round in 0..3 {
        let plan = generate_with_cache(&graph, &mut cache, Parallelism::sequential());
        assert_eq!(fingerprint(&plan), baseline, "round {round} diverged");
        let mut rng = StdRng::seed_from_u64(7);
        let plan =
            generate_randomized_with_cache(&graph, &mut rng, &mut cache, Parallelism::sequential());
        assert_eq!(fingerprint(&plan), rand_baseline, "round {round} diverged");
        let mut rng = StdRng::seed_from_u64(7);
        let plan = generate_weighted_with_cache(
            &graph,
            &mut rng,
            &profile,
            &mut cache,
            Parallelism::sequential(),
        );
        assert_eq!(
            fingerprint(&plan),
            weighted_baseline,
            "round {round} diverged"
        );
    }
    assert!(cache.hits() > cache.misses(), "reuse should dominate");
    // Warm caches must stay bit-identical across thread counts too.
    let plan = generate_with_cache(&graph, &mut cache, Parallelism::with_threads(8));
    assert_eq!(fingerprint(&plan), baseline);
}

#[test]
fn session_held_cache_matches_fresh_rounds() {
    // A randomized session lends one memo to every round's plan while its
    // RNG stream continues. Each round must equal the plan a fresh memo
    // gives from an identically advanced RNG.
    let graph = graph();
    let mut profile = TrafficProfile::new(64);
    for probe in &minimum(&graph, Parallelism::sequential()).probes {
        profile.record(probe.entry_switch, probe.header);
    }
    let mut held = ExpansionCache::new();
    let mut session_rng = StdRng::seed_from_u64(2018);
    let mut fresh_rng = StdRng::seed_from_u64(2018);
    for round in 0..40 {
        let warm = generate_randomized_with_cache(
            &graph,
            &mut session_rng,
            &mut held,
            Parallelism::sequential(),
        );
        let cold = randomized(&graph, &mut fresh_rng, Parallelism::sequential());
        assert_eq!(fingerprint(&warm), fingerprint(&cold), "round {round}");
    }
    for round in 0..40 {
        let warm = generate_weighted_with_cache(
            &graph,
            &mut session_rng,
            &profile,
            &mut held,
            Parallelism::sequential(),
        );
        let cold = weighted(&graph, &mut fresh_rng, &profile, Parallelism::sequential());
        assert_eq!(
            fingerprint(&warm),
            fingerprint(&cold),
            "weighted round {round}"
        );
    }
    assert!(
        held.hits() > held.misses(),
        "{} hits, {} misses",
        held.hits(),
        held.misses()
    );
}

#[test]
fn warm_cache_does_not_validate_against_another_graph() {
    // Same topology and workload, but a different graph instance: the
    // memo must invalidate instead of serving stale entries.
    let g1 = graph();
    let g2 = graph();
    let mut cache = ExpansionCache::new();
    let _ = generate_with_cache(&g1, &mut cache, Parallelism::sequential());
    assert!(!cache.is_empty());
    let baseline = fingerprint(&minimum(&g2, Parallelism::sequential()));
    let plan = generate_with_cache(&g2, &mut cache, Parallelism::sequential());
    assert_eq!(fingerprint(&plan), baseline);
    // A clone may be mutated independently of the original, so even an
    // (unmutated) clone must not inherit cache validity.
    let g3 = g1.clone();
    let pre = cache.len();
    let _ = generate_with_cache(&g1, &mut cache, Parallelism::sequential());
    assert_eq!(cache.len(), pre, "warm rerun must not regrow the memo");
    let baseline = fingerprint(&minimum(&g3, Parallelism::sequential()));
    let plan = generate_with_cache(&g3, &mut cache, Parallelism::sequential());
    assert_eq!(fingerprint(&plan), baseline);
}

#[test]
fn rng_state_advances_identically() {
    // After generating with different thread counts, the RNG must be in
    // the same state: the next draw from each must agree. This is the
    // strongest form of "the parallel stage consumes no randomness".
    use rand::RngCore;
    let graph = graph();
    let mut rng_seq = StdRng::seed_from_u64(99);
    let mut rng_par = StdRng::seed_from_u64(99);
    let _ = randomized(&graph, &mut rng_seq, Parallelism::sequential());
    let _ = randomized(&graph, &mut rng_par, Parallelism::with_threads(8));
    assert_eq!(rng_seq.next_u64(), rng_par.next_u64());
}

/// Every probe's real path is the uncached first-in-DFS-order expansion
/// of its cover path.
fn assert_canonical(graph: &RuleGraph, plan: &TestPlan, what: &str) {
    for probe in &plan.probes {
        let expect = graph.expand_cover_path(&probe.cover).map(|(real, _)| real);
        assert_eq!(
            Some(&probe.path),
            expect.as_ref(),
            "{what}: cover {:?}",
            probe.cover
        );
    }
}

#[test]
fn detour_graph_plans_match_uncached_expansions() {
    // On detour graphs the canonical expansion is not the shortest legal
    // path and prefix resumes fail (see `support/detour.rs`), so a plan
    // that handed out any other legal expansion would show here: fresh,
    // warm and session-held memos must all plan the uncached expansions,
    // identically.
    let mut packets = 0;
    sdnprobe_integration::check(24, 2018, |rng| {
        let graph = RuleGraph::from_network(&detour::detour_network(rng)).expect("DAG");
        let fresh = minimum(&graph, Parallelism::sequential());
        assert_canonical(&graph, &fresh, "minimum");
        packets += fresh.packet_count();
        let mut held = ExpansionCache::new();
        for round in 0..3 {
            let warm = generate_with_cache(&graph, &mut held, Parallelism::with_threads(2));
            assert_eq!(fingerprint(&warm), fingerprint(&fresh), "round {round}");
        }
        let mut session_rng = StdRng::seed_from_u64(7);
        let mut fresh_rng = StdRng::seed_from_u64(7);
        for round in 0..8 {
            let warm = generate_randomized_with_cache(
                &graph,
                &mut session_rng,
                &mut held,
                Parallelism::sequential(),
            );
            assert_canonical(&graph, &warm, "randomized");
            let cold = randomized(&graph, &mut fresh_rng, Parallelism::sequential());
            assert_eq!(
                fingerprint(&warm),
                fingerprint(&cold),
                "randomized round {round}"
            );
        }
    });
    assert!(packets > 24, "{packets} probes over 24 graphs");
}
