//! End-to-end pipeline tests over synthesized Rocketfuel-like workloads:
//! generation coverage/minimality invariants, detection exactness, and
//! non-interference with normal traffic.

use sdnprobe::{
    accuracy, generate, generate_randomized_with_cache, ExpansionCache, Parallelism, ProbeHarness,
    SdnProbe,
};
use sdnprobe_dataplane::Outcome;
use sdnprobe_headerspace::Header;
use sdnprobe_rulegraph::RuleGraph;
use sdnprobe_topology::generate::rocketfuel_like;
use sdnprobe_workloads::{
    inject_random_basic_faults, synthesize, BasicFaultMix, WorkloadSpec, HEADER_BITS, HOST_PORT,
};

#[test]
fn generation_invariants_across_seeds() {
    for seed in 0..6u64 {
        let topo = rocketfuel_like(
            10 + (seed as usize * 7) % 25,
            18 + (seed as usize * 11) % 40,
            seed,
        );
        let sn = synthesize(
            &topo,
            &WorkloadSpec {
                flows: 20 + seed as usize * 5,
                k: 3,
                nested_fraction: 0.25,
                diversion_fraction: 0.25,
                min_path_len: 4,
                seed,
            },
        );
        let graph = RuleGraph::from_network(&sn.network).unwrap();
        let plan = generate(&graph);
        // Coverage: every rule on a legal probe path.
        assert!(
            plan.covers_all_rules(&graph),
            "seed {seed}: incomplete cover"
        );
        // Legality + header membership per probe.
        for p in &plan.probes {
            assert!(
                graph.is_real_path_legal(&p.path),
                "seed {seed}: illegal path"
            );
            assert!(p.header_space.contains(p.header));
        }
        // Never worse than per-rule.
        assert!(plan.packet_count() <= graph.vertex_count());
        // Unique headers.
        let mut headers: Vec<Header> = plan.probes.iter().map(|p| p.header).collect();
        headers.sort_unstable();
        headers.dedup();
        assert_eq!(
            headers.len(),
            plan.probes.len(),
            "seed {seed}: header collision"
        );
    }
}

#[test]
fn randomized_generation_never_beats_minimum() {
    use rand::{rngs::StdRng, SeedableRng};
    let topo = rocketfuel_like(15, 27, 9);
    let sn = synthesize(
        &topo,
        &WorkloadSpec {
            flows: 40,
            ..WorkloadSpec::default()
        },
    );
    let graph = RuleGraph::from_network(&sn.network).unwrap();
    let minimum = generate(&graph).packet_count();
    let mut rng = StdRng::seed_from_u64(1);
    for _ in 0..10 {
        let plan = generate_randomized_with_cache(
            &graph,
            &mut rng,
            &mut ExpansionCache::new(),
            Parallelism::auto(),
        );
        assert!(plan.packet_count() >= minimum);
        assert!(plan.covers_all_rules(&graph));
    }
}

#[test]
fn every_probe_passes_on_a_healthy_network() {
    let topo = rocketfuel_like(20, 36, 4);
    let mut sn = synthesize(
        &topo,
        &WorkloadSpec {
            flows: 50,
            ..WorkloadSpec::default()
        },
    );
    let graph = RuleGraph::from_network(&sn.network).unwrap();
    let plan = generate(&graph);
    let mut harness = ProbeHarness::new();
    let (probes, _) = harness
        .install_plan_tolerant(&mut sn.network, &graph, &plan)
        .unwrap();
    for (i, p) in probes.iter().enumerate() {
        assert!(
            harness.send(&sn.network, p),
            "probe {i} failed on healthy network"
        );
    }
}

#[test]
fn instrumentation_does_not_disturb_flows() {
    let topo = rocketfuel_like(14, 24, 8);
    let mut sn = synthesize(
        &topo,
        &WorkloadSpec {
            flows: 30,
            nested_fraction: 0.0,
            ..WorkloadSpec::default()
        },
    );
    // Record normal behaviour of every flow.
    let baseline: Vec<Outcome> = sn
        .flows
        .iter()
        .map(|f| {
            sn.network
                .inject(f.path[0], Header::new(f.prefix.value_bits(), HEADER_BITS))
                .outcome
        })
        .collect();
    for (f, o) in sn.flows.iter().zip(&baseline) {
        assert_eq!(
            *o,
            Outcome::LeftNetwork {
                switch: *f.path.last().unwrap(),
                port: HOST_PORT
            }
        );
    }
    let graph = RuleGraph::from_network(&sn.network).unwrap();
    let plan = generate(&graph);
    let mut harness = ProbeHarness::new();
    let (probes, _) = harness
        .install_plan_tolerant(&mut sn.network, &graph, &plan)
        .unwrap();
    // Normal traffic = any header that is not one of the probes' (a
    // packet bit-identical to a probe is indistinguishable by design).
    let probe_headers: Vec<Header> = probes.iter().map(|p| p.header).collect();
    for (f, o) in sn.flows.iter().zip(&baseline) {
        let normal = sdnprobe_headerspace::solver::WitnessQuery::new(f.prefix)
            .avoid_headers(probe_headers.iter().copied())
            .solve()
            .expect("flow prefix has spare headers");
        let now = sn.network.inject(f.path[0], normal).outcome;
        assert_eq!(now, *o, "flow {} disturbed by instrumentation", f.prefix);
    }
    // And teardown restores the exact entry count.
    let with_instrumentation = sn.network.entry_count();
    harness.teardown(&mut sn.network).unwrap();
    assert!(sn.network.entry_count() < with_instrumentation);
}

#[test]
fn detection_is_exact_for_random_fault_sets() {
    for seed in [100u64, 200, 300] {
        let topo = rocketfuel_like(14, 24, seed);
        let mut sn = synthesize(
            &topo,
            &WorkloadSpec {
                flows: 30,
                nested_fraction: 0.1,
                ..WorkloadSpec::default()
            },
        );
        inject_random_basic_faults(&mut sn, 0.15, BasicFaultMix::Mixed, seed);
        let truth = sn.network.faulty_switches();
        let report = SdnProbe::new().detect(&mut sn.network).unwrap();
        let acc = accuracy(&sn.network, &report.faulty_switches);
        assert_eq!(
            acc.false_positive_rate, 0.0,
            "seed {seed}: FP {:?} truth {:?}",
            report.faulty_switches, truth
        );
        assert_eq!(
            acc.false_negative_rate, 0.0,
            "seed {seed}: FN {:?} truth {:?}",
            report.faulty_switches, truth
        );
    }
}

#[test]
fn incremental_updates_keep_probe_generation_consistent() {
    use sdnprobe_dataplane::{Action, FlowEntry, TableId};
    use sdnprobe_rulegraph::RuleUpdate;
    let topo = rocketfuel_like(10, 16, 77);
    let sn = synthesize(
        &topo,
        &WorkloadSpec {
            flows: 15,
            nested_fraction: 0.0,
            ..WorkloadSpec::default()
        },
    );
    let mut net = sn.network;
    let mut graph = RuleGraph::from_network(&net).unwrap();
    // Install a new high-priority rule on some switch and replay it.
    let prefix: sdnprobe_headerspace::Ternary =
        sdnprobe_headerspace::Ternary::prefix(0xBEEF, 16, HEADER_BITS);
    let id = net
        .install(
            sn.flows[0].path[0],
            TableId(0),
            FlowEntry::new(prefix, Action::Output(HOST_PORT)).with_priority(30),
        )
        .unwrap();
    graph
        .apply_update(&net, &RuleUpdate::Added { entry: id })
        .unwrap();
    let scratch = RuleGraph::from_network(&net).unwrap();
    // Probe plans from the incremental and scratch graphs agree on size
    // and coverage.
    let a = generate(&graph);
    let b = generate(&scratch);
    assert_eq!(a.packet_count(), b.packet_count());
    assert!(a.covers_all_rules(&graph));
    assert!(b.covers_all_rules(&scratch));
}
