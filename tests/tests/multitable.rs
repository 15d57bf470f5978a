//! Multi-table policy pipelines: ACL table 0 chaining into a routing
//! table 1 — OpenFlow 1.3's signature feature. The rule graph flattens
//! goto chains into effective inputs; probes must cover the routing
//! rules behind the ACL and localization must stay exact.

use sdnprobe::{accuracy, generate, SdnProbe};
use sdnprobe_dataplane::{Action, EntryId, FaultKind, FaultSpec, FlowEntry, Network, TableId};
use sdnprobe_headerspace::{Header, HeaderSet, Ternary};
use sdnprobe_rulegraph::{RuleGraph, RuleGraphError};
use sdnprobe_topology::{PortId, SwitchId, Topology};

fn t(s: &str) -> Ternary {
    s.parse().expect("valid ternary")
}

/// Three switches in a line. Every switch runs a two-table pipeline:
/// table 0 holds an ACL (drop one source block, goto otherwise) and
/// table 1 holds destination routing for two flows.
fn acl_pipeline() -> (Network, Vec<EntryId>) {
    let mut topo = Topology::new(3);
    topo.add_link(SwitchId(0), SwitchId(1));
    topo.add_link(SwitchId(1), SwitchId(2));
    let mut net = Network::new(topo);
    let mut routing = Vec::new();
    for i in 0..3usize {
        let s = SwitchId(i);
        let t1 = net.add_table(s).unwrap();
        // ACL: drop headers 11xxxxxx, send the rest to routing.
        net.install(
            s,
            TableId(0),
            FlowEntry::new(t("11xxxxxx"), Action::Drop).with_priority(10),
        )
        .unwrap();
        net.install(
            s,
            TableId(0),
            FlowEntry::new(t("xxxxxxxx"), Action::GotoTable(t1)),
        )
        .unwrap();
        // Routing: two destination flows.
        let action = if i < 2 {
            Action::Output(net.topology().port_towards(s, SwitchId(i + 1)).unwrap())
        } else {
            Action::Output(PortId(40))
        };
        routing.push(
            net.install(s, t1, FlowEntry::new(t("00xxxxxx"), action))
                .unwrap(),
        );
        routing.push(
            net.install(s, t1, FlowEntry::new(t("01xxxxxx"), action))
                .unwrap(),
        );
    }
    (net, routing)
}

#[test]
fn effective_inputs_exclude_acl_dropped_space() {
    let (net, routing) = acl_pipeline();
    let graph = RuleGraph::from_network(&net).unwrap();
    assert_eq!(
        graph.vertex_count(),
        6,
        "six routing rules, no goto/drop vertices"
    );
    for &r in &routing {
        let v = graph.vertex_of_entry(r).unwrap();
        let vert = graph.vertex(v);
        assert_eq!(vert.table, TableId(1));
        assert!(!vert.is_shadowed());
        // The ACL region never reaches routing.
        assert!(
            vert.input
                .intersect(&HeaderSet::from(t("11xxxxxx")))
                .is_empty(),
            "ACL space leaked into {v}"
        );
    }
}

#[test]
fn probes_cover_rules_behind_the_acl_exactly_once_minimum() {
    let (net, _) = acl_pipeline();
    let graph = RuleGraph::from_network(&net).unwrap();
    let plan = generate(&graph);
    assert!(plan.covers_all_rules(&graph));
    // Two flows, each a 3-rule chain: the minimum is 2 probes.
    assert_eq!(plan.packet_count(), 2);
    for p in &plan.probes {
        assert_eq!(p.path.len(), 3);
        // Probe headers avoid the ACL region (they must survive table 0).
        assert!(!t("11xxxxxx").matches(p.header));
    }
}

#[test]
fn probes_actually_fly_through_the_pipeline() {
    let (mut net, _) = acl_pipeline();
    let graph = RuleGraph::from_network(&net).unwrap();
    let plan = generate(&graph);
    let mut harness = sdnprobe::ProbeHarness::new();
    let (probes, _) = harness
        .install_plan_tolerant(&mut net, &graph, &plan)
        .unwrap();
    for p in &probes {
        assert!(harness.send(&net, p), "healthy pipeline probe failed");
    }
}

#[test]
fn localization_is_exact_behind_gotos() {
    let (mut net, routing) = acl_pipeline();
    // Compromise switch 1's routing rule for flow 00.
    let victim = routing[2];
    net.inject_fault(victim, FaultSpec::new(FaultKind::Drop))
        .unwrap();
    let report = SdnProbe::new().detect(&mut net).unwrap();
    assert_eq!(report.faulty_rules, vec![victim]);
    let acc = accuracy(&net, &report.faulty_switches);
    assert_eq!(acc.false_positive_rate, 0.0);
    assert_eq!(acc.false_negative_rate, 0.0);
}

#[test]
fn normal_and_acl_traffic_unaffected_by_instrumentation() {
    let (mut net, _) = acl_pipeline();
    let graph = RuleGraph::from_network(&net).unwrap();
    let plan = generate(&graph);
    let probe_headers: Vec<Header> = plan.probes.iter().map(|p| p.header).collect();
    // ACL-dropped traffic stays dropped; a non-probe flow header flows.
    let acl_header = Header::new(0b0000_0011, 8);
    let normal = sdnprobe_headerspace::solver::WitnessQuery::new(t("00xxxxxx"))
        .avoid_headers(probe_headers.iter().copied())
        .solve()
        .unwrap();
    let drop_before = net.inject(SwitchId(0), acl_header).outcome;
    let flow_before = net.inject(SwitchId(0), normal).outcome;
    let mut harness = sdnprobe::ProbeHarness::new();
    harness
        .install_plan_tolerant(&mut net, &graph, &plan)
        .unwrap();
    assert_eq!(net.inject(SwitchId(0), acl_header).outcome, drop_before);
    assert_eq!(net.inject(SwitchId(0), normal).outcome, flow_before);
}

#[test]
fn incremental_updates_track_pipeline_changes() {
    use sdnprobe_rulegraph::RuleUpdate;
    let (mut net, _) = acl_pipeline();
    let mut graph = RuleGraph::from_network(&net).unwrap();
    // Tighten switch 1's ACL: now also drops 01xxxxxx — the routing rule
    // for flow 01 on switch 1 loses that input and the flow's chain
    // breaks there.
    let acl = net
        .install(
            SwitchId(1),
            TableId(0),
            FlowEntry::new(t("01xxxxxx"), Action::Drop).with_priority(20),
        )
        .unwrap();
    graph
        .apply_update(&net, &RuleUpdate::Added { entry: acl })
        .unwrap();
    let scratch = RuleGraph::from_network(&net).unwrap();
    assert_eq!(graph.vertex_count(), scratch.vertex_count());
    assert_eq!(graph.step1_edge_count(), scratch.step1_edge_count());
    assert_eq!(graph.closure_edge_count(), scratch.closure_edge_count());
    // And the plan shrinks coverage accordingly but still covers all
    // live rules.
    let plan = generate(&graph);
    assert!(plan.covers_all_rules(&graph));
}

#[test]
fn goto_with_set_field_is_rejected() {
    let mut topo = Topology::new(2);
    topo.add_link(SwitchId(0), SwitchId(1));
    let mut net = Network::new(topo);
    let t1 = net.add_table(SwitchId(0)).unwrap();
    net.install(
        SwitchId(0),
        TableId(0),
        FlowEntry::new(t("xxxxxxxx"), Action::GotoTable(t1)).with_set_field(t("1xxxxxxx")),
    )
    .unwrap();
    net.install(
        SwitchId(0),
        t1,
        FlowEntry::new(t("xxxxxxxx"), Action::Output(PortId(40))),
    )
    .unwrap();
    assert!(matches!(
        RuleGraph::from_network(&net),
        Err(RuleGraphError::SetFieldOnGoto(_))
    ));
}
