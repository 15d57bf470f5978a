//! Edge cases of the probe harness: repeated installs, repeated
//! teardowns, shared terminals, and deep slicing.

use sdnprobe::{generate, ProbeHarness};
use sdnprobe_dataplane::{Action, FlowEntry, Network, TableId};
use sdnprobe_headerspace::Ternary;
use sdnprobe_rulegraph::RuleGraph;
use sdnprobe_topology::{PortId, SwitchId, Topology};

/// A line of `n` switches carrying `flows` disjoint wildcard flows that
/// all terminate at the same last switch.
fn line(n: usize, flows: u8) -> Network {
    let mut topo = Topology::new(n);
    for i in 0..n - 1 {
        topo.add_link(SwitchId(i), SwitchId(i + 1));
    }
    let mut net = Network::new(topo);
    for f in 0..flows {
        // Flow f matches headers whose low 4 bits equal f.
        let m = Ternary::from_masks(0xF, f as u128, 8);
        for i in 0..n {
            let action = if i + 1 < n {
                Action::Output(
                    net.topology()
                        .port_towards(SwitchId(i), SwitchId(i + 1))
                        .unwrap(),
                )
            } else {
                Action::Output(PortId(40))
            };
            net.install(SwitchId(i), TableId(0), FlowEntry::new(m, action))
                .unwrap();
        }
    }
    net
}

#[test]
fn shared_terminal_switch_hosts_many_test_entries() {
    let mut net = line(4, 6);
    let graph = RuleGraph::from_network(&net).unwrap();
    let plan = generate(&graph);
    assert_eq!(plan.packet_count(), 6, "one probe per disjoint flow");
    let mut harness = ProbeHarness::new();
    let (probes, _) = harness
        .install_plan_tolerant(&mut net, &graph, &plan)
        .unwrap();
    // All six probes terminate at the same switch; one duplicate table
    // serves all of them.
    assert_eq!(net.table_count(SwitchId(3)).unwrap(), 2);
    assert_eq!(harness.test_entry_count(), 6);
    for p in &probes {
        assert!(harness.send(&net, p));
    }
}

#[test]
fn reinstalling_the_same_plan_is_idempotent() {
    let mut net = line(3, 2);
    let graph = RuleGraph::from_network(&net).unwrap();
    let plan = generate(&graph);
    let mut harness = ProbeHarness::new();
    harness
        .install_plan_tolerant(&mut net, &graph, &plan)
        .unwrap();
    let count = net.entry_count();
    let (probes, _) = harness
        .install_plan_tolerant(&mut net, &graph, &plan)
        .unwrap();
    assert_eq!(net.entry_count(), count, "second install adds nothing");
    for p in &probes {
        assert!(harness.send(&net, p));
    }
}

#[test]
fn teardown_is_idempotent_and_restores() {
    let mut net = line(3, 2);
    let before = net.entry_count();
    let graph = RuleGraph::from_network(&net).unwrap();
    let plan = generate(&graph);
    let mut harness = ProbeHarness::new();
    let (probes, _) = harness
        .install_plan_tolerant(&mut net, &graph, &plan)
        .unwrap();
    harness.teardown(&mut net).unwrap();
    harness.teardown(&mut net).unwrap(); // second teardown is a no-op
    assert_eq!(net.entry_count(), before);
    // Probes no longer return after teardown.
    assert!(!harness.send(&net, &probes[0]));
}

#[test]
fn slicing_to_singletons_covers_every_rule_once() {
    let mut net = line(7, 1);
    let graph = RuleGraph::from_network(&net).unwrap();
    let plan = generate(&graph);
    let mut harness = ProbeHarness::new();
    let (probes, _) = harness
        .install_plan_tolerant(&mut net, &graph, &plan)
        .unwrap();
    // Slice the single 7-rule probe all the way down.
    let mut stack = vec![probes[0].clone()];
    let mut singletons = Vec::new();
    while let Some(p) = stack.pop() {
        match harness.slice(&mut net, &graph, &p).unwrap() {
            Some((l, r)) => {
                stack.push(l);
                stack.push(r);
            }
            None => singletons.push(p),
        }
    }
    assert_eq!(singletons.len(), 7);
    let mut covered: Vec<_> = singletons.iter().map(|p| p.path[0]).collect();
    covered.sort_unstable();
    covered.dedup();
    assert_eq!(covered.len(), 7, "each rule exactly one singleton");
    for p in &singletons {
        assert!(harness.send(&net, p), "singleton {:?} must pass", p.path);
    }
}

#[test]
fn probes_on_distinct_flows_do_not_cross_talk() {
    let mut net = line(4, 3);
    let graph = RuleGraph::from_network(&net).unwrap();
    let plan = generate(&graph);
    let mut harness = ProbeHarness::new();
    let (probes, _) = harness
        .install_plan_tolerant(&mut net, &graph, &plan)
        .unwrap();
    // Injecting probe A's header expecting probe B's observation fails.
    let a = &probes[0];
    let b = &probes[1];
    let trace = net.inject(a.entry_switch, a.header);
    let obs = trace.observation().expect("probe returns");
    assert_eq!(obs, (a.expected_switch, a.expected_header));
    assert_ne!(obs.1, b.expected_header);
}
