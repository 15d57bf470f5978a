//! Multi-table pipeline workloads: per-switch ACL table 0 chaining into
//! a routing table 1 — the OpenFlow 1.3 idiom the single-table KSP
//! workloads don't exercise. Produces networks whose rule graphs rely on
//! pipeline flattening (effective inputs).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sdnprobe_dataplane::{Action, EntryId, FlowEntry, Network, TableId};
use sdnprobe_headerspace::Ternary;
use sdnprobe_topology::{paths::shortest_path, SwitchId, Topology};

use crate::rules::{FlowSpec, SyntheticNetwork, HEADER_BITS, HOST_PORT};

/// Parameters for the pipeline workload.
#[derive(Debug, Clone, Copy)]
pub struct PipelineSpec {
    /// Destination-routed flows (rules land in table 1).
    pub flows: usize,
    /// ACL drop rules per switch (in table 0, above the goto).
    pub acls_per_switch: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PipelineSpec {
    fn default() -> Self {
        Self {
            flows: 20,
            acls_per_switch: 2,
            seed: 7,
        }
    }
}

/// Result of pipeline synthesis: the network plus installed ACL entries
/// (the flows live in [`SyntheticNetwork::flows`]).
#[derive(Debug)]
pub struct PipelineNetwork {
    /// Flows + network, compatible with the fault builders.
    pub synthetic: SyntheticNetwork,
    /// ACL drop entries per switch.
    pub acls: Vec<EntryId>,
    /// The goto entry of each switch.
    pub gotos: Vec<EntryId>,
}

/// Synthesizes a two-table pipeline on every switch: table 0 holds
/// `acls_per_switch` drop rules for random source blocks (bits 16..24 of
/// the 32-bit header) above a catch-all `goto`, and table 1 holds
/// destination-prefix routing for `flows` shortest-path flows.
///
/// # Panics
///
/// Panics if the topology has fewer than two switches.
pub fn synthesize_pipelines(topology: &Topology, spec: &PipelineSpec) -> PipelineNetwork {
    assert!(topology.switch_count() >= 2, "need at least two switches");
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut net = Network::new(topology.clone());
    let mut acls = Vec::new();
    let mut gotos = Vec::new();
    let mut routing_table = Vec::with_capacity(topology.switch_count());
    for s in topology.switches() {
        let t1 = net.add_table(s).expect("switch exists");
        routing_table.push(t1);
        for _ in 0..spec.acls_per_switch {
            // Drop one /8 "source" block (bits 16..23).
            let block = rng.gen_range(1..=255u32) as u128;
            let m = Ternary::from_masks(0xFFu128 << 16, block << 16, HEADER_BITS);
            acls.push(
                net.install(
                    s,
                    TableId(0),
                    FlowEntry::new(m, Action::Drop).with_priority(50),
                )
                .expect("install succeeds"),
            );
        }
        gotos.push(
            net.install(
                s,
                TableId(0),
                FlowEntry::new(Ternary::wildcard(HEADER_BITS), Action::GotoTable(t1)),
            )
            .expect("install succeeds"),
        );
    }
    // Destination-routed flows in table 1.
    let mut flows = Vec::new();
    for block in 1..=spec.flows as u128 {
        let src = SwitchId(rng.gen_range(0..topology.switch_count()));
        let mut dst = SwitchId(rng.gen_range(0..topology.switch_count()));
        while dst == src {
            dst = SwitchId(rng.gen_range(0..topology.switch_count()));
        }
        let Some(route) = shortest_path(topology, src, dst) else {
            continue;
        };
        let prefix = Ternary::prefix(block, 16, HEADER_BITS);
        let mut entries = Vec::new();
        for (i, &hop) in route.iter().enumerate() {
            let action = if i + 1 < route.len() {
                Action::Output(
                    net.topology()
                        .port_towards(hop, route[i + 1])
                        .expect("adjacent hops"),
                )
            } else {
                Action::Output(HOST_PORT)
            };
            entries.push(
                net.install(
                    hop,
                    routing_table[hop.0],
                    FlowEntry::new(prefix, action).with_priority(10),
                )
                .expect("install succeeds"),
            );
        }
        flows.push(FlowSpec {
            prefix,
            path: route,
            entries,
            priority: 10,
            ingress: true,
        });
    }
    PipelineNetwork {
        synthetic: SyntheticNetwork {
            network: net,
            flows,
        },
        acls,
        gotos,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdnprobe_headerspace::HeaderSet;
    use sdnprobe_rulegraph::RuleGraph;
    use sdnprobe_topology::generate::rocketfuel_like;

    fn build() -> PipelineNetwork {
        let topo = rocketfuel_like(12, 20, 5);
        synthesize_pipelines(&topo, &PipelineSpec::default())
    }

    #[test]
    fn pipeline_rules_live_in_table_one() {
        let pn = build();
        let graph = RuleGraph::from_network(&pn.synthetic.network).unwrap();
        for v in graph.vertex_ids() {
            assert_eq!(graph.vertex(v).table, TableId(1));
        }
        // Every switch carries the declared ACL + goto counts.
        assert_eq!(pn.acls.len(), 12 * 2);
        assert_eq!(pn.gotos.len(), 12);
    }

    #[test]
    fn acl_space_is_carved_from_every_routing_rule() {
        let pn = build();
        let net = &pn.synthetic.network;
        let graph = RuleGraph::from_network(net).unwrap();
        for &acl in &pn.acls {
            let acl_entry = net.entry(acl).unwrap();
            let acl_switch = net.location(acl).unwrap().switch;
            for v in graph.vertex_ids() {
                let vert = graph.vertex(v);
                if vert.switch == acl_switch {
                    assert!(
                        vert.input
                            .intersect(&HeaderSet::from(acl_entry.match_field()))
                            .is_empty(),
                        "ACL leak at {v}"
                    );
                }
            }
        }
    }

    #[test]
    fn detection_exact_through_pipelines() {
        use sdnprobe::{accuracy, SdnProbe};
        use sdnprobe_dataplane::{FaultKind, FaultSpec};
        let mut pn = build();
        let flow = pn
            .synthetic
            .flows
            .iter()
            .find(|f| f.entries.len() >= 2)
            .expect("multi-hop flow exists")
            .clone();
        let victim = flow.entries[1];
        pn.synthetic
            .network
            .inject_fault(victim, FaultSpec::new(FaultKind::Drop))
            .unwrap();
        let report = SdnProbe::new().detect(&mut pn.synthetic.network).unwrap();
        let acc = accuracy(&pn.synthetic.network, &report.faulty_switches);
        assert_eq!(acc.false_positive_rate, 0.0);
        assert_eq!(acc.false_negative_rate, 0.0);
        assert!(report.faulty_rules.contains(&victim));
    }

    #[test]
    fn probe_plan_is_minimal_per_flow() {
        let pn = build();
        let graph = RuleGraph::from_network(&pn.synthetic.network).unwrap();
        let plan = sdnprobe::generate(&graph);
        assert!(plan.covers_all_rules(&graph));
        // Disjoint-prefix flows: minimum = number of (unbroken) flows.
        // ACLs may sever chains, so allow a small excess, never less.
        let flows = pn.synthetic.flows.len();
        assert!(plan.packet_count() >= flows.min(graph.vertex_count()));
        assert!(plan.packet_count() <= graph.vertex_count());
    }
}
