//! Static data-plane diagnostics.
//!
//! The paper positions SDNProbe next to configuration checkers like HSA
//! and NetPlumber [24], [25]: those verify *policies* statically, while
//! SDNProbe verifies *behaviour* actively. A probe-based tool still
//! wants the static half for triage — before spending probes, the
//! controller can flag rules no packet can ever hit, rules unreachable
//! from the network edge, and switch-level black holes (header regions a
//! switch silently drops for lack of any matching rule).

use sdnprobe_headerspace::HeaderSet;
use sdnprobe_topology::SwitchId;

use crate::graph::RuleGraph;
use crate::vertex::VertexId;

/// A static finding about the analysed policy.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Finding {
    /// The rule is fully shadowed by higher-priority rules: no packet
    /// can ever trigger it (dead configuration).
    ShadowedRule {
        /// The dead rule.
        vertex: VertexId,
    },
    /// The rule can fire, but no legal path from any source rule leads
    /// into it — only traffic originating at its own switch can hit it
    /// (the paper's Figure 3 `c1` shape).
    MidNetworkOnly {
        /// The isolated rule.
        vertex: VertexId,
    },
    /// A region of header space arrives at a switch (via some rule on a
    /// neighbour) but matches nothing there: a black hole.
    BlackHole {
        /// The switch dropping the traffic.
        switch: SwitchId,
        /// The rule on the neighbour whose output is (partially)
        /// swallowed.
        from: VertexId,
        /// The swallowed header region.
        headers: HeaderSet,
    },
}

/// Result of a static policy scan.
#[derive(Debug, Clone, Default)]
pub struct Diagnostics {
    /// All findings, in deterministic order.
    pub findings: Vec<Finding>,
}

impl Diagnostics {
    /// Number of findings.
    pub fn len(&self) -> usize {
        self.findings.len()
    }

    /// True when the policy is clean.
    pub fn is_empty(&self) -> bool {
        self.findings.is_empty()
    }

    /// Iterates over shadowed-rule findings.
    pub fn shadowed(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.findings.iter().filter_map(|f| match f {
            Finding::ShadowedRule { vertex } => Some(*vertex),
            _ => None,
        })
    }

    /// Iterates over black-hole findings.
    pub fn black_holes(&self) -> impl Iterator<Item = (&SwitchId, &VertexId, &HeaderSet)> {
        self.findings.iter().filter_map(|f| match f {
            Finding::BlackHole {
                switch,
                from,
                headers,
            } => Some((switch, from, headers)),
            _ => None,
        })
    }
}

impl RuleGraph {
    /// Scans the policy for dead rules, mid-network-only rules, and
    /// black holes.
    ///
    /// # Examples
    ///
    /// ```
    /// use sdnprobe_dataplane::{Action, FlowEntry, Network, TableId};
    /// use sdnprobe_rulegraph::RuleGraph;
    /// use sdnprobe_topology::{PortId, SwitchId, Topology};
    ///
    /// let mut topo = Topology::new(2);
    /// topo.add_link(SwitchId(0), SwitchId(1));
    /// let mut net = Network::new(topo);
    /// let p = net.topology().port_towards(SwitchId(0), SwitchId(1)).unwrap();
    /// // Switch 0 forwards 00xxxxxx to switch 1, which only matches
    /// // half of it: the other half black-holes.
    /// net.install(SwitchId(0), TableId(0),
    ///     FlowEntry::new("00xxxxxx".parse()?, Action::Output(p)))?;
    /// net.install(SwitchId(1), TableId(0),
    ///     FlowEntry::new("000xxxxx".parse()?, Action::Output(PortId(40))))?;
    /// let graph = RuleGraph::from_network(&net)?;
    /// let diag = graph.diagnose();
    /// assert_eq!(diag.black_holes().count(), 1);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn diagnose(&self) -> Diagnostics {
        let mut findings = Vec::new();
        // Dead rules.
        for v in self.vertex_ids() {
            if self.vertex(v).is_shadowed() {
                findings.push(Finding::ShadowedRule { vertex: v });
            }
        }
        // Mid-network-only rules: live rules with no predecessors that
        // do have a same-table sibling chain... precisely: no step-1
        // in-edges AND not hosted where the packet could plausibly
        // enter (heuristic: some other rule forwards toward this switch,
        // i.e. the switch is interior for this header space).
        for v in self.vertex_ids() {
            let vert = self.vertex(v);
            if vert.is_shadowed() || !self.predecessors(v).is_empty() {
                continue;
            }
            // Does any neighbour rule output toward this switch with
            // headers overlapping this rule's match? Then traffic for
            // this rule "should" arrive via the fabric but never
            // triggers it legally — it is reachable only by mid-network
            // injection.
            let arrives_via_fabric = self.vertex_ids().any(|u| {
                u != v
                    && self.vertex(u).next_switch == Some(vert.switch)
                    && self.vertex(u).match_field.overlaps(&vert.match_field)
            });
            if arrives_via_fabric {
                findings.push(Finding::MidNetworkOnly { vertex: v });
            }
        }
        // Black holes: for each rule forwarding into a switch, the part
        // of its output matched by none of the target's rules.
        for u in self.vertex_ids() {
            let vert = self.vertex(u);
            let Some(target) = vert.next_switch else {
                continue;
            };
            if vert.output().is_empty() {
                continue;
            }
            let mut swallowed = vert.output().clone();
            for v in self.vertex_ids() {
                if self.vertex(v).switch == target {
                    swallowed = swallowed.subtract_ternary(&self.vertex(v).match_field);
                }
                if swallowed.is_empty() {
                    break;
                }
            }
            // Non-forwarding entries (drops, punts) are intentional
            // sinks, not black holes; subtract them too.
            if !swallowed.is_empty() {
                swallowed = self.subtract_non_forwarding(target, swallowed);
            }
            if !swallowed.is_empty() {
                findings.push(Finding::BlackHole {
                    switch: target,
                    from: u,
                    headers: swallowed,
                });
            }
        }
        Diagnostics { findings }
    }

    /// Subtracts match fields of the non-forwarding rules this graph
    /// does not represent as vertices. The graph does not retain them,
    /// so this conservative pass uses the match fields recorded during
    /// input resolution: any header removed from some vertex's input by
    /// shadowing is treated as intentionally handled.
    fn subtract_non_forwarding(&self, switch: SwitchId, mut space: HeaderSet) -> HeaderSet {
        for v in self.vertex_ids() {
            let vert = self.vertex(v);
            if vert.switch != switch {
                continue;
            }
            // input = match − overlaps; match − input = the shadowed
            // region, which includes every non-forwarding overlap.
            let shadowed_region = HeaderSet::from(vert.match_field).subtract(&vert.input);
            space = space.subtract(&shadowed_region);
            if space.is_empty() {
                break;
            }
        }
        space
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdnprobe_dataplane::{Action, FlowEntry, Network, TableId};
    use sdnprobe_headerspace::Ternary;
    use sdnprobe_topology::{PortId, Topology};

    fn t(s: &str) -> Ternary {
        s.parse().expect("valid ternary")
    }

    fn two_switches() -> Network {
        let mut topo = Topology::new(2);
        topo.add_link(SwitchId(0), SwitchId(1));
        Network::new(topo)
    }

    #[test]
    fn clean_policy_has_no_findings() {
        let mut net = two_switches();
        let p = net
            .topology()
            .port_towards(SwitchId(0), SwitchId(1))
            .unwrap();
        net.install(
            SwitchId(0),
            TableId(0),
            FlowEntry::new(t("00xxxxxx"), Action::Output(p)),
        )
        .unwrap();
        net.install(
            SwitchId(1),
            TableId(0),
            FlowEntry::new(t("00xxxxxx"), Action::Output(PortId(40))),
        )
        .unwrap();
        let graph = RuleGraph::from_network(&net).unwrap();
        let diag = graph.diagnose();
        assert!(diag.is_empty(), "unexpected findings: {:?}", diag.findings);
    }

    #[test]
    fn shadowed_rule_reported() {
        let mut net = two_switches();
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
            FlowEntry::new(t("0xxxxxxx"), Action::Output(p)).with_priority(5),
        )
        .unwrap();
        net.install(
            SwitchId(1),
            TableId(0),
            FlowEntry::new(t("0xxxxxxx"), Action::Output(PortId(40))),
        )
        .unwrap();
        let graph = RuleGraph::from_network(&net).unwrap();
        let diag = graph.diagnose();
        let dead_v = graph.vertex_of_entry(dead).unwrap();
        assert!(diag.shadowed().any(|v| v == dead_v));
    }

    #[test]
    fn black_hole_detected_and_quantified() {
        let mut net = two_switches();
        let p = net
            .topology()
            .port_towards(SwitchId(0), SwitchId(1))
            .unwrap();
        net.install(
            SwitchId(0),
            TableId(0),
            FlowEntry::new(t("00xxxxxx"), Action::Output(p)),
        )
        .unwrap();
        // Switch 1 only handles half the forwarded space.
        net.install(
            SwitchId(1),
            TableId(0),
            FlowEntry::new(t("000xxxxx"), Action::Output(PortId(40))),
        )
        .unwrap();
        let graph = RuleGraph::from_network(&net).unwrap();
        let diag = graph.diagnose();
        let (switch, _, headers) = diag.black_holes().next().expect("black hole");
        assert_eq!(*switch, SwitchId(1));
        assert!(headers.contains_ternary(&t("001xxxxx")));
        assert!(!headers.contains_ternary(&t("000xxxxx")));
    }

    #[test]
    fn intentional_drop_is_not_a_black_hole() {
        let mut net = two_switches();
        let p = net
            .topology()
            .port_towards(SwitchId(0), SwitchId(1))
            .unwrap();
        net.install(
            SwitchId(0),
            TableId(0),
            FlowEntry::new(t("00xxxxxx"), Action::Output(p)),
        )
        .unwrap();
        net.install(
            SwitchId(1),
            TableId(0),
            FlowEntry::new(t("000xxxxx"), Action::Output(PortId(40))),
        )
        .unwrap();
        // An explicit ACL drop for the other half, shadowing a broad
        // forwarding rule so the graph can see the intent.
        net.install(
            SwitchId(1),
            TableId(0),
            FlowEntry::new(t("001xxxxx"), Action::Drop).with_priority(9),
        )
        .unwrap();
        net.install(
            SwitchId(1),
            TableId(0),
            FlowEntry::new(t("00xxxxxx"), Action::Output(PortId(41))),
        )
        .unwrap();
        let graph = RuleGraph::from_network(&net).unwrap();
        let diag = graph.diagnose();
        assert_eq!(diag.black_holes().count(), 0, "{:?}", diag.findings);
    }

    #[test]
    fn mid_network_only_rule_reported() {
        // Figure 3 c1-style: traffic for the /24 is diverted one hop
        // earlier, so the /24 rule downstream never sees fabric traffic.
        let mut topo = Topology::new(3);
        topo.add_link(SwitchId(0), SwitchId(1));
        topo.add_link(SwitchId(1), SwitchId(2));
        let mut net = Network::new(topo);
        let p01 = net
            .topology()
            .port_towards(SwitchId(0), SwitchId(1))
            .unwrap();
        let p12 = net
            .topology()
            .port_towards(SwitchId(1), SwitchId(2))
            .unwrap();
        net.install(
            SwitchId(0),
            TableId(0),
            FlowEntry::new(t("00xxxxxx"), Action::Output(p01)),
        )
        .unwrap();
        // Switch 1: diversion of the 000 sub-space to a host port, rest
        // onward.
        net.install(
            SwitchId(1),
            TableId(0),
            FlowEntry::new(t("000xxxxx"), Action::Output(PortId(40))).with_priority(9),
        )
        .unwrap();
        net.install(
            SwitchId(1),
            TableId(0),
            FlowEntry::new(t("00xxxxxx"), Action::Output(p12)),
        )
        .unwrap();
        // Switch 2: a rule for the diverted 000 sub-space (stranded) and
        // one for the rest.
        let stranded = net
            .install(
                SwitchId(2),
                TableId(0),
                FlowEntry::new(t("000xxxxx"), Action::Output(PortId(40))).with_priority(9),
            )
            .unwrap();
        net.install(
            SwitchId(2),
            TableId(0),
            FlowEntry::new(t("00xxxxxx"), Action::Output(PortId(40))),
        )
        .unwrap();
        let graph = RuleGraph::from_network(&net).unwrap();
        let diag = graph.diagnose();
        let stranded_v = graph.vertex_of_entry(stranded).unwrap();
        assert!(
            diag.findings
                .iter()
                .any(|f| matches!(f, Finding::MidNetworkOnly { vertex } if *vertex == stranded_v)),
            "{:?}",
            diag.findings
        );
    }
}
