//! Per-rule testing baseline (Chi et al. [12], Monocle [31]).
//!
//! Sends **one test packet per flow entry** along a three-hop path —
//! previous hop → target switch → next hop — and blames the *target*
//! switch when the packet does not come back. The paper's §VII analysis:
//! no false negatives for persistent basic faults (every rule is probed
//! directly), but false positives appear with multiple faults because a
//! neighbour's misbehaviour is indistinguishable from the target's; the
//! short tested paths also make stealthy detours less likely (lower
//! detour FNR than SDNProbe/ATPG, Fig. 9(b)).

use std::collections::HashMap;

use sdnprobe::{accuracy, Accuracy, DetectError, DetectionReport, ProbeConfig, ProbeHarness};
use sdnprobe_dataplane::Network;
use sdnprobe_headerspace::Header;
use sdnprobe_rulegraph::{RuleGraph, VertexId};

/// One planned per-rule probe: the 3-hop (or shorter) tested path and
/// which of its rules is the one under test.
#[derive(Debug, Clone)]
pub struct PerRulePath {
    /// The tested path (1–3 rules).
    pub path: Vec<VertexId>,
    /// Index into `path` of the rule under test.
    pub target: usize,
}

/// The per-rule baseline tester.
#[derive(Debug, Clone, Default)]
pub struct PerRuleTester {
    config: ProbeConfig,
}

impl PerRuleTester {
    /// Creates a tester with default timing parameters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a tester with a custom configuration (threshold is used
    /// as the blame threshold across rounds).
    pub fn with_config(config: ProbeConfig) -> Self {
        Self { config }
    }

    /// Plans one three-hop (or shorter, at the network edge) tested path
    /// per coverable rule. Returns `(paths, shadowed_count)`.
    pub fn plan(&self, graph: &RuleGraph) -> (Vec<PerRulePath>, usize) {
        let mut paths = Vec::new();
        let mut shadowed = 0usize;
        for v in graph.vertex_ids() {
            if graph.vertex(v).is_shadowed() {
                shadowed += 1;
                continue;
            }
            paths.push(self.three_hop_path(graph, v));
        }
        (paths, shadowed)
    }

    /// Best-effort `prev → v → next` path that is legal; degrades to two
    /// hops or the bare rule at network edges.
    fn three_hop_path(&self, graph: &RuleGraph, v: VertexId) -> PerRulePath {
        let preds = graph.predecessors(v);
        let succs = graph.successors(v);
        // Try full three-hop combinations first.
        for &p in preds.iter().take(8) {
            for &s in succs.iter().take(8) {
                let path = vec![p, v, s];
                if graph.is_real_path_legal(&path) {
                    return PerRulePath { path, target: 1 };
                }
            }
        }
        for &p in preds.iter().take(8) {
            let path = vec![p, v];
            if graph.is_real_path_legal(&path) {
                return PerRulePath { path, target: 1 };
            }
        }
        for &s in succs.iter().take(8) {
            let path = vec![v, s];
            if graph.is_real_path_legal(&path) {
                return PerRulePath { path, target: 0 };
            }
        }
        PerRulePath {
            path: vec![v],
            target: 0,
        }
    }

    /// Full per-rule detection: probes every rule each round, blames the
    /// target switch of every failed probe, and flags rules whose blame
    /// count exceeds the threshold (one round suffices for persistent
    /// faults when the threshold is 0; the default threshold of 3 needs
    /// four failing rounds, mirroring Algorithm 2's suspicion).
    ///
    /// # Errors
    ///
    /// Returns [`DetectError`] if the rule graph cannot be built or
    /// instrumentation fails.
    pub fn detect(&self, net: &mut Network) -> Result<DetectionReport, DetectError> {
        let started = std::time::Instant::now();
        let graph = RuleGraph::from_network(net)?;
        let (paths, _) = self.plan(&graph);
        let generation_ns = started.elapsed().as_nanos() as u64;

        let mut harness = ProbeHarness::new();
        let mut taken: Vec<Header> = Vec::new();
        let mut probes = Vec::new();
        for planned in &paths {
            let path = &planned.path;
            let header = graph
                .path_header_space(path)
                .unique_header(&taken)
                .expect("planned path is legal");
            taken.push(header);
            probes.push((
                harness.install_probe(net, &graph, path, header)?,
                planned.path[planned.target],
            ));
        }

        let mut report = DetectionReport {
            generation_ns,
            ..DetectionReport::default()
        };
        let mut blame: HashMap<VertexId, u32> = HashMap::new();
        let mut flagged: Vec<VertexId> = Vec::new();
        for _ in 0..self.config.max_rounds {
            report.rounds += 1;
            self.config.charge_send(net, &mut report, probes.len());
            let mut unresolved_failure = false;
            for (probe, target) in &probes {
                if harness.send(net, probe) {
                    continue;
                }
                let target = *target;
                let b = blame.entry(target).or_insert(0);
                *b += 1;
                if *b > self.config.suspicion_threshold {
                    if !flagged.contains(&target) {
                        flagged.push(target);
                    }
                } else {
                    unresolved_failure = true;
                }
            }
            // Stop once every failing target is already flagged (or the
            // network is clean); keep going only in monitoring mode.
            if !unresolved_failure && !self.config.restart_when_idle {
                break;
            }
        }
        report.suspicion = blame
            .iter()
            .map(|(v, c)| (graph.vertex(*v).entry, *c))
            .collect();
        report.faulty_rules = flagged.iter().map(|v| graph.vertex(*v).entry).collect();
        let mut switches: Vec<_> = flagged.iter().map(|v| graph.vertex(*v).switch).collect();
        switches.sort_unstable();
        switches.dedup();
        report.faulty_switches = switches;
        harness.teardown(net)?;
        Ok(report)
    }

    /// Convenience: detection accuracy against ground truth.
    ///
    /// # Errors
    ///
    /// See [`PerRuleTester::detect`].
    pub fn detect_accuracy(
        &self,
        net: &mut Network,
    ) -> Result<(DetectionReport, Accuracy), DetectError> {
        let report = self.detect(net)?;
        let acc = accuracy(net, &report.faulty_switches);
        Ok((report, acc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdnprobe_dataplane::{Action, FaultKind, FaultSpec, FlowEntry, TableId};
    use sdnprobe_headerspace::Ternary;
    use sdnprobe_topology::{PortId, SwitchId, Topology};

    fn t(s: &str) -> Ternary {
        s.parse().expect("valid ternary")
    }

    fn line(n: usize) -> Network {
        let mut topo = Topology::new(n);
        for i in 0..n - 1 {
            topo.add_link(SwitchId(i), SwitchId(i + 1));
        }
        let mut net = Network::new(topo);
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
            net.install(
                SwitchId(i),
                TableId(0),
                FlowEntry::new(t("00xxxxxx"), action),
            )
            .unwrap();
        }
        net
    }

    #[test]
    fn plans_one_path_per_rule() {
        let net = line(5);
        let graph = RuleGraph::from_network(&net).unwrap();
        let (paths, shadowed) = PerRuleTester::new().plan(&graph);
        assert_eq!(paths.len(), 5);
        assert_eq!(shadowed, 0);
        // Interior rules get 3-hop paths; edge rules get shorter ones.
        assert!(paths.iter().any(|p| p.path.len() == 3));
        for p in &paths {
            assert!(graph.is_real_path_legal(&p.path));
            assert!(p.target < p.path.len());
        }
    }

    #[test]
    fn healthy_network_no_blame() {
        let mut net = line(5);
        let report = PerRuleTester::new().detect(&mut net).unwrap();
        assert!(report.faulty_switches.is_empty());
        assert_eq!(report.probes_sent, 5, "one probe per rule, one round");
    }

    #[test]
    fn single_fault_is_found_but_neighbors_blamed_too() {
        let mut net = line(5);
        let victim = net.entries_on(SwitchId(2))[0];
        net.inject_fault(victim, FaultSpec::new(FaultKind::Drop))
            .unwrap();
        let config = ProbeConfig {
            suspicion_threshold: 0,
            restart_when_idle: false,
            ..ProbeConfig::default()
        };
        let report = PerRuleTester::with_config(config).detect(&mut net).unwrap();
        // The real fault is always flagged (no FN)...
        assert!(report.faulty_switches.contains(&SwitchId(2)));
        // ...but per-rule testing also blames neighbours whose 3-hop
        // paths cross the faulty switch (the paper's FP mechanism).
        let acc = accuracy(&net, &report.faulty_switches);
        assert_eq!(acc.false_negative_rate, 0.0);
        assert!(
            acc.false_positive_rate > 0.0,
            "expected neighbour false positives, flagged: {:?}",
            report.faulty_switches
        );
    }

    #[test]
    fn probe_count_equals_rule_count() {
        let mut net = line(7);
        let report = PerRuleTester::new().detect(&mut net).unwrap();
        assert_eq!(report.probes_sent, 7);
    }
}
