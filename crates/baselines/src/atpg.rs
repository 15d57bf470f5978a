//! ATPG baseline (Zeng et al., *Automatic Test Packet Generation*).
//!
//! ATPG generates test packets over **host-to-host paths only** (probes
//! enter and leave at the network edge) and minimizes them by reducing
//! to Minimum Set Cover, solved with the classic greedy approximation —
//! the NP-complete detour SDNProbe's MLPC avoids (§III-C, §IV). Fault
//! localization is **intersection-based**: a switch is considered faulty
//! when it sits on two failed host-to-host paths; exonerating a switch
//! requires *computing and sending an additional test packet* through
//! it, which is what makes ATPG's localization delay the worst of the
//! four schemes (Fig. 8(b), 8(c)).

use std::collections::{HashMap, HashSet};

use sdnprobe::{accuracy, Accuracy, DetectError, DetectionReport, ProbeConfig, ProbeHarness};
use sdnprobe_dataplane::Network;
use sdnprobe_headerspace::Header;
use sdnprobe_rulegraph::{RuleGraph, VertexId};
use sdnprobe_topology::SwitchId;

/// The ATPG baseline.
#[derive(Debug, Clone)]
pub struct Atpg {
    config: ProbeConfig,
    /// Cap on enumerated host-to-host candidate paths (the paper's
    /// largest topology has 1.7 M legal paths; greedy MSC over a large
    /// sample matches ATPG's practical behaviour).
    max_candidate_paths: usize,
    /// Switches where hosts attach. When set, ATPG test paths may only
    /// start at rules on these switches (it injects from terminals, not
    /// from arbitrary switches like SDNProbe); rules unreachable from
    /// them get one per-rule fallback packet each. When `None`, every
    /// rule-graph source is treated as an edge (charitable default).
    ingress: Option<Vec<SwitchId>>,
}

impl Default for Atpg {
    fn default() -> Self {
        Self {
            config: ProbeConfig::default(),
            max_candidate_paths: 100_000,
            ingress: None,
        }
    }
}

/// The outcome of ATPG's greedy set-cover test generation.
#[derive(Debug, Clone)]
pub struct AtpgPlan {
    /// Chosen host-to-host tested paths.
    pub paths: Vec<Vec<VertexId>>,
    /// Rules not coverable by any end-to-end path from the ingress set
    /// (e.g. the paper's Figure 3 `c1`): each costs ATPG one dedicated
    /// fallback packet.
    pub uncovered: Vec<VertexId>,
}

impl AtpgPlan {
    /// Total test packets ATPG generates: one per chosen path plus one
    /// fallback per rule it cannot reach end-to-end.
    pub fn packet_count(&self) -> usize {
        self.paths.len() + self.uncovered.len()
    }
}

impl Atpg {
    /// Creates an ATPG instance with default parameters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an instance with a custom configuration.
    pub fn with_config(config: ProbeConfig) -> Self {
        Self {
            config,
            ..Self::default()
        }
    }

    /// Restricts test-path injection to rules hosted on the given
    /// host-attached switches (see the `ingress` field).
    #[must_use]
    pub fn with_ingress(mut self, switches: Vec<SwitchId>) -> Self {
        self.ingress = Some(switches);
        self
    }

    /// Enumerates host-to-host legal paths (source rules to sink rules)
    /// up to the candidate cap.
    fn candidate_paths(&self, graph: &RuleGraph) -> Vec<Vec<VertexId>> {
        let mut out = Vec::new();
        let sources: Vec<VertexId> = graph
            .vertex_ids()
            .filter(|&v| graph.predecessors(v).is_empty() && !graph.vertex(v).is_shadowed())
            .filter(|&v| match &self.ingress {
                Some(edges) => edges.contains(&graph.vertex(v).switch),
                None => true,
            })
            .collect();
        for s in sources {
            if out.len() >= self.max_candidate_paths {
                break;
            }
            let mut stack = vec![s];
            self.dfs_paths(graph, &mut stack, &mut out);
        }
        out
    }

    fn dfs_paths(
        &self,
        graph: &RuleGraph,
        stack: &mut Vec<VertexId>,
        out: &mut Vec<Vec<VertexId>>,
    ) {
        if out.len() >= self.max_candidate_paths {
            return;
        }
        let cur = *stack.last().expect("non-empty stack");
        let succs = graph.successors(cur);
        if succs.is_empty() {
            if graph.is_real_path_legal(stack) {
                out.push(stack.clone());
            }
            return;
        }
        let mut extended = false;
        for &next in succs {
            if stack.contains(&next) {
                continue;
            }
            stack.push(next);
            // Prune illegal prefixes early.
            if graph.is_real_path_legal(stack) {
                extended = true;
                self.dfs_paths(graph, stack, out);
            }
            stack.pop();
            if out.len() >= self.max_candidate_paths {
                return;
            }
        }
        if !extended && graph.is_real_path_legal(stack) {
            // Dead end mid-graph still yields a usable maximal path.
            out.push(stack.clone());
        }
    }

    /// Greedy Minimum Set Cover over the candidate host-to-host paths:
    /// repeatedly pick the path covering the most uncovered rules.
    pub fn plan(&self, graph: &RuleGraph) -> AtpgPlan {
        let candidates = self.candidate_paths(graph);
        let mut uncovered: HashSet<VertexId> = graph
            .vertex_ids()
            .filter(|&v| !graph.vertex(v).is_shadowed())
            .collect();
        let mut chosen = Vec::new();
        // Candidate cover sets, shrinking as rules get covered.
        let mut remaining: Vec<(usize, &Vec<VertexId>)> =
            candidates.iter().map(|p| (p.len(), p)).collect();
        while !uncovered.is_empty() && !remaining.is_empty() {
            // Recompute gains and pick the best.
            let (best_idx, best_gain) = remaining
                .iter()
                .enumerate()
                .map(|(i, (_, p))| (i, p.iter().filter(|v| uncovered.contains(v)).count()))
                .max_by_key(|&(_, gain)| gain)
                .expect("non-empty remaining");
            if best_gain == 0 {
                break;
            }
            let (_, path) = remaining.swap_remove(best_idx);
            for v in path {
                uncovered.remove(v);
            }
            chosen.push(path.clone());
        }
        AtpgPlan {
            paths: chosen,
            uncovered: uncovered.into_iter().collect(),
        }
    }

    /// Full ATPG detection: send the MSC probe set, then localize by
    /// intersecting failed paths — generating an *additional* probe
    /// through every suspected rule (counted in `generation_ns`, the
    /// source of ATPG's extra delay).
    ///
    /// # Errors
    ///
    /// Returns [`DetectError`] if the rule graph cannot be built or
    /// instrumentation fails.
    pub fn detect(&self, net: &mut Network) -> Result<DetectionReport, DetectError> {
        let started = std::time::Instant::now();
        let graph = RuleGraph::from_network(net)?;
        let plan = self.plan(&graph);
        let generation_ns = started.elapsed().as_nanos() as u64;

        let mut harness = ProbeHarness::new();
        let mut taken: Vec<Header> = Vec::new();
        let mut probes = Vec::new();
        for path in &plan.paths {
            let header = pick_header(&graph, path, &mut taken);
            probes.push(harness.install_probe(net, &graph, path, header)?);
        }
        // Fallback packets for rules unreachable end-to-end (one each).
        for &v in &plan.uncovered {
            if graph.vertex(v).is_shadowed() {
                continue;
            }
            let path = vec![v];
            let header = pick_header(&graph, &path, &mut taken);
            probes.push(harness.install_probe(net, &graph, &path, header)?);
        }

        let mut report = DetectionReport {
            generation_ns,
            ..DetectionReport::default()
        };
        // Round 1: the base probe set.
        let mut failed_paths: Vec<Vec<VertexId>> = Vec::new();
        send_round(
            net,
            &harness,
            &probes,
            &self.config,
            &mut report,
            |probe, ok| {
                if !ok {
                    failed_paths.push(probe.path.clone());
                }
            },
        );

        // Intersection-based localization: every rule on a failed path is
        // a suspect. A suspect on two failed paths is flagged outright;
        // otherwise ATPG *computes an additional test packet* through it
        // and sends it in its own control-plane round. A failing
        // exoneration probe is itself a failed path, so its rules join
        // the suspect worklist — this sequential compute-and-send loop is
        // what makes ATPG's localization delay the worst of the four
        // schemes (Fig. 8(b), 8(c)).
        let mut flagged: HashSet<VertexId> = HashSet::new();
        let mut blame: HashMap<VertexId, u32> = HashMap::new();
        let mut worklist: Vec<(VertexId, Vec<VertexId>)> = Vec::new();
        let mut seen: HashSet<VertexId> = HashSet::new();
        for path in &failed_paths {
            for &v in path {
                *blame.entry(v).or_insert(0) += 1;
            }
        }
        for path in &failed_paths {
            for &v in path {
                if seen.insert(v) {
                    worklist.push((v, path.clone()));
                }
            }
        }
        while let Some((suspect, failed_via)) = worklist.pop() {
            if flagged.contains(&suspect) {
                continue;
            }
            if blame.get(&suspect).copied().unwrap_or(0) >= 2 {
                flagged.insert(suspect);
                continue;
            }
            let recompute_started = std::time::Instant::now();
            let alt =
                alternative_path_through(&graph, suspect, &failed_via, self.max_candidate_paths);
            report.generation_ns += recompute_started.elapsed().as_nanos() as u64;
            let Some(alt) = alt else {
                // No second path can intersect the suspect: cannot
                // narrow down — flag it (the paper's FP source).
                flagged.insert(suspect);
                continue;
            };
            let header = pick_header(&graph, &alt, &mut taken);
            let probe = harness.install_probe(net, &graph, &alt, header)?;
            let mut failed = false;
            send_round(
                net,
                &harness,
                std::slice::from_ref(&probe),
                &self.config,
                &mut report,
                |_, ok| failed = !ok,
            );
            if failed {
                flagged.insert(suspect);
                for &v in &alt {
                    *blame.entry(v).or_insert(0) += 1;
                    if seen.insert(v) {
                        worklist.push((v, alt.clone()));
                    }
                }
            }
        }

        report.suspicion = blame
            .iter()
            .map(|(v, c)| (graph.vertex(*v).entry, *c))
            .collect();
        report.faulty_rules = flagged.iter().map(|v| graph.vertex(*v).entry).collect();
        report.faulty_rules.sort_unstable();
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
    /// See [`Atpg::detect`].
    pub fn detect_accuracy(
        &self,
        net: &mut Network,
    ) -> Result<(DetectionReport, Accuracy), DetectError> {
        let report = self.detect(net)?;
        let acc = accuracy(net, &report.faulty_switches);
        Ok((report, acc))
    }
}

fn pick_header(graph: &RuleGraph, path: &[VertexId], taken: &mut Vec<Header>) -> Header {
    let header = graph
        .path_header_space(path)
        .unique_header(taken)
        .expect("path must be legal");
    taken.push(header);
    header
}

fn send_round(
    net: &mut Network,
    harness: &ProbeHarness,
    probes: &[sdnprobe::ActiveProbe],
    config: &ProbeConfig,
    report: &mut DetectionReport,
    mut on_result: impl FnMut(&sdnprobe::ActiveProbe, bool),
) {
    report.rounds += 1;
    config.charge_send(net, report, probes.len());
    for p in probes {
        let ok = harness.send(net, p);
        on_result(p, ok);
    }
}

/// Searches for a source-to-sink legal path through `via` that differs
/// from `not_this`. DFS backward to sources and forward to sinks.
fn alternative_path_through(
    graph: &RuleGraph,
    via: VertexId,
    not_this: &[VertexId],
    budget: usize,
) -> Option<Vec<VertexId>> {
    // Enumerate a few prefixes (source -> via) and suffixes (via -> sink)
    // and take the first legal combination that differs from `not_this`.
    let prefixes = backward_paths(graph, via, budget.min(64));
    let suffixes = forward_paths(graph, via, budget.min(64));
    for pre in &prefixes {
        for suf in &suffixes {
            let mut path = pre.clone();
            path.extend_from_slice(&suf[1..]);
            if path != not_this && graph.is_real_path_legal(&path) {
                return Some(path);
            }
        }
    }
    None
}

/// Paths from any source (in-degree 0) ending at `via`, inclusive.
fn backward_paths(graph: &RuleGraph, via: VertexId, cap: usize) -> Vec<Vec<VertexId>> {
    let mut out = Vec::new();
    let mut stack = vec![via];
    fn rec(graph: &RuleGraph, stack: &mut Vec<VertexId>, out: &mut Vec<Vec<VertexId>>, cap: usize) {
        if out.len() >= cap {
            return;
        }
        let cur = *stack.last().expect("non-empty");
        let preds = graph.predecessors(cur);
        if preds.is_empty() {
            let mut p = stack.clone();
            p.reverse();
            out.push(p);
            return;
        }
        for &prev in preds {
            if stack.contains(&prev) {
                continue;
            }
            stack.push(prev);
            rec(graph, stack, out, cap);
            stack.pop();
            if out.len() >= cap {
                return;
            }
        }
    }
    rec(graph, &mut stack, &mut out, cap);
    out
}

/// Paths starting at `via` (inclusive) reaching any sink (out-degree 0).
fn forward_paths(graph: &RuleGraph, via: VertexId, cap: usize) -> Vec<Vec<VertexId>> {
    let mut out = Vec::new();
    let mut stack = vec![via];
    fn rec(graph: &RuleGraph, stack: &mut Vec<VertexId>, out: &mut Vec<Vec<VertexId>>, cap: usize) {
        if out.len() >= cap {
            return;
        }
        let cur = *stack.last().expect("non-empty");
        let succs = graph.successors(cur);
        if succs.is_empty() {
            out.push(stack.clone());
            return;
        }
        for &next in succs {
            if stack.contains(&next) {
                continue;
            }
            stack.push(next);
            rec(graph, stack, out, cap);
            stack.pop();
            if out.len() >= cap {
                return;
            }
        }
    }
    rec(graph, &mut stack, &mut out, cap);
    out
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

    /// Diamond with two flows: alternatives exist for localization.
    fn diamond() -> Network {
        let mut topo = Topology::new(4);
        topo.add_link(SwitchId(0), SwitchId(1));
        topo.add_link(SwitchId(0), SwitchId(2));
        topo.add_link(SwitchId(1), SwitchId(3));
        topo.add_link(SwitchId(2), SwitchId(3));
        let mut net = Network::new(topo);
        let p = |net: &Network, a: usize, b: usize| {
            net.topology()
                .port_towards(SwitchId(a), SwitchId(b))
                .unwrap()
        };
        let (p01, p02, p13, p23) = (p(&net, 0, 1), p(&net, 0, 2), p(&net, 1, 3), p(&net, 2, 3));
        net.install(
            SwitchId(0),
            TableId(0),
            FlowEntry::new(t("00xxxxxx"), Action::Output(p01)),
        )
        .unwrap();
        net.install(
            SwitchId(0),
            TableId(0),
            FlowEntry::new(t("01xxxxxx"), Action::Output(p02)),
        )
        .unwrap();
        net.install(
            SwitchId(1),
            TableId(0),
            FlowEntry::new(t("00xxxxxx"), Action::Output(p13)),
        )
        .unwrap();
        net.install(
            SwitchId(2),
            TableId(0),
            FlowEntry::new(t("01xxxxxx"), Action::Output(p23)),
        )
        .unwrap();
        net.install(
            SwitchId(3),
            TableId(0),
            FlowEntry::new(t("0xxxxxxx"), Action::Output(PortId(40))),
        )
        .unwrap();
        net
    }

    #[test]
    fn greedy_cover_covers_everything() {
        let net = diamond();
        let graph = RuleGraph::from_network(&net).unwrap();
        let plan = Atpg::new().plan(&graph);
        assert!(plan.uncovered.is_empty());
        let covered: HashSet<VertexId> = plan.paths.iter().flatten().copied().collect();
        assert_eq!(covered.len(), graph.vertex_count());
        // Host-to-host only: every path starts at a source, ends at a
        // sink.
        for p in &plan.paths {
            assert!(graph.predecessors(p[0]).is_empty());
            assert!(graph.successors(*p.last().unwrap()).is_empty());
            assert!(graph.is_real_path_legal(p));
        }
    }

    #[test]
    fn atpg_needs_at_least_the_mlpc_minimum() {
        let net = diamond();
        let graph = RuleGraph::from_network(&net).unwrap();
        let atpg_count = Atpg::new().plan(&graph).paths.len();
        let mlpc_count = sdnprobe::generate(&graph).packet_count();
        assert!(
            atpg_count >= mlpc_count,
            "greedy MSC ({atpg_count}) cannot beat the provable minimum ({mlpc_count})"
        );
    }

    #[test]
    fn healthy_network_flags_nothing() {
        let mut net = diamond();
        let report = Atpg::new().detect(&mut net).unwrap();
        assert!(report.faulty_switches.is_empty());
        assert_eq!(report.rounds, 1, "no failures: no exoneration round");
    }

    #[test]
    fn single_fault_is_flagged() {
        let mut net = diamond();
        let victim = net.entries_on(SwitchId(1))[0];
        net.inject_fault(victim, FaultSpec::new(FaultKind::Drop))
            .unwrap();
        let report = Atpg::new().detect(&mut net).unwrap();
        assert!(report.faulty_switches.contains(&SwitchId(1)));
        let acc = accuracy(&net, &report.faulty_switches);
        assert_eq!(acc.false_negative_rate, 0.0, "persistent faults: FNR 0");
    }

    #[test]
    fn edge_fault_without_alternative_causes_fp() {
        // On a pure line there is no alternative path: every switch on
        // the single failed path gets flagged (cannot narrow down).
        let mut topo = Topology::new(3);
        topo.add_link(SwitchId(0), SwitchId(1));
        topo.add_link(SwitchId(1), SwitchId(2));
        let mut net = Network::new(topo);
        for i in 0..3usize {
            let action = if i < 2 {
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
        let victim = net.entries_on(SwitchId(1))[0];
        net.inject_fault(victim, FaultSpec::new(FaultKind::Drop))
            .unwrap();
        let report = Atpg::new().detect(&mut net).unwrap();
        let acc = accuracy(&net, &report.faulty_switches);
        assert_eq!(acc.false_negative_rate, 0.0);
        assert!(
            acc.false_positive_rate > 0.0,
            "no alternatives to intersect: benign switches stay suspected"
        );
    }
}
