//! Fault localization (Algorithm 2).
//!
//! Each round the controller sends its outstanding probes. A probe that
//! does not return (or returns modified) marks its path *suspected*: the
//! suspicion level of every rule on the path is raised and the path is
//! sliced in two for the next round. A rule whose suspicion exceeds the
//! detection threshold while under single-rule test is declared faulty,
//! and its switch reported for manual inspection.
//!
//! Timing is simulated: probes serialize onto the wire at the paper's
//! 250 KB/s controller send rate, and each round costs one control-plane
//! round trip. The virtual clock also drives intermittent faults.

use std::collections::HashMap;

use sdnprobe_dataplane::{EntryId, Network};
use sdnprobe_rulegraph::RuleGraph;
use sdnprobe_topology::SwitchId;

use crate::app::DetectError;
use crate::parallel::Parallelism;
use crate::probe::{ActiveProbe, ProbeHarness, RetryPolicy};

/// Tunable parameters of a detection run.
#[derive(Debug, Clone, Copy)]
pub struct ProbeConfig {
    /// Suspicion threshold above which a rule is declared faulty
    /// (paper default: 3).
    pub suspicion_threshold: u32,
    /// Bytes per probe on the wire.
    pub probe_bytes: usize,
    /// Controller probe send rate (paper: 250 KB/s).
    pub send_rate_bytes_per_sec: u64,
    /// Control-plane round-trip per probing round, in nanoseconds.
    pub round_trip_ns: u64,
    /// Hard cap on probing rounds.
    pub max_rounds: usize,
    /// Re-send the full probe set when the outstanding set drains
    /// (Algorithm 2 lines 15–16) — needed to catch intermittent faults;
    /// `false` terminates once the network looks clean.
    pub restart_when_idle: bool,
    /// Thread budget for the parallel phases (probe sends, path
    /// expansion, batch witness solving). Defaults to all available
    /// cores; results are identical at any setting — see `DESIGN.md`
    /// § Concurrency model.
    pub parallelism: Parallelism,
    /// How many times a failed probe is re-sent for *confirmation*
    /// before its path raises suspicion. Distinguishes benign packet
    /// loss in the error-prone environment from real switch faults: a
    /// benign loss almost never repeats across re-sends, while a
    /// persistent fault fails every confirmation. `0` (the default)
    /// reproduces the loss-naive behaviour exactly.
    pub confirm_retries: u32,
    /// Bounded retries for flow-mods that fail transiently
    /// ([`sdnprobe_dataplane::NetworkError::ChannelDown`]).
    pub flowmod_retries: u32,
    /// Base virtual-time backoff between flow-mod retries (doubled per
    /// attempt, capped).
    pub flowmod_backoff_ns: u64,
}

impl ProbeConfig {
    /// Charges one send of `probes` probes to the wire model every scheme
    /// shares (§VIII): the probes serialize at `send_rate_bytes_per_sec`,
    /// then one control-plane round trip passes. Advances the network's
    /// virtual clock by that time and adds the probes, their bytes and
    /// the time to `report`; counting rounds is the caller's.
    pub fn charge_send(&self, net: &mut Network, report: &mut DetectionReport, probes: usize) {
        let bytes = probes * self.probe_bytes;
        let send_ns = (bytes as u128 * 1_000_000_000 / self.send_rate_bytes_per_sec as u128) as u64;
        net.advance_ns(send_ns + self.round_trip_ns);
        report.probes_sent += probes;
        report.bytes_sent += bytes;
        report.elapsed_ns += send_ns + self.round_trip_ns;
    }

    /// The flow-mod retry policy this configuration implies.
    pub fn retry_policy(&self) -> RetryPolicy {
        RetryPolicy {
            attempts: self.flowmod_retries,
            backoff_ns: self.flowmod_backoff_ns,
        }
    }
}

impl Default for ProbeConfig {
    fn default() -> Self {
        Self {
            suspicion_threshold: 3,
            probe_bytes: 125,
            send_rate_bytes_per_sec: 250_000,
            round_trip_ns: 50_000_000, // 50 ms
            max_rounds: 64,
            restart_when_idle: false,
            parallelism: Parallelism::auto(),
            confirm_retries: 0,
            flowmod_retries: 3,
            flowmod_backoff_ns: 1_000_000, // 1 ms
        }
    }
}

/// Outcome of a detection run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DetectionReport {
    /// Switches declared faulty (suspicion above threshold on one of
    /// their rules under single-rule test).
    pub faulty_switches: Vec<SwitchId>,
    /// The specific rules declared faulty.
    pub faulty_rules: Vec<EntryId>,
    /// Per-rule suspicion levels at the end of the run (for operators
    /// prioritizing manual inspection).
    pub suspicion: HashMap<EntryId, u32>,
    /// Probing rounds executed.
    pub rounds: usize,
    /// Total probes sent (including sliced sub-probes and retries).
    pub probes_sent: usize,
    /// Total bytes sent.
    pub bytes_sent: usize,
    /// Virtual network time consumed (serialization + round trips).
    pub elapsed_ns: u64,
    /// When each rule was declared faulty, as (rule, virtual elapsed
    /// nanoseconds within this run) — lets callers plot time-to-detect.
    pub detections: Vec<(EntryId, u64)>,
    /// Wall-clock time spent generating test packets, filled by the
    /// caller (graph construction + MLPC + headers).
    pub generation_ns: u64,
    /// Rules whose coverage was *degraded*: their probe's
    /// instrumentation could not be (re-)installed even after retries,
    /// so the run quarantined the probe instead of aborting. Sorted and
    /// deduplicated. Empty on a healthy control channel.
    pub degraded: Vec<EntryId>,
    /// Teardown operations that failed even after retries (the harness
    /// keeps tracking them; a later teardown retries exactly those).
    pub teardown_failures: usize,
}

impl DetectionReport {
    /// Merges another report's counters and findings into this one
    /// (used by multi-round randomized detection).
    pub fn absorb(&mut self, other: DetectionReport) {
        for s in other.faulty_switches {
            if !self.faulty_switches.contains(&s) {
                self.faulty_switches.push(s);
            }
        }
        for r in other.faulty_rules {
            if !self.faulty_rules.contains(&r) {
                self.faulty_rules.push(r);
            }
        }
        for (k, v) in other.suspicion {
            let e = self.suspicion.entry(k).or_insert(0);
            *e = (*e).max(v);
        }
        let base = self.elapsed_ns;
        self.detections
            .extend(other.detections.into_iter().map(|(e, t)| (e, base + t)));
        self.rounds += other.rounds;
        self.probes_sent += other.probes_sent;
        self.bytes_sent += other.bytes_sent;
        self.elapsed_ns += other.elapsed_ns;
        self.generation_ns += other.generation_ns;
        self.degraded.extend(other.degraded);
        self.degraded.sort_unstable();
        self.degraded.dedup();
        self.teardown_failures += other.teardown_failures;
    }
}

/// Runs Algorithm 2 over a set of installed probes.
#[derive(Debug)]
pub struct FaultLocalizer {
    config: ProbeConfig,
    /// Suspicion persists across calls (intermittent-fault support).
    suspicion: HashMap<EntryId, u32>,
    flagged_rules: Vec<EntryId>,
}

impl FaultLocalizer {
    /// Creates a localizer with the given configuration.
    pub fn new(config: ProbeConfig) -> Self {
        Self {
            config,
            suspicion: HashMap::new(),
            flagged_rules: Vec::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &ProbeConfig {
        &self.config
    }

    /// Runs rounds of probing and slicing until the outstanding set
    /// drains (or `max_rounds`). Returns the per-run report; suspicion
    /// carries over into subsequent calls on the same localizer.
    ///
    /// Failed probes are *confirmed* before raising suspicion: with
    /// [`ProbeConfig::confirm_retries`] > 0, the probe is re-sent (at a
    /// later virtual time, so benign deterministic loss re-draws) and
    /// any successful confirmation clears it for the round. Sub-probe
    /// installation retries transient flow-mod failures per the
    /// harness's policy (set with [`ProbeHarness::with_retry_policy`];
    /// this run does not change it); a probe whose slices still cannot be
    /// installed is quarantined into [`DetectionReport::degraded`]
    /// rather than aborting the run.
    ///
    /// # Errors
    ///
    /// Returns [`DetectError`] on *permanent* instrumentation failures
    /// or internal invariant violations — after tearing the network's
    /// instrumentation back down best-effort, never leaving test tables
    /// or rewritten rules behind.
    pub fn run(
        &mut self,
        net: &mut Network,
        graph: &RuleGraph,
        harness: &mut ProbeHarness,
        initial: Vec<ActiveProbe>,
    ) -> Result<DetectionReport, DetectError> {
        let mut report = DetectionReport::default();
        let full_set = initial.clone();
        let mut active = initial;
        while report.rounds < self.config.max_rounds {
            if active.is_empty() {
                if self.config.restart_when_idle {
                    active = full_set.clone();
                } else {
                    break;
                }
            }
            report.rounds += 1;
            self.config.charge_send(net, &mut report, active.len());

            // Phase 1 (parallel): send the whole round. Injection only
            // reads the network, so fanning out cannot change outcomes.
            let passed = harness.send_batch(net, &active, self.config.parallelism);
            // Phase 2 (sequential, in probe order): suspicion updates,
            // slicing, and flagging mutate shared state and must run in
            // the same order a single-threaded round would.
            let mut next = Vec::new();
            for (probe, ok) in active.into_iter().zip(passed) {
                if ok {
                    continue;
                }
                if self.confirm_passes(net, harness, &probe, &mut report) {
                    // A confirmation came back: the miss was benign
                    // environmental loss, not the path. No suspicion.
                    continue;
                }
                // Suspected path: raise suspicion on every on-path rule.
                for &v in &probe.path {
                    *self.suspicion.entry(graph.vertex(v).entry).or_insert(0) += 1;
                }
                if probe.path.len() > 1 {
                    match harness.slice(net, graph, &probe) {
                        Ok(Some((left, right))) => {
                            next.push(left);
                            next.push(right);
                        }
                        Ok(None) => {
                            let _ = harness.teardown(net);
                            return Err(DetectError::Internal {
                                context: "a multi-rule path failed to slice",
                            });
                        }
                        Err(e) if e.is_transient() => {
                            // Retries exhausted: quarantine the probe's
                            // rules instead of aborting the whole run.
                            report
                                .degraded
                                .extend(probe.path.iter().map(|&v| graph.vertex(v).entry));
                        }
                        Err(e) => {
                            let _ = harness.teardown(net);
                            return Err(e.into());
                        }
                    }
                } else {
                    let entry = graph.vertex(probe.path[0]).entry;
                    if self.suspicion[&entry] > self.config.suspicion_threshold {
                        if !self.flagged_rules.contains(&entry) {
                            self.flagged_rules.push(entry);
                            report.detections.push((entry, report.elapsed_ns));
                        }
                    } else {
                        next.push(probe); // keep hammering the suspect
                    }
                }
            }
            active = next;
        }
        report.degraded.sort_unstable();
        report.degraded.dedup();
        report.suspicion = self.suspicion.clone();
        report.faulty_rules = self.flagged_rules.clone();
        report.faulty_switches = self.faulty_switches(graph);
        Ok(report)
    }

    /// Re-sends a failed probe up to `confirm_retries` times; true if
    /// any re-send passes (the original miss was benign loss). Each
    /// attempt costs wire time, advancing the virtual clock — which is
    /// exactly what re-draws the deterministic loss outcome.
    fn confirm_passes(
        &self,
        net: &mut Network,
        harness: &ProbeHarness,
        probe: &ActiveProbe,
        report: &mut DetectionReport,
    ) -> bool {
        for _ in 0..self.config.confirm_retries {
            self.config.charge_send(net, report, 1);
            if harness.send(net, probe) {
                return true;
            }
        }
        false
    }

    /// Switches hosting at least one flagged rule.
    fn faulty_switches(&self, graph: &RuleGraph) -> Vec<SwitchId> {
        let mut out: Vec<SwitchId> = self
            .flagged_rules
            .iter()
            .filter_map(|e| graph.vertex_of_entry(*e).map(|v| graph.vertex(v).switch))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Current suspicion table (rule → level).
    pub fn suspicion(&self) -> &HashMap<EntryId, u32> {
        &self.suspicion
    }
}

/// Accuracy of a report against the network's ground truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Accuracy {
    /// Fraction of benign switches incorrectly flagged.
    pub false_positive_rate: f64,
    /// Fraction of faulty switches that evaded detection.
    pub false_negative_rate: f64,
}

/// Computes FPR/FNR for a set of flagged switches given the network's
/// injected-fault ground truth (§VIII's evaluation metrics).
pub fn accuracy(net: &Network, flagged: &[SwitchId]) -> Accuracy {
    let truth = net.faulty_switches();
    let total = net.topology().switch_count();
    let benign = total - truth.len();
    let fp = flagged.iter().filter(|s| !truth.contains(s)).count();
    let fnr_missed = truth.iter().filter(|s| !flagged.contains(s)).count();
    Accuracy {
        false_positive_rate: if benign == 0 {
            0.0
        } else {
            fp as f64 / benign as f64
        },
        false_negative_rate: if truth.is_empty() {
            0.0
        } else {
            fnr_missed as f64 / truth.len() as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generation::generate;
    use sdnprobe_dataplane::{Action, Activation, FaultKind, FaultSpec, FlowEntry, TableId};
    use sdnprobe_headerspace::Ternary;
    use sdnprobe_topology::{PortId, Topology};

    fn t(s: &str) -> Ternary {
        s.parse().expect("valid ternary")
    }

    /// A 5-switch line with one wildcard-ish route, giving a 5-rule path.
    fn line5() -> (Network, RuleGraph) {
        let n = 5;
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
        let graph = RuleGraph::from_network(&net).unwrap();
        (net, graph)
    }

    fn run_detection(net: &mut Network, graph: &RuleGraph, config: ProbeConfig) -> DetectionReport {
        let plan = generate(graph);
        let mut harness = ProbeHarness::new();
        let (probes, _) = harness.install_plan_tolerant(net, graph, &plan).unwrap();
        let mut localizer = FaultLocalizer::new(config);
        localizer.run(net, graph, &mut harness, probes).unwrap()
    }

    #[test]
    fn charge_send_serializes_then_waits_one_round_trip() {
        let (mut net, _) = line5();
        let config = ProbeConfig::default();
        let mut report = DetectionReport::default();
        let start = net.now_ns();
        // 8 probes of 125 B at 250 KB/s take 4 ms, plus the 50 ms trip.
        config.charge_send(&mut net, &mut report, 8);
        assert_eq!((report.probes_sent, report.bytes_sent), (8, 1000));
        assert_eq!(report.elapsed_ns, 54_000_000);
        assert_eq!(net.now_ns() - start, 54_000_000);
        // One more probe: 0.5 ms on the wire, and the counters add up.
        config.charge_send(&mut net, &mut report, 1);
        assert_eq!((report.probes_sent, report.bytes_sent), (9, 1125));
        assert_eq!(report.elapsed_ns, 104_500_000);
        assert_eq!(net.now_ns() - start, 104_500_000);
        assert_eq!(report.rounds, 0, "rounds are the caller's to count");
    }

    #[test]
    fn healthy_network_flags_nothing() {
        let (mut net, graph) = line5();
        let report = run_detection(&mut net, &graph, ProbeConfig::default());
        assert!(report.faulty_switches.is_empty());
        assert_eq!(report.rounds, 1);
        assert!(report.elapsed_ns > 0);
        let acc = accuracy(&net, &report.faulty_switches);
        assert_eq!(acc.false_positive_rate, 0.0);
        assert_eq!(acc.false_negative_rate, 0.0);
    }

    #[test]
    fn persistent_drop_is_localized_exactly() {
        let (mut net, graph) = line5();
        // Fault on switch 2's rule.
        let victim = net.entries_on(SwitchId(2))[0];
        net.inject_fault(victim, FaultSpec::new(FaultKind::Drop))
            .unwrap();
        let report = run_detection(&mut net, &graph, ProbeConfig::default());
        assert_eq!(report.faulty_switches, vec![SwitchId(2)]);
        assert_eq!(report.faulty_rules, vec![victim]);
        let acc = accuracy(&net, &report.faulty_switches);
        assert_eq!(acc.false_positive_rate, 0.0, "exact localization: no FP");
        assert_eq!(acc.false_negative_rate, 0.0, "exact localization: no FN");
    }

    #[test]
    fn persistent_modify_is_localized() {
        let (mut net, graph) = line5();
        let victim = net.entries_on(SwitchId(1))[0];
        net.inject_fault(victim, FaultSpec::new(FaultKind::Modify(t("xxxxxxx1"))))
            .unwrap();
        let report = run_detection(&mut net, &graph, ProbeConfig::default());
        assert_eq!(report.faulty_switches, vec![SwitchId(1)]);
    }

    #[test]
    fn misdirect_is_localized() {
        let (mut net, graph) = line5();
        let victim = net.entries_on(SwitchId(3))[0];
        // Misdirect back toward switch 2.
        let back = net
            .topology()
            .port_towards(SwitchId(3), SwitchId(2))
            .unwrap();
        net.inject_fault(victim, FaultSpec::new(FaultKind::Misdirect(back)))
            .unwrap();
        let report = run_detection(&mut net, &graph, ProbeConfig::default());
        assert_eq!(report.faulty_switches, vec![SwitchId(3)]);
    }

    #[test]
    fn multiple_faults_all_localized_without_fp() {
        let (mut net, graph) = line5();
        let v1 = net.entries_on(SwitchId(1))[0];
        let v3 = net.entries_on(SwitchId(3))[0];
        net.inject_fault(v1, FaultSpec::new(FaultKind::Drop))
            .unwrap();
        net.inject_fault(v3, FaultSpec::new(FaultKind::Drop))
            .unwrap();
        let report = run_detection(&mut net, &graph, ProbeConfig::default());
        // Note: the drop at switch 1 masks switch 3 for full-path probes,
        // but slicing isolates each half independently, so both are
        // found (the paper's > 1 faulty nodes row in Table I).
        assert_eq!(report.faulty_switches, vec![SwitchId(1), SwitchId(3)]);
        let acc = accuracy(&net, &report.faulty_switches);
        assert_eq!(acc.false_positive_rate, 0.0);
        assert_eq!(acc.false_negative_rate, 0.0);
    }

    #[test]
    fn intermittent_fault_found_with_restart() {
        let (mut net, graph) = line5();
        let victim = net.entries_on(SwitchId(2))[0];
        // Active 30% of each 1-second period; rounds advance the clock
        // far enough to land in and out of windows.
        net.inject_fault(
            victim,
            FaultSpec::new(FaultKind::Drop).with_activation(Activation::Intermittent {
                period_ns: 1_000_000_000,
                active_ns: 300_000_000,
            }),
        )
        .unwrap();
        let config = ProbeConfig {
            restart_when_idle: true,
            max_rounds: 200,
            ..ProbeConfig::default()
        };
        let report = run_detection(&mut net, &graph, config);
        assert_eq!(report.faulty_switches, vec![SwitchId(2)]);
        let acc = accuracy(&net, &report.faulty_switches);
        assert_eq!(acc.false_positive_rate, 0.0);
    }

    #[test]
    fn targeting_fault_evades_static_probes() {
        let (mut net, graph) = line5();
        let plan = generate(&graph);
        let probe_header = plan.probes[0].header;
        // Target a header that is NOT the static probe's header.
        let victim_header = Header::new(probe_header.bits() ^ 0b0010_0000, 8);
        let victim = net.entries_on(SwitchId(2))[0];
        net.inject_fault(
            victim,
            FaultSpec::new(FaultKind::Drop)
                .with_activation(Activation::Targeting(Ternary::from_header(victim_header))),
        )
        .unwrap();
        let report = run_detection(&mut net, &graph, ProbeConfig::default());
        // The static probe never exercises the victim header: FN, as the
        // paper's Table I predicts for SDNProbe on targeting faults.
        assert!(report.faulty_switches.is_empty());
        let acc = accuracy(&net, &report.faulty_switches);
        assert_eq!(acc.false_negative_rate, 1.0);
    }

    use sdnprobe_headerspace::Header;

    #[test]
    fn suspicion_accumulates_across_runs() {
        let (mut net, graph) = line5();
        let victim = net.entries_on(SwitchId(2))[0];
        net.inject_fault(victim, FaultSpec::new(FaultKind::Drop))
            .unwrap();
        // Four rounds per run reaches a singleton probe exactly once
        // (full path → halves → quarters → singleton), so a threshold of
        // 10 can only be crossed by accumulating over several run()
        // calls on the same localizer.
        let config = ProbeConfig {
            max_rounds: 4,
            suspicion_threshold: 10,
            ..ProbeConfig::default()
        };
        let plan = generate(&graph);
        let mut harness = ProbeHarness::new();
        let mut localizer = FaultLocalizer::new(config);
        let mut flagged = false;
        for _ in 0..12 {
            let (probes, _) = harness
                .install_plan_tolerant(&mut net, &graph, &plan)
                .unwrap();
            let report = localizer
                .run(&mut net, &graph, &mut harness, probes)
                .unwrap();
            if report.faulty_switches == vec![SwitchId(2)] {
                flagged = true;
                break;
            }
        }
        assert!(flagged, "suspicion must persist across runs");
    }

    #[test]
    fn report_absorb_merges() {
        let mut a = DetectionReport {
            faulty_switches: vec![SwitchId(1)],
            rounds: 2,
            probes_sent: 10,
            ..DetectionReport::default()
        };
        let b = DetectionReport {
            faulty_switches: vec![SwitchId(1), SwitchId(2)],
            rounds: 3,
            probes_sent: 5,
            ..DetectionReport::default()
        };
        a.absorb(b);
        assert_eq!(a.faulty_switches, vec![SwitchId(1), SwitchId(2)]);
        assert_eq!(a.rounds, 5);
        assert_eq!(a.probes_sent, 15);
    }

    #[test]
    fn accuracy_edge_cases() {
        let (net, _) = line5();
        let acc = accuracy(&net, &[SwitchId(0)]);
        assert!(acc.false_positive_rate > 0.0);
        assert_eq!(acc.false_negative_rate, 0.0, "no faults: FNR is 0");
    }
}
