//! Command implementations behind the `sdnprobe` binary.

use sdnprobe::{accuracy, Monitor, Parallelism, ProbeConfig, RandomizedSdnProbe, SdnProbe};
use sdnprobe_dataplane::{Action, Impairments, Network};
use sdnprobe_rulegraph::{Finding, RuleGraph};
use sdnprobe_topology::generate::rocketfuel_like;
use sdnprobe_workloads::{synthesize, synthesize_campus, CampusSpec, WorkloadSpec};

use crate::spec::{ActionSpec, RuleSpec, ScenarioSpec, SpecError, TopologySpec};

/// Converts a built network back into a portable scenario.
pub fn scenario_from_network(description: &str, net: &Network) -> ScenarioSpec {
    let topo = net.topology();
    let links = topo
        .links()
        .iter()
        .map(|l| (l.a.0, l.b.0))
        .collect::<Vec<_>>();
    let mut rules = Vec::new();
    for switch in topo.switches() {
        for id in net.entries_on(switch) {
            let entry = net.entry(id).expect("listed entry exists");
            let action = match entry.action() {
                Action::Output(port) => match topo.peer_of(switch, port) {
                    Some(peer) => ActionSpec::Forward { to: peer.0 },
                    None => ActionSpec::HostPort { port: port.0 },
                },
                Action::Drop => ActionSpec::Drop,
                Action::ToController => ActionSpec::Controller,
                // Goto tables only appear in probe instrumentation,
                // which is never exported.
                Action::GotoTable(_) => continue,
            };
            let set_field = if entry.set_field().is_wildcard() {
                None
            } else {
                Some(entry.set_field().to_string())
            };
            rules.push(RuleSpec {
                switch: switch.0,
                match_field: entry.match_field().to_string(),
                set_field,
                action,
                priority: entry.priority(),
            });
        }
    }
    ScenarioSpec {
        description: description.to_string(),
        topology: TopologySpec {
            switches: topo.switch_count(),
            links,
        },
        rules,
        faults: Vec::new(),
        activations: Vec::new(),
    }
}

/// `synth`: generate a scenario from the evaluation workload generator,
/// optionally compromising `faults` random rules with drop faults.
pub fn synth(
    switches: usize,
    links: usize,
    flows: usize,
    faults: usize,
    seed: u64,
) -> ScenarioSpec {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let topo = rocketfuel_like(switches, links, seed);
    let sn = synthesize(
        &topo,
        &WorkloadSpec {
            flows,
            k: 3,
            nested_fraction: 0.2,
            diversion_fraction: 0.25,
            min_path_len: 4,
            seed,
        },
    );
    let mut spec = scenario_from_network(
        &format!("synthesized: {switches} switches, {links} links, {flows} flows, seed {seed}"),
        &sn.network,
    );
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xFA17);
    let mut indices: Vec<usize> = (0..spec.rules.len()).collect();
    indices.shuffle(&mut rng);
    for rule in indices.into_iter().take(faults) {
        spec.faults.push(crate::spec::FaultSpecDef::Drop { rule });
    }
    spec
}

/// `synth --campus`: the paper's §VIII-A backbone.
pub fn synth_campus(seed: u64) -> ScenarioSpec {
    let campus = synthesize_campus(&CampusSpec {
        seed,
        ..CampusSpec::default()
    });
    scenario_from_network("campus backbone (550+579 entries)", &campus.network)
}

/// Builds a [`ProbeConfig`] honouring an optional `--threads` cap.
fn config_with_threads(threads: Option<usize>) -> ProbeConfig {
    ProbeConfig {
        parallelism: Parallelism { threads },
        ..ProbeConfig::default()
    }
}

/// Error-prone-environment knobs shared by `detect` and `monitor`:
/// `--loss-rate`, `--ctrl-loss-rate`, `--flowmod-failure-rate`,
/// `--chaos-seed`, and `--confirm-retries`. The default is the
/// unimpaired, loss-naive behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ChaosOpts {
    /// Per-link benign packet loss probability.
    pub loss_rate: f64,
    /// Controller-channel (packet-in) loss probability.
    pub ctrl_loss_rate: f64,
    /// Transient flow-mod failure probability.
    pub flowmod_failure_rate: f64,
    /// Seed of the deterministic chaos stream.
    pub chaos_seed: u64,
    /// Confirmation re-sends before a failed probe raises suspicion.
    pub confirm_retries: u32,
}

impl ChaosOpts {
    /// Installs the impairments on the network and the confirmation
    /// policy in the probing configuration.
    fn apply(&self, net: &mut Network, config: &mut ProbeConfig) {
        net.set_impairments(
            Impairments::new(self.chaos_seed)
                .with_loss_rate(self.loss_rate)
                .with_ctrl_loss_rate(self.ctrl_loss_rate)
                .with_flowmod_failure_rate(self.flowmod_failure_rate),
        );
        config.confirm_retries = self.confirm_retries;
    }
}

/// `plan`: probe-plan summary lines for a scenario.
///
/// # Errors
///
/// Returns [`SpecError`] when the scenario is invalid or its policy
/// loops.
pub fn plan(
    spec: &ScenarioSpec,
    verbose: bool,
    threads: Option<usize>,
) -> Result<Vec<String>, SpecError> {
    let (net, _) = spec.build()?;
    let (graph, plan) = SdnProbe::with_config(config_with_threads(threads))
        .plan(&net)
        .map_err(|e| SpecError::Invalid(e.to_string()))?;
    let mut out = vec![
        format!(
            "rules: {} ({} shadowed), step-1 edges: {}, closure edges: {}",
            graph.vertex_count(),
            plan.shadowed.len(),
            graph.step1_edge_count(),
            graph.closure_edge_count()
        ),
        format!(
            "minimum probe set: {} packets (per-rule would need {})",
            plan.packet_count(),
            graph.vertex_count()
        ),
    ];
    if verbose {
        for (i, p) in plan.probes.iter().enumerate() {
            out.push(format!(
                "probe {i}: header {} in at s{} out at s{} covering {} rules",
                p.header,
                p.entry_switch.0,
                p.terminal_switch.0,
                p.path.len()
            ));
        }
    }
    Ok(out)
}

/// `diagnose`: static findings for a scenario.
///
/// # Errors
///
/// Returns [`SpecError`] when the scenario is invalid or its policy
/// loops.
pub fn diagnose(spec: &ScenarioSpec) -> Result<Vec<String>, SpecError> {
    let (net, entries) = spec.build()?;
    let graph = RuleGraph::from_network(&net).map_err(|e| SpecError::Invalid(e.to_string()))?;
    let diag = graph.diagnose();
    let rule_index = |v| {
        let entry = graph.vertex(v).entry;
        entries.iter().position(|e| *e == entry)
    };
    let mut out = Vec::new();
    for f in &diag.findings {
        out.push(match f {
            Finding::ShadowedRule { vertex } => format!(
                "shadowed rule #{:?}: no packet can ever trigger it",
                rule_index(*vertex)
            ),
            Finding::MidNetworkOnly { vertex } => format!(
                "rule #{:?} is reachable only by mid-network injection",
                rule_index(*vertex)
            ),
            Finding::BlackHole {
                switch,
                from,
                headers,
            } => format!(
                "black hole at s{}: headers {} from rule #{:?} match nothing",
                switch.0,
                headers,
                rule_index(*from)
            ),
            // `Finding` is non-exhaustive: future variants print debug.
            other => format!("{other:?}"),
        });
    }
    if out.is_empty() {
        out.push("policy is clean: no shadowed rules, no black holes".to_string());
    }
    Ok(out)
}

/// `detect`: run detection on a scenario and report against its declared
/// faults.
///
/// # Errors
///
/// Returns [`SpecError`] when the scenario is invalid or detection
/// cannot be set up.
pub fn detect(
    spec: &ScenarioSpec,
    randomized: bool,
    rounds: usize,
    seed: u64,
    threads: Option<usize>,
    chaos: ChaosOpts,
) -> Result<Vec<String>, SpecError> {
    let (mut net, _) = spec.build()?;
    let mut config = config_with_threads(threads);
    chaos.apply(&mut net, &mut config);
    let report = if randomized {
        RandomizedSdnProbe::with_config(config, seed)
            .detect(&mut net, rounds)
            .map_err(|e| SpecError::Invalid(e.to_string()))?
    } else {
        SdnProbe::with_config(config)
            .detect(&mut net)
            .map_err(|e| SpecError::Invalid(e.to_string()))?
    };
    let acc = accuracy(&net, &report.faulty_switches);
    let mut out = vec![
        format!(
            "flagged switches: {:?} (rules {:?})",
            report.faulty_switches, report.faulty_rules
        ),
        format!(
            "rounds: {}, probes: {}, bytes: {}, virtual time: {:.3}s, generation: {:.3}s",
            report.rounds,
            report.probes_sent,
            report.bytes_sent,
            report.elapsed_ns as f64 / 1e9,
            report.generation_ns as f64 / 1e9
        ),
    ];
    if !report.degraded.is_empty() || report.teardown_failures > 0 {
        out.push(format!(
            "degraded coverage: {} rule(s), unrestored teardown ops: {}",
            report.degraded.len(),
            report.teardown_failures
        ));
    }
    if !spec.faults.is_empty() {
        out.push(format!(
            "vs declared faults: FPR {:.3}, FNR {:.3}",
            acc.false_positive_rate, acc.false_negative_rate
        ));
    }
    Ok(out)
}

/// `monitor`: run a continuous randomized monitoring loop for `rounds`
/// rounds, reporting each round that flags something new.
///
/// # Errors
///
/// Returns [`SpecError`] when the scenario is invalid or monitoring
/// cannot be set up.
pub fn monitor(
    spec: &ScenarioSpec,
    rounds: u64,
    seed: u64,
    threads: Option<usize>,
    chaos: ChaosOpts,
) -> Result<Vec<String>, SpecError> {
    let (mut net, _) = spec.build()?;
    let mut config = config_with_threads(threads);
    chaos.apply(&mut net, &mut config);
    let mut mon =
        Monitor::with_config(&net, seed, config).map_err(|e| SpecError::Invalid(e.to_string()))?;
    let mut out = Vec::new();
    for _ in 0..rounds {
        let event = mon
            .tick(&mut net)
            .map_err(|e| SpecError::Invalid(e.to_string()))?;
        if event.has_news() {
            out.push(format!(
                "round {}: newly flagged {:?} (total {:?})",
                event.round, event.newly_flagged, event.flagged
            ));
        }
    }
    out.push(format!(
        "after {} rounds: {} switch(es) flagged: {:?}",
        mon.rounds(),
        mon.flagged().len(),
        mon.flagged()
    ));
    if !spec.faults.is_empty() {
        let acc = accuracy(&net, mon.flagged());
        out.push(format!(
            "vs declared faults: FPR {:.3}, FNR {:.3}",
            acc.false_positive_rate, acc.false_negative_rate
        ));
    }
    Ok(out)
}

/// `trace`: inject a concrete header at a switch and print the
/// hop-by-hop pipeline walk (the simulator's ground-truth view).
///
/// `header` is a binary string (`0`/`1`) of the scenario's header
/// length, read like the paper's `H[k]` (first character = bit 0).
///
/// # Errors
///
/// Returns [`SpecError`] when the scenario, switch, or header is
/// invalid.
pub fn trace(spec: &ScenarioSpec, at: usize, header: &str) -> Result<Vec<String>, SpecError> {
    use sdnprobe_headerspace::Ternary;
    let (net, entries) = spec.build()?;
    if at >= spec.topology.switches {
        return Err(SpecError::Invalid(format!("switch {at} out of range")));
    }
    let pattern: Ternary = header
        .parse()
        .map_err(|e| SpecError::Invalid(format!("header: {e}")))?;
    if !pattern.is_concrete() {
        return Err(SpecError::Invalid(
            "header must be concrete (no wildcards)".to_string(),
        ));
    }
    // `build` checked that every rule parses and that all share a width.
    if let Some(rule) = spec.rules.first() {
        let width = rule.match_field.parse::<Ternary>().map_or(0, |m| m.len());
        if pattern.len() != width {
            return Err(SpecError::Invalid(format!(
                "header is {} bits but the scenario's rules are {width}",
                pattern.len()
            )));
        }
    }
    let trace = net.inject(sdnprobe_topology::SwitchId(at), pattern.min_header());
    let mut out = Vec::new();
    for (i, step) in trace.steps.iter().enumerate() {
        let rule = entries.iter().position(|e| *e == step.entry);
        out.push(format!(
            "hop {i}: s{} {} matched rule #{} with header {}",
            step.switch.0,
            step.table,
            rule.map(|r| r.to_string())
                .unwrap_or_else(|| "?".to_string()),
            step.header
        ));
    }
    out.push(format!(
        "outcome: {:?} with final header {}",
        trace.outcome, trace.final_header
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synth_round_trips_and_plans() {
        let spec = synth(8, 14, 12, 0, 3);
        assert!(spec.rules.len() > 10);
        let json = spec.to_json();
        let back = ScenarioSpec::from_json(&json).unwrap();
        let lines = plan(&back, false, None).unwrap();
        assert!(lines[1].contains("minimum probe set"));
        // A --threads cap never changes the plan.
        assert_eq!(lines, plan(&back, false, Some(1)).unwrap());
        assert_eq!(lines, plan(&back, false, Some(8)).unwrap());
    }

    #[test]
    fn synth_campus_matches_paper_sizes() {
        let spec = synth_campus(1);
        assert_eq!(spec.rules.len(), 550 + 579);
        assert_eq!(spec.topology.switches, 2);
    }

    #[test]
    fn detect_reports_declared_faults() {
        let mut spec = synth(8, 14, 12, 0, 5);
        spec.faults
            .push(crate::spec::FaultSpecDef::Drop { rule: 0 });
        let lines = detect(&spec, false, 1, 7, None, ChaosOpts::default()).unwrap();
        assert!(lines.iter().any(|l| l.contains("FNR 0.000")), "{lines:?}");
    }

    #[test]
    fn detect_with_chaos_confirms_away_benign_loss() {
        let mut spec = synth(8, 14, 12, 0, 5);
        spec.faults
            .push(crate::spec::FaultSpecDef::Drop { rule: 0 });
        let chaos = ChaosOpts {
            loss_rate: 0.1,
            ctrl_loss_rate: 0.1,
            chaos_seed: 42,
            confirm_retries: 2,
            ..ChaosOpts::default()
        };
        let lines = detect(&spec, false, 1, 7, None, chaos).unwrap();
        assert!(lines.iter().any(|l| l.contains("FPR 0.000")), "{lines:?}");
        assert!(lines.iter().any(|l| l.contains("FNR 0.000")), "{lines:?}");
    }

    #[test]
    fn diagnose_flags_black_hole() {
        use crate::spec::*;
        let spec = ScenarioSpec {
            description: String::new(),
            topology: TopologySpec {
                switches: 2,
                links: vec![(0, 1)],
            },
            rules: vec![
                RuleSpec {
                    switch: 0,
                    match_field: "00xxxxxx".into(),
                    set_field: None,
                    action: ActionSpec::Forward { to: 1 },
                    priority: 0,
                },
                RuleSpec {
                    switch: 1,
                    match_field: "000xxxxx".into(),
                    set_field: None,
                    action: ActionSpec::HostPort { port: 40 },
                    priority: 0,
                },
            ],
            faults: vec![],
            activations: vec![],
        };
        let lines = diagnose(&spec).unwrap();
        assert!(lines.iter().any(|l| l.contains("black hole")), "{lines:?}");
    }

    #[test]
    fn synth_with_faults_is_detectable() {
        let spec = synth(10, 18, 15, 2, 11);
        assert_eq!(spec.faults.len(), 2);
        let lines = detect(&spec, false, 1, 7, Some(2), ChaosOpts::default()).unwrap();
        assert!(lines.iter().any(|l| l.contains("FNR 0.000")), "{lines:?}");
    }

    #[test]
    fn monitor_flags_declared_faults() {
        let mut spec = synth(10, 18, 15, 0, 13);
        spec.faults
            .push(crate::spec::FaultSpecDef::Drop { rule: 3 });
        let lines = monitor(&spec, 20, 5, None, ChaosOpts::default()).unwrap();
        assert!(lines.iter().any(|l| l.contains("FNR 0.000")), "{lines:?}");
    }

    #[test]
    fn trace_walks_the_pipeline() {
        let spec = synth(8, 14, 12, 0, 3);
        // Use the first rule's own match as a concrete header, injected
        // at its switch.
        let header = {
            let m: sdnprobe_headerspace::Ternary = spec.rules[0].match_field.parse().unwrap();
            m.min_header().to_string()
        };
        let lines = trace(&spec, spec.rules[0].switch, &header).unwrap();
        assert!(lines.last().unwrap().starts_with("outcome:"), "{lines:?}");
        assert!(lines.len() >= 2, "at least one hop plus outcome: {lines:?}");
        // Wildcards and other widths are rejected.
        assert!(trace(&spec, 0, "xxxx").is_err());
        let short = &header[..header.len() - 1];
        let err = trace(&spec, 0, short).unwrap_err().to_string();
        assert!(
            err.contains(&format!("{} bits", short.len()))
                && err.contains(&header.len().to_string()),
            "{err}"
        );
        assert!(trace(&spec, 999, &header).is_err());
    }

    #[test]
    fn plan_verbose_lists_probes() {
        let spec = synth(6, 10, 8, 0, 9);
        let lines = plan(&spec, true, None).unwrap();
        assert!(lines.iter().any(|l| l.starts_with("probe 0:")));
    }
}
