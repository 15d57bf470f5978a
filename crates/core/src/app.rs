//! High-level entry points: `SdnProbe` and `RandomizedSdnProbe`.
//!
//! These tie the pipeline together the way the paper's controller
//! application does: build the rule graph, generate the (minimum or
//! randomized) probe set, instrument terminal switches, send probes,
//! localize faults, and clean up.

use std::error::Error;
use std::fmt;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sdnprobe_dataplane::{Network, NetworkError};
use sdnprobe_rulegraph::{ExpansionCache, RuleGraph, RuleGraphError};

use crate::generation::{
    generate_randomized_with_cache, generate_weighted_with_cache, generate_with_cache,
};
use crate::localize::{DetectionReport, FaultLocalizer, ProbeConfig};
use crate::plan::TestPlan;
use crate::probe::{ProbeHarness, TeardownError};
use crate::traffic::TrafficProfile;

/// Errors from a full detection run.
#[derive(Debug)]
#[non_exhaustive]
pub enum DetectError {
    /// Rule-graph construction failed (e.g. the policy loops).
    Graph(RuleGraphError),
    /// Instrumenting or probing the network failed permanently.
    Network(NetworkError),
    /// Restoring the network's instrumentation failed even after
    /// retries; the harness keeps tracking the leftovers.
    Teardown(TeardownError),
    /// An internal invariant was violated (a bug, not an environment
    /// failure); the run tore its instrumentation down before
    /// surfacing this.
    Internal {
        /// What went wrong.
        context: &'static str,
    },
}

impl fmt::Display for DetectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Graph(e) => write!(f, "rule graph construction failed: {e}"),
            Self::Network(e) => write!(f, "network operation failed: {e}"),
            Self::Teardown(e) => write!(f, "network restoration failed: {e}"),
            Self::Internal { context } => write!(f, "internal invariant violated: {context}"),
        }
    }
}

impl Error for DetectError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Graph(e) => Some(e),
            Self::Network(e) => Some(e),
            Self::Teardown(e) => Some(e),
            Self::Internal { .. } => None,
        }
    }
}

impl From<RuleGraphError> for DetectError {
    fn from(e: RuleGraphError) -> Self {
        Self::Graph(e)
    }
}

impl From<NetworkError> for DetectError {
    fn from(e: NetworkError) -> Self {
        Self::Network(e)
    }
}

impl From<TeardownError> for DetectError {
    fn from(e: TeardownError) -> Self {
        Self::Teardown(e)
    }
}

/// The SDNProbe controller application: provably minimum probe sets and
/// exact localization of persistent basic faults.
///
/// # Examples
///
/// See the crate-level quick start in [`crate`].
#[derive(Debug, Clone, Default)]
pub struct SdnProbe {
    config: ProbeConfig,
}

impl SdnProbe {
    /// Creates an instance with the paper's default parameters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an instance with a custom configuration.
    pub fn with_config(config: ProbeConfig) -> Self {
        Self { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &ProbeConfig {
        &self.config
    }

    /// Builds the rule graph and the minimum test plan without touching
    /// the network (pre-computation; the paper's Table II measures this).
    ///
    /// # Errors
    ///
    /// Returns a graph error if the policy loops or has no forwarding
    /// rules.
    pub fn plan(&self, net: &Network) -> Result<(RuleGraph, TestPlan), RuleGraphError> {
        let graph = RuleGraph::from_network(net)?;
        let plan = generate_with_cache(&graph, &mut ExpansionCache::new(), self.config.parallelism);
        Ok((graph, plan))
    }

    /// Full detection pipeline: plan, instrument, probe/localize, clean
    /// up. The report's `generation_ns` holds the measured wall-clock
    /// pre-computation time.
    ///
    /// Robust against the error-prone environment: transient flow-mod
    /// failures are retried per the config's policy; probes whose
    /// instrumentation still cannot be installed are quarantined into
    /// [`DetectionReport::degraded`]; teardown is best-effort, with
    /// unrestored items counted in
    /// [`DetectionReport::teardown_failures`] rather than failing the
    /// run.
    ///
    /// # Errors
    ///
    /// Returns [`DetectError`] if planning fails or instrumentation
    /// fails permanently.
    pub fn detect(&self, net: &mut Network) -> Result<DetectionReport, DetectError> {
        let started = Instant::now();
        let (graph, plan) = self.plan(net)?;
        let generation_ns = started.elapsed().as_nanos() as u64;
        let mut localizer = FaultLocalizer::new(self.config);
        run_round(net, &graph, &plan, &mut localizer, generation_ns)
    }
}

/// One detection round over a ready plan, shared by [`SdnProbe::detect`]
/// and [`RandomizedSession::step`]: install the Fig. 7 instrumentation
/// (quarantining probes that cannot be installed), localize to
/// quiescence, and tear down best-effort.
fn run_round(
    net: &mut Network,
    graph: &RuleGraph,
    plan: &TestPlan,
    localizer: &mut FaultLocalizer,
    generation_ns: u64,
) -> Result<DetectionReport, DetectError> {
    let mut harness = ProbeHarness::new().with_retry_policy(localizer.config().retry_policy());
    let (probes, degraded) = harness.install_plan_tolerant(net, graph, plan)?;
    let mut report = localizer.run(net, graph, &mut harness, probes)?;
    report.degraded.extend(degraded);
    report.degraded.sort_unstable();
    report.degraded.dedup();
    report.generation_ns = generation_ns;
    if let Err(t) = harness.teardown(net) {
        report.teardown_failures += t.failures.len();
    }
    Ok(report)
}

/// Randomized SDNProbe: every detection round re-draws tested paths
/// (randomized greedy legal matching) and probe headers, defeating
/// colluding detours and targeting faults (§V-C).
#[derive(Debug, Clone)]
pub struct RandomizedSdnProbe {
    config: ProbeConfig,
    seed: u64,
}

impl RandomizedSdnProbe {
    /// Creates an instance with the paper's defaults and a seed for
    /// reproducible randomness.
    pub fn new(seed: u64) -> Self {
        Self {
            config: ProbeConfig::default(),
            seed,
        }
    }

    /// Creates an instance with a custom configuration.
    pub fn with_config(config: ProbeConfig, seed: u64) -> Self {
        Self { config, seed }
    }

    /// The active configuration.
    pub fn config(&self) -> &ProbeConfig {
        &self.config
    }

    /// Opens a detection session: the rule graph is built once and
    /// suspicion persists across randomized rounds.
    ///
    /// # Errors
    ///
    /// Returns a graph error if the policy loops or has no forwarding
    /// rules.
    pub fn session(&self, net: &Network) -> Result<RandomizedSession, RuleGraphError> {
        let started = Instant::now();
        let graph = RuleGraph::from_network(net)?;
        let graph_ns = started.elapsed().as_nanos() as u64;
        Ok(RandomizedSession {
            graph,
            graph_ns,
            localizer: FaultLocalizer::new(self.config),
            rng: StdRng::seed_from_u64(self.seed),
            cache: ExpansionCache::new(),
        })
    }

    /// Runs `rounds` randomized detection rounds and merges the reports.
    ///
    /// # Errors
    ///
    /// Returns [`DetectError`] if planning or instrumentation fails.
    pub fn detect(&self, net: &mut Network, rounds: usize) -> Result<DetectionReport, DetectError> {
        let mut session = self.session(net)?;
        let mut total = DetectionReport::default();
        for _ in 0..rounds {
            total.absorb(session.step(net)?);
        }
        total.generation_ns += session.graph_ns;
        Ok(total)
    }
}

/// An open randomized detection session (see
/// [`RandomizedSdnProbe::session`]).
#[derive(Debug)]
pub struct RandomizedSession {
    graph: RuleGraph,
    graph_ns: u64,
    localizer: FaultLocalizer,
    rng: StdRng,
    /// The legality memo every round's plan reuses; see `step_inner`.
    cache: ExpansionCache,
}

impl RandomizedSession {
    /// The rule graph shared by all rounds (the paper notes the graph is
    /// reused across randomized instances).
    pub fn graph(&self) -> &RuleGraph {
        &self.graph
    }

    /// Wall-clock nanoseconds spent building the rule graph.
    pub fn graph_build_ns(&self) -> u64 {
        self.graph_ns
    }

    /// One randomized round: fresh paths and headers, probe, localize,
    /// tear down. Suspicion accumulates across steps.
    ///
    /// # Errors
    ///
    /// Returns [`DetectError`] if instrumentation fails.
    pub fn step(&mut self, net: &mut Network) -> Result<DetectionReport, DetectError> {
        self.step_inner(net, None)
    }

    /// Like [`RandomizedSession::step`], but probe headers are drawn
    /// preferentially from real traffic observed on the tested paths
    /// (the paper's sFlow-based sampling) — the fastest way to catch
    /// *targeting* faults, which by definition strike real flows.
    ///
    /// # Errors
    ///
    /// Returns [`DetectError`] if instrumentation fails.
    pub fn step_weighted(
        &mut self,
        net: &mut Network,
        profile: &TrafficProfile,
    ) -> Result<DetectionReport, DetectError> {
        self.step_inner(net, Some(profile))
    }

    fn step_inner(
        &mut self,
        net: &mut Network,
        profile: Option<&TrafficProfile>,
    ) -> Result<DetectionReport, DetectError> {
        let started = Instant::now();
        let parallelism = self.localizer.config().parallelism;
        // One memo for the whole session: every entry is a pure function
        // of the graph, which stays the same across rounds, so each round
        // re-plans warm and gets the plan a fresh memo would give. The
        // memo saturates at the cover paths the matcher can probe.
        let (graph, rng, cache) = (&self.graph, &mut self.rng, &mut self.cache);
        let plan = match profile {
            Some(p) => generate_weighted_with_cache(graph, rng, p, cache, parallelism),
            None => generate_randomized_with_cache(graph, rng, cache, parallelism),
        };
        let generation_ns = started.elapsed().as_nanos() as u64;
        // Each step runs localization to quiescence on this round's
        // paths; restart_when_idle is handled by calling step again.
        run_round(net, &self.graph, &plan, &mut self.localizer, generation_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdnprobe_dataplane::{Action, Activation, FaultKind, FaultSpec, FlowEntry, TableId};
    use sdnprobe_headerspace::Ternary;
    use sdnprobe_topology::{PortId, SwitchId, Topology};

    fn t(s: &str) -> Ternary {
        s.parse().expect("valid ternary")
    }

    /// A diamond: 0 -> {1, 2} -> 3, two flows so detours have an
    /// alternative route.
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
        // Flow 00xxxxxx via 0-1-3; flow 01xxxxxx via 0-2-3.
        let p01 = p(&net, 0, 1);
        let p02 = p(&net, 0, 2);
        let p13 = p(&net, 1, 3);
        let p23 = p(&net, 2, 3);
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
    fn static_detect_healthy() {
        let mut net = diamond();
        let report = SdnProbe::new().detect(&mut net).unwrap();
        assert!(report.faulty_switches.is_empty());
        assert!(report.probes_sent >= 2);
    }

    #[test]
    fn static_detect_single_fault() {
        let mut net = diamond();
        let victim = net.entries_on(SwitchId(1))[0];
        net.inject_fault(victim, FaultSpec::new(FaultKind::Drop))
            .unwrap();
        let report = SdnProbe::new().detect(&mut net).unwrap();
        assert_eq!(report.faulty_switches, vec![SwitchId(1)]);
        assert!(report.generation_ns > 0);
    }

    #[test]
    fn network_restored_after_detect() {
        let mut net = diamond();
        let entries_before = net.entry_count();
        SdnProbe::new().detect(&mut net).unwrap();
        assert_eq!(net.entry_count(), entries_before);
    }

    #[test]
    fn randomized_detect_targeting_fault() {
        let mut net = diamond();
        // Target a quarter of switch 1's rule (headers 0011xxxx): static
        // probes almost surely miss it; randomized headers find it.
        let victim = net.entries_on(SwitchId(1))[0];
        net.inject_fault(
            victim,
            FaultSpec::new(FaultKind::Drop).with_activation(Activation::Targeting(t("0011xxxx"))),
        )
        .unwrap();
        // Static SDNProbe misses it (header differs from min header).
        let static_report = SdnProbe::new().detect(&mut net).unwrap();
        assert!(static_report.faulty_switches.is_empty());
        // Randomized SDNProbe with enough rounds hits the target header.
        // 8-bit space: the victim subnet is 1/4 of the rule's headers, so
        // stepping until detection converges fast; cap generously.
        let prober = RandomizedSdnProbe::new(7);
        let mut session = prober.session(&net).unwrap();
        let mut found = false;
        for _ in 0..300 {
            let report = session.step(&mut net).unwrap();
            if report.faulty_switches == vec![SwitchId(1)] {
                found = true;
                break;
            }
        }
        assert!(found, "randomized headers must eventually hit the target");
    }

    #[test]
    fn randomized_session_reuses_graph() {
        let net = diamond();
        let prober = RandomizedSdnProbe::new(3);
        let mut session = prober.session(&net).unwrap();
        let mut net = net;
        let r1 = session.step(&mut net).unwrap();
        let r2 = session.step(&mut net).unwrap();
        assert!(r1.probes_sent > 0 && r2.probes_sent > 0);
        assert_eq!(session.graph().vertex_count(), 5);
    }

    #[test]
    fn traffic_weighted_sampling_finds_narrow_targeting_fault() {
        use crate::traffic::TrafficProfile;
        let mut net = diamond();
        // The attacker targets ONE specific header that real traffic
        // uses. Uniform sampling over the 64-header rule space would
        // need many rounds; traffic-weighted sampling hits immediately.
        let victim_header = sdnprobe_headerspace::Header::new(0b0011_0100, 8);
        let victim = net.entries_on(SwitchId(1))[0];
        net.inject_fault(
            victim,
            FaultSpec::new(FaultKind::Drop).with_activation(Activation::Targeting(
                sdnprobe_headerspace::Ternary::from_header(victim_header),
            )),
        )
        .unwrap();
        // sFlow observes the victim flow in normal traffic.
        let mut profile = TrafficProfile::new(64);
        let trace = net.inject(SwitchId(0), victim_header);
        profile.observe_trace(&trace);

        let prober = RandomizedSdnProbe::new(11);
        let mut session = prober.session(&net).unwrap();
        let mut caught_at = None;
        for round in 1..=10 {
            let report = session.step_weighted(&mut net, &profile).unwrap();
            if report.faulty_switches == vec![SwitchId(1)] {
                caught_at = Some(round);
                break;
            }
        }
        assert!(
            caught_at.is_some(),
            "traffic-weighted headers must hit the victim within a few rounds"
        );
    }

    #[test]
    fn error_display_chains() {
        let e = DetectError::from(RuleGraphError::NoForwardingRules);
        assert!(e.to_string().contains("rule graph"));
        assert!(e.source().is_some());
    }
}
