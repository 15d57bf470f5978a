//! Probe installation and sending: the Fig. 7 test-entry mechanics.
//!
//! For every tested path, SDNProbe installs a *test flow entry* at the
//! terminal switch so the probe returns to the controller, without
//! affecting normal packets:
//!
//! 1. duplicate the terminal's flow table and copy the terminal rule
//!    into the duplicate,
//! 2. insert the test entry (exact match on the probe's final header,
//!    maximum priority, punt to controller) in the duplicate, and
//! 3. rewrite the original terminal rule's action to `goto` the
//!    duplicate.
//!
//! The copy's match field is transformed through the original's set
//! field (packets reach the duplicate *after* the rewrite) — an
//! implementation detail the paper's figure leaves implicit. With
//! identity set fields (the overwhelmingly common case) the duplicate
//! table mirrors the original's precedence structure exactly; when
//! several same-switch rules with *non-identity* set fields are
//! instrumented simultaneously, their transformed matches could in
//! principle alias in the shared duplicate table. The test suite pins
//! the non-interference guarantee for the workloads this repository
//! ships; a production port would give each rewritten rule a metadata
//! tag instead.
//!
//! The harness tracks everything it installs so it can slice probes
//! on demand during localization and tear the network back down
//! afterwards.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use sdnprobe_classifier::IdHashBuilder;
use sdnprobe_dataplane::{Action, EntryId, FlowEntry, Network, NetworkError, TableId};
use sdnprobe_headerspace::Header;
use sdnprobe_rulegraph::{RuleGraph, VertexId};
use sdnprobe_topology::SwitchId;

use crate::parallel::{parallel_map, Parallelism};
use crate::plan::TestPlan;

/// An installed, sendable probe covering a (sub-)path of rules.
#[derive(Debug, Clone)]
pub struct ActiveProbe {
    /// Rules exercised, in traversal order.
    pub path: Vec<VertexId>,
    /// Header injected at the entry switch.
    pub header: Header,
    /// Where the probe is injected.
    pub entry_switch: SwitchId,
    /// Terminal switch expected to punt the probe back.
    pub expected_switch: SwitchId,
    /// Exact header expected in the packet-in.
    pub expected_header: Header,
}

/// Bounded retry-with-backoff for transient flow-mod failures
/// ([`NetworkError::ChannelDown`]) in the error-prone environment.
///
/// `attempts` is the number of *re*-tries after the first failure; each
/// retry advances the virtual clock by `backoff_ns << min(retry, 6)`
/// (bounded exponential backoff), which re-draws the deterministic
/// failure outcome. Permanent errors are never retried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first failed attempt.
    pub attempts: u32,
    /// Base backoff per retry in virtual nanoseconds.
    pub backoff_ns: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            attempts: 3,
            backoff_ns: 1_000_000,
        }
    }
}

/// Failures collected by a best-effort [`ProbeHarness::teardown`].
///
/// Teardown never stops at the first error: it restores everything it
/// can and reports what it could not. The harness keeps tracking the
/// unrestored items, so calling `teardown` again retries exactly them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TeardownError {
    /// Every error encountered, in the deterministic teardown order.
    pub failures: Vec<NetworkError>,
}

impl std::fmt::Display for TeardownError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "teardown left {} item(s) unrestored (first: {})",
            self.failures.len(),
            self.failures
                .first()
                .map_or_else(|| "none".to_string(), ToString::to_string)
        )
    }
}

impl std::error::Error for TeardownError {}

/// Runs `op`, retrying transient failures per `retry`. Each retry
/// advances the network's virtual clock (bounded exponential backoff),
/// which re-draws the deterministic flow-mod outcome.
fn with_retry<T>(
    retry: RetryPolicy,
    net: &mut Network,
    mut op: impl FnMut(&mut Network) -> Result<T, NetworkError>,
) -> Result<T, NetworkError> {
    let mut attempt = 0u32;
    loop {
        match op(net) {
            Err(e) if e.is_transient() && attempt < retry.attempts => {
                net.advance_ns(retry.backoff_ns << attempt.min(6));
                attempt += 1;
            }
            other => return other,
        }
    }
}

/// Manages test tables, rewritten terminal rules, and test entries.
#[derive(Debug)]
pub struct ProbeHarness {
    /// The duplicate table on each switch that needed one.
    test_tables: HashMap<SwitchId, TableId, IdHashBuilder>,
    /// Terminal rules rewritten to `goto`: entry id → (original entry,
    /// id of its copy in the test table).
    rewritten: HashMap<EntryId, (FlowEntry, EntryId), IdHashBuilder>,
    /// Installed test entries: (switch, expected header) → entry id.
    test_entries: HashMap<(SwitchId, Header), EntryId, IdHashBuilder>,
    /// Retry policy for flow-mods under transient channel failures.
    retry: RetryPolicy,
}

impl ProbeHarness {
    /// Creates an empty harness with the default retry policy.
    pub fn new() -> Self {
        Self {
            test_tables: HashMap::default(),
            rewritten: HashMap::default(),
            test_entries: HashMap::default(),
            retry: RetryPolicy::default(),
        }
    }

    /// Sets the retry policy applied to every flow-mod the harness
    /// issues.
    #[must_use]
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Installs a plan tolerantly: probes whose instrumentation still
    /// cannot be installed after retries are *quarantined* rather than
    /// aborting the round. Returns the successfully installed probes
    /// plus the sorted, deduplicated rule entries whose coverage was
    /// degraded by the quarantine.
    ///
    /// # Errors
    ///
    /// Propagates only *permanent* [`NetworkError`]s (unknown entries,
    /// backward gotos); transient channel failures degrade instead.
    pub fn install_plan_tolerant(
        &mut self,
        net: &mut Network,
        graph: &RuleGraph,
        plan: &TestPlan,
    ) -> Result<(Vec<ActiveProbe>, Vec<EntryId>), NetworkError> {
        let mut probes = Vec::with_capacity(plan.probes.len());
        let mut degraded = Vec::new();
        for p in &plan.probes {
            match self.install_probe(net, graph, &p.path, p.header) {
                Ok(probe) => probes.push(probe),
                Err(e) if e.is_transient() => {
                    degraded.extend(p.path.iter().map(|&v| graph.vertex(v).entry));
                }
                Err(e) => return Err(e),
            }
        }
        degraded.sort_unstable();
        degraded.dedup();
        Ok((probes, degraded))
    }

    /// Installs a single probe over `path`, entering with `header`.
    ///
    /// # Errors
    ///
    /// Propagates [`NetworkError`]s from entry installation.
    ///
    /// # Panics
    ///
    /// Panics if `path` is empty.
    pub fn install_probe(
        &mut self,
        net: &mut Network,
        graph: &RuleGraph,
        path: &[VertexId],
        header: Header,
    ) -> Result<ActiveProbe, NetworkError> {
        assert!(!path.is_empty(), "probe path must not be empty");
        let headers = header_sequence(graph, path, header);
        let expected_header = *headers.last().expect("non-empty");
        let terminal = *path.last().expect("non-empty");
        let terminal_switch = graph.vertex(terminal).switch;
        self.ensure_return_entry(net, graph, terminal, expected_header)?;
        Ok(ActiveProbe {
            path: path.to_vec(),
            header,
            entry_switch: graph.vertex(path[0]).switch,
            expected_switch: terminal_switch,
            expected_header,
        })
    }

    /// Ensures the Fig. 7 plumbing exists for `terminal` and installs the
    /// exact-match test entry for `expected_header`.
    ///
    /// Flow-mods retry per the harness policy; on a partial failure
    /// (copy installed but the rewrite keeps failing) the orphaned copy
    /// is rolled back best-effort so the network is left untouched.
    fn ensure_return_entry(
        &mut self,
        net: &mut Network,
        graph: &RuleGraph,
        terminal: VertexId,
        expected_header: Header,
    ) -> Result<(), NetworkError> {
        let vert = graph.vertex(terminal);
        let switch = vert.switch;
        let retry = self.retry;
        let table = match self.test_tables.get(&switch) {
            Some(&t) => t,
            None => {
                let t = net.add_table(switch)?;
                self.test_tables.insert(switch, t);
                t
            }
        };
        // Step 1 + 3: copy the rule into the duplicate, rewrite original.
        if let Entry::Vacant(slot) = self.rewritten.entry(vert.entry) {
            let original = *net
                .entry(vert.entry)
                .ok_or(NetworkError::UnknownEntry(vert.entry))?;
            let copied_match = original
                .match_field()
                .apply_set_field(&original.set_field());
            let copy =
                FlowEntry::new(copied_match, original.action()).with_priority(original.priority());
            let copy_id = with_retry(retry, net, |n| n.install(switch, table, copy))?;
            if let Err(e) = with_retry(retry, net, |n| {
                n.replace_entry(vert.entry, original.with_action(Action::GotoTable(table)))
            }) {
                let _ = with_retry(retry, net, |n| n.remove(copy_id));
                return Err(e);
            }
            slot.insert((original, copy_id));
        }
        // Step 2: the test entry, matched only by the probe. A failure
        // here leaves the rewrite in place — harmless (normal packets
        // still follow the copied rule) and reclaimed by teardown.
        if let Entry::Vacant(slot) = self.test_entries.entry((switch, expected_header)) {
            let test = FlowEntry::new(
                sdnprobe_headerspace::Ternary::from_header(expected_header),
                Action::ToController,
            )
            .with_priority(u16::MAX);
            slot.insert(with_retry(retry, net, |n| n.install(switch, table, test))?);
        }
        Ok(())
    }

    /// Sends a probe and reports whether the expected packet-in arrived
    /// unmodified. Detection logic must rely only on this boolean (plus
    /// timing), mirroring a real controller.
    pub fn send(&self, net: &Network, probe: &ActiveProbe) -> bool {
        net.observe(probe.entry_switch, probe.header)
            == Some((probe.expected_switch, probe.expected_header))
    }

    /// Sends a whole round of probes, fanning out across `parallelism`
    /// threads, and reports each probe's pass/fail in input order.
    ///
    /// Injection is read-only on the network (the harness and network
    /// are only borrowed immutably), so concurrent sends observe exactly
    /// the state a sequential loop would: `send_batch` returns the same
    /// booleans as mapping [`ProbeHarness::send`] over `probes`, at any
    /// thread count.
    pub fn send_batch(
        &self,
        net: &Network,
        probes: &[ActiveProbe],
        parallelism: Parallelism,
    ) -> Vec<bool> {
        parallel_map(parallelism, probes, |p| self.send(net, p))
    }

    /// Slices a suspected probe in two (Algorithm 2's `slice_path`) and
    /// installs the sub-probes. Returns `None` when the path has a single
    /// rule and cannot be sliced further.
    ///
    /// # Errors
    ///
    /// Propagates [`NetworkError`]s from installing the new return entry.
    pub fn slice(
        &mut self,
        net: &mut Network,
        graph: &RuleGraph,
        probe: &ActiveProbe,
    ) -> Result<Option<(ActiveProbe, ActiveProbe)>, NetworkError> {
        if probe.path.len() <= 1 {
            return Ok(None);
        }
        let mid = probe.path.len() / 2;
        let headers = header_sequence(graph, &probe.path, probe.header);
        let left = self.install_probe(net, graph, &probe.path[..mid], probe.header)?;
        // The right half is entered with the header as it left the left
        // half (`headers[mid - 1]` is the header after rule `mid - 1`).
        let right = self.install_probe(net, graph, &probe.path[mid..], headers[mid - 1])?;
        Ok(Some((left, right)))
    }

    /// Restores every rewritten rule, removes all test entries and
    /// copies, and pops the (then empty) duplicate tables, returning
    /// the network to its exact pre-instrumentation shape.
    ///
    /// Teardown is *best-effort*: a failure on one item never blocks
    /// the rest. Items are processed in a deterministic order (sorted
    /// by id) so the same chaos seed replays the same outcomes at any
    /// thread count, and whatever could not be restored stays tracked —
    /// calling `teardown` again retries exactly the leftovers.
    /// Entries already removed by the caller are skipped silently.
    ///
    /// # Errors
    ///
    /// Returns the collected [`NetworkError`]s as a [`TeardownError`]
    /// when anything remained unrestored.
    pub fn teardown(&mut self, net: &mut Network) -> Result<(), TeardownError> {
        let retry = self.retry;
        let mut failures = Vec::new();

        let mut rewritten: Vec<_> = self.rewritten.drain().collect();
        rewritten.sort_unstable_by_key(|&(id, _)| id);
        for (entry, (original, copy)) in rewritten {
            let mut kept = false;
            if net.entry(entry).is_some() {
                if let Err(e) = with_retry(retry, net, |n| n.replace_entry(entry, original)) {
                    failures.push(e);
                    kept = true;
                }
            }
            if net.entry(copy).is_some() {
                if let Err(e) = with_retry(retry, net, |n| n.remove(copy).map(|_| ())) {
                    failures.push(e);
                    kept = true;
                }
            }
            if kept {
                self.rewritten.insert(entry, (original, copy));
            }
        }

        let mut tests: Vec<_> = self.test_entries.drain().collect();
        tests.sort_unstable_by_key(|&((s, h), _)| (s, h.bits()));
        for ((s, h), id) in tests {
            if net.entry(id).is_some() {
                if let Err(e) = with_retry(retry, net, |n| n.remove(id).map(|_| ())) {
                    failures.push(e);
                    self.test_entries.insert((s, h), id);
                }
            }
        }

        // Pop duplicate tables now that they are empty. A table that is
        // still occupied (removals above failed) or no longer last
        // stays tracked for the next attempt; this is bookkeeping, not
        // a flow-mod, so it carries no failure of its own.
        let mut tables: Vec<_> = self.test_tables.iter().map(|(&s, &t)| (s, t)).collect();
        tables.sort_unstable();
        for (s, t) in tables {
            if net.remove_table(s, t).is_ok() {
                self.test_tables.remove(&s);
            }
        }

        if failures.is_empty() {
            Ok(())
        } else {
            Err(TeardownError { failures })
        }
    }

    /// Number of test entries currently installed.
    pub fn test_entry_count(&self) -> usize {
        self.test_entries.len()
    }
}

impl Default for ProbeHarness {
    fn default() -> Self {
        Self::new()
    }
}

/// The header after each rule of the path: `h_i = T(h_{i-1}, s_i)`.
/// Index `i` holds the header after `path[i]`'s set field.
pub(crate) fn header_sequence(graph: &RuleGraph, path: &[VertexId], entry: Header) -> Vec<Header> {
    let mut out = Vec::with_capacity(path.len());
    let mut h = entry;
    for &v in path {
        h = h.apply_set_field(&graph.vertex(v).set_field);
        out.push(h);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generation::generate;
    use sdnprobe_dataplane::{FaultKind, FaultSpec, Outcome};
    use sdnprobe_headerspace::Ternary;
    use sdnprobe_topology::{PortId, Topology};

    fn t(s: &str) -> Ternary {
        s.parse().expect("valid ternary")
    }

    /// Line topology 0-1-2 routing 00xxxxxx across, with a set field on
    /// switch 1 to exercise header transforms.
    fn line3_with_rewrite() -> (Network, RuleGraph) {
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
        net.install(
            SwitchId(1),
            TableId(0),
            FlowEntry::new(t("00xxxxxx"), Action::Output(p12)).with_set_field(t("01xxxxxx")),
        )
        .unwrap();
        net.install(
            SwitchId(2),
            TableId(0),
            FlowEntry::new(t("01xxxxxx"), Action::Output(PortId(40))),
        )
        .unwrap();
        let graph = RuleGraph::from_network(&net).unwrap();
        (net, graph)
    }

    #[test]
    fn probe_travels_and_returns() {
        let (mut net, graph) = line3_with_rewrite();
        let plan = generate(&graph);
        assert_eq!(plan.packet_count(), 1);
        let mut harness = ProbeHarness::new();
        let (probes, _) = harness
            .install_plan_tolerant(&mut net, &graph, &plan)
            .unwrap();
        assert!(harness.send(&net, &probes[0]), "healthy probe must pass");
        // The expected header reflects switch 1's rewrite (bit1 set).
        assert!(probes[0].expected_header.bit(1));
    }

    #[test]
    fn normal_packets_are_unaffected() {
        let (mut net, graph) = line3_with_rewrite();
        // Baseline behaviour before instrumentation.
        let h = Header::new(0b1010_1100, 8); // matches 00xxxxxx
        let before = net.inject(SwitchId(0), h);
        assert_eq!(
            before.outcome,
            Outcome::LeftNetwork {
                switch: SwitchId(2),
                port: PortId(40)
            }
        );
        let plan = generate(&graph);
        let mut harness = ProbeHarness::new();
        let (probes, _) = harness
            .install_plan_tolerant(&mut net, &graph, &plan)
            .unwrap();
        // Any normal header other than the probe's behaves exactly as
        // before (the paper's non-interference requirement).
        assert_ne!(h, probes[0].header, "test picks a different header");
        let after = net.inject(SwitchId(0), h);
        assert_eq!(after.outcome, before.outcome);
        assert_eq!(after.final_header, before.final_header);
    }

    #[test]
    fn teardown_restores_network() {
        let (mut net, graph) = line3_with_rewrite();
        let h = Header::new(0b0000_1100, 8);
        let before = net.inject(SwitchId(0), h);
        let count_before = net.entry_count();
        let plan = generate(&graph);
        let mut harness = ProbeHarness::new();
        let (probes, _) = harness
            .install_plan_tolerant(&mut net, &graph, &plan)
            .unwrap();
        assert!(net.entry_count() > count_before);
        harness.teardown(&mut net).unwrap();
        assert_eq!(net.entry_count(), count_before);
        // Full restoration: the duplicate tables are gone too, not just
        // emptied — every switch is back to its single pipeline table.
        for s in net.topology().switches() {
            assert_eq!(net.table_count(s).unwrap(), 1, "no leftover table on {s}");
        }
        assert_eq!(harness.test_entry_count(), 0);
        let after = net.inject(SwitchId(0), h);
        assert_eq!(after.outcome, before.outcome);
        // Even the probe's own header now flows like a normal packet.
        let probe_trace = net.inject(SwitchId(0), probes[0].header);
        assert!(matches!(probe_trace.outcome, Outcome::LeftNetwork { .. }));
    }

    #[test]
    fn terminal_rule_fault_is_observable() {
        // The whole point of table duplication: the *last* rule on the
        // path is still exercised before the test entry.
        let (mut net, graph) = line3_with_rewrite();
        let plan = generate(&graph);
        let mut harness = ProbeHarness::new();
        let (probes, _) = harness
            .install_plan_tolerant(&mut net, &graph, &plan)
            .unwrap();
        let terminal = *probes[0].path.last().unwrap();
        let terminal_entry = graph.vertex(terminal).entry;
        net.inject_fault(terminal_entry, FaultSpec::new(FaultKind::Drop))
            .unwrap();
        assert!(
            !harness.send(&net, &probes[0]),
            "terminal fault must fail the probe"
        );
        net.clear_fault(terminal_entry);
        assert!(harness.send(&net, &probes[0]));
    }

    #[test]
    fn drop_and_modify_faults_fail_probes() {
        let (mut net, graph) = line3_with_rewrite();
        let plan = generate(&graph);
        let mut harness = ProbeHarness::new();
        let (probes, _) = harness
            .install_plan_tolerant(&mut net, &graph, &plan)
            .unwrap();
        let mid_entry = graph.vertex(probes[0].path[1]).entry;
        net.inject_fault(mid_entry, FaultSpec::new(FaultKind::Drop))
            .unwrap();
        assert!(!harness.send(&net, &probes[0]));
        net.inject_fault(mid_entry, FaultSpec::new(FaultKind::Modify(t("xxxxxxx1"))))
            .unwrap();
        assert!(
            !harness.send(&net, &probes[0]),
            "modified probe must not pass"
        );
    }

    #[test]
    fn slicing_produces_working_halves() {
        let (mut net, graph) = line3_with_rewrite();
        let plan = generate(&graph);
        let mut harness = ProbeHarness::new();
        let (probes, _) = harness
            .install_plan_tolerant(&mut net, &graph, &plan)
            .unwrap();
        let (left, right) = harness
            .slice(&mut net, &graph, &probes[0])
            .unwrap()
            .expect("3-rule path slices");
        assert_eq!(left.path.len() + right.path.len(), 3);
        assert!(harness.send(&net, &left), "healthy left half passes");
        assert!(harness.send(&net, &right), "healthy right half passes");
        // Fault in the right half fails only the right sub-probe.
        let right_entry = graph.vertex(right.path[0]).entry;
        net.inject_fault(right_entry, FaultSpec::new(FaultKind::Drop))
            .unwrap();
        assert!(harness.send(&net, &left));
        assert!(!harness.send(&net, &right));
    }

    #[test]
    fn single_rule_probe_cannot_slice() {
        let (mut net, graph) = line3_with_rewrite();
        let plan = generate(&graph);
        let mut harness = ProbeHarness::new();
        let (probes, _) = harness
            .install_plan_tolerant(&mut net, &graph, &plan)
            .unwrap();
        let (_, right) = harness
            .slice(&mut net, &graph, &probes[0])
            .unwrap()
            .unwrap();
        let (_, rr) = harness.slice(&mut net, &graph, &right).unwrap().unwrap();
        assert_eq!(rr.path.len(), 1);
        assert!(harness.slice(&mut net, &graph, &rr).unwrap().is_none());
    }

    #[test]
    fn flowmod_retries_ride_out_transient_failures() {
        use sdnprobe_dataplane::Impairments;
        let (mut net, graph) = line3_with_rewrite();
        net.set_impairments(Impairments::new(21).with_flowmod_failure_rate(0.4));
        let plan = generate(&graph);
        let mut harness = ProbeHarness::new().with_retry_policy(RetryPolicy {
            attempts: 16,
            backoff_ns: 1_000,
        });
        let (probes, _) = harness
            .install_plan_tolerant(&mut net, &graph, &plan)
            .unwrap();
        assert_eq!(probes.len(), 1, "retries must absorb a 40% failure rate");
        assert!(harness.send(&net, &probes[0]));
    }

    #[test]
    fn install_plan_tolerant_quarantines_unreachable_probes() {
        use sdnprobe_dataplane::Impairments;
        let (mut net, graph) = line3_with_rewrite();
        // Certain failure: no number of retries can install anything.
        net.set_impairments(Impairments::new(5).with_flowmod_failure_rate(1.0));
        let plan = generate(&graph);
        let mut harness = ProbeHarness::new().with_retry_policy(RetryPolicy {
            attempts: 2,
            backoff_ns: 1_000,
        });
        let (probes, degraded) = harness
            .install_plan_tolerant(&mut net, &graph, &plan)
            .unwrap();
        assert!(probes.is_empty());
        // Every rule of the quarantined path is reported as degraded.
        assert_eq!(degraded.len(), 3);
        // Nothing was half-installed.
        assert_eq!(net.entry_count(), 3);
    }

    #[test]
    fn teardown_is_best_effort_and_idempotent() {
        use sdnprobe_dataplane::Impairments;
        let (mut net, graph) = line3_with_rewrite();
        let count_before = net.entry_count();
        let plan = generate(&graph);
        let mut harness = ProbeHarness::new().with_retry_policy(RetryPolicy {
            attempts: 0,
            backoff_ns: 1_000,
        });
        let (probes, _) = harness
            .install_plan_tolerant(&mut net, &graph, &plan)
            .unwrap();
        assert_eq!(probes.len(), 1);
        // Make every flow-mod fail: teardown collects failures but does
        // not give up or lose track of the leftovers.
        net.set_impairments(Impairments::new(3).with_flowmod_failure_rate(1.0));
        let err = harness.teardown(&mut net).unwrap_err();
        assert!(!err.failures.is_empty());
        assert!(err.failures.iter().all(NetworkError::is_transient));
        assert!(err.to_string().contains("unrestored"));
        // Once the channel heals, a second teardown restores everything.
        net.set_impairments(Impairments::default());
        harness.teardown(&mut net).unwrap();
        assert_eq!(net.entry_count(), count_before);
        for s in net.topology().switches() {
            assert_eq!(net.table_count(s).unwrap(), 1);
        }
        // And a third call is a clean no-op.
        harness.teardown(&mut net).unwrap();
    }

    #[test]
    fn header_sequence_applies_set_fields() {
        let (_, graph) = line3_with_rewrite();
        let path: Vec<VertexId> = graph.vertex_ids().collect();
        // Order vertices by switch to get the actual path order.
        let mut path = path;
        path.sort_by_key(|&v| graph.vertex(v).switch);
        let h = Header::new(0, 8);
        let seq = header_sequence(&graph, &path, h);
        assert_eq!(seq.len(), 3);
        assert!(!seq[0].bit(1), "switch 0 does not rewrite");
        assert!(seq[1].bit(1), "switch 1 sets bit 1");
        assert!(seq[2].bit(1));
    }
}
