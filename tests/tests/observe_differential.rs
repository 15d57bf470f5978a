//! The controller's view without a trace: [`Network::observe`] must
//! equal [`Network::inject`] followed by `observation()` for every
//! packet, whatever the faults, impairments and virtual time; and
//! [`Network::observe_along`], which replays a packet's memoized route,
//! must equal [`Network::observe`] however the network changed since the
//! route was recorded.
//!
//! Each case is a chaos-case workload with the Fig. 7 instrumentation
//! of its minimum plan installed, faults of all four kinds on random
//! flow rules (persistent, intermittent and targeting), and benign link
//! and packet-in loss. Packets are the probes' own headers at their
//! entry switches plus random headers at random switches, sent at
//! several virtual times.

use rand::seq::SliceRandom;
use rand::Rng;
use sdnprobe::{generate, ProbeHarness};
use sdnprobe_dataplane::{
    Action, Activation, EntryId, FaultKind, FaultSpec, FlowEntry, Impairments, Network, Outcome,
    Route, TableId,
};
use sdnprobe_headerspace::{Header, Ternary};
use sdnprobe_integration::check;
use sdnprobe_rulegraph::RuleGraph;
use sdnprobe_topology::{PortId, SwitchId};
use sdnprobe_workloads::chaos_case;

const CASES: u32 = 10;

/// A random header of `len` bits.
fn random_header(rng: &mut impl Rng, len: u32) -> Header {
    let bits = (rng.gen::<u64>() as u128) << 64 | rng.gen::<u64>() as u128;
    Header::new(bits, len)
}

/// A random pattern of `len` bits fixing about a quarter of them.
fn random_pattern(rng: &mut impl Rng, len: u32) -> Ternary {
    (0..len).fold(Ternary::wildcard(len), |t, k| {
        if rng.gen_range(0..4) == 0 {
            t.with_bit(k, rng.gen_bool(0.5))
        } else {
            t
        }
    })
}

/// Counts of what the compared packets went through, summed over every
/// case, so the test can show that each branch of the walk was taken.
#[derive(Debug, Default)]
struct Seen {
    packet_in: usize,
    packet_in_lost: usize,
    lost_in_transit: usize,
    dropped: usize,
    /// Steps through an active fault, by kind: drop, modify, misdirect,
    /// detour.
    active_kinds: [usize; 4],
    /// Steps through an active fault, by activation: persistent,
    /// intermittent, targeting.
    active_activations: [usize; 3],
}

impl Seen {
    fn record(&mut self, net: &Network, at: SwitchId, header: Header) {
        let trace = net.inject(at, header);
        assert_eq!(
            net.observe(at, header),
            trace.observation(),
            "packet {header} at {at}, time {} ns: {trace:?}",
            net.now_ns()
        );
        match trace.outcome {
            Outcome::PacketIn { .. } => self.packet_in += 1,
            Outcome::PacketInLost { .. } => self.packet_in_lost += 1,
            Outcome::LostInTransit { .. } => self.lost_in_transit += 1,
            Outcome::Dropped { .. } => self.dropped += 1,
            _ => {}
        }
        for step in &trace.steps {
            let Some(fault) = net.fault(step.entry) else {
                continue;
            };
            if fault.is_active(net.now_ns(), step.header) {
                let kind = match fault.kind() {
                    FaultKind::Drop => 0,
                    FaultKind::Modify(_) => 1,
                    FaultKind::Misdirect(_) => 2,
                    FaultKind::Detour { .. } => 3,
                };
                let activation = match fault.activation() {
                    Activation::Persistent => 0,
                    Activation::Intermittent { .. } => 1,
                    Activation::Targeting(_) => 2,
                };
                self.active_kinds[kind] += 1;
                self.active_activations[activation] += 1;
            }
        }
    }
}

#[test]
fn observe_equals_the_traced_observation() {
    let mut seen = Seen::default();
    check(CASES, 17, |rng| {
        let seed = rng.gen_range(0u64..500);
        let sn = chaos_case(seed).build();
        let mut net = sn.network;
        let mut rules: Vec<EntryId> = sn.flows.iter().flat_map(|f| f.entries.clone()).collect();
        rules.sort_unstable();
        rules.dedup();
        rules.shuffle(rng);
        let switches = net.topology().switch_count();
        // Faults on an eighth of the rules: every kind, every activation.
        for (i, &id) in rules.iter().take(rules.len() / 8).enumerate() {
            let len = net.entry(id).expect("installed").match_field().len();
            let kind = match i % 4 {
                0 => FaultKind::Drop,
                1 => FaultKind::Modify(random_pattern(rng, len)),
                2 => FaultKind::Misdirect(PortId(rng.gen_range(0..4))),
                // Some partners are off the topology: the detour strands.
                _ => FaultKind::Detour {
                    partner: SwitchId(rng.gen_range(0..switches + 2)),
                },
            };
            let activation = match i / 4 % 3 {
                0 => Activation::Persistent,
                1 => Activation::Intermittent {
                    period_ns: 1_000_000,
                    active_ns: 400_000,
                },
                _ => Activation::Targeting(random_pattern(rng, len)),
            };
            net.inject_fault(id, FaultSpec::new(kind).with_activation(activation))
                .expect("valid fault");
        }
        let graph = RuleGraph::from_network(&net).expect("loop-free workload");
        let plan = generate(&graph);
        let mut harness = ProbeHarness::new();
        let (probes, _) = harness
            .install_plan_tolerant(&mut net, &graph, &plan)
            .expect("instrumentation installs");
        assert!(!probes.is_empty(), "seed {seed}: nothing to send");
        let len = probes[0].header.len();
        let loss = rng.gen_range(5u32..=30);
        net.set_impairments(
            Impairments::new(seed)
                .with_loss_rate(f64::from(loss) / 100.0)
                .with_ctrl_loss_rate(f64::from(loss) / 200.0),
        );
        for _ in 0..4 {
            net.advance_ns(rng.gen_range(1..2_000_000));
            for probe in &probes {
                seen.record(&net, probe.entry_switch, probe.header);
            }
            for _ in 0..64 {
                let at = SwitchId(rng.gen_range(0..switches));
                seen.record(&net, at, random_header(rng, len));
            }
        }
    });
    assert!(seen.packet_in > 0, "{seen:?}");
    assert!(seen.packet_in_lost > 0, "{seen:?}");
    assert!(seen.lost_in_transit > 0, "{seen:?}");
    assert!(seen.dropped > 0, "{seen:?}");
    assert!(seen.active_kinds.iter().all(|&n| n > 0), "{seen:?}");
    assert!(seen.active_activations.iter().all(|&n| n > 0), "{seen:?}");
}

/// Sends per packet in the route-memo test, with the network changed
/// between every two.
const SENDS: usize = 6;

/// A fault of the given kind and activation (each taken modulo its
/// variant count) on an entry matching `len` bits.
fn random_fault(
    rng: &mut impl Rng,
    kind: usize,
    activation: usize,
    len: u32,
    switches: usize,
) -> FaultSpec {
    let kind = match kind % 4 {
        0 => FaultKind::Drop,
        1 => FaultKind::Modify(random_pattern(rng, len)),
        2 => FaultKind::Misdirect(PortId(rng.gen_range(0..4))),
        _ => FaultKind::Detour {
            partner: SwitchId(rng.gen_range(0..switches + 2)),
        },
    };
    let activation = match activation % 3 {
        0 => Activation::Persistent,
        1 => Activation::Intermittent {
            period_ns: 1_000_000,
            active_ns: 400_000,
        },
        _ => Activation::Targeting(random_pattern(rng, len)),
    };
    FaultSpec::new(kind).with_activation(activation)
}

/// A new action for `id`: drop, punt, output on a port that may or may
/// not exist, or a `goto` into one of the first `tables` tables after
/// the entry's own.
fn random_action(rng: &mut impl Rng, net: &Network, id: EntryId, tables: usize) -> Action {
    let table = net.location(id).expect("installed").table;
    match rng.gen_range(0..4) {
        0 => Action::Drop,
        1 => Action::ToController,
        2 if table.0 + 1 < tables => Action::GotoTable(TableId(rng.gen_range(table.0 + 1..tables))),
        _ => Action::Output(PortId(rng.gen_range(0..4))),
    }
}

/// A table added behind a rewritten rule, as the Fig. 7 procedure does.
struct AddedTable {
    switch: SwitchId,
    table: TableId,
    entries: Vec<EntryId>,
    /// The rule rewritten to `goto` the table, and its action before.
    rewritten: EntryId,
    action: Action,
}

/// The network changes made between two sends: every kind of flow-mod
/// the memo must notice (or, for an action-only rewrite, may keep),
/// fault toggles and a new impairment seed.
struct Churn {
    /// Flow rules of the workload; never removed.
    rules: Vec<EntryId>,
    /// Higher-priority overlapping entries installed by earlier steps.
    overlay: Vec<EntryId>,
    added: Option<AddedTable>,
    /// Tables per switch before any step: the `goto` targets that stay.
    tables: Vec<usize>,
    len: u32,
}

impl Churn {
    fn step(&mut self, rng: &mut impl Rng, net: &mut Network) {
        let switches = self.tables.len();
        let rule = |rng: &mut dyn rand::RngCore| self.rules[rng.gen_range(0..self.rules.len())];
        // Remove about half the overlay, then install new entries above
        // random rules, overlapping their match fields.
        self.overlay.shuffle(rng);
        for id in self.overlay.split_off(self.overlay.len() / 2) {
            net.remove(id).expect("overlay entry installed");
        }
        for _ in 0..4 {
            let under = rule(rng);
            let loc = net.location(under).expect("installed");
            let entry = *net.entry(under).expect("installed");
            let pattern = random_pattern(rng, self.len);
            let matched = entry
                .match_field()
                .intersect(&pattern)
                .unwrap_or(entry.match_field());
            let action = random_action(rng, net, under, self.tables[loc.switch.0]);
            let over = FlowEntry::new(matched, action)
                .with_priority(entry.priority().saturating_add(rng.gen_range(1..3)));
            self.overlay.push(
                net.install(loc.switch, loc.table, over)
                    .expect("valid entry"),
            );
        }
        // Keep match and priority: a new action (the stamp stays) and a
        // new set field (the stamp changes).
        for _ in 0..3 {
            let id = rule(rng);
            let entry = *net.entry(id).expect("installed");
            let tables = self.tables[net.location(id).expect("installed").switch.0];
            let action = random_action(rng, net, id, tables);
            net.replace_entry(id, entry.with_action(action))
                .expect("valid action");
            let id = rule(rng);
            let entry = *net.entry(id).expect("installed");
            let set_field = random_pattern(rng, self.len);
            net.replace_entry(id, entry.with_set_field(set_field))
                .expect("valid set field");
        }
        // Add a table behind a rewritten rule, or take the last one away.
        match self.added.take() {
            None => {
                let rewritten = rule(rng);
                let switch = net.location(rewritten).expect("installed").switch;
                let table = net.add_table(switch).expect("known switch");
                let mut entries = Vec::new();
                for priority in [0, 5] {
                    let action = random_action(rng, net, rewritten, 0);
                    let m = random_pattern(rng, self.len);
                    let entry = FlowEntry::new(m, action).with_priority(priority);
                    entries.push(net.install(switch, table, entry).expect("valid entry"));
                }
                let entry = *net.entry(rewritten).expect("installed");
                net.replace_entry(rewritten, entry.with_action(Action::GotoTable(table)))
                    .expect("forward goto");
                self.added = Some(AddedTable {
                    switch,
                    table,
                    entries,
                    rewritten,
                    action: entry.action(),
                });
            }
            Some(added) => {
                let entry = *net.entry(added.rewritten).expect("installed");
                if entry.action() == Action::GotoTable(added.table) {
                    net.replace_entry(added.rewritten, entry.with_action(added.action))
                        .expect("restored action");
                }
                for id in added.entries {
                    net.remove(id).expect("installed");
                }
                net.remove_table(added.switch, added.table)
                    .expect("last empty table");
            }
        }
        // Toggle faults of every kind and activation on an eighth of the
        // rules, and draw a new impairment seed.
        for i in 0..self.rules.len() / 8 {
            let id = rule(rng);
            if net.clear_fault(id).is_none() {
                let fault = random_fault(rng, i, i / 4, self.len, switches);
                net.inject_fault(id, fault).expect("valid fault");
            }
        }
        let loss = rng.gen_range(5u32..=30);
        net.set_impairments(
            Impairments::new(rng.gen())
                .with_loss_rate(f64::from(loss) / 100.0)
                .with_ctrl_loss_rate(f64::from(loss) / 200.0),
        );
    }
}

#[test]
fn observe_along_equals_observe_across_network_changes() {
    let mut seen = Seen::default();
    check(CASES, 29, |rng| {
        let seed = rng.gen_range(0u64..500);
        let sn = chaos_case(seed).build();
        let mut net = sn.network;
        let mut rules: Vec<EntryId> = sn.flows.iter().flat_map(|f| f.entries.clone()).collect();
        rules.sort_unstable();
        rules.dedup();
        let graph = RuleGraph::from_network(&net).expect("loop-free workload");
        let plan = generate(&graph);
        let mut harness = ProbeHarness::new();
        let (probes, _) = harness
            .install_plan_tolerant(&mut net, &graph, &plan)
            .expect("instrumentation installs");
        assert!(!probes.is_empty(), "seed {seed}: nothing to send");
        let switches = net.topology().switch_count();
        let len = probes[0].header.len();
        // The probes at their entry switches, then random packets; each
        // keeps one route for all its sends.
        let mut packets: Vec<(SwitchId, Header, Route)> = probes
            .iter()
            .map(|p| (p.entry_switch, p.header))
            .chain((0..32).map(|_| {
                (
                    SwitchId(rng.gen_range(0..switches)),
                    random_header(rng, len),
                )
            }))
            .map(|(at, header)| (at, header, Route::default()))
            .collect();
        let mut churn = Churn {
            rules,
            overlay: Vec::new(),
            added: None,
            tables: (0..switches)
                .map(|s| net.table_count(SwitchId(s)).expect("known switch"))
                .collect(),
            len,
        };
        for send in 0..SENDS {
            if send > 0 {
                churn.step(rng, &mut net);
            }
            net.advance_ns(rng.gen_range(1..2_000_000));
            for (at, header, route) in &mut packets {
                seen.record(&net, *at, *header);
                assert_eq!(
                    net.observe_along(*at, *header, route),
                    net.observe(*at, *header),
                    "seed {seed}, send {send}: packet {header} at {at}, time {} ns",
                    net.now_ns()
                );
            }
        }
    });
    assert!(seen.packet_in > 0, "{seen:?}");
    assert!(seen.dropped > 0, "{seen:?}");
    assert!(seen.active_kinds.iter().all(|&n| n > 0), "{seen:?}");
    assert!(seen.active_activations.iter().all(|&n| n > 0), "{seen:?}");
}
