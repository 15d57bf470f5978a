//! The controller's view without a trace: [`Network::observe`] must
//! equal [`Network::inject`] followed by `observation()` for every
//! packet, whatever the faults, impairments and virtual time.
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
    Activation, EntryId, FaultKind, FaultSpec, Impairments, Network, Outcome,
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
