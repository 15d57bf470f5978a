//! Seeded networks whose rule graphs put a step-1 *detour* before the
//! direct edge in depth-first order.
//!
//! A spine of switches `S0 → S1 → … → Sk` carries the traffic; each
//! spine switch `Si` (i ≥ 1) may have a bounce switch `Bi`. On `Si` a
//! high-priority rule `d` sends headers with tag bit `a_i = 0` to `Bi`,
//! whose rule `t` sets `a_i := 1` and returns them to `Si`, where the
//! low-priority rule `c` (tag-agnostic, so its resolved input is
//! `a_i = 1`) forwards them on. The previous spine rule therefore has a
//! direct step-1 edge to `c` *and* a longer real path `d → t → c`, and
//! `d` outranks `c`, so it comes first in step-1 order: the canonical
//! (first-in-DFS-order) expansion of a cover path through `c` takes the
//! detour, even though the direct edge is legal too.
//!
//! Half the bounces also set a poison bit `p_i := 1`, and half the next
//! spine rules require `p_i = 0`: then the canonical detour prefix
//! cannot be extended past `c`, but the direct edge can. Middle-priority
//! rules on noise bits add parallel branches.
//!
//! Shared by the legality-engine and plan-determinism tests, which use
//! these graphs to check that the expansion memo hands out the canonical
//! path where a shorter legal one exists, and to reach its fallback from
//! a failed prefix resume.

use rand::rngs::StdRng;
use rand::Rng;
use sdnprobe_dataplane::{Action, FlowEntry, Network, TableId};
use sdnprobe_headerspace::Ternary;
use sdnprobe_topology::{PortId, SwitchId, Topology};

/// Header width: tag/poison pairs in bits 0..8, noise in 12..16.
const WIDTH: u32 = 16;

fn bit(k: u32) -> u128 {
    1 << k
}

fn rule(care: u128, value: u128, action: Action, priority: u16) -> FlowEntry {
    FlowEntry::new(Ternary::from_masks(care, value, WIDTH), action).with_priority(priority)
}

/// A random pattern over the noise bits, as `(care, value)`.
fn noise(rng: &mut StdRng) -> (u128, u128) {
    let care = u128::from(rng.gen_range(1..16u8)) << 12;
    (care, u128::from(rng.gen_range(0..16u8)) << 12 & care)
}

fn install(net: &mut Network, switch: usize, entry: FlowEntry) {
    net.install(SwitchId(switch), TableId(0), entry)
        .expect("valid entry");
}

/// One random detour network; see the module docs.
pub fn detour_network(rng: &mut StdRng) -> Network {
    let spine = rng.gen_range(3..=5usize);
    // Spine switches 0..spine, then bounce switch `spine + i - 1` for Si.
    let mut topo = Topology::new(2 * spine - 1);
    for i in 1..spine {
        topo.add_link(SwitchId(i - 1), SwitchId(i));
        topo.add_link(SwitchId(i), SwitchId(spine + i - 1));
    }
    let mut net = Network::new(topo);
    let port = |net: &Network, a: usize, b: usize| {
        Action::Output(
            net.topology()
                .port_towards(SwitchId(a), SwitchId(b))
                .expect("linked"),
        )
    };
    let forward = |net: &Network, i: usize| {
        if i + 1 < spine {
            port(net, i, i + 1)
        } else {
            Action::Output(PortId(40))
        }
    };
    // Entry rules on S0: the whole space plus a noise-bit branch.
    let (care, value) = noise(rng);
    let out = forward(&net, 0);
    install(&mut net, 0, rule(care, value, out, 2));
    install(&mut net, 0, rule(0, 0, out, 1));
    let mut poisoned = None;
    for i in 1..spine {
        let (tag, poison) = (2 * i as u32 - 2, 2 * i as u32 - 1);
        // The spine rule requires the previous bounce's poison bit clear
        // half the time.
        let (care, value) = match poisoned {
            Some(p) if rng.gen_bool(0.5) => (bit(p), 0),
            _ => (0, 0),
        };
        let out = forward(&net, i);
        install(&mut net, i, rule(care, value, out, 1));
        if rng.gen_bool(0.5) {
            let (nc, nv) = noise(rng);
            install(&mut net, i, rule(care | nc, nv, out, 2));
        }
        poisoned = None;
        if rng.gen_bool(0.8) {
            let bounce = spine + i - 1;
            let (out, back) = (port(&net, i, bounce), port(&net, bounce, i));
            install(&mut net, i, rule(bit(tag), 0, out, 3));
            let mut set = bit(tag);
            if rng.gen_bool(0.5) {
                set |= bit(poison);
                poisoned = Some(poison);
            }
            let rewrite = Ternary::from_masks(set, set, WIDTH);
            install(
                &mut net,
                bounce,
                rule(bit(tag), 0, back, 1).with_set_field(rewrite),
            );
        }
    }
    net
}
