//! Table I: detection-accuracy matrix — four schemes against five fault
//! classes. Each cell is measured end to end on synthesized networks and
//! printed as the paper's ✓ / FN / FP annotations.
//!
//! Usage: `cargo run -p sdnprobe-bench --release --bin table1 [--runs N] [--threads N]`

use sdnprobe::{accuracy, Accuracy, ProbeConfig, RandomizedSdnProbe, SdnProbe};
use sdnprobe_baselines::{Atpg, PerRuleTester};
use sdnprobe_bench::{arg, declare_flags, parallelism, summary, ResultTable};
use sdnprobe_dataplane::{FaultKind, FaultSpec, Network};
use sdnprobe_topology::generate::rocketfuel_like;
use sdnprobe_workloads::{
    inject_colluding_detours, inject_intermittent_faults, inject_random_basic_faults,
    inject_targeting_faults, synthesize, BasicFaultMix, SyntheticNetwork, WorkloadSpec,
};

#[derive(Clone, Copy)]
enum Fault {
    Single,
    Multiple,
    Intermittent,
    Targeting,
    Detour,
}

fn build(seed: u64) -> SyntheticNetwork {
    let topo = rocketfuel_like(20, 36, seed);
    synthesize(
        &topo,
        &WorkloadSpec {
            flows: 40,
            k: 3,
            nested_fraction: 0.0,
            diversion_fraction: 0.0,
            min_path_len: 4,
            seed,
        },
    )
}

fn inject(sn: &mut SyntheticNetwork, fault: Fault, seed: u64) {
    match fault {
        Fault::Single => {
            let e = sn.flows[0].entries[0];
            sn.network
                .inject_fault(e, FaultSpec::new(FaultKind::Drop))
                .unwrap();
        }
        Fault::Multiple => {
            inject_random_basic_faults(sn, 0.15, BasicFaultMix::DropOnly, seed);
        }
        Fault::Intermittent => {
            inject_intermittent_faults(sn, 2, 1_000_000_000, 400_000_000, seed);
            // Start outside the active window so one-shot schemes probe
            // a healthy-looking network (their FN mode in the paper).
            sn.network.advance_ns(450_000_000);
        }
        Fault::Targeting => {
            // Victim subnets of 1/16 of each rule's space: randomized
            // header sampling hits them within the round budget (the
            // paper weights sampling by observed traffic instead).
            inject_targeting_faults(sn, 2, 4, seed);
        }
        Fault::Detour => {
            inject_colluding_detours(sn, 2, 1, seed);
        }
    }
}

/// Renders the paper's Table I cell notation from measured accuracy.
fn verdict(acc: Accuracy) -> &'static str {
    match (acc.false_negative_rate > 0.0, acc.false_positive_rate > 0.0) {
        (false, false) => "ok",
        (true, false) => "FN",
        (false, true) => "FP",
        (true, true) => "FN,FP",
    }
}

fn average(accs: &[Accuracy]) -> Accuracy {
    let n = accs.len().max(1) as f64;
    Accuracy {
        false_positive_rate: accs.iter().map(|a| a.false_positive_rate).sum::<f64>() / n,
        false_negative_rate: accs.iter().map(|a| a.false_negative_rate).sum::<f64>() / n,
    }
}

fn main() {
    declare_flags("table1", &["--runs N", "--threads N"]);
    let base = ProbeConfig {
        parallelism: parallelism(),
        ..ProbeConfig::default()
    };
    let runs: usize = arg("runs").unwrap_or(5);
    let faults = [
        ("1 faulty node", Fault::Single),
        ("> 1 faulty nodes", Fault::Multiple),
        ("intermittent fault", Fault::Intermittent),
        ("targeting fault", Fault::Targeting),
        ("detour (colluding)", Fault::Detour),
    ];
    let mut table = ResultTable::new(
        "Table I: detection accuracy (ok / FN / FP), measured",
        &[
            "fault class",
            "sdnprobe",
            "randomized",
            "per-rule",
            "intersection",
        ],
    );

    let detect_sdn = |net: &mut Network, fault: Fault| {
        let config = match fault {
            Fault::Intermittent => ProbeConfig {
                restart_when_idle: true,
                max_rounds: 200,
                ..base
            },
            _ => base,
        };
        let r = SdnProbe::with_config(config).detect(net).expect("detect");
        accuracy(net, &r.faulty_switches)
    };
    let detect_rand = |net: &mut Network, seed: u64| {
        let r = RandomizedSdnProbe::with_config(base, seed)
            .detect(net, 60)
            .expect("detect");
        accuracy(net, &r.faulty_switches)
    };
    let detect_rule = |net: &mut Network| {
        let config = ProbeConfig {
            suspicion_threshold: 0,
            ..base
        };
        let r = PerRuleTester::with_config(config)
            .detect(net)
            .expect("detect");
        accuracy(net, &r.faulty_switches)
    };
    let detect_atpg = |net: &mut Network| {
        let r = Atpg::new().detect(net).expect("detect");
        accuracy(net, &r.faulty_switches)
    };

    for (name, fault) in faults {
        let mut cells: [Vec<Accuracy>; 4] = Default::default();
        for run in 0..runs {
            let seed = 21_000 + run as u64 * 17;
            let mut sn = build(seed);
            inject(&mut sn, fault, seed);
            cells[0].push(detect_sdn(&mut sn.network, fault));
            let mut sn = build(seed);
            inject(&mut sn, fault, seed);
            cells[1].push(detect_rand(&mut sn.network, seed));
            let mut sn = build(seed);
            inject(&mut sn, fault, seed);
            cells[2].push(detect_rule(&mut sn.network));
            let mut sn = build(seed);
            inject(&mut sn, fault, seed);
            cells[3].push(detect_atpg(&mut sn.network));
        }
        table.push(&[
            name.to_string(),
            verdict(average(&cells[0])).to_string(),
            verdict(average(&cells[1])).to_string(),
            verdict(average(&cells[2])).to_string(),
            verdict(average(&cells[3])).to_string(),
        ]);
    }
    table.print();
    table.save("table1");
    summary(&[(
        "paper's Table I",
        "row 1: ok/ok/ok/ok · row 2: ok/ok/FP/FP · row 3: ok/ok/FN,FP/FN,FP · \
         row 4: FN/ok/FN,FP/FN,FP · row 5: FN/ok/FN,FP/FN,FP"
            .to_string(),
    )]);
}
