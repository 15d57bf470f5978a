//! Figure 9(b): false negative rate under colluding path-detour
//! attacks, vs the number of colluding pairs; 10 runs per point by
//! default (`--runs`).
//!
//! Paper result: Randomized SDNProbe reaches FNR = 0 (the probability
//! that the colluders share every randomized tested path decays
//! exponentially with rounds); static SDNProbe and ATPG miss detours
//! that stay inside one tested path; Per-rule Test's three-hop windows
//! make stealthy detours hard (low, not zero, FNR).
//!
//! Detour gaps mix adjacent-partner detours (invisible to 3-hop windows)
//! and longer jumps, mirroring the paper's "deviates from the testing
//! path but eventually returns" model.
//!
//! Usage: `cargo run -p sdnprobe-bench --release --bin fig9b [--runs N] [--rounds N] [--threads N]`

use sdnprobe::{accuracy, ProbeConfig, RandomizedSdnProbe, SdnProbe};
use sdnprobe_baselines::{Atpg, PerRuleTester};
use sdnprobe_bench::{arg, declare_flags, f3, parallelism, summary, ResultTable};
use sdnprobe_topology::generate::rocketfuel_like;
use sdnprobe_workloads::{inject_colluding_detours, synthesize, SyntheticNetwork, WorkloadSpec};

fn build(seed: u64) -> SyntheticNetwork {
    let topo = rocketfuel_like(30, 54, seed);
    synthesize(
        &topo,
        &WorkloadSpec {
            flows: 60,
            k: 3,
            nested_fraction: 0.0,
            diversion_fraction: 0.0,
            min_path_len: 5,
            seed,
        },
    )
}

fn main() {
    declare_flags("fig9b", &["--runs N", "--rounds N", "--threads N"]);
    let base = ProbeConfig {
        parallelism: parallelism(),
        ..ProbeConfig::default()
    };
    let runs: usize = arg("runs").unwrap_or(10);
    let rounds: usize = arg("rounds").unwrap_or(30);
    let pair_counts = [1usize, 2, 4, 6, 8];
    let mut table = ResultTable::new(
        format!("Figure 9(b): FNR under colluding detours ({runs}-run averages)"),
        &["pairs", "sdnprobe", "randomized", "atpg", "per-rule"],
    );
    let mut rand_fnr_total = 0.0;
    let mut static_fnr_total = 0.0;
    let mut rule_fnr_total = 0.0;
    for (i, &pairs) in pair_counts.iter().enumerate() {
        let mut fnr = [0.0f64; 4];
        for run in 0..runs {
            let seed = 12_000 + (i * runs + run) as u64;
            // Gap >= 1: adjacent-partner detours included, like the
            // paper's eavesdropping model.
            let mut sn = build(seed);
            let injected = inject_colluding_detours(&mut sn, pairs, 1, seed);
            if injected.is_empty() {
                continue;
            }
            let r = SdnProbe::with_config(base)
                .detect(&mut sn.network)
                .expect("detect");
            fnr[0] += accuracy(&sn.network, &r.faulty_switches).false_negative_rate / runs as f64;

            let mut sn = build(seed);
            inject_colluding_detours(&mut sn, pairs, 1, seed);
            let r = RandomizedSdnProbe::with_config(base, seed)
                .detect(&mut sn.network, rounds)
                .expect("detect");
            fnr[1] += accuracy(&sn.network, &r.faulty_switches).false_negative_rate / runs as f64;

            let mut sn = build(seed);
            inject_colluding_detours(&mut sn, pairs, 1, seed);
            let r = Atpg::new().detect(&mut sn.network).expect("detect");
            fnr[2] += accuracy(&sn.network, &r.faulty_switches).false_negative_rate / runs as f64;

            let mut sn = build(seed);
            inject_colluding_detours(&mut sn, pairs, 1, seed);
            let config = ProbeConfig {
                suspicion_threshold: 0,
                ..base
            };
            let r = PerRuleTester::with_config(config)
                .detect(&mut sn.network)
                .expect("detect");
            fnr[3] += accuracy(&sn.network, &r.faulty_switches).false_negative_rate / runs as f64;
        }
        static_fnr_total += fnr[0];
        rand_fnr_total += fnr[1];
        rule_fnr_total += fnr[3];
        table.push(&[
            pairs.to_string(),
            f3(fnr[0]),
            f3(fnr[1]),
            f3(fnr[2]),
            f3(fnr[3]),
        ]);
    }
    table.print();
    table.save("fig9b");
    summary(&[
        (
            "Randomized SDNProbe FNR (paper: 0 over enough rounds)",
            f3(rand_fnr_total / pair_counts.len() as f64),
        ),
        (
            "static SDNProbe FNR (paper: high — colluders share its fixed paths)",
            f3(static_fnr_total / pair_counts.len() as f64),
        ),
        (
            "per-rule FNR lower than static SDNProbe (paper: yes, short windows)",
            format!(
                "{} vs {}",
                f3(rule_fnr_total / pair_counts.len() as f64),
                f3(static_fnr_total / pair_counts.len() as f64)
            ),
        ),
    ]);
}
