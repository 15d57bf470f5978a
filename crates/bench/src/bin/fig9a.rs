//! Figure 9(a): false positive rate for detecting basic failures
//! (misdirection, drop, modification) vs the fraction of faulty
//! switches; 10 runs per data point by default (`--runs`).
//!
//! Paper result: SDNProbe and Randomized SDNProbe have FPR = 0 (exact
//! localization); ATPG blames benign switches at intersections of failed
//! paths; Per-rule Test blames neighbours of faulty switches. FNR is 0
//! for all four (persistent basic faults never escape).
//!
//! Usage: `cargo run -p sdnprobe-bench --release --bin fig9a [--runs N] [--threads N]`

use sdnprobe::{accuracy, ProbeConfig, RandomizedSdnProbe, SdnProbe};
use sdnprobe_baselines::{Atpg, PerRuleTester};
use sdnprobe_bench::{arg, declare_flags, f3, parallelism, summary, ResultTable};
use sdnprobe_topology::generate::rocketfuel_like;
use sdnprobe_workloads::{
    inject_random_basic_faults, synthesize, BasicFaultMix, SyntheticNetwork, WorkloadSpec,
};

fn build(seed: u64) -> SyntheticNetwork {
    let topo = rocketfuel_like(30, 54, seed);
    synthesize(
        &topo,
        &WorkloadSpec {
            flows: 80,
            k: 3,
            nested_fraction: 0.1,
            diversion_fraction: 0.0,
            min_path_len: 4,
            seed,
        },
    )
}

/// One detection scheme run on a network, returning its (FPR, FNR).
type Scheme = Box<dyn FnOnce(&mut SyntheticNetwork) -> (f64, f64)>;

fn main() {
    declare_flags("fig9a", &["--runs N", "--threads N"]);
    let base = ProbeConfig {
        parallelism: parallelism(),
        ..ProbeConfig::default()
    };
    let runs: usize = arg("runs").unwrap_or(10);
    let rates = [0.05, 0.10, 0.20, 0.30, 0.50];
    let mut table = ResultTable::new(
        format!("Figure 9(a): FPR for basic failures ({runs}-run averages); FNR in parentheses"),
        &["faulty-rate", "sdnprobe", "randomized", "atpg", "per-rule"],
    );
    let mut max_fnr = 0.0f64;
    let mut sdn_fpr_total = 0.0;
    for (i, &rate) in rates.iter().enumerate() {
        let mut fpr = [0.0f64; 4];
        let mut fnr = [0.0f64; 4];
        for run in 0..runs {
            let seed = 11_000 + (i * runs + run) as u64;
            let schemes: Vec<Scheme> = vec![
                Box::new(move |sn| {
                    let r = SdnProbe::with_config(base)
                        .detect(&mut sn.network)
                        .expect("detect");
                    let a = accuracy(&sn.network, &r.faulty_switches);
                    (a.false_positive_rate, a.false_negative_rate)
                }),
                Box::new(move |sn| {
                    let r = RandomizedSdnProbe::with_config(base, seed)
                        .detect(&mut sn.network, 2)
                        .expect("detect");
                    let a = accuracy(&sn.network, &r.faulty_switches);
                    (a.false_positive_rate, a.false_negative_rate)
                }),
                Box::new(|sn| {
                    let r = Atpg::new().detect(&mut sn.network).expect("detect");
                    let a = accuracy(&sn.network, &r.faulty_switches);
                    (a.false_positive_rate, a.false_negative_rate)
                }),
                Box::new(move |sn| {
                    let config = ProbeConfig {
                        suspicion_threshold: 0,
                        ..base
                    };
                    let r = PerRuleTester::with_config(config)
                        .detect(&mut sn.network)
                        .expect("detect");
                    let a = accuracy(&sn.network, &r.faulty_switches);
                    (a.false_positive_rate, a.false_negative_rate)
                }),
            ];
            for (j, scheme) in schemes.into_iter().enumerate() {
                let mut sn = build(seed);
                inject_random_basic_faults(&mut sn, rate, BasicFaultMix::DropOnly, seed);
                let (fp, f_n) = scheme(&mut sn);
                fpr[j] += fp / runs as f64;
                fnr[j] += f_n / runs as f64;
                max_fnr = max_fnr.max(f_n);
            }
        }
        sdn_fpr_total += fpr[0] + fpr[1];
        table.push(&[
            format!("{:.0}%", rate * 100.0),
            format!("{} ({})", f3(fpr[0]), f3(fnr[0])),
            format!("{} ({})", f3(fpr[1]), f3(fnr[1])),
            format!("{} ({})", f3(fpr[2]), f3(fnr[2])),
            format!("{} ({})", f3(fpr[3]), f3(fnr[3])),
        ]);
    }
    table.print();
    table.save("fig9a");
    summary(&[
        ("SDNProbe & Randomized FPR (paper: 0)", f3(sdn_fpr_total)),
        (
            "all schemes FNR for basic faults (paper: 0)",
            format!("max observed {}", f3(max_fnr)),
        ),
        (
            "ATPG / per-rule FPR grows with fault rate (paper: yes)",
            "see columns above".to_string(),
        ),
    ]);
}
