//! Figure 8(c): delay to localize multiple faulty switches vs the
//! fraction of faulty flow entries, on one large topology.
//!
//! Paper result: SDNProbe and Randomized SDNProbe are the fastest at
//! fault rates ≤ 5 % and remain competitive above; Per-rule Test becomes
//! the fastest beyond 5 % (no localization rounds needed — but it pays
//! with false positives, Fig. 9(a)); ATPG is the worst throughout
//! because it recomputes and sends additional per-suspect probes.
//!
//! Usage: `cargo run -p sdnprobe-bench --release --bin fig8c [--switches N] [--flows N] [--threads N]`

use sdnprobe::{ProbeConfig, RandomizedSdnProbe, SdnProbe};
use sdnprobe_baselines::{Atpg, PerRuleTester};
use sdnprobe_bench::{arg, declare_flags, f3, parallelism, secs, summary, ResultTable};
use sdnprobe_topology::generate::rocketfuel_like;
use sdnprobe_workloads::{
    inject_random_basic_faults, synthesize, BasicFaultMix, SyntheticNetwork, WorkloadSpec,
};

fn build(switches: usize, flows: usize) -> SyntheticNetwork {
    let topo = rocketfuel_like(switches, (switches as f64 * 1.8) as usize, 8_200);
    synthesize(
        &topo,
        &WorkloadSpec {
            flows,
            k: 3,
            nested_fraction: 0.2,
            diversion_fraction: 0.3,
            min_path_len: 5,
            seed: 8_200,
        },
    )
}

fn main() {
    declare_flags("fig8c", &["--switches N", "--flows N", "--threads N"]);
    let config = ProbeConfig {
        parallelism: parallelism(),
        ..ProbeConfig::default()
    };
    let switches: usize = arg("switches").unwrap_or(50);
    let flows: usize = arg("flows").unwrap_or(150);
    let rates = [0.01, 0.02, 0.05, 0.10, 0.20, 0.30, 0.50];
    let mut table = ResultTable::new(
        "Figure 8(c): delay to localize multiple faulty switches (seconds)",
        &[
            "faulty-rate",
            "faulty-rules",
            "sdnprobe",
            "randomized",
            "atpg",
            "per-rule",
        ],
    );
    let mut crossover = None;
    for (i, &rate) in rates.iter().enumerate() {
        let seed = 9_000 + i as u64;

        let mut sn = build(switches, flows);
        let faulty = inject_random_basic_faults(&mut sn, rate, BasicFaultMix::DropOnly, seed);
        let n_faulty = faulty.len();
        let sdn = SdnProbe::with_config(config)
            .detect(&mut sn.network)
            .expect("detect");
        let d_sdn = secs(sdn.generation_ns + sdn.elapsed_ns);

        let mut sn = build(switches, flows);
        inject_random_basic_faults(&mut sn, rate, BasicFaultMix::DropOnly, seed);
        let rand = RandomizedSdnProbe::with_config(config, seed)
            .detect(&mut sn.network, 1)
            .expect("detect");
        let d_rand = secs(rand.generation_ns + rand.elapsed_ns);

        let mut sn = build(switches, flows);
        inject_random_basic_faults(&mut sn, rate, BasicFaultMix::DropOnly, seed);
        let atpg = Atpg::new().detect(&mut sn.network).expect("detect");
        let d_atpg = secs(atpg.generation_ns + atpg.elapsed_ns);

        let mut sn = build(switches, flows);
        inject_random_basic_faults(&mut sn, rate, BasicFaultMix::DropOnly, seed);
        // Per-rule "does not require additional fault localization"
        // (paper): it flags on the first failing probe.
        let per_rule = PerRuleTester::with_config(ProbeConfig {
            suspicion_threshold: 0,
            ..config
        })
        .detect(&mut sn.network)
        .expect("detect");
        let d_rule = secs(per_rule.generation_ns + per_rule.elapsed_ns);

        if crossover.is_none() && d_rule < d_sdn {
            crossover = Some(rate);
        }
        table.push(&[
            format!("{:.0}%", rate * 100.0),
            n_faulty.to_string(),
            f3(d_sdn),
            f3(d_rand),
            f3(d_atpg),
            f3(d_rule),
        ]);
    }
    table.print();
    table.save("fig8c");
    summary(&[
        (
            "per-rule overtakes SDNProbe beyond (paper: ~5%)",
            crossover
                .map(|r| format!("{:.0}%", r * 100.0))
                .unwrap_or_else(|| "never (within the sweep)".to_string()),
        ),
        (
            "SDNProbe fastest at low rates (paper: <= 5%)",
            "see first rows above".to_string(),
        ),
    ]);
}
