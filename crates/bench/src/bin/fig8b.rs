//! Figure 8(b): delay to localize one faulty switch across the topology
//! suite.
//!
//! Paper result: SDNProbe 1–2.5 s, Randomized SDNProbe 1–3.5 s, ATPG up
//! to 13.4 s (extra per-localization computation), Per-rule Test highest
//! (sends one packet per rule each round). Detection delay = test packet
//! generation (wall clock) + probe serialization at 250 KB/s + round
//! trips (virtual clock).
//!
//! Usage: `cargo run -p sdnprobe-bench --release --bin fig8b [--topologies N] [--full] [--threads N]`

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sdnprobe::{ProbeConfig, RandomizedSdnProbe, SdnProbe};
use sdnprobe_baselines::{Atpg, PerRuleTester};
use sdnprobe_bench::{arg, declare_flags, f3, flag, parallelism, secs, summary, ResultTable};
use sdnprobe_dataplane::{FaultKind, FaultSpec};
use sdnprobe_workloads::fig8_suite;

fn main() {
    declare_flags("fig8b", &["--topologies N", "--full", "--threads N"]);
    let config = ProbeConfig {
        parallelism: parallelism(),
        ..ProbeConfig::default()
    };
    let count = if flag("full") {
        100
    } else {
        arg::<usize>("topologies").unwrap_or(15)
    };
    let suite = fig8_suite(count, 8_100);
    let mut table = ResultTable::new(
        "Figure 8(b): delay to localize one faulty switch (seconds)",
        &[
            "topology",
            "rules",
            "sdnprobe",
            "randomized",
            "atpg",
            "per-rule",
        ],
    );
    let mut maxima = [0f64; 4];
    let mut rows: Vec<(usize, Vec<String>)> = Vec::new();
    for case in &suite {
        let mut rng = StdRng::seed_from_u64(case.seed ^ 0xFA11);
        // Inject one random faulty flow entry (paper: "randomly selected
        // one flow entry to be faulty in each topology").
        let make = |seed_net: &mut sdnprobe_workloads::SyntheticNetwork, rng: &mut StdRng| {
            let flows = &seed_net.flows;
            let f = rng.gen_range(0..flows.len());
            let e = flows[f].entries[rng.gen_range(0..flows[f].entries.len())];
            seed_net
                .network
                .inject_fault(e, FaultSpec::new(FaultKind::Drop))
                .expect("entry installed");
        };

        let delay =
            |report: &sdnprobe::DetectionReport| secs(report.generation_ns + report.elapsed_ns);

        let mut sn = case.build();
        make(&mut sn, &mut rng);
        let rules = sn.rule_count();
        let sdn = SdnProbe::with_config(config)
            .detect(&mut sn.network)
            .expect("detect");
        let d_sdn = delay(&sdn);

        let mut sn = case.build();
        make(&mut sn, &mut rng);
        let rand_report = RandomizedSdnProbe::with_config(config, case.seed)
            .detect(&mut sn.network, 1)
            .expect("detect");
        let d_rand = delay(&rand_report);

        let mut sn = case.build();
        make(&mut sn, &mut rng);
        let atpg = Atpg::new().detect(&mut sn.network).expect("detect");
        let d_atpg = delay(&atpg);

        let mut sn = case.build();
        make(&mut sn, &mut rng);
        // Per-rule needs threshold+1 failing rounds before it flags.
        let per_rule = PerRuleTester::with_config(config)
            .detect(&mut sn.network)
            .expect("detect");
        let d_rule = delay(&per_rule);

        for (i, d) in [d_sdn, d_rand, d_atpg, d_rule].iter().enumerate() {
            maxima[i] = maxima[i].max(*d);
        }
        rows.push((
            rules,
            vec![
                case.name.clone(),
                rules.to_string(),
                f3(d_sdn),
                f3(d_rand),
                f3(d_atpg),
                f3(d_rule),
            ],
        ));
    }
    rows.sort_by_key(|(rules, _)| *rules);
    for (_, row) in rows {
        table.push(&row);
    }
    table.print();
    table.save("fig8b");

    summary(&[
        (
            "SDNProbe max delay (paper: <= 2.5 s)",
            format!("{} s", f3(maxima[0])),
        ),
        (
            "Randomized max delay (paper: <= 3.5 s)",
            format!("{} s", f3(maxima[1])),
        ),
        (
            "ATPG max delay (paper: <= 13.4 s, worst of per-scheme)",
            format!("{} s", f3(maxima[2])),
        ),
        (
            "Per-rule max delay (paper: highest)",
            format!("{} s", f3(maxima[3])),
        ),
        (
            "ordering sdnprobe < per-rule (paper: holds)",
            if maxima[0] <= maxima[3] {
                "holds"
            } else {
                "VIOLATED"
            }
            .to_string(),
        ),
        (
            "ATPG vs SDNProbe (paper: ATPG up to 5x slower)",
            format!(
                "ATPG {} — its paper-reported delay is dominated by test-packet \
                 recomputation, which this Rust implementation performs in \
                 microseconds; see EXPERIMENTS.md",
                if maxima[2] >= maxima[0] {
                    "slower (matches paper)"
                } else {
                    "faster (deviation)"
                }
            ),
        ),
    ]);
}
