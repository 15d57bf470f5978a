//! Figure 8(a): number of generated test packets across the topology
//! suite, for SDNProbe, Randomized SDNProbe, ATPG, and Per-rule Test.
//!
//! Paper result: SDNProbe generates the fewest packets — on average 30 %
//! fewer than ATPG; Randomized SDNProbe sends +72 % on average (+76 %
//! max) over SDNProbe; Per-rule equals the rule count.
//!
//! Usage: `cargo run -p sdnprobe-bench --release --bin fig8a [--topologies N] [--full] [--threads N]`

use rand::rngs::StdRng;
use rand::SeedableRng;
use sdnprobe::{generate_randomized_with_cache, generate_with_cache, ExpansionCache};
use sdnprobe_baselines::{Atpg, PerRuleTester};
use sdnprobe_bench::{arg, declare_flags, f3, flag, parallelism, summary, ResultTable};
use sdnprobe_rulegraph::RuleGraph;
use sdnprobe_workloads::fig8_suite;

fn main() {
    declare_flags("fig8a", &["--topologies N", "--full", "--threads N"]);
    let par = parallelism();
    let count = if flag("full") {
        100
    } else {
        arg::<usize>("topologies").unwrap_or(20)
    };
    let suite = fig8_suite(count, 8_000);
    let mut table = ResultTable::new(
        "Figure 8(a): number of generated test packets",
        &[
            "topology",
            "rules",
            "sdnprobe",
            "randomized",
            "atpg",
            "per-rule",
        ],
    );
    let mut ratio_atpg = Vec::new();
    let mut ratio_rand = Vec::new();
    let mut rows: Vec<(usize, Vec<String>)> = Vec::new();
    for case in &suite {
        let sn = case.build();
        let graph = match RuleGraph::from_network(&sn.network) {
            Ok(g) => g,
            Err(e) => {
                eprintln!("skipping {}: {e}", case.name);
                continue;
            }
        };
        let rules = graph.vertex_count();
        let sdn = generate_with_cache(&graph, &mut ExpansionCache::new(), par).packet_count();
        let mut rng = StdRng::seed_from_u64(case.seed);
        let randomized =
            generate_randomized_with_cache(&graph, &mut rng, &mut ExpansionCache::new(), par)
                .packet_count();
        let atpg_plan = Atpg::new().with_ingress(sn.ingress_switches()).plan(&graph);
        let atpg = atpg_plan.packet_count();
        let (per_rule, _) = PerRuleTester::new().plan(&graph);
        let per_rule = per_rule.len();
        if atpg > 0 {
            ratio_atpg.push(1.0 - sdn as f64 / atpg as f64);
        }
        if sdn > 0 {
            ratio_rand.push(randomized as f64 / sdn as f64 - 1.0);
        }
        rows.push((
            rules,
            vec![
                case.name.clone(),
                rules.to_string(),
                sdn.to_string(),
                randomized.to_string(),
                atpg.to_string(),
                per_rule.to_string(),
            ],
        ));
    }
    // The paper plots topologies ordered by flow-entry count.
    rows.sort_by_key(|(rules, _)| *rules);
    for (_, row) in rows {
        table.push(&row);
    }
    table.print();
    table.save("fig8a");

    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let max = |v: &[f64]| v.iter().cloned().fold(0.0f64, f64::max);
    summary(&[
        (
            "reduction vs ATPG (paper: ~30% avg)",
            format!("{}% avg", f3(avg(&ratio_atpg) * 100.0)),
        ),
        (
            "randomized overhead vs SDNProbe (paper: 72% avg, 76% max)",
            format!(
                "{}% avg, {}% max",
                f3(avg(&ratio_rand) * 100.0),
                f3(max(&ratio_rand) * 100.0)
            ),
        ),
        (
            "per-rule = rule count (paper: by construction)",
            "holds by construction".to_string(),
        ),
    ]);
}
