//! Table II: test-packet-generation scalability across five topology
//! settings.
//!
//! Paper settings (rules / switches / links): 4,764/10/15 — 33,637/30/54
//! — 82,740/30/54 — 205,713/79/147 — 358,675/79/147. Reported per row:
//! MLPS (max legal path length), ALPS (average), NLPS (total legal
//! paths), TPC (test packet count), PCT (pre-computation seconds).
//!
//! Default runs use `--scale 0.05` of the paper's rule counts so the
//! whole table regenerates in minutes; pass `--scale 1.0` to attempt
//! paper scale (the paper itself needed 2,549 s for row 5).
//!
//! Usage: `cargo run -p sdnprobe-bench --release --bin table2 [--scale F] [--full] [--threads N]`

use std::time::Instant;

use sdnprobe::{generate_with_cache, ExpansionCache};
use sdnprobe_bench::{arg, declare_flags, f3, flag, parallelism, summary, ResultTable};
use sdnprobe_rulegraph::RuleGraph;
use sdnprobe_topology::generate::rocketfuel_like;
use sdnprobe_workloads::{synthesize_to_rule_count, table2_suite};

fn main() {
    declare_flags("table2", &["--scale F", "--full", "--threads N"]);
    let par = parallelism();
    let scale: f64 = if flag("full") {
        1.0
    } else {
        arg("scale").unwrap_or(0.05)
    };
    let suite = table2_suite(scale);
    let mut table = ResultTable::new(
        format!("Table II: test packet generation (scale {scale})"),
        &[
            "row", "rules", "switches", "links", "mlps", "alps", "nlps", "tpc", "pct-s",
        ],
    );
    let paper = [
        (1, 4_764, 6, 4.99, 14_844.0, 954, 2.9),
        (2, 33_637, 9, 8.00, 155_646.0, 4_203, 87.7),
        (3, 82_740, 6, 5.48, 273_128.0, 15_098, 178.5),
        (4, 205_713, 9, 8.41, 983_245.0, 24_456, 970.2),
        (5, 358_675, 9, 8.42, 1_713_258.0, 42_590, 2_549.2),
    ];
    for case in &suite {
        let topo = rocketfuel_like(case.switches, case.links, 30_000 + case.row as u64);
        let sn = synthesize_to_rule_count(&topo, case.target_rules, 30_000 + case.row as u64);
        let started = Instant::now();
        let graph = match RuleGraph::from_network(&sn.network) {
            Ok(g) => g,
            Err(e) => {
                eprintln!("row {}: {e}", case.row);
                continue;
            }
        };
        let plan = generate_with_cache(&graph, &mut ExpansionCache::new(), par);
        let pct = started.elapsed().as_secs_f64();
        let stats = graph.legal_path_stats();
        table.push(&[
            case.row.to_string(),
            graph.vertex_count().to_string(),
            case.switches.to_string(),
            case.links.to_string(),
            stats.max_len.to_string(),
            f3(stats.avg_len),
            format!("{:.0}", stats.total_paths),
            plan.packet_count().to_string(),
            f3(pct),
        ]);
        assert!(plan.covers_all_rules(&graph), "row {} coverage", case.row);
    }
    table.print();
    table.save("table2");
    let paper_rows: Vec<String> = paper
        .iter()
        .map(|(r, rules, mlps, alps, nlps, tpc, pct)| {
            format!("row {r}: rules {rules}, MLPS {mlps}, ALPS {alps}, NLPS {nlps}, TPC {tpc}, PCT {pct}s")
        })
        .collect();
    summary(&[
        ("paper values", paper_rows.join(" · ")),
        (
            "shape checks",
            "TPC well below rule count; ALPS in the 5-8.4 band; PCT grows \
             superlinearly with rules"
                .to_string(),
        ),
    ]);
}
