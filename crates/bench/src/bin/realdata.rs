//! §VIII-A "Real Dataset": the campus backbone with two routing tables.
//!
//! Paper result: 600 test packets cover 550 + 579 forwarding entries;
//! the deepest overlapping-rule stack is 65; finding one matching header
//! for an overlapping rule with MiniSat took 0.5–2.4 ms, consistently.
//!
//! This binary regenerates the numbers on the synthesized campus
//! workload (DESIGN.md documents the substitution) and benchmarks the
//! workspace's witness solver in MiniSat's role.
//!
//! Usage: `cargo run -p sdnprobe-bench --release --bin realdata [--threads N]`

use std::time::Instant;

use sdnprobe::{generate_with_cache, ExpansionCache};
use sdnprobe_bench::{f3, parallelism, summary, ResultTable};
use sdnprobe_headerspace::solver::WitnessQuery;
use sdnprobe_rulegraph::RuleGraph;
use sdnprobe_workloads::{synthesize_campus, CampusSpec};

fn main() {
    let campus = synthesize_campus(&CampusSpec::default());
    let started = Instant::now();
    let graph = RuleGraph::from_network(&campus.network).expect("loop-free campus policy");
    let plan = generate_with_cache(&graph, &mut ExpansionCache::new(), parallelism());
    let pct = started.elapsed().as_secs_f64();
    assert!(plan.covers_all_rules(&graph));

    // Witness-solver latency in MiniSat's role: for every rule with
    // overlapping higher-priority rules, find one header in
    // `match − ⋃ overlaps`.
    let mut latencies_us: Vec<f64> = Vec::new();
    for v in graph.vertex_ids() {
        let vert = graph.vertex(v);
        // Rebuild the overlap set from the hosting table.
        let ft = campus
            .network
            .flow_table(vert.switch, vert.table)
            .expect("table exists");
        let overlaps: Vec<_> = ft
            .iter()
            .filter(|(id, q)| {
                (q.priority() > vert.priority
                    || (q.priority() == vert.priority && *id < vert.entry))
                    && q.match_field().overlaps(&vert.match_field)
            })
            .map(|(_, q)| q.match_field())
            .collect();
        if overlaps.is_empty() {
            continue;
        }
        let t = Instant::now();
        let witness = WitnessQuery::new(vert.match_field)
            .avoid_all(overlaps.iter().copied())
            .solve();
        latencies_us.push(t.elapsed().as_nanos() as f64 / 1_000.0);
        // Fully shadowed rules legitimately have no witness.
        if witness.is_none() {
            assert!(vert.is_shadowed());
        }
    }
    latencies_us.sort_by(f64::total_cmp);
    let pick = |q: f64| latencies_us[(q * (latencies_us.len() - 1) as f64) as usize];

    let mut table = ResultTable::new(
        "Real dataset (synthesized campus backbone)",
        &["metric", "paper", "measured"],
    );
    table.push(&[
        "routing table 1 entries".to_string(),
        "550".to_string(),
        campus.table_sizes[0].to_string(),
    ]);
    table.push(&[
        "routing table 2 entries".to_string(),
        "579".to_string(),
        campus.table_sizes[1].to_string(),
    ]);
    table.push(&[
        "max overlapping rules".to_string(),
        "65".to_string(),
        campus.overlap_depth.to_string(),
    ]);
    table.push(&[
        "test packets generated".to_string(),
        "600".to_string(),
        plan.packet_count().to_string(),
    ]);
    table.push(&[
        "per-header solve time".to_string(),
        "0.5-2.4 ms (MiniSat)".to_string(),
        format!(
            "{}-{} us (p50 {} us)",
            f3(pick(0.0)),
            f3(pick(1.0)),
            f3(pick(0.5))
        ),
    ]);
    table.push(&[
        "pre-computation".to_string(),
        "n/a".to_string(),
        format!("{} s", f3(pct)),
    ]);
    table.print();
    table.save("realdata");
    summary(&[
        (
            "probe count within the paper's regime (~600 for 1,129 rules)",
            plan.packet_count().to_string(),
        ),
        (
            "solver consistently fast across overlap depths (paper: consistent)",
            format!("{} overlapping rules solved", latencies_us.len()),
        ),
    ]);
}
