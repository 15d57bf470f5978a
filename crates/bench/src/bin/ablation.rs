//! Ablation study: what each SDNProbe design choice buys.
//!
//! 1. **Legal transitive closure** (vs covering with vertex-disjoint
//!    paths on step-1 edges): how many probes the closure saves.
//! 2. **Legal augmenting paths** (vs plain maximum matching on the
//!    closure, the paper's Figure 6 motivation): how many of the plain
//!    cover's paths are *illegal* — probes that could never traverse
//!    their rules.
//! 3. **Randomized path-break probability**: probe overhead vs rounds
//!    needed to catch a colluding detour.
//! 4. **Suspicion threshold**: localization delay vs robustness for
//!    intermittent faults.
//!
//! Usage: `cargo run -p sdnprobe-bench --release --bin ablation [--threads N]`

use rand::rngs::StdRng;
use rand::SeedableRng;
use sdnprobe::{
    accuracy, generate_randomized_with_cache, generate_with_cache, ExpansionCache, ProbeConfig,
    RandomizedSdnProbe, SdnProbe,
};
use sdnprobe_bench::{declare_flags, f3, parallelism, summary, ResultTable};
use sdnprobe_rulegraph::{RuleGraph, VertexId};
use sdnprobe_topology::generate::rocketfuel_like;
use sdnprobe_workloads::{
    inject_colluding_detours, inject_intermittent_faults, synthesize, SyntheticNetwork,
    WorkloadSpec,
};

fn build(seed: u64) -> SyntheticNetwork {
    let topo = rocketfuel_like(25, 45, seed);
    synthesize(
        &topo,
        &WorkloadSpec {
            flows: 60,
            k: 3,
            nested_fraction: 0.2,
            diversion_fraction: 0.3,
            min_path_len: 5,
            seed,
        },
    )
}

/// Overlap-rich random networks where legality actually constrains the
/// cover — random prefix rules with clashing priorities, like the
/// paper's Figure 3 (KSP flow workloads are chain-shaped and make all
/// cover variants coincide; see EXPERIMENTS.md).
fn overlap_rich_network(seed: u64) -> sdnprobe_dataplane::Network {
    use rand::Rng;
    use sdnprobe_dataplane::{Action, FlowEntry, Network, TableId};
    use sdnprobe_headerspace::Ternary;
    use sdnprobe_topology::{PortId, SwitchId, Topology};
    let mut rng = StdRng::seed_from_u64(seed);
    let switches = 8;
    let mut topo = Topology::new(switches);
    for i in 1..switches {
        topo.add_link(SwitchId(rng.gen_range(0..i)), SwitchId(i));
    }
    let mut net = Network::new(topo);
    for _ in 0..60 {
        let s = SwitchId(rng.gen_range(0..switches));
        let m = Ternary::prefix(rng.gen::<u8>() as u128, rng.gen_range(0..=5), 8);
        let forward: Vec<PortId> = net
            .topology()
            .neighbors(s)
            .iter()
            .filter(|n| n.peer.0 > s.0)
            .map(|n| n.port)
            .collect();
        let action = if forward.is_empty() || rng.gen_bool(0.3) {
            Action::Output(PortId(40))
        } else {
            Action::Output(forward[rng.gen_range(0..forward.len())])
        };
        let _ = net.install(
            s,
            TableId(0),
            FlowEntry::new(m, action).with_priority(rng.gen_range(0..4)),
        );
    }
    net
}

/// Minimum vertex-disjoint path cover of a DAG given as adjacency
/// lists: `n − |M|` paths from a maximum matching `M` of the split graph
/// (left copy = edge tails, right copy = edge heads). Paths are sorted
/// by first vertex.
fn min_path_cover(adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let (pair_left, pair_right) = hopcroft_karp(adj);
    let mut paths = Vec::new();
    // A path starts at any vertex that is not someone's successor.
    for (start, pred) in pair_right.iter().enumerate() {
        if pred.is_some() {
            continue;
        }
        let mut path = vec![start];
        let mut cur = start;
        while let Some(next) = pair_left[cur] {
            path.push(next);
            cur = next;
        }
        paths.push(path);
    }
    paths.sort();
    paths
}

/// Hopcroft–Karp maximum matching on the bipartite graph whose left
/// vertex `u` has right neighbours `adj[u]` (`n` vertices per side).
/// Returns each left vertex's partner and each right vertex's partner.
fn hopcroft_karp(adj: &[Vec<usize>]) -> (Vec<Option<usize>>, Vec<Option<usize>>) {
    const INF: u32 = u32::MAX;
    let n = adj.len();
    let mut pair_left: Vec<Option<usize>> = vec![None; n];
    let mut pair_right: Vec<Option<usize>> = vec![None; n];
    let mut dist: Vec<u32> = vec![INF; n];
    loop {
        // BFS: layer free left vertices at distance 0.
        let mut queue = std::collections::VecDeque::new();
        for u in 0..n {
            if pair_left[u].is_none() {
                dist[u] = 0;
                queue.push_back(u);
            } else {
                dist[u] = INF;
            }
        }
        let mut found_augmenting = false;
        while let Some(u) = queue.pop_front() {
            for &v in &adj[u] {
                match pair_right[v] {
                    None => found_augmenting = true,
                    Some(w) if dist[w] == INF => {
                        dist[w] = dist[u] + 1;
                        queue.push_back(w);
                    }
                    _ => {}
                }
            }
        }
        if !found_augmenting {
            return (pair_left, pair_right);
        }
        // DFS along the layered structure.
        fn dfs(
            u: usize,
            adj: &[Vec<usize>],
            pair_left: &mut [Option<usize>],
            pair_right: &mut [Option<usize>],
            dist: &mut [u32],
        ) -> bool {
            for &v in &adj[u] {
                let ok = match pair_right[v] {
                    None => true,
                    Some(w) => {
                        dist[w] == dist[u].wrapping_add(1)
                            && dfs(w, adj, pair_left, pair_right, dist)
                    }
                };
                if ok {
                    pair_left[u] = Some(v);
                    pair_right[v] = Some(u);
                    return true;
                }
            }
            dist[u] = u32::MAX;
            false
        }
        for u in 0..n {
            if pair_left[u].is_none() && dist[u] == 0 {
                dfs(u, adj, &mut pair_left, &mut pair_right, &mut dist);
            }
        }
    }
}

/// Every vertex a step-1 path from `u` reaches, ascending, ignoring
/// legality.
fn step1_reachable(step1: &[Vec<usize>], u: usize) -> Vec<usize> {
    let mut seen = vec![false; step1.len()];
    let mut stack = vec![u];
    while let Some(cur) = stack.pop() {
        for &next in &step1[cur] {
            if !std::mem::replace(&mut seen[next], true) {
                stack.push(next);
            }
        }
    }
    (0..step1.len()).filter(|&v| seen[v]).collect()
}

fn closure_and_legality(table_dir: &mut Vec<ResultTable>) {
    let mut table = ResultTable::new(
        "Ablation 1+2: cover construction variants (probes; illegal paths)",
        &[
            "seed",
            "rules",
            "mlpc (sdnprobe)",
            "disjoint mpc (no closure)",
            "plain closure mpc",
            "illegal in plain",
        ],
    );
    let mut total_illegal = 0usize;
    for seed in 0u64..12 {
        let net = overlap_rich_network(seed);
        let graph = match RuleGraph::from_network(&net) {
            Ok(g) => g,
            Err(_) => continue,
        };
        let mlpc =
            generate_with_cache(&graph, &mut ExpansionCache::new(), parallelism()).packet_count();
        // Compare on the same universe MLPC covers: drop cover paths
        // that only contain shadowed rules (no packet can trigger them,
        // so no scheme needs to probe them).
        let live = |p: &Vec<usize>| {
            p.iter().any(|&v| {
                graph
                    .vertex_ids()
                    .any(|x| x.0 == v && !graph.vertex(x).is_shadowed())
            })
        };
        // A fresh graph has no dead vertex slots.
        let n = graph.vertex_count();
        // Vertex-disjoint MPC on step-1 edges (no closure, no sharing).
        let step1: Vec<Vec<usize>> = (0..n)
            .map(|u| graph.successors(VertexId(u)).iter().map(|v| v.0).collect())
            .collect();
        let disjoint = min_path_cover(&step1).into_iter().filter(live).count();
        // Plain maximum-matching cover on the legality-blind step-1
        // transitive closure — the paper's Figure 6 failure mode.
        let closure: Vec<Vec<usize>> = (0..n).map(|u| step1_reachable(&step1, u)).collect();
        let plain: Vec<Vec<usize>> = min_path_cover(&closure).into_iter().filter(live).collect();
        let illegal = plain
            .iter()
            .filter(|p| {
                let cover: Vec<VertexId> = p.iter().map(|&v| VertexId(v)).collect();
                graph.expand_cover_path(&cover).is_none()
            })
            .count();
        total_illegal += illegal;
        table.push(&[
            seed.to_string(),
            graph.vertex_count().to_string(),
            mlpc.to_string(),
            disjoint.to_string(),
            plain.len().to_string(),
            illegal.to_string(),
        ]);
    }
    assert!(
        total_illegal > 0,
        "expected the legality-blind cover to produce untraversable paths"
    );
    table_dir.push(table);
}

fn detour_rounds_with_seed(sn_seed: u64, rounds_cap: usize) -> Option<usize> {
    let mut sn = build(sn_seed);
    let pairs = inject_colluding_detours(&mut sn, 2, 1, sn_seed);
    if pairs.is_empty() {
        return None;
    }
    let config = ProbeConfig {
        parallelism: parallelism(),
        ..ProbeConfig::default()
    };
    let prober = RandomizedSdnProbe::with_config(config, sn_seed);
    let mut session = prober.session(&sn.network).ok()?;
    for round in 1..=rounds_cap {
        let report = session.step(&mut sn.network).ok()?;
        if accuracy(&sn.network, &report.faulty_switches).false_negative_rate == 0.0 {
            return Some(round);
        }
    }
    None
}

fn randomization_overhead(table_dir: &mut Vec<ResultTable>) {
    // The break probability is a compile-time constant; this ablation
    // reports the *observable* trade-off of the chosen value: packet
    // overhead of randomized rounds and detour time-to-detect.
    let mut table = ResultTable::new(
        "Ablation 3: randomized rounds (chosen break probability 0.15)",
        &[
            "seed",
            "min packets",
            "randomized avg",
            "overhead",
            "detour caught in",
        ],
    );
    for seed in [11u64, 12, 13] {
        let sn = build(seed);
        let Ok(graph) = RuleGraph::from_network(&sn.network) else {
            continue;
        };
        let par = parallelism();
        let minimum = generate_with_cache(&graph, &mut ExpansionCache::new(), par).packet_count();
        let mut rng = StdRng::seed_from_u64(seed);
        let avg: f64 = (0..10)
            .map(|_| {
                generate_randomized_with_cache(&graph, &mut rng, &mut ExpansionCache::new(), par)
                    .packet_count()
            })
            .sum::<usize>() as f64
            / 10.0;
        let caught = detour_rounds_with_seed(seed, 60);
        table.push(&[
            seed.to_string(),
            minimum.to_string(),
            f3(avg),
            format!("{}%", f3((avg / minimum as f64 - 1.0) * 100.0)),
            caught
                .map(|r| format!("{r} rounds"))
                .unwrap_or_else(|| "> 60 rounds".to_string()),
        ]);
    }
    table_dir.push(table);
}

fn threshold_sweep(table_dir: &mut Vec<ResultTable>) {
    let mut table = ResultTable::new(
        "Ablation 4: suspicion threshold vs intermittent-fault time-to-detect",
        &["threshold", "detected", "fp", "last detection (virtual-s)"],
    );
    for threshold in [0u32, 1, 3, 6, 10] {
        let mut sn = build(31);
        let faulty = inject_intermittent_faults(&mut sn, 2, 1_000_000_000, 400_000_000, 31);
        let truth = sn.network.faulty_switches();
        let config = ProbeConfig {
            suspicion_threshold: threshold,
            restart_when_idle: true,
            max_rounds: 400,
            parallelism: parallelism(),
            ..ProbeConfig::default()
        };
        let report = SdnProbe::with_config(config)
            .detect(&mut sn.network)
            .expect("detect");
        let acc = accuracy(&sn.network, &report.faulty_switches);
        let last_detect = faulty
            .iter()
            .filter_map(|e| report.detections.iter().find(|(d, _)| d == e))
            .map(|(_, t)| *t)
            .max();
        table.push(&[
            threshold.to_string(),
            format!(
                "{}/{}",
                truth.len() - (acc.false_negative_rate * truth.len() as f64).round() as usize,
                truth.len()
            ),
            f3(acc.false_positive_rate),
            last_detect
                .map(|t| f3(t as f64 / 1e9))
                .unwrap_or_else(|| "not detected".to_string()),
        ]);
    }
    table_dir.push(table);
}

fn main() {
    declare_flags("ablation", &["--threads N"]);
    let mut tables = Vec::new();
    closure_and_legality(&mut tables);
    randomization_overhead(&mut tables);
    threshold_sweep(&mut tables);
    for (i, t) in tables.iter().enumerate() {
        t.print();
        t.save(&format!("ablation{}", i + 1));
    }
    summary(&[
        (
            "closure + legality",
            "a legality-blind matching sometimes looks 1-2 probes smaller, \
             but several of its paths are untraversable — those rules would \
             silently go untested. MLPC is the minimum over covers whose \
             every probe can actually fly (the paper's Figure 6 argument)"
                .to_string(),
        ),
        (
            "threshold",
            "0 flags intermittent faults fastest but offers no repeated-\
             evidence margin; the paper's default 3 adds rounds in exchange \
             for requiring four independent failures"
                .to_string(),
        ),
    ]);
}
