//! Path computation: BFS shortest paths and Yen's K-shortest paths.
//!
//! The SDNProbe evaluation synthesizes flow entries "to forward packets
//! along paths computed by an all-pairs K-th shortest path algorithm
//! \[Eppstein\]" (§VIII). This module provides loopless shortest and
//! K-shortest paths over a [`Topology`]; Yen's algorithm is used instead
//! of Eppstein's because the workload needs *loopless* paths to keep the
//! routing policy a DAG (the paper assumes loop-free policies).

use std::collections::{BinaryHeap, HashSet, VecDeque};

use crate::graph::{SwitchId, Topology};

/// A switch-level path (sequence of adjacent switches, no repeats).
pub type SwitchPath = Vec<SwitchId>;

/// Shortest path from `src` to `dst` by hop count, or `None` if
/// unreachable. The path includes both endpoints; `src == dst` yields
/// `[src]`.
pub fn shortest_path(topo: &Topology, src: SwitchId, dst: SwitchId) -> Option<SwitchPath> {
    shortest_path_avoiding(topo, src, dst, &HashSet::new(), &HashSet::new())
}

/// BFS shortest path that must not use any switch in `banned_switches`
/// (except the endpoints themselves, which must not be banned) nor any
/// directed edge in `banned_edges`.
fn shortest_path_avoiding(
    topo: &Topology,
    src: SwitchId,
    dst: SwitchId,
    banned_switches: &HashSet<SwitchId>,
    banned_edges: &HashSet<(SwitchId, SwitchId)>,
) -> Option<SwitchPath> {
    if banned_switches.contains(&src) || banned_switches.contains(&dst) {
        return None;
    }
    if src == dst {
        return Some(vec![src]);
    }
    let n = topo.switch_count();
    let mut prev: Vec<Option<SwitchId>> = vec![None; n];
    let mut seen = vec![false; n];
    seen[src.0] = true;
    let mut queue = VecDeque::from([src]);
    while let Some(u) = queue.pop_front() {
        for nb in topo.neighbors(u) {
            let v = nb.peer;
            if seen[v.0] || banned_switches.contains(&v) || banned_edges.contains(&(u, v)) {
                continue;
            }
            seen[v.0] = true;
            prev[v.0] = Some(u);
            if v == dst {
                let mut path = vec![dst];
                let mut cur = dst;
                while let Some(p) = prev[cur.0] {
                    path.push(p);
                    cur = p;
                }
                path.reverse();
                return Some(path);
            }
            queue.push_back(v);
        }
    }
    None
}

/// BFS hop distances from `src` to every switch (`None` = unreachable).
pub fn bfs_distances(topo: &Topology, src: SwitchId) -> Vec<Option<u32>> {
    let mut dist = vec![None; topo.switch_count()];
    dist[src.0] = Some(0);
    let mut queue = VecDeque::from([src]);
    while let Some(u) = queue.pop_front() {
        let d = dist[u.0].expect("queued nodes have distances");
        for nb in topo.neighbors(u) {
            if dist[nb.peer.0].is_none() {
                dist[nb.peer.0] = Some(d + 1);
                queue.push_back(nb.peer);
            }
        }
    }
    dist
}

/// Yen's algorithm: up to `k` loopless shortest paths from `src` to
/// `dst`, ordered by non-decreasing hop count.
///
/// Returns fewer than `k` paths when the graph does not contain that many
/// distinct loopless paths, and an empty vector when `dst` is
/// unreachable.
///
/// # Examples
///
/// ```
/// use sdnprobe_topology::{paths::k_shortest_paths, SwitchId, Topology};
///
/// // A square: two distinct 2-hop routes between opposite corners.
/// let mut topo = Topology::new(4);
/// topo.add_link(SwitchId(0), SwitchId(1));
/// topo.add_link(SwitchId(1), SwitchId(2));
/// topo.add_link(SwitchId(0), SwitchId(3));
/// topo.add_link(SwitchId(3), SwitchId(2));
/// let paths = k_shortest_paths(&topo, SwitchId(0), SwitchId(2), 3);
/// assert_eq!(paths.len(), 2);
/// assert!(paths.iter().all(|p| p.len() == 3));
/// ```
pub fn k_shortest_paths(
    topo: &Topology,
    src: SwitchId,
    dst: SwitchId,
    k: usize,
) -> Vec<SwitchPath> {
    if k == 0 {
        return Vec::new();
    }
    let Some(first) = shortest_path(topo, src, dst) else {
        return Vec::new();
    };
    let mut found: Vec<SwitchPath> = vec![first];
    // Min-heap of candidate paths keyed by length; `Reverse` emulated by
    // negated length in a max-heap of (score, path).
    let mut candidates: BinaryHeap<Candidate> = BinaryHeap::new();
    let mut candidate_set: HashSet<SwitchPath> = HashSet::new();

    while found.len() < k {
        let last = found.last().expect("at least one found path");
        // Deviate at every position of the previous path.
        for i in 0..last.len() - 1 {
            let spur_node = last[i];
            let root: Vec<SwitchId> = last[..=i].to_vec();
            // Ban edges used by found paths sharing this root.
            let mut banned_edges: HashSet<(SwitchId, SwitchId)> = HashSet::new();
            for p in &found {
                if p.len() > i && p[..=i] == root[..] {
                    banned_edges.insert((p[i], p[i + 1]));
                    banned_edges.insert((p[i + 1], p[i]));
                }
            }
            // Ban switches on the root (except the spur node) to keep
            // paths loopless.
            let banned_switches: HashSet<SwitchId> = root[..i].iter().copied().collect();
            if let Some(spur) =
                shortest_path_avoiding(topo, spur_node, dst, &banned_switches, &banned_edges)
            {
                let mut total = root.clone();
                total.extend_from_slice(&spur[1..]);
                if !candidate_set.contains(&total) && !found.contains(&total) {
                    candidate_set.insert(total.clone());
                    candidates.push(Candidate(total));
                }
            }
        }
        let Some(Candidate(best)) = candidates.pop() else {
            break;
        };
        candidate_set.remove(&best);
        found.push(best);
    }
    found
}

/// Heap adapter ordering candidates by *shortest* length first.
#[derive(PartialEq, Eq)]
struct Candidate(SwitchPath);

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse length order (BinaryHeap is a max-heap), tie-break on
        // the path itself for determinism.
        other
            .0
            .len()
            .cmp(&self.0.len())
            .then_with(|| other.0.cmp(&self.0))
    }
}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Topology;

    fn line(n: usize) -> Topology {
        let mut t = Topology::new(n);
        for i in 0..n - 1 {
            t.add_link(SwitchId(i), SwitchId(i + 1));
        }
        t
    }

    fn square() -> Topology {
        let mut t = Topology::new(4);
        t.add_link(SwitchId(0), SwitchId(1));
        t.add_link(SwitchId(1), SwitchId(2));
        t.add_link(SwitchId(0), SwitchId(3));
        t.add_link(SwitchId(3), SwitchId(2));
        t
    }

    fn is_valid_path(t: &Topology, p: &[SwitchId]) -> bool {
        p.windows(2).all(|w| t.has_link(w[0], w[1]))
            && p.iter().collect::<HashSet<_>>().len() == p.len()
    }

    #[test]
    fn shortest_on_line() {
        let t = line(5);
        let p = shortest_path(&t, SwitchId(0), SwitchId(4)).unwrap();
        assert_eq!(p.len(), 5);
        assert!(is_valid_path(&t, &p));
    }

    #[test]
    fn shortest_same_node() {
        let t = line(3);
        assert_eq!(
            shortest_path(&t, SwitchId(1), SwitchId(1)),
            Some(vec![SwitchId(1)])
        );
    }

    #[test]
    fn shortest_unreachable() {
        let mut t = Topology::new(3);
        t.add_link(SwitchId(0), SwitchId(1));
        assert_eq!(shortest_path(&t, SwitchId(0), SwitchId(2)), None);
    }

    #[test]
    fn yen_finds_both_square_routes() {
        let t = square();
        let ps = k_shortest_paths(&t, SwitchId(0), SwitchId(2), 5);
        assert_eq!(ps.len(), 2);
        for p in &ps {
            assert!(is_valid_path(&t, p));
            assert_eq!(p.len(), 3);
        }
        assert_ne!(ps[0], ps[1]);
    }

    #[test]
    fn yen_orders_by_length() {
        // Square plus a chord making one 1-hop path.
        let mut t = square();
        t.add_link(SwitchId(0), SwitchId(2));
        let ps = k_shortest_paths(&t, SwitchId(0), SwitchId(2), 5);
        assert_eq!(ps.len(), 3);
        assert!(ps.windows(2).all(|w| w[0].len() <= w[1].len()));
        assert_eq!(ps[0], vec![SwitchId(0), SwitchId(2)]);
    }

    #[test]
    fn yen_paths_are_distinct_and_loopless() {
        // Denser graph: complete graph on 5 nodes.
        let mut t = Topology::new(5);
        for i in 0..5 {
            for j in i + 1..5 {
                t.add_link(SwitchId(i), SwitchId(j));
            }
        }
        let ps = k_shortest_paths(&t, SwitchId(0), SwitchId(4), 10);
        let set: HashSet<_> = ps.iter().collect();
        assert_eq!(set.len(), ps.len(), "paths must be distinct");
        for p in &ps {
            assert!(is_valid_path(&t, p));
        }
        assert!(
            ps.len() >= 5,
            "K5 has many loopless paths, got {}",
            ps.len()
        );
    }

    #[test]
    fn yen_k_zero_and_unreachable() {
        let t = square();
        assert!(k_shortest_paths(&t, SwitchId(0), SwitchId(2), 0).is_empty());
        let mut t2 = Topology::new(3);
        t2.add_link(SwitchId(0), SwitchId(1));
        assert!(k_shortest_paths(&t2, SwitchId(0), SwitchId(2), 3).is_empty());
    }

    #[test]
    fn yen_respects_k_limit() {
        let t = square();
        let ps = k_shortest_paths(&t, SwitchId(0), SwitchId(2), 1);
        assert_eq!(ps.len(), 1);
    }

    #[test]
    fn bfs_distances_on_line() {
        let t = line(4);
        let d = bfs_distances(&t, SwitchId(0));
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(3)]);
        let mut t2 = Topology::new(3);
        t2.add_link(SwitchId(0), SwitchId(1));
        assert_eq!(bfs_distances(&t2, SwitchId(0))[2], None);
    }
}
