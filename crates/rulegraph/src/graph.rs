//! Rule-graph construction and legality machinery (§V-A of the paper).
//!
//! The rule graph is a DAG whose vertices are forwarding flow entries and
//! whose edges capture *possible* packet flow:
//!
//! 1. **Step 1 — building edges.** Edge `(ri, rj)` exists iff `ri`'s
//!    output port links to `rj`'s switch and `ri.out ∩ rj.in ≠ ∅`.
//! 2. **Step 2 — legal transitive closure.** Edge `(u, v)` is added iff
//!    a *legal path* (Definition 1) leads from `u` to `v`: some concrete
//!    packet can traverse the whole chain of rules.
//!
//! A routing loop (cycle in the step-1 graph) is rejected at
//! construction, per the paper's loop-free-policy assumption.

use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};

use sdnprobe_classifier::IdHashBuilder;
use sdnprobe_dataplane::{Action, EntryId, FlowEntry, FlowTable, Network, TableId};
use sdnprobe_headerspace::HeaderSet;
use sdnprobe_topology::SwitchId;

use crate::bitset::VisitSet;
use crate::error::RuleGraphError;
use crate::expansion::PrefixTrace;
use crate::vertex::{RuleVertex, VertexId};

/// Legal-path statistics for the paper's Table II.
///
/// `NLPS` counts source-to-sink paths of the step-1 rule graph (every
/// consecutive pair being edge-compatible); `MLPS`/`ALPS` are the
/// maximum/average number of rules on those paths. Counting uses DAG
/// dynamic programming — paths are never enumerated, since the paper's
/// largest topology has 1.7 M of them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LegalPathStats {
    /// Maximum legal path length (rules per path), the paper's MLPS.
    pub max_len: usize,
    /// Average legal path length, the paper's ALPS.
    pub avg_len: f64,
    /// Total number of legal paths, the paper's NLPS.
    pub total_paths: f64,
}

/// The rule graph: vertices, step-1 edges, and legal transitive closure.
///
/// # Examples
///
/// Building the graph for a two-switch network:
///
/// ```
/// use sdnprobe_dataplane::{Action, FlowEntry, Network, TableId};
/// use sdnprobe_rulegraph::RuleGraph;
/// use sdnprobe_topology::{SwitchId, Topology};
///
/// let mut topo = Topology::new(2);
/// topo.add_link(SwitchId(0), SwitchId(1));
/// let mut net = Network::new(topo);
/// let p = net.topology().port_towards(SwitchId(0), SwitchId(1)).unwrap();
/// net.install(SwitchId(0), TableId(0),
///     FlowEntry::new("00xxxxxx".parse()?, Action::Output(p)))?;
/// let back = net.topology().port_towards(SwitchId(1), SwitchId(0)).unwrap();
/// // Host-facing port 99 leaves the network; still a forwarding rule.
/// let _ = back;
/// net.install(SwitchId(1), TableId(0),
///     FlowEntry::new("0xxxxxxx".parse()?, Action::Output(sdnprobe_topology::PortId(99))))?;
/// let graph = RuleGraph::from_network(&net)?;
/// assert_eq!(graph.vertex_count(), 2);
/// assert_eq!(graph.step1_edge_count(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct RuleGraph {
    pub(crate) header_len: u32,
    /// Vertex arena; a fresh build sizes it to the forwarding entries
    /// exactly. Removed vertices leave `None`.
    pub(crate) vertices: Vec<Option<RuleVertex>>,
    /// The vertex of each live forwarding entry. Edge candidates come
    /// from the flow tables as entry ids and are mapped through it.
    pub(crate) by_entry: HashMap<EntryId, VertexId, IdHashBuilder>,
    /// Alive vertices per (switch, table), for edge rebuilding.
    pub(crate) by_location: HashMap<(SwitchId, TableId), Vec<VertexId>>,
    /// Alive vertices whose output port leads *to* a switch (the
    /// reverse of `next_switch`): every in-edge of a vertex on that
    /// switch starts at one of them, so an incremental update re-runs
    /// their out-edge queries instead of scanning the whole graph.
    pub(crate) by_next_switch: HashMap<SwitchId, Vec<VertexId>>,
    /// Step-1 out-edges.
    pub(crate) step1: Vec<Vec<VertexId>>,
    /// Step-1 in-edges (for incremental updates).
    pub(crate) step1_rev: Vec<Vec<VertexId>>,
    /// Legal-closure successors per vertex (includes step-1 successors),
    /// sorted ascending so edge membership is a binary search. Rows stay
    /// short — flows are chain-shaped — so this sparse form is the only
    /// copy of the closure.
    pub(crate) closure: Vec<Vec<VertexId>>,
    /// Bumped on every mutation (edge rebuilds, incremental updates) so
    /// an [`ExpansionCache`](crate::ExpansionCache) can detect staleness.
    /// Seeded from a process-wide counter at construction, so a cache
    /// warmed on one graph never validates against a different instance
    /// that happens to have seen the same number of mutations.
    pub(crate) generation: u64,
}

/// Process-wide source of per-instance generation bases (see
/// [`RuleGraph::generation`]). The value is only ever compared for
/// equality against a cache's remembered generation, so the allocation
/// order between graphs cannot influence any result.
static GRAPH_INSTANCE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

impl Clone for RuleGraph {
    /// Clones take a fresh instance base for their generation counter:
    /// the clone and the original may be mutated independently, so a
    /// cache warmed on one must never validate against the other.
    fn clone(&self) -> Self {
        Self {
            header_len: self.header_len,
            vertices: self.vertices.clone(),
            by_entry: self.by_entry.clone(),
            by_location: self.by_location.clone(),
            by_next_switch: self.by_next_switch.clone(),
            step1: self.step1.clone(),
            step1_rev: self.step1_rev.clone(),
            closure: self.closure.clone(),
            generation: GRAPH_INSTANCE.fetch_add(1, std::sync::atomic::Ordering::Relaxed) << 32,
        }
    }
}

impl RuleGraph {
    /// Builds the rule graph from every *forwarding* entry installed in
    /// the network (entries whose action is `Output`). Non-forwarding
    /// entries (drop, controller, goto) still shadow lower-priority
    /// matches but contribute no vertices.
    ///
    /// # Errors
    ///
    /// Returns [`RuleGraphError::PolicyLoop`] if the step-1 graph has a
    /// cycle (the controller's policy routes in a loop) and
    /// [`RuleGraphError::NoForwardingRules`] if the network has no
    /// forwarding entries at all.
    pub fn from_network(net: &Network) -> Result<Self, RuleGraphError> {
        let mut graph = Self::vertices_only(net)?;
        graph.rebuild_all_edges(net);
        let order = graph.check_acyclic()?;
        graph.rebuild_closure(order.into_iter().rev());
        Ok(graph)
    }

    /// Builds vertices with resolved input/output spaces but no edges.
    ///
    /// Multi-table policies are flattened: a forwarding entry in table
    /// `k > 0` is reachable only through `goto` entries, so its
    /// *effective* input is the header space arriving at its table
    /// intersected with its table-local resolved match (see
    /// [`effective_inputs`]).
    pub(crate) fn vertices_only(net: &Network) -> Result<Self, RuleGraphError> {
        let tables_of = |switch| {
            let tables = net.table_count(switch).expect("switch exists");
            (0..tables)
                .map(TableId)
                .map(move |table| (table, net.flow_table(switch, table).expect("table exists")))
        };
        let forwarding = net
            .topology()
            .switches()
            .flat_map(tables_of)
            .flat_map(|(_, ft)| ft.iter())
            .filter(|(_, e)| matches!(e.action(), Action::Output(_)))
            .count();
        let mut vertices: Vec<Option<RuleVertex>> = Vec::with_capacity(forwarding);
        let mut by_entry = HashMap::with_capacity_and_hasher(forwarding, IdHashBuilder);
        let mut by_location: HashMap<(SwitchId, TableId), Vec<VertexId>> = HashMap::new();
        let mut header_len = 0u32;
        for switch in net.topology().switches() {
            let mut inputs = effective_inputs(net, switch)?;
            for (table, ft) in tables_of(switch) {
                for (entry_id, entry) in ft.iter() {
                    let Action::Output(port) = entry.action() else {
                        continue;
                    };
                    header_len = entry.match_field().len();
                    let next_switch = net.topology().peer_of(switch, port);
                    let mut vertex = RuleVertex::new(entry_id, entry, switch, table, next_switch);
                    vertex.set_input(
                        inputs
                            .remove(&entry_id)
                            .expect("effective_inputs covers every forwarding entry"),
                    );
                    let id = VertexId(vertices.len());
                    vertices.push(Some(vertex));
                    by_entry.insert(entry_id, id);
                    by_location.entry((switch, table)).or_default().push(id);
                }
            }
        }
        if vertices.is_empty() {
            return Err(RuleGraphError::NoForwardingRules);
        }
        let n = vertices.len();
        let mut graph = Self {
            header_len,
            vertices,
            by_entry,
            by_location,
            by_next_switch: HashMap::new(),
            step1: vec![Vec::new(); n],
            step1_rev: vec![Vec::new(); n],
            closure: vec![Vec::new(); n],
            // Low 32 bits count this instance's mutations; the high bits
            // make the counter unique across instances.
            generation: GRAPH_INSTANCE.fetch_add(1, std::sync::atomic::Ordering::Relaxed) << 32,
        };
        for i in 0..n {
            graph.index_vertex(VertexId(i));
        }
        Ok(graph)
    }

    /// Registers a live vertex in `by_next_switch`.
    pub(crate) fn index_vertex(&mut self, id: VertexId) {
        let Some(peer) = self.vertices[id.0].as_ref().and_then(|v| v.next_switch) else {
            return;
        };
        self.by_next_switch.entry(peer).or_default().push(id);
    }

    /// Removes a vertex from `by_next_switch`; `next_switch` is where it
    /// was registered.
    pub(crate) fn unindex_vertex(&mut self, id: VertexId, next_switch: Option<SwitchId>) {
        if let Some(list) = next_switch.and_then(|peer| self.by_next_switch.get_mut(&peer)) {
            list.retain(|&x| x != id);
        }
    }

    /// Header length in bits of the underlying rules.
    pub fn header_len(&self) -> u32 {
        self.header_len
    }

    /// Number of live vertices.
    pub fn vertex_count(&self) -> usize {
        self.vertices.iter().flatten().count()
    }

    /// Iterates over live vertex ids.
    pub fn vertex_ids(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.vertices
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.as_ref().map(|_| VertexId(i)))
    }

    /// The vertex data for a live id.
    ///
    /// # Panics
    ///
    /// Panics if the id is dead or out of range.
    pub fn vertex(&self, id: VertexId) -> &RuleVertex {
        self.vertices[id.0]
            .as_ref()
            .expect("vertex id must be live")
    }

    /// Looks up the vertex hosting an entry.
    pub fn vertex_of_entry(&self, entry: EntryId) -> Option<VertexId> {
        self.by_entry.get(&entry).copied()
    }

    /// Step-1 successors of a vertex.
    pub fn successors(&self, u: VertexId) -> &[VertexId] {
        &self.step1[u.0]
    }

    /// Step-1 predecessors of a vertex.
    pub fn predecessors(&self, u: VertexId) -> &[VertexId] {
        &self.step1_rev[u.0]
    }

    /// Number of step-1 edges.
    pub fn step1_edge_count(&self) -> usize {
        self.step1.iter().map(Vec::len).sum()
    }

    /// Closure successors of a vertex (every `v` with a legal path
    /// `u → … → v`, including direct successors).
    pub fn closure_successors(&self, u: VertexId) -> &[VertexId] {
        &self.closure[u.0]
    }

    /// True if the legal transitive closure contains edge `(u, v)`; a
    /// dead or out-of-range id in either position gives `false`.
    pub fn has_closure_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.closure
            .get(u.0)
            .is_some_and(|succs| succs.binary_search(&v).is_ok())
    }

    /// Number of closure edges.
    pub fn closure_edge_count(&self) -> usize {
        self.closure.iter().map(Vec::len).sum()
    }

    /// Mutation counter: incremented whenever vertices, edges, or the
    /// legal closure change, so expansion caches keyed on graph state
    /// can detect staleness cheaply.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The paper's `O_{i+1} = T(O_i ∩ r.in, r.s)` chain step.
    pub fn chain(&self, set: &HeaderSet, v: VertexId) -> HeaderSet {
        self.chain_borrowed(set, v).into_owned()
    }

    /// [`chain`](Self::chain) that hands `set` back borrowed when the
    /// step provably leaves it unchanged: `v` sets no field and every
    /// term of `set` lies inside a term of `v`'s input (the header-set
    /// no-op rules). Walks that only pass the set on skip the clone.
    pub(crate) fn chain_borrowed<'a>(&self, set: &'a HeaderSet, v: VertexId) -> Cow<'a, HeaderSet> {
        let vert = self.vertex(v);
        if vert.set_field.is_wildcard() && set.is_termwise_subset_of(&vert.input) {
            return Cow::Borrowed(set);
        }
        let mut out = set.intersect(&vert.input);
        out.apply_set_field_in_place(&vert.set_field);
        Cow::Owned(out)
    }

    /// Header space of packets that can traverse an entire *real* path
    /// (consecutive step-1 edges): the paper's `HS(ℓ)`, measured at path
    /// entry. Empty iff the path is illegal.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if consecutive vertices are not step-1
    /// adjacent.
    pub fn path_header_space(&self, path: &[VertexId]) -> HeaderSet {
        if path.is_empty() {
            return HeaderSet::empty(self.header_len);
        }
        debug_assert!(
            path.windows(2).all(|w| self.step1[w[0].0].contains(&w[1])),
            "path must follow step-1 edges"
        );
        // Forward pass to confirm legality cheaply.
        let mut forward = self.vertex(path[0]).output().clone();
        for &v in &path[1..] {
            forward = self.chain(&forward, v);
            if forward.is_empty() {
                return HeaderSet::empty(self.header_len);
            }
        }
        self.path_entry_space(path)
    }

    /// Backward projection of a path's constraints to its entry headers.
    ///
    /// Equals [`path_header_space`](Self::path_header_space) whenever the
    /// path is already known to be legal (the forward pass only gates the
    /// empty case), which lets callers holding an expansion — whose
    /// chained sets were non-empty at every step — skip re-running the
    /// forward chain.
    pub fn path_entry_space(&self, path: &[VertexId]) -> HeaderSet {
        let mut required = HeaderSet::full(self.header_len);
        for &v in path.iter().rev() {
            let vert = self.vertex(v);
            required = vert
                .input
                .intersect(&required.preimage_under(&vert.set_field));
        }
        required
    }

    /// True if a real path is legal (Definition 1).
    pub fn is_real_path_legal(&self, path: &[VertexId]) -> bool {
        !self.path_header_space(path).is_empty()
    }

    /// Expands a *cover path* — consecutive legal-closure edges — into a
    /// real step-1 path that is legal end to end, together with its
    /// entry header space. Returns `None` when no expansion is legal.
    ///
    /// This is the conversion the paper sketches in Figure 6
    /// (`b2 → e2` becomes `b2 → c2 → e2`), done with full backtracking so
    /// a failed witness choice in one segment can be revised.
    pub fn expand_cover_path(&self, cover: &[VertexId]) -> Option<(Vec<VertexId>, HeaderSet)> {
        if cover.is_empty() {
            return None;
        }
        let mut visited = VisitSet::default();
        visited.begin(self.vertices.len());
        visited.insert(cover[0].0);
        let mut real = vec![cover[0]];
        let start = self.vertex(cover[0]).output();
        if !self.expand_rec(cover, 1, start, &mut real, &mut visited, None) {
            return None;
        }
        // The DFS already chained a non-empty set through every step, so
        // the forward legality pass is settled; only the backward
        // projection to entry headers remains.
        let hs = self.path_entry_space(&real);
        debug_assert!(!hs.is_empty());
        Some((real, hs))
    }

    pub(crate) fn expand_rec(
        &self,
        cover: &[VertexId],
        seg: usize,
        set: &HeaderSet,
        real: &mut Vec<VertexId>,
        visited: &mut VisitSet,
        mut trace: Option<&mut PrefixTrace>,
    ) -> bool {
        // First entry at each segment boundary is the first-in-DFS-order
        // expansion of that cover prefix — snapshot it for the memo.
        if let Some(t) = trace.as_deref_mut() {
            t.record(seg, real);
        }
        if seg == cover.len() {
            return true;
        }
        let target = cover[seg];
        let from = *real.last().expect("real path is non-empty");
        self.dfs_expand(cover, seg, from, target, set, real, visited, trace)
    }

    /// DFS from `from` toward `target` over step-1 edges, chaining `set`;
    /// on reaching the target, recurse into the next cover segment and
    /// backtrack on failure. `visited` mirrors `real`'s membership.
    #[allow(clippy::too_many_arguments)]
    fn dfs_expand(
        &self,
        cover: &[VertexId],
        seg: usize,
        from: VertexId,
        target: VertexId,
        set: &HeaderSet,
        real: &mut Vec<VertexId>,
        visited: &mut VisitSet,
        mut trace: Option<&mut PrefixTrace>,
    ) -> bool {
        for &next in &self.step1[from.0] {
            // Prune: `next` must be the target or reach it legally.
            if next != target && self.closure[next.0].binary_search(&target).is_err() {
                continue;
            }
            // Prune revisits within this real path (keeps paths simple).
            if visited.contains(next.0) {
                continue;
            }
            let chained = self.chain_borrowed(set, next);
            if chained.is_empty() {
                continue;
            }
            real.push(next);
            visited.insert(next.0);
            let found = if next == target {
                self.expand_rec(
                    cover,
                    seg + 1,
                    &chained,
                    real,
                    visited,
                    trace.as_deref_mut(),
                )
            } else {
                self.dfs_expand(
                    cover,
                    seg,
                    next,
                    target,
                    &chained,
                    real,
                    visited,
                    trace.as_deref_mut(),
                )
            };
            if found {
                return true;
            }
            real.pop();
            visited.remove(next.0);
        }
        false
    }

    /// Builds every step-1 edge of a graph that has none yet,
    /// collecting candidates from the network's flow tables.
    fn rebuild_all_edges(&mut self, net: &Network) {
        self.generation += 1;
        let ids: Vec<VertexId> = self.vertex_ids().collect();
        for u in ids {
            self.rebuild_out_edges(net, u);
        }
    }

    /// Clears the out-edges of `u`, returning its vertex data and the
    /// peer switch if `u` can still emit packets toward one.
    fn clear_out_edges(&mut self, u: VertexId) -> Option<(&RuleVertex, SwitchId)> {
        let old: Vec<VertexId> = std::mem::take(&mut self.step1[u.0]);
        for v in old {
            self.step1_rev[v.0].retain(|&x| x != u);
        }
        let vert = self.vertices[u.0].as_ref()?;
        let peer = vert.next_switch?; // host-facing egress: no successors
        if vert.output().is_empty() {
            return None; // shadowed rule can never emit a packet
        }
        Some((vert, peer))
    }

    /// Recomputes the out-edges of a single vertex (clearing old ones).
    ///
    /// A packet entering the peer starts in table 0, but goto chains
    /// can carry it to forwarding entries in any table; effective
    /// inputs already encode that reachability, so every vertex on the
    /// peer whose match field intersects `T(u.match, u.set)` is a
    /// candidate. The peer's own flow tables index those match fields:
    /// every table is queried, and each overlapping entry that has a
    /// vertex is a candidate. `T(u.match, u.set)` is a sound query:
    /// every term of `u.out = T(u.in, u.set)` lies inside it, since
    /// `u.in ⊆ u.match` and `T` preserves subsets. Candidates are
    /// sorted ascending, and so is the edge list.
    pub(crate) fn rebuild_out_edges(&mut self, net: &Network, u: VertexId) {
        let Some((vert, peer)) = self.clear_out_edges(u) else {
            return;
        };
        let query = vert.match_field.apply_set_field(&vert.set_field);
        let tables = net.table_count(peer).expect("peer switch exists");
        let mut candidates = Vec::new();
        for table in (0..tables).map(TableId) {
            let ft = net.flow_table(peer, table).expect("table exists");
            ft.for_each_overlap(&query, |entry| {
                if let Some(&v) = self.by_entry.get(&entry) {
                    candidates.push(v);
                }
            });
        }
        candidates.sort_unstable();
        for v in candidates {
            if v == u {
                continue;
            }
            let vert = self.vertices[u.0].as_ref().expect("u is live");
            let cand = self.vertices[v.0].as_ref().expect("mapped vertex is live");
            if vert.output().intersects(&cand.input) {
                self.step1[u.0].push(v);
                self.step1_rev[v.0].push(u);
            }
        }
    }

    /// Verifies the step-1 graph is a DAG and returns its topological
    /// order over every vertex slot.
    ///
    /// # Errors
    ///
    /// Returns [`RuleGraphError::PolicyLoop`] with the offending cycle's
    /// entries otherwise.
    pub(crate) fn check_acyclic(&self) -> Result<Vec<usize>, RuleGraphError> {
        if let Some(order) = self.step1_topological_order() {
            return Ok(order);
        }
        let cycle = self
            .find_step1_cycle()
            .expect("a graph Kahn cannot sort has a cycle");
        Err(RuleGraphError::PolicyLoop {
            cycle: cycle
                .into_iter()
                .filter_map(|i| self.vertices[i].as_ref().map(|v| v.entry))
                .collect(),
        })
    }

    /// Kahn topological order of the step-1 graph over every vertex
    /// slot (dead ones have no edges); `None` if it has a cycle.
    fn step1_topological_order(&self) -> Option<Vec<usize>> {
        let n = self.vertices.len();
        let mut indegree = vec![0usize; n];
        for u in 0..n {
            for v in &self.step1[u] {
                indegree[v.0] += 1;
            }
        }
        let mut queue: VecDeque<usize> = (0..n).filter(|&v| indegree[v] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(u) = queue.pop_front() {
            order.push(u);
            for v in &self.step1[u] {
                indegree[v.0] -= 1;
                if indegree[v.0] == 0 {
                    queue.push_back(v.0);
                }
            }
        }
        (order.len() == n).then_some(order)
    }

    /// A directed cycle of the step-1 graph, or `None` if it is acyclic.
    ///
    /// White/gray/black DFS from roots `0..n`, successors in `step1`
    /// order; the first back edge found closes the reported cycle. The
    /// visit order is part of the contract: workload generators break
    /// loops by dropping the flow that holds `cycle[0]`.
    fn find_step1_cycle(&self) -> Option<Vec<usize>> {
        #[derive(Clone, Copy, PartialEq)]
        enum Mark {
            White,
            Gray,
            Black,
        }
        fn dfs(
            g: &RuleGraph,
            u: usize,
            mark: &mut [Mark],
            stack: &mut Vec<usize>,
        ) -> Option<Vec<usize>> {
            mark[u] = Mark::Gray;
            stack.push(u);
            for &VertexId(v) in &g.step1[u] {
                match mark[v] {
                    Mark::Gray => {
                        let start = stack.iter().position(|&x| x == v).expect("on stack");
                        return Some(stack[start..].to_vec());
                    }
                    Mark::White => {
                        if let Some(c) = dfs(g, v, mark, stack) {
                            return Some(c);
                        }
                    }
                    Mark::Black => {}
                }
            }
            stack.pop();
            mark[u] = Mark::Black;
            None
        }
        let n = self.vertices.len();
        let mut mark = vec![Mark::White; n];
        let mut stack: Vec<usize> = Vec::new();
        for u in 0..n {
            if mark[u] == Mark::White {
                if let Some(c) = dfs(self, u, &mut mark, &mut stack) {
                    return Some(c);
                }
            }
        }
        None
    }

    /// Recomputes the closure rows of `sources` with
    /// [`closure_row`](Self::closure_row), in the order given. Every
    /// step-1 descendant of a source must come before it or already hold
    /// its final row: the reverse of a topological order does that for a
    /// full build.
    pub(crate) fn rebuild_closure(&mut self, sources: impl IntoIterator<Item = usize>) {
        self.generation += 1;
        let mut buffers = RowBuffers::default();
        for u in sources {
            self.closure[u] = self.closure_row(VertexId(u), &mut buffers);
        }
    }

    /// The closure row of `u`: every vertex some packet emitted by `u`
    /// can reach, sorted ascending. Header sets propagate along step-1
    /// edges, accumulating a union per vertex and forwarding only
    /// arrivals that add new terms, so paths that split and merge again
    /// are handled exactly.
    ///
    /// When chaining into `v` yields `v.output` term for term, the walk
    /// takes `v` and `closure[v]` and stops there: propagating
    /// `v.output` from `v` is how `v`'s own row was built, and chaining
    /// distributes over union. Every later arrival at `v` is a subset of
    /// `v.output` and is skipped too. Reads the rows of `u`'s step-1
    /// descendants, which must be final.
    fn closure_row(&self, u: VertexId, buffers: &mut RowBuffers) -> Vec<VertexId> {
        let Some(vert) = self.vertices[u.0].as_ref() else {
            return Vec::new();
        };
        if vert.output().is_empty() {
            return Vec::new();
        }
        let RowBuffers {
            in_row,
            reused,
            reach,
            queue,
            row,
        } = buffers;
        let n = self.vertices.len();
        in_row.begin(n);
        reused.begin(n);
        reach.clear();
        row.clear();
        let mut take = |v: VertexId| {
            if !in_row.contains(v.0) {
                in_row.insert(v.0);
                row.push(v);
            }
        };
        for &w in &self.step1[u.0] {
            let s = self.chain(vert.output(), w);
            if !s.is_empty() {
                queue.push_back((w, s));
            }
        }
        while let Some((v, set)) = queue.pop_front() {
            if reused.contains(v.0) {
                continue;
            }
            if set == *self.vertex(v).output() {
                reused.insert(v.0);
                take(v);
                for &x in &self.closure[v.0] {
                    take(x);
                }
                continue;
            }
            let entry = reach
                .entry(v.0)
                .or_insert_with(|| HeaderSet::empty(self.header_len));
            // Only propagate genuinely new header space.
            let mut novel = false;
            for t in set.terms() {
                if !entry.contains_ternary(t) {
                    novel = true;
                    entry.insert(*t);
                }
            }
            if !novel {
                continue;
            }
            take(v);
            for &w in &self.step1[v.0] {
                let s = self.chain(&set, w);
                if !s.is_empty() {
                    queue.push_back((w, s));
                }
            }
        }
        row.sort_unstable();
        row.to_vec()
    }

    /// Legal-path statistics (Table II's MLPS / ALPS / NLPS) via DAG DP
    /// over step-1 edges: a legal path is counted from every source
    /// (in-degree 0) to every sink (out-degree 0).
    pub fn legal_path_stats(&self) -> LegalPathStats {
        let order = self
            .step1_topological_order()
            .expect("rule graph is a DAG by construction");
        let n = self.vertices.len();
        // cnt[v]: #paths v..sink; total[v]: Σ path vertex-counts;
        // longest[v]: longest path vertex-count from v.
        let mut cnt = vec![0f64; n];
        let mut total = vec![0f64; n];
        let mut longest = vec![0usize; n];
        for &v in order.iter().rev() {
            if self.vertices[v].is_none() {
                continue;
            }
            if self.step1[v].is_empty() {
                cnt[v] = 1.0;
                total[v] = 1.0;
                longest[v] = 1;
            } else {
                for w in &self.step1[v] {
                    cnt[v] += cnt[w.0];
                    total[v] += total[w.0] + cnt[w.0];
                    longest[v] = longest[v].max(longest[w.0] + 1);
                }
            }
        }
        let mut paths = 0f64;
        let mut length_sum = 0f64;
        let mut max_len = 0usize;
        for v in self.vertex_ids() {
            if self.step1_rev[v.0].is_empty() {
                paths += cnt[v.0];
                length_sum += total[v.0];
                max_len = max_len.max(longest[v.0]);
            }
        }
        LegalPathStats {
            max_len,
            avg_len: if paths > 0.0 { length_sum / paths } else { 0.0 },
            total_paths: paths,
        }
    }
}

/// Buffers reused across the closure rows of one rebuild.
#[derive(Default)]
struct RowBuffers {
    /// Vertices already in the row being built.
    in_row: VisitSet,
    /// Vertices whose finished row was taken whole.
    reused: VisitSet,
    /// Union of the header sets propagated from each partly reached
    /// vertex.
    reach: HashMap<usize, HeaderSet>,
    queue: VecDeque<(VertexId, HeaderSet)>,
    row: Vec<VertexId>,
}

/// Effective inputs of every forwarding entry on a switch, flattening
/// multi-table pipelines: table 0 receives the full header space, and a
/// `goto` entry feeds its (table-locally resolved) input into its
/// target table. A forwarding entry's effective input is the space
/// arriving at its table intersected with its table-local input.
///
/// # Errors
///
/// Returns [`RuleGraphError::SetFieldOnGoto`] for `goto` entries with a
/// set field: rewriting headers between tables would make a rule's
/// effective input differ from the ingress header a probe must carry,
/// which this implementation does not model (see DESIGN.md §7).
pub(crate) fn effective_inputs(
    net: &Network,
    switch: SwitchId,
) -> Result<HashMap<EntryId, HeaderSet>, RuleGraphError> {
    let table_count = net.table_count(switch).expect("switch exists");
    // Header length from any entry on the switch (tables are uniform).
    let header_len = (0..table_count)
        .filter_map(|k| {
            net.flow_table(switch, TableId(k))
                .expect("table exists")
                .iter()
                .next()
                .map(|(_, e)| e.match_field().len())
        })
        .next();
    let Some(header_len) = header_len else {
        return Ok(HashMap::new()); // no entries on this switch
    };
    let mut incoming: Vec<HeaderSet> = (0..table_count)
        .map(|k| {
            if k == 0 {
                HeaderSet::full(header_len)
            } else {
                HeaderSet::empty(header_len)
            }
        })
        .collect();
    let mut out = HashMap::new();
    for k in 0..table_count {
        let ft = net.flow_table(switch, TableId(k)).expect("table exists");
        for (entry_id, entry) in ft.iter() {
            let local = resolve_input(ft, entry_id, entry);
            let effective = incoming[k].intersect(&local);
            match entry.action() {
                Action::Output(_) => {
                    out.insert(entry_id, effective);
                }
                Action::GotoTable(target) => {
                    if !entry.set_field().is_wildcard() {
                        return Err(RuleGraphError::SetFieldOnGoto(entry_id));
                    }
                    if target.0 < incoming.len() {
                        incoming[target.0] = incoming[target.0].union(&effective);
                    }
                }
                Action::Drop | Action::ToController => {}
            }
        }
    }
    Ok(out)
}

/// `r.in = r.m − ⋃_{q >o r} q.m` over the hosting table; ties broken by
/// entry id like the data plane's lookup.
pub(crate) fn resolve_input(ft: &FlowTable, entry_id: EntryId, entry: &FlowEntry) -> HeaderSet {
    let overlapping = ft.shadowing_matches(entry_id, entry);
    let mut input = HeaderSet::from(entry.match_field());
    // Fully shadowed rules are common under priority churn; deciding
    // emptiness by coverage skips materializing every complement piece
    // of the subtraction chain (and `∅ = ∅` keeps the result
    // bit-identical to the materialized path).
    if input.is_covered_by(&overlapping) {
        return HeaderSet::empty(entry.match_field().len());
    }
    for q in &overlapping {
        input = input.subtract_ternary(q);
        if input.is_empty() {
            break;
        }
    }
    input
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RuleUpdate;
    use sdnprobe_dataplane::{FlowEntry, Network};
    use sdnprobe_headerspace::Ternary;
    use sdnprobe_topology::{PortId, Topology};

    fn t(s: &str) -> Ternary {
        s.parse().expect("valid ternary")
    }

    /// The paper's Figure 3 network: switches A,B,C,D,E with the exact
    /// flow entries of the worked example.
    ///
    /// Topology: A-B, B-C, B-D, C-E, D-E. Header length 8.
    pub(crate) fn figure3() -> (Network, HashMap<&'static str, EntryId>) {
        let (a, b, c, d, e) = (
            SwitchId(0),
            SwitchId(1),
            SwitchId(2),
            SwitchId(3),
            SwitchId(4),
        );
        let mut topo = Topology::new(5);
        topo.add_link(a, b);
        topo.add_link(b, c);
        topo.add_link(b, d);
        topo.add_link(c, e);
        topo.add_link(d, e);
        let mut net = Network::new(topo);
        let mut ids = HashMap::new();
        let port = |net: &Network, from: SwitchId, to: SwitchId| {
            net.topology().port_towards(from, to).expect("adjacent")
        };
        // Host-facing egress for E's rules: a free port number.
        let host = PortId(9);
        // a1: match 00101xxx -> B
        let p = port(&net, a, b);
        ids.insert(
            "a1",
            net.install(
                a,
                TableId(0),
                FlowEntry::new(t("00101xxx"), Action::Output(p)),
            )
            .unwrap(),
        );
        // b1: 0010xxxx -> C (priority 2); b2: 0011xxxx -> C (priority 1);
        // b3: 000xxxxx -> D (priority 0).
        let p = port(&net, b, c);
        ids.insert(
            "b1",
            net.install(
                b,
                TableId(0),
                FlowEntry::new(t("0010xxxx"), Action::Output(p)).with_priority(2),
            )
            .unwrap(),
        );
        ids.insert(
            "b2",
            net.install(
                b,
                TableId(0),
                FlowEntry::new(t("0011xxxx"), Action::Output(p)).with_priority(1),
            )
            .unwrap(),
        );
        let p = port(&net, b, d);
        ids.insert(
            "b3",
            net.install(
                b,
                TableId(0),
                FlowEntry::new(t("000xxxxx"), Action::Output(p)).with_priority(0),
            )
            .unwrap(),
        );
        // c1: 00100xxx -> E (priority 2); c2: 001xxxxx -> E (priority 1).
        let p = port(&net, c, e);
        ids.insert(
            "c1",
            net.install(
                c,
                TableId(0),
                FlowEntry::new(t("00100xxx"), Action::Output(p)).with_priority(2),
            )
            .unwrap(),
        );
        ids.insert(
            "c2",
            net.install(
                c,
                TableId(0),
                FlowEntry::new(t("001xxxxx"), Action::Output(p)).with_priority(1),
            )
            .unwrap(),
        );
        // d1: 000xxxxx, set 0111xxxx -> E.
        let p = port(&net, d, e);
        ids.insert(
            "d1",
            net.install(
                d,
                TableId(0),
                FlowEntry::new(t("000xxxxx"), Action::Output(p)).with_set_field(t("0111xxxx")),
            )
            .unwrap(),
        );
        // e1: 0010xxxx (prio 2); e2: 001xxxxx (prio 1); e3: 0111xxxx
        // (prio 0) — all egress to a host port.
        ids.insert(
            "e1",
            net.install(
                e,
                TableId(0),
                FlowEntry::new(t("0010xxxx"), Action::Output(host)).with_priority(2),
            )
            .unwrap(),
        );
        ids.insert(
            "e2",
            net.install(
                e,
                TableId(0),
                FlowEntry::new(t("001xxxxx"), Action::Output(host)).with_priority(1),
            )
            .unwrap(),
        );
        ids.insert(
            "e3",
            net.install(
                e,
                TableId(0),
                FlowEntry::new(t("0111xxxx"), Action::Output(host)).with_priority(0),
            )
            .unwrap(),
        );
        (net, ids)
    }

    fn vertex_of(g: &RuleGraph, ids: &HashMap<&str, EntryId>, name: &str) -> VertexId {
        g.vertex_of_entry(ids[name]).expect("vertex exists")
    }

    #[test]
    fn figure3_vertices_and_inputs() {
        let (net, ids) = figure3();
        let g = RuleGraph::from_network(&net).unwrap();
        assert_eq!(g.vertex_count(), 10);
        // d1's input/output are the paper's worked values.
        let d1 = g.vertex(vertex_of(&g, &ids, "d1"));
        assert!(d1.input.contains_ternary(&t("000xxxxx")));
        assert!(d1.output().contains_ternary(&t("0111xxxx")));
        // c2's input excludes c1's match.
        let c2 = g.vertex(vertex_of(&g, &ids, "c2"));
        assert!(!c2.input.contains_ternary(&t("00100xxx")));
        assert!(c2.input.contains_ternary(&t("0011xxxx")));
    }

    #[test]
    fn figure3_arena_is_exact_and_stores_only_rewritten_outputs() {
        let (net, ids) = figure3();
        let g = RuleGraph::from_network(&net).unwrap();
        assert_eq!(g.vertices.capacity(), g.vertices.len());
        assert_eq!(g.by_entry.len(), g.vertices.len());
        let d1 = vertex_of(&g, &ids, "d1");
        for v in g.vertex_ids() {
            let vert = g.vertex(v);
            let mut expect = vert.input.clone();
            expect.apply_set_field_in_place(&vert.set_field);
            assert_eq!(vert.output(), &expect, "{v}");
            // Only d1 rewrites; every other output is the input itself.
            assert_eq!(!std::ptr::eq(vert.output(), &vert.input), v == d1, "{v}");
        }
    }

    #[test]
    fn figure3_step1_edges_match_paper() {
        let (net, ids) = figure3();
        let g = RuleGraph::from_network(&net).unwrap();
        let v = |n: &str| vertex_of(&g, &ids, n);
        let has = |a: &str, b: &str| g.successors(v(a)).contains(&v(b));
        // Edges the paper draws in Figure 3.
        assert!(has("a1", "b1"), "a1->b1");
        assert!(has("b1", "c1"), "b1->c1");
        assert!(has("b1", "c2"), "b1->c2");
        assert!(has("b2", "c2"), "b2->c2 (worked example)");
        assert!(has("b3", "d1"), "b3->d1");
        assert!(has("c1", "e1"), "c1->e1");
        assert!(has("c2", "e1"), "c2->e1");
        assert!(has("c2", "e2"), "c2->e2");
        assert!(has("d1", "e3"), "d1->e3");
        // Edges the paper rules out.
        assert!(!has("c1", "e2"), "no c1->e2 (worked example)");
        assert!(!has("b2", "c1"), "b2 cannot reach c1 (disjoint)");
        assert!(!has("a1", "b2"), "a1 output disjoint from b2");
        assert!(
            !has("a1", "b3"),
            "a1 shadowed at b3 by b1? no: different switch — b3 match 000 disjoint from 00101"
        );
        assert!(!has("d1", "e1"), "d1 output 0111 disjoint from e1");
        assert!(!has("d1", "e2"), "d1 output 0111 disjoint from e2");
    }

    #[test]
    fn figure3_closure_adds_b2_e2() {
        let (net, ids) = figure3();
        let g = RuleGraph::from_network(&net).unwrap();
        let v = |n: &str| vertex_of(&g, &ids, n);
        // Figure 4's red closure edges.
        assert!(g.has_closure_edge(v("b2"), v("e2")), "b2=>e2 legal closure");
        assert!(g.has_closure_edge(v("a1"), v("c2")), "a1=>c2");
        assert!(g.has_closure_edge(v("a1"), v("e1")), "a1=>e1");
        assert!(g.has_closure_edge(v("b3"), v("e3")), "b3=>e3");
        // a1's packets (00101xxx) never reach e2 (they match e1 first).
        assert!(!g.has_closure_edge(v("a1"), v("e2")), "a1 cannot reach e2");
        // b2 cannot reach e1: its packets are 0011xxxx, e1 wants 0010xxxx.
        assert!(!g.has_closure_edge(v("b2"), v("e1")));
    }

    #[test]
    fn figure3_path_header_spaces() {
        let (net, ids) = figure3();
        let g = RuleGraph::from_network(&net).unwrap();
        let v = |n: &str| vertex_of(&g, &ids, n);
        // Paper: HS(a1->b1->c2->e1) = 00101xxx.
        let hs = g.path_header_space(&[v("a1"), v("b1"), v("c2"), v("e1")]);
        assert!(hs.contains_ternary(&t("00101xxx")));
        assert_eq!(hs.exact_count(), 8);
        // Paper: MPC path a1->b1->c1->e1 is illegal.
        assert!(!g.is_real_path_legal(&[v("a1"), v("b1"), v("c1"), v("e1")]));
        // b2->c2->e2 legal with 0011xxxx.
        let hs = g.path_header_space(&[v("b2"), v("c2"), v("e2")]);
        assert!(hs.contains_ternary(&t("0011xxxx")));
    }

    #[test]
    fn figure3_expand_cover_path() {
        let (net, ids) = figure3();
        let g = RuleGraph::from_network(&net).unwrap();
        let v = |n: &str| vertex_of(&g, &ids, n);
        // Paper: b2 => e2 expands to b2 -> c2 -> e2.
        let (real, hs) = g.expand_cover_path(&[v("b2"), v("e2")]).expect("legal");
        assert_eq!(real, vec![v("b2"), v("c2"), v("e2")]);
        assert!(hs.contains_ternary(&t("0011xxxx")));
        // Composed cover path across a closure edge plus direct edges.
        let (real, hs) = g
            .expand_cover_path(&[v("a1"), v("c2"), v("e1")])
            .expect("legal");
        assert_eq!(real, vec![v("a1"), v("b1"), v("c2"), v("e1")]);
        assert!(hs.contains_ternary(&t("00101xxx")));
        // An illegal composition: a1 ... e2 never works.
        assert!(g.expand_cover_path(&[v("a1"), v("e2")]).is_none());
    }

    #[test]
    fn path_header_space_with_set_field_rewrite() {
        let (net, ids) = figure3();
        let g = RuleGraph::from_network(&net).unwrap();
        let v = |n: &str| vertex_of(&g, &ids, n);
        // b3 -> d1 -> e3: d1 rewrites 000xxxxx to 0111xxxx which matches
        // e3. Entry headers are 000xxxxx.
        let hs = g.path_header_space(&[v("b3"), v("d1"), v("e3")]);
        assert!(hs.contains_ternary(&t("000xxxxx")));
        assert_eq!(hs.exact_count(), 32);
    }

    #[test]
    fn policy_loop_is_rejected() {
        let mut topo = Topology::new(2);
        topo.add_link(SwitchId(0), SwitchId(1));
        let mut net = Network::new(topo);
        for s in [0usize, 1] {
            let p = net
                .topology()
                .port_towards(SwitchId(s), SwitchId(1 - s))
                .unwrap();
            net.install(
                SwitchId(s),
                TableId(0),
                FlowEntry::new(t("xxxxxxxx"), Action::Output(p)),
            )
            .unwrap();
        }
        match RuleGraph::from_network(&net) {
            Err(RuleGraphError::PolicyLoop { cycle }) => assert_eq!(cycle.len(), 2),
            other => panic!("expected PolicyLoop, got {other:?}"),
        }
    }

    #[test]
    fn policy_loop_reports_first_cycle_in_dfs_order() {
        // A tail (s0) into a triangle loop s1 -> s2 -> s3 -> s1, plus a
        // disjoint two-switch loop s4 <-> s5. Rules are installed out of
        // switch order so entry ids do not follow vertex ids.
        let mut topo = Topology::new(6);
        for (a, b) in [(0, 1), (1, 2), (2, 3), (3, 1), (4, 5)] {
            topo.add_link(SwitchId(a), SwitchId(b));
        }
        let mut net = Network::new(topo);
        let mut entry_of = HashMap::new();
        for (from, to) in [(5, 4), (3, 1), (4, 5), (2, 3), (0, 1), (1, 2)] {
            let p = net
                .topology()
                .port_towards(SwitchId(from), SwitchId(to))
                .unwrap();
            let id = net
                .install(
                    SwitchId(from),
                    TableId(0),
                    FlowEntry::new(t("xxxxxxxx"), Action::Output(p)),
                )
                .unwrap();
            entry_of.insert(from, id);
        }
        // DFS from s0's vertex walks the tail into the triangle and
        // closes the cycle at s1; the tail is not part of it.
        match RuleGraph::from_network(&net) {
            Err(RuleGraphError::PolicyLoop { cycle }) => {
                assert_eq!(cycle, vec![entry_of[&1], entry_of[&2], entry_of[&3]]);
            }
            other => panic!("expected PolicyLoop, got {other:?}"),
        }
    }

    #[test]
    fn has_closure_edge_rejects_dead_and_out_of_range_ids() {
        let (mut net, ids) = figure3();
        let mut g = RuleGraph::from_network(&net).unwrap();
        let v = |g: &RuleGraph, n: &str| vertex_of(g, &ids, n);
        let (a1, b2, c2, e2) = (v(&g, "a1"), v(&g, "b2"), v(&g, "c2"), v(&g, "e2"));
        assert!(g.has_closure_edge(b2, c2) && g.has_closure_edge(c2, e2));
        let location = net.location(ids["c2"]).unwrap();
        let old = net.remove(ids["c2"]).unwrap();
        g.apply_update(
            &net,
            &RuleUpdate::Removed {
                entry: ids["c2"],
                old,
                location,
            },
        )
        .unwrap();
        for u in [a1, b2, e2] {
            assert!(!g.has_closure_edge(c2, u), "dead source {c2} -> {u}");
            assert!(!g.has_closure_edge(u, c2), "{u} -> dead target {c2}");
        }
        let far = VertexId(10_000);
        assert!(!g.has_closure_edge(far, e2));
        assert!(!g.has_closure_edge(b2, far));
        assert!(!g.has_closure_edge(far, far));
    }

    #[test]
    fn partial_arrivals_propagate_past_a_reused_row() {
        // u's packets reach a whole (its row is reused) and b in part;
        // both lead to x, and only b's part goes on from x to y.
        let mut topo = Topology::new(4);
        for s in 1..4 {
            topo.add_link(SwitchId(s - 1), SwitchId(s));
        }
        let mut net = Network::new(topo);
        let install = |net: &mut Network, s: usize, m: &str| {
            let port = net
                .topology()
                .port_towards(SwitchId(s), SwitchId(s + 1))
                .unwrap_or(PortId(9));
            net.install(
                SwitchId(s),
                TableId(0),
                FlowEntry::new(t(m), Action::Output(port)),
            )
            .unwrap()
        };
        let u = install(&mut net, 0, "x0xxxxxx");
        let a = install(&mut net, 1, "00xxxxxx");
        let b = install(&mut net, 1, "1xxxxxxx");
        let x = install(&mut net, 2, "xxxxxxxx");
        let y = install(&mut net, 3, "10xxxxxx");
        let g = RuleGraph::from_network(&net).unwrap();
        let v = |e| g.vertex_of_entry(e).unwrap();
        assert_eq!(g.closure_successors(v(a)), &[v(x)]);
        let mut expect = vec![v(a), v(b), v(x), v(y)];
        expect.sort_unstable();
        assert_eq!(g.closure_successors(v(u)), expect.as_slice());
    }

    #[test]
    fn empty_network_is_rejected() {
        let net = Network::new(Topology::new(2));
        assert!(matches!(
            RuleGraph::from_network(&net),
            Err(RuleGraphError::NoForwardingRules)
        ));
    }

    #[test]
    fn shadowed_rules_have_no_edges() {
        let mut topo = Topology::new(2);
        topo.add_link(SwitchId(0), SwitchId(1));
        let mut net = Network::new(topo);
        let p = net
            .topology()
            .port_towards(SwitchId(0), SwitchId(1))
            .unwrap();
        // Low-priority rule entirely shadowed by a high-priority one.
        let shadowed = net
            .install(
                SwitchId(0),
                TableId(0),
                FlowEntry::new(t("00xxxxxx"), Action::Output(p)),
            )
            .unwrap();
        net.install(
            SwitchId(0),
            TableId(0),
            FlowEntry::new(t("0xxxxxxx"), Action::Output(p)).with_priority(9),
        )
        .unwrap();
        net.install(
            SwitchId(1),
            TableId(0),
            FlowEntry::new(t("xxxxxxxx"), Action::Output(PortId(50))),
        )
        .unwrap();
        let g = RuleGraph::from_network(&net).unwrap();
        let sv = g.vertex_of_entry(shadowed).unwrap();
        assert!(g.vertex(sv).is_shadowed());
        assert!(g.successors(sv).is_empty());
    }

    #[test]
    fn non_forwarding_entries_shadow_but_add_no_vertex() {
        let mut topo = Topology::new(2);
        topo.add_link(SwitchId(0), SwitchId(1));
        let mut net = Network::new(topo);
        let p = net
            .topology()
            .port_towards(SwitchId(0), SwitchId(1))
            .unwrap();
        let fwd = net
            .install(
                SwitchId(0),
                TableId(0),
                FlowEntry::new(t("00xxxxxx"), Action::Output(p)),
            )
            .unwrap();
        // High-priority drop carves a hole in fwd's input.
        net.install(
            SwitchId(0),
            TableId(0),
            FlowEntry::new(t("000xxxxx"), Action::Drop).with_priority(5),
        )
        .unwrap();
        net.install(
            SwitchId(1),
            TableId(0),
            FlowEntry::new(t("xxxxxxxx"), Action::Output(PortId(50))),
        )
        .unwrap();
        let g = RuleGraph::from_network(&net).unwrap();
        assert_eq!(g.vertex_count(), 2);
        let v = g.vertex(g.vertex_of_entry(fwd).unwrap());
        assert!(!v.input.contains_ternary(&t("000xxxxx")));
        assert!(v.input.contains_ternary(&t("001xxxxx")));
    }

    #[test]
    fn figure3_stats() {
        let (net, _) = figure3();
        let g = RuleGraph::from_network(&net).unwrap();
        let stats = g.legal_path_stats();
        // Longest chain: a1 -> b1 -> c? -> e? = 4 rules.
        assert_eq!(stats.max_len, 4);
        assert!(stats.total_paths >= 4.0);
        assert!(stats.avg_len > 1.0 && stats.avg_len <= 4.0);
    }

    #[test]
    fn chain_matches_definition() {
        let (net, ids) = figure3();
        let g = RuleGraph::from_network(&net).unwrap();
        let v = |n: &str| vertex_of(&g, &ids, n);
        let full = HeaderSet::full(8);
        let after_b2 = g.chain(&full, v("b2"));
        assert!(after_b2.contains_ternary(&t("0011xxxx")));
        let after_c2 = g.chain(&after_b2, v("c2"));
        assert!(after_c2.contains_ternary(&t("0011xxxx")));
        let after_e1 = g.chain(&after_c2, v("e1"));
        assert!(after_e1.is_empty(), "0011 does not match e1's 0010");
    }
}
