//! Memoized cover-path expansion.
//!
//! The matcher in Algorithm 1 probes `expand_cover_path` as a throwaway
//! legality predicate on every candidate augmentation, and successive
//! probes overwhelmingly share cover-path structure: a chain grows one
//! closure edge at a time (an *extension* probe), or an augmenting path
//! splices a new head onto an already-validated chain (a *splice*
//! probe). [`ExpansionCache`] remembers, per exact cover path, either
//! that no legal expansion exists (`Dead`), the first-in-DFS-order
//! expansion (`Alive`), or some valid expansion that answers liveness
//! only (`Witness`). Entries hold real paths only: the chained header
//! set at a path's end is recomputed from the path when an entry seeds
//! an extension or a splice head, which keeps an entry at 32 bytes
//! inline and lets one memo live for a whole randomized session.
//!
//! Liveness of a composite path factorizes at any cover vertex: a
//! cached real path through the prefix ends in a chained set `S`, a
//! cached real path through the rest imposes a backward entry
//! requirement `E` at the same point (set-field rewrites act per term,
//! so `E` is exact), and the spliced real path is legal **iff
//! `S ∩ E ≠ ∅`**. Probes reduce to memoized set algebra instead of a
//! depth-first search:
//!
//! - extension `[c0..ck]`: continue the prefix entry's real path across
//!   the final segment — one `chain` call when the closure edge is a
//!   direct step edge, a single-segment search otherwise;
//! - splice `[c0, c1, ..]`: overlap the head segment's chained set with
//!   the suffix entry's memoized tail requirement (the suffix is
//!   resolved recursively, usually an exact hit).
//!
//! A failed composition is *not* a proof of death (other expansions of
//! either side may compose), so negative probes fall back to the
//! exhaustive DFS; cheap proofs of death (a Dead prefix, suffix, or
//! constituent pair — sound by prefix-locality and monotonicity of
//! chaining) short-circuit first.
//!
//! # Bit-identity
//!
//! Probe booleans are exact (constructive witnesses, exhaustive
//! negatives), so the matcher's decisions are identical to the uncached
//! build. The expansion handed out for the final plan must *also* be
//! bit-identical — the chosen real path decides probe headers — and
//! `Witness` entries are existence proofs only, not necessarily the
//! first-in-DFS-order expansion. They never seed resumed searches, and
//! [`RuleGraph::expand_cover_path_cached`] re-derives the canonical
//! expansion before handing a path out. Canonical `Alive` prefixes may
//! seed a resumed DFS: the full-path DFS reaches prefix states in
//! first-expansion order, so a successful resume equals the uncached
//! first success, and a failed resume falls back to the full DFS.
//!
//! The rule graph is acyclic (construction and incremental updates both
//! reject loops), which the overlap composition leans on: the two real
//! segments joined at a cover vertex can never share another vertex (a
//! shared vertex would close a cycle through the joint), so composites
//! stay simple paths, the simple-path constraint never binds across
//! segments, and a single-segment search needs no visit marks for the
//! prefix it continues.

use std::collections::HashMap;

use sdnprobe_classifier::IdHashBuilder;
use sdnprobe_headerspace::HeaderSet;

use crate::bitset::VisitSet;
use crate::graph::RuleGraph;
use crate::vertex::VertexId;

/// A vertex id as the memo stores it, in keys and real paths.
fn id32(v: VertexId) -> u32 {
    u32::try_from(v.0).expect("rule graphs hold fewer than 2^32 vertices")
}

/// A path in the memo's `u32` form.
fn pack(path: &[VertexId]) -> Box<[u32]> {
    path.iter().map(|&v| id32(v)).collect()
}

/// A stored path back as vertex ids.
fn unpack(path: &[u32]) -> Vec<VertexId> {
    path.iter().map(|&v| VertexId(v as usize)).collect()
}

/// Cached outcome for one exact cover path. No header set is stored
/// inline: the chained set at the end of `real` is recomputed with
/// `chain_along` on the rare probes that need it.
#[derive(Debug)]
enum CacheEntry {
    /// No legal simple expansion exists. Always derived from an
    /// exhaustive search or a sound proof of death, so liveness answers
    /// are exact.
    Dead,
    /// The *first-in-DFS-order* expansion. Only these may seed resumed
    /// searches or be returned as the expansion itself.
    Alive {
        real: Box<[u32]>,
        /// Lazily memoized backward requirement of `real[1..]` at
        /// `real[0]`'s output, for use as a suffix in splice probes.
        tail_entry: Option<Box<HeaderSet>>,
    },
    /// Some valid expansion (from overlap composition), answering
    /// liveness probes only; `tail_entry` as for `Alive`.
    Witness {
        real: Box<[u32]>,
        tail_entry: Option<Box<HeaderSet>>,
    },
}

// A session holds one memo for its whole life, so an entry must not
// silently grow back to carrying header sets inline.
const _: () = assert!(std::mem::size_of::<CacheEntry>() <= 32);

/// First-completion snapshots collected during one traced DFS run: the
/// state at the *first* entry of each segment boundary `b` (prefix
/// `cover[..b]` fully expanded) is exactly the first-in-DFS-order
/// expansion of that prefix, so every snapshot is a sound `Alive` memo
/// for its prefix — even when the overall run later fails (the full DFS
/// reaches every boundary for the first time inside the
/// first-completion subtree of the previous one).
#[derive(Debug, Default)]
pub(crate) struct PrefixTrace {
    /// `snaps[b - 2]` is the real path at boundary `b`; only proper
    /// prefixes of length ≥ 2 are recorded (the full path is keyed
    /// separately).
    snaps: Vec<Option<Box<[u32]>>>,
}

impl PrefixTrace {
    fn new(cover_len: usize) -> Self {
        Self {
            snaps: vec![None; cover_len.saturating_sub(2)],
        }
    }

    /// Snapshot the real path on the first entry at boundary `seg`.
    pub(crate) fn record(&mut self, seg: usize, real: &[VertexId]) {
        if seg < 2 {
            return;
        }
        if let Some(slot @ None) = self.snaps.get_mut(seg - 2) {
            *slot = Some(pack(real));
        }
    }
}

/// Prefix-keyed memo for [`RuleGraph::expand_cover_path_cached`] and
/// [`RuleGraph::is_cover_path_expandable`].
///
/// Every entry is a pure function of the graph, so one cache may be
/// reused across any number of generation runs over the same graph —
/// answers (and the expansions handed out) are identical whether the
/// cache is fresh, warm, or shared between the deterministic and
/// randomized generators. A randomized session holds one for its whole
/// life. It is tied to one graph *state*: entries are dropped
/// automatically when the graph's [`generation`](RuleGraph::generation)
/// moves (edge rebuilds, incremental updates).
#[derive(Debug, Default)]
pub struct ExpansionCache {
    generation: u64,
    /// Keys are short `u32` slices; the fixed integer hasher beats
    /// SipHash severalfold on them, and the memo only gets and inserts,
    /// so its iteration order is never observable.
    map: HashMap<Box<[u32]>, CacheEntry, IdHashBuilder>,
    visited: VisitSet,
    hits: u64,
    misses: u64,
}

impl ExpansionCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of memoized cover paths.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if nothing is memoized yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Probes answered from memory (exact, extension, or splice hits).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Probes that ran a full uncached DFS.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Invalidates the cache if the graph has mutated since last use.
    fn sync(&mut self, graph: &RuleGraph) {
        if self.generation != graph.generation() {
            self.map.clear();
            self.generation = graph.generation();
        }
    }

    /// A live entry's real path and its tail requirement, which the
    /// caller has already filled.
    fn live_tail(&self, key: &[u32]) -> (&[u32], &HeaderSet) {
        match self.map.get(key) {
            Some(CacheEntry::Alive {
                real,
                tail_entry: Some(req),
            })
            | Some(CacheEntry::Witness {
                real,
                tail_entry: Some(req),
            }) => (real, req),
            _ => unreachable!("splice suffix is live with its tail requirement filled"),
        }
    }

    /// Folds one traced DFS run into the memo: every snapshot is an
    /// `Alive` entry for its prefix. When `dead_unreached` is set (an
    /// exhausted from-scratch run), boundaries the DFS never entered
    /// have provably no expansion and become `Dead` entries.
    fn absorb(&mut self, key: &[u32], trace: PrefixTrace, dead_unreached: bool) {
        for (i, snap) in trace.snaps.into_iter().enumerate() {
            let prefix = &key[..i + 2];
            if self.map.contains_key(prefix) {
                continue;
            }
            match snap {
                Some(real) => {
                    self.map.insert(
                        prefix.into(),
                        CacheEntry::Alive {
                            real,
                            tail_entry: None,
                        },
                    );
                }
                None if dead_unreached => {
                    self.map.insert(prefix.into(), CacheEntry::Dead);
                }
                None => {}
            }
        }
    }
}

impl RuleGraph {
    /// Cached [`expand_cover_path`](Self::expand_cover_path): the same
    /// real path, with repeated probes over shared cover-path structure
    /// answered from memoized state. The entry header space is not
    /// memoized; [`path_entry_space`](Self::path_entry_space) of the
    /// returned path gives it.
    pub fn expand_cover_path_cached(
        &self,
        cover: &[VertexId],
        cache: &mut ExpansionCache,
    ) -> Option<Vec<VertexId>> {
        if !self.probe(cover, cache) {
            return None;
        }
        let key = pack(cover);
        match cache.map.get(&key) {
            Some(CacheEntry::Alive { real, .. }) => Some(unpack(real)),
            Some(CacheEntry::Witness { .. }) => {
                // The entry is a liveness witness, not necessarily the
                // first-in-DFS-order expansion — re-derive the canonical
                // one so the returned path is bit-identical to the
                // uncached DFS.
                let mut visited = std::mem::take(&mut cache.visited);
                visited.begin(self.vertices.len());
                visited.insert(cover[0].0);
                let mut real = vec![cover[0]];
                let start = self.vertex(cover[0]).output.clone();
                let mut trace = PrefixTrace::new(cover.len());
                self.expand_rec(cover, 1, start, &mut real, &mut visited, Some(&mut trace))
                    .expect("probe proved an expansion exists");
                cache.visited = visited;
                cache.absorb(&key, trace, false);
                cache.map.insert(
                    key,
                    CacheEntry::Alive {
                        real: pack(&real),
                        tail_entry: None,
                    },
                );
                Some(real)
            }
            _ => unreachable!("probe recorded a live entry for this cover path"),
        }
    }

    /// True iff [`expand_cover_path`](Self::expand_cover_path) would
    /// succeed — the matcher's legality predicate — without deriving the
    /// canonical expansion. Overwhelmingly answered by memoized set
    /// algebra instead of a search.
    pub fn is_cover_path_expandable(&self, cover: &[VertexId], cache: &mut ExpansionCache) -> bool {
        // A two-vertex cover path is expandable exactly when the legal
        // closure edge exists — that is the closure's defining predicate
        // — so the matcher's most common probe is one closure lookup.
        if cover.len() == 2 {
            return self.has_closure_edge(cover[0], cover[1]);
        }
        self.probe(cover, cache)
    }

    /// The chained header set at the end of a stored real path,
    /// starting from the full output space of its head. This is the set
    /// the DFS held when it first completed the path, so it replaces a
    /// stored copy exactly.
    fn chain_along(&self, real: &[u32]) -> HeaderSet {
        let mut set = self.vertex(VertexId(real[0] as usize)).output.clone();
        for &v in &real[1..] {
            set = self.chain(&set, VertexId(v as usize));
        }
        set
    }

    /// Chains `set` across the direct step-1 edge `from → to`, if that
    /// edge exists. A non-empty result proves the single-hop real
    /// segment `[from, to]` legal under `set` — the cheapest possible
    /// witness for one cover segment; an empty (or absent) result
    /// proves nothing, since a multi-hop segment may still chain.
    fn direct_chain(&self, from: VertexId, to: VertexId, set: &HeaderSet) -> Option<HeaderSet> {
        if self.step1[from.0].contains(&to) {
            Some(self.chain(set, to))
        } else {
            None
        }
    }

    /// Ensures `cache` holds an entry for `cover`; returns its liveness.
    fn probe(&self, cover: &[VertexId], cache: &mut ExpansionCache) -> bool {
        if cover.is_empty() {
            return false;
        }
        cache.sync(self);
        let key = pack(cover);
        if let Some(entry) = cache.map.get(&key) {
            cache.hits += 1;
            return !matches!(entry, CacheEntry::Dead);
        }
        if cover.len() > 2 {
            // Extension probe: the one-vertex-short prefix is the chain
            // the matcher just grew. A Dead prefix settles the path
            // (prefix-locality); a live one seeds a single-segment
            // search from the end state of its real path — Alive
            // prefixes yield the canonical expansion, Witness prefixes a
            // composite witness.
            let prefix = match cache.map.get(&key[..cover.len() - 1]) {
                None => None,
                Some(CacheEntry::Dead) => {
                    cache.hits += 1;
                    cache.map.insert(key, CacheEntry::Dead);
                    return false;
                }
                Some(CacheEntry::Alive { real, .. }) => Some((real, true)),
                Some(CacheEntry::Witness { real, .. }) => Some((real, false)),
            };
            let Some((prefix, canonical)) = prefix else {
                // Splice probe: no prefix entry, but the suffix is
                // usually the chain that was just spliced onto — resolve
                // it (and the head segment) recursively and compose by
                // overlap. A Dead suffix or head pair settles the path
                // (the restriction of any legal expansion to those cover
                // vertices would expand them; chaining is monotone).
                return self.probe_splice_witness(cover, key, cache);
            };
            let set = self.chain_along(prefix);
            let mut real = unpack(prefix);
            let live = |real: &[VertexId]| {
                let real = pack(real);
                if canonical {
                    CacheEntry::Alive {
                        real,
                        tail_entry: None,
                    }
                } else {
                    CacheEntry::Witness {
                        real,
                        tail_entry: None,
                    }
                }
            };
            // Single-hop shortcut for a witness: the result need not be
            // the first-in-DFS-order segment, so any legal continuation
            // will do.
            let last = cover[cover.len() - 1];
            if !canonical
                && self
                    .direct_chain(cover[cover.len() - 2], last, &set)
                    .is_some_and(|chained| !chained.is_empty())
            {
                real.push(last);
                cache.hits += 1;
                cache.map.insert(key, live(&real));
                return true;
            }
            if self.extend_segment(cover, &mut real, set, cache) {
                cache.hits += 1;
                cache.map.insert(key, live(&real));
                return true;
            }
            // Not a proof of death: the uncached DFS would now backtrack
            // into a different prefix expansion, and only the full DFS
            // reproduces that exactly.
            return self.probe_scratch(cover, key, cache);
        }
        // Pairs die by a closure lookup — the closure's defining predicate —
        // but live pairs still run the (small) search: their canonical
        // real path is a much stronger splice donor than a single-hop
        // witness would be.
        if cover.len() == 2 && !self.has_closure_edge(cover[0], cover[1]) {
            cache.hits += 1;
            cache.map.insert(key, CacheEntry::Dead);
            return false;
        }
        self.probe_scratch(cover, key, cache)
    }

    /// Expands only the final cover segment of `cover`, continuing
    /// `real` (a memoized expansion of the one-short prefix) from its
    /// chained set. The graph is a DAG, so the new segment can never
    /// step onto a prefix vertex — every prefix vertex reaches the
    /// segment's start, and such an edge would close a cycle — and only
    /// the segment's own exploration needs visit marking.
    fn extend_segment(
        &self,
        cover: &[VertexId],
        real: &mut Vec<VertexId>,
        set: HeaderSet,
        cache: &mut ExpansionCache,
    ) -> bool {
        let mut visited = std::mem::take(&mut cache.visited);
        visited.begin(self.vertices.len());
        let r = self.expand_rec(cover, cover.len() - 1, set, real, &mut visited, None);
        cache.visited = visited;
        r.is_some()
    }

    /// Splice probe: compose the head segment's chained set with the
    /// suffix entry's memoized tail requirement by overlap. Falls back
    /// to the exhaustive DFS when the composition fails.
    fn probe_splice_witness(
        &self,
        cover: &[VertexId],
        key: Box<[u32]>,
        cache: &mut ExpansionCache,
    ) -> bool {
        if !cache.map.contains_key(&key[1..]) {
            self.probe(&cover[1..], cache);
        }
        match cache.map.get_mut(&key[1..]) {
            Some(CacheEntry::Dead) => {
                cache.hits += 1;
                cache.map.insert(key, CacheEntry::Dead);
                return false;
            }
            Some(CacheEntry::Alive { real, tail_entry })
            | Some(CacheEntry::Witness { real, tail_entry }) => {
                if tail_entry.is_none() {
                    // Backward requirement of the donor's tail at
                    // `real[0]`'s output: a set chains through
                    // `real[1..]` to a non-empty end iff it meets this
                    // projection.
                    let tail = self.path_entry_space(&unpack(&real[1..]));
                    *tail_entry = Some(Box::new(tail));
                }
            }
            None => unreachable!("suffix probe always records an entry"),
        }
        // Single-hop shortcut for the head segment: chaining the head's
        // output across a direct step edge proves the composite with
        // one set operation, no pair expansion.
        if let Some(chained) = self.direct_chain(cover[0], cover[1], &self.vertex(cover[0]).output)
        {
            let (tail, req) = cache.live_tail(&key[1..]);
            if chained.intersects(req) {
                let real = std::iter::once(key[0])
                    .chain(tail.iter().copied())
                    .collect();
                cache.hits += 1;
                cache.map.insert(
                    key,
                    CacheEntry::Witness {
                        real,
                        tail_entry: None,
                    },
                );
                return true;
            }
        }
        // General head segment: the pair's canonical expansion (cached
        // across splice attempts sharing the head).
        if !cache.map.contains_key(&key[..2]) {
            self.probe(&cover[..2], cache);
        }
        let head = match cache.map.get(&key[..2]) {
            Some(CacheEntry::Dead) => {
                cache.hits += 1;
                cache.map.insert(key, CacheEntry::Dead);
                return false;
            }
            Some(CacheEntry::Alive { real, .. }) => real,
            _ => unreachable!("pair probe always records Dead or Alive"),
        };
        let (tail, req) = cache.live_tail(&key[1..]);
        if !self.chain_along(head).intersects(req) {
            return self.probe_scratch(cover, key, cache);
        }
        let real = head.iter().chain(&tail[1..]).copied().collect();
        cache.hits += 1;
        cache.map.insert(
            key,
            CacheEntry::Witness {
                real,
                tail_entry: None,
            },
        );
        true
    }

    /// Exhaustive from-scratch DFS — the exact fallback — recording the
    /// outcome and every first-completion prefix snapshot.
    fn probe_scratch(
        &self,
        cover: &[VertexId],
        key: Box<[u32]>,
        cache: &mut ExpansionCache,
    ) -> bool {
        cache.misses += 1;
        let mut visited = std::mem::take(&mut cache.visited);
        visited.begin(self.vertices.len());
        visited.insert(cover[0].0);
        let mut real = vec![cover[0]];
        let start = self.vertex(cover[0]).output.clone();
        let mut trace = PrefixTrace::new(cover.len());
        let found = self
            .expand_rec(cover, 1, start, &mut real, &mut visited, Some(&mut trace))
            .is_some();
        cache.visited = visited;
        // A failed from-scratch run was exhaustive: any boundary it
        // never entered has no expansion at all.
        cache.absorb(&key, trace, !found);
        let entry = if found {
            CacheEntry::Alive {
                real: pack(&real),
                tail_entry: None,
            }
        } else {
            CacheEntry::Dead
        };
        cache.map.insert(key, entry);
        found
    }
}
