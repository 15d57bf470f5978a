//! Memoized cover-path expansion.
//!
//! The matcher in Algorithm 1 probes `expand_cover_path` as a throwaway
//! legality predicate on every candidate augmentation, and successive
//! probes overwhelmingly share cover-path structure: a chain grows one
//! closure edge at a time. [`ExpansionCache`] remembers, per exact cover
//! path, either that no legal expansion exists (`Dead`) or the
//! first-in-DFS-order expansion (`Alive`). Entries hold real paths
//! only: the chained header set at a path's end is recomputed from the
//! path when an entry seeds an extension, which keeps an entry at 16
//! bytes inline and lets one memo live for a whole randomized session.
//!
//! A probe takes the first of these that applies:
//!
//! 1. an exact entry answers it;
//! 2. a `Dead` one-short prefix makes it `Dead` (prefix-locality: any
//!    legal expansion would expand the prefix too);
//! 3. an `Alive` one-short prefix is resumed across the final cover
//!    segment, a single-segment search from the end of its real path;
//!    a failed resume is not a proof of death and falls through;
//! 4. a pair without a closure edge is `Dead` (the closure's defining
//!    predicate);
//! 5. everything else runs the exhaustive DFS, which also memoizes the
//!    first completion of every proper prefix it reaches.
//!
//! # Bit-identity
//!
//! Probe booleans are exact (constructive successes, exhaustive
//! negatives), so the matcher's decisions are identical to the uncached
//! build, and every `Alive` entry is the expansion the uncached DFS
//! returns, so the path handed out for the final plan (whose real path
//! decides probe headers) is too. A resume keeps that: the full-path
//! DFS reaches prefix states in first-expansion order, so a successful
//! resume of the canonical prefix equals the uncached first success,
//! and a failed resume falls back to the full DFS.

use std::borrow::Cow;
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
/// inline: the chained set at the end of an `Alive` path is recomputed
/// with `chain_along` when the entry seeds an extension.
#[derive(Debug)]
enum CacheEntry {
    /// No legal simple expansion exists. Always derived from an
    /// exhaustive search or a sound proof of death, so liveness answers
    /// are exact.
    Dead,
    /// The first-in-DFS-order expansion.
    Alive(Box<[u32]>),
}

// A session holds one memo for its whole life, so an entry must not
// silently grow back to carrying header sets inline.
const _: () = assert!(std::mem::size_of::<CacheEntry>() <= 16);

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

    /// Probes answered without a full DFS (exact hits, dead prefixes,
    /// resumed prefixes, and pairs without a closure edge).
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

    /// Folds one exhaustive from-scratch DFS run into the memo: every
    /// snapshot is an `Alive` entry for its prefix, and a boundary the
    /// run never entered has provably no expansion, so it becomes
    /// `Dead` (only a failed run leaves one unentered).
    fn absorb(&mut self, key: &[u32], trace: PrefixTrace) {
        for (i, snap) in trace.snaps.into_iter().enumerate() {
            let prefix = &key[..i + 2];
            if !self.map.contains_key(prefix) {
                let entry = snap.map_or(CacheEntry::Dead, CacheEntry::Alive);
                self.map.insert(prefix.into(), entry);
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
        match cache.map.get(&*pack(cover)) {
            Some(CacheEntry::Alive(real)) => Some(unpack(real)),
            _ => unreachable!("probe recorded a live entry for this cover path"),
        }
    }

    /// True iff [`expand_cover_path`](Self::expand_cover_path) would
    /// succeed — the matcher's legality predicate. Mostly answered from
    /// the memo or by resuming a memoized prefix instead of a full
    /// search.
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
    /// stored copy exactly. Borrows the head's output for as long as no
    /// step changes it.
    fn chain_along(&self, real: &[u32]) -> Cow<'_, HeaderSet> {
        let mut set = Cow::Borrowed(self.vertex(VertexId(real[0] as usize)).output());
        for &v in &real[1..] {
            if let Cow::Owned(next) = self.chain_borrowed(&set, VertexId(v as usize)) {
                set = Cow::Owned(next);
            }
        }
        set
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
            // Extension probe: the one-vertex-short prefix is usually
            // the chain the matcher just grew.
            match cache.map.get(&key[..cover.len() - 1]) {
                Some(CacheEntry::Dead) => {
                    cache.hits += 1;
                    cache.map.insert(key, CacheEntry::Dead);
                    return false;
                }
                Some(CacheEntry::Alive(prefix)) => {
                    let set = self.chain_along(prefix);
                    let mut real = unpack(prefix);
                    if self.extend_segment(cover, &mut real, &set, cache) {
                        cache.hits += 1;
                        cache.map.insert(key, CacheEntry::Alive(pack(&real)));
                        return true;
                    }
                    // Not a proof of death: the uncached DFS would now
                    // backtrack into a different prefix expansion, and
                    // only the full DFS reproduces that exactly.
                }
                None => {}
            }
        } else if cover.len() == 2 && !self.has_closure_edge(cover[0], cover[1]) {
            // A pair dies by a closure lookup, the closure's defining
            // predicate; a live pair still searches for its canonical path.
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
        set: &HeaderSet,
        cache: &mut ExpansionCache,
    ) -> bool {
        let mut visited = std::mem::take(&mut cache.visited);
        visited.begin(self.vertices.len());
        let found = self.expand_rec(cover, cover.len() - 1, set, real, &mut visited, None);
        cache.visited = visited;
        found
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
        let start = self.vertex(cover[0]).output();
        let mut trace = PrefixTrace::new(cover.len());
        let found = self.expand_rec(cover, 1, start, &mut real, &mut visited, Some(&mut trace));
        cache.visited = visited;
        cache.absorb(&key, trace);
        let entry = if found {
            CacheEntry::Alive(pack(&real))
        } else {
            CacheEntry::Dead
        };
        cache.map.insert(key, entry);
        found
    }
}
