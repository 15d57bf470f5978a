//! The priority-aware ternary trie.
//!
//! Layout: a node per bit position with three children — `0`, `1`, and
//! wildcard — selected by the *stored pattern's* bit at that position.
//! A pattern's `(id, care, value, priority)` item hangs off one node on
//! its path:
//!
//! - at its last cared bit (depth `k` for a pattern whose highest fixed
//!   position is `k - 1`; the root for a pattern with no fixed bit), or
//! - higher up, at the first node below the root that no other pattern
//!   passes through. Such a *tail item* is alone in its subtree, so the
//!   single-pattern rest of its path is never built.
//!
//! Items carry their masks, and a walk checks the header (or query)
//! against every item at the nodes it visits, so an item stands for the
//! bits below its node too. Prefix rules fix the low bits: a lone /16
//! sits one node below the root, and an exact entry under a /16 sits
//! one node below depth 16, where the two paths part.
//!
//! An insert that visits a node holding a tail item first pushes that
//! item one level down, to the child its own next bit selects; equal
//! prefixes push each other down to their last cared bit. Removal never
//! pulls items back up, so an item may sit deeper than needed; it is
//! still alone in its subtree.
//!
//! Items live in one arena, linked per node through `next`; freed slots
//! are chained through the same link, so storing a pattern allocates
//! nothing once the arena has grown.
//!
//! Lookups descend the child matching the header bit plus the wildcard
//! child and check the items at every node they visit. The walk is a
//! loop down the header-bit children that leaves each wildcard child on
//! a fixed stack for later; overlap queries
//! check the items at every visited node and descend every child
//! compatible with the query bit. Each node caches the item count and
//! maximum priority of its subtree, and the maximum priority of its own
//! items, so lookups can prune branches and skip item lists that cannot
//! beat the best match found so far.
//!
//! Every linked node other than the root has a non-zero count. Removing
//! a pattern unlinks the part of its path that no other pattern uses
//! and recycles those nodes through a free list, so a trie under churn
//! stays as large as the patterns it holds.

use std::collections::HashMap;

use crate::hash::IdHashBuilder;

/// Sentinel for "no child", "no item" and the end of an item chain.
const NIL: u32 = u32::MAX;

/// Child slots: pattern bit `0`, pattern bit `1`, wildcard.
const ZERO: usize = 0;
const ONE: usize = 1;
const WILD: usize = 2;

/// Longest possible path: one node per bit plus the root.
const MAX_PATH: usize = 129;

#[derive(Debug, Clone)]
struct Node {
    children: [u32; 3],
    /// Index into [`TernaryTrie::items`] of the first item sitting at
    /// this node, or `NIL`.
    items: u32,
    /// Number of items in this subtree (this node included).
    count: u32,
    /// Maximum priority of any item in this subtree; meaningful only
    /// when `count > 0`.
    max_priority: u16,
    /// Maximum priority of the items at this node; meaningful only when
    /// `items` is not `NIL`.
    items_max: u16,
}

impl Node {
    fn new() -> Self {
        Self {
            children: [NIL; 3],
            items: NIL,
            count: 0,
            max_priority: 0,
            items_max: 0,
        }
    }
}

/// One stored pattern, in the item arena.
#[derive(Debug, Clone, Copy)]
struct Item {
    care: u128,
    value: u128,
    id: u64,
    /// Next item at the same node, or next free slot; `NIL` ends both.
    next: u32,
    priority: u16,
    /// Depth of the node the item sits at.
    depth: u8,
}

impl Item {
    fn matches(&self, header: u128) -> bool {
        (header ^ self.value) & self.care == 0
    }

    fn intersects(&self, care: u128, value: u128) -> bool {
        (value ^ self.value) & care & self.care == 0
    }

    /// True if the item sits above its last cared bit.
    fn is_tail(&self) -> bool {
        u32::from(self.depth) < path_depth(self.care)
    }
}

/// A priority-aware ternary trie keyed by opaque `u64` ids.
///
/// All stored patterns must share one bit length, fixed by the first
/// insertion. See the crate docs for the `(care, value)` convention.
#[derive(Debug, Clone)]
pub struct TernaryTrie {
    /// Node arena; index 0 is the root (present once `bits > 0`).
    nodes: Vec<Node>,
    /// Item arena: every stored pattern, plus freed slots.
    items: Vec<Item>,
    /// Arena slots of nodes unlinked by removal, reused by insertion.
    free_nodes: Vec<u32>,
    /// First freed slot of `items` (chained through `next`), or `NIL`.
    free_items: u32,
    /// Pattern length in bits; 0 until the first insertion.
    bits: u32,
    /// Id to its slot in `items`.
    patterns: HashMap<u64, u32, IdHashBuilder>,
}

impl Default for TernaryTrie {
    fn default() -> Self {
        Self {
            nodes: Vec::new(),
            items: Vec::new(),
            free_nodes: Vec::new(),
            free_items: NIL,
            bits: 0,
            patterns: HashMap::default(),
        }
    }
}

impl TernaryTrie {
    /// Creates an empty trie; the bit length is fixed by the first
    /// [`insert`](Self::insert).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored patterns.
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// True if no pattern is stored.
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// Pattern length in bits (0 before the first insertion).
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// True if `id` currently has a stored pattern.
    pub fn contains(&self, id: u64) -> bool {
        self.patterns.contains_key(&id)
    }

    /// The `(care, value, priority)` stored under `id`, if present.
    pub fn get(&self, id: u64) -> Option<(u128, u128, u16)> {
        self.patterns.get(&id).map(|&slot| {
            let it = &self.items[slot as usize];
            (it.care, it.value, it.priority)
        })
    }

    /// Number of live nodes, the root included.
    #[cfg(test)]
    fn node_count(&self) -> usize {
        self.nodes.len() - self.free_nodes.len()
    }

    /// Inserts (or replaces) the pattern stored under `id`.
    ///
    /// `care`/`value` follow the crate-level mask convention; bits of
    /// `value` outside `care` and bits of either mask at or beyond
    /// `bits` are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero, exceeds 128, or differs from the bit
    /// length fixed by an earlier insertion.
    pub fn insert(&mut self, id: u64, care: u128, value: u128, priority: u16, bits: u32) {
        assert!(
            (1..=128).contains(&bits),
            "bits must be in 1..=128, got {bits}"
        );
        if self.bits == 0 {
            self.bits = bits;
            self.nodes.push(Node::new());
        }
        assert_eq!(self.bits, bits, "pattern length mismatch");
        if self.patterns.contains_key(&id) {
            self.remove(id);
        }
        let width = width_mask(bits);
        let care = care & width;
        let value = value & care;
        // Walk down to the last cared bit or to the first missing child,
        // pushing tail items out of the way and keeping the subtree
        // count and max-priority caches current.
        let last = path_depth(care);
        let mut node = 0usize;
        let mut depth = 0u32;
        loop {
            self.push_down(node, depth);
            self.bump(node, priority);
            if depth == last {
                break;
            }
            let slot = slot_of(care, value, depth);
            let child = self.nodes[node].children[slot];
            depth += 1;
            if child == NIL {
                // Nothing else passes here: the item becomes a tail item
                // (or ends its path, if this was its last cared bit).
                let idx = self.alloc_node();
                self.nodes[node].children[slot] = idx;
                node = idx as usize;
                self.bump(node, priority);
                break;
            }
            node = child as usize;
        }
        let slot = self.alloc_item(Item {
            care,
            value,
            id,
            next: NIL,
            priority,
            depth: depth as u8,
        });
        self.link_item(node, slot);
        self.patterns.insert(id, slot);
    }

    /// If the node at `depth` holds a lone tail item, moves it one level
    /// down along its own path, so a second pattern can pass through.
    fn push_down(&mut self, node: usize, depth: u32) {
        let n = &self.nodes[node];
        // A tail item is alone in its subtree: a count of 1 with the
        // item at this node means the node has no children.
        if n.count != 1 || n.items == NIL {
            return;
        }
        let slot = n.items;
        let item = &mut self.items[slot as usize];
        if !item.is_tail() {
            return;
        }
        item.depth += 1;
        let (to, priority) = (slot_of(item.care, item.value, depth), item.priority);
        let child = self.alloc_node();
        self.nodes[node].items = NIL;
        self.nodes[node].children[to] = child;
        self.bump(child as usize, priority);
        self.link_item(child as usize, slot);
    }

    fn alloc_node(&mut self) -> u32 {
        match self.free_nodes.pop() {
            Some(idx) => {
                self.nodes[idx as usize] = Node::new();
                idx
            }
            None => {
                self.nodes.push(Node::new());
                (self.nodes.len() - 1) as u32
            }
        }
    }

    fn alloc_item(&mut self, item: Item) -> u32 {
        match self.free_items {
            NIL => {
                self.items.push(item);
                (self.items.len() - 1) as u32
            }
            slot => {
                self.free_items = self.items[slot as usize].next;
                self.items[slot as usize] = item;
                slot
            }
        }
    }

    /// Prepends item `slot` to the list at `node`.
    fn link_item(&mut self, node: usize, slot: u32) {
        let priority = self.items[slot as usize].priority;
        let n = &mut self.nodes[node];
        if n.items == NIL || priority > n.items_max {
            n.items_max = priority;
        }
        self.items[slot as usize].next = n.items;
        n.items = slot;
    }

    /// Unlinks item `slot` from the list at `node`, refreshes the node's
    /// `items_max`, and puts the slot on the free chain.
    fn unlink_item(&mut self, node: usize, slot: u32) {
        let next = self.items[slot as usize].next;
        if self.nodes[node].items == slot {
            self.nodes[node].items = next;
        } else {
            let mut at = self.nodes[node].items;
            while self.items[at as usize].next != slot {
                at = self.items[at as usize].next;
            }
            self.items[at as usize].next = next;
        }
        self.items[slot as usize].next = self.free_items;
        self.free_items = slot;
        let mut at = self.nodes[node].items;
        let mut max = 0;
        while at != NIL {
            max = max.max(self.items[at as usize].priority);
            at = self.items[at as usize].next;
        }
        self.nodes[node].items_max = max;
    }

    fn bump(&mut self, node: usize, priority: u16) {
        let n = &mut self.nodes[node];
        if n.count == 0 || priority > n.max_priority {
            n.max_priority = priority;
        }
        n.count += 1;
    }

    /// Removes the pattern stored under `id`; returns true if present.
    pub fn remove(&mut self, id: u64) -> bool {
        let Some(slot) = self.patterns.remove(&id) else {
            return false;
        };
        let Item {
            care, value, depth, ..
        } = self.items[slot as usize];
        // Retrace the path to the item's node, decrementing subtree
        // counts.
        let depth = depth as usize;
        let mut path = [0u32; MAX_PATH];
        self.nodes[0].count -= 1;
        for k in 0..depth {
            let child = self.nodes[path[k] as usize].children[slot_of(care, value, k as u32)];
            self.nodes[child as usize].count -= 1;
            path[k + 1] = child;
        }
        self.unlink_item(path[depth] as usize, slot);
        // Counts never grow down a path, so the nodes left empty are a
        // suffix of it: unlink its top from the parent and free them all.
        let mut live = depth + 1;
        if let Some(cut) = (1..=depth).find(|&k| self.nodes[path[k] as usize].count == 0) {
            let slot = slot_of(care, value, cut as u32 - 1);
            self.nodes[path[cut - 1] as usize].children[slot] = NIL;
            self.free_nodes.extend_from_slice(&path[cut..=depth]);
            live = cut;
        }
        // Fix the max-priority caches bottom-up; once a node's maximum
        // is unchanged, every ancestor's is too.
        for &n in path[..live].iter().rev() {
            if !self.refresh_max(n as usize) {
                break;
            }
        }
        true
    }

    /// Recomputes a node's cached max priority from its items and
    /// children; returns true if it changed.
    fn refresh_max(&mut self, node: usize) -> bool {
        let n = &self.nodes[node];
        let mut best = (n.items != NIL).then_some(n.items_max);
        for child in n.children {
            if child != NIL {
                let c = &self.nodes[child as usize];
                if best.is_none_or(|b| c.max_priority > b) {
                    best = Some(c.max_priority);
                }
            }
        }
        let best = best.unwrap_or(0);
        let changed = self.nodes[node].max_priority != best;
        self.nodes[node].max_priority = best;
        changed
    }

    /// The highest-priority pattern matching the concrete header, ties
    /// broken by lowest id (the data plane's match precedence), as
    /// `(id, priority)`.
    ///
    /// Bits of `header` at or beyond the trie's bit length are ignored.
    pub fn lookup(&self, header: u128) -> Option<(u64, u16)> {
        if self.bits == 0 || self.nodes[0].count == 0 {
            return None;
        }
        // Wildcard children still to visit, as (node, depth). A chain
        // pushes them at increasing depths and the deepest is popped
        // first, so the depths on the stack strictly increase: at most
        // one per bit. Item-bearing nodes of the current chain sit at
        // distinct depths too.
        let mut pending = [(0u32, 0u32); MAX_PATH];
        let mut pending_len = 1;
        let mut held = [0u32; MAX_PATH];
        let mut best: Option<(u16, u64)> = None;
        while pending_len > 0 {
            pending_len -= 1;
            let (mut node, mut depth) = pending[pending_len];
            let mut held_len = 0;
            // Descend the header-bit children. Prune: nothing below can
            // beat a strictly better priority; on equal priority a lower
            // id may still be found.
            loop {
                let n = &self.nodes[node as usize];
                if best.is_some_and(|(p, _)| n.max_priority < p) {
                    break;
                }
                if n.items != NIL {
                    held[held_len] = node;
                    held_len += 1;
                }
                if depth == self.bits {
                    break;
                }
                if n.children[WILD] != NIL {
                    pending[pending_len] = (n.children[WILD], depth + 1);
                    pending_len += 1;
                }
                let next = n.children[(header >> depth & 1) as usize];
                if next == NIL {
                    break;
                }
                node = next;
                depth += 1;
            }
            // Deepest items first: in a longest-prefix table a longer
            // match outranks the shorter ones, and then `items_max`
            // skips their lists without reading them.
            for &node in held[..held_len].iter().rev() {
                let n = &self.nodes[node as usize];
                if best.is_some_and(|(p, _)| n.items_max < p) {
                    continue;
                }
                let mut at = n.items;
                while at != NIL {
                    let it = &self.items[at as usize];
                    let better = best.is_none_or(|(bp, bid)| {
                        it.priority > bp || (it.priority == bp && it.id < bid)
                    });
                    if better && it.matches(header) {
                        best = Some((it.priority, it.id));
                    }
                    at = it.next;
                }
            }
        }
        best.map(|(priority, id)| (id, priority))
    }

    /// Ids of every stored pattern whose header set intersects the
    /// query pattern, in ascending id order.
    pub fn overlaps(&self, care: u128, value: u128) -> Vec<u64> {
        let mut out = Vec::new();
        self.for_each_overlap(care, value, 0, |id, _| out.push(id));
        out.sort_unstable();
        out
    }

    /// Calls `f(id, priority)` for every stored pattern of priority at
    /// least `min_priority` whose header set intersects the query
    /// pattern, in no particular order.
    ///
    /// Two ternaries intersect unless some bit is fixed to different
    /// values in both, so the walk descends the wildcard child always
    /// and the fixed children compatible with the query bit, and checks
    /// each item it meets against the query. It skips every subtree
    /// whose maximum priority is below `min_priority`.
    pub fn for_each_overlap(
        &self,
        care: u128,
        value: u128,
        min_priority: u16,
        mut f: impl FnMut(u64, u16),
    ) {
        if self.bits == 0 || self.nodes[0].count == 0 {
            return;
        }
        let width = width_mask(self.bits);
        self.overlaps_rec(
            0,
            0,
            care & width,
            value & care & width,
            min_priority,
            &mut f,
        );
    }

    fn overlaps_rec<F: FnMut(u64, u16)>(
        &self,
        node: usize,
        depth: u32,
        care: u128,
        value: u128,
        min_priority: u16,
        f: &mut F,
    ) {
        let n = &self.nodes[node];
        if n.max_priority < min_priority {
            return;
        }
        if n.items != NIL && n.items_max >= min_priority {
            let mut at = n.items;
            while at != NIL {
                let it = &self.items[at as usize];
                if it.priority >= min_priority && it.intersects(care, value) {
                    f(it.id, it.priority);
                }
                at = it.next;
            }
        }
        if depth == self.bits {
            return;
        }
        let slots: &[usize] = if care >> depth & 1 == 1 {
            if value >> depth & 1 == 1 {
                &[ONE, WILD]
            } else {
                &[ZERO, WILD]
            }
        } else {
            &[ZERO, ONE, WILD]
        };
        for &slot in slots {
            if n.children[slot] != NIL {
                let child = n.children[slot] as usize;
                self.overlaps_rec(child, depth + 1, care, value, min_priority, f);
            }
        }
    }
}

/// Depth of a pattern's last cared bit: one past its highest cared bit,
/// or the root when it cares about no bit.
fn path_depth(care: u128) -> u32 {
    128 - care.leading_zeros()
}

/// Child slot selected by a pattern's bit at position `k`.
fn slot_of(care: u128, value: u128, k: u32) -> usize {
    if care >> k & 1 == 0 {
        WILD
    } else if value >> k & 1 == 1 {
        ONE
    } else {
        ZERO
    }
}

fn width_mask(bits: u32) -> u128 {
    if bits as usize == 128 {
        u128::MAX
    } else {
        (1u128 << bits) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(care, value)` from the paper's string form, bit 0 first.
    fn masks(s: &str) -> (u128, u128, u32) {
        let mut care = 0u128;
        let mut value = 0u128;
        for (k, c) in s.chars().enumerate() {
            match c {
                '0' => care |= 1 << k,
                '1' => {
                    care |= 1 << k;
                    value |= 1 << k;
                }
                'x' => {}
                other => panic!("bad pattern char {other}"),
            }
        }
        (care, value, s.len() as u32)
    }

    fn insert(trie: &mut TernaryTrie, id: u64, pattern: &str, priority: u16) {
        let (care, value, bits) = masks(pattern);
        trie.insert(id, care, value, priority, bits);
    }

    /// Reference linear scan with the same tie-break.
    struct Linear {
        rules: Vec<(u64, u128, u128, u16)>,
    }

    impl Linear {
        fn lookup(&self, header: u128) -> Option<(u64, u16)> {
            self.rules
                .iter()
                .filter(|&&(_, care, value, _)| (header ^ value) & care == 0)
                .fold(
                    None,
                    |best: Option<(u16, u64)>, &(id, _, _, p)| match best {
                        Some((bp, bid)) if bp > p || (bp == p && bid < id) => best,
                        _ => Some((p, id)),
                    },
                )
                .map(|(p, id)| (id, p))
        }

        fn overlaps(&self, care: u128, value: u128) -> Vec<u64> {
            let mut out: Vec<u64> = self
                .rules
                .iter()
                .filter(|&&(_, c, v, _)| (value ^ v) & care & c == 0)
                .map(|&(id, _, _, _)| id)
                .collect();
            out.sort_unstable();
            out
        }
    }

    /// `lookup` against the linear scan, and its priority against the
    /// one stored under the winning id.
    fn assert_lookup(trie: &TernaryTrie, linear: &Linear, h: u128) {
        let got = trie.lookup(h);
        assert_eq!(got, linear.lookup(h), "header {h:#x}");
        if let Some((id, priority)) = got {
            assert_eq!(trie.get(id).map(|(_, _, p)| p), Some(priority));
        }
    }

    /// splitmix64, so the tests need no external RNG crate.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    #[test]
    fn empty_trie_matches_nothing() {
        let trie = TernaryTrie::new();
        assert!(trie.is_empty());
        assert_eq!(trie.lookup(0), None);
        assert!(trie.overlaps(0, 0).is_empty());
    }

    #[test]
    fn highest_priority_wins() {
        let mut trie = TernaryTrie::new();
        insert(&mut trie, 0, "001xxxxx", 1);
        insert(&mut trie, 1, "00100xxx", 5);
        // 00100000 matches both; priority 5 wins.
        assert_eq!(trie.lookup(0b0000_0100), Some((1, 5)));
        // 00101000 matches only the low-priority rule.
        assert_eq!(trie.lookup(0b0001_0100), Some((0, 1)));
    }

    #[test]
    fn duplicate_priorities_tie_break_by_lowest_id() {
        let mut trie = TernaryTrie::new();
        insert(&mut trie, 7, "0xxxxxxx", 2);
        insert(&mut trie, 3, "0xxxxxxx", 2);
        insert(&mut trie, 5, "xxxxxxx0", 2);
        assert_eq!(trie.lookup(0), Some((3, 2)));
        trie.remove(3);
        assert_eq!(trie.lookup(0), Some((5, 2)));
    }

    #[test]
    fn all_wildcard_rule_matches_everything() {
        let mut trie = TernaryTrie::new();
        insert(&mut trie, 4, "xxxxxxxx", 0);
        for h in [0u128, 1, 0x80, 0xFF] {
            assert_eq!(trie.lookup(h), Some((4, 0)));
        }
        assert_eq!(trie.overlaps(0, 0), vec![4]);
        // A concrete query still intersects the full wildcard.
        let (c, v, _) = masks("10101010");
        assert_eq!(trie.overlaps(c, v), vec![4]);
    }

    #[test]
    fn shadowing_rule_takes_over_and_removal_restores() {
        let mut trie = TernaryTrie::new();
        insert(&mut trie, 0, "00xxxxxx", 1);
        assert_eq!(trie.lookup(0), Some((0, 1)));
        // A higher-priority rule shadows the whole region.
        insert(&mut trie, 1, "0xxxxxxx", 9);
        assert_eq!(trie.lookup(0), Some((1, 9)));
        // Removing the currently-matching rule falls back to the old one.
        assert!(trie.remove(1));
        assert_eq!(trie.lookup(0), Some((0, 1)));
        assert!(!trie.remove(1));
    }

    #[test]
    fn removal_of_only_rule_empties_region() {
        let mut trie = TernaryTrie::new();
        insert(&mut trie, 0, "1xxxxxxx", 0);
        assert_eq!(trie.lookup(1), Some((0, 0)));
        assert!(trie.remove(0));
        assert_eq!(trie.lookup(1), None);
        assert!(trie.is_empty());
        assert!(trie.overlaps(0, 0).is_empty());
    }

    #[test]
    fn reinsert_under_same_id_replaces() {
        let mut trie = TernaryTrie::new();
        insert(&mut trie, 0, "0xxxxxxx", 1);
        insert(&mut trie, 0, "1xxxxxxx", 3);
        assert_eq!(trie.len(), 1);
        assert_eq!(trie.lookup(0), None);
        assert_eq!(trie.lookup(1), Some((0, 3)));
        assert!(trie.contains(0));
        assert_eq!(trie.get(0), Some((1, 1, 3)));
        assert_eq!(trie.get(9), None);
    }

    #[test]
    fn overlaps_basics() {
        let mut trie = TernaryTrie::new();
        insert(&mut trie, 0, "0010xxxx", 2); // e1
        insert(&mut trie, 1, "001xxxxx", 1); // e2
        insert(&mut trie, 2, "0111xxxx", 0); // e3
        let (c, v, _) = masks("0011xxxx"); // b2's output
        assert_eq!(trie.overlaps(c, v), vec![1]);
        let (c, v, _) = masks("00100xxx"); // c1's output
        assert_eq!(trie.overlaps(c, v), vec![0, 1]);
        let (c, v, _) = masks("0111xxxx"); // d1's output
        assert_eq!(trie.overlaps(c, v), vec![2]);
    }

    #[test]
    fn value_bits_outside_care_are_canonicalized() {
        let mut trie = TernaryTrie::new();
        // value has bits set where care is clear; they must be ignored.
        trie.insert(0, 0b0011, 0b1101, 0, 4);
        assert_eq!(trie.lookup(0b0001), Some((0, 0)));
        assert_eq!(trie.lookup(0b1101), Some((0, 0)));
        assert_eq!(trie.overlaps(0b0011, 0b0001), vec![0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mixed_lengths_panic() {
        let mut trie = TernaryTrie::new();
        trie.insert(0, 0, 0, 0, 8);
        trie.insert(1, 0, 0, 0, 16);
    }

    #[test]
    fn full_width_128_bit_patterns() {
        let mut trie = TernaryTrie::new();
        trie.insert(0, u128::MAX, u128::MAX, 1, 128);
        trie.insert(1, 0, 0, 0, 128);
        assert_eq!(trie.lookup(u128::MAX), Some((0, 1)));
        assert_eq!(trie.lookup(0), Some((1, 0)));
        assert_eq!(trie.overlaps(0, 0), vec![0, 1]);
    }

    #[test]
    fn differential_random_insert_remove_lookup() {
        let mut rng = Rng(42);
        for _ in 0..30 {
            let bits = 8 + rng.below(9) as u32; // 8..=16
            let mut trie = TernaryTrie::new();
            let mut linear = Linear { rules: Vec::new() };
            let mut next_id = 0u64;
            for _ in 0..120 {
                if !linear.rules.is_empty() && rng.below(10) < 3 {
                    let idx = rng.below(linear.rules.len() as u64) as usize;
                    let (id, _, _, _) = linear.rules.swap_remove(idx);
                    assert!(trie.remove(id));
                } else {
                    let care = rng.next() as u128 & width_mask(bits);
                    let value = rng.next() as u128 & care;
                    let priority = rng.below(6) as u16;
                    let id = next_id;
                    next_id += 1;
                    trie.insert(id, care, value, priority, bits);
                    linear.rules.push((id, care, value, priority));
                }
                for _ in 0..20 {
                    let h = rng.next() as u128 & width_mask(bits);
                    assert_lookup(&trie, &linear, h);
                }
                let qc = rng.next() as u128 & width_mask(bits);
                let qv = rng.next() as u128 & qc;
                assert_eq!(trie.overlaps(qc, qv), linear.overlaps(qc, qv));
            }
        }
    }

    /// Walks the linked nodes and checks every cache, the item layout
    /// and the free lists against the stored patterns.
    fn check_invariants(trie: &TernaryTrie) {
        if trie.bits == 0 {
            return;
        }
        // Returns (count, max priority) of the subtree at `node`.
        fn walk(
            trie: &TernaryTrie,
            node: usize,
            depth: u32,
            live: &mut Vec<usize>,
            items: &mut usize,
        ) -> (u32, Option<u16>) {
            live.push(node);
            let n = &trie.nodes[node];
            let mut here = Vec::new();
            let mut at = n.items;
            while at != NIL {
                let it = &trie.items[at as usize];
                assert_eq!(u32::from(it.depth), depth, "item depth out of date");
                assert!(
                    depth <= path_depth(it.care),
                    "item below its last cared bit"
                );
                assert_eq!(trie.patterns.get(&it.id), Some(&at), "item not indexed");
                here.push(*it);
                at = it.next;
            }
            *items += here.len();
            if !here.is_empty() {
                assert_eq!(Some(n.items_max), here.iter().map(|it| it.priority).max());
            }
            let mut count = here.len() as u32;
            let mut max = here.iter().map(|it| it.priority).max();
            for child in n.children.into_iter().filter(|&c| c != NIL) {
                let (c, m) = walk(trie, child as usize, depth + 1, live, items);
                assert!(c > 0, "linked node with an empty subtree");
                count += c;
                max = max.max(m);
            }
            assert_eq!(n.count, count, "stale subtree count");
            if count > 0 {
                assert_eq!(Some(n.max_priority), max, "stale max priority");
            }
            // An item above its last cared bit stands for the rest of its
            // path, so nothing else may live in its subtree.
            if here.iter().any(Item::is_tail) {
                assert_eq!(count, 1, "tail item at depth {depth} is not alone");
            }
            (count, max)
        }
        let mut live = Vec::new();
        let mut items = 0;
        let (count, _) = walk(trie, 0, 0, &mut live, &mut items);
        assert_eq!(count as usize, trie.len());
        assert_eq!(items, trie.len());
        assert_eq!(live.len(), trie.node_count());
        let mut free = vec![false; trie.nodes.len()];
        for &n in &trie.free_nodes {
            assert!(
                !std::mem::replace(&mut free[n as usize], true),
                "node freed twice"
            );
        }
        assert!(
            live.iter().all(|&n| !free[n]),
            "linked node on the free list"
        );
        // Live item slots plus the free chain cover the arena exactly.
        let mut used = vec![false; trie.items.len()];
        for &slot in trie.patterns.values() {
            used[slot as usize] = true;
        }
        let mut free_items = 0;
        let mut at = trie.free_items;
        while at != NIL {
            assert!(
                !std::mem::replace(&mut used[at as usize], true),
                "item slot both live and free, or freed twice"
            );
            free_items += 1;
            at = trie.items[at as usize].next;
        }
        assert_eq!(items + free_items, trie.items.len());
    }

    #[test]
    fn node_is_24_bytes() {
        assert_eq!(std::mem::size_of::<Node>(), 24);
    }

    #[test]
    fn tail_items_sit_where_paths_part() {
        let mut trie = TernaryTrie::new();
        // A lone /16 over 32 bits: one node below the root.
        trie.insert(0, 0xFFFF, 0x0A0B, 1, 32);
        assert_eq!(trie.node_count(), 2);
        // No cared bit: the item sits at the root.
        trie.insert(1, 0, 0, 0, 32);
        assert_eq!(trie.node_count(), 2);
        assert_eq!(trie.lookup(0x1234_0A0B), Some((0, 1)));
        assert_eq!(trie.lookup(0x1234_0A0C), Some((1, 0)));
        assert_eq!(trie.overlaps(0x1_0000, 0x1_0000), vec![0, 1]);
        assert_eq!(trie.overlaps(0xFFFF, 0x0A0C), vec![1]);
        // An exact entry under the /16 pushes it down to its last cared
        // bit (depth 16) and sits one node below, where the paths part.
        trie.insert(2, u32::MAX as u128, 0x1234_0A0B, 5, 32);
        assert_eq!(trie.node_count(), 18);
        assert_eq!(trie.lookup(0x1234_0A0B), Some((2, 5)));
        assert_eq!(trie.lookup(0x1235_0A0B), Some((0, 1)));
        check_invariants(&trie);
        // Removal leaves the /16 where it was pushed.
        assert!(trie.remove(2));
        assert_eq!(trie.node_count(), 17);
        check_invariants(&trie);
    }

    #[test]
    fn removal_frees_nodes_under_churn() {
        let bits = 32;
        let mut rng = Rng(7);
        let mut seen = std::collections::HashSet::new();
        let mut patterns = Vec::new();
        while patterns.len() < 10_000 {
            let care = rng.next() as u128 & width_mask(bits);
            let value = rng.next() as u128 & care;
            if seen.insert((care, value)) {
                patterns.push((care, value));
            }
        }
        // One at a time: the arena never holds more than one path.
        let mut trie = TernaryTrie::new();
        for (id, &(care, value)) in patterns.iter().enumerate() {
            trie.insert(id as u64, care, value, rng.below(8) as u16, bits);
            // A lone pattern sits one node below the root, or at the root
            // when it cares about no bit.
            assert_eq!(trie.node_count(), 1 + usize::from(care != 0));
            assert!(trie.nodes.len() <= bits as usize + 1, "arena grew");
            assert!(trie.remove(id as u64));
            assert_eq!(trie.node_count(), 1);
        }
        // All at once, removed in a shuffled order: only the root stays,
        // and a second round reuses the freed slots.
        for round in 0..2 {
            for (id, &(care, value)) in patterns.iter().enumerate() {
                trie.insert(id as u64, care, value, rng.below(8) as u16, bits);
            }
            check_invariants(&trie);
            let high_water = trie.nodes.len();
            let mut order: Vec<u64> = (0..patterns.len() as u64).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.below(i as u64 + 1) as usize);
            }
            for (k, &id) in order.iter().enumerate() {
                assert!(trie.remove(id));
                if k % 1_000 == 0 {
                    check_invariants(&trie);
                }
            }
            assert_eq!(trie.node_count(), 1, "round {round}");
            assert!(trie.is_empty());
            assert_eq!(trie.lookup(0), None);
            check_invariants(&trie);
            if round == 1 {
                assert_eq!(trie.nodes.len(), high_water, "second round grew the arena");
            }
        }
    }

    #[test]
    fn differential_workload_shaped_patterns() {
        let mut rng = Rng(1301);
        for _ in 0..40 {
            let bits = 1 + rng.below(32) as u32; // 1..=32
            let width = width_mask(bits);
            let mut trie = TernaryTrie::new();
            let mut linear = Linear { rules: Vec::new() };
            let mut next_id = 0u64;
            for _ in 0..150 {
                let roll = rng.below(10);
                if !linear.rules.is_empty() && roll < 3 {
                    let idx = rng.below(linear.rules.len() as u64) as usize;
                    let (id, _, _, _) = linear.rules.swap_remove(idx);
                    assert!(trie.remove(id));
                } else {
                    // Prefixes of every length (0 = root, `bits` = exact
                    // match) and, one time in four, a random mask.
                    let care = match rng.below(bits as u64 + 1) as u32 {
                        _ if rng.below(4) == 0 => rng.next() as u128 & width,
                        0 => 0,
                        len => width_mask(len),
                    };
                    let value = rng.next() as u128 & care;
                    let priority = rng.below(4) as u16;
                    // Re-insert under a live id, or take a fresh one.
                    let id = if !linear.rules.is_empty() && roll < 5 {
                        let idx = rng.below(linear.rules.len() as u64) as usize;
                        linear.rules.swap_remove(idx).0
                    } else {
                        next_id += 1;
                        next_id - 1
                    };
                    trie.insert(id, care, value, priority, bits);
                    linear.rules.push((id, care, value, priority));
                }
                assert_eq!(trie.len(), linear.rules.len());
                check_invariants(&trie);
                for _ in 0..20 {
                    // Half the headers are drawn inside a stored pattern.
                    let noise = rng.next() as u128 & width;
                    let h = match linear.rules.len() as u64 {
                        n if n > 0 && rng.below(2) == 0 => {
                            let (_, care, value, _) = linear.rules[rng.below(n) as usize];
                            value | noise & !care
                        }
                        _ => noise,
                    };
                    assert_lookup(&trie, &linear, h);
                }
                for _ in 0..4 {
                    let qc = match rng.below(3) {
                        0 => rng.next() as u128 & width,
                        1 => width_mask(bits) >> rng.below(bits as u64) as u32,
                        _ => 0,
                    };
                    let qv = rng.next() as u128 & qc;
                    assert_eq!(trie.overlaps(qc, qv), linear.overlaps(qc, qv));
                    // The same walk restricted to a minimum priority.
                    let min = rng.below(5) as u16;
                    let mut got = Vec::new();
                    trie.for_each_overlap(qc, qv, min, |id, p| got.push((id, p)));
                    got.sort_unstable();
                    let mut expect: Vec<(u64, u16)> = linear
                        .rules
                        .iter()
                        .filter(|&&(_, c, v, p)| p >= min && (qv ^ v) & qc & c == 0)
                        .map(|&(id, _, _, p)| (id, p))
                        .collect();
                    expect.sort_unstable();
                    assert_eq!(got, expect, "query ({qc:#x}, {qv:#x}) at priority {min}");
                }
            }
        }
    }

    #[test]
    fn differential_push_down_chains() {
        let mut rng = Rng(2113);
        let mut tail_probes = 0;
        for _ in 0..40 {
            let bits = 8 + rng.below(25) as u32; // 8..=32
            let width = width_mask(bits);
            // Every pattern extends one of three stems, so paths share
            // long prefixes and inserts push tail items down in chains.
            let stems: Vec<(u32, u128)> = (0..3)
                .map(|_| (rng.below(bits as u64) as u32, rng.next() as u128))
                .collect();
            let mut trie = TernaryTrie::new();
            let mut linear = Linear { rules: Vec::new() };
            let mut next_id = 0u64;
            for _ in 0..120 {
                let roll = rng.below(10);
                if !linear.rules.is_empty() && roll < 2 {
                    let idx = rng.below(linear.rules.len() as u64) as usize;
                    let (id, _, _, _) = linear.rules.swap_remove(idx);
                    assert!(trie.remove(id));
                } else if !linear.rules.is_empty() && roll < 4 {
                    // Remove and reinsert: the pattern walks back down
                    // through whatever the removal left behind.
                    let idx = rng.below(linear.rules.len() as u64) as usize;
                    let (id, care, value, priority) = linear.rules[idx];
                    assert!(trie.remove(id));
                    check_invariants(&trie);
                    trie.insert(id, care, value, priority, bits);
                } else {
                    let (stem_len, stem) = stems[rng.below(3) as usize];
                    // The stem itself, an exact entry under it, or a
                    // longer prefix of it.
                    let len = match rng.below(3) {
                        0 => stem_len,
                        1 => bits,
                        _ => stem_len + rng.below((bits - stem_len) as u64 + 1) as u32,
                    };
                    let care = width_mask(len);
                    let low = width_mask(stem_len);
                    let value = (stem & low | rng.next() as u128 & !low) & care;
                    let priority = rng.below(4) as u16;
                    trie.insert(next_id, care, value, priority, bits);
                    linear.rules.push((next_id, care, value, priority));
                    next_id += 1;
                }
                assert_eq!(trie.len(), linear.rules.len());
                check_invariants(&trie);
                if linear.rules.is_empty() {
                    continue;
                }
                for _ in 0..20 {
                    // A header inside a stored pattern, then (if it sits
                    // above its last cared bit) one cared bit below its
                    // node flipped: same path, different tail.
                    let (id, care, value, _) =
                        linear.rules[rng.below(linear.rules.len() as u64) as usize];
                    let mut h = value | rng.next() as u128 & width & !care;
                    let depth = u32::from(trie.items[trie.patterns[&id] as usize].depth);
                    let below = care & !width_mask(depth);
                    if below != 0 && rng.below(2) == 0 {
                        tail_probes += 1;
                        let set: Vec<u32> =
                            (depth..bits).filter(|&k| below >> k & 1 == 1).collect();
                        h ^= 1 << set[rng.below(set.len() as u64) as usize];
                    }
                    assert_lookup(&trie, &linear, h);
                    // The same pattern as a query, shortened or flipped.
                    let qc = care & width_mask(rng.below(bits as u64 + 1) as u32);
                    let qv = h & qc;
                    assert_eq!(trie.overlaps(qc, qv), linear.overlaps(qc, qv));
                    assert_eq!(
                        trie.overlaps(care, h & care),
                        linear.overlaps(care, h & care)
                    );
                }
            }
        }
        assert!(tail_probes > 10_000, "only {tail_probes} tail probes");
    }
}
