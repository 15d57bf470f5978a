//! Flow tables and priority-based lookup.

use std::cmp::Reverse;
use std::sync::atomic::{AtomicU64, Ordering};

use sdnprobe_classifier::TernaryTrie;
use sdnprobe_headerspace::{Header, Ternary};

use crate::flow::{EntryId, FlowEntry};

/// A single OpenFlow-style flow table: precedence keys and entries in
/// two parallel sorted vectors, plus a [`TernaryTrie`] over the match
/// fields, so [`lookup`](Self::lookup) walks at most one trie branch per
/// header bit instead of scanning every entry. An entry's slot is found by
/// binary search on its 16-byte precedence key, so a mutation never
/// touches the other entries.
///
/// Lookup returns the highest-priority matching entry; ties are broken
/// by installation order (earlier wins), matching common switch
/// behaviour. All entries share one header length.
///
/// Every table carries a stamp that names its current contents: no two
/// tables in the process, clones included, ever hold the same stamp
/// with different contents, so a lookup answer recorded with a stamp
/// stays valid while the table still shows that stamp.
#[derive(Debug)]
pub struct FlowTable {
    /// Precedence keys, sorted: priority descending, then id ascending.
    keys: Vec<(Reverse<u16>, EntryId)>,
    /// The entries, in the order of `keys`.
    entries: Vec<FlowEntry>,
    /// Match-field trie; ids are the raw `EntryId` values.
    trie: TernaryTrie,
    /// Names the contents: the high 32 bits are this instance's base,
    /// the low 32 bits count its mutations.
    stamp: u64,
}

/// Process-wide source of per-instance stamp bases (see
/// `FlowTable::stamp`): one atomic operation per table created or
/// cloned, none per flow-mod.
static TABLE_INSTANCE: AtomicU64 = AtomicU64::new(0);

/// A stamp no table has held: the next instance base. `Relaxed`
/// suffices, since the counter publishes no other data and `fetch_add`
/// alone makes every base unique.
fn fresh_stamp() -> u64 {
    TABLE_INSTANCE.fetch_add(1, Ordering::Relaxed) << 32
}

impl Default for FlowTable {
    fn default() -> Self {
        Self {
            keys: Vec::new(),
            entries: Vec::new(),
            trie: TernaryTrie::default(),
            stamp: fresh_stamp(),
        }
    }
}

impl Clone for FlowTable {
    /// Clones take a fresh instance base: the clone and the original may
    /// be mutated independently, so their later stamps must not meet.
    fn clone(&self) -> Self {
        Self {
            keys: self.keys.clone(),
            entries: self.entries.clone(),
            trie: self.trie.clone(),
            stamp: fresh_stamp(),
        }
    }
}

impl PartialEq for FlowTable {
    fn eq(&self, other: &Self) -> bool {
        // The trie is a function of `keys` and `entries`.
        self.keys == other.keys && self.entries == other.entries
    }
}

impl Eq for FlowTable {}

impl FlowTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The stamp of the table's current contents. It changes on every
    /// mutation except a replace that keeps the match field, priority
    /// and set field, which leaves every slot and every header leaving
    /// the table as it was.
    pub(crate) fn stamp(&self) -> u64 {
        self.stamp
    }

    /// Takes a stamp no table has held. The low half counts up; when it
    /// would run into the next instance's base, a new base is drawn.
    fn restamp(&mut self) {
        self.stamp = if self.stamp as u32 == u32::MAX {
            fresh_stamp()
        } else {
            self.stamp + 1
        };
    }

    /// Iterates over `(id, entry)` in match-precedence order.
    pub fn iter(&self) -> impl Iterator<Item = (EntryId, &FlowEntry)> {
        self.keys.iter().map(|&(_, id)| id).zip(&self.entries)
    }

    /// Position of the entry stored under `(priority, id)`.
    fn slot(&self, priority: u16, id: EntryId) -> Option<usize> {
        self.keys.binary_search(&(Reverse(priority), id)).ok()
    }

    /// Position of `id`; its priority comes from the trie.
    fn slot_of(&self, id: EntryId) -> Option<usize> {
        let (_, _, priority) = self.trie.get(id.0)?;
        self.slot(priority, id)
    }

    /// Inserts an entry under the given id, keeping precedence order.
    pub(crate) fn insert(&mut self, id: EntryId, entry: FlowEntry) {
        let key = (Reverse(entry.priority()), id);
        let pos = self.keys.partition_point(|k| *k < key);
        let m = entry.match_field();
        self.trie.insert(
            id.0,
            m.care_mask(),
            m.value_bits(),
            entry.priority(),
            m.len(),
        );
        self.keys.insert(pos, key);
        self.entries.insert(pos, entry);
        self.restamp();
    }

    /// Removes an entry by id; returns it if present.
    pub(crate) fn remove(&mut self, id: EntryId) -> Option<FlowEntry> {
        let pos = self.slot_of(id)?;
        self.trie.remove(id.0);
        self.keys.remove(pos);
        self.restamp();
        Some(self.entries.remove(pos))
    }

    /// Looks up an entry by id.
    pub fn get(&self, id: EntryId) -> Option<&FlowEntry> {
        self.slot_of(id).map(|pos| &self.entries[pos])
    }

    /// Replaces an entry (same id), returning the old one. With match
    /// and priority unchanged (a MODIFY_STRICT) the slot is overwritten
    /// in place, and the stamp stays too if the set field is unchanged
    /// (an action-only rewrite such as Fig. 7's `goto`); otherwise the
    /// entry moves to its new precedence slot.
    pub(crate) fn replace(&mut self, id: EntryId, entry: FlowEntry) -> Option<FlowEntry> {
        let pos = self.slot_of(id)?;
        let old = &self.entries[pos];
        if old.priority() == entry.priority() && old.match_field() == entry.match_field() {
            if old.set_field() != entry.set_field() {
                self.restamp();
            }
            return Some(std::mem::replace(&mut self.entries[pos], entry));
        }
        let old = self.remove(id);
        self.insert(id, entry);
        old
    }

    /// Match fields of the entries that take precedence over `(id, entry)`
    /// and overlap its match field, in precedence order: the patterns
    /// subtracted from its match field to resolve the headers it
    /// actually receives.
    ///
    /// The trie walk reads each candidate's priority from the trie and
    /// skips every branch whose priorities all sit below the entry's, so
    /// the cost follows the overlapping entries, not the table size.
    pub fn shadowing_matches(&self, id: EntryId, entry: &FlowEntry) -> Vec<Ternary> {
        let m = entry.match_field();
        let priority = entry.priority();
        let mut above = Vec::new();
        self.trie
            .for_each_overlap(m.care_mask(), m.value_bits(), priority, |qid, p| {
                if p > priority || qid < id.0 {
                    above.push((Reverse(p), qid));
                }
            });
        above.sort_unstable();
        above
            .into_iter()
            .map(|(_, qid)| {
                let (care, value, _) = self.trie.get(qid).expect("overlap ids are stored");
                Ternary::from_masks(care, value, m.len())
            })
            .collect()
    }

    /// Calls `f` with the id of every entry whose match field intersects
    /// `pattern`, in no particular order.
    pub fn for_each_overlap(&self, pattern: &Ternary, mut f: impl FnMut(EntryId)) {
        self.trie
            .for_each_overlap(pattern.care_mask(), pattern.value_bits(), 0, |id, _| {
                f(EntryId(id))
            });
    }

    /// The highest-priority entry matching `header`, if any; ties break
    /// toward the lowest id.
    pub fn lookup(&self, header: Header) -> Option<(EntryId, &FlowEntry)> {
        self.lookup_slot(header).and_then(|pos| self.entry_at(pos))
    }

    /// The precedence slot of [`lookup`](Self::lookup)'s answer: the
    /// position [`entry_at`](Self::entry_at) reads. It names the same
    /// entry for as long as the table keeps its [`stamp`](Self::stamp).
    ///
    /// Resolved by the match-field trie in O(header bits) branch walks;
    /// the trie also returns the winner's priority, which locates its
    /// slot by binary search over the precedence keys.
    pub(crate) fn lookup_slot(&self, header: Header) -> Option<usize> {
        let (id, priority) = self.trie.lookup(header.bits())?;
        self.slot(priority, EntryId(id))
    }

    /// The entry at a precedence slot, as [`iter`](Self::iter) would
    /// yield it in that position; `None` past the end.
    pub(crate) fn entry_at(&self, pos: usize) -> Option<(EntryId, &FlowEntry)> {
        Some((self.keys.get(pos)?.1, self.entries.get(pos)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::Action;
    use sdnprobe_headerspace::Ternary;
    use sdnprobe_topology::PortId;

    fn t(s: &str) -> Ternary {
        s.parse().expect("valid ternary")
    }

    fn entry(m: &str, prio: u16, port: u32) -> FlowEntry {
        FlowEntry::new(t(m), Action::Output(PortId(port))).with_priority(prio)
    }

    #[test]
    fn highest_priority_wins() {
        let mut tab = FlowTable::new();
        tab.insert(EntryId(0), entry("001xxxxx", 1, 0));
        tab.insert(EntryId(1), entry("00100xxx", 5, 1));
        // 00100000 matches both; priority 5 must win.
        let h = Header::new(0b0000_0100, 8);
        let (id, _) = tab.lookup(h).expect("match");
        assert_eq!(id, EntryId(1));
        // 00101000 only matches the low-priority one.
        let h2 = Header::new(0b0001_0100, 8);
        assert_eq!(tab.lookup(h2).map(|(id, _)| id), Some(EntryId(0)));
    }

    #[test]
    fn tie_break_by_installation_order() {
        let mut tab = FlowTable::new();
        tab.insert(EntryId(3), entry("0xxxxxxx", 2, 0));
        tab.insert(EntryId(7), entry("0xxxxxxx", 2, 1));
        let (id, _) = tab.lookup(Header::new(0, 8)).expect("match");
        assert_eq!(id, EntryId(3));
    }

    #[test]
    fn no_match_returns_none() {
        let mut tab = FlowTable::new();
        tab.insert(EntryId(0), entry("1xxxxxxx", 0, 0));
        assert!(tab.lookup(Header::new(0, 8)).is_none());
        assert!(FlowTable::new().lookup(Header::new(0, 8)).is_none());
    }

    #[test]
    fn remove_and_get() {
        let mut tab = FlowTable::new();
        tab.insert(EntryId(0), entry("0xxxxxxx", 0, 0));
        tab.insert(EntryId(1), entry("1xxxxxxx", 0, 1));
        assert!(tab.get(EntryId(1)).is_some());
        assert!(tab.remove(EntryId(1)).is_some());
        assert!(tab.get(EntryId(1)).is_none());
        assert!(tab.remove(EntryId(1)).is_none());
        assert_eq!(tab.len(), 1);
    }

    #[test]
    fn replace_keeps_id_and_new_priority() {
        let mut tab = FlowTable::new();
        tab.insert(EntryId(0), entry("xxxxxxxx", 1, 0));
        tab.insert(EntryId(1), entry("xxxxxxxx", 3, 1));
        tab.replace(EntryId(0), entry("xxxxxxxx", 9, 2));
        let (id, e) = tab.lookup(Header::new(0, 8)).expect("match");
        assert_eq!(id, EntryId(0));
        assert_eq!(e.priority(), 9);
    }

    #[test]
    fn iter_in_precedence_order() {
        let mut tab = FlowTable::new();
        tab.insert(EntryId(0), entry("xxxxxxxx", 1, 0));
        tab.insert(EntryId(1), entry("xxxxxxxx", 5, 1));
        tab.insert(EntryId(2), entry("xxxxxxxx", 3, 2));
        let prios: Vec<u16> = tab.iter().map(|(_, e)| e.priority()).collect();
        assert_eq!(prios, vec![5, 3, 1]);
    }

    #[test]
    fn action_only_replace_keeps_slot_and_pattern() {
        let mut tab = FlowTable::new();
        for (i, prio) in [(0u64, 4u16), (1, 1), (2, 4), (3, 2)] {
            tab.insert(EntryId(i), entry("0xxxxxxx", prio, i as u32));
        }
        let order: Vec<EntryId> = tab.iter().map(|(id, _)| id).collect();
        let pattern = tab.trie.get(2);
        let old = tab
            .replace(EntryId(2), entry("0xxxxxxx", 4, 9))
            .expect("present");
        assert_eq!(old.action(), Action::Output(PortId(2)));
        assert!(tab.iter().map(|(id, _)| id).eq(order));
        assert_eq!(tab.trie.get(2), pattern);
        // Entry 0 outranks 2 on the tie; remove it and 2 wins with its new action.
        tab.remove(EntryId(0));
        let (id, e) = tab.lookup(Header::new(0, 8)).expect("match");
        assert_eq!((id, e.action()), (EntryId(2), Action::Output(PortId(9))));
    }

    #[test]
    fn trie_and_linear_lookup_agree_after_mutations() {
        let mut tab = FlowTable::new();
        tab.insert(EntryId(0), entry("00xxxxxx", 1, 0));
        tab.insert(EntryId(1), entry("0xxxxxxx", 2, 1));
        tab.insert(EntryId(2), entry("xxxxxxxx", 0, 2));
        tab.remove(EntryId(1));
        tab.replace(EntryId(0), entry("01xxxxxx", 3, 0));
        for bits in 0..=255u128 {
            let h = Header::new(bits, 8);
            assert_eq!(
                tab.lookup(h).map(|(id, _)| id),
                tab.iter()
                    .find(|(_, e)| e.match_field().matches(h))
                    .map(|(id, _)| id),
                "divergence at {h:?}"
            );
        }
    }

    #[test]
    fn priority_change_moves_the_entry() {
        let mut tab = FlowTable::new();
        for (i, prio) in [(0u64, 4u16), (1, 3), (2, 2)] {
            tab.insert(EntryId(i), entry("0xxxxxxx", prio, i as u32));
        }
        tab.replace(EntryId(2), entry("0xxxxxxx", 5, 2))
            .expect("present");
        assert!(tab.iter().map(|(id, _)| id.0).eq([2, 0, 1]));
        assert_eq!(tab.trie.get(2).map(|(_, _, p)| p), Some(5));
        let (id, e) = tab.lookup(Header::new(0, 8)).expect("match");
        assert_eq!((id, e.priority()), (EntryId(2), 5));
        assert!(tab.replace(EntryId(7), entry("0xxxxxxx", 1, 7)).is_none());
    }

    /// The trie query against a linear filter over the precedence list,
    /// for every entry in the table.
    fn assert_shadowing_matches_linear(tab: &FlowTable) {
        for (id, e) in tab.iter() {
            let expect: Vec<Ternary> = tab
                .iter()
                .filter(|&(qid, q)| {
                    let higher =
                        q.priority() > e.priority() || (q.priority() == e.priority() && qid < id);
                    higher && q.match_field().overlaps(&e.match_field())
                })
                .map(|(_, q)| q.match_field())
                .collect();
            assert_eq!(tab.shadowing_matches(id, e), expect, "entry {id:?}");
        }
    }

    #[test]
    fn shadowing_matches_equal_a_linear_filter() {
        let mut tab = FlowTable::new();
        // Ties at priority 2 (ids 1, 3, 4) are broken by id; 5 overlaps
        // nothing above it; 6 sits below everything.
        for (i, m, prio) in [
            (3u64, "0xxxxxxx", 2u16),
            (1, "01xxxxxx", 2),
            (4, "0x1xxxxx", 2),
            (0, "011xxxxx", 7),
            (2, "xxxxxxx1", 4),
            (5, "10xxxxx0", 1),
            (6, "xxxxxxxx", 0),
        ] {
            tab.insert(EntryId(i), entry(m, prio, i as u32));
        }
        assert_shadowing_matches_linear(&tab);
        let (id, e) = tab.iter().last().expect("entries");
        assert_eq!((id, tab.shadowing_matches(id, e).len()), (EntryId(6), 6));
        // Raising 4 above 0 reorders both its shadows and theirs.
        tab.replace(EntryId(4), entry("0x1xxxxx", 9, 4));
        assert_shadowing_matches_linear(&tab);
        let four = *tab.get(EntryId(4)).expect("present");
        assert!(tab.shadowing_matches(EntryId(4), &four).is_empty());
        tab.remove(EntryId(3));
        assert_shadowing_matches_linear(&tab);
        // A 1-bit table with every pattern and a spread of priorities.
        let mut small = FlowTable::new();
        for (i, (m, prio)) in [("0", 1u16), ("1", 1), ("x", 1), ("x", 3), ("0", 0)]
            .into_iter()
            .enumerate()
        {
            small.insert(EntryId(i as u64), entry(m, prio, 0));
        }
        assert_shadowing_matches_linear(&small);
    }

    /// The trie overlap query against a linear filter over the entries,
    /// for every 3-bit pattern.
    fn assert_for_each_overlap_linear(tab: &FlowTable) {
        for pattern in ["0", "1", "x"]
            .into_iter()
            .flat_map(|a| ["0", "1", "x"].map(move |b| format!("{a}{b}")))
            .flat_map(|ab| ["0", "1", "x"].map(move |c| format!("{ab}{c}xxxxx")))
        {
            let q = t(&pattern);
            let mut got = Vec::new();
            tab.for_each_overlap(&q, |id| got.push(id));
            got.sort_unstable();
            let mut expect: Vec<EntryId> = tab
                .iter()
                .filter(|(_, e)| e.match_field().overlaps(&q))
                .map(|(id, _)| id)
                .collect();
            expect.sort_unstable();
            assert_eq!(got, expect, "pattern {pattern}");
        }
    }

    #[test]
    fn for_each_overlap_equals_a_linear_filter() {
        let mut tab = FlowTable::new();
        for (i, m, prio) in [
            (3u64, "0xxxxxxx", 2u16),
            (1, "01xxxxxx", 2),
            (4, "0x1xxxxx", 2),
            (0, "011xxxxx", 7),
            (2, "xxxxxxx1", 4),
            (5, "10xxxxx0", 1),
            (6, "xxxxxxxx", 0),
        ] {
            tab.insert(EntryId(i), entry(m, prio, i as u32));
        }
        assert_for_each_overlap_linear(&tab);
        // Priority plays no part: a raised or removed entry is found
        // exactly when its match field overlaps.
        tab.replace(EntryId(4), entry("0x1xxxxx", 9, 4));
        tab.remove(EntryId(6));
        assert_for_each_overlap_linear(&tab);
        let mut none = Vec::new();
        FlowTable::new().for_each_overlap(&t("xxxxxxxx"), |id| none.push(id));
        assert!(none.is_empty());
    }

    #[test]
    fn stamps_change_with_the_contents() {
        let mut tab = FlowTable::new();
        let mut seen = vec![tab.stamp()];
        let mut fresh = |tab: &FlowTable| {
            assert!(
                !seen.contains(&tab.stamp()),
                "stamp {} repeats",
                tab.stamp()
            );
            seen.push(tab.stamp());
        };
        tab.insert(EntryId(0), entry("0xxxxxxx", 1, 0));
        fresh(&tab);
        tab.insert(EntryId(1), entry("xxxxxxxx", 0, 1));
        fresh(&tab);
        // An action-only rewrite keeps every slot and every header.
        let kept = tab.stamp();
        tab.replace(EntryId(0), entry("0xxxxxxx", 1, 7));
        assert_eq!(tab.stamp(), kept);
        // A new set field, priority or match field, or a removal, does not.
        tab.replace(
            EntryId(0),
            entry("0xxxxxxx", 1, 7).with_set_field(t("1xxxxxxx")),
        );
        fresh(&tab);
        tab.replace(EntryId(0), entry("0xxxxxxx", 2, 7));
        fresh(&tab);
        tab.replace(EntryId(0), entry("00xxxxxx", 2, 7));
        fresh(&tab);
        tab.remove(EntryId(1));
        fresh(&tab);
        // A failed removal or replace changes nothing.
        let last = tab.stamp();
        tab.remove(EntryId(1));
        assert!(tab.replace(EntryId(1), entry("1xxxxxxx", 0, 1)).is_none());
        assert_eq!(tab.stamp(), last);
        // Clones and new tables never share a stamp, before or after
        // the same mutation.
        let mut copy = tab.clone();
        assert_eq!(copy, tab);
        fresh(&copy);
        fresh(&FlowTable::new());
        tab.insert(EntryId(2), entry("1xxxxxxx", 0, 2));
        copy.insert(EntryId(2), entry("1xxxxxxx", 0, 3));
        fresh(&tab);
        fresh(&copy);
    }

    #[test]
    fn lookup_is_the_entry_at_the_looked_up_slot() {
        let mut tab = FlowTable::new();
        tab.insert(EntryId(0), entry("00xxxxxx", 1, 0));
        tab.insert(EntryId(1), entry("0xxxxxxx", 2, 1));
        tab.insert(EntryId(2), entry("xxxxxxxx", 0, 2));
        for bits in 0..=255u128 {
            let h = Header::new(bits, 8);
            let slot = tab.lookup_slot(h).expect("the wildcard matches");
            assert_eq!(tab.entry_at(slot), tab.lookup(h));
            assert_eq!(tab.entry_at(slot), tab.iter().nth(slot));
        }
        assert!(tab.entry_at(3).is_none());
        assert!(FlowTable::new().lookup_slot(Header::new(0, 8)).is_none());
    }

    #[test]
    fn equality_ignores_derived_state() {
        let mut a = FlowTable::new();
        a.insert(EntryId(0), entry("0xxxxxxx", 1, 0));
        a.insert(EntryId(1), entry("1xxxxxxx", 2, 1));
        // Same contents by a different mutation history.
        let mut b = FlowTable::new();
        b.insert(EntryId(1), entry("1xxxxxxx", 2, 1));
        b.insert(EntryId(2), entry("xxxxxxxx", 0, 2));
        b.insert(EntryId(0), entry("0xxxxxxx", 1, 0));
        b.remove(EntryId(2));
        assert_eq!(a, b);
        b.remove(EntryId(0));
        assert_ne!(a, b);
    }
}
