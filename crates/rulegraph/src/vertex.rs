//! Rule-graph vertices.

use std::fmt;

use sdnprobe_dataplane::{EntryId, FlowEntry, TableId};
use sdnprobe_headerspace::{HeaderSet, Ternary};
use sdnprobe_topology::SwitchId;

/// Identifier of a vertex within a [`crate::RuleGraph`] (dense index;
/// stable across incremental updates — removed vertices leave tombstones).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VertexId(pub usize);

impl fmt::Display for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Debug for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A rule-graph vertex: one forwarding flow entry together with its
/// resolved header spaces (§V-A).
///
/// `input` is the match field minus every higher-priority overlapping
/// match in the same table (`r.in = r.m − ⋃_{q >o r} q.m`), resolved *at
/// construction* — the difference from NetPlumber's plumbing graph the
/// paper calls out. [`output`](Self::output) is `T(input, set_field)`;
/// it is stored only when the set field rewrites a bit, and is `input`
/// itself otherwise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleVertex {
    /// The underlying installed entry.
    pub entry: EntryId,
    /// Hosting switch.
    pub switch: SwitchId,
    /// Hosting table.
    pub table: TableId,
    /// The entry's match field (`r.m`).
    pub match_field: Ternary,
    /// The entry's set field (`r.s`).
    pub set_field: Ternary,
    /// The output port (`r.port`); `None` when the port leads out of the
    /// network (host-facing egress).
    pub next_switch: Option<SwitchId>,
    /// Priority (`r.p`).
    pub priority: u16,
    /// Resolved input header space (`r.in`).
    pub input: HeaderSet,
    /// `T(input, set_field)` for a rule that rewrites; `None` when the
    /// set field is all-wildcard and the output is `input` itself.
    rewritten: Option<Box<HeaderSet>>,
}

// The graph holds one vertex per forwarding rule, so a vertex must not
// grow back to carrying a second header set inline (it was 400 bytes
// then). The `u128` masks in `Ternary` align the struct to 16 bytes, so
// its 274 bytes of fields round up to 288.
const _: () = assert!(std::mem::size_of::<RuleVertex>() <= 288);

impl RuleVertex {
    /// A vertex for a forwarding entry, with an empty input until
    /// [`set_input`](Self::set_input) resolves it.
    pub(crate) fn new(
        entry_id: EntryId,
        entry: &FlowEntry,
        switch: SwitchId,
        table: TableId,
        next_switch: Option<SwitchId>,
    ) -> Self {
        Self {
            entry: entry_id,
            switch,
            table,
            match_field: entry.match_field(),
            set_field: entry.set_field(),
            next_switch,
            priority: entry.priority(),
            input: HeaderSet::empty(entry.match_field().len()),
            rewritten: None,
        }
    }

    /// Resolved output header space (`r.out = T(r.in, r.s)`).
    pub fn output(&self) -> &HeaderSet {
        self.rewritten.as_deref().unwrap_or(&self.input)
    }

    /// Assigns the resolved input and derives the output from it.
    pub(crate) fn set_input(&mut self, input: HeaderSet) {
        self.rewritten = (!self.set_field.is_wildcard()).then(|| {
            let mut output = input.clone();
            output.apply_set_field_in_place(&self.set_field);
            Box::new(output)
        });
        self.input = input;
    }

    /// True if no packet can ever trigger this rule (fully shadowed by
    /// higher-priority rules).
    pub fn is_shadowed(&self) -> bool {
        self.input.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdnprobe_dataplane::Action;

    #[test]
    fn vertex_id_display() {
        assert_eq!(VertexId(4).to_string(), "v4");
        assert_eq!(format!("{:?}", VertexId(4)), "v4");
    }

    #[test]
    fn shadowed_detection() {
        let entry = FlowEntry::new("00xx".parse().unwrap(), Action::Drop);
        let v = RuleVertex::new(EntryId(0), &entry, SwitchId(0), TableId(0), None);
        assert!(v.is_shadowed());
    }
}
