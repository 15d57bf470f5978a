//! Rule-graph vertices.

use std::fmt;

use sdnprobe_dataplane::{EntryId, TableId};
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
/// paper calls out. `output = T(input, set_field)`.
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
    /// Resolved output header space (`r.out`).
    pub output: HeaderSet,
}

impl RuleVertex {
    /// True if no packet can ever trigger this rule (fully shadowed by
    /// higher-priority rules).
    pub fn is_shadowed(&self) -> bool {
        self.input.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vertex_id_display() {
        assert_eq!(VertexId(4).to_string(), "v4");
        assert_eq!(format!("{:?}", VertexId(4)), "v4");
    }

    #[test]
    fn shadowed_detection() {
        let v = RuleVertex {
            entry: EntryId(0),
            switch: SwitchId(0),
            table: TableId(0),
            match_field: "00xx".parse().unwrap(),
            set_field: Ternary::wildcard(4),
            next_switch: None,
            priority: 0,
            input: HeaderSet::empty(4),
            output: HeaderSet::empty(4),
        };
        assert!(v.is_shadowed());
    }
}
