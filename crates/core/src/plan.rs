//! Test plans: the output of test-packet generation.
//!
//! A [`TestPlan`] is what the generators in [`crate::generation`]
//! return: one [`PlannedProbe`] per legal cover path, plus the set of
//! fully shadowed rules no packet can ever reach. Plans are plain data
//! — generating one does not touch the network; installing and sending
//! it is [`crate::ProbeHarness`]'s job.
//!
//! Plans are deterministic: for a fixed policy (and, for the randomized
//! generators, a fixed seed) the same plan is produced at any thread
//! count — see DESIGN.md § Concurrency model.
//!
//! # Examples
//!
//! ```
//! use sdnprobe::generate;
//! use sdnprobe_dataplane::{Action, FlowEntry, Network, TableId};
//! use sdnprobe_rulegraph::RuleGraph;
//! use sdnprobe_topology::{PortId, SwitchId, Topology};
//!
//! let mut topo = Topology::new(2);
//! topo.add_link(SwitchId(0), SwitchId(1));
//! let mut net = Network::new(topo);
//! let p = net.topology().port_towards(SwitchId(0), SwitchId(1)).unwrap();
//! net.install(SwitchId(0), TableId(0),
//!     FlowEntry::new("00xxxxxx".parse()?, Action::Output(p)))?;
//! net.install(SwitchId(1), TableId(0),
//!     FlowEntry::new("00xxxxxx".parse()?, Action::Output(PortId(40))))?;
//!
//! let graph = RuleGraph::from_network(&net)?;
//! let plan = generate(&graph);
//! // Two chained rules are covered by a single test packet.
//! assert_eq!(plan.packet_count(), 1);
//! assert!(plan.covers_all_rules(&graph));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use sdnprobe_headerspace::{Header, HeaderSet};
use sdnprobe_rulegraph::{RuleGraph, VertexId};
use sdnprobe_topology::SwitchId;

/// One planned probe: a tested path and the concrete packet exercising
/// it.
///
/// The probe is injected at [`PlannedProbe::entry_switch`] carrying
/// [`PlannedProbe::header`]; a healthy data plane forwards it along
/// [`PlannedProbe::path`] until the terminal rule's test entry returns
/// it to the controller (the paper's Fig. 7 instrumentation).
#[derive(Debug, Clone)]
pub struct PlannedProbe {
    /// The cover path over legal-closure edges (what the matching
    /// produced).
    pub cover: Vec<VertexId>,
    /// The expanded real path (consecutive step-1 edges) the packet
    /// traverses — every rule on it is covered by this probe.
    pub path: Vec<VertexId>,
    /// Entry header space `HS(ℓ)` of the real path.
    pub header_space: HeaderSet,
    /// The chosen probe header (unique among the plan's probes).
    pub header: Header,
    /// Switch where the probe is injected.
    pub entry_switch: SwitchId,
    /// Switch hosting the terminal rule (where the test entry returns the
    /// probe to the controller).
    pub terminal_switch: SwitchId,
}

/// A complete test plan: the minimum (or randomized) probe set plus any
/// rules that cannot be exercised.
///
/// Produced by [`crate::generate`] and its randomized variants; consumed
/// by [`crate::ProbeHarness::install_plan_tolerant`]. See the module docs
/// for a worked example.
#[derive(Debug, Clone)]
pub struct TestPlan {
    /// The probes, one per legal cover path.
    pub probes: Vec<PlannedProbe>,
    /// Fully shadowed rules: no packet can ever trigger them, so no probe
    /// can cover them (they also cannot affect traffic).
    pub shadowed: Vec<VertexId>,
}

impl TestPlan {
    /// Number of test packets — the paper's headline metric (TPC).
    pub fn packet_count(&self) -> usize {
        self.probes.len()
    }

    /// Checks that every non-shadowed vertex of the graph lies on at
    /// least one probe's real path (the paper's coverage guarantee).
    pub fn covers_all_rules(&self, graph: &RuleGraph) -> bool {
        let mut covered = vec![false; 0];
        let max = graph.vertex_ids().map(|v| v.0).max().unwrap_or(0);
        covered.resize(max + 1, false);
        for p in &self.probes {
            for v in &p.path {
                covered[v.0] = true;
            }
        }
        for v in &self.shadowed {
            covered[v.0] = true;
        }
        graph.vertex_ids().all(|v| covered[v.0])
    }
}
