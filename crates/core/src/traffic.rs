//! Traffic-distribution-weighted probe headers (§V-C).
//!
//! The paper's header randomization can sample "either uniformly at
//! random or based on the past traffic distribution (e.g., sFlow): for
//! each time period t, we collect the set of headers `h^t(ℓ)` from the
//! switches on each path ℓ ... and randomly select one packet whose
//! header is in `HS(ℓ)` and `h^t(ℓ)`".
//!
//! [`TrafficProfile`] plays sFlow's role: it accumulates sampled headers
//! per switch (e.g. from forwarding traces) and biases the randomized
//! generator toward headers real traffic actually uses — which is what
//! lets Randomized SDNProbe find *targeting* faults quickly, since those
//! target real flows by definition.
//!
//! Feed a profile to [`crate::generate_weighted_with_cache`], or attach
//! one to a [`crate::Monitor`] via [`crate::Monitor::traffic_profile_mut`]
//! and [`crate::Monitor::enable_traffic_weighting`]. Weighted selection
//! is part of the sequential header-choice stage, so it never perturbs
//! the pipeline's determinism guarantee (DESIGN.md § Concurrency model).

use std::collections::HashMap;

use rand::seq::SliceRandom;
use rand::RngCore;
use sdnprobe_dataplane::ForwardingTrace;
use sdnprobe_headerspace::{Header, HeaderSet};
use sdnprobe_rulegraph::{RuleGraph, VertexId};
use sdnprobe_topology::SwitchId;

/// Per-switch samples of recently observed packet headers.
///
/// # Examples
///
/// ```
/// use sdnprobe::TrafficProfile;
/// use sdnprobe_headerspace::Header;
/// use sdnprobe_topology::SwitchId;
///
/// let mut profile = TrafficProfile::new(128);
/// profile.record(SwitchId(0), Header::new(0xAB, 32));
/// assert_eq!(profile.sample_count(SwitchId(0)), 1);
/// ```
#[derive(Debug, Clone)]
pub struct TrafficProfile {
    samples: HashMap<SwitchId, Vec<Header>>,
    capacity_per_switch: usize,
}

impl TrafficProfile {
    /// Creates an empty profile keeping at most `capacity_per_switch`
    /// samples per switch (ring-buffer style, newest wins).
    pub fn new(capacity_per_switch: usize) -> Self {
        Self {
            samples: HashMap::new(),
            capacity_per_switch: capacity_per_switch.max(1),
        }
    }

    /// Records one observed header at a switch (an sFlow sample).
    ///
    /// # Examples
    ///
    /// ```
    /// use sdnprobe::TrafficProfile;
    /// use sdnprobe_headerspace::Header;
    /// use sdnprobe_topology::SwitchId;
    ///
    /// let mut profile = TrafficProfile::new(2);
    /// for value in [1u128, 2, 3] {
    ///     profile.record(SwitchId(0), Header::new(value, 32));
    /// }
    /// // Oldest sample evicted: the capacity is a per-switch ring.
    /// assert_eq!(profile.sample_count(SwitchId(0)), 2);
    /// ```
    pub fn record(&mut self, switch: SwitchId, header: Header) {
        let bucket = self.samples.entry(switch).or_default();
        if bucket.len() == self.capacity_per_switch {
            bucket.remove(0);
        }
        bucket.push(header);
    }

    /// Records the header as seen at every hop of a forwarding trace
    /// (what per-switch sFlow agents would each have sampled).
    pub fn observe_trace(&mut self, trace: &ForwardingTrace) {
        for step in &trace.steps {
            self.record(step.switch, step.header);
        }
    }

    /// Number of samples currently held for a switch.
    pub fn sample_count(&self, switch: SwitchId) -> usize {
        self.samples.get(&switch).map_or(0, Vec::len)
    }

    /// Total samples across all switches.
    pub fn total_samples(&self) -> usize {
        self.samples.values().map(Vec::len).sum()
    }

    /// Picks a probe header for a tested path: a random recorded sample
    /// from the path's switches that lies inside `HS(ℓ)`, or `None` when
    /// no observed header can traverse the path.
    ///
    /// The paper's `HS(ℓ) ∩ h^t(ℓ)` selection.
    pub fn sample_for_path<R: RngCore + ?Sized>(
        &self,
        graph: &RuleGraph,
        path: &[VertexId],
        header_space: &HeaderSet,
        rng: &mut R,
    ) -> Option<Header> {
        let mut candidates: Vec<Header> = path
            .iter()
            .filter_map(|v| self.samples.get(&graph.vertex(*v).switch))
            .flatten()
            .copied()
            .filter(|h| header_space.contains(*h))
            .collect();
        candidates.dedup();
        candidates.choose(rng).copied()
    }

    /// Clears all samples (start of a new collection period `t`).
    pub fn clear(&mut self) {
        self.samples.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn record_caps_per_switch() {
        let mut p = TrafficProfile::new(3);
        for i in 0..10u32 {
            p.record(SwitchId(0), Header::new(i as u128, 32));
        }
        assert_eq!(p.sample_count(SwitchId(0)), 3);
        assert_eq!(p.total_samples(), 3);
        p.clear();
        assert_eq!(p.total_samples(), 0);
    }

    #[test]
    fn sample_for_path_respects_header_space() {
        use sdnprobe_dataplane::{Action, FlowEntry, Network, TableId};
        use sdnprobe_topology::{PortId, Topology};
        let mut topo = Topology::new(2);
        topo.add_link(SwitchId(0), SwitchId(1));
        let mut net = Network::new(topo);
        let port = net
            .topology()
            .port_towards(SwitchId(0), SwitchId(1))
            .unwrap();
        net.install(
            SwitchId(0),
            TableId(0),
            FlowEntry::new("00xxxxxx".parse().unwrap(), Action::Output(port)),
        )
        .unwrap();
        net.install(
            SwitchId(1),
            TableId(0),
            FlowEntry::new("00xxxxxx".parse().unwrap(), Action::Output(PortId(9))),
        )
        .unwrap();
        let graph = RuleGraph::from_network(&net).unwrap();
        let path: Vec<VertexId> = graph.vertex_ids().collect();
        let hs = graph.path_header_space(&path);

        let mut profile = TrafficProfile::new(16);
        // An off-space header (matches nothing) and an on-space one.
        profile.record(SwitchId(0), Header::new(0b1111_1111, 8));
        let good = Header::new(0b0001_0100, 8);
        profile.record(SwitchId(1), good);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            let picked = profile
                .sample_for_path(&graph, &path, &hs, &mut rng)
                .expect("one candidate fits");
            assert_eq!(picked, good);
        }
    }

    #[test]
    fn observe_trace_records_per_hop_headers() {
        use sdnprobe_dataplane::{Action, FlowEntry, Network, TableId};
        use sdnprobe_headerspace::Ternary;
        use sdnprobe_topology::{PortId, Topology};
        let mut topo = Topology::new(2);
        topo.add_link(SwitchId(0), SwitchId(1));
        let mut net = Network::new(topo);
        let port = net
            .topology()
            .port_towards(SwitchId(0), SwitchId(1))
            .unwrap();
        // Switch 0 rewrites the header, so the two hops see different
        // headers.
        net.install(
            SwitchId(0),
            TableId(0),
            FlowEntry::new(Ternary::wildcard(8), Action::Output(port))
                .with_set_field("1xxxxxxx".parse().unwrap()),
        )
        .unwrap();
        net.install(
            SwitchId(1),
            TableId(0),
            FlowEntry::new(Ternary::wildcard(8), Action::Output(PortId(9))),
        )
        .unwrap();
        let trace = net.inject(SwitchId(0), Header::new(0, 8));
        let mut profile = TrafficProfile::new(8);
        profile.observe_trace(&trace);
        assert_eq!(profile.sample_count(SwitchId(0)), 1);
        assert_eq!(profile.sample_count(SwitchId(1)), 1);
        // Switch 1 saw the rewritten header.
        assert!(profile.samples[&SwitchId(1)][0].bit(0));
        assert!(!profile.samples[&SwitchId(0)][0].bit(0));
    }
}
