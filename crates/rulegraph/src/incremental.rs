//! Incremental rule-graph maintenance.
//!
//! The paper notes that "SDNProbe can update the rule graph incrementally
//! to reduce overhead" (§VIII-C, detailed only in the unavailable full
//! report). This module implements that extension: when the controller
//! installs or removes a flow entry, only the affected parts of the graph
//! are recomputed —
//!
//! 1. the inputs of lower-precedence overlapping rules in the same table
//!    (their `r.in` shrinks or grows),
//! 2. step-1 edges incident to those vertices: the out-edges of every
//!    vertex on the changed switch and of every vertex forwarding into
//!    it, re-queried against the network's flow tables as the build
//!    does, and
//! 3. legal-closure rows of every vertex whose reachable region touches
//!    the change: the affected vertices, their step-1 ancestors, and
//!    every vertex whose old row holds an affected vertex.
//!
//! Equivalence with from-scratch construction is enforced by tests.

use sdnprobe_dataplane::{Action, EntryId, EntryLocation, FlowEntry, Network};
use sdnprobe_headerspace::HeaderSet;
use sdnprobe_topology::SwitchId;

use crate::error::RuleGraphError;
use crate::graph::{effective_inputs, RuleGraph};
use crate::vertex::{RuleVertex, VertexId};

/// A control-plane change to replay onto an existing [`RuleGraph`].
#[derive(Debug, Clone)]
pub enum RuleUpdate {
    /// `entry` was just installed in the network.
    Added {
        /// The new entry's id.
        entry: EntryId,
    },
    /// `entry` was just removed from the network.
    Removed {
        /// The removed entry's id.
        entry: EntryId,
        /// Its former contents (needed to find which rules it shadowed).
        old: FlowEntry,
        /// Where it used to live.
        location: EntryLocation,
    },
}

impl RuleGraph {
    /// Applies an incremental update, recomputing only affected regions.
    ///
    /// # Errors
    ///
    /// Returns [`RuleGraphError::PolicyLoop`] if the update introduces a
    /// routing loop; the graph is left inconsistent in that case and must
    /// be rebuilt (the controller should reject the update anyway).
    /// Returns [`RuleGraphError::UnknownEntry`] for a removal of an entry
    /// that was never seen, and [`RuleGraphError::SetFieldOnGoto`] if the
    /// switch's pipeline now holds a `goto` entry with a set field (the
    /// graph must then be rebuilt, which rejects it too).
    pub fn apply_update(
        &mut self,
        net: &Network,
        update: &RuleUpdate,
    ) -> Result<(), RuleGraphError> {
        self.generation += 1;
        let (switch, mut affected) = match update {
            RuleUpdate::Added { entry } => (self.apply_added(net, *entry), Vec::new()),
            RuleUpdate::Removed {
                entry,
                old,
                location,
            } => (location.switch, self.apply_removed(*entry, old, *location)?),
        };
        // Any change to a switch's tables can reshape effective inputs
        // across its whole pipeline (goto chains, shadowing): recompute
        // every vertex on the switch.
        affected.extend(self.recompute_switch(net, switch)?);
        // Every edge that can change starts at an affected vertex or ends
        // at one; the latter start at vertices forwarding into `switch`.
        // Re-query all their out-edges once each, in ascending id order,
        // so the result never depends on map iteration order and every
        // successor list stays ascending, as a fresh build leaves it.
        let mut requery = affected.clone();
        requery.extend(self.by_next_switch.get(&switch).into_iter().flatten());
        requery.sort_unstable();
        requery.dedup();
        for v in requery {
            self.rebuild_out_edges(net, v);
        }
        let order = self.check_acyclic()?;
        // Closure: recompute every source whose reachable region touches
        // the change — in the old graph (its row holds an affected
        // vertex) or the new one (it is a step-1 ancestor of one). Any
        // other vertex reaches no affected vertex, so its region and its
        // row are unchanged. Sources go in reverse topological order, so
        // every row they reuse is already current.
        let n = self.vertices.len();
        let mut is_affected = vec![false; n];
        for v in &affected {
            is_affected[v.0] = true;
        }
        let mut is_source = is_affected.clone();
        let mut stack = affected;
        while let Some(v) = stack.pop() {
            for &p in &self.step1_rev[v.0] {
                if !is_source[p.0] {
                    is_source[p.0] = true;
                    stack.push(p);
                }
            }
        }
        for (u, row) in self.closure.iter().enumerate() {
            if row.iter().any(|v| is_affected[v.0]) {
                is_source[u] = true;
            }
        }
        self.rebuild_closure(order.into_iter().rev().filter(|&u| is_source[u]));
        Ok(())
    }

    /// Registers a newly installed entry; returns its switch.
    fn apply_added(&mut self, net: &Network, entry: EntryId) -> SwitchId {
        let loc = net.location(entry).expect("entry was just installed");
        let new = net.entry(entry).expect("entry was just installed");
        // Forwarding entries get a vertex of their own (spaces are
        // filled in by the switch-wide recompute below).
        if let Action::Output(port) = new.action() {
            self.header_len = new.match_field().len();
            let id = VertexId(self.vertices.len());
            let next_switch = net.topology().peer_of(loc.switch, port);
            self.vertices.push(Some(RuleVertex::new(
                entry,
                new,
                loc.switch,
                loc.table,
                next_switch,
            )));
            self.by_entry.insert(entry, id);
            self.by_location
                .entry((loc.switch, loc.table))
                .or_default()
                .push(id);
            self.step1.push(Vec::new());
            self.step1_rev.push(Vec::new());
            self.closure.push(Vec::new());
            self.index_vertex(id);
        }
        loc.switch
    }

    /// Unregisters a removed entry; returns its former step-1
    /// predecessors, whose closure rows held it.
    fn apply_removed(
        &mut self,
        entry: EntryId,
        old: &FlowEntry,
        location: EntryLocation,
    ) -> Result<Vec<VertexId>, RuleGraphError> {
        let mut affected = Vec::new();
        if let Some(dead) = self.by_entry.remove(&entry) {
            // Detach all step-1 edges of the dead vertex.
            for v in std::mem::take(&mut self.step1[dead.0]) {
                self.step1_rev[v.0].retain(|&x| x != dead);
            }
            for p in std::mem::take(&mut self.step1_rev[dead.0]) {
                self.step1[p.0].retain(|&x| x != dead);
                affected.push(p);
            }
            self.closure[dead.0].clear();
            if let Some(list) = self.by_location.get_mut(&(location.switch, location.table)) {
                list.retain(|&x| x != dead);
            }
            let next_switch = self.vertices[dead.0].as_ref().and_then(|v| v.next_switch);
            self.unindex_vertex(dead, next_switch);
            self.vertices[dead.0] = None;
        } else if matches!(old.action(), Action::Output(_)) {
            return Err(RuleGraphError::UnknownEntry(entry));
        }
        Ok(affected)
    }

    /// Recomputes effective inputs for every live vertex on a switch;
    /// returns them as the affected set.
    fn recompute_switch(
        &mut self,
        net: &Network,
        switch: SwitchId,
    ) -> Result<Vec<VertexId>, RuleGraphError> {
        let mut inputs = effective_inputs(net, switch)?;
        let ids: Vec<VertexId> = self
            .by_location
            .iter()
            .filter(|((s, _), _)| *s == switch)
            .flat_map(|(_, vs)| vs.iter().copied())
            .collect();
        let mut affected = Vec::new();
        for v in ids {
            let Some(vert) = self.vertices[v.0].as_mut() else {
                continue;
            };
            let input = inputs
                .remove(&vert.entry)
                .unwrap_or_else(|| HeaderSet::empty(vert.match_field.len()));
            vert.set_input(input);
            affected.push(v);
        }
        Ok(affected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sdnprobe_dataplane::{Action, FlowEntry, Network, TableId};
    use sdnprobe_headerspace::Ternary;
    use sdnprobe_topology::{PortId, SwitchId, Topology};

    /// Entry-id keyed vertex spaces, step-1 edges and closure edges.
    type Fingerprint = (
        BTreeSet<(u64, String, String)>,
        BTreeSet<(u64, u64)>,
        BTreeSet<(u64, u64)>,
    );

    /// Canonical form for comparing two graphs built differently.
    fn fingerprint(g: &RuleGraph) -> Fingerprint {
        let verts = g
            .vertex_ids()
            .map(|v| {
                let vert = g.vertex(v);
                (
                    vert.entry.0,
                    format!("{}", vert.input),
                    format!("{}", vert.output()),
                )
            })
            .collect();
        let step1 = g
            .vertex_ids()
            .flat_map(|u| {
                g.successors(u)
                    .iter()
                    .map(move |&v| (g.vertex(u).entry.0, g.vertex(v).entry.0))
            })
            .collect();
        let closure = g
            .vertex_ids()
            .flat_map(|u| {
                g.closure_successors(u)
                    .iter()
                    .map(move |&v| (g.vertex(u).entry.0, g.vertex(v).entry.0))
            })
            .collect();
        (verts, step1, closure)
    }

    fn random_entry(rng: &mut StdRng, net: &Network, s: SwitchId) -> FlowEntry {
        // Random prefix match over 8 bits.
        let plen = rng.gen_range(0..=6);
        let addr = rng.gen::<u8>() as u128;
        let m = Ternary::prefix(addr, plen, 8);
        // Forward to a random neighbour (forward in id order keeps the
        // policy acyclic) or out of the network.
        let neighbors: Vec<PortId> = net
            .topology()
            .neighbors(s)
            .iter()
            .filter(|n| n.peer.0 > s.0)
            .map(|n| n.port)
            .collect();
        let action = if neighbors.is_empty() || rng.gen_bool(0.3) {
            Action::Output(PortId(40 + rng.gen_range(0..4))) // host egress
        } else {
            Action::Output(neighbors[rng.gen_range(0..neighbors.len())])
        };
        let mut e = FlowEntry::new(m, action).with_priority(rng.gen_range(0..5));
        if rng.gen_bool(0.2) {
            let set = Ternary::prefix(rng.gen::<u8>() as u128, rng.gen_range(0..3), 8);
            e = e.with_set_field(set);
        }
        e
    }

    #[test]
    fn incremental_matches_scratch_over_random_update_sequences() {
        let mut rng = StdRng::seed_from_u64(77);
        for round in 0..25 {
            let mut topo = Topology::new(4);
            topo.add_link(SwitchId(0), SwitchId(1));
            topo.add_link(SwitchId(1), SwitchId(2));
            topo.add_link(SwitchId(2), SwitchId(3));
            topo.add_link(SwitchId(0), SwitchId(2));
            let mut net = Network::new(topo);
            // Seed with a few entries so the initial graph is non-trivial.
            let mut installed: Vec<EntryId> = Vec::new();
            for _ in 0..6 {
                let s = SwitchId(rng.gen_range(0..4));
                let e = random_entry(&mut rng, &net, s);
                installed.push(net.install(s, TableId(0), e).unwrap());
            }
            let Ok(mut incremental) = RuleGraph::from_network(&net) else {
                continue;
            };
            // Random add/remove sequence, checking equivalence after each.
            for step in 0..10 {
                if installed.len() > 2 && rng.gen_bool(0.4) {
                    let idx = rng.gen_range(0..installed.len());
                    let id = installed.swap_remove(idx);
                    let location = net.location(id).unwrap();
                    let old = net.remove(id).unwrap();
                    incremental
                        .apply_update(
                            &net,
                            &RuleUpdate::Removed {
                                entry: id,
                                old,
                                location,
                            },
                        )
                        .unwrap();
                } else {
                    let s = SwitchId(rng.gen_range(0..4));
                    let e = random_entry(&mut rng, &net, s);
                    let id = net.install(s, TableId(0), e).unwrap();
                    installed.push(id);
                    incremental
                        .apply_update(&net, &RuleUpdate::Added { entry: id })
                        .unwrap();
                }
                match RuleGraph::from_network(&net) {
                    Ok(scratch) => assert_eq!(
                        fingerprint(&incremental),
                        fingerprint(&scratch),
                        "divergence at round {round} step {step}"
                    ),
                    Err(RuleGraphError::NoForwardingRules) => {
                        assert_eq!(incremental.vertex_count(), 0);
                    }
                    Err(e) => panic!("unexpected scratch error {e:?}"),
                }
            }
        }
    }

    #[test]
    fn incremental_matches_scratch_on_multitable_pipelines() {
        // Random two-table pipelines: ACL drops + goto in table 0,
        // forwarding in table 1; adds/removes replayed incrementally
        // must match from-scratch construction.
        let mut rng = StdRng::seed_from_u64(99);
        for round in 0..15 {
            let mut topo = Topology::new(3);
            topo.add_link(SwitchId(0), SwitchId(1));
            topo.add_link(SwitchId(1), SwitchId(2));
            let mut net = Network::new(topo);
            let mut t1 = Vec::new();
            for s in 0..3 {
                let t = net.add_table(SwitchId(s)).unwrap();
                t1.push(t);
                net.install(
                    SwitchId(s),
                    TableId(0),
                    FlowEntry::new(Ternary::wildcard(8), Action::GotoTable(t)),
                )
                .unwrap();
            }
            let mut installed: Vec<EntryId> = Vec::new();
            let install_random = |net: &mut Network, rng: &mut StdRng| -> EntryId {
                let s = rng.gen_range(0..3usize);
                let m = Ternary::prefix(rng.gen::<u8>() as u128, rng.gen_range(0..=4), 8);
                if rng.gen_bool(0.3) {
                    // An ACL drop in table 0, above the goto.
                    net.install(
                        SwitchId(s),
                        TableId(0),
                        FlowEntry::new(m, Action::Drop).with_priority(rng.gen_range(1..5)),
                    )
                    .unwrap()
                } else {
                    let action = if s < 2 && rng.gen_bool(0.7) {
                        Action::Output(
                            net.topology()
                                .port_towards(SwitchId(s), SwitchId(s + 1))
                                .unwrap(),
                        )
                    } else {
                        Action::Output(PortId(40))
                    };
                    net.install(
                        SwitchId(s),
                        t1[s],
                        FlowEntry::new(m, action).with_priority(rng.gen_range(0..4)),
                    )
                    .unwrap()
                }
            };
            for _ in 0..5 {
                installed.push(install_random(&mut net, &mut rng));
            }
            let Ok(mut incremental) = RuleGraph::from_network(&net) else {
                continue;
            };
            for step in 0..8 {
                if installed.len() > 2 && rng.gen_bool(0.4) {
                    let idx = rng.gen_range(0..installed.len());
                    let id = installed.swap_remove(idx);
                    let location = net.location(id).unwrap();
                    let old = net.remove(id).unwrap();
                    incremental
                        .apply_update(
                            &net,
                            &RuleUpdate::Removed {
                                entry: id,
                                old,
                                location,
                            },
                        )
                        .unwrap();
                } else {
                    let id = install_random(&mut net, &mut rng);
                    installed.push(id);
                    incremental
                        .apply_update(&net, &RuleUpdate::Added { entry: id })
                        .unwrap();
                }
                match RuleGraph::from_network(&net) {
                    Ok(scratch) => assert_eq!(
                        fingerprint(&incremental),
                        fingerprint(&scratch),
                        "pipeline divergence at round {round} step {step}"
                    ),
                    Err(RuleGraphError::NoForwardingRules) => {
                        assert_eq!(incremental.vertex_count(), 0);
                    }
                    Err(e) => panic!("unexpected scratch error {e:?}"),
                }
            }
        }
    }

    #[test]
    fn successor_lists_stay_ascending_across_updates() {
        // Forwarding rules in both tables of every switch (table 0's sit
        // above a goto into table 1), so an update re-derives in-edges
        // from vertices in two tables of one switch. The expansion DFS
        // walks successor lists in order, so that order must not depend
        // on the process.
        let mut rng = StdRng::seed_from_u64(4711);
        for round in 0..40 {
            let mut topo = Topology::new(3);
            topo.add_link(SwitchId(0), SwitchId(1));
            topo.add_link(SwitchId(1), SwitchId(2));
            let mut net = Network::new(topo);
            let mut t1 = Vec::new();
            for s in 0..3 {
                let t = net.add_table(SwitchId(s)).unwrap();
                t1.push(t);
                net.install(
                    SwitchId(s),
                    TableId(0),
                    FlowEntry::new(Ternary::wildcard(8), Action::GotoTable(t)),
                )
                .unwrap();
            }
            let install_random = |net: &mut Network, rng: &mut StdRng| -> EntryId {
                let s = rng.gen_range(0..3usize);
                let m = Ternary::prefix(rng.gen::<u8>() as u128, rng.gen_range(0..=4), 8);
                let port = match net.topology().port_towards(SwitchId(s), SwitchId(s + 1)) {
                    Some(p) if rng.gen_bool(0.7) => p,
                    _ => PortId(40),
                };
                let (table, priority) = if rng.gen_bool(0.5) {
                    (TableId(0), rng.gen_range(1..5))
                } else {
                    (t1[s], rng.gen_range(0..4))
                };
                let e = FlowEntry::new(m, Action::Output(port)).with_priority(priority);
                net.install(SwitchId(s), table, e).unwrap()
            };
            let mut installed: Vec<EntryId> =
                (0..8).map(|_| install_random(&mut net, &mut rng)).collect();
            let mut g = RuleGraph::from_network(&net).unwrap();
            for step in 0..10 {
                if installed.len() > 2 && rng.gen_bool(0.4) {
                    let id = installed.swap_remove(rng.gen_range(0..installed.len()));
                    let location = net.location(id).unwrap();
                    let old = net.remove(id).unwrap();
                    let update = RuleUpdate::Removed {
                        entry: id,
                        old,
                        location,
                    };
                    g.apply_update(&net, &update).unwrap();
                } else {
                    let id = install_random(&mut net, &mut rng);
                    installed.push(id);
                    g.apply_update(&net, &RuleUpdate::Added { entry: id })
                        .unwrap();
                }
                for u in g.vertex_ids() {
                    let succs = g.successors(u);
                    assert!(
                        succs.windows(2).all(|w| w[0] < w[1]),
                        "successors of {u} out of order at round {round} step {step}: {succs:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn added_drop_rule_shrinks_inputs() {
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
                FlowEntry::new("00xxxxxx".parse().unwrap(), Action::Output(p)),
            )
            .unwrap();
        net.install(
            SwitchId(1),
            TableId(0),
            FlowEntry::new("xxxxxxxx".parse().unwrap(), Action::Output(PortId(50))),
        )
        .unwrap();
        let mut g = RuleGraph::from_network(&net).unwrap();
        let before = g.vertex(g.vertex_of_entry(fwd).unwrap()).input.clone();
        assert!(before.contains_ternary(&"000xxxxx".parse().unwrap()));
        // Install a shadowing drop rule and replay.
        let drop = net
            .install(
                SwitchId(0),
                TableId(0),
                FlowEntry::new("000xxxxx".parse().unwrap(), Action::Drop).with_priority(5),
            )
            .unwrap();
        g.apply_update(&net, &RuleUpdate::Added { entry: drop })
            .unwrap();
        let after = &g.vertex(g.vertex_of_entry(fwd).unwrap()).input;
        assert!(!after.contains_ternary(&"000xxxxx".parse().unwrap()));
        assert_eq!(g.vertex_count(), 2, "drop rule adds no vertex");
    }

    #[test]
    fn removal_of_unknown_forwarding_entry_errors() {
        let mut topo = Topology::new(2);
        topo.add_link(SwitchId(0), SwitchId(1));
        let mut net = Network::new(topo);
        let p = net
            .topology()
            .port_towards(SwitchId(0), SwitchId(1))
            .unwrap();
        let id = net
            .install(
                SwitchId(0),
                TableId(0),
                FlowEntry::new("0xxxxxxx".parse().unwrap(), Action::Output(p)),
            )
            .unwrap();
        let mut g = RuleGraph::from_network(&net).unwrap();
        let location = net.location(id).unwrap();
        let old = net.remove(id).unwrap();
        // Replaying a removal of an entry the graph never saw.
        let bogus = RuleUpdate::Removed {
            entry: EntryId(555),
            old,
            location,
        };
        assert!(matches!(
            g.apply_update(&net, &bogus),
            Err(RuleGraphError::UnknownEntry(_))
        ));
    }

    #[test]
    fn added_goto_with_set_field_is_rejected() {
        let mut topo = Topology::new(2);
        topo.add_link(SwitchId(0), SwitchId(1));
        let mut net = Network::new(topo);
        let t1 = net.add_table(SwitchId(0)).unwrap();
        let p = net
            .topology()
            .port_towards(SwitchId(0), SwitchId(1))
            .unwrap();
        net.install(
            SwitchId(0),
            t1,
            FlowEntry::new("0xxxxxxx".parse().unwrap(), Action::Output(p)),
        )
        .unwrap();
        net.install(
            SwitchId(0),
            TableId(0),
            FlowEntry::new("xxxxxxxx".parse().unwrap(), Action::GotoTable(t1)),
        )
        .unwrap();
        let mut g = RuleGraph::from_network(&net).unwrap();
        let rewriting = net
            .install(
                SwitchId(0),
                TableId(0),
                FlowEntry::new("00xxxxxx".parse().unwrap(), Action::GotoTable(t1))
                    .with_priority(3)
                    .with_set_field("01xxxxxx".parse().unwrap()),
            )
            .unwrap();
        assert!(matches!(
            g.apply_update(&net, &RuleUpdate::Added { entry: rewriting }),
            Err(RuleGraphError::SetFieldOnGoto(id)) if id == rewriting
        ));
        assert!(matches!(
            RuleGraph::from_network(&net),
            Err(RuleGraphError::SetFieldOnGoto(id)) if id == rewriting
        ));
    }

    #[test]
    fn update_introducing_loop_is_detected() {
        let mut topo = Topology::new(2);
        topo.add_link(SwitchId(0), SwitchId(1));
        let mut net = Network::new(topo);
        let p01 = net
            .topology()
            .port_towards(SwitchId(0), SwitchId(1))
            .unwrap();
        let p10 = net
            .topology()
            .port_towards(SwitchId(1), SwitchId(0))
            .unwrap();
        net.install(
            SwitchId(0),
            TableId(0),
            FlowEntry::new("xxxxxxxx".parse().unwrap(), Action::Output(p01)),
        )
        .unwrap();
        let mut g = RuleGraph::from_network(&net).unwrap();
        let back = net
            .install(
                SwitchId(1),
                TableId(0),
                FlowEntry::new("xxxxxxxx".parse().unwrap(), Action::Output(p10)),
            )
            .unwrap();
        assert!(matches!(
            g.apply_update(&net, &RuleUpdate::Added { entry: back }),
            Err(RuleGraphError::PolicyLoop { .. })
        ));
    }
}
