//! The data-plane simulator.
//!
//! [`Network`] plays the role of Mininet + Open vSwitch in the paper's
//! evaluation (§VIII): it hosts one multi-table OpenFlow pipeline per
//! switch of a [`Topology`], forwards packets according to installed
//! flow entries, and applies injected [`FaultSpec`]s — the paper's
//! "attacks are simulated by modifying the flow entries".
//!
//! Forwarding returns a full [`ForwardingTrace`] (ground truth for
//! evaluation metrics); detection algorithms must only consume
//! [`ForwardingTrace::observation`], which is the packet-in event a real
//! controller would see, or [`Network::observe`], which forwards the
//! same way and returns only that event. [`Network::observe_along`]
//! returns the same event for a packet sent again and again, replaying
//! the lookups of its last walk ([`Route`]) where tables are unchanged.

use std::collections::HashMap;

use sdnprobe_classifier::IdHashBuilder;
use sdnprobe_headerspace::Header;
use sdnprobe_topology::{PortId, SwitchId, Topology};

use crate::fault::{Activation, FaultKind, FaultSpec};
use crate::flow::{Action, EntryId, FlowEntry, TableId};
use crate::impairments::Impairments;
use crate::table::FlowTable;

/// One pipeline-processing step in a forwarding trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStep {
    /// Switch that processed the packet.
    pub switch: SwitchId,
    /// Table the match happened in.
    pub table: TableId,
    /// The matched entry.
    pub entry: EntryId,
    /// Header as it arrived at this entry (before its set field).
    pub header: Header,
}

/// Where a packet ended up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Punted to the controller by a `ToController` action — the only
    /// outcome a controller can observe directly.
    PacketIn {
        /// Switch that sent the packet-in.
        switch: SwitchId,
    },
    /// Discarded (by a `Drop` action or a drop fault).
    Dropped {
        /// Switch where the packet died.
        switch: SwitchId,
    },
    /// No entry matched in the current table (OpenFlow default: drop).
    NoMatch {
        /// Switch where lookup failed.
        switch: SwitchId,
    },
    /// Output on a port with no connected peer (left the network, e.g.
    /// toward a host).
    LeftNetwork {
        /// Egress switch.
        switch: SwitchId,
        /// Egress port.
        port: PortId,
    },
    /// The hop budget was exhausted — a forwarding loop.
    TtlExceeded,
    /// Lost in transit on a link by benign stochastic packet loss (the
    /// error-prone environment, not a switch fault) — see
    /// [`Impairments::loss_rate`].
    LostInTransit {
        /// Switch that transmitted the packet.
        from: SwitchId,
        /// Switch that never received it.
        to: SwitchId,
    },
    /// Punted to the controller, but the packet-in was lost on the
    /// controller channel — see [`Impairments::ctrl_loss_rate`]. The
    /// controller observes nothing.
    PacketInLost {
        /// Switch whose packet-in was lost.
        switch: SwitchId,
    },
}

/// Result of injecting a packet: every step taken plus the outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForwardingTrace {
    /// Pipeline steps in order.
    pub steps: Vec<TraceStep>,
    /// Terminal outcome.
    pub outcome: Outcome,
    /// Header at the end of processing.
    pub final_header: Header,
}

impl ForwardingTrace {
    /// What the controller observes: `Some((switch, header))` if the
    /// packet was punted to the controller, `None` otherwise.
    ///
    /// Fault-localization code must base decisions solely on this (plus
    /// timing), never on the raw trace.
    pub fn observation(&self) -> Option<(SwitchId, Header)> {
        packet_in(self.outcome, self.final_header)
    }

    /// The switches traversed, deduplicated in order.
    pub fn switches_visited(&self) -> Vec<SwitchId> {
        let mut out: Vec<SwitchId> = Vec::new();
        for s in &self.steps {
            if out.last() != Some(&s.switch) {
                out.push(s.switch);
            }
        }
        out
    }

    /// The entries matched, in order.
    pub fn entries_matched(&self) -> Vec<EntryId> {
        self.steps.iter().map(|s| s.entry).collect()
    }
}

/// A memo of one packet's lookups, kept by the sender between sends and
/// replayed by [`Network::observe_along`].
///
/// It holds the packet's entry switch and header and, for each hop of
/// its last walk, the stamp of the table looked up there and the slot
/// the lookup answered. A table's stamp names its current contents and
/// never repeats across tables, so a hop whose table still shows the
/// recorded stamp is the same table with the same contents; with every
/// earlier hop replayed or looked up afresh and no fault firing, the
/// header arriving there is the recorded one too, and the hop replays.
#[derive(Debug, Default)]
pub struct Route {
    /// Entry switch and header the hops were recorded for.
    entry: Option<(SwitchId, Header)>,
    /// `(table stamp, slot)` per hop, in walk order.
    hops: Vec<(u64, usize)>,
}

/// Handle to an installed entry's location.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryLocation {
    /// Hosting switch.
    pub switch: SwitchId,
    /// Hosting table.
    pub table: TableId,
}

/// Errors from controller operations on the network.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetworkError {
    /// Referenced switch does not exist.
    UnknownSwitch(SwitchId),
    /// Referenced table does not exist on that switch.
    UnknownTable(SwitchId, TableId),
    /// Referenced entry does not exist.
    UnknownEntry(EntryId),
    /// `GotoTable` must target a strictly later table (OpenFlow 1.3).
    BackwardGoto {
        /// Table the entry lives in.
        from: TableId,
        /// Offending target.
        to: TableId,
    },
    /// The controller channel to a switch dropped the flow-mod — a
    /// *transient* failure drawn from
    /// [`Impairments::flowmod_failure_rate`]; retrying (which advances
    /// the transaction id) re-draws the outcome.
    ChannelDown {
        /// Switch whose channel hiccuped.
        switch: SwitchId,
    },
    /// The fault specification is invalid for the targeted entry (e.g.
    /// a zero-period intermittent activation, or a targeting pattern
    /// whose length differs from the entry's header length). Validated
    /// at [`Network::inject_fault`] time so forwarding never panics.
    InvalidFault {
        /// Entry the fault was aimed at.
        entry: EntryId,
        /// Why the specification was rejected.
        reason: String,
    },
    /// Only the last, empty, non-pipeline table of a switch can be
    /// removed (earlier ids would shift; occupied tables would strand
    /// entries).
    TableNotRemovable(SwitchId, TableId),
    /// The entry's match field is not as wide as the entries already
    /// installed; probes cross switches, so all entries of a network
    /// share one header length.
    WidthMismatch {
        /// Switch of the rejected entry.
        switch: SwitchId,
        /// Table of the rejected entry.
        table: TableId,
        /// The network's header length, in bits.
        expected: u32,
        /// Width of the rejected match field, in bits.
        found: u32,
    },
}

impl NetworkError {
    /// True for failures that a bounded retry can clear (currently only
    /// [`NetworkError::ChannelDown`]); permanent errors — unknown
    /// ids, backward gotos, invalid faults — return `false`.
    pub fn is_transient(&self) -> bool {
        matches!(self, Self::ChannelDown { .. })
    }
}

impl std::fmt::Display for NetworkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnknownSwitch(s) => write!(f, "unknown switch {s}"),
            Self::UnknownTable(s, t) => write!(f, "unknown table {t} on switch {s}"),
            Self::UnknownEntry(e) => write!(f, "unknown entry {e}"),
            Self::BackwardGoto { from, to } => {
                write!(f, "goto-table must move forward (from {from} to {to})")
            }
            Self::ChannelDown { switch } => {
                write!(f, "controller channel to {switch} dropped the flow-mod (transient)")
            }
            Self::InvalidFault { entry, reason } => {
                write!(f, "invalid fault for entry {entry}: {reason}")
            }
            Self::TableNotRemovable(s, t) => {
                write!(f, "table {t} on switch {s} is not the last empty table")
            }
            Self::WidthMismatch {
                switch,
                table,
                expected,
                found,
            } => write!(
                f,
                "match field for table {table} on switch {switch} is {found} bits but the network's entries are {expected}"
            ),
        }
    }
}

impl std::error::Error for NetworkError {}

/// The simulated SDN data plane: topology + per-switch pipelines +
/// injected faults + a virtual clock.
///
/// # Examples
///
/// ```
/// use sdnprobe_dataplane::{Action, FlowEntry, Network, Outcome};
/// use sdnprobe_headerspace::Header;
/// use sdnprobe_topology::{SwitchId, Topology};
///
/// let mut topo = Topology::new(2);
/// topo.add_link(SwitchId(0), SwitchId(1));
/// let mut net = Network::new(topo);
/// let port = net.topology().port_towards(SwitchId(0), SwitchId(1)).unwrap();
/// net.install(
///     SwitchId(0),
///     sdnprobe_dataplane::TableId(0),
///     FlowEntry::new("0xxxxxxx".parse()?, Action::Output(port)),
/// )?;
/// net.install(
///     SwitchId(1),
///     sdnprobe_dataplane::TableId(0),
///     FlowEntry::new("0xxxxxxx".parse()?, Action::ToController),
/// )?;
/// let trace = net.inject(SwitchId(0), Header::new(0, 8));
/// assert_eq!(trace.observation(), Some((SwitchId(1), Header::new(0, 8))));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Network {
    topology: Topology,
    tables: Vec<Vec<FlowTable>>,
    /// Number of tables over all switches, kept by `add_table` and
    /// `remove_table` for the hop budget.
    table_total: usize,
    locations: HashMap<EntryId, EntryLocation, IdHashBuilder>,
    faults: HashMap<EntryId, FaultSpec, IdHashBuilder>,
    next_entry: u64,
    now_ns: u64,
    impairments: Impairments,
    /// Flow-mod transaction counter: bumps on every *gated* flow-mod
    /// attempt (success or failure) so a retry re-draws its fate.
    flowmod_xid: u64,
    /// Header length of every match field, fixed by the first install.
    width: Option<u32>,
}

impl Network {
    /// Creates a network over the topology with one empty table per
    /// switch.
    pub fn new(topology: Topology) -> Self {
        let tables = vec![vec![FlowTable::new()]; topology.switch_count()];
        Self {
            topology,
            table_total: tables.len(),
            tables,
            locations: HashMap::default(),
            faults: HashMap::default(),
            next_entry: 0,
            now_ns: 0,
            impairments: Impairments::default(),
            flowmod_xid: 0,
            width: None,
        }
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The active benign-impairment model (all-zero by default).
    pub fn impairments(&self) -> &Impairments {
        &self.impairments
    }

    /// Installs a benign-impairment model. With every rate zero (the
    /// default) the network behaves bit-identically to an unimpaired
    /// one.
    pub fn set_impairments(&mut self, impairments: Impairments) {
        self.impairments = impairments;
    }

    /// Rejects `entry` unless its match field is as wide as the entries
    /// installed so far (the first install fixes the width).
    fn check_width(&self, loc: EntryLocation, entry: &FlowEntry) -> Result<(), NetworkError> {
        let found = entry.match_field().len();
        match self.width {
            Some(expected) if expected != found => Err(NetworkError::WidthMismatch {
                switch: loc.switch,
                table: loc.table,
                expected,
                found,
            }),
            _ => Ok(()),
        }
    }

    /// Draws one flow-mod fate for an operation on `switch`. Free when
    /// the failure rate is zero (the counter is not even bumped, so
    /// enabling impairments later starts from a pristine stream).
    fn flowmod_gate(&mut self, switch: SwitchId) -> Result<(), NetworkError> {
        if self.impairments.flowmod_failure_rate <= 0.0 {
            return Ok(());
        }
        self.flowmod_xid += 1;
        if self
            .impairments
            .flowmod_fails(self.now_ns, self.flowmod_xid)
        {
            Err(NetworkError::ChannelDown { switch })
        } else {
            Ok(())
        }
    }

    /// Current virtual time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// Advances the virtual clock.
    pub fn advance_ns(&mut self, delta: u64) {
        self.now_ns = self.now_ns.saturating_add(delta);
    }

    /// Number of flow tables on a switch.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::UnknownSwitch`] for an invalid id.
    pub fn table_count(&self, switch: SwitchId) -> Result<usize, NetworkError> {
        self.tables
            .get(switch.0)
            .map(Vec::len)
            .ok_or(NetworkError::UnknownSwitch(switch))
    }

    /// Appends a new empty table to a switch, returning its id.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::UnknownSwitch`] for an invalid id.
    pub fn add_table(&mut self, switch: SwitchId) -> Result<TableId, NetworkError> {
        let tables = self
            .tables
            .get_mut(switch.0)
            .ok_or(NetworkError::UnknownSwitch(switch))?;
        tables.push(FlowTable::new());
        self.table_total += 1;
        Ok(TableId(tables.len() - 1))
    }

    /// Removes a switch's last, empty, non-pipeline table — the inverse
    /// of [`Network::add_table`], used by the probe harness to restore a
    /// network exactly after teardown.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::UnknownSwitch`] for an invalid switch and
    /// [`NetworkError::TableNotRemovable`] unless `table` is the last
    /// table, is not table 0, and holds no entries.
    pub fn remove_table(&mut self, switch: SwitchId, table: TableId) -> Result<(), NetworkError> {
        let tables = self
            .tables
            .get_mut(switch.0)
            .ok_or(NetworkError::UnknownSwitch(switch))?;
        if table.0 == 0 || table.0 + 1 != tables.len() || !tables[table.0].is_empty() {
            return Err(NetworkError::TableNotRemovable(switch, table));
        }
        tables.pop();
        self.table_total -= 1;
        Ok(())
    }

    /// Read access to one flow table.
    ///
    /// # Errors
    ///
    /// Returns an error if the switch or table does not exist.
    pub fn flow_table(&self, switch: SwitchId, table: TableId) -> Result<&FlowTable, NetworkError> {
        self.tables
            .get(switch.0)
            .ok_or(NetworkError::UnknownSwitch(switch))?
            .get(table.0)
            .ok_or(NetworkError::UnknownTable(switch, table))
    }

    /// Installs a flow entry, returning its network-wide id.
    ///
    /// # Errors
    ///
    /// Returns an error if the location does not exist, the entry's
    /// `GotoTable` action does not move strictly forward, or its match
    /// field's width differs from the network's
    /// ([`NetworkError::WidthMismatch`]); under impairments, may fail
    /// transiently with [`NetworkError::ChannelDown`] (retryable).
    pub fn install(
        &mut self,
        switch: SwitchId,
        table: TableId,
        entry: FlowEntry,
    ) -> Result<EntryId, NetworkError> {
        if let Action::GotoTable(to) = entry.action() {
            if to.0 <= table.0 {
                return Err(NetworkError::BackwardGoto { from: table, to });
            }
        }
        let table_count = self
            .tables
            .get(switch.0)
            .ok_or(NetworkError::UnknownSwitch(switch))?
            .len();
        if table.0 >= table_count {
            return Err(NetworkError::UnknownTable(switch, table));
        }
        self.check_width(EntryLocation { switch, table }, &entry)?;
        self.flowmod_gate(switch)?;
        self.width = Some(entry.match_field().len());
        let id = EntryId(self.next_entry);
        self.next_entry += 1;
        self.tables[switch.0][table.0].insert(id, entry);
        self.locations.insert(id, EntryLocation { switch, table });
        Ok(id)
    }

    /// Removes an entry (and any fault attached to it).
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::UnknownEntry`] if not installed; under
    /// impairments, may fail transiently with
    /// [`NetworkError::ChannelDown`] (retryable, nothing removed).
    pub fn remove(&mut self, id: EntryId) -> Result<FlowEntry, NetworkError> {
        let loc = *self
            .locations
            .get(&id)
            .ok_or(NetworkError::UnknownEntry(id))?;
        self.flowmod_gate(loc.switch)?;
        self.locations.remove(&id);
        self.faults.remove(&id);
        Ok(self.tables[loc.switch.0][loc.table.0]
            .remove(id)
            .expect("location map and table agree"))
    }

    /// Looks up an installed entry.
    pub fn entry(&self, id: EntryId) -> Option<&FlowEntry> {
        let loc = self.locations.get(&id)?;
        self.tables[loc.switch.0][loc.table.0].get(id)
    }

    /// Where an entry is installed.
    pub fn location(&self, id: EntryId) -> Option<EntryLocation> {
        self.locations.get(&id).copied()
    }

    /// All installed entry ids on a switch, in table order.
    pub fn entries_on(&self, switch: SwitchId) -> Vec<EntryId> {
        self.tables
            .get(switch.0)
            .map(|ts| ts.iter().flat_map(|t| t.iter().map(|(id, _)| id)).collect())
            .unwrap_or_default()
    }

    /// Total number of installed entries.
    pub fn entry_count(&self) -> usize {
        self.locations.len()
    }

    /// Replaces an installed entry in place (keeps its id and location).
    ///
    /// Used by the Fig. 7 test-entry procedure, which rewrites a terminal
    /// entry's action to `goto next table`.
    ///
    /// # Errors
    ///
    /// Returns an error if the entry is unknown, the new action is a
    /// backward `GotoTable`, or the new match field's width differs from
    /// the network's; under impairments, may fail transiently with
    /// [`NetworkError::ChannelDown`] (retryable, nothing changed).
    pub fn replace_entry(&mut self, id: EntryId, entry: FlowEntry) -> Result<(), NetworkError> {
        let loc = *self
            .locations
            .get(&id)
            .ok_or(NetworkError::UnknownEntry(id))?;
        if let Action::GotoTable(to) = entry.action() {
            if to.0 <= loc.table.0 {
                return Err(NetworkError::BackwardGoto {
                    from: loc.table,
                    to,
                });
            }
        }
        self.check_width(loc, &entry)?;
        self.flowmod_gate(loc.switch)?;
        self.tables[loc.switch.0][loc.table.0]
            .replace(id, entry)
            .expect("location map and table agree");
        Ok(())
    }

    /// Attaches a fault to an installed entry (replacing any previous
    /// fault on it).
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::UnknownEntry`] if not installed, and
    /// [`NetworkError::InvalidFault`] for specifications that could
    /// never manifest correctly — a zero-period intermittent
    /// activation, or a targeting pattern whose length is zero or
    /// differs from the entry's match field — so forwarding never has
    /// to cope with malformed faults.
    pub fn inject_fault(&mut self, id: EntryId, fault: FaultSpec) -> Result<(), NetworkError> {
        let loc = *self
            .locations
            .get(&id)
            .ok_or(NetworkError::UnknownEntry(id))?;
        match fault.activation() {
            Activation::Intermittent { period_ns: 0, .. } => {
                return Err(NetworkError::InvalidFault {
                    entry: id,
                    reason: "intermittent period must be positive".into(),
                });
            }
            Activation::Targeting(pattern) => {
                let width = self.tables[loc.switch.0][loc.table.0]
                    .get(id)
                    .expect("location map and table agree")
                    .match_field()
                    .len();
                if pattern.is_empty() || pattern.len() != width {
                    return Err(NetworkError::InvalidFault {
                        entry: id,
                        reason: format!(
                            "targeting pattern is {} bits but the entry matches {} bits",
                            pattern.len(),
                            width
                        ),
                    });
                }
            }
            _ => {}
        }
        self.faults.insert(id, fault);
        Ok(())
    }

    /// Removes the fault on an entry, if any.
    pub fn clear_fault(&mut self, id: EntryId) -> Option<FaultSpec> {
        self.faults.remove(&id)
    }

    /// The fault attached to an entry, if any.
    pub fn fault(&self, id: EntryId) -> Option<&FaultSpec> {
        self.faults.get(&id)
    }

    /// Ids of entries with injected faults.
    pub fn faulty_entries(&self) -> impl Iterator<Item = EntryId> + '_ {
        self.faults.keys().copied()
    }

    /// Switches hosting at least one faulty entry (ground truth for
    /// FPR/FNR metrics).
    pub fn faulty_switches(&self) -> Vec<SwitchId> {
        let mut out: Vec<SwitchId> = self
            .faults
            .keys()
            .filter_map(|id| self.locations.get(id).map(|l| l.switch))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Injects a packet at a switch and simulates pipeline processing
    /// until a terminal outcome.
    ///
    /// # Panics
    ///
    /// Panics if the switch id is out of range.
    pub fn inject(&self, at: SwitchId, header: Header) -> ForwardingTrace {
        let mut steps = Vec::new();
        let (outcome, final_header) = self.walk(at, header, None, |step| steps.push(step));
        ForwardingTrace {
            steps,
            outcome,
            final_header,
        }
    }

    /// What the controller observes of a packet injected at a switch:
    /// the same forwarding as [`Network::inject`] followed by
    /// [`ForwardingTrace::observation`], without recording the steps.
    ///
    /// # Panics
    ///
    /// Panics if the switch id is out of range.
    pub fn observe(&self, at: SwitchId, header: Header) -> Option<(SwitchId, Header)> {
        let (outcome, final_header) = self.walk(at, header, None, |_| {});
        packet_in(outcome, final_header)
    }

    /// [`Network::observe`] for a packet sent again and again: replays the
    /// lookups `route` recorded for tables that have not changed since,
    /// and records the rest for the next send. The answer is always the
    /// one [`Network::observe`] gives; a route recorded for another entry
    /// switch or header, or on another network, is simply re-recorded.
    ///
    /// # Panics
    ///
    /// Panics if the switch id is out of range.
    pub fn observe_along(
        &self,
        at: SwitchId,
        header: Header,
        route: &mut Route,
    ) -> Option<(SwitchId, Header)> {
        let (outcome, final_header) = self.walk(at, header, Some(route), |_| {});
        packet_in(outcome, final_header)
    }

    /// The forwarding loop behind [`Network::inject`],
    /// [`Network::observe`] and [`Network::observe_along`]: calls
    /// `on_step` for every pipeline step and returns the terminal outcome
    /// with the header at that point.
    ///
    /// With a `route`, hop `k` reuses the recorded slot while its table
    /// shows the recorded stamp; otherwise it looks the header up and
    /// cuts the route at `k` before recording the answer. Once a fault
    /// fires the header or the next table may differ from the recorded
    /// walk's, so the route is neither read nor recorded any further.
    fn walk(
        &self,
        at: SwitchId,
        header: Header,
        mut route: Option<&mut Route>,
        mut on_step: impl FnMut(TraceStep),
    ) -> (Outcome, Header) {
        assert!(
            at.0 < self.topology.switch_count(),
            "switch {at} out of range"
        );
        if let Some(route) = route.as_deref_mut() {
            if route.entry != Some((at, header)) {
                route.entry = Some((at, header));
                route.hops.clear();
            }
        }
        let mut switch = at;
        let mut table = TableId(0);
        let mut header = header;
        // Generous hop budget: every (switch, table) pair once, plus
        // slack for detours/misdirects.
        let budget = 4 * self.table_total.max(4);
        for hop in 0..budget {
            let flow_table = &self.tables[switch.0][table.0];
            let slot = match route.as_deref_mut() {
                None => flow_table.lookup_slot(header),
                Some(route) => match route.hops.get(hop) {
                    Some(&(stamp, slot)) if stamp == flow_table.stamp() => Some(slot),
                    _ => {
                        route.hops.truncate(hop);
                        let slot = flow_table.lookup_slot(header);
                        if let Some(slot) = slot {
                            route.hops.push((flow_table.stamp(), slot));
                        }
                        slot
                    }
                },
            };
            let Some((id, entry)) = slot.and_then(|slot| flow_table.entry_at(slot)) else {
                return (Outcome::NoMatch { switch }, header);
            };
            on_step(TraceStep {
                switch,
                table,
                entry: id,
                header,
            });
            // Faulty execution pre-empts or perturbs the normal action.
            if let Some(fault) = self.faults.get(&id) {
                if fault.is_active(self.now_ns, header) {
                    route = None;
                    match fault.kind() {
                        FaultKind::Drop => return (Outcome::Dropped { switch }, header),
                        FaultKind::Modify(bad_set) => {
                            // Malicious rewrite, then the normal action.
                            header = header.apply_set_field(&bad_set);
                        }
                        FaultKind::Misdirect(port) => {
                            header = header.apply_set_field(&entry.set_field());
                            let Some(peer) = self.topology.peer_of(switch, port) else {
                                return (Outcome::LeftNetwork { switch, port }, header);
                            };
                            if self
                                .impairments
                                .link_lost(self.now_ns, header, switch, peer)
                            {
                                let outcome = Outcome::LostInTransit {
                                    from: switch,
                                    to: peer,
                                };
                                return (outcome, header);
                            }
                            switch = peer;
                            table = TableId(0);
                            continue;
                        }
                        FaultKind::Detour { partner } => {
                            // Out-of-band tunnel: the packet reappears at
                            // the partner and resumes normal processing.
                            if partner.0 < self.topology.switch_count() {
                                switch = partner;
                                table = TableId(0);
                                continue;
                            }
                            return (Outcome::Dropped { switch }, header);
                        }
                    }
                }
            }
            header = header.apply_set_field(&entry.set_field());
            match entry.action() {
                Action::Drop => return (Outcome::Dropped { switch }, header),
                Action::ToController => {
                    let outcome = if self.impairments.packet_in_lost(self.now_ns, header, switch) {
                        Outcome::PacketInLost { switch }
                    } else {
                        Outcome::PacketIn { switch }
                    };
                    return (outcome, header);
                }
                Action::GotoTable(next) => {
                    table = next;
                }
                Action::Output(port) => {
                    let Some(peer) = self.topology.peer_of(switch, port) else {
                        return (Outcome::LeftNetwork { switch, port }, header);
                    };
                    if self
                        .impairments
                        .link_lost(self.now_ns, header, switch, peer)
                    {
                        let outcome = Outcome::LostInTransit {
                            from: switch,
                            to: peer,
                        };
                        return (outcome, header);
                    }
                    switch = peer;
                    table = TableId(0);
                }
            }
        }
        (Outcome::TtlExceeded, header)
    }
}

/// The controller's view of a terminal outcome: the packet-in's switch
/// and header, or nothing.
fn packet_in(outcome: Outcome, final_header: Header) -> Option<(SwitchId, Header)> {
    match outcome {
        Outcome::PacketIn { switch } => Some((switch, final_header)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::Activation;
    use sdnprobe_headerspace::Ternary;

    fn t(s: &str) -> Ternary {
        s.parse().expect("valid ternary")
    }

    /// Line of three switches with a wildcard route 0 -> 1 -> 2 and a
    /// packet-in at switch 2.
    fn line3() -> (Network, Vec<EntryId>) {
        let mut topo = Topology::new(3);
        topo.add_link(SwitchId(0), SwitchId(1));
        topo.add_link(SwitchId(1), SwitchId(2));
        let mut net = Network::new(topo);
        let mut ids = Vec::new();
        for (s, next) in [(0, 1), (1, 2)] {
            let port = net
                .topology()
                .port_towards(SwitchId(s), SwitchId(next))
                .unwrap();
            ids.push(
                net.install(
                    SwitchId(s),
                    TableId(0),
                    FlowEntry::new(t("xxxxxxxx"), Action::Output(port)),
                )
                .unwrap(),
            );
        }
        ids.push(
            net.install(
                SwitchId(2),
                TableId(0),
                FlowEntry::new(t("xxxxxxxx"), Action::ToController),
            )
            .unwrap(),
        );
        (net, ids)
    }

    #[test]
    fn forwards_along_route_to_controller() {
        let (net, ids) = line3();
        let trace = net.inject(SwitchId(0), Header::new(0x0F, 8));
        assert_eq!(
            trace.observation(),
            Some((SwitchId(2), Header::new(0x0F, 8)))
        );
        assert_eq!(trace.entries_matched(), ids);
        assert_eq!(
            trace.switches_visited(),
            vec![SwitchId(0), SwitchId(1), SwitchId(2)]
        );
    }

    #[test]
    fn route_replays_unchanged_tables_and_relooks_up_from_a_change() {
        let (mut net, ids) = line3();
        let stamp = |net: &Network, s: usize| net.tables[s][0].stamp();
        let (at, h) = (SwitchId(0), Header::new(0x0F, 8));
        let delivered = Some((SwitchId(2), h));
        let mut route = Route::default();
        assert_eq!(net.observe_along(at, h, &mut route), delivered);
        let recorded: Vec<(u64, usize)> = (0..3).map(|s| (stamp(&net, s), 0)).collect();
        assert_eq!(route.hops, recorded);
        // Unchanged tables: every hop is replayed. A bogus slot on the
        // last hop shows it, since only a replayed hop reads it.
        route.hops[2].1 = 7;
        assert_eq!(net.observe_along(at, h, &mut route), None);
        assert_eq!(net.observe(at, h), delivered);
        // A higher-priority drop on switch 1 that the packet does not
        // match moves the forwarding entry to slot 1: hop 1 and every
        // later hop are looked up afresh, so the bogus slot is never read.
        let drop = net
            .install(
                SwitchId(1),
                TableId(0),
                FlowEntry::new(t("0000xxxx"), Action::Drop).with_priority(5),
            )
            .unwrap();
        assert_eq!(net.observe_along(at, h, &mut route), delivered);
        let relooked = vec![recorded[0], (stamp(&net, 1), 1), recorded[2]];
        assert_eq!(route.hops, relooked);
        // A modify fault on switch 0 sends 0x00 into the drop: the route
        // is neither read nor recorded after the fault fires.
        net.inject_fault(ids[0], FaultSpec::new(FaultKind::Modify(t("0000xxxx"))))
            .unwrap();
        assert_eq!(net.observe_along(at, h, &mut route), None);
        assert_eq!(route.hops, relooked);
        net.clear_fault(ids[0]);
        // A new set field on switch 0 does the same through a new stamp.
        let e0 = *net.entry(ids[0]).unwrap();
        net.replace_entry(ids[0], e0.with_set_field(t("0000xxxx")))
            .unwrap();
        assert_eq!(net.observe_along(at, h, &mut route), None);
        assert_eq!(net.observe(at, h), None);
        net.replace_entry(ids[0], e0).unwrap();
        assert_eq!(net.observe_along(at, h, &mut route), delivered);
        // Removing the drop shifts switch 1's slots back.
        net.remove(drop).unwrap();
        assert_eq!(net.observe_along(at, h, &mut route), delivered);
        assert_eq!(route.hops[1], (stamp(&net, 1), 0));
        // An action-only rewrite keeps the stamp, and the replayed slot
        // reads the new action.
        let before = route.hops.clone();
        let e2 = *net.entry(ids[2]).unwrap();
        net.replace_entry(ids[2], e2.with_action(Action::Drop))
            .unwrap();
        assert_eq!(stamp(&net, 2), before[2].0);
        assert_eq!(net.observe_along(at, h, &mut route), None);
        assert_eq!(route.hops, before);
        // Another entry header re-records the route from scratch.
        net.replace_entry(ids[2], e2).unwrap();
        let other = Header::new(0xF0, 8);
        route.hops[0].1 = 7;
        assert_eq!(
            net.observe_along(SwitchId(1), other, &mut route),
            Some((SwitchId(2), other))
        );
        assert_eq!(route.hops, before[1..]);
    }

    #[test]
    fn no_match_is_dropped_silently() {
        let mut topo = Topology::new(1);
        let _ = &mut topo;
        let net = Network::new(topo);
        let trace = net.inject(SwitchId(0), Header::new(0, 8));
        assert_eq!(
            trace.outcome,
            Outcome::NoMatch {
                switch: SwitchId(0)
            }
        );
        assert!(trace.observation().is_none());
    }

    #[test]
    fn priority_shadowing_in_pipeline() {
        let (mut net, _) = line3();
        // Higher-priority drop for 0000xxxx at switch 1.
        net.install(
            SwitchId(1),
            TableId(0),
            FlowEntry::new(t("0000xxxx"), Action::Drop).with_priority(10),
        )
        .unwrap();
        let dropped = net.inject(SwitchId(0), Header::new(0x00, 8));
        assert_eq!(
            dropped.outcome,
            Outcome::Dropped {
                switch: SwitchId(1)
            }
        );
        let through = net.inject(SwitchId(0), Header::new(0x0F, 8));
        assert!(through.observation().is_some());
    }

    #[test]
    fn set_field_rewrites_and_affects_downstream_match() {
        let (mut net, ids) = line3();
        // Rewrite at switch 0 to 1111xxxx.
        let e0 = net.entry(ids[0]).copied().unwrap();
        net.replace_entry(ids[0], e0.with_set_field(t("1111xxxx")))
            .unwrap();
        // Switch 1 drops 1111xxxx with high priority.
        net.install(
            SwitchId(1),
            TableId(0),
            FlowEntry::new(t("1111xxxx"), Action::Drop).with_priority(9),
        )
        .unwrap();
        let trace = net.inject(SwitchId(0), Header::new(0x00, 8));
        assert_eq!(
            trace.outcome,
            Outcome::Dropped {
                switch: SwitchId(1)
            }
        );
        assert_eq!(trace.final_header, Header::new(0x0F, 8));
    }

    #[test]
    fn goto_table_pipeline() {
        let (mut net, ids) = line3();
        let t1 = net.add_table(SwitchId(2)).unwrap();
        // Move switch 2's punt into table 1 behind a goto.
        let punt = net.remove(ids[2]).unwrap();
        net.install(
            SwitchId(2),
            TableId(0),
            FlowEntry::new(t("xxxxxxxx"), Action::GotoTable(t1)),
        )
        .unwrap();
        net.install(SwitchId(2), t1, punt).unwrap();
        let trace = net.inject(SwitchId(0), Header::new(1, 8));
        assert_eq!(trace.observation().map(|(s, _)| s), Some(SwitchId(2)));
        assert_eq!(trace.steps.len(), 4);
    }

    #[test]
    fn backward_goto_rejected() {
        let (mut net, ids) = line3();
        let err = net
            .install(
                SwitchId(0),
                TableId(0),
                FlowEntry::new(t("xxxxxxxx"), Action::GotoTable(TableId(0))),
            )
            .unwrap_err();
        assert!(matches!(err, NetworkError::BackwardGoto { .. }));
        let e0 = *net.entry(ids[0]).unwrap();
        assert!(net
            .replace_entry(ids[0], e0.with_action(Action::GotoTable(TableId(0))))
            .is_err());
    }

    #[test]
    fn unconnected_port_leaves_network() {
        let (mut net, ids) = line3();
        let e0 = *net.entry(ids[0]).unwrap();
        net.replace_entry(ids[0], e0.with_action(Action::Output(PortId(42))))
            .unwrap();
        let trace = net.inject(SwitchId(0), Header::new(0, 8));
        assert_eq!(
            trace.outcome,
            Outcome::LeftNetwork {
                switch: SwitchId(0),
                port: PortId(42)
            }
        );
    }

    #[test]
    fn forwarding_loop_hits_ttl() {
        let mut topo = Topology::new(2);
        topo.add_link(SwitchId(0), SwitchId(1));
        let mut net = Network::new(topo);
        for s in [0usize, 1] {
            let port = net
                .topology()
                .port_towards(SwitchId(s), SwitchId(1 - s))
                .unwrap();
            net.install(
                SwitchId(s),
                TableId(0),
                FlowEntry::new(t("xxxxxxxx"), Action::Output(port)),
            )
            .unwrap();
        }
        let trace = net.inject(SwitchId(0), Header::new(0, 8));
        assert_eq!(trace.outcome, Outcome::TtlExceeded);
        // The hop budget is four steps per table in the network (at
        // least 16); it follows tables added and removed since.
        assert_eq!(trace.steps.len(), 16);
        let added: Vec<TableId> = (0..4)
            .map(|_| net.add_table(SwitchId(0)).unwrap())
            .collect();
        net.add_table(SwitchId(1)).unwrap();
        let trace = net.inject(SwitchId(0), Header::new(0, 8));
        assert_eq!(trace.outcome, Outcome::TtlExceeded);
        assert_eq!(trace.steps.len(), 28);
        for &t in added[2..].iter().rev() {
            net.remove_table(SwitchId(0), t).unwrap();
        }
        assert!(net.remove_table(SwitchId(0), added[0]).is_err());
        let trace = net.inject(SwitchId(0), Header::new(0, 8));
        assert_eq!(trace.outcome, Outcome::TtlExceeded);
        assert_eq!(trace.steps.len(), 20);
    }

    #[test]
    fn drop_fault_kills_packet() {
        let (mut net, ids) = line3();
        net.inject_fault(ids[1], FaultSpec::new(FaultKind::Drop))
            .unwrap();
        let trace = net.inject(SwitchId(0), Header::new(0, 8));
        assert_eq!(
            trace.outcome,
            Outcome::Dropped {
                switch: SwitchId(1)
            }
        );
        assert_eq!(net.faulty_switches(), vec![SwitchId(1)]);
    }

    #[test]
    fn modify_fault_changes_received_header() {
        let (mut net, ids) = line3();
        net.inject_fault(ids[1], FaultSpec::new(FaultKind::Modify(t("11xxxxxx"))))
            .unwrap();
        let trace = net.inject(SwitchId(0), Header::new(0, 8));
        let (sw, h) = trace.observation().expect("still delivered");
        assert_eq!(sw, SwitchId(2));
        assert_eq!(h, Header::new(0b0000_0011, 8));
    }

    #[test]
    fn misdirect_fault_reroutes() {
        let (mut net, ids) = line3();
        // Switch 1 misdirects back toward switch 0.
        let back = net
            .topology()
            .port_towards(SwitchId(1), SwitchId(0))
            .unwrap();
        net.inject_fault(ids[1], FaultSpec::new(FaultKind::Misdirect(back)))
            .unwrap();
        let trace = net.inject(SwitchId(0), Header::new(0, 8));
        // Packet bounces 0 -> 1 -> 0 -> 1 ... until TTL.
        assert_eq!(trace.outcome, Outcome::TtlExceeded);
    }

    #[test]
    fn detour_rejoining_path_is_invisible() {
        let (mut net, ids) = line3();
        // Switch 0 colludes with switch 2 (downstream): tunnel past 1.
        net.inject_fault(
            ids[0],
            FaultSpec::new(FaultKind::Detour {
                partner: SwitchId(2),
            }),
        )
        .unwrap();
        let trace = net.inject(SwitchId(0), Header::new(0, 8));
        // Controller still sees the expected packet-in: evasion works.
        assert_eq!(trace.observation(), Some((SwitchId(2), Header::new(0, 8))));
        // But switch 1 was never traversed.
        assert!(!trace.switches_visited().contains(&SwitchId(1)));
    }

    #[test]
    fn detour_to_off_path_switch_strands_packet() {
        let mut topo = Topology::new(4);
        topo.add_link(SwitchId(0), SwitchId(1));
        topo.add_link(SwitchId(1), SwitchId(2));
        topo.add_link(SwitchId(3), SwitchId(2)); // island switch 3
        let mut net = Network::new(topo);
        let p01 = net
            .topology()
            .port_towards(SwitchId(0), SwitchId(1))
            .unwrap();
        let p12 = net
            .topology()
            .port_towards(SwitchId(1), SwitchId(2))
            .unwrap();
        let id0 = net
            .install(
                SwitchId(0),
                TableId(0),
                FlowEntry::new(t("xxxxxxxx"), Action::Output(p01)),
            )
            .unwrap();
        net.install(
            SwitchId(1),
            TableId(0),
            FlowEntry::new(t("xxxxxxxx"), Action::Output(p12)),
        )
        .unwrap();
        net.install(
            SwitchId(2),
            TableId(0),
            FlowEntry::new(t("xxxxxxxx"), Action::ToController),
        )
        .unwrap();
        // Switch 3 has no entries: detour partner strands the packet.
        net.inject_fault(
            id0,
            FaultSpec::new(FaultKind::Detour {
                partner: SwitchId(3),
            }),
        )
        .unwrap();
        let trace = net.inject(SwitchId(0), Header::new(0, 8));
        assert_eq!(
            trace.outcome,
            Outcome::NoMatch {
                switch: SwitchId(3)
            }
        );
    }

    #[test]
    fn intermittent_fault_follows_clock() {
        let (mut net, ids) = line3();
        net.inject_fault(
            ids[1],
            FaultSpec::new(FaultKind::Drop).with_activation(Activation::Intermittent {
                period_ns: 1_000,
                active_ns: 500,
            }),
        )
        .unwrap();
        // t=0: active.
        assert!(net
            .inject(SwitchId(0), Header::new(0, 8))
            .observation()
            .is_none());
        net.advance_ns(600);
        // t=600: inactive.
        assert!(net
            .inject(SwitchId(0), Header::new(0, 8))
            .observation()
            .is_some());
        net.advance_ns(500);
        // t=1100: active again.
        assert!(net
            .inject(SwitchId(0), Header::new(0, 8))
            .observation()
            .is_none());
    }

    #[test]
    fn targeting_fault_hits_only_victims() {
        let (mut net, ids) = line3();
        net.inject_fault(
            ids[1],
            FaultSpec::new(FaultKind::Drop).with_activation(Activation::Targeting(t("00000000"))),
        )
        .unwrap();
        assert!(net
            .inject(SwitchId(0), Header::new(0, 8))
            .observation()
            .is_none());
        assert!(net
            .inject(SwitchId(0), Header::new(1, 8))
            .observation()
            .is_some());
    }

    #[test]
    fn remove_clears_fault_and_entry() {
        let (mut net, ids) = line3();
        net.inject_fault(ids[0], FaultSpec::new(FaultKind::Drop))
            .unwrap();
        net.remove(ids[0]).unwrap();
        assert!(net.entry(ids[0]).is_none());
        assert!(net.fault(ids[0]).is_none());
        assert!(net.remove(ids[0]).is_err());
        assert_eq!(net.entry_count(), 2);
    }

    #[test]
    fn inject_fault_unknown_entry_errors() {
        let (mut net, _) = line3();
        assert!(matches!(
            net.inject_fault(EntryId(999), FaultSpec::new(FaultKind::Drop)),
            Err(NetworkError::UnknownEntry(_))
        ));
    }

    #[test]
    fn entries_on_lists_all_tables() {
        let (mut net, _) = line3();
        let t1 = net.add_table(SwitchId(0)).unwrap();
        net.install(SwitchId(0), t1, FlowEntry::new(t("xxxxxxxx"), Action::Drop))
            .unwrap();
        assert_eq!(net.entries_on(SwitchId(0)).len(), 2);
        assert_eq!(net.table_count(SwitchId(0)).unwrap(), 2);
    }

    #[test]
    fn error_display() {
        let e = NetworkError::UnknownSwitch(SwitchId(5));
        assert_eq!(e.to_string(), "unknown switch s5");
        let e = NetworkError::BackwardGoto {
            from: TableId(1),
            to: TableId(0),
        };
        assert!(e.to_string().contains("forward"));
        assert!(NetworkError::ChannelDown {
            switch: SwitchId(1)
        }
        .to_string()
        .contains("transient"));
    }

    #[test]
    fn width_mismatch_is_rejected_before_the_flowmod_gate() {
        let (mut net, ids) = line3();
        // Every gated flow-mod would fail, so only a check made before
        // the gate can report the mismatch.
        net.set_impairments(Impairments::new(2).with_flowmod_failure_rate(1.0));
        let wide = FlowEntry::new(t("0xxxxxxxxxxxxxxx"), Action::Drop);
        let err = NetworkError::WidthMismatch {
            switch: SwitchId(0),
            table: TableId(0),
            expected: 8,
            found: 16,
        };
        assert_eq!(net.install(SwitchId(0), TableId(0), wide), Err(err.clone()));
        assert_eq!(net.replace_entry(ids[0], wide), Err(err.clone()));
        assert!(err.to_string().contains("16 bits"));
        assert_eq!(net.entry(ids[0]).map(|e| e.match_field().len()), Some(8));
        // The width is the network's: an empty table and another switch
        // reject the entry too, while a fresh network takes it.
        net.set_impairments(Impairments::default());
        let t1 = net.add_table(SwitchId(0)).unwrap();
        for (switch, table) in [(SwitchId(0), t1), (SwitchId(2), TableId(0))] {
            assert!(matches!(
                net.install(switch, table, wide),
                Err(NetworkError::WidthMismatch {
                    expected: 8,
                    found: 16,
                    ..
                })
            ));
        }
        let mut fresh = Network::new(Topology::new(1));
        fresh.install(SwitchId(0), TableId(0), wide).unwrap();
    }

    #[test]
    fn remove_table_only_pops_last_empty() {
        let (mut net, _) = line3();
        // Table 0 can never be removed.
        assert!(matches!(
            net.remove_table(SwitchId(0), TableId(0)),
            Err(NetworkError::TableNotRemovable(..))
        ));
        let t1 = net.add_table(SwitchId(0)).unwrap();
        let t2 = net.add_table(SwitchId(0)).unwrap();
        // t1 is not the last table.
        assert!(net.remove_table(SwitchId(0), t1).is_err());
        // An occupied last table stays.
        let id = net
            .install(SwitchId(0), t2, FlowEntry::new(t("xxxxxxxx"), Action::Drop))
            .unwrap();
        assert!(net.remove_table(SwitchId(0), t2).is_err());
        net.remove(id).unwrap();
        net.remove_table(SwitchId(0), t2).unwrap();
        net.remove_table(SwitchId(0), t1).unwrap();
        assert_eq!(net.table_count(SwitchId(0)).unwrap(), 1);
        assert!(net.remove_table(SwitchId(9), TableId(1)).is_err());
    }

    #[test]
    fn inject_fault_rejects_malformed_specs() {
        let (mut net, ids) = line3();
        let zero_period =
            FaultSpec::new(FaultKind::Drop).with_activation(Activation::Intermittent {
                period_ns: 0,
                active_ns: 10,
            });
        assert!(matches!(
            net.inject_fault(ids[0], zero_period),
            Err(NetworkError::InvalidFault { .. })
        ));
        let short =
            FaultSpec::new(FaultKind::Drop).with_activation(Activation::Targeting(t("xxxx")));
        assert!(matches!(
            net.inject_fault(ids[0], short),
            Err(NetworkError::InvalidFault { .. })
        ));
        assert!(net.fault(ids[0]).is_none());
        // A well-formed targeting fault is still accepted.
        let ok =
            FaultSpec::new(FaultKind::Drop).with_activation(Activation::Targeting(t("0000xxxx")));
        net.inject_fault(ids[0], ok).unwrap();
    }

    #[test]
    fn certain_link_loss_strands_packets_in_transit() {
        let (mut net, _) = line3();
        net.set_impairments(Impairments::new(1).with_loss_rate(1.0));
        let trace = net.inject(SwitchId(0), Header::new(0x0F, 8));
        assert_eq!(
            trace.outcome,
            Outcome::LostInTransit {
                from: SwitchId(0),
                to: SwitchId(1)
            }
        );
        assert!(trace.observation().is_none());
        // The first hop's pipeline step still happened.
        assert_eq!(trace.switches_visited(), vec![SwitchId(0)]);
    }

    #[test]
    fn certain_ctrl_loss_swallows_packet_in() {
        let (mut net, _) = line3();
        net.set_impairments(Impairments::new(1).with_ctrl_loss_rate(1.0));
        let trace = net.inject(SwitchId(0), Header::new(0x0F, 8));
        assert_eq!(
            trace.outcome,
            Outcome::PacketInLost {
                switch: SwitchId(2)
            }
        );
        assert!(trace.observation().is_none());
        // The packet still traversed the full path before the punt.
        assert_eq!(
            trace.switches_visited(),
            vec![SwitchId(0), SwitchId(1), SwitchId(2)]
        );
    }

    #[test]
    fn partial_loss_redraws_at_later_times() {
        let (mut net, _) = line3();
        net.set_impairments(Impairments::new(3).with_loss_rate(0.5));
        let mut delivered = 0;
        let mut lost = 0;
        for _ in 0..64 {
            match net.inject(SwitchId(0), Header::new(0x0F, 8)).observation() {
                Some(_) => delivered += 1,
                None => lost += 1,
            }
            net.advance_ns(1_000);
        }
        assert!(delivered > 0 && lost > 0, "both fates must occur over time");
    }

    #[test]
    fn flowmod_failures_are_transient_and_retryable() {
        let (mut net, ids) = line3();
        net.set_impairments(Impairments::new(2).with_flowmod_failure_rate(1.0));
        let err = net
            .install(
                SwitchId(0),
                TableId(0),
                FlowEntry::new(t("xxxxxxxx"), Action::Drop),
            )
            .unwrap_err();
        assert!(err.is_transient());
        assert!(net.remove(ids[0]).is_err());
        // Nothing was mutated by the failed ops.
        assert_eq!(net.entry_count(), 3);
        assert!(net.entry(ids[0]).is_some());
        // At a sub-1 rate, retrying (which bumps the xid) succeeds.
        net.set_impairments(Impairments::new(2).with_flowmod_failure_rate(0.5));
        let mut failures = 0;
        let installed = loop {
            match net.install(
                SwitchId(0),
                TableId(0),
                FlowEntry::new(t("11111111"), Action::Drop),
            ) {
                Ok(id) => break id,
                Err(e) => {
                    assert!(e.is_transient());
                    failures += 1;
                    assert!(failures < 64, "rate 0.5 must succeed well before 64 tries");
                }
            }
        };
        assert!(net.entry(installed).is_some());
    }

    #[test]
    fn impairments_off_matches_seeded_impairments_struct() {
        let (mut net, _) = line3();
        let baseline = net.inject(SwitchId(0), Header::new(0x0F, 8));
        // A seed without rates is still a no-op.
        net.set_impairments(Impairments::new(12345));
        assert_eq!(net.inject(SwitchId(0), Header::new(0x0F, 8)), baseline);
    }

    #[test]
    fn same_seed_same_losses() {
        let build = || {
            let (mut net, _) = line3();
            net.set_impairments(Impairments::new(7).with_loss_rate(0.3));
            net
        };
        let mut a = build();
        let mut b = build();
        for _ in 0..32 {
            assert_eq!(
                a.inject(SwitchId(0), Header::new(0x2A, 8)),
                b.inject(SwitchId(0), Header::new(0x2A, 8))
            );
            a.advance_ns(500);
            b.advance_ns(500);
        }
    }
}
