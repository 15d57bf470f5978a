//! OpenFlow-style data-plane simulator for the SDNProbe reproduction.
//!
//! This crate stands in for the paper's Mininet + Open vSwitch + Ryu
//! emulation stack (§VIII): multi-table switch pipelines with priority
//! matching, set-field rewriting, goto-table, controller punting — plus
//! the paper's full switch failure model (§III-B): drop / modify /
//! misdirect faults with persistent, intermittent, or targeting
//! activation, and colluding detours. The *error-prone environment*
//! itself is modeled by a seeded deterministic [`Impairments`] layer:
//! benign per-link packet loss, controller-channel loss, and transient
//! flow-mod failures, all off by default.
//!
//! Forwarding a packet yields a [`ForwardingTrace`]: ground truth for
//! evaluation. A controller implementation may only consume
//! [`ForwardingTrace::observation`] — the packet-in a real controller
//! would see.
//!
//! # Quick start
//!
//! ```
//! use sdnprobe_dataplane::{Action, FlowEntry, Network, TableId};
//! use sdnprobe_headerspace::Header;
//! use sdnprobe_topology::{SwitchId, Topology};
//!
//! let mut topo = Topology::new(2);
//! topo.add_link(SwitchId(0), SwitchId(1));
//! let mut net = Network::new(topo);
//! let port = net.topology().port_towards(SwitchId(0), SwitchId(1)).unwrap();
//! net.install(SwitchId(0), TableId(0),
//!     FlowEntry::new("xxxxxxxx".parse()?, Action::Output(port)))?;
//! net.install(SwitchId(1), TableId(0),
//!     FlowEntry::new("xxxxxxxx".parse()?, Action::ToController))?;
//! let trace = net.inject(SwitchId(0), Header::new(7, 8));
//! assert!(trace.observation().is_some());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod fault;
mod flow;
mod impairments;
mod network;
mod table;

pub use fault::{Activation, FaultKind, FaultSpec};
pub use flow::{Action, EntryId, FlowEntry, TableId};
pub use impairments::Impairments;
pub use network::{
    EntryLocation, ForwardingTrace, Network, NetworkError, Outcome, Route, TraceStep,
};
pub use table::FlowTable;
