//! SDNProbe: lightweight probe-based fault localization for SDN data
//! planes.
//!
//! A Rust reproduction of *SDNProbe: Lightweight Fault Localization in
//! the Error-Prone Environment* (Ke, Hsiao, Kim — ICDCS 2018). SDNProbe
//! sends a **provably minimized** set of test packets that traverses
//! every forwarding rule in the network (via Minimum Legal Path Cover on
//! the rule graph) and localizes faulty switches by slicing suspected
//! paths and tracking per-rule suspicion levels. The randomized variant
//! re-draws tested paths and headers every round to catch colluding
//! detours and targeting faults.
//!
//! # Quick start
//!
//! ```
//! use sdnprobe::SdnProbe;
//! use sdnprobe_dataplane::{Action, FaultKind, FaultSpec, FlowEntry, Network, TableId};
//! use sdnprobe_topology::{PortId, SwitchId, Topology};
//!
//! // A 3-switch line carrying one flow.
//! let mut topo = Topology::new(3);
//! topo.add_link(SwitchId(0), SwitchId(1));
//! topo.add_link(SwitchId(1), SwitchId(2));
//! let mut net = Network::new(topo);
//! for i in 0..3usize {
//!     let action = if i < 2 {
//!         Action::Output(net.topology().port_towards(SwitchId(i), SwitchId(i + 1)).unwrap())
//!     } else {
//!         Action::Output(PortId(40)) // host-facing egress
//!     };
//!     net.install(SwitchId(i), TableId(0),
//!         FlowEntry::new("00xxxxxx".parse()?, action))?;
//! }
//!
//! // Compromise switch 1 and let SDNProbe find it.
//! let victim = net.entries_on(SwitchId(1))[0];
//! net.inject_fault(victim, FaultSpec::new(FaultKind::Drop))?;
//! let report = SdnProbe::new().detect(&mut net)?;
//! assert_eq!(report.faulty_switches, vec![SwitchId(1)]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod app;
pub mod generation;
mod localize;
mod monitor;
mod parallel;
mod plan;
mod probe;
mod traffic;

pub use app::{DetectError, RandomizedSdnProbe, RandomizedSession, SdnProbe};
pub use generation::{
    generate, generate_randomized_with_cache, generate_weighted_with_cache, generate_with_cache,
};
pub use localize::{accuracy, Accuracy, DetectionReport, FaultLocalizer, ProbeConfig};
pub use monitor::{Monitor, MonitorEvent};
pub use parallel::Parallelism;
pub use plan::{PlannedProbe, TestPlan};
pub use probe::{ActiveProbe, ProbeHarness, RetryPolicy, TeardownError};
pub use sdnprobe_rulegraph::ExpansionCache;
pub use traffic::TrafficProfile;
