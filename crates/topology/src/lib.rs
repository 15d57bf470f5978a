//! Network topologies for the SDNProbe reproduction.
//!
//! Provides the switch-level topology model shared by the data-plane
//! simulator and the rule-graph construction, plus the generators and
//! path algorithms the paper's evaluation methodology requires:
//! Rocketfuel-like random router topologies and the K-shortest paths
//! behind the paper's all-pairs flow-rule synthesis (§VIII).
//!
//! # Quick start
//!
//! ```
//! use sdnprobe_topology::{generate, paths, SwitchId};
//!
//! let topo = generate::rocketfuel_like(10, 15, 42);
//! let routes = paths::k_shortest_paths(&topo, SwitchId(0), SwitchId(9), 3);
//! assert!(!routes.is_empty());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod generate;
mod graph;
pub mod paths;

pub use graph::{Link, Neighbor, PortId, SwitchId, Topology};
