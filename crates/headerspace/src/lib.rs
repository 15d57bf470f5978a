//! Ternary header-space algebra for SDNProbe.
//!
//! This crate implements the header-space machinery of *SDNProbe:
//! Lightweight Fault Localization in the Error-Prone Environment*
//! (ICDCS 2018): packet headers as bitstreams in `{0,1,x}^L`, set-field
//! rewriting `T(h, s)`, header-space sets with intersection and
//! subtraction (needed to resolve overlapping flow entries), and a
//! complete witness solver that replaces the paper's use of MiniSat for
//! finding concrete probe headers.
//!
//! # Quick start
//!
//! ```
//! use sdnprobe_headerspace::{HeaderSet, Ternary, solver::WitnessQuery};
//!
//! // Rule inputs in the paper's Figure 3:
//! let c2_match: Ternary = "001xxxxx".parse()?;
//! let c1_match: Ternary = "00100xxx".parse()?; // higher priority
//! let c2_in = HeaderSet::from(c2_match).subtract_ternary(&c1_match);
//!
//! // Legality of a path is a chain of intersections and set-field
//! // transforms; a path is legal iff the running set stays non-empty.
//! let b2_out = HeaderSet::from("0011xxxx".parse::<Ternary>()?);
//! assert!(!c2_in.intersect(&b2_out).is_empty());
//!
//! // And a concrete probe header avoiding the overlapping rule:
//! let probe = WitnessQuery::new(c2_match).avoid(c1_match).solve();
//! assert!(probe.is_some());
//! # Ok::<(), sdnprobe_headerspace::HeaderSpaceError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod error;
mod header;
mod layout;
mod set;
pub mod solver;
mod termvec;
mod ternary;

pub use error::HeaderSpaceError;
pub use header::Header;
pub use layout::{HeaderLayout, HeaderLayoutBuilder};
pub use set::HeaderSet;
pub use ternary::{Ternary, MAX_BITS};
