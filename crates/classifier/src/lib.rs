//! Ternary classifier index for SDNProbe.
//!
//! This crate provides [`TernaryTrie`], a priority-aware trie over
//! `{0, 1, x}` bit patterns in the style of VeriFlow's multi-dimensional
//! prefix trie (see also "Forwarding Tables Verification through
//! Representative Header Sets", arXiv:1601.07002). It answers the two
//! queries that dominate SDNProbe's running time:
//!
//! - **`lookup`**: the highest-priority pattern matching a concrete
//!   header, with ties broken by lowest id — the data plane's
//!   longest-prefix/priority match, in O(header bits) branch walks
//!   instead of a linear scan over every flow entry.
//! - **`overlaps`**: every stored pattern whose header set intersects a
//!   query pattern — the candidate set for rule-graph edge construction,
//!   without pairwise intersection over all co-located rules.
//!
//! Patterns are passed as raw `(care, value)` bit masks so the crate
//! stays dependency-free: bit `k` of `care` set means position `k` is
//! fixed to bit `k` of `value`; clear means wildcard. This is exactly the representation of
//! `sdnprobe_headerspace::Ternary`, whose `care_mask()` / `value_bits()`
//! accessors feed straight in.
//!
//! # Example
//!
//! ```
//! use sdnprobe_classifier::TernaryTrie;
//!
//! let mut trie = TernaryTrie::new();
//! // "001xxxxx" (bit 0 first): care = 0b0000_0111, value = 0b0000_0100.
//! trie.insert(7, 0b0000_0111, 0b0000_0100, 1, 8);
//! // "0010xxxx", higher priority.
//! trie.insert(9, 0b0000_1111, 0b0000_0100, 2, 8);
//! // Header 00101000 matches both; priority 2 wins.
//! assert_eq!(trie.lookup(0b0001_0100), Some(9));
//! // Overlap query "0011xxxx" intersects only the 001xxxxx rule.
//! assert_eq!(trie.overlaps(0b0000_1111, 0b0000_1100), vec![7]);
//! ```

#![warn(missing_docs)]

mod trie;

pub use trie::TernaryTrie;
