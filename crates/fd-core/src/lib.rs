//! Core functional-dependency machinery shared by every discovery algorithm
//! in the EulerFD reproduction: attribute bitsets, FD types, negative and
//! positive covers with their tree-backed stores, the generic inversion
//! operation, and accuracy metrics.
//!
//! The crate is deliberately data-free — it knows nothing about relations,
//! CSV files, or partitions (see `fd-relation` for those) — so that the cover
//! algebra can be tested exhaustively in isolation.
//!
//! # Quick tour
//!
//! ```
//! use fd_core::{AttrSet, Fd, NCover, invert_ncover};
//!
//! // Two sampled tuple pairs agreed on {0,1} and {1,2} of a 4-column schema.
//! let mut ncover = NCover::new(4);
//! ncover.add_agree_set(AttrSet::from_attrs([0u16, 1]));
//! ncover.add_agree_set(AttrSet::from_attrs([1u16, 2]));
//!
//! // Invert the non-FDs into minimal FD candidates.
//! let pcover = invert_ncover(&ncover);
//! let fds = pcover.to_fdset();
//! assert!(fds.is_minimal_cover());
//! // {0,1} ↛ 2 was observed, so 2 cannot depend on {0,1} alone...
//! assert!(!pcover.covers(&Fd::new(AttrSet::from_attrs([0u16, 1]), 2)));
//! // ...but {0,3} → 2 is still a candidate.
//! assert!(pcover.covers(&Fd::new(AttrSet::from_attrs([0u16, 3]), 2)));
//! ```

#![warn(missing_docs)]
// Library code reports failures through `DiscoveryError` / partial results;
// unwraps are confined to test code.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod agree_table;
pub mod attrset;
pub mod budget;
pub mod closure;
pub mod cover;
pub mod error;
pub mod fd;
pub mod hash;
pub mod isolate;
pub mod lhs_tree;
pub mod metrics;
mod non_fd_tree;
pub mod parallel;

pub use agree_table::AgreeSetTable;
pub use attrset::{AttrId, AttrSet, ATTR_WORDS, MAX_ATTRS};
pub use budget::{Budget, CancelToken, Termination, Watchdog};
pub use error::DiscoveryError;
pub use closure::{bcnf_violations, candidate_keys, closure, equivalent, implies, non_redundant_cover};
pub use cover::{invert_ncover, ExtensionIndex, InvertDelta, NCover, PCover};
pub use fd::{Fd, FdSet};
pub use hash::{FastHashMap, FastHashSet, FxHasher};
pub use isolate::{is_transient_panic, isolate};
pub use lhs_tree::LhsTree;
pub use metrics::Accuracy;
pub use parallel::{available_cores, clamp_threads, decide, fan_out_stealing, StealStats};
