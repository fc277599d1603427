//! # EulerFD — Efficient Double-Cycle Approximation of Functional Dependencies
//!
//! A from-scratch Rust implementation of the EulerFD algorithm (Lin et al.,
//! ICDE 2023): approximate discovery of non-trivial minimal functional
//! dependencies on large relations, built from four modules —
//! preprocessing, adaptive sampling (MLFQ + sliding window), negative-cover
//! construction, and inversion — wired into a double-cycle structure whose
//! two growth-rate thresholds trade accuracy for runtime.
//!
//! ## Quickstart
//!
//! ```
//! use eulerfd::EulerFd;
//! use fd_relation::{synth, FdAlgorithm};
//!
//! // Table I of the paper: the nine-patient example relation.
//! let relation = synth::patient();
//! let fds = EulerFd::new().discover(&relation);
//!
//! // "Age, Blood pressure → Medicine" (Example 1) is discovered…
//! let ab_m = fd_core::Fd::new(fd_core::AttrSet::from_attrs([1u16, 2]), 4);
//! assert!(fds.contains(&ab_m));
//! // …and every answer is a non-trivial minimal cover.
//! assert!(fds.is_minimal_cover());
//! ```
//!
//! ## Tuning
//!
//! [`EulerFdConfig`] exposes the paper's knobs: the two thresholds
//! `Th_Ncover` / `Th_Pcover` (Section V-F, default 0.01 each) and the MLFQ
//! queue count (Section V-E, default 6, ranges per Table IV). Lower
//! thresholds sample more and approach the exact result; with both at 0 the
//! algorithm degenerates to exhaustive induction.
//!
//! ```
//! use eulerfd::{EulerFd, EulerFdConfig};
//! use fd_core::Budget;
//! use fd_relation::synth;
//!
//! let fast = EulerFd::with_config(EulerFdConfig::with_thresholds(0.1, 0.1));
//! let accurate = EulerFd::with_config(EulerFdConfig::with_thresholds(0.0, 0.0));
//! let relation = synth::dataset_spec("abalone").unwrap().generate(500);
//! let (_, fast_report) = fast.discover_budgeted(&relation, &Budget::unlimited());
//! let (_, accurate_report) = accurate.discover_budgeted(&relation, &Budget::unlimited());
//! assert!(fast_report.sampler.pairs_compared <= accurate_report.sampler.pairs_compared);
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod driver;
pub mod incremental;
pub mod mlfq;
pub mod sampler;

pub use config::{mlfq_ranges, EulerFdConfig};
pub use driver::{EulerFd, EulerFdReport};
pub use incremental::{DeltaEngine, DeltaReport, DeltaStats};
pub use mlfq::{ClusterId, Mlfq};
pub use sampler::{Sampler, SamplerStats};
