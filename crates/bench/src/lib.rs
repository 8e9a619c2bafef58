//! # hippo-bench
//!
//! The Hippo paper's demonstration measurements, reproduced as tables:
//! base vs knowledge gathering vs core filter vs query rewriting over
//! database size, conflict rate and query class. See [`experiments`] for
//! the per-table implementations and the root README.md for the index;
//! the `harness` binary prints every table. Numbers that are compared
//! across commits come from `benchmark/`, not from here.

pub mod experiments;
