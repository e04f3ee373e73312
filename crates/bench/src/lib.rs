//! # bench — experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (Sections 4
//! and 5) against the simulated substrates. The `repro` binary drives the
//! experiments in this library; `benchmark/` at the repository root times
//! the same user calls.
//!
//! Per-experiment mapping (see also DESIGN.md):
//!
//! | Paper artifact | Function |
//! |---|---|
//! | Table 1 (class distribution) | [`scopus_exp::table1`] |
//! | Table 2 (transformed item) | [`scopus_exp::table2`] |
//! | Figure 3 (training time) | [`scopus_exp::figure3`] |
//! | Figure 4 (deployment time) | [`scopus_exp::figure4`] |
//! | Figure 5 (feature growth, 3 scenarios) | [`scopus_exp::figure5`] |
//! | Figure 6 (inference time) | [`scopus_exp::figure6`] |
//! | Table 3 (global explanation) | [`scopus_exp::table3`] |
//! | Table 4 (local explanation) | [`scopus_exp::table4`] |
//! | §5.1 (dense storage blow-up) | [`madlib_exp::storage_comparison`] |
//! | §5.2 (runtimes vs MADlib) | [`madlib_exp::runtimes`] |
//! | Table 5 (precision/recall/F1) | [`madlib_exp::table5`] |
//! | §5.3 (20NG/R8/R52 accuracy) | [`text_exp::accuracies`] |

#![forbid(unsafe_code)]

pub mod chart;
pub mod harness;
pub mod madlib_exp;
pub mod scopus_exp;
pub mod text_exp;

pub use harness::{time_it, Report, Table};
