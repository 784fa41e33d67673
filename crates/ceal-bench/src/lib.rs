//! Experiment harness: regenerates every table and figure of the paper.
//!
//! Run via the `repro` binary:
//!
//! ```text
//! cargo run --release -p ceal-bench --bin repro -- list
//! cargo run --release -p ceal-bench --bin repro -- fig5
//! cargo run --release -p ceal-bench --bin repro -- all
//! ```
//!
//! Each experiment prints the rows/series the paper reports and writes the
//! raw numbers to `results/<id>.json`. The number of repetitions per
//! randomized algorithm (paper: 100) is controlled with `--reps` or the
//! `CEAL_REPS` environment variable.

#![forbid(unsafe_code)]

pub mod agg;
pub mod experiments;
pub mod report;
pub mod scenario;
pub mod tracefile;

pub use agg::{evaluate_runs, AlgoStats};
pub use scenario::{history, scenario, Scenario};
