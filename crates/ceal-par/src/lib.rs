//! Parallel-execution substrate for the CEAL reproduction.
//!
//! The auto-tuner measures batches of workflow configurations, the ML crate
//! searches tree splits across features, and the experiment harness repeats
//! randomized algorithm runs hundreds of times — all embarrassingly parallel
//! workloads. This crate provides the small set of primitives they share:
//!
//! * [`ThreadPool`] — a fixed-size work-sharing pool over one mutex-guarded
//!   queue, for long-lived background execution.
//! * [`parallel_map`] — scoped fork-join over a slice (no `'static` bound
//!   on the closure or data), chunked to amortize spawn cost.
//! * [`sync`] — `std::sync` locks that hand back a poisoned lock's guard,
//!   so a contained panic never locks the service out of its state.
//!
//! Everything here is deterministic in *results*: `parallel_map` returns
//! outputs in input order regardless of scheduling.

#![forbid(unsafe_code)]

mod pool;
mod scope;
pub mod sync;

pub use pool::{ThreadPool, WaitGroup};
pub use scope::{available_threads, parallel_map};
