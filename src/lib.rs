//! # ceal — in-situ workflow auto-tuning via combined component models
//!
//! A full Rust reproduction of *"Bootstrapping In-situ Workflow Auto-Tuning
//! via Combining Performance Models of Component Applications"* (Shu et al.,
//! SC '21). This facade crate re-exports the workspace:
//!
//! * [`tuner`] (`ceal-core`) — the paper's contribution: configuration
//!   spaces, the analytical coupling model, low/high-fidelity models, the
//!   CEAL algorithm and the RS/AL/GEIST/ALpH comparison algorithms.
//! * [`ml`] (`ceal-ml`) — gradient-boosted trees and friends.
//! * [`sim`] (`ceal-sim`) — the cluster + in-situ workflow simulator that
//!   stands in for the paper's 600-node testbed.
//! * [`apps`] (`ceal-apps`) — the LV / HS / GP workflows and their component
//!   applications (the cost models the simulator resolves).
//! * [`par`] (`ceal-par`) — the parallel-execution substrate.
//! * [`serve`] (`ceal-serve`) — the tuner as a concurrent TCP service:
//!   sessions, a persistent result cache, and batched prediction.
//!
//! See `examples/quickstart.rs` for the five-minute tour.

pub use ceal_apps as apps;
pub use ceal_core as tuner;
pub use ceal_ml as ml;
pub use ceal_par as par;
pub use ceal_serve as serve;
pub use ceal_sim as sim;
