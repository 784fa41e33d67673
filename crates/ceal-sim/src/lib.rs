//! In-situ workflow simulator — the stand-in for the paper's 600-node
//! Broadwell/Omni-Path testbed.
//!
//! The auto-tuner under study only ever observes the mapping
//! *configuration → (execution time, computer time)*. What this substrate
//! must therefore reproduce is not LAMMPS physics but the *shape* of that
//! mapping for coupled applications:
//!
//! * component applications run **concurrently** and exchange data through
//!   bounded staging buffers — a slow consumer back-pressures its producer
//!   (the run-time synchronization of paper §2.3);
//! * concurrent data streams **contend for network bandwidth**
//!   (processor-sharing fluid-flow model);
//! * oversubscribing cores or packing too many processes per node inflates
//!   compute time (handled by the component cost models in `ceal-apps`);
//! * solo runs of a component — used to train the paper's component models
//!   — see none of the coupling effects, which is exactly the systematic
//!   error of the low-fidelity model that CEAL's bootstrapping exploits.
//!
//! Entry points: [`Simulator::run`] for a coupled workflow run and
//! [`Simulator::run_solo`] for a standalone component run.

#![forbid(unsafe_code)]

pub mod bounds;
pub mod config;
pub mod engine;
pub mod noise;
pub mod platform;
pub mod posthoc;
pub mod result;
pub mod solo;
pub mod spec;

pub use config::ParamDef;
pub(crate) use engine::emit_cost as engine_emit_cost;
pub use engine::SimError;
pub use platform::Platform;
pub use result::{ComponentStats, Objective, RunResult, SoloResult};
pub use spec::{ComponentModel, Placement, Resolved, Role, WorkflowSpec};

/// Facade over the coupled and solo simulation paths.
///
/// ```
/// use ceal_sim::{
///     ComponentModel, ParamDef, Placement, Platform, Resolved, Role, Simulator, WorkflowSpec,
/// };
/// use std::sync::Arc;
///
/// // Both components fill nodes of 36 cores.
/// fn packed(values: &[i64]) -> Placement {
///     let procs = values[0] as u64;
///     Placement { procs, ppn: procs.min(36) }
/// }
///
/// // A one-parameter source emitting ten 1 MiB snapshots.
/// struct Sim;
/// impl ComponentModel for Sim {
///     fn name(&self) -> &str { "sim" }
///     fn params(&self) -> &[ParamDef] {
///         const P: [ParamDef; 1] = [ParamDef::range("procs", 1, 64)];
///         &P
///     }
///     fn placement(&self, _p: &Platform, values: &[i64]) -> Placement { packed(values) }
///     fn resolve(&self, p: &Platform, values: &[i64]) -> Resolved {
///         let Placement { procs, ppn } = self.placement(p, values);
///         Resolved {
///             role: Role::Source { steps: 100, emit_interval: 10 },
///             procs, ppn, threads: 1,
///             compute_per_step: 1.0 / procs as f64,
///             emit_bytes: 1 << 20, staging_buffer: None, solo_steps: 10,
///         }
///     }
/// }
/// struct Viz;
/// impl ComponentModel for Viz {
///     fn name(&self) -> &str { "viz" }
///     fn params(&self) -> &[ParamDef] {
///         const P: [ParamDef; 1] = [ParamDef::range("procs", 1, 64)];
///         &P
///     }
///     fn placement(&self, _p: &Platform, values: &[i64]) -> Placement { packed(values) }
///     fn resolve(&self, p: &Platform, values: &[i64]) -> Resolved {
///         let Placement { procs, ppn } = self.placement(p, values);
///         Resolved {
///             role: Role::Sink, procs, ppn, threads: 1,
///             compute_per_step: 0.5 / procs as f64,
///             emit_bytes: 0, staging_buffer: None, solo_steps: 10,
///         }
///     }
/// }
///
/// let workflow = WorkflowSpec {
///     name: "demo".into(),
///     components: vec![Arc::new(Sim), Arc::new(Viz)],
///     edges: vec![(0, 1)],
///     max_nodes: 32,
/// };
/// let run = Simulator::noiseless().run(&workflow, &[8, 2], 0).unwrap();
/// assert!(run.exec_time >= 100.0 / 8.0); // bounded by the source's busy time
/// assert_eq!(run.components[0].emissions, 10);
/// ```
#[derive(Debug, Clone)]
pub struct Simulator {
    /// Hardware model used for every run.
    pub platform: Platform,
    /// Log-space standard deviation of multiplicative measurement noise
    /// (0 disables noise).
    pub noise_sigma: f64,
}

impl Simulator {
    /// Creates a simulator with the default platform and a small amount of
    /// run-to-run noise (matching the paper's observation that real
    /// measurements are averaged to suppress interference).
    pub fn new() -> Self {
        Self {
            platform: Platform::default(),
            noise_sigma: 0.02,
        }
    }

    /// Creates a noise-free simulator (useful in tests).
    pub fn noiseless() -> Self {
        Self {
            platform: Platform::default(),
            noise_sigma: 0.0,
        }
    }

    /// Runs the coupled in-situ workflow with the full configuration vector
    /// `config` (concatenated per-component parameter values).
    pub fn run(
        &self,
        spec: &WorkflowSpec,
        config: &[i64],
        seed: u64,
    ) -> Result<RunResult, SimError> {
        engine::simulate(&self.platform, spec, config, seed, self.noise_sigma)
    }

    /// Runs the workflow post-hoc (file-based, Fig. 2a): stages execute
    /// sequentially through the filesystem instead of streaming.
    pub fn run_posthoc(
        &self,
        spec: &WorkflowSpec,
        config: &[i64],
        seed: u64,
    ) -> Result<RunResult, SimError> {
        posthoc::simulate_posthoc(&self.platform, spec, config, seed, self.noise_sigma)
    }

    /// Runs component `comp_idx` of `spec` standalone with its parameter
    /// slice `values` (solo mode: no coupling, unconstrained staging sink).
    pub fn run_solo(
        &self,
        spec: &WorkflowSpec,
        comp_idx: usize,
        values: &[i64],
        seed: u64,
    ) -> Result<SoloResult, SimError> {
        solo::simulate_solo(
            &self.platform,
            spec,
            comp_idx,
            values,
            seed,
            self.noise_sigma,
        )
    }
}

impl Default for Simulator {
    fn default() -> Self {
        Self::new()
    }
}
