//! The component applications of the paper's three workflows.
//!
//! Workflows (paper §7.1):
//!
//! * **LV** — LAMMPS molecular dynamics streaming atom positions and
//!   velocities into the Voro++ tessellation analysis.
//! * **HS** — Heat Transfer (2-D heat equation) forwarding simulation state
//!   to Stage Write, which persists it to the parallel filesystem.
//! * **GP** — Gray-Scott reaction-diffusion feeding a PDF calculator and a
//!   G-Plot visualizer, with the PDF output feeding a P-Plot visualizer.
//!
//! Each component implements [`ceal_sim::ComponentModel`]: its tunable
//! parameters follow the paper's Table 1 exactly, and its cost model (built
//! on [`scaling::ScalingModel`]) resolves a parameter choice to concrete
//! runtime behaviour for the simulator. No component runs a real kernel:
//! the simulator is the only coupling model the tuner reads.

#![forbid(unsafe_code)]

pub mod components;
pub mod scaling;
pub mod workflows;

pub use components::{GrayScott, Heat, Lammps, PdfCalc, Plotter, StageWrite, Voro};
pub use scaling::ScalingModel;
pub use workflows::{all_workflows, expert_config, gp, hs, lv, workflow_by_name};
