//! Heat Transfer — the PDE mini-app producer of workflow HS.
//!
//! Runs the 2-D heat equation on a fixed grid with a `px × py` process
//! decomposition and forwards the full simulation state to Stage Write
//! every `iters / outputs` iterations. Tunables (Table 1):
//! `# processes in X ∈ {2..32}`, `# processes in Y ∈ {2..32}`,
//! `# processes per node ∈ {1..35}`, `# outputs ∈ {4, 8, …, 32}`,
//! `buffer size ∈ {1..40} MB`.
//!
//! The buffer size controls both the staging capacity (small buffers
//! serialize producer and consumer) and the chunking granularity of each
//! 32 MiB state emission (small buffers pay per-chunk overhead) — the two
//! coupling effects the LV workflow does not exhibit, which is why HS has
//! the largest configuration space of the three workflows.

use crate::scaling::ScalingModel;
use ceal_sim::{ComponentModel, ParamDef, Placement, Platform, Resolved, Role};

/// Heat Transfer cost model.
#[derive(Debug, Clone)]
pub struct Heat {
    /// Grid points per side (square grid of f64).
    pub grid: u64,
    /// Total solver iterations.
    pub iters: u64,
    /// Compute-time model per iteration (halo handled separately: it
    /// depends on the decomposition aspect ratio, not just `procs`).
    pub scaling: ScalingModel,
    /// Halo-exchange seconds at a 1×1 decomposition; scales with the
    /// subdomain perimeter `(1/px + 1/py)`.
    pub halo_aspect_seconds: f64,
    params: [ParamDef; 5],
}

impl Default for Heat {
    fn default() -> Self {
        Self {
            grid: 2048,
            iters: 100,
            scaling: ScalingModel {
                serial_seconds: 10.0,
                serial_fraction: 0.0002,
                thread_overhead: 0.0,
                halo_seconds: 0.0, // replaced by the aspect-ratio term
                msgs_per_step: 4.0,
                mem_intensity: 0.45,
            },
            halo_aspect_seconds: 0.04,
            params: [
                ParamDef::range("heat.px", 2, 32),
                ParamDef::range("heat.py", 2, 32),
                ParamDef::range("heat.ppn", 1, 35),
                ParamDef::strided("heat.outputs", 4, 32, 4),
                ParamDef::range("heat.buffer_mb", 1, 40),
            ],
        }
    }
}

impl Heat {
    /// Bytes of one state emission (full f64 grid).
    fn state_bytes(&self) -> u64 {
        self.grid * self.grid * 8
    }
}

impl ComponentModel for Heat {
    fn name(&self) -> &str {
        "heat"
    }

    fn params(&self) -> &[ParamDef] {
        &self.params
    }

    fn placement(&self, _platform: &Platform, values: &[i64]) -> Placement {
        Placement {
            procs: values[0] as u64 * values[1] as u64,
            ppn: values[2] as u64,
        }
    }

    fn resolve(&self, platform: &Platform, values: &[i64]) -> Resolved {
        let Placement { procs, ppn } = self.placement(platform, values);
        let (px, py) = (values[0] as u64, values[1] as u64);
        let outputs = values[3] as u64;
        let buffer = (values[4] as u64) << 20;
        let t_iter = self.scaling.step_time(platform, procs, ppn, 1)
            + self.halo_aspect_seconds * (1.0 / px as f64 + 1.0 / py as f64);
        // One macro-step per output: iters/outputs solver iterations, then
        // one emission.
        let iters_per_output = self.iters as f64 / outputs as f64;
        Resolved {
            role: Role::Source {
                steps: outputs,
                emit_interval: 1,
            },
            procs,
            ppn,
            threads: 1,
            compute_per_step: iters_per_output * t_iter,
            emit_bytes: self.state_bytes(),
            staging_buffer: Some(buffer),
            solo_steps: outputs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_parameter_space() {
        let h = Heat::default();
        let n: u64 = h.params().iter().map(|p| p.n_options()).product();
        // 31 × 31 × 35 × 8 × 40
        assert_eq!(n, 31 * 31 * 35 * 8 * 40);
    }

    #[test]
    fn emission_is_the_grid_state() {
        assert_eq!(Heat::default().state_bytes(), 2048 * 2048 * 8);
    }

    #[test]
    fn square_decomposition_beats_skewed() {
        let h = Heat::default();
        let p = Platform::default();
        let square = h.resolve(&p, &[16, 16, 16, 8, 20]).compute_per_step;
        let skewed = h.resolve(&p, &[32, 8, 16, 8, 20]).compute_per_step;
        assert!(
            square < skewed,
            "aspect penalty missing: {square} !< {skewed}"
        );
    }

    #[test]
    fn fewer_outputs_mean_bigger_macro_steps() {
        let h = Heat::default();
        let p = Platform::default();
        let few = h.resolve(&p, &[8, 8, 16, 4, 20]);
        let many = h.resolve(&p, &[8, 8, 16, 32, 20]);
        assert_eq!(few.source_emissions(), 4);
        assert_eq!(many.source_emissions(), 32);
        // Total compute is identical either way (same iteration count).
        let total_few = few.compute_per_step * 4.0;
        let total_many = many.compute_per_step * 32.0;
        assert!((total_few - total_many).abs() < 1e-9);
    }

    #[test]
    fn buffer_parameter_becomes_staging_capacity() {
        let h = Heat::default();
        let r = h.resolve(&Platform::default(), &[8, 8, 16, 8, 7]);
        assert_eq!(r.staging_buffer, Some(7 << 20));
    }
}
