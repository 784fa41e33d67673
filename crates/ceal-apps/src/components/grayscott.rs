//! Gray-Scott — the reaction-diffusion producer of workflow GP.
//!
//! Simulates the two-species Gray-Scott system on a 3-D grid and streams
//! the `u` field to both the PDF calculator and the G-Plot visualizer.
//! Tunables (Table 1): `# processes ∈ {2..1085}`,
//! `# processes per node ∈ {1..35}`.

use crate::scaling::ScalingModel;
use ceal_sim::{ComponentModel, ParamDef, Placement, Platform, Resolved, Role};

/// Gray-Scott cost model.
#[derive(Debug, Clone)]
pub struct GrayScott {
    /// Grid points per side (cubic grid).
    pub grid: u64,
    /// Simulation steps.
    pub steps: u64,
    /// Steps between streamed frames.
    pub emit_interval: u64,
    /// Compute-time model per step.
    pub scaling: ScalingModel,
    params: [ParamDef; 2],
}

impl Default for GrayScott {
    fn default() -> Self {
        Self {
            grid: 256,
            steps: 200,
            emit_interval: 4,
            scaling: ScalingModel {
                serial_seconds: 25.0,
                serial_fraction: 0.0004,
                thread_overhead: 0.0,
                halo_seconds: 0.1,
                msgs_per_step: 6.0,
                mem_intensity: 0.25,
            },
            params: [
                ParamDef::range("gs.procs", 2, 1085),
                ParamDef::range("gs.ppn", 1, 35),
            ],
        }
    }
}

impl GrayScott {
    /// Bytes per streamed frame: the `u` field as f64.
    pub(crate) fn frame_bytes(&self) -> u64 {
        self.grid * self.grid * self.grid * 8
    }
}

impl ComponentModel for GrayScott {
    fn name(&self) -> &str {
        "gray-scott"
    }

    fn params(&self) -> &[ParamDef] {
        &self.params
    }

    fn placement(&self, _platform: &Platform, values: &[i64]) -> Placement {
        Placement {
            procs: values[0] as u64,
            ppn: values[1] as u64,
        }
    }

    fn resolve(&self, platform: &Platform, values: &[i64]) -> Resolved {
        let Placement { procs, ppn } = self.placement(platform, values);
        Resolved {
            role: Role::Source {
                steps: self.steps,
                emit_interval: self.emit_interval,
            },
            procs,
            ppn,
            threads: 1,
            compute_per_step: self.scaling.step_time(platform, procs, ppn, 1),
            emit_bytes: self.frame_bytes(),
            staging_buffer: None,
            solo_steps: self.steps / self.emit_interval,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_parameter_space() {
        let g = GrayScott::default();
        let n: u64 = g.params().iter().map(|p| p.n_options()).product();
        assert_eq!(n, 1084 * 35);
    }

    #[test]
    fn frames_are_large() {
        // 256³ doubles = 128 MiB per frame: streaming them post-hoc through
        // the filesystem is exactly what in-situ coupling avoids.
        assert_eq!(GrayScott::default().frame_bytes(), 134_217_728);
    }

    #[test]
    fn emits_fifty_frames() {
        let r = GrayScott::default().resolve(&Platform::default(), &[175, 13]);
        assert_eq!(r.source_emissions(), 50);
        assert_eq!(r.nodes(), 14);
    }
}
