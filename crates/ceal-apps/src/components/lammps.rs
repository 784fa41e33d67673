//! LAMMPS — the molecular-dynamics producer of workflow LV.
//!
//! The paper's sample run simulates 16 000 atoms and streams position and
//! velocity data to the tessellation analysis. Tunables (Table 1):
//! `# processes ∈ {2..1085}`, `# processes per node ∈ {1..35}`,
//! `# threads per process ∈ {1..4}`.

use crate::scaling::ScalingModel;
use ceal_sim::{ComponentModel, ParamDef, Placement, Platform, Resolved, Role};

/// LAMMPS cost model.
#[derive(Debug, Clone)]
pub struct Lammps {
    /// Atoms simulated.
    pub atoms: u64,
    /// MD timesteps.
    pub steps: u64,
    /// Timesteps between streamed snapshots.
    pub emit_interval: u64,
    /// Compute-time model.
    pub scaling: ScalingModel,
    params: [ParamDef; 3],
}

impl Default for Lammps {
    fn default() -> Self {
        Self {
            atoms: 16_000,
            steps: 500,
            emit_interval: 10,
            scaling: ScalingModel {
                serial_seconds: 12.0,
                serial_fraction: 0.0005,
                thread_overhead: 0.25,
                halo_seconds: 0.08,
                msgs_per_step: 4.0,
                mem_intensity: 0.35,
            },
            params: [
                ParamDef::range("lammps.procs", 2, 1085),
                ParamDef::range("lammps.ppn", 1, 35),
                ParamDef::range("lammps.threads", 1, 4),
            ],
        }
    }
}

impl Lammps {
    /// Bytes per streamed snapshot: positions + velocities, 3 doubles each.
    fn snapshot_bytes(&self) -> u64 {
        self.atoms * 6 * 8
    }
}

impl ComponentModel for Lammps {
    fn name(&self) -> &str {
        "lammps"
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
        let threads = values[2] as u64;
        Resolved {
            role: Role::Source {
                steps: self.steps,
                emit_interval: self.emit_interval,
            },
            procs,
            ppn,
            threads,
            compute_per_step: self.scaling.step_time(platform, procs, ppn, threads),
            emit_bytes: self.snapshot_bytes(),
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
        let l = Lammps::default();
        let n: u64 = l.params().iter().map(|p| p.n_options()).product();
        assert_eq!(n, 1084 * 35 * 4);
    }

    #[test]
    fn snapshot_is_position_plus_velocity() {
        assert_eq!(Lammps::default().snapshot_bytes(), 16_000 * 48);
    }

    #[test]
    fn resolve_places_processes() {
        let l = Lammps::default();
        let r = l.resolve(&Platform::default(), &[561, 25, 1]);
        assert_eq!(r.nodes(), 23);
        assert_eq!(r.source_emissions(), 50);
        assert!(r.compute_per_step > 0.0);
    }

    #[test]
    fn more_processes_shorten_steps_in_scaling_regime() {
        let l = Lammps::default();
        let p = Platform::default();
        let slow = l.resolve(&p, &[8, 8, 1]).compute_per_step;
        let fast = l.resolve(&p, &[512, 16, 1]).compute_per_step;
        assert!(fast < slow / 10.0, "should scale well: {fast} vs {slow}");
    }
}
