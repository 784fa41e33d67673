//! Voro++ — the Voronoi tessellation analysis/visualization of workflow LV.
//!
//! Consumes each streamed LAMMPS snapshot (16 000 atoms) and computes the
//! Voronoi cell of every atom. Tunables (Table 1): `# processes ∈ {2..1085}`,
//! `# processes per node ∈ {1..35}`, `# threads per process ∈ {1..4}`.

use crate::scaling::ScalingModel;
use ceal_sim::{ComponentModel, ParamDef, Placement, Platform, Resolved, Role};

/// Voro++ cost model.
#[derive(Debug, Clone)]
pub struct Voro {
    /// Snapshots a nominal standalone run analyzes.
    pub solo_snapshots: u64,
    /// Compute-time model, per snapshot.
    pub scaling: ScalingModel,
    params: [ParamDef; 3],
}

impl Default for Voro {
    fn default() -> Self {
        Self {
            solo_snapshots: 50,
            scaling: ScalingModel {
                serial_seconds: 16.0,
                serial_fraction: 0.002,
                thread_overhead: 0.3,
                halo_seconds: 0.05,
                msgs_per_step: 2.0,
                mem_intensity: 0.4,
            },
            params: [
                ParamDef::range("voro.procs", 2, 1085),
                ParamDef::range("voro.ppn", 1, 35),
                ParamDef::range("voro.threads", 1, 4),
            ],
        }
    }
}

impl ComponentModel for Voro {
    fn name(&self) -> &str {
        "voro"
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
            role: Role::Sink,
            procs,
            ppn,
            threads,
            compute_per_step: self.scaling.step_time(platform, procs, ppn, threads),
            emit_bytes: 0,
            staging_buffer: None,
            solo_steps: self.solo_snapshots,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_parameter_space() {
        let v = Voro::default();
        let n: u64 = v.params().iter().map(|p| p.n_options()).product();
        assert_eq!(n, 1084 * 35 * 4);
    }

    #[test]
    fn is_a_sink() {
        let r = Voro::default().resolve(&Platform::default(), &[75, 14, 1]);
        assert_eq!(r.role, Role::Sink);
        assert_eq!(r.emit_bytes, 0);
        assert_eq!(r.nodes(), 6);
    }

    #[test]
    fn threads_can_pay_off_on_underpacked_nodes() {
        let v = Voro::default();
        let p = Platform::default();
        let t1 = v.resolve(&p, &[36, 6, 1]).compute_per_step;
        let t4 = v.resolve(&p, &[36, 6, 4]).compute_per_step;
        assert!(t4 < t1);
    }
}
