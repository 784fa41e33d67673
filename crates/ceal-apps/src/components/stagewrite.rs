//! Stage Write — the I/O forwarding consumer of workflow HS.
//!
//! Receives each Heat Transfer state emission and writes it to the parallel
//! filesystem. Tunables (Table 1): `# processes ∈ {2..1085}`,
//! `# processes per node ∈ {1..35}`.
//!
//! Write time per emission follows a saturating-bandwidth model: each
//! writer process drives [`ceal_sim::Platform::fs_per_proc_bandwidth`]
//! until the aggregate filesystem bandwidth saturates, plus a fixed
//! open/metadata overhead and a coordination cost that grows with writer
//! count (matching the well-known "too many writers" collapse of parallel
//! filesystems).

use ceal_sim::{ComponentModel, ParamDef, Placement, Platform, Resolved, Role};

/// Stage Write cost model.
#[derive(Debug, Clone)]
pub struct StageWrite {
    /// Bytes written per received emission (the Heat state).
    pub bytes_per_output: u64,
    /// Emissions a nominal standalone run writes.
    pub solo_outputs: u64,
    /// Coordination/lock cost per writer process per emission, seconds.
    pub coord_per_proc: f64,
    params: [ParamDef; 2],
}

impl Default for StageWrite {
    fn default() -> Self {
        Self {
            bytes_per_output: 2048 * 2048 * 8,
            solo_outputs: 16,
            coord_per_proc: 2.0e-4,
            params: [
                ParamDef::range("sw.procs", 2, 1085),
                ParamDef::range("sw.ppn", 1, 35),
            ],
        }
    }
}

impl StageWrite {
    /// Seconds to persist one emission with `procs` writers.
    fn write_time(&self, platform: &Platform, procs: u64) -> f64 {
        let rate = platform
            .fs_bandwidth
            .min(procs as f64 * platform.fs_per_proc_bandwidth);
        platform.fs_open_overhead
            + self.bytes_per_output as f64 / rate
            + self.coord_per_proc * procs as f64
    }
}

impl ComponentModel for StageWrite {
    fn name(&self) -> &str {
        "stage-write"
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
            role: Role::Sink,
            procs,
            ppn,
            threads: 1,
            compute_per_step: self.write_time(platform, procs),
            emit_bytes: 0,
            staging_buffer: None,
            solo_steps: self.solo_outputs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_parameter_space() {
        let s = StageWrite::default();
        let n: u64 = s.params().iter().map(|p| p.n_options()).product();
        assert_eq!(n, 1084 * 35);
    }

    #[test]
    fn write_time_is_u_shaped_in_writers() {
        let s = StageWrite::default();
        let p = Platform::default();
        let few = s.write_time(&p, 2);
        let mid = s.write_time(&p, 20);
        let many = s.write_time(&p, 1000);
        assert!(mid < few, "more writers should help below saturation");
        assert!(many > mid, "writer coordination should eventually dominate");
    }

    #[test]
    fn bandwidth_saturates_at_fs_limit() {
        let s = StageWrite::default();
        let p = Platform::default();
        // Beyond saturation only the coordination term grows.
        let t15 = s.write_time(&p, 15) - s.coord_per_proc * 15.0;
        let t30 = s.write_time(&p, 30) - s.coord_per_proc * 30.0;
        assert!((t15 - t30).abs() < 1e-12);
    }
}
