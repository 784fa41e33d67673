//! G-Plot and P-Plot — the non-configurable visualizers of workflow GP.
//!
//! Both run on a single process (Table 1 lists `# processes = 1` as their
//! only, fixed, option). G-Plot renders each Gray-Scott frame and is the
//! serial bottleneck of GP: the paper reports that many GP configurations
//! have execution times close to G-Plot alone, 97.0 s (50 frames × 1.94 s
//! here). P-Plot renders each PDF result and is much cheaper.

use ceal_sim::{ComponentModel, ParamDef, Placement, Platform, Resolved, Role};

/// A fixed single-process plotter consuming one stream.
#[derive(Debug, Clone)]
pub struct Plotter {
    name: &'static str,
    /// Seconds to render one received emission.
    pub seconds_per_frame: f64,
    /// Frames a nominal standalone run renders.
    pub solo_frames: u64,
    params: [ParamDef; 1],
}

impl Plotter {
    fn new(name: &'static str, param: &'static str, seconds_per_frame: f64) -> Self {
        Self {
            name,
            seconds_per_frame,
            solo_frames: 50,
            params: [ParamDef::fixed(param, 1)],
        }
    }

    /// G-Plot: renders Gray-Scott frames (1.94 s each; 50 frames ≈ 97 s
    /// solo, matching the paper's reported bottleneck).
    pub fn gplot() -> Self {
        Self::new("g-plot", "gplot.procs", 1.94)
    }

    /// P-Plot: renders PDF results (0.35 s each).
    pub fn pplot() -> Self {
        Self::new("p-plot", "pplot.procs", 0.35)
    }
}

impl ComponentModel for Plotter {
    fn name(&self) -> &str {
        self.name
    }

    fn params(&self) -> &[ParamDef] {
        &self.params
    }

    fn placement(&self, _platform: &Platform, _values: &[i64]) -> Placement {
        Placement { procs: 1, ppn: 1 }
    }

    fn resolve(&self, platform: &Platform, values: &[i64]) -> Resolved {
        let Placement { procs, ppn } = self.placement(platform, values);
        Resolved {
            role: Role::Sink,
            procs,
            ppn,
            threads: 1,
            compute_per_step: self.seconds_per_frame,
            emit_bytes: 0,
            staging_buffer: None,
            solo_steps: self.solo_frames,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plotters_are_fixed_single_process() {
        for p in [Plotter::gplot(), Plotter::pplot()] {
            assert_eq!(p.params().len(), 1);
            assert_eq!(p.params()[0].n_options(), 1);
            let r = p.resolve(&Platform::default(), &[1]);
            assert_eq!(r.procs, 1);
            assert_eq!(r.nodes(), 1);
        }
    }

    #[test]
    fn gplot_solo_matches_paper_bottleneck() {
        let p = Plotter::gplot();
        let solo = p.solo_frames as f64 * p.seconds_per_frame;
        assert!(
            (solo - 97.0).abs() < 0.01,
            "G-Plot solo should be 97 s, got {solo}"
        );
    }

    #[test]
    fn pplot_is_cheap() {
        assert!(Plotter::pplot().seconds_per_frame < Plotter::gplot().seconds_per_frame / 5.0);
    }
}
