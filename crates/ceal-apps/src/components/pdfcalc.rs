//! PDF calculator — the analysis transform of workflow GP.
//!
//! Computes per-slice probability density functions (histograms) of each
//! Gray-Scott frame and streams the compact result to P-Plot. Tunables
//! (Table 1): `# processes ∈ {1..512}`, `# processes per node ∈ {1..35}`.

use crate::scaling::ScalingModel;
use ceal_sim::{ComponentModel, ParamDef, Placement, Platform, Resolved, Role};

/// PDF calculator cost model.
#[derive(Debug, Clone)]
pub struct PdfCalc {
    /// Histogram bins per slice.
    pub bins: u64,
    /// Slices per frame (one per plane of the cubic grid).
    pub slices: u64,
    /// Frames a nominal standalone run processes.
    pub solo_frames: u64,
    /// Compute-time model per frame.
    pub scaling: ScalingModel,
    params: [ParamDef; 2],
}

impl Default for PdfCalc {
    fn default() -> Self {
        Self {
            bins: 4096,
            slices: 256,
            solo_frames: 50,
            scaling: ScalingModel {
                serial_seconds: 12.0,
                serial_fraction: 0.001,
                thread_overhead: 0.0,
                halo_seconds: 0.02,
                msgs_per_step: 2.0,
                mem_intensity: 0.3,
            },
            params: [
                ParamDef::range("pdf.procs", 1, 512),
                ParamDef::range("pdf.ppn", 1, 35),
            ],
        }
    }
}

impl PdfCalc {
    /// Bytes per streamed PDF result: `slices × bins` doubles.
    fn pdf_bytes(&self) -> u64 {
        self.slices * self.bins * 8
    }
}

impl ComponentModel for PdfCalc {
    fn name(&self) -> &str {
        "pdf-calc"
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
            role: Role::Transform,
            procs,
            ppn,
            threads: 1,
            compute_per_step: self.scaling.step_time(platform, procs, ppn, 1),
            emit_bytes: self.pdf_bytes(),
            staging_buffer: None,
            solo_steps: self.solo_frames,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_parameter_space() {
        let c = PdfCalc::default();
        let n: u64 = c.params().iter().map(|p| p.n_options()).product();
        assert_eq!(n, 512 * 35);
    }

    #[test]
    fn output_is_much_smaller_than_input() {
        let c = PdfCalc::default();
        // 8 MiB PDFs versus 128 MiB frames: the data-reduction pattern of
        // in-situ analysis.
        assert_eq!(c.pdf_bytes(), 8_388_608);
        assert!(c.pdf_bytes() < crate::GrayScott::default().frame_bytes() / 10);
    }

    #[test]
    fn is_a_transform() {
        let r = PdfCalc::default().resolve(&Platform::default(), &[41, 22]);
        assert_eq!(r.role, Role::Transform);
        assert_eq!(r.nodes(), 2);
    }
}
