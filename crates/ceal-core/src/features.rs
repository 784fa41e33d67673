//! Configuration ↔ feature encoding for the ML surrogates.
//!
//! Parameter values are min-max normalized per parameter so tree splits and
//! distance computations (k-NN, GEIST's parameter graph) see comparable
//! scales across parameters whose raw ranges differ by three orders of
//! magnitude (`procs ∈ 2..1085` vs `threads ∈ 1..4`).

use ceal_sim::{ParamDef, WorkflowSpec};

/// Encodes integer configurations of one workflow as normalized f64 rows.
#[derive(Debug, Clone)]
pub struct FeatureMap {
    params: Vec<ParamDef>,
}

impl FeatureMap {
    /// Builds the feature map for a workflow's full parameter vector.
    pub fn for_workflow(spec: &WorkflowSpec) -> Self {
        Self {
            params: spec.all_params(),
        }
    }

    /// Builds a feature map over an explicit parameter list (used for
    /// per-component models).
    pub fn for_params(params: &[ParamDef]) -> Self {
        Self {
            params: params.to_vec(),
        }
    }

    /// Feature dimensionality.
    pub fn n_features(&self) -> usize {
        self.params.len()
    }

    /// The parameter definitions, in feature order.
    pub fn params(&self) -> &[ParamDef] {
        &self.params
    }

    /// Encodes one configuration.
    ///
    /// # Panics
    /// Panics on arity mismatch.
    pub fn encode(&self, config: &[i64]) -> Vec<f64> {
        assert_eq!(
            config.len(),
            self.params.len(),
            "configuration arity mismatch"
        );
        config
            .iter()
            .zip(&self.params)
            .map(|(&v, p)| {
                let span = (p.hi - p.lo) as f64;
                if span == 0.0 {
                    0.0
                } else {
                    (v - p.lo) as f64 / span
                }
            })
            .collect()
    }

    /// Normalized Euclidean distance between two configurations.
    pub fn distance(&self, a: &[i64], b: &[i64]) -> f64 {
        let ea = self.encode(a);
        let eb = self.encode(b);
        ea.iter()
            .zip(&eb)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceal_apps::lv;

    #[test]
    fn normalizes_to_unit_range() {
        let fm = FeatureMap::for_workflow(&lv());
        let lo = fm.encode(&[2, 1, 1, 2, 1, 1]);
        let hi = fm.encode(&[1085, 35, 4, 1085, 35, 4]);
        assert!(lo.iter().all(|&x| x == 0.0));
        assert!(hi.iter().all(|&x| (x - 1.0).abs() < 1e-12));
    }

    #[test]
    fn fixed_params_encode_to_zero() {
        let fm = FeatureMap::for_params(&[ParamDef::fixed("f", 7)]);
        assert_eq!(fm.encode(&[7]), vec![0.0]);
    }

    #[test]
    fn distance_is_scale_invariant() {
        let fm = FeatureMap::for_workflow(&lv());
        // A full-range jump in procs equals a full-range jump in threads.
        let d_procs = fm.distance(&[2, 1, 1, 2, 1, 1], &[1085, 1, 1, 2, 1, 1]);
        let d_threads = fm.distance(&[2, 1, 1, 2, 1, 1], &[2, 1, 4, 2, 1, 1]);
        assert!((d_procs - d_threads).abs() < 1e-12);
    }
}
