//! The analytical coupling model: component models + a combination
//! function (paper §4).
//!
//! Phase 1 of the bootstrapping method trains one cheap ML model per
//! component application from *solo* runs, then combines their predictions
//! with a simple function chosen by the optimization metric:
//!
//! * execution time is bottleneck-dominated → `max` (Eq. 1);
//! * computer time aggregates shares of all components → `sum` (Eq. 2);
//! * throughput-style metrics would use `min`.
//!
//! The combined [`LowFidelityModel`] scores workflow configurations without
//! ever running the workflow — cheap, systematically wrong about coupling
//! effects, but good enough to steer sample collection toward
//! well-performing regions.

use crate::features::FeatureMap;
use crate::history::ComponentHistory;
use ceal_ml::{Dataset, GbtParams, GradientBoosting, Regressor};
use ceal_sim::{Objective, WorkflowSpec};
use std::ops::Range;

/// How component predictions combine into a workflow score.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CombineFn {
    /// Bottleneck metric (execution time): the slowest component decides.
    Max,
    /// Bottleneck metric for rates (throughput): the slowest component
    /// decides, from below.
    Min,
    /// Additive metric (computer time, energy): components' shares add up.
    Sum,
}

impl CombineFn {
    /// The combination the paper prescribes for each objective (§4).
    pub fn for_objective(obj: Objective) -> Self {
        match obj {
            Objective::ExecutionTime => CombineFn::Max,
            Objective::ComputerTime => CombineFn::Sum,
        }
    }

    /// Applies the combination to per-component predictions.
    ///
    /// # Panics
    /// Panics on an empty slice.
    pub fn apply(&self, values: &[f64]) -> f64 {
        assert!(!values.is_empty(), "no component predictions to combine");
        match self {
            CombineFn::Max => values.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
            CombineFn::Min => values.iter().cloned().fold(f64::INFINITY, f64::min),
            CombineFn::Sum => values.iter().sum(),
        }
    }
}

enum CompModel {
    /// Boosted-tree model over the component's parameters.
    Learned(Box<GradientBoosting>),
    /// Constant prediction (single-configuration or single-sample
    /// components like the GP plotters).
    Constant(f64),
}

/// One performance model per component application, trained on solo
/// samples.
pub struct ComponentModels {
    models: Vec<CompModel>,
    feature_maps: Vec<FeatureMap>,
}

impl ComponentModels {
    /// Fits per-component models from the samples in `data` (paper Alg. 1
    /// lines 1–5). Components with fewer than two distinct samples get a
    /// constant model.
    ///
    /// # Panics
    /// Panics if any component has zero samples.
    pub fn fit(spec: &WorkflowSpec, data: &ComponentHistory, seed: u64) -> Self {
        assert_eq!(
            data.n_components(),
            spec.components.len(),
            "history/component mismatch"
        );
        let mut models = Vec::with_capacity(spec.components.len());
        let mut feature_maps = Vec::with_capacity(spec.components.len());
        for (j, comp) in spec.components.iter().enumerate() {
            let samples = &data.samples[j];
            assert!(
                !samples.is_empty(),
                "component {} has no training samples",
                comp.name()
            );
            let fm = FeatureMap::for_params(comp.params());
            let distinct = {
                let mut vs: Vec<&Vec<i64>> = samples.iter().map(|(v, _)| v).collect();
                vs.sort();
                vs.dedup();
                vs.len()
            };
            let model = if distinct < 2 {
                let mean = samples.iter().map(|(_, y)| *y).sum::<f64>() / samples.len() as f64;
                CompModel::Constant(mean)
            } else {
                let rows: Vec<Vec<f64>> = samples.iter().map(|(v, _)| fm.encode(v)).collect();
                let ys: Vec<f64> = samples.iter().map(|(_, y)| *y).collect();
                let mut gbt =
                    GradientBoosting::new(GbtParams::small_sample(seed ^ (j as u64) << 8));
                gbt.fit(&Dataset::from_rows(&rows, &ys));
                CompModel::Learned(Box::new(gbt))
            };
            models.push(model);
            feature_maps.push(fm);
        }
        Self {
            models,
            feature_maps,
        }
    }

    /// Predicts component `j`'s solo objective value for `values`.
    pub fn predict(&self, j: usize, values: &[i64]) -> f64 {
        match &self.models[j] {
            CompModel::Constant(c) => *c,
            CompModel::Learned(gbt) => gbt.predict_row(&self.feature_maps[j].encode(values)),
        }
    }

    /// Predicts component `j` for its slice `range` of every configuration
    /// in one batch — bit-identical to [`Self::predict`] per configuration
    /// (`predict_batch` sums the same leaf weights in the same tree order as
    /// `predict_row`).
    fn predict_all(&self, j: usize, configs: &[Vec<i64>], range: Range<usize>) -> Vec<f64> {
        match &self.models[j] {
            CompModel::Constant(c) => vec![*c; configs.len()],
            CompModel::Learned(gbt) => {
                let fm = &self.feature_maps[j];
                let mut data = Dataset::new(fm.n_features());
                for c in configs {
                    data.push_row(&fm.encode(&c[range.clone()]), 0.0);
                }
                gbt.predict_batch(&data)
            }
        }
    }

    /// Number of component models.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// True when no component models exist.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }
}

/// The combined low-fidelity workflow model `M_L` (paper Fig. 3).
pub struct LowFidelityModel {
    /// Per-component solo models (shared so historical models can be
    /// reused across tuning repetitions).
    pub components: std::sync::Arc<ComponentModels>,
    /// The combination function (Eq. 1/2).
    pub combine: CombineFn,
    ranges: Vec<Range<usize>>,
}

impl LowFidelityModel {
    /// Assembles the low-fidelity model for `spec`.
    pub fn new(
        spec: &WorkflowSpec,
        components: impl Into<std::sync::Arc<ComponentModels>>,
        combine: CombineFn,
    ) -> Self {
        Self {
            components: components.into(),
            combine,
            ranges: spec.param_ranges(),
        }
    }

    /// Scores one full workflow configuration (lower is better).
    pub fn score(&self, config: &[i64]) -> f64 {
        let preds: Vec<f64> = self
            .ranges
            .iter()
            .enumerate()
            .map(|(j, r)| self.components.predict(j, &config[r.clone()]))
            .collect();
        self.combine.apply(&preds)
    }

    /// Scores many configurations — bit-identical to [`Self::score`] per
    /// configuration, but each component model predicts its slice of the
    /// whole batch at once.
    pub fn score_all(&self, configs: &[Vec<i64>]) -> Vec<f64> {
        let columns: Vec<Vec<f64>> = self
            .ranges
            .iter()
            .enumerate()
            .map(|(j, r)| self.components.predict_all(j, configs, r.clone()))
            .collect();
        let mut preds = vec![0.0; columns.len()];
        (0..configs.len())
            .map(|i| {
                for (p, column) in preds.iter_mut().zip(&columns) {
                    *p = column[i];
                }
                self.combine.apply(&preds)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{Oracle, SimOracle};
    use crate::pool::sample_pool;
    use ceal_apps::{all_workflows, lv};
    use ceal_sim::Simulator;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn combine_fns() {
        let v = [3.0, 1.0, 2.0];
        assert_eq!(CombineFn::Max.apply(&v), 3.0);
        assert_eq!(CombineFn::Min.apply(&v), 1.0);
        assert_eq!(CombineFn::Sum.apply(&v), 6.0);
        assert_eq!(
            CombineFn::for_objective(Objective::ExecutionTime),
            CombineFn::Max
        );
        assert_eq!(
            CombineFn::for_objective(Objective::ComputerTime),
            CombineFn::Sum
        );
    }

    #[test]
    fn component_models_learn_solo_behaviour() {
        let spec = lv();
        let oracle = SimOracle::new(
            Simulator::noiseless(),
            spec.clone(),
            Objective::ExecutionTime,
            1,
        );
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let hist = ComponentHistory::collect(&oracle, 120, &mut rng);
        let models = ComponentModels::fit(&spec, &hist, 0);
        // Model should know that 500 procs beats 8 procs for LAMMPS solo.
        let slow = models.predict(0, &[8, 8, 1]);
        let fast = models.predict(0, &[500, 16, 1]);
        assert!(
            fast < slow,
            "model failed to learn scaling: {fast} !< {slow}"
        );
    }

    #[test]
    fn constant_model_for_single_sample() {
        let spec = lv();
        let mut hist = ComponentHistory::empty(2);
        hist.push(0, vec![100, 10, 1], 42.0);
        hist.push(1, vec![50, 10, 1], 7.0);
        let models = ComponentModels::fit(&spec, &hist, 0);
        assert_eq!(models.predict(0, &[999, 1, 4]), 42.0);
        assert_eq!(models.predict(1, &[2, 1, 1]), 7.0);
    }

    #[test]
    fn low_fidelity_scores_rank_good_before_bad() {
        let spec = lv();
        let oracle = SimOracle::new(
            Simulator::noiseless(),
            spec.clone(),
            Objective::ExecutionTime,
            1,
        );
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let hist = ComponentHistory::collect(&oracle, 150, &mut rng);
        let models = ComponentModels::fit(&spec, &hist, 0);
        let ml = LowFidelityModel::new(&spec, models, CombineFn::Max);
        let good = ml.score(&[561, 25, 1, 75, 14, 1]);
        let bad = ml.score(&[4, 2, 1, 4, 2, 1]);
        assert!(good < bad, "low-fidelity ranking inverted: {good} !< {bad}");
        // And the ranking must agree with the true coupled measurement.
        let tg = oracle.measure(&[561, 25, 1, 75, 14, 1]).value;
        let tb = oracle.measure(&[4, 2, 1, 4, 2, 1]).value;
        assert!(tg < tb);
    }

    #[test]
    fn score_all_is_bitwise_equal_to_per_config_scores() {
        // GP's plotters have a single configuration, so this also covers
        // `CompModel::Constant` columns next to learned ones.
        for spec in all_workflows() {
            for objective in [Objective::ExecutionTime, Objective::ComputerTime] {
                let oracle = SimOracle::new(Simulator::new(), spec.clone(), objective, 5);
                let mut rng = ChaCha8Rng::seed_from_u64(31);
                let hist = ComponentHistory::collect(&oracle, 40, &mut rng);
                let pool = sample_pool(&spec, oracle.platform(), 257, &mut rng);
                let ml = LowFidelityModel::new(
                    &spec,
                    ComponentModels::fit(&spec, &hist, 3),
                    CombineFn::for_objective(objective),
                );
                let bits = |scores: Vec<f64>| -> Vec<u64> {
                    scores.into_iter().map(f64::to_bits).collect()
                };
                let per_config = |configs: &[Vec<i64>]| -> Vec<f64> {
                    configs.iter().map(|c| ml.score(c)).collect()
                };
                let case = format!("{} / {objective}", spec.name);
                let models = &ml.components.models;
                let has_constant = models.iter().any(|m| matches!(m, CompModel::Constant(_)));
                assert_eq!(has_constant, spec.name == "GP", "{case}");
                assert_eq!(bits(ml.score_all(&pool)), bits(per_config(&pool)), "{case}");
                assert_eq!(
                    bits(ml.score_all(&pool[..1])),
                    bits(per_config(&pool[..1])),
                    "{case}: single configuration"
                );
                assert!(ml.score_all(&[]).is_empty(), "{case}: empty slice");
            }
        }
    }

    #[test]
    #[should_panic(expected = "no training samples")]
    fn fit_rejects_missing_component_data() {
        let spec = lv();
        let hist = ComponentHistory::empty(2);
        ComponentModels::fit(&spec, &hist, 0);
    }
}
