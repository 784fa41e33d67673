//! Random forest regression: bagged mean-leaf trees with per-tree feature
//! subsampling, fit in parallel via `ceal-par`.
//!
//! The paper (§2.2) names random forests alongside boosted trees as the
//! traditional few-sample-friendly models; the forest serves as an
//! alternative surrogate in the ablation benches.

use crate::binned::{BinnedDataset, DEFAULT_MAX_BINS};
use crate::dataset::Dataset;
use crate::tree::{predict_sum, RegressionTree, TreeParams};
use crate::Regressor;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Hyperparameters for [`RandomForest`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomForestParams {
    /// Number of trees.
    pub n_trees: usize,
    /// Tree growth parameters (deeper than boosting's — bagging wants
    /// low-bias base learners).
    pub tree: TreeParams,
    /// Fraction of features considered by each tree, in (0, 1].
    pub colsample: f64,
    /// RNG seed for bootstrap and feature sampling.
    pub seed: u64,
}

impl Default for RandomForestParams {
    fn default() -> Self {
        Self {
            n_trees: 100,
            tree: TreeParams {
                max_depth: 10,
                min_child_weight: 0.0,
                lambda: 0.0,
                gamma: 0.0,
                min_samples_leaf: 2,
            },
            colsample: 0.8,
            seed: 0,
        }
    }
}

/// A fitted random forest.
#[derive(Debug, Clone)]
pub struct RandomForest {
    params: RandomForestParams,
    trees: Vec<RegressionTree>,
}

impl RandomForest {
    /// Creates an unfitted forest.
    pub fn new(params: RandomForestParams) -> Self {
        Self {
            params,
            trees: Vec::new(),
        }
    }

    /// Number of fitted trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// The fitted trees, in bagging order.
    pub fn trees(&self) -> &[RegressionTree] {
        &self.trees
    }
}

impl Regressor for RandomForest {
    fn fit(&mut self, data: &Dataset) {
        assert!(!data.is_empty(), "cannot fit a forest to an empty dataset");
        let n = data.n_rows();
        let p = data.n_features();
        let p_sub = ((p as f64 * self.params.colsample).round() as usize).clamp(1, p.max(1));

        // Bin features and derive mean-leaf gradients (`g = -y`,
        // `lambda = 0`) once; every tree shares them.
        let binned = BinnedDataset::from_dataset(data, DEFAULT_MAX_BINS);
        let grad: Vec<f64> = data.targets().iter().map(|y| -y).collect();
        let tree_params = TreeParams {
            lambda: 0.0,
            ..self.params.tree
        };

        // Pre-draw per-tree seeds so tree fitting can run in parallel while
        // remaining deterministic.
        let mut seed_rng = ChaCha8Rng::seed_from_u64(self.params.seed);
        let tree_seeds: Vec<u64> = (0..self.params.n_trees).map(|_| seed_rng.gen()).collect();

        self.trees = ceal_par::parallel_map(&tree_seeds, |&seed| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let rows: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
            let mut feats: Vec<usize> = (0..p).collect();
            feats.shuffle(&mut rng);
            feats.truncate(p_sub);
            RegressionTree::fit_binned(&binned, &grad, &rows, &feats, tree_params)
        });
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        if self.trees.is_empty() {
            return 0.0;
        }
        predict_sum(&self.trees, row) / self.trees.len() as f64
    }

    fn is_fitted(&self) -> bool {
        !self.trees.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::r2;

    fn synthetic(n: usize) -> Dataset {
        let mut rows = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for i in 0..n {
            let x0 = (i % 23) as f64 / 23.0;
            let x1 = (i % 13) as f64 / 13.0;
            rows.push(vec![x0, x1]);
            ys.push((6.0 * x0).sin() + 2.0 * x1);
        }
        Dataset::from_rows(&rows, &ys)
    }

    #[test]
    fn fits_with_reasonable_accuracy() {
        let data = synthetic(300);
        let mut model = RandomForest::new(RandomForestParams::default());
        model.fit(&data);
        let preds = model.predict_batch(&data);
        assert!(r2(data.targets(), &preds) > 0.9);
    }

    #[test]
    fn deterministic_given_seed() {
        let data = synthetic(100);
        let params = RandomForestParams {
            n_trees: 20,
            seed: 9,
            ..Default::default()
        };
        let mut a = RandomForest::new(params);
        let mut b = RandomForest::new(params);
        a.fit(&data);
        b.fit(&data);
        assert_eq!(a.predict_batch(&data), b.predict_batch(&data));
    }

    #[test]
    fn unfitted_predicts_zero() {
        let model = RandomForest::new(RandomForestParams::default());
        assert!(!model.is_fitted());
        assert_eq!(model.predict_row(&[1.0, 2.0]), 0.0);
    }

    #[test]
    fn builds_requested_number_of_trees() {
        let data = synthetic(50);
        let mut model = RandomForest::new(RandomForestParams {
            n_trees: 7,
            ..Default::default()
        });
        model.fit(&data);
        assert_eq!(model.n_trees(), 7);
    }

    #[test]
    fn predictions_within_target_range() {
        // Mean-leaf trees cannot extrapolate beyond observed targets.
        let data = synthetic(200);
        let mut model = RandomForest::new(RandomForestParams::default());
        model.fit(&data);
        let lo = data.targets().iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = data
            .targets()
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        for probe in [[0.0, 0.0], [0.5, 0.5], [1.0, 1.0], [2.0, -1.0]] {
            let p = model.predict_row(&probe);
            assert!(
                p >= lo - 1e-9 && p <= hi + 1e-9,
                "prediction {p} escapes [{lo}, {hi}]"
            );
        }
    }
}
