//! Gradient-boosted regression trees (XGBoost-style).
//!
//! Squared-error objective: per round, gradients are `g_i = ŷ_i − y_i`
//! (hessians are all 1); a [`RegressionTree`] is fit to them and its
//! predictions are added with shrinkage `learning_rate`. Row subsampling and
//! per-tree column subsampling provide stochastic regularization, matching
//! the `xgboost.XGBRegressor` defaults the paper tunes with.

use crate::binned::{BinKernel, BinnedDataset, TreeWorkspace, DEFAULT_MAX_BINS};
use crate::dataset::Dataset;
use crate::tree::{predict_sum, RegressionTree, TreeParams};
use crate::Regressor;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Hyperparameters for [`GradientBoosting`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GbtParams {
    /// Number of boosting rounds (trees).
    pub n_rounds: usize,
    /// Shrinkage applied to each tree's contribution.
    pub learning_rate: f64,
    /// Tree growth parameters.
    pub tree: TreeParams,
    /// Fraction of rows sampled (without replacement) per round, in (0, 1].
    pub subsample: f64,
    /// Fraction of features sampled per tree, in (0, 1].
    pub colsample: f64,
    /// RNG seed for the row/column subsampling.
    pub seed: u64,
}

impl Default for GbtParams {
    fn default() -> Self {
        Self {
            n_rounds: 100,
            learning_rate: 0.1,
            tree: TreeParams::default(),
            subsample: 1.0,
            colsample: 1.0,
            seed: 0,
        }
    }
}

impl GbtParams {
    /// A configuration suited to very small training sets (tens of samples),
    /// as encountered inside the auto-tuner: shallower trees, stronger
    /// shrinkage, mild row subsampling.
    pub fn small_sample(seed: u64) -> Self {
        Self {
            n_rounds: 200,
            learning_rate: 0.08,
            tree: TreeParams {
                max_depth: 3,
                min_child_weight: 1.0,
                lambda: 1.0,
                gamma: 0.0,
                min_samples_leaf: 1,
            },
            subsample: 0.9,
            colsample: 1.0,
            seed,
        }
    }
}

/// A fitted gradient-boosting model.
#[derive(Debug, Clone)]
pub struct GradientBoosting {
    params: GbtParams,
    base_score: f64,
    trees: Vec<RegressionTree>,
    /// Bin-space layout of `trees` for batch prediction, when they are
    /// all shallow enough for it; deeper ensembles walk `trees` row by row.
    kernel: Option<BinKernel>,
}

impl GradientBoosting {
    /// Creates an unfitted model with the given hyperparameters.
    pub fn new(params: GbtParams) -> Self {
        Self {
            params,
            base_score: 0.0,
            trees: Vec::new(),
            kernel: None,
        }
    }

    /// The hyperparameters this model was constructed with.
    pub fn params(&self) -> &GbtParams {
        &self.params
    }

    /// Number of fitted trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// The fitted trees, in boosting order.
    pub fn trees(&self) -> &[RegressionTree] {
        &self.trees
    }

    /// Gain-based feature importance over `n_features` features, normalized
    /// to sum to 1 (all zeros for an unfitted or split-free model).
    pub fn feature_importance(&self, n_features: usize) -> Vec<f64> {
        let mut gains = vec![0.0; n_features];
        for tree in &self.trees {
            for (acc, g) in gains.iter_mut().zip(tree.feature_gains(n_features)) {
                *acc += g;
            }
        }
        let total: f64 = gains.iter().sum();
        if total > 0.0 {
            for g in &mut gains {
                *g /= total;
            }
        }
        gains
    }
}

impl Regressor for GradientBoosting {
    fn fit(&mut self, data: &Dataset) {
        assert!(!data.is_empty(), "cannot fit boosting to an empty dataset");
        self.trees.clear();
        self.base_score = data.target_mean();

        let n = data.n_rows();
        let p = data.n_features();
        let binned = BinnedDataset::from_dataset(data, DEFAULT_MAX_BINS);
        let mut rng = ChaCha8Rng::seed_from_u64(self.params.seed);
        let mut pred = vec![self.base_score; n];
        let mut grad = vec![0.0; n];
        let n_sub = ((n as f64 * self.params.subsample).round() as usize).clamp(1, n);
        let p_sub = ((p as f64 * self.params.colsample).round() as usize).clamp(1, p.max(1));
        // One workspace and one feature and one out-of-sample buffer for
        // every round: refilled, never reallocated.
        let mut ws = TreeWorkspace::default();
        let mut feats: Vec<usize> = Vec::with_capacity(p);
        let mut dropped: Vec<u32> = Vec::with_capacity(n - n_sub);

        for _ in 0..self.params.n_rounds {
            for ((g, p), y) in grad.iter_mut().zip(&pred).zip(data.targets()) {
                *g = p - y;
            }
            let rows = ws.rows_mut();
            rows.clear();
            rows.extend(0..n as u32);
            dropped.clear();
            if n_sub < n {
                rows.shuffle(&mut rng);
                dropped.extend(rows.drain(n_sub..));
            }
            feats.clear();
            feats.extend(0..p);
            if p_sub < p {
                feats.shuffle(&mut rng);
                feats.truncate(p_sub);
            }
            let tree =
                RegressionTree::grow_binned(&mut ws, &binned, &grad, &feats, self.params.tree);
            // The grower left each sampled row in its leaf's range of rows,
            // so only the rows the subsample dropped walk the tree.
            let lr = self.params.learning_rate;
            for (rows, w) in ws.leaf_rows() {
                for &i in rows {
                    pred[i as usize] += lr * w;
                }
            }
            for &i in &dropped {
                pred[i as usize] += lr * tree.predict_row(data.row(i as usize));
            }
            self.trees.push(tree);
        }
        self.kernel = BinKernel::new(&self.trees, binned);
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        self.base_score + self.params.learning_rate * predict_sum(&self.trees, row)
    }

    fn predict_batch(&self, data: &Dataset) -> Vec<f64> {
        let mut out = match &self.kernel {
            Some(kernel) => kernel.predict_batch_sum(data),
            None => (0..data.n_rows())
                .map(|i| predict_sum(&self.trees, data.row(i)))
                .collect(),
        };
        for y in &mut out {
            *y = self.base_score + self.params.learning_rate * *y;
        }
        out
    }

    fn is_fitted(&self) -> bool {
        !self.trees.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{r2, rmse};

    fn synthetic(n: usize) -> Dataset {
        // y = 3*x0 + x1^2 - 2*x0*x1, deterministic grid.
        let mut rows = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for i in 0..n {
            let x0 = (i % 17) as f64 / 17.0;
            let x1 = (i % 31) as f64 / 31.0;
            rows.push(vec![x0, x1]);
            ys.push(3.0 * x0 + x1 * x1 - 2.0 * x0 * x1);
        }
        Dataset::from_rows(&rows, &ys)
    }

    #[test]
    fn fits_nonlinear_function_well() {
        let data = synthetic(400);
        let mut model = GradientBoosting::new(GbtParams::default());
        model.fit(&data);
        let preds = model.predict_batch(&data);
        assert!(r2(data.targets(), &preds) > 0.98, "R² too low");
    }

    #[test]
    fn more_rounds_reduce_training_error() {
        let data = synthetic(300);
        let mut few = GradientBoosting::new(GbtParams {
            n_rounds: 5,
            ..Default::default()
        });
        let mut many = GradientBoosting::new(GbtParams {
            n_rounds: 150,
            ..Default::default()
        });
        few.fit(&data);
        many.fit(&data);
        let e_few = rmse(data.targets(), &few.predict_batch(&data));
        let e_many = rmse(data.targets(), &many.predict_batch(&data));
        assert!(
            e_many < e_few,
            "boosting failed to improve: {e_many} !< {e_few}"
        );
    }

    #[test]
    fn zero_rounds_predicts_target_mean() {
        let data = synthetic(50);
        let mut model = GradientBoosting::new(GbtParams {
            n_rounds: 0,
            ..Default::default()
        });
        model.fit(&data);
        assert!(!model.is_fitted());
        assert!((model.predict_row(&[0.3, 0.3]) - data.target_mean()).abs() < 1e-12);
    }

    #[test]
    fn deterministic_given_seed() {
        let data = synthetic(120);
        let params = GbtParams {
            subsample: 0.7,
            seed: 42,
            ..Default::default()
        };
        let mut a = GradientBoosting::new(params);
        let mut b = GradientBoosting::new(params);
        a.fit(&data);
        b.fit(&data);
        assert_eq!(a.predict_batch(&data), b.predict_batch(&data));
    }

    #[test]
    fn different_seeds_differ_under_subsampling() {
        let data = synthetic(120);
        let mut a = GradientBoosting::new(GbtParams {
            subsample: 0.5,
            seed: 1,
            ..Default::default()
        });
        let mut b = GradientBoosting::new(GbtParams {
            subsample: 0.5,
            seed: 2,
            ..Default::default()
        });
        a.fit(&data);
        b.fit(&data);
        assert_ne!(a.predict_batch(&data), b.predict_batch(&data));
    }

    #[test]
    fn handles_single_row() {
        let data = Dataset::from_rows(&[vec![1.0, 2.0]], &[5.0]);
        let mut model = GradientBoosting::new(GbtParams::small_sample(0));
        model.fit(&data);
        assert!((model.predict_row(&[1.0, 2.0]) - 5.0).abs() < 0.5);
    }

    #[test]
    fn feature_importance_identifies_the_signal() {
        // y depends only on x0; x1 is constant noise.
        let rows: Vec<Vec<f64>> = (0..100).map(|i| vec![(i % 10) as f64, 0.5]).collect();
        let ys: Vec<f64> = rows.iter().map(|r| r[0] * r[0]).collect();
        let data = Dataset::from_rows(&rows, &ys);
        let mut model = GradientBoosting::new(GbtParams::default());
        model.fit(&data);
        let imp = model.feature_importance(2);
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(imp[0] > 0.99, "x0 should carry the importance: {imp:?}");
    }

    #[test]
    fn unfitted_importance_is_zero() {
        let model = GradientBoosting::new(GbtParams::default());
        assert_eq!(model.feature_importance(3), vec![0.0; 3]);
    }

    #[test]
    fn refit_replaces_previous_model() {
        let data1 = Dataset::from_rows(&[vec![0.0], vec![1.0]], &[0.0, 0.0]);
        let data2 = Dataset::from_rows(&[vec![0.0], vec![1.0]], &[100.0, 100.0]);
        let mut model = GradientBoosting::new(GbtParams::default());
        model.fit(&data1);
        model.fit(&data2);
        assert!(model.predict_row(&[0.5]) > 50.0);
    }

    #[test]
    fn batch_path_follows_the_fitted_shape() {
        let data = synthetic(200);
        let mut shallow = GradientBoosting::new(GbtParams::small_sample(0));
        shallow.fit(&data);
        assert!(shallow.trees().iter().all(|t| t.depth() <= 3));
        assert!(
            shallow.kernel.is_some(),
            "shallow ensembles batch in bin space"
        );

        let mut deeper = GradientBoosting::new(GbtParams::default());
        deeper.fit(&data);
        assert!(deeper.trees().iter().any(|t| t.depth() == 4));
        assert!(
            deeper.kernel.is_none(),
            "a depth-4 tree batches over the walk"
        );

        // A refit re-decides: the same model object, now shallow.
        deeper.params.tree.max_depth = 2;
        deeper.fit(&data);
        assert!(deeper.kernel.is_some());
    }
}
