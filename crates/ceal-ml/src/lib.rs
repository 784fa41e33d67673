//! ML substrate for the CEAL reproduction.
//!
//! The paper trains its surrogate models with `xgboost.XGBRegressor`; this
//! crate provides a from-scratch equivalent suitable for the small-sample
//! regimes auto-tuning operates in (tens to hundreds of samples):
//!
//! * [`GradientBoosting`] — XGBoost-style boosted regression trees
//!   (second-order gain with `lambda`/`gamma`/`min_child_weight`
//!   regularization, shrinkage, row and column subsampling).
//! * [`RandomForest`] — bagged trees, fit in parallel via `ceal-par`.
//! * [`KnnRegressor`] and [`Ridge`] — used by the Didona-style ensemble
//!   ablations (§8.2 of the paper).
//! * [`metrics`] — MdAPE, MSE, RMSE, R².
//!
//! All randomized fitting is seeded explicitly so experiments are exactly
//! reproducible.

#![forbid(unsafe_code)]

pub mod binned;
pub mod dataset;
pub mod forest;
pub mod gbt;
pub mod gp;
pub mod knn;
pub mod linear;
pub mod metrics;
pub mod tree;

pub use binned::{BinnedDataset, DEFAULT_MAX_BINS};
pub use dataset::Dataset;
pub use forest::{RandomForest, RandomForestParams};
pub use gbt::{GbtParams, GradientBoosting};
pub use gp::{expected_improvement, GaussianProcess, GpParams};
pub use knn::KnnRegressor;
pub use linear::Ridge;
pub use tree::{RegressionTree, TreeParams};

/// A trainable regression model mapping feature rows to a scalar target.
///
/// Object-safe so the auto-tuner can swap surrogates (boosted trees by
/// default, forest/k-NN in the ablation benches) behind `Box<dyn Regressor>`.
pub trait Regressor: Send + Sync {
    /// Fits the model to `data`, replacing any previous fit.
    fn fit(&mut self, data: &Dataset);
    /// Predicts the target for a single feature row.
    fn predict_row(&self, row: &[f64]) -> f64;
    /// Predicts targets for every row of `data`.
    fn predict_batch(&self, data: &Dataset) -> Vec<f64> {
        (0..data.n_rows())
            .map(|i| self.predict_row(data.row(i)))
            .collect()
    }
    /// True once `fit` has been called with at least one row.
    fn is_fitted(&self) -> bool;
}
