//! Property-based tests of the ML substrate.

use ceal_ml::{
    metrics, Dataset, GbtParams, GradientBoosting, KnnRegressor, RandomForest, RandomForestParams,
    RegressionTree, Regressor, Ridge, TreeParams,
};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn dataset_strategy() -> impl Strategy<Value = Dataset> {
    prop::collection::vec((0.0f64..10.0, 0.0f64..10.0, -50.0f64..50.0), 3..60).prop_map(|rows| {
        let xs: Vec<Vec<f64>> = rows.iter().map(|(a, b, _)| vec![*a, *b]).collect();
        let ys: Vec<f64> = rows
            .iter()
            .map(|(a, b, n)| a * 3.0 + b + n * 0.01)
            .collect();
        Dataset::from_rows(&xs, &ys)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// A single regression tree's predictions lie within the target range
    /// when fit directly to targets (mean leaves cannot extrapolate).
    #[test]
    fn tree_predictions_within_target_hull(data in dataset_strategy(), probe_a in 0.0f64..10.0, probe_b in 0.0f64..10.0) {
        let rows: Vec<usize> = (0..data.n_rows()).collect();
        let tree = RegressionTree::fit_targets(&data, &rows, &[0, 1], TreeParams::default());
        let lo = data.targets().iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = data.targets().iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let p = tree.predict_row(&[probe_a, probe_b]);
        prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9, "{p} escapes [{lo}, {hi}]");
    }

    /// Tree depth never exceeds the configured cap.
    #[test]
    fn tree_depth_capped(data in dataset_strategy(), depth in 0usize..6) {
        let rows: Vec<usize> = (0..data.n_rows()).collect();
        let params = TreeParams { max_depth: depth, ..Default::default() };
        let tree = RegressionTree::fit_targets(&data, &rows, &[0, 1], params);
        prop_assert!(tree.depth() <= depth);
        prop_assert!(tree.n_leaves() <= 1 << depth);
    }

    /// GBT training error is no worse than predicting the mean.
    #[test]
    fn gbt_no_worse_than_mean(data in dataset_strategy()) {
        let mut model = GradientBoosting::new(GbtParams { n_rounds: 30, ..Default::default() });
        model.fit(&data);
        let preds = model.predict_batch(&data);
        let mean = data.target_mean();
        let mean_preds = vec![mean; data.n_rows()];
        let model_err = metrics::mse(data.targets(), &preds);
        let mean_err = metrics::mse(data.targets(), &mean_preds);
        prop_assert!(model_err <= mean_err + 1e-9, "{model_err} > {mean_err}");
    }

    /// All four regressors produce finite predictions anywhere in range.
    #[test]
    fn regressors_are_finite(data in dataset_strategy(), a in -5.0f64..15.0, b in -5.0f64..15.0) {
        let models: Vec<Box<dyn Regressor>> = vec![
            Box::new(GradientBoosting::new(GbtParams { n_rounds: 10, ..Default::default() })),
            Box::new(RandomForest::new(RandomForestParams { n_trees: 5, ..Default::default() })),
            Box::new(KnnRegressor::new(3)),
            Box::new(Ridge::new(1.0)),
        ];
        for mut m in models {
            m.fit(&data);
            prop_assert!(m.is_fitted());
            let p = m.predict_row(&[a, b]);
            prop_assert!(p.is_finite(), "non-finite prediction {p}");
        }
    }

    /// Bootstrap samples only contain existing rows.
    #[test]
    fn bootstrap_draws_existing_rows(data in dataset_strategy(), n in 1usize..100, seed in 0u64..50) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let b = data.bootstrap(n, &mut rng);
        prop_assert_eq!(b.n_rows(), n);
        for i in 0..b.n_rows() {
            let found = (0..data.n_rows()).any(|j| data.row(j) == b.row(i));
            prop_assert!(found, "bootstrap invented a row");
        }
    }
}
