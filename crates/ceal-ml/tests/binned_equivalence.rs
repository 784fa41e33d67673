//! Equivalence of the bin-space paths against their references.
//!
//! **Growth.** With at least as many bins as distinct feature values, the
//! binned candidate-split set equals the exact one, so on integer-valued
//! data (where gradient sums are exact in f64) training-row
//! predictions are bit-identical to the exact-greedy grower's. With fewer
//! bins the splits are quantile-approximate and only accuracy is
//! guaranteed.
//!
//! **Scoring.** `GradientBoosting::predict_batch` scores shallow ensembles
//! (every tree at most 3 levels) with the bin-space kernel and deeper ones
//! one `predict_row` per row; `predict_row` always walks the trees
//! (`RegressionTree::predict_row`, summed in tree order). The two must
//! agree bit for bit on any input, whichever path the batch takes.

use ceal_ml::{BinnedDataset, Dataset, GbtParams, GradientBoosting, Regressor};
use ceal_ml::{RegressionTree, TreeParams, DEFAULT_MAX_BINS};
use proptest::prelude::*;

/// Deterministic integer-valued dataset: sums of `g = -y` are exact in
/// f64, so binned and exact trees agree bit-for-bit.
fn integer_dataset(n: usize, p: usize) -> Dataset {
    let mut rows = Vec::with_capacity(n);
    let mut ys = Vec::with_capacity(n);
    for i in 0..n {
        let row: Vec<f64> = (0..p).map(|j| ((i * 31 + j * 17) % 13) as f64).collect();
        let y: f64 = row
            .iter()
            .enumerate()
            .map(|(j, v)| (j + 1) as f64 * v)
            .sum();
        rows.push(row);
        ys.push(y);
    }
    Dataset::from_rows(&rows, &ys)
}

/// Continuous dataset (fractional values) for tolerance-based checks.
fn continuous_dataset(n: usize, p: usize) -> Dataset {
    let mut rows = Vec::with_capacity(n);
    let mut ys = Vec::with_capacity(n);
    for i in 0..n {
        let row: Vec<f64> = (0..p)
            .map(|j| ((i * 31 + j * 17) % 97) as f64 / 97.0)
            .collect();
        let y: f64 = row
            .iter()
            .enumerate()
            .map(|(j, v)| (j + 1) as f64 * v * v)
            .sum();
        rows.push(row);
        ys.push(y);
    }
    Dataset::from_rows(&rows, &ys)
}

#[test]
fn single_tree_bit_identical_on_integer_data() {
    let data = integer_dataset(120, 4);
    let grad: Vec<f64> = data.targets().iter().map(|y| -y).collect();
    let rows: Vec<usize> = (0..data.n_rows()).collect();
    let feats: Vec<usize> = (0..data.n_features()).collect();
    for max_depth in [1, 3, 6] {
        let params = TreeParams {
            max_depth,
            ..Default::default()
        };
        let exact = RegressionTree::fit_gradients_exact(&data, &grad, &rows, &feats, params);
        let binned = RegressionTree::fit_gradients(&data, &grad, &rows, &feats, params);
        assert_eq!(exact.n_leaves(), binned.n_leaves(), "depth {max_depth}");
        assert_eq!(exact.depth(), binned.depth(), "depth {max_depth}");
        for i in 0..data.n_rows() {
            let row = data.row(i);
            assert_eq!(
                exact.predict_row(row),
                binned.predict_row(row),
                "depth {max_depth}, training row {i} differs"
            );
        }
    }
}

#[test]
fn single_tree_bit_identical_on_row_subsets() {
    // Node-level sums run over subsets; exercise the partition paths too.
    let data = integer_dataset(90, 3);
    let grad: Vec<f64> = data.targets().iter().map(|y| -y).collect();
    let rows: Vec<usize> = (0..data.n_rows()).filter(|i| i % 3 != 0).collect();
    let feats = [0usize, 2];
    let params = TreeParams {
        max_depth: 5,
        min_samples_leaf: 2,
        ..Default::default()
    };
    let exact = RegressionTree::fit_gradients_exact(&data, &grad, &rows, &feats, params);
    let binned = RegressionTree::fit_gradients(&data, &grad, &rows, &feats, params);
    for &i in &rows {
        assert_eq!(
            exact.predict_row(data.row(i)),
            binned.predict_row(data.row(i))
        );
    }
}

#[test]
fn boosting_matches_exact_reference_within_tolerance() {
    // Replicate the boosting loop with exact-greedy trees and compare the
    // production (binned) GradientBoosting against it. Gradients become
    // fractional after round one, so sums may differ in the last ulp — the
    // comparison is tight-tolerance, not bitwise.
    let data = continuous_dataset(200, 5);
    let params = GbtParams {
        n_rounds: 40,
        learning_rate: 0.1,
        subsample: 1.0,
        colsample: 1.0,
        ..Default::default()
    };

    let n = data.n_rows();
    let base = data.target_mean();
    let mut pred = vec![base; n];
    let mut grad = vec![0.0; n];
    let rows: Vec<usize> = (0..n).collect();
    let feats: Vec<usize> = (0..data.n_features()).collect();
    let mut exact_trees = Vec::new();
    for _ in 0..params.n_rounds {
        for ((g, p), y) in grad.iter_mut().zip(&pred).zip(data.targets()) {
            *g = p - y;
        }
        let tree = RegressionTree::fit_gradients_exact(&data, &grad, &rows, &feats, params.tree);
        for (i, p) in pred.iter_mut().enumerate() {
            *p += params.learning_rate * tree.predict_row(data.row(i));
        }
        exact_trees.push(tree);
    }

    let mut gbt = GradientBoosting::new(params);
    gbt.fit(&data);
    let got = gbt.predict_batch(&data);
    for (i, &g) in got.iter().enumerate() {
        let want: f64 = base
            + params.learning_rate
                * exact_trees
                    .iter()
                    .map(|t| t.predict_row(data.row(i)))
                    .sum::<f64>();
        let tol = 1e-9 * want.abs().max(1.0);
        assert!(
            (g - want).abs() <= tol,
            "row {i}: binned {g} vs exact {want}"
        );
    }
}

#[test]
fn coarse_bins_stay_accurate() {
    // Far fewer bins than distinct values: splits are quantile-approximate
    // but the tree must still explain most of the variance the exact tree
    // does.
    let data = continuous_dataset(300, 4);
    let grad: Vec<f64> = data.targets().iter().map(|y| -y).collect();
    let rows: Vec<usize> = (0..data.n_rows()).collect();
    let feats: Vec<usize> = (0..data.n_features()).collect();
    let params = TreeParams {
        max_depth: 5,
        lambda: 0.0,
        ..Default::default()
    };

    let sse = |tree: &RegressionTree| -> f64 {
        (0..data.n_rows())
            .map(|i| {
                let e = tree.predict_row(data.row(i)) - data.target(i);
                e * e
            })
            .sum()
    };
    let exact = RegressionTree::fit_gradients_exact(&data, &grad, &rows, &feats, params);
    let coarse = BinnedDataset::from_dataset(&data, 16);
    assert!(coarse.n_bins(0) <= 16);
    let binned = RegressionTree::fit_binned(&coarse, &grad, &rows, &feats, params);
    let (e_exact, e_binned) = (sse(&exact), sse(&binned));
    assert!(
        e_binned <= e_exact * 1.5 + 1e-9,
        "coarse-binned SSE {e_binned} much worse than exact {e_exact}"
    );
}

#[test]
fn default_bins_cover_small_distinct_counts() {
    // Auto-tuning pools have few distinct parameter levels; the default
    // budget must keep one bin per distinct value there.
    let data = integer_dataset(500, 3);
    let binned = BinnedDataset::from_dataset(&data, DEFAULT_MAX_BINS);
    for f in 0..data.n_features() {
        assert_eq!(binned.n_bins(f), 13, "feature {f} has 13 distinct levels");
    }
}

/// Rows the kernel scores per pass; batch sizes are taken around it.
const BLOCK: usize = 256;

fn assert_batch_equals_rows(model: &GradientBoosting, probe: &Dataset) {
    let batch = model.predict_batch(probe);
    assert_eq!(batch.len(), probe.n_rows());
    for (i, &b) in batch.iter().enumerate() {
        let row = probe.row(i);
        let want = model.predict_row(row);
        assert_eq!(
            b.to_bits(),
            want.to_bits(),
            "row {i} {row:?}: {b} vs {want}"
        );
    }
}

fn depths(model: &GradientBoosting) -> Vec<usize> {
    model.trees().iter().map(RegressionTree::depth).collect()
}

/// Training rows `[a, b, c, 3.0]` with small integer `a`, `b`, `c` — so
/// every cut is some `k + 0.5` — and a last column with a single distinct
/// value, which gets no cuts at all.
fn training_strategy() -> impl Strategy<Value = Dataset> {
    prop::collection::vec((0u8..8, 0u8..8, 0u8..8, -20.0f64..20.0), 4..40).prop_map(|rows| {
        let mut data = Dataset::new(4);
        for (a, b, c, noise) in rows {
            let (a, b, c) = (a as f64, b as f64, c as f64);
            data.push_row(&[a, b, c, 3.0], a * a - 2.0 * b + 0.5 * c + noise);
        }
        data
    })
}

/// Probe values: NaN, both infinities, far outside the training hull, and
/// half-integers from -3 to 13.5 — which land exactly on cuts, on
/// training values, and just outside the hull on either side.
fn probe_value() -> impl Strategy<Value = f64> {
    (0usize..40).prop_map(|k| match k {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -1e300,
        4 => 1e300,
        5 => -0.0,
        k => (k as f64 - 12.0) * 0.5,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Ensembles of every kernel-eligible shape, scored over batches whose
    /// sizes straddle the kernel's block boundaries.
    #[test]
    fn kernel_batch_equals_row_walk_bit_for_bit(
        train in training_strategy(),
        values in prop::collection::vec(probe_value(), 4 * (2 * BLOCK + 1)),
        size in 0usize..8,
        max_depth in 0usize..4,
        gamma in 0usize..3,
        seed in 0u64..1000,
    ) {
        let mut model = GradientBoosting::new(GbtParams {
            n_rounds: 40,
            tree: TreeParams {
                max_depth,
                // A positive gamma stops late, small-residual rounds from
                // splitting: single-leaf and shallow trees among deep ones.
                gamma: [0.0, 2.0, 50.0][gamma],
                ..GbtParams::small_sample(0).tree
            },
            seed,
            ..GbtParams::small_sample(0)
        });
        model.fit(&train);
        prop_assert!(depths(&model).iter().all(|&d| d <= max_depth));

        let n = [1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK - 1, 2 * BLOCK, 2 * BLOCK + 1][size];
        let mut probe = Dataset::new(4);
        for row in values.chunks_exact(4).take(n) {
            probe.push_row(row, 0.0);
        }
        assert_batch_equals_rows(&model, &probe);
        assert_batch_equals_rows(&model, &train);
    }
}

#[test]
fn one_ensemble_holds_single_leaf_and_every_shallower_shape() {
    // The proptest above relies on gamma to mix shapes; pin that it does.
    let data = integer_dataset(24, 3);
    let mut model = GradientBoosting::new(GbtParams {
        n_rounds: 120,
        learning_rate: 0.3,
        tree: TreeParams {
            gamma: 0.05,
            ..GbtParams::small_sample(0).tree
        },
        ..GbtParams::small_sample(3)
    });
    model.fit(&data);
    let depths = depths(&model);
    for d in 0..=3 {
        assert!(depths.contains(&d), "no depth-{d} tree among {depths:?}");
    }
    assert_batch_equals_rows(&model, &data);
    assert_batch_equals_rows(&model, &continuous_dataset(2 * BLOCK + 7, 3));
}

#[test]
fn kernel_reads_features_beyond_a_byte_of_ids() {
    // 300 features, the signal in two of the last: feature ids must not be
    // squeezed into the byte the bin codes fit.
    let (n, p) = (40, 300);
    let mut data = Dataset::new(p);
    for i in 0..n {
        let mut row: Vec<f64> = (0..p).map(|j| ((i * 7 + j * 13) % 5) as f64).collect();
        (row[270], row[299]) = ((i * i % 7) as f64, (i * 3 % 11) as f64);
        let y = 10.0 * row[299] - 3.0 * row[270] * row[270];
        data.push_row(&row, y);
    }
    let mut model = GradientBoosting::new(GbtParams::small_sample(1));
    model.fit(&data);
    let importance = model.feature_importance(p);
    assert!(importance[299] > 0.0 && importance[270] > 0.0);
    assert!(depths(&model).iter().all(|&d| d <= 3));
    assert_batch_equals_rows(&model, &data);
    let mut probe = Dataset::new(p);
    for i in 0..BLOCK + 3 {
        let row: Vec<f64> = (0..p)
            .map(|j| ((i * 11 + j * 5) % 9) as f64 * 0.5)
            .collect();
        probe.push_row(&row, 0.0);
    }
    assert_batch_equals_rows(&model, &probe);
}

#[test]
fn one_deeper_tree_sends_the_batch_down_the_walk_with_the_same_answer() {
    let data = continuous_dataset(200, 4);
    let mut model = GradientBoosting::new(GbtParams {
        n_rounds: 30,
        tree: TreeParams {
            max_depth: 4,
            ..GbtParams::small_sample(0).tree
        },
        ..GbtParams::small_sample(5)
    });
    model.fit(&data);
    assert_eq!(depths(&model).iter().max(), Some(&4));
    assert_batch_equals_rows(&model, &data);
    assert_batch_equals_rows(&model, &continuous_dataset(BLOCK + 1, 4));
}
