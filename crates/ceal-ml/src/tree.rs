//! A regression tree grown with the XGBoost split criterion.
//!
//! The tree is fit to per-row gradients `g_i` of the squared-error loss,
//! whose hessians are all 1, so a node's hessian sum is its row count `n`.
//! That lets one implementation serve both gradient boosting (where
//! `g = prediction - target`) and plain target fitting (`g = -target`,
//! `λ = 0`, giving mean-value leaves), as used by the random forest.
//!
//! Split scoring follows Chen & Guestrin (KDD '16), the model the paper's
//! tuner uses:
//!
//! ```text
//! gain = 1/2 * ( GL²/(nL+λ) + GR²/(nR+λ) − G²/(n+λ) ) − γ
//! ```
//!
//! with leaf weight `−G/(n+λ)`. Two split-search strategies share that
//! criterion: [`RegressionTree::fit_gradients`] quantizes features and
//! scans per-bin histograms (the fast default, see [`crate::binned`]),
//! while [`RegressionTree::fit_gradients_exact`] keeps the original exact
//! greedy enumeration — each node sorts its rows by each candidate feature
//! and scans prefix sums of `G` — as the reference the binned path is
//! tested against.

use crate::binned::{BinnedDataset, DEFAULT_MAX_BINS};
use crate::dataset::Dataset;

/// Hyperparameters controlling tree growth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeParams {
    /// Maximum tree depth (root = depth 0). Depth 0 yields a single leaf.
    pub max_depth: usize,
    /// Minimum number of rows in each child, as a float: the squared-error
    /// hessian sum, which XGBoost calls the child weight.
    pub min_child_weight: f64,
    /// L2 regularization on leaf weights (XGBoost `lambda`).
    pub lambda: f64,
    /// Minimum loss reduction to accept a split (XGBoost `gamma`).
    pub gamma: f64,
    /// Minimum number of rows in each child.
    pub min_samples_leaf: usize,
}

impl Default for TreeParams {
    fn default() -> Self {
        Self {
            max_depth: 4,
            min_child_weight: 1.0,
            lambda: 1.0,
            gamma: 0.0,
            min_samples_leaf: 1,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Node {
    Leaf {
        weight: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// A fitted regression tree.
#[derive(Debug, Clone, PartialEq)]
pub struct RegressionTree {
    nodes: Vec<Node>,
    /// `(feature, gain)` of every accepted split, for importance reports.
    split_gains: Vec<(usize, f64)>,
}

struct Grower<'a> {
    data: &'a Dataset,
    grad: &'a [f64],
    features: &'a [usize],
    params: TreeParams,
    nodes: Vec<Node>,
    split_gains: Vec<(usize, f64)>,
}

struct BestSplit {
    feature: usize,
    threshold: f64,
    gain: f64,
}

impl<'a> Grower<'a> {
    fn score(&self, g: f64, n: usize) -> f64 {
        g * g / (n as f64 + self.params.lambda)
    }

    /// Finds the best split for the rows in `rows`, or `None` when no split
    /// satisfies the constraints with positive gain.
    fn best_split(&self, rows: &[usize], scratch: &mut Vec<(f64, usize)>) -> Option<BestSplit> {
        let total_g: f64 = rows.iter().map(|&i| self.grad[i]).sum();
        let parent_score = self.score(total_g, rows.len());
        let mut best: Option<BestSplit> = None;

        for &f in self.features {
            scratch.clear();
            scratch.extend(rows.iter().map(|&i| (self.data.value(i, f), i)));
            scratch.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut gl = 0.0;
            for k in 0..scratch.len() - 1 {
                let (v, i) = scratch[k];
                gl += self.grad[i];
                let v_next = scratch[k + 1].0;
                if v_next == v {
                    continue; // no split point between equal values
                }
                let n_left = k + 1;
                let n_right = scratch.len() - n_left;
                if n_left < self.params.min_samples_leaf || n_right < self.params.min_samples_leaf {
                    continue;
                }
                let mcw = self.params.min_child_weight;
                if (n_left as f64) < mcw || (n_right as f64) < mcw {
                    continue;
                }
                let gr = total_g - gl;
                let gain = 0.5 * (self.score(gl, n_left) + self.score(gr, n_right) - parent_score)
                    - self.params.gamma;
                if gain > 0.0 && best.as_ref().is_none_or(|b| gain > b.gain) {
                    best = Some(BestSplit {
                        feature: f,
                        threshold: 0.5 * (v + v_next),
                        gain,
                    });
                }
            }
        }
        best
    }

    fn grow(&mut self, rows: Vec<usize>, depth: usize, scratch: &mut Vec<(f64, usize)>) -> usize {
        let g: f64 = rows.iter().map(|&i| self.grad[i]).sum();

        let split = if depth >= self.params.max_depth || rows.len() < 2 {
            None
        } else {
            self.best_split(&rows, scratch)
        };

        match split {
            None => {
                self.nodes.push(Node::Leaf {
                    weight: -g / (rows.len() as f64 + self.params.lambda),
                });
                self.nodes.len() - 1
            }
            Some(s) => {
                self.split_gains.push((s.feature, s.gain));
                let (left_rows, right_rows): (Vec<usize>, Vec<usize>) = rows
                    .into_iter()
                    .partition(|&i| self.data.value(i, s.feature) <= s.threshold);
                // Reserve this node's slot before growing children so child
                // indices are stable.
                let me = self.nodes.len();
                self.nodes.push(Node::Leaf { weight: 0.0 });
                let left = self.grow(left_rows, depth + 1, scratch);
                let right = self.grow(right_rows, depth + 1, scratch);
                self.nodes[me] = Node::Split {
                    feature: s.feature,
                    threshold: s.threshold,
                    left,
                    right,
                };
                me
            }
        }
    }
}

impl RegressionTree {
    pub(crate) fn from_parts(nodes: Vec<Node>, split_gains: Vec<(usize, f64)>) -> Self {
        Self { nodes, split_gains }
    }

    pub(crate) fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Fits a tree to the gradients `grad` over `rows` of `data`,
    /// considering only the features in `features`.
    ///
    /// Quantizes the dataset and grows via histogram split finding
    /// ([`RegressionTree::fit_binned`]). Callers fitting many trees on one
    /// dataset should build the [`BinnedDataset`] themselves and call
    /// `fit_binned` directly so the quantization is paid once. Public for
    /// `tests/binned_equivalence.rs`, which checks it against
    /// [`RegressionTree::fit_gradients_exact`].
    ///
    /// # Panics
    /// Panics if `grad` is shorter than the dataset, or `rows` is empty.
    pub fn fit_gradients(
        data: &Dataset,
        grad: &[f64],
        rows: &[usize],
        features: &[usize],
        params: TreeParams,
    ) -> Self {
        let binned = BinnedDataset::from_dataset(data, DEFAULT_MAX_BINS);
        Self::fit_binned(&binned, grad, rows, features, params)
    }

    /// Fits a tree by exact greedy split enumeration (per-node sorts).
    ///
    /// A test oracle: `tests/binned_equivalence.rs` checks the histogram
    /// path against it. Product code calls [`RegressionTree::fit_binned`].
    ///
    /// # Panics
    /// Panics if `grad` is shorter than the dataset, or `rows` is empty.
    pub fn fit_gradients_exact(
        data: &Dataset,
        grad: &[f64],
        rows: &[usize],
        features: &[usize],
        params: TreeParams,
    ) -> Self {
        assert!(!rows.is_empty(), "cannot fit a tree to zero rows");
        assert!(grad.len() >= data.n_rows());
        let mut grower = Grower {
            data,
            grad,
            features,
            params,
            nodes: Vec::new(),
            split_gains: Vec::new(),
        };
        let mut scratch = Vec::with_capacity(rows.len());
        grower.grow(rows.to_vec(), 0, &mut scratch);
        Self {
            nodes: grower.nodes,
            split_gains: grower.split_gains,
        }
    }

    /// Fits a plain mean-leaf regression tree directly to the targets:
    /// `g = -y`, `lambda = 0`. A test oracle; the random forest derives the
    /// same gradients once per fit and calls [`RegressionTree::fit_binned`].
    pub fn fit_targets(
        data: &Dataset,
        rows: &[usize],
        features: &[usize],
        params: TreeParams,
    ) -> Self {
        let grad: Vec<f64> = data.targets().iter().map(|y| -y).collect();
        let params = TreeParams {
            lambda: 0.0,
            ..params
        };
        Self::fit_gradients(data, &grad, rows, features, params)
    }

    /// Predicts the leaf weight for a feature row.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        let mut i = 0;
        loop {
            match &self.nodes[i] {
                Node::Leaf { weight } => return *weight,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    // NaN routes left, mirroring XGBoost's default direction.
                    let v = row[*feature];
                    i = if v <= *threshold || v.is_nan() {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Leaf { .. }))
            .count()
    }

    /// Total split gain attributed to each of `n_features` features.
    pub fn feature_gains(&self, n_features: usize) -> Vec<f64> {
        let mut gains = vec![0.0; n_features];
        for &(f, g) in &self.split_gains {
            if f < n_features {
                gains[f] += g;
            }
        }
        gains
    }

    /// Maximum depth of any leaf (root = 0).
    pub fn depth(&self) -> usize {
        fn walk(nodes: &[Node], i: usize, d: usize) -> usize {
            match &nodes[i] {
                Node::Leaf { .. } => d,
                Node::Split { left, right, .. } => {
                    walk(nodes, *left, d + 1).max(walk(nodes, *right, d + 1))
                }
            }
        }
        walk(&self.nodes, 0, 0)
    }
}

/// Sum of `trees`' leaf weights for one feature row, folded in tree order
/// from `0.0`: the per-row sum every ensemble prediction and the bin-space
/// kernel accumulate, so their results agree bit for bit.
pub(crate) fn predict_sum(trees: &[RegressionTree], row: &[f64]) -> f64 {
    trees.iter().fold(0.0, |acc, t| acc + t.predict_row(row))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step_data() -> Dataset {
        // y = 1 for x < 5, y = 9 for x >= 5.
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = (0..10).map(|i| if i < 5 { 1.0 } else { 9.0 }).collect();
        Dataset::from_rows(&rows, &ys)
    }

    #[test]
    fn learns_a_step_function() {
        let data = step_data();
        let rows: Vec<usize> = (0..10).collect();
        let tree = RegressionTree::fit_targets(&data, &rows, &[0], TreeParams::default());
        assert!((tree.predict_row(&[2.0]) - 1.0).abs() < 1e-9);
        assert!((tree.predict_row(&[8.0]) - 9.0).abs() < 1e-9);
    }

    #[test]
    fn depth_zero_yields_mean_leaf() {
        let data = step_data();
        let rows: Vec<usize> = (0..10).collect();
        let params = TreeParams {
            max_depth: 0,
            ..Default::default()
        };
        let tree = RegressionTree::fit_targets(&data, &rows, &[0], params);
        assert_eq!(tree.n_leaves(), 1);
        assert!((tree.predict_row(&[0.0]) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn respects_max_depth() {
        let rows_v: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let data = Dataset::from_rows(&rows_v, &ys);
        let rows: Vec<usize> = (0..64).collect();
        let params = TreeParams {
            max_depth: 3,
            ..Default::default()
        };
        let tree = RegressionTree::fit_targets(&data, &rows, &[0], params);
        assert!(tree.depth() <= 3, "depth {} exceeds cap", tree.depth());
        assert!(tree.n_leaves() <= 8);
    }

    #[test]
    fn min_samples_leaf_blocks_tiny_children() {
        let data = step_data();
        let rows: Vec<usize> = (0..10).collect();
        let params = TreeParams {
            min_samples_leaf: 6,
            ..Default::default()
        };
        let tree = RegressionTree::fit_targets(&data, &rows, &[0], params);
        // No split can give both children >= 6 of 10 rows.
        assert_eq!(tree.n_leaves(), 1);
    }

    #[test]
    fn gamma_prunes_weak_splits() {
        let data = step_data();
        let rows: Vec<usize> = (0..10).collect();
        let params = TreeParams {
            gamma: 1e9,
            ..Default::default()
        };
        let tree = RegressionTree::fit_targets(&data, &rows, &[0], params);
        assert_eq!(tree.n_leaves(), 1);
    }

    #[test]
    fn lambda_shrinks_leaf_weights() {
        let data = Dataset::from_rows(&[vec![0.0], vec![1.0]], &[10.0, 10.0]);
        let grad: Vec<f64> = data.targets().iter().map(|y| -y).collect();
        let params = TreeParams {
            max_depth: 0,
            lambda: 2.0,
            ..Default::default()
        };
        let tree = RegressionTree::fit_gradients(&data, &grad, &[0, 1], &[0], params);
        // weight = -G/(H+lambda) = 20/(2+2) = 5.
        assert!((tree.predict_row(&[0.0]) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn ignores_features_outside_subset() {
        // Feature 0 is informative, feature 1 is noise; restrict to 1.
        let rows_v: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64, 0.0]).collect();
        let ys: Vec<f64> = (0..10).map(|i| if i < 5 { 1.0 } else { 9.0 }).collect();
        let data = Dataset::from_rows(&rows_v, &ys);
        let rows: Vec<usize> = (0..10).collect();
        let tree = RegressionTree::fit_targets(&data, &rows, &[1], TreeParams::default());
        // Constant feature -> no split possible.
        assert_eq!(tree.n_leaves(), 1);
    }

    /// y = 10*(x0 > 0.5) + (x1 > 0.5) on the four corners, five rows each.
    fn interaction_data() -> Dataset {
        let mut rows_v = Vec::new();
        let mut ys = Vec::new();
        for a in 0..2 {
            for b in 0..2 {
                for _ in 0..5 {
                    rows_v.push(vec![a as f64, b as f64]);
                    ys.push(10.0 * a as f64 + b as f64);
                }
            }
        }
        Dataset::from_rows(&rows_v, &ys)
    }

    #[test]
    fn two_feature_interaction() {
        let data = interaction_data();
        let rows: Vec<usize> = (0..data.n_rows()).collect();
        let tree = RegressionTree::fit_targets(&data, &rows, &[0, 1], TreeParams::default());
        for (row, want) in [
            (vec![0.0, 0.0], 0.0),
            (vec![0.0, 1.0], 1.0),
            (vec![1.0, 0.0], 10.0),
            (vec![1.0, 1.0], 11.0),
        ] {
            assert!((tree.predict_row(&row) - want).abs() < 1e-9);
        }
    }

    #[test]
    fn nan_routes_to_the_left_child() {
        // One split per feature; the left child of each holds the 0s.
        let data = interaction_data();
        let rows: Vec<usize> = (0..data.n_rows()).collect();
        let tree = RegressionTree::fit_targets(&data, &rows, &[0, 1], TreeParams::default());
        let nan = f64::NAN;
        for (row, left_of) in [
            ([nan, 1.0], [0.0, 1.0]),
            ([1.0, nan], [1.0, 0.0]),
            ([nan, nan], [0.0, 0.0]),
        ] {
            assert_eq!(
                tree.predict_row(&row),
                tree.predict_row(&left_of),
                "{row:?}"
            );
        }
        assert!((tree.predict_row(&[nan, 1.0]) - 1.0).abs() < 1e-9);
        assert!((tree.predict_row(&[1.0, nan]) - 10.0).abs() < 1e-9);
    }
}
