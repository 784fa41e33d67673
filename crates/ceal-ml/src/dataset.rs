//! A small, dense, row-major tabular dataset.
//!
//! Sized for auto-tuning workloads: at most a few thousand rows and a
//! handful of numeric features (configuration parameters, optionally
//! augmented with component-model predictions for the ALpH combiner).

use rand::Rng;

/// Dense row-major feature matrix with a scalar target per row.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Dataset {
    n_features: usize,
    features: Vec<f64>,
    targets: Vec<f64>,
}

impl Dataset {
    /// Creates an empty dataset expecting `n_features` columns per row.
    pub fn new(n_features: usize) -> Self {
        Self {
            n_features,
            features: Vec::new(),
            targets: Vec::new(),
        }
    }

    /// Creates a dataset from rows and targets.
    ///
    /// # Panics
    /// Panics if rows have inconsistent widths or lengths differ.
    pub fn from_rows(rows: &[Vec<f64>], targets: &[f64]) -> Self {
        assert_eq!(rows.len(), targets.len(), "rows/targets length mismatch");
        let n_features = rows.first().map_or(0, Vec::len);
        let mut ds = Self::new(n_features);
        for (row, &y) in rows.iter().zip(targets) {
            ds.push_row(row, y);
        }
        ds
    }

    /// Appends one row.
    ///
    /// # Panics
    /// Panics if `row.len()` does not match the dataset width.
    pub fn push_row(&mut self, row: &[f64], target: f64) {
        assert_eq!(row.len(), self.n_features, "row width mismatch");
        self.features.extend_from_slice(row);
        self.targets.push(target);
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.targets.len()
    }

    /// Number of feature columns.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// True when the dataset holds no rows.
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// Borrows row `i` as a feature slice.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.features[i * self.n_features..(i + 1) * self.n_features]
    }

    /// The raw row-major feature storage (`n_rows * n_features` values),
    /// for batch kernels that index rows from one base offset.
    pub(crate) fn feature_data(&self) -> &[f64] {
        &self.features
    }

    /// Target of row `i`.
    pub fn target(&self, i: usize) -> f64 {
        self.targets[i]
    }

    /// All targets.
    pub fn targets(&self) -> &[f64] {
        &self.targets
    }

    /// Value of feature `j` in row `i`.
    pub fn value(&self, i: usize, j: usize) -> f64 {
        self.features[i * self.n_features + j]
    }

    /// Mean of the targets (0 for an empty dataset).
    pub fn target_mean(&self) -> f64 {
        if self.targets.is_empty() {
            0.0
        } else {
            self.targets.iter().sum::<f64>() / self.targets.len() as f64
        }
    }

    /// Returns the sub-dataset at the given row indices.
    pub fn select(&self, indices: &[usize]) -> Dataset {
        let mut out = Dataset::new(self.n_features);
        for &i in indices {
            out.push_row(self.row(i), self.targets[i]);
        }
        out
    }

    /// Draws a bootstrap sample (with replacement) of `n` rows.
    pub fn bootstrap<R: Rng>(&self, n: usize, rng: &mut R) -> Dataset {
        let mut out = Dataset::new(self.n_features);
        if self.is_empty() {
            return out;
        }
        for _ in 0..n {
            let i = rng.gen_range(0..self.n_rows());
            out.push_row(self.row(i), self.targets[i]);
        }
        out
    }

    /// Per-column (min, max) over all rows; empty dataset yields empty vec.
    pub fn column_ranges(&self) -> Vec<(f64, f64)> {
        let mut ranges = vec![(f64::INFINITY, f64::NEG_INFINITY); self.n_features];
        for i in 0..self.n_rows() {
            let row = self.row(i);
            for (j, &v) in row.iter().enumerate() {
                if v < ranges[j].0 {
                    ranges[j].0 = v;
                }
                if v > ranges[j].1 {
                    ranges[j].1 = v;
                }
            }
        }
        if self.is_empty() {
            ranges.clear();
        }
        ranges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn sample() -> Dataset {
        Dataset::from_rows(
            &[
                vec![1.0, 2.0],
                vec![3.0, 4.0],
                vec![5.0, 6.0],
                vec![7.0, 8.0],
            ],
            &[10.0, 20.0, 30.0, 40.0],
        )
    }

    #[test]
    fn roundtrip_rows_and_targets() {
        let ds = sample();
        assert_eq!(ds.n_rows(), 4);
        assert_eq!(ds.n_features(), 2);
        assert_eq!(ds.row(2), &[5.0, 6.0]);
        assert_eq!(ds.target(3), 40.0);
        assert_eq!(ds.value(1, 1), 4.0);
    }

    #[test]
    fn target_mean_matches() {
        assert!((sample().target_mean() - 25.0).abs() < 1e-12);
        assert_eq!(Dataset::new(3).target_mean(), 0.0);
    }

    #[test]
    fn select_picks_rows_in_order() {
        let ds = sample().select(&[3, 0]);
        assert_eq!(ds.row(0), &[7.0, 8.0]);
        assert_eq!(ds.target(1), 10.0);
    }

    #[test]
    fn bootstrap_has_requested_size() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let b = sample().bootstrap(10, &mut rng);
        assert_eq!(b.n_rows(), 10);
        for i in 0..b.n_rows() {
            assert!(b.target(i) >= 10.0 && b.target(i) <= 40.0);
        }
    }

    #[test]
    fn column_ranges_cover_data() {
        let ranges = sample().column_ranges();
        assert_eq!(ranges, vec![(1.0, 7.0), (2.0, 8.0)]);
        assert!(Dataset::new(2).column_ranges().is_empty());
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn push_row_rejects_bad_width() {
        let mut ds = Dataset::new(2);
        ds.push_row(&[1.0], 0.0);
    }
}
