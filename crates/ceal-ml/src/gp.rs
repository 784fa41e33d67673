//! Gaussian-process regression with an RBF kernel.
//!
//! The paper's future work (§9) proposes Bayesian optimization as an
//! alternative black-box technique inside the bootstrapping method,
//! because BO "may naturally consider noise in selecting top
//! configurations". A GP posterior supplies both the mean prediction and
//! the predictive uncertainty that acquisition functions need.
//!
//! Exact GP with Cholesky factorization — cubic in the number of training
//! samples, which is fine here: auto-tuning budgets are tens of samples.

use crate::dataset::Dataset;
use crate::Regressor;

/// Hyperparameters of the RBF-kernel GP.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpParams {
    /// Kernel length scale (in normalized feature units).
    pub length_scale: f64,
    /// Signal variance σ_f².
    pub signal_variance: f64,
    /// Observation-noise variance σ_n² added to the kernel diagonal.
    pub noise_variance: f64,
}

impl Default for GpParams {
    fn default() -> Self {
        Self {
            length_scale: 0.3,
            signal_variance: 1.0,
            noise_variance: 1e-4,
        }
    }
}

/// A fitted Gaussian-process regressor.
///
/// Targets are internally standardized (zero mean, unit variance) so the
/// default kernel hyperparameters behave across the orders of magnitude
/// spanned by execution times.
#[derive(Debug, Clone)]
pub struct GaussianProcess {
    params: GpParams,
    train_x: Vec<Vec<f64>>,
    /// Cholesky factor L of (K + σ_n² I), row-major lower triangular.
    chol: Vec<f64>,
    /// α = (K + σ_n² I)⁻¹ y, for the posterior mean.
    alpha: Vec<f64>,
    y_mean: f64,
    y_std: f64,
}

impl GaussianProcess {
    /// Creates an unfitted GP.
    pub fn new(params: GpParams) -> Self {
        Self {
            params,
            train_x: Vec::new(),
            chol: Vec::new(),
            alpha: Vec::new(),
            y_mean: 0.0,
            y_std: 1.0,
        }
    }

    fn kernel(&self, a: &[f64], b: &[f64]) -> f64 {
        let d2: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
        self.params.signal_variance
            * (-d2 / (2.0 * self.params.length_scale * self.params.length_scale)).exp()
    }

    /// Posterior mean and variance at `row`.
    ///
    /// Returns the prior when unfitted.
    pub fn predict_with_variance(&self, row: &[f64]) -> (f64, f64) {
        let n = self.train_x.len();
        if n == 0 {
            return (
                self.y_mean,
                self.params.signal_variance * self.y_std * self.y_std,
            );
        }
        let k_star: Vec<f64> = self.train_x.iter().map(|x| self.kernel(x, row)).collect();
        // mean = k*ᵀ α
        let mean_std: f64 = k_star.iter().zip(&self.alpha).map(|(k, a)| k * a).sum();
        // v = L⁻¹ k*; var = k(x,x) − vᵀv
        let mut v = k_star;
        for i in 0..n {
            let mut sum = v[i];
            for (j, vj) in v.iter().enumerate().take(i) {
                sum -= self.chol[i * n + j] * vj;
            }
            v[i] = sum / self.chol[i * n + i];
        }
        let var_std = (self.kernel(row, row) - v.iter().map(|x| x * x).sum::<f64>()).max(1e-12);
        (
            mean_std * self.y_std + self.y_mean,
            var_std * self.y_std * self.y_std,
        )
    }
}

impl Regressor for GaussianProcess {
    fn fit(&mut self, data: &Dataset) {
        assert!(!data.is_empty(), "cannot fit a GP to an empty dataset");
        let n = data.n_rows();
        self.train_x = (0..n).map(|i| data.row(i).to_vec()).collect();

        self.y_mean = data.target_mean();
        let var: f64 = data
            .targets()
            .iter()
            .map(|y| (y - self.y_mean) * (y - self.y_mean))
            .sum::<f64>()
            / n as f64;
        self.y_std = var.sqrt().max(1e-12);
        let y_std: Vec<f64> = data
            .targets()
            .iter()
            .map(|y| (y - self.y_mean) / self.y_std)
            .collect();

        // K + σ_n² I, then in-place Cholesky.
        let mut k = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..=i {
                let v = self.kernel(&self.train_x[i], &self.train_x[j]);
                k[i * n + j] = v;
                k[j * n + i] = v;
            }
            k[i * n + i] += self.params.noise_variance.max(1e-10);
        }
        let mut l = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..=i {
                let mut sum = k[i * n + j];
                for t in 0..j {
                    sum -= l[i * n + t] * l[j * n + t];
                }
                if i == j {
                    // Jitter keeps duplicated rows factorizable.
                    l[i * n + i] = sum.max(1e-12).sqrt();
                } else {
                    l[i * n + j] = sum / l[j * n + j];
                }
            }
        }
        // Solve L z = y, then Lᵀ α = z.
        let mut z = vec![0.0; n];
        for i in 0..n {
            let mut sum = y_std[i];
            for j in 0..i {
                sum -= l[i * n + j] * z[j];
            }
            z[i] = sum / l[i * n + i];
        }
        let mut alpha = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = z[i];
            for j in i + 1..n {
                sum -= l[j * n + i] * alpha[j];
            }
            alpha[i] = sum / l[i * n + i];
        }
        self.chol = l;
        self.alpha = alpha;
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        self.predict_with_variance(row).0
    }

    fn is_fitted(&self) -> bool {
        !self.train_x.is_empty()
    }
}

/// Expected improvement (for minimization) of a candidate with posterior
/// `(mean, variance)` against the incumbent best observed value.
pub fn expected_improvement(mean: f64, variance: f64, best: f64) -> f64 {
    let sd = variance.sqrt();
    if sd < 1e-12 {
        return (best - mean).max(0.0);
    }
    let z = (best - mean) / sd;
    let phi = (-0.5 * z * z).exp() / (2.0 * std::f64::consts::PI).sqrt();
    let big_phi = 0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2));
    (best - mean) * big_phi + sd * phi
}

/// Abramowitz–Stegun 7.1.26 rational approximation of erf (|err| < 1.5e-7).
fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    sign * (1.0 - poly * (-x * x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_data() -> Dataset {
        let rows: Vec<Vec<f64>> = (0..12).map(|i| vec![i as f64 / 11.0]).collect();
        let ys: Vec<f64> = rows.iter().map(|r| 3.0 * r[0] + 1.0).collect();
        Dataset::from_rows(&rows, &ys)
    }

    #[test]
    fn interpolates_training_points() {
        let mut gp = GaussianProcess::new(GpParams::default());
        let data = line_data();
        gp.fit(&data);
        for i in 0..data.n_rows() {
            let p = gp.predict_row(data.row(i));
            assert!(
                (p - data.target(i)).abs() < 0.05,
                "{} vs {}",
                p,
                data.target(i)
            );
        }
    }

    #[test]
    fn variance_is_small_at_data_large_far_away() {
        let mut gp = GaussianProcess::new(GpParams::default());
        gp.fit(&line_data());
        let (_, var_at) = gp.predict_with_variance(&[0.5]);
        let (_, var_far) = gp.predict_with_variance(&[5.0]);
        assert!(var_at < var_far / 10.0, "at-data {var_at} vs far {var_far}");
    }

    #[test]
    fn unfitted_returns_prior() {
        let gp = GaussianProcess::new(GpParams::default());
        assert!(!gp.is_fitted());
        let (m, v) = gp.predict_with_variance(&[0.0]);
        assert_eq!(m, 0.0);
        assert!(v > 0.0);
    }

    #[test]
    fn handles_duplicate_rows() {
        let rows = vec![vec![0.5], vec![0.5], vec![0.7]];
        let ys = vec![1.0, 1.2, 2.0];
        let mut gp = GaussianProcess::new(GpParams::default());
        gp.fit(&Dataset::from_rows(&rows, &ys));
        let p = gp.predict_row(&[0.5]);
        assert!(p.is_finite());
        assert!((0.8..1.4).contains(&p), "should average duplicates: {p}");
    }

    #[test]
    fn erf_matches_known_values() {
        assert!((erf(0.0)).abs() < 1e-7);
        assert!((erf(1.0) - 0.8427).abs() < 1e-3);
        assert!((erf(-1.0) + 0.8427).abs() < 1e-3);
        assert!((erf(3.0) - 0.99998).abs() < 1e-4);
    }

    #[test]
    fn expected_improvement_behaviour() {
        // Candidate clearly better than incumbent: EI ≈ gap.
        let ei_better = expected_improvement(1.0, 0.01, 5.0);
        assert!((ei_better - 4.0).abs() < 0.1, "{ei_better}");
        // Candidate clearly worse with tiny variance: EI ≈ 0.
        let ei_worse = expected_improvement(10.0, 0.01, 5.0);
        assert!(ei_worse < 1e-6);
        // Uncertainty adds optimism.
        let ei_uncertain = expected_improvement(5.0, 4.0, 5.0);
        assert!(ei_uncertain > 0.5);
        // EI is monotone in variance at fixed mean.
        assert!(expected_improvement(6.0, 9.0, 5.0) > expected_improvement(6.0, 1.0, 5.0));
    }
}
