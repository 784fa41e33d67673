//! Regression quality metrics used throughout the evaluation.
//!
//! The paper reports MdAPE (median absolute percentage error, §7.4.2) for
//! model accuracy; MSE, RMSE and R² are the oracles the ML tests judge fits
//! by.

/// Mean squared error. Returns 0 for empty inputs. Kept public for
/// `tests/proptests.rs`, whose boosting property compares fits by it.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn mse(actual: &[f64], predicted: &[f64]) -> f64 {
    assert_eq!(
        actual.len(),
        predicted.len(),
        "metric input length mismatch"
    );
    if actual.is_empty() {
        return 0.0;
    }
    actual
        .iter()
        .zip(predicted)
        .map(|(y, p)| (y - p) * (y - p))
        .sum::<f64>()
        / actual.len() as f64
}

/// Root mean squared error.
pub fn rmse(actual: &[f64], predicted: &[f64]) -> f64 {
    mse(actual, predicted).sqrt()
}

/// Absolute percentage error of one sample: `|(y - y')/y|` (paper §7.4.2).
///
/// Samples with `y == 0` are undefined; callers should filter them (the
/// workloads here have strictly positive times).
fn ape(actual: f64, predicted: f64) -> f64 {
    ((actual - predicted) / actual).abs()
}

/// Median absolute percentage error, in percent (paper Fig. 6).
///
/// Rows with a zero actual value are skipped. Returns 0 when nothing
/// remains.
pub fn mdape(actual: &[f64], predicted: &[f64]) -> f64 {
    assert_eq!(
        actual.len(),
        predicted.len(),
        "metric input length mismatch"
    );
    let mut apes: Vec<f64> = actual
        .iter()
        .zip(predicted)
        .filter(|(y, _)| **y != 0.0)
        .map(|(&y, &p)| ape(y, p))
        .collect();
    if apes.is_empty() {
        return 0.0;
    }
    apes.sort_by(|a, b| a.total_cmp(b));
    let n = apes.len();
    let median = if n % 2 == 1 {
        apes[n / 2]
    } else {
        0.5 * (apes[n / 2 - 1] + apes[n / 2])
    };
    median * 100.0
}

/// Coefficient of determination R². Returns 0 when the targets are constant.
pub fn r2(actual: &[f64], predicted: &[f64]) -> f64 {
    assert_eq!(
        actual.len(),
        predicted.len(),
        "metric input length mismatch"
    );
    if actual.is_empty() {
        return 0.0;
    }
    let mean = actual.iter().sum::<f64>() / actual.len() as f64;
    let ss_tot: f64 = actual.iter().map(|y| (y - mean) * (y - mean)).sum();
    if ss_tot == 0.0 {
        return 0.0;
    }
    let ss_res: f64 = actual
        .iter()
        .zip(predicted)
        .map(|(y, p)| (y - p) * (y - p))
        .sum();
    1.0 - ss_res / ss_tot
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mse_and_rmse_basic() {
        let y = [1.0, 2.0, 3.0];
        let p = [1.0, 2.0, 5.0];
        assert!((mse(&y, &p) - 4.0 / 3.0).abs() < 1e-12);
        assert!((rmse(&y, &p) - (4.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn perfect_prediction_scores() {
        let y = [1.0, 5.0, 9.0];
        assert_eq!(mse(&y, &y), 0.0);
        assert_eq!(mdape(&y, &y), 0.0);
        assert!((r2(&y, &y) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mdape_is_median_percentage() {
        // APEs: 10%, 20%, 50% -> median 20%.
        let y = [10.0, 10.0, 10.0];
        let p = [11.0, 12.0, 15.0];
        assert!((mdape(&y, &p) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn mdape_even_count_averages_middle() {
        // APEs: 10%, 20%, 30%, 50% -> median 25%.
        let y = [10.0, 10.0, 10.0, 10.0];
        let p = [11.0, 12.0, 13.0, 15.0];
        assert!((mdape(&y, &p) - 25.0).abs() < 1e-9);
    }

    #[test]
    fn mdape_skips_zero_actuals() {
        let y = [0.0, 10.0];
        let p = [5.0, 12.0];
        assert!((mdape(&y, &p) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn r2_constant_targets_zero() {
        assert_eq!(r2(&[2.0, 2.0], &[1.0, 3.0]), 0.0);
    }
}
