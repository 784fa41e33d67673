//! Transfer priors: seeding a campaign's bootstrap phase with another
//! platform's measured samples.
//!
//! The paper's core move is bootstrapping the workflow surrogate from a
//! low-fidelity model so the tuner spends its coupled-run budget refining
//! instead of exploring blindly. A sibling platform's cached campaign is
//! another source of exactly that kind of low-fidelity signal: its
//! `(config, value)` samples rank the configuration space roughly right
//! even when the absolute values are off by a hardware-dependent factor.
//! [`TransferPrior`] packages such samples so the bootstrap/history path
//! can fold them into surrogate fits as *prior* history — guidance for
//! sample selection, never the campaign's final answer.

use crate::algorithms::{fit_surrogate_samples, SurrogateKind};
use crate::features::FeatureMap;
use ceal_ml::Regressor;

/// Coupled `(config, value)` samples measured on a *different* platform,
/// used to warm-start a campaign on this one.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferPrior {
    /// The sibling campaign's measured samples.
    pub samples: Vec<(Vec<i64>, f64)>,
    /// Where the samples came from (platform fingerprint, usually) — for
    /// logs and reports only.
    pub source: String,
    /// Feature-space distance between the sibling platform and ours, as
    /// computed by whichever nearest-neighbour lookup produced this prior.
    pub distance: f64,
}

impl TransferPrior {
    /// A prior holding `samples` measured on `source` at `distance`.
    pub fn new(samples: Vec<(Vec<i64>, f64)>, source: impl Into<String>, distance: f64) -> Self {
        Self {
            samples,
            source: source.into(),
            distance,
        }
    }

    /// Whether the prior carries any usable samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Training set for a seeded surrogate fit: this campaign's own
    /// measurements plus the prior samples mapped onto their value scale.
    ///
    /// Sibling-platform values live on a different scale (different
    /// hardware, different absolute times), so raw concatenation would let
    /// whichever platform is slower dominate the fit. With at least two
    /// local measurements the prior values are affinely rescaled to match
    /// the local mean and spread — the *ranking* the prior encodes is what
    /// transfers, not the magnitudes. With fewer than two local samples
    /// there is no local scale yet and the prior is used as-is (relative
    /// order is all the selection loop consumes).
    ///
    /// A configuration measured locally always wins over its prior copy:
    /// prior samples whose config already appears in `measured` are
    /// dropped.
    fn blend(&self, measured: &[(Vec<i64>, f64)]) -> Vec<(Vec<i64>, f64)> {
        let mut out: Vec<(Vec<i64>, f64)> = measured.to_vec();
        if self.samples.is_empty() {
            return out;
        }
        let fresh: Vec<&(Vec<i64>, f64)> = self
            .samples
            .iter()
            .filter(|(c, _)| !measured.iter().any(|(m, _)| m == c))
            .collect();
        if fresh.is_empty() {
            return out;
        }
        let rescale = affine_rescale(
            &fresh.iter().map(|&&(_, v)| v).collect::<Vec<f64>>(),
            &measured.iter().map(|&(_, v)| v).collect::<Vec<f64>>(),
        );
        out.extend(fresh.into_iter().map(|(c, v)| (c.clone(), rescale(*v))));
        out
    }
}

/// Affine map taking the `from` sample distribution onto the `to`
/// distribution (mean and standard deviation matched). Degenerate inputs —
/// fewer than two target samples, or a spread too small to normalize —
/// fall back to identity or a pure mean shift.
fn affine_rescale(from: &[f64], to: &[f64]) -> impl Fn(f64) -> f64 {
    fn mean_std(xs: &[f64]) -> (f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        (mean, var.sqrt())
    }
    const MIN_STD: f64 = 1e-12;
    let (scale, shift) = if to.len() < 2 || from.is_empty() {
        (1.0, 0.0)
    } else {
        let (fm, fs) = mean_std(from);
        let (tm, ts) = mean_std(to);
        if fs < MIN_STD {
            // A flat prior carries no ranking signal; just center it locally.
            (0.0, tm)
        } else {
            let scale = ts.max(MIN_STD) / fs;
            (scale, tm - fm * scale)
        }
    };
    move |v| v * scale + shift
}

/// Fits the workflow surrogate on `measured` blended with `prior` (see
/// `TransferPrior::blend`) — the seed-with-prior-samples entry point the
/// serving layer's bootstrap path uses while a transfer-seeded campaign
/// has too few of its own measurements to stand alone.
pub fn fit_surrogate_seeded(
    kind: SurrogateKind,
    fm: &FeatureMap,
    measured: &[(Vec<i64>, f64)],
    prior: &TransferPrior,
    seed: u64,
) -> Box<dyn Regressor> {
    let blended = prior.blend(measured);
    fit_surrogate_samples(kind, fm, &blended, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prior(samples: Vec<(Vec<i64>, f64)>) -> TransferPrior {
        TransferPrior::new(samples, "fp-test", 0.1)
    }

    #[test]
    fn blend_without_local_samples_keeps_prior_raw() {
        let p = prior(vec![(vec![1], 10.0), (vec![2], 20.0)]);
        let blended = p.blend(&[]);
        assert_eq!(blended, vec![(vec![1], 10.0), (vec![2], 20.0)]);
    }

    #[test]
    fn blend_rescales_prior_onto_local_scale() {
        // Prior: mean 15, std 5. Local: mean 1.5, std 0.5 — ten times
        // smaller. The rescaled prior must land on the local scale with
        // its ordering intact.
        let p = prior(vec![(vec![1], 10.0), (vec![2], 20.0)]);
        let local = vec![(vec![3], 1.0), (vec![4], 2.0)];
        let blended = p.blend(&local);
        assert_eq!(blended.len(), 4);
        let v1 = blended[2].1;
        let v2 = blended[3].1;
        assert!(v1 < v2, "rescaling must preserve order");
        assert!((v1 - 1.0).abs() < 1e-9, "got {v1}");
        assert!((v2 - 2.0).abs() < 1e-9, "got {v2}");
    }

    #[test]
    fn blend_prefers_local_measurement_over_prior_copy() {
        let p = prior(vec![(vec![1], 99.0), (vec![2], 50.0)]);
        let local = vec![(vec![1], 1.0), (vec![9], 2.0)];
        let blended = p.blend(&local);
        // Config [1] appears once, with the locally measured value.
        let ones: Vec<f64> = blended
            .iter()
            .filter(|(c, _)| c == &vec![1])
            .map(|&(_, v)| v)
            .collect();
        assert_eq!(ones, vec![1.0]);
        assert_eq!(blended.len(), 3);
    }

    #[test]
    fn flat_prior_collapses_to_local_mean() {
        let p = prior(vec![(vec![1], 7.0), (vec![2], 7.0)]);
        let local = vec![(vec![3], 1.0), (vec![4], 3.0)];
        let blended = p.blend(&local);
        assert!((blended[2].1 - 2.0).abs() < 1e-9);
        assert!((blended[3].1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn seeded_fit_ranks_like_the_prior_before_any_measurement() {
        // Two well-separated configs; the prior says the first is better.
        // A surrogate fitted purely from the prior must agree.
        let fm = FeatureMap::for_workflow(&ceal_apps::lv());
        let pool: Vec<Vec<i64>> = vec![vec![100, 20, 1, 50, 10, 1], vec![900, 2, 4, 700, 2, 4]];
        let p = prior(vec![
            (pool[0].clone(), 1.0),
            (pool[1].clone(), 10.0),
            (vec![120, 18, 1, 60, 9, 1], 1.2),
            (vec![880, 3, 4, 650, 3, 4], 9.0),
        ]);
        let model = fit_surrogate_seeded(SurrogateKind::BoostedTrees, &fm, &[], &p, 7);
        let scores = model.predict_batch(&crate::algorithms::encode_pool(&fm, &pool));
        assert!(
            scores[0] < scores[1],
            "seeded surrogate must reproduce the prior's ranking: {scores:?}"
        );
    }
}
