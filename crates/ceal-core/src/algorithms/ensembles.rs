//! Didona-style analytical/ML ensembles (paper §8.2) as ablation tuners.
//!
//! The paper argues these three classic ways of combining an analytical
//! model (AM) with ML are ill-suited to in-situ auto-tuning because the
//! available AM (the low-fidelity combination of component models) is too
//! rough. Implementing them makes that argument testable:
//!
//! * **KNN** — per query, choose AM or ML by whichever has the smaller
//!   error over the query's K nearest measured configurations.
//! * **HyBoost** — predict `AM(c) + ML_residual(c)`, the ML model trained
//!   on the AM's residuals.
//! * **PR (probing)** — use the AM where its error on the nearest measured
//!   configuration is below a threshold, ML elsewhere.
//!
//! All three select samples with the same batch-active-learning loop AL
//! uses, driven by their own ensemble prediction, and spend part of the
//! budget on component solo runs to build the AM (like CEAL).

use super::stepper::{after_phase1, pool_stepper, Step};
use super::{encode_pool, random_unmeasured, Autotuner, Campaign, Stepper};
use crate::acm::{CombineFn, LowFidelityModel};
use crate::features::FeatureMap;
use crate::history::ComponentHistory;
use crate::oracle::Measurement;
use ceal_ml::{Dataset, GbtParams, GradientBoosting, Regressor};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// Which ensemble strategy to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnsembleKind {
    /// Per-query model selection by K-nearest-neighbor validation error.
    Knn,
    /// AM plus ML-learned residual correction.
    HyBoost,
    /// AM where probing shows it accurate, ML elsewhere.
    Probing,
}

impl EnsembleKind {
    /// Display name used in ablation reports.
    pub fn label(&self) -> &'static str {
        match self {
            EnsembleKind::Knn => "KNN-ensemble",
            EnsembleKind::HyBoost => "HyBoost",
            EnsembleKind::Probing => "PR",
        }
    }
}

/// An ensemble-of-AM-and-ML tuner.
pub struct EnsembleTuner {
    /// Strategy.
    pub kind: EnsembleKind,
    /// Active-learning batches.
    pub iterations: usize,
    /// Budget fraction for component solo runs when no history is given.
    pub m_r_fraction: f64,
    /// Neighbors consulted (KNN / probing).
    pub k: usize,
    /// Relative-error threshold below which PR trusts the AM.
    pub probe_threshold: f64,
    /// Historical component measurements.
    pub history: Option<Arc<ComponentHistory>>,
}

impl EnsembleTuner {
    /// Creates an ensemble tuner with the defaults used in the ablations.
    pub fn new(kind: EnsembleKind) -> Self {
        Self {
            kind,
            iterations: 5,
            m_r_fraction: 0.5,
            k: 5,
            probe_threshold: 0.25,
            history: None,
        }
    }
}

/// One round's ensemble predictor, built from batched model evaluations.
///
/// The AM and ML parts are evaluated over the whole pool and the measured
/// set up front (`predict_batch` on the pre-encoded pool), so per-config
/// prediction only combines precomputed scores — the per-query work left is
/// the KNN/probing nearest-neighbor lookup.
struct EnsembleModel<'a> {
    kind: EnsembleKind,
    k: usize,
    probe_threshold: f64,
    fm: &'a FeatureMap,
    measured: &'a [Measurement],
    /// AM scores over the pool (fixed for the whole run).
    am_pool: &'a [f64],
    /// AM scores of the measured configurations, aligned with `measured`.
    am_meas: &'a [f64],
    /// This round's ML predictions over the pool.
    ml_pool: Vec<f64>,
    /// This round's ML predictions on the measured configurations.
    ml_meas: Vec<f64>,
    /// HyBoost residual predictions over the pool.
    res_pool: Option<Vec<f64>>,
}

impl EnsembleModel<'_> {
    /// Indices of the `k` nearest measured configurations to `config`.
    fn nearest(&self, config: &[i64]) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.measured.len()).collect();
        idx.sort_by(|&a, &b| {
            self.fm
                .distance(&self.measured[a].config, config)
                .total_cmp(&self.fm.distance(&self.measured[b].config, config))
        });
        idx.truncate(self.k.max(1));
        idx
    }

    /// Ensemble prediction for pool index `i` (`config == pool[i]`).
    fn predict_idx(&self, i: usize, config: &[i64]) -> f64 {
        let am_pred = self.am_pool[i];
        match self.kind {
            EnsembleKind::HyBoost => match &self.res_pool {
                Some(r) => am_pred + r[i],
                None => am_pred,
            },
            EnsembleKind::Knn => {
                if self.measured.is_empty() {
                    return am_pred;
                }
                let nn = self.nearest(config);
                let mut am_err = 0.0;
                let mut ml_err = 0.0;
                for &j in &nn {
                    let m = &self.measured[j];
                    am_err += (self.am_meas[j] - m.value).abs();
                    ml_err += (self.ml_meas[j] - m.value).abs();
                }
                if ml_err < am_err {
                    self.ml_pool[i]
                } else {
                    am_pred
                }
            }
            EnsembleKind::Probing => {
                if self.measured.is_empty() {
                    return am_pred;
                }
                let nn = self.nearest(config);
                let m = &self.measured[nn[0]];
                let rel = ((self.am_meas[nn[0]] - m.value) / m.value.max(1e-12)).abs();
                if rel <= self.probe_threshold {
                    am_pred
                } else {
                    self.ml_pool[i]
                }
            }
        }
    }
}

impl Autotuner for EnsembleTuner {
    fn name(&self) -> &'static str {
        self.kind.label()
    }

    fn stepper(&self, c: Campaign) -> Box<dyn Stepper> {
        let rng = ChaCha8Rng::seed_from_u64(c.seed);
        let (kind, k, probe_threshold) = (self.kind, self.k, self.probe_threshold);
        let iterations = self.iterations;
        // Build the AM exactly as CEAL's phase 1 does.
        let history = self.history.as_ref();
        after_phase1(c, history, self.m_r_fraction, rng, move |c, p1, mut rng| {
            let fm = FeatureMap::for_workflow(&c.spec);
            let am = LowFidelityModel::new(
                &c.spec,
                p1.models(&c.spec, None, c.seed),
                CombineFn::for_objective(c.objective),
            );
            let coupled_budget = p1.coupled_budget(c.budget);
            let iters = iterations.clamp(1, coupled_budget);
            let batch = (coupled_budget / iters).max(1);

            // The pool and the AM are fixed for the run: encode and score
            // them once. Measured configs accumulate, encoded/AM-scored as
            // they come.
            let enc_pool = encode_pool(&fm, &c.pool);
            let am_pool = am.score_all(&c.pool);
            let mut enc_meas = Dataset::new(fm.n_features());
            let mut am_meas: Vec<f64> = Vec::with_capacity(coupled_budget);

            let free = vec![false; c.pool.len()];
            let first = random_unmeasured(&free, batch.min(coupled_budget), &mut rng);
            pool_stepper(c.pool, p1.component_runs, first, move |ledger| {
                let measured = &ledger.measured;
                let new = enc_meas.n_rows();
                for (m, &i) in measured[new..].iter().zip(&ledger.at[new..]) {
                    enc_meas.push_row(&fm.encode(&m.config), m.value);
                    am_meas.push(am_pool[i]);
                }
                // (Re)train the ML parts on everything measured so far,
                // then evaluate them over the pool and the measured set in
                // one batch each.
                let mut ml_model = GradientBoosting::new(GbtParams::small_sample(c.seed));
                ml_model.fit(&enc_meas);
                let res_pool = if kind == EnsembleKind::HyBoost {
                    // Same encoded rows, retargeted to the AM residuals.
                    let mut train = Dataset::new(fm.n_features());
                    for (j, (m, am)) in measured.iter().zip(&am_meas).enumerate() {
                        train.push_row(enc_meas.row(j), m.value - am);
                    }
                    let mut r = GradientBoosting::new(GbtParams::small_sample(c.seed ^ 1));
                    r.fit(&train);
                    Some(r.predict_batch(&enc_pool))
                } else {
                    None
                };
                let model = EnsembleModel {
                    kind,
                    k,
                    probe_threshold,
                    fm: &fm,
                    measured,
                    am_pool: &am_pool,
                    am_meas: &am_meas,
                    ml_pool: ml_model.predict_batch(&enc_pool),
                    ml_meas: ml_model.predict_batch(&enc_meas),
                    res_pool,
                };
                let pool = ledger.pool.iter().enumerate();
                let scores: Vec<f64> = pool.map(|(i, c)| model.predict_idx(i, c)).collect();

                let mut cand = Vec::new();
                if measured.len() < coupled_budget {
                    cand.extend((0..scores.len()).filter(|&i| !ledger.taken[i]));
                    cand.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]).then(a.cmp(&b)));
                    cand.truncate(batch.min(coupled_budget - measured.len()));
                }
                Step::pick(cand, || scores)
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::{lv_exec_fixture, truth_of};
    use super::*;

    #[test]
    fn all_kinds_run_within_budget() {
        let fix = lv_exec_fixture();
        for kind in [
            EnsembleKind::Knn,
            EnsembleKind::HyBoost,
            EnsembleKind::Probing,
        ] {
            let run = EnsembleTuner::new(kind).run(&fix.oracle, &fix.pool, 30, 0);
            assert!(
                run.runs_used() <= 15,
                "{}: {}",
                kind.label(),
                run.runs_used()
            );
            assert_eq!(run.pool_scores.len(), fix.pool.len());
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let fix = lv_exec_fixture();
        let t = EnsembleTuner::new(EnsembleKind::HyBoost);
        let a = t.run(&fix.oracle, &fix.pool, 24, 3);
        let b = t.run(&fix.oracle, &fix.pool, 24, 3);
        assert_eq!(a.best_predicted, b.best_predicted);
    }

    #[test]
    fn recommendations_are_not_absurd() {
        let fix = lv_exec_fixture();
        let mut sorted = fix.truth.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let median = sorted[sorted.len() / 2];
        for kind in [
            EnsembleKind::Knn,
            EnsembleKind::HyBoost,
            EnsembleKind::Probing,
        ] {
            let run = EnsembleTuner::new(kind).run(&fix.oracle, &fix.pool, 40, 1);
            let v = truth_of(fix, &run.best_predicted);
            assert!(
                v < median,
                "{} picked {v} worse than median {median}",
                kind.label()
            );
        }
    }

    #[test]
    fn labels_are_distinct() {
        let labels: Vec<&str> = [
            EnsembleKind::Knn,
            EnsembleKind::HyBoost,
            EnsembleKind::Probing,
        ]
        .iter()
        .map(|k| k.label())
        .collect();
        assert_eq!(labels, vec!["KNN-ensemble", "HyBoost", "PR"]);
    }
}
