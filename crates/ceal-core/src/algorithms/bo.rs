//! Bayesian-optimization tuners — the paper's §9 future-work direction.
//!
//! Two variants:
//!
//! * [`BayesOpt`] — plain BO: a Gaussian-process surrogate with the
//!   expected-improvement acquisition selects each measurement batch
//!   (random initial design).
//! * Bootstrapped BO ([`BayesOpt::bootstrapped`]) — CEAL's phase 1
//!   (component models + analytical combination) seeds the initial design
//!   with the low-fidelity model's top picks, exactly as CEAL seeds its
//!   active learner: the bootstrapping method with BO as the black-box
//!   technique ("we will use other black-box techniques such as RL and BO
//!   … in the bootstrapping method", §9).

use super::stepper::{after_phase1, pool_stepper, Phase1, Step};
use super::{random_unmeasured, select_top_unmeasured, Autotuner, Campaign, Stepper};
use crate::acm::{CombineFn, LowFidelityModel};
use crate::features::FeatureMap;
use crate::history::ComponentHistory;
use ceal_ml::{expected_improvement, Dataset, GaussianProcess, GpParams, Regressor};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// The Bayesian-optimization tuner.
#[derive(Clone)]
pub struct BayesOpt {
    /// Measurement batches after the initial design.
    pub iterations: usize,
    /// GP hyperparameters.
    pub gp: GpParams,
    /// Bootstrap phase-1 settings: `Some` runs CEAL's component-model
    /// combination to seed the initial design.
    pub bootstrap: Option<BoBootstrap>,
}

/// Phase-1 settings of bootstrapped BO.
#[derive(Clone)]
pub struct BoBootstrap {
    /// Budget fraction for component solo runs (ignored with history).
    pub m_r_fraction: f64,
    /// Historical component measurements.
    pub history: Option<Arc<ComponentHistory>>,
}

impl BayesOpt {
    /// Plain BO with a random initial design.
    pub fn new() -> Self {
        Self {
            iterations: 8,
            gp: GpParams::default(),
            bootstrap: None,
        }
    }

    /// Bootstrapped BO: the low-fidelity model seeds the initial design.
    pub fn bootstrapped(history: Option<Arc<ComponentHistory>>) -> Self {
        Self {
            iterations: 8,
            gp: GpParams::default(),
            bootstrap: Some(BoBootstrap {
                m_r_fraction: if history.is_some() { 0.0 } else { 0.4 },
                history,
            }),
        }
    }

    /// The coupled phase: `p1` is `Some` for the bootstrapped variant.
    fn coupled(&self, c: Campaign, p1: Option<Phase1>, mut rng: ChaCha8Rng) -> Box<dyn Stepper> {
        let fm = FeatureMap::for_workflow(&c.spec);
        let coupled_budget = p1.as_ref().map_or(c.budget, |p| p.coupled_budget(c.budget));
        let iters = self.iterations.clamp(1, coupled_budget);
        let batch = (coupled_budget / (iters + 1)).max(1);
        let free = vec![false; c.pool.len()];
        // Initial design: low-fidelity top picks (bootstrapped) mixed with
        // randoms, or pure randoms (plain BO).
        let first = match &p1 {
            Some(p1) => {
                let ml = LowFidelityModel::new(
                    &c.spec,
                    p1.models(&c.spec, None, c.seed),
                    CombineFn::for_objective(c.objective),
                );
                let scores = ml.score_all(&c.pool);
                let n_random = batch.div_ceil(2).min(coupled_budget);
                let mut first = random_unmeasured(&free, n_random, &mut rng);
                let mut taken = free;
                for &i in &first {
                    taken[i] = true;
                }
                let tops = batch.saturating_sub(first.len());
                first.extend(select_top_unmeasured(&scores, &taken, tops));
                first
            }
            None => random_unmeasured(&free, batch.min(coupled_budget), &mut rng),
        };
        let gp_params = self.gp;
        let encoded: Vec<Vec<f64>> = c.pool.iter().map(|cfg| fm.encode(cfg)).collect();
        let component_runs = p1.map_or_else(Vec::new, |p| p.component_runs);
        // BO loop: fit GP, take the batch with the highest EI.
        pool_stepper(c.pool, component_runs, first, move |ledger| {
            let measured = &ledger.measured;
            let rows: Vec<Vec<f64>> = measured.iter().map(|m| fm.encode(&m.config)).collect();
            let ys: Vec<f64> = measured.iter().map(|m| m.value).collect();
            let mut gp = GaussianProcess::new(gp_params);
            gp.fit(&Dataset::from_rows(&rows, &ys));
            // Final surrogate: GP posterior mean over the pool.
            let finish = || {
                encoded
                    .iter()
                    .map(|row| gp.predict_row(row))
                    .collect::<Vec<_>>()
            };
            if measured.len() >= coupled_budget {
                return finish().into();
            }
            let best = ys.iter().copied().fold(f64::INFINITY, f64::min);
            let mut ei: Vec<(usize, f64)> = encoded
                .iter()
                .enumerate()
                .filter(|(i, _)| !ledger.taken[*i])
                .map(|(i, row)| {
                    let (mean, var) = gp.predict_with_variance(row);
                    (i, expected_improvement(mean, var, best))
                })
                .collect();
            ei.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            let take = (coupled_budget - measured.len()).min(batch).max(1);
            Step::pick(ei.into_iter().take(take).map(|(i, _)| i).collect(), finish)
        })
    }
}

impl Default for BayesOpt {
    fn default() -> Self {
        Self::new()
    }
}

impl Autotuner for BayesOpt {
    fn name(&self) -> &'static str {
        if self.bootstrap.is_some() {
            "CEAL-BO"
        } else {
            "BO"
        }
    }

    fn stepper(&self, c: Campaign) -> Box<dyn Stepper> {
        let rng = ChaCha8Rng::seed_from_u64(c.seed);
        let Some(boot) = &self.bootstrap else {
            return self.coupled(c, None, rng);
        };
        // Phase 1: component models → low-fidelity seeding.
        let this = self.clone();
        let (history, m_r_fraction) = (boot.history.as_ref(), boot.m_r_fraction);
        after_phase1(c, history, m_r_fraction, rng, move |c, p1, rng| {
            this.coupled(c, Some(p1), rng)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::{lv_exec_fixture, truth_of};
    use super::*;

    #[test]
    fn plain_bo_spends_the_budget() {
        let fix = lv_exec_fixture();
        let run = BayesOpt::new().run(&fix.oracle, &fix.pool, 25, 0);
        assert_eq!(run.runs_used(), 25);
        assert!(run.component_runs.is_empty());
        assert_eq!(run.pool_scores.len(), fix.pool.len());
    }

    #[test]
    fn bootstrapped_bo_charges_component_runs() {
        let fix = lv_exec_fixture();
        let run = BayesOpt::bootstrapped(None).run(&fix.oracle, &fix.pool, 30, 0);
        assert_eq!(run.component_runs.len(), 2 * 12); // m_R = 0.4·30
        assert!(run.runs_used() <= 18);
    }

    #[test]
    fn deterministic_per_seed() {
        let fix = lv_exec_fixture();
        let bo = BayesOpt::new();
        let a = bo.run(&fix.oracle, &fix.pool, 20, 4);
        let b = bo.run(&fix.oracle, &fix.pool, 20, 4);
        assert_eq!(a.best_predicted, b.best_predicted);
    }

    #[test]
    fn bo_finds_good_configurations() {
        let fix = lv_exec_fixture();
        let mut sorted = fix.truth.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let q25 = sorted[sorted.len() / 4];
        let vals: Vec<f64> = (0..6)
            .map(|s| {
                truth_of(
                    fix,
                    &BayesOpt::new()
                        .run(&fix.oracle, &fix.pool, 40, s)
                        .best_predicted,
                )
            })
            .collect();
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        assert!(
            mean < q25,
            "BO mean {mean} should beat the first quartile {q25}"
        );
    }

    #[test]
    fn names_distinguish_variants() {
        assert_eq!(BayesOpt::new().name(), "BO");
        assert_eq!(BayesOpt::bootstrapped(None).name(), "CEAL-BO");
    }
}
