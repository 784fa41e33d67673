//! RS — random-sampling baseline (paper §7.3).
//!
//! Selects all `m` training configurations uniformly at random from the
//! pool, trains the standard boosted-tree surrogate once, and searches the
//! pool with it. The canonical "no intelligence in sample selection"
//! baseline.

use super::stepper::{pool_stepper, Step};
use super::{encode_pool, fit_surrogate, random_unmeasured, Autotuner, Campaign, Stepper};
use crate::features::FeatureMap;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The random-sampling tuner.
#[derive(Debug, Clone, Copy, Default)]
pub struct RandomSampling;

impl Autotuner for RandomSampling {
    fn name(&self) -> &'static str {
        "RS"
    }

    fn stepper(&self, c: Campaign) -> Box<dyn Stepper> {
        let mut rng = ChaCha8Rng::seed_from_u64(c.seed);
        let fm = FeatureMap::for_workflow(&c.spec);
        // The whole budget is the first batch; nothing follows it.
        let picks = random_unmeasured(&vec![false; c.pool.len()], c.budget, &mut rng);
        pool_stepper(c.pool, Vec::new(), picks, move |ledger| {
            let model = fit_surrogate(&fm, &ledger.measured, c.seed);
            Step::on(model, &encode_pool(&fm, &ledger.pool))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::{best_truth, lv_exec_fixture, truth_of};
    use super::*;

    #[test]
    fn uses_exactly_the_budget() {
        let fix = lv_exec_fixture();
        let run = RandomSampling.run(&fix.oracle, &fix.pool, 25, 0);
        assert_eq!(run.runs_used(), 25);
        assert!(run.component_runs.is_empty());
        assert_eq!(run.pool_scores.len(), fix.pool.len());
    }

    #[test]
    fn deterministic_per_seed() {
        let fix = lv_exec_fixture();
        let a = RandomSampling.run(&fix.oracle, &fix.pool, 20, 7);
        let b = RandomSampling.run(&fix.oracle, &fix.pool, 20, 7);
        assert_eq!(a.best_predicted, b.best_predicted);
        assert_eq!(a.pool_scores, b.pool_scores);
    }

    #[test]
    fn different_seeds_choose_different_samples() {
        let fix = lv_exec_fixture();
        let a = RandomSampling.run(&fix.oracle, &fix.pool, 20, 1);
        let b = RandomSampling.run(&fix.oracle, &fix.pool, 20, 2);
        let ca: Vec<_> = a.measured.iter().map(|m| m.config.clone()).collect();
        let cb: Vec<_> = b.measured.iter().map(|m| m.config.clone()).collect();
        assert_ne!(ca, cb);
    }

    #[test]
    fn recommendation_beats_pool_median() {
        let fix = lv_exec_fixture();
        let mut sorted = fix.truth.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let median = sorted[sorted.len() / 2];
        // Even random sampling should recommend something decent on
        // average; check a few seeds.
        let mut wins = 0;
        for seed in 0..5 {
            let run = RandomSampling.run(&fix.oracle, &fix.pool, 40, seed);
            if truth_of(fix, &run.best_predicted) < median {
                wins += 1;
            }
        }
        assert!(wins >= 4, "RS recommendations unusually poor: {wins}/5");
        let _ = best_truth(fix);
    }
}
