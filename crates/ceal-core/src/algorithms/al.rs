//! AL — batch active learning (paper §7.3).
//!
//! "A typical AL algorithm that iteratively selects as training samples a
//! batch of the best configurations predicted by gradually refined models"
//! (Mametjanov et al. / Behzad et al.). The first batch is random; each
//! subsequent batch takes the surrogate's top predictions among unmeasured
//! pool configurations.

use super::stepper::{pool_stepper, Step};
use super::{
    encode_pool, fit_surrogate_kind, random_unmeasured, select_top_unmeasured, Autotuner, Campaign,
    Stepper, SurrogateKind,
};
use crate::features::FeatureMap;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The batch-active-learning tuner.
#[derive(Debug, Clone, Copy)]
pub struct ActiveLearning {
    /// Number of batches (iterations); the budget is split evenly.
    pub iterations: usize,
    /// Surrogate model family.
    pub surrogate: SurrogateKind,
}

impl Default for ActiveLearning {
    fn default() -> Self {
        Self {
            iterations: 5,
            surrogate: SurrogateKind::BoostedTrees,
        }
    }
}

impl Autotuner for ActiveLearning {
    fn name(&self) -> &'static str {
        "AL"
    }

    fn stepper(&self, c: Campaign) -> Box<dyn Stepper> {
        let mut rng = ChaCha8Rng::seed_from_u64(c.seed);
        let fm = FeatureMap::for_workflow(&c.spec);
        let iters = self.iterations.clamp(1, c.budget.max(1));
        let batch = (c.budget / iters).max(1);
        let kind = self.surrogate;
        // Fixed pool → encode once, score batched every iteration.
        let enc_pool = encode_pool(&fm, &c.pool);
        // Batch 0: random seeding.
        let first = random_unmeasured(&vec![false; c.pool.len()], batch.min(c.budget), &mut rng);
        let mut refit = false;
        pool_stepper(c.pool, Vec::new(), first, move |ledger| {
            let n = ledger.measured.len();
            // The first model is seeded plainly, every refit by the count.
            let seed = c.seed ^ if refit { n as u64 } else { 0 };
            refit = true;
            let model = fit_surrogate_kind(kind, &fm, &ledger.measured, seed);
            let scores = model.predict_batch(&enc_pool);
            let take = batch.min(c.budget.saturating_sub(n));
            let picks = select_top_unmeasured(&scores, &ledger.taken, take);
            Step::pick(picks, || Step::Finish(scores, Some(model.into())))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::{lv_exec_fixture, truth_of};
    use super::super::RandomSampling;
    use super::*;
    use crate::metrics::mean;

    #[test]
    fn consumes_the_budget_in_batches() {
        let fix = lv_exec_fixture();
        let run = ActiveLearning::default().run(&fix.oracle, &fix.pool, 25, 3);
        assert_eq!(run.runs_used(), 25);
    }

    #[test]
    fn deterministic_per_seed() {
        let fix = lv_exec_fixture();
        let a = ActiveLearning::default().run(&fix.oracle, &fix.pool, 20, 11);
        let b = ActiveLearning::default().run(&fix.oracle, &fix.pool, 20, 11);
        assert_eq!(a.best_predicted, b.best_predicted);
    }

    #[test]
    fn beats_random_sampling_on_average() {
        let fix = lv_exec_fixture();
        let al: Vec<f64> = (0..8)
            .map(|s| {
                truth_of(
                    fix,
                    &ActiveLearning::default()
                        .run(&fix.oracle, &fix.pool, 30, s)
                        .best_predicted,
                )
            })
            .collect();
        let rs: Vec<f64> = (0..8)
            .map(|s| {
                truth_of(
                    fix,
                    &RandomSampling
                        .run(&fix.oracle, &fix.pool, 30, s)
                        .best_predicted,
                )
            })
            .collect();
        assert!(
            mean(&al) <= mean(&rs) * 1.05,
            "AL ({}) should not lose clearly to RS ({})",
            mean(&al),
            mean(&rs)
        );
    }

    #[test]
    fn budget_smaller_than_batches_still_works() {
        let fix = lv_exec_fixture();
        let run = ActiveLearning {
            iterations: 10,
            ..Default::default()
        }
        .run(&fix.oracle, &fix.pool, 3, 0);
        assert_eq!(run.runs_used(), 3);
    }
}
