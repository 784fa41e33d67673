//! ALpH — black-box component combination (paper §4, evaluated §7.5).
//!
//! The ablation of CEAL's white-box combiner: instead of max/sum, ALpH
//! *learns* the combination. For each measured workflow configuration it
//! builds a feature row `[params…, v_1, …, v_J]` — the configuration plus
//! every component model's solo prediction — and trains a boosted-tree
//! model `M'_0` mapping that row to the measured workflow value. Sample
//! selection is plain active learning driven by `M'_0`.
//!
//! Its deficiency (which §7.5 quantifies): it ignores the known workflow
//! structure, so the combination itself must be learned from expensive
//! coupled runs.

use super::stepper::{after_phase1, pool_stepper, Step};
use super::{random_unmeasured, select_top_unmeasured, Autotuner, Campaign, Stepper};
use crate::acm::ComponentModels;
use crate::features::FeatureMap;
use crate::history::ComponentHistory;
use crate::oracle::Measurement;
use ceal_ml::{Dataset, GbtParams, GradientBoosting, Regressor};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// The ALpH tuner.
#[derive(Clone)]
pub struct Alph {
    /// Number of active-learning batches.
    pub iterations: usize,
    /// Fraction of the budget spent on component solo runs when no history
    /// is available.
    pub m_r_fraction: f64,
    /// Historical component measurements; free when present.
    pub history: Option<Arc<ComponentHistory>>,
    /// Component models fitted from `history`, built once per instance.
    hist_models: std::sync::OnceLock<Arc<ComponentModels>>,
}

impl Alph {
    /// ALpH without historical measurements.
    pub fn new() -> Self {
        Self {
            iterations: 5,
            m_r_fraction: 0.5,
            history: None,
            hist_models: std::sync::OnceLock::new(),
        }
    }

    /// ALpH reusing historical component measurements.
    pub fn with_history(history: Arc<ComponentHistory>) -> Self {
        Self {
            iterations: 5,
            m_r_fraction: 0.0,
            history: Some(history),
            hist_models: std::sync::OnceLock::new(),
        }
    }

    /// Builds the augmented feature row for one configuration.
    fn augmented_row(
        fm: &FeatureMap,
        models: &ComponentModels,
        ranges: &[std::ops::Range<usize>],
        config: &[i64],
    ) -> Vec<f64> {
        let mut row = fm.encode(config);
        for (j, r) in ranges.iter().enumerate() {
            row.push(models.predict(j, &config[r.clone()]));
        }
        row
    }

    /// Fits `M'_0` to the augmented rows of the pool entries `at`, each
    /// labelled with its measured workflow value.
    fn fit_combiner(
        pool_rows: &Dataset,
        at: &[usize],
        measured: &[Measurement],
        seed: u64,
    ) -> GradientBoosting {
        let mut train = Dataset::new(pool_rows.n_features());
        for (&i, m) in at.iter().zip(measured) {
            train.push_row(pool_rows.row(i), m.value);
        }
        let mut gbt = GradientBoosting::new(GbtParams::small_sample(seed));
        gbt.fit(&train);
        gbt
    }
}

impl Default for Alph {
    fn default() -> Self {
        Self::new()
    }
}

impl Autotuner for Alph {
    fn name(&self) -> &'static str {
        "ALpH"
    }

    fn stepper(&self, c: Campaign) -> Box<dyn Stepper> {
        let rng = ChaCha8Rng::seed_from_u64(c.seed);
        let iterations = self.iterations;
        // Historical models are fixed data: fitted once per tuner.
        let hist_models = self.history.as_ref().map(|h| {
            let fit = || Arc::new(ComponentModels::fit(&c.spec, h, 0xC0));
            Arc::clone(self.hist_models.get_or_init(fit))
        });
        let history = self.history.as_ref();
        after_phase1(c, history, self.m_r_fraction, rng, move |c, p1, mut rng| {
            let fm = FeatureMap::for_workflow(&c.spec);
            let ranges = c.spec.param_ranges();
            let models = p1.models(&c.spec, hist_models, c.seed);
            // Pre-compute augmented rows for the whole pool.
            let mut pool_rows = Dataset::new(fm.n_features() + ranges.len());
            for cfg in c.pool.iter() {
                pool_rows.push_row(&Self::augmented_row(&fm, &models, &ranges, cfg), 0.0);
            }

            let coupled_budget = p1.coupled_budget(c.budget);
            let iters = iterations.clamp(1, coupled_budget);
            let batch = (coupled_budget / iters).max(1);
            let free = vec![false; c.pool.len()];
            let first = random_unmeasured(&free, batch.min(coupled_budget), &mut rng);
            let mut refit = false;
            pool_stepper(c.pool, p1.component_runs, first, move |ledger| {
                let n = ledger.measured.len();
                // The first combiner is seeded plainly, every refit by the count.
                let seed = c.seed ^ if refit { n as u64 } else { 0 };
                refit = true;
                let model = Self::fit_combiner(&pool_rows, &ledger.at, &ledger.measured, seed);
                // One batch prediction per refit scores the pool for both
                // the picks and the finish.
                let scores = model.predict_batch(&pool_rows);
                let picks = if n < coupled_budget {
                    select_top_unmeasured(&scores, &ledger.taken, batch.min(coupled_budget - n))
                } else {
                    Vec::new()
                };
                Step::pick(picks, || scores)
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::{lv_exec_fixture, truth_of};
    use super::*;

    #[test]
    fn budget_split_between_solo_and_coupled() {
        let fix = lv_exec_fixture();
        let run = Alph::new().run(&fix.oracle, &fix.pool, 40, 0);
        assert_eq!(run.component_runs.len(), 2 * 20);
        assert!(run.runs_used() <= 20);
    }

    #[test]
    fn with_history_uses_full_budget_for_coupled_runs() {
        let fix = lv_exec_fixture();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let hist = Arc::new(ComponentHistory::collect(&fix.oracle, 80, &mut rng));
        let run = Alph::with_history(hist).run(&fix.oracle, &fix.pool, 25, 0);
        assert!(run.component_runs.is_empty());
        assert_eq!(run.runs_used(), 25);
    }

    #[test]
    fn deterministic_per_seed() {
        let fix = lv_exec_fixture();
        let a = Alph::new().run(&fix.oracle, &fix.pool, 30, 4);
        let b = Alph::new().run(&fix.oracle, &fix.pool, 30, 4);
        assert_eq!(a.best_predicted, b.best_predicted);
    }

    #[test]
    fn recommendation_is_reasonable() {
        let fix = lv_exec_fixture();
        let run = Alph::new().run(&fix.oracle, &fix.pool, 40, 2);
        let v = truth_of(fix, &run.best_predicted);
        let mut sorted = fix.truth.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        assert!(
            v <= sorted[sorted.len() / 4],
            "ALpH pick {v} not in top quartile"
        );
    }
}
