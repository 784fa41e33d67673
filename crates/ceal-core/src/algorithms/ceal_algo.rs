//! CEAL — Component-based Ensemble Active Learning (paper Alg. 1).
//!
//! Phase 1 (lines 1–6): spend `m_R` of the budget running each component
//! standalone on random configurations (or reuse historical measurements
//! for free), train one boosted-tree model per component, and combine them
//! with the objective's analytical coupling function into the low-fidelity
//! model `M_L`.
//!
//! Phase 2 (lines 7–28): seed the measurement set with `m_0/2` random pool
//! configurations plus the `m_B` best according to `M_L`; then iterate:
//! measure, detect whether the evolving high-fidelity model `M_H` has
//! become the better ranker (summed top-1/2/3 recall on the measured data,
//! lines 17–19), top up with random samples when `M_H`'s view of the
//! measured data looks biased (lines 20–22), switch the selection model
//! and convert unspent random budget into bigger batches on a switch
//! (lines 23–24), and finally return `M_H`.

use super::stepper::{after_phase1, pool_stepper, Step};
use super::{
    encode_pool, fit_surrogate_kind, random_unmeasured, select_top_unmeasured, Autotuner, Campaign,
    Stepper, SurrogateKind,
};
use crate::acm::{CombineFn, ComponentModels, LowFidelityModel};
use crate::features::FeatureMap;
use crate::history::ComponentHistory;
use crate::metrics::{recall_score, top_n};
use crate::oracle::Measurement;
use crate::prior::fit_surrogate_seeded;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// When the selection model may switch from `M_L` to `M_H`.
///
/// `Dynamic` is the paper's design (lines 16–24); the other modes exist for
/// the `ablation-switch` bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SwitchMode {
    /// Switch when `M_H`'s summed top-1/2/3 recall reaches `M_L`'s.
    #[default]
    Dynamic,
    /// Never switch: `M_L` selects samples for the whole run.
    NeverSwitch,
    /// Switch as soon as `M_H` has been trained once.
    Immediate,
}

/// Hyperparameters of CEAL (paper §6 and Fig. 13).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CealParams {
    /// Fraction of the budget spent on component solo runs (`m_R / m`).
    /// Ignored (treated as 0) when historical measurements are supplied.
    pub m_r_fraction: f64,
    /// Upper bound on random samples as a fraction of the budget
    /// (`m_0 / m`).
    pub m0_fraction: f64,
    /// Number of iterations `I`.
    pub iterations: usize,
    /// Model-switch policy (ablation knob; `Dynamic` is the paper's).
    pub switch_mode: SwitchMode,
    /// Whether the bias-guard random top-up (Alg. 1 lines 20–22) is active
    /// (ablation knob; `true` is the paper's).
    pub random_topup: bool,
    /// Surrogate family for `M_H` (ablation knob; boosted trees is the
    /// paper's).
    pub surrogate: SurrogateKind,
}

impl Default for CealParams {
    fn default() -> Self {
        Self::without_history()
    }
}

impl CealParams {
    /// Defaults without historical measurements (`m_R ≈ 0.4 m`,
    /// `m_0 ≈ 0.1 m`, `I = 8` — within the paper's recommended
    /// `m_R ∈ [0.25, 0.75]·m` band, selected by the same per-case tuning
    /// §7.3 describes; see EXPERIMENTS.md).
    pub fn without_history() -> Self {
        Self {
            m_r_fraction: 0.4,
            m0_fraction: 0.1,
            iterations: 8,
            switch_mode: SwitchMode::Dynamic,
            random_topup: true,
            surrogate: SurrogateKind::BoostedTrees,
        }
    }

    /// Defaults with historical measurements (`m_R = 0`, `m_0 ≈ 0.15 m`,
    /// `I = 8`; the paper's testbed converged by `I = 3` with histories,
    /// this substrate needs the same `I = 8` as without — Fig. 13a shows
    /// the convergence curve).
    pub fn with_history() -> Self {
        Self {
            m_r_fraction: 0.0,
            m0_fraction: 0.15,
            iterations: 8,
            switch_mode: SwitchMode::Dynamic,
            random_topup: true,
            surrogate: SurrogateKind::BoostedTrees,
        }
    }
}

/// The CEAL tuner.
///
/// ```
/// use ceal_core::{sample_pool, Autotuner, Ceal, CealParams, Oracle, PoolOracle, SimOracle};
/// use ceal_sim::{Objective, Simulator};
/// use rand::SeedableRng;
///
/// let workflow = ceal_apps::lv();
/// let sim = Simulator::new();
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
/// let pool = sample_pool(&workflow, &sim.platform, 150, &mut rng);
/// let oracle = PoolOracle::precompute(
///     SimOracle::new(sim, workflow, Objective::ExecutionTime, 7),
///     &pool,
/// );
///
/// let ceal = Ceal::new(CealParams::without_history());
/// let result = ceal.run(&oracle, &pool, 20, 0);
/// let tuned = oracle.measure(&result.best_predicted);
/// assert!(tuned.exec_time > 0.0);
/// ```
#[derive(Clone, Default)]
pub struct Ceal {
    /// Hyperparameters.
    pub params: CealParams,
    /// Historical component measurements (`D_hist`); when present, phase 1
    /// trains from these without charging the budget.
    pub history: Option<Arc<ComponentHistory>>,
    /// Component models fitted from `history`, built once per tuner
    /// instance (the historical models are fixed data, identical across
    /// repetitions).
    hist_models: std::sync::OnceLock<Arc<ComponentModels>>,
}

impl Ceal {
    /// CEAL without historical measurements.
    pub fn new(params: CealParams) -> Self {
        Self {
            params,
            history: None,
            hist_models: std::sync::OnceLock::new(),
        }
    }

    /// CEAL reusing historical component measurements.
    pub fn with_history(params: CealParams, history: Arc<ComponentHistory>) -> Self {
        Self {
            params,
            history: Some(history),
            hist_models: std::sync::OnceLock::new(),
        }
    }
}

impl Autotuner for Ceal {
    fn name(&self) -> &'static str {
        "CEAL"
    }

    fn stepper(&self, c: Campaign) -> Box<dyn Stepper> {
        let rng = ChaCha8Rng::seed_from_u64(c.seed);
        let params = self.params;
        // Historical models are fixed data: fitted once per tuner.
        let hist_models = self.history.as_ref().map(|h| {
            let fit = || Arc::new(ComponentModels::fit(&c.spec, h, 0xC0));
            Arc::clone(self.hist_models.get_or_init(fit))
        });
        // ---- Phase 1: component models and the low-fidelity model ----
        let history = self.history.as_ref();
        let m_r_fraction = params.m_r_fraction;
        after_phase1(c, history, m_r_fraction, rng, move |mut c, p1, mut rng| {
            let fm = FeatureMap::for_workflow(&c.spec);
            let ml = LowFidelityModel::new(
                &c.spec,
                p1.models(&c.spec, hist_models, c.seed),
                CombineFn::for_objective(c.objective),
            );

            // ---- Phase 2: dynamic ensemble active learning ----
            let (m, seed) = (c.budget, c.seed);
            let coupled_budget = p1.coupled_budget(m);
            let m0 = (((m as f64) * params.m0_fraction).round() as usize).min(coupled_budget);
            let i_total = params.iterations.max(1);
            // Line 7: m0'.
            let mut m0_used = (m0 / 2).max(1).min(coupled_budget);
            // Line 8, rounded up so integer division does not strand budget;
            // the final staging below takes whatever remains.
            let mut m_b = (coupled_budget.saturating_sub(m0)).div_ceil(i_total).max(1);
            let mut runs_left = coupled_budget;

            // The pool is fixed for the whole run: encode it once for
            // batched surrogate scoring. Measured configurations are
            // encoded as they arrive, keeping `enc_meas` aligned with the
            // ledger.
            let enc_pool = encode_pool(&fm, &c.pool);
            let mut enc_meas = ceal_ml::Dataset::new(fm.n_features());

            // Line 7: m0/2 random seeds.
            let mut taken = vec![false; c.pool.len()];
            let mut first = random_unmeasured(&taken, m0_used, &mut rng);
            // Lines 9–10: top m_B by the low-fidelity model.
            let ml_scores = ml.score_all(&c.pool);
            for &i in &first {
                taken[i] = true;
            }
            let tops = m_b.min(coupled_budget.saturating_sub(first.len()));
            first.extend(select_top_unmeasured(&ml_scores, &taken, tops));

            // A transfer prior is blended into every M_H fit made while
            // the campaign owns fewer than a fifth of its budget in
            // measurements; after that its own data carries the fit, and
            // the final model never sees the prior.
            let prior = c.prior.take();
            let seeded = prior.is_some();
            let prior_hold = m.div_ceil(5).max(2).min(coupled_budget);
            let fit_mh = move |fm: &FeatureMap, measured: &[Measurement], seed: u64| match &prior {
                Some(prior) if measured.len() < prior_hold => {
                    let own = measured.iter().map(|m| (m.config.clone(), m.value));
                    let own: Vec<_> = own.collect();
                    fit_surrogate_seeded(params.surrogate, fm, &own, prior, seed)
                }
                _ => fit_surrogate_kind(params.surrogate, fm, measured, seed),
            };

            let mut using_high = false; // line 11: M = M_L
                                        // Line 12: M_H = null — or, with a prior, fitted on the
                                        // sibling's samples, so the first switch test already has an
                                        // M_H to validate against the first measured batch.
            let mut mh = seeded.then(|| fit_mh(&fm, &[], seed));
            let mut i = 0;
            pool_stepper(c.pool, p1.component_runs, first, move |ledger| {
                // Line 14 measured C_meas.
                i += 1;
                let measured = &ledger.measured;
                runs_left -= measured.len() - enc_meas.n_rows();
                for mm in &measured[enc_meas.n_rows()..] {
                    enc_meas.push_row(&fm.encode(&mm.config), 0.0);
                }

                let mut random_topup = 0usize;
                if !using_high && params.switch_mode != SwitchMode::NeverSwitch {
                    // Lines 17–24: model switch detection on the data
                    // measured so far. The *previous* M_H (before
                    // retraining on the new batch) is validated against
                    // the enlarged measured set.
                    if let (Some(mh), true) = (&mh, measured.len() >= 3) {
                        let truths: Vec<f64> = measured.iter().map(|mm| mm.value).collect();
                        let mh_scores = mh.predict_batch(&enc_meas);
                        // The pool was scored once up front; read it back.
                        let ml_scores_meas: Vec<f64> =
                            ledger.at.iter().map(|&idx| ml_scores[idx]).collect();
                        let s_h: f64 = (1..=3).map(|n| recall_score(n, &mh_scores, &truths)).sum();
                        let s_l: f64 = (1..=3)
                            .map(|n| recall_score(n, &ml_scores_meas, &truths))
                            .sum();

                        // Line 20: is M_H's top-3 within the actual top
                        // half of the measured set? If not, suspect bias;
                        // add randoms.
                        let half = (measured.len() / 2).max(3);
                        let top3_mh = top_n(&mh_scores, 3);
                        let top_half_actual = top_n(&truths, half);
                        let agree = top3_mh
                            .iter()
                            .filter(|i| top_half_actual.contains(i))
                            .count();
                        if params.random_topup && agree < 3 && m0 > m0_used {
                            random_topup = ((m0 - m0_used) / 2).max(1);
                            m0_used += random_topup;
                        }
                        // Lines 23–24: switch when M_H ranks at least as
                        // well (or unconditionally under the Immediate
                        // ablation).
                        if s_h >= s_l || params.switch_mode == SwitchMode::Immediate {
                            using_high = true;
                            if i < i_total {
                                m_b += (m0.saturating_sub(m0_used)) / (i_total - i);
                            }
                        }
                    }
                }

                // Line 25: train/refine M_H on all measurements.
                let fitted = fit_mh(&fm, measured, seed ^ (i as u64) << 16);
                // Line 28 returns M_H; the searcher ranks the pool with it.
                if i == i_total || runs_left == 0 {
                    return Step::on(fitted, &enc_pool);
                }

                // Lines 26–27: evaluate the remaining pool with the
                // selected model and stage the next batch.
                let mh_scores;
                let scores: &[f64] = if using_high {
                    mh_scores = fitted.predict_batch(&enc_pool);
                    &mh_scores
                } else {
                    &ml_scores
                };
                // The final staging consumes the entire remaining budget
                // so the tuner always spends exactly its allotment.
                let take = if i + 1 == i_total {
                    runs_left
                } else {
                    m_b.min(runs_left)
                };
                let mut batch = select_top_unmeasured(scores, &ledger.taken, take);
                if random_topup > 0 {
                    let mut taken = ledger.taken.clone();
                    for &bi in &batch {
                        taken[bi] = true;
                    }
                    let extra = random_topup.min(runs_left.saturating_sub(batch.len()));
                    batch.extend(random_unmeasured(&taken, extra, &mut rng));
                }
                if batch.is_empty() {
                    return Step::on(fitted, &enc_pool);
                }
                mh = Some(fitted);
                Step::Measure(batch)
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::{best_truth, lv_exec_fixture, truth_of};
    use super::super::RandomSampling;
    use super::*;
    use crate::metrics::mean;

    #[test]
    fn respects_coupled_budget() {
        let fix = lv_exec_fixture();
        let ceal = Ceal::new(CealParams::without_history());
        let run = ceal.run(&fix.oracle, &fix.pool, 50, 0);
        // m_R = 0.4·50 = 20 → at most 30 coupled runs.
        assert!(
            run.runs_used() <= 30,
            "used {} coupled runs",
            run.runs_used()
        );
        // Component runs: m_R per component, 2 components.
        assert_eq!(run.component_runs.len(), 2 * 20);
    }

    #[test]
    fn history_replaces_component_budget() {
        let fix = lv_exec_fixture();
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let hist = Arc::new(ComponentHistory::collect(&fix.oracle, 100, &mut rng));
        let ceal = Ceal::with_history(CealParams::with_history(), hist);
        let run = ceal.run(&fix.oracle, &fix.pool, 25, 0);
        assert!(run.component_runs.is_empty());
        assert!(run.runs_used() <= 25);
        assert!(
            run.runs_used() >= 10,
            "history should free budget: {}",
            run.runs_used()
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let fix = lv_exec_fixture();
        let ceal = Ceal::new(CealParams::without_history());
        let a = ceal.run(&fix.oracle, &fix.pool, 40, 9);
        let b = ceal.run(&fix.oracle, &fix.pool, 40, 9);
        assert_eq!(a.best_predicted, b.best_predicted);
        assert_eq!(a.pool_scores, b.pool_scores);
    }

    #[test]
    fn beats_random_sampling_on_average() {
        let fix = lv_exec_fixture();
        let ceal = Ceal::new(CealParams::without_history());
        let c: Vec<f64> = (0..10)
            .map(|s| truth_of(fix, &ceal.run(&fix.oracle, &fix.pool, 50, s).best_predicted))
            .collect();
        let r: Vec<f64> = (0..10)
            .map(|s| {
                truth_of(
                    fix,
                    &RandomSampling
                        .run(&fix.oracle, &fix.pool, 50, s)
                        .best_predicted,
                )
            })
            .collect();
        let best = best_truth(fix);
        assert!(
            mean(&c) < mean(&r),
            "CEAL ({:.2}) should beat RS ({:.2}); pool best {:.2}",
            mean(&c),
            mean(&r),
            best
        );
    }

    #[test]
    fn finds_near_optimal_configurations() {
        let fix = lv_exec_fixture();
        let ceal = Ceal::new(CealParams::without_history());
        let vals: Vec<f64> = (0..10)
            .map(|s| truth_of(fix, &ceal.run(&fix.oracle, &fix.pool, 50, s).best_predicted))
            .collect();
        let best = best_truth(fix);
        assert!(
            mean(&vals) < best * 1.5,
            "CEAL recommendations ({:.2}) far from pool best ({:.2})",
            mean(&vals),
            best
        );
    }
}
