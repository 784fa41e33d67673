//! Auto-tuning algorithms: CEAL and its comparison targets (paper §7.3).
//!
//! Every algorithm receives the same inputs — an [`Oracle`], the candidate
//! pool `C_pool`, and a budget `m` of workflow-run equivalents — and
//! returns a [`TunerRun`]: what it measured (for cost accounting), its
//! final surrogate's scores over the whole pool (for recall/MdAPE
//! metrics), and the configuration its searcher recommends.

mod al;
mod alph;
mod bo;
mod ceal_algo;
mod ensembles;
mod fold;
mod geist;
mod rl;
mod rs;
mod stepper;

pub use al::ActiveLearning;
pub use alph::Alph;
pub use bo::{BayesOpt, BoBootstrap};
pub use ceal_algo::{Ceal, CealParams, SwitchMode};
pub use ensembles::{EnsembleKind, EnsembleTuner};
pub use fold::{Fold, Pending};
pub use geist::Geist;
pub use rl::{BanditBootstrap, BanditTuner};
pub use rs::RandomSampling;
pub use stepper::{Campaign, Stepper};

use crate::features::FeatureMap;
use crate::history::ComponentHistory;
use crate::metrics::top_n;
use crate::oracle::{MeasureError, Measurement, Oracle, SoloMeasurement};
use ceal_ml::{
    Dataset, GbtParams, GradientBoosting, KnnRegressor, RandomForest, RandomForestParams, Regressor,
};
use ceal_sim::Objective;
use std::sync::Arc;

/// Which ML model family the tuner uses as its workflow surrogate.
///
/// The paper argues (§2.2) that boosted trees and random forests suit the
/// few-sample regime while neural networks don't; this knob lets the
/// `ablation-surrogate` bench test that argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SurrogateKind {
    /// XGBoost-style gradient boosting (the paper's choice).
    #[default]
    BoostedTrees,
    /// Bagged random forest.
    RandomForest,
    /// k-nearest-neighbor regression (k = 5).
    Knn,
}

/// The outcome of one auto-tuning run.
#[derive(Clone)]
pub struct TunerRun {
    /// Coupled workflow measurements, in collection order.
    pub measured: Vec<Measurement>,
    /// Standalone component measurements (CEAL/ALpH phase 1), for cost
    /// accounting.
    pub component_runs: Vec<SoloMeasurement>,
    /// The final surrogate's score for every pool configuration (aligned
    /// with the pool; lower predicted value = better).
    pub pool_scores: Vec<f64>,
    /// The searcher's recommendation: the pool configuration with the best
    /// predicted performance.
    pub best_predicted: Vec<i64>,
    /// The final surrogate itself, from the algorithms whose surrogate is
    /// a model over workflow-feature rows (CEAL's `M_H`, and the boosted
    /// trees AL, RS, GEIST and RL report); `pool_scores` are its predictions.
    pub surrogate: Option<Arc<dyn Regressor>>,
}

impl TunerRun {
    /// Assembles a run result, deriving `best_predicted` from the scores.
    pub fn from_scores(
        pool: &[Vec<i64>],
        pool_scores: Vec<f64>,
        measured: Vec<Measurement>,
        component_runs: Vec<SoloMeasurement>,
        surrogate: Option<Arc<dyn Regressor>>,
    ) -> Self {
        assert_eq!(pool.len(), pool_scores.len(), "score/pool length mismatch");
        let best = top_n(&pool_scores, 1)[0];
        Self {
            measured,
            component_runs,
            pool_scores,
            best_predicted: pool[best].clone(),
            surrogate,
        }
    }

    /// Total data-collection cost in the units of `objective` (paper
    /// §7.2.3): the sum over coupled training runs plus all component solo
    /// runs.
    pub fn collection_cost(&self, objective: Objective) -> f64 {
        let coupled: f64 = self
            .measured
            .iter()
            .map(|m| match objective {
                Objective::ExecutionTime => m.exec_time,
                Objective::ComputerTime => m.computer_time,
            })
            .sum();
        let solo: f64 = self
            .component_runs
            .iter()
            .map(|m| match objective {
                Objective::ExecutionTime => m.exec_time,
                Objective::ComputerTime => m.computer_time,
            })
            .sum();
        coupled + solo
    }

    /// Number of coupled workflow runs consumed.
    pub fn runs_used(&self) -> usize {
        self.measured.len()
    }
}

/// An empirical model-based auto-tuner (paper §2.2).
pub trait Autotuner: Sync {
    /// Algorithm name as used in the paper's figures.
    fn name(&self) -> &'static str;

    /// Starts `campaign` as a resumable [`Stepper`], which a [`Fold`]
    /// drives. `campaign.seed` controls every random choice; equal seeds
    /// reproduce the run exactly.
    fn stepper(&self, campaign: Campaign) -> Box<dyn Stepper>;

    /// Runs the tuner with `budget` workflow-run equivalents against
    /// `oracle`, selecting measurements from `pool`: its [`Fold`], driven
    /// to completion in one sitting with nothing journaled.
    ///
    /// A measurement failure (infeasible configuration, exhausted retries)
    /// aborts the run and surfaces as the typed [`MeasureError`].
    fn try_run(
        &self,
        oracle: &dyn Oracle,
        pool: &[Vec<i64>],
        budget: usize,
        seed: u64,
    ) -> Result<TunerRun, MeasureError> {
        Fold::new(self, Campaign::of(oracle, pool, budget, seed)).drive(oracle, |_| Ok(()))
    }

    /// Convenience wrapper over [`Autotuner::try_run`] for callers that
    /// treat a measurement failure as a programming error (benchmarks,
    /// fixtures).
    ///
    /// # Panics
    /// Panics if the run fails.
    fn run(&self, oracle: &dyn Oracle, pool: &[Vec<i64>], budget: usize, seed: u64) -> TunerRun {
        self.try_run(oracle, pool, budget, seed)
            .unwrap_or_else(|e| panic!("{} tuning run failed: {e}", self.name()))
    }
}

/// The tuner a campaign names on the wire or the command line. `history`
/// (`D_hist`) goes to the algorithms with a component-model phase — CEAL,
/// ALpH and the bootstrapped BO and RL — and replaces their solo runs; the
/// others have no use for it.
pub fn by_name(name: &str, history: Option<Arc<ComponentHistory>>) -> Option<Box<dyn Autotuner>> {
    Some(match name {
        "ceal" => match history {
            Some(h) => Box::new(Ceal::with_history(CealParams::with_history(), h)),
            None => Box::new(Ceal::new(CealParams::without_history())),
        },
        "al" => Box::new(ActiveLearning::default()),
        "rs" => Box::new(RandomSampling),
        "geist" => Box::new(Geist::default()),
        "alph" => match history {
            Some(h) => Box::new(Alph::with_history(h)),
            None => Box::new(Alph::new()),
        },
        "bo" => Box::new(BayesOpt::bootstrapped(history)),
        "rl" => Box::new(BanditTuner::bootstrapped(history)),
        _ => return None,
    })
}

/// Fits the standard workflow surrogate (boosted trees by default, paper
/// §7.3) on the measured configurations.
pub(crate) fn fit_surrogate(
    fm: &FeatureMap,
    measured: &[Measurement],
    seed: u64,
) -> Box<dyn Regressor> {
    fit_surrogate_kind(SurrogateKind::BoostedTrees, fm, measured, seed)
}

/// Fits a surrogate of the requested model family.
pub(crate) fn fit_surrogate_kind(
    kind: SurrogateKind,
    fm: &FeatureMap,
    measured: &[Measurement],
    seed: u64,
) -> Box<dyn Regressor> {
    let samples: Vec<(Vec<i64>, f64)> = measured
        .iter()
        .map(|m| (m.config.clone(), m.value))
        .collect();
    fit_surrogate_samples(kind, fm, &samples, seed)
}

/// Fits a surrogate of the requested model family on raw
/// `(configuration, value)` pairs.
///
/// This is the entry point for callers that hold measurements outside the
/// [`Measurement`] struct — e.g. a serving layer refitting a surrogate from
/// a persisted cache of `(config, value)` samples without re-measuring.
pub fn fit_surrogate_samples(
    kind: SurrogateKind,
    fm: &FeatureMap,
    samples: &[(Vec<i64>, f64)],
    seed: u64,
) -> Box<dyn Regressor> {
    let rows: Vec<Vec<f64>> = samples.iter().map(|(c, _)| fm.encode(c)).collect();
    let ys: Vec<f64> = samples.iter().map(|&(_, y)| y).collect();
    let data = Dataset::from_rows(&rows, &ys);
    match kind {
        SurrogateKind::BoostedTrees => {
            let mut gbt = GradientBoosting::new(GbtParams::small_sample(seed));
            gbt.fit(&data);
            Box::new(gbt)
        }
        SurrogateKind::RandomForest => {
            let mut rf = RandomForest::new(RandomForestParams {
                seed,
                ..Default::default()
            });
            rf.fit(&data);
            Box::new(rf)
        }
        SurrogateKind::Knn => {
            let mut knn = KnnRegressor::new(5);
            knn.fit(&data);
            Box::new(knn)
        }
    }
}

/// Encodes every pool configuration into one feature [`Dataset`] (targets
/// are unused and zero-filled).
///
/// The candidate pool is fixed for a tuning run, so callers that score it
/// repeatedly should encode it once and reuse the dataset with
/// [`Regressor::predict_batch`] — encoding allocates a feature row per
/// configuration and dominates the scoring loop otherwise.
pub fn encode_pool(fm: &FeatureMap, pool: &[Vec<i64>]) -> Dataset {
    let rows: Vec<Vec<f64>> = pool.iter().map(|c| fm.encode(c)).collect();
    Dataset::from_rows(&rows, &vec![0.0; rows.len()])
}

/// Picks the `k` best-scoring pool indices among those not yet measured,
/// best first. `(score, index)` is a strict total order, so selecting the
/// `k` smallest and sorting only those is the sorted pool's prefix.
pub(crate) fn select_top_unmeasured(scores: &[f64], measured_idx: &[bool], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..scores.len()).filter(|&i| !measured_idx[i]).collect();
    let by_score = |a: &usize, b: &usize| scores[*a].total_cmp(&scores[*b]).then(a.cmp(b));
    if k < idx.len() {
        idx.select_nth_unstable_by(k, by_score);
        idx.truncate(k);
    }
    idx.sort_unstable_by(by_score);
    idx
}

/// Draws `k` distinct unmeasured pool indices uniformly at random.
pub(crate) fn random_unmeasured<R: rand::Rng>(
    measured_idx: &[bool],
    k: usize,
    rng: &mut R,
) -> Vec<usize> {
    use rand::seq::SliceRandom;
    let mut free: Vec<usize> = (0..measured_idx.len())
        .filter(|&i| !measured_idx[i])
        .collect();
    free.shuffle(rng);
    free.truncate(k);
    free
}

#[cfg(test)]
pub(crate) mod test_support {
    //! Shared fixture: a small LV pool with a precomputed oracle.

    use crate::oracle::{PoolOracle, SimOracle};
    use crate::pool::sample_pool;
    use ceal_apps::lv;
    use ceal_sim::{Objective, Simulator};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::sync::OnceLock;

    pub struct Fixture {
        pub pool: Vec<Vec<i64>>,
        pub oracle: PoolOracle,
        pub truth: Vec<f64>,
    }

    /// A 300-config LV execution-time fixture, built once per test binary.
    pub fn lv_exec_fixture() -> &'static Fixture {
        static FIX: OnceLock<Fixture> = OnceLock::new();
        FIX.get_or_init(|| {
            let spec = lv();
            let sim = Simulator::new();
            let mut rng = ChaCha8Rng::seed_from_u64(2021);
            let pool = sample_pool(&spec, &sim.platform, 300, &mut rng);
            let oracle = PoolOracle::precompute(
                SimOracle::new(sim, spec, Objective::ExecutionTime, 99),
                &pool,
            );
            let truth = oracle.truth_for(&pool);
            Fixture {
                pool,
                oracle,
                truth,
            }
        })
    }

    /// The best objective value in the fixture pool.
    pub fn best_truth(fix: &Fixture) -> f64 {
        fix.truth.iter().cloned().fold(f64::INFINITY, f64::min)
    }

    /// Truth value of a given configuration.
    pub fn truth_of(fix: &Fixture, config: &[i64]) -> f64 {
        let i = fix
            .pool
            .iter()
            .position(|c| c == config)
            .expect("config from pool");
        fix.truth[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collection_cost_sums_coupled_and_solo() {
        let run = TunerRun {
            measured: vec![Measurement {
                config: vec![1],
                value: 5.0,
                exec_time: 5.0,
                computer_time: 0.5,
            }],
            component_runs: vec![SoloMeasurement {
                component: 0,
                values: vec![1],
                value: 2.0,
                exec_time: 2.0,
                computer_time: 0.1,
            }],
            pool_scores: vec![],
            best_predicted: vec![1],
            surrogate: None,
        };
        assert_eq!(run.collection_cost(Objective::ExecutionTime), 7.0);
        assert!((run.collection_cost(Objective::ComputerTime) - 0.6).abs() < 1e-12);
        assert_eq!(run.runs_used(), 1);
    }

    #[test]
    fn select_top_unmeasured_skips_measured() {
        let scores = [3.0, 1.0, 2.0, 0.5];
        let measured = [false, true, false, false];
        assert_eq!(select_top_unmeasured(&scores, &measured, 2), vec![3, 2]);
    }

    #[test]
    fn select_top_unmeasured_is_the_prefix_of_a_full_sort() {
        // Few distinct scores, so ties (broken by index) are everywhere.
        let scores: Vec<f64> = (0..200).map(|i| ((i * 37) % 11) as f64).collect();
        let measured: Vec<bool> = (0..200).map(|i| i % 7 == 0).collect();
        let mut sorted: Vec<usize> = (0..200).filter(|&i| !measured[i]).collect();
        sorted.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]).then(a.cmp(&b)));
        for k in [0, 1, 10, sorted.len() - 1, sorted.len(), 500] {
            let want = &sorted[..k.min(sorted.len())];
            assert_eq!(
                select_top_unmeasured(&scores, &measured, k),
                want,
                "k = {k}"
            );
        }
    }

    #[test]
    fn random_unmeasured_is_distinct_and_free() {
        let measured = [true, false, false, true, false];
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
        use rand::SeedableRng;
        let picked = random_unmeasured(&measured, 10, &mut rng);
        assert_eq!(picked.len(), 3);
        for &i in &picked {
            assert!(!measured[i]);
        }
    }
}
