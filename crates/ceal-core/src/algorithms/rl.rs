//! A reinforcement-learning-style tuner — the second §9 future-work
//! direction ("the agent in RL can … dynamically update the sample pool
//! containing higher-performing configurations according to measured
//! configurations").
//!
//! The configuration pool is clustered into regions (k-means over
//! normalized parameters); each region is a bandit arm. A UCB1 agent
//! allocates measurements to arms by their observed mean reward (negative
//! normalized time) plus an exploration bonus, then measures the most
//! promising unmeasured configuration inside the chosen arm — promising
//! according to the evolving boosted-tree critic, or to the low-fidelity
//! model before enough data exists. The final surrogate is the same
//! boosted-tree model the other tuners report.

use super::stepper::{after_phase1, pool_stepper, Phase1, Step};
use super::{encode_pool, fit_surrogate, random_unmeasured, Autotuner, Campaign, Stepper};
use crate::acm::{CombineFn, LowFidelityModel};
use crate::features::FeatureMap;
use crate::history::ComponentHistory;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// The bandit tuner.
#[derive(Clone)]
pub struct BanditTuner {
    /// Number of regions (arms).
    pub arms: usize,
    /// UCB exploration coefficient.
    pub exploration: f64,
    /// Phase-1 bootstrap: when set, arm priors come from the low-fidelity
    /// model instead of starting cold.
    pub bootstrap: Option<BanditBootstrap>,
}

/// Phase-1 settings of the bootstrapped bandit.
#[derive(Clone)]
pub struct BanditBootstrap {
    /// Budget fraction for component solo runs (ignored with history).
    pub m_r_fraction: f64,
    /// Historical component measurements.
    pub history: Option<Arc<ComponentHistory>>,
}

impl BanditTuner {
    /// Plain UCB bandit over pool regions.
    pub fn new() -> Self {
        Self {
            arms: 12,
            exploration: 1.0,
            bootstrap: None,
        }
    }

    /// Bootstrapped bandit: low-fidelity model priors per arm.
    pub fn bootstrapped(history: Option<Arc<ComponentHistory>>) -> Self {
        Self {
            arms: 12,
            exploration: 1.0,
            bootstrap: Some(BanditBootstrap {
                m_r_fraction: if history.is_some() { 0.0 } else { 0.4 },
                history,
            }),
        }
    }
}

impl Default for BanditTuner {
    fn default() -> Self {
        Self::new()
    }
}

/// Plain k-means over rows (Lloyd's algorithm, fixed iteration count),
/// returning each row's cluster id. Deterministic given the seed.
pub(crate) fn kmeans(rows: &[Vec<f64>], k: usize, seed: u64, iters: usize) -> Vec<usize> {
    assert!(!rows.is_empty() && k >= 1);
    let k = k.min(rows.len());
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    use rand::seq::SliceRandom;
    let mut idx: Vec<usize> = (0..rows.len()).collect();
    idx.shuffle(&mut rng);
    let mut centers: Vec<Vec<f64>> = idx[..k].iter().map(|&i| rows[i].clone()).collect();
    let mut assign = vec![0usize; rows.len()];
    for _ in 0..iters {
        // Assign.
        for (i, row) in rows.iter().enumerate() {
            let mut best = 0;
            let mut best_d = f64::INFINITY;
            for (c, center) in centers.iter().enumerate() {
                let d: f64 = row.iter().zip(center).map(|(a, b)| (a - b) * (a - b)).sum();
                if d < best_d {
                    best_d = d;
                    best = c;
                }
            }
            assign[i] = best;
        }
        // Update.
        let dim = rows[0].len();
        let mut sums = vec![vec![0.0; dim]; k];
        let mut counts = vec![0usize; k];
        for (i, row) in rows.iter().enumerate() {
            counts[assign[i]] += 1;
            for (s, v) in sums[assign[i]].iter_mut().zip(row) {
                *s += v;
            }
        }
        for c in 0..k {
            if counts[c] > 0 {
                for s in &mut sums[c] {
                    *s /= counts[c] as f64;
                }
                centers[c] = sums[c].clone();
            }
        }
    }
    assign
}

impl Autotuner for BanditTuner {
    fn name(&self) -> &'static str {
        if self.bootstrap.is_some() {
            "CEAL-RL"
        } else {
            "RL"
        }
    }

    fn stepper(&self, c: Campaign) -> Box<dyn Stepper> {
        let rng = ChaCha8Rng::seed_from_u64(c.seed);
        let Some(boot) = &self.bootstrap else {
            return self.coupled(c, None, rng);
        };
        let this = self.clone();
        let (history, m_r_fraction) = (boot.history.as_ref(), boot.m_r_fraction);
        after_phase1(c, history, m_r_fraction, rng, move |c, p1, rng| {
            this.coupled(c, Some(p1), rng)
        })
    }
}

impl BanditTuner {
    /// The coupled phase: `p1` is `Some` for the bootstrapped variant.
    fn coupled(&self, c: Campaign, p1: Option<Phase1>, mut rng: ChaCha8Rng) -> Box<dyn Stepper> {
        let fm = FeatureMap::for_workflow(&c.spec);
        let encoded: Vec<Vec<f64>> = c.pool.iter().map(|cfg| fm.encode(cfg)).collect();
        let arms = kmeans(&encoded, self.arms, c.seed ^ 0xA7A7, 12);
        let n_arms = self.arms.min(c.pool.len());
        let ml_scores = p1.as_ref().map(|p1| {
            let ml = LowFidelityModel::new(
                &c.spec,
                p1.models(&c.spec, None, c.seed),
                CombineFn::for_objective(c.objective),
            );
            ml.score_all(&c.pool)
        });
        let coupled_budget = p1.as_ref().map_or(c.budget, |p| p.coupled_budget(c.budget));

        // Arm priors: with a low-fidelity model, the agent starts from the
        // predicted mean rank of each arm; cold otherwise.
        let mut pulls = vec![0usize; n_arms];
        let mut reward_sum = vec![0.0f64; n_arms];
        if let Some(scores) = &ml_scores {
            // Prior = one pseudo-pull per arm with reward from the arm's
            // best predicted configuration (min-max normalized).
            let lo = scores.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let span = (hi - lo).max(1e-12);
            for a in 0..n_arms {
                let best = (0..c.pool.len())
                    .filter(|&i| arms[i] == a)
                    .map(|i| scores[i])
                    .fold(f64::INFINITY, f64::min);
                if best.is_finite() {
                    pulls[a] = 1;
                    reward_sum[a] = 1.0 - (best - lo) / span;
                }
            }
        }

        let exploration = self.exploration;
        let mut observed_lo = f64::INFINITY;
        let mut observed_hi = f64::NEG_INFINITY;
        // The arm the pending pick was drawn from.
        let mut arm = 0;
        let component_runs = p1.map_or_else(Vec::new, |p| p.component_runs);
        // One measurement per batch, rewarded before the next is picked.
        pool_stepper(c.pool, component_runs, Vec::new(), move |ledger| {
            let (taken, measured) = (&ledger.taken, &ledger.measured);
            if let Some(m) = measured.last() {
                observed_lo = observed_lo.min(m.value);
                observed_hi = observed_hi.max(m.value);
                let span = (observed_hi - observed_lo).max(1e-12);
                pulls[arm] += 1;
                reward_sum[arm] += 1.0 - (m.value - observed_lo) / span;
            }
            let finish = || {
                let model = fit_surrogate(&fm, measured, c.seed);
                Step::on(model, &encode_pool(&fm, &ledger.pool))
            };
            if measured.len() >= coupled_budget {
                return finish();
            }
            // UCB1 arm choice among arms with free configurations.
            let total: usize = pulls.iter().sum::<usize>().max(1);
            let mut best_arm = None;
            let mut best_score = f64::NEG_INFINITY;
            for a in 0..n_arms {
                let free = (0..taken.len()).any(|i| arms[i] == a && !taken[i]);
                if !free {
                    continue;
                }
                let ucb = if pulls[a] == 0 {
                    f64::INFINITY
                } else {
                    reward_sum[a] / pulls[a] as f64
                        + exploration * ((total as f64).ln() / pulls[a] as f64).sqrt()
                };
                if ucb > best_score {
                    best_score = ucb;
                    best_arm = Some(a);
                }
            }
            let Some(chosen) = best_arm else {
                return finish();
            };
            arm = chosen;

            // Inside the arm: the critic's best unmeasured pick (boosted
            // trees once ≥ 5 samples exist; the low-fidelity prior or a
            // random member before that).
            let members: Vec<usize> = (0..taken.len())
                .filter(|&i| arms[i] == arm && !taken[i])
                .collect();
            let pick = if measured.len() >= 5 {
                let critic = fit_surrogate(&fm, measured, c.seed ^ measured.len() as u64);
                let scores: Vec<f64> = members
                    .iter()
                    .map(|&i| critic.predict_row(&encoded[i]))
                    .collect();
                *members
                    .iter()
                    .zip(&scores)
                    .min_by(|a, b| a.1.total_cmp(b.1))
                    .expect("nonempty arm")
                    .0
            } else if let Some(scores) = &ml_scores {
                *members
                    .iter()
                    .min_by(|&&a, &&b| scores[a].total_cmp(&scores[b]))
                    .expect("nonempty arm")
            } else {
                members[random_unmeasured(taken, 1, &mut rng)
                    .first()
                    .map(|_| 0)
                    .unwrap_or(0)
                    .min(members.len() - 1)]
            };
            Step::Measure(vec![pick])
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::{lv_exec_fixture, truth_of};
    use super::*;

    #[test]
    fn kmeans_assigns_every_row() {
        let rows: Vec<Vec<f64>> = (0..50)
            .map(|i| vec![(i % 5) as f64, (i / 10) as f64])
            .collect();
        let assign = kmeans(&rows, 4, 0, 10);
        assert_eq!(assign.len(), 50);
        assert!(assign.iter().all(|&a| a < 4));
        // At least two clusters actually used on structured data.
        let mut used = assign.clone();
        used.sort_unstable();
        used.dedup();
        assert!(used.len() >= 2);
    }

    #[test]
    fn kmeans_handles_k_larger_than_rows() {
        let rows = vec![vec![0.0], vec![1.0]];
        let assign = kmeans(&rows, 10, 0, 5);
        assert!(assign.iter().all(|&a| a < 2));
    }

    #[test]
    fn bandit_spends_budget_and_scores_pool() {
        let fix = lv_exec_fixture();
        let run = BanditTuner::new().run(&fix.oracle, &fix.pool, 25, 0);
        assert_eq!(run.runs_used(), 25);
        assert_eq!(run.pool_scores.len(), fix.pool.len());
    }

    #[test]
    fn bootstrapped_bandit_charges_components() {
        let fix = lv_exec_fixture();
        let run = BanditTuner::bootstrapped(None).run(&fix.oracle, &fix.pool, 30, 0);
        assert_eq!(run.component_runs.len(), 2 * 12);
        assert!(run.runs_used() <= 18);
    }

    #[test]
    fn deterministic_per_seed() {
        let fix = lv_exec_fixture();
        let t = BanditTuner::new();
        let a = t.run(&fix.oracle, &fix.pool, 20, 9);
        let b = t.run(&fix.oracle, &fix.pool, 20, 9);
        assert_eq!(a.best_predicted, b.best_predicted);
    }

    #[test]
    fn bandit_beats_pool_median() {
        let fix = lv_exec_fixture();
        let mut sorted = fix.truth.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let median = sorted[sorted.len() / 2];
        let vals: Vec<f64> = (0..6)
            .map(|s| {
                truth_of(
                    fix,
                    &BanditTuner::new()
                        .run(&fix.oracle, &fix.pool, 40, s)
                        .best_predicted,
                )
            })
            .collect();
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        assert!(mean < median, "bandit mean {mean} vs median {median}");
    }
}
