//! GEIST — graph-guided semi-supervised sample selection (paper §7.3,
//! after Thiagarajan et al., ICS '18).
//!
//! GEIST builds a *parameter graph* over candidate configurations and uses
//! semi-supervised label propagation to estimate which unmeasured
//! configurations are likely to be "optimal" (defined as the top 5 % of
//! performance). Each iteration measures the configurations with the
//! highest propagated probability of being optimal, mixed with a small
//! exploration fraction.
//!
//! In the original, nodes are the full discretized space; our spaces are
//! ~10¹⁰, so — like the other tuners — GEIST operates on the sampled pool,
//! connected as a k-nearest-neighbor graph in normalized parameter space.

use super::stepper::{pool_stepper, Step};
use super::{encode_pool, fit_surrogate, random_unmeasured, Autotuner, Campaign, Stepper};
use crate::features::FeatureMap;
use crate::metrics::top_n;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The GEIST tuner.
#[derive(Debug, Clone, Copy)]
pub struct Geist {
    /// Number of measurement batches.
    pub iterations: usize,
    /// Neighbors per node in the parameter graph.
    pub k_neighbors: usize,
    /// Fraction of measured configurations labeled "optimal" (top 5 % in
    /// the original).
    pub optimal_fraction: f64,
    /// Fraction of each batch spent on random exploration.
    pub explore_fraction: f64,
    /// Label-propagation sweeps per iteration.
    pub propagation_sweeps: usize,
}

impl Default for Geist {
    fn default() -> Self {
        Self {
            iterations: 5,
            k_neighbors: 8,
            optimal_fraction: 0.05,
            explore_fraction: 0.2,
            propagation_sweeps: 20,
        }
    }
}

/// Builds the k-NN adjacency lists over pool configurations.
fn knn_graph(fm: &FeatureMap, pool: &[Vec<i64>], k: usize) -> Vec<Vec<u32>> {
    let encoded: Vec<Vec<f64>> = pool.iter().map(|c| fm.encode(c)).collect();
    let idx: Vec<usize> = (0..pool.len()).collect();
    ceal_par::parallel_map(&idx, |&i| {
        let mut dists: Vec<(u32, f64)> = encoded
            .iter()
            .enumerate()
            .filter(|(j, _)| *j != i)
            .map(|(j, row)| {
                let d: f64 = row
                    .iter()
                    .zip(&encoded[i])
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum();
                (j as u32, d)
            })
            .collect();
        dists.sort_by(|a, b| a.1.total_cmp(&b.1));
        dists.truncate(k);
        dists.into_iter().map(|(j, _)| j).collect()
    })
}

impl Geist {
    /// Propagates optimality labels from measured nodes across the graph,
    /// returning a goodness score per pool node in [0, 1].
    fn propagate(
        &self,
        graph: &[Vec<u32>],
        labels: &[Option<f64>], // Some(1.0) optimal, Some(0.0) not, None unmeasured
    ) -> Vec<f64> {
        let n = graph.len();
        let mut score: Vec<f64> = labels.iter().map(|l| l.unwrap_or(0.5)).collect();
        for _ in 0..self.propagation_sweeps {
            let prev = score.clone();
            for i in 0..n {
                if let Some(fixed) = labels[i] {
                    score[i] = fixed;
                } else if !graph[i].is_empty() {
                    let s: f64 = graph[i].iter().map(|&j| prev[j as usize]).sum();
                    score[i] = s / graph[i].len() as f64;
                }
            }
        }
        score
    }
}

impl Autotuner for Geist {
    fn name(&self) -> &'static str {
        "GEIST"
    }

    fn stepper(&self, c: Campaign) -> Box<dyn Stepper> {
        let mut rng = ChaCha8Rng::seed_from_u64(c.seed);
        let geist = *self;
        let fm = FeatureMap::for_workflow(&c.spec);
        let graph = knn_graph(&fm, &c.pool, self.k_neighbors);
        let iters = self.iterations.clamp(1, c.budget.max(1));
        let batch = (c.budget / iters).max(1);
        // Initial random batch.
        let first = random_unmeasured(&vec![false; c.pool.len()], batch.min(c.budget), &mut rng);
        pool_stepper(c.pool, Vec::new(), first, move |ledger| {
            // Final surrogate for searching/reporting: the standard boosted
            // trees trained on GEIST's sample selection.
            let finish = || {
                let model = fit_surrogate(&fm, &ledger.measured, c.seed);
                Step::on(model, &encode_pool(&fm, &ledger.pool))
            };
            if ledger.measured.len() >= c.budget {
                return finish();
            }
            // Label measured nodes: top `optimal_fraction` of observed
            // values are "optimal".
            let values: Vec<f64> = ledger.measured.iter().map(|m| m.value).collect();
            let n_opt = ((values.len() as f64 * geist.optimal_fraction).ceil() as usize)
                .clamp(1, values.len());
            let best = top_n(&values, n_opt);
            let mut labels: Vec<Option<f64>> = vec![None; ledger.pool.len()];
            for (mi, &pi) in ledger.at.iter().enumerate() {
                labels[pi] = Some(if best.contains(&mi) { 1.0 } else { 0.0 });
            }
            let goodness = geist.propagate(&graph, &labels);

            let take = batch.min(c.budget - values.len());
            let n_explore = ((take as f64) * geist.explore_fraction).round() as usize;
            let n_exploit = take - n_explore;

            // Exploit: highest propagated goodness first.
            let mut taken = ledger.taken.clone();
            let mut cand: Vec<usize> = (0..taken.len()).filter(|&i| !taken[i]).collect();
            cand.sort_by(|&a, &b| goodness[b].total_cmp(&goodness[a]).then(a.cmp(&b)));
            let mut picks: Vec<usize> = cand.into_iter().take(n_exploit).collect();
            for &i in &picks {
                taken[i] = true; // reserve before drawing randoms
            }
            picks.extend(random_unmeasured(&taken, n_explore, &mut rng));
            Step::pick(picks, finish)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::lv_exec_fixture;
    use super::*;
    use crate::oracle::Oracle;

    #[test]
    fn consumes_budget() {
        let fix = lv_exec_fixture();
        let run = Geist::default().run(&fix.oracle, &fix.pool, 25, 1);
        assert_eq!(run.runs_used(), 25);
        assert_eq!(run.pool_scores.len(), fix.pool.len());
    }

    #[test]
    fn deterministic_per_seed() {
        let fix = lv_exec_fixture();
        let a = Geist::default().run(&fix.oracle, &fix.pool, 20, 5);
        let b = Geist::default().run(&fix.oracle, &fix.pool, 20, 5);
        assert_eq!(a.best_predicted, b.best_predicted);
    }

    #[test]
    fn knn_graph_shape() {
        let fix = lv_exec_fixture();
        let fm = FeatureMap::for_workflow(fix.oracle.spec());
        let g = knn_graph(&fm, &fix.pool[..50], 4);
        assert_eq!(g.len(), 50);
        for (i, nbrs) in g.iter().enumerate() {
            assert_eq!(nbrs.len(), 4);
            assert!(!nbrs.contains(&(i as u32)), "self-loop at {i}");
        }
    }

    #[test]
    fn propagation_keeps_fixed_labels_and_bounds() {
        let geist = Geist::default();
        // Path graph 0-1-2-3 with ends labeled.
        let graph = vec![vec![1], vec![0, 2], vec![1, 3], vec![2]];
        let labels = vec![Some(1.0), None, None, Some(0.0)];
        let s = geist.propagate(&graph, &labels);
        assert_eq!(s[0], 1.0);
        assert_eq!(s[3], 0.0);
        assert!(s[1] > s[2], "closer to optimal end should score higher");
        for &v in &s {
            assert!((0.0..=1.0).contains(&v));
        }
    }
}
