//! The candidate sample pool `C_pool` (paper §5).
//!
//! All configurations an auto-tuning run measures are drawn from a pool of
//! feasible configurations sampled uniformly from the workflow's space. The
//! paper sizes the pool with `p ≈ −n·ln(1−P)` so that with probability `P`
//! the pool contains a configuration in the top `1/n` of the space
//! (p ≈ 2000 for 1/n = 0.2 %, P = 98.2 %).

use ceal_sim::{Platform, WorkflowSpec};
use rand::Rng;

/// Rejection-samples `size` *feasible* configurations (allocation fits the
/// node cap) uniformly from the workflow's parameter grids.
///
/// # Panics
/// Panics if feasible configurations are so rare that `size` cannot be
/// reached within a generous attempt budget (indicates a mis-specified
/// workflow).
pub fn sample_pool<R: Rng>(
    spec: &WorkflowSpec,
    platform: &Platform,
    size: usize,
    rng: &mut R,
) -> Vec<Vec<i64>> {
    let params = spec.all_params();
    let mut pool = Vec::with_capacity(size);
    // Most attempts are rejected: sample into one buffer and copy out only
    // the configurations that are kept.
    let mut cfg = Vec::with_capacity(params.len());
    let max_attempts = (size as u64).saturating_mul(10_000).max(1_000_000);
    let mut attempts = 0u64;
    while pool.len() < size {
        attempts += 1;
        assert!(
            attempts <= max_attempts,
            "feasible configurations too rare for {} (found {}/{size})",
            spec.name,
            pool.len()
        );
        ceal_sim::config::sample_values_into(&params, rng, &mut cfg);
        if spec.feasible(platform, &cfg) {
            pool.push(cfg.clone());
        }
    }
    pool
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceal_apps::{all_workflows, lv};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn sampled_pool_is_feasible_and_sized() {
        let platform = Platform::default();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for wf in all_workflows() {
            let pool = sample_pool(&wf, &platform, 100, &mut rng);
            assert_eq!(pool.len(), 100);
            for cfg in &pool {
                assert!(wf.feasible(&platform, cfg));
            }
        }
    }

    #[test]
    fn pools_differ_across_seeds() {
        let platform = Platform::default();
        let wf = lv();
        let mut a = ChaCha8Rng::seed_from_u64(1);
        let mut b = ChaCha8Rng::seed_from_u64(2);
        assert_ne!(
            sample_pool(&wf, &platform, 10, &mut a),
            sample_pool(&wf, &platform, 10, &mut b)
        );
    }

    #[test]
    fn pool_is_deterministic_per_seed() {
        let platform = Platform::default();
        let wf = lv();
        let mut a = ChaCha8Rng::seed_from_u64(5);
        let mut b = ChaCha8Rng::seed_from_u64(5);
        assert_eq!(
            sample_pool(&wf, &platform, 20, &mut a),
            sample_pool(&wf, &platform, 20, &mut b)
        );
    }
}
