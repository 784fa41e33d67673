//! Lazily-built experiment scenarios.
//!
//! A scenario fixes (workflow, objective) and precomputes the paper's §7.1
//! dataset: a 2000-configuration feasible pool measured once (in parallel)
//! plus the expert configuration's measurement. Scenarios and the
//! 500-sample component histories are cached process-wide so experiments
//! sharing a workflow don't rebuild them.

use ceal_core::{ComponentHistory, Oracle, PoolOracle, SimOracle};
use ceal_par::sync::Mutex;
use ceal_sim::{Objective, Simulator};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Pool size (paper §5: p ≈ 2000 for top-0.2 % coverage at 98.2 %).
pub fn pool_size() -> usize {
    std::env::var("CEAL_POOL")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2000)
}

/// Historical component samples per configurable component (paper §7.1:
/// 500).
fn history_size() -> usize {
    std::env::var("CEAL_HISTORY")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(500)
}

/// A fixed (workflow, objective) evaluation setting.
pub struct Scenario {
    /// Workflow name ("LV", "HS", "GP").
    pub workflow: String,
    /// Optimization objective.
    pub objective: Objective,
    /// The candidate pool `C_pool`.
    pub pool: Vec<Vec<i64>>,
    /// Precomputed measurement oracle.
    pub oracle: PoolOracle,
    /// Ground-truth objective value per pool configuration.
    pub truth: Vec<f64>,
    /// Best value in the pool (the figures' dashed "1.0" line).
    pub best: f64,
    /// The expert recommendation's measured value (Table 2).
    pub expert: f64,
    /// The expert configuration.
    pub expert_config: Vec<i64>,
}

impl Scenario {
    fn build(workflow: &str, objective: Objective) -> Arc<Self> {
        let spec = ceal_apps::workflow_by_name(workflow)
            .unwrap_or_else(|| panic!("unknown workflow {workflow}"));
        let sim = Simulator::new();
        // The pool is a property of the workflow, not the objective: seed
        // by workflow so exec/comp scenarios share configurations (as the
        // paper's single measured dataset does).
        let name_tag =
            (spec.name.len() as u64) * 131 + spec.name.bytes().map(u64::from).sum::<u64>();
        let mut rng = ChaCha8Rng::seed_from_u64(0x5EED ^ name_tag);
        let pool = ceal_core::sample_pool(&spec, &sim.platform, pool_size(), &mut rng);
        let oracle = PoolOracle::precompute(SimOracle::new(sim, spec, objective, 2021), &pool);
        let truth = oracle.truth_for(&pool);
        let best = truth.iter().cloned().fold(f64::INFINITY, f64::min);
        let expert_config = ceal_apps::expert_config(workflow, objective)
            .unwrap_or_else(|| panic!("no expert config for {workflow}"));
        let expert = oracle.measure(&expert_config).value;
        Arc::new(Self {
            workflow: workflow.to_string(),
            objective,
            pool,
            oracle,
            truth,
            best,
            expert,
            expert_config,
        })
    }

    /// Ground-truth value of a pool configuration.
    pub fn truth_of(&self, config: &[i64]) -> f64 {
        self.oracle.measure(config).value
    }

    /// "best-in-test-set"-normalized value of a configuration.
    pub fn normalized(&self, config: &[i64]) -> f64 {
        self.truth_of(config) / self.best
    }

    /// Short id like "LV-exec".
    pub fn id(&self) -> String {
        format!("{}-{}", self.workflow, self.objective.label())
    }
}

type ScenKey = (String, &'static str);

/// Returns (building on first use) the cached scenario.
pub fn scenario(workflow: &str, objective: Objective) -> Arc<Scenario> {
    static CACHE: OnceLock<Mutex<HashMap<ScenKey, Arc<Scenario>>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let key = (workflow.to_ascii_uppercase(), objective.label());
    if let Some(s) = cache.lock().get(&key) {
        return Arc::clone(s);
    }
    // Build outside the lock: other scenarios may build concurrently.
    let built = Scenario::build(&key.0, objective);
    cache.lock().entry(key).or_insert(built).clone()
}

/// Returns (building on first use) the cached 500-sample component history
/// for a scenario.
pub fn history(workflow: &str, objective: Objective) -> Arc<ComponentHistory> {
    static CACHE: OnceLock<Mutex<HashMap<ScenKey, Arc<ComponentHistory>>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let key = (workflow.to_ascii_uppercase(), objective.label());
    if let Some(h) = cache.lock().get(&key) {
        return Arc::clone(h);
    }
    let scen = scenario(workflow, objective);
    let mut rng = ChaCha8Rng::seed_from_u64(0x415);
    let built = Arc::new(ComponentHistory::collect(
        &scen.oracle,
        history_size(),
        &mut rng,
    ));
    cache.lock().entry(key).or_insert(built).clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_is_cached_and_consistent() {
        std::env::set_var("CEAL_POOL", "60");
        std::env::set_var("CEAL_HISTORY", "30");
        let a = scenario("LV", Objective::ExecutionTime);
        let b = scenario("lv", Objective::ExecutionTime);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.pool.len(), 60);
        assert_eq!(a.truth.len(), 60);
        assert!(a.best > 0.0);
        assert!(a.expert > 0.0);
        assert_eq!(a.id(), "LV-exec");
        // Normalization: every pool config is >= best.
        assert!(a.pool.iter().all(|c| a.normalized(c) >= 1.0 - 1e-12));
    }

    #[test]
    fn history_is_cached() {
        std::env::set_var("CEAL_POOL", "60");
        std::env::set_var("CEAL_HISTORY", "30");
        let a = history("LV", Objective::ExecutionTime);
        let b = history("LV", Objective::ExecutionTime);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.samples[0].len(), 30);
    }
}
