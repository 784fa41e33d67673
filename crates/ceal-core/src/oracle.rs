//! The collector: measuring workflow and component configurations.
//!
//! Auto-tuning algorithms see only this trait; whether a measurement comes
//! from a live DES run ([`SimOracle`]) or a precomputed table
//! ([`PoolOracle`], mirroring the paper's §7.1 pool dataset measured once
//! up front) is invisible to them.
//!
//! Every configuration is measured with a seed derived deterministically
//! from its values, so repeated measurements of the same configuration
//! return the same (noisy) value — exactly like reusing the paper's
//! recorded dataset. The two oracles therefore return bit-identical
//! values (`tests/lazy_oracle_equivalence.rs`).
//!
//! The same contract lets a campaign run each configuration once. A
//! repeated ask — a single-configuration component's m_R solo runs, a
//! one-shot's closing measurement of a recommendation the campaign
//! measured — is answered with the campaign's own record, the very bits a
//! second run would return.
//!
//! The choice between the two oracles is purely one of cost:
//!
//! * **Precompute** ([`PoolOracle`]) when the caller needs ground truth
//!   for the whole pool anyway — experiments, recall/gap metrics, many
//!   repetitions over one pool.
//! * **Measure lazily** ([`SimOracle`]) when only the tuner's own
//!   measurements matter — the serve path and the `tune` CLI. A campaign
//!   measures a few dozen of a 2000-configuration pool; simulating the
//!   rest up front is the very cost the paper's method exists to avoid.

use ceal_sim::{Objective, Platform, SimError, Simulator, WorkflowSpec};
use std::collections::HashMap;

/// One workflow measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// The measured configuration (full parameter vector).
    pub config: Vec<i64>,
    /// The optimization-objective value (seconds or core-hours).
    pub value: f64,
    /// Wall-clock execution time, seconds.
    pub exec_time: f64,
    /// Computer time, core-hours.
    pub computer_time: f64,
}

/// One standalone component measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct SoloMeasurement {
    /// Component index within the workflow.
    pub component: usize,
    /// The component's parameter values.
    pub values: Vec<i64>,
    /// The objective-aligned value (solo exec seconds or solo core-hours).
    pub value: f64,
    /// Solo execution time, seconds.
    pub exec_time: f64,
    /// Solo computer time, core-hours.
    pub computer_time: f64,
}

/// Why a fallible measurement failed.
#[derive(Debug, Clone, PartialEq)]
pub enum MeasureError {
    /// The simulator rejected the run (infeasible configuration, ...).
    Sim(SimError),
    /// The measurement backend failed for a non-simulator reason
    /// (injected fault, lost connection, crashed component, ...).
    Failed(String),
    /// Every retry a policy allowed has failed (see
    /// [`RetryingCollector`](crate::RetryingCollector)).
    RetriesExhausted {
        /// Attempts made before giving up.
        attempts: u64,
        /// The last attempt's failure, rendered.
        last: String,
    },
}

impl std::fmt::Display for MeasureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Sim(e) => write!(f, "simulation failed: {e}"),
            Self::Failed(msg) => write!(f, "measurement failed: {msg}"),
            Self::RetriesExhausted { attempts, last } => {
                write!(f, "failed {attempts} consecutive attempts: {last}")
            }
        }
    }
}

impl std::error::Error for MeasureError {}

impl From<SimError> for MeasureError {
    fn from(e: SimError) -> Self {
        Self::Sim(e)
    }
}

/// A measurement source for one workflow under one objective.
///
/// The fallible `try_*` methods are the primitives every oracle
/// implements; the panicking `measure`/`measure_component` are provided
/// conveniences for contexts (examples, fixtures) that own their inputs
/// and treat a failure as a programming error. Everything on a production
/// path — tuners via [`Autotuner::try_run`](crate::Autotuner::try_run),
/// the serve layer, the bench CLI — uses the `try_*` plumbing so faults
/// and exhausted retries surface as typed [`MeasureError`]s end to end.
pub trait Oracle: Sync {
    /// The workflow being tuned.
    fn spec(&self) -> &WorkflowSpec;
    /// The hardware platform measurements run on.
    fn platform(&self) -> &Platform;
    /// The optimization objective.
    fn objective(&self) -> Objective;
    /// Measures a coupled workflow run, returning a typed error when the
    /// backend fails (infeasible configuration, injected fault, exhausted
    /// retries, journal I/O, ...).
    fn try_measure(&self, config: &[i64]) -> Result<Measurement, MeasureError>;
    /// Fallible variant of [`Oracle::measure_component`] for standalone
    /// component runs.
    fn try_measure_component(
        &self,
        component: usize,
        values: &[i64],
    ) -> Result<SoloMeasurement, MeasureError>;
    /// Measures a coupled workflow run.
    ///
    /// # Panics
    /// Panics if the measurement fails — callers must only measure
    /// configurations drawn from the feasible pool or component grids, and
    /// should use [`Oracle::try_measure`] when the backend itself can fail.
    fn measure(&self, config: &[i64]) -> Measurement {
        self.try_measure(config)
            .unwrap_or_else(|e| panic!("measurement of {config:?} failed: {e}"))
    }
    /// Measures a standalone component run.
    ///
    /// # Panics
    /// Panics if the measurement fails; see [`Oracle::measure`].
    fn measure_component(&self, component: usize, values: &[i64]) -> SoloMeasurement {
        self.try_measure_component(component, values)
            .unwrap_or_else(|e| {
                panic!("solo measurement of component {component} {values:?} failed: {e}")
            })
    }
}

/// FNV-style hash of a configuration, used to derive its measurement seed.
fn config_seed(base: u64, tag: u64, config: &[i64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ base.wrapping_mul(0x100_0000_01b3) ^ tag;
    for &v in config {
        h ^= v as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// An oracle backed by live simulator runs.
pub struct SimOracle {
    sim: Simulator,
    spec: WorkflowSpec,
    objective: Objective,
    base_seed: u64,
}

impl SimOracle {
    /// Creates an oracle for `spec` under `objective`. `base_seed` selects
    /// the measurement-noise universe (the paper's "one measurement per
    /// configuration" dataset).
    pub fn new(sim: Simulator, spec: WorkflowSpec, objective: Objective, base_seed: u64) -> Self {
        Self {
            sim,
            spec,
            objective,
            base_seed,
        }
    }

    /// The underlying simulator.
    pub fn simulator(&self) -> &Simulator {
        &self.sim
    }

    /// Measures a configuration, returning the simulator error on failure.
    pub fn try_measure(&self, config: &[i64]) -> Result<Measurement, SimError> {
        let seed = config_seed(self.base_seed, 0, config);
        let r = self.sim.run(&self.spec, config, seed)?;
        Ok(Measurement {
            config: config.to_vec(),
            value: r.objective(self.objective),
            exec_time: r.exec_time,
            computer_time: r.computer_time,
        })
    }

    /// Measures a standalone component run, returning the simulator error
    /// on failure.
    pub fn try_measure_component(
        &self,
        component: usize,
        values: &[i64],
    ) -> Result<SoloMeasurement, SimError> {
        let seed = config_seed(self.base_seed, 1 + component as u64, values);
        let r = self.sim.run_solo(&self.spec, component, values, seed)?;
        Ok(SoloMeasurement {
            component,
            values: values.to_vec(),
            value: r.objective(self.objective),
            exec_time: r.exec_time,
            computer_time: r.computer_time,
        })
    }
}

impl Oracle for SimOracle {
    fn spec(&self) -> &WorkflowSpec {
        &self.spec
    }

    fn platform(&self) -> &Platform {
        &self.sim.platform
    }

    fn objective(&self) -> Objective {
        self.objective
    }

    fn try_measure(&self, config: &[i64]) -> Result<Measurement, MeasureError> {
        SimOracle::try_measure(self, config).map_err(MeasureError::Sim)
    }

    fn try_measure_component(
        &self,
        component: usize,
        values: &[i64],
    ) -> Result<SoloMeasurement, MeasureError> {
        SimOracle::try_measure_component(self, component, values).map_err(MeasureError::Sim)
    }
}

/// An oracle that serves pool configurations from a precomputed table
/// (computed once, in parallel) and falls back to the simulator otherwise.
///
/// Costs one simulator run per pool configuration up front. Worth it only
/// when [`PoolOracle::truth_for`] / [`PoolOracle::table`] are read or the
/// pool is tuned over many times; a single campaign should measure lazily
/// on a bare [`SimOracle`] (see the module docs).
pub struct PoolOracle {
    inner: SimOracle,
    table: HashMap<Vec<i64>, Measurement>,
}

impl PoolOracle {
    /// Measures every pool configuration up front (parallel over configs).
    pub fn precompute(inner: SimOracle, pool: &[Vec<i64>]) -> Self {
        let measurements = ceal_par::parallel_map(pool, |cfg| inner.measure(cfg));
        let table = pool.iter().cloned().zip(measurements).collect();
        Self { inner, table }
    }

    /// Ground-truth objective values aligned with `pool` order.
    pub fn truth_for(&self, pool: &[Vec<i64>]) -> Vec<f64> {
        pool.iter().map(|c| self.table[c].value).collect()
    }

    /// The measurement table.
    pub fn table(&self) -> &HashMap<Vec<i64>, Measurement> {
        &self.table
    }
}

impl Oracle for PoolOracle {
    fn spec(&self) -> &WorkflowSpec {
        self.inner.spec()
    }

    fn platform(&self) -> &Platform {
        self.inner.platform()
    }

    fn objective(&self) -> Objective {
        self.inner.objective()
    }

    fn try_measure(&self, config: &[i64]) -> Result<Measurement, MeasureError> {
        if let Some(m) = self.table.get(config) {
            Ok(m.clone())
        } else {
            Oracle::try_measure(&self.inner, config)
        }
    }

    fn try_measure_component(
        &self,
        component: usize,
        values: &[i64],
    ) -> Result<SoloMeasurement, MeasureError> {
        Oracle::try_measure_component(&self.inner, component, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceal_apps::lv;

    fn oracle() -> SimOracle {
        SimOracle::new(Simulator::new(), lv(), Objective::ExecutionTime, 7)
    }

    #[test]
    fn repeated_measurement_is_identical() {
        let o = oracle();
        let cfg = vec![100, 20, 1, 50, 10, 1];
        assert_eq!(o.measure(&cfg), o.measure(&cfg));
    }

    #[test]
    fn different_configs_get_different_noise() {
        let o = oracle();
        let a = o.measure(&[100, 20, 1, 50, 10, 1]);
        let b = o.measure(&[101, 20, 1, 50, 10, 1]);
        assert_ne!(a.value, b.value);
    }

    #[test]
    fn objective_selects_value() {
        let cfg = vec![100, 20, 1, 50, 10, 1];
        let exec = oracle().measure(&cfg);
        assert_eq!(exec.value, exec.exec_time);
        let comp = SimOracle::new(Simulator::new(), lv(), Objective::ComputerTime, 7).measure(&cfg);
        assert_eq!(comp.value, comp.computer_time);
    }

    #[test]
    fn component_measurement_is_solo() {
        let o = oracle();
        let solo = o.measure_component(0, &[100, 20, 1]);
        let coupled = o.measure(&[100, 20, 1, 50, 10, 1]);
        // The producer's solo time never exceeds its coupled wall time by
        // more than noise (coupling only adds blocking/interference).
        assert!(solo.exec_time <= coupled.exec_time * 1.2);
    }

    #[test]
    fn pool_oracle_serves_from_table() {
        let pool = vec![vec![100, 20, 1, 50, 10, 1], vec![300, 30, 2, 70, 14, 1]];
        let p = PoolOracle::precompute(oracle(), &pool);
        let truth = p.truth_for(&pool);
        assert_eq!(truth.len(), 2);
        assert_eq!(p.measure(&pool[0]).value, truth[0]);
        // Fallback path still works.
        let other = p.measure(&[120, 24, 1, 60, 12, 1]);
        assert!(other.value > 0.0);
    }

    #[test]
    fn infeasible_measurement_errors() {
        let o = oracle();
        assert!(o.try_measure(&[1085, 1, 1, 1085, 1, 1]).is_err());
    }

    #[test]
    fn trait_try_measure_matches_measure_and_errors_on_infeasible() {
        let o = oracle();
        let cfg = vec![100, 20, 1, 50, 10, 1];
        let dyn_o: &dyn Oracle = &o;
        assert_eq!(dyn_o.try_measure(&cfg).unwrap(), o.measure(&cfg));
        let err = dyn_o.try_measure(&[1085, 1, 1, 1085, 1, 1]).unwrap_err();
        assert!(matches!(err, MeasureError::Sim(_)), "got {err}");
        let solo = dyn_o.try_measure_component(0, &[100, 20, 1]).unwrap();
        assert_eq!(solo, o.measure_component(0, &[100, 20, 1]));
    }

    #[test]
    fn pool_oracle_try_measure_serves_table_and_fallback() {
        let pool = vec![vec![100, 20, 1, 50, 10, 1]];
        let p = PoolOracle::precompute(oracle(), &pool);
        let dyn_o: &dyn Oracle = &p;
        assert_eq!(
            dyn_o.try_measure(&pool[0]).unwrap().value,
            p.truth_for(&pool)[0]
        );
        assert!(dyn_o.try_measure(&[120, 24, 1, 60, 12, 1]).is_ok());
        assert!(dyn_o.try_measure(&[1085, 1, 1, 1085, 1, 1]).is_err());
    }
}
