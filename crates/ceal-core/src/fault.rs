//! Job-level fault tolerance for the collector.
//!
//! The paper's auto-tuner enhanced Swift/T with `MPI_Comm_launch` precisely
//! so that a crashed workflow run would not kill the whole tuning campaign
//! (§7.1). This module provides the equivalent for any [`Oracle`]:
//!
//! * [`FaultInjector`] — wraps an oracle and makes a deterministic,
//!   seed-controlled fraction of measurements fail (the testing side:
//!   tuners and collectors can be exercised under failure).
//! * [`RetryingCollector`] — wraps a fallible oracle and retries failed
//!   measurements up to a bound, charging the wasted attempts to the
//!   collection cost exactly as a real campaign would pay for crashed
//!   runs.

use crate::oracle::{MeasureError, Measurement, Oracle, SoloMeasurement};
use crate::retry::RetryPolicy;
use ceal_sim::{Objective, Platform, WorkflowSpec};
use std::sync::atomic::{AtomicU64, Ordering};

/// Error returned when an injected fault fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeasurementFailed {
    /// Attempt number that failed (1-based).
    pub attempt: u64,
}

impl std::fmt::Display for MeasurementFailed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "measurement attempt {} crashed", self.attempt)
    }
}

impl std::error::Error for MeasurementFailed {}

/// Wraps an oracle, failing a deterministic fraction of measurement
/// attempts.
///
/// Failures are a pure function of `(config, attempt)`, so retrying the
/// same configuration eventually succeeds — modelling transient job
/// crashes (node failures, launch timeouts) rather than configurations
/// that can never run.
pub struct FaultInjector<'a> {
    inner: &'a dyn Oracle,
    /// Probability in [0, 1) that any given attempt fails.
    failure_rate: f64,
    seed: u64,
    attempts: AtomicU64,
    failures: AtomicU64,
}

impl<'a> FaultInjector<'a> {
    /// Creates an injector failing `failure_rate` of attempts.
    pub fn new(inner: &'a dyn Oracle, failure_rate: f64, seed: u64) -> Self {
        Self {
            inner,
            failure_rate: failure_rate.clamp(0.0, 0.999),
            seed,
            attempts: AtomicU64::new(0),
            failures: AtomicU64::new(0),
        }
    }

    /// Total attempts observed.
    pub fn attempts(&self) -> u64 {
        self.attempts.load(Ordering::Relaxed)
    }

    /// Total injected failures.
    pub fn failures(&self) -> u64 {
        self.failures.load(Ordering::Relaxed)
    }

    fn roll(&self, config: &[i64], attempt: u64) -> bool {
        // Deterministic hash of (seed, config, attempt) → uniform in [0,1),
        // finalized splitmix64-style for full avalanche (a plain FNV fold
        // barely moves the high bits when only `attempt` changes).
        let mut h = 0x9E37_79B9_7F4A_7C15u64 ^ self.seed;
        for &v in config {
            h ^= v as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h ^= attempt.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
        (h >> 11) as f64 / (1u64 << 53) as f64 <= self.failure_rate
    }

    /// Attempts one measurement; fails deterministically per
    /// `(config, attempt)`. An injected crash surfaces as
    /// [`MeasureError::Failed`] (the transient, retryable kind); an
    /// underlying simulator rejection passes through as
    /// [`MeasureError::Sim`] (deterministic — retrying cannot help).
    pub fn try_measure(&self, config: &[i64], attempt: u64) -> Result<Measurement, MeasureError> {
        self.attempts.fetch_add(1, Ordering::Relaxed);
        if self.roll(config, attempt) {
            self.failures.fetch_add(1, Ordering::Relaxed);
            Err(MeasureError::Failed(
                MeasurementFailed { attempt }.to_string(),
            ))
        } else {
            self.inner.try_measure(config)
        }
    }
}

/// A fault-tolerant collector: retries failed attempts.
///
/// Implements [`Oracle`] so any tuner runs unchanged on an unreliable
/// testbed. When every attempt the [`RetryPolicy`] allows has failed,
/// [`Oracle::try_measure`] returns
/// [`MeasureError::RetriesExhausted`] — never a panic, so a tuning
/// service or resumable campaign stays alive across a truly dead
/// configuration.
pub struct RetryingCollector<'a> {
    injector: &'a FaultInjector<'a>,
    /// When and how often to retry. Built by [`RetryingCollector::new`] as
    /// a no-delay policy (simulated measurements have no transport to wait
    /// out).
    pub policy: RetryPolicy,
}

impl<'a> RetryingCollector<'a> {
    /// Creates a collector retrying up to `max_attempts` times with no
    /// backoff delay.
    pub fn new(injector: &'a FaultInjector<'a>, max_attempts: u64) -> Self {
        Self {
            injector,
            policy: RetryPolicy::no_delay(max_attempts.min(u32::MAX as u64) as u32),
        }
    }

    /// Maximum attempts per configuration (≥ 1).
    pub fn max_attempts(&self) -> u64 {
        self.policy.max_attempts.max(1) as u64
    }
}

impl Oracle for RetryingCollector<'_> {
    fn spec(&self) -> &WorkflowSpec {
        self.injector.inner.spec()
    }

    fn platform(&self) -> &Platform {
        self.injector.inner.platform()
    }

    fn objective(&self) -> Objective {
        self.injector.inner.objective()
    }

    fn try_measure(&self, config: &[i64]) -> Result<Measurement, MeasureError> {
        let max = self.max_attempts();
        let mut last: Option<String> = None;
        for attempt in 1..=max {
            if attempt > 1 {
                let wait = self
                    .policy
                    .delay_before(attempt.min(u32::MAX as u64) as u32);
                if !wait.is_zero() {
                    std::thread::sleep(wait);
                }
            }
            match self.injector.try_measure(config, attempt) {
                Ok(m) => return Ok(m),
                // Transient backend failures (injected crashes) are the
                // retryable kind; go again.
                Err(MeasureError::Failed(msg)) => last = Some(msg),
                // Deterministic failures (infeasible configuration) cannot
                // be retried away.
                Err(other) => return Err(other),
            }
        }
        Err(MeasureError::RetriesExhausted {
            attempts: max,
            last: last.expect("max >= 1 implies a recorded failure"),
        })
    }

    fn try_measure_component(
        &self,
        component: usize,
        values: &[i64],
    ) -> Result<SoloMeasurement, MeasureError> {
        // Component runs are short; model them as reliable.
        self.injector.inner.try_measure_component(component, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{Autotuner, RandomSampling};
    use crate::oracle::MeasureError;
    use crate::oracle::SimOracle;
    use crate::pool::sample_pool;
    use ceal_sim::Simulator;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn base() -> (Vec<Vec<i64>>, SimOracle) {
        let spec = ceal_apps::lv();
        let sim = Simulator::new();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let pool = sample_pool(&spec, &sim.platform, 40, &mut rng);
        (pool, SimOracle::new(sim, spec, Objective::ExecutionTime, 3))
    }

    #[test]
    fn injector_fails_roughly_the_requested_fraction() {
        let (pool, oracle) = base();
        let inj = FaultInjector::new(&oracle, 0.3, 7);
        let mut failed = 0;
        for (i, cfg) in pool.iter().cycle().take(400).enumerate() {
            if inj.try_measure(cfg, i as u64).is_err() {
                failed += 1;
            }
        }
        let rate = failed as f64 / 400.0;
        assert!((0.2..0.4).contains(&rate), "observed failure rate {rate}");
        assert_eq!(inj.attempts(), 400);
        assert_eq!(inj.failures(), failed);
    }

    #[test]
    fn failures_are_deterministic_and_transient() {
        let (pool, oracle) = base();
        let inj = FaultInjector::new(&oracle, 0.5, 1);
        let cfg = &pool[0];
        let first = inj.try_measure(cfg, 1).is_err();
        assert_eq!(
            inj.try_measure(cfg, 1).is_err(),
            first,
            "same attempt must repeat"
        );
        // Some attempt within a handful succeeds (transient faults).
        let ok = (1..10).any(|a| inj.try_measure(cfg, a).is_ok());
        assert!(ok, "faults should be transient");
    }

    #[test]
    fn collector_retries_through_injected_failures() {
        let (pool, oracle) = base();
        let inj = FaultInjector::new(&oracle, 0.4, 11);
        let col = RetryingCollector::new(&inj, 10);
        for cfg in &pool {
            let m = col.measure(cfg);
            assert!(m.value > 0.0);
        }
        assert!(inj.failures() > 0, "fixture should have injected failures");
        assert_eq!(inj.attempts(), pool.len() as u64 + inj.failures());
    }

    #[test]
    fn tuners_run_unchanged_on_a_flaky_testbed() {
        let (pool, oracle) = base();
        let inj = FaultInjector::new(&oracle, 0.25, 13);
        let col = RetryingCollector::new(&inj, 25);
        let run = RandomSampling.run(&col, &pool, 15, 0);
        assert_eq!(run.runs_used(), 15);
        // Results identical to the reliable oracle: retries hide the faults.
        let reliable = RandomSampling.run(&oracle, &pool, 15, 0);
        assert_eq!(run.best_predicted, reliable.best_predicted);
    }

    #[test]
    fn zero_rate_never_fails() {
        let (pool, oracle) = base();
        let inj = FaultInjector::new(&oracle, 0.0, 0);
        for (i, cfg) in pool.iter().take(50).enumerate() {
            assert!(inj.try_measure(cfg, i as u64).is_ok());
        }
    }

    #[test]
    fn exhausted_retries_surface_as_typed_error() {
        let (pool, oracle) = base();
        // 99.9 % failure rate with one attempt: practically guaranteed.
        let inj = FaultInjector::new(&oracle, 0.999, 2);
        let col = RetryingCollector::new(&inj, 1);
        let err = pool
            .iter()
            .find_map(|cfg| col.try_measure(cfg).err())
            .expect("some config must fail its only attempt");
        match &err {
            MeasureError::RetriesExhausted { attempts, last } => {
                assert_eq!(*attempts, 1);
                assert!(last.contains("crashed"), "last error lacks context: {last}");
            }
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
        // The rendered error keeps the old panic message's context.
        let msg = err.to_string();
        assert!(msg.contains("consecutive attempts"), "{msg}");
        assert!(msg.contains("crashed"), "{msg}");
    }

    #[test]
    fn infeasible_configs_are_not_retried() {
        let (_, oracle) = base();
        let inj = FaultInjector::new(&oracle, 0.0, 0);
        let col = RetryingCollector::new(&inj, 5);
        let before = inj.attempts();
        let err = col
            .try_measure(&[1085, 1, 1, 1085, 1, 1])
            .expect_err("infeasible must fail");
        assert!(matches!(err, MeasureError::Sim(_)), "got {err}");
        assert_eq!(
            inj.attempts() - before,
            1,
            "no retry on deterministic failure"
        );
    }
}
