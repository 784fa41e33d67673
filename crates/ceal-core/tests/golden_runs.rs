//! Every tuner's `try_run` result is pinned bit for bit.
//!
//! `fixtures/golden_runs.txt` was generated at the commit before the
//! per-algorithm `try_run` bodies became ask/tell steppers driven by one
//! generic loop. One line per (algorithm, workflow, objective): the
//! recommended configuration and a 64-bit FNV-1a hash over the measured
//! configurations in order, their value bits, the component runs and the
//! bits of every pool score. A change that moves any line changed what an
//! algorithm measures or what it learns from it.

use ceal_core::{
    sample_pool, ActiveLearning, Alph, Autotuner, BanditTuner, BayesOpt, Ceal, CealParams,
    ComponentHistory, EnsembleKind, EnsembleTuner, Geist, PoolOracle, RandomSampling, SimOracle,
    TunerRun,
};
use ceal_sim::{Objective, Simulator};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::fmt::Write;
use std::sync::Arc;

const GOLDEN: &str = include_str!("fixtures/golden_runs.txt");

/// Every tuner in `ceal_core::algorithms`, the history-aware ones both
/// with and without `D_hist`.
fn tuners(history: &Arc<ComponentHistory>) -> Vec<(&'static str, Box<dyn Autotuner>)> {
    let h = || Arc::clone(history);
    vec![
        ("ceal", Box::new(Ceal::new(CealParams::without_history()))),
        ("al", Box::new(ActiveLearning::default())),
        ("rs", Box::new(RandomSampling)),
        ("geist", Box::new(Geist::default())),
        ("alph", Box::new(Alph::new())),
        ("bo", Box::new(BayesOpt::bootstrapped(None))),
        ("rl", Box::new(BanditTuner::bootstrapped(None))),
        (
            "ceal+hist",
            Box::new(Ceal::with_history(CealParams::with_history(), h())),
        ),
        ("alph+hist", Box::new(Alph::with_history(h()))),
        ("bo+hist", Box::new(BayesOpt::bootstrapped(Some(h())))),
        ("rl+hist", Box::new(BanditTuner::bootstrapped(Some(h())))),
        ("bo-plain", Box::new(BayesOpt::new())),
        ("rl-plain", Box::new(BanditTuner::new())),
        ("ens-knn", Box::new(EnsembleTuner::new(EnsembleKind::Knn))),
        (
            "ens-hyboost",
            Box::new(EnsembleTuner::new(EnsembleKind::HyBoost)),
        ),
        (
            "ens-probing",
            Box::new(EnsembleTuner::new(EnsembleKind::Probing)),
        ),
    ]
}

struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

fn digest(run: &TunerRun) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for m in &run.measured {
        m.config.iter().for_each(|&v| h.word(v as u64));
        h.word(m.value.to_bits());
    }
    for s in &run.component_runs {
        h.word(s.component as u64);
        s.values.iter().for_each(|&v| h.word(v as u64));
        h.word(s.value.to_bits());
    }
    run.pool_scores.iter().for_each(|s| h.word(s.to_bits()));
    h.0
}

#[test]
fn every_tuner_reproduces_the_golden_runs() {
    let mut actual = String::new();
    for spec in ceal_apps::all_workflows() {
        for objective in [Objective::ExecutionTime, Objective::ComputerTime] {
            let sim = Simulator::new();
            let mut rng = ChaCha8Rng::seed_from_u64(31);
            let pool = sample_pool(&spec, &sim.platform, 300, &mut rng);
            let oracle =
                PoolOracle::precompute(SimOracle::new(sim, spec.clone(), objective, 2021), &pool);
            let mut rng = ChaCha8Rng::seed_from_u64(0xD157);
            let history = Arc::new(ComponentHistory::collect(&oracle, 4, &mut rng));
            for (name, tuner) in tuners(&history) {
                let run = tuner
                    .try_run(&oracle, &pool, 25, 7)
                    .unwrap_or_else(|e| panic!("{name} on {} / {objective}: {e}", spec.name));
                writeln!(
                    actual,
                    "{name} {} {} best={:?} runs={} solo={} digest={:016x}",
                    spec.name,
                    objective.label(),
                    run.best_predicted,
                    run.runs_used(),
                    run.component_runs.len(),
                    digest(&run)
                )
                .unwrap();
            }
        }
    }
    if let Ok(path) = std::env::var("CEAL_GOLDEN_OUT") {
        std::fs::write(path, &actual).unwrap();
    }
    for (got, want) in actual.lines().zip(GOLDEN.lines()) {
        assert_eq!(got, want, "a tuner's run moved");
    }
    assert_eq!(actual.lines().count(), GOLDEN.lines().count());
}
