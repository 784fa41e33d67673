//! A tuner cannot tell a precomputed pool table from live simulator runs.
//!
//! The serve path and the `tune` CLI measure lazily on a bare
//! [`SimOracle`]; experiments precompute the whole pool with
//! [`PoolOracle`] because they need ground truth. Every measurement is a
//! pure function of `(base_seed, configuration)`, so the two must produce
//! bit-identical campaigns for every algorithm a `Tune` request can name.

use ceal_core::algorithms::by_name;
use ceal_core::{sample_pool, Autotuner, PoolOracle, SimOracle, TunerRun};
use ceal_sim::{Objective, Simulator};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The algorithms a `Tune` request can name, as `Tune` builds them.
fn servable_algorithms() -> Vec<(&'static str, Box<dyn Autotuner>)> {
    ["ceal", "al", "rs", "geist", "alph", "bo", "rl"]
        .map(|name| (name, by_name(name, None).expect("servable algorithm")))
        .into()
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn precomputed_and_lazy_oracles_give_bit_identical_campaigns() {
    let cases = ceal_apps::all_workflows().into_iter().flat_map(|s| {
        [
            (s.clone(), Objective::ExecutionTime),
            (s, Objective::ComputerTime),
        ]
    });
    for (spec, objective) in cases {
        let sim = Simulator::new();
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let pool = sample_pool(&spec, &sim.platform, 150, &mut rng);
        let lazy = SimOracle::new(sim.clone(), spec.clone(), objective, 2021);
        let table =
            PoolOracle::precompute(SimOracle::new(sim, spec.clone(), objective, 2021), &pool);

        for (name, algo) in servable_algorithms() {
            let case = format!("{name} on {} / {objective}", spec.name);
            let a = algo.try_run(&table, &pool, 24, 5).expect(&case);
            let b = algo.try_run(&lazy, &pool, 24, 5).expect(&case);
            assert!(!a.measured.is_empty(), "{case}: nothing measured");
            let measured = |run: &TunerRun| -> Vec<(Vec<i64>, u64)> {
                let pairs = run.measured.iter();
                pairs
                    .map(|m| (m.config.clone(), m.value.to_bits()))
                    .collect()
            };
            assert_eq!(measured(&a), measured(&b), "{case}: measured order");
            assert_eq!(a.component_runs, b.component_runs, "{case}");
            assert_eq!(bits(&a.pool_scores), bits(&b.pool_scores), "{case}");
            assert_eq!(a.best_predicted, b.best_predicted, "{case}");
        }
    }
}
