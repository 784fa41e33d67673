//! Cross-crate invariants drawn from the paper's observations.

use ceal::sim::{bounds, ComponentStats, Objective, Platform, RunResult, Simulator};
use ceal::tuner::metrics::{recall_curve, recall_score};
use ceal::tuner::{
    CombineFn, ComponentHistory, ComponentModels, LowFidelityModel, Oracle, SimOracle,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// §3: "if any component performs poorly, the workflow is unlikely to
/// achieve high performance" — coupled execution time is bounded below by
/// every component's ideal busy time.
#[test]
fn coupled_time_dominates_component_busy_times() {
    let platform = Platform::default();
    let sim = Simulator::noiseless();
    for spec in ceal::apps::all_workflows() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let pool = ceal::tuner::sample_pool(&spec, &platform, 40, &mut rng);
        for cfg in &pool {
            let run = sim.run(&spec, cfg, 0).unwrap();
            let busy = bounds::busy_times(&platform, &spec, cfg);
            let max_busy = busy.iter().cloned().fold(0.0, f64::max);
            assert!(
                run.exec_time >= max_busy * (1.0 - 1e-9),
                "{}: exec {} below bottleneck busy {max_busy}",
                spec.name,
                run.exec_time
            );
            bounds::within_bounds(&platform, &spec, cfg, run.exec_time, 1e-6)
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        }
    }
}

/// §4/Fig. 4: the low-fidelity model locates good configurations far better
/// than random ordering.
#[test]
fn low_fidelity_model_beats_random_ordering() {
    let spec = ceal::apps::lv();
    let sim = Simulator::new();
    let oracle = SimOracle::new(sim, spec.clone(), Objective::ExecutionTime, 5);
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    let hist = ComponentHistory::collect(&oracle, 200, &mut rng);
    let ml = LowFidelityModel::new(&spec, ComponentModels::fit(&spec, &hist, 0), CombineFn::Max);

    let platform = Platform::default();
    let pool = ceal::tuner::sample_pool(&spec, &platform, 300, &mut rng);
    let truth: Vec<f64> = pool.iter().map(|c| oracle.measure(c).value).collect();
    let scores = ml.score_all(&pool);

    let curve = recall_curve(10, &scores, &truth);
    let mean_recall: f64 = curve.iter().sum::<f64>() / curve.len() as f64;
    // Random ordering would give ~n/300 ≈ 3 %.
    assert!(
        mean_recall > 20.0,
        "low-fidelity mean recall too low: {mean_recall:.1}%"
    );
}

/// §7.1: computer time = exec_time × nodes × cores.
#[test]
fn computer_time_definition_holds_everywhere() {
    let sim = Simulator::new();
    let platform = Platform::default();
    for spec in ceal::apps::all_workflows() {
        let cfg = ceal::apps::expert_config(&spec.name, Objective::ComputerTime).unwrap();
        let run = sim.run(&spec, &cfg, 1).unwrap();
        let expect = run.exec_time * (run.total_nodes * platform.cores_per_node) as f64 / 3600.0;
        assert!((run.computer_time - expect).abs() < 1e-9);
        assert_eq!(run.total_nodes, spec.total_nodes(&platform, &cfg));
    }
}

/// §2.3: the workflow configuration space dwarfs each component's.
#[test]
fn joint_spaces_are_multiplicatively_larger() {
    for spec in ceal::apps::all_workflows() {
        let max_component: f64 = spec
            .components
            .iter()
            .map(|c| c.params().iter().map(|p| p.n_options() as f64).product())
            .fold(0.0, f64::max);
        assert!(
            spec.space_size() >= max_component * 1e4,
            "{}: joint space not >> component space",
            spec.name
        );
    }
}

/// Eq. 3 sanity on real data: a model's recall of itself is total.
#[test]
fn recall_score_of_truth_is_100() {
    let spec = ceal::apps::hs();
    let sim = Simulator::new();
    let platform = Platform::default();
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let pool = ceal::tuner::sample_pool(&spec, &platform, 50, &mut rng);
    let oracle = SimOracle::new(sim, spec, Objective::ExecutionTime, 1);
    let truth: Vec<f64> = pool.iter().map(|c| oracle.measure(c).value).collect();
    for n in [1, 3, 10] {
        assert_eq!(recall_score(n, &truth, &truth), 100.0);
    }
}

/// Solo runs are systematically optimistic versus coupled runs for
/// consumers that get back-pressured (the low-fidelity model's blind spot).
#[test]
fn solo_optimism_gap_exists() {
    let spec = ceal::apps::lv();
    let sim = Simulator::noiseless();
    // Slow consumer: few Voro processes against a fast LAMMPS.
    let cfg = vec![800i64, 30, 1, 4, 4, 1];
    let platform = Platform::default();
    assert!(spec.feasible(&platform, &cfg));
    let coupled = sim.run(&spec, &cfg, 0).unwrap();
    let solo_producer = sim.run_solo(&spec, 0, &cfg[..3], 0).unwrap();
    assert!(
        coupled.components[0].end_time > solo_producer.exec_time * 1.5,
        "back-pressure should slow the producer: coupled {} vs solo {}",
        coupled.components[0].end_time,
        solo_producer.exec_time
    );
    assert!(coupled.components[0].blocked_on_space > 0.0);
}

/// The component `name`'s accounting in `run`.
fn component<'a>(run: &'a RunResult, name: &str) -> &'a ComponentStats {
    run.components
        .iter()
        .find(|c| c.name == name)
        .unwrap_or_else(|| panic!("no component {name}"))
}

/// HS coupling completeness: Heat Transfer emits once per configured
/// output, and Stage Write does the work of every one of them before it
/// ends (a noiseless run's busy time is exactly its ideal busy time, which
/// counts each emission the sink consumes). Most sampled buffers are
/// smaller than one 32 MiB emission, which must still be admitted whole.
#[test]
fn every_heat_emission_reaches_stage_write() {
    let spec = ceal::apps::hs();
    let platform = Platform::default();
    let sim = Simulator::noiseless();
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    for cfg in ceal::tuner::sample_pool(&spec, &platform, 20, &mut rng) {
        let run = sim.run(&spec, &cfg, 0).unwrap();
        let ideal = bounds::busy_times(&platform, &spec, &cfg);
        let (heat, sink) = (component(&run, "heat"), component(&run, "stage-write"));
        assert_eq!(heat.emissions, cfg[3] as u64, "{cfg:?}: heat.outputs");
        assert!(sink.end_time >= heat.end_time, "{cfg:?}: sink ended first");
        assert!(
            (sink.busy - ideal[1]).abs() <= 1e-9 * ideal[1],
            "{cfg:?}: stage-write busy {} is not {} emissions' work {}",
            sink.busy,
            cfg[3],
            ideal[1]
        );
    }
}

/// GP fan-out: both readers of Gray-Scott's stream (the PDF calculator and
/// G-Plot) outlast it, and the PDF calculator forwards one step to P-Plot
/// per step it receives.
#[test]
fn gray_scott_fans_out_to_both_consumers() {
    let spec = ceal::apps::gp();
    let platform = Platform::default();
    let sim = Simulator::noiseless();
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    for cfg in ceal::tuner::sample_pool(&spec, &platform, 20, &mut rng) {
        let run = sim.run(&spec, &cfg, 0).unwrap();
        let gs = component(&run, "gray-scott");
        assert!(gs.emissions > 0, "{cfg:?}: gray-scott emitted nothing");
        for consumer in ["pdf-calc", "g-plot"] {
            assert!(
                component(&run, consumer).end_time >= gs.end_time,
                "{cfg:?}: {consumer} ended before gray-scott"
            );
        }
        assert_eq!(
            component(&run, "pdf-calc").emissions,
            gs.emissions,
            "{cfg:?}"
        );
    }
}

/// Back-pressure: when G-Plot is the bottleneck, Gray-Scott fills the
/// bounded staging buffer and blocks on space, so it cannot finish far
/// ahead of its slowest reader.
#[test]
fn slow_consumer_back_pressures_its_producer() {
    let spec = ceal::apps::gp();
    let platform = Platform::default();
    let sim = Simulator::noiseless();
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let mut checked = 0;
    for cfg in ceal::tuner::sample_pool(&spec, &platform, 20, &mut rng) {
        let ideal = bounds::busy_times(&platform, &spec, &cfg);
        let (gs_busy, gplot_busy) = (ideal[0], ideal[2]);
        let bottleneck = ideal.iter().cloned().fold(0.0, f64::max);
        // The margin keeps out near-ties, where the two-emission buffer
        // alone can absorb the consumer's lag.
        if gplot_busy < bottleneck || gplot_busy < 1.5 * gs_busy {
            continue;
        }
        let run = sim.run(&spec, &cfg, 0).unwrap();
        let gs = component(&run, "gray-scott");
        assert!(
            gs.blocked_on_space > 0.0,
            "{cfg:?}: gray-scott never blocked behind g-plot"
        );
        assert!(
            gs.end_time >= 0.9 * gplot_busy,
            "{cfg:?}: gray-scott ended at {} though g-plot needs {gplot_busy}",
            gs.end_time
        );
        checked += 1;
    }
    assert!(
        checked >= 3,
        "only {checked} configurations bottlenecked on g-plot"
    );
}
