//! Every simulator run a campaign makes is traced once and billed once,
//! whichever endpoint asked for it and wherever it ran: the server
//! measures through one function, so `oracle.measure` `End` events and
//! `Metrics.oracle_measurements` count the same thing. A campaign runs
//! each configuration once: what it already holds a record of is answered
//! from it. The tests fail if bulk measurement (e.g. a whole-pool
//! precompute) is routed through that function, if a run bypasses it, if
//! a campaign pays twice for one configuration, or if the two counts
//! drift.

mod common;

use ceal_core::algorithms::by_name;
use ceal_core::{sample_pool, SimOracle, TunerRun};
use ceal_serve::{Client, ServeConfig, ServerHandle, TuneParams, WorkerConfig};
use ceal_sim::{Objective, Simulator};
use ceal_trace::{EventKind, Tracer};
use common::{drive_to_done, params, spawn_worker, wait_for_live_workers, worker_config};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn traced_server(tracer: &Tracer) -> (ServerHandle, Client) {
    let srv = common::start_server(ServeConfig {
        tracer: tracer.clone(),
        ..ServeConfig::default()
    });
    let client = Client::connect(srv.addr()).unwrap();
    (srv, client)
}

/// Shuts the server down and counts the finished `oracle.measure` spans.
fn measure_spans(tracer: &Tracer, srv: ServerHandle, mut client: Client) -> u64 {
    client.shutdown().unwrap();
    srv.join().unwrap();
    let events = tracer.drain_events();
    assert_eq!(tracer.dropped(), 0, "ring must not have overflowed");
    let measure =
        |e: &&ceal_trace::TraceEvent| e.kind == EventKind::End && e.name == "oracle.measure";
    events.iter().filter(measure).count() as u64
}

fn tune_params() -> TuneParams {
    params("comp", 20, 300, 4)
}

/// The one-shot campaign `p` run in-process: `try_run` of its algorithm,
/// without history, on the pool and oracle seed the server builds.
fn in_process(p: &TuneParams) -> TunerRun {
    let spec = ceal_apps::workflow_by_name(&p.workflow).expect("known workflow");
    let objective = match p.objective.as_str() {
        "exec" => Objective::ExecutionTime,
        _ => Objective::ComputerTime,
    };
    let sim = Simulator::new();
    let mut rng = ChaCha8Rng::seed_from_u64(p.seed ^ 0xFACE);
    let pool = sample_pool(&spec, &sim.platform, p.pool as usize, &mut rng);
    let oracle = SimOracle::new(sim, spec, objective, 2021);
    by_name(&p.algo, None)
        .expect("servable")
        .try_run(&oracle, &pool, p.budget as usize, p.seed)
        .expect("reference run")
}

/// The distinct solo configurations `run` asked for.
fn distinct_solo(run: &TunerRun) -> usize {
    let solo = run.component_runs.iter().map(|m| (m.component, &m.values));
    solo.collect::<HashSet<_>>().len()
}

/// What a one-shot that ran `run` bills: each distinct solo and coupled
/// configuration once, and the recommendation only when it measured no
/// run of it.
fn bill(run: &TunerRun) -> u64 {
    let coupled: HashSet<_> = run.measured.iter().map(|m| &m.config).collect();
    let best = u64::from(!coupled.contains(&run.best_predicted));
    (distinct_solo(run) + coupled.len()) as u64 + best
}

#[test]
fn cold_tune_bills_and_traces_exactly_the_measurements_the_tuner_made() {
    let tracer = Tracer::in_memory();
    let (srv, mut c) = traced_server(&tracer);

    let out = c.tune(tune_params()).unwrap();
    assert!(!out.from_cache);
    let billed = c.metrics().unwrap().oracle_measurements;

    // The campaign's distinct coupled and solo configurations, plus its
    // recommendation if it never ran it — far below the 300-configuration
    // pool.
    let run = in_process(&tune_params());
    assert_eq!(out.runs_used, run.runs_used() as u64);
    assert_eq!(out.component_runs, run.component_runs.len() as u64);
    let expected = bill(&run);
    assert!(out.component_runs > 0, "a one-shot pays for its solo runs");
    assert_eq!(billed, expected, "Metrics.oracle_measurements");
    assert_eq!(
        measure_spans(&tracer, srv, c),
        expected,
        "oracle.measure spans"
    );
}

#[test]
fn session_campaign_traces_every_run_it_bills_history_included() {
    let tracer = Tracer::in_memory();
    let (srv, mut c) = traced_server(&tracer);

    let (st, _) = c.create_session(params("comp", 12, 60, 9), 0.0, 0).unwrap();
    let done = drive_to_done(&mut c, st.session, 5);
    let billed = c.metrics().unwrap().oracle_measurements;

    assert!(done.history_samples > 0);
    assert_eq!(billed, done.history_samples + done.measured);
    assert_eq!(measure_spans(&tracer, srv, c), billed);
}

#[test]
fn injected_faults_are_traced_but_not_billed() {
    let tracer = Tracer::in_memory();
    let (srv, mut c) = traced_server(&tracer);

    let (st, _) = c.create_session(params("exec", 12, 60, 3), 0.4, 5).unwrap();
    let mut failures = 0u64;
    let done = loop {
        assert!(failures < 200, "session never reached done");
        match c.advance(st.session, 3) {
            Ok(status) if status.state == "done" => break status,
            Ok(_) => {}
            Err(e) if e.code() == Some("measurement-failed") => failures += 1,
            Err(e) => panic!("unexpected error {e}"),
        }
    };
    let billed = c.metrics().unwrap().oracle_measurements;

    assert!(failures > 0, "a 40% failure rate must fail some attempt");
    assert_eq!(billed, done.history_samples + done.measured);
    // A failed `Advance` stops its batch at the first failure: each one
    // reached the simulator once and produced no run.
    assert_eq!(measure_spans(&tracer, srv, c), billed + failures);
}

#[test]
fn one_shot_tune_reaches_the_fleet_with_the_same_answer_and_spend() {
    // Reference: the same campaign with no fleet attached.
    let (srv, mut c) = traced_server(&Tracer::disabled());
    let reference = c.tune(tune_params()).unwrap();
    c.shutdown().unwrap();
    srv.join().unwrap();

    // Workers run in-process and share the server's tracer, so their
    // spans land in the same ring.
    let tracer = Tracer::in_memory();
    let (srv, mut c) = traced_server(&tracer);
    let stop = Arc::new(AtomicBool::new(false));
    let workers = ["w1", "w2"].map(|name| {
        spawn_worker(WorkerConfig {
            tracer: tracer.clone(),
            ..worker_config(srv.addr(), name, Arc::clone(&stop))
        })
    });
    wait_for_live_workers(&mut c, 2);

    let out = c.tune(tune_params()).unwrap();
    let m = c.metrics().unwrap();
    stop.store(true, Ordering::Release);
    for w in workers {
        w.join().unwrap().unwrap();
    }

    assert_eq!(out, reference, "answer must not depend on fleet membership");
    assert!(
        m.fleet.tasks_completed > 0,
        "the fleet must have measured part of the campaign"
    );
    let expected = bill(&in_process(&tune_params()));
    assert_eq!(m.oracle_measurements, expected, "billed exactly once");
    assert_eq!(
        measure_spans(&tracer, srv, c),
        expected,
        "local plus worker oracle.measure spans"
    );
}

/// GP's two single-configuration plotters are asked for m_R = 12 solo runs
/// each. In the benchmark's verification shape the oracle runs 26 of the
/// 48 solo records, and nothing for a recommendation the campaign already
/// measured, which is answered with that run's bits.
#[test]
fn gp_one_shot_runs_each_configuration_once() {
    let tracer = Tracer::in_memory();
    let (srv, mut c) = traced_server(&tracer);
    let p = TuneParams {
        workflow: "GP".into(),
        ..params("exec", 30, 500, 101)
    };

    let out = c.tune(p.clone()).unwrap();
    let billed = c.metrics().unwrap().oracle_measurements;

    let run = in_process(&p);
    assert_eq!(out.best, run.best_predicted);
    assert_eq!(out.component_runs, run.component_runs.len() as u64);
    assert_eq!((out.component_runs, distinct_solo(&run)), (48, 26));
    let best = run.measured.iter().find(|m| m.config == out.best);
    let best = best.expect("the campaign measured its recommendation");
    assert_eq!(out.best_value.to_bits(), best.value.to_bits());
    assert_eq!(billed, 26 + out.runs_used, "Metrics.oracle_measurements");
    assert_eq!(billed, bill(&run));
    assert_eq!(
        measure_spans(&tracer, srv, c),
        billed,
        "oracle.measure spans"
    );
}
