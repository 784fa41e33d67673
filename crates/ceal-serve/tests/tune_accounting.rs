//! Every simulator run a campaign makes is traced once and billed once,
//! whichever endpoint asked for it and wherever it ran: the server
//! measures through one function, so `oracle.measure` `End` events and
//! `Metrics.oracle_measurements` count the same thing. The tests fail if
//! bulk measurement (e.g. a whole-pool precompute) is routed through that
//! function, if a run bypasses it, or if the two counts drift.

mod common;

use ceal_serve::{Client, ServeConfig, ServerHandle, TuneParams, WorkerConfig};
use ceal_trace::{EventKind, Tracer};
use common::{drive_to_done, params, spawn_worker, wait_for_live_workers, worker_config};
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

#[test]
fn cold_tune_bills_and_traces_exactly_the_measurements_the_tuner_made() {
    let tracer = Tracer::in_memory();
    let (srv, mut c) = traced_server(&tracer);

    let out = c.tune(tune_params()).unwrap();
    assert!(!out.from_cache);
    let billed = c.metrics().unwrap().oracle_measurements;

    // The campaign's coupled and solo runs, plus the one measurement of
    // the recommendation — far below the 300-configuration pool.
    let expected = out.runs_used + out.component_runs + 1;
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
fn infeasible_measure_is_traced_but_not_billed() {
    let tracer = Tracer::in_memory();
    let (srv, mut c) = traced_server(&tracer);

    let (st, _) = c.create_session(params("exec", 4, 60, 3), 0.0, 0).unwrap();
    let err = c
        .measure(st.session, vec![1085, 1, 1, 1085, 1, 1])
        .unwrap_err();
    assert_eq!(err.code(), Some("infeasible"));
    assert_eq!(
        c.metrics().unwrap().oracle_measurements,
        0,
        "nothing ran, nothing billed"
    );
    c.measure(st.session, vec![100, 20, 1, 50, 10, 1]).unwrap();
    assert_eq!(c.metrics().unwrap().oracle_measurements, 1);
    // Both attempts reached the simulator; only one produced a run.
    assert_eq!(measure_spans(&tracer, srv, c), 2);
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
    let expected = out.runs_used + out.component_runs + 1;
    assert_eq!(m.oracle_measurements, expected, "billed exactly once");
    assert_eq!(
        measure_spans(&tracer, srv, c),
        expected,
        "local plus worker oracle.measure spans"
    );
}
