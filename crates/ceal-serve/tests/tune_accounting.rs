//! One cold `Tune` bills and traces exactly what its tuner asked for:
//! `runs_used + component_runs` plus the one measurement of the
//! recommendation. `server::tune` measures lazily, so with this pinned the
//! spans and the counter account for every simulator run of the campaign;
//! the test fails if bulk measurement (e.g. a whole-pool precompute) is
//! routed through the counting/tracing layers or the two counts drift.

use ceal_serve::{Client, ServeConfig, Server, TuneParams};
use ceal_trace::{EventKind, Tracer};

#[test]
fn cold_tune_bills_and_traces_exactly_the_measurements_the_tuner_made() {
    let tracer = Tracer::in_memory();
    let srv = Server::bind(ServeConfig {
        tracer: tracer.clone(),
        ..ServeConfig::default()
    })
    .unwrap()
    .spawn();
    let mut c = Client::connect(srv.addr()).unwrap();

    let before = c.metrics().unwrap().oracle_measurements;
    let out = c
        .tune(TuneParams {
            workflow: "LV".into(),
            objective: "comp".into(),
            budget: 20,
            pool: 300,
            seed: 4,
            algo: "ceal".into(),
        })
        .unwrap();
    assert!(!out.from_cache);
    let billed = c.metrics().unwrap().oracle_measurements - before;

    c.shutdown().unwrap();
    srv.join().unwrap();
    let events = tracer.drain_events();
    assert_eq!(tracer.dropped(), 0, "ring must not have overflowed");
    let measures = events
        .iter()
        .filter(|e| e.kind == EventKind::End && e.name == "oracle.measure")
        .count() as u64;

    // The campaign's coupled and solo runs, plus the one measurement of
    // the recommendation — far below the 300-configuration pool.
    let expected = out.runs_used + out.component_runs + 1;
    assert_eq!(measures, expected, "oracle.measure spans");
    assert_eq!(billed, expected, "Metrics.oracle_measurements");
}
