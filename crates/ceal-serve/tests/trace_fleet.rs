//! Distributed tracing end-to-end: one fleet campaign — coordinator plus
//! two measurement workers — must come out as a *single* correlated
//! trace. Every worker-side oracle measurement carries the campaign's
//! trace id (propagated through `TaskSpec` over the wire protocol) and
//! parents on a coordinator-side `fleet.scatter` span, so a summarizer
//! can attribute remote work to the originating session without joins.

mod common;

use ceal_serve::{Client, ServeConfig, WorkerConfig};
use ceal_trace::{EventKind, Tracer};
use common::{
    drive_to_done, params, spawn_worker, start_server, wait_for_live_workers, worker_config,
};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

#[test]
fn fleet_campaign_yields_one_correlated_trace() {
    // Workers run in-process, so server and workers can share one
    // in-memory tracer — exactly what a single trace directory holds
    // when the processes each write their own file into it.
    let tracer = Tracer::in_memory();
    let srv = start_server(ServeConfig {
        tracer: tracer.clone(),
        ..ServeConfig::default()
    });
    let stop = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = ["tw1", "tw2"]
        .iter()
        .map(|name| {
            spawn_worker(WorkerConfig {
                tracer: tracer.clone(),
                ..worker_config(srv.addr(), name, Arc::clone(&stop))
            })
        })
        .collect();
    let mut c = Client::connect(srv.addr()).unwrap();
    wait_for_live_workers(&mut c, 2);

    let (st, _) = c.create_session(params("comp", 12, 60, 9), 0.0, 0).unwrap();
    assert_eq!(
        st.trace.len(),
        16,
        "status must expose the campaign trace id, got {:?}",
        st.trace
    );
    let campaign = u64::from_str_radix(&st.trace, 16).expect("trace id is 16-hex");
    assert_ne!(campaign, 0);

    let done = drive_to_done(&mut c, st.session, 5);
    assert_eq!(
        done.trace, st.trace,
        "trace id is stable across the campaign"
    );

    stop.store(true, Ordering::Release);
    for w in workers {
        w.join().unwrap().unwrap();
    }
    c.shutdown().unwrap();
    srv.join().unwrap();

    let events = tracer.drain_events();
    assert_eq!(tracer.dropped(), 0, "ring must not have overflowed");

    // Every campaign-side event — phases, scatters, oracle measurements
    // on either side of the wire — carries the one campaign trace id.
    let campaign_events: Vec<_> = events.iter().filter(|e| e.trace == campaign).collect();
    let phase_ends: Vec<_> = campaign_events
        .iter()
        .filter(|e| e.kind == EventKind::End && e.name.starts_with("phase."))
        .collect();
    for phase in [
        "phase.collecting-history",
        "phase.bootstrapping",
        "phase.refining",
        "phase.done",
    ] {
        assert!(
            phase_ends.iter().any(|e| e.name == phase),
            "missing {phase} in the campaign trace"
        );
    }

    let scatter_spans: HashSet<u64> = campaign_events
        .iter()
        .filter(|e| e.name == "fleet.scatter")
        .map(|e| e.span)
        .collect();
    assert!(!scatter_spans.is_empty(), "campaign never scattered");

    let worker_measures: Vec<_> = events
        .iter()
        .filter(|e| {
            e.kind == EventKind::End
                && e.name == "oracle.measure"
                && e.fields
                    .iter()
                    .any(|(k, v)| *k == "source" && *v == ceal_trace::FieldValue::from("worker"))
        })
        .collect();
    assert!(
        !worker_measures.is_empty(),
        "the fleet must have measured part of the campaign"
    );
    for m in &worker_measures {
        assert_eq!(
            m.trace, campaign,
            "worker-side measurement lost the campaign trace id"
        );
        assert!(
            scatter_spans.contains(&m.parent),
            "worker measurement must parent on a fleet.scatter span, \
             got parent {} (scatters: {scatter_spans:?})",
            m.parent
        );
    }

    // The correlation is non-trivial: request-level traces exist too and
    // are distinct from the campaign trace.
    assert!(
        events.iter().any(|e| e.trace != 0 && e.trace != campaign),
        "request traces should be minted separately"
    );
}
