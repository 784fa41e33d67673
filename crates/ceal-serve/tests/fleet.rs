//! Fleet end-to-end: campaigns scattered across measurement workers must
//! be indistinguishable — bit for bit, and in oracle spend — from the
//! same campaign measured in-process.

mod common;

use ceal_serve::{Client, ServeConfig};
use common::{
    drive_to_done, params, spawn_worker, start_server, wait_for_live_workers, worker_config,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn two_worker_campaign_is_bit_identical_to_single_process() {
    let p = params("comp", 12, 60, 9);

    // Reference: the same campaign with no fleet attached.
    let solo = start_server(ServeConfig::default());
    let mut c = Client::connect(solo.addr()).unwrap();
    let (st, from_cache) = c.create_session(p.clone(), 0.0, 0).unwrap();
    assert!(!from_cache);
    let reference = drive_to_done(&mut c, st.session, 5);
    let reference_spend = c.metrics().unwrap().oracle_measurements;
    c.shutdown().unwrap();
    solo.join().unwrap();

    // Fleet: two workers registered before the campaign starts.
    let srv = start_server(ServeConfig::default());
    let stop = Arc::new(AtomicBool::new(false));
    let w1 = spawn_worker(worker_config(srv.addr(), "w1", Arc::clone(&stop)));
    let w2 = spawn_worker(worker_config(srv.addr(), "w2", Arc::clone(&stop)));
    let mut c = Client::connect(srv.addr()).unwrap();
    wait_for_live_workers(&mut c, 2);

    let (st, _) = c.create_session(p, 0.0, 0).unwrap();
    let fleet = drive_to_done(&mut c, st.session, 5);
    let m = c.metrics().unwrap();

    assert_eq!(
        fleet.best, reference.best,
        "recommendation must not depend on fleet membership"
    );
    assert_eq!(fleet.best_value, reference.best_value);
    assert_eq!(fleet.measured, reference.measured);
    assert_eq!(fleet.budget_left, 0);
    assert_eq!(
        m.oracle_measurements, reference_spend,
        "fleet campaign must bill exactly the single-process spend"
    );
    assert!(
        m.fleet.tasks_completed > 0,
        "the fleet must have measured part of the campaign"
    );
    assert_eq!(m.fleet.workers.len(), 2);

    stop.store(true, Ordering::Release);
    w1.join().unwrap().unwrap();
    w2.join().unwrap().unwrap();
    c.shutdown().unwrap();
    srv.join().unwrap();
}

#[test]
fn losing_a_worker_mid_campaign_still_completes_with_exact_spend() {
    // Short lease so the killed worker ages out within the test.
    let srv = start_server(ServeConfig {
        worker_lease: Duration::from_millis(200),
        ..ServeConfig::default()
    });
    let stop_doomed = Arc::new(AtomicBool::new(false));
    let stop = Arc::new(AtomicBool::new(false));
    let doomed = spawn_worker(worker_config(
        srv.addr(),
        "doomed",
        Arc::clone(&stop_doomed),
    ));
    let survivor = spawn_worker(worker_config(srv.addr(), "survivor", Arc::clone(&stop)));
    let mut c = Client::connect(srv.addr()).unwrap();
    wait_for_live_workers(&mut c, 2);

    let (st, _) = c.create_session(params("comp", 14, 60, 4), 0.0, 0).unwrap();
    let session = st.session;
    // History, then the first measuring step with both workers up.
    let st = c.advance(session, 4).unwrap();
    assert_eq!(st.state, "collecting-history");
    let st = c.advance(session, 4).unwrap();
    assert!(st.measured > 0, "bootstrapping batch should have run");

    // Kill one worker mid-campaign; its lease expires and the remaining
    // rounds re-scatter to the survivor (or run locally).
    stop_doomed.store(true, Ordering::Release);
    doomed.join().unwrap().unwrap();
    wait_for_live_workers(&mut c, 1);

    let done = drive_to_done(&mut c, session, 4);
    assert_eq!(done.measured, 14);
    let m = c.metrics().unwrap();
    // Exactness is the no-duplicate-charges proof: every coupled run and
    // every free-history solo is billed exactly once, worker loss or not.
    assert_eq!(
        m.oracle_measurements,
        done.history_samples + done.measured,
        "worker loss must not double-bill any measurement"
    );
    assert_eq!(m.fleet.workers_lost, 1);

    stop.store(true, Ordering::Release);
    survivor.join().unwrap().unwrap();
    c.shutdown().unwrap();
    srv.join().unwrap();
}
