//! Fleet chaos: kill a measurement worker mid-batch, then kill the
//! coordinator mid-gather-apply, and assert the campaign still completes
//! with zero duplicate oracle charges — every coupled measurement appears
//! exactly once in the session's write-ahead journal, and the restarted
//! coordinator pays only for the budget the crash lost.
//!
//! Requires the `chaos` feature:
//! `cargo test -p ceal-serve --features chaos --test chaos_fleet`.
#![cfg(feature = "chaos")]

mod common;

use ceal_core::{Journal, JournalRecord};
use ceal_serve::{Client, ServeConfig};
use ceal_testutil::{chaos, unique_temp_path};
use common::{
    drive_to_done, params, spawn_worker, start_server, wait_for_live_workers, worker_config,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const BUDGET: u64 = 14;

fn wait_for<F: FnMut() -> bool>(what: &str, mut cond: F) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn coupled_configs(records: &[JournalRecord]) -> Vec<Vec<i64>> {
    records
        .iter()
        .filter_map(|r| match r {
            JournalRecord::Coupled { config, .. } => Some(config.clone()),
            _ => None,
        })
        .collect()
}

#[test]
fn worker_and_coordinator_crashes_cause_no_duplicate_charges() {
    chaos::silence_crash_panics();
    chaos::disarm_all();
    let dir = unique_temp_path("ceal-fleet-chaos", "");

    let srv = start_server(ServeConfig {
        journal_dir: Some(dir.clone()),
        worker_lease: Duration::from_millis(200),
        ..ServeConfig::default()
    });
    let addr = srv.addr();
    let stop = Arc::new(AtomicBool::new(false));
    let w1 = spawn_worker(worker_config(addr, "w1", Arc::clone(&stop)));
    let w2 = spawn_worker(worker_config(addr, "w2", Arc::clone(&stop)));
    let mut c = Client::connect(addr).unwrap();
    wait_for_live_workers(&mut c, 2);

    let campaign = params("exec", BUDGET, 120, 41);
    let (st, _) = c.create_session(campaign, 0.0, 0).unwrap();
    let session = st.session;
    assert_eq!(c.advance(session, 4).unwrap().state, "collecting-history");

    // Chaos one: whichever worker executes the batch's third task dies
    // mid-batch. Its lease expires and the tasks re-scatter, so the
    // advance itself succeeds.
    chaos::arm_after("fleet.worker_exec", 3);
    let st = c.advance(session, 4).unwrap();
    assert!(st.measured > 0, "bootstrapping batch must have run");
    chaos::disarm_all();
    wait_for("the crashed worker's lease to expire", || {
        c.metrics().unwrap().fleet.workers_lost == 1
    });

    // Chaos two: the coordinator dies mid-gather-apply — after the second
    // journal record of the next batch is durably synced, before the
    // in-memory session state absorbs it. The client sees one contained
    // internal error; the server survives (the panic is unwound at the
    // dispatch boundary), but the session is now only trustworthy on disk.
    chaos::arm_after("journal.after_sync", 2);
    let err = c.advance(session, 4).unwrap_err();
    chaos::disarm_all();
    assert_eq!(
        err.code(),
        Some("internal"),
        "crash surfaces as one error frame"
    );

    // The crashed worker panicked out of its thread; the other one may
    // meet a transport error once the coordinator is gone. Both are part
    // of this teardown.
    stop.store(true, Ordering::Release);
    let _ = w1.join();
    let _ = w2.join();
    c.shutdown().unwrap();
    srv.join().unwrap();

    // The journal holds each paid-for measurement exactly once — a torn
    // batch, a dead worker, and a raced re-scatter never double-charge.
    let wal = dir.join(format!("session-{session}.wal"));
    let records = Journal::open(&wal).unwrap().1.records;
    let configs = coupled_configs(&records);
    let committed = configs.len() as u64;
    let mut unique = configs.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(
        unique.len(),
        configs.len(),
        "no configuration may be journaled (billed) twice"
    );
    assert!(
        committed > st.measured,
        "the crashed advance committed work"
    );
    assert!(committed < BUDGET, "the crash lost some of the batch");

    // Restart: a fresh coordinator rebuilds the session from its journal
    // and fresh workers finish the campaign, paying exactly the lost
    // budget.
    let srv = start_server(ServeConfig {
        journal_dir: Some(dir.clone()),
        worker_lease: Duration::from_millis(200),
        ..ServeConfig::default()
    });
    let stop = Arc::new(AtomicBool::new(false));
    let w3 = spawn_worker(worker_config(srv.addr(), "w3", Arc::clone(&stop)));
    let w4 = spawn_worker(worker_config(srv.addr(), "w4", Arc::clone(&stop)));
    let mut c = Client::connect(srv.addr()).unwrap();
    let m = c.metrics().unwrap();
    assert_eq!(m.sessions_rebuilt, 1);
    assert_eq!(
        m.oracle_measurements, 0,
        "rebuilding must not touch the oracle"
    );
    assert_eq!(c.status(session).unwrap().measured, committed);
    wait_for_live_workers(&mut c, 2);

    let done = drive_to_done(&mut c, session, 4);
    assert_eq!(
        done.measured, BUDGET,
        "total spend matches a crash-free run"
    );
    let m = c.metrics().unwrap();
    assert_eq!(
        m.oracle_measurements,
        BUDGET - committed,
        "the resumed run pays only for what the crash lost"
    );
    assert!(
        m.fleet.tasks_completed > 0,
        "the fresh fleet must participate in the resumed campaign"
    );

    stop.store(true, Ordering::Release);
    let _ = w3.join();
    let _ = w4.join();
    c.shutdown().unwrap();
    srv.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
