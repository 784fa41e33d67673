//! Chaos test of the session layer: kill an advancing session at a crash
//! point inside its journal's append path, rebuild the session registry
//! from disk the way a restarted server does, and assert the
//! crash-recovery invariant — the recovered journal is a prefix of the
//! crash-free record sequence, no committed measurement is re-billed, and
//! the resumed campaign spends exactly its remaining budget to finish on
//! the recommendation of a crash-free run: the stepper decides what is
//! measured, the shell only measures, so a crash cannot move the search.
//!
//! Requires the `chaos` feature:
//! `cargo test -p ceal-serve --features chaos --test chaos_session`.
#![cfg(feature = "chaos")]

mod common;

use ceal_core::{Journal, JournalRecord};
use ceal_fleet::FleetReport;
use ceal_serve::{AutotuneCache, CacheStats, ServerMetrics, SessionManager};
use ceal_testutil::{chaos, unique_temp_path};
use common::{drive_session_to_done, params};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

const BUDGET: u64 = 10;

fn coupled_count(records: &[JournalRecord]) -> u64 {
    records
        .iter()
        .filter(|r| matches!(r, JournalRecord::Coupled { .. }))
        .count() as u64
}

#[test]
fn session_killed_mid_journal_write_rebuilds_and_spends_only_the_lost_budget() {
    chaos::silence_crash_panics();

    // Reference trajectory: an identical journaled session advanced with
    // the same chunking that never crashes — stopped short of done so its
    // journal survives for comparison.
    let ref_dir = unique_temp_path("ceal-serve-chaos-ref", "");
    let ref_records = {
        let cache = AutotuneCache::in_memory();
        let metrics = ServerMetrics::new();
        let mgr = SessionManager::new(Duration::from_secs(3600))
            .with_journal_dir(&ref_dir)
            .expect("journal dir");
        let (st, _) = mgr
            .create(params("exec", BUDGET, 120, 97), 0.0, 0, &cache, &metrics)
            .expect("create");
        let handle = mgr.get(st.session).expect("session");
        for _ in 0..3 {
            let status = handle.lock().advance(4, &cache, &metrics).expect("advance");
            assert_ne!(status.state, "done", "reference must stop short of done");
        }
        drop(handle);
        drop(mgr);
        let wal = ref_dir.join(format!("session-{}.wal", st.session));
        Journal::open(&wal)
            .expect("reopen reference journal")
            .1
            .records
    };
    std::fs::remove_dir_all(&ref_dir).ok();

    // The crash-free answer: the same campaign, uninterrupted.
    let crash_free = {
        let (cache, metrics) = (AutotuneCache::in_memory(), ServerMetrics::new());
        let mgr = SessionManager::new(Duration::from_secs(3600));
        let (st, _) = mgr
            .create(params("exec", BUDGET, 120, 97), 0.0, 0, &cache, &metrics)
            .expect("create");
        drive_session_to_done(&mgr, st.session, &cache, &metrics)
    };

    // The victim: same campaign, killed in the middle of committing its
    // second measurement record of the third advance.
    let dir = unique_temp_path("ceal-serve-chaos", "");
    let cache = AutotuneCache::in_memory();
    let metrics = ServerMetrics::new();
    let mgr = SessionManager::new(Duration::from_secs(3600))
        .with_journal_dir(&dir)
        .expect("journal dir");
    let (st, _) = mgr
        .create(params("exec", BUDGET, 120, 97), 0.0, 0, &cache, &metrics)
        .expect("create");
    let id = st.session;
    let handle = mgr.get(id).expect("session");
    handle.lock().advance(4, &cache, &metrics).expect("history");
    let mid = handle
        .lock()
        .advance(4, &cache, &metrics)
        .expect("bootstrap");
    assert_ne!(mid.state, "done");
    assert!(mid.measured > 0);

    chaos::arm_after("journal.mid_write", 2);
    let crashed = catch_unwind(AssertUnwindSafe(|| {
        handle.lock().advance(4, &cache, &metrics)
    }));
    chaos::disarm_all();
    let payload = crashed.expect_err("the armed crash point must fire");
    assert!(chaos::is_crash(payload.as_ref()).is_some());
    drop(handle);
    drop(mgr);

    // The torn journal recovers to a strict prefix of the crash-free
    // record sequence.
    let wal = dir.join(format!("session-{id}.wal"));
    let recovered = Journal::open(&wal)
        .expect("reopen victim journal")
        .1
        .records;
    assert!(
        recovered.len() < ref_records.len(),
        "the mid-write crash must lose the in-flight record"
    );
    assert_eq!(
        recovered,
        ref_records[..recovered.len()],
        "recovery must be a prefix of the crash-free sequence"
    );
    let committed = coupled_count(&recovered);
    assert!(
        committed > mid.measured,
        "the crashed advance committed work before dying \
         (committed {committed}, pre-advance {})",
        mid.measured
    );

    // "Restart": a fresh registry rebuilt from the journals resumes the
    // session with every committed measurement intact...
    let metrics2 = ServerMetrics::new();
    let mgr2 = SessionManager::new(Duration::from_secs(3600))
        .with_journal_dir(&dir)
        .expect("journal dir");
    assert_eq!(mgr2.rebuild_from_disk(&metrics2), 1);
    assert_eq!(
        metrics2
            .report(
                0,
                &CacheStats::default(),
                FleetReport::default(),
                ceal_serve::OverloadStats::default(),
            )
            .oracle_measurements,
        0,
        "rebuilding must not touch the oracle"
    );
    let rebuilt = mgr2.get(id).expect("rebuilt session").lock().status();
    assert_eq!(rebuilt.measured, committed);
    assert_eq!(rebuilt.budget_left, BUDGET - committed);
    assert_eq!(rebuilt.history_samples, mid.history_samples);

    // ...and finishes by paying for exactly the budget the crash lost:
    // replayed measurements are never re-billed.
    let done = drive_session_to_done(&mgr2, id, &cache, &metrics2);
    assert_eq!(done.measured, BUDGET, "total runs match a crash-free run");
    assert_eq!(done.budget_left, 0);
    assert!(done.best.is_some() && done.best_value.is_some());
    assert_eq!(
        done.best, crash_free.best,
        "a crash must not move the search"
    );
    assert_eq!(done.best_value, crash_free.best_value);
    assert_eq!(
        metrics2
            .report(
                0,
                &CacheStats::default(),
                FleetReport::default(),
                ceal_serve::OverloadStats::default(),
            )
            .oracle_measurements,
        BUDGET - committed,
        "the resumed run pays only for what the crash lost"
    );
    std::fs::remove_dir_all(&dir).ok();
}
