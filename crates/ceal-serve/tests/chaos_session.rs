//! Chaos test of the session layer: kill a campaign at every crash point
//! of every commit its journal makes, rebuild the session registry from
//! disk the way a restarted server does, and assert the crash-recovery
//! invariant — the recovered journal is exactly the crash-free record
//! sequence up to the crash (whole commits before it, whole records of the
//! torn one), no recovered measurement is re-billed, and the resumed
//! campaign spends exactly its remaining budget to finish on the
//! recommendation of a crash-free run: the stepper decides what is
//! measured, the shell only measures, so a crash cannot move the search.
//!
//! Requires the `chaos` feature:
//! `cargo test -p ceal-serve --features chaos --test chaos_session`.
#![cfg(feature = "chaos")]

mod common;

use ceal_core::Journal;
use ceal_serve::{AutotuneCache, ServerMetrics, SessionManager, SessionStatus};
use ceal_testutil::{chaos, unique_temp_path};
use ceal_trace::Tracer;
use common::{
    coupled_runs, drive_session_to_done, journal_commits, journaled_manager as manager, params,
    records_surviving, JOURNAL_CRASH_POINTS,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;

const BUDGET: u64 = 10;

/// Records per commit of the campaign below, in commit order — what
/// `arm_after(point, n)` lands on:
///
/// 1. create: the `Start` header (magic in the same write);
/// 2. history: 4 solo samples for each of LV's two components, and the
///    marker that closes the batch;
/// 3. the bootstrap batch, two runs;
/// 4. to 9. refining batches of one run each — commit 4 in the `Advance`
///    that made commit 3, then two to an `Advance`, which stops at the
///    second batch boundary it meets;
/// 10. the last batch, two runs, which finishes the campaign.
const COMMITS: &[usize] = &[1, 9, 2, 1, 1, 1, 1, 1, 1, 2];

/// The campaign under test, created on `mgr` (as session 1) and advanced
/// four runs at a time until done.
fn campaign(mgr: &SessionManager, cache: &AutotuneCache, metrics: &ServerMetrics) -> SessionStatus {
    let (st, _) = mgr
        .create(params("exec", BUDGET, 120, 97), 0.0, 0, cache, metrics)
        .expect("create");
    assert_eq!(st.session, 1);
    drive_session_to_done(mgr, st.session, cache, metrics)
}

#[test]
fn crash_at_every_point_of_every_commit_rebuilds_and_spends_only_the_lost_budget() {
    chaos::silence_crash_panics();

    // The crash-free answer, and the commits its journal took.
    let ref_dir = unique_temp_path("ceal-serve-chaos-ref", "");
    let tracer = Tracer::in_memory();
    let (cache, metrics) = (AutotuneCache::in_memory(), ServerMetrics::new());
    let crash_free = campaign(
        &manager(&ref_dir).with_tracer(tracer.clone()),
        &cache,
        &metrics,
    );
    assert_eq!(journal_commits(&tracer), COMMITS);
    std::fs::remove_dir_all(&ref_dir).ok();

    // Kills the campaign at the `nth` hit of `point`; returns the records
    // recovery finds and where the journal lives.
    let crash = |point: &str, nth: usize| {
        let dir = unique_temp_path("ceal-serve-chaos", "");
        let (cache, metrics) = (AutotuneCache::in_memory(), ServerMetrics::new());
        let mgr = manager(&dir);
        chaos::arm_after(point, nth as u64);
        let crashed = catch_unwind(AssertUnwindSafe(|| campaign(&mgr, &cache, &metrics)));
        chaos::disarm_all();
        let payload = crashed.expect_err(&format!("{point}@{nth} must crash"));
        assert_eq!(chaos::is_crash(payload.as_ref()).expect("a crash").0, point);
        drop(mgr);
        let wal = dir.join("session-1.wal");
        let recovered = Journal::open(&wal).expect("reopen journal").1.records;
        (recovered, dir)
    };

    // A crash-free run retires its journal with its last commit; dying
    // just behind that commit's fsync leaves the whole sequence on disk.
    let (full, dir) = crash("journal.after_sync", COMMITS.len());
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(full.len(), COMMITS.iter().sum::<usize>());
    assert_eq!(coupled_runs(&full).len() as u64, BUDGET);

    for &point in JOURNAL_CRASH_POINTS {
        for nth in 1..=COMMITS.len() {
            let at = format!("{point}@{nth}");
            let (recovered, dir) = crash(point, nth);

            let survived = records_surviving(COMMITS, point, nth);
            assert_eq!(recovered, full[..survived], "{at}");
            let committed = coupled_runs(&recovered).len() as u64;
            // Replay takes a history batch only with its closing marker.
            let history_held = survived >= COMMITS[..2].iter().sum();

            // "Restart": a fresh registry rebuilt from the journals. A
            // create that died before its header was durable was never
            // acknowledged, and leaves nothing to resume.
            let metrics2 = ServerMetrics::new();
            let mgr2 = manager(&dir);
            let rebuilt = mgr2.rebuild_from_disk(&metrics2);
            assert_eq!(rebuilt, usize::from(survived > 0), "{at}");
            if rebuilt == 0 {
                std::fs::remove_dir_all(&dir).ok();
                continue;
            }
            let billed = || metrics2.oracle_measurements.load(Ordering::Relaxed);
            assert_eq!(billed(), 0, "{at}: rebuilding must not touch the oracle");
            let status = mgr2.get(1).expect("rebuilt session").lock().status();
            assert_eq!(status.measured, committed, "{at}");
            assert_eq!(status.budget_left, BUDGET - committed, "{at}");
            let history = match history_held {
                true => crash_free.history_samples,
                false => 0,
            };
            assert_eq!(status.history_samples, history, "{at}");

            // The resumed campaign pays for exactly what the crash lost —
            // replayed measurements are never re-billed — and lands where
            // the crash-free one did.
            let done = drive_session_to_done(&mgr2, 1, &AutotuneCache::in_memory(), &metrics2);
            assert_eq!(done.measured, BUDGET, "{at}");
            assert_eq!(
                done.best, crash_free.best,
                "{at}: a crash must not move the search"
            );
            assert_eq!(done.best_value, crash_free.best_value, "{at}");
            assert_eq!(
                billed(),
                (BUDGET - committed) + (crash_free.history_samples - history),
                "{at}: the resumed run pays only for what the crash lost"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
