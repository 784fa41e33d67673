//! Fleet chaos: kill the coordinator at every crash point of a journal
//! commit — the session's create, its history batch, the bootstrap batch
//! two workers measured (one of which is killed mid-batch as well), a
//! refining batch, the last batch — and assert the campaign still
//! completes with zero duplicate oracle charges: every coupled measurement
//! appears exactly once in the session's write-ahead journal, and the
//! restarted coordinator pays only for the budget the crash lost, to land
//! on the crash-free recommendation.
//!
//! Requires the `chaos` feature:
//! `cargo test -p ceal-serve --features chaos --test chaos_fleet`.
#![cfg(feature = "chaos")]

mod common;

use ceal_core::Journal;
use ceal_serve::{Client, ClientError, ServeConfig, ServerHandle, SessionStatus};
use ceal_testutil::{chaos, unique_temp_path};
use ceal_trace::Tracer;
use common::{
    coupled_runs, journal_commits, params, records_surviving, spawn_worker, start_server,
    wait_for_live_workers, worker_config, Worker, JOURNAL_CRASH_POINTS,
};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const BUDGET: u64 = 14;

/// Records per commit of the campaign below, advanced four runs at a time
/// through two workers, in commit order — what `arm_after(point, n)` lands
/// on: 1 is create (the `Start` header), 2 the history batch (8 solo
/// samples and their marker), 3 the bootstrap batch, 4 to 7 refining
/// batches, 8 the last batch. Every measured batch is one fleet round, and
/// an `Advance` ends with the round it waited on.
const COMMITS: &[usize] = &[1, 9, 3, 2, 3, 2, 2, 2];
/// The commits the crash matrix visits: create, history, the bootstrap
/// batch, a refining batch, the last batch.
const VISITED: &[usize] = &[1, 2, 3, 5, 8];

/// A coordinator with two in-process workers and a connected client.
struct Fleet {
    srv: ServerHandle,
    stop: Arc<AtomicBool>,
    workers: [Worker; 2],
    client: Client,
}

impl Fleet {
    fn start(journal_dir: &Path, tracer: Tracer) -> Fleet {
        let srv = start_server(ServeConfig {
            journal_dir: Some(journal_dir.to_path_buf()),
            worker_lease: Duration::from_millis(200),
            tracer,
            ..ServeConfig::default()
        });
        let stop = Arc::new(AtomicBool::new(false));
        let workers = ["w1", "w2"]
            .map(|name| spawn_worker(worker_config(srv.addr(), name, Arc::clone(&stop))));
        let mut client = Client::connect(srv.addr()).unwrap();
        wait_for_live_workers(&mut client, 2);
        Fleet {
            srv,
            stop,
            workers,
            client,
        }
    }

    /// Creates the campaign (session 1 of a fresh coordinator) and advances
    /// it four runs at a time until done, or until a request fails.
    fn campaign(&mut self) -> Result<SessionStatus, ClientError> {
        let (st, _) = self
            .client
            .create_session(params("exec", BUDGET, 120, 41), 0.0, 0)?;
        assert_eq!(st.session, 1);
        self.resume()
    }

    fn resume(&mut self) -> Result<SessionStatus, ClientError> {
        loop {
            let status = self.client.advance(1, 4)?;
            if status.state == "done" {
                return Ok(status);
            }
        }
    }

    /// A worker a crash point killed panicked out of its thread, and one
    /// that outlives the coordinator may meet a transport error: both are
    /// part of the teardown.
    fn shutdown(mut self) {
        self.stop.store(true, Ordering::Release);
        for w in self.workers {
            let _ = w.join();
        }
        self.client.shutdown().unwrap();
        self.srv.join().unwrap();
    }
}

#[test]
fn worker_and_coordinator_crashes_cause_no_duplicate_charges() {
    chaos::silence_crash_panics();
    chaos::disarm_all();

    // The crash-free answer, and the commits its journal took.
    let ref_dir = unique_temp_path("ceal-fleet-chaos-ref", "");
    let tracer = Tracer::in_memory();
    let mut fleet = Fleet::start(&ref_dir, tracer.clone());
    let crash_free = fleet.campaign().expect("crash-free campaign");
    assert!(fleet.client.metrics().unwrap().fleet.tasks_completed > 0);
    fleet.shutdown();
    assert_eq!(journal_commits(&tracer), COMMITS);
    std::fs::remove_dir_all(&ref_dir).ok();

    // Kills the coordinator at the `nth` hit of `point`: the client sees
    // one contained internal error (the panic is unwound at the dispatch
    // boundary, so the server survives), but the session is now only
    // trustworthy on disk. With `kill_worker`, whichever worker executes
    // the fleet's second task — mid bootstrap batch — dies first; its lease
    // expires and its tasks re-scatter. Returns what recovery finds.
    let crash = |point: &str, nth: usize, kill_worker: bool| {
        let dir = unique_temp_path("ceal-fleet-chaos", "");
        let mut fleet = Fleet::start(&dir, Tracer::disabled());
        if kill_worker {
            chaos::arm_after("fleet.worker_exec", 2);
        }
        chaos::arm_after(point, nth as u64);
        let err = fleet.campaign().expect_err("the armed crash point fires");
        chaos::disarm_all();
        assert_eq!(err.code(), Some("internal"), "{point}@{nth}: {err}");
        if kill_worker {
            assert_eq!(fleet.client.metrics().unwrap().fleet.workers_lost, 1);
        }
        fleet.shutdown();
        let wal = dir.join("session-1.wal");
        let recovered = Journal::open(&wal).unwrap().1.records;
        (recovered, dir)
    };

    // A crash-free run retires its journal with its last commit; dying
    // just behind that commit's fsync leaves the whole sequence on disk.
    let (full, dir) = crash("journal.after_sync", COMMITS.len(), false);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(full.len(), COMMITS.iter().sum::<usize>());
    assert_eq!(coupled_runs(&full).len() as u64, BUDGET);

    for &point in JOURNAL_CRASH_POINTS {
        for &nth in VISITED {
            let at = format!("{point}@{nth}");
            let (recovered, dir) = crash(point, nth, nth == 3);

            // The journal holds each paid-for measurement exactly once — a
            // torn batch, a dead worker, and a raced re-scatter never
            // double-charge — and is the crash-free sequence up to the
            // crash.
            let survived = records_surviving(COMMITS, point, nth);
            assert_eq!(recovered, full[..survived], "{at}");
            let mut configs: Vec<_> = coupled_runs(&recovered).iter().map(|r| r.0).collect();
            let committed = configs.len() as u64;
            configs.sort();
            configs.dedup();
            assert_eq!(configs.len() as u64, committed, "{at}: a run billed twice");
            // Replay takes a history batch only with its closing marker.
            let history = match survived >= COMMITS[..2].iter().sum() {
                true => crash_free.history_samples,
                false => 0,
            };

            // Restart: a fresh coordinator rebuilds the session from its
            // journal (a create that died before its header was durable
            // was never acknowledged, and leaves nothing to resume) and
            // fresh workers finish the campaign, paying exactly the lost
            // budget.
            let mut fleet = Fleet::start(&dir, Tracer::disabled());
            let m = fleet.client.metrics().unwrap();
            assert_eq!(m.sessions_rebuilt, u64::from(survived > 0), "{at}");
            assert_eq!(m.oracle_measurements, 0, "{at}: rebuilding is free");
            if survived > 0 {
                let status = fleet.client.status(1).unwrap();
                assert_eq!(status.measured, committed, "{at}");
                assert_eq!(status.history_samples, history, "{at}");
                let done = fleet.resume().expect("resumed campaign");
                assert_eq!(done.measured, BUDGET, "{at}");
                assert_eq!(done.best, crash_free.best, "{at}");
                assert_eq!(done.best_value, crash_free.best_value, "{at}");
                let m = fleet.client.metrics().unwrap();
                assert_eq!(
                    m.oracle_measurements,
                    (BUDGET - committed) + (crash_free.history_samples - history),
                    "{at}: the resumed run pays only for what the crash lost"
                );
                // A single run left is not worth a round; anything more is.
                assert!(
                    m.fleet.tasks_completed > 0 || BUDGET - committed <= 1,
                    "{at}: the fresh fleet must take part in the resumed campaign"
                );
            }
            fleet.shutdown();
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
