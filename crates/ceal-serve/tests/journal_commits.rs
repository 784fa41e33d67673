//! The session journal's commit boundaries: a request commits what it
//! measured once per batch, not once per record, and none of that shows in
//! the file — the same campaign writes the same bytes however the client
//! chunks its `Advance`s and whoever measured.

mod common;

use ceal_serve::{AutotuneCache, Client, ServeConfig, ServerMetrics, TuneParams};
use ceal_testutil::unique_temp_path;
use ceal_trace::Tracer;
use common::{
    advanced_by, byte_campaign as campaign, coupled_on_disk as coupled, journal_after_each_reply,
    journal_commits as commits, journaled_manager as manager, params, spawn_worker, start_server,
    wait_for_live_workers, wal, worker_config,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

#[test]
fn journal_bytes_do_not_depend_on_advance_chunking_or_fleet_size() {
    // One run a request: the journal grows a record at a time, and the last
    // reply short of done leaves all but the campaign's final record.
    let by_one = advanced_by(1);
    let longest = by_one.last().unwrap();
    assert_eq!(coupled(longest).len(), 13);

    let two_workers = {
        let dir = unique_temp_path("ceal-journal-bytes-fleet", "");
        let srv = start_server(ServeConfig {
            journal_dir: Some(dir.clone()),
            ..ServeConfig::default()
        });
        let stop = Arc::new(AtomicBool::new(false));
        let workers = ["w1", "w2"]
            .map(|name| spawn_worker(worker_config(srv.addr(), name, Arc::clone(&stop))));
        let mut c = Client::connect(srv.addr()).unwrap();
        wait_for_live_workers(&mut c, 2);
        let (st, _) = c.create_session(campaign(), 0.0, 0).unwrap();
        let seen = journal_after_each_reply(&dir, || c.advance(st.session, 5).unwrap());
        assert!(c.metrics().unwrap().fleet.tasks_completed > 0);
        stop.store(true, Ordering::Release);
        for w in workers {
            w.join().unwrap().unwrap();
        }
        c.shutdown().unwrap();
        srv.join().unwrap();
        std::fs::remove_dir_all(&dir).ok();
        seen
    };

    let others = [
        ("Advance(5)", advanced_by(5)),
        ("Advance(u64::MAX)", advanced_by(u64::MAX)),
        ("two workers", two_workers),
    ];
    for (driver, seen) in &others {
        for (reply, bytes) in seen.iter().enumerate() {
            assert!(
                longest.starts_with(bytes),
                "{driver}: the journal after reply {reply} is not a prefix of Advance(1)'s"
            );
        }
        assert!(
            !coupled(seen.last().unwrap()).is_empty(),
            "{driver}: the comparison reached the measured batches"
        );
    }
}

#[test]
fn a_campaign_commits_once_per_batch_not_once_per_record() {
    // The perf ledger's session shape: budget 30, pool 500, five runs an
    // `Advance`.
    let shape = |workflow: &str, seed| TuneParams {
        workflow: workflow.into(),
        ..params("exec", 30, 500, seed)
    };
    for p in [shape("LV", 1), shape("HS", 2), shape("GP", 3)] {
        let at = format!("{} seed {}", p.workflow, p.seed);
        let dir = unique_temp_path("ceal-journal-budget", "");
        let tracer = Tracer::in_memory();
        let (cache, metrics) = (AutotuneCache::in_memory(), ServerMetrics::new());
        let mgr = manager(&dir).with_tracer(tracer.clone());

        let (st, _) = mgr.create(p, 0.0, 0, &cache, &metrics).unwrap();
        assert_eq!(commits(&tracer), [1], "{at}: create is one commit");
        let handle = mgr.get(st.session).unwrap();
        let mut status = handle.lock().advance(5, &cache, &metrics).unwrap();
        assert_eq!(
            commits(&tracer),
            [status.history_samples as usize + 1],
            "{at}: the history batch and its marker are one commit"
        );
        let (mut total, mut records) = (2, 0);
        while status.state != "done" {
            status = handle.lock().advance(5, &cache, &metrics).unwrap();
            let made = commits(&tracer);
            assert!(made.len() <= 2, "{at}: {made:?} in one Advance");
            total += made.len();
            records += made.iter().sum::<usize>();
        }
        assert_eq!(records, 30, "{at}: every measurement was committed once");
        assert!(total <= 16, "{at}: {total} commits (one per record: 41)");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A session whose injected faults strike mid-`Advance`: what was measured
/// before the failure is committed and applied, the failed run stays
/// pending, and a batch that measured nothing commits nothing.
#[test]
fn a_failed_measurement_commits_what_the_batch_had_measured() {
    // Fault-free, the campaign measures these configurations in this order.
    let asked = coupled(advanced_by(1).last().unwrap());

    // Fault seeds under which the search's first `Advance(5)` fails on its
    // third measurement, and on its first. Injected faults are a pure
    // function of seed, configuration and attempt, so the scenarios are
    // pinned; the assertions below fail if the injector ever rolls
    // differently.
    for (fault_seed, measured) in [(10, 2), (1, 0)] {
        let dir = unique_temp_path("ceal-journal-fault", "");
        let tracer = Tracer::in_memory();
        let (cache, metrics) = (AutotuneCache::in_memory(), ServerMetrics::new());
        let mgr = manager(&dir).with_tracer(tracer.clone());
        let (st, _) = mgr
            .create(campaign(), 0.3, fault_seed, &cache, &metrics)
            .unwrap();
        let handle = mgr.get(st.session).unwrap();
        let mut s = handle.lock();
        s.advance(5, &cache, &metrics).expect("history");
        commits(&tracer);
        let before = std::fs::read(wal(&dir)).unwrap();

        let err = s.advance(5, &cache, &metrics).unwrap_err();
        assert_eq!(err.code(), "measurement-failed", "seed {fault_seed}: {err}");
        assert_eq!(s.status().measured, measured as u64, "applied");
        let on_disk = std::fs::read(wal(&dir)).unwrap();
        let expect: Vec<_> = (0..measured)
            .map(|i| (asked[i].0.clone(), i as u64 + 1))
            .collect();
        assert_eq!(coupled(&on_disk), expect, "and durable");
        match measured {
            // Nothing staged: no write, no sync, no event.
            0 => assert!(commits(&tracer).is_empty() && on_disk == before),
            n => assert_eq!(commits(&tracer), [n]),
        }

        // The retry measures the configuration that failed, under a fresh
        // attempt number, and its commit carries that record alone: the
        // failed `Advance` left nothing staged behind.
        while s.advance(1, &cache, &metrics).is_err() {}
        assert_eq!(s.status().measured, measured as u64 + 1);
        let on_disk = coupled(&std::fs::read(wal(&dir)).unwrap());
        assert_eq!(on_disk.len(), measured + 1);
        assert_eq!(on_disk[measured].0, asked[measured].0);
        assert!(on_disk[measured].1 > measured as u64 + 1, "a fresh roll");
        assert_eq!(commits(&tracer), [1]);
        drop(s);
        std::fs::remove_dir_all(&dir).ok();
    }
}
