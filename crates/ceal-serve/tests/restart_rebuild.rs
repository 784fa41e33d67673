//! Server restarts with `journal_dir` set: sessions that were live when
//! the process died are rebuilt from their write-ahead journals at the
//! next bind, continue where they left off, and finish with the exact
//! result a crash-free session would have produced.

mod common;

use ceal_core::algorithms::by_name;
use ceal_core::{sample_pool, ComponentHistory, Journal, JournalRecord, SimOracle};
use ceal_serve::{Client, ServeConfig, Server, ServerHandle, TuneParams};
use ceal_sim::{Objective, Simulator};
use ceal_testutil::unique_temp_path;
use ceal_trace::Tracer;
use common::{drive_to_done, params};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::path::PathBuf;
use std::sync::Arc;

/// A two-worker server journaling sessions under `journal_dir`.
fn start(journal_dir: Option<PathBuf>) -> ServerHandle {
    common::start_server(ServeConfig {
        workers: 2,
        journal_dir,
        ..ServeConfig::default()
    })
}

#[test]
fn restarted_server_rebuilds_sessions_and_finishes_identically() {
    // Ground truth: the same campaign run to completion on a journal-less
    // server that never restarts.
    let free = start(None);
    let mut c = Client::connect(free.addr()).expect("connect");
    let (st, _) = c
        .create_session(params("exec", 10, 120, 42), 0.0, 0)
        .expect("create");
    let free_done = drive_to_done(&mut c, st.session, 4);
    c.shutdown().expect("shutdown");
    free.join().expect("join");

    // Run the campaign partway on a journaled server, then kill the server
    // (graceful here, but the journal only ever reflects committed work —
    // `crash_cuts.rs` covers dying mid-write).
    let dir = unique_temp_path("ceal-serve-rebuild", "");
    let h1 = start(Some(dir.clone()));
    let mut c1 = Client::connect(h1.addr()).expect("connect");
    let (st1, from_cache) = c1
        .create_session(params("exec", 10, 120, 42), 0.0, 0)
        .expect("create");
    assert!(!from_cache);
    c1.advance(st1.session, 3).expect("history phase");
    let mid = c1.advance(st1.session, 3).expect("bootstrap phase");
    assert_ne!(
        mid.state, "done",
        "the campaign must be interrupted mid-run"
    );
    assert!(
        mid.measured > 0,
        "some coupled budget must already be spent"
    );
    c1.shutdown().expect("shutdown");
    h1.join().expect("join");
    assert!(
        dir.join(format!("session-{}.wal", st1.session)).exists(),
        "a live session's journal must survive the server"
    );

    // A fresh server on the same journal directory resurrects the session:
    // same id, same spent state, zero re-measured budget.
    let h2 = start(Some(dir.clone()));
    let mut c2 = Client::connect(h2.addr()).expect("reconnect");
    let metrics = c2.metrics().expect("metrics");
    assert_eq!(metrics.sessions_rebuilt, 1);
    assert_eq!(
        metrics.oracle_measurements, 0,
        "rebuilding from the journal must not touch the oracle"
    );
    let rebuilt = c2.status(st1.session).expect("rebuilt session status");
    assert_eq!(rebuilt.state, mid.state);
    assert_eq!(rebuilt.measured, mid.measured);
    assert_eq!(rebuilt.budget_left, mid.budget_left);
    assert_eq!(rebuilt.history_samples, mid.history_samples);

    // Continuing lands on the crash-free recommendation, spending only
    // what the interruption lost.
    let done = drive_to_done(&mut c2, st1.session, 4);
    assert_eq!(done.best, free_done.best);
    assert_eq!(done.best_value, free_done.best_value);
    assert_eq!(done.measured, free_done.measured);
    assert_eq!(done.budget_left, free_done.budget_left);

    // Closing a finished session retires its journal.
    c2.close_session(st1.session).expect("close");
    assert!(
        !dir.join(format!("session-{}.wal", st1.session)).exists(),
        "a closed session must not leave a journal behind"
    );
    c2.shutdown().expect("shutdown");
    h2.join().expect("join");
    std::fs::remove_dir_all(&dir).ok();
}

/// A corrupt or foreign file in the journal directory must not stop the
/// server from starting or serving.
#[test]
fn unreadable_journals_are_skipped_at_startup() {
    let dir = unique_temp_path("ceal-serve-badwal", "");
    std::fs::create_dir_all(&dir).expect("mkdir");
    std::fs::write(dir.join("session-7.wal"), b"not a journal at all").expect("write");
    std::fs::write(dir.join("notes.txt"), b"ignore me").expect("write");

    let handle = start(Some(dir.clone()));
    let mut client = Client::connect(handle.addr()).expect("connect");
    assert_eq!(client.metrics().expect("metrics").sessions_rebuilt, 0);

    // The server still creates and runs sessions normally.
    let (st, _) = client
        .create_session(params("exec", 10, 120, 7), 0.0, 0)
        .expect("create");
    let done = drive_to_done(&mut client, st.session, 4);
    assert!(done.best.is_some());
    client.close_session(st.session).expect("close");
    client.shutdown().expect("shutdown");
    handle.join().expect("join");
    std::fs::remove_dir_all(&dir).ok();
}

/// Copies `records` into a fresh journal at `path`.
fn write_journal(path: &std::path::Path, records: &[JournalRecord]) {
    let (mut journal, _) = Journal::open(path).expect("open");
    for r in records {
        journal.append(r).expect("append");
    }
}

/// Replay folds the journal through the stepper's asks, so a journal the
/// stepper would not have produced — coupled records out of the asked
/// order (what another build's search, or tampering, leaves behind), or
/// more of them than the budget — is skipped with a warning: the server
/// starts, bills nothing, and the journals that do replay come back.
#[test]
fn journals_that_disagree_with_the_stepper_are_skipped_at_startup() {
    let dir = unique_temp_path("ceal-serve-foldwal", "");
    let h = start(Some(dir.clone()));
    let mut c = Client::connect(h.addr()).expect("connect");
    let (st, _) = c
        .create_session(params("exec", 10, 120, 5), 0.0, 0)
        .expect("create");
    c.advance(st.session, 4).expect("history");
    let mid = c.advance(st.session, 4).expect("first coupled runs");
    assert!(mid.measured >= 2 && mid.state != "done");
    c.shutdown().expect("shutdown");
    h.join().expect("join");
    let good = dir.join(format!("session-{}.wal", st.session));
    let records = Journal::open(&good).expect("reopen").1.records;
    let coupled: Vec<usize> = (0..records.len())
        .filter(|&i| matches!(records[i], JournalRecord::Coupled { .. }))
        .collect();

    // Out of order: the first two coupled records swapped.
    let mut swapped = records.clone();
    swapped.swap(coupled[0], coupled[1]);
    write_journal(&dir.join("session-901.wal"), &swapped);

    // Over budget: the whole campaign as `try_run` measures it from the
    // journaled history, plus one run nobody asked for.
    let mut history = ComponentHistory::empty(2);
    for r in &records {
        if let JournalRecord::Solo {
            component,
            values,
            value,
            ..
        } = r
        {
            history.push(*component, values.clone(), *value);
        }
    }
    let spec = ceal_apps::workflow_by_name("LV").expect("LV");
    let sim = Simulator::new();
    let mut rng = ChaCha8Rng::seed_from_u64(5 ^ 0xFACE);
    let pool = sample_pool(&spec, &sim.platform, 120, &mut rng);
    let oracle = SimOracle::new(sim, spec, Objective::ExecutionTime, 2021);
    let run = by_name("ceal", Some(Arc::new(history)))
        .expect("ceal")
        .try_run(&oracle, &pool, 10, 5)
        .expect("reference run");
    let mut over = records[..coupled[0]].to_vec();
    for m in run.measured.iter().chain(run.measured.last()) {
        over.push(JournalRecord::Coupled {
            config: m.config.clone(),
            value: m.value,
            exec_time: m.exec_time,
            computer_time: m.computer_time,
            attempt: 0,
        });
    }
    write_journal(&dir.join("session-902.wal"), &over);
    // The same journal without the extra run replays to a finished
    // campaign: the fold accepts exactly what the stepper asks for.
    write_journal(&dir.join("session-903.wal"), &over[..over.len() - 1]);

    let tracer = Tracer::in_memory();
    let handle = Server::bind(ServeConfig {
        journal_dir: Some(dir.clone()),
        tracer: tracer.clone(),
        ..ServeConfig::default()
    })
    .expect("bind")
    .spawn();
    let mut client = Client::connect(handle.addr()).expect("connect");
    let m = client.metrics().expect("metrics");
    assert_eq!(m.sessions_rebuilt, 2, "the intact journals come back");
    assert_eq!(m.oracle_measurements, 0, "a rejected journal bills nothing");
    let rebuilt = client.status(st.session).expect("intact session");
    assert_eq!((rebuilt.state, rebuilt.measured), (mid.state, mid.measured));
    let whole = client.status(903).expect("fully journaled session");
    assert_eq!(whole.state, "done");
    assert_eq!(whole.best, Some(run.best_predicted));
    for lost in [901, 902] {
        let err = client.status(lost).expect_err("rejected journal");
        assert_eq!(err.code(), Some("unknown-session"));
    }
    let warned = tracer.drain_events();
    let warned = warned.iter().filter(|e| e.name == "session.rebuild-failed");
    assert_eq!(warned.count(), 2);
    client.shutdown().expect("shutdown");
    handle.join().expect("join");
    std::fs::remove_dir_all(&dir).ok();
}

/// Client-pushed history shapes the search, so it is journaled with the
/// campaign: a restarted session has it back and finishes exactly like
/// one that never restarted.
#[test]
fn pushed_history_survives_a_restart() {
    let pushed = vec![
        vec![(vec![100, 20, 1], 2.5), (vec![400, 10, 2], 1.25)],
        vec![(vec![50, 10, 1], 0.5)],
    ];
    let free = start(None);
    let mut c = Client::connect(free.addr()).expect("connect");
    let (st, _) = c
        .create_session(params("exec", 10, 120, 42), 0.0, 0)
        .expect("create");
    c.push_history(st.session, pushed.clone()).expect("push");
    let free_done = drive_to_done(&mut c, st.session, 4);
    c.shutdown().expect("shutdown");
    free.join().expect("join");

    let dir = unique_temp_path("ceal-serve-pushwal", "");
    let h1 = start(Some(dir.clone()));
    let mut c1 = Client::connect(h1.addr()).expect("connect");
    let (st, _) = c1
        .create_session(params("exec", 10, 120, 42), 0.0, 0)
        .expect("create");
    c1.push_history(st.session, pushed).expect("push");
    c1.advance(st.session, 3).expect("history phase");
    let mid = c1.advance(st.session, 3).expect("first coupled runs");
    let late = c1.push_history(st.session, vec![vec![], vec![]]);
    assert_eq!(late.expect_err("search started").code(), Some("not-ready"));
    c1.shutdown().expect("shutdown");
    h1.join().expect("join");

    let h2 = start(Some(dir.clone()));
    let mut c2 = Client::connect(h2.addr()).expect("reconnect");
    let rebuilt = c2.status(st.session).expect("rebuilt");
    assert_eq!(rebuilt.history_samples, mid.history_samples);
    assert_eq!(rebuilt.measured, mid.measured);
    let done = drive_to_done(&mut c2, st.session, 4);
    assert_eq!(done.best, free_done.best);
    assert_eq!(done.best_value, free_done.best_value);
    c2.shutdown().expect("shutdown");
    h2.join().expect("join");
    std::fs::remove_dir_all(&dir).ok();
}

/// A transfer-seeded session's prior shapes the stepper's asks, so it is
/// journaled with the campaign: the rebuilt session is still
/// `warm_source = transfer` and finishes exactly like an uninterrupted one.
#[test]
fn transfer_seeded_session_survives_a_restart() {
    let near_miss = || {
        let mut p = ceal_sim::Platform::default();
        p.link_bandwidth *= 0.75;
        p.fabric_bandwidth *= 0.8;
        p.cores_per_node = 20;
        p
    };
    let on = |cache: &PathBuf, journal: Option<&PathBuf>, platform| {
        let config = ServeConfig {
            cache_path: Some(cache.clone()),
            journal_dir: journal.cloned(),
            platform,
            ..ServeConfig::default()
        };
        Server::bind(config).expect("bind").spawn()
    };
    let p = TuneParams {
        workflow: "LV".into(),
        objective: "comp".into(),
        budget: 30,
        pool: 200,
        seed: 7,
        algo: "ceal".into(),
    };
    // The sibling campaign, then two copies of its cache: one per run below.
    let dir = unique_temp_path("ceal-serve-transferwal", "");
    let (cache_a, cache_b, wal) = (dir.join("a"), dir.join("b"), dir.join("wal"));
    let h = on(&cache_a, None, ceal_sim::Platform::default());
    let mut c = Client::connect(h.addr()).expect("connect");
    let (st, _) = c.create_session(p.clone(), 0.0, 0).expect("sibling");
    drive_to_done(&mut c, st.session, 4);
    c.shutdown().expect("shutdown");
    h.join().expect("join");
    std::fs::create_dir_all(&cache_b).expect("mkdir");
    for f in std::fs::read_dir(&cache_a).expect("ls").flatten() {
        std::fs::copy(f.path(), cache_b.join(f.file_name())).expect("copy shard");
    }

    let h = on(&cache_a, None, near_miss());
    let mut c = Client::connect(h.addr()).expect("connect");
    let (st, _) = c.create_session(p.clone(), 0.0, 0).expect("uninterrupted");
    assert_eq!(st.warm_source, "transfer");
    let free_done = drive_to_done(&mut c, st.session, 4);
    c.shutdown().expect("shutdown");
    h.join().expect("join");

    let h1 = on(&cache_b, Some(&wal), near_miss());
    let mut c1 = Client::connect(h1.addr()).expect("connect");
    let (st, _) = c1.create_session(p, 0.0, 0).expect("interrupted");
    assert_eq!(st.warm_source, "transfer");
    for _ in 0..4 {
        c1.advance(st.session, 4).expect("advance");
    }
    c1.shutdown().expect("shutdown");
    h1.join().expect("join");

    let h2 = on(&cache_b, Some(&wal), near_miss());
    let mut c2 = Client::connect(h2.addr()).expect("reconnect");
    assert_eq!(c2.metrics().expect("metrics").sessions_rebuilt, 1);
    let rebuilt = c2.status(st.session).expect("rebuilt");
    assert_eq!(rebuilt.warm_source, "transfer");
    let done = drive_to_done(&mut c2, st.session, 4);
    assert_eq!(done.best, free_done.best);
    assert_eq!(done.best_value, free_done.best_value);
    c2.shutdown().expect("shutdown");
    h2.join().expect("join");
    std::fs::remove_dir_all(&dir).ok();
}
