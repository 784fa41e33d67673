//! Requests that wait hold no thread and no session lock: a worker poll
//! with nothing to hand out is held on its connection, an `Advance` (or a
//! one-shot `Tune`) that scattered a fleet round parks until the round
//! resolves, and the requests that cannot wait — `Ping`, `Status`, a small
//! `Predict` — are answered where they arrive. What that buys (one dispatch
//! thread serves any number of fleet-backed campaigns; a round costs what
//! its measurements cost, not a poll interval; `Status` never queues behind
//! a round) and what it must not cost (one commit per batch, exact billing,
//! byte-identical journals, a drain that does not wait) is pinned here.
//!
//! The tests take turns: several assert on latencies, and tests sharing a
//! binary otherwise run concurrently.

#![cfg(target_os = "linux")]

mod common;

use ceal_serve::{
    write_frame, AutotuneCache, Client, Request, Response, ServeConfig, ServerMetrics,
    SessionManager, WorkerConfig,
};
use ceal_testutil::unique_temp_path;
use ceal_trace::Tracer;
use common::{
    advanced_by, byte_campaign, coupled_on_disk, drive_session_to_done, drive_to_done,
    journal_commits, params, spawn_worker, start_server, wait_for_live_workers, wal, worker_config,
    RawWorker,
};
use rand::SeedableRng;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A client whose session 1 is [`byte_campaign`] with its history
/// collected: the next `Advance(5)` is the three-run bootstrap batch.
fn at_the_bootstrap_batch(addr: SocketAddr) -> Client {
    let mut c = Client::connect(addr).expect("connect");
    let (st, _) = c.create_session(byte_campaign(), 0.0, 0).expect("create");
    assert_eq!(st.session, 1);
    let st = c.advance(1, 5).expect("history");
    assert_eq!(st.state, "collecting-history");
    c
}

/// `Advance(5)` on session 1 from its own thread; joining yields the
/// client back with what it was told.
fn advance_in_background(
    mut c: Client,
) -> std::thread::JoinHandle<(
    Client,
    Result<ceal_serve::SessionStatus, ceal_serve::ClientError>,
)> {
    std::thread::spawn(move || {
        let advanced = c.advance(1, 5);
        (c, advanced)
    })
}

/// The satellite bug: at the parent `SessionManager::get` took the session
/// lock to stamp its idle clock, so a `Status` waited out the fleet round
/// the `Advance` holding that lock was gathering.
#[test]
fn status_and_ping_answer_while_an_advance_waits_on_a_stuck_worker() {
    let _turn = serial();
    let srv = start_server(ServeConfig {
        worker_lease: Duration::from_millis(400),
        ..ServeConfig::default()
    });
    let mut stuck = RawWorker::register(srv.addr(), "stuck");
    let advancing = advance_in_background(at_the_bootstrap_batch(srv.addr()));
    assert_eq!(stuck.take_tasks().len(), 3, "the whole batch went out");

    let mut other = Client::connect(srv.addr()).unwrap();
    for _ in 0..5 {
        let asked = Instant::now();
        let status = other.status(1).expect("status mid-round");
        let took = asked.elapsed();
        assert!(took < Duration::from_millis(50), "Status took {took:?}");
        assert_eq!(
            (status.state.as_str(), status.measured),
            ("bootstrapping", 0)
        );
        let asked = Instant::now();
        other.ping().expect("ping mid-round");
        let took = asked.elapsed();
        assert!(took < Duration::from_millis(50), "Ping took {took:?}");
    }
    assert!(!advancing.is_finished(), "the Advance is still pending");

    // The stuck worker's lease runs out and the round is measured here.
    let (_, advanced) = advancing.join().unwrap();
    let advanced = advanced.expect("the round fell back to local measurement");
    assert_eq!(advanced.measured, 3);
    let m = other.metrics().unwrap();
    assert_eq!(m.fleet.tasks_completed, 0);
    assert_eq!(m.oracle_measurements, advanced.history_samples + 3);
    other.shutdown().unwrap();
    srv.join().unwrap();
}

/// (a) At the parent the one dispatch thread sat in `gather` waiting for
/// polls no thread was left to serve, until the workers' leases expired
/// and the round fell back to local measurement.
#[test]
fn one_dispatch_thread_serves_concurrent_fleet_campaigns() {
    let _turn = serial();
    let srv = start_server(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let addr = srv.addr();
    let stop = Arc::new(AtomicBool::new(false));
    let workers =
        ["w1", "w2"].map(|name| spawn_worker(worker_config(addr, name, Arc::clone(&stop))));
    let mut control = Client::connect(addr).unwrap();
    wait_for_live_workers(&mut control, 2);

    let campaigns: Vec<_> = (0..4).map(|i| params("exec", 12, 60, 20 + i)).collect();
    let one_shot = params("comp", 20, 300, 4);
    let started = Instant::now();
    let sessions: Vec<_> = campaigns
        .iter()
        .cloned()
        .map(|p| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let (st, _) = c.create_session(p, 0.0, 0).unwrap();
                drive_to_done(&mut c, st.session, 5)
            })
        })
        .collect();
    let tuning = {
        let p = one_shot.clone();
        std::thread::spawn(move || Client::connect(addr).unwrap().tune(p).unwrap())
    };
    let served: Vec<_> = sessions.into_iter().map(|s| s.join().unwrap()).collect();
    let tuned = tuning.join().unwrap();
    let took = started.elapsed();
    assert!(
        took < Duration::from_secs(5),
        "five campaigns took {took:?}"
    );

    let m = control.metrics().unwrap();
    assert!(m.fleet.tasks_dispatched > 0);
    assert_eq!(m.fleet.tasks_completed, m.fleet.tasks_dispatched);
    assert_eq!(m.fleet.workers_lost, 0);
    stop.store(true, Ordering::Release);
    for w in workers {
        w.join().unwrap().unwrap();
    }
    control.shutdown().unwrap();
    srv.join().unwrap();

    // The same campaigns with no server at all, and no fleet.
    for (p, served) in campaigns.into_iter().zip(served) {
        let (cache, metrics) = (AutotuneCache::in_memory(), ServerMetrics::new());
        let mgr = SessionManager::new(Duration::from_secs(3600));
        let (st, _) = mgr.create(p, 0.0, 0, &cache, &metrics).unwrap();
        let bare = drive_session_to_done(&mgr, st.session, &cache, &metrics);
        assert_eq!(
            (served.best, served.best_value, served.measured),
            (bare.best, bare.best_value, bare.measured)
        );
    }
    let solo = start_server(ServeConfig::default());
    let mut c = Client::connect(solo.addr()).unwrap();
    assert_eq!(tuned, c.tune(one_shot).unwrap());
    c.shutdown().unwrap();
    solo.join().unwrap();
}

/// (b) A worker learns of a task when there is one: with the default
/// 100 ms `poll_interval` a round used to cost up to that.
#[test]
fn a_round_does_not_cost_a_poll_interval() {
    let _turn = serial();
    let srv = start_server(ServeConfig::default());
    let stop = Arc::new(AtomicBool::new(false));
    let workers = ["w1", "w2"].map(|name| {
        spawn_worker(WorkerConfig {
            coordinator: srv.addr().to_string(),
            name: name.into(),
            stop: Some(Arc::clone(&stop)),
            ..WorkerConfig::default()
        })
    });
    let mut c = Client::connect(srv.addr()).unwrap();
    wait_for_live_workers(&mut c, 2);
    let (st, _) = c.create_session(params("exec", 66, 80, 5), 0.0, 0).unwrap();
    c.advance(st.session, 3).expect("history");

    let mut rounds = Vec::new();
    loop {
        let asked = Instant::now();
        let status = c.advance(st.session, 3).unwrap();
        rounds.push(asked.elapsed());
        if status.state == "done" {
            break;
        }
    }
    assert!(rounds.len() >= 20, "only {} rounds", rounds.len());
    let m = c.metrics().unwrap();
    assert!(
        m.fleet.tasks_completed >= 20,
        "the rounds went to the fleet"
    );
    assert_eq!(m.fleet.tasks_completed, m.fleet.tasks_dispatched);
    rounds.sort();
    let median = rounds[rounds.len() / 2];
    assert!(
        median < Duration::from_millis(20),
        "median round {median:?}"
    );

    stop.store(true, Ordering::Release);
    for w in workers {
        w.join().unwrap().unwrap();
    }
    c.shutdown().unwrap();
    srv.join().unwrap();
}

/// (c) The continuation does not need its connection.
#[test]
fn a_client_that_hangs_up_on_a_parked_advance_loses_nothing() {
    let _turn = serial();
    let undisturbed = advanced_by(1).pop().unwrap();
    let dir = unique_temp_path("ceal-parked-journal", "");
    let tracer = Tracer::in_memory();
    let srv = start_server(ServeConfig {
        journal_dir: Some(dir.clone()),
        worker_lease: Duration::from_millis(300),
        tracer: tracer.clone(),
        ..ServeConfig::default()
    });
    let mut stuck = RawWorker::register(srv.addr(), "stuck");
    let mut c = at_the_bootstrap_batch(srv.addr());
    assert_eq!(journal_commits(&tracer), [1, 9], "create, history");

    let mut quitter = TcpStream::connect(srv.addr()).unwrap();
    let advance = Request::Advance {
        session: 1,
        runs: 5,
    };
    write_frame(&mut quitter, &serde_json::to_vec(&advance).unwrap()).unwrap();
    assert_eq!(stuck.take_tasks().len(), 3);
    drop(quitter);

    // The round resolves (the stuck worker's lease expires) and commits,
    // once, with nobody to tell.
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        let status = c.status(1).unwrap();
        if status.measured > 0 {
            break status;
        }
        assert!(Instant::now() < deadline, "the round never completed");
        std::thread::sleep(Duration::from_millis(10));
    };
    assert_eq!(status.measured, 3);
    assert_eq!(journal_commits(&tracer), [3], "one commit for the batch");
    let billed = c.metrics().unwrap().oracle_measurements;
    assert_eq!(billed, status.history_samples + status.measured);
    let on_disk = std::fs::read(wal(&dir)).unwrap();
    assert_eq!(coupled_on_disk(&on_disk).len(), 3);
    assert!(undisturbed.starts_with(&on_disk));

    // The campaign goes on from a new connection, writing what it would
    // have written anyway.
    let mut next = Client::connect(srv.addr()).unwrap();
    let done = loop {
        let status = next.advance(1, 5).unwrap();
        if status.state == "done" {
            break status;
        }
        assert!(undisturbed.starts_with(&std::fs::read(wal(&dir)).unwrap()));
    };
    assert_eq!(done.measured, 14);
    let billed = next.metrics().unwrap().oracle_measurements;
    assert_eq!(billed, done.history_samples + done.measured);
    next.shutdown().unwrap();
    srv.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// (d) A hold lives and dies with its connection, and waiting in one is
/// not silence.
#[test]
fn a_hold_keeps_its_worker_alive_and_dies_with_its_connection() {
    let _turn = serial();
    let lease = Duration::from_millis(200);
    let srv = start_server(ServeConfig {
        worker_lease: lease,
        ..ServeConfig::default()
    });
    let mut control = Client::connect(srv.addr()).unwrap();
    let mut idle = RawWorker::register(srv.addr(), "idle");

    // Idle for more than two leases: every poll is held for about half a
    // lease, then answered empty, and the lease never lapses.
    let started = Instant::now();
    while started.elapsed() < lease * 5 / 2 {
        let asked = Instant::now();
        idle.poll();
        assert!(idle.assigned().is_empty());
        let held = asked.elapsed();
        assert!(held >= lease / 4, "answered after {held:?}: not held");
        assert!(held < lease, "held {held:?}: past the lease");
    }
    let m = control.metrics().unwrap();
    assert_eq!((m.fleet.live_workers, m.fleet.workers_lost), (1, 0));

    // It polls once more and its connection dies with the poll held.
    idle.poll();
    std::thread::sleep(Duration::from_millis(30));
    drop(idle);
    let stop = Arc::new(AtomicBool::new(false));
    let real = spawn_worker(worker_config(srv.addr(), "real", Arc::clone(&stop)));
    while control.metrics().unwrap().fleet.workers_registered < 2 {
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut c = at_the_bootstrap_batch(srv.addr());
    assert_eq!(c.advance(1, 5).unwrap().measured, 3);
    let m = c.metrics().unwrap();
    let dispatched: Vec<u64> = m.fleet.workers.iter().map(|w| w.dispatched).collect();
    assert_eq!(dispatched, [0, 3], "nothing went to the dead hold");
    assert_eq!(m.fleet.tasks_completed, 3);

    stop.store(true, Ordering::Release);
    real.join().unwrap().unwrap();
    c.shutdown().unwrap();
    srv.join().unwrap();
}

/// (e) A drain waits for neither half a lease nor a gather deadline.
#[test]
fn shutdown_drains_held_polls_and_parked_rounds_at_once() {
    let _turn = serial();
    let srv = start_server(ServeConfig::default());
    let mut stuck = RawWorker::register(srv.addr(), "stuck");
    let advancing = advance_in_background(at_the_bootstrap_batch(srv.addr()));
    assert_eq!(stuck.take_tasks().len(), 3);
    let mut waiting = RawWorker::register(srv.addr(), "waiting");
    waiting.poll();
    std::thread::sleep(Duration::from_millis(30));

    let started = Instant::now();
    Client::connect(srv.addr()).unwrap().shutdown().unwrap();
    srv.join().unwrap();
    let took = started.elapsed();
    assert!(took < Duration::from_secs(1), "the drain took {took:?}");

    let (_, advanced) = advancing.join().unwrap();
    assert_eq!(advanced.expect("measured locally").measured, 3);
    match waiting.recv() {
        Response::Error { code, .. } => assert_eq!(code, "shutting-down"),
        other => panic!("the held poll was answered {other:?}"),
    }
}

/// (f) What could wait takes the pool and answers what it always
/// answered. (That these *do* take the pool, and a small `Predict` on a
/// fitted surrogate does not, is counted in `epoll_ctl`s by the reactor's
/// unit test.)
#[test]
fn requests_that_could_wait_answer_what_they_always_answered() {
    let _turn = serial();
    let srv = start_server(ServeConfig::default());
    let mut c = Client::connect(srv.addr()).unwrap();
    let p = params("comp", 15, 200, 7);
    let (st, _) = c.create_session(p.clone(), 0.0, 0).unwrap();
    let spec = ceal_apps::workflow_by_name("LV").unwrap();
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(42);
    let probe = ceal_core::sample_pool(&spec, &ceal_sim::Platform::default(), 1024, &mut rng);

    // A campaign that is not done has no surrogate to ask.
    let err = c.predict(st.session, probe[..4].to_vec()).unwrap_err();
    assert_eq!(err.code(), Some("not-ready"));

    // `Status` from a second connection while the first advances: always
    // an answer, never behind where the last one was.
    let addr = srv.addr();
    let session = st.session;
    let watcher = std::thread::spawn(move || {
        let mut w = Client::connect(addr).unwrap();
        let mut seen = 0;
        loop {
            let status = w.status(session).expect("status racing an advance");
            assert!(status.measured >= seen);
            seen = status.measured;
            if status.state == "done" {
                return seen;
            }
        }
    });
    let done = drive_to_done(&mut c, session, 1);
    assert_eq!(watcher.join().unwrap(), done.measured);

    // A frame past the inline bound scores what the same configurations
    // score sixteen at a time.
    let whole = c.predict(session, probe.clone()).unwrap();
    let mut pieces = Vec::new();
    for chunk in probe.chunks(16) {
        pieces.extend(c.predict(session, chunk.to_vec()).unwrap());
    }
    assert_eq!(whole, pieces);

    // A session the cache answered fits its surrogate on first use, on
    // the pool; from then on the same question gets the same answer.
    let (warm, from_cache) = c.create_session(p, 0.0, 0).unwrap();
    assert!(from_cache);
    let fitted = c.predict(warm.session, probe[..16].to_vec()).unwrap();
    assert_eq!(fitted.len(), 16);
    assert_eq!(
        c.predict(warm.session, probe[..16].to_vec()).unwrap(),
        fitted
    );

    c.shutdown().unwrap();
    srv.join().unwrap();
}

/// (g) A batch that finds the whole fleet waiting is spread over it.
#[test]
fn a_scatter_is_split_over_the_held_polls() {
    let _turn = serial();
    let srv = start_server(ServeConfig::default());
    let mut first = RawWorker::register(srv.addr(), "first");
    let mut second = RawWorker::register(srv.addr(), "second");
    first.poll();
    std::thread::sleep(Duration::from_millis(30));
    second.poll();
    std::thread::sleep(Duration::from_millis(30));

    let advancing = advance_in_background(at_the_bootstrap_batch(srv.addr()));
    let (mine, yours) = (first.assigned(), second.assigned());
    assert_eq!((mine.len(), yours.len()), (2, 1), "3 tasks over 2 holds");

    // Both report (a failure: the coordinator measures those itself) and
    // the last report wakes the round.
    first.give_up(&mine);
    assert!(!advancing.is_finished());
    second.give_up(&yours);
    let (mut c, advanced) = advancing.join().unwrap();
    assert_eq!(advanced.unwrap().measured, 3);
    let m = c.metrics().unwrap();
    assert_eq!((m.fleet.tasks_dispatched, m.fleet.tasks_failed), (3, 3));
    c.shutdown().unwrap();
    srv.join().unwrap();
}

/// A session mid-round is not stuck behind it: a second `Advance` takes
/// its turn when the round completes, and a `CloseSession` does not wait.
#[test]
fn a_second_advance_queues_behind_the_round_and_a_close_abandons_it() {
    let _turn = serial();
    let lease = Duration::from_millis(400);
    let config = || ServeConfig {
        worker_lease: lease,
        ..ServeConfig::default()
    };

    let srv = start_server(config());
    let mut stuck = RawWorker::register(srv.addr(), "stuck");
    let first = advance_in_background(at_the_bootstrap_batch(srv.addr()));
    assert_eq!(stuck.take_tasks().len(), 3);
    let second = advance_in_background(Client::connect(srv.addr()).unwrap());
    std::thread::sleep(lease / 4);
    assert!(!first.is_finished() && !second.is_finished());
    // The lease runs out, the round is measured here, and each request is
    // answered with the step it asked for.
    let (_, first) = first.join().unwrap();
    let (mut c, second) = second.join().unwrap();
    let (first, second) = (first.unwrap(), second.unwrap());
    assert_eq!(first.measured, 3);
    assert!(second.measured > 3, "its own step, after the round");
    let billed = c.metrics().unwrap().oracle_measurements;
    assert_eq!(billed, second.history_samples + second.measured);
    c.shutdown().unwrap();
    srv.join().unwrap();

    let srv = start_server(config());
    let mut stuck = RawWorker::register(srv.addr(), "stuck");
    let parked = advance_in_background(at_the_bootstrap_batch(srv.addr()));
    let taken = stuck.take_tasks();
    let mut c = Client::connect(srv.addr()).unwrap();
    let asked = Instant::now();
    c.close_session(1).expect("close mid-round");
    let (_, told) = parked.join().unwrap();
    let took = asked.elapsed();
    assert!(took < lease / 2, "the close waited {took:?}");
    assert_eq!(told.unwrap_err().code(), Some("unknown-session"));
    // The batch is gone: what the worker sat on is nobody's any more.
    stuck.give_up(&taken);
    let deadline = Instant::now() + Duration::from_secs(5);
    while c.metrics().unwrap().fleet.duplicate_results < 3 {
        assert!(Instant::now() < deadline, "late reports never landed");
        std::thread::sleep(Duration::from_millis(5));
    }
    let m = c.metrics().unwrap();
    assert_eq!((m.active_sessions, m.oracle_measurements), (0, 8));
    c.shutdown().unwrap();
    srv.join().unwrap();
}
