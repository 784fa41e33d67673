//! End-to-end exercise of the tuning service: concurrent clients over a
//! real loopback socket, remote/local parity, error-frame retries, the
//! persistent autotune cache, and graceful shutdown.

use ceal::serve::{Client, ServeConfig, Server, ServerHandle, TuneParams};
use ceal::sim::{Objective, Simulator};
use ceal::tuner::{sample_pool, Autotuner, Ceal, CealParams, Oracle, PoolOracle, SimOracle};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn start_server(cache_path: Option<std::path::PathBuf>) -> ServerHandle {
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 4,
        cache_path,
        ..ServeConfig::default()
    };
    Server::bind(config).expect("bind loopback").spawn()
}

fn temp_cache_path(tag: &str) -> std::path::PathBuf {
    ceal_testutil::unique_temp_path(&format!("ceal-serve-it-{tag}"), "json")
}

fn lv_params(seed: u64, budget: u64) -> TuneParams {
    TuneParams {
        workflow: "LV".into(),
        objective: "comp".into(),
        budget,
        pool: 200,
        seed,
        algo: "ceal".into(),
    }
}

/// Drives a session to completion, retrying any transient
/// `measurement-failed` error frames. Returns how many error frames were
/// seen along the way.
fn drive_to_done(client: &mut Client, session: u64) -> usize {
    let mut failures = 0;
    loop {
        match client.advance(session, 4) {
            Ok(status) if status.state == "done" => {
                assert!(status.best.is_some(), "done session must have a best");
                assert!(status.best_value.is_some());
                return failures;
            }
            Ok(_) => {}
            Err(e) => {
                assert_eq!(
                    e.code(),
                    Some("measurement-failed"),
                    "only transient measurement faults are expected: {e}"
                );
                failures += 1;
                assert!(
                    failures < 200,
                    "fault injection never let the session finish"
                );
            }
        }
    }
}

/// The `--remote` path must reproduce the in-process `tune` CLI exactly:
/// same pool seed, same oracle seed, same algorithm construction — so the
/// recommended configuration and its measured value match bit for bit.
#[test]
fn remote_tune_matches_local_path() {
    let handle = start_server(None);
    let mut client = Client::connect(handle.addr()).expect("connect");

    let params = TuneParams {
        workflow: "LV".into(),
        objective: "comp".into(),
        budget: 25,
        pool: 500,
        seed: 0,
        algo: "ceal".into(),
    };
    let remote = client.tune(params).expect("remote tune");
    assert!(!remote.from_cache);

    // Replicate what `tune --workflow LV --objective comp --budget 25
    // --pool 500 --seed 0` does in-process.
    let spec = ceal::apps::workflow_by_name("LV").unwrap();
    let sim = Simulator::new();
    let seed = 0u64;
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xFACE);
    let pool = sample_pool(&spec, &sim.platform, 500, &mut rng);
    let oracle = PoolOracle::precompute(
        SimOracle::new(sim, spec, Objective::ComputerTime, 2021),
        &pool,
    );
    let algo = Ceal::new(CealParams::without_history());
    let run = algo.run(&oracle, &pool, 25, 0);
    let tuned = oracle.measure(&run.best_predicted);

    assert_eq!(remote.best, run.best_predicted);
    assert_eq!(remote.best_value, tuned.value);
    assert_eq!(remote.runs_used, run.runs_used() as u64);
    assert_eq!(remote.component_runs, run.component_runs.len() as u64);

    client.shutdown().expect("shutdown");
    handle.join().expect("serve loop exits cleanly");
}

/// A second identical request must be answered from the persistent cache
/// with zero additional oracle measurements — proven through the metrics
/// endpoint, and again by a fresh server process warm-loading the cache
/// file from disk.
#[test]
fn warm_cache_answers_without_oracle_measurements() {
    let cache = temp_cache_path("warm");
    let handle = start_server(Some(cache.clone()));
    let mut client = Client::connect(handle.addr()).expect("connect");

    let cold = client.tune(lv_params(3, 12)).expect("cold tune");
    assert!(!cold.from_cache);
    let after_cold = client.metrics().expect("metrics");
    assert!(after_cold.oracle_measurements > 0, "cold run must measure");
    assert_eq!(after_cold.cache_misses, 1);

    let warm = client.tune(lv_params(3, 12)).expect("warm tune");
    assert!(warm.from_cache, "identical request must hit the cache");
    let after_warm = client.metrics().expect("metrics");
    assert_eq!(
        after_warm.oracle_measurements, after_cold.oracle_measurements,
        "a cache hit must not touch the oracle"
    );
    assert_eq!(after_warm.cache_hits, 1);
    assert_eq!(
        (warm.best.clone(), warm.best_value),
        (cold.best, cold.best_value)
    );

    client.shutdown().expect("shutdown");
    handle.join().expect("join");

    // Restart on the persisted file: still warm, still zero measurements.
    let handle = start_server(Some(cache.clone()));
    let mut client = Client::connect(handle.addr()).expect("reconnect");
    let reloaded = client.tune(lv_params(3, 12)).expect("reloaded tune");
    assert!(reloaded.from_cache, "cache must survive a server restart");
    assert_eq!(reloaded.best, warm.best);
    let report = client.metrics().expect("metrics");
    assert_eq!(report.oracle_measurements, 0);

    client.shutdown().expect("shutdown");
    handle.join().expect("join");
    // The cache path is a shard directory.
    let _ = std::fs::remove_dir_all(&cache);
}

/// Four clients run full tuning campaigns concurrently: three clean
/// sessions across different workflows/seeds and one session with fault
/// injection that must surface `measurement-failed` error frames and still
/// converge under the client's retry loop.
#[test]
fn concurrent_sessions_with_fault_injection() {
    let handle = start_server(None);
    let addr = handle.addr();

    let clean: Vec<_> = [("LV", 11u64), ("HS", 12), ("GP", 13)]
        .into_iter()
        .map(|(workflow, seed)| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let params = TuneParams {
                    workflow: workflow.into(),
                    objective: "exec".into(),
                    budget: 10,
                    pool: 120,
                    seed,
                    algo: "ceal".into(),
                };
                let (status, from_cache) = client.create_session(params, 0.0, 0).expect("create");
                assert!(!from_cache);
                assert_eq!(status.state, "created");
                let failures = drive_to_done(&mut client, status.session);
                assert_eq!(failures, 0, "{workflow}: no faults were injected");

                // The finished surrogate must score batches of configs.
                let done = client.status(status.session).expect("status");
                let best = done.best.expect("best config");
                let values = client
                    .predict(status.session, vec![best.clone(), best])
                    .expect("predict");
                assert_eq!(values.len(), 2);
                assert_eq!(values[0], values[1]);
                client.close_session(status.session).expect("close");
            })
        })
        .collect();

    let faulty = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect");
        let (status, _) = client
            .create_session(lv_params(21, 10), 0.4, 77)
            .expect("create faulty");
        let failures = drive_to_done(&mut client, status.session);
        assert!(
            failures > 0,
            "a 40% failure rate must surface at least one error frame"
        );
        client.close_session(status.session).expect("close");
        failures
    });

    for t in clean {
        t.join().expect("clean session thread");
    }
    let failures = faulty.join().expect("faulty session thread");

    let mut client = Client::connect(addr).expect("connect");
    let report = client.metrics().expect("metrics");
    assert_eq!(report.sessions_created, 4);
    assert_eq!(report.active_sessions, 0, "all sessions were closed");
    let advance = report
        .endpoints
        .iter()
        .find(|e| e.name == "advance")
        .expect("advance endpoint traffic");
    assert!(advance.errors >= failures as u64);

    client.shutdown().expect("shutdown");
    handle
        .join()
        .expect("graceful shutdown leaves no stuck threads");
}

/// Shutdown must drain: requests in flight complete, new campaigns are
/// never started, every connection is released, and `join` returns.
#[test]
fn graceful_shutdown_drains_and_joins() {
    let handle = start_server(None);
    let addr = handle.addr();

    let mut worker = Client::connect(addr).expect("connect worker");
    let (status, _) = worker
        .create_session(lv_params(31, 6), 0.0, 0)
        .expect("create");
    let mid = worker
        .advance(status.session, 2)
        .expect("advance pre-drain");
    assert_ne!(mid.state, "done");

    let mut controller = Client::connect(addr).expect("connect controller");
    controller.shutdown().expect("shutdown accepted");

    // While draining, a new campaign is either refused with a
    // `shutting-down` error frame or the connection has already been
    // released at its frame boundary — it must never be served.
    match worker.tune(lv_params(99, 6)) {
        Ok(_) => panic!("new campaign must not start while draining"),
        Err(e) => {
            if let Some(code) = e.code() {
                assert_eq!(code, "shutting-down");
            }
        }
    }

    drop(worker);
    drop(controller);
    handle
        .join()
        .expect("drained serve loop joins with no stuck threads");
}
