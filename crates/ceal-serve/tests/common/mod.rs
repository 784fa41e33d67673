//! Helpers shared by the serve integration tests. Every test file is its
//! own crate and pulls this in with `mod common;`, using a subset.
#![allow(dead_code)]

use ceal_core::RetryPolicy;
use ceal_serve::{
    run_worker, AutotuneCache, Client, ClientError, ServeConfig, Server, ServerHandle,
    ServerMetrics, SessionManager, SessionStatus, TuneParams, WorkerConfig, WorkerSummary,
};
use std::net::SocketAddr;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// An LV campaign tuned by CEAL.
pub fn params(objective: &str, budget: u64, pool: u64, seed: u64) -> TuneParams {
    TuneParams {
        workflow: "LV".into(),
        objective: objective.into(),
        budget,
        pool,
        seed,
        algo: "ceal".into(),
    }
}

/// Binds `config` and serves it on a background thread.
pub fn start_server(config: ServeConfig) -> ServerHandle {
    Server::bind(config).expect("bind loopback").spawn()
}

/// An in-process fleet worker's configuration: polls fast, gives up on a
/// dead coordinator at once, stops when `stop` is raised.
pub fn worker_config(addr: SocketAddr, name: &str, stop: Arc<AtomicBool>) -> WorkerConfig {
    WorkerConfig {
        coordinator: addr.to_string(),
        name: name.to_string(),
        poll_interval: Duration::from_millis(5),
        retry: RetryPolicy::no_delay(3),
        stop: Some(stop),
        tracer: ceal_trace::Tracer::disabled(),
    }
}

/// A fleet worker on its own thread; joining it yields its summary.
pub type Worker = JoinHandle<Result<WorkerSummary, ClientError>>;

/// Runs a worker under `cfg` on a background thread.
pub fn spawn_worker(cfg: WorkerConfig) -> Worker {
    std::thread::spawn(move || run_worker(cfg))
}

/// Polls `Metrics` until exactly `n` workers hold live leases.
pub fn wait_for_live_workers(client: &mut Client, n: u64) {
    let deadline = Instant::now() + Duration::from_secs(15);
    while client.metrics().expect("metrics").fleet.live_workers != n {
        assert!(
            Instant::now() < deadline,
            "fleet never reached {n} live workers"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Advances `session` over the wire, `chunk` runs at a time, until `done`.
pub fn drive_to_done(client: &mut Client, session: u64, chunk: u64) -> SessionStatus {
    for _ in 0..200 {
        let status = client.advance(session, chunk).expect("advance");
        if status.state == "done" {
            return status;
        }
    }
    panic!("session {session} never reached done");
}

/// [`drive_to_done`] for a session of an in-process registry.
pub fn drive_session_to_done(
    mgr: &SessionManager,
    session: u64,
    cache: &AutotuneCache,
    metrics: &ServerMetrics,
) -> SessionStatus {
    let handle = mgr.get(session).expect("session exists");
    for _ in 0..200 {
        let status = handle.lock().advance(4, cache, metrics).expect("advance");
        if status.state == "done" {
            return status;
        }
    }
    panic!("session {session} never reached done");
}
