//! Helpers shared by the serve integration tests. Every test file is its
//! own crate and pulls this in with `mod common;`, using a subset.
#![allow(dead_code)]

use ceal_core::{Journal, JournalRecord, RetryPolicy};
use ceal_fleet::{TaskOutcome, TaskReport, TaskSpec};
use ceal_serve::{
    read_frame, run_worker, write_frame, AutotuneCache, Client, ClientError, Request, Response,
    ServeConfig, Server, ServerHandle, ServerMetrics, SessionManager, SessionStatus, TuneParams,
    WorkerConfig, WorkerSummary,
};
use ceal_testutil::unique_temp_path;
use ceal_trace::{FieldValue, Tracer};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
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
        tracer: Tracer::disabled(),
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

/// A registry that journals its sessions under `dir`.
pub fn journaled_manager(dir: &Path) -> SessionManager {
    SessionManager::new(Duration::from_secs(3600))
        .with_journal_dir(dir)
        .expect("journal dir")
}

/// `(config, attempt)` of the coupled runs among `records`, in order.
pub fn coupled_runs(records: &[JournalRecord]) -> Vec<(&Vec<i64>, u64)> {
    let coupled = records.iter().filter_map(|r| match r {
        JournalRecord::Coupled {
            config, attempt, ..
        } => Some((config, *attempt)),
        _ => None,
    });
    coupled.collect()
}

/// Record counts of the `journal.commit` events `tracer` has collected
/// since the last call, in commit order.
pub fn journal_commits(tracer: &Tracer) -> Vec<usize> {
    let events = tracer.drain_events();
    let commits = events.iter().filter(|e| e.name == "journal.commit");
    commits
        .map(|e| match e.fields.iter().find(|(k, _)| *k == "records") {
            Some((_, FieldValue::U64(n))) => *n as usize,
            other => panic!("journal.commit without a record count: {other:?}"),
        })
        .collect()
}

/// Where `dir` keeps the journal of session 1, the only one the byte-level
/// tests create per directory.
pub fn wal(dir: &Path) -> PathBuf {
    dir.join("session-1.wal")
}

/// Drives session 1 with `advance` until done, reading its journal's raw
/// bytes after the create and after every reply that left it on disk.
pub fn journal_after_each_reply(
    dir: &Path,
    mut advance: impl FnMut() -> SessionStatus,
) -> Vec<Vec<u8>> {
    let mut seen = vec![std::fs::read(wal(dir)).expect("journal after create")];
    while advance().state != "done" {
        seen.push(std::fs::read(wal(dir)).expect("journal of a live campaign"));
    }
    assert!(!wal(dir).exists(), "finishing retires the journal");
    seen
}

/// `(config, attempt)` of the coupled records in a journal's `bytes`, which
/// are what a reply left on disk: no torn tail.
pub fn coupled_on_disk(bytes: &[u8]) -> Vec<(Vec<i64>, u64)> {
    let copy = unique_temp_path("ceal-journal-copy", "wal");
    std::fs::write(&copy, bytes).unwrap();
    let report = Journal::open(&copy).unwrap().1;
    std::fs::remove_file(&copy).ok();
    assert_eq!(report.truncated_bytes, 0);
    let runs = coupled_runs(&report.records).into_iter();
    runs.map(|(config, attempt)| (config.clone(), attempt))
        .collect()
}

/// The campaign of the byte-level tests, run as session 1 of a fresh
/// journaled registry. Its bootstrap batch is three runs.
pub fn byte_campaign() -> TuneParams {
    params("exec", 14, 120, 41)
}

/// Journal snapshots of [`byte_campaign`] advanced in-process, `runs` at a
/// time: what any other way of driving it must write a prefix of.
pub fn advanced_by(runs: u64) -> Vec<Vec<u8>> {
    let dir = unique_temp_path("ceal-journal-bytes", "");
    let (cache, metrics) = (AutotuneCache::in_memory(), ServerMetrics::new());
    let mgr = journaled_manager(&dir);
    let (st, _) = mgr
        .create(byte_campaign(), 0.0, 0, &cache, &metrics)
        .unwrap();
    let handle = mgr.get(st.session).unwrap();
    let advance = || handle.lock().advance(runs, &cache, &metrics).unwrap();
    let seen = journal_after_each_reply(&dir, advance);
    std::fs::remove_dir_all(&dir).ok();
    seen
}

/// A fleet worker played by hand, one frame at a time.
pub struct RawWorker {
    stream: TcpStream,
    id: u64,
}

impl RawWorker {
    pub fn register(addr: SocketAddr, name: &str) -> RawWorker {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut worker = RawWorker { stream, id: 0 };
        worker.send(&Request::RegisterWorker { name: name.into() });
        match worker.recv() {
            Response::WorkerRegistered { worker: id, .. } => worker.id = id,
            other => panic!("registration answered {other:?}"),
        }
        worker
    }

    fn send(&mut self, req: &Request) {
        write_frame(&mut self.stream, &serde_json::to_vec(req).unwrap()).expect("send");
    }

    pub fn recv(&mut self) -> Response {
        let frame = read_frame(&mut self.stream).expect("answer");
        serde_json::from_slice(&frame).expect("a response")
    }

    /// Sends an empty poll and leaves its answer unread.
    pub fn poll(&mut self) {
        self.send(&Request::TaskResult {
            worker: self.id,
            results: vec![],
        });
    }

    pub fn assigned(&mut self) -> Vec<TaskSpec> {
        match self.recv() {
            Response::TaskAssign { tasks } => tasks,
            other => panic!("poll answered {other:?}"),
        }
    }

    /// Polls until it is handed tasks — which it then sits on.
    pub fn take_tasks(&mut self) -> Vec<TaskSpec> {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            self.poll();
            let tasks = self.assigned();
            if !tasks.is_empty() {
                return tasks;
            }
            assert!(Instant::now() < deadline, "never handed a task");
        }
    }

    /// Reports `tasks` as failed (the coordinator then measures them
    /// itself) and leaves the answer unread.
    pub fn give_up(&mut self, tasks: &[TaskSpec]) {
        let failed = |t: &TaskSpec| TaskReport {
            task: t.task,
            outcome: TaskOutcome::Failed {
                error: "played by hand".into(),
            },
        };
        self.send(&Request::TaskResult {
            worker: self.id,
            results: tasks.iter().map(failed).collect(),
        });
    }
}
