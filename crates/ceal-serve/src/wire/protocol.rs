//! Wire protocol: the request/response vocabulary of the tuning service.
//!
//! Everything on the wire is one JSON document per frame (see
//! [`crate::frame`]), serialized from these enums with serde's
//! externally-tagged layout. The protocol is versioned by
//! [`PROTOCOL_VERSION`]; [`Request::Ping`] echoes it so clients can detect
//! a mismatched server before doing real work.

use ceal_fleet::{FleetReport, TaskReport, TaskSpec};
use serde::{Deserialize, Serialize};

/// Bumped on any change to [`Request`] or [`Response`], or to what a
/// request means (10: `Health` is gone, folded into `Metrics`, which
/// gains its load fields and loses the cache breaker's; 9: `Metrics` and
/// `Health` lose the oracle breaker's fields; 8: a session runs the
/// algorithm `TuneParams.algo` names). There is no cross-version
/// compatibility: [`Client::connect`](crate::Client::connect) pings first
/// and refuses any server whose version is not *equal* to its own, so
/// every field below is required on the wire.
pub const PROTOCOL_VERSION: u32 = 10;

/// Parameters shared by one-shot tuning and session creation.
///
/// They mirror the `tune` CLI flags one-to-one: a `(workflow, objective,
/// budget, pool, seed, algo)` tuple fully determines a tuning run, which is
/// what makes results cacheable across clients.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TuneParams {
    /// Workflow name: `LV`, `HS`, or `GP`.
    pub workflow: String,
    /// Objective: `exec` (execution time) or `comp` (computer time).
    pub objective: String,
    /// Coupled workflow-run budget.
    pub budget: u64,
    /// Candidate-pool size.
    pub pool: u64,
    /// Seed controlling pool sampling and every tuner choice.
    pub seed: u64,
    /// Algorithm: `ceal`, `al`, `rs`, `geist`, `alph`, `bo`, or `rl`.
    pub algo: String,
}

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Liveness / version check.
    Ping,
    /// Run a complete tuning campaign and return the recommendation.
    /// Answered from the persistent cache when an identical campaign has
    /// already completed.
    Tune(TuneParams),
    /// Open an incremental tuning session.
    CreateSession {
        /// Campaign parameters (same vocabulary as [`Request::Tune`]).
        params: TuneParams,
        /// Probability in `[0, 1)` that a coupled measurement attempt
        /// crashes (server-side fault injection for testing collectors).
        failure_rate: f64,
        /// Seed for the injected-fault stream.
        fault_seed: u64,
    },
    /// Spend up to `runs` coupled measurements advancing a session through
    /// its phases.
    Advance {
        /// Session ID from [`Response::SessionCreated`].
        session: u64,
        /// Maximum coupled runs to spend in this step.
        runs: u64,
    },
    /// Report a session's current phase and progress.
    Status {
        /// Session ID.
        session: u64,
    },
    /// Score configurations with a session's trained surrogate (batched,
    /// fanned out over the server's thread pool).
    Predict {
        /// Session ID.
        session: u64,
        /// Full parameter vectors to score.
        configs: Vec<Vec<i64>>,
    },
    /// Measure one ad-hoc configuration with a session's oracle. Infeasible
    /// configurations produce an error frame, never a dead worker.
    Measure {
        /// Session ID.
        session: u64,
        /// Full parameter vector.
        config: Vec<i64>,
    },
    /// Contribute historical component samples to a session (`D_hist`,
    /// paper §7.5). Shape mismatches produce an error frame.
    PushHistory {
        /// Session ID.
        session: u64,
        /// `samples[j]` holds `(values, objective_value)` pairs for
        /// component `j`.
        samples: Vec<Vec<(Vec<i64>, f64)>>,
    },
    /// Close a session, releasing its state.
    CloseSession {
        /// Session ID.
        session: u64,
    },
    /// The server's one snapshot: per-endpoint counters and latency
    /// histograms, cache, fleet and session counters, and the admission
    /// state. Exempt from load shedding so operators can always see why
    /// the server is saying [`Response::Busy`].
    Metrics,
    /// Stop accepting connections, drain in-flight work, and exit the
    /// serve loop.
    Shutdown,
    /// Join the measurement fleet. Answered with
    /// [`Response::WorkerRegistered`] carrying the worker's id and lease.
    RegisterWorker {
        /// Self-reported worker name (hostname, usually); shown in
        /// per-worker metrics.
        name: String,
    },
    /// Renew the worker's lease and fetch work. Answered with
    /// [`Response::TaskAssign`] (possibly empty). The fleet is strictly
    /// pull-based: the coordinator never pushes frames, so the heartbeat
    /// doubles as the task fetch.
    Heartbeat {
        /// Worker id from [`Response::WorkerRegistered`].
        worker: u64,
    },
    /// Deliver completed measurements; also renews the lease and fetches
    /// more work, so a busy worker never sends a separate heartbeat.
    TaskResult {
        /// Worker id from [`Response::WorkerRegistered`].
        worker: u64,
        /// Outcomes for previously assigned tasks, any order.
        results: Vec<TaskReport>,
    },
}

/// One session's externally visible progress.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionStatus {
    /// Session ID.
    pub session: u64,
    /// Phase name: `created`, `collecting-history`, `bootstrapping`,
    /// `refining`, or `done`.
    pub state: String,
    /// Coupled runs still available.
    pub budget_left: u64,
    /// Coupled measurements taken so far.
    pub measured: u64,
    /// Historical component samples held.
    pub history_samples: u64,
    /// The surrogate's recommended configuration (once fitted).
    pub best: Option<Vec<i64>>,
    /// The surrogate's score for `best` (lower is better).
    pub best_value: Option<f64>,
    /// How the campaign was warmed from the cache: `exact` (identical
    /// campaign replayed, zero oracle spend), `transfer` (bootstrap seeded
    /// from a near-miss sibling platform's samples), or `cold`.
    pub warm_source: String,
    /// The campaign's trace identifier (16 hex digits), for correlating
    /// this session's spans across the coordinator and fleet workers.
    /// Empty when tracing is disabled.
    pub trace: String,
}

/// Latency and error counters for one endpoint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EndpointStats {
    /// Endpoint name (matches the [`Request`] variant, kebab-case).
    pub name: String,
    /// Requests handled.
    pub count: u64,
    /// Requests answered with an error frame.
    pub errors: u64,
    /// Total handling time, microseconds.
    pub total_us: u64,
    /// Median handling latency, microseconds (HDR estimate, ≤3.2 %
    /// relative error).
    pub p50_us: u64,
    /// 99th-percentile handling latency, microseconds.
    pub p99_us: u64,
    /// 99.9th-percentile handling latency, microseconds.
    pub p999_us: u64,
}

/// The `metrics` endpoint's payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsReport {
    /// Per-endpoint counters, one entry per endpoint that has seen
    /// traffic.
    pub endpoints: Vec<EndpointStats>,
    /// Oracle measurements spent (coupled + solo) across all requests.
    pub oracle_measurements: u64,
    /// Tune/session requests answered from the persistent cache.
    pub cache_hits: u64,
    /// Tune/session requests that had to run the tuner.
    pub cache_misses: u64,
    /// Sessions opened since startup.
    pub sessions_created: u64,
    /// Sessions evicted for idleness.
    pub sessions_evicted: u64,
    /// Sessions rebuilt from their on-disk journals at startup.
    pub sessions_rebuilt: u64,
    /// Completed campaigns the cache failed to persist to disk (still
    /// served from memory).
    pub cache_persist_failures: u64,
    /// Sessions seeded from a near-miss sibling platform's cached
    /// campaign.
    pub cache_transfer_seeded: u64,
    /// Cache lookups answered by the in-memory LRU front.
    pub cache_lru_hits: u64,
    /// Cache lookups that had to consult a shard on disk.
    pub cache_lru_misses: u64,
    /// Entries evicted from the LRU front to stay under capacity.
    pub cache_lru_evictions: u64,
    /// Entries currently resident in the LRU front.
    pub cache_lru_len: u64,
    /// Sessions currently live.
    pub active_sessions: u64,
    /// Measurement-fleet counters (all-zero when no worker ever
    /// registered).
    pub fleet: FleetReport,
    /// Requests answered with [`Response::Busy`] because the dispatch
    /// queue crossed its high watermark.
    pub requests_shed: u64,
    /// Connections refused at accept because the live-connection cap was
    /// reached.
    pub connections_rejected: u64,
    /// Milliseconds since the server started.
    pub uptime_ms: u64,
    /// Connections currently admitted.
    pub live_connections: u64,
    /// Admission cap on live connections.
    pub max_connections: u64,
    /// Requests currently queued or executing on the dispatch pool.
    pub dispatch_in_flight: u64,
    /// Shedding starts when `dispatch_in_flight` reaches this.
    pub dispatch_high_watermark: u64,
    /// Shedding stops once `dispatch_in_flight` falls back to this.
    pub dispatch_low_watermark: u64,
    /// Whether the server is currently shedding sheddable requests.
    pub shedding: bool,
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Reply to [`Request::Ping`].
    Pong {
        /// Server's [`PROTOCOL_VERSION`].
        version: u32,
    },
    /// Reply to [`Request::Tune`].
    TuneResult {
        /// Recommended configuration (full parameter vector).
        best: Vec<i64>,
        /// Measured objective value of `best`.
        best_value: f64,
        /// Coupled runs the tuner consumed.
        runs_used: u64,
        /// Standalone component runs the tuner consumed.
        component_runs: u64,
        /// Whether the answer came from the persistent cache.
        from_cache: bool,
    },
    /// Reply to [`Request::CreateSession`].
    SessionCreated {
        /// Status of the new session; warm-cache sessions start `done`.
        status: SessionStatus,
        /// Whether the session was bootstrapped from the persistent cache
        /// (surrogate refitted from cached samples, zero oracle spend).
        from_cache: bool,
    },
    /// Reply to [`Request::Advance`] / [`Request::Status`] /
    /// [`Request::PushHistory`].
    Session(SessionStatus),
    /// Reply to [`Request::Predict`]: scores aligned with the request's
    /// configs (lower predicted value = better).
    Predictions {
        /// Predicted objective values.
        values: Vec<f64>,
    },
    /// Reply to [`Request::Measure`].
    Measured {
        /// Objective value.
        value: f64,
        /// Wall-clock execution time, seconds.
        exec_time: f64,
        /// Computer time, core-hours.
        computer_time: f64,
    },
    /// Reply to [`Request::Metrics`].
    Metrics(MetricsReport),
    /// Typed load shedding: the server is over its dispatch watermark (or
    /// connection cap) and declined this request without doing work. The
    /// connection stays usable; retry after the suggested delay.
    Busy {
        /// Server-suggested delay before retrying, milliseconds — scaled
        /// to the current queue depth so a deep backlog pushes clients
        /// further out.
        retry_after_ms: u64,
    },
    /// Reply to [`Request::RegisterWorker`].
    WorkerRegistered {
        /// Coordinator-assigned worker id; quote it on every poll.
        worker: u64,
        /// Lease duration, milliseconds. A worker that stays silent longer
        /// is marked dead and its in-flight tasks are re-scattered.
        lease_ms: u64,
    },
    /// Reply to [`Request::Heartbeat`] / [`Request::TaskResult`]: newly
    /// assigned work (often empty).
    TaskAssign {
        /// Tasks for this worker to execute, any order.
        tasks: Vec<TaskSpec>,
    },
    /// Generic acknowledgement (close, shutdown).
    Ok,
    /// Any failure: the request was understood but could not be served.
    /// The connection stays usable.
    Error {
        /// Stable machine-readable code: `bad-request`, `unknown-session`,
        /// `unknown-worker`, `not-ready`, `infeasible`,
        /// `measurement-failed`, `history-mismatch`, `shutting-down`, or
        /// `internal`.
        code: String,
        /// Human-readable detail.
        message: String,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips_through_json() {
        let reqs = vec![
            Request::Ping,
            Request::Tune(TuneParams {
                workflow: "LV".into(),
                objective: "comp".into(),
                budget: 25,
                pool: 500,
                seed: 7,
                algo: "ceal".into(),
            }),
            Request::Advance {
                session: 3,
                runs: 10,
            },
            Request::Predict {
                session: 3,
                configs: vec![vec![100, 20, 1, 50, 10, 1]],
            },
            Request::PushHistory {
                session: 3,
                samples: vec![vec![(vec![4, 2], 1.5)], vec![]],
            },
            Request::RegisterWorker {
                name: "worker-a".into(),
            },
            Request::Heartbeat { worker: 2 },
            Request::TaskResult {
                worker: 2,
                results: vec![TaskReport {
                    task: 9,
                    outcome: ceal_fleet::TaskOutcome::Measured {
                        value: 1.0,
                        exec_time: 2.0,
                        computer_time: 0.25,
                    },
                }],
            },
            Request::Shutdown,
            Request::Metrics,
        ];
        for req in reqs {
            let json = serde_json::to_string(&req).unwrap();
            let back: Request = serde_json::from_str(&json).unwrap();
            assert_eq!(back, req, "round trip failed for {json}");
        }
    }

    #[test]
    fn response_round_trips_through_json() {
        let resps = vec![
            Response::Pong {
                version: PROTOCOL_VERSION,
            },
            Response::TuneResult {
                best: vec![18, 18, 2, 18, 18, 2],
                best_value: 1.25,
                runs_used: 25,
                component_runs: 40,
                from_cache: true,
            },
            Response::Session(SessionStatus {
                session: 1,
                state: "refining".into(),
                budget_left: 5,
                measured: 20,
                history_samples: 12,
                best: Some(vec![1, 2]),
                best_value: Some(0.5),
                warm_source: "cold".into(),
                trace: "9f2c51aa03b7e4d1".into(),
            }),
            Response::Session(SessionStatus {
                session: 2,
                state: "created".into(),
                budget_left: 25,
                measured: 0,
                history_samples: 0,
                best: None,
                best_value: None,
                warm_source: "transfer".into(),
                trace: String::new(),
            }),
            Response::WorkerRegistered {
                worker: 4,
                lease_ms: 1500,
            },
            Response::TaskAssign {
                tasks: vec![TaskSpec {
                    task: 9,
                    session: 1,
                    config_index: 0,
                    config: vec![100, 20, 1, 50, 10, 1],
                    workflow: "LV".into(),
                    objective: "comp".into(),
                    oracle_seed: 2021,
                    trace: 0x9f2c_51aa_03b7_e4d1,
                    span: 7,
                }],
            },
            Response::Error {
                code: "infeasible".into(),
                message: "nope".into(),
            },
            Response::Busy { retry_after_ms: 75 },
            Response::Metrics(MetricsReport {
                endpoints: vec![EndpointStats {
                    name: "tune".into(),
                    count: 4,
                    errors: 1,
                    total_us: 9_000,
                    p50_us: 2_000,
                    p99_us: 4_000,
                    p999_us: 4_000,
                }],
                oracle_measurements: 75,
                cache_hits: 1,
                cache_misses: 3,
                sessions_created: 2,
                sessions_evicted: 0,
                sessions_rebuilt: 1,
                cache_persist_failures: 0,
                cache_transfer_seeded: 1,
                cache_lru_hits: 5,
                cache_lru_misses: 2,
                cache_lru_evictions: 0,
                cache_lru_len: 3,
                active_sessions: 1,
                fleet: FleetReport::default(),
                requests_shed: 41,
                connections_rejected: 2,
                uptime_ms: 12_000,
                live_connections: 3,
                max_connections: 16_384,
                dispatch_in_flight: 17,
                dispatch_high_watermark: 16,
                dispatch_low_watermark: 8,
                shedding: true,
            }),
        ];
        for resp in resps {
            let json = serde_json::to_string(&resp).unwrap();
            let back: Response = serde_json::from_str(&json).unwrap();
            assert_eq!(back, resp, "round trip failed for {json}");
        }
    }
}
