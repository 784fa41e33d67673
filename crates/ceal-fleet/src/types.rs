//! Fleet vocabulary shared by the coordinator, the serve wire protocol,
//! and the worker runtime.
//!
//! Everything here is serde-serializable because these types ride inside
//! `ceal-serve`'s JSON frames verbatim; the coordinator itself never
//! touches the wire.

use serde::{Deserialize, Serialize};

/// Coordinator-assigned worker identity, unique for the life of one
/// coordinator process. A worker that reconnects re-registers and gets a
/// fresh id; the stale id ages out via its lease.
pub type WorkerId = u64;

/// Coordinator-assigned task identity, unique for the life of one
/// coordinator process (re-scatters keep the task id).
pub type TaskId = u64;

/// One measurement assignment: everything a worker needs to reproduce the
/// coordinator's oracle bit-for-bit and run one coupled measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskSpec {
    /// Task identity; echoed back in the matching [`TaskReport`].
    pub task: TaskId,
    /// Session the measurement belongs to (coordinator-side bookkeeping;
    /// workers treat it as opaque).
    pub session: u64,
    /// Position of `config` in the session's candidate batch — gather
    /// results are keyed by this, so out-of-order completion is free.
    pub config_index: u64,
    /// Full parameter vector to measure.
    pub config: Vec<i64>,
    /// Workflow name (`LV`, `HS`, `GP`); the worker rebuilds the same
    /// simulator-backed oracle from this.
    pub workflow: String,
    /// Objective: `exec` or `comp`.
    pub objective: String,
    /// Base seed of the oracle's noise stream — identical on coordinator
    /// and workers, which is what makes fleet results bit-identical to
    /// local ones.
    pub oracle_seed: u64,
    /// Trace identifier of the originating session's campaign; the worker
    /// parents its measurement span here so one campaign yields one
    /// correlated trace across the whole fleet. Zero when the coordinator
    /// is untraced.
    pub trace: u64,
    /// Span identifier of the scatter batch that dispatched this task,
    /// inside `trace`. Zero when untraced.
    pub span: u64,
}

/// A worker's verdict on one task.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TaskOutcome {
    /// The measurement ran.
    Measured {
        /// Objective value.
        value: f64,
        /// Wall-clock execution time, seconds.
        exec_time: f64,
        /// Computer time, core-hours.
        computer_time: f64,
    },
    /// The measurement could not run (infeasible configuration, unknown
    /// workflow, backend failure). The coordinator falls back to measuring
    /// locally, where the same failure surfaces through the usual path.
    Failed {
        /// Human-readable cause.
        error: String,
    },
}

/// One completed task, reported on the worker's next poll.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskReport {
    /// The task this answers.
    pub task: TaskId,
    /// What happened.
    pub outcome: TaskOutcome,
}

/// Per-worker counters for the metrics endpoint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkerStats {
    /// Worker id.
    pub worker: WorkerId,
    /// Self-reported name (hostname, usually).
    pub name: String,
    /// Whether the worker's lease is current.
    pub live: bool,
    /// Tasks handed to this worker.
    pub dispatched: u64,
    /// Tasks it completed (measured or failed).
    pub completed: u64,
    /// Tasks it reported as failed.
    pub failed: u64,
    /// In-flight tasks taken back because this worker's lease expired.
    pub rescattered: u64,
    /// Milliseconds since the worker's last poll.
    pub heartbeat_lag_ms: u64,
}

/// Fleet-wide counters, embedded in the serve metrics report.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FleetReport {
    /// Workers with a current lease.
    pub live_workers: u64,
    /// Registrations since startup (re-registrations included).
    pub workers_registered: u64,
    /// Leases expired since startup.
    pub workers_lost: u64,
    /// Tasks handed to workers (re-scatters counted again).
    pub tasks_dispatched: u64,
    /// Task results applied.
    pub tasks_completed: u64,
    /// Task results reporting failure.
    pub tasks_failed: u64,
    /// In-flight tasks re-queued after a lease expiry.
    pub tasks_rescattered: u64,
    /// Results dropped because their task was already resolved (the
    /// re-scatter raced the original worker) or their batch was gone.
    pub duplicate_results: u64,
    /// Per-worker breakdown, registration order.
    pub workers: Vec<WorkerStats>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_types_round_trip_through_json() {
        let spec = TaskSpec {
            task: 7,
            session: 3,
            config_index: 12,
            config: vec![100, 20, 1, 50, 10, 1],
            workflow: "LV".into(),
            objective: "exec".into(),
            oracle_seed: 2021,
            trace: 0xfeed_beef,
            span: 3,
        };
        let json = serde_json::to_string(&spec).unwrap();
        assert_eq!(serde_json::from_str::<TaskSpec>(&json).unwrap(), spec);

        let report = TaskReport {
            task: 7,
            outcome: TaskOutcome::Measured {
                value: 1.5,
                exec_time: 2.0,
                computer_time: 0.5,
            },
        };
        let json = serde_json::to_string(&report).unwrap();
        assert_eq!(serde_json::from_str::<TaskReport>(&json).unwrap(), report);

        let fleet = FleetReport {
            live_workers: 2,
            workers: vec![WorkerStats {
                worker: 1,
                name: "w1".into(),
                live: true,
                dispatched: 4,
                completed: 3,
                failed: 0,
                rescattered: 0,
                heartbeat_lag_ms: 12,
            }],
            ..FleetReport::default()
        };
        let json = serde_json::to_string(&fleet).unwrap();
        assert_eq!(serde_json::from_str::<FleetReport>(&json).unwrap(), fleet);
    }
}
