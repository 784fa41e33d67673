//! Fleet measurement worker: the process that executes scattered tasks.
//!
//! A worker is a loop around one [`Client`] connection. It registers with
//! the coordinator, then polls with one request,
//! [`task_result`](Client::task_result): it carries the finished
//! measurements (none when the worker is idle), renews the lease and comes
//! back with newly assigned tasks. A poll that finds no work is a long
//! poll: the coordinator holds it until a scatter has tasks for it (or
//! half the lease has passed), so the worker learns of a task when there
//! is one, not at its next tick. Tasks are executed against a locally
//! rebuilt [`SimOracle`] keyed by `(workflow, objective, seed)`; because
//! the oracle is deterministic in that key, a worker's measurement is
//! bit-identical to what the coordinator would have measured itself, which
//! is what lets the coordinator fall back to local measurement for
//! anything the fleet fails to answer without changing the campaign.
//!
//! Failure handling mirrors the protocol's error vocabulary:
//!
//! * `unknown-worker` — the coordinator restarted or the lease aged out;
//!   re-register under a fresh id and keep any unreported results (the
//!   coordinator dedups by task id, so a raced re-scatter is harmless).
//! * `shutting-down` — the coordinator is draining; exit cleanly.
//! * transport errors — the client reconnects and resends under the
//!   worker's [`RetryPolicy`]; once that is exhausted the worker exits
//!   with the error.

use crate::client::{Client, ClientError};
use ceal_core::{RetryPolicy, SimOracle};
use ceal_fleet::{TaskOutcome, TaskReport, TaskSpec};
use ceal_sim::{Objective, Simulator};
use ceal_trace::{TraceContext, Tracer};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Worker runtime knobs.
pub struct WorkerConfig {
    /// Coordinator address (`host:port`).
    pub coordinator: String,
    /// Self-reported name, shown in per-worker metrics.
    pub name: String,
    /// Shortest spacing of idle polls: an empty answer that came back
    /// sooner than this (a coordinator that does not hold polls) is
    /// followed by a sleep for the remainder, so the worker never spins.
    /// Clamped to a third of the coordinator's lease so a healthy worker
    /// can never miss its lease by just being idle.
    pub poll_interval: Duration,
    /// Transport retry policy: connects, reconnects, and resends.
    pub retry: RetryPolicy,
    /// Cooperative stop flag for embedded workers (tests, benches);
    /// `None` runs until the coordinator goes away.
    pub stop: Option<Arc<AtomicBool>>,
    /// Trace sink for `oracle.measure` spans. Each span is parented on the
    /// trace/span the coordinator stamped into the [`TaskSpec`], so one
    /// campaign yields one correlated trace across the whole fleet.
    pub tracer: Tracer,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        Self {
            coordinator: "127.0.0.1:0".into(),
            name: "worker".into(),
            poll_interval: Duration::from_millis(100),
            retry: RetryPolicy::default(),
            stop: None,
            tracer: Tracer::disabled(),
        }
    }
}

/// What a worker did over its lifetime, returned when the loop exits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerSummary {
    /// Tasks measured successfully.
    pub executed: u64,
    /// Tasks answered with a failure outcome.
    pub failed: u64,
    /// Times the worker had to re-register under a fresh id.
    pub reregistrations: u64,
}

/// Oracles are rebuilt at most once per distinct task key; every campaign
/// a worker serves reuses its entry.
type OracleCache = HashMap<(String, String, u64), SimOracle>;

fn execute(cache: &mut OracleCache, task: &TaskSpec) -> TaskOutcome {
    let key = (
        task.workflow.clone(),
        task.objective.clone(),
        task.oracle_seed,
    );
    if !cache.contains_key(&key) {
        let Some(spec) = ceal_apps::workflow_by_name(&task.workflow) else {
            return TaskOutcome::Failed {
                error: format!("unknown workflow '{}'", task.workflow),
            };
        };
        let objective = match task.objective.as_str() {
            "exec" => Objective::ExecutionTime,
            "comp" => Objective::ComputerTime,
            other => {
                return TaskOutcome::Failed {
                    error: format!("unknown objective '{other}'"),
                }
            }
        };
        cache.insert(
            key.clone(),
            SimOracle::new(Simulator::new(), spec, objective, task.oracle_seed),
        );
    }
    match cache[&key].try_measure(&task.config) {
        Ok(m) => TaskOutcome::Measured {
            value: m.value,
            exec_time: m.exec_time,
            computer_time: m.computer_time,
        },
        Err(e) => TaskOutcome::Failed {
            error: e.to_string(),
        },
    }
}

fn should_stop(cfg: &WorkerConfig) -> bool {
    cfg.stop.as_ref().is_some_and(|s| s.load(Ordering::Acquire))
}

/// Runs the worker loop until the coordinator drains, the stop flag is
/// raised, or the transport gives out.
pub fn run_worker(cfg: WorkerConfig) -> Result<WorkerSummary, ClientError> {
    let mut summary = WorkerSummary::default();
    let mut oracles = OracleCache::new();
    let mut pending: Vec<TaskReport> = Vec::new();
    let mut client = Client::connect_with_retry(&cfg.coordinator, cfg.retry.clone())?;
    let (mut worker, lease_ms) = client.register_worker(&cfg.name)?;
    // A silent coordinator must not pin the worker in `read` past the
    // point where re-registering is the right move anyway.
    client.set_timeout(Some(Duration::from_millis(lease_ms.max(1000) * 4)))?;
    let idle_tick = cfg
        .poll_interval
        .min(Duration::from_millis(lease_ms / 3).max(Duration::from_millis(5)));
    loop {
        if should_stop(&cfg) {
            return Ok(summary);
        }
        let asked = Instant::now();
        let tasks = match client.task_result(worker, pending.clone()) {
            Ok(tasks) => {
                pending.clear();
                tasks
            }
            Err(ClientError::Server { code, .. }) if code == "unknown-worker" => {
                let (fresh, _) = client.register_worker(&cfg.name)?;
                worker = fresh;
                summary.reregistrations += 1;
                continue;
            }
            Err(ClientError::Server { code, .. }) if code == "shutting-down" => {
                return Ok(summary);
            }
            // Fleet control traffic is normally shed-exempt, but an
            // overload answer can still surface (e.g. through a retry
            // policy with no headroom). Back off and keep the worker
            // alive: pending results stay queued for the next poll.
            Err(ClientError::Overloaded { retry_after_ms }) => {
                std::thread::sleep(Duration::from_millis(retry_after_ms.min(1_000)));
                continue;
            }
            Err(e) => return Err(e),
        };
        if tasks.is_empty() {
            // A held poll took its time already.
            std::thread::sleep(idle_tick.saturating_sub(asked.elapsed()));
            continue;
        }
        for task in &tasks {
            if should_stop(&cfg) {
                // Unreported work is not lost: the lease expires and the
                // coordinator re-scatters it.
                return Ok(summary);
            }
            let mut span = cfg.tracer.span(
                "oracle.measure",
                TraceContext {
                    trace: task.trace,
                    span: task.span,
                },
            );
            span.field("source", "worker");
            span.field("task", task.task);
            span.field("session", task.session);
            span.field("idx", task.config_index);
            let outcome = execute(&mut oracles, task);
            match &outcome {
                TaskOutcome::Measured { value, .. } => {
                    summary.executed += 1;
                    span.field("value", *value);
                }
                TaskOutcome::Failed { error } => {
                    summary.failed += 1;
                    span.field("error", error.as_str());
                }
            }
            drop(span);
            pending.push(TaskReport {
                task: task.task,
                outcome,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(config: Vec<i64>) -> TaskSpec {
        TaskSpec {
            task: 1,
            session: 1,
            config_index: 0,
            config,
            workflow: "LV".into(),
            objective: "exec".into(),
            oracle_seed: crate::session::ORACLE_BASE_SEED,
            trace: 0,
            span: 0,
        }
    }

    #[test]
    fn execute_matches_a_local_oracle_bit_for_bit() {
        let spec = ceal_apps::workflow_by_name("LV").unwrap();
        let local = SimOracle::new(
            Simulator::new(),
            spec,
            Objective::ExecutionTime,
            crate::session::ORACLE_BASE_SEED,
        );
        let cfg = vec![100, 20, 1, 50, 10, 1];
        let want = local.try_measure(&cfg).unwrap();
        let mut cache = OracleCache::new();
        match execute(&mut cache, &task(cfg)) {
            TaskOutcome::Measured {
                value,
                exec_time,
                computer_time,
            } => {
                assert_eq!(value, want.value);
                assert_eq!(exec_time, want.exec_time);
                assert_eq!(computer_time, want.computer_time);
            }
            other => panic!("expected a measurement, got {other:?}"),
        }
    }

    #[test]
    fn execute_reports_failures_instead_of_dying() {
        let mut cache = OracleCache::new();
        let mut bad = task(vec![100, 20, 1, 50, 10, 1]);
        bad.workflow = "NOPE".into();
        assert!(matches!(
            execute(&mut cache, &bad),
            TaskOutcome::Failed { .. }
        ));
        let mut bad = task(vec![100, 20, 1, 50, 10, 1]);
        bad.objective = "latency".into();
        assert!(matches!(
            execute(&mut cache, &bad),
            TaskOutcome::Failed { .. }
        ));
        // An infeasible configuration is a failure outcome, not a panic.
        assert!(matches!(
            execute(&mut cache, &task(vec![1085, 1, 1, 1085, 1, 1])),
            TaskOutcome::Failed { .. }
        ));
    }
}
