//! The coordinator: worker registry, poll leases, and the
//! scatter/gather measurement scheduler.
//!
//! One [`Coordinator`] lives inside the serve process. Request handlers
//! call [`Coordinator::register`] and [`Coordinator::poll_or_hold`] on
//! behalf of worker connections; session code calls
//! [`Coordinator::scatter`] to fan a measurement batch out and
//! [`Coordinator::gather`] to take what came back. Nothing here blocks: a
//! poll that finds no work is *held*, a scattered batch is *waited on* by
//! whoever scattered it, and the coordinator tells its host when either
//! wait is over through the [`Wake`]s it posts to [`Coordinator::on_wake`]
//! — an answer for a held poll, a batch with nothing left to wait for.
//! What bounds the waits in time (half a lease for a hold, the gather
//! deadline for a batch) is the host's clock, not a thread parked here.
//!
//! All state sits behind one mutex — scheduling work is tiny compared to
//! measurements, so contention is not a concern, and a single lock makes
//! the re-scatter/dedup invariants easy to audit. Wakes are posted after
//! the lock is released.

use crate::types::{FleetReport, TaskId, TaskOutcome, TaskReport, TaskSpec, WorkerId, WorkerStats};
use ceal_core::RetryPolicy;
use ceal_par::sync::Mutex;
use ceal_trace::{Span, TraceContext, Tracer};
use std::collections::{HashMap, VecDeque};
use std::sync::{MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// Tuning knobs for the fleet.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// A worker silent for longer than this is dead: its lease has
    /// expired and its in-flight tasks are re-scattered.
    pub lease: Duration,
    /// Most tasks handed out per poll. Small values spread a batch across
    /// the fleet; large ones amortize polling on big batches.
    pub tasks_per_poll: usize,
    /// Attempt budget per task across re-scatters, shared vocabulary with
    /// every other retry site in the workspace. A task that has been
    /// scattered `max_attempts` times and still has no result is handed
    /// back to the caller as unmeasured instead of looping forever.
    pub rescatter: RetryPolicy,
    /// How long the host waits on a scattered batch before it calls
    /// [`Coordinator::gather`] anyway and measures the stragglers itself.
    pub gather_deadline: Duration,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            lease: Duration::from_millis(1500),
            tasks_per_poll: 4,
            rescatter: RetryPolicy::no_delay(3),
            gather_deadline: Duration::from_secs(15),
        }
    }
}

/// Why a worker call was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetError {
    /// The worker id is not registered (coordinator restarted, or the
    /// lease expired and the registry was compacted). The worker should
    /// re-register.
    UnknownWorker(WorkerId),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnknownWorker(id) => write!(f, "unknown worker {id} (re-register)"),
        }
    }
}

impl std::error::Error for FleetError {}

/// What a gather produced.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GatherOutcome {
    /// Applied results, keyed by the batch's config index. At most one
    /// entry per index, whatever the workers raced to.
    pub results: Vec<(u64, TaskOutcome)>,
    /// `(config_index, config)` pairs the fleet could not answer — no
    /// live workers, attempts exhausted, or the caller stopped waiting.
    /// The caller measures these locally.
    pub unmeasured: Vec<(u64, Vec<i64>)>,
}

/// A wait that is over, posted to the host ([`Coordinator::on_wake`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Wake {
    /// The poll held under `key` has work: answer it with `tasks`.
    Poll {
        /// The key [`Coordinator::poll_or_hold`] was given.
        key: u64,
        /// The tasks now in flight at that worker.
        tasks: Vec<TaskSpec>,
    },
    /// This batch has nothing left to wait for — every task answered or
    /// given up on, or no live worker left to answer: gather it.
    Batch(u64),
}

#[derive(Debug, Default)]
struct WorkerCounters {
    dispatched: u64,
    completed: u64,
    failed: u64,
    rescattered: u64,
}

struct WorkerState {
    name: String,
    last_seen: Instant,
    live: bool,
    stats: WorkerCounters,
}

struct QueuedTask {
    spec: TaskSpec,
    /// Times this task has been handed to a worker.
    attempts: u32,
}

struct InFlight {
    spec: TaskSpec,
    attempts: u32,
    worker: WorkerId,
}

struct Batch {
    /// Tasks still unresolved (queued or in flight).
    pending: u64,
    /// Resolved results by config index.
    results: HashMap<u64, TaskOutcome>,
    /// Tasks given up on, for the caller's local fallback.
    unmeasured: Vec<(u64, Vec<i64>)>,
    /// The `fleet.gather` span: opened when the batch was scattered, on
    /// the scatter span, and ended by the gather that takes the batch.
    span: Span,
}

#[derive(Default)]
struct Counters {
    workers_registered: u64,
    workers_lost: u64,
    tasks_dispatched: u64,
    tasks_completed: u64,
    tasks_failed: u64,
    tasks_rescattered: u64,
    duplicate_results: u64,
}

struct State {
    workers: HashMap<WorkerId, WorkerState>,
    /// Registration order, for stable metrics output.
    worker_order: Vec<WorkerId>,
    queue: VecDeque<QueuedTask>,
    in_flight: HashMap<TaskId, InFlight>,
    batches: HashMap<u64, Batch>,
    task_batch: HashMap<TaskId, u64>,
    /// Polls that found the queue empty, oldest first, as `(worker, key)`.
    /// A held worker is alive by construction: its lease does not run.
    held: VecDeque<(WorkerId, u64)>,
    /// Wakes raised under the lock, posted once it is released.
    wakes: Vec<Wake>,
    next_worker: WorkerId,
    next_task: TaskId,
    next_batch: u64,
    counters: Counters,
}

impl State {
    fn any_live(&self) -> bool {
        self.workers.values().any(|w| w.live)
    }

    /// One task of `batch_id` is resolved; the last one wakes the waiter.
    fn resolve_one(&mut self, batch_id: u64) {
        if let Some(b) = self.batches.get_mut(&batch_id) {
            b.pending = b.pending.saturating_sub(1);
            if b.pending == 0 {
                self.wakes.push(Wake::Batch(batch_id));
            }
        }
    }
}

/// The fleet coordinator. See the [module docs](self).
pub struct Coordinator {
    cfg: FleetConfig,
    tracer: Tracer,
    state: Mutex<State>,
    /// Where wakes go; without a host nobody waits and they are dropped.
    waker: OnceLock<Box<dyn Fn(Wake) + Send + Sync>>,
}

impl Coordinator {
    /// Creates an empty fleet under `cfg`, untraced.
    pub fn new(cfg: FleetConfig) -> Self {
        Self::with_tracer(cfg, Tracer::disabled())
    }

    /// Creates an empty fleet under `cfg` that records scatter/gather
    /// spans and lease-expiry warnings through `tracer`.
    pub fn with_tracer(cfg: FleetConfig, tracer: Tracer) -> Self {
        Self {
            cfg,
            tracer,
            state: Mutex::new(State {
                workers: HashMap::new(),
                worker_order: Vec::new(),
                queue: VecDeque::new(),
                in_flight: HashMap::new(),
                batches: HashMap::new(),
                task_batch: HashMap::new(),
                held: VecDeque::new(),
                wakes: Vec::new(),
                next_worker: 1,
                next_task: 1,
                next_batch: 1,
                counters: Counters::default(),
            }),
            waker: OnceLock::new(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    /// Installs the host's wake sink, once; later calls are ignored. It is
    /// called with no coordinator lock held, from whichever thread's call
    /// ended the wait.
    pub fn on_wake(&self, sink: impl Fn(Wake) + Send + Sync + 'static) {
        let _ = self.waker.set(Box::new(sink));
    }

    /// Releases the lock, then posts what was raised under it.
    fn unlock(&self, mut s: MutexGuard<'_, State>) {
        let wakes = std::mem::take(&mut s.wakes);
        drop(s);
        if let Some(sink) = self.waker.get() {
            wakes.into_iter().for_each(sink);
        }
    }

    /// Registers a worker; returns its id and its lease in
    /// milliseconds (the worker must poll well within it).
    pub fn register(&self, name: &str) -> (WorkerId, u64) {
        let mut s = self.state.lock();
        let id = s.next_worker;
        s.next_worker += 1;
        s.workers.insert(
            id,
            WorkerState {
                name: name.to_string(),
                last_seen: Instant::now(),
                live: true,
                stats: WorkerCounters::default(),
            },
        );
        s.worker_order.push(id);
        s.counters.workers_registered += 1;
        (id, self.cfg.lease.as_millis() as u64)
    }

    /// One worker poll: renews the lease, ingests `reports`, and hands
    /// back up to [`FleetConfig::tasks_per_poll`] queued tasks.
    pub fn poll(
        &self,
        worker: WorkerId,
        reports: Vec<TaskReport>,
    ) -> Result<Vec<TaskSpec>, FleetError> {
        let mut s = self.state.lock();
        let polled = self.poll_locked(&mut s, worker, reports);
        self.unlock(s);
        polled
    }

    /// [`Coordinator::poll`] for a host that can answer later: a poll that
    /// finds the queue empty is held under `key` and comes back `None`. It
    /// ends with a [`Wake::Poll`] once a scatter (or a re-scatter) has
    /// tasks for it, or with the host's [`Coordinator::release`]. The
    /// worker's lease does not run while it is held.
    pub fn poll_or_hold(
        &self,
        worker: WorkerId,
        reports: Vec<TaskReport>,
        key: u64,
    ) -> Result<Option<Vec<TaskSpec>>, FleetError> {
        let mut s = self.state.lock();
        let polled = self.poll_locked(&mut s, worker, reports).map(|tasks| {
            if !tasks.is_empty() {
                return Some(tasks);
            }
            // One outstanding poll per worker: an earlier hold is a
            // connection the worker has abandoned.
            s.held.retain(|&(w, _)| w != worker);
            s.held.push_back((worker, key));
            None
        });
        self.unlock(s);
        polled
    }

    /// Ends the hold under `key` without work — it timed out, or its
    /// connection died. `false` when nothing is held under `key`: it was
    /// never held, or a [`Wake::Poll`] for it is already posted.
    pub fn release(&self, key: u64) -> bool {
        let mut s = self.state.lock();
        let Some(pos) = s.held.iter().position(|&(_, k)| k == key) else {
            return false;
        };
        if let Some((worker, _)) = s.held.remove(pos) {
            if let Some(w) = s.workers.get_mut(&worker) {
                w.last_seen = Instant::now();
            }
        }
        true
    }

    fn poll_locked(
        &self,
        s: &mut State,
        worker: WorkerId,
        reports: Vec<TaskReport>,
    ) -> Result<Vec<TaskSpec>, FleetError> {
        self.reap_dead(s);
        let w = s
            .workers
            .get_mut(&worker)
            .ok_or(FleetError::UnknownWorker(worker))?;
        w.last_seen = Instant::now();
        // A worker back from a lease expiry (a long GC pause, a network
        // blip) resumes where it was; its re-scattered tasks resolve
        // through dedup.
        w.live = true;
        for report in reports {
            Self::apply_report(s, worker, report);
        }
        Ok(Self::assign(s, worker, self.cfg.tasks_per_poll))
    }

    /// Moves up to `limit` queued tasks in flight at `worker`.
    fn assign(s: &mut State, worker: WorkerId, limit: usize) -> Vec<TaskSpec> {
        let mut assigned = Vec::new();
        while assigned.len() < limit {
            let Some(mut task) = s.queue.pop_front() else {
                break;
            };
            task.attempts += 1;
            s.counters.tasks_dispatched += 1;
            if let Some(w) = s.workers.get_mut(&worker) {
                w.stats.dispatched += 1;
            }
            s.in_flight.insert(
                task.spec.task,
                InFlight {
                    spec: task.spec.clone(),
                    attempts: task.attempts,
                    worker,
                },
            );
            assigned.push(task.spec);
        }
        assigned
    }

    /// Answers held polls from the queue, oldest hold first. Each gets an
    /// even share of what is queued — ⌈queued / held⌉, at most
    /// [`FleetConfig::tasks_per_poll`] — so a batch that finds the whole
    /// fleet waiting is spread over it instead of filling the first poll.
    fn hand_to_held(&self, s: &mut State) {
        while !s.queue.is_empty() {
            let share = s.queue.len().div_ceil(s.held.len().max(1));
            let Some((worker, key)) = s.held.pop_front() else {
                return;
            };
            if let Some(w) = s.workers.get_mut(&worker) {
                w.last_seen = Instant::now();
            }
            let tasks = Self::assign(s, worker, share.min(self.cfg.tasks_per_poll).max(1));
            s.wakes.push(Wake::Poll { key, tasks });
        }
    }

    /// Applies one task report.
    fn apply_report(s: &mut State, worker: WorkerId, report: TaskReport) {
        // Resolve the task wherever it currently lives: in flight (the
        // common case — possibly at a *different* worker if this one's
        // lease briefly expired and the task was re-scattered), or back
        // on the queue awaiting that re-scatter.
        let spec = if let Some(t) = s.in_flight.remove(&report.task) {
            Some(t.spec)
        } else if let Some(pos) = s.queue.iter().position(|q| q.spec.task == report.task) {
            s.queue.remove(pos).map(|q| q.spec)
        } else {
            None
        };
        let batch_id = spec
            .as_ref()
            .and_then(|_| s.task_batch.remove(&report.task));
        let (Some(spec), Some(batch_id)) = (spec, batch_id) else {
            // Already resolved (a re-scatter raced us) or the batch is
            // gone (its gather gave up) — either way, drop it. This is the
            // dedup that keeps a measurement from ever landing twice.
            s.counters.duplicate_results += 1;
            return;
        };
        let failed = matches!(report.outcome, TaskOutcome::Failed { .. });
        s.counters.tasks_completed += 1;
        if failed {
            s.counters.tasks_failed += 1;
        }
        if let Some(w) = s.workers.get_mut(&worker) {
            w.stats.completed += 1;
            if failed {
                w.stats.failed += 1;
            }
        }
        let Some(batch) = s.batches.get_mut(&batch_id) else {
            s.counters.duplicate_results += 1;
            return;
        };
        batch.results.insert(spec.config_index, report.outcome);
        s.resolve_one(batch_id);
    }

    /// Scatters one batch of `(config_index, config)` tasks for
    /// `session`; returns the batch handle for [`Coordinator::gather`].
    /// Held polls are answered from it at once; a [`Wake::Batch`] follows
    /// when nothing of it is left to wait for.
    ///
    /// `ctx` is the caller's trace position (usually the session's current
    /// phase span). Every [`TaskSpec`] in the batch is stamped with
    /// `ctx.trace` and the scatter span's id, so worker-side measurement
    /// spans land in the originating campaign's trace.
    pub fn scatter(
        &self,
        session: u64,
        configs: &[(u64, Vec<i64>)],
        workflow: &str,
        objective: &str,
        oracle_seed: u64,
        ctx: TraceContext,
    ) -> u64 {
        let mut span = self.tracer.span("fleet.scatter", ctx);
        span.field("session", session);
        span.field("tasks", configs.len() as u64);
        let batch_ctx = if ctx.trace != 0 {
            TraceContext {
                trace: ctx.trace,
                span: span.id(),
            }
        } else {
            ctx
        };
        let mut s = self.state.lock();
        let batch_id = s.next_batch;
        s.next_batch += 1;
        span.field("batch", batch_id);
        for (config_index, config) in configs {
            let task = s.next_task;
            s.next_task += 1;
            s.task_batch.insert(task, batch_id);
            s.queue.push_back(QueuedTask {
                spec: TaskSpec {
                    task,
                    session,
                    config_index: *config_index,
                    config: config.clone(),
                    workflow: workflow.to_string(),
                    objective: objective.to_string(),
                    oracle_seed,
                    trace: batch_ctx.trace,
                    span: batch_ctx.span,
                },
                attempts: 0,
            });
        }
        drop(span);
        // The wait for the batch starts where the scatter ends.
        let mut span = self.tracer.span("fleet.gather", batch_ctx);
        span.field("batch", batch_id);
        s.batches.insert(
            batch_id,
            Batch {
                pending: configs.len() as u64,
                results: HashMap::new(),
                unmeasured: Vec::new(),
                span,
            },
        );
        self.hand_to_held(&mut s);
        self.unlock(s);
        batch_id
    }

    /// Whether `batch` has nothing left to wait for: every task resolved,
    /// no live worker to resolve the rest, or already gathered. A waiter
    /// asks once after it is ready to be woken; from then on the
    /// [`Wake::Batch`] tells it.
    pub fn resolved(&self, batch: u64) -> bool {
        let mut s = self.state.lock();
        self.reap_dead(&mut s);
        let resolved = s.batches.get(&batch).is_none_or(|b| b.pending == 0) || !s.any_live();
        self.unlock(s);
        resolved
    }

    /// Takes `batch` as it stands, without waiting: its results, and
    /// whatever is still unresolved pulled back out of the scheduler as
    /// unmeasured — those configs are the caller's to measure. Always
    /// consumes the batch; a late report for it resolves as a duplicate.
    pub fn gather(&self, batch: u64) -> GatherOutcome {
        let mut s = self.state.lock();
        self.reap_dead(&mut s);
        let outcome = match s.batches.remove(&batch) {
            None => GatherOutcome::default(),
            Some(mut b) => {
                if b.pending > 0 {
                    Self::abandon_batch(&mut s, batch, &mut b);
                }
                let mut results: Vec<(u64, TaskOutcome)> = b.results.into_iter().collect();
                results.sort_by_key(|&(i, _)| i);
                b.unmeasured.sort_by_key(|&(i, _)| i);
                b.span.field("results", results.len() as u64);
                b.span.field("unmeasured", b.unmeasured.len() as u64);
                GatherOutcome {
                    results,
                    unmeasured: b.unmeasured,
                }
            }
        };
        self.unlock(s);
        outcome
    }

    /// Moves every unresolved task of `batch` into its unmeasured list.
    fn abandon_batch(s: &mut State, batch: u64, b: &mut Batch) {
        let mut orphaned: Vec<TaskId> = Vec::new();
        for (task, owner) in s.task_batch.iter() {
            if *owner == batch {
                orphaned.push(*task);
            }
        }
        for task in orphaned {
            s.task_batch.remove(&task);
            if let Some(t) = s.in_flight.remove(&task) {
                b.unmeasured.push((t.spec.config_index, t.spec.config));
            } else if let Some(pos) = s.queue.iter().position(|q| q.spec.task == task) {
                if let Some(q) = s.queue.remove(pos) {
                    b.unmeasured.push((q.spec.config_index, q.spec.config));
                }
            }
            b.pending = b.pending.saturating_sub(1);
        }
    }

    /// Expires leases now. Every other call does this on its way in; a
    /// host with batches waited on calls it on a timer, since a fleet that
    /// has gone silent makes no calls.
    pub fn reap(&self) {
        let mut s = self.state.lock();
        self.reap_dead(&mut s);
        self.unlock(s);
    }

    /// Expires leases: dead workers' in-flight tasks go back on the queue
    /// (or to their batch's unmeasured list once out of attempts). With
    /// the last live worker gone no batch has anyone to wait for.
    fn reap_dead(&self, s: &mut State) {
        let lease = self.cfg.lease;
        let mut dead: Vec<WorkerId> = Vec::new();
        for (id, w) in s.workers.iter_mut() {
            let held = s.held.iter().any(|(h, _)| h == id);
            if w.live && !held && w.last_seen.elapsed() > lease {
                w.live = false;
                dead.push(*id);
            }
        }
        if dead.is_empty() {
            return;
        }
        s.counters.workers_lost += dead.len() as u64;
        for id in &dead {
            let name = s
                .workers
                .get(id)
                .map(|w| w.name.clone())
                .unwrap_or_default();
            self.tracer.warn(
                "fleet.lease-expired",
                TraceContext::NONE,
                &format!(
                    "worker {id} ({name}) missed its lease; re-scattering its in-flight tasks"
                ),
                &[("worker", (*id).into())],
            );
        }
        let max_attempts = self.cfg.rescatter.max_attempts.max(1);
        let orphaned: Vec<TaskId> = s
            .in_flight
            .iter()
            .filter(|(_, t)| dead.contains(&t.worker))
            .map(|(id, _)| *id)
            .collect();
        for task in orphaned {
            let Some(t) = s.in_flight.remove(&task) else {
                continue;
            };
            if let Some(w) = s.workers.get_mut(&t.worker) {
                w.stats.rescattered += 1;
            }
            if t.attempts < max_attempts {
                s.counters.tasks_rescattered += 1;
                s.queue.push_back(QueuedTask {
                    spec: t.spec,
                    attempts: t.attempts,
                });
            } else if let Some(batch_id) = s.task_batch.remove(&task) {
                if let Some(b) = s.batches.get_mut(&batch_id) {
                    b.unmeasured.push((t.spec.config_index, t.spec.config));
                }
                s.resolve_one(batch_id);
            }
        }
        self.hand_to_held(s);
        if !s.any_live() {
            let stranded: Vec<Wake> = s.batches.keys().map(|&b| Wake::Batch(b)).collect();
            s.wakes.extend(stranded);
        }
    }

    /// Workers with a current lease.
    pub fn live_workers(&self) -> usize {
        let mut s = self.state.lock();
        self.reap_dead(&mut s);
        let live = s.workers.values().filter(|w| w.live).count();
        self.unlock(s);
        live
    }

    /// Snapshot for the metrics endpoint.
    pub fn report(&self) -> FleetReport {
        let mut s = self.state.lock();
        self.reap_dead(&mut s);
        let workers: Vec<WorkerStats> = s
            .worker_order
            .iter()
            .filter_map(|id| {
                s.workers.get(id).map(|w| WorkerStats {
                    worker: *id,
                    name: w.name.clone(),
                    live: w.live,
                    dispatched: w.stats.dispatched,
                    completed: w.stats.completed,
                    failed: w.stats.failed,
                    rescattered: w.stats.rescattered,
                    heartbeat_lag_ms: w.last_seen.elapsed().as_millis() as u64,
                })
            })
            .collect();
        let report = FleetReport {
            live_workers: workers.iter().filter(|w| w.live).count() as u64,
            workers_registered: s.counters.workers_registered,
            workers_lost: s.counters.workers_lost,
            tasks_dispatched: s.counters.tasks_dispatched,
            tasks_completed: s.counters.tasks_completed,
            tasks_failed: s.counters.tasks_failed,
            tasks_rescattered: s.counters.tasks_rescattered,
            duplicate_results: s.counters.duplicate_results,
            workers,
        };
        self.unlock(s);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(lease_ms: u64) -> FleetConfig {
        FleetConfig {
            lease: Duration::from_millis(lease_ms),
            tasks_per_poll: 1,
            rescatter: RetryPolicy::no_delay(3),
            gather_deadline: Duration::from_secs(5),
        }
    }

    fn measured(task: TaskId, value: f64) -> TaskReport {
        TaskReport {
            task,
            outcome: TaskOutcome::Measured {
                value,
                exec_time: value * 2.0,
                computer_time: value / 2.0,
            },
        }
    }

    fn configs(n: u64) -> Vec<(u64, Vec<i64>)> {
        (0..n).map(|i| (i, vec![i as i64, 1])).collect()
    }

    #[test]
    fn batch_spreads_across_workers_and_gathers_in_index_order() {
        let c = Coordinator::new(cfg(60_000));
        let (a, lease_ms) = c.register("a");
        let (b, _) = c.register("b");
        assert!(lease_ms > 0);
        assert_eq!(c.live_workers(), 2);

        let batch = c.scatter(1, &configs(4), "LV", "exec", 2021, TraceContext::NONE);
        // tasks_per_poll = 1 → strict alternation as the workers poll.
        let ta = c.poll(a, vec![]).unwrap();
        let tb = c.poll(b, vec![]).unwrap();
        assert_eq!(ta.len(), 1);
        assert_eq!(tb.len(), 1);
        assert_ne!(ta[0].config_index, tb[0].config_index);
        // Results ride on the next poll; remaining tasks come back with it.
        let ta2 = c.poll(a, vec![measured(ta[0].task, 1.0)]).unwrap();
        let tb2 = c.poll(b, vec![measured(tb[0].task, 2.0)]).unwrap();
        c.poll(a, vec![measured(ta2[0].task, 3.0)]).unwrap();
        c.poll(b, vec![measured(tb2[0].task, 4.0)]).unwrap();

        let out = c.gather(batch);
        assert!(out.unmeasured.is_empty());
        let indices: Vec<u64> = out.results.iter().map(|&(i, _)| i).collect();
        assert_eq!(indices, vec![0, 1, 2, 3]);
        let report = c.report();
        assert_eq!(report.tasks_completed, 4);
        assert_eq!(report.tasks_dispatched, 4);
        assert_eq!(report.workers.len(), 2);
        assert_eq!(report.workers[0].completed + report.workers[1].completed, 4);
    }

    #[test]
    fn dead_worker_tasks_are_rescattered_to_the_survivor() {
        let c = Coordinator::new(cfg(30));
        let (a, _) = c.register("doomed");
        let batch = c.scatter(1, &configs(1), "LV", "exec", 2021, TraceContext::NONE);
        let ta = c.poll(a, vec![]).unwrap();
        assert_eq!(ta.len(), 1);

        // `a` goes silent past its lease; `b` arrives and inherits.
        std::thread::sleep(Duration::from_millis(60));
        let (b, _) = c.register("survivor");
        let tb = c.poll(b, vec![]).unwrap();
        assert_eq!(tb.len(), 1, "the orphaned task must be re-scattered");
        assert_eq!(tb[0].task, ta[0].task);
        c.poll(b, vec![measured(tb[0].task, 9.0)]).unwrap();

        let out = c.gather(batch);
        assert_eq!(out.results.len(), 1);
        assert!(out.unmeasured.is_empty());
        let report = c.report();
        assert_eq!(report.workers_lost, 1);
        assert_eq!(report.tasks_rescattered, 1);
        assert_eq!(report.live_workers, 1);
    }

    #[test]
    fn raced_duplicate_result_is_dropped_not_applied() {
        let c = Coordinator::new(cfg(30));
        let (a, _) = c.register("slow");
        let batch = c.scatter(1, &configs(1), "LV", "exec", 2021, TraceContext::NONE);
        let ta = c.poll(a, vec![]).unwrap();
        std::thread::sleep(Duration::from_millis(60));
        let (b, _) = c.register("fast");
        let tb = c.poll(b, vec![]).unwrap();
        assert_eq!(tb[0].task, ta[0].task);
        // The replacement answers first; the presumed-dead original then
        // wakes up and answers the same task.
        c.poll(b, vec![measured(tb[0].task, 1.0)]).unwrap();
        c.poll(a, vec![measured(ta[0].task, 1.0)]).unwrap();

        let out = c.gather(batch);
        assert_eq!(out.results.len(), 1, "dedup keeps exactly one result");
        assert_eq!(c.report().duplicate_results, 1);
    }

    #[test]
    fn gather_with_no_workers_hands_everything_back() {
        let c = Coordinator::new(cfg(60_000));
        let batch = c.scatter(1, &configs(3), "LV", "exec", 2021, TraceContext::NONE);
        let start = Instant::now();
        let out = c.gather(batch);
        assert!(out.results.is_empty());
        assert_eq!(out.unmeasured.len(), 3);
        assert_eq!(out.unmeasured[0].0, 0);
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "an unplaceable batch must not wait for the deadline"
        );
    }

    #[test]
    fn attempts_exhausted_task_comes_back_unmeasured() {
        let c = Coordinator::new(FleetConfig {
            rescatter: RetryPolicy::no_delay(1),
            ..cfg(20)
        });
        let (a, _) = c.register("one-shot");
        let batch = c.scatter(1, &configs(1), "LV", "exec", 2021, TraceContext::NONE);
        let ta = c.poll(a, vec![]).unwrap();
        assert_eq!(ta.len(), 1);
        std::thread::sleep(Duration::from_millis(50));
        // Reap runs inside gather; with the single attempt spent, the
        // task must not be re-queued for the (dead) fleet.
        let out = c.gather(batch);
        assert!(out.results.is_empty());
        assert_eq!(out.unmeasured.len(), 1);
        assert_eq!(c.report().tasks_rescattered, 0);
    }

    #[test]
    fn gather_deadline_returns_stragglers_for_local_fallback() {
        // The deadline itself is the host's timer (`parked_requests.rs`
        // drives it from the reactor's fleet tick); what it calls is this: a
        // gather that does not wait for the worker still holding a task.
        let c = Coordinator::new(cfg(60_000));
        let (a, _) = c.register("hoarder");
        let batch = c.scatter(1, &configs(2), "LV", "exec", 2021, TraceContext::NONE);
        let ta = c.poll(a, vec![]).unwrap();
        // Reporting the first result picks up the second task, which the
        // live-but-stuck worker then holds past the caller's patience.
        let held = c.poll(a, vec![measured(ta[0].task, 1.0)]).unwrap();
        assert_eq!(held.len(), 1);
        assert!(!c.resolved(batch), "a task is still out");
        let start = Instant::now();
        let out = c.gather(batch);
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "gather never waits"
        );
        assert_eq!(out.results.len(), 1);
        assert_eq!(out.unmeasured.len(), 1);
        // The stuck worker's eventual report resolves as a duplicate.
        c.poll(a, vec![measured(held[0].task, 2.0)]).unwrap();
        assert_eq!(c.report().duplicate_results, 1);
        assert_eq!(c.gather(batch), GatherOutcome::default(), "taken once");
    }

    /// A coordinator whose wakes land in the returned list.
    fn woken(cfg: FleetConfig) -> (Coordinator, std::sync::Arc<Mutex<Vec<Wake>>>) {
        let c = Coordinator::new(cfg);
        let wakes = std::sync::Arc::new(Mutex::new(Vec::new()));
        let sink = std::sync::Arc::clone(&wakes);
        c.on_wake(move |w| sink.lock().push(w));
        (c, wakes)
    }

    #[test]
    fn held_polls_split_a_scatter_and_the_last_report_wakes_the_batch() {
        let (c, wakes) = woken(FleetConfig {
            tasks_per_poll: 4,
            ..cfg(60_000)
        });
        let (a, _) = c.register("a");
        let (b, _) = c.register("b");
        assert_eq!(c.poll_or_hold(a, vec![], 10).unwrap(), None);
        assert_eq!(c.poll_or_hold(b, vec![], 20).unwrap(), None);
        assert!(wakes.lock().is_empty());

        // Three tasks over two held polls: 2 + 1, not 3 + 0.
        let batch = c.scatter(1, &configs(3), "LV", "exec", 2021, TraceContext::NONE);
        let posted = std::mem::take(&mut *wakes.lock());
        let [Wake::Poll { key: 10, tasks: ta }, Wake::Poll { key: 20, tasks: tb }] = &posted[..]
        else {
            panic!("expected one answer per held poll, oldest first: {posted:?}");
        };
        assert_eq!((ta.len(), tb.len()), (2, 1));
        assert!(!c.release(10), "an answered hold is over");
        assert!(!c.resolved(batch));

        // Reports ride on polls that are held in turn; the last one
        // resolves the batch.
        let reports = |tasks: &[TaskSpec]| tasks.iter().map(|t| measured(t.task, 1.0)).collect();
        assert_eq!(c.poll_or_hold(a, reports(ta), 11).unwrap(), None);
        assert!(wakes.lock().is_empty());
        assert_eq!(c.poll_or_hold(b, reports(tb), 21).unwrap(), None);
        assert_eq!(*wakes.lock(), [Wake::Batch(batch)]);
        assert!(c.resolved(batch));
        assert_eq!(c.gather(batch).results.len(), 3);
        assert_eq!(c.report().tasks_dispatched, 3);
    }

    #[test]
    fn a_released_hold_gets_no_work_and_a_held_worker_outlives_its_lease() {
        let (c, wakes) = woken(cfg(30));
        let (gone, _) = c.register("gone");
        let (idle, _) = c.register("idle");
        assert_eq!(c.poll_or_hold(gone, vec![], 1).unwrap(), None);
        assert_eq!(c.poll_or_hold(idle, vec![], 2).unwrap(), None);
        // Held well past the lease: waiting on the coordinator is not
        // silence.
        std::thread::sleep(Duration::from_millis(70));
        assert_eq!(c.live_workers(), 2);
        assert_eq!(c.report().workers_lost, 0);

        // `gone`'s connection died: the next scatter goes to `idle` alone.
        assert!(c.release(1));
        assert!(!c.release(1));
        c.scatter(1, &configs(1), "LV", "exec", 2021, TraceContext::NONE);
        let posted = std::mem::take(&mut *wakes.lock());
        let [Wake::Poll { key: 2, tasks }] = &posted[..] else {
            panic!("expected the one task at the one held poll: {posted:?}");
        };
        let report = vec![measured(tasks[0].task, 1.0)];
        assert_eq!(c.poll_or_hold(idle, report, 3).unwrap(), None);
        // Released, `gone` is on the lease clock again.
        std::thread::sleep(Duration::from_millis(70));
        assert_eq!(c.live_workers(), 1);
    }

    #[test]
    fn losing_the_last_worker_wakes_every_batch() {
        let (c, wakes) = woken(cfg(30));
        let (a, _) = c.register("doomed");
        let batch = c.scatter(1, &configs(2), "LV", "exec", 2021, TraceContext::NONE);
        assert_eq!(c.poll(a, vec![]).unwrap().len(), 1);
        std::thread::sleep(Duration::from_millis(60));
        c.reap();
        assert_eq!(*wakes.lock(), [Wake::Batch(batch)]);
        assert!(c.resolved(batch));
        let out = c.gather(batch);
        assert_eq!((out.results.len(), out.unmeasured.len()), (0, 2));
    }

    #[test]
    fn scatter_stamps_task_specs_with_the_campaign_trace() {
        let tracer = Tracer::in_memory();
        let c = Coordinator::with_tracer(cfg(60_000), tracer.clone());
        let (a, _) = c.register("a");
        let ctx = TraceContext::root(tracer.new_trace());
        let batch = c.scatter(1, &configs(1), "LV", "exec", 2021, ctx);
        let ta = c.poll(a, vec![]).unwrap();
        assert_eq!(ta[0].trace, ctx.trace, "spec must carry the campaign trace");
        assert_ne!(ta[0].span, 0, "spec must carry the scatter span");
        c.poll(a, vec![measured(ta[0].task, 1.0)]).unwrap();
        c.gather(batch);
        let events = tracer.drain_events();
        let scatter_end = events
            .iter()
            .find(|e| e.name == "fleet.scatter" && e.kind == ceal_trace::EventKind::End)
            .expect("scatter span recorded");
        assert_eq!(scatter_end.trace, ctx.trace);
        assert_eq!(scatter_end.span, ta[0].span);
        let gather_end = events
            .iter()
            .find(|e| e.name == "fleet.gather" && e.kind == ceal_trace::EventKind::End)
            .expect("gather span recorded");
        assert_eq!(gather_end.trace, ctx.trace);
        assert_eq!(gather_end.parent, scatter_end.span);
    }

    #[test]
    fn unknown_worker_is_told_to_reregister() {
        let c = Coordinator::new(cfg(60_000));
        assert_eq!(
            c.poll(99, vec![]).unwrap_err(),
            FleetError::UnknownWorker(99)
        );
    }

    #[test]
    fn lease_revival_resumes_a_marked_dead_worker() {
        let c = Coordinator::new(cfg(30));
        let (a, _) = c.register("laggy");
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(c.live_workers(), 0);
        // A late poll renews the lease rather than erroring.
        assert!(c.poll(a, vec![]).unwrap().is_empty());
        assert_eq!(c.live_workers(), 1);
    }
}
