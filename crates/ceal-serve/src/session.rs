//! Incremental tuning sessions.
//!
//! A session is one tuning campaign driven by explicit client steps, so
//! budget is spent a few measurements at a time instead of in one blocking
//! request. Each session is a state machine:
//!
//! ```text
//! Created → CollectingHistory → Bootstrapping → Refining → Done
//! ```
//!
//! *CollectingHistory* gathers free solo component samples (`D_hist`,
//! §7.5); *Bootstrapping* measures an initial batch of coupled
//! configurations; *Refining* alternates surrogate fits with measurements
//! of the most promising unmeasured pool configurations until the budget
//! is spent; *Done* exposes the final surrogate for batched prediction.
//!
//! Sessions live in a [`SessionManager`] registry guarded by `parking_lot`
//! locks, carry per-session IDs, and are evicted after an idle timeout.

use crate::breaker::Breakers;
use crate::cache::{
    platform_features, platform_fingerprint, AutotuneCache, CacheEntry, CacheKey, TransferHit,
    DEFAULT_TRANSFER_THRESHOLD,
};
use crate::metrics::{CountingOracle, ServerMetrics};
use crate::protocol::{SessionStatus, TuneParams};
use ceal_core::algorithms::SurrogateKind;
use ceal_core::{
    encode_pool, fit_surrogate_samples, fit_surrogate_seeded, prepare_campaign, sample_pool,
    CampaignId, ComponentHistory, FaultInjector, FeatureMap, Journal, JournalRecord, MeasureError,
    Oracle, SimOracle, TransferPrior,
};
use ceal_ml::{Dataset, Regressor};
use ceal_sim::{Objective, Platform, Simulator, WorkflowSpec};
use ceal_trace::{Span, TraceContext, Tracer};
use parking_lot::{Mutex, RwLock};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Base seed of every server-side oracle — matches the `tune` CLI so a
/// remote campaign reproduces the local one exactly.
pub(crate) const ORACLE_BASE_SEED: u64 = 2021;

/// Upper bounds protecting the server from absurd requests.
const MAX_POOL: u64 = 100_000;
const MAX_BUDGET: u64 = 10_000;

/// Solo samples collected per configurable component in the
/// history-collection phase.
const HISTORY_PER_COMPONENT: usize = 4;

/// A request-level failure the server reports as an error frame.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// Malformed or out-of-range request parameters.
    BadRequest(String),
    /// No session with that ID (never created, closed, or evicted).
    UnknownSession(u64),
    /// No fleet worker with that ID (coordinator restarted or the lease
    /// aged out); the worker should re-register.
    UnknownWorker(u64),
    /// The session cannot serve this request in its current phase.
    NotReady(String),
    /// The configuration cannot run on this platform.
    Infeasible(String),
    /// A measurement attempt crashed (injected fault or backend failure);
    /// the session is intact and the step can be retried.
    MeasurementFailed(String),
    /// Client-supplied history has the wrong shape.
    HistoryMismatch(String),
    /// The server is draining and accepts no new work.
    ShuttingDown,
    /// A handler panicked; the failure was contained to this request.
    Internal(String),
}

impl ServeError {
    /// Stable machine-readable code for the wire.
    pub fn code(&self) -> &'static str {
        match self {
            Self::BadRequest(_) => "bad-request",
            Self::UnknownSession(_) => "unknown-session",
            Self::UnknownWorker(_) => "unknown-worker",
            Self::NotReady(_) => "not-ready",
            Self::Infeasible(_) => "infeasible",
            Self::MeasurementFailed(_) => "measurement-failed",
            Self::HistoryMismatch(_) => "history-mismatch",
            Self::ShuttingDown => "shutting-down",
            Self::Internal(_) => "internal",
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadRequest(m) => write!(f, "bad request: {m}"),
            Self::UnknownSession(id) => write!(f, "unknown session {id}"),
            Self::UnknownWorker(id) => write!(f, "unknown worker {id} (re-register)"),
            Self::NotReady(m) => write!(f, "not ready: {m}"),
            Self::Infeasible(m) => write!(f, "infeasible configuration: {m}"),
            Self::MeasurementFailed(m) => write!(f, "measurement failed: {m}"),
            Self::HistoryMismatch(m) => write!(f, "history mismatch: {m}"),
            Self::ShuttingDown => write!(f, "server is shutting down"),
            Self::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<ceal_fleet::FleetError> for ServeError {
    fn from(e: ceal_fleet::FleetError) -> Self {
        match e {
            ceal_fleet::FleetError::UnknownWorker(id) => ServeError::UnknownWorker(id),
        }
    }
}

/// Parses and validates the shared campaign parameters.
pub(crate) fn parse_params(p: &TuneParams) -> Result<(WorkflowSpec, Objective), ServeError> {
    let spec = ceal_apps::workflow_by_name(&p.workflow)
        .ok_or_else(|| ServeError::BadRequest(format!("unknown workflow '{}'", p.workflow)))?;
    let objective = match p.objective.as_str() {
        "exec" => Objective::ExecutionTime,
        "comp" => Objective::ComputerTime,
        other => {
            return Err(ServeError::BadRequest(format!(
                "unknown objective '{other}' (want exec|comp)"
            )))
        }
    };
    const ALGOS: [&str; 7] = ["ceal", "al", "rs", "geist", "alph", "bo", "rl"];
    if !ALGOS.contains(&p.algo.as_str()) {
        return Err(ServeError::BadRequest(format!(
            "unknown algorithm '{}'",
            p.algo
        )));
    }
    if p.budget == 0 || p.budget > MAX_BUDGET {
        return Err(ServeError::BadRequest(format!(
            "budget {} out of range 1..={MAX_BUDGET}",
            p.budget
        )));
    }
    if p.pool < 10 || p.pool > MAX_POOL {
        return Err(ServeError::BadRequest(format!(
            "pool size {} out of range 10..={MAX_POOL}",
            p.pool
        )));
    }
    Ok((spec, objective))
}

/// The campaign header written as a session journal's first record; the
/// `session:` algo prefix keeps session journals distinguishable from the
/// `tune` CLI's.
pub(crate) fn session_campaign_id(
    params: &TuneParams,
    failure_rate: f64,
    fault_seed: u64,
) -> CampaignId {
    CampaignId {
        workflow: params.workflow.clone(),
        objective: params.objective.clone(),
        algo: format!("session:{}", params.algo),
        budget: params.budget,
        pool: params.pool,
        seed: params.seed,
        failure_rate,
        fault_seed,
    }
}

/// Cache key for a campaign; `mode` separates the one-shot `Tune` path
/// from incremental sessions, which use different search code.
pub(crate) fn cache_key(
    params: &TuneParams,
    platform: &ceal_sim::Platform,
    mode: &str,
) -> CacheKey {
    CacheKey {
        workflow: params.workflow.to_ascii_uppercase(),
        platform: platform_fingerprint(platform),
        objective: params.objective.clone(),
        pool: params.pool,
        seed: params.seed,
        budget: params.budget,
        algo: format!("{mode}:{}", params.algo),
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Created,
    CollectingHistory,
    Bootstrapping,
    Refining,
    Done,
}

impl Phase {
    fn name(self) -> &'static str {
        match self {
            Self::Created => "created",
            Self::CollectingHistory => "collecting-history",
            Self::Bootstrapping => "bootstrapping",
            Self::Refining => "refining",
            Self::Done => "done",
        }
    }

    /// Trace-span name for the time spent *in* this phase.
    fn span_name(self) -> &'static str {
        match self {
            Self::Created => "phase.created",
            Self::CollectingHistory => "phase.collecting-history",
            Self::Bootstrapping => "phase.bootstrapping",
            Self::Refining => "phase.refining",
            Self::Done => "phase.done",
        }
    }
}

/// One live tuning campaign.
pub struct Session {
    id: u64,
    params: TuneParams,
    oracle: SimOracle,
    pool: Vec<Vec<i64>>,
    /// The pool encoded once at session creation; every surrogate scoring
    /// pass runs batched over this instead of re-encoding per config.
    encoded_pool: Dataset,
    fm: FeatureMap,
    phase: Phase,
    budget_left: u64,
    /// Initial coupled batch size before surrogate-guided refinement.
    /// Zero for transfer-seeded sessions — the prior replaces the random
    /// bootstrap batch entirely.
    n0: u64,
    /// How many *own* measurements it takes before the transfer prior is
    /// dropped from surrogate fits — the cold campaign's bootstrap size,
    /// so a seeded session's final model is never less grounded than a
    /// cold one's.
    prior_hold: u64,
    /// Sibling-platform samples seeding the bootstrap phase; `None` on
    /// cold and exact-hit sessions.
    prior: Option<TransferPrior>,
    /// How this session was warmed: `exact`, `transfer`, or `cold`.
    warm_source: &'static str,
    measured: Vec<(Vec<i64>, f64)>,
    measured_idx: Vec<bool>,
    history: ComponentHistory,
    surrogate: Option<Box<dyn Regressor>>,
    best: Option<(Vec<i64>, f64)>,
    failure_rate: f64,
    fault_seed: u64,
    /// Monotonic measurement-attempt counter feeding the fault injector:
    /// retrying a failed step uses a fresh attempt number, so injected
    /// faults are transient exactly like the crashes they model.
    attempt: u64,
    /// Write-ahead journal of this campaign's paid-for measurements;
    /// `None` when the server runs without a journal directory.
    journal: Option<Journal>,
    /// Campaign trace identifier (0 when the server is untraced). Exposed
    /// on the wire via [`SessionStatus::trace`] so clients and fleet
    /// workers can correlate their own events with this campaign.
    trace: u64,
    /// Root `session` span; its `End` (emitted when the session is closed,
    /// evicted, or the server drops it) carries the campaign's lifetime.
    root_span: Option<Span>,
    /// Span of the phase the campaign is currently in; replaced at every
    /// transition, so each phase's `End` carries that phase's duration.
    phase_span: Option<Span>,
    tracer: Tracer,
    /// Circuit breakers shared with the server; `None` in unit tests that
    /// build sessions directly.
    breakers: Option<Breakers>,
    last_touch: Instant,
}

impl Session {
    fn new(
        id: u64,
        params: TuneParams,
        failure_rate: f64,
        fault_seed: u64,
        platform: Platform,
        tracer: Tracer,
    ) -> Session {
        let (spec, objective) = parse_params(&params).expect("params validated by caller");
        let sim = Simulator {
            platform,
            ..Simulator::new()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(params.seed ^ 0xFACE);
        let pool = sample_pool(&spec, &sim.platform, params.pool as usize, &mut rng);
        let fm = FeatureMap::for_workflow(&spec);
        let n_components = spec.components.len();
        let oracle = SimOracle::new(sim, spec, objective, ORACLE_BASE_SEED);
        let n0 = params.budget.div_ceil(5).max(2).min(params.budget);
        let budget = params.budget;
        let trace = tracer.new_trace();
        let root_span = if tracer.enabled() {
            let mut span = tracer.span("session", TraceContext::root(trace));
            span.field("session", id);
            span.field("workflow", params.workflow.as_str());
            span.field("algo", params.algo.as_str());
            span.field("budget", budget);
            Some(span)
        } else {
            None
        };
        let mut s = Session {
            id,
            params,
            oracle,
            measured_idx: vec![false; pool.len()],
            encoded_pool: encode_pool(&fm, &pool),
            pool,
            fm,
            phase: Phase::Created,
            budget_left: budget,
            n0,
            prior_hold: n0,
            prior: None,
            warm_source: "cold",
            measured: Vec::new(),
            history: ComponentHistory::empty(n_components),
            surrogate: None,
            best: None,
            failure_rate: failure_rate.clamp(0.0, 0.999),
            fault_seed,
            attempt: 0,
            journal: None,
            trace,
            root_span,
            phase_span: None,
            tracer,
            breakers: None,
            last_touch: Instant::now(),
        };
        s.enter_phase(Phase::Created);
        s
    }

    /// Moves the campaign into `phase`, rolling the phase span: the old
    /// span's `End` (carrying the time spent in that phase) is emitted
    /// before the new phase's `Begin`.
    fn enter_phase(&mut self, phase: Phase) {
        self.phase = phase;
        self.phase_span = None;
        if self.tracer.enabled() {
            let parent = self.root_span.as_ref().map(|s| s.id()).unwrap_or(0);
            let mut span = self.tracer.span(
                phase.span_name(),
                TraceContext {
                    trace: self.trace,
                    span: parent,
                },
            );
            span.field("session", self.id);
            self.phase_span = Some(span);
        }
    }

    /// Trace position for this campaign's child events: the current phase
    /// span when one is open, else the session root.
    fn trace_ctx(&self) -> TraceContext {
        TraceContext {
            trace: self.trace,
            span: self
                .phase_span
                .as_ref()
                .or(self.root_span.as_ref())
                .map(|s| s.id())
                .unwrap_or(0),
        }
    }

    /// Rebuilds a completed campaign from a cache entry: surrogate refitted
    /// from the cached samples, no oracle spend.
    fn from_cache(
        id: u64,
        params: TuneParams,
        entry: &CacheEntry,
        platform: Platform,
        tracer: Tracer,
    ) -> Session {
        let mut s = Session::new(id, params, 0.0, 0, platform, tracer);
        s.warm_source = "exact";
        s.measured = entry.samples.clone();
        for (cfg, _) in &s.measured {
            if let Some(i) = s.pool.iter().position(|c| c == cfg) {
                s.measured_idx[i] = true;
            }
        }
        if !s.measured.is_empty() {
            s.surrogate = Some(fit_surrogate_samples(
                SurrogateKind::BoostedTrees,
                &s.fm,
                &s.measured,
                s.params.seed,
            ));
        }
        s.best = Some((entry.best.clone(), entry.best_value));
        s.enter_phase(Phase::Done);
        s
    }

    /// Starts a campaign seeded by a *near-miss* cache hit: a sibling
    /// platform's samples become a low-fidelity prior standing in for the
    /// random bootstrap batch (`n0 = 0`), so every coupled run this
    /// session pays for goes to surrogate-guided refinement. The prior
    /// only ever shapes intermediate fits — it is dropped once the session
    /// owns as many measurements as a cold bootstrap would have taken, and
    /// the final answer comes from this platform's measurements alone.
    fn from_transfer(
        id: u64,
        params: TuneParams,
        failure_rate: f64,
        fault_seed: u64,
        platform: Platform,
        hit: &TransferHit,
        tracer: Tracer,
    ) -> Session {
        let mut s = Session::new(id, params, failure_rate, fault_seed, platform, tracer);
        s.warm_source = "transfer";
        s.n0 = 0;
        s.prior = Some(TransferPrior::new(
            hit.entry.samples.clone(),
            hit.entry.key.platform.clone(),
            hit.distance,
        ));
        s
    }

    /// The externally visible state.
    pub fn status(&self) -> SessionStatus {
        SessionStatus {
            session: self.id,
            state: self.phase.name().to_string(),
            budget_left: self.budget_left,
            measured: self.measured.len() as u64,
            history_samples: self.history.total_samples() as u64,
            best: self.best.as_ref().map(|(c, _)| c.clone()),
            best_value: self.best.as_ref().map(|&(_, v)| v),
            warm_source: self.warm_source.to_string(),
            trace: if self.trace == 0 {
                String::new()
            } else {
                format!("{:016x}", self.trace)
            },
        }
    }

    fn arity_check(&self, config: &[i64]) -> Result<(), ServeError> {
        if config.len() != self.fm.n_features() {
            return Err(ServeError::BadRequest(format!(
                "configuration has {} values, workflow {} takes {}",
                config.len(),
                self.params.workflow,
                self.fm.n_features()
            )));
        }
        Ok(())
    }

    /// Appends one record to the session journal (no-op without one),
    /// recording the commit (including its fsync) as a `journal.commit`
    /// trace event.
    fn journal_append(&mut self, record: &JournalRecord) -> Result<(), ServeError> {
        let ctx = self.trace_ctx();
        match &mut self.journal {
            Some(j) => {
                let start = Instant::now();
                let result = j
                    .append(record)
                    .map_err(|e| ServeError::Internal(format!("journal append failed: {e}")));
                self.tracer.instant(
                    "journal.commit",
                    ctx,
                    &[
                        ("session", self.id.into()),
                        ("us", (start.elapsed().as_micros() as u64).into()),
                        ("ok", u64::from(result.is_ok()).into()),
                    ],
                );
                result
            }
            None => Ok(()),
        }
    }

    /// Drops the journal and deletes its file — called when the campaign
    /// finishes or the client closes the session; there is nothing left to
    /// recover.
    fn delete_journal(&mut self) {
        if let Some(j) = self.journal.take() {
            let path = j.path().to_path_buf();
            drop(j);
            let _ = std::fs::remove_file(path);
        }
    }

    /// Measures pool configuration `idx`, routing through the fault
    /// injector when this session was created with a failure rate.
    fn measure_pool_config(
        &mut self,
        idx: usize,
        metrics: &ServerMetrics,
    ) -> Result<f64, ServeError> {
        self.attempt += 1;
        let attempt = self.attempt;
        let cfg = self.pool[idx].clone();
        let mut span = self.tracer.span("oracle.measure", self.trace_ctx());
        span.field("source", "local");
        span.field("mode", "coupled");
        span.field("session", self.id);
        span.field("idx", idx as u64);
        let m = if self.failure_rate > 0.0 {
            // Injected faults are a local-retry test fixture, not a sick
            // backend — they bypass the breaker entirely so a
            // fault-injection session can't blackhole real measurements.
            let injector = FaultInjector::new(&self.oracle, self.failure_rate, self.fault_seed);
            let m = injector
                .try_measure(&cfg, attempt)
                .map_err(|e| ServeError::MeasurementFailed(e.to_string()))?;
            metrics.add_oracle_measurements(1);
            m
        } else {
            let breaker = self.breakers.as_ref().map(|b| b.oracle.as_ref());
            if let Some(b) = breaker {
                if !b.allow() {
                    return Err(ServeError::MeasurementFailed(
                        "oracle circuit breaker open; measurement refused".into(),
                    ));
                }
            }
            match CountingOracle::new(&self.oracle, metrics).try_measure(&cfg) {
                Ok(m) => {
                    if let Some(b) = breaker {
                        b.record_success();
                    }
                    m
                }
                Err(e) => {
                    if let Some(b) = breaker {
                        b.record_failure();
                    }
                    return Err(ServeError::MeasurementFailed(e.to_string()));
                }
            }
        };
        span.field("value", m.value);
        drop(span);
        // Write-ahead: the measurement is durable before the campaign
        // state advances, so a crash after this point re-bills nothing.
        self.journal_append(&JournalRecord::Coupled {
            config: cfg.clone(),
            value: m.value,
            exec_time: m.exec_time,
            computer_time: m.computer_time,
            attempt,
        })?;
        self.measured_idx[idx] = true;
        self.measured.push((cfg, m.value));
        self.budget_left -= 1;
        Ok(m.value)
    }

    /// Applies one fleet-measured result exactly as
    /// [`Session::measure_pool_config`] would have: billed, journaled
    /// write-ahead, then committed to campaign state. The values are
    /// bit-identical to a local measurement because workers rebuild the
    /// same deterministic oracle from the same seed.
    fn apply_remote_measurement(
        &mut self,
        idx: usize,
        value: f64,
        exec_time: f64,
        computer_time: f64,
        metrics: &ServerMetrics,
    ) -> Result<(), ServeError> {
        self.attempt += 1;
        let attempt = self.attempt;
        let cfg = self.pool[idx].clone();
        metrics.add_oracle_measurements(1);
        self.tracer.instant(
            "oracle.remote-applied",
            self.trace_ctx(),
            &[
                ("session", self.id.into()),
                ("idx", (idx as u64).into()),
                ("value", value.into()),
            ],
        );
        self.journal_append(&JournalRecord::Coupled {
            config: cfg.clone(),
            value,
            exec_time,
            computer_time,
            attempt,
        })?;
        self.measured_idx[idx] = true;
        self.measured.push((cfg, value));
        self.budget_left -= 1;
        Ok(())
    }

    /// Measures a batch of pool configurations, scattering across the
    /// fleet when one is available and has live workers.
    ///
    /// The fleet path is taken only for fault-free sessions (injected
    /// faults are a local-retry fixture that must stay on the sequential
    /// path) and batches worth a scatter round. Whatever the fleet hands
    /// back unmeasured — worker died, attempts exhausted, gather deadline —
    /// is measured locally, which yields the very same values, so the
    /// campaign's trajectory never depends on fleet membership or timing.
    fn measure_pool_batch(
        &mut self,
        idxs: &[usize],
        metrics: &ServerMetrics,
        fleet: Option<&ceal_fleet::Coordinator>,
    ) -> Result<(), ServeError> {
        // Fleet workers rebuild their oracles on the *default* platform,
        // so a session tuning any other platform must measure locally.
        let fleet = fleet.filter(|f| {
            self.failure_rate == 0.0
                && idxs.len() > 1
                && f.live_workers() > 0
                && self.oracle.simulator().platform == Platform::default()
        });
        let mut remote: HashMap<usize, (f64, f64, f64)> = HashMap::new();
        if let Some(fleet) = fleet {
            let configs: Vec<(u64, Vec<i64>)> = idxs
                .iter()
                .map(|&i| (i as u64, self.pool[i].clone()))
                .collect();
            let batch = fleet.scatter(
                self.id,
                &configs,
                &self.params.workflow,
                &self.params.objective,
                ORACLE_BASE_SEED,
                self.trace_ctx(),
            );
            let outcome = fleet.gather(batch);
            for (pool_idx, result) in outcome.results {
                if let ceal_fleet::TaskOutcome::Measured {
                    value,
                    exec_time,
                    computer_time,
                } = result
                {
                    remote.insert(pool_idx as usize, (value, exec_time, computer_time));
                }
            }
        }
        // Apply in selection order regardless of fleet completion order:
        // the journal and the `measured` vector come out byte-for-byte the
        // same as a purely local run.
        for &idx in idxs {
            match remote.get(&idx) {
                Some(&(value, exec_time, computer_time)) => {
                    self.apply_remote_measurement(idx, value, exec_time, computer_time, metrics)?;
                }
                None => {
                    self.measure_pool_config(idx, metrics)?;
                }
            }
        }
        Ok(())
    }

    fn fit_and_score(&mut self) {
        // A transfer prior carries the fit while this session has fewer
        // own measurements than a cold bootstrap would have banked; once
        // it does, the sibling's samples have nothing left to add and the
        // model is fitted from local measurements only.
        let model = match &self.prior {
            Some(prior) if (self.measured.len() as u64) < self.prior_hold => fit_surrogate_seeded(
                SurrogateKind::BoostedTrees,
                &self.fm,
                &self.measured,
                prior,
                self.params.seed,
            ),
            _ => fit_surrogate_samples(
                SurrogateKind::BoostedTrees,
                &self.fm,
                &self.measured,
                self.params.seed,
            ),
        };
        let scores = model.predict_batch(&self.encoded_pool);
        let mut best_i = 0;
        for (i, s) in scores.iter().enumerate() {
            if s < &scores[best_i] {
                best_i = i;
            }
        }
        self.best = Some((self.pool[best_i].clone(), scores[best_i]));
        self.surrogate = Some(model);
    }

    /// Indices of the `k` best-scoring unmeasured pool configurations
    /// under the current surrogate.
    fn top_unmeasured(&self, k: usize) -> Vec<usize> {
        let model = self.surrogate.as_ref().expect("surrogate fitted");
        let scores = model.predict_batch(&self.encoded_pool);
        let mut idx: Vec<usize> = (0..self.pool.len())
            .filter(|&i| !self.measured_idx[i])
            .collect();
        idx.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]).then(a.cmp(&b)));
        idx.truncate(k);
        idx
    }

    /// One random pool index not marked in `taken`, deterministic in
    /// `count` — the number of measurements that will exist when this pick
    /// is measured. Seeding by count alone (never by measured values) is
    /// what lets a batch be pre-selected up front: pick `k` of a batch
    /// sees exactly the seed the sequential loop's iteration `k` would,
    /// and a retry after an injected fault picks the same configuration
    /// again.
    fn random_unmeasured_at(&self, taken: &[bool], count: u64) -> Option<usize> {
        let free: Vec<usize> = (0..self.pool.len()).filter(|&i| !taken[i]).collect();
        if free.is_empty() {
            return None;
        }
        let mut rng = ChaCha8Rng::seed_from_u64(self.params.seed ^ 0xB007 ^ (count << 8));
        Some(free[rng.gen_range(0..free.len())])
    }

    /// Advances the campaign, spending at most `runs` coupled
    /// measurements locally. Identical to [`Session::advance_with`]
    /// without a fleet.
    pub fn advance(
        &mut self,
        runs: u64,
        cache: &AutotuneCache,
        metrics: &ServerMetrics,
    ) -> Result<SessionStatus, ServeError> {
        self.advance_with(runs, cache, metrics, None)
    }

    /// Advances the campaign, spending at most `runs` coupled
    /// measurements, scattering each phase's measurement batch across
    /// `fleet` when one is supplied and has live workers. Each call
    /// executes at most one phase so clients observe every state.
    pub fn advance_with(
        &mut self,
        runs: u64,
        cache: &AutotuneCache,
        metrics: &ServerMetrics,
        fleet: Option<&ceal_fleet::Coordinator>,
    ) -> Result<SessionStatus, ServeError> {
        if runs == 0 {
            return Err(ServeError::BadRequest("advance of 0 runs".into()));
        }
        match self.phase {
            Phase::Created => {
                // Historical solo samples are free (§7.5): they model data
                // the components' owners already had.
                let mut rng = ChaCha8Rng::seed_from_u64(self.params.seed ^ 0xD157);
                let (collected, solos) = ComponentHistory::try_collect(
                    &CountingOracle::new(&self.oracle, metrics),
                    HISTORY_PER_COMPONENT,
                    &mut rng,
                )
                .map_err(|e| ServeError::MeasurementFailed(e.to_string()))?;
                // The solo batch commits atomically: replay applies it only
                // once the closing marker is on disk.
                for s in &solos {
                    self.journal_append(&JournalRecord::Solo {
                        component: s.component,
                        values: s.values.clone(),
                        value: s.value,
                        exec_time: s.exec_time,
                        computer_time: s.computer_time,
                    })?;
                }
                self.journal_append(&JournalRecord::Marker("collecting-history".into()))?;
                self.history
                    .merge(&collected)
                    .map_err(|e| ServeError::Internal(e.to_string()))?;
                self.enter_phase(Phase::CollectingHistory);
            }
            Phase::CollectingHistory => {
                self.journal_append(&JournalRecord::Marker("phase:bootstrapping".into()))?;
                self.enter_phase(Phase::Bootstrapping);
                return self.advance_with(runs, cache, metrics, fleet);
            }
            Phase::Bootstrapping => {
                let target = self.n0.saturating_sub(self.measured.len() as u64);
                let spend = runs.min(target).min(self.budget_left);
                // Pre-select the whole batch. The pick seed depends only
                // on the measurement count, so choosing `spend` configs up
                // front reproduces the sequential loop's choice sequence
                // exactly — which is what makes scattering them safe.
                let mut taken = self.measured_idx.clone();
                let mut idxs = Vec::with_capacity(spend as usize);
                for k in 0..spend {
                    let count = self.measured.len() as u64 + k;
                    let Some(idx) = self.random_unmeasured_at(&taken, count) else {
                        break;
                    };
                    taken[idx] = true;
                    idxs.push(idx);
                }
                self.measure_pool_batch(&idxs, metrics, fleet)?;
                if self.measured.len() as u64 >= self.n0 || self.budget_left == 0 {
                    self.fit_and_score();
                    self.journal_append(&JournalRecord::Marker("phase:refining".into()))?;
                    self.enter_phase(Phase::Refining);
                }
            }
            Phase::Refining => {
                let spend = runs.min(self.budget_left) as usize;
                let idxs = self.top_unmeasured(spend);
                self.measure_pool_batch(&idxs, metrics, fleet)?;
                self.fit_and_score();
                if self.budget_left == 0 {
                    self.journal_append(&JournalRecord::Marker("phase:done".into()))?;
                    self.enter_phase(Phase::Done);
                    self.finish(cache, metrics);
                }
            }
            Phase::Done => {}
        }
        Ok(self.status())
    }

    /// Publishes the completed campaign to the shared cache and retires
    /// the journal — the cache is now the durable record. A persistence
    /// failure is counted on the Metrics endpoint (the entry still serves
    /// from memory for this process's lifetime).
    fn finish(&mut self, cache: &AutotuneCache, metrics: &ServerMetrics) {
        self.delete_journal();
        let Some((best, best_value)) = self.best.clone() else {
            return;
        };
        let platform = &self.oracle.simulator().platform;
        let entry = CacheEntry {
            key: cache_key(&self.params, platform, "session"),
            best,
            best_value,
            runs_used: self.measured.len() as u64,
            component_runs: self.history.total_samples() as u64,
            samples: self.measured.clone(),
            platform_features: platform_features(platform),
        };
        cache.publish(
            entry,
            self.breakers.as_ref().map(|b| b.cache.as_ref()),
            metrics,
            &self.tracer,
            self.trace_ctx(),
            ("session", self.id.into()),
        );
    }

    /// Scores `configs` with the trained surrogate in one encoded batch
    /// (the ensemble's batched SoA path fans large batches out over the
    /// worker pool itself).
    pub fn predict(&self, configs: &[Vec<i64>]) -> Result<Vec<f64>, ServeError> {
        let Some(model) = self.surrogate.as_ref() else {
            return Err(ServeError::NotReady(format!(
                "no surrogate fitted yet (state {})",
                self.phase.name()
            )));
        };
        for cfg in configs {
            self.arity_check(cfg)?;
        }
        Ok(model.predict_batch(&encode_pool(&self.fm, configs)))
    }

    /// Measures one ad-hoc configuration. Infeasible configurations come
    /// back as [`ServeError::Infeasible`], not a panic.
    pub fn measure(
        &mut self,
        config: &[i64],
        metrics: &ServerMetrics,
    ) -> Result<ceal_core::Measurement, ServeError> {
        self.arity_check(config)?;
        CountingOracle::new(&self.oracle, metrics)
            .try_measure(config)
            .map_err(|e| match e {
                MeasureError::Sim(e) => ServeError::Infeasible(e.to_string()),
                other => ServeError::MeasurementFailed(other.to_string()),
            })
    }

    /// Merges client-supplied historical component samples.
    pub fn push_history(
        &mut self,
        samples: Vec<Vec<(Vec<i64>, f64)>>,
    ) -> Result<SessionStatus, ServeError> {
        let incoming = ComponentHistory { samples };
        self.history
            .merge(&incoming)
            .map_err(|e| ServeError::HistoryMismatch(e.to_string()))?;
        Ok(self.status())
    }

    /// Restores campaign state from journaled records (everything after
    /// the `Start` header), spending zero oracle budget, then derives the
    /// phase from what was recovered.
    ///
    /// Solo history records commit as a batch: they apply only when their
    /// closing `collecting-history` marker made it to disk, so a crash
    /// mid-collection replays as "not started" and the free solos are
    /// simply re-collected.
    fn replay(&mut self, records: Vec<JournalRecord>) -> Result<(), ServeError> {
        let mut solos: Vec<(usize, Vec<i64>, f64)> = Vec::new();
        let mut history_committed = false;
        for rec in records {
            match rec {
                JournalRecord::Start(_) => {
                    return Err(ServeError::Internal("duplicate campaign header".into()));
                }
                JournalRecord::Solo {
                    component,
                    values,
                    value,
                    ..
                } => solos.push((component, values, value)),
                JournalRecord::Marker(m) if m == "collecting-history" => {
                    for (c, v, val) in solos.drain(..) {
                        if c >= self.history.n_components() {
                            return Err(ServeError::Internal(format!(
                                "journaled solo for component {c} out of range"
                            )));
                        }
                        self.history.push(c, v, val);
                    }
                    history_committed = true;
                }
                JournalRecord::Marker(_) => {}
                JournalRecord::Coupled {
                    config,
                    value,
                    attempt,
                    ..
                } => {
                    if self.budget_left == 0 {
                        return Err(ServeError::Internal(
                            "journal holds more coupled runs than the budget".into(),
                        ));
                    }
                    if let Some(i) = self.pool.iter().position(|c| c == &config) {
                        self.measured_idx[i] = true;
                    }
                    self.measured.push((config, value));
                    self.budget_left -= 1;
                    self.attempt = self.attempt.max(attempt);
                }
            }
        }
        let phase = if !history_committed && self.measured.is_empty() {
            Phase::Created
        } else if self.measured.is_empty() {
            Phase::CollectingHistory
        } else if (self.measured.len() as u64) < self.n0 && self.budget_left > 0 {
            Phase::Bootstrapping
        } else {
            self.fit_and_score();
            if self.budget_left > 0 {
                Phase::Refining
            } else {
                Phase::Done
            }
        };
        self.enter_phase(phase);
        Ok(())
    }

    fn touch(&mut self) {
        self.last_touch = Instant::now();
    }
}

/// The registry of live sessions.
pub struct SessionManager {
    sessions: RwLock<HashMap<u64, Arc<Mutex<Session>>>>,
    next_id: AtomicU64,
    idle_timeout: Duration,
    journal_dir: Option<PathBuf>,
    /// Platform every session on this server measures on.
    platform: Platform,
    /// Feature-distance bound for transfer-seeding near-miss lookups.
    transfer_threshold: f64,
    /// Trace sink handed to every session this registry creates.
    tracer: Tracer,
    /// Circuit breakers handed to every session this registry creates.
    breakers: Option<Breakers>,
}

impl SessionManager {
    /// Creates an empty registry evicting sessions idle longer than
    /// `idle_timeout`, tuning the paper-testbed default platform.
    pub fn new(idle_timeout: Duration) -> Self {
        Self {
            sessions: RwLock::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            idle_timeout,
            journal_dir: None,
            platform: Platform::default(),
            transfer_threshold: DEFAULT_TRANSFER_THRESHOLD,
            tracer: Tracer::disabled(),
            breakers: None,
        }
    }

    /// Sets the trace sink sessions record their campaign spans through.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Sets the circuit breakers sessions route their oracle and
    /// cache-persist calls through.
    pub fn with_breakers(mut self, breakers: Breakers) -> Self {
        self.breakers = Some(breakers);
        self
    }

    /// Sets the platform sessions measure on (fingerprinted into their
    /// cache keys and matched against cached siblings for transfer).
    pub fn with_platform(mut self, platform: Platform) -> Self {
        self.platform = platform;
        self
    }

    /// Sets the feature-distance threshold for transfer seeding; `0.0`
    /// disables transfer entirely.
    pub fn with_transfer_threshold(mut self, threshold: f64) -> Self {
        self.transfer_threshold = threshold.max(0.0);
        self
    }

    /// Enables per-session write-ahead journals under `dir` (created if
    /// missing): every live campaign gets a `session-<id>.wal` that
    /// [`SessionManager::rebuild_from_disk`] can restore after a restart.
    pub fn with_journal_dir(mut self, dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        self.journal_dir = Some(dir);
        Ok(self)
    }

    fn journal_path(dir: &Path, id: u64) -> PathBuf {
        dir.join(format!("session-{id}.wal"))
    }

    /// Restores every recoverable `session-*.wal` campaign in the journal
    /// directory, spending zero oracle budget; returns how many came back.
    /// Unreadable or foreign journals are skipped with a warning — a bad
    /// file must not stop the server from starting.
    pub fn rebuild_from_disk(&self, metrics: &ServerMetrics) -> usize {
        let Some(dir) = self.journal_dir.clone() else {
            return 0;
        };
        let Ok(entries) = std::fs::read_dir(&dir) else {
            return 0;
        };
        let mut rebuilt = 0;
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            let Some(id) = name
                .strip_prefix("session-")
                .and_then(|s| s.strip_suffix(".wal"))
                .and_then(|s| s.parse::<u64>().ok())
            else {
                continue;
            };
            match self.rebuild_one(&entry.path(), id) {
                Ok(session) => {
                    self.next_id.fetch_max(id + 1, Ordering::Relaxed);
                    self.sessions
                        .write()
                        .insert(id, Arc::new(Mutex::new(session)));
                    metrics.sessions_rebuilt.fetch_add(1, Ordering::Relaxed);
                    rebuilt += 1;
                }
                Err(e) => self.tracer.warn(
                    "session.rebuild-failed",
                    TraceContext::NONE,
                    &format!("cannot rebuild session from {name}: {e}"),
                    &[("session", id.into())],
                ),
            }
        }
        rebuilt
    }

    fn rebuild_one(&self, path: &Path, id: u64) -> Result<Session, ServeError> {
        let (journal, report) = Journal::open(path)
            .map_err(|e| ServeError::Internal(format!("journal open failed: {e}")))?;
        let mut records = report.records.into_iter();
        let Some(JournalRecord::Start(cid)) = records.next() else {
            return Err(ServeError::Internal(
                "journal has no campaign header".into(),
            ));
        };
        let Some(algo) = cid.algo.strip_prefix("session:") else {
            return Err(ServeError::Internal(format!(
                "not a session journal (campaign algo '{}')",
                cid.algo
            )));
        };
        let params = TuneParams {
            workflow: cid.workflow.clone(),
            objective: cid.objective.clone(),
            budget: cid.budget,
            pool: cid.pool,
            seed: cid.seed,
            algo: algo.to_string(),
        };
        parse_params(&params)?;
        let mut session = Session::new(
            id,
            params,
            cid.failure_rate,
            cid.fault_seed,
            self.platform.clone(),
            self.tracer.clone(),
        );
        session.breakers = self.breakers.clone();
        session.journal = Some(journal);
        session.replay(records.collect())?;
        Ok(session)
    }

    /// Live session count.
    pub fn len(&self) -> usize {
        self.sessions.read().len()
    }

    /// Whether no sessions are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Opens a session, consulting the cache tier by tier: an **exact**
    /// hit starts the session in `done` with its surrogate refitted from
    /// cached samples and zero oracle spend; failing that, the nearest
    /// cached sibling platform within the transfer threshold seeds a
    /// **transfer** campaign (prior samples instead of a random
    /// bootstrap); otherwise the campaign starts **cold**. Returns the
    /// status (whose `warm_source` names the tier) and whether an exact
    /// hit supplied it.
    pub fn create(
        &self,
        params: TuneParams,
        failure_rate: f64,
        fault_seed: u64,
        cache: &AutotuneCache,
        metrics: &ServerMetrics,
    ) -> Result<(SessionStatus, bool), ServeError> {
        parse_params(&params)?;
        if !(0.0..1.0).contains(&failure_rate) {
            return Err(ServeError::BadRequest(format!(
                "failure rate {failure_rate} outside [0, 1)"
            )));
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let key = cache_key(&params, &self.platform, "session");
        let lookup_start = Instant::now();
        let (hit, tier) = cache.get_with_tier(&key);
        let (mut session, from_cache) = match hit {
            Some(entry) => {
                metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
                (
                    Session::from_cache(
                        id,
                        params,
                        &entry,
                        self.platform.clone(),
                        self.tracer.clone(),
                    ),
                    true,
                )
            }
            None => {
                metrics.cache_misses.fetch_add(1, Ordering::Relaxed);
                let transfer = match self.transfer_threshold > 0.0 {
                    true => cache.nearest_transfer(
                        &key,
                        &platform_features(&self.platform),
                        self.transfer_threshold,
                    ),
                    false => None,
                };
                let session = match &transfer {
                    Some(hit) => {
                        metrics
                            .cache_transfer_seeded
                            .fetch_add(1, Ordering::Relaxed);
                        Session::from_transfer(
                            id,
                            params,
                            failure_rate,
                            fault_seed,
                            self.platform.clone(),
                            hit,
                            self.tracer.clone(),
                        )
                    }
                    None => Session::new(
                        id,
                        params,
                        failure_rate,
                        fault_seed,
                        self.platform.clone(),
                        self.tracer.clone(),
                    ),
                };
                (session, false)
            }
        };
        session.breakers = self.breakers.clone();
        // One lookup event per created session, naming both the store tier
        // that answered (`front`/`disk`/`miss`) and the campaign tier the
        // session starts in (`exact`/`transfer`/`cold`).
        self.tracer.instant(
            "cache.lookup",
            TraceContext::root(session.trace),
            &[
                ("endpoint", "create-session".into()),
                ("tier", tier.into()),
                ("warm", session.warm_source.into()),
                ("us", (lookup_start.elapsed().as_micros() as u64).into()),
            ],
        );
        // Warm-cache sessions spend nothing, so there is nothing worth
        // journaling; fresh campaigns get a write-ahead journal.
        if !from_cache {
            if let Some(dir) = &self.journal_dir {
                let path = Self::journal_path(dir, id);
                let _ = std::fs::remove_file(&path); // stale leftover, new campaign
                let (mut journal, report) = Journal::open(&path)
                    .map_err(|e| ServeError::Internal(format!("journal open failed: {e}")))?;
                let cid = session_campaign_id(&session.params, failure_rate, fault_seed);
                prepare_campaign(&mut journal, report.records, &cid, false)
                    .map_err(|e| ServeError::Internal(format!("journal header failed: {e}")))?;
                session.journal = Some(journal);
            }
        }
        let status = session.status();
        self.sessions
            .write()
            .insert(id, Arc::new(Mutex::new(session)));
        metrics.sessions_created.fetch_add(1, Ordering::Relaxed);
        Ok((status, from_cache))
    }

    /// Fetches a session, refreshing its idle clock.
    pub fn get(&self, id: u64) -> Result<Arc<Mutex<Session>>, ServeError> {
        let handle = self
            .sessions
            .read()
            .get(&id)
            .cloned()
            .ok_or(ServeError::UnknownSession(id))?;
        handle.lock().touch();
        Ok(handle)
    }

    /// Closes a session, deleting its journal — an explicit close is the
    /// client saying the campaign no longer needs recovering.
    pub fn close(&self, id: u64) -> Result<(), ServeError> {
        let handle = self
            .sessions
            .write()
            .remove(&id)
            .ok_or(ServeError::UnknownSession(id))?;
        handle.lock().delete_journal();
        Ok(())
    }

    /// Drops sessions idle longer than the timeout; returns how many.
    /// Eviction keeps journals on disk: an evicted campaign is still
    /// recoverable at the next server start, unlike a closed one.
    pub fn evict_idle(&self, metrics: &ServerMetrics) -> usize {
        let mut sessions = self.sessions.write();
        let before = sessions.len();
        sessions.retain(|_, s| match s.try_lock() {
            // A locked session is in use — by definition not idle.
            None => true,
            Some(guard) => guard.last_touch.elapsed() <= self.idle_timeout,
        });
        let evicted = before - sessions.len();
        metrics
            .sessions_evicted
            .fetch_add(evicted as u64, Ordering::Relaxed);
        if evicted > 0 {
            self.tracer.instant(
                "session.evicted",
                TraceContext::NONE,
                &[("count", (evicted as u64).into())],
            );
        }
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(budget: u64) -> TuneParams {
        TuneParams {
            workflow: "LV".into(),
            objective: "exec".into(),
            budget,
            pool: 60,
            seed: 3,
            algo: "ceal".into(),
        }
    }

    fn ctx() -> (SessionManager, AutotuneCache, ServerMetrics) {
        (
            SessionManager::new(Duration::from_secs(3600)),
            AutotuneCache::in_memory(),
            ServerMetrics::new(),
        )
    }

    #[test]
    fn session_walks_the_phases_to_done() {
        let (mgr, cache, metrics) = ctx();
        let (status, from_cache) = mgr.create(params(8), 0.0, 0, &cache, &metrics).unwrap();
        assert!(!from_cache);
        assert_eq!(status.state, "created");
        let handle = mgr.get(status.session).unwrap();
        let mut s = handle.lock();
        let st = s.advance(4, &cache, &metrics).unwrap();
        assert_eq!(st.state, "collecting-history");
        assert_eq!(st.budget_left, 8);
        assert!(st.history_samples > 0, "history phase collects samples");
        let mut st = s.advance(4, &cache, &metrics).unwrap();
        assert_eq!(st.state, "refining");
        while st.state != "done" {
            st = s.advance(3, &cache, &metrics).unwrap();
        }
        assert_eq!(st.budget_left, 0);
        assert_eq!(st.measured, 8);
        assert!(st.best.is_some());
        // Done is terminal and idempotent.
        assert_eq!(s.advance(1, &cache, &metrics).unwrap().state, "done");
        // The finished campaign was published to the cache.
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn warm_cache_session_starts_done_with_zero_oracle_spend() {
        let (mgr, cache, metrics) = ctx();
        let (st, _) = mgr.create(params(6), 0.0, 0, &cache, &metrics).unwrap();
        let handle = mgr.get(st.session).unwrap();
        {
            let mut s = handle.lock();
            let mut st = s.advance(6, &cache, &metrics).unwrap();
            while st.state != "done" {
                st = s.advance(6, &cache, &metrics).unwrap();
            }
        }
        let cold_spend = metrics.oracle_measurements.load(Ordering::Relaxed);
        assert!(cold_spend > 0);

        let (warm, from_cache) = mgr.create(params(6), 0.0, 0, &cache, &metrics).unwrap();
        assert!(from_cache);
        assert_eq!(warm.state, "done");
        assert_eq!(
            metrics.oracle_measurements.load(Ordering::Relaxed),
            cold_spend,
            "warm session must not touch the oracle"
        );
        // And its surrogate serves predictions.
        let handle = mgr.get(warm.session).unwrap();
        let preds = handle
            .lock()
            .predict(&[warm.best.clone().unwrap()])
            .unwrap();
        assert_eq!(preds.len(), 1);
    }

    #[test]
    fn injected_faults_surface_as_retryable_errors() {
        let (mgr, cache, metrics) = ctx();
        let (st, _) = mgr.create(params(6), 0.45, 17, &cache, &metrics).unwrap();
        let handle = mgr.get(st.session).unwrap();
        let mut s = handle.lock();
        let mut failures = 0u32;
        let mut state = s.advance(6, &cache, &metrics).unwrap().state;
        for _ in 0..200 {
            if state == "done" {
                break;
            }
            match s.advance(2, &cache, &metrics) {
                Ok(st) => state = st.state,
                Err(ServeError::MeasurementFailed(_)) => failures += 1,
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert_eq!(state, "done", "retries must eventually finish");
        assert!(failures > 0, "fixture should observe injected faults");
    }

    #[test]
    fn measure_rejects_infeasible_and_wrong_arity() {
        let (mgr, cache, metrics) = ctx();
        let (st, _) = mgr.create(params(4), 0.0, 0, &cache, &metrics).unwrap();
        let handle = mgr.get(st.session).unwrap();
        let mut s = handle.lock();
        let err = s.measure(&[1085, 1, 1, 1085, 1, 1], &metrics).unwrap_err();
        assert_eq!(err.code(), "infeasible");
        let err = s.measure(&[1, 2, 3], &metrics).unwrap_err();
        assert_eq!(err.code(), "bad-request");
        assert!(s.measure(&[100, 20, 1, 50, 10, 1], &metrics).is_ok());
        let _ = cache;
    }

    #[test]
    fn push_history_validates_shape() {
        let (mgr, cache, metrics) = ctx();
        let (st, _) = mgr.create(params(4), 0.0, 0, &cache, &metrics).unwrap();
        let handle = mgr.get(st.session).unwrap();
        let mut s = handle.lock();
        let err = s.push_history(vec![vec![]]).unwrap_err();
        assert_eq!(err.code(), "history-mismatch");
        let ok = s
            .push_history(vec![vec![(vec![100, 20, 1], 2.0)], vec![]])
            .unwrap();
        assert_eq!(ok.history_samples, 1);
    }

    #[test]
    fn idle_sessions_are_evicted() {
        let mgr = SessionManager::new(Duration::from_millis(0));
        let cache = AutotuneCache::in_memory();
        let metrics = ServerMetrics::new();
        let (st, _) = mgr.create(params(4), 0.0, 0, &cache, &metrics).unwrap();
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(mgr.evict_idle(&metrics), 1);
        assert!(mgr.is_empty());
        assert!(matches!(
            mgr.get(st.session),
            Err(ServeError::UnknownSession(_))
        ));
        assert_eq!(metrics.sessions_evicted.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn create_rejects_bad_params() {
        let (mgr, cache, metrics) = ctx();
        let mut p = params(4);
        p.workflow = "NOPE".into();
        assert!(mgr.create(p, 0.0, 0, &cache, &metrics).is_err());
        let mut p = params(4);
        p.objective = "latency".into();
        assert!(mgr.create(p, 0.0, 0, &cache, &metrics).is_err());
        let p = params(0);
        assert!(mgr.create(p, 0.0, 0, &cache, &metrics).is_err());
        assert!(mgr.create(params(4), 1.5, 0, &cache, &metrics).is_err());
    }
}
