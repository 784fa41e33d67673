//! Incremental tuning sessions.
//!
//! A session is one tuning campaign driven by explicit client steps, so
//! budget is spent a few measurements at a time instead of in one blocking
//! request. The search itself is not here: a session is the I/O shell
//! around an ask/tell [`Stepper`] — the code
//! [`Autotuner::try_run`](ceal_core::Autotuner::try_run) drives — chosen
//! by `TuneParams.algo` through [`by_name`]. The shell measures what the
//! stepper asks for (locally or across the fleet), bills each result,
//! journals the measured batch write-ahead — one commit, before any of it
//! is handed over and before the reply leaves, so what a client was told
//! is durable and a crash loses at most the batch in flight — and hands
//! it over. The states a client sees are read off that exchange:
//!
//! ```text
//! created → collecting-history → bootstrapping → refining → done
//! ```
//!
//! The first `Advance` gathers free solo component samples (`D_hist`,
//! §7.5; clients may push more until the search starts). The next builds
//! the stepper over that history: its first coupled ask is
//! *bootstrapping*, every later ask *refining*, its finished run *done* —
//! published to the cache and served for batched prediction.
//!
//! Restart recovery folds the journal through the same transitions: the
//! records rebuild the history, start the stepper and answer its asks in
//! order, so a rebuilt session stands where the live one stood, and a
//! journal the stepper would not have produced is rejected, not trusted.
//!
//! A session seeded from a sibling platform's cached campaign
//! (`warm_source = transfer`) differs in one thing: the sibling's samples
//! are the campaign's [`TransferPrior`], which CEAL blends into its `M_H`
//! fits until the session owns a fifth of its budget in measurements.
//!
//! One-shot `Tune` runs on the same shell. Its campaign omits what only a
//! client-stepped one needs — the registry entry, the journal, the free
//! history: the stepper asks for its solo runs and the budget pays — and
//! is driven to `done` inside the request ([`SessionManager::one_shot`]).
//!
//! Every simulator run this process makes, for either kind of campaign,
//! goes through [`CountingOracle::run`]: one span, one breaker rule, one bill.
//!
//! Sessions live in a [`SessionManager`] registry, evicted when idle.

use crate::breaker::Breakers;
use crate::cache::{
    platform_features, platform_fingerprint, AutotuneCache, CacheEntry, CacheKey,
    DEFAULT_TRANSFER_THRESHOLD,
};
use crate::error::ServeError;
use crate::metrics::{CountingOracle, ServerMetrics};
use crate::protocol::{SessionStatus, TuneParams};
use ceal_core::algorithms::{by_name, Ask, Campaign, Stepper, SurrogateKind, Told};
use ceal_core::{
    encode_pool, fit_surrogate_samples, sample_pool, CampaignId, ComponentHistory, FaultInjector,
    FeatureMap, Journal, JournalRecord, Measurement, Oracle, SimOracle, SoloMeasurement,
    TransferPrior,
};
use ceal_ml::Regressor;
use ceal_sim::{Objective, Platform, Simulator, WorkflowSpec};
use ceal_trace::{Span, TraceContext, Tracer};
use parking_lot::{Mutex, RwLock};
use rand::SeedableRng;
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
/// history-collection phase, and the [`cache_key`] mode that says so.
const HISTORY_PER_COMPONENT: usize = 4;
const SESSION_MODE: &str = "session-h4";
/// The [`cache_key`] mode of a one-shot `Tune` campaign.
pub(crate) const TUNE_MODE: &str = "tune";

/// Journal markers closing a solo batch: collected history, pushed samples.
const HISTORY_MARKER: &str = "collecting-history";
const PUSHED_MARKER: &str = "pushed-history";
/// Prefix of the marker carrying a transfer-seeded session's prior: the
/// stepper's asks depend on it, so it is journaled with the campaign.
const PRIOR_MARKER: &str = "transfer-prior ";

/// Parses and validates the shared campaign parameters.
pub(crate) fn parse_params(p: &TuneParams) -> Result<(WorkflowSpec, Objective), ServeError> {
    let bad = |message: String| Err(ServeError::BadRequest(message));
    let Some(spec) = ceal_apps::workflow_by_name(&p.workflow) else {
        return bad(format!("unknown workflow '{}'", p.workflow));
    };
    let objective = match p.objective.as_str() {
        "exec" => Objective::ExecutionTime,
        "comp" => Objective::ComputerTime,
        other => return bad(format!("unknown objective '{other}' (want exec|comp)")),
    };
    if by_name(&p.algo, None).is_none() {
        return bad(format!("unknown algorithm '{}'", p.algo));
    }
    if p.budget == 0 || p.budget > MAX_BUDGET {
        return bad(format!("budget {} out of range 1..={MAX_BUDGET}", p.budget));
    }
    if p.pool < 10 || p.pool > MAX_POOL {
        return bad(format!("pool size {} out of range 10..={MAX_POOL}", p.pool));
    }
    Ok((spec, objective))
}

/// Cache key for a campaign. `mode` names where the campaign's component
/// data comes from, which the other fields do not carry: one-shot `Tune`
/// (`tune`) pays for its solo runs out of the budget, a session brings
/// [`HISTORY_PER_COMPONENT`] free historical samples per component
/// (`session-h4`). Same algorithm, different campaigns, different answers —
/// so different keys.
pub(crate) fn cache_key(params: &TuneParams, platform: &Platform, mode: &str) -> CacheKey {
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
    /// The state name on the wire, and the trace-span name for the time
    /// spent *in* this phase.
    fn names(self) -> (&'static str, &'static str) {
        match self {
            Self::Created => ("created", "phase.created"),
            Self::CollectingHistory => ("collecting-history", "phase.collecting-history"),
            Self::Bootstrapping => ("bootstrapping", "phase.bootstrapping"),
            Self::Refining => ("refining", "phase.refining"),
            Self::Done => ("done", "phase.done"),
        }
    }

    fn name(self) -> &'static str {
        self.names().0
    }
}

/// A solo ask, and the stepper waiting on its answer.
struct SoloAsk(Box<dyn Stepper>, Vec<(usize, Vec<i64>)>);

/// The search in progress: the stepper and the batch it waits for. `got`
/// answers the head of `ask`; a complete batch is told at once.
struct Search {
    stepper: Box<dyn Stepper>,
    ask: Vec<usize>,
    got: Vec<Measurement>,
}

/// One live tuning campaign.
pub struct Session {
    /// Registry id; 0 for a one-shot campaign, which has no registry entry.
    id: u64,
    params: TuneParams,
    /// A one-shot `Tune` campaign: no free history (the stepper's solo asks
    /// are paid out of the budget) and the recommendation is measured once
    /// more for the reply — which is why its cache key differs.
    one_shot: bool,
    oracle: SimOracle,
    /// `C_pool`; empty in a session the cache answered, which never searches.
    pool: Arc<[Vec<i64>]>,
    phase: Phase,
    /// `Some` while the stepper waits on a coupled ask.
    search: Option<Search>,
    /// A solo ask, waiting for an `Advance` to answer it whole (the replay
    /// fold fetches asks too, and cannot measure).
    solo: Option<SoloAsk>,
    /// Sibling-platform samples the stepper gets when the search starts.
    prior: Option<TransferPrior>,
    /// How this session was warmed: `exact`, `transfer`, or `cold`.
    warm_source: &'static str,
    /// The solo samples the stepper's component models are fitted on:
    /// `D_hist`, or the answers to a one-shot campaign's solo asks.
    history: ComponentHistory,
    /// Whether `history` holds client-pushed samples — data the cache key
    /// does not carry, so the result is not published as an exact answer.
    pushed_history: bool,
    /// Coupled runs committed so far.
    measured: u64,
    /// A finished campaign's `(config, value)` measurements, in order.
    samples: Vec<(Vec<i64>, f64)>,
    /// What `Predict` scores with: the tuner's final surrogate when it
    /// handed one over, else boosted trees fitted on `samples` on demand.
    surrogate: Option<Arc<dyn Regressor>>,
    best: Option<(Vec<i64>, f64)>,
    failure_rate: f64,
    fault_seed: u64,
    /// Monotonic measurement-attempt counter feeding the fault injector: a
    /// retry uses a fresh number, so injected faults are transient.
    attempt: u64,
    /// Write-ahead journal; `None` without a journal directory.
    journal: Option<Journal>,
    /// Where the campaign's events hang while no phase span is open: the
    /// root `session` span, or a one-shot's `campaign.tune` span. Its trace
    /// id (0 when the server is untraced) is exposed on the wire via
    /// [`SessionStatus::trace`].
    ctx: TraceContext,
    /// Root `session` span; its `End` carries the campaign's lifetime.
    /// `None` untraced, and for a one-shot (its request owns the root).
    root_span: Option<Span>,
    /// Span of the current phase; its `End` carries the phase's duration.
    phase_span: Option<Span>,
    tracer: Tracer,
    /// Circuit breakers shared with the server; `None` without one.
    breakers: Option<Breakers>,
    last_touch: Instant,
}

impl Session {
    /// A fresh campaign in `home`, its pool not sampled yet; `parsed` is
    /// [`parse_params`] of `params`. With `one_shot`, a one-shot campaign
    /// recording under that span.
    fn new(
        id: u64,
        params: TuneParams,
        parsed: (WorkflowSpec, Objective),
        failure_rate: f64,
        fault_seed: u64,
        home: &SessionManager,
        one_shot: Option<TraceContext>,
    ) -> Session {
        let (spec, objective) = parsed;
        let tracer = home.tracer.clone();
        let sim = Simulator {
            platform: home.platform.clone(),
            ..Simulator::new()
        };
        let root_span = (one_shot.is_none() && tracer.enabled()).then(|| {
            let mut span = tracer.root_span("session");
            span.field("session", id);
            span.field("workflow", params.workflow.as_str());
            span.field("algo", params.algo.as_str());
            span.field("budget", params.budget);
            span
        });
        let ctx = root_span.as_ref().map(Span::ctx).or(one_shot);
        let mut s = Session {
            id,
            params,
            one_shot: one_shot.is_some(),
            pool: Vec::new().into(),
            phase: Phase::Created,
            search: None,
            solo: None,
            prior: None,
            warm_source: "cold",
            history: ComponentHistory::empty(spec.components.len()),
            pushed_history: false,
            measured: 0,
            samples: Vec::new(),
            surrogate: None,
            best: None,
            oracle: SimOracle::new(sim, spec, objective, ORACLE_BASE_SEED),
            failure_rate: failure_rate.clamp(0.0, 0.999),
            fault_seed,
            attempt: 0,
            journal: None,
            ctx: ctx.unwrap_or_default(),
            root_span,
            phase_span: None,
            tracer,
            breakers: home.breakers.clone(),
            last_touch: Instant::now(),
        };
        s.enter_phase(Phase::Created);
        s
    }

    /// Rejection-samples `C_pool`. Only a campaign that will search reads
    /// it: one answered from the cache never pays for it.
    fn sample_pool(&mut self) {
        let mut rng = ChaCha8Rng::seed_from_u64(self.params.seed ^ 0xFACE);
        let (spec, platform) = (self.oracle.spec(), &self.oracle.simulator().platform);
        self.pool = sample_pool(spec, platform, self.params.pool as usize, &mut rng).into();
    }

    /// Moves the campaign into `phase`, rolling the phase span: the old
    /// span's `End` (carrying the time spent in that phase) is emitted
    /// before the new phase's `Begin`.
    fn enter_phase(&mut self, phase: Phase) {
        self.phase = phase;
        self.phase_span = None;
        // A one-shot's phases are not client-visible; its whole campaign
        // is the request's `campaign.tune` span.
        if self.root_span.is_some() {
            let mut span = self.tracer.span(phase.names().1, self.ctx);
            span.field("session", self.id);
            self.phase_span = Some(span);
        }
    }

    /// Trace position for this campaign's child events: the current phase
    /// span when one is open, else the campaign's root.
    fn trace_ctx(&self) -> TraceContext {
        self.phase_span.as_ref().map_or(self.ctx, Span::ctx)
    }

    /// Completes a fresh session from a cache entry: no stepper, no spend.
    fn finish_from(&mut self, entry: &CacheEntry) {
        self.warm_source = "exact";
        self.measured = entry.samples.len() as u64;
        self.samples = entry.samples.clone();
        self.best = Some((entry.best.clone(), entry.best_value));
        self.enter_phase(Phase::Done);
    }

    /// The externally visible state.
    pub fn status(&self) -> SessionStatus {
        SessionStatus {
            session: self.id,
            state: self.phase.name().to_string(),
            budget_left: self.params.budget.saturating_sub(self.measured),
            measured: self.measured,
            history_samples: self.history.total_samples() as u64,
            best: self.best.as_ref().map(|(c, _)| c.clone()),
            best_value: self.best.as_ref().map(|&(_, v)| v),
            warm_source: self.warm_source.to_string(),
            trace: match self.ctx.trace {
                0 => String::new(),
                trace => format!("{trace:016x}"),
            },
        }
    }

    fn arity_check(&self, config: &[i64]) -> Result<(), ServeError> {
        let arity = self.oracle.spec().n_params();
        if config.len() != arity {
            return Err(ServeError::BadRequest(format!(
                "configuration has {} values, workflow {} takes {arity}",
                config.len(),
                self.params.workflow,
            )));
        }
        Ok(())
    }

    /// Stages one record for the session journal's next commit (no-op
    /// without a journal). Nothing staged may be acted on before
    /// [`Session::journal_commit`] returns.
    fn journal_stage(&mut self, record: &JournalRecord) -> Result<(), ServeError> {
        match &mut self.journal {
            Some(journal) => journal
                .stage(record)
                .map_err(|e| ServeError::Internal(format!("journal stage failed: {e}"))),
            None => Ok(()),
        }
    }

    /// Makes every staged record durable with one write and one fsync,
    /// recorded as one `journal.commit` trace event carrying the cost and
    /// the record count. With nothing staged: no I/O, no event.
    fn journal_commit(&mut self) -> Result<(), ServeError> {
        let ctx = self.trace_ctx();
        let Some(journal) = &mut self.journal else {
            return Ok(());
        };
        let start = Instant::now();
        let result = journal.commit();
        if let Ok(0) = result {
            return Ok(());
        }
        let at = [
            ("session", self.id.into()),
            ("us", (start.elapsed().as_micros() as u64).into()),
            ("records", result.as_ref().map_or(0, |&n| n).into()),
            ("ok", u64::from(result.is_ok()).into()),
        ];
        self.tracer.instant("journal.commit", ctx, &at);
        match result {
            Ok(_) => Ok(()),
            Err(e) => Err(ServeError::Internal(format!("journal commit failed: {e}"))),
        }
    }

    /// Journals a batch of solo samples, closed by `marker`, in one commit.
    /// Replay applies the batch only once the marker is on disk, so a
    /// commit torn by a crash replays as if the batch never started.
    fn journal_history(
        &mut self,
        batch: &ComponentHistory,
        marker: &str,
    ) -> Result<(), ServeError> {
        for (component, samples) in batch.samples.iter().enumerate() {
            for (values, value) in samples {
                self.journal_stage(&JournalRecord::Solo {
                    component,
                    values: values.clone(),
                    value: *value,
                    // `D_hist` keeps the objective value only.
                    exec_time: 0.0,
                    computer_time: 0.0,
                })?;
            }
        }
        self.journal_stage(&JournalRecord::Marker(marker.into()))?;
        self.journal_commit()
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

    /// This campaign's measurements, billed to `metrics`.
    fn metered<'a>(&'a self, metrics: &'a ServerMetrics) -> CountingOracle<'a> {
        // Injected faults are a local-retry test fixture, not a sick
        // backend: a session created with a failure rate bypasses the
        // breaker, so it can't blackhole real measurements.
        let breakers = self.breakers.as_ref().filter(|_| self.failure_rate == 0.0);
        let mut metered = CountingOracle::new(&self.oracle, metrics);
        metered.trace = Some((&self.tracer, self.trace_ctx(), self.id));
        metered.breaker = breakers.map(|b| b.oracle.as_ref());
        metered
    }

    /// Measures the next `idxs` of the pending ask, in ask order.
    ///
    /// Fault-free sessions scatter a batch worth a round across the fleet
    /// (injected faults are a local-retry fixture that stays sequential).
    /// Whatever the fleet hands back unmeasured — worker died, attempts
    /// exhausted, gather deadline — is measured locally, which yields the
    /// same values (workers rebuild the same deterministic oracle), so the
    /// trajectory never depends on fleet membership or timing.
    ///
    /// Wherever it ran, a measurement is billed once and its record staged;
    /// the batch is then journaled write-ahead — one commit, durable before
    /// the campaign state advances, so a crash after that point re-bills
    /// nothing and one before it loses only runs no reply had reported —
    /// and handed to the stepper. A failure commits and applies what was
    /// measured before it and leaves the rest of the ask pending. Returns
    /// whether the call waited on a fleet round.
    fn measure_batch(
        &mut self,
        idxs: &[usize],
        metrics: &ServerMetrics,
        fleet: Option<&ceal_fleet::Coordinator>,
    ) -> Result<bool, ServeError> {
        // Fleet workers rebuild their oracles on the *default* platform,
        // so a session tuning any other platform must measure locally.
        let fleet = fleet.filter(|f| {
            self.failure_rate == 0.0
                && idxs.len() > 1
                && f.live_workers() > 0
                && self.oracle.simulator().platform == Platform::default()
        });
        let mut remote = HashMap::new();
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
            remote.extend(fleet.gather(batch).results);
        }
        let mut measured = Vec::with_capacity(idxs.len());
        let mut outcome = Ok(fleet.is_some());
        for &idx in idxs {
            match self.measure_one(idx, remote.remove(&(idx as u64)), metrics) {
                Ok(m) => measured.push(m),
                Err(e) => {
                    outcome = Err(e);
                    break;
                }
            }
        }
        self.journal_commit()?;
        for m in measured {
            self.apply(m)?;
        }
        outcome
    }

    /// Measures pool configuration `idx` — `remote` is what the fleet made
    /// of it, anything but a measurement meaning "run it here" — bills it
    /// and stages its journal record.
    fn measure_one(
        &mut self,
        idx: usize,
        remote: Option<ceal_fleet::TaskOutcome>,
        metrics: &ServerMetrics,
    ) -> Result<Measurement, ServeError> {
        self.attempt += 1;
        let config = &self.pool[idx];
        let worked = match remote {
            Some(ceal_fleet::TaskOutcome::Measured {
                value,
                exec_time,
                computer_time,
            }) => {
                let at = [("session", self.id.into()), ("idx", (idx as u64).into())];
                self.tracer
                    .instant("oracle.remote-applied", self.trace_ctx(), &at);
                Some(Measurement {
                    config: config.clone(),
                    value,
                    exec_time,
                    computer_time,
                })
            }
            _ => None,
        };
        // A session created with a failure rate numbers its attempts
        // through the fault injector: a retry rolls afresh.
        let m = self.metered(metrics).run("coupled", worked, |oracle| {
            match self.failure_rate > 0.0 {
                true => FaultInjector::new(oracle, self.failure_rate, self.fault_seed)
                    .try_measure(config, self.attempt),
                false => oracle.try_measure(config),
            }
        })?;
        self.journal_stage(&JournalRecord::coupled(&m, self.attempt))?;
        Ok(m)
    }

    /// Builds the stepper of `params.algo` and fetches its first ask. A
    /// session's stepper gets the history collected so far; a one-shot's
    /// gets none and asks for its solo runs instead.
    fn start_search(&mut self) -> Result<(), ServeError> {
        let history = (!self.one_shot).then(|| Arc::new(self.history.clone()));
        let tuner = by_name(&self.params.algo, history).ok_or_else(|| {
            ServeError::Internal(format!("no tuner named '{}'", self.params.algo))
        })?;
        let (budget, seed) = (self.params.budget as usize, self.params.seed);
        let mut campaign = Campaign::of(&self.oracle, Arc::clone(&self.pool), budget, seed);
        campaign.prior = self.prior.take();
        self.enter_phase(Phase::Bootstrapping);
        self.ask_next(tuner.stepper(campaign));
        Ok(())
    }

    /// Fetches `stepper`'s next ask. The first coupled ask is
    /// `bootstrapping`, every later one `refining`, the finished run `done`.
    fn ask_next(&mut self, mut stepper: Box<dyn Stepper>) {
        match stepper.next() {
            Ask::Solo(ask) => self.solo = Some(SoloAsk(stepper, ask)),
            Ask::Coupled(ask) => {
                if self.measured > 0 && self.phase == Phase::Bootstrapping {
                    self.enter_phase(Phase::Refining);
                }
                let got = Vec::new();
                self.search = Some(Search { stepper, ask, got });
            }
            Ask::Done(run) => {
                let best_value = run
                    .pool_scores
                    .iter()
                    .copied()
                    .fold(f64::INFINITY, f64::min);
                self.best = Some((run.best_predicted, best_value));
                self.surrogate = run.surrogate;
                let measured = run.measured.into_iter();
                self.samples = measured.map(|m| (m.config, m.value)).collect();
                self.enter_phase(Phase::Done);
            }
        }
    }

    /// Takes the answer to the next configuration of the pending ask; a
    /// completed batch is told to the stepper and the next ask fetched.
    /// Live measurements and replayed journal records both come through
    /// here, which is what makes replay a fold of the journal.
    fn apply(&mut self, m: Measurement) -> Result<(), ServeError> {
        let Some(mut search) = self.search.take() else {
            return Err(ServeError::Internal(format!(
                "coupled run outside the search (state {})",
                self.phase.name()
            )));
        };
        let asked = &self.pool[search.ask[search.got.len()]];
        if &m.config != asked {
            return Err(ServeError::Internal(format!(
                "run of {:?} where the tuner asked for {asked:?}",
                m.config
            )));
        }
        search.got.push(m);
        self.measured += 1;
        if search.got.len() < search.ask.len() {
            self.search = Some(search);
            return Ok(());
        }
        search.stepper.tell(Told::Coupled(search.got));
        self.ask_next(search.stepper);
        Ok(())
    }

    /// [`Session::advance_with`] without a fleet.
    pub fn advance(
        &mut self,
        runs: u64,
        cache: &AutotuneCache,
        metrics: &ServerMetrics,
    ) -> Result<SessionStatus, ServeError> {
        self.advance_with(runs, cache, metrics, None)
    }

    /// Advances the campaign, spending at most `runs` coupled
    /// measurements of the stepper's pending ask, in ask order, scattered
    /// across `fleet` when one is supplied and has live workers.
    ///
    /// A session's first call collects the history and stops there. Later
    /// calls measure; one call's measurements straddle at most one batch
    /// boundary (the rest of the pending ask, then the start of the next)
    /// and wait on at most one fleet round, so a client sees a bounded
    /// step whatever `runs` it passes.
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
            Phase::Created if !self.one_shot => self.collect_history(metrics)?,
            Phase::Done => {}
            _ => {
                if matches!(self.phase, Phase::Created | Phase::CollectingHistory) {
                    self.start_search()?;
                }
                // A campaign without free history pays for its component
                // data; the runs join `history`.
                while let Some(SoloAsk(_, ask)) = &self.solo {
                    let metered = self.metered(metrics);
                    let runs = ask
                        .iter()
                        .map(|(j, v)| metered.try_measure_component(*j, v));
                    let runs: Vec<SoloMeasurement> = runs.collect::<Result<_, _>>()?;
                    for m in &runs {
                        self.history.push(m.component, m.values.clone(), m.value);
                    }
                    if let Some(SoloAsk(mut stepper, _)) = self.solo.take() {
                        stepper.tell(Told::Solo(runs));
                        self.ask_next(stepper);
                    }
                }
                let mut left = usize::try_from(runs).unwrap_or(usize::MAX);
                for _ in 0..2 {
                    let Some(search) = &self.search else { break };
                    let pending = &search.ask[search.got.len()..];
                    let todo = pending[..left.min(pending.len())].to_vec();
                    left -= todo.len();
                    if self.measure_batch(&todo, metrics, fleet)? {
                        break;
                    }
                }
                if self.phase == Phase::Done {
                    self.finish(cache, metrics)?;
                }
            }
        }
        Ok(self.status())
    }

    /// Gathers the free solo samples (§7.5): they model data the
    /// components' owners already had.
    fn collect_history(&mut self, metrics: &ServerMetrics) -> Result<(), ServeError> {
        let mut rng = ChaCha8Rng::seed_from_u64(self.params.seed ^ 0xD157);
        let metered = self.metered(metrics);
        let (collected, _) =
            ComponentHistory::try_collect(&metered, HISTORY_PER_COMPONENT, &mut rng)?;
        self.journal_history(&collected, HISTORY_MARKER)?;
        self.history
            .merge(&collected)
            .map_err(|e| ServeError::Internal(e.to_string()))?;
        self.enter_phase(Phase::CollectingHistory);
        Ok(())
    }

    /// Publishes the completed campaign to the shared cache and retires
    /// the journal — the cache is now the durable record. A persistence
    /// failure is counted on the Metrics endpoint.
    fn finish(&mut self, cache: &AutotuneCache, metrics: &ServerMetrics) -> Result<(), ServeError> {
        self.delete_journal();
        let Some((best, mut best_value)) = self.best.clone() else {
            return Ok(());
        };
        let mut mode = SESSION_MODE;
        if self.one_shot {
            // `Tune` answers with a measurement of its recommendation,
            // where a session reports the surrogate's score of it.
            best_value = self.metered(metrics).try_measure(&best)?.value;
            self.best = Some((best.clone(), best_value));
            mode = TUNE_MODE;
        }
        if self.pushed_history {
            return Ok(());
        }
        let platform = &self.oracle.simulator().platform;
        let entry = CacheEntry {
            key: cache_key(&self.params, platform, mode),
            best,
            best_value,
            runs_used: self.measured,
            component_runs: self.history.total_samples() as u64,
            samples: self.samples.clone(),
            platform_features: platform_features(platform),
        };
        cache.publish(
            entry,
            self.breakers.as_ref().map(|b| b.cache.as_ref()),
            metrics,
            &self.tracer,
            self.trace_ctx(),
            self.id,
        );
        Ok(())
    }

    /// Scores `configs` in one encoded batch with the finished campaign's
    /// surrogate.
    pub fn predict(&mut self, configs: &[Vec<i64>]) -> Result<Vec<f64>, ServeError> {
        if self.phase != Phase::Done || self.samples.is_empty() {
            return Err(ServeError::NotReady(format!(
                "no surrogate before the campaign is done (state {})",
                self.phase.name()
            )));
        }
        for cfg in configs {
            self.arity_check(cfg)?;
        }
        let fm = FeatureMap::for_workflow(self.oracle.spec());
        let model = self.surrogate.get_or_insert_with(|| {
            let kind = SurrogateKind::BoostedTrees;
            fit_surrogate_samples(kind, &fm, &self.samples, self.params.seed).into()
        });
        Ok(model.predict_batch(&encode_pool(&fm, configs)))
    }

    /// Measures one ad-hoc configuration. Infeasible configurations come
    /// back as [`ServeError::Infeasible`], not a panic.
    pub fn measure(
        &mut self,
        config: &[i64],
        metrics: &ServerMetrics,
    ) -> Result<Measurement, ServeError> {
        self.arity_check(config)?;
        Ok(self.metered(metrics).try_measure(config)?)
    }

    /// Adds `incoming` to `D_hist`, refusing samples the component models
    /// could not be fitted on.
    fn merge_history(&mut self, incoming: &ComponentHistory) -> Result<(), String> {
        let components = &self.oracle.spec().components;
        for (comp, samples) in components.iter().zip(&incoming.samples) {
            let arity = comp.params().len();
            let misfit = |(v, y): &&(Vec<i64>, f64)| v.len() != arity || !y.is_finite();
            if let Some((values, value)) = samples.iter().find(misfit) {
                return Err(format!(
                    "sample {values:?} = {value} does not fit {} ({arity} parameters)",
                    comp.name()
                ));
            }
        }
        self.history.merge(incoming).map_err(|e| e.to_string())
    }

    /// Merges client-supplied historical component samples into `D_hist`.
    /// Once the search has started its component models are fitted and the
    /// history is closed.
    pub fn push_history(
        &mut self,
        samples: Vec<Vec<(Vec<i64>, f64)>>,
    ) -> Result<SessionStatus, ServeError> {
        if !matches!(self.phase, Phase::Created | Phase::CollectingHistory) {
            return Err(ServeError::NotReady(format!(
                "history is closed once the search has started (state {})",
                self.phase.name()
            )));
        }
        let incoming = ComponentHistory { samples };
        self.merge_history(&incoming)
            .map_err(ServeError::HistoryMismatch)?;
        self.pushed_history = true;
        self.journal_history(&incoming, PUSHED_MARKER)?;
        Ok(self.status())
    }

    /// Restores campaign state by folding the journaled records
    /// (everything after the `Start` header) through the transitions a
    /// live campaign takes, spending zero oracle budget: solo batches
    /// rebuild the history, the first coupled record starts the search,
    /// every coupled record answers the stepper's pending ask. A record
    /// the stepper did not ask for — another build's journal, a tampered
    /// file, more runs than the budget — fails the rebuild.
    fn replay(&mut self, records: Vec<JournalRecord>) -> Result<(), ServeError> {
        let corrupt = |m: String| ServeError::Internal(format!("journal does not replay: {m}"));
        let mut batch = ComponentHistory::empty(self.history.n_components());
        for rec in records {
            match rec {
                JournalRecord::Start(_) => return Err(corrupt("duplicate header".into())),
                JournalRecord::Solo {
                    component,
                    values,
                    value,
                    ..
                } => match batch.samples.get_mut(component) {
                    Some(samples) => samples.push((values, value)),
                    None => return Err(corrupt(format!("solo for component {component}"))),
                },
                JournalRecord::Marker(m) if m == HISTORY_MARKER || m == PUSHED_MARKER => {
                    if self.search.is_some() || self.phase == Phase::Done {
                        return Err(corrupt("history after the search started".into()));
                    }
                    self.merge_history(&batch).map_err(corrupt)?;
                    batch = ComponentHistory::empty(self.history.n_components());
                    if m == HISTORY_MARKER {
                        self.enter_phase(Phase::CollectingHistory);
                    } else {
                        self.pushed_history = true;
                    }
                }
                JournalRecord::Marker(m) if m.starts_with(PRIOR_MARKER) => {
                    let (samples, source, distance): (_, String, _) =
                        serde_json::from_str(&m[PRIOR_MARKER.len()..])
                            .map_err(|e| corrupt(format!("transfer prior: {e}")))?;
                    self.prior = Some(TransferPrior::new(samples, source, distance));
                    self.warm_source = "transfer";
                }
                JournalRecord::Marker(_) => {}
                JournalRecord::Coupled {
                    config,
                    value,
                    exec_time,
                    computer_time,
                    attempt,
                } => {
                    if self.phase == Phase::CollectingHistory {
                        self.start_search()?;
                    }
                    self.attempt = self.attempt.max(attempt);
                    self.apply(Measurement {
                        config,
                        value,
                        exec_time,
                        computer_time,
                    })?;
                }
            }
        }
        Ok(())
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
        let bad = |message: String| Err(ServeError::Internal(message));
        let mut records = report.records.into_iter();
        let Some(JournalRecord::Start(cid)) = records.next() else {
            return bad("journal has no campaign header".into());
        };
        let Some(algo) = cid.algo.strip_prefix("session:") else {
            return bad(format!("not a session journal (algo '{}')", cid.algo));
        };
        let params = TuneParams {
            workflow: cid.workflow.clone(),
            objective: cid.objective.clone(),
            budget: cid.budget,
            pool: cid.pool,
            seed: cid.seed,
            algo: algo.to_string(),
        };
        let parsed = parse_params(&params)?;
        let (failure_rate, fault_seed) = (cid.failure_rate, cid.fault_seed);
        let mut session = Session::new(id, params, parsed, failure_rate, fault_seed, self, None);
        session.sample_pool();
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
    /// hit starts the session in `done` with zero oracle spend; failing
    /// that, the nearest cached sibling platform within the transfer
    /// threshold seeds a **transfer** campaign (its samples become the
    /// stepper's prior); otherwise the campaign starts **cold**. Returns
    /// the status (whose `warm_source` names the tier) and whether an
    /// exact hit supplied it.
    pub fn create(
        &self,
        params: TuneParams,
        failure_rate: f64,
        fault_seed: u64,
        cache: &AutotuneCache,
        metrics: &ServerMetrics,
    ) -> Result<(SessionStatus, bool), ServeError> {
        let parsed = parse_params(&params)?;
        if !(0.0..1.0).contains(&failure_rate) {
            return Err(ServeError::BadRequest(format!(
                "failure rate {failure_rate} outside [0, 1)"
            )));
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let key = cache_key(&params, &self.platform, SESSION_MODE);
        let lookup_start = Instant::now();
        let (hit, tier) = cache.get_with_tier(&key);
        let mut session = Session::new(id, params, parsed, failure_rate, fault_seed, self, None);
        match &hit {
            Some(entry) => {
                metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
                session.finish_from(entry);
            }
            None => {
                metrics.cache_misses.fetch_add(1, Ordering::Relaxed);
                session.sample_pool();
                let features = platform_features(&self.platform);
                let near = (self.transfer_threshold > 0.0)
                    .then(|| cache.nearest_transfer(&key, &features, self.transfer_threshold));
                if let Some(near) = near.flatten() {
                    metrics
                        .cache_transfer_seeded
                        .fetch_add(1, Ordering::Relaxed);
                    session.warm_source = "transfer";
                    let (samples, from) = (near.entry.samples, near.entry.key.platform);
                    session.prior = Some(TransferPrior::new(samples, from, near.distance));
                }
            }
        }
        let from_cache = hit.is_some();
        // One lookup event per created session, naming both the store tier
        // that answered (`front`/`disk`/`miss`) and the campaign tier the
        // session starts in (`exact`/`transfer`/`cold`).
        self.tracer.instant(
            "cache.lookup",
            TraceContext::root(session.ctx.trace),
            &[
                ("endpoint", "create-session".into()),
                ("tier", tier.into()),
                ("warm", session.warm_source.into()),
                ("us", (lookup_start.elapsed().as_micros() as u64).into()),
            ],
        );
        // Warm-cache sessions spend nothing, so there is nothing worth
        // journaling; fresh campaigns get a write-ahead journal, whose
        // header (and transfer prior) is one commit.
        if let (false, Some(dir)) = (from_cache, &self.journal_dir) {
            let path = Self::journal_path(dir, id);
            let _ = std::fs::remove_file(&path); // stale leftover, new campaign
            let (journal, _) = Journal::open(&path)
                .map_err(|e| ServeError::Internal(format!("journal open failed: {e}")))?;
            session.journal = Some(journal);
            // The `session:` prefix tells session journals from the CLI's.
            session.journal_stage(&JournalRecord::Start(CampaignId {
                workflow: session.params.workflow.clone(),
                objective: session.params.objective.clone(),
                algo: format!("session:{}", session.params.algo),
                budget: session.params.budget,
                pool: session.params.pool,
                seed: session.params.seed,
                failure_rate,
                fault_seed,
            }))?;
            if let Some(prior) = &session.prior {
                let prior = (&prior.samples, &prior.source, prior.distance);
                let json = serde_json::to_string(&prior)
                    .map_err(|e| ServeError::Internal(format!("prior does not serialize: {e}")))?;
                session.journal_stage(&JournalRecord::Marker(format!("{PRIOR_MARKER}{json}")))?;
            }
            session.journal_commit()?;
        }
        let status = session.status();
        self.sessions
            .write()
            .insert(id, Arc::new(Mutex::new(session)));
        metrics.sessions_created.fetch_add(1, Ordering::Relaxed);
        Ok((status, from_cache))
    }

    /// A one-shot `Tune` campaign on this registry's platform, tracer and
    /// breakers, but not in it: the caller drives the returned shell to
    /// `done` and drops it. Its events record under `ctx`, the request's
    /// `campaign.tune` span. `parsed` is [`parse_params`] of `params`.
    pub(crate) fn one_shot(
        &self,
        params: TuneParams,
        parsed: (WorkflowSpec, Objective),
        ctx: TraceContext,
    ) -> Session {
        let mut shell = Session::new(0, params, parsed, 0.0, 0, self, Some(ctx));
        shell.sample_pool();
        shell
    }

    /// Fetches a session, refreshing its idle clock.
    pub fn get(&self, id: u64) -> Result<Arc<Mutex<Session>>, ServeError> {
        let handle = self
            .sessions
            .read()
            .get(&id)
            .cloned()
            .ok_or(ServeError::UnknownSession(id))?;
        handle.lock().last_touch = Instant::now();
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
    fn session_cache_mode_names_the_history_size() {
        assert_eq!(SESSION_MODE, format!("session-h{HISTORY_PER_COMPONENT}"));
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
        // It never searches, so it sampled no pool — and still answers
        // `Status`, and `Predict` from a surrogate fitted on the entry.
        let handle = mgr.get(warm.session).unwrap();
        let mut s = handle.lock();
        assert!(s.pool.is_empty(), "a cache-answered create samples nothing");
        assert_eq!(s.status(), warm);
        let preds = s.predict(&[warm.best.clone().unwrap()]).unwrap();
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
        // A sample the component model could not be fitted on.
        let err = s
            .push_history(vec![vec![(vec![100, 20], 2.0)], vec![]])
            .unwrap_err();
        assert_eq!(err.code(), "history-mismatch");
        let ok = s
            .push_history(vec![vec![(vec![100, 20, 1], 2.0)], vec![]])
            .unwrap();
        assert_eq!(ok.history_samples, 1);
    }

    #[test]
    fn pushed_history_keeps_the_result_out_of_the_exact_tier() {
        let (mgr, cache, metrics) = ctx();
        for push in [true, false] {
            let (st, from_cache) = mgr.create(params(6), 0.0, 0, &cache, &metrics).unwrap();
            assert!(!from_cache, "a pushed-history result must not be served");
            let handle = mgr.get(st.session).unwrap();
            let mut s = handle.lock();
            if push {
                s.push_history(vec![vec![(vec![100, 20, 1], 2.0)], vec![]])
                    .unwrap();
            }
            while s.advance(6, &cache, &metrics).unwrap().state != "done" {}
            assert_eq!(cache.len(), usize::from(!push));
        }
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
