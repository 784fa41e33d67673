//! Incremental tuning sessions.
//!
//! A session is one tuning campaign driven by explicit client steps, so
//! budget is spent a few measurements at a time instead of in one blocking
//! request. The search itself is not here: a session is the I/O shell
//! around an ask/tell [`Stepper`] — the code
//! [`Autotuner::try_run`](ceal_core::Autotuner::try_run) drives — chosen
//! by `TuneParams.algo` through [`by_name`]. The shell measures what the
//! stepper asks for (locally or across the fleet), bills each result and
//! turns the batch into journal records; [`Session::commit`] makes them
//! durable — one write, before any of it is handed over and before the
//! reply leaves, so what a client was told is durable and a crash loses at
//! most the batch in flight — and then [`Session::fold`]s them into the
//! campaign. The states a client sees are read off that exchange:
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
//! `fold` is the only code that changes campaign state from a record, so a
//! restart is a loop of it over what the journal recovered: a rebuilt
//! session stands where the live one stood, a journal the stepper would
//! not have produced is rejected, not trusted, and a session rebuilt
//! `done` publishes at its first `Advance`.
//!
//! A session seeded from a sibling platform's cached campaign
//! (`warm_source = transfer`) differs in one thing: the sibling's samples
//! are the campaign's [`TransferPrior`], which CEAL blends into its `M_H`
//! fits until the session owns a fifth of its budget in measurements.
//!
//! One-shot `Tune` runs on the same shell. Its campaign omits what only a
//! client-stepped one needs — the registry entry, the journal (its commits
//! fold without writing), the free history: the stepper asks for its solo
//! runs and the budget pays — and is driven to `done` inside the request
//! ([`SessionManager::one_shot`]).
//!
//! Every simulator run this process makes, for either kind of campaign,
//! goes through [`CountingOracle::run`]: one span, one bill.
//!
//! A batch worth a fleet round cuts the step in two. [`Session::advance_begin`]
//! scatters it and returns with the [`Round`] stored in the shell — nothing
//! measured, nothing told, the session lock free for `Status` — and
//! [`Session::complete_round`] takes up what the fleet made of it. Between
//! the two the request is the server's to park (`parked::Parked`).
//!
//! Sessions live in a [`SessionManager`] registry, evicted when idle.

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
use parking_lot::Mutex;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

mod registry;
pub use registry::SessionManager;

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

/// A scattered fleet round the shell waits on: the pool indices it asked
/// the fleet to measure, in ask order, and the batch that answers them.
struct Round {
    batch: u64,
    idxs: Vec<usize>,
}

/// How far [`Session::advance_begin`] got.
pub(crate) enum Advanced {
    /// The step is over.
    Status(SessionStatus),
    /// A round was scattered as this fleet batch; the step ends with
    /// [`Session::complete_round`].
    Scattered(u64),
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
    /// The fleet round in flight, between the two halves of a step.
    round: Option<Round>,
    /// Sibling-platform samples the stepper gets when the search starts.
    prior: Option<TransferPrior>,
    /// How this session was warmed: `exact`, `transfer`, or `cold`.
    warm_source: &'static str,
    /// The solo samples the stepper's component models are fitted on:
    /// `D_hist`, or the answers to a one-shot campaign's solo asks.
    history: ComponentHistory,
    /// Solo samples folded since the last marker; the batch joins
    /// `history` only at the marker that closes it.
    batch: ComponentHistory,
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
            round: None,
            prior: None,
            warm_source: "cold",
            history: ComponentHistory::empty(spec.components.len()),
            batch: ComponentHistory::empty(spec.components.len()),
            pushed_history: false,
            measured: 0,
            samples: Vec::new(),
            surrogate: None,
            best: None,
            oracle: SimOracle::new(sim, spec, objective, ORACLE_BASE_SEED),
            failure_rate,
            fault_seed,
            attempt: 0,
            journal: None,
            ctx: ctx.unwrap_or_default(),
            root_span,
            phase_span: None,
            tracer,
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

    /// Makes `records` durable, then [folds](Session::fold) them: with a
    /// journal, one write and one fsync of everything staged, recorded as
    /// one `journal.commit` event carrying the cost and the record count
    /// (nothing staged: no I/O, no event). A failed write folds nothing.
    fn commit(&mut self, records: Vec<JournalRecord>) -> Result<(), ServeError> {
        let ctx = self.trace_ctx();
        if let Some(journal) = &mut self.journal {
            for record in &records {
                journal.stage(record)?;
            }
            let start = Instant::now();
            let result = journal.commit();
            if !matches!(result, Ok(0)) {
                let at = [
                    ("session", self.id.into()),
                    ("us", (start.elapsed().as_micros() as u64).into()),
                    ("records", result.as_ref().map_or(0, |&n| n).into()),
                    ("ok", u64::from(result.is_ok()).into()),
                ];
                self.tracer.instant("journal.commit", ctx, &at);
            }
            result?;
        }
        records.into_iter().try_for_each(|record| self.fold(record))
    }

    /// Folds one journal record into the campaign: the only code that
    /// changes campaign state from a record, live or on restart. It
    /// measures, bills and writes nothing; a record the campaign would not
    /// have produced (another build's, tampered, over budget) is an error.
    fn fold(&mut self, record: JournalRecord) -> Result<(), ServeError> {
        let bad = |m: String| ServeError::Internal(format!("record does not fold: {m}"));
        match record {
            JournalRecord::Start(_) => return Err(bad("a second campaign header".into())),
            JournalRecord::Solo {
                component,
                values,
                value,
                ..
            } => match self.batch.samples.get_mut(component) {
                Some(samples) => samples.push((values, value)),
                None => return Err(bad(format!("solo for component {component}"))),
            },
            JournalRecord::Marker(m) if m == HISTORY_MARKER || m == PUSHED_MARKER => {
                if !matches!(self.phase, Phase::Created | Phase::CollectingHistory) {
                    return Err(bad("history after the search started".into()));
                }
                let empty = ComponentHistory::empty(self.history.n_components());
                let batch = std::mem::replace(&mut self.batch, empty);
                self.check_history(&batch).map_err(bad)?;
                self.history.merge(&batch).map_err(|e| bad(e.to_string()))?;
                match m == HISTORY_MARKER {
                    // Collection samples every component at least once; the
                    // component models cannot be fitted on none.
                    true => match self.history.samples.iter().position(Vec::is_empty) {
                        Some(j) => return Err(bad(format!("no history for component {j}"))),
                        None => self.enter_phase(Phase::CollectingHistory),
                    },
                    false => self.pushed_history = true,
                }
            }
            JournalRecord::Marker(m) if m.starts_with(PRIOR_MARKER) => {
                let (samples, source, distance): (_, String, _) =
                    serde_json::from_str(&m[PRIOR_MARKER.len()..])
                        .map_err(|e| bad(format!("transfer prior: {e}")))?;
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
                let Some(mut search) = self.search.take() else {
                    return Err(bad(format!("coupled run in state {}", self.phase.name())));
                };
                let asked = &self.pool[search.ask[search.got.len()]];
                if &config != asked {
                    return Err(bad(format!("run of {config:?}, asked for {asked:?}")));
                }
                self.attempt = self.attempt.max(attempt);
                self.measured += 1;
                search.got.push(Measurement {
                    config,
                    value,
                    exec_time,
                    computer_time,
                });
                match search.got.len() < search.ask.len() {
                    true => self.search = Some(search),
                    false => {
                        search.stepper.tell(Told::Coupled(search.got));
                        self.ask_next(search.stepper);
                    }
                }
            }
        }
        Ok(())
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
        let mut metered = CountingOracle::new(&self.oracle, metrics);
        metered.trace = Some((&self.tracer, self.trace_ctx(), self.id));
        metered
    }

    /// The fleet, when the next `idxs` of the pending ask are worth a round
    /// on it: fault-free sessions scatter a batch of more than one run
    /// (injected faults are a local-retry fixture that stays sequential).
    /// Fleet workers rebuild their oracles on the *default* platform, so a
    /// session tuning any other platform measures locally.
    fn fleet_for<'a>(
        &self,
        idxs: &[usize],
        fleet: Option<&'a ceal_fleet::Coordinator>,
    ) -> Option<&'a ceal_fleet::Coordinator> {
        fleet.filter(|f| {
            self.failure_rate == 0.0
                && idxs.len() > 1
                && f.live_workers() > 0
                && self.oracle.simulator().platform == Platform::default()
        })
    }

    /// Scatters `idxs` across `fleet` as one round and remembers it.
    fn scatter_round(&mut self, idxs: Vec<usize>, fleet: &ceal_fleet::Coordinator) -> u64 {
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
        self.round = Some(Round { batch, idxs });
        batch
    }

    /// Measures the next `idxs` of the pending ask, in ask order. `remote`
    /// is what a fleet round made of them, by pool index; whatever it
    /// holds no measurement for — never scattered, worker died, attempts
    /// exhausted, gather deadline — is measured locally, which yields the
    /// same values (workers rebuild the same deterministic oracle), so the
    /// trajectory never depends on fleet membership or timing.
    ///
    /// Wherever it ran, a measurement is billed once and becomes a record;
    /// the batch is then committed write-ahead — durable before the
    /// campaign state advances, so a crash after that point re-bills
    /// nothing and one before it loses only runs no reply had reported —
    /// and folded into the search. A failure commits what was measured
    /// before it and leaves the rest of the ask pending.
    fn measure_batch(
        &mut self,
        idxs: &[usize],
        mut remote: HashMap<u64, ceal_fleet::TaskOutcome>,
        metrics: &ServerMetrics,
    ) -> Result<(), ServeError> {
        let mut records = Vec::with_capacity(idxs.len());
        let outcome = idxs.iter().try_for_each(|&idx| {
            let remote = remote.remove(&(idx as u64));
            records.push(self.measure_one(idx, remote, metrics)?);
            Ok(())
        });
        self.commit(records)?;
        outcome
    }

    /// Measures pool configuration `idx` — `remote` is what the fleet made
    /// of it, anything but a measurement meaning "run it here" — bills it
    /// and returns its journal record.
    fn measure_one(
        &mut self,
        idx: usize,
        remote: Option<ceal_fleet::TaskOutcome>,
        metrics: &ServerMetrics,
    ) -> Result<JournalRecord, ServeError> {
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
        Ok(JournalRecord::coupled(&m, self.attempt))
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

    /// Advances the campaign, spending at most `runs` coupled
    /// measurements of the stepper's pending ask, in ask order, all
    /// measured here.
    ///
    /// A session's first call collects the history and stops there. Later
    /// calls measure; one call's measurements straddle at most one batch
    /// boundary (the rest of the pending ask, then the start of the next),
    /// so a client sees a bounded step whatever `runs` it passes.
    pub fn advance(
        &mut self,
        runs: u64,
        cache: &AutotuneCache,
        metrics: &ServerMetrics,
    ) -> Result<SessionStatus, ServeError> {
        match self.advance_begin(runs, cache, metrics, None)? {
            Advanced::Status(status) => Ok(status),
            Advanced::Scattered(_) => Err(ServeError::Internal("round without a fleet".into())),
        }
    }

    /// [`Session::advance`] with a fleet to scatter across, when one is
    /// supplied and has live workers. The first batch worth a round ends
    /// this half of the step: it is scattered, nothing of it is measured
    /// or told yet, and [`Session::complete_round`] is the other half — so
    /// a step waits on at most one fleet round, and holds nothing while it
    /// waits.
    pub(crate) fn advance_begin(
        &mut self,
        runs: u64,
        cache: &AutotuneCache,
        metrics: &ServerMetrics,
        fleet: Option<&ceal_fleet::Coordinator>,
    ) -> Result<Advanced, ServeError> {
        if runs == 0 {
            return Err(ServeError::BadRequest("advance of 0 runs".into()));
        }
        if self.round.is_some() {
            return Err(ServeError::NotReady("a fleet round is in flight".into()));
        }
        match self.phase {
            Phase::Created if !self.one_shot => self.collect_history(metrics)?,
            // One rebuilt from a journal that held the whole budget still
            // has the journal: it settles like a campaign that just ended.
            Phase::Done if self.journal.is_none() => {}
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
                    if let Some(fleet) = self.fleet_for(&todo, fleet) {
                        return Ok(Advanced::Scattered(self.scatter_round(todo, fleet)));
                    }
                    self.measure_batch(&todo, HashMap::new(), metrics)?;
                }
                return self.settle(cache, metrics);
            }
        }
        Ok(Advanced::Status(self.status()))
    }

    /// The second half of a step that scattered a round: `gathered` is the
    /// fleet's [`gather`](ceal_fleet::Coordinator::gather) of it, taken
    /// whenever the caller stopped waiting.
    pub(crate) fn complete_round(
        &mut self,
        gathered: ceal_fleet::GatherOutcome,
        cache: &AutotuneCache,
        metrics: &ServerMetrics,
    ) -> Result<Advanced, ServeError> {
        let Some(round) = self.round.take() else {
            return Err(ServeError::Internal("no fleet round in flight".into()));
        };
        let remote = gathered.results.into_iter().collect();
        self.measure_batch(&round.idxs, remote, metrics)?;
        self.settle(cache, metrics)
    }

    /// Ends a measuring step: a campaign that just finished is published.
    fn settle(
        &mut self,
        cache: &AutotuneCache,
        metrics: &ServerMetrics,
    ) -> Result<Advanced, ServeError> {
        if self.phase == Phase::Done {
            self.finish(cache, metrics)?;
        }
        Ok(Advanced::Status(self.status()))
    }

    /// The fleet batch this session waits on, if a round is in flight.
    pub(crate) fn round_in_flight(&self) -> Option<u64> {
        self.round.as_ref().map(|r| r.batch)
    }

    /// Forgets the round in flight — its asks stay pending, as after a
    /// failed measurement — and names its batch for the caller to drop.
    pub(crate) fn abandon_round(&mut self) -> Option<u64> {
        self.round.take().map(|r| r.batch)
    }

    /// Gathers the free solo samples (§7.5): they model data the
    /// components' owners already had.
    fn collect_history(&mut self, metrics: &ServerMetrics) -> Result<(), ServeError> {
        let mut rng = ChaCha8Rng::seed_from_u64(self.params.seed ^ 0xD157);
        let metered = self.metered(metrics);
        let (collected, _) =
            ComponentHistory::try_collect(&metered, HISTORY_PER_COMPONENT, &mut rng)?;
        self.commit(history_records(collected, HISTORY_MARKER))
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
        cache.publish(entry, metrics, &self.tracer, self.trace_ctx(), self.id);
        Ok(())
    }

    /// Whether [`Session::predict`] would have to fit its surrogate first —
    /// milliseconds of work a caller that must not wait hands to the pool.
    pub(crate) fn predict_must_fit(&self) -> bool {
        self.phase == Phase::Done && !self.samples.is_empty() && self.surrogate.is_none()
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

    /// Refuses samples the component models could not be fitted on.
    fn check_history(&self, incoming: &ComponentHistory) -> Result<(), String> {
        let components = &self.oracle.spec().components;
        let (n, want) = (incoming.n_components(), components.len());
        if n != want {
            return Err(format!("samples for {n} components, not {want}"));
        }
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
        Ok(())
    }

    /// Merges client-supplied historical component samples into `D_hist`,
    /// journaled like collected history. Once the search has started its
    /// component models are fitted and the history is closed.
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
        self.check_history(&incoming)
            .map_err(ServeError::HistoryMismatch)?;
        self.commit(history_records(incoming, PUSHED_MARKER))?;
        Ok(self.status())
    }
}

/// A batch of solo samples as journal records, closed by `marker`. The
/// fold takes the batch only at its marker, so a commit torn by a crash
/// replays as if the batch never started.
fn history_records(batch: ComponentHistory, marker: &str) -> Vec<JournalRecord> {
    let samples = batch.samples.into_iter().enumerate();
    let solo = samples.flat_map(|(component, samples)| {
        samples
            .into_iter()
            .map(move |(values, value)| JournalRecord::Solo {
                component,
                values,
                value,
                // `D_hist` keeps the objective value only.
                exec_time: 0.0,
                computer_time: 0.0,
            })
    });
    solo.chain([JournalRecord::Marker(marker.into())]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

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

    /// `fold` takes only what the campaign itself would have written: a
    /// second header, a sample of a component the workflow lacks, a run
    /// before the search or one the stepper did not ask for is an error,
    /// and a solo batch counts only at its marker.
    #[test]
    fn fold_refuses_records_the_campaign_would_not_have_written() {
        let (mgr, cache, metrics) = ctx();
        let (st, _) = mgr.create(params(6), 0.0, 0, &cache, &metrics).unwrap();
        let handle = mgr.get(st.session).unwrap();
        let mut s = handle.lock();
        let header = JournalRecord::Start(CampaignId::default());
        assert!(s.fold(header).is_err(), "a second header");
        let solo = |component| JournalRecord::Solo {
            component,
            values: vec![100, 20, 1],
            value: 2.0,
            exec_time: 0.0,
            computer_time: 0.0,
        };
        assert!(s.fold(solo(9)).is_err(), "no component 9 in LV");
        let run = |config: &Vec<i64>| JournalRecord::Coupled {
            config: config.clone(),
            value: 1.0,
            exec_time: 1.0,
            computer_time: 1.0,
            attempt: 1,
        };
        let first = s.pool[0].clone();
        assert!(s.fold(run(&first)).is_err(), "a run before the history");
        s.fold(solo(0)).unwrap();
        s.fold(solo(1)).unwrap();
        assert_eq!(
            s.status().history_samples,
            0,
            "an open batch is not history"
        );
        s.fold(JournalRecord::Marker(HISTORY_MARKER.into()))
            .unwrap();
        assert_eq!(s.status().state, "collecting-history");
        assert_eq!(s.status().history_samples, 2);
        s.start_search().unwrap();
        let asked = s.pool[s.search.as_ref().unwrap().ask[0]].clone();
        let unasked = s.pool.iter().find(|c| **c != asked).unwrap().clone();
        assert!(s.fold(run(&unasked)).is_err(), "a run nobody asked for");
        let pushed = JournalRecord::Marker(PUSHED_MARKER.into());
        assert!(s.fold(pushed).is_err(), "history after the search started");
    }

    /// A session rebuilt from a journal that already holds its whole
    /// budget publishes at its first `Advance` and retires the journal;
    /// later `Advance`s publish nothing more.
    #[test]
    fn a_session_rebuilt_done_publishes_once_and_retires_its_journal() {
        let dir = ceal_testutil::unique_temp_path("ceal-session-rebuilt-done", "");
        let wal = dir.join("session-1.wal");
        let kept = dir.join("kept.journal");
        let (cache, metrics) = (AutotuneCache::in_memory(), ServerMetrics::new());
        let mgr = SessionManager::new(Duration::from_secs(3600))
            .with_journal_dir(&dir)
            .unwrap();
        let (st, _) = mgr.create(params(6), 0.0, 0, &cache, &metrics).unwrap();
        std::fs::hard_link(&wal, &kept).unwrap();
        let live = mgr.get(st.session).unwrap();
        while live.lock().advance(6, &cache, &metrics).unwrap().state != "done" {}
        assert!(!wal.exists());
        std::fs::rename(&kept, &wal).unwrap();

        let mgr = SessionManager::new(Duration::from_secs(3600))
            .with_journal_dir(&dir)
            .unwrap();
        assert_eq!(mgr.rebuild_from_disk(&metrics), 1);
        let store = dir.join("cache");
        let cache = AutotuneCache::at_path(&store);
        let rebuilt = mgr.get(st.session).unwrap();
        let mut s = rebuilt.lock();
        assert_eq!((s.status().state.as_str(), cache.len()), ("done", 0));
        let done = s.advance(1, &cache, &metrics).unwrap();
        assert_eq!(
            done,
            live.lock().status(),
            "rebuilt where the live one ended"
        );
        assert_eq!(cache.len(), 1, "published");
        assert!(!wal.exists(), "journal retired");
        let log = |()| {
            std::fs::read_dir(&store)
                .unwrap()
                .flatten()
                .next()
                .unwrap()
                .path()
        };
        let published = std::fs::read(log(())).unwrap();
        assert_eq!(s.advance(1, &cache, &metrics).unwrap().state, "done");
        assert_eq!(std::fs::read(log(())).unwrap(), published, "published once");
        drop(s);
        std::fs::remove_dir_all(&dir).ok();
    }
}
