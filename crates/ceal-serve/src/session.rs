//! Incremental tuning sessions.
//!
//! A session is one tuning campaign driven by explicit client steps, so
//! budget is spent a few measurements at a time instead of in one blocking
//! request. It is two parts. The campaign core (`session::state`) holds
//! the campaign's state and makes every decision; it changes only by
//! folding journal records, and its one output is the next ask, as data.
//! It does not search either: it asks for what the checked record fold
//! ([`Fold`](ceal_core::algorithms::Fold), the one
//! [`Autotuner::try_run`](ceal_core::Autotuner::try_run) drives) of the
//! stepper `TuneParams.algo` names in [`by_name`] asks for. [`Session`] is
//! the one I/O shell around the core: it measures what the core asks for
//! (locally, or across the fleet), bills each result, commits the batch's
//! records to the journal — one write, before any of it is handed over
//! and before the reply leaves, so what a client was told is durable and
//! a crash loses at most the batch in flight — folds them into the core,
//! publishes the finished campaign and rolls the phase span whenever the
//! core's phase moves. The states a client sees are the core's:
//!
//! ```text
//! created → collecting-history → bootstrapping → refining → done
//! ```
//!
//! The first `Advance` gathers free solo component samples (`D_hist`,
//! §7.5; clients may push more until the search starts). The next starts
//! the stepper over that history: its first coupled ask is
//! *bootstrapping*, every later ask *refining*, its finished run *done* —
//! published to the cache and served for batched prediction.
//!
//! A restart is the core's fold over what the journal recovered, so a
//! rebuilt session stands where the live one stood, a journal the stepper
//! would not have produced is rejected, not trusted, and a session rebuilt
//! `done` publishes at its first `Advance`.
//!
//! A session seeded from a sibling platform's cached campaign
//! (`warm_source = transfer`) differs in one thing: the sibling's samples
//! are the campaign's [`TransferPrior`](ceal_core::TransferPrior), which
//! CEAL blends into its `M_H` fits until the session owns a fifth of its
//! budget in measurements.
//!
//! One-shot `Tune` runs on the same shell. Its campaign omits what only a
//! client-stepped one needs — the registry entry, the journal (its commits
//! fold without writing), the free history: the stepper asks for its solo
//! runs and the budget pays — and is driven to `done` inside the request.
//!
//! Every simulator run this process makes, for either kind of campaign,
//! goes through one measure function, [`CountingOracle`]'s: one span, one
//! bill.
//!
//! A batch worth a fleet round cuts a step in two: the step scatters it
//! and returns with the round stored in the shell — nothing measured,
//! nothing folded, the session lock free for `Status` — and the
//! session's next step takes up what the fleet made of it. Between the
//! two the request is the server's to park.
//!
//! Sessions live in a [`SessionManager`] registry, evicted when idle.

use crate::cache::{platform_fingerprint, AutotuneCache, CacheKey};
use crate::error::ServeError;
use crate::metrics::{CountingOracle, ServerMetrics};
use crate::protocol::{SessionStatus, TuneParams};
use ceal_core::algorithms::by_name;
use ceal_core::{
    ComponentHistory, FaultInjector, Journal, JournalRecord, Measurement, Oracle, SimOracle,
};
use ceal_fleet::{Coordinator, TaskOutcome};
use ceal_sim::{Objective, Platform, Simulator, WorkflowSpec};
use ceal_trace::{Span, TraceContext, Tracer};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;
use std::time::Instant;

mod registry;
mod state;
pub use registry::SessionManager;
use state::{history_records, Core, Next, Phase, HISTORY_MARKER};

/// Base seed of every server-side oracle — matches the `tune` CLI so a
/// remote campaign reproduces the local one exactly.
pub(crate) const ORACLE_BASE_SEED: u64 = 2021;

/// Upper bounds protecting the server from absurd requests.
const MAX_POOL: u64 = 100_000;
const MAX_BUDGET: u64 = 10_000;

/// The [`cache_key`] mode of a session campaign, which brings four free
/// history samples per component (the core's `HISTORY_PER_COMPONENT`).
const SESSION_MODE: &str = "session-h4";
/// The [`cache_key`] mode of a one-shot `Tune` campaign.
pub(crate) const TUNE_MODE: &str = "tune";

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
/// free historical samples per component (`session-h4`). Same algorithm,
/// different campaigns, different answers — so different keys.
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

/// One live tuning campaign: the I/O shell around its core.
pub struct Session {
    /// Registry id; 0 for a one-shot campaign, which has no registry entry.
    id: u64,
    core: Core,
    oracle: SimOracle,
    /// The fleet round in flight, between the two halves of a step: the
    /// batch that answers it, and the pool indices it measures in ask order.
    round: Option<(u64, Vec<usize>)>,
    /// A one-shot's measurement of its recommendation, which it reports
    /// where a session reports the surrogate's score.
    remeasured: Option<f64>,
    /// Injected faults of coupled runs: `(failure rate, seed)`.
    faults: (f64, u64),
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
    /// Span of the phase the core stands in; its `End` carries the phase's
    /// duration.
    phase_span: Option<(Phase, Span)>,
    tracer: Tracer,
}

impl Session {
    /// The shell around `core`, journaling to `journal`, with `faults`
    /// (failure rate, seed) injected into its coupled runs. A session's
    /// campaign is the root of the trace `ctx` names; a one-shot's records
    /// under `ctx`, its request's span.
    fn new(
        id: u64,
        core: Core,
        journal: Option<Journal>,
        faults: (f64, u64),
        tracer: &Tracer,
        ctx: TraceContext,
    ) -> Session {
        let c = core.campaign();
        let mut sim = Simulator::new();
        sim.platform = c.platform.clone();
        let oracle = SimOracle::new(sim, c.spec.clone(), c.objective, ORACLE_BASE_SEED);
        let root_span = (!core.one_shot() && tracer.enabled()).then(|| {
            let mut span = tracer.span("session", ctx);
            let p = core.params();
            span.field("session", id);
            span.field("workflow", p.workflow.as_str());
            span.field("algo", p.algo.as_str());
            span.field("budget", p.budget);
            span
        });
        let mut s = Session {
            id,
            oracle,
            round: None,
            remeasured: None,
            faults,
            attempt: core.attempt(),
            journal,
            ctx: root_span.as_ref().map_or(ctx, Span::ctx),
            root_span,
            phase_span: None,
            tracer: tracer.clone(),
            core,
        };
        s.roll_phase();
        s
    }

    /// Rolls the phase span when the core's phase has moved: the old
    /// span's `End` (carrying the time spent in that phase) is emitted
    /// before the new phase's `Begin`. A one-shot's phases are not
    /// client-visible; its whole campaign is the request's span.
    fn roll_phase(&mut self) {
        let phase = self.core.phase();
        if self.root_span.is_none() || matches!(&self.phase_span, Some((p, _)) if *p == phase) {
            return;
        }
        self.phase_span = None;
        let mut span = self.tracer.span(phase.names().1, self.ctx);
        span.field("session", self.id);
        self.phase_span = Some((phase, span));
    }

    /// Trace position for this campaign's child events: the current phase
    /// span when one is open, else the campaign's root.
    fn trace_ctx(&self) -> TraceContext {
        self.phase_span.as_ref().map_or(self.ctx, |(_, s)| s.ctx())
    }

    /// The externally visible state.
    pub fn status(&self) -> SessionStatus {
        let trace = (self.ctx.trace != 0).then(|| format!("{:016x}", self.ctx.trace));
        let mut status = self.core.status(self.id, trace.unwrap_or_default());
        status.best_value = self.remeasured.or(status.best_value);
        status
    }

    /// Makes `records` durable, then folds them into the core: with a
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
        let folded = records.into_iter().try_for_each(|r| self.core.fold(r));
        self.roll_phase();
        folded
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

    /// Scatters `idxs` across `fleet` as one round, remembers it and
    /// returns its batch — when they are worth a round there: fault-free
    /// sessions scatter a batch of more than one run (injected faults are a
    /// local-retry fixture that stays sequential), to live workers. Fleet
    /// workers rebuild their oracles on the *default* platform, so a
    /// session tuning any other platform measures locally.
    fn scatter(&mut self, idxs: &[usize], fleet: Option<&Coordinator>) -> Option<u64> {
        let fleet = fleet.filter(|f| {
            self.faults.0 == 0.0
                && idxs.len() > 1
                && f.live_workers() > 0
                && self.oracle.simulator().platform == Platform::default()
        })?;
        let (params, pool) = (self.core.params(), &self.core.campaign().pool);
        let configs: Vec<_> = idxs.iter().map(|&i| (i as u64, pool[i].clone())).collect();
        let (workflow, objective) = (&params.workflow, &params.objective);
        let ctx = self.trace_ctx();
        let batch = fleet.scatter(
            self.id,
            &configs,
            workflow,
            objective,
            ORACLE_BASE_SEED,
            ctx,
        );
        self.round = Some((batch, idxs.to_vec()));
        Some(batch)
    }

    /// Measures the pool configurations `idxs`, in ask order. `remote` is
    /// what a fleet round made of them, by pool index; whatever it holds no
    /// measurement for — never scattered, worker died, attempts exhausted,
    /// gather deadline — is measured locally, which yields the same values
    /// (workers rebuild the same deterministic oracle), so the trajectory
    /// never depends on fleet membership or timing.
    ///
    /// Wherever it ran, a measurement is billed once and becomes a record;
    /// the batch is then committed write-ahead — durable before the
    /// campaign state advances, so a crash after that point re-bills
    /// nothing and one before it loses only runs no reply had reported —
    /// and folded into the core. A failure commits what was measured
    /// before it and leaves the rest of the ask pending.
    fn measure_batch(
        &mut self,
        idxs: &[usize],
        mut remote: HashMap<u64, TaskOutcome>,
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
        remote: Option<TaskOutcome>,
        metrics: &ServerMetrics,
    ) -> Result<JournalRecord, ServeError> {
        self.attempt += 1;
        let config = &self.core.campaign().pool[idx];
        let worked = match remote {
            Some(TaskOutcome::Measured {
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
        let metered = self.metered(metrics);
        let m = metered.run("coupled", worked, |oracle| match self.faults {
            (rate, seed) if rate > 0.0 => {
                FaultInjector::new(oracle, rate, seed).try_measure(config, self.attempt)
            }
            _ => oracle.try_measure(config),
        })?;
        Ok(JournalRecord::coupled(&m, self.attempt))
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
        self.step(runs, cache, metrics, None)?;
        Ok(self.status())
    }

    /// [`Session::advance`] with a fleet to scatter across, when one is
    /// supplied and has live workers. The first batch worth a round ends
    /// the step's first half, returning the fleet batch: it is scattered,
    /// nothing of it is measured or folded yet, and the session's next step
    /// is the other half — it gathers the round from `fleet` (without a
    /// fleet it measures the whole batch here) and ends; `runs` is not
    /// read. So a step waits on at most one fleet round, and holds nothing
    /// while it waits.
    pub(crate) fn step(
        &mut self,
        runs: u64,
        cache: &AutotuneCache,
        metrics: &ServerMetrics,
        fleet: Option<&Coordinator>,
    ) -> Result<Option<u64>, ServeError> {
        if let Some((batch, idxs)) = self.round.take() {
            let gathered = fleet.map(|f| f.gather(batch).results.into_iter().collect());
            self.measure_batch(&idxs, gathered.unwrap_or_default(), metrics)?;
            return self.run(0, cache, metrics, None);
        }
        if runs == 0 {
            return Err(ServeError::BadRequest("advance of 0 runs".into()));
        }
        // A campaign is published by the step that ends it. One rebuilt
        // from a journal that held the whole budget still has the journal:
        // it settles like a campaign that just ended.
        if self.core.phase() == Phase::Done && self.journal.is_none() {
            return Ok(None);
        }
        let left = usize::try_from(runs).unwrap_or(usize::MAX);
        self.run(left, cache, metrics, fleet)
    }

    /// Does what the core asks for until the step is over, measuring at
    /// most `left` coupled runs in at most two batches. A campaign without
    /// free history pays for its component data first, a whole solo ask
    /// at a time.
    fn run(
        &mut self,
        mut left: usize,
        cache: &AutotuneCache,
        metrics: &ServerMetrics,
        fleet: Option<&Coordinator>,
    ) -> Result<Option<u64>, ServeError> {
        let mut batches = 0;
        loop {
            let next = self.core.next()?;
            self.roll_phase();
            match next {
                Next::History(n, seed) => {
                    // Free samples (§7.5): they model data the components'
                    // owners already had.
                    let mut rng = ChaCha8Rng::seed_from_u64(seed);
                    let metered = self.metered(metrics);
                    let (collected, _) = ComponentHistory::try_collect(&metered, n, &mut rng)?;
                    self.commit(history_records(collected, HISTORY_MARKER))?;
                    return Ok(None);
                }
                Next::Solo(ask) => {
                    let metered = self.metered(metrics);
                    let mut records = Vec::with_capacity(ask.len());
                    for (j, values) in &ask {
                        let m = metered.try_measure_component(*j, values)?;
                        records.push(JournalRecord::solo(&m));
                    }
                    self.commit(records)?;
                }
                Next::Coupled(mut todo) if batches < 2 && left > 0 => {
                    todo.truncate(left);
                    (left, batches) = (left - todo.len(), batches + 1);
                    if let Some(batch) = self.scatter(&todo, fleet) {
                        return Ok(Some(batch));
                    }
                    self.measure_batch(&todo, HashMap::new(), metrics)?;
                }
                Next::Coupled(_) => return Ok(None),
                Next::Publish(mut entry) => {
                    // The cache is now the durable record.
                    self.delete_journal();
                    if self.core.one_shot() {
                        // `Tune` answers with a measurement of its
                        // recommendation.
                        let best = self.metered(metrics).try_measure(&entry.best)?;
                        entry.best_value = best.value;
                        self.remeasured = Some(best.value);
                    }
                    cache.publish(entry, metrics, &self.tracer, self.trace_ctx(), self.id);
                    return Ok(None);
                }
                Next::Nothing => {
                    self.delete_journal();
                    return Ok(None);
                }
            }
        }
    }

    /// The fleet batch this session waits on, if a round is in flight.
    pub(crate) fn round_in_flight(&self) -> Option<u64> {
        self.round.as_ref().map(|r| r.0)
    }

    /// Forgets the round in flight — its asks stay pending, as after a
    /// failed measurement — and names its batch for the caller to drop.
    pub(crate) fn abandon_round(&mut self) -> Option<u64> {
        self.round.take().map(|r| r.0)
    }

    /// Whether [`Session::predict`] would have to fit its surrogate first —
    /// milliseconds of work a caller that must not wait hands to the pool.
    pub(crate) fn predict_must_fit(&self) -> bool {
        self.core.predict_must_fit()
    }

    /// Scores `configs` in one encoded batch with the finished campaign's
    /// surrogate.
    pub fn predict(&mut self, configs: &[Vec<i64>]) -> Result<Vec<f64>, ServeError> {
        self.core.predict(configs)
    }

    /// Measures one ad-hoc configuration. Infeasible configurations come
    /// back as [`ServeError::Infeasible`], not a panic.
    pub fn measure(
        &mut self,
        config: &[i64],
        metrics: &ServerMetrics,
    ) -> Result<Measurement, ServeError> {
        self.core.check_arity(config)?;
        Ok(self.metered(metrics).try_measure(config)?)
    }

    /// Merges client-supplied historical component samples into `D_hist`,
    /// journaled like collected history. Once the search has started its
    /// component models are fitted and the history is closed.
    pub fn push_history(
        &mut self,
        samples: Vec<Vec<(Vec<i64>, f64)>>,
    ) -> Result<SessionStatus, ServeError> {
        let records = self.core.pushed(ComponentHistory { samples })?;
        self.commit(records)?;
        Ok(self.status())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;
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
        assert_eq!(
            SESSION_MODE,
            format!("session-h{}", state::HISTORY_PER_COMPONENT)
        );
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
        assert!(
            s.core.campaign().pool.is_empty(),
            "a cache-answered create samples nothing"
        );
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

    /// The core is the campaign and nothing else. For each servable
    /// algorithm a live session is driven one run per `Advance`, so every
    /// reply ends one commit; after each, a core that has folded the
    /// session's committed records — and touches no registry, oracle,
    /// journal or tracer — reports the status the session does: the same
    /// phase, spend, recommendation and history.
    #[test]
    fn a_core_folding_a_live_sessions_commits_stands_where_the_session_stood() {
        let committed = |path: &std::path::Path| {
            let copy = path.with_extension("copy");
            std::fs::copy(path, &copy).unwrap();
            let records = Journal::open(&copy).unwrap().1.records;
            std::fs::remove_file(&copy).ok();
            records
        };
        for algo in ["ceal", "al", "rs", "geist", "alph", "bo", "rl"] {
            let dir = ceal_testutil::unique_temp_path("ceal-core-folds-commits", "");
            let (cache, metrics) = (AutotuneCache::in_memory(), ServerMetrics::new());
            let mgr = SessionManager::new(Duration::from_secs(3600))
                .with_journal_dir(&dir)
                .unwrap();
            let p = TuneParams {
                algo: algo.into(),
                ..params(8)
            };
            let (st, _) = mgr.create(p.clone(), 0.0, 0, &cache, &metrics).unwrap();
            // A second name keeps the journal readable once the finished
            // campaign retires it.
            let kept = dir.join("kept.journal");
            let wal = dir.join(format!("session-{}.wal", st.session));
            std::fs::hard_link(wal, &kept).unwrap();
            let live = mgr.get(st.session).unwrap();
            let parsed = parse_params(&p).unwrap();
            let mut core = Core::new(p, parsed, &Platform::default(), SESSION_MODE);
            let mut folded = 1; // the campaign header
            loop {
                let records = committed(&kept);
                for record in records[folded..].iter().cloned() {
                    core.fold(record).unwrap();
                }
                folded = records.len();
                let want = live.lock().status();
                let got = core.status(want.session, want.trace.clone());
                assert_eq!(got, want, "{algo}, {folded} records");
                if want.state == "done" {
                    break;
                }
                live.lock().advance(1, &cache, &metrics).unwrap();
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
