//! The campaign core: a session's state and every decision made from it,
//! with no I/O.
//!
//! A [`Core`] is built from the campaign's parameters — fresh, answered by
//! a cache entry, or recovered from a journal's records. Afterwards what
//! was measured reaches it only through [`Core::fold`] of a
//! [`JournalRecord`]; its other moves are its own: [`Core::next`] starts
//! the search once the history is closed, and [`Core::predict`] keeps the
//! surrogate it fits on first use. Its one output is the next ask, as
//! data ([`Next`]): collect the free history, measure a solo or a coupled
//! batch, publish the finished campaign, or nothing. It measures, bills,
//! writes, traces and publishes nothing; the shell around it
//! ([`Session`](super::Session)) does all of that, so a campaign can be
//! driven — or a journal replayed — with no server at all.

use super::{cache_key, Testbed, TUNE_MODE};
use crate::cache::{CacheEntry, CacheKey};
use crate::error::ServeError;
use crate::protocol::{SessionStatus, TuneParams};
use ceal_core::algorithms::{by_name, Campaign, Fold, Pending, SurrogateKind};
use ceal_core::{
    encode_pool, fit_surrogate_samples, sample_pool, ComponentHistory, FeatureMap, JournalRecord,
    TransferPrior, TunerRun,
};
use ceal_ml::Regressor;
use ceal_sim::{Objective, WorkflowSpec};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// Solo samples collected per configurable component in the
/// history-collection phase.
pub(super) const HISTORY_PER_COMPONENT: usize = 4;

/// Markers closing a solo batch of records: collected history, pushed samples.
pub(super) const HISTORY_MARKER: &str = "collecting-history";
const PUSHED_MARKER: &str = "pushed-history";
/// Prefix of the marker carrying a transfer-seeded session's prior: the
/// stepper's asks depend on it, so it is journaled with the campaign.
const PRIOR_MARKER: &str = "transfer-prior ";

/// Where a campaign stands, as a client sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    Created,
    CollectingHistory,
    Bootstrapping,
    Refining,
    Done,
}

impl Phase {
    /// The state name on the wire, and the trace-span name for the time
    /// spent *in* this phase.
    pub(super) fn names(self) -> (&'static str, &'static str) {
        match self {
            Self::Created => ("created", "phase.created"),
            Self::CollectingHistory => ("collecting-history", "phase.collecting-history"),
            Self::Bootstrapping => ("bootstrapping", "phase.bootstrapping"),
            Self::Refining => ("refining", "phase.refining"),
            Self::Done => ("done", "phase.done"),
        }
    }
}

/// What the campaign asks its shell for next.
pub(crate) enum Next {
    /// Collect the free history: this many solo samples of every
    /// component, drawn from this seed, committed as [`history_records`].
    History(usize, u64),
    /// Measure these standalone `(component, values)` runs, in order.
    Solo(Vec<(usize, Vec<i64>)>),
    /// Measure these pool indices, in order. Never empty.
    Coupled(Vec<usize>),
    /// The campaign is over: publish this entry.
    Publish(CacheEntry),
    /// The campaign is over and there is nothing to publish: the cache
    /// answered it, or its history holds client-pushed samples the key
    /// does not carry.
    Nothing,
}

/// One campaign's state.
pub(crate) struct Core {
    params: TuneParams,
    /// The [`cache_key`] mode, which says where the component data comes
    /// from: a session's free history (`SESSION_MODE`), or a one-shot
    /// `Tune`'s own solo asks, paid out of the budget (`TUNE_MODE`).
    mode: &'static str,
    /// The campaign's cache key, built once: what it is looked up and
    /// published under.
    key: CacheKey,
    /// The platform's feature vector, published with the campaign.
    platform_features: Vec<f64>,
    /// What the stepper starts on: workflow, platform, objective, budget,
    /// seed, the transfer prior, and `C_pool` — sampled when the search
    /// starts, so a campaign the cache answered never pays for it.
    campaign: Campaign,
    phase: Phase,
    /// The search: the stepper's fold, from the start of the search until
    /// the run is done.
    search: Option<Fold>,
    /// How this campaign was warmed: `exact`, `transfer`, or `cold`.
    warm_source: &'static str,
    /// The solo samples the stepper's component models are fitted on:
    /// `D_hist`, or the answers to a one-shot campaign's solo asks.
    history: ComponentHistory,
    /// Solo samples folded since the last marker; the batch joins
    /// `history` only at the marker that closes it.
    batch: ComponentHistory,
    /// Whether `history` holds client-pushed samples.
    pushed_history: bool,
    /// Coupled runs folded so far.
    measured: u64,
    /// The highest measurement attempt any folded run carries.
    attempt: u64,
    /// A finished campaign's `(config, value)` measurements, in order.
    samples: Vec<(Vec<i64>, f64)>,
    /// What `Predict` scores with: the tuner's final surrogate when it
    /// handed one over, else boosted trees fitted on `samples` on demand.
    surrogate: Option<Arc<dyn Regressor>>,
    best: Option<(Vec<i64>, f64)>,
}

impl Core {
    /// A fresh campaign on `testbed` under cache-key `mode`; `parsed` is
    /// [`parse_params`](super::parse_params) of `params`.
    pub(crate) fn new(
        params: TuneParams,
        parsed: (WorkflowSpec, Objective),
        testbed: &Testbed,
        mode: &'static str,
    ) -> Core {
        let (spec, objective) = parsed;
        let empty = ComponentHistory::empty(spec.components.len());
        Core {
            key: cache_key(&params, &testbed.fingerprint, mode),
            platform_features: testbed.features.clone(),
            campaign: Campaign {
                spec,
                platform: testbed.platform.clone(),
                objective,
                pool: Vec::new().into(),
                budget: params.budget as usize,
                seed: params.seed,
                prior: None,
            },
            params,
            mode,
            phase: Phase::Created,
            search: None,
            warm_source: "cold",
            history: empty.clone(),
            batch: empty,
            pushed_history: false,
            measured: 0,
            attempt: 0,
            samples: Vec::new(),
            surrogate: None,
            best: None,
        }
    }

    /// This fresh campaign, answered by a cache entry: done, with no
    /// stepper and no spend.
    pub(crate) fn answered(self, entry: &CacheEntry) -> Core {
        Core {
            phase: Phase::Done,
            warm_source: "exact",
            measured: entry.samples.len() as u64,
            samples: entry.samples.clone(),
            best: Some((entry.best.clone(), entry.best_value)),
            ..self
        }
    }

    /// The campaign a session journal recorded: its `records` (behind the
    /// header) folded in order into this fresh core. A solo batch the crash
    /// tore off before its marker never happened.
    pub(crate) fn recover(mut self, records: Vec<JournalRecord>) -> Result<Core, ServeError> {
        for record in records {
            self.fold(record)?;
        }
        self.batch = ComponentHistory::empty(self.history.n_components());
        Ok(self)
    }

    pub(crate) fn params(&self) -> &TuneParams {
        &self.params
    }

    pub(crate) fn key(&self) -> &CacheKey {
        &self.key
    }

    /// A one-shot `Tune` campaign: no free history, no registry entry.
    pub(crate) fn one_shot(&self) -> bool {
        self.mode == TUNE_MODE
    }

    /// The campaign's fixed inputs; `pool` is empty until the search starts.
    pub(crate) fn campaign(&self) -> &Campaign {
        &self.campaign
    }

    pub(crate) fn phase(&self) -> Phase {
        self.phase
    }

    pub(crate) fn attempt(&self) -> u64 {
        self.attempt
    }

    /// The externally visible state of session `session`, whose campaign
    /// trace is `trace`.
    pub(crate) fn status(&self, session: u64, trace: String) -> SessionStatus {
        SessionStatus {
            session,
            state: self.phase.names().0.to_string(),
            budget_left: self.params.budget.saturating_sub(self.measured),
            measured: self.measured,
            history_samples: self.history.total_samples() as u64,
            best: self.best.as_ref().map(|(c, _)| c.clone()),
            best_value: self.best.as_ref().map(|&(_, v)| v),
            warm_source: self.warm_source.to_string(),
            trace,
        }
    }

    /// What the campaign asks for next. A session's first ask collects the
    /// history; the next starts the search — the fold of `params.algo`'s
    /// stepper, over that history, or over none for a one-shot, whose
    /// stepper asks for its solo runs instead — and every later one is the
    /// rest of the stepper's pending ask, until the run is done.
    pub(crate) fn next(&mut self) -> Result<Next, ServeError> {
        match self.phase {
            Phase::Created if !self.one_shot() => {
                let seed = self.params.seed ^ 0xD157;
                return Ok(Next::History(HISTORY_PER_COMPONENT, seed));
            }
            Phase::Created | Phase::CollectingHistory => self.start_search()?,
            _ => {}
        }
        let publish = self.warm_source != "exact" && !self.pushed_history;
        let next = match (self.search.as_ref().map(Fold::pending), &self.best) {
            (Some(Pending::Solo(ask)), _) => Next::Solo(ask.to_vec()),
            (Some(Pending::Coupled(ask)), _) => Next::Coupled(ask.to_vec()),
            // A finished search is taken at once: the campaign is done.
            (_, Some((best, best_value))) if publish => Next::Publish(CacheEntry {
                key: self.key.clone(),
                best: best.clone(),
                best_value: *best_value,
                runs_used: self.measured,
                component_runs: self.history.total_samples() as u64,
                samples: self.samples.clone(),
                platform_features: self.platform_features.clone(),
            }),
            _ => Next::Nothing,
        };
        Ok(next)
    }

    /// Folds one journal record into the campaign: the only code that
    /// changes campaign state, live or on restart. Before the search, solo
    /// records and markers build the history; from its start every run
    /// goes to the search's [`Fold`], which takes only the run the stepper
    /// asks for next. A record the campaign would not have produced
    /// (another build's, tampered, over budget) is an error.
    pub(crate) fn fold(&mut self, record: JournalRecord) -> Result<(), ServeError> {
        let bad = |m: String| ServeError::Internal(format!("record does not fold: {m}"));
        let collecting = matches!(self.phase, Phase::Created | Phase::CollectingHistory);
        match record {
            JournalRecord::Start(_) => return Err(bad("a second campaign header".into())),
            JournalRecord::Solo {
                component,
                values,
                value,
                ..
            } if collecting => match self.batch.samples.get_mut(component) {
                Some(samples) => samples.push((values, value)),
                None => return Err(bad(format!("solo for component {component}"))),
            },
            JournalRecord::Marker(m) if m == HISTORY_MARKER || m == PUSHED_MARKER => {
                if !collecting {
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
                        None => self.phase = Phase::CollectingHistory,
                    },
                    false => self.pushed_history = true,
                }
            }
            JournalRecord::Marker(m) if m.starts_with(PRIOR_MARKER) => {
                let (samples, source, distance): (_, String, _) =
                    serde_json::from_str(&m[PRIOR_MARKER.len()..])
                        .map_err(|e| bad(format!("transfer prior: {e}")))?;
                self.campaign.prior = Some(TransferPrior::new(samples, source, distance));
                self.warm_source = "transfer";
            }
            JournalRecord::Marker(_) => {}
            run => {
                if self.phase == Phase::CollectingHistory {
                    self.start_search()?;
                }
                let Some(search) = &mut self.search else {
                    return Err(bad(format!("a run in state {}", self.phase.names().0)));
                };
                let attempt = match &run {
                    JournalRecord::Coupled { attempt, .. } => Some(*attempt),
                    _ => None,
                };
                let told = search.fold(run).map_err(|e| bad(e.to_string()))?;
                if let Some(attempt) = attempt {
                    (self.attempt, self.measured) = (self.attempt.max(attempt), self.measured + 1);
                }
                if told {
                    self.read_ask();
                }
            }
        }
        Ok(())
    }

    /// Starts the search on a freshly sampled `C_pool`.
    fn start_search(&mut self) -> Result<(), ServeError> {
        let history = (!self.one_shot()).then(|| Arc::new(self.history.clone()));
        let tuner = by_name(&self.params.algo, history).ok_or_else(|| {
            ServeError::Internal(format!("no tuner named '{}'", self.params.algo))
        })?;
        let mut rng = ChaCha8Rng::seed_from_u64(self.params.seed ^ 0xFACE);
        let c = &mut self.campaign;
        c.pool = sample_pool(&c.spec, &c.platform, self.params.pool as usize, &mut rng).into();
        self.phase = Phase::Bootstrapping;
        self.search = Some(Fold::new(tuner.as_ref(), self.campaign.clone()));
        self.read_ask();
        Ok(())
    }

    /// Reads the state off the stepper's new ask: the first coupled ask is
    /// `bootstrapping`, every later one `refining`, the finished run `done`.
    fn read_ask(&mut self) {
        match self.search.as_ref().map(Fold::pending) {
            Some(Pending::Coupled(_)) if self.measured > 0 => self.phase = Phase::Refining,
            Some(Pending::Done) => {
                if let Some(run) = self.search.take().and_then(Fold::into_run) {
                    self.finished(run);
                }
            }
            _ => {}
        }
    }

    /// Takes the stepper's finished run. A one-shot's solo runs become its
    /// `history`, where a session keeps the `D_hist` it was started on.
    fn finished(&mut self, run: TunerRun) {
        let best_value = run.pool_scores.iter().fold(f64::INFINITY, |a, &b| a.min(b));
        self.best = Some((run.best_predicted, best_value));
        self.surrogate = run.surrogate;
        for m in run.component_runs {
            self.history.push(m.component, m.values, m.value);
        }
        let measured = run.measured.into_iter();
        self.samples = measured.map(|m| (m.config, m.value)).collect();
        self.phase = Phase::Done;
    }

    /// Refuses a configuration of the wrong arity for the workflow.
    pub(crate) fn check_arity(&self, config: &[i64]) -> Result<(), ServeError> {
        let arity = self.campaign.spec.n_params();
        if config.len() != arity {
            return Err(ServeError::BadRequest(format!(
                "configuration has {} values, workflow {} takes {arity}",
                config.len(),
                self.params.workflow,
            )));
        }
        Ok(())
    }

    /// Refuses samples the component models could not be fitted on.
    fn check_history(&self, incoming: &ComponentHistory) -> Result<(), String> {
        let components = &self.campaign.spec.components;
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

    /// Client-pushed samples as the records that merge them into `D_hist`
    /// — only before the search starts, whose component models are fitted
    /// on the history, and only samples those models could be fitted on.
    pub(crate) fn pushed(&self, batch: ComponentHistory) -> Result<Vec<JournalRecord>, ServeError> {
        if !matches!(self.phase, Phase::Created | Phase::CollectingHistory) {
            return Err(ServeError::NotReady(format!(
                "history is closed once the search has started (state {})",
                self.phase.names().0
            )));
        }
        self.check_history(&batch)
            .map_err(ServeError::HistoryMismatch)?;
        Ok(history_records(batch, PUSHED_MARKER))
    }

    /// Whether [`Core::predict`] would have to fit its surrogate first.
    pub(crate) fn predict_must_fit(&self) -> bool {
        self.phase == Phase::Done && !self.samples.is_empty() && self.surrogate.is_none()
    }

    /// Scores `configs` in one encoded batch with the finished campaign's
    /// surrogate, fitting it on the campaign's samples at the first call
    /// when the tuner handed none over.
    pub(crate) fn predict(&mut self, configs: &[Vec<i64>]) -> Result<Vec<f64>, ServeError> {
        if self.phase != Phase::Done || self.samples.is_empty() {
            return Err(ServeError::NotReady(format!(
                "no surrogate before the campaign is done (state {})",
                self.phase.names().0
            )));
        }
        for cfg in configs {
            self.check_arity(cfg)?;
        }
        let fm = FeatureMap::for_workflow(&self.campaign.spec);
        let model = self.surrogate.get_or_insert_with(|| {
            let kind = SurrogateKind::BoostedTrees;
            fit_surrogate_samples(kind, &fm, &self.samples, self.params.seed).into()
        });
        Ok(model.predict_batch(&encode_pool(&fm, configs)))
    }
}

/// A batch of solo samples as journal records, closed by `marker`. The
/// fold takes the batch only at its marker, so a commit torn by a crash
/// replays as if the batch never started.
pub(crate) fn history_records(batch: ComponentHistory, marker: &str) -> Vec<JournalRecord> {
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

/// The marker that seeds a campaign with a sibling platform's `prior`.
pub(crate) fn prior_marker(prior: &TransferPrior) -> Result<JournalRecord, ServeError> {
    let prior = (&prior.samples, &prior.source, prior.distance);
    let json = serde_json::to_string(&prior)
        .map_err(|e| ServeError::Internal(format!("prior does not serialize: {e}")))?;
    Ok(JournalRecord::Marker(format!("{PRIOR_MARKER}{json}")))
}

#[cfg(test)]
mod tests {
    use super::super::parse_params;
    use super::*;

    fn core(budget: u64) -> Core {
        let params = TuneParams {
            workflow: "LV".into(),
            objective: "exec".into(),
            budget,
            pool: 60,
            seed: 3,
            algo: "ceal".into(),
        };
        let parsed = parse_params(&params).unwrap();
        let testbed = Testbed::new(ceal_sim::Platform::default());
        Core::new(params, parsed, &testbed, super::super::SESSION_MODE)
    }

    fn solo(component: usize) -> JournalRecord {
        JournalRecord::Solo {
            component,
            values: vec![100, 20, 1],
            value: 2.0,
            exec_time: 0.0,
            computer_time: 0.0,
        }
    }

    fn run(config: &[i64]) -> JournalRecord {
        JournalRecord::Coupled {
            config: config.to_vec(),
            value: 1.0,
            exec_time: 1.0,
            computer_time: 1.0,
            attempt: 1,
        }
    }

    /// `fold` takes only what the campaign itself would have written: a
    /// second header, a sample of a component the workflow lacks, a run
    /// before the search or one the stepper did not ask for is an error,
    /// and a solo batch counts only at its marker.
    #[test]
    fn fold_refuses_records_the_campaign_would_not_have_written() {
        let mut s = core(6);
        let header = JournalRecord::Start(ceal_core::CampaignId::default());
        assert!(s.fold(header).is_err(), "a second header");
        assert!(s.fold(solo(9)).is_err(), "no component 9 in LV");
        let config = [100, 20, 1, 50, 10, 1];
        assert!(s.fold(run(&config)).is_err(), "a run before the history");
        s.fold(solo(0)).unwrap();
        s.fold(solo(1)).unwrap();
        let history = |s: &Core| s.status(0, String::new()).history_samples;
        assert_eq!(history(&s), 0, "an open batch is not history");
        s.fold(JournalRecord::Marker(HISTORY_MARKER.into()))
            .unwrap();
        assert_eq!(s.status(0, String::new()).state, "collecting-history");
        assert_eq!(history(&s), 2);
        let Ok(Next::Coupled(ask)) = s.next() else {
            panic!("the search starts on a coupled ask");
        };
        let pool = &s.campaign().pool;
        let asked = pool[ask[0]].clone();
        let unasked = pool.iter().find(|c| **c != asked).unwrap().clone();
        assert!(s.fold(run(&unasked)).is_err(), "a run nobody asked for");
        let pushed = JournalRecord::Marker(PUSHED_MARKER.into());
        assert!(s.fold(pushed).is_err(), "history after the search started");
    }

    /// A solo batch whose marker a crash kept off the disk never happened:
    /// recovery drops it, so a later marker does not close it into the
    /// history.
    #[test]
    fn solo_records_after_the_last_marker_are_dropped_at_recovery() {
        let journal = vec![
            solo(0),
            solo(1),
            JournalRecord::Marker(HISTORY_MARKER.into()),
            solo(0),
        ];
        let mut s = core(6).recover(journal).unwrap();
        assert_eq!(s.status(0, String::new()).state, "collecting-history");
        assert_eq!(s.status(0, String::new()).history_samples, 2);
        s.fold(JournalRecord::Marker(PUSHED_MARKER.into())).unwrap();
        assert_eq!(
            s.status(0, String::new()).history_samples,
            2,
            "the torn solo is gone"
        );
    }
}
