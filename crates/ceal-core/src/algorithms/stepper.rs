//! Resumable tuners: every algorithm is an ask/tell [`Stepper`].
//!
//! A stepper never measures anything. It says what it wants measured next
//! ([`Ask`]), is told the results ([`Told`]) and moves on, so whoever owns
//! the measuring decides where it happens and what survives a crash. Only
//! a [`Fold`](super::Fold) tells a stepper anything: every driver —
//! [`Autotuner::try_run`](super::Autotuner::try_run), the `tune` CLI's
//! journal, the serve layer's sessions and their restart — hands it the
//! measurements as journal records, and it checks them against the ask. A
//! stepper's random choices come from its own seeded stream and its
//! results depend only on what it was told, in order — not on who measured
//! or in how many sittings.

use super::TunerRun;
use crate::acm::ComponentModels;
use crate::history::ComponentHistory;
use crate::oracle::{Measurement, Oracle, SoloMeasurement};
use crate::prior::TransferPrior;
use ceal_ml::{Dataset, Regressor};
use ceal_sim::{Objective, Platform, WorkflowSpec};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// What a stepper wants next.
pub enum Ask {
    /// Standalone `(component, values)` runs, in this order.
    Solo(Vec<(usize, Vec<i64>)>),
    /// Coupled runs of these pool indices, in this order. Never empty.
    Coupled(Vec<usize>),
    /// Nothing: the campaign is over.
    Done(TunerRun),
}

/// The results of the last [`Ask`], in ask order.
pub enum Told {
    /// Answers an [`Ask::Solo`].
    Solo(Vec<SoloMeasurement>),
    /// Answers an [`Ask::Coupled`].
    Coupled(Vec<Measurement>),
}

/// One campaign of one algorithm, advanced a batch at a time.
///
/// The protocol is strict alternation: [`Stepper::next`], then
/// [`Stepper::tell`] with results for exactly the batch asked, until
/// `next` returns `Ask::Done`. A [`Fold`](super::Fold) keeps it.
pub trait Stepper: Send {
    /// The next batch to measure, or the finished run.
    fn next(&mut self) -> Ask;

    /// Hands over the results of the batch `next` last asked for.
    ///
    /// The [`Fold`](super::Fold) checks every run against the ask before
    /// it tells, so a stepper takes `results` as the answer to its batch,
    /// in ask order.
    fn tell(&mut self, results: Told);
}

/// The fixed inputs of one campaign.
#[derive(Clone)]
pub struct Campaign {
    /// The workflow being tuned.
    pub spec: WorkflowSpec,
    /// The platform measurements run on.
    pub platform: Platform,
    /// The optimization objective.
    pub objective: Objective,
    /// The candidate pool `C_pool`.
    pub pool: Arc<[Vec<i64>]>,
    /// Workflow-run equivalents the campaign may spend.
    pub budget: usize,
    /// Seed of every random choice.
    pub seed: u64,
    /// A sibling platform's samples. CEAL blends them into its early `M_H`
    /// fits; the other algorithms ignore them.
    pub prior: Option<TransferPrior>,
}

impl Campaign {
    /// The campaign `try_run(oracle, pool, budget, seed)` stands for.
    pub fn of(
        oracle: &dyn Oracle,
        pool: impl Into<Arc<[Vec<i64>]>>,
        budget: usize,
        seed: u64,
    ) -> Self {
        Self {
            spec: oracle.spec().clone(),
            platform: oracle.platform().clone(),
            objective: oracle.objective(),
            pool: pool.into(),
            budget,
            seed,
            prior: None,
        }
    }
}

/// What a campaign has measured so far.
pub(crate) struct Ledger {
    pub pool: Arc<[Vec<i64>]>,
    /// Which pool configurations are measured.
    pub taken: Vec<bool>,
    /// Coupled measurements, in collection order.
    pub measured: Vec<Measurement>,
    /// Pool index of every entry of `measured`.
    pub at: Vec<usize>,
    /// Phase-1 solo runs, one per solo ask, repeats included.
    pub component_runs: Vec<SoloMeasurement>,
}

/// What a tuner does next, decided each time a batch is in the ledger.
pub(crate) enum Step {
    /// Measure these unmeasured pool indices. Never empty.
    Measure(Vec<usize>),
    /// Stop, with the final surrogate's score of every pool configuration
    /// and — when it is a model over workflow-feature rows — the surrogate.
    Finish(Vec<f64>, Option<Arc<dyn Regressor>>),
}

impl From<Vec<f64>> for Step {
    fn from(scores: Vec<f64>) -> Step {
        Step::Finish(scores, None)
    }
}

impl Step {
    /// Finishes on `model`, scoring the encoded pool with it.
    pub fn on(model: Box<dyn Regressor>, enc_pool: &Dataset) -> Step {
        Step::Finish(model.predict_batch(enc_pool), Some(Arc::from(model)))
    }

    /// Measures `picks`; with nothing left to pick, finishes as `finish` says.
    pub fn pick<S: Into<Step>>(picks: Vec<usize>, finish: impl FnOnce() -> S) -> Step {
        match picks.is_empty() {
            true => finish().into(),
            false => Step::Measure(picks),
        }
    }
}

/// A stepper over the pool: measures `first`, then whatever `after` — the
/// body of the algorithm's measurement loop, called each time a batch is
/// in the ledger (at once, on the empty ledger, when `first` is empty) —
/// decides.
pub(crate) fn pool_stepper(
    pool: Arc<[Vec<i64>]>,
    component_runs: Vec<SoloMeasurement>,
    first: Vec<usize>,
    mut after: impl FnMut(&Ledger) -> Step + Send + 'static,
) -> Box<dyn Stepper> {
    let ledger = Ledger {
        taken: vec![false; pool.len()],
        pool,
        measured: Vec::new(),
        at: Vec::new(),
        component_runs,
    };
    let pending = match first.is_empty() {
        true => after(&ledger),
        false => Step::Measure(first),
    };
    Box::new(PoolStepper {
        ledger,
        pending,
        after,
    })
}

struct PoolStepper<F> {
    ledger: Ledger,
    pending: Step,
    after: F,
}

impl<F: FnMut(&Ledger) -> Step + Send> Stepper for PoolStepper<F> {
    fn next(&mut self) -> Ask {
        match &mut self.pending {
            Step::Measure(ask) => Ask::Coupled(ask.clone()),
            Step::Finish(scores, surrogate) => Ask::Done(TunerRun::from_scores(
                &self.ledger.pool,
                std::mem::take(scores),
                std::mem::take(&mut self.ledger.measured),
                std::mem::take(&mut self.ledger.component_runs),
                surrogate.take(),
            )),
        }
    }

    fn tell(&mut self, results: Told) {
        let (Told::Coupled(results), Step::Measure(ask)) = (results, &self.pending) else {
            panic!("told results nobody asked for");
        };
        for (&i, m) in ask.iter().zip(results) {
            assert!(!self.ledger.taken[i], "pool index {i} measured twice");
            self.ledger.taken[i] = true;
            self.ledger.at.push(i);
            self.ledger.measured.push(m);
        }
        self.pending = (self.after)(&self.ledger);
    }
}

/// What phase 1 (Alg. 1 lines 1–6) hands the coupled phase.
pub(crate) struct Phase1 {
    /// Budget units spent per component on solo runs (`m_R`).
    pub m_r: usize,
    /// Solo training data: `D_hist`, or what the solo runs measured.
    pub data: Arc<ComponentHistory>,
    /// The solo runs, one per solo ask, repeats included.
    pub component_runs: Vec<SoloMeasurement>,
}

impl Phase1 {
    /// Component models for this campaign: `fitted` when the tuner already
    /// holds models of its history, else a fresh fit of the solo data.
    pub fn models(
        &self,
        spec: &WorkflowSpec,
        fitted: Option<Arc<ComponentModels>>,
        seed: u64,
    ) -> Arc<ComponentModels> {
        fitted.unwrap_or_else(|| Arc::new(ComponentModels::fit(spec, &self.data, seed)))
    }

    /// Budget left for coupled runs.
    pub fn coupled_budget(&self, budget: usize) -> usize {
        budget.saturating_sub(self.m_r).max(1)
    }
}

/// Phase 1 of the bootstrapped tuners, then whatever `then` builds on it
/// and the campaign's random stream, now past the solo sampling.
///
/// With `history` the solo data is free and `then` runs at once. Without,
/// `m_r_fraction` of the budget goes to random solo runs of every
/// component (at least one round — the component models need data), asked
/// for as one [`Ask::Solo`] batch; `then` runs when it is answered.
pub(crate) fn after_phase1(
    c: Campaign,
    history: Option<&Arc<ComponentHistory>>,
    m_r_fraction: f64,
    mut rng: ChaCha8Rng,
    then: impl FnOnce(Campaign, Phase1, ChaCha8Rng) -> Box<dyn Stepper> + Send + 'static,
) -> Box<dyn Stepper> {
    if let Some(h) = history {
        let p1 = Phase1 {
            m_r: 0,
            data: Arc::clone(h),
            component_runs: Vec::new(),
        };
        return then(c, p1, rng);
    }
    let m_r = (((c.budget as f64) * m_r_fraction).round() as usize).clamp(1, c.budget);
    let n = c.spec.components.len();
    let mut sample = |j| {
        (
            j,
            c.spec.sample_component_feasible(&c.platform, j, &mut rng),
        )
    };
    // m_R asks even of a smaller space (a cap would move the rng); repeats are answered from records.
    let rounds = (0..n).flat_map(|j| std::iter::repeat_n(j, m_r));
    let ask = rounds.map(&mut sample).collect();
    Box::new(SoloThen {
        ask,
        then: Some(Box::new(move |component_runs: Vec<SoloMeasurement>| {
            let mut data = ComponentHistory::empty(n);
            for m in &component_runs {
                data.push(m.component, m.values.clone(), m.value);
            }
            let p1 = Phase1 {
                m_r,
                data: Arc::new(data),
                component_runs,
            };
            then(c, p1, rng)
        })),
        inner: None,
    })
}

type Then = Box<dyn FnOnce(Vec<SoloMeasurement>) -> Box<dyn Stepper> + Send>;

/// One solo batch, then the stepper built from its answer.
struct SoloThen {
    ask: Vec<(usize, Vec<i64>)>,
    then: Option<Then>,
    inner: Option<Box<dyn Stepper>>,
}

impl Stepper for SoloThen {
    fn next(&mut self) -> Ask {
        match &mut self.inner {
            Some(inner) => inner.next(),
            None => Ask::Solo(self.ask.clone()),
        }
    }

    fn tell(&mut self, results: Told) {
        if let Some(inner) = &mut self.inner {
            return inner.tell(results);
        }
        let (Told::Solo(solos), Some(then)) = (results, self.then.take()) else {
            panic!("told coupled results for a solo ask");
        };
        self.inner = Some(then(solos));
    }
}
