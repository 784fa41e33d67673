//! The one way a stepper is told anything: a checked fold of journal
//! records.
//!
//! Every driver of a campaign — [`Autotuner::try_run`], `tune --journal`
//! and its `--resume`, a serve session live or rebuilt, a one-shot `Tune` —
//! turns what was measured into [`JournalRecord`]s and hands them to
//! [`Fold::fold`], one at a time. The fold checks each against what the
//! stepper asked for next, in ask order, and tells the stepper once its
//! batch is whole. A replayed journal therefore walks the stepper through
//! its original decisions only if it is the record of exactly those
//! decisions: a record out of order, for another configuration or past the
//! end of the campaign is refused, never matched up by configuration.

use super::stepper::{Ask, Told};
use super::{Autotuner, Campaign, Stepper, TunerRun};
use crate::journal::{JournalError, JournalRecord};
use crate::oracle::{MeasureError, Measurement, Oracle, SoloMeasurement};
use std::sync::Arc;

/// A campaign's stepper, fed records.
pub struct Fold {
    stepper: Box<dyn Stepper>,
    pool: Arc<[Vec<i64>]>,
    wait: Wait,
}

/// The stepper's last ask and the head of it the fold has taken.
enum Wait {
    Solo(Vec<(usize, Vec<i64>)>, Vec<SoloMeasurement>),
    Coupled(Vec<usize>, Vec<Measurement>),
    Done(TunerRun),
}

impl Wait {
    fn of(ask: Ask) -> Self {
        match ask {
            Ask::Solo(ask) => Self::Solo(ask, Vec::new()),
            Ask::Coupled(ask) => Self::Coupled(ask, Vec::new()),
            Ask::Done(run) => Self::Done(run),
        }
    }
}

/// What the stepper still waits for: the rest of its ask.
pub enum Pending<'a> {
    /// Standalone `(component, values)` runs, in this order.
    Solo(&'a [(usize, Vec<i64>)]),
    /// Coupled runs of these pool indices, in this order. Never empty.
    Coupled(&'a [usize]),
    /// Nothing: the campaign is over ([`Fold::into_run`]).
    Done,
}

impl Fold {
    /// Starts `tuner` on `campaign` and fetches its first ask.
    pub fn new<T: Autotuner + ?Sized>(tuner: &T, campaign: Campaign) -> Self {
        let pool = Arc::clone(&campaign.pool);
        let mut stepper = tuner.stepper(campaign);
        let wait = Wait::of(stepper.next());
        Self {
            stepper,
            pool,
            wait,
        }
    }

    /// What the stepper still waits for.
    pub fn pending(&self) -> Pending<'_> {
        match &self.wait {
            Wait::Solo(ask, got) => Pending::Solo(&ask[got.len()..]),
            Wait::Coupled(ask, got) => Pending::Coupled(&ask[got.len()..]),
            Wait::Done(_) => Pending::Done,
        }
    }

    /// The finished run, once [`Fold::pending`] is [`Pending::Done`].
    pub fn into_run(self) -> Option<TunerRun> {
        match self.wait {
            Wait::Done(run) => Some(run),
            _ => None,
        }
    }

    /// Takes `record` as the answer to the head of the pending ask, and
    /// tells the stepper when it completes the batch; returns whether it
    /// did. Only a `Solo` or `Coupled` record of the very run asked for
    /// next folds: anything else is a [`JournalError::Mismatch`], and
    /// changes nothing.
    pub fn fold(&mut self, record: JournalRecord) -> Result<bool, JournalError> {
        match (&mut self.wait, record) {
            (
                Wait::Solo(ask, got),
                JournalRecord::Solo {
                    component,
                    values,
                    value,
                    exec_time,
                    computer_time,
                },
            ) if ask[got.len()].0 == component && ask[got.len()].1 == values => {
                got.push(SoloMeasurement {
                    component,
                    values,
                    value,
                    exec_time,
                    computer_time,
                })
            }
            (
                Wait::Coupled(ask, got),
                JournalRecord::Coupled {
                    config,
                    value,
                    exec_time,
                    computer_time,
                    ..
                },
            ) if self.pool[ask[got.len()]] == config => got.push(Measurement {
                config,
                value,
                exec_time,
                computer_time,
            }),
            (wait, record) => {
                let asked = match wait {
                    Wait::Solo(ask, got) => format!("the solo run {:?}", ask[got.len()]),
                    Wait::Coupled(ask, got) => format!("a run of {:?}", self.pool[ask[got.len()]]),
                    Wait::Done(_) => "nothing: the campaign is over".into(),
                };
                let m = format!("{record:?} where the stepper asks for {asked}");
                return Err(JournalError::Mismatch(m));
            }
        }
        let told = match &mut self.wait {
            Wait::Solo(ask, got) if got.len() == ask.len() => Told::Solo(std::mem::take(got)),
            Wait::Coupled(ask, got) if got.len() == ask.len() => Told::Coupled(std::mem::take(got)),
            _ => return Ok(false),
        };
        self.stepper.tell(told);
        self.wait = Wait::of(self.stepper.next());
        Ok(true)
    }

    /// Runs the campaign to its end against `oracle`, one run at a time in
    /// ask order: each measurement becomes a record, goes to `commit` — a
    /// journal's write-ahead append, or nothing — and is then folded. The
    /// first failure, of a measurement or of `commit`, ends the run.
    ///
    /// A solo run the ask already holds a record of — a single-configuration
    /// component asked m_R times, live or replayed — is answered with that
    /// record, not measured again: a configuration measures the same every
    /// time (the oracle contract), so the oracle runs each one once.
    pub fn drive(
        mut self,
        oracle: &dyn Oracle,
        mut commit: impl FnMut(&JournalRecord) -> Result<(), MeasureError>,
    ) -> Result<TunerRun, MeasureError> {
        loop {
            let record = match &self.wait {
                Wait::Solo(ask, got) => {
                    let (j, values) = &ask[got.len()];
                    let held = got
                        .iter()
                        .find(|m| (m.component, &m.values) == (*j, values));
                    JournalRecord::solo(&match held {
                        Some(m) => m.clone(),
                        None => oracle.try_measure_component(*j, values)?,
                    })
                }
                Wait::Coupled(ask, got) => {
                    JournalRecord::coupled(&oracle.try_measure(&self.pool[ask[got.len()]])?, 0)
                }
                Wait::Done(_) => break,
            };
            commit(&record)?;
            self.fold(record).map_err(|e| {
                MeasureError::Failed(format!("the oracle answered another run: {e}"))
            })?;
        }
        Ok(self
            .into_run()
            .expect("the loop ends when the campaign does"))
    }

    /// Folds `records` — a journal's, behind its `Start` header — in
    /// order, for free, and counts the solo and coupled runs among them.
    /// The first record that does not fold is the error: the journal is
    /// not this campaign's.
    pub fn replay(&mut self, records: Vec<JournalRecord>) -> Result<(u64, u64), JournalError> {
        let (mut solo, mut coupled) = (0, 0);
        for record in records {
            match &record {
                JournalRecord::Solo { .. } => solo += 1,
                _ => coupled += 1,
            }
            self.fold(record)?;
        }
        Ok((solo, coupled))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::test_support::lv_exec_fixture;
    use crate::algorithms::{Ceal, CealParams, RandomSampling};

    /// A live drive and a replay of what it committed are the same fold:
    /// the replayed campaign ends on the same run without measuring.
    #[test]
    fn a_replay_of_what_a_drive_committed_finishes_the_same_run() {
        let fix = lv_exec_fixture();
        let ceal = Ceal::new(CealParams::without_history());
        let campaign = || Campaign::of(&fix.oracle, fix.pool.clone(), 12, 5);
        let mut journal = Vec::new();
        let live = Fold::new(&ceal, campaign())
            .drive(&fix.oracle, |r| {
                journal.push(r.clone());
                Ok(())
            })
            .expect("live run");
        let (solo, coupled) = (live.component_runs.len(), live.measured.len());
        assert!(solo > 0 && coupled > 0);
        assert_eq!(journal.len(), solo + coupled);

        let mut replay = Fold::new(&ceal, campaign());
        let counts = replay.replay(journal).expect("replay");
        assert_eq!(counts, (solo as u64, coupled as u64));
        let replayed = replay.into_run().expect("the replay finished the campaign");
        assert_eq!(replayed.best_predicted, live.best_predicted);
        assert_eq!(replayed.pool_scores, live.pool_scores);
    }

    /// Only the run the stepper asks for next folds; anything else is a
    /// mismatch and leaves the ask where it was.
    #[test]
    fn only_the_run_asked_for_next_folds() {
        let fix = lv_exec_fixture();
        let mut fold = Fold::new(
            &RandomSampling,
            Campaign::of(&fix.oracle, fix.pool.clone(), 2, 1),
        );
        let Pending::Coupled(&[first, second]) = fold.pending() else {
            panic!("random sampling asks for its whole budget at once");
        };
        let run = |i: usize| JournalRecord::coupled(&fix.oracle.measure(&fix.pool[i]), 0);
        let solo = JournalRecord::Solo {
            component: 0,
            values: vec![1, 1, 1],
            value: 1.0,
            exec_time: 1.0,
            computer_time: 1.0,
        };
        let marker = JournalRecord::Marker("round".into());
        for wrong in [run(second), solo, marker] {
            let err = fold.fold(wrong).expect_err("not the run asked for");
            assert!(matches!(err, JournalError::Mismatch(_)), "{err}");
            assert!(matches!(fold.pending(), Pending::Coupled(&[f, _]) if f == first));
        }
        assert!(!fold.fold(run(first)).expect("asked for"), "half a batch");
        assert!(
            fold.fold(run(second)).expect("asked for"),
            "the whole batch"
        );
        assert!(matches!(fold.pending(), Pending::Done));
        let err = fold.fold(run(first)).expect_err("the campaign is over");
        assert!(err.to_string().contains("the campaign is over"), "{err}");
        assert_eq!(fold.into_run().expect("done").runs_used(), 2);
    }
}
