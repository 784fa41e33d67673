//! Crash-recovery tests of the write-ahead measurement journal.
//!
//! The durability contract under test: whatever byte the process dies at,
//! reopening the journal recovers exactly the longest valid prefix of
//! records, the journal stays appendable, and a resumed campaign folds the
//! recovered measurements back into its tuner for free while paying only
//! for what the crash lost — finishing with the same result as a
//! crash-free run; a configuration the journal holds is never run again.
//! A journal that is not the record of the campaign's own asks, in order,
//! is refused.

use ceal_core::algorithms::Campaign;
use ceal_core::journal::JOURNAL_MAGIC;
use ceal_core::{
    frame, prepare_campaign, sample_pool, Autotuner, CampaignId, Ceal, CealParams, Fold, Journal,
    JournalError, JournalRecord, MeasureError, Measurement, Oracle, PoolOracle, RandomSampling,
    SimOracle, SoloMeasurement, TunerRun,
};
use ceal_sim::{Objective, Platform, Simulator, WorkflowSpec};
use ceal_testutil::unique_temp_path;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

type Fixture = (Vec<Vec<i64>>, PoolOracle);

fn fixture() -> &'static Fixture {
    fixture_of("HS")
}

/// A 100-configuration pool of `workflow` (HS or GP) and its oracle.
fn fixture_of(workflow: &str) -> &'static Fixture {
    static HS: OnceLock<Fixture> = OnceLock::new();
    static GP: OnceLock<Fixture> = OnceLock::new();
    let (fix, seed) = match workflow {
        "GP" => (&GP, 41),
        _ => (&HS, 40),
    };
    fix.get_or_init(|| {
        let spec = ceal_apps::workflow_by_name(workflow).expect("a bundled workflow");
        let sim = Simulator::new();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let pool = sample_pool(&spec, &sim.platform, 100, &mut rng);
        let oracle = PoolOracle::precompute(
            SimOracle::new(sim, spec, Objective::ExecutionTime, 2021),
            &pool,
        );
        (pool, oracle)
    })
}

/// Counts how many measurements actually reach the wrapped oracle — i.e.
/// how many the campaign *pays* for after journal replay.
struct CountingOracle<'a> {
    inner: &'a PoolOracle,
    coupled: AtomicU64,
    solo: AtomicU64,
}

impl<'a> CountingOracle<'a> {
    fn new(inner: &'a PoolOracle) -> Self {
        Self {
            inner,
            coupled: AtomicU64::new(0),
            solo: AtomicU64::new(0),
        }
    }
}

impl Oracle for CountingOracle<'_> {
    fn spec(&self) -> &WorkflowSpec {
        self.inner.spec()
    }
    fn platform(&self) -> &Platform {
        self.inner.platform()
    }
    fn objective(&self) -> Objective {
        self.inner.objective()
    }
    fn try_measure(&self, config: &[i64]) -> Result<Measurement, MeasureError> {
        self.coupled.fetch_add(1, Ordering::Relaxed);
        self.inner.try_measure(config)
    }
    fn try_measure_component(
        &self,
        component: usize,
        values: &[i64],
    ) -> Result<SoloMeasurement, MeasureError> {
        self.solo.fetch_add(1, Ordering::Relaxed);
        self.inner.try_measure_component(component, values)
    }
}

/// One sitting of a journaled campaign on the fixture's pool, as `tune
/// --journal [--resume]` runs it: the records behind the header are folded
/// into the tuner for free, then every fresh run is appended before it is
/// folded. Returns the run and the solo and coupled runs replayed, or why
/// the journal did not resume.
fn sitting(
    algo: &dyn Autotuner,
    oracle: &dyn Oracle,
    path: &Path,
    id: &CampaignId,
    resume: bool,
) -> Result<(TunerRun, (u64, u64)), JournalError> {
    let (mut journal, report) = Journal::open(path)?;
    let records = prepare_campaign(&mut journal, report.records, id, resume)?;
    let (pool, budget) = (fixture_of(&id.workflow).0.clone(), id.budget as usize);
    let mut fold = Fold::new(algo, Campaign::of(oracle, pool, budget, id.seed));
    let replayed = fold.replay(records)?;
    let append = |r: &JournalRecord| {
        journal
            .append(r)
            .map_err(|e| MeasureError::Failed(e.to_string()))
    };
    let run = fold.drive(oracle, append).expect("the fixture measures");
    Ok((run, replayed))
}

fn campaign_id(algo: &str, budget: u64, seed: u64) -> CampaignId {
    CampaignId {
        workflow: "HS".into(),
        objective: "exec".into(),
        algo: algo.into(),
        budget,
        pool: 100,
        seed,
        failure_rate: 0.0,
        fault_seed: 0,
    }
}

/// Truncate a journal at *every* byte offset and reopen: recovery must
/// always yield the longest valid record prefix — whole records only,
/// every earlier commit intact, whether the cut fell between two commits
/// or inside a multi-record one — report the torn bytes, and leave the
/// file appendable.
#[test]
fn truncation_at_every_offset_recovers_longest_valid_prefix() {
    // Build a reference journal, tracking the byte boundary after each
    // record so we know exactly which prefix every offset should yield.
    let base = unique_temp_path("ceal-torn-base", "wal");
    let recs = vec![
        JournalRecord::Start(campaign_id("rs", 5, 0)),
        JournalRecord::Solo {
            component: 0,
            values: vec![8, 2],
            value: 3.25,
            exec_time: 3.25,
            computer_time: 0.5,
        },
        JournalRecord::Coupled {
            config: vec![16, 4, 1, 2],
            value: 7.5,
            exec_time: 7.5,
            computer_time: 1.0,
            attempt: 0,
        },
        JournalRecord::Marker("round-1".into()),
        JournalRecord::Coupled {
            config: vec![32, 8, 2, 4],
            value: 6.0,
            exec_time: 6.0,
            computer_time: 0.9,
            attempt: 2,
        },
    ];
    let mut boundaries = vec![8u64]; // after the magic, before any record
    {
        let (mut j, _) = Journal::open(&base).expect("open base");
        for r in &recs {
            j.append(r).expect("append");
            boundaries.push(std::fs::metadata(&base).expect("stat").len());
        }
    }
    let bytes = std::fs::read(&base).expect("read base");
    assert_eq!(*boundaries.last().unwrap(), bytes.len() as u64);

    // The same records in multi-record commits: the file grows a whole
    // commit at a time, to the same bytes — so every cut below lands in a
    // journal that group commits wrote, inside a commit as well as between
    // two.
    let grouped = unique_temp_path("ceal-torn-grouped", "wal");
    {
        let (mut j, _) = Journal::open(&grouped).expect("open grouped");
        let on_disk = || std::fs::metadata(&grouped).expect("stat").len();
        for commit in [0..1, 1..4, 4..5] {
            // Staging touches no file; the magic goes out with commit one.
            let committed = match commit.start {
                0 => 0,
                n => boundaries[n],
            };
            for r in &recs[commit.clone()] {
                j.stage(r).expect("stage");
            }
            assert_eq!(on_disk(), committed);
            assert_eq!(j.commit().expect("commit"), commit.len());
            assert_eq!(on_disk(), boundaries[commit.end]);
        }
    }
    assert_eq!(std::fs::read(&grouped).expect("read grouped"), bytes);
    std::fs::remove_file(&grouped).ok();

    let torn = unique_temp_path("ceal-torn-cut", "wal");
    for cut in 0..=bytes.len() {
        std::fs::write(&torn, &bytes[..cut]).expect("write truncated copy");
        let (mut j, report) = Journal::open(&torn).expect("reopen truncated");

        // Longest boundary at or below the cut decides the surviving prefix.
        let n = boundaries.iter().filter(|b| **b <= cut as u64).count();
        let (expect, expect_torn) = if n == 0 {
            (0, cut as u64) // shorter than the magic: reset to fresh
        } else {
            (n - 1, cut as u64 - boundaries[n - 1])
        };
        assert_eq!(
            report.records,
            recs[..expect],
            "cut at byte {cut} must recover exactly {expect} record(s)"
        );
        assert_eq!(
            report.truncated_bytes, expect_torn,
            "cut at byte {cut} must report the torn tail"
        );

        // The recovered journal must accept appends and round-trip them.
        let marker = JournalRecord::Marker("post-crash".into());
        j.append(&marker).expect("append after recovery");
        drop(j);
        let (_, report) = Journal::open(&torn).expect("reopen after append");
        let mut expected: Vec<JournalRecord> = recs[..expect].to_vec();
        expected.push(marker);
        assert_eq!(report.records, expected, "cut at byte {cut}");
    }
    std::fs::remove_file(&base).ok();
    std::fs::remove_file(&torn).ok();
}

/// A finished campaign replayed from its journal costs zero oracle calls
/// and reproduces the identical recommendation.
#[test]
fn completed_campaign_replays_for_free() {
    let (_, oracle) = fixture();
    let path = unique_temp_path("ceal-replay-free", "wal");
    let id = campaign_id("ceal", 8, 3);
    let algo = Ceal::new(CealParams::without_history());

    let counting = CountingOracle::new(oracle);
    let (first, replayed) = sitting(&algo, &counting, &path, &id, false).expect("first run");
    assert_eq!(replayed, (0, 0));
    let paid_coupled = counting.coupled.load(Ordering::Relaxed);
    let paid_solo = counting.solo.load(Ordering::Relaxed);
    assert_eq!(paid_coupled, first.runs_used() as u64);
    assert_eq!(paid_solo, first.component_runs.len() as u64);
    assert!(paid_coupled > 0 && paid_solo > 0);

    let counting = CountingOracle::new(oracle);
    let (second, replayed) = sitting(&algo, &counting, &path, &id, true).expect("replayed run");
    assert_eq!(counting.coupled.load(Ordering::Relaxed), 0, "no re-billing");
    assert_eq!(counting.solo.load(Ordering::Relaxed), 0, "no re-billing");
    assert_eq!(replayed, (paid_solo, paid_coupled));
    assert_eq!(second.best_predicted, first.best_predicted);
    assert_eq!(second.runs_used(), first.runs_used());
    std::fs::remove_file(&path).ok();
}

/// Kill a campaign at every commit — the journal cut where a commit ends
/// and a byte short of that, the last record torn — resume, and check the
/// crash-recovery invariant: the resumed campaign pays only for what the
/// crash lost and finishes exactly like a crash-free run. The CLI's
/// campaign commits every record on its own, so every record boundary is
/// a commit boundary.
#[test]
fn torn_journal_resume_is_prefix_consistent_with_crash_free_run() {
    let (pool, oracle) = fixture();
    let budget = 12;
    let seed = 7;
    let crash_free = RandomSampling
        .try_run(oracle, pool, budget, seed)
        .expect("crash-free run");

    // Full journaled run to obtain the on-disk record sequence.
    let path = unique_temp_path("ceal-torn-resume", "wal");
    let id = campaign_id("rs", budget as u64, seed);
    sitting(&RandomSampling, oracle, &path, &id, false).expect("journaled run");
    let full = std::fs::read(&path).expect("read journal");
    let full_records = Journal::open(&path).expect("reopen full").1.records;
    assert_eq!(full_records.len(), 1 + budget);

    // Where each commit ends; the first, the header's, starts at byte 0
    // (the magic goes out with it).
    let mut ends = vec![0];
    let end = frame::scan(&full, JOURNAL_MAGIC.len(), |at, payload| {
        ends.push(at + frame::HEADER_LEN + payload.len());
        true
    });
    assert_eq!(end, full.len());
    let cuts = ends.iter().flat_map(|&end| [end.checked_sub(1), Some(end)]);

    for cut in cuts.flatten() {
        std::fs::write(&path, &full[..cut]).expect("tear");
        let recovered = Journal::open(&path).expect("reopen torn").1.records;
        let survivors = ends[1..].iter().filter(|&&end| end <= cut).count();
        assert_eq!(
            recovered,
            full_records[..survivors],
            "cut at byte {cut}: recovery must be the crash-free prefix"
        );
        let survived = survivors.saturating_sub(1) as u64;

        let counting = CountingOracle::new(oracle);
        let (resumed, replayed) =
            sitting(&RandomSampling, &counting, &path, &id, true).expect("resumed run");
        assert_eq!(
            replayed,
            (0, survived),
            "cut at byte {cut}: survivors replay for free"
        );
        assert_eq!(
            counting.coupled.load(Ordering::Relaxed),
            budget as u64 - survived,
            "cut at byte {cut}: only the lost measurements are re-paid"
        );
        assert_eq!(resumed.best_predicted, crash_free.best_predicted);
        assert_eq!(resumed.runs_used(), crash_free.runs_used());

        // After the resumed run the journal holds the full sequence again.
        let healed = Journal::open(&path).expect("reopen healed").1.records;
        assert_eq!(healed, full_records, "cut at byte {cut}");
    }
    std::fs::remove_file(&path).ok();
}

/// Replay is a fold of the journal through the tuner's asks, not a lookup
/// by configuration: the campaign's own runs in another order, or one run
/// past its end, are refused at resume — nothing billed, nothing appended —
/// where the same records looked up by configuration would have replayed.
#[test]
fn a_journal_that_is_not_the_campaigns_own_asks_is_refused() {
    let (pool, oracle) = fixture();
    let path = unique_temp_path("ceal-replay-refused", "wal");
    let id = campaign_id("rs", 6, 11);
    sitting(&RandomSampling, oracle, &path, &id, false).expect("journaled run");
    let records = Journal::open(&path).expect("reopen").1.records;
    assert_eq!(records.len(), 7);

    let mut swapped = records.clone();
    swapped.swap(1, 2);
    let mut over = records.clone();
    over.push(JournalRecord::coupled(&oracle.measure(&pool[0]), 0));
    for (what, journal) in [("swapped", swapped), ("over budget", over)] {
        std::fs::remove_file(&path).ok();
        let (mut j, _) = Journal::open(&path).expect("open");
        journal.iter().for_each(|r| j.append(r).expect("append"));
        drop(j);
        let before = std::fs::read(&path).expect("read");
        let counting = CountingOracle::new(oracle);
        let Err(err) = sitting(&RandomSampling, &counting, &path, &id, true) else {
            panic!("{what}: replayed");
        };
        assert!(matches!(err, JournalError::Mismatch(_)), "{what}: {err:?}");
        assert_eq!(counting.coupled.load(Ordering::Relaxed), 0, "{what}");
        assert_eq!(std::fs::read(&path).expect("read"), before, "{what}");
    }
    std::fs::remove_file(&path).ok();
}

/// A GP campaign asks each of its single-configuration plotters for m_R
/// solo runs in one batch. Cut its journal at every commit inside that
/// batch and resume through a counting oracle: the oracle runs only the
/// configurations the journal holds no record of — each once, a plotter
/// the journal holds never again — and the resumed run is the
/// uninterrupted one.
#[test]
fn a_gp_journal_cut_inside_its_solo_batch_runs_only_what_it_lacks() {
    let (pool, oracle) = fixture_of("GP");
    let (budget, seed) = (10, 5);
    let id = CampaignId {
        workflow: "GP".into(),
        ..campaign_id("ceal", budget, seed)
    };
    let algo = Ceal::new(CealParams::without_history());
    let whole = algo
        .try_run(oracle, pool, budget as usize, seed)
        .expect("uninterrupted run");
    let solo_key = |m: &SoloMeasurement| (m.component, m.values.clone());
    let distinct: HashSet<_> = whole.component_runs.iter().map(solo_key).collect();
    assert!(
        distinct.len() < whole.component_runs.len(),
        "GP repeats solo asks"
    );
    let coupled: HashSet<_> = whole.measured.iter().map(|m| &m.config).collect();

    let path = unique_temp_path("ceal-gp-solo-cut", "wal");
    sitting(&algo, oracle, &path, &id, false).expect("journaled run");
    let full = std::fs::read(&path).expect("read journal");
    let records = Journal::open(&path).expect("reopen full").1.records;
    let mut ends = vec![0];
    frame::scan(&full, JOURNAL_MAGIC.len(), |at, payload| {
        ends.push(at + frame::HEADER_LEN + payload.len());
        true
    });

    // `ends[k + 1]` closes the header and `k` solo records.
    for k in 1..whole.component_runs.len() {
        std::fs::write(&path, &full[..ends[k + 1]]).expect("cut");
        let held: HashSet<_> = records[1..=k]
            .iter()
            .map(|r| match r {
                JournalRecord::Solo {
                    component, values, ..
                } => (*component, values.clone()),
                other => panic!("record {k} of the solo batch is {other:?}"),
            })
            .collect();

        let counting = CountingOracle::new(oracle);
        let (resumed, replayed) = sitting(&algo, &counting, &path, &id, true).expect("resumed run");
        assert_eq!(replayed, (k as u64, 0), "cut after solo record {k}");
        assert_eq!(
            counting.solo.load(Ordering::Relaxed),
            distinct.difference(&held).count() as u64,
            "cut after solo record {k}: solo configurations the journal lacks"
        );
        assert_eq!(
            counting.coupled.load(Ordering::Relaxed),
            coupled.len() as u64,
            "cut after solo record {k}: every coupled configuration, once"
        );
        assert_eq!(resumed.component_runs, whole.component_runs, "cut {k}");
        assert_eq!(resumed.measured, whole.measured, "cut {k}");
        assert_eq!(resumed.best_predicted, whole.best_predicted, "cut {k}");
        let bits = |run: &TunerRun| {
            run.pool_scores
                .iter()
                .map(|s| s.to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&resumed), bits(&whole), "cut {k}");
    }
    std::fs::remove_file(&path).ok();
}
