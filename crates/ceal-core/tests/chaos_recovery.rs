//! Chaos tests: kill a journaled campaign at every crash point in the
//! journal's commit path, at several depths into the run, then resume and
//! assert the crash-recovery invariant — the recovered journal is a prefix
//! of the crash-free sequence, durable measurements are never re-billed,
//! and the resumed campaign finishes exactly like a crash-free one. The
//! campaign is the CLI's, which commits every record on its own; a
//! multi-record commit is killed at each point too.
//!
//! Requires the `chaos` feature (compiled crash points):
//! `cargo test -p ceal-core --features chaos --test chaos_recovery`.
#![cfg(feature = "chaos")]

use ceal_core::{
    prepare_campaign, sample_pool, Autotuner, CampaignId, Journal, JournalRecord, JournalingOracle,
    PoolOracle, RandomSampling, SimOracle,
};
use ceal_sim::{Objective, Simulator};
use ceal_testutil::{chaos, unique_temp_path};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The crash-point registry is process-global; the tests in this binary
/// serialize on this so one test's `disarm_all` cannot eat another's trap.
static GUARD: std::sync::Mutex<()> = std::sync::Mutex::new(());

const BUDGET: usize = 10;
const SEED: u64 = 5;

/// Every crash point compiled into `Journal::commit`, in program order.
const CRASH_POINTS: &[&str] = &[
    "journal.before_write",
    "journal.mid_write",
    "journal.after_write",
    "journal.after_sync",
];

fn fixture() -> (Vec<Vec<i64>>, PoolOracle) {
    let spec = ceal_apps::hs();
    let sim = Simulator::new();
    let mut rng = ChaCha8Rng::seed_from_u64(41);
    let pool = sample_pool(&spec, &sim.platform, 80, &mut rng);
    let oracle = PoolOracle::precompute(
        SimOracle::new(sim, spec, Objective::ExecutionTime, 2021),
        &pool,
    );
    (pool, oracle)
}

fn campaign_id() -> CampaignId {
    CampaignId {
        workflow: "HS".into(),
        objective: "exec".into(),
        algo: "rs".into(),
        budget: BUDGET as u64,
        pool: 80,
        seed: SEED,
        failure_rate: 0.0,
        fault_seed: 0,
    }
}

/// Runs the whole journaled campaign once; returns the tuner's pick.
fn run_campaign(
    oracle: &PoolOracle,
    pool: &[Vec<i64>],
    path: &std::path::Path,
    resume: bool,
) -> (Vec<i64>, ceal_core::ReplayStats) {
    let (mut journal, report) = Journal::open(path).expect("open journal");
    let records =
        prepare_campaign(&mut journal, report.records, &campaign_id(), resume).expect("prepare");
    let journaling = JournalingOracle::new(oracle, journal, &records);
    let run = RandomSampling
        .try_run(&journaling, pool, BUDGET, SEED)
        .expect("campaign runs");
    (run.best_predicted, journaling.stats())
}

#[test]
fn crash_at_every_point_and_depth_recovers_to_the_crash_free_run() {
    let _g = GUARD.lock().unwrap_or_else(|p| p.into_inner());
    chaos::silence_crash_panics();
    let (pool, oracle) = fixture();

    // Ground truth: the crash-free journal sequence and recommendation.
    let free_path = unique_temp_path("ceal-chaos-free", "wal");
    let (free_best, free_stats) = run_campaign(&oracle, &pool, &free_path, false);
    assert_eq!(free_stats.fresh_coupled, BUDGET as u64);
    let free_records = Journal::open(&free_path).expect("reopen free").1.records;
    std::fs::remove_file(&free_path).ok();
    // One Start header plus BUDGET coupled measurements.
    assert_eq!(free_records.len(), 1 + BUDGET);

    // Commit #1 is the magic and the Start header, #2..=#11 one
    // measurement each: crash on the header, the first, a middle, and the
    // final commit.
    for &point in CRASH_POINTS {
        for nth in [1u64, 2, 6, 1 + BUDGET as u64] {
            let path = unique_temp_path("ceal-chaos-run", "wal");
            chaos::arm_after(point, nth);
            let crashed = catch_unwind(AssertUnwindSafe(|| {
                run_campaign(&oracle, &pool, &path, false)
            }));
            chaos::disarm_all();
            let payload = crashed.expect_err(&format!("{point}@{nth} must crash"));
            assert_eq!(
                chaos::is_crash(payload.as_ref())
                    .expect("a simulated crash")
                    .0,
                point
            );

            // Recovery: whatever survived is a valid prefix. A crash
            // before/inside the write must lose the in-flight record; a
            // crash after it may keep everything (an unwinding "crash"
            // cannot drop bytes already handed to the file).
            let report = Journal::open(&path).expect("reopen after crash").1;
            if matches!(point, "journal.before_write" | "journal.mid_write") {
                assert!(
                    report.records.len() < free_records.len(),
                    "{point}@{nth}: the crash must lose the in-flight record"
                );
            } else {
                assert!(report.records.len() <= free_records.len(), "{point}@{nth}");
            }
            assert_eq!(
                report.records,
                free_records[..report.records.len()],
                "{point}@{nth}: recovery must be a prefix of the crash-free sequence"
            );
            let survived = report
                .records
                .iter()
                .filter(|r| matches!(r, JournalRecord::Coupled { .. }))
                .count() as u64;

            // ...and the resumed campaign replays it for free, pays only
            // for the lost tail, and lands on the crash-free answer.
            let (best, stats) = run_campaign(&oracle, &pool, &path, true);
            assert_eq!(best, free_best, "{point}@{nth}");
            assert_eq!(
                stats.replayed_coupled, survived,
                "{point}@{nth}: durable measurements must not be re-billed"
            );
            assert_eq!(
                stats.replayed_coupled + stats.fresh_coupled,
                BUDGET as u64,
                "{point}@{nth}: the resumed run must total the crash-free budget"
            );

            // The healed journal is byte-for-byte the crash-free sequence.
            let healed = Journal::open(&path).expect("reopen healed").1.records;
            assert_eq!(healed, free_records, "{point}@{nth}");
            std::fs::remove_file(&path).ok();
        }
    }
}

/// A commit of several records dies whole-record by whole-record: nothing
/// of it before the write, all but its last record mid-write, all of it
/// once written — and the commit before it is intact every time.
#[test]
fn multi_record_commit_recovers_to_whole_records_at_every_point() {
    let _g = GUARD.lock().unwrap_or_else(|p| p.into_inner());
    chaos::silence_crash_panics();
    let marker = |i: usize| JournalRecord::Marker(format!("m{i}"));
    let recs: Vec<JournalRecord> = (0..5).map(marker).collect();
    for (&point, survive) in CRASH_POINTS.iter().zip([2, 4, 5, 5]) {
        let path = unique_temp_path("ceal-chaos-batch", "wal");
        let (mut j, _) = Journal::open(&path).expect("open");
        for r in &recs[..2] {
            j.stage(r).expect("stage");
        }
        assert_eq!(j.commit().expect("first commit"), 2);
        for r in &recs[2..] {
            j.stage(r).expect("stage");
        }
        chaos::arm(point);
        let crashed = catch_unwind(AssertUnwindSafe(|| j.commit()));
        chaos::disarm_all();
        let payload = crashed.expect_err(&format!("{point} must crash"));
        assert!(chaos::is_crash(payload.as_ref()).is_some());
        drop(j);
        let report = Journal::open(&path).expect("reopen after crash").1;
        assert_eq!(report.records, recs[..survive], "{point}");
        std::fs::remove_file(&path).ok();
    }
}

/// A crash *between* campaigns (armed but never hit) must not leak into
/// later journal traffic once disarmed.
#[test]
fn disarmed_points_leave_the_journal_untouched() {
    let _g = GUARD.lock().unwrap_or_else(|p| p.into_inner());
    chaos::silence_crash_panics();
    let path = unique_temp_path("ceal-chaos-disarm", "wal");
    chaos::arm_after("journal.before_write", 10_000);
    chaos::disarm_all();
    let (mut j, _) = Journal::open(&path).expect("open");
    j.append(&JournalRecord::Marker("fine".into()))
        .expect("append");
    drop(j);
    assert_eq!(Journal::open(&path).expect("reopen").1.records.len(), 1);
    std::fs::remove_file(&path).ok();
}
