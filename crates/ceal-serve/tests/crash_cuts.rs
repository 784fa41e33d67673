//! Crash recovery of a session, on the build that ships. The journal is
//! append-only, so a process that dies mid-campaign leaves a prefix of the
//! bytes the crash-free campaign writes: a crash is a cut of the crash-free
//! journal. Every commit of the campaign is cut four times, each cut
//! written into a fresh journal directory:
//!
//! | cut | what of the commit is on disk |
//! |---|---|
//! | at its first byte | nothing |
//! | at a seeded byte inside it | its earlier records, one torn |
//! | a byte short of its end | all but its last record, which is torn |
//! | at its end | all of it |
//!
//! Each cut is rebuilt the way a restarted server rebuilds its journal
//! directory, and the campaign is finished from there: the recovered
//! records are exactly the crash-free ones up to the cut, rebuilding bills
//! nothing, the resumed campaign pays exactly the budget the cut lost to
//! land on the crash-free recommendation — the stepper decides what is
//! measured, the shell only measures, so a crash cannot move the search —
//! and the finished campaign is published and its journal retired, even
//! when the cut already held all of it. The same campaign under each of
//! the other servable algorithms is cut at every commit's end. Five
//! commits are also finished through a fresh coordinator and two workers,
//! cut from the journal of a fleet that lost a worker mid-batch.

mod common;

use ceal_core::journal::JOURNAL_MAGIC;
use ceal_core::{frame, Journal, JournalRecord};
use ceal_serve::{
    AutotuneCache, Client, ServeConfig, ServerHandle, ServerMetrics, SessionStatus, TuneParams,
};
use ceal_testutil::unique_temp_path;
use ceal_trace::Tracer;
use common::{
    byte_campaign, coupled_runs, drive_session_to_done, drive_to_done, journal_commits,
    journaled_manager, spawn_worker, start_server, wait_for_live_workers, wal, worker_config,
    RawWorker, Worker,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Every servable algorithm. CEAL's campaign is the one pinned by
/// [`COMMITS`] and cut four ways; the others' commits are read off their
/// `journal.commit` events and cut at their ends.
const ALGOS: [&str; 7] = ["ceal", "al", "rs", "geist", "alph", "bo", "rl"];
/// [`byte_campaign`]'s budget.
const BUDGET: u64 = 14;
/// Records per commit of [`byte_campaign`] when each commit is one batch:
/// create (the `Start` header; the magic goes out in the same write), the
/// history batch (8 solo samples and the marker that closes it), the
/// bootstrap batch, four refining batches, the last batch.
const COMMITS: &[usize] = &[1, 9, 3, 2, 3, 2, 2, 2];
/// The commits (0-based) also finished through a fleet: create, history,
/// the bootstrap batch, a refining batch, the last batch.
const VISITED: &[usize] = &[0, 1, 2, 4, 7];
/// Seeds the byte each commit is cut inside.
const SEED: u64 = 0x5EED;
/// Worker lease of every coordinator here: long enough that a live worker
/// never loses it, short enough that a silent one is declared dead soon.
const LEASE: Duration = Duration::from_millis(200);

/// A crash-free campaign and the journal it wrote.
struct Reference {
    algo: &'static str,
    bytes: Vec<u8>,
    records: Vec<JournalRecord>,
    /// The byte offset each record ends at.
    ends: Vec<usize>,
    /// Records per commit, in commit order.
    commits: Vec<usize>,
    done: SessionStatus,
}

impl Reference {
    /// Reads `bytes`, written in `commits`, with the journal's own frame
    /// scan.
    fn new(
        algo: &'static str,
        bytes: Vec<u8>,
        commits: Vec<usize>,
        done: SessionStatus,
    ) -> Reference {
        let (mut records, mut ends) = (Vec::new(), Vec::new());
        let end = frame::scan(&bytes, JOURNAL_MAGIC.len(), |at, payload| {
            records.push(serde_json::from_slice(payload).expect("a journal record"));
            ends.push(at + frame::HEADER_LEN + payload.len());
            true
        });
        assert_eq!(end, bytes.len(), "a crash-free journal has no torn tail");
        assert_eq!(records.len(), commits.iter().sum::<usize>(), "{algo}");
        let mut configs: Vec<_> = coupled_runs(&records).into_iter().map(|r| r.0).collect();
        configs.sort();
        configs.dedup();
        assert_eq!(
            configs.len() as u64,
            BUDGET,
            "{algo}: a configuration billed twice"
        );
        Reference {
            algo,
            bytes,
            records,
            ends,
            commits,
            done,
        }
    }

    /// Every cut of every commit, the inside ones drawn from [`SEED`].
    fn cuts(&self) -> Vec<Cut> {
        let mut rng = SmallRng::seed_from_u64(SEED);
        let mut cuts = Vec::new();
        let mut first = 0;
        for (commit, &records) in self.commits.iter().enumerate() {
            let start = match first {
                0 => 0,
                n => self.ends[n - 1],
            };
            first += records;
            let end = self.ends[first - 1];
            let inside = rng.gen_range(start + 1..end);
            for (what, at) in [
                ("start", start),
                ("inside", inside),
                ("end - 1", end - 1),
                ("end", end),
            ] {
                cuts.push(Cut {
                    algo: self.algo,
                    commit,
                    of: self.commits.len(),
                    what,
                    at,
                });
            }
        }
        cuts
    }
}

/// [`byte_campaign`] tuned by `algo`.
fn campaign(algo: &str) -> TuneParams {
    TuneParams {
        algo: algo.into(),
        ..byte_campaign()
    }
}

/// `algo`'s campaign in-process, each commit one batch
/// (`Advance(u64::MAX)`), and the journal it wrote: linked under another
/// name right after the create, the file outlives the campaign that
/// retires it.
fn run_reference(algo: &'static str) -> Reference {
    let dir = unique_temp_path("ceal-crash-cuts-ref", "");
    let tracer = Tracer::in_memory();
    let (cache, metrics) = (AutotuneCache::in_memory(), ServerMetrics::new());
    let mgr = journaled_manager(&dir).with_tracer(tracer.clone());
    let (st, _) = mgr
        .create(campaign(algo), 0.0, 0, &cache, &metrics)
        .unwrap();
    let kept = keep(&dir);
    let handle = mgr.get(st.session).unwrap();
    let done = loop {
        let status = handle.lock().advance(u64::MAX, &cache, &metrics).unwrap();
        if status.state == "done" {
            break status;
        }
    };
    let bytes = std::fs::read(kept).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    Reference::new(algo, bytes, journal_commits(&tracer), done)
}

/// CEAL's reference campaign, written in exactly [`COMMITS`].
fn reference() -> &'static Reference {
    static REFERENCE: OnceLock<Reference> = OnceLock::new();
    REFERENCE.get_or_init(|| {
        let r = run_reference("ceal");
        assert_eq!(r.commits, COMMITS);
        r
    })
}

/// Links session 1's journal under `dir` to a second name.
fn keep(dir: &Path) -> PathBuf {
    let kept = dir.join("kept.journal");
    std::fs::hard_link(wal(dir), &kept).unwrap();
    kept
}

/// Where a crash is modelled: `algo`'s commit `commit` (0-based, of `of`)
/// cut at byte `at`.
struct Cut {
    algo: &'static str,
    commit: usize,
    of: usize,
    what: &'static str,
    at: usize,
}

impl std::fmt::Display for Cut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (algo, commit, of) = (self.algo, self.commit + 1, self.of);
        let (what, at) = (self.what, self.at);
        write!(
            f,
            "{algo}: commit {commit}/{of} cut at {what}, byte {at} (seed {SEED:#x})"
        )
    }
}

/// What a cut leaves in its journal directory.
struct Recovered {
    dir: PathBuf,
    /// Records the cut keeps whole.
    records: usize,
    /// Coupled runs among them.
    committed: u64,
    /// History samples replay takes from them: a history batch counts only
    /// once its closing marker is on disk.
    history: u64,
}

/// Writes `cut` of `r`'s journal into a fresh directory as session 1's
/// journal and checks what opening it recovers.
fn recover(r: &Reference, cut: &Cut) -> Recovered {
    let dir = unique_temp_path("ceal-crash-cut", "");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(wal(&dir), &r.bytes[..cut.at]).unwrap();
    let records = r.ends.iter().filter(|&&end| end <= cut.at).count();
    let recovered = Journal::open(wal(&dir)).unwrap().1.records;
    assert_eq!(recovered, r.records[..records], "{cut}");
    let history = match records >= r.commits[0] + r.commits[1] {
        true => r.done.history_samples,
        false => 0,
    };
    Recovered {
        dir,
        records,
        committed: coupled_runs(&recovered).len() as u64,
        history,
    }
}

/// The rebuilt session stands where the cut left it.
fn assert_rebuilt(c: &Recovered, status: &SessionStatus, cut: &Cut) {
    assert_eq!(status.measured, c.committed, "{cut}");
    assert_eq!(status.budget_left, BUDGET - c.committed, "{cut}");
    assert_eq!(status.history_samples, c.history, "{cut}");
}

/// The resumed campaign paid for exactly what the cut lost — replayed
/// measurements are never billed again — and landed where the crash-free
/// one did.
fn assert_resumed(r: &Reference, c: &Recovered, done: &SessionStatus, billed: u64, cut: &Cut) {
    assert_eq!(done.measured, BUDGET, "{cut}");
    assert_eq!(
        done.best, r.done.best,
        "{cut}: a crash must not move the search"
    );
    assert_eq!(done.best_value, r.done.best_value, "{cut}");
    let lost = (BUDGET - c.committed) + (r.done.history_samples - c.history);
    assert_eq!(
        billed, lost,
        "{cut}: the resumed run pays only for what the cut lost"
    );
}

#[test]
fn every_commit_cut_four_ways_rebuilds_and_spends_only_the_lost_budget() {
    std::thread::scope(|s| {
        for algo in ALGOS {
            s.spawn(move || match algo {
                "ceal" => finish_cuts(reference(), |_| true),
                _ => finish_cuts(&run_reference(algo), |cut| cut.what == "end"),
            });
        }
    });
}

/// Rebuilds and finishes each of `r`'s cuts that `wanted` picks.
fn finish_cuts(r: &Reference, wanted: impl Fn(&Cut) -> bool) {
    for cut in r.cuts().into_iter().filter(wanted) {
        let c = recover(r, &cut);
        let metrics = ServerMetrics::new();
        let mgr = journaled_manager(&c.dir);
        // A create that died before its header was durable was never
        // acknowledged, and leaves nothing to resume.
        let rebuilt = mgr.rebuild_from_disk(&metrics);
        assert_eq!(rebuilt, usize::from(c.records > 0), "{cut}");
        assert_eq!(
            metrics.sessions_rebuilt.load(Ordering::Relaxed),
            rebuilt as u64,
            "{cut}"
        );
        let billed = || metrics.oracle_measurements.load(Ordering::Relaxed);
        assert_eq!(billed(), 0, "{cut}: rebuilding must not touch the oracle");
        if rebuilt == 1 {
            assert_rebuilt(&c, &mgr.get(1).unwrap().lock().status(), &cut);
            let cache = AutotuneCache::in_memory();
            let done = drive_session_to_done(&mgr, 1, &cache, &metrics);
            assert_resumed(r, &c, &done, billed(), &cut);
            assert_eq!(cache.len(), 1, "{cut}: the finished campaign is published");
            assert!(!wal(&c.dir).exists(), "{cut}: its journal is retired");
        }
        std::fs::remove_dir_all(&c.dir).ok();
    }
}

/// A coordinator over `journal_dir` with two in-process workers and a
/// connected client.
struct Fleet {
    srv: ServerHandle,
    stop: Arc<AtomicBool>,
    workers: Vec<Worker>,
    client: Client,
}

impl Fleet {
    fn start(journal_dir: &Path, tracer: Tracer, workers: &[&str]) -> Fleet {
        let srv = start_server(ServeConfig {
            journal_dir: Some(journal_dir.to_path_buf()),
            worker_lease: LEASE,
            tracer,
            ..ServeConfig::default()
        });
        let stop = Arc::new(AtomicBool::new(false));
        let workers = workers
            .iter()
            .map(|name| spawn_worker(worker_config(srv.addr(), name, Arc::clone(&stop))))
            .collect();
        let client = Client::connect(srv.addr()).unwrap();
        Fleet {
            srv,
            stop,
            workers,
            client,
        }
    }

    fn shutdown(mut self) {
        self.stop.store(true, Ordering::Release);
        self.client.shutdown().unwrap();
        self.srv.join().unwrap();
        for w in self.workers {
            w.join().unwrap().unwrap();
        }
    }
}

#[test]
fn a_fleet_that_lost_a_worker_wrote_the_same_journal_and_a_fresh_fleet_finishes_its_cuts() {
    let r = reference();

    // The campaign through a coordinator one of whose two workers takes
    // its share of the bootstrap batch and goes silent: its lease runs
    // out and its tasks go to the survivor.
    let dir = unique_temp_path("ceal-crash-cuts-fleet", "");
    let tracer = Tracer::in_memory();
    let mut fleet = Fleet::start(&dir, tracer.clone(), &["live"]);
    let mut silent = RawWorker::register(fleet.srv.addr(), "silent");
    wait_for_live_workers(&mut fleet.client, 2);
    let (st, _) = fleet
        .client
        .create_session(byte_campaign(), 0.0, 0)
        .unwrap();
    assert_eq!(st.session, 1);
    let kept = keep(&dir);
    fleet.client.advance(1, 4).expect("history");
    // Held before the bootstrap batch is scattered: the reactor has read
    // every frame sent before one it has answered.
    silent.poll();
    fleet.client.ping().unwrap();
    let done = drive_to_done(&mut fleet.client, 1, 4);
    let bootstrap = coupled_runs(&r.records[..COMMITS[..3].iter().sum()]);
    let taken = silent.assigned();
    let of_bootstrap = |config| bootstrap.iter().any(|(c, _)| *c == config);
    assert!(!taken.is_empty() && taken.iter().all(|t| of_bootstrap(&t.config)));
    let m = fleet.client.metrics().unwrap();
    assert_eq!(m.fleet.workers_lost, 1, "the silent worker's lease ran out");
    assert!(m.fleet.tasks_completed > 0, "the live worker measured");
    assert_eq!(m.oracle_measurements, r.done.history_samples + BUDGET);
    fleet.shutdown();
    drop(silent);
    assert_eq!(journal_commits(&tracer), COMMITS);
    let written = Reference::new("ceal", std::fs::read(&kept).unwrap(), COMMITS.into(), done);
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        written.bytes == r.bytes,
        "the fleet's journal is the in-process one, byte for byte"
    );
    assert_eq!(
        (&written.done.best, written.done.best_value),
        (&r.done.best, r.done.best_value)
    );

    // Its cuts, finished by a fresh coordinator that rebuilt the session
    // and two fresh workers.
    for cut in written.cuts() {
        if !VISITED.contains(&cut.commit) {
            continue;
        }
        let c = recover(&written, &cut);
        let mut fleet = Fleet::start(&c.dir, Tracer::disabled(), &["w1", "w2"]);
        wait_for_live_workers(&mut fleet.client, 2);
        let m = fleet.client.metrics().unwrap();
        assert_eq!(m.sessions_rebuilt, u64::from(c.records > 0), "{cut}");
        assert_eq!(m.oracle_measurements, 0, "{cut}: rebuilding is free");
        if c.records > 0 {
            assert_rebuilt(&c, &fleet.client.status(1).unwrap(), &cut);
            let done = drive_to_done(&mut fleet.client, 1, 4);
            let m = fleet.client.metrics().unwrap();
            assert_resumed(&written, &c, &done, m.oracle_measurements, &cut);
            // A single run left is not worth a round; anything more is.
            assert!(
                m.fleet.tasks_completed > 0 || BUDGET - c.committed <= 1,
                "{cut}: the fresh fleet takes part in the resumed campaign"
            );
        }
        fleet.shutdown();
        std::fs::remove_dir_all(&c.dir).ok();
    }
}
