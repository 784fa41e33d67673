//! A session runs the algorithm it names. For each of the seven servable
//! algorithms, one campaign stepped over the wire five runs at a time —
//! through the write-ahead journal, a two-worker fleet and a server
//! restart in the middle — must measure the very configurations, in the
//! very order, and recommend the very configuration that
//! `by_name(algo, Some(history)).try_run(..)` does in one sitting, and bill
//! every measurement exactly once across the two server lives.

use ceal_core::algorithms::by_name;
use ceal_core::{sample_pool, ComponentHistory, RetryPolicy, SimOracle};
use ceal_serve::{
    run_worker, AutotuneCache, Client, ServeConfig, Server, ServerHandle, SessionStatus,
    TuneParams, WorkerConfig,
};
use ceal_sim::{Objective, Simulator};
use ceal_testutil::unique_temp_path;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const ALGOS: [&str; 7] = ["ceal", "al", "rs", "geist", "alph", "bo", "rl"];
const BUDGET: u64 = 14;
const POOL: u64 = 80;
const SEED: u64 = 23;

fn params(algo: &str) -> TuneParams {
    TuneParams {
        workflow: "LV".into(),
        objective: "comp".into(),
        budget: BUDGET,
        pool: POOL,
        seed: SEED,
        algo: algo.into(),
    }
}

/// One server life: a server on `dir`'s journal and cache, two fleet
/// workers, a connected client.
struct Life {
    server: ServerHandle,
    client: Client,
    stop: Arc<AtomicBool>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Life {
    fn start(dir: &Path) -> Life {
        let server = Server::bind(ServeConfig {
            journal_dir: Some(dir.join("journal")),
            cache_path: Some(dir.join("cache")),
            ..ServeConfig::default()
        })
        .expect("bind")
        .spawn();
        let stop = Arc::new(AtomicBool::new(false));
        let workers = ["w1", "w2"]
            .map(|name| {
                let cfg = WorkerConfig {
                    coordinator: server.addr().to_string(),
                    name: name.into(),
                    poll_interval: Duration::from_millis(5),
                    retry: RetryPolicy::no_delay(3),
                    stop: Some(Arc::clone(&stop)),
                    tracer: ceal_trace::Tracer::disabled(),
                };
                std::thread::spawn(move || run_worker(cfg).map(|_| ()).expect("worker"))
            })
            .into();
        let mut client = Client::connect(server.addr()).expect("connect");
        let deadline = Instant::now() + Duration::from_secs(10);
        while client.metrics().expect("metrics").fleet.live_workers < 2 {
            assert!(Instant::now() < deadline, "workers never registered");
            std::thread::sleep(Duration::from_millis(5));
        }
        Life {
            server,
            client,
            stop,
            workers,
        }
    }

    /// `Advance(5)` on `session`, adding what the server billed for it to
    /// `billed`.
    fn advance(&mut self, session: u64, billed: &mut u64) -> SessionStatus {
        let before = self.client.metrics().expect("metrics").oracle_measurements;
        let status = self.client.advance(session, 5).expect("advance");
        *billed += self.client.metrics().expect("metrics").oracle_measurements - before;
        status
    }

    fn end(mut self) {
        self.stop.store(true, Ordering::Release);
        for w in self.workers {
            w.join().expect("worker thread");
        }
        self.client.shutdown().expect("shutdown");
        self.server.join().expect("join");
    }
}

#[test]
fn every_algorithm_matches_try_run_across_journal_fleet_and_restart() {
    let dir = unique_temp_path("ceal-session-algos", "");
    let mut sessions: HashMap<&str, u64> = HashMap::new();
    let mut billed: HashMap<&str, u64> = HashMap::new();

    // First life: every campaign collects its history and takes two
    // measuring steps.
    let mut life = Life::start(&dir);
    for algo in ALGOS {
        let (st, from_cache) = life
            .client
            .create_session(params(algo), 0.0, 0)
            .expect("create");
        assert!(!from_cache);
        sessions.insert(algo, st.session);
        let spent = billed.entry(algo).or_default();
        assert_eq!(life.advance(st.session, spent).state, "collecting-history");
        for _ in 0..2 {
            let st = life.advance(st.session, spent);
            assert_ne!(st.state, "done", "{algo} must be interrupted mid-campaign");
            assert!(st.measured > 0);
        }
    }
    life.end();

    // Second life: rebuilt from the journals, every campaign finishes.
    let mut life = Life::start(&dir);
    let m = life.client.metrics().expect("metrics");
    assert_eq!(m.sessions_rebuilt, ALGOS.len() as u64);
    assert_eq!(m.oracle_measurements, 0, "replayed records bill nothing");
    let mut finished: HashMap<&str, SessionStatus> = HashMap::new();
    for algo in ALGOS {
        let spent = billed.entry(algo).or_default();
        let mut st = life.advance(sessions[algo], spent);
        for _ in 0..100 {
            if st.state == "done" {
                break;
            }
            st = life.advance(sessions[algo], spent);
        }
        assert_eq!(st.state, "done", "{algo} never finished");
        finished.insert(algo, st);
    }
    let fleet = life.client.metrics().expect("metrics").fleet;
    assert!(fleet.tasks_completed > 0, "the fleet measured nothing");
    life.end();

    // What each campaign measured, in order, from its published entry.
    let entries = AutotuneCache::at_path(dir.join("cache")).all_entries();
    let spec = ceal_apps::workflow_by_name("LV").expect("LV");
    let sim = Simulator::new();
    let mut rng = ChaCha8Rng::seed_from_u64(SEED ^ 0xFACE);
    let pool = sample_pool(&spec, &sim.platform, POOL as usize, &mut rng);
    let oracle = SimOracle::new(sim, spec, Objective::ComputerTime, 2021);
    let mut rng = ChaCha8Rng::seed_from_u64(SEED ^ 0xD157);
    let (history, _) = ComponentHistory::try_collect(&oracle, 4, &mut rng).expect("history");
    let history = Arc::new(history);
    let mut sequences = HashMap::new();
    for algo in ALGOS {
        let run = by_name(algo, Some(Arc::clone(&history)))
            .expect("servable")
            .try_run(&oracle, &pool, BUDGET as usize, SEED)
            .expect("reference run");
        let wire = &finished[algo];
        let entry = entries
            .iter()
            .find(|e| e.key.algo.ends_with(&format!(":{algo}")))
            .unwrap_or_else(|| panic!("{algo} published nothing"));
        let bits = |v: f64| v.to_bits();
        let measured: Vec<_> = entry.samples.iter().map(|(c, v)| (c, bits(*v))).collect();
        let reference: Vec<_> = run
            .measured
            .iter()
            .map(|m| (&m.config, bits(m.value)))
            .collect();
        assert_eq!(measured, reference, "{algo}: measured sequence");
        assert_eq!(
            wire.best.as_ref(),
            Some(&run.best_predicted),
            "{algo}: best"
        );
        assert_eq!(wire.measured, run.measured.len() as u64, "{algo}");
        assert_eq!(
            billed[algo],
            wire.history_samples + wire.measured,
            "{algo}: every measurement billed exactly once across both lives"
        );
        sequences.insert(algo, entry.samples.clone());
    }
    assert_ne!(
        sequences["ceal"], sequences["rs"],
        "sessions differing only in algo must search differently"
    );
    std::fs::remove_dir_all(&dir).ok();
}
