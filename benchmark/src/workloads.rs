//! The five workloads: how each is set up, what one op is, and how its
//! answers are checked. Every workload is a closed loop — tune clients and
//! fleet workers each wait for their reply before sending the next request.

use crate::spans::{Recorder, Span};
use crate::stats;
use ceal_core::{sample_pool, Autotuner, Ceal, CealParams, PoolOracle, SimOracle};
use ceal_serve::{
    run_worker, AutotuneCache, Client, ClientError, MetricsReport, ServeConfig, Server,
    ServerHandle, ServerMetrics, SessionManager, SessionStatus, TuneOutcome, TuneParams,
    WorkerConfig, WorkerSummary,
};
use ceal_sim::{Objective, Simulator};
use ceal_trace::Tracer;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// `CEAL_THREADS` the harness pins: one compute thread per core of the
/// 2-core box this benchmark is calibrated on.
pub const COMPUTE_THREADS: usize = 2;
/// Runs per `Advance`: one scatter/gather round.
const ADVANCE_RUNS: u64 = 5;
/// Timed window = this many slices, each with fresh threads and
/// connections.
pub const SLICES: usize = 5;
/// Every workflow × objective pair the service tunes, visited round-robin.
const PAIRS: [(&str, &str); 6] = [
    ("LV", "exec"),
    ("LV", "comp"),
    ("HS", "exec"),
    ("HS", "comp"),
    ("GP", "exec"),
    ("GP", "comp"),
];
/// Shape and seeds of the 12 fixed verification campaigns. They do not
/// depend on `--seed`, so the metrics derived from them repeat exactly.
const VERIFY_BUDGET: u64 = 30;
const VERIFY_POOL: u64 = 500;
const VERIFY_SEEDS: [u64; 2] = [101, 202];
/// Mirrors of two crate-private constants of `ceal-serve` (the oracle's
/// noise universe and the pool-seed salt). The correctness gate compares
/// wire answers with in-process runs built from these, so drift fails the
/// gate instead of skewing a metric.
const ORACLE_BASE_SEED: u64 = 2021;
const POOL_SEED_SALT: u64 = 0xFACE;
/// `cache_warm`: distinct campaigns seeded into the disk cache, and the
/// LRU front kept smaller than that so both tiers answer.
const WARM_KEYS: usize = 240;
const WARM_LRU: usize = 48;
/// `request_mix`: finished sessions to query, Predict batches per session.
const MIX_SESSIONS: usize = 6;
const MIX_PREDICT_CASES: usize = 8;
const MIX_PREDICT_BATCH: usize = 32;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CampaignCold,
    SessionDurable,
    RequestMix,
    CacheWarm,
    FleetRound,
}

pub const ALL: [Workload; 5] = [
    Workload::CampaignCold,
    Workload::SessionDurable,
    Workload::RequestMix,
    Workload::CacheWarm,
    Workload::FleetRound,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Self::CampaignCold => "campaign_cold",
            Self::SessionDurable => "session_durable",
            Self::RequestMix => "request_mix",
            Self::CacheWarm => "cache_warm",
            Self::FleetRound => "fleet_round",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Client connections (= client threads) of a saturated window: enough
    /// waiting clients that the cores never idle, which is the load ROADMAP
    /// aim 1 names (saturation throughput of the serve path) and the only
    /// one this box measures repeatably. With one client per core a short
    /// op is mostly vCPU wake-up or fsync latency, which the hypervisor
    /// moves by 2-3x between runs, and the CPU the idle server and fleet
    /// threads burn while they wait lands on fewer ops (`fleet_round` at
    /// one connection: 2.5-7.0 ms CPU per op over ten seeds).
    pub fn conns(self) -> usize {
        match self {
            // Each cold campaign fans out over both cores by itself.
            Self::CampaignCold => 2,
            // ~40 fsyncs per op on the VM's disk: at 8 clients the cores
            // idled 5-30 % of the window waiting for them, run to run; at
            // 16 they stay busy.
            Self::SessionDurable => 16,
            Self::RequestMix => 8,
            // Fewer than the server's workers: a gathering round holds a
            // worker thread while the fleet's polls need others.
            Self::CacheWarm | Self::FleetRound => 4,
        }
    }

    /// Server worker threads. A worker blocks while it fsyncs a journal or
    /// gathers a fleet round, so there are more of them than cores, and one
    /// per client where every request waits on the disk.
    pub fn server_workers(self) -> usize {
        self.conns().max(8)
    }

    fn fleet_workers(self) -> usize {
        match self {
            Self::FleetRound => 2,
            _ => 0,
        }
    }

    /// `(budget, pool)` of the campaigns the timed ops run.
    fn shape(self) -> (u64, u64) {
        match self {
            Self::CampaignCold => (50, 2000),
            Self::CacheWarm => (12, 100),
            Self::SessionDurable | Self::RequestMix | Self::FleetRound => (30, 500),
        }
    }

    /// Whether campaigns go through incremental sessions (else one-shot
    /// `Tune`).
    fn uses_sessions(self) -> bool {
        matches!(
            self,
            Self::SessionDurable | Self::RequestMix | Self::FleetRound
        )
    }

    /// Ops per client thread that end set-up, so the timed window starts
    /// on a warm service and `setup_s` measures a fixed amount of work.
    fn warmup_ops(self) -> u64 {
        match self {
            Self::CampaignCold => 6,
            // Enough campaigns that set-up, like the window, is paced by
            // the cores rather than by the disk (the first ~50 campaigns
            // on empty shards are mostly fsync waits).
            Self::SessionDurable => 6,
            Self::RequestMix => 100,
            Self::CacheWarm => 100,
            Self::FleetRound => 48,
        }
    }
}

fn params(pair: usize, budget: u64, pool: u64, seed: u64) -> TuneParams {
    let (workflow, objective) = PAIRS[pair % PAIRS.len()];
    TuneParams {
        workflow: workflow.into(),
        objective: objective.into(),
        budget,
        pool,
        seed,
        algo: "ceal".into(),
    }
}

pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Directory for journals and cache shards. The benchmark contract keeps
/// every write inside the checkout, so this is under `benchmark/out/`
/// rather than `/dev/shm`; `durable_on_tmpfs` in the run record says
/// whether that happens to be a tmpfs.
pub fn out_dir() -> PathBuf {
    PathBuf::from("benchmark/out")
}

static STATE_SEQ: AtomicU64 = AtomicU64::new(0);

/// What set-up seeded for the ops to use.
#[derive(Default)]
pub struct Fixtures {
    /// `cache_warm`: every cached campaign with its cold answer.
    warm: Vec<(TuneParams, TuneOutcome)>,
    /// `request_mix`: the finished sessions to query.
    mix: Vec<MixSession>,
}

/// A Predict batch and the answer the server gave the first time.
type PredictCase = (Vec<Vec<i64>>, Vec<f64>);
/// A finished session's id and the Predict batches ops replay against it.
type MixSession = (u64, Vec<PredictCase>);

/// A running server (plus fleet workers) set up for one workload.
pub struct Env {
    pub workload: Workload,
    pub addr: String,
    server: Option<ServerHandle>,
    workers: Vec<JoinHandle<Result<WorkerSummary, ClientError>>>,
    stop_workers: Arc<AtomicBool>,
    state_dir: Option<PathBuf>,
    fixtures: Fixtures,
}

impl Env {
    pub fn control(&self) -> Result<Client, String> {
        Client::connect(self.addr.as_str()).map_err(|e| format!("control connect: {e}"))
    }

    pub fn metrics(&self) -> Result<MetricsReport, String> {
        self.control()?
            .metrics()
            .map_err(|e| format!("metrics: {e}"))
    }

    /// Stops workers and server, waits for every thread, and removes the
    /// durable state.
    pub fn teardown(mut self) -> Result<(), String> {
        self.stop_workers.store(true, Ordering::Release);
        for w in self.workers.drain(..) {
            w.join()
                .map_err(|_| "worker thread panicked".to_string())?
                .map_err(|e| format!("worker: {e}"))?;
        }
        self.control()?
            .shutdown()
            .map_err(|e| format!("shutdown: {e}"))?;
        if let Some(server) = self.server.take() {
            server.join().map_err(|e| format!("server: {e}"))?;
        }
        if let Some(dir) = self.state_dir.take() {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
        }
        Ok(())
    }
}

/// Binds and starts the server for `w` and, for the fleet workload, its
/// workers; seeds nothing.
pub fn start(w: Workload, tracer: &Tracer, worker_tracer: &Tracer) -> Result<Env, String> {
    let durable = matches!(w, Workload::SessionDurable | Workload::CacheWarm);
    let state_dir = durable.then(|| {
        out_dir().join(format!(
            "state-{}-{}",
            std::process::id(),
            STATE_SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    });
    if let Some(dir) = &state_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    let config = ServeConfig {
        workers: w.server_workers(),
        cache_path: state_dir.as_ref().map(|d| d.join("cache")),
        cache_lru_capacity: if w == Workload::CacheWarm {
            WARM_LRU
        } else {
            ceal_serve::DEFAULT_LRU_CAPACITY
        },
        journal_dir: (w == Workload::SessionDurable)
            .then(|| state_dir.as_ref().expect("durable").join("journal")),
        tracer: tracer.clone(),
        ..ServeConfig::default()
    };
    let server = Server::bind(config).map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().to_string();
    let mut env = Env {
        workload: w,
        addr: addr.clone(),
        server: Some(server.spawn()),
        workers: Vec::new(),
        stop_workers: Arc::new(AtomicBool::new(false)),
        state_dir,
        fixtures: Fixtures::default(),
    };
    for i in 0..w.fleet_workers() {
        let cfg = WorkerConfig {
            coordinator: addr.clone(),
            name: format!("bench-worker-{i}"),
            poll_interval: Duration::from_millis(2),
            stop: Some(Arc::clone(&env.stop_workers)),
            tracer: worker_tracer.clone(),
            ..WorkerConfig::default()
        };
        env.workers
            .push(std::thread::spawn(move || run_worker(cfg)));
    }
    if w.fleet_workers() > 0 {
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut control = env.control()?;
        let mut live = || control.metrics().map(|m| m.fleet.live_workers);
        while live().map_err(|e| format!("metrics: {e}"))? < w.fleet_workers() as u64 {
            if Instant::now() > deadline {
                return Err("fleet workers did not register within 10 s".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    Ok(env)
}

/// Full set-up of one workload: server, workers, seeded caches/sessions,
/// and the fixed warm-up ops. Its wall time is `setup_s`.
pub fn setup(
    w: Workload,
    seed: u64,
    conns: usize,
    tracer: &Tracer,
    worker_tracer: &Tracer,
) -> Result<Env, String> {
    let mut env = start(w, tracer, worker_tracer)?;
    match w {
        Workload::CacheWarm => env.fixtures.warm = seed_warm_cache(&env, seed)?,
        Workload::RequestMix => env.fixtures.mix = seed_mix_sessions(&env, seed)?,
        _ => {}
    }
    let warm = run_slice(
        &env,
        seed,
        0,
        conns,
        Limit::Ops(w.warmup_ops()),
        Keep::Count,
    );
    if warm.failed > 0 || !warm.violations.is_empty() {
        return Err(format!(
            "warm-up: {} failed ops; {}",
            warm.failed,
            warm.violations.join("; ")
        ));
    }
    Ok(env)
}

/// Runs the `WARM_KEYS` cold campaigns that fill the disk cache, split
/// over the workload's saturating number of connections whatever the
/// window after it drives, and keeps every cold answer.
fn seed_warm_cache(env: &Env, seed: u64) -> Result<Vec<(TuneParams, TuneOutcome)>, String> {
    let (budget, pool) = Workload::CacheWarm.shape();
    let keys: Vec<TuneParams> = (0..WARM_KEYS)
        .map(|i| {
            params(
                i,
                budget,
                pool,
                splitmix64(seed ^ 0xCAC4E) ^ (i as u64) << 20,
            )
        })
        .collect();
    let chunk = keys.len().div_ceil(Workload::CacheWarm.conns());
    let parts: Vec<Result<Vec<(TuneParams, TuneOutcome)>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = keys
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    let mut client = env.control()?;
                    part.iter()
                        .map(|p| match client.tune(p.clone()) {
                            Ok(out) if !out.from_cache => Ok((p.clone(), out)),
                            Ok(_) => Err("seeding campaign was answered from cache".to_string()),
                            Err(e) => Err(format!("seeding tune: {e}")),
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("seeding thread panicked"))
            .collect()
    });
    Ok(parts
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .flatten()
        .collect())
}

/// Runs `MIX_SESSIONS` session campaigns to `done` and records the first
/// answer to each Predict batch the ops will replay.
fn seed_mix_sessions(env: &Env, seed: u64) -> Result<Vec<MixSession>, String> {
    let (budget, pool) = Workload::RequestMix.shape();
    let mut client = env.control()?;
    let mut rng = ChaCha8Rng::seed_from_u64(splitmix64(seed ^ 0x5E55));
    let platform = ceal_sim::Platform::default();
    (0..MIX_SESSIONS)
        .map(|i| {
            let p = params(i * 2, budget, pool, splitmix64(seed.wrapping_add(i as u64)));
            let spec = ceal_apps::workflow_by_name(&p.workflow).expect("known workflow");
            let (status, _) = run_session(&mut client, p, None, 0, false)
                .map_err(|e| format!("mix session: {e}"))?;
            let cases = (0..MIX_PREDICT_CASES)
                .map(|_| {
                    let configs = sample_pool(&spec, &platform, MIX_PREDICT_BATCH, &mut rng);
                    let answer = client
                        .predict(status.session, configs.clone())
                        .map_err(|e| format!("mix predict: {e}"))?;
                    Ok((configs, answer))
                })
                .collect::<Result<Vec<_>, String>>()?;
            Ok((status.session, cases))
        })
        .collect()
}

/// Harness phase label of an `Advance` sent while the session reports
/// `state`.
fn phase_of(state: &str) -> &'static str {
    match state {
        "created" => "history",
        "collecting-history" | "bootstrapping" => "bootstrap",
        "refining" => "refine",
        _ => "",
    }
}

/// Records `f`'s client call as a span when a recorder is attached.
fn traced<T>(
    rec: &mut Option<&mut Recorder>,
    name: &'static str,
    op: u64,
    parent: u64,
    phase: &'static str,
    f: impl FnOnce() -> Result<T, ClientError>,
) -> Result<T, ClientError> {
    let id = rec.as_mut().map(|r| r.open(name, op, parent, phase));
    let out = f();
    if let (Some(r), Some(id)) = (rec.as_mut(), id) {
        r.close(id);
    }
    out
}

/// One whole incremental campaign: `CreateSession`, `Advance` until
/// `done`, and (when `close`) `CloseSession`. Returns the final status and
/// the number of `Advance` calls.
pub fn run_session(
    client: &mut Client,
    p: TuneParams,
    mut rec: Option<&mut Recorder>,
    op: u64,
    close: bool,
) -> Result<(SessionStatus, u64), ClientError> {
    let wrapper = rec.as_mut().map_or(0, |r| r.open("op", op, 0, ""));
    let (mut status, from_cache) =
        traced(&mut rec, "client.create_session", op, wrapper, "", || {
            client.create_session(p, 0.0, 0)
        })?;
    if from_cache {
        return Err(ClientError::UnexpectedResponse(
            "fresh session was answered from cache".into(),
        ));
    }
    let id = status.session;
    let mut advances = 0;
    while status.state != "done" {
        if advances == 64 {
            return Err(ClientError::UnexpectedResponse(format!(
                "session stuck in '{}'",
                status.state
            )));
        }
        let phase = phase_of(&status.state);
        status = traced(&mut rec, "client.advance", op, wrapper, phase, || {
            client.advance(id, ADVANCE_RUNS)
        })?;
        advances += 1;
    }
    if close {
        traced(&mut rec, "client.close_session", op, wrapper, "", || {
            client.close_session(id)
        })?;
    }
    if let Some(r) = rec.as_mut() {
        r.close(wrapper);
    }
    Ok((status, advances))
}

/// When a slice stops.
#[derive(Clone, Copy)]
pub enum Limit {
    Time(Duration),
    /// Ops per client thread.
    Ops(u64),
}

/// What a slice keeps of each completed op besides counting it. Samples
/// cost memory in proportion to the ops done, so the run that reports the
/// process's peak RSS keeps none.
#[derive(Clone, Copy)]
pub enum Keep {
    Count,
    Latencies,
    /// Latencies and a span around every client call, on the clock that
    /// started at the given instant.
    Spans(Instant),
}

/// What one slice observed.
#[derive(Default)]
pub struct Tally {
    /// Completed ops.
    pub ops: u64,
    /// Client-observed latency of every completed op, ms (unless
    /// `Keep::Count`).
    pub lat_ms: Vec<f64>,
    pub failed: u64,
    /// Sum over client threads of ops ÷ that thread's own elapsed time.
    pub rate: f64,
    /// Process CPU spent during the slice, ms.
    pub cpu_ms: f64,
    /// `Advance` calls issued.
    pub steps: u64,
    /// Coupled measurements those calls took (`fleet_round` only).
    pub measured: u64,
    pub violations: Vec<String>,
    pub spans: Vec<Span>,
}

/// Per-thread op driver.
struct Driver<'a> {
    env: &'a Env,
    client: Client,
    rng: ChaCha8Rng,
    /// Base of this thread's campaign-seed stream.
    seed_base: u64,
    op: u64,
    rec: Option<Recorder>,
    /// `fleet_round`: the session currently being advanced.
    round: Option<SessionStatus>,
    tally: Tally,
}

impl Driver<'_> {
    fn violation(&mut self, what: String) {
        if self.tally.violations.len() < 8 {
            self.tally.violations.push(what);
        }
    }

    /// Runs one op; returns its client-observed latency.
    fn one_op(&mut self) -> Result<Duration, ClientError> {
        let env = self.env;
        let (budget, pool) = env.workload.shape();
        let op = self.op;
        let pair = (self.seed_base as usize).wrapping_add(op as usize) % PAIRS.len();
        let fresh = params(
            pair,
            budget,
            pool,
            splitmix64(self.seed_base.wrapping_add(op)),
        );
        let mut rec = self.rec.as_mut();
        match env.workload {
            Workload::CampaignCold => {
                let t = Instant::now();
                let out = traced(&mut rec, "client.tune", op, 0, "", || {
                    self.client.tune(fresh)
                })?;
                let took = t.elapsed();
                if out.from_cache || out.runs_used == 0 || out.runs_used > budget {
                    self.violation(format!(
                        "cold tune: from_cache={} runs_used={} budget={budget}",
                        out.from_cache, out.runs_used
                    ));
                }
                Ok(took)
            }
            Workload::SessionDurable => {
                let t = Instant::now();
                let (status, advances) = run_session(&mut self.client, fresh, rec, op, true)?;
                let took = t.elapsed();
                self.tally.steps += advances;
                if status.measured != budget || status.best.is_none() {
                    self.violation(format!(
                        "durable session: measured={} budget={budget} best={:?}",
                        status.measured, status.best
                    ));
                }
                Ok(took)
            }
            Workload::RequestMix => {
                let mix = &env.fixtures.mix;
                let (session, cases) = &mix[self.rng.gen_range(0..mix.len())];
                match self.rng.gen_range(0..4u32) {
                    0 => {
                        let t = Instant::now();
                        let s = traced(&mut rec, "client.status", op, 0, "", || {
                            self.client.status(*session)
                        })?;
                        let took = t.elapsed();
                        if s.state != "done" {
                            self.violation(format!("status of a finished session: {}", s.state));
                        }
                        Ok(took)
                    }
                    1 | 2 => {
                        let (configs, want) = &cases[self.rng.gen_range(0..cases.len())];
                        let configs = configs.clone();
                        let t = Instant::now();
                        let got = traced(&mut rec, "client.predict", op, 0, "", || {
                            self.client.predict(*session, configs)
                        })?;
                        let took = t.elapsed();
                        if !bits_eq(&got, want) {
                            self.violation("predict answer changed between calls".into());
                        }
                        Ok(took)
                    }
                    _ => {
                        let t = Instant::now();
                        traced(&mut rec, "client.ping", op, 0, "", || self.client.ping())?;
                        Ok(t.elapsed())
                    }
                }
            }
            Workload::CacheWarm => {
                let warm = &env.fixtures.warm;
                // u² skew: a hot head the LRU front holds, a long tail it
                // does not.
                let u: f64 = self.rng.gen();
                let key = ((u * u * warm.len() as f64) as usize).min(warm.len() - 1);
                let (p, cold) = &warm[key];
                let p = p.clone();
                let t = Instant::now();
                let out = traced(&mut rec, "client.tune", op, 0, "", || self.client.tune(p))?;
                let took = t.elapsed();
                if !out.from_cache || !same_answer(&out, cold) {
                    self.violation(format!(
                        "warm tune: from_cache={} answer matches cold={}",
                        out.from_cache,
                        same_answer(&out, cold)
                    ));
                }
                Ok(took)
            }
            Workload::FleetRound => {
                let status = match self.round.take() {
                    Some(s) => s,
                    None => {
                        traced(&mut rec, "client.create_session", op, 0, "", || {
                            self.client.create_session(fresh, 0.0, 0)
                        })?
                        .0
                    }
                };
                let phase = phase_of(&status.state);
                let t = Instant::now();
                let next = traced(&mut rec, "client.advance", op, 0, phase, || {
                    self.client.advance(status.session, ADVANCE_RUNS)
                })?;
                let took = t.elapsed();
                self.tally.steps += 1;
                self.tally.measured += next.measured.saturating_sub(status.measured);
                let backwards = next.measured < status.measured || next.state == "created";
                if next.state == "done" {
                    traced(&mut rec, "client.close_session", op, 0, "", || {
                        self.client.close_session(next.session)
                    })?;
                } else {
                    self.round = Some(next.clone());
                }
                if backwards {
                    self.violation(format!(
                        "advance went backwards: {} -> {}",
                        status.state, next.state
                    ));
                }
                Ok(took)
            }
        }
    }
}

fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Whether two tune answers are bit-identical (the cache flag aside).
fn same_answer(a: &TuneOutcome, b: &TuneOutcome) -> bool {
    a.best == b.best
        && a.best_value.to_bits() == b.best_value.to_bits()
        && a.runs_used == b.runs_used
        && a.component_runs == b.component_runs
}

/// One slice: `conns` fresh client threads, each on a fresh connection,
/// looping ops until `limit`. `stream` separates the seed streams of
/// different slices of one run.
pub fn run_slice(
    env: &Env,
    seed: u64,
    stream: u64,
    conns: usize,
    limit: Limit,
    keep: Keep,
) -> Tally {
    let barrier = Barrier::new(conns);
    let cpu_before = crate::procfs::cpu_ms();
    let tallies: Vec<Tally> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|thread| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut rec = match keep {
                        Keep::Spans(epoch) => Some(Recorder::new(epoch)),
                        _ => None,
                    };
                    let lane = splitmix64(seed ^ splitmix64(stream << 8 | thread as u64));
                    let client = traced(&mut rec.as_mut(), "client.connect", 0, 0, "", || {
                        Client::connect(env.addr.as_str())
                    });
                    barrier.wait();
                    let client = match client {
                        Ok(c) => c,
                        Err(e) => {
                            return Tally {
                                failed: 1,
                                violations: vec![format!("connect: {e}")],
                                ..Tally::default()
                            }
                        }
                    };
                    let mut d = Driver {
                        env,
                        client,
                        rng: ChaCha8Rng::seed_from_u64(lane),
                        seed_base: lane,
                        op: 0,
                        rec,
                        round: None,
                        tally: Tally::default(),
                    };
                    let started = Instant::now();
                    loop {
                        let more = match limit {
                            Limit::Time(t) => started.elapsed() < t,
                            Limit::Ops(n) => d.op < n,
                        };
                        if !more {
                            break;
                        }
                        d.op += 1;
                        match d.one_op() {
                            Ok(took) => {
                                d.tally.ops += 1;
                                if !matches!(keep, Keep::Count) {
                                    d.tally.lat_ms.push(took.as_secs_f64() * 1e3);
                                }
                            }
                            Err(e) => {
                                d.tally.failed += 1;
                                d.violation(format!("op failed: {e}"));
                                // The connection's framing state is
                                // unknown after an error; start clean.
                                d.round = None;
                                match Client::connect(env.addr.as_str()) {
                                    Ok(c) => d.client = c,
                                    Err(_) => break,
                                }
                            }
                        }
                    }
                    let elapsed = started.elapsed().as_secs_f64();
                    d.tally.rate = d.tally.ops as f64 / elapsed;
                    if let Some(open) = d.round.take() {
                        let _ = traced(
                            &mut d.rec.as_mut(),
                            "client.close_session",
                            d.op,
                            0,
                            "",
                            || d.client.close_session(open.session),
                        );
                    }
                    d.tally.spans = d.rec.take().map(|r| r.spans).unwrap_or_default();
                    d.tally
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut total = Tally {
        cpu_ms: crate::procfs::cpu_ms() - cpu_before,
        ..Tally::default()
    };
    for t in tallies {
        total.ops += t.ops;
        total.lat_ms.extend(t.lat_ms);
        total.failed += t.failed;
        total.rate += t.rate;
        total.steps += t.steps;
        total.measured += t.measured;
        total.violations.extend(t.violations);
        total.spans.extend(t.spans);
    }
    total
}

/// The timed window's result. Rate and CPU cost are computed per slice
/// and reported as the median over the slices, so one disturbed slice does
/// not set them.
#[derive(Default)]
pub struct Window {
    /// Completed ops per second.
    pub ops_per_s: f64,
    /// Process CPU (client + server + workers) per completed op.
    pub cpu_ms_per_op: f64,
    /// The per-slice values behind the two metrics above, in that order;
    /// printed with the run record so a noisy run can be told from a slow
    /// one.
    pub slices: [Vec<f64>; 2],
    /// Completed ops.
    pub ops: u64,
    /// The latency samples the slices kept, ascending.
    pub lat_ms: Vec<f64>,
    pub failed: u64,
    pub steps: u64,
    pub measured: u64,
    pub violations: Vec<String>,
    pub spans: Vec<Span>,
}

/// Runs `SLICES` slices back to back for `seconds` in total.
pub fn run_window(env: &Env, seed: u64, conns: usize, seconds: f64, keep: Keep) -> Window {
    let slice = Duration::from_secs_f64(seconds / SLICES as f64);
    let (mut rates, mut cpus) = (Vec::new(), Vec::new());
    let mut w = Window::default();
    for i in 0..SLICES {
        let t = run_slice(env, seed, 1 + i as u64, conns, Limit::Time(slice), keep);
        if t.ops > 0 {
            rates.push(t.rate);
            cpus.push(t.cpu_ms / t.ops as f64);
        }
        w.ops += t.ops;
        w.lat_ms.extend(t.lat_ms);
        w.failed += t.failed;
        w.steps += t.steps;
        w.measured += t.measured;
        w.violations.extend(t.violations);
        // Each slice's recorder numbers spans and ops from 1; keep the
        // slices apart.
        let base = w.spans.len() as u64;
        w.spans.extend(t.spans.into_iter().map(|mut s| {
            s.id += base;
            if s.parent != 0 {
                s.parent += base;
            }
            s.op += i as u64 * 1_000_000;
            s
        }));
    }
    w.lat_ms.sort_by(f64::total_cmp);
    if !rates.is_empty() {
        w.ops_per_s = stats::median(&rates);
        w.cpu_ms_per_op = stats::median(&cpus);
    }
    w.slices = [rates, cpus];
    w
}

/// Result of the fixed verification campaigns.
pub struct Verified {
    /// Mean over the campaigns of 100·(true value of the recommended
    /// configuration ÷ true pool best − 1).
    pub tuned_gap_pct: f64,
    /// Oracle measurements the server billed per verification campaign.
    pub oracle_runs_per_campaign: f64,
    pub violations: Vec<String>,
}

/// Ground truth of one verification campaign's pool.
struct Truth {
    pool: Vec<Vec<i64>>,
    oracle: PoolOracle,
    best: f64,
}

impl Truth {
    fn of(p: &TuneParams) -> Truth {
        let spec = ceal_apps::workflow_by_name(&p.workflow).expect("known workflow");
        let objective = match p.objective.as_str() {
            "exec" => Objective::ExecutionTime,
            _ => Objective::ComputerTime,
        };
        let sim = Simulator::new();
        let mut rng = ChaCha8Rng::seed_from_u64(p.seed ^ POOL_SEED_SALT);
        let pool = sample_pool(&spec, &sim.platform, p.pool as usize, &mut rng);
        let oracle = PoolOracle::precompute(
            SimOracle::new(sim, spec, objective, ORACLE_BASE_SEED),
            &pool,
        );
        let best = oracle
            .truth_for(&pool)
            .into_iter()
            .fold(f64::INFINITY, f64::min);
        Truth { pool, oracle, best }
    }

    fn gap_pct(&self, config: &[i64]) -> Option<f64> {
        let value = self.oracle.table().get(config)?.value;
        Some(100.0 * (value / self.best - 1.0))
    }
}

/// Runs the 12 verification campaigns through `env`'s own path (one-shot
/// `Tune` or a session, with whatever journal, cache and fleet the
/// workload has) and checks each against an in-process run.
pub fn verify(env: &Env) -> Result<Verified, String> {
    let w = env.workload;
    let mut client = env.control()?;
    let mut violations = Vec::new();
    let mut gaps = Vec::new();
    let campaigns: Vec<TuneParams> = (0..PAIRS.len())
        .flat_map(|pair| VERIFY_SEEDS.map(|seed| params(pair, VERIFY_BUDGET, VERIFY_POOL, seed)))
        .collect();
    let before = env.metrics()?.oracle_measurements;
    let mut billed_by_sessions = 0;
    let mut cold_answers = Vec::new();
    for p in &campaigns {
        let truth = Truth::of(p);
        let label = format!("{}/{}/{}", p.workflow, p.objective, p.seed);
        let best = if w.uses_sessions() {
            let (wire, _) = run_session(&mut client, p.clone(), None, 0, true)
                .map_err(|e| format!("verify session {label}: {e}"))?;
            let local = reference_session(p)?;
            billed_by_sessions += wire.history_samples + wire.measured;
            let same = wire.best == local.best
                && wire.best_value.map(f64::to_bits) == local.best_value.map(f64::to_bits)
                && wire.measured == local.measured
                && wire.history_samples == local.history_samples;
            if !same {
                violations.push(format!(
                    "{label}: session over the wire differs from the in-process session"
                ));
            }
            wire.best.unwrap_or_default()
        } else {
            let wire = client
                .tune(p.clone())
                .map_err(|e| format!("verify tune {label}: {e}"))?;
            let run = Ceal::new(CealParams::without_history())
                .try_run(&truth.oracle, &truth.pool, p.budget as usize, p.seed)
                .map_err(|e| format!("reference tune {label}: {e}"))?;
            let value = truth.oracle.table()[&run.best_predicted].value;
            let same = !wire.from_cache
                && wire.best == run.best_predicted
                && wire.best_value.to_bits() == value.to_bits()
                && wire.runs_used == run.runs_used() as u64
                && wire.component_runs == run.component_runs.len() as u64;
            if !same {
                violations.push(format!(
                    "{label}: tune over the wire differs from in-process Ceal::try_run"
                ));
            }
            cold_answers.push(wire.clone());
            wire.best
        };
        match truth.gap_pct(&best) {
            Some(gap) => gaps.push(gap),
            None => violations.push(format!("{label}: recommended config is not in the pool")),
        }
    }
    let after = env.metrics()?.oracle_measurements;
    if w.uses_sessions() && after - before != billed_by_sessions {
        violations.push(format!(
            "oracle billed {} measurements, sessions report history+measured = {billed_by_sessions}",
            after - before
        ));
    }
    if w == Workload::CacheWarm {
        for (p, cold) in campaigns.iter().zip(&cold_answers) {
            let warm = client
                .tune(p.clone())
                .map_err(|e| format!("verify warm tune: {e}"))?;
            if !warm.from_cache || !same_answer(&warm, cold) {
                violations.push(format!(
                    "{}/{}/{}: warm answer differs from the cold one",
                    p.workflow, p.objective, p.seed
                ));
            }
        }
        let spent = env.metrics()?.oracle_measurements - after;
        if spent != 0 {
            violations.push(format!("warm answers billed {spent} oracle measurements"));
        }
    }
    Ok(Verified {
        tuned_gap_pct: gaps.iter().sum::<f64>() / gaps.len().max(1) as f64,
        oracle_runs_per_campaign: (after - before) as f64 / campaigns.len() as f64,
        violations,
    })
}

/// The same campaign `run_session` drives over the wire, stepped directly
/// on a `SessionManager` with no server, journal, disk cache or fleet.
fn reference_session(p: &TuneParams) -> Result<SessionStatus, String> {
    let manager = SessionManager::new(Duration::from_secs(600));
    let cache = AutotuneCache::in_memory();
    let metrics = ServerMetrics::new();
    let (mut status, _) = manager
        .create(p.clone(), 0.0, 0, &cache, &metrics)
        .map_err(|e| format!("reference session: {e}"))?;
    let handle = manager
        .get(status.session)
        .map_err(|e| format!("reference session: {e}"))?;
    for _ in 0..64 {
        if status.state == "done" {
            break;
        }
        status = handle
            .lock()
            .advance(ADVANCE_RUNS, &cache, &metrics)
            .map_err(|e| format!("reference advance: {e}"))?;
    }
    Ok(status)
}

/// Checks that hold over a whole untraced window of `w`, from the
/// server's counters before and after it.
pub fn window_invariants(
    w: Workload,
    before: &MetricsReport,
    after: &MetricsReport,
) -> Vec<String> {
    let mut v = Vec::new();
    let spent = after.oracle_measurements - before.oracle_measurements;
    if matches!(w, Workload::CacheWarm | Workload::RequestMix) && spent != 0 {
        v.push(format!("{} billed {spent} oracle measurements", w.name()));
    }
    if after.requests_shed != 0 || after.connections_rejected != 0 {
        v.push(format!(
            "server shed {} requests and rejected {} connections",
            after.requests_shed, after.connections_rejected
        ));
    }
    if after.cache_persist_failures != 0 {
        v.push(format!(
            "{} cache persist failures",
            after.cache_persist_failures
        ));
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_round_trips_through_its_name() {
        for w in ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(w.server_workers() >= w.conns());
        }
        assert_eq!(Workload::from_name("ping_only"), None);
    }
}
