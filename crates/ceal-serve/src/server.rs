//! The TCP service: configuration, shared state, admission control,
//! dispatch, graceful shutdown.
//!
//! Connections are owned by the readiness-driven
//! [`reactor`](crate::reactor): one event-loop thread does all socket
//! I/O and runs `dispatch` — the one handler table, here — itself for the
//! requests that cannot wait, and on the worker pool for the rest; a
//! request that must wait parks (in `parked`) and holds no
//! thread. The reactor is epoll-based, so the *server* is Linux-only
//! ([`Server::run`] reports `Unsupported` elsewhere); the client, worker
//! runtime, cache, sessions and wire format are portable.
//!
//! Shutdown is graceful: the `Shutdown` request flips a flag, its
//! completion wakes the reactor, and [`Server::run`] returns only after
//! every in-flight connection drains.

use crate::cache::{AutotuneCache, DEFAULT_LRU_CAPACITY, DEFAULT_TRANSFER_THRESHOLD};
use crate::error::ServeError;
use crate::frame::MAX_MID_FRAME_STALL;
use crate::metrics::{Endpoint, ServerMetrics};
use crate::parked::{self, Event, Outcome, Parked, Ticket};
use crate::protocol::{MetricsReport, Request, Response, PROTOCOL_VERSION};
use crate::session::{Session, SessionManager};
use ceal_fleet::TaskReport;
use ceal_par::sync::Mutex;
use ceal_trace::{TraceContext, Tracer};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Server configuration.
pub struct ServeConfig {
    /// Bind address; use port 0 to let the OS pick one.
    pub addr: String,
    /// Worker threads executing requests.
    pub workers: usize,
    /// Sessions idle longer than this are evicted.
    pub idle_timeout: Duration,
    /// Persistent cache directory (one append-only record log per
    /// workflow); `None` keeps the cache in memory only. A cache of an
    /// older layout at this path is left untouched, with a warning:
    /// `cache import` converts it. One process owns the directory at a
    /// time.
    pub cache_path: Option<PathBuf>,
    /// Capacity of the cache's in-memory LRU front, in campaigns. With a
    /// `cache_path` an evicted campaign is still served from disk; without
    /// one it is gone and a repeat of it is tuned again.
    pub cache_lru_capacity: usize,
    /// A cache bundle (from `ceal-bench cache export`) imported at bind,
    /// seeding the cache before the first request. Entries already cached
    /// locally win over imported ones.
    pub cache_import: Option<PathBuf>,
    /// Platform every campaign on this server measures on.
    pub platform: ceal_sim::Platform,
    /// Feature-distance bound for seeding sessions from a cached sibling
    /// platform's campaign; `0.0` disables transfer seeding.
    pub transfer_threshold: f64,
    /// Directory for per-session write-ahead journals; `None` disables
    /// journaling. With a directory set, sessions that were live when the
    /// server died are rebuilt from their journals at the next bind.
    pub journal_dir: Option<PathBuf>,
    /// How long a mid-frame read or unfinished response write may go
    /// without a single byte of progress before the connection is dropped.
    pub stall_deadline: Duration,
    /// `SO_SNDBUF` for accepted connections; `None` keeps the kernel
    /// default. Small values let tests fill the send buffer quickly.
    pub send_buffer: Option<usize>,
    /// Measurement-fleet worker lease: a registered worker silent for
    /// longer than this is marked dead and its in-flight tasks are
    /// re-scattered to the survivors.
    pub worker_lease: Duration,
    /// Trace sink. Disabled by default (every trace call reduces to one
    /// branch); `serve --trace-dir` passes [`Tracer::to_dir`], tests
    /// inject [`Tracer::in_memory`] to assert on events.
    pub tracer: Tracer,
    /// Admission cap: connections beyond this are answered with one
    /// `Busy` frame and closed, instead of marching toward fd exhaustion.
    pub max_connections: usize,
    /// Dispatch-queue high watermark: once this many requests are queued
    /// or executing on the worker pool, sheddable requests get `Busy`.
    /// `0` picks a default scaled to the worker count. Shedding stops once
    /// the in-flight count falls back to half of it (hysteresis, so the
    /// server doesn't flap).
    pub dispatch_high_watermark: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            idle_timeout: Duration::from_secs(600),
            cache_path: None,
            cache_lru_capacity: DEFAULT_LRU_CAPACITY,
            cache_import: None,
            platform: ceal_sim::Platform::default(),
            transfer_threshold: DEFAULT_TRANSFER_THRESHOLD,
            journal_dir: None,
            stall_deadline: MAX_MID_FRAME_STALL,
            send_buffer: None,
            worker_lease: Duration::from_millis(1500),
            tracer: Tracer::disabled(),
            max_connections: 16_384,
            dispatch_high_watermark: 0,
        }
    }
}

/// Admission control and load shedding.
///
/// Two independent limits: a hard cap on live connections (enforced at
/// accept, so the fd table stays bounded) and a high/low watermark pair on
/// the dispatch queue (enforced per request, with hysteresis so shedding
/// doesn't flap around the threshold). Cheap control traffic like `Ping`,
/// `Metrics`, and fleet polls is never shed; see
/// [`Endpoint::sheddable`].
pub(crate) struct LoadControl {
    /// Hard cap on admitted connections.
    pub(crate) max_connections: usize,
    /// Shedding starts once in-flight dispatches reach this.
    pub(crate) high: usize,
    /// Shedding stops once in-flight dispatches fall back to this, half
    /// of `high`.
    pub(crate) low: usize,
    live_conns: AtomicUsize,
    in_flight: AtomicUsize,
    shedding: AtomicBool,
    /// Requests answered with `Busy`.
    pub(crate) requests_shed: AtomicU64,
    /// Connections refused at accept.
    pub(crate) connections_rejected: AtomicU64,
}

impl LoadControl {
    pub(crate) fn new(max_connections: usize, high: usize) -> LoadControl {
        let high = high.max(1);
        LoadControl {
            max_connections: max_connections.max(1),
            high,
            low: high / 2,
            live_conns: AtomicUsize::new(0),
            in_flight: AtomicUsize::new(0),
            shedding: AtomicBool::new(false),
            requests_shed: AtomicU64::new(0),
            connections_rejected: AtomicU64::new(0),
        }
    }

    /// Tries to admit a new connection; a `false` return has already been
    /// counted as rejected.
    pub(crate) fn try_admit_conn(&self) -> bool {
        let prev = self.live_conns.fetch_add(1, Ordering::AcqRel);
        if prev >= self.max_connections {
            self.live_conns.fetch_sub(1, Ordering::AcqRel);
            self.connections_rejected.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        true
    }

    pub(crate) fn release_conn(&self) {
        self.live_conns.fetch_sub(1, Ordering::AcqRel);
    }

    pub(crate) fn live_conns(&self) -> usize {
        self.live_conns.load(Ordering::Acquire)
    }

    pub(crate) fn begin_dispatch(&self) {
        self.in_flight.fetch_add(1, Ordering::AcqRel);
    }

    pub(crate) fn end_dispatch(&self) {
        self.in_flight.fetch_sub(1, Ordering::AcqRel);
    }

    pub(crate) fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::Acquire)
    }

    /// Whether the server is currently in the shedding regime (no state
    /// change; for reporting).
    pub(crate) fn is_shedding(&self) -> bool {
        self.shedding.load(Ordering::Acquire)
    }

    /// Whether to shed right now, with hysteresis: returns `(shed,
    /// transition)` where `transition` is `Some(true)` the moment shedding
    /// starts and `Some(false)` the moment it stops (for one-shot warn
    /// events). Transitions race benignly under concurrency — the counters
    /// are approximate by design.
    pub(crate) fn shed_decision(&self) -> (bool, Option<bool>) {
        let in_flight = self.in_flight.load(Ordering::Acquire);
        if self.shedding.load(Ordering::Acquire) {
            if in_flight <= self.low {
                self.shedding.store(false, Ordering::Release);
                (false, Some(false))
            } else {
                (true, None)
            }
        } else if in_flight >= self.high {
            self.shedding.store(true, Ordering::Release);
            (true, Some(true))
        } else {
            (false, None)
        }
    }

    /// Server-suggested retry delay, scaled linearly to how far past the
    /// high watermark the queue is — a deterministic function of queue
    /// depth, so identical load produces identical advice.
    pub(crate) fn retry_after_ms(&self) -> u64 {
        let in_flight = self.in_flight.load(Ordering::Acquire) as u64;
        let high = self.high.max(1) as u64;
        let over = in_flight.saturating_sub(high);
        (25 + over * 100 / high).clamp(25, 2_000)
    }
}

/// Shared server state.
pub(crate) struct ServerInner {
    pub(crate) sessions: SessionManager,
    pub(crate) cache: Arc<AutotuneCache>,
    pub(crate) metrics: ServerMetrics,
    pub(crate) shutdown: AtomicBool,
    pub(crate) addr: SocketAddr,
    /// Mid-frame / mid-write progress deadline.
    pub(crate) stall_deadline: Duration,
    /// How often idle-session eviction runs, independent of accepts.
    pub(crate) evict_cadence: Duration,
    /// Optional `SO_SNDBUF` for accepted connections.
    pub(crate) send_buffer: Option<usize>,
    /// Measurement-fleet coordinator: worker registry plus the
    /// scatter/gather scheduler every campaign's batches go through.
    pub(crate) fleet: ceal_fleet::Coordinator,
    /// Structured trace sink shared by every layer of the server.
    pub(crate) tracer: Tracer,
    /// Admission control and load shedding.
    pub(crate) load: LoadControl,
    /// Makes the next `dispatch` panic, for the test that checks a
    /// handler's panic stays contained to its request.
    #[cfg(test)]
    pub(crate) panic_next_dispatch: AtomicBool,
    /// Process start, for the `Metrics` uptime.
    pub(crate) started: Instant,
    /// Requests parked on a fleet round, by the round's batch id. An entry
    /// and its shell's round come and go together, under the session lock.
    pub(crate) rounds: Mutex<HashMap<u64, Parked>>,
    /// The reactor's completion queue, once it runs.
    pub(crate) sink: OnceLock<Box<dyn Fn(Event) + Send + Sync>>,
}

impl ServerInner {
    /// Queues `event` for the reactor and wakes it. Before the reactor
    /// runs there are no connections, so nothing to tell.
    pub(crate) fn post(&self, event: Event) {
        if let Some(sink) = self.sink.get() {
            sink(event);
        }
    }

    /// The `Metrics` snapshot: every section read where it lives, so
    /// none can be left out and silently reported as zero.
    pub(crate) fn metrics_report(&self) -> MetricsReport {
        let (m, load) = (&self.metrics, &self.load);
        let cache = self.cache.stats();
        MetricsReport {
            endpoints: m.endpoint_stats(),
            oracle_measurements: m.oracle_measurements.load(Ordering::Relaxed),
            cache_hits: m.cache_hits.load(Ordering::Relaxed),
            cache_misses: m.cache_misses.load(Ordering::Relaxed),
            sessions_created: m.sessions_created.load(Ordering::Relaxed),
            sessions_evicted: m.sessions_evicted.load(Ordering::Relaxed),
            sessions_rebuilt: m.sessions_rebuilt.load(Ordering::Relaxed),
            cache_persist_failures: m.cache_persist_failures.load(Ordering::Relaxed),
            cache_transfer_seeded: m.cache_transfer_seeded.load(Ordering::Relaxed),
            cache_lru_hits: cache.lru_hits,
            cache_lru_misses: cache.lru_misses,
            cache_lru_evictions: cache.lru_evictions,
            cache_lru_len: cache.lru_len,
            active_sessions: self.sessions.len() as u64,
            fleet: self.fleet.report(),
            requests_shed: load.requests_shed.load(Ordering::Relaxed),
            connections_rejected: load.connections_rejected.load(Ordering::Relaxed),
            uptime_ms: self.started.elapsed().as_millis().min(u64::MAX as u128) as u64,
            live_connections: load.live_conns() as u64,
            max_connections: load.max_connections as u64,
            dispatch_in_flight: load.in_flight() as u64,
            dispatch_high_watermark: load.high as u64,
            dispatch_low_watermark: load.low as u64,
            shedding: load.is_shedding(),
        }
    }

    /// Emits the one-shot `overload.shed-start` / `overload.shed-stop`
    /// warn events for a [`LoadControl::shed_decision`] transition.
    pub(crate) fn note_shed_transition(&self, transition: Option<bool>) {
        match transition {
            Some(true) => self.tracer.warn(
                "overload.shed-start",
                TraceContext::NONE,
                &format!(
                    "dispatch queue crossed high watermark ({}); shedding begins",
                    self.load.high
                ),
                &[("in_flight", self.load.in_flight().into())],
            ),
            Some(false) => self.tracer.warn(
                "overload.shed-stop",
                TraceContext::NONE,
                &format!(
                    "dispatch queue drained to low watermark ({}); shedding ends",
                    self.load.low
                ),
                &[(
                    "requests_shed",
                    self.load.requests_shed.load(Ordering::Relaxed).into(),
                )],
            ),
            None => {}
        }
    }
}

/// A bound-but-not-yet-serving tuning service.
pub struct Server {
    pub(crate) listener: TcpListener,
    pub(crate) workers: usize,
    pub(crate) inner: Arc<ServerInner>,
}

impl Server {
    /// Binds the listener and loads the cache. Serving starts with
    /// [`Server::run`] or [`Server::spawn`].
    pub fn bind(config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let tracer = config.tracer;
        let cache = match &config.cache_path {
            Some(path) => AutotuneCache::at_path_traced(path, config.cache_lru_capacity, &tracer),
            None => AutotuneCache::in_memory_with_capacity(config.cache_lru_capacity),
        };
        if let Some(bundle) = &config.cache_import {
            let text = std::fs::read_to_string(bundle)?;
            let (imported, skipped) = cache.import_bundle(&text)?;
            eprintln!(
                "cache import: {imported} campaigns imported, {skipped} already cached ({})",
                bundle.display()
            );
            tracer.instant(
                "cache.import",
                TraceContext::NONE,
                &[
                    ("imported", (imported as u64).into()),
                    ("skipped", (skipped as u64).into()),
                ],
            );
        }
        let mut sessions = SessionManager::new(config.idle_timeout)
            .with_platform(config.platform)
            .with_transfer_threshold(config.transfer_threshold)
            .with_tracer(tracer.clone());
        if let Some(dir) = &config.journal_dir {
            sessions = sessions.with_journal_dir(dir.clone())?;
        }
        let metrics = ServerMetrics::new();
        // Campaigns that were live when the previous process died come
        // back before the first connection is accepted.
        sessions.rebuild_from_disk(&metrics);
        let evict_cadence =
            (config.idle_timeout / 4).clamp(Duration::from_millis(25), Duration::from_secs(1));
        // A generous default watermark: shedding is for sustained overload,
        // not a couple of concurrent campaigns. Benches and tests override
        // it to exercise the shed path deliberately.
        let high = if config.dispatch_high_watermark > 0 {
            config.dispatch_high_watermark
        } else {
            (config.workers.max(1) * 4).max(16)
        };
        let load = LoadControl::new(config.max_connections, high);
        Ok(Server {
            listener,
            workers: config.workers.max(1),
            inner: Arc::new(ServerInner {
                sessions,
                cache: Arc::new(cache),
                metrics,
                shutdown: AtomicBool::new(false),
                addr,
                stall_deadline: config.stall_deadline,
                evict_cadence,
                send_buffer: config.send_buffer,
                fleet: ceal_fleet::Coordinator::with_tracer(
                    ceal_fleet::FleetConfig {
                        lease: config.worker_lease,
                        ..ceal_fleet::FleetConfig::default()
                    },
                    tracer.clone(),
                ),
                tracer,
                load,
                #[cfg(test)]
                panic_next_dispatch: AtomicBool::new(false),
                started: Instant::now(),
                rounds: Mutex::new(HashMap::new()),
                sink: OnceLock::new(),
            }),
        })
    }

    /// The bound address (with the OS-assigned port when binding to 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// The cache the server answers from, shared with it.
    pub fn cache(&self) -> Arc<AutotuneCache> {
        Arc::clone(&self.inner.cache)
    }

    /// Serves until a `Shutdown` request arrives, then drains in-flight
    /// connections and returns.
    pub fn run(self) -> std::io::Result<()> {
        #[cfg(target_os = "linux")]
        {
            crate::reactor::run(self.listener, self.inner, self.workers)
        }
        #[cfg(not(target_os = "linux"))]
        {
            Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "the ceal-serve server needs Linux (epoll reactor)",
            ))
        }
    }

    /// Runs the server on a background thread, returning a handle with the
    /// bound address.
    pub fn spawn(self) -> ServerHandle {
        let addr = self.local_addr();
        let thread = std::thread::Builder::new()
            .name("ceal-serve-accept".into())
            .spawn(move || self.run());
        ServerHandle { addr, thread }
    }
}

/// A running background server.
pub struct ServerHandle {
    addr: SocketAddr,
    /// The serve thread, or why it could not be spawned.
    thread: std::io::Result<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl ServerHandle {
    /// The server's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for the serve loop to exit (after a `Shutdown` request).
    pub fn join(self) -> std::io::Result<()> {
        self.thread?
            .join()
            .map_err(|_| std::io::Error::other("server thread panicked"))?
    }
}

pub(crate) fn endpoint_of(req: &Request) -> Endpoint {
    match req {
        Request::Ping => Endpoint::Ping,
        Request::Tune(_) => Endpoint::Tune,
        Request::CreateSession { .. } => Endpoint::CreateSession,
        Request::Advance { .. } => Endpoint::Advance,
        Request::Status { .. } => Endpoint::Status,
        Request::Predict { .. } => Endpoint::Predict,
        Request::PushHistory { .. } => Endpoint::PushHistory,
        Request::CloseSession { .. } => Endpoint::CloseSession,
        Request::Metrics | Request::Shutdown => Endpoint::Metrics,
        Request::RegisterWorker { .. } => Endpoint::RegisterWorker,
        Request::TaskResult { .. } => Endpoint::TaskResult,
    }
}

pub(crate) fn error_frame(e: ServeError) -> Response {
    Response::Error {
        code: e.code().into(),
        message: e.to_string(),
    }
}

fn ok_or_error<T>(result: Result<T, ServeError>, into: impl FnOnce(T) -> Response) -> Response {
    match result {
        Ok(v) => into(v),
        Err(e) => error_frame(e),
    }
}

/// The one handler table. `inline` says the caller is the reactor thread
/// and must not wait: a handler that would have to hands the request back
/// ([`Outcome::Defer`]), and only then may a worker poll be held.
pub(crate) fn dispatch(req: Request, inner: &ServerInner, ticket: Ticket, inline: bool) -> Outcome {
    #[cfg(test)]
    if inner.panic_next_dispatch.swap(false, Ordering::AcqRel) {
        panic!("dispatch panicked on purpose");
    }
    let reply = |ticket: Ticket, resp: Response| Outcome::Done(ticket.finish(&resp));
    let draining = inner.shutdown.load(Ordering::Acquire);
    if draining
        && matches!(
            req,
            Request::Tune(_)
                | Request::CreateSession { .. }
                | Request::RegisterWorker { .. }
                | Request::TaskResult { .. }
        )
    {
        // Workers polling a draining server get the same answer as new
        // campaigns: a clean `shutting-down` frame, which the worker
        // runtime treats as "stop". Rounds in flight stop waiting for
        // them and fall back to measuring locally.
        return reply(ticket, error_frame(ServeError::ShuttingDown));
    }
    let resp = match req {
        Request::Ping => Response::Pong {
            version: PROTOCOL_VERSION,
        },
        Request::Tune(params) => return parked::tune(inner, params, ticket, inline),
        Request::CreateSession {
            params,
            failure_rate,
            fault_seed,
        } => ok_or_error(
            inner.sessions.create(
                params,
                failure_rate,
                fault_seed,
                &inner.cache,
                &inner.metrics,
            ),
            |(status, from_cache)| Response::SessionCreated { status, from_cache },
        ),
        Request::Advance { session, runs } => return parked::advance(inner, session, runs, ticket),
        Request::Status { session } => {
            match try_session(inner, session, inline, |s| Ok(s.status())) {
                Some(status) => ok_or_error(status, Response::Session),
                None => return Outcome::Defer(Request::Status { session }, ticket),
            }
        }
        Request::Predict { session, configs } => {
            let scored = try_session(inner, session, inline, |s| {
                if inline && s.predict_must_fit() {
                    return Ok(None);
                }
                s.predict(&configs).map(Some)
            });
            match scored {
                Some(Ok(Some(values))) => Response::Predictions { values },
                Some(Err(e)) => error_frame(e),
                Some(Ok(None)) | None => {
                    return Outcome::Defer(Request::Predict { session, configs }, ticket)
                }
            }
        }
        Request::PushHistory { session, samples } => ok_or_error(
            with_session(inner, session, |s| s.push_history(samples)),
            Response::Session,
        ),
        Request::CloseSession { session } => {
            let closed = inner.sessions.get(session).and_then(|shell| {
                inner.sessions.close(session)?;
                parked::abandon_round(inner, &shell, session);
                Ok(())
            });
            ok_or_error(closed, |()| Response::Ok)
        }
        Request::Metrics => Response::Metrics(inner.metrics_report()),
        Request::Shutdown => {
            inner.shutdown.store(true, Ordering::Release);
            // Land everything still buffered in the trace channel before the
            // process starts draining connections.
            inner.tracer.flush();
            Response::Ok
        }
        Request::RegisterWorker { name } => {
            let (worker, lease_ms) = inner.fleet.register(&name);
            Response::WorkerRegistered { worker, lease_ms }
        }
        Request::TaskResult { worker, results } => {
            return poll(inner, worker, results, ticket, inline)
        }
    };
    reply(ticket, resp)
}

/// A worker's poll. Tried on the reactor thread, one that finds no work is
/// held under its connection token until a scatter has some; from the pool
/// it is answered at once, as it always was.
fn poll(
    inner: &ServerInner,
    worker: u64,
    reports: Vec<TaskReport>,
    ticket: Ticket,
    inline: bool,
) -> Outcome {
    let polled = match inline {
        true => inner.fleet.poll_or_hold(worker, reports, ticket.to.conn),
        false => inner.fleet.poll(worker, reports).map(Some),
    };
    match polled {
        Ok(None) => Outcome::Held(ticket),
        Ok(Some(tasks)) => Outcome::Done(ticket.finish(&Response::TaskAssign { tasks })),
        Err(e) => Outcome::Done(ticket.finish(&error_frame(e.into()))),
    }
}

/// [`with_session`] for a caller that may be the reactor thread: with
/// `try_only` a taken lock is not waited for, and the answer is `None`.
fn try_session<T>(
    inner: &ServerInner,
    id: u64,
    try_only: bool,
    f: impl FnOnce(&mut Session) -> Result<T, ServeError>,
) -> Option<Result<T, ServeError>> {
    let handle = match inner.sessions.get(id) {
        Ok(handle) => handle,
        Err(e) => return Some(Err(e)),
    };
    let mut session = match try_only {
        true => handle.try_lock()?,
        false => handle.lock(),
    };
    Some(f(&mut session))
}

/// Runs `f` on session `id` under its lock.
fn with_session<T>(
    inner: &ServerInner,
    id: u64,
    f: impl FnOnce(&mut Session) -> Result<T, ServeError>,
) -> Result<T, ServeError> {
    let handle = inner.sessions.get(id)?;
    let mut session = handle.lock();
    f(&mut session)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::TuneParams;

    fn lv_params() -> TuneParams {
        TuneParams {
            workflow: "LV".into(),
            objective: "comp".into(),
            budget: 25,
            pool: 500,
            seed: 7,
            algo: "ceal".into(),
        }
    }

    /// Exhaustive on purpose: a new `Request` variant does not compile
    /// here until it is numbered, and the test below then fails until it
    /// has a sample — and, through the assertion, an endpoint-table row.
    fn variant_index(req: &Request) -> usize {
        match req {
            Request::Ping => 0,
            Request::Tune(_) => 1,
            Request::CreateSession { .. } => 2,
            Request::Advance { .. } => 3,
            Request::Status { .. } => 4,
            Request::Predict { .. } => 5,
            Request::PushHistory { .. } => 6,
            Request::CloseSession { .. } => 7,
            Request::Metrics => 8,
            Request::Shutdown => 9,
            Request::RegisterWorker { .. } => 10,
            Request::TaskResult { .. } => 11,
        }
    }

    #[test]
    fn every_request_variant_peeks_to_its_endpoint() {
        // The reactor classifies raw bytes (`Endpoint::peek`), dispatch the
        // decoded enum (`endpoint_of`); they must agree on every variant.
        let samples = vec![
            Request::Ping,
            Request::Tune(lv_params()),
            Request::CreateSession {
                params: lv_params(),
                failure_rate: 0.0,
                fault_seed: 0,
            },
            Request::Advance {
                session: 1,
                runs: 5,
            },
            Request::Status { session: 1 },
            Request::Predict {
                session: 1,
                configs: vec![],
            },
            Request::PushHistory {
                session: 1,
                samples: vec![],
            },
            Request::CloseSession { session: 1 },
            Request::Metrics,
            Request::Shutdown,
            Request::RegisterWorker { name: "w".into() },
            Request::TaskResult {
                worker: 1,
                results: vec![],
            },
        ];
        let covered: Vec<usize> = samples.iter().map(variant_index).collect();
        assert_eq!(
            covered,
            (0..12).collect::<Vec<_>>(),
            "one sample per variant"
        );
        for req in samples {
            let payload = serde_json::to_vec(&req).unwrap();
            assert_eq!(
                Endpoint::peek(&payload),
                Some(endpoint_of(&req)),
                "table and typed endpoint disagree for {req:?}"
            );
            // Pins the table's shed column: only campaign work may be
            // shed, never control or fleet traffic.
            let campaign_work = matches!(
                req,
                Request::Tune(_)
                    | Request::CreateSession { .. }
                    | Request::Advance { .. }
                    | Request::Predict { .. }
                    | Request::PushHistory { .. }
            );
            assert_eq!(endpoint_of(&req).sheddable(), campaign_work, "{req:?}");
            // And its inline column: only what can see its wait coming and
            // hand itself to the pool may run on the reactor thread.
            let cannot_wait = matches!(
                req,
                Request::Ping
                    | Request::Tune(_)
                    | Request::Status { .. }
                    | Request::Predict { .. }
                    | Request::RegisterWorker { .. }
                    | Request::TaskResult { .. }
            );
            assert_eq!(endpoint_of(&req).runs_inline(), cannot_wait, "{req:?}");
        }
    }

    /// A `Tune` tried on the reactor thread that the cache cannot answer
    /// without waiting goes to the pool as it came, having billed, counted
    /// and traced nothing: the pool's lookup is the one recorded. One it
    /// can answer is answered there, however large the cached campaign:
    /// the shard index holds the answer, and no frame is read.
    #[test]
    fn an_inline_tune_that_would_wait_is_deferred_having_recorded_nothing() {
        use crate::cache::platform_fingerprint;
        use crate::cache::CacheEntry;
        use crate::parked::ReplyTo;
        use crate::session::{cache_key, TUNE_MODE};

        let fingerprint = platform_fingerprint(&ceal_sim::Platform::default());
        let dir = ceal_testutil::unique_temp_path("ceal-inline-tune", "");
        let params = lv_params();
        let entry = CacheEntry {
            key: cache_key(&params, &fingerprint, TUNE_MODE),
            best: vec![100, 20, 1, 50, 10, 1],
            best_value: 1.25,
            runs_used: 25,
            component_runs: 6,
            samples: vec![(vec![100, 20, 1, 50, 10, 1], 1.25)],
            platform_features: vec![1.0; 4],
        };
        // And the largest campaign a `Tune` may ask for, every sample kept.
        let large = TuneParams {
            budget: 10_000,
            ..params.clone()
        };
        let large_entry = CacheEntry {
            key: cache_key(&large, &fingerprint, TUNE_MODE),
            runs_used: 10_000,
            samples: (0..10_000)
                .map(|i| (vec![100, 20, 1, 50, 10, i], 1.25 + i as f64))
                .collect(),
            ..entry.clone()
        };
        let seeded = AutotuneCache::at_path(&dir);
        seeded.put(entry.clone()).unwrap();
        seeded.put(large_entry.clone()).unwrap();
        drop(seeded);
        let tracer = Tracer::in_memory();
        let server = Server::bind(ServeConfig {
            cache_path: Some(dir.clone()),
            tracer: tracer.clone(),
            ..ServeConfig::default()
        })
        .unwrap();
        let inner = &server.inner;
        let try_inline = |params: &TuneParams| {
            let to = ReplyTo {
                conn: 0,
                arrived: Instant::now(),
                endpoint: Endpoint::Tune,
            };
            let req = Request::Tune(params.clone());
            dispatch(req, inner, Ticket::open(inner, to), true)
        };
        let deferred = |outcome: Outcome, asked: &TuneParams, what: &str| match outcome {
            Outcome::Defer(Request::Tune(p), _) => assert_eq!(&p, asked, "{what}"),
            _ => panic!("{what}: answered on the reactor thread"),
        };
        // Besides the request's own span, which the pool ends with its answer.
        let recorded = || {
            let m = &inner.metrics;
            let counted = [
                m.oracle_measurements.load(Ordering::Relaxed),
                m.cache_hits.load(Ordering::Relaxed),
                m.cache_misses.load(Ordering::Relaxed),
                inner.cache.stats().lru_hits,
                inner.cache.stats().lru_misses,
            ];
            let events = tracer.drain_events();
            let traced = events
                .iter()
                .map(|e| e.name)
                .filter(|n| *n != "request.tune");
            (counted, traced.collect::<Vec<_>>())
        };
        let nothing = ([0; 5], vec![]);
        tracer.drain_events();

        // Not indexed yet: the first touch would read the whole file.
        deferred(try_inline(&params), &params, "an unindexed shard");
        assert_eq!(recorded(), nothing, "unindexed");
        // Indexed (counting nothing), then locked as a `put` locks it.
        assert_eq!(inner.cache.len(), 2);
        tracer.drain_events();
        let locked = inner.cache.with_shard_locked("LV", || try_inline(&params));
        deferred(locked, &params, "a locked shard");
        assert_eq!(recorded(), nothing, "locked");
        // Not cached at all: the campaign is the pool's.
        let cold = TuneParams {
            seed: 8,
            ..params.clone()
        };
        deferred(try_inline(&cold), &cold, "a cold Tune");
        assert_eq!(recorded(), nothing, "cold");

        // Indexed and free: answered here from the index row, recorded
        // once, in the bytes the pool would have framed.
        for (hits, asked, cached) in [(1, &params, &entry), (2, &large, &large_entry)] {
            let Outcome::Done(reply) = try_inline(asked) else {
                panic!("budget {}: an indexed disk hit was deferred", asked.budget);
            };
            let expected = Response::TuneResult {
                best: cached.best.clone(),
                best_value: cached.best_value,
                runs_used: cached.runs_used,
                component_runs: cached.component_runs,
                from_cache: true,
            };
            assert_eq!(
                reply.framed,
                parked::encode_frame(&expected),
                "{}",
                asked.budget
            );
            let (counted, traced) = recorded();
            assert_eq!(counted, [0, hits, 0, 0, hits], "one disk hit more");
            assert_eq!(traced, ["campaign.tune", "cache.lookup", "campaign.tune"]);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_control_sheds_with_hysteresis() {
        let load = LoadControl::new(10, 4);
        for _ in 0..4 {
            load.begin_dispatch();
        }
        let (shed, transition) = load.shed_decision();
        assert!(shed);
        assert_eq!(transition, Some(true));
        // Still above low: keeps shedding without a fresh transition.
        load.end_dispatch();
        let (shed, transition) = load.shed_decision();
        assert!(shed);
        assert_eq!(transition, None);
        // At low: stops, one stop transition.
        load.end_dispatch();
        load.end_dispatch();
        let (shed, transition) = load.shed_decision();
        assert!(!shed);
        assert_eq!(transition, Some(false));
    }

    #[test]
    fn load_control_caps_connections() {
        let load = LoadControl::new(2, 4);
        assert!(load.try_admit_conn());
        assert!(load.try_admit_conn());
        assert!(!load.try_admit_conn());
        assert_eq!(load.connections_rejected.load(Ordering::Relaxed), 1);
        load.release_conn();
        assert!(load.try_admit_conn());
    }

    #[test]
    fn retry_after_scales_with_queue_depth() {
        let load = LoadControl::new(10, 4);
        for _ in 0..4 {
            load.begin_dispatch();
        }
        let at_watermark = load.retry_after_ms();
        for _ in 0..40 {
            load.begin_dispatch();
        }
        let deep = load.retry_after_ms();
        assert!(at_watermark >= 25);
        assert!(deep > at_watermark, "deeper queue must push clients out");
        assert!(deep <= 2_000);
    }
}
