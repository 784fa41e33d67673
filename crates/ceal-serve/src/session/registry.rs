//! The registry of live sessions: creation (in the tier the cache puts
//! the campaign in), lookup without the session's lock, close, idle
//! eviction, and rebuilding from the journal directory after a restart.
//! A child of [`session`](super) because it builds and recovers shells
//! through their private parts.

use super::*;
use crate::cache::transfer::{warm_start, WarmStart};
use parking_lot::RwLock;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicU64;
use std::time::Duration;

/// A registry entry: the session, and when a request last asked for it —
/// milliseconds on the registry's clock, beside the lock rather than
/// under it, so looking a session up never waits for whoever holds it.
struct Entry {
    session: Arc<Mutex<Session>>,
    last_touch: AtomicU64,
}

/// The registry of live sessions.
pub struct SessionManager {
    sessions: RwLock<HashMap<u64, Entry>>,
    next_id: AtomicU64,
    /// Zero of the idle clock.
    epoch: Instant,
    idle_timeout: Duration,
    journal_dir: Option<PathBuf>,
    /// Platform every session on this server measures on.
    pub(super) platform: Platform,
    /// Feature-distance bound for transfer-seeding near-miss lookups.
    transfer_threshold: f64,
    /// Trace sink handed to every session this registry creates.
    pub(super) tracer: Tracer,
}

impl SessionManager {
    /// Creates an empty registry evicting sessions idle longer than
    /// `idle_timeout`, tuning the paper-testbed default platform.
    pub fn new(idle_timeout: Duration) -> Self {
        Self {
            sessions: RwLock::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            epoch: Instant::now(),
            idle_timeout,
            journal_dir: None,
            platform: Platform::default(),
            transfer_threshold: DEFAULT_TRANSFER_THRESHOLD,
            tracer: Tracer::disabled(),
        }
    }

    /// Sets the trace sink sessions record their campaign spans through.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Sets the platform sessions measure on (fingerprinted into their
    /// cache keys and matched against cached siblings for transfer).
    pub fn with_platform(mut self, platform: Platform) -> Self {
        self.platform = platform;
        self
    }

    /// Sets the feature-distance threshold for transfer seeding; `0.0`
    /// disables transfer entirely.
    pub fn with_transfer_threshold(mut self, threshold: f64) -> Self {
        self.transfer_threshold = threshold.max(0.0);
        self
    }

    /// Enables per-session write-ahead journals under `dir` (created if
    /// missing): every live campaign gets a `session-<id>.wal` that
    /// [`SessionManager::rebuild_from_disk`] can restore after a restart.
    pub fn with_journal_dir(mut self, dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        self.journal_dir = Some(dir);
        Ok(self)
    }

    fn journal_path(dir: &Path, id: u64) -> PathBuf {
        dir.join(format!("session-{id}.wal"))
    }

    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    fn insert(&self, id: u64, session: Session) {
        let entry = Entry {
            session: Arc::new(Mutex::new(session)),
            last_touch: AtomicU64::new(self.now_ms()),
        };
        self.sessions.write().insert(id, entry);
    }

    /// Restores every recoverable `session-*.wal` campaign in the journal
    /// directory, spending zero oracle budget; returns how many came back.
    /// Unreadable or foreign journals are skipped with a warning — a bad
    /// file must not stop the server from starting.
    pub fn rebuild_from_disk(&self, metrics: &ServerMetrics) -> usize {
        let Some(dir) = self.journal_dir.clone() else {
            return 0;
        };
        let Ok(entries) = std::fs::read_dir(&dir) else {
            return 0;
        };
        let mut rebuilt = 0;
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            let Some(id) = name
                .strip_prefix("session-")
                .and_then(|s| s.strip_suffix(".wal"))
                .and_then(|s| s.parse::<u64>().ok())
            else {
                continue;
            };
            match self.rebuild_one(&entry.path(), id) {
                Ok(session) => {
                    self.next_id.fetch_max(id + 1, Ordering::Relaxed);
                    self.insert(id, session);
                    metrics.sessions_rebuilt.fetch_add(1, Ordering::Relaxed);
                    rebuilt += 1;
                }
                Err(e) => self.tracer.warn(
                    "session.rebuild-failed",
                    TraceContext::NONE,
                    &format!("cannot rebuild session from {name}: {e}"),
                    &[("session", id.into())],
                ),
            }
        }
        rebuilt
    }

    fn rebuild_one(&self, path: &Path, id: u64) -> Result<Session, ServeError> {
        let (journal, report) = Journal::open(path)?;
        let bad = |message: String| Err(ServeError::Internal(message));
        let mut records = report.records.into_iter();
        let Some(JournalRecord::Start(cid)) = records.next() else {
            return bad("journal has no campaign header".into());
        };
        let Some(algo) = cid.algo.strip_prefix("session:") else {
            return bad(format!("not a session journal (algo '{}')", cid.algo));
        };
        let params = TuneParams {
            workflow: cid.workflow.clone(),
            objective: cid.objective.clone(),
            budget: cid.budget,
            pool: cid.pool,
            seed: cid.seed,
            algo: algo.to_string(),
        };
        let parsed = parse_params(&params)?;
        let (failure_rate, fault_seed) = (cid.failure_rate, cid.fault_seed);
        let mut session = Session::new(id, params, parsed, failure_rate, fault_seed, self, None);
        session.sample_pool();
        session.journal = Some(journal);
        records.try_for_each(|record| session.fold(record))?;
        // A solo batch the crash tore off before its marker never happened.
        session.batch = ComponentHistory::empty(session.history.n_components());
        Ok(session)
    }

    /// Live session count.
    pub fn len(&self) -> usize {
        self.sessions.read().len()
    }

    /// Whether no sessions are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Opens a session in the tier the cache puts it in
    /// ([`warm_start`]): an **exact** hit starts it in `done` with zero
    /// oracle spend, a **transfer** campaign gets the nearest sibling
    /// platform's samples as the stepper's prior, otherwise it starts
    /// **cold**. Returns the status (whose `warm_source` names the tier)
    /// and whether an exact hit supplied it.
    pub fn create(
        &self,
        params: TuneParams,
        failure_rate: f64,
        fault_seed: u64,
        cache: &AutotuneCache,
        metrics: &ServerMetrics,
    ) -> Result<(SessionStatus, bool), ServeError> {
        let parsed = parse_params(&params)?;
        if !(0.0..1.0).contains(&failure_rate) {
            return Err(ServeError::BadRequest(format!(
                "failure rate {failure_rate} outside [0, 1)"
            )));
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let key = cache_key(&params, &self.platform, SESSION_MODE);
        let mut session = Session::new(id, params, parsed, failure_rate, fault_seed, self, None);
        let (threshold, trace) = (self.transfer_threshold, session.ctx.trace);
        let platform = &self.platform;
        let warm = warm_start(
            cache,
            &key,
            platform,
            threshold,
            metrics,
            &self.tracer,
            trace,
        );
        let from_cache = matches!(warm, WarmStart::Exact(_));
        let mut records = Vec::new();
        match warm {
            WarmStart::Exact(entry) => session.finish_from(&entry),
            WarmStart::Transfer(prior) => {
                let prior = (&prior.samples, &prior.source, prior.distance);
                let json = serde_json::to_string(&prior)
                    .map_err(|e| ServeError::Internal(format!("prior does not serialize: {e}")))?;
                records.push(JournalRecord::Marker(format!("{PRIOR_MARKER}{json}")));
            }
            WarmStart::Cold => {}
        }
        if !from_cache {
            session.sample_pool();
        }
        // Warm-cache sessions spend nothing, so there is nothing worth
        // journaling; fresh campaigns get a write-ahead journal, whose
        // header and transfer prior are one commit.
        if let (false, Some(dir)) = (from_cache, &self.journal_dir) {
            let path = Self::journal_path(dir, id);
            let _ = std::fs::remove_file(&path); // stale leftover, new campaign
            let (mut journal, _) = Journal::open(&path)?;
            // The `session:` prefix tells session journals from the CLI's.
            let header = JournalRecord::Start(CampaignId {
                workflow: session.params.workflow.clone(),
                objective: session.params.objective.clone(),
                algo: format!("session:{}", session.params.algo),
                budget: session.params.budget,
                pool: session.params.pool,
                seed: session.params.seed,
                failure_rate,
                fault_seed,
            });
            journal.stage(&header)?;
            session.journal = Some(journal);
        }
        session.commit(records)?;
        let status = session.status();
        self.insert(id, session);
        metrics.sessions_created.fetch_add(1, Ordering::Relaxed);
        Ok((status, from_cache))
    }

    /// A one-shot `Tune` campaign on this registry's platform and tracer,
    /// but not in it: the caller drives the returned shell to
    /// `done` and drops it. Its events record under `ctx`, the request's
    /// `campaign.tune` span. `parsed` is [`parse_params`] of `params`.
    pub(crate) fn one_shot(
        &self,
        params: TuneParams,
        parsed: (WorkflowSpec, Objective),
        ctx: TraceContext,
    ) -> Session {
        let mut shell = Session::new(0, params, parsed, 0.0, 0, self, Some(ctx));
        shell.sample_pool();
        shell
    }

    /// Fetches a session, refreshing its idle clock. Takes no session
    /// lock: a `Status` never queues behind the request holding it.
    pub fn get(&self, id: u64) -> Result<Arc<Mutex<Session>>, ServeError> {
        let sessions = self.sessions.read();
        let entry = sessions.get(&id).ok_or(ServeError::UnknownSession(id))?;
        entry.last_touch.store(self.now_ms(), Ordering::Relaxed);
        Ok(Arc::clone(&entry.session))
    }

    /// Closes a session, deleting its journal — an explicit close is the
    /// client saying the campaign no longer needs recovering.
    pub fn close(&self, id: u64) -> Result<(), ServeError> {
        let entry = self
            .sessions
            .write()
            .remove(&id)
            .ok_or(ServeError::UnknownSession(id))?;
        entry.session.lock().delete_journal();
        Ok(())
    }

    /// Drops sessions idle longer than the timeout; returns how many.
    /// Eviction keeps journals on disk: an evicted campaign is still
    /// recoverable at the next server start, unlike a closed one.
    pub fn evict_idle(&self, metrics: &ServerMetrics) -> usize {
        let mut sessions = self.sessions.write();
        let before = sessions.len();
        let now = self.now_ms();
        let timeout = self.idle_timeout.as_millis() as u64;
        sessions.retain(|_, e| match e.session.try_lock() {
            // A locked session is in use, and one with a fleet round in
            // flight has a request parked on it — by definition not idle.
            None => true,
            Some(s) if s.round.is_some() => true,
            Some(_) => now.saturating_sub(e.last_touch.load(Ordering::Relaxed)) <= timeout,
        });
        let evicted = before - sessions.len();
        metrics
            .sessions_evicted
            .fetch_add(evicted as u64, Ordering::Relaxed);
        if evicted > 0 {
            self.tracer.instant(
                "session.evicted",
                TraceContext::NONE,
                &[("count", (evicted as u64).into())],
            );
        }
        evicted
    }
}
