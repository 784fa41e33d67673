//! The registry of live sessions: creation (in the tier the cache puts
//! the campaign in), lookup without the session's lock, close, idle
//! eviction, and rebuilding from the journal directory after a restart.
//! It builds every session the same way: a campaign core — fresh, answered
//! by the cache, or recovered from a journal — handed to a new shell.

use super::state::prior_marker;
use super::*;
use crate::cache::transfer::{warm_start, WarmStart};
use crate::cache::DEFAULT_TRANSFER_THRESHOLD;
use ceal_core::CampaignId;
use ceal_par::sync::{Mutex, RwLock};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A registry entry: the session, and when it was last in use — a request
/// asked for it, or an eviction sweep found a request parked on it —
/// milliseconds on the registry's clock, beside the lock rather than
/// under it, so looking a session up never waits for whoever holds it.
struct Entry {
    session: Arc<Mutex<Session>>,
    last_touch: AtomicU64,
}

/// Refuses an injected-fault rate outside `[0, 1)`, whether a client asked
/// for it or a journal's header recorded it.
fn check_failure_rate(failure_rate: f64) -> Result<(), ServeError> {
    if !(0.0..1.0).contains(&failure_rate) {
        let e = format!("failure rate {failure_rate} outside [0, 1)");
        return Err(ServeError::BadRequest(e));
    }
    Ok(())
}

/// The registry of live sessions.
pub struct SessionManager {
    sessions: RwLock<HashMap<u64, Entry>>,
    next_id: AtomicU64,
    /// Zero of the idle clock.
    epoch: Instant,
    idle_timeout: Duration,
    journal_dir: Option<PathBuf>,
    /// Platform every session on this server measures on, fingerprinted
    /// once.
    testbed: Testbed,
    /// Feature-distance bound for transfer-seeding near-miss lookups.
    transfer_threshold: f64,
    /// Trace sink handed to every session this registry creates.
    tracer: Tracer,
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
            testbed: Testbed::new(Platform::default()),
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
        self.testbed = Testbed::new(platform);
        self
    }

    /// [`platform_fingerprint`](crate::cache::platform_fingerprint) of
    /// the platform sessions measure on, computed when it was set.
    pub(crate) fn fingerprint(&self) -> &str {
        &self.testbed.fingerprint
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
        let Some(Ok(entries)) = self.journal_dir.as_ref().map(std::fs::read_dir) else {
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
        let mut records = report.records.into_iter();
        let Some(JournalRecord::Start(header)) = records.next() else {
            let e = "journal has no campaign header";
            return Err(ServeError::Internal(e.into()));
        };
        let (params, failure_rate, fault_seed) = campaign_params(header)?;
        let parsed = parse_params(&params)?;
        check_failure_rate(failure_rate)?;
        let core =
            Core::new(params, parsed, &self.testbed, SESSION_MODE).recover(records.collect())?;
        let (faults, ctx, tracer) = ((failure_rate, fault_seed), self.new_trace(), &self.tracer);
        Ok(Session::new(id, core, Some(journal), faults, tracer, ctx))
    }

    /// The root of a fresh campaign trace (0 when the server is untraced).
    fn new_trace(&self) -> TraceContext {
        TraceContext::root(self.tracer.new_trace())
    }

    /// Live session count.
    pub fn len(&self) -> usize {
        self.sessions.read().len()
    }

    /// Whether no sessions are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Opens a session in the tier the cache puts it in: an **exact** hit
    /// starts it in `done` with zero oracle spend, a **transfer** campaign
    /// gets the nearest sibling platform's samples as the stepper's prior,
    /// otherwise it starts **cold**. Returns the status (whose
    /// `warm_source` names the tier) and whether an exact hit supplied it.
    pub fn create(
        &self,
        params: TuneParams,
        failure_rate: f64,
        fault_seed: u64,
        cache: &AutotuneCache,
        metrics: &ServerMetrics,
    ) -> Result<(SessionStatus, bool), ServeError> {
        let parsed = parse_params(&params)?;
        check_failure_rate(failure_rate)?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let header = JournalRecord::Start(campaign_id(&params, failure_rate, fault_seed));
        let core = Core::new(params, parsed, &self.testbed, SESSION_MODE);
        let (key, features, threshold) =
            (core.key(), &self.testbed.features, self.transfer_threshold);
        let (tracer, ctx) = (&self.tracer, self.new_trace());
        let warm = warm_start(cache, key, features, threshold, metrics, tracer, ctx.trace);
        let (core, records) = match warm {
            WarmStart::Exact(entry) => (core.answered(&entry), None),
            WarmStart::Transfer(prior) => (core, Some(vec![prior_marker(&prior)?])),
            WarmStart::Cold => (core, Some(Vec::new())),
        };
        // Warm-cache sessions spend nothing, so there is nothing worth
        // journaling; fresh campaigns get a write-ahead journal, whose
        // header and transfer prior are one commit.
        let journal = match (&records, &self.journal_dir) {
            (Some(_), Some(dir)) => {
                let path = Self::journal_path(dir, id);
                let _ = std::fs::remove_file(&path); // stale leftover, new campaign
                let (mut journal, _) = Journal::open(&path)?;
                journal.stage(&header)?;
                Some(journal)
            }
            _ => None,
        };
        let faults = (failure_rate, fault_seed);
        let mut session = Session::new(id, core, journal, faults, tracer, ctx);
        let from_cache = records.is_none();
        session.commit(records.unwrap_or_default())?;
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
        let core = Core::new(params, parsed, &self.testbed, TUNE_MODE);
        Session::new(0, core, None, (0.0, 0), &self.tracer, ctx)
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
        let entry = self.sessions.write().remove(&id);
        let entry = entry.ok_or(ServeError::UnknownSession(id))?;
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
            // A locked session is in use.
            None => true,
            // One with a fleet round in flight has a request parked on it:
            // its idle clock starts when the round ends.
            Some(s) if s.round_in_flight().is_some() => {
                e.last_touch.store(now, Ordering::Relaxed);
                true
            }
            Some(_) => now.saturating_sub(e.last_touch.load(Ordering::Relaxed)) <= timeout,
        });
        let evicted = before - sessions.len();
        let count = &metrics.sessions_evicted;
        count.fetch_add(evicted as u64, Ordering::Relaxed);
        if evicted > 0 {
            let at = [("count", (evicted as u64).into())];
            self.tracer
                .instant("session.evicted", TraceContext::NONE, &at);
        }
        evicted
    }
}

/// The journal header of a session campaign. The `session:` prefix tells
/// session journals from the CLI's.
fn campaign_id(p: &TuneParams, failure_rate: f64, fault_seed: u64) -> CampaignId {
    CampaignId {
        workflow: p.workflow.clone(),
        objective: p.objective.clone(),
        algo: format!("session:{}", p.algo),
        budget: p.budget,
        pool: p.pool,
        seed: p.seed,
        failure_rate,
        fault_seed,
    }
}

/// [`campaign_id`] read back: the parameters, failure rate and fault seed
/// a session journal's header names.
fn campaign_params(header: CampaignId) -> Result<(TuneParams, f64, u64), ServeError> {
    let Some(algo) = header.algo.strip_prefix("session:") else {
        let e = format!("not a session journal (algo '{}')", header.algo);
        return Err(ServeError::Internal(e));
    };
    let params = TuneParams {
        algo: algo.to_string(),
        workflow: header.workflow,
        objective: header.objective,
        budget: header.budget,
        pool: header.pool,
        seed: header.seed,
    };
    Ok((params, header.failure_rate, header.fault_seed))
}
