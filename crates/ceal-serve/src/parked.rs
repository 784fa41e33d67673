//! Requests that finish later than the call that started them.
//!
//! A handler has three ways to end, and [`Outcome`] names them: a reply
//! (the common one), a hand-back to the pool when it was tried on the
//! reactor thread and would have had to wait, or a *park* — the request
//! keeps its [`Ticket`] (where the reply goes, when the frame arrived, its
//! open `request.*` span) and holds no thread until something wakes it.
//!
//! Two things park. A worker poll that finds no work is **held** on its
//! connection by the reactor. A campaign step that scattered a fleet round
//! parks here: its [`Parked`] continuation — ticket, shell, how to shape
//! the answer — sits in `ServerInner::rounds` under the round's batch id,
//! the session lock is released, and [`resume_round`] runs on the pool
//! when the coordinator reports the batch resolved, the reactor's fleet
//! tick finds its gather deadline passed, or the server drains. Whichever of
//! those comes first takes the round out of the shell under the session
//! lock; the others find it gone and do nothing, so a round completes
//! exactly once.
//!
//! Everything that leaves here for a connection goes through
//! [`ServerInner::post`] onto the reactor's one completion queue.

use crate::error::ServeError;
use crate::metrics::Endpoint;
use crate::protocol::{Request, Response, SessionStatus, TuneParams};
use crate::server::{error_frame, ServerInner};
use crate::session::{cache_key, parse_params, Session, TUNE_MODE};
use ceal_par::sync::Mutex;
use ceal_trace::{Span, TraceContext};
use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Where a request's reply goes and how it is accounted: the reactor's
/// connection token, the frame's arrival, the endpoint.
#[derive(Clone, Copy)]
pub(crate) struct ReplyTo {
    pub(crate) conn: u64,
    pub(crate) arrived: Instant,
    pub(crate) endpoint: Endpoint,
}

impl ReplyTo {
    /// Frames `resp` as this request's answer.
    pub(crate) fn completion(self, resp: &Response) -> Completion {
        let is_error = matches!(resp, Response::Error { .. });
        Completion {
            conn: self.conn,
            framed: encode_frame(resp),
            close_after_write: false,
            metric: Some((self.endpoint, self.arrived, is_error)),
        }
    }
}

/// A request in progress: its reply address and its open `request.*`
/// span, which ends with the reply however long that takes.
pub(crate) struct Ticket {
    pub(crate) to: ReplyTo,
    span: Span,
}

impl Ticket {
    /// Opens the request's own trace; campaign-scoped work additionally
    /// records under its campaign trace.
    pub(crate) fn open(inner: &ServerInner, to: ReplyTo) -> Ticket {
        let ctx = TraceContext::root(inner.tracer.new_trace());
        let span = inner.tracer.span(to.endpoint.span_name(), ctx);
        Ticket { to, span }
    }

    /// Ends the request span and frames its answer.
    pub(crate) fn finish(mut self, resp: &Response) -> Completion {
        if let Response::Error { code, .. } = resp {
            self.span.field("error", code.clone());
        }
        drop(self.span);
        self.to.completion(resp)
    }
}

/// A finished request: the framed response bytes for one connection.
pub(crate) struct Completion {
    pub(crate) conn: u64,
    pub(crate) framed: Vec<u8>,
    /// Close once flushed (decode errors).
    pub(crate) close_after_write: bool,
    /// `(endpoint, frame arrival, is_error)` to record into the latency
    /// histogram once the response is fully flushed, so server-side
    /// percentiles cover queueing, handling, parking *and* write-back.
    pub(crate) metric: Option<(Endpoint, Instant, bool)>,
}

/// What reaches the reactor through its completion queue.
pub(crate) enum Event {
    /// A request is answered.
    Reply(Completion),
    /// A request parked on this fleet batch: keep an eye on the clock.
    RoundParked(u64),
    /// The coordinator ended a wait.
    Wake(ceal_fleet::Wake),
}

/// How a handler ended.
pub(crate) enum Outcome {
    /// With its answer.
    Done(Completion),
    /// Tried on the reactor thread, it would have had to wait (a taken
    /// session or shard lock, a surrogate to fit, a cache read from the
    /// disk, a campaign to run): run it on the pool.
    Defer(Request, Ticket),
    /// A worker poll with nothing to hand out, accepted by the coordinator
    /// under the ticket's connection token: the reactor holds it.
    Held(Ticket),
    /// Parked on a fleet round; the continuation is in
    /// `ServerInner::rounds`.
    Parked,
}

/// Serializes `resp` as one ready-to-send frame (length prefix + JSON).
pub(crate) fn encode_frame(resp: &Response) -> Vec<u8> {
    // Fall back to a pre-baked error body rather than panicking the
    // worker: the peer still gets a well-formed frame.
    const FAILED: &[u8] =
        br#"{"Error":{"code":"internal","message":"response serialization failed"}}"#;
    let json = serde_json::to_vec(resp).unwrap_or_else(|_| FAILED.to_vec());
    let mut framed = Vec::with_capacity(4 + json.len());
    framed.extend_from_slice(&(json.len() as u32).to_be_bytes());
    framed.extend_from_slice(&json);
    framed
}

/// The answer to a request whose handler panicked: the failure is
/// contained to that one request.
pub(crate) fn panic_frame(payload: Box<dyn Any + Send>) -> Response {
    let detail = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("handler panicked");
    Response::Error {
        code: "internal".into(),
        message: detail.to_string(),
    }
}

/// A campaign shell as requests share it.
type Shell = Arc<Mutex<Session>>;

/// How a campaign request is answered once its shell has stepped.
enum Kind {
    /// `Advance` of this many runs: one step, answered with the status.
    Advance(u64),
    /// One-shot `Tune`: stepped until `done`, answered with the
    /// recommendation. Carries the `campaign.tune` span across the rounds.
    Tune(Span),
}

/// The continuation of a request parked on a fleet round.
pub(crate) struct Parked {
    shell: Shell,
    ticket: Ticket,
    kind: Kind,
    /// When to stop waiting for the fleet and measure the stragglers here.
    deadline: Instant,
    /// `Advance`s that reached the session mid-round, `(ticket, runs)` in
    /// arrival order: they take their turn when the round completes.
    queued: VecDeque<(Ticket, u64)>,
}

/// Runs one shell call, turning its error — or its panic, a bug — into the
/// frame that answers the request. Tickets stay outside: unwinding never
/// drops one.
fn contain<T>(call: impl FnOnce() -> Result<T, ServeError>) -> Result<T, Box<Response>> {
    match catch_unwind(AssertUnwindSafe(call)) {
        Ok(Ok(value)) => Ok(value),
        Ok(Err(e)) => Err(Box::new(error_frame(e))),
        Err(payload) => Err(Box::new(panic_frame(payload))),
    }
}

fn tune_result(done: SessionStatus, span: &mut Span) -> Response {
    let (Some(best), Some(best_value)) = (done.best, done.best_value) else {
        let e = "campaign finished without a recommendation";
        return error_frame(ServeError::Internal(e.into()));
    };
    span.field("runs_used", done.measured);
    Response::TuneResult {
        best,
        best_value,
        runs_used: done.measured,
        component_runs: done.history_samples,
        from_cache: false,
    }
}

/// Steps the shell `s` (locked by the caller, `shell`'s guard) for the
/// request of `ticket`, then for each of the `queued` ones in turn, until
/// one waits on a fleet round — parking it with the rest of the queue —
/// or the last is answered. Earlier answers are posted; the last is the
/// outcome. A resumed request's first step completes its round.
fn drive(
    inner: &ServerInner,
    shell: &Shell,
    s: &mut Session,
    mut ticket: Ticket,
    mut kind: Kind,
    mut queued: VecDeque<(Ticket, u64)>,
) -> Outcome {
    loop {
        let runs = match kind {
            Kind::Advance(runs) => runs,
            Kind::Tune(_) => u64::MAX,
        };
        let fleet = Some(&inner.fleet);
        let reply = match contain(|| s.step(runs, &inner.cache, &inner.metrics, fleet)) {
            Err(resp) => ticket.finish(&resp),
            Ok(None) => match (&mut kind, s.status()) {
                (Kind::Advance(_), status) => ticket.finish(&Response::Session(status)),
                (Kind::Tune(span), status) if status.state == "done" => {
                    ticket.finish(&tune_result(status, span))
                }
                (Kind::Tune(_), _) => continue,
            },
            Ok(Some(batch)) => {
                let parked = Parked {
                    shell: Arc::clone(shell),
                    ticket,
                    kind,
                    deadline: Instant::now() + inner.fleet.config().gather_deadline,
                    queued,
                };
                inner.rounds.lock().insert(batch, parked);
                // Asked only now that a wake can find the continuation: a
                // batch that resolved before this line posted its wake to
                // nobody. A draining server waits for no fleet.
                if !inner.shutdown.load(Ordering::Acquire) && !inner.fleet.resolved(batch) {
                    inner.post(Event::RoundParked(batch));
                    return Outcome::Parked;
                }
                // Nothing to wait for; the session lock is still ours, so
                // the continuation is too.
                let Some(p) = inner.rounds.lock().remove(&batch) else {
                    return Outcome::Parked;
                };
                (ticket, kind, queued) = (p.ticket, p.kind, p.queued);
                continue;
            }
        };
        let Some((next, runs)) = queued.pop_front() else {
            return Outcome::Done(reply);
        };
        inner.post(Event::Reply(reply));
        (ticket, kind) = (next, Kind::Advance(runs));
    }
}

/// `Advance`: one step of a registered session. One that finds a round in
/// flight queues behind it.
pub(crate) fn advance(inner: &ServerInner, id: u64, runs: u64, ticket: Ticket) -> Outcome {
    let shell = match inner.sessions.get(id) {
        Ok(shell) => shell,
        Err(e) => return Outcome::Done(ticket.finish(&error_frame(e))),
    };
    let mut s = shell.lock();
    if let Some(batch) = s.round_in_flight() {
        // The shell's round and its continuation change together, under
        // the session lock this call holds.
        if let Some(parked) = inner.rounds.lock().get_mut(&batch) {
            parked.queued.push_back((ticket, runs));
            return Outcome::Parked;
        }
    }
    let kind = Kind::Advance(runs);
    drive(inner, &shell, &mut s, ticket, kind, VecDeque::new())
}

/// One-shot tuning: a cache lookup, then a campaign on the session shell —
/// unregistered, unjournaled, paying for its own component runs — driven
/// to `done` inside the request, parking across its fleet rounds. The
/// shell builds what the `tune` CLI builds, so a remote campaign returns
/// the same recommendation as a local one with the same seed, with or
/// without fleet workers.
///
/// On the reactor thread (`inline`) only a lookup the cache answers
/// without waiting is served; anything else — a miss, a taken lock, a
/// shard not indexed yet — is handed to the pool having counted and traced
/// nothing, so the one lookup that answers is the one recorded.
pub(crate) fn tune(
    inner: &ServerInner,
    params: TuneParams,
    ticket: Ticket,
    inline: bool,
) -> Outcome {
    let parsed = match parse_params(&params) {
        Ok(parsed) => parsed,
        Err(e) => return Outcome::Done(ticket.finish(&error_frame(e))),
    };
    let started = Instant::now();
    let key = cache_key(&params, inner.sessions.fingerprint(), TUNE_MODE);
    let looked_up = match inline {
        false => Some(inner.cache.answer(&key)),
        true => inner
            .cache
            .answer_nowait(&key)
            .map(|(answer, tier)| (Some(answer), tier)),
    };
    let Some((hit, tier)) = looked_up else {
        return Outcome::Defer(Request::Tune(params), ticket);
    };
    let root = TraceContext::root(inner.tracer.new_trace());
    let mut span = inner.tracer.span_since("campaign.tune", root, started);
    span.field("workflow", params.workflow.as_str());
    span.field("algo", params.algo.as_str());
    span.field("budget", params.budget);
    if inner.tracer.enabled() {
        let at = [("tier", tier.into()), ("endpoint", "tune".into())];
        inner.tracer.instant("cache.lookup", span.ctx(), &at);
    }
    if let Some(answer) = hit {
        inner.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
        span.field("from_cache", 1u64);
        drop(span);
        return Outcome::Done(ticket.finish(&Response::TuneResult {
            best: answer.best,
            best_value: answer.best_value,
            runs_used: answer.runs_used,
            component_runs: answer.component_runs,
            from_cache: true,
        }));
    }
    inner.metrics.cache_misses.fetch_add(1, Ordering::Relaxed);

    let shell = inner.sessions.one_shot(params, parsed, span.ctx());
    let shell = Arc::new(Mutex::new(shell));
    let mut s = shell.lock();
    let kind = Kind::Tune(span);
    drive(inner, &shell, &mut s, ticket, kind, VecDeque::new())
}

/// The batches whose rounds have waited past their gather deadline, or —
/// for a draining server, which waits for no fleet — all of them.
pub(crate) fn overdue(inner: &ServerInner, now: Instant, all: bool) -> Vec<u64> {
    let rounds = inner.rounds.lock();
    let due = rounds.iter().filter(|(_, p)| all || p.deadline <= now);
    due.map(|(&batch, _)| batch).collect()
}

/// Completes the round waiting on `batch` — if it still is; a wake, the
/// deadline and the drain may all get here — answers its request, and
/// gives the `Advance`s queued behind it their turn.
pub(crate) fn resume_round(inner: &ServerInner, batch: u64) {
    let shell = inner.rounds.lock().get(&batch).map(|p| p.shell.clone());
    let Some(shell) = shell else { return };
    let mut s = shell.lock();
    let parked = match s.round_in_flight() == Some(batch) {
        true => inner.rounds.lock().remove(&batch),
        false => None,
    };
    let Some(parked) = parked else { return };
    let (ticket, kind, queued) = (parked.ticket, parked.kind, parked.queued);
    if let Outcome::Done(reply) = drive(inner, &shell, &mut s, ticket, kind, queued) {
        inner.post(Event::Reply(reply));
    }
}

/// `CloseSession` reached a session mid-round: the batch is dropped — its
/// tasks' late reports resolve as duplicates — and the requests parked on
/// it learn the session is gone.
pub(crate) fn abandon_round(inner: &ServerInner, shell: &Shell, id: u64) {
    let mut s = shell.lock();
    let parked = s.abandon_round().and_then(|batch| {
        inner.fleet.gather(batch);
        inner.rounds.lock().remove(&batch)
    });
    drop(s);
    let Some(parked) = parked else { return };
    let gone = error_frame(ServeError::UnknownSession(id));
    let waiting = parked.queued.into_iter().map(|(ticket, _)| ticket);
    for ticket in std::iter::once(parked.ticket).chain(waiting) {
        inner.post(Event::Reply(ticket.finish(&gone)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::AutotuneCache;
    use crate::metrics::ServerMetrics;
    use crate::session::SessionManager;
    use std::time::Duration;

    #[test]
    fn a_panicking_shell_call_answers_internal_and_leaves_the_session_usable() {
        let mgr = SessionManager::new(Duration::from_secs(3600));
        let (cache, metrics) = (AutotuneCache::in_memory(), ServerMetrics::new());
        let params = TuneParams {
            workflow: "LV".into(),
            objective: "exec".into(),
            budget: 6,
            pool: 60,
            seed: 3,
            algo: "ceal".into(),
        };
        let (st, _) = mgr.create(params, 0.0, 0, &cache, &metrics).unwrap();
        let shell = mgr.get(st.session).unwrap();
        let mut s = shell.lock();
        let answer = contain(|| -> Result<(), ServeError> {
            s.advance(1, &cache, &metrics)?;
            panic!("the shell call died");
        });
        match answer.map_err(|frame| *frame) {
            Err(Response::Error { code, message }) => {
                assert_eq!(code, "internal");
                assert_eq!(message, "the shell call died");
            }
            other => panic!("the panicking call came back {other:?}"),
        }
        // The campaign goes on from where the call left it.
        assert_eq!(s.status().state, "collecting-history");
        while s.advance(6, &cache, &metrics).unwrap().state != "done" {}
        assert_eq!(s.status().measured, 6);
    }
}
