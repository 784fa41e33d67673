//! Readiness-driven serve core — the only one.
//!
//! One reactor thread owns every connection: it accepts and does
//! nonblocking framed reads and writes through per-connection state
//! machines ([`conn`]). A mostly-idle session therefore costs one
//! registered file descriptor instead of one blocked thread, which is
//! what lets a single process hold tens of thousands of open tuning
//! sessions (`tests/idle_connections.rs` pins the shape at a test's
//! scale).
//!
//! A request finishes one of three ways, all through `dispatch` under
//! `catch_unwind` (a panic — a bug, or an oracle hitting an unguarded
//! path — answers one client with an `internal` error frame instead of
//! killing a thread) and all answered from the one completion queue:
//!
//! * **inline** — a frame of at most [`conn::INLINE_MAX`] bytes that
//!   [`Endpoint::peek`] classifies as unable to wait (`Ping`, `Status`,
//!   `Predict`, the fleet's registration and polls) is decoded and run
//!   right here, and its answer written before the next readiness event
//!   is looked at: no pool hop, no eventfd, no `epoll_ctl`. Whenever it
//!   *could* wait — the session's lock is taken, a surrogate is not
//!   fitted yet, the frame does not decode — it goes to the pool instead;
//! * **pooled** — everything else is run by a worker thread, which never
//!   touches a socket: it pushes the framed response onto the completion
//!   queue, waking the loop through an eventfd, and the reactor flushes
//!   the bytes when the socket accepts them;
//! * **parked** — a worker poll with nothing to hand out is held on its
//!   connection until the coordinator has tasks for it or half its lease
//!   has passed, and a campaign step that scattered a fleet round waits
//!   in `parked` until the coordinator resolves the
//!   batch or the gather deadline fires from the deadline heap. Neither
//!   holds a thread, and the second holds no session lock.
//!
//! Overload is decided here: over-cap connections get one `Busy` frame at
//! accept, and past the dispatch watermark a request is shed unless
//! [`Endpoint::peek`] classifies its raw payload as control traffic.
//!
//! Connections live in a map under tokens that are never reused, so an
//! epoll record or a reply for a connection that has since closed finds
//! nothing. A heap of deadlines ([`timer`]) bounds mid-frame and
//! mid-write stalls and held polls per connection, and checks idle-session
//! eviction and — while a round is parked — lease expiry and the rounds'
//! gather deadlines at a fixed cadence even when no request ever arrives.
//!
//! Shutdown: the `Shutdown` dispatch sets the flag, its completion wakes
//! the loop, and the reactor closes the listener, drops idle connections
//! at their frame boundary, tells held polls `shutting-down`, resumes
//! parked rounds to measure locally, and waits for in-flight responses to
//! flush before returning.

pub mod conn;
pub mod sys;
pub mod timer;

use crate::error::ServeError;
use crate::frame::FrameError;
use crate::metrics::Endpoint;
use crate::parked::{
    encode_frame, overdue, panic_frame, resume_round, Completion, Event, Outcome, ReplyTo, Ticket,
};
use crate::protocol::{Request, Response};
use crate::server::{dispatch, endpoint_of, error_frame, ServerInner};
use ceal_fleet::Wake;
use conn::{Conn, ConnState, ReadOutcome, WriteOutcome, INLINE_MAX};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::io::{self, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use sys::{Epoll, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};

/// The shortest interval between fleet ticks, however short the lease.
const FLEET_TICK_FLOOR: Duration = Duration::from_millis(25);
/// Readiness records drained per `epoll_wait`.
const EVENT_BATCH: usize = 1024;
/// How long accepting pauses after an `accept` failure (fd exhaustion),
/// so a persistent error cannot spin the loop.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(100);

/// Epoll cookie of the listener. Connection tokens count up from 0 and
/// never reach it or [`TOKEN_NOTIFY`].
const TOKEN_LISTENER: u64 = u64::MAX;
/// Epoll cookie of the wakeup eventfd.
const TOKEN_NOTIFY: u64 = u64::MAX - 1;

/// Pool and coordinator → reactor channel; pushes wake the loop through
/// the eventfd.
struct Completions {
    queue: Mutex<Vec<Event>>,
    notify: EventFd,
}

impl Completions {
    fn push(&self, event: Event) {
        // A poisoned queue means some worker panicked while holding the
        // lock; the Vec inside is still structurally sound, and dropping
        // this event would wedge its connection forever — recover.
        self.queue
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .push(event);
        self.notify.wake();
    }

    fn drain(&self) -> Vec<Event> {
        self.notify.drain();
        std::mem::take(
            &mut *self
                .queue
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner()),
        )
    }
}

/// Deadline-heap entries. A connection's token is never reused, so a
/// firing for a connection that has since closed finds nothing.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
enum TimerKey {
    /// Check one connection's deadline: a stalled frame or write, or a
    /// held poll that has waited long enough.
    Conn(u64),
    /// Run idle-session eviction and re-arm.
    Evict,
    /// Re-enable the listener after an accept failure.
    ResumeAccept,
    /// While rounds are parked: expire worker leases, resume the rounds
    /// past their gather deadline, and re-arm.
    FleetTick,
}

/// The one answer a peer we have lost sync with gets before the close.
fn bad_request(e: &FrameError) -> Response {
    Response::Error {
        code: "bad-request".into(),
        message: e.to_string(),
    }
}

/// Runs one decoded request through `dispatch`, a handler panic contained
/// to an `internal` error frame — on the reactor thread (`inline`) and on
/// the pool alike.
fn run_request(req: Request, inner: &ServerInner, ticket: Ticket, inline: bool) -> Outcome {
    let to = ticket.to;
    catch_unwind(AssertUnwindSafe(|| dispatch(req, inner, ticket, inline)))
        .unwrap_or_else(|payload| Outcome::Done(to.completion(&panic_frame(payload))))
}

/// What the pool is handed for a connection: a raw frame, or a request
/// the reactor decoded, tried inline and found it would have to wait on.
enum Work {
    Frame(Vec<u8>),
    Request(Box<(Request, Ticket)>),
}

/// Runs one request on the calling worker thread and queues its framed
/// response, unless it parked. JSON decode errors map to one
/// `bad-request` frame and a close. Latency is recorded when the response
/// write flushes — from `arrived` (frame completion) to flush — so
/// server-side percentiles cover queueing, decode, handling, parking and
/// write-back: the closest the server can get to what the client observes.
fn handle_request(
    work: Work,
    conn: u64,
    arrived: Instant,
    inner: &ServerInner,
    completions: &Completions,
) {
    let decoded = match work {
        Work::Request(tried) => Ok(*tried),
        Work::Frame(payload) => serde_json::from_slice::<Request>(&payload).map(|req| {
            let endpoint = endpoint_of(&req);
            let to = ReplyTo {
                conn,
                arrived,
                endpoint,
            };
            (req, Ticket::open(inner, to))
        }),
    };
    let outcome = match decoded {
        Ok((req, ticket)) => run_request(req, inner, ticket, false),
        Err(e) => Outcome::Done(Completion {
            conn,
            framed: encode_frame(&bad_request(&FrameError::Decode(e.to_string()))),
            close_after_write: true,
            metric: None,
        }),
    };
    // Paired with `begin_dispatch` at submission time; runs unconditionally
    // so decode errors, panics and parked requests also drain the in-flight
    // gauge — a parked request holds no thread. Must precede the push: once
    // the completion is visible the reactor may answer and take this
    // connection's next request, and that request's shed decision has to
    // see the gauge already drained.
    inner.load.end_dispatch();
    match outcome {
        // A `Shutdown` acknowledgement needs no close flag: the loop
        // starts draining in the iteration that flushes it.
        Outcome::Done(reply) => completions.push(Event::Reply(reply)),
        Outcome::Parked => {}
        // Only a handler told it runs inline ends these ways.
        Outcome::Held(ticket) | Outcome::Defer(_, ticket) => {
            let e = ServeError::Internal("pooled request asked to wait inline".into());
            completions.push(Event::Reply(ticket.finish(&error_frame(e))));
        }
    }
}

/// The event loop's owned state.
struct Reactor {
    epoll: Epoll,
    listener: Option<TcpListener>,
    /// Live connections by token.
    conns: HashMap<u64, Conn>,
    /// The token the next accepted connection gets.
    next_token: u64,
    timers: BinaryHeap<Reverse<(Instant, TimerKey)>>,
    completions: Arc<Completions>,
    inner: Arc<ServerInner>,
    pool: ceal_par::ThreadPool,
    wg: ceal_par::WaitGroup,
    draining: bool,
    /// Connections back in `Reading` whose buffer already holds input.
    buffered: Vec<u64>,
    /// Whether a [`TimerKey::FleetTick`] is in the heap.
    fleet_tick_armed: bool,
}

impl Reactor {
    fn new(listener: TcpListener, inner: Arc<ServerInner>, workers: usize) -> io::Result<Reactor> {
        listener.set_nonblocking(true)?;
        let epoll = Epoll::new()?;
        let notify = EventFd::new()?;
        epoll.add(listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)?;
        epoll.add(notify.fd(), EPOLLIN, TOKEN_NOTIFY)?;
        let completions = Arc::new(Completions {
            queue: Mutex::new(Vec::new()),
            notify,
        });
        // Everything that ends a wait — a pooled reply, a resumed round,
        // the coordinator's wakes — arrives through the one queue.
        let sink = Arc::clone(&completions);
        let _ = inner.sink.set(Box::new(move |event| sink.push(event)));
        let sink = Arc::clone(&completions);
        inner
            .fleet
            .on_wake(move |wake| sink.push(Event::Wake(wake)));
        let mut timers = BinaryHeap::new();
        timer::schedule(
            &mut timers,
            Instant::now() + inner.evict_cadence,
            TimerKey::Evict,
        );
        Ok(Reactor {
            epoll,
            listener: Some(listener),
            conns: HashMap::new(),
            next_token: 0,
            timers,
            completions,
            inner,
            pool: ceal_par::ThreadPool::new(workers),
            wg: ceal_par::WaitGroup::new(),
            draining: false,
            buffered: Vec::new(),
            fleet_tick_armed: false,
        })
    }

    fn interest_of(conn: &Conn) -> u32 {
        match conn.state {
            ConnState::Reading => EPOLLIN | EPOLLRDHUP,
            // A held poll's peer hanging up must be noticed, or the next
            // scatter assigns tasks to nobody.
            ConnState::Dispatching if conn.held.is_some() => EPOLLRDHUP,
            ConnState::Dispatching => 0,
            ConnState::Writing => EPOLLOUT,
        }
    }

    /// Re-registers a connection's interest set from its current state,
    /// unless it is the set already registered (an inline reply ends where
    /// it began, in `Reading`; so does a write that never saw `EPOLLOUT`).
    fn refresh_interest(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let interest = Self::interest_of(conn);
        if interest == conn.registered {
            return;
        }
        conn.registered = interest;
        let _ = self.epoll.modify(conn.stream.as_raw_fd(), interest, token);
    }

    fn close_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            if conn.held.is_some() {
                self.inner.fleet.release(token);
            }
            let _ = self.epoll.delete(conn.stream.as_raw_fd());
            self.inner.load.release_conn();
        }
    }

    /// Sets (or moves) a connection's deadline; its one heap entry, if
    /// not outstanding already, is armed for it.
    fn arm_deadline(&mut self, token: u64, deadline: Instant) {
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.stall_deadline = Some(deadline);
            if !conn.timer_armed {
                conn.timer_armed = true;
                timer::schedule(&mut self.timers, deadline, TimerKey::Conn(token));
            }
        }
    }

    /// Arms (or refreshes) a connection's stall deadline at `now + stall`.
    fn arm_stall(&mut self, token: u64, now: Instant) {
        self.arm_deadline(token, now + self.inner.stall_deadline);
    }

    /// Clears a connection's deadline; any heap entry left behind fires
    /// into `None` and reads as "no longer stalled" (lazy cancel).
    fn disarm_stall(&mut self, token: u64) {
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.stall_deadline = None;
        }
    }

    /// Answers an over-cap connection with one best-effort `Busy` frame
    /// and closes it, so a well-behaved client learns to back off. One
    /// nonblocking write: a fresh socket's send buffer has room for the
    /// frame, and the loop must never wait on a peer.
    fn reject(&self, mut stream: TcpStream) {
        let busy = Response::Busy {
            retry_after_ms: self.inner.load.retry_after_ms().max(100),
        };
        let _ = stream.set_nonblocking(true);
        let _ = stream.write(&encode_frame(&busy));
    }

    fn accept_ready(&mut self, now: Instant) {
        loop {
            let accepted = match &self.listener {
                Some(listener) => listener.accept(),
                None => return,
            };
            match accepted {
                Ok((stream, _)) => {
                    if !self.inner.load.try_admit_conn() {
                        self.reject(stream);
                        continue;
                    }
                    if self.register(stream).is_err() {
                        self.inner.load.release_conn();
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Most likely fd exhaustion: pause accepting briefly
                    // instead of spinning on a level-triggered listener.
                    if let Some(listener) = &self.listener {
                        let fd = listener.as_raw_fd();
                        let _ = self.epoll.modify(fd, 0, TOKEN_LISTENER);
                    }
                    let resume = now + ACCEPT_BACKOFF;
                    timer::schedule(&mut self.timers, resume, TimerKey::ResumeAccept);
                    return;
                }
            }
        }
    }

    fn register(&mut self, stream: TcpStream) -> io::Result<()> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        if let Some(bytes) = self.inner.send_buffer {
            let _ = sys::set_send_buffer_fd(stream.as_raw_fd(), bytes);
        }
        let mut conn = Conn::new(stream);
        conn.registered = Self::interest_of(&conn);
        let token = self.next_token;
        self.next_token += 1;
        self.epoll
            .add(conn.stream.as_raw_fd(), conn.registered, token)?;
        if self.inner.tracer.enabled() {
            let mut span = self
                .inner
                .tracer
                .span("conn", ceal_trace::TraceContext::NONE);
            if let Ok(peer) = conn.stream.peer_addr() {
                span.field("peer", peer.to_string());
            }
            conn.span = Some(span);
        }
        self.conns.insert(token, conn);
        Ok(())
    }

    fn conn_event(&mut self, token: u64, flags: u32, now: Instant) {
        let (state, held) = match self.conns.get(&token) {
            Some(conn) => (conn.state, conn.held.is_some()),
            None => return, // a record for a connection closed this turn
        };
        if flags & (EPOLLERR | EPOLLHUP) != 0 {
            self.close_conn(token);
            return;
        }
        match state {
            ConnState::Reading if flags & (EPOLLIN | EPOLLRDHUP) != 0 => {
                self.pump_reading(token, now)
            }
            ConnState::Writing if flags & EPOLLOUT != 0 => self.pump_writing(token, now),
            // The worker behind a held poll hung up.
            ConnState::Dispatching if held && flags & EPOLLRDHUP != 0 => self.close_conn(token),
            // Dispatching otherwise has interest 0; anything else is
            // spurious.
            _ => {}
        }
    }

    /// Queues `reply` on its connection and starts flushing it.
    fn write_reply(&mut self, reply: Completion, now: Instant) {
        // A connection that died while its request was out: the response
        // has no recipient.
        let Some(conn) = self.conns.get_mut(&reply.conn) else {
            return;
        };
        conn.stall_deadline = None;
        conn.start_write(reply.framed);
        conn.close_after_write |= reply.close_after_write;
        conn.pending_metric = reply.metric;
        self.pump_writing(reply.conn, now);
    }

    /// Tries a small frame of a can't-wait endpoint right here. `None`
    /// when the connection is taken care of — answered, or its poll held;
    /// otherwise what the pool should run instead.
    fn try_inline(
        &mut self,
        token: u64,
        payload: Vec<u8>,
        arrived: Instant,
        now: Instant,
    ) -> Option<Work> {
        let inline = payload.len() <= INLINE_MAX
            && Endpoint::peek(&payload).is_some_and(Endpoint::runs_inline);
        if !inline {
            return Some(Work::Frame(payload));
        }
        // What does not decode is the pool's to refuse, as it always was.
        let Ok(req) = serde_json::from_slice::<Request>(&payload) else {
            return Some(Work::Frame(payload));
        };
        let to = ReplyTo {
            conn: token,
            arrived,
            endpoint: endpoint_of(&req),
        };
        match run_request(req, &self.inner, Ticket::open(&self.inner, to), true) {
            Outcome::Done(reply) => self.write_reply(reply, now),
            Outcome::Defer(req, ticket) => return Some(Work::Request(Box::new((req, ticket)))),
            Outcome::Held(ticket) => {
                // Held for half a lease at most: the worker's next poll
                // renews the lease with time to spare.
                let until = now + self.inner.fleet.config().lease / 2;
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.state = ConnState::Dispatching;
                    conn.held = Some(ticket);
                }
                self.refresh_interest(token);
                self.arm_deadline(token, until);
            }
            // No inline endpoint scatters; were one to, its continuation
            // answers the connection like any other parked request's.
            Outcome::Parked => {
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.state = ConnState::Dispatching;
                }
                self.refresh_interest(token);
            }
        }
        None
    }

    fn pump_reading(&mut self, token: u64, now: Instant) {
        let outcome = match self.conns.get_mut(&token) {
            Some(conn) => conn.pump_read(),
            None => return,
        };
        match outcome {
            ReadOutcome::NeedMore => {
                if self.conns.get(&token).is_some_and(Conn::mid_frame) {
                    self.arm_stall(token, now);
                } else {
                    self.disarm_stall(token);
                }
            }
            ReadOutcome::Frame(payload) => {
                let arrived = Instant::now();
                self.disarm_stall(token);
                let (shedding, transition) = self.inner.load.shed_decision();
                self.inner.note_shed_transition(transition);
                if shedding && Endpoint::peek(&payload).is_none_or(Endpoint::sheddable) {
                    // Overloaded: answer with a typed Busy instead of
                    // queueing the request; the connection stays open and
                    // returns to Reading once the frame flushes.
                    self.inner
                        .load
                        .requests_shed
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    let busy = Response::Busy {
                        retry_after_ms: self.inner.load.retry_after_ms(),
                    };
                    if let Some(conn) = self.conns.get_mut(&token) {
                        conn.start_write(encode_frame(&busy));
                    }
                    self.pump_writing(token, now);
                    return;
                }
                let Some(work) = self.try_inline(token, payload, arrived, now) else {
                    return;
                };
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.state = ConnState::Dispatching;
                }
                self.refresh_interest(token);
                self.inner.load.begin_dispatch();
                let inner = Arc::clone(&self.inner);
                let completions = Arc::clone(&self.completions);
                self.pool.execute_tracked(&self.wg, move || {
                    handle_request(work, token, arrived, &inner, &completions)
                });
            }
            ReadOutcome::Closed => self.close_conn(token),
            ReadOutcome::Broken(e) => {
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.start_write(encode_frame(&bad_request(&e)));
                    conn.close_after_write = true;
                }
                self.pump_writing(token, now);
            }
        }
    }

    fn pump_writing(&mut self, token: u64, now: Instant) {
        let outcome = match self.conns.get_mut(&token) {
            Some(conn) => conn.pump_write(),
            None => return,
        };
        match outcome {
            WriteOutcome::Done => {
                let close = self.draining
                    || match self.conns.get_mut(&token) {
                        Some(conn) => {
                            conn.stall_deadline = None;
                            if let Some((endpoint, arrived, is_error)) = conn.pending_metric.take()
                            {
                                // Fresh clock, not the loop's `now`: the
                                // write syscall just happened and belongs
                                // in the recorded latency.
                                self.inner
                                    .metrics
                                    .record(endpoint, arrived.elapsed(), is_error);
                            }
                            conn.close_after_write
                        }
                        None => return,
                    };
                if close {
                    self.close_conn(token);
                } else {
                    if let Some(conn) = self.conns.get_mut(&token) {
                        conn.state = ConnState::Reading;
                        // A pipelined next request still in the socket is
                        // reported by level-triggered EPOLLIN on the next
                        // wait; one already in the connection's buffer has
                        // no event coming and is queued for this turn.
                        if conn.mid_frame() {
                            self.buffered.push(token);
                        }
                    }
                    self.refresh_interest(token);
                }
            }
            WriteOutcome::NeedMore => {
                self.refresh_interest(token);
                self.arm_stall(token, now);
            }
            WriteOutcome::Broken(_) => self.close_conn(token),
        }
    }

    /// Gives every connection that returned to `Reading` with input
    /// already buffered its read turn. A turn can end in a write (an
    /// inline answer, a shed, a bad frame) that flushes at once and queues
    /// the connection again, so this runs until the queue is dry.
    fn pump_buffered(&mut self, now: Instant) {
        while let Some(token) = self.buffered.pop() {
            self.pump_reading(token, now);
        }
    }

    /// Ends the hold on a connection's poll, if it still has one, with
    /// `resp`.
    fn answer_held(&mut self, token: u64, resp: &Response, now: Instant) {
        let held = self.conns.get_mut(&token).and_then(|c| c.held.take());
        if let Some(ticket) = held {
            self.write_reply(ticket.finish(resp), now);
        }
    }

    /// Puts the round parked on `batch`, if one still is, back on the
    /// pool: whatever the fleet made of it so far is what it gets.
    fn resume(&mut self, batch: u64) {
        if !self.inner.rounds.lock().contains_key(&batch) {
            return;
        }
        self.inner.load.begin_dispatch();
        let inner = Arc::clone(&self.inner);
        self.pool.execute_tracked(&self.wg, move || {
            // Shell calls contain their own panics; this one guards the
            // gauge.
            let _ = catch_unwind(AssertUnwindSafe(|| resume_round(&inner, batch)));
            inner.load.end_dispatch();
        });
    }

    fn apply_events(&mut self, now: Instant) {
        for event in self.completions.drain() {
            match event {
                Event::Reply(reply) => {
                    let owed = self
                        .conns
                        .get(&reply.conn)
                        .is_some_and(|c| c.state == ConnState::Dispatching);
                    if owed {
                        self.write_reply(reply, now);
                    }
                }
                Event::RoundParked(batch) if self.draining => self.resume(batch),
                // One tick watches every parked round — a heap entry per
                // round would outlive it by the whole gather deadline.
                Event::RoundParked(_) if !self.fleet_tick_armed => {
                    self.fleet_tick_armed = true;
                    let tick = now + self.fleet_tick();
                    timer::schedule(&mut self.timers, tick, TimerKey::FleetTick);
                }
                Event::RoundParked(_) => {}
                Event::Wake(Wake::Batch(batch)) => self.resume(batch),
                // A hold that is gone — its connection died with the wake
                // on its way — leaves these tasks in flight at a worker
                // that never heard of them: stragglers, like any answer
                // lost on the wire, for the lease or the gather deadline.
                Event::Wake(Wake::Poll { key, tasks }) => {
                    self.answer_held(key, &Response::TaskAssign { tasks }, now)
                }
            }
        }
    }

    /// How often leases and gather deadlines are checked while a round is
    /// parked: a worker that took tasks and went silent is the one event
    /// no request reports.
    fn fleet_tick(&self) -> Duration {
        let lease = self.inner.fleet.config().lease;
        lease.min(Duration::from_millis(50)).max(FLEET_TICK_FLOOR)
    }

    fn fire_timers(&mut self, now: Instant) {
        for key in timer::expired(&mut self.timers, now) {
            match key {
                TimerKey::Evict => {
                    self.inner.sessions.evict_idle(&self.inner.metrics);
                    let next = now + self.inner.evict_cadence;
                    timer::schedule(&mut self.timers, next, TimerKey::Evict);
                }
                TimerKey::ResumeAccept => {
                    if !self.draining {
                        if let Some(listener) = &self.listener {
                            let fd = listener.as_raw_fd();
                            let _ = self.epoll.modify(fd, EPOLLIN, TOKEN_LISTENER);
                        }
                        self.accept_ready(now);
                    }
                }
                TimerKey::FleetTick => {
                    self.inner.fleet.reap();
                    for batch in overdue(&self.inner, now, false) {
                        self.resume(batch);
                    }
                    self.fleet_tick_armed = !self.inner.rounds.lock().is_empty();
                    if self.fleet_tick_armed {
                        let tick = now + self.fleet_tick();
                        timer::schedule(&mut self.timers, tick, TimerKey::FleetTick);
                    }
                }
                TimerKey::Conn(token) => {
                    let (deadline, held) = match self.conns.get_mut(&token) {
                        None => continue,
                        Some(conn) => {
                            conn.timer_armed = false;
                            (conn.stall_deadline, conn.held.is_some())
                        }
                    };
                    match deadline {
                        // Progress was made and the boundary reached; the
                        // entry is stale.
                        None => {}
                        Some(d) if d > now => self.arm_deadline(token, d),
                        // Held long enough: an empty answer, and the
                        // worker's next poll renews its lease. A hold the
                        // coordinator no longer has is being answered —
                        // its wake is in the queue.
                        Some(_) if held => {
                            self.disarm_stall(token);
                            if self.inner.fleet.release(token) {
                                let idle = Response::TaskAssign { tasks: Vec::new() };
                                self.answer_held(token, &idle, now);
                            }
                        }
                        // No progress within the stall budget: the peer is
                        // stalled or hostile either way.
                        Some(_) => self.close_conn(token),
                    }
                }
            }
        }
    }

    fn begin_drain(&mut self, now: Instant) {
        self.draining = true;
        if let Some(listener) = self.listener.take() {
            let _ = self.epoll.delete(listener.as_raw_fd());
        }
        // Oldest first: the map's order differs from run to run.
        let mut tokens: Vec<u64> = self.conns.keys().copied().collect();
        tokens.sort_unstable();
        for token in tokens {
            let Some(conn) = self.conns.get_mut(&token) else {
                continue;
            };
            match conn.state {
                // Nothing owed to this peer: drop it now.
                ConnState::Reading => self.close_conn(token),
                // In-flight work drains: the response is computed and
                // flushed, then the connection closes. A held poll's
                // response is that the server is going away.
                ConnState::Dispatching | ConnState::Writing => {
                    conn.close_after_write = true;
                    if conn.held.is_some() {
                        self.inner.fleet.release(token);
                        let going = error_frame(ServeError::ShuttingDown);
                        self.answer_held(token, &going, now);
                    }
                }
            }
        }
        // No round waits for a fleet that was just told to stop.
        for batch in overdue(&self.inner, now, true) {
            self.resume(batch);
        }
    }

    /// One turn of the loop: wait for readiness or the next deadline, then
    /// handle what came. `false` once a drain has emptied the server.
    fn turn(&mut self, events: &mut [sys::EpollEvent]) -> io::Result<bool> {
        let now = Instant::now();
        // +1 ms so a just-under-due timer is not spun on: epoll counts in
        // whole milliseconds, and a deadline fires no earlier than due.
        let timeout_ms = match timer::next_timeout(&self.timers, now) {
            Some(t) => t.as_millis().min(60_000) as i32 + 1,
            None => 1_000,
        };
        let n = self.epoll.wait(events, timeout_ms)?;
        let now = Instant::now();
        let mut notified = false;
        for ev in &events[..n] {
            let (data, flags) = (ev.data, ev.events);
            match data {
                TOKEN_LISTENER => self.accept_ready(now),
                TOKEN_NOTIFY => notified = true,
                token => self.conn_event(token, flags, now),
            }
        }
        // Every push wakes the eventfd after it queues, and the eventfd is
        // level-triggered: a turn without its token has nothing to drain.
        if notified {
            self.apply_events(now);
        }
        self.pump_buffered(now);
        self.fire_timers(now);
        if self.inner.shutdown.load(Ordering::Acquire) && !self.draining {
            self.begin_drain(now);
        }
        Ok(!(self.draining && self.conns.is_empty()))
    }
}

/// Runs the event loop until a `Shutdown` request drains every
/// connection. Consumes the listener; returns when the last in-flight
/// response has flushed and every worker has finished.
pub(crate) fn run(
    listener: TcpListener,
    inner: Arc<ServerInner>,
    workers: usize,
) -> io::Result<()> {
    let mut r = Reactor::new(listener, inner, workers)?;
    let mut events = vec![sys::EpollEvent { events: 0, data: 0 }; EVENT_BATCH];
    while r.turn(&mut events)? {}
    // Workers still finishing requests for connections that died mid-
    // dispatch must complete before the pool (and eventfd) are dropped.
    r.wg.wait();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{read_frame, write_frame};
    use crate::protocol::TuneParams;
    use crate::server::{ServeConfig, Server};

    fn lv(budget: u64, pool: u64, seed: u64) -> TuneParams {
        TuneParams {
            workflow: "LV".into(),
            objective: "exec".into(),
            budget,
            pool,
            seed,
            algo: "ceal".into(),
        }
    }

    /// Turns the loop until `endpoint` has recorded `count` flushed
    /// requests.
    fn turn_until(r: &mut Reactor, events: &mut [sys::EpollEvent], endpoint: &str, count: u64) {
        for _ in 0..200 {
            r.turn(events).unwrap();
            let endpoints = r.inner.metrics.endpoint_stats();
            let seen = endpoints.iter().find(|e| e.name == endpoint);
            if seen.is_some_and(|e| e.count >= count) {
                return;
            }
        }
        panic!("{endpoint} never answered");
    }

    #[test]
    fn an_inline_request_costs_no_epoll_ctl_and_a_pooled_one_two() {
        let server = Server::bind(ServeConfig::default()).unwrap();
        let addr = server.local_addr();
        let mut r = Reactor::new(server.listener, server.inner, 1).unwrap();
        let mut events = vec![sys::EpollEvent { events: 0, data: 0 }; 16];
        let mut peer = TcpStream::connect(addr).unwrap();
        r.turn(&mut events).unwrap();
        assert_eq!(r.conns.len(), 1, "accepted");

        // Inline: read, run, written, back in `Reading` — the interest set
        // registered at accept never changed.
        write_frame(&mut peer, br#""Ping""#).unwrap();
        turn_until(&mut r, &mut events, "ping", 1);
        assert!(read_frame(&mut peer).unwrap().starts_with(br#"{"Pong""#));
        assert_eq!(r.epoll.modifies.get(), 0, "an inline request");

        // Pooled: reads off while the worker has it, on again once the
        // answer has flushed (without ever waiting for `EPOLLOUT`).
        write_frame(&mut peer, br#""Metrics""#).unwrap();
        turn_until(&mut r, &mut events, "metrics", 1);
        assert!(read_frame(&mut peer).unwrap().starts_with(br#"{"Metrics""#));
        assert_eq!(r.epoll.modifies.get(), 2, "a pooled request");

        write_frame(&mut peer, br#""Ping""#).unwrap();
        turn_until(&mut r, &mut events, "ping", 2);
        assert_eq!(r.epoll.modifies.get(), 2, "inline again");
        r.wg.wait();
    }

    /// A handler that panics on the reactor thread costs its request an
    /// `internal` answer, and nothing else: the connection and the loop
    /// serve on.
    #[test]
    fn an_inline_handler_that_panics_answers_internal_and_the_reactor_keeps_serving() {
        let server = Server::bind(ServeConfig::default()).unwrap();
        let addr = server.local_addr();
        server
            .inner
            .panic_next_dispatch
            .store(true, Ordering::Release);
        let mut r = Reactor::new(server.listener, server.inner, 1).unwrap();
        let mut events = vec![sys::EpollEvent { events: 0, data: 0 }; 16];
        let mut ping = |r: &mut Reactor, peer: &mut TcpStream, nth: u64| {
            write_frame(peer, br#""Ping""#).unwrap();
            turn_until(r, &mut events, "ping", nth);
            serde_json::from_slice::<Response>(&read_frame(peer).unwrap()).unwrap()
        };
        let mut peer = TcpStream::connect(addr).unwrap();
        match ping(&mut r, &mut peer, 1) {
            Response::Error { code, message } => {
                assert_eq!(code, "internal");
                assert_eq!(message, "dispatch panicked on purpose");
            }
            other => panic!("the panicking Ping answered {other:?}"),
        }
        assert_eq!(r.epoll.modifies.get(), 0, "it ran on the reactor thread");
        let pong = Response::Pong {
            version: crate::protocol::PROTOCOL_VERSION,
        };
        assert_eq!(ping(&mut r, &mut peer, 2), pong, "the same connection");
        let mut fresh = TcpStream::connect(addr).unwrap();
        assert_eq!(ping(&mut r, &mut fresh, 3), pong, "and a new one");
        r.wg.wait();
    }

    /// The same count tells which way a request went: the ones that could
    /// wait take the pool (two `epoll_ctl`s), and stop taking it once they
    /// no longer could.
    #[test]
    fn a_request_that_could_wait_takes_the_pool() {
        let server = Server::bind(ServeConfig::default()).unwrap();
        let (addr, inner) = (server.local_addr(), Arc::clone(&server.inner));
        // A finished campaign, and a second session the cache answers:
        // done, but with its surrogate still to fit.
        let params = lv(8, 60, 3);
        let mut warm = 0;
        for _ in 0..2 {
            let (cache, metrics) = (&inner.cache, &inner.metrics);
            let created = inner
                .sessions
                .create(params.clone(), 0.0, 0, cache, metrics);
            warm = created.unwrap().0.session;
            let shell = inner.sessions.get(warm).unwrap();
            while shell.lock().advance(8, cache, metrics).unwrap().state != "done" {}
        }
        let mut r = Reactor::new(server.listener, server.inner, 1).unwrap();
        let mut events = vec![sys::EpollEvent { events: 0, data: 0 }; 16];
        let mut peer = TcpStream::connect(addr).unwrap();
        r.turn(&mut events).unwrap();

        // `nth` request of its endpoint; answered over how many `epoll_ctl`s.
        let mut ask = |r: &mut Reactor, req: &Request, endpoint: &str, nth: u64, pooled: bool| {
            let before = r.epoll.modifies.get();
            write_frame(&mut peer, &serde_json::to_vec(req).unwrap()).unwrap();
            turn_until(r, &mut events, endpoint, nth);
            let answer = read_frame(&mut peer).unwrap();
            let ctls = r.epoll.modifies.get() - before;
            assert_eq!(ctls, if pooled { 2 } else { 0 }, "{req:?}");
            serde_json::from_slice::<Response>(&answer).unwrap()
        };
        let config = vec![100, 20, 1, 50, 10, 1];
        let small = Request::Predict {
            session: warm,
            configs: vec![config.clone(); 8],
        };
        // The surrogate is fitted by the first `Predict`, on the pool.
        let fitted = ask(&mut r, &small, "predict", 1, true);
        assert!(matches!(&fitted, Response::Predictions { values } if values.len() == 8));
        assert_eq!(ask(&mut r, &small, "predict", 2, false), fitted);
        // Past the inline bound it is the pool's whatever the session's
        // state (8 configurations are ~150 bytes, 200 well over 2 KiB).
        let large = Request::Predict {
            session: warm,
            configs: vec![config; 200],
        };
        let scored = ask(&mut r, &large, "predict", 3, true);
        assert!(matches!(scored, Response::Predictions { values } if values.len() == 200));

        // A `Status` that meets a taken session lock waits for it on the
        // pool, not here.
        let status = Request::Status { session: warm };
        let free = ask(&mut r, &status, "status", 1, false);
        let shell = inner.sessions.get(warm).unwrap();
        let busy = shell.lock();
        write_frame(&mut peer, &serde_json::to_vec(&status).unwrap()).unwrap();
        let before = r.epoll.modifies.get();
        r.turn(&mut events).unwrap();
        assert_eq!(r.epoll.modifies.get() - before, 1, "handed to the pool");
        drop(busy);
        turn_until(&mut r, &mut events, "status", 2);
        let answer = read_frame(&mut peer).unwrap();
        assert_eq!(serde_json::from_slice::<Response>(&answer).unwrap(), free);
        r.wg.wait();
    }

    /// A worker that takes a round's tasks and keeps its lease alive
    /// without ever reporting: only the gather deadline, checked from the
    /// deadline heap, ends the wait — with the stragglers measured here.
    #[test]
    fn a_parked_round_is_resumed_by_its_gather_deadline() {
        use crate::client::Client;
        let mut server = Server::bind(ServeConfig::default()).unwrap();
        let fleet = ceal_fleet::FleetConfig {
            gather_deadline: Duration::from_millis(150),
            ..ceal_fleet::FleetConfig::default()
        };
        let inner = Arc::get_mut(&mut server.inner).expect("not serving yet");
        inner.fleet = ceal_fleet::Coordinator::new(fleet);
        let srv = server.spawn();

        let mut hoarder = Client::connect(srv.addr()).unwrap();
        let (worker, _) = hoarder.register_worker("hoarder").unwrap();
        let mut c = Client::connect(srv.addr()).unwrap();
        let (st, _) = c.create_session(lv(14, 120, 41), 0.0, 0).unwrap();
        c.advance(st.session, 5).expect("history");
        let session = st.session;
        let advancing = std::thread::spawn(move || {
            let asked = Instant::now();
            let advanced = c.advance(session, 5).expect("advance");
            (c, advanced, asked.elapsed())
        });
        let mut taken = Vec::new();
        while taken.is_empty() {
            taken = hoarder.heartbeat(worker).unwrap();
        }
        assert_eq!(taken.len(), 3);
        // Its next poll is held — alive, silent about the tasks — until
        // the drain below tells it to stop.
        let holding = std::thread::spawn(move || hoarder.heartbeat(worker));
        let (mut c, advanced, took) = advancing.join().unwrap();
        assert_eq!(advanced.measured, 3);
        assert!(
            took >= Duration::from_millis(150),
            "answered after {took:?}"
        );
        assert!(took < Duration::from_secs(2), "answered after {took:?}");
        let m = c.metrics().unwrap();
        assert_eq!((m.fleet.tasks_completed, m.fleet.workers_lost), (0, 0));
        assert_eq!(m.oracle_measurements, advanced.history_samples + 3);
        c.shutdown().unwrap();
        srv.join().unwrap();
        let told = holding.join().unwrap().unwrap_err();
        assert_eq!(told.code(), Some("shutting-down"));
    }
}
