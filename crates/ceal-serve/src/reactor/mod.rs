//! Readiness-driven serve core — the only one.
//!
//! One reactor thread owns every connection: it accepts, does nonblocking
//! framed reads and writes through per-connection state machines
//! ([`conn`]), and hands only *ready, decoded* request frames to the
//! worker pool. A mostly-idle session therefore costs one registered
//! file descriptor instead of one blocked thread, which is what lets a
//! single process hold tens of thousands of open tuning sessions
//! (`tests/idle_connections.rs` pins the shape at a test's scale).
//!
//! Workers never touch sockets. A worker parses the frame, runs
//! `dispatch` under `catch_unwind` (a panic — a bug, or an oracle hitting
//! an unguarded path — answers one client with an `internal` error frame
//! instead of killing a worker), serializes the response, and pushes it
//! onto a completion queue, waking the reactor through an eventfd; the
//! reactor flushes the bytes when the socket accepts them.
//!
//! Overload is decided here: over-cap connections get one `Busy` frame at
//! accept, and past the dispatch watermark a request is shed unless
//! [`Endpoint::peek`] classifies its raw payload as control traffic.
//!
//! A hashed [`TimerWheel`](timer::TimerWheel) gives the loop real
//! deadlines: mid-frame and mid-write stalls are bounded per connection,
//! and idle-session eviction runs at a fixed cadence even when no new
//! connection ever arrives.
//!
//! Shutdown: the `Shutdown` dispatch sets the flag, its completion wakes
//! the loop, and the reactor closes the listener, drops idle connections
//! at their frame boundary, and waits for in-flight responses to flush
//! before returning.

pub mod conn;
pub mod sys;
pub mod timer;

use crate::frame::FrameError;
use crate::metrics::Endpoint;
use crate::protocol::{Request, Response};
use crate::server::{dispatch, endpoint_of, ServerInner};
use conn::{Conn, ConnState, ReadOutcome, WriteOutcome};
use std::io::{self, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use sys::{Epoll, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use timer::TimerWheel;

/// Timer-wheel tick width; stall and eviction deadlines are coarse, so
/// 25 ms of slack per firing is immaterial.
const WHEEL_TICK: Duration = Duration::from_millis(25);
/// Wheel slots; one rotation covers 6.4 s, longer deadlines wrap.
const WHEEL_SLOTS: usize = 256;
/// Readiness records drained per `epoll_wait`.
const EVENT_BATCH: usize = 1024;
/// How long accepting pauses after an `accept` failure (fd exhaustion),
/// so a persistent error cannot spin the loop.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(100);

/// Epoll cookie of the listener.
const TOKEN_LISTENER: u64 = u64::MAX;
/// Epoll cookie of the wakeup eventfd.
const TOKEN_NOTIFY: u64 = u64::MAX - 1;

fn token_of(index: usize, gen: u32) -> u64 {
    ((gen as u64) << 32) | index as u64
}

/// A finished request: the framed response bytes for one connection.
struct Completion {
    index: usize,
    gen: u32,
    framed: Vec<u8>,
    /// Close once flushed (decode errors).
    close_after_write: bool,
    /// `(endpoint, frame arrival, is_error)` to record into the latency
    /// histogram once the response is fully flushed, so server-side
    /// percentiles cover queueing, handling, *and* write-back.
    metric: Option<(Endpoint, Instant, bool)>,
}

/// Worker → reactor channel; pushes wake the loop through the eventfd.
struct Completions {
    queue: Mutex<Vec<Completion>>,
    notify: EventFd,
}

impl Completions {
    fn push(&self, c: Completion) {
        // A poisoned queue means some worker panicked while holding the
        // lock; the Vec inside is still structurally sound, and dropping
        // this completion would wedge its connection forever — recover.
        self.queue
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .push(c);
        self.notify.wake();
    }

    fn drain(&self) -> Vec<Completion> {
        self.notify.drain();
        std::mem::take(
            &mut *self
                .queue
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner()),
        )
    }
}

/// Wheel entries. Connection entries carry the slot generation so a
/// firing for a since-recycled slot is recognized as stale and dropped.
enum TimerKey {
    /// Check one connection's stall deadline.
    Stall { index: usize, gen: u32 },
    /// Run idle-session eviction and re-arm.
    Evict,
    /// Re-enable the listener after an accept failure.
    ResumeAccept,
}

/// Connection slots with generation counters; freed slots are recycled
/// but keep bumping their generation so stale cookies never alias.
struct Slab {
    slots: Vec<(u32, Option<Conn>)>,
    free: Vec<usize>,
    live: usize,
}

impl Slab {
    fn new() -> Self {
        Self {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    fn insert(&mut self, conn: Conn) -> (usize, u32) {
        self.live += 1;
        match self.free.pop() {
            Some(i) => {
                let gen = self.slots[i].0;
                self.slots[i].1 = Some(conn);
                (i, gen)
            }
            None => {
                self.slots.push((0, Some(conn)));
                (self.slots.len() - 1, 0)
            }
        }
    }

    fn get(&mut self, index: usize, gen: u32) -> Option<&mut Conn> {
        match self.slots.get_mut(index) {
            Some((g, slot)) if *g == gen => slot.as_mut(),
            _ => None,
        }
    }

    /// Fetches a live slot without a generation check (for indices taken
    /// from [`Slab::snapshot`] in the same loop iteration).
    fn get_at(&mut self, index: usize) -> Option<&mut Conn> {
        self.slots.get_mut(index).and_then(|(_, s)| s.as_mut())
    }

    fn remove(&mut self, index: usize) -> Option<Conn> {
        let (gen, slot) = self.slots.get_mut(index)?;
        let conn = slot.take()?;
        *gen = gen.wrapping_add(1);
        self.free.push(index);
        self.live -= 1;
        Some(conn)
    }

    /// `(index, state)` of every live connection.
    fn snapshot(&self) -> Vec<(usize, ConnState)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, (_, s))| s.as_ref().map(|c| (i, c.state)))
            .collect()
    }
}

/// Serializes `resp` as one ready-to-send frame (length prefix + JSON).
fn encode_frame(resp: &Response) -> Vec<u8> {
    let json = serde_json::to_vec(resp).unwrap_or_else(|_| {
        // Fall back to a pre-baked error body rather than panicking the
        // worker: even if serde somehow fails on the fallback too, the
        // peer still gets a well-formed frame.
        serde_json::to_vec(&Response::Error {
            code: "internal".into(),
            message: "response serialization failed".into(),
        })
        .unwrap_or_else(|_| {
            br#"{"Error":{"code":"internal","message":"response serialization failed"}}"#.to_vec()
        })
    });
    let mut framed = Vec::with_capacity(4 + json.len());
    framed.extend_from_slice(&(json.len() as u32).to_be_bytes());
    framed.extend_from_slice(&json);
    framed
}

/// The one answer a peer we have lost sync with gets before the close.
fn bad_request(e: &FrameError) -> Response {
    Response::Error {
        code: "bad-request".into(),
        message: e.to_string(),
    }
}

/// Runs one request on the calling worker thread and queues its framed
/// response. JSON decode errors map to one `bad-request` frame and a
/// close, handler panics are contained to an `internal` error frame.
/// Latency is recorded when the response write flushes — from `arrived`
/// (frame completion) to flush — so server-side percentiles cover
/// queueing, decode, handling, and write-back: the closest the server can
/// get to what the client observes.
fn handle_request(
    payload: Vec<u8>,
    arrived: Instant,
    inner: &ServerInner,
    completions: &Completions,
    index: usize,
    gen: u32,
) {
    let (resp, close, metric) = match serde_json::from_slice::<Request>(&payload) {
        Err(e) => (bad_request(&FrameError::Decode(e.to_string())), true, None),
        Ok(req) => {
            let endpoint = endpoint_of(&req);
            let resp =
                catch_unwind(AssertUnwindSafe(|| dispatch(req, inner))).unwrap_or_else(|p| {
                    let detail = p
                        .downcast_ref::<String>()
                        .map(String::as_str)
                        .or_else(|| p.downcast_ref::<&str>().copied())
                        .unwrap_or("handler panicked");
                    Response::Error {
                        code: "internal".into(),
                        message: detail.to_string(),
                    }
                });
            let is_error = matches!(resp, Response::Error { .. });
            // A `Shutdown` acknowledgement needs no close flag: the loop
            // starts draining in the iteration that flushes it.
            (resp, false, Some((endpoint, arrived, is_error)))
        }
    };
    // Paired with `begin_dispatch` at submission time in `pump_reading`;
    // runs unconditionally so decode errors and panics also drain the
    // in-flight gauge. Must precede the push: once the completion is
    // visible the reactor may answer and take this connection's next
    // request, and that request's shed decision has to see the gauge
    // already drained.
    inner.load.end_dispatch();
    completions.push(Completion {
        index,
        gen,
        framed: encode_frame(&resp),
        close_after_write: close,
        metric,
    });
}

/// The event loop's owned state.
struct Reactor {
    epoll: Epoll,
    listener: Option<TcpListener>,
    conns: Slab,
    timers: TimerWheel<TimerKey>,
    completions: Arc<Completions>,
    inner: Arc<ServerInner>,
    pool: ceal_par::ThreadPool,
    wg: ceal_par::WaitGroup,
    draining: bool,
    /// Connections back in `Reading` whose buffer already holds input.
    buffered: Vec<(usize, u32)>,
}

impl Reactor {
    fn interest_of(state: ConnState) -> u32 {
        match state {
            ConnState::Reading => EPOLLIN | EPOLLRDHUP,
            ConnState::Dispatching => 0,
            ConnState::Writing => EPOLLOUT,
        }
    }

    /// Re-registers a connection's interest set from its current state.
    fn refresh_interest(&mut self, index: usize, gen: u32) {
        let Some(conn) = self.conns.get(index, gen) else {
            return;
        };
        let fd = conn.stream.as_raw_fd();
        let interest = Self::interest_of(conn.state);
        let _ = self.epoll.modify(fd, interest, token_of(index, gen));
    }

    fn close_conn(&mut self, index: usize) {
        if let Some(conn) = self.conns.remove(index) {
            let _ = self.epoll.delete(conn.stream.as_raw_fd());
            self.inner.load.release_conn();
        }
    }

    /// Arms (or refreshes) a connection's stall deadline at `now + stall`.
    fn arm_stall(&mut self, index: usize, gen: u32, now: Instant) {
        let deadline = now + self.inner.stall_deadline;
        if let Some(conn) = self.conns.get(index, gen) {
            conn.stall_deadline = Some(deadline);
            if !conn.timer_armed {
                conn.timer_armed = true;
                self.timers
                    .schedule(deadline, TimerKey::Stall { index, gen });
            }
        }
    }

    /// Clears a connection's stall deadline; any wheel entry left behind
    /// fires into `None` and reads as "no longer stalled" (lazy cancel).
    fn disarm_stall(&mut self, index: usize, gen: u32) {
        if let Some(conn) = self.conns.get(index, gen) {
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
                    self.timers
                        .schedule(now + ACCEPT_BACKOFF, TimerKey::ResumeAccept);
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
        let fd = stream.as_raw_fd();
        let (index, gen) = self.conns.insert(Conn::new(stream));
        let interest = Self::interest_of(ConnState::Reading);
        if let Err(e) = self.epoll.add(fd, interest, token_of(index, gen)) {
            self.conns.remove(index);
            return Err(e);
        }
        if self.inner.tracer.enabled() {
            if let Some(conn) = self.conns.get(index, gen) {
                let mut span = self
                    .inner
                    .tracer
                    .span("conn", ceal_trace::TraceContext::NONE);
                if let Ok(peer) = conn.stream.peer_addr() {
                    span.field("peer", peer.to_string());
                }
                conn.span = Some(span);
            }
        }
        Ok(())
    }

    fn conn_event(&mut self, index: usize, gen: u32, flags: u32, now: Instant) {
        let state = match self.conns.get(index, gen) {
            Some(conn) => conn.state,
            None => return, // stale record for a recycled slot
        };
        if flags & (EPOLLERR | EPOLLHUP) != 0 {
            self.close_conn(index);
            return;
        }
        match state {
            ConnState::Reading if flags & (EPOLLIN | EPOLLRDHUP) != 0 => {
                self.pump_reading(index, gen, now)
            }
            ConnState::Writing if flags & EPOLLOUT != 0 => self.pump_writing(index, gen, now),
            // Dispatching has interest 0; anything else is spurious.
            _ => {}
        }
    }

    fn pump_reading(&mut self, index: usize, gen: u32, now: Instant) {
        let outcome = match self.conns.get(index, gen) {
            Some(conn) => conn.pump_read(),
            None => return,
        };
        match outcome {
            ReadOutcome::NeedMore => {
                let mid = self
                    .conns
                    .get(index, gen)
                    .map(|c| c.mid_frame())
                    .unwrap_or(false);
                if mid {
                    self.arm_stall(index, gen, now);
                } else {
                    self.disarm_stall(index, gen);
                }
            }
            ReadOutcome::Frame(payload) => {
                let arrived = Instant::now();
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
                    if let Some(conn) = self.conns.get(index, gen) {
                        conn.stall_deadline = None;
                        conn.start_write(encode_frame(&busy));
                    }
                    self.pump_writing(index, gen, now);
                    return;
                }
                if let Some(conn) = self.conns.get(index, gen) {
                    conn.stall_deadline = None;
                    conn.state = ConnState::Dispatching;
                }
                self.refresh_interest(index, gen);
                self.inner.load.begin_dispatch();
                let inner = Arc::clone(&self.inner);
                let completions = Arc::clone(&self.completions);
                self.pool.execute_tracked(&self.wg, move || {
                    handle_request(payload, arrived, &inner, &completions, index, gen)
                });
            }
            ReadOutcome::Closed => self.close_conn(index),
            ReadOutcome::Broken(e) => {
                if let Some(conn) = self.conns.get(index, gen) {
                    conn.start_write(encode_frame(&bad_request(&e)));
                    conn.close_after_write = true;
                }
                self.pump_writing(index, gen, now);
            }
        }
    }

    fn pump_writing(&mut self, index: usize, gen: u32, now: Instant) {
        let outcome = match self.conns.get(index, gen) {
            Some(conn) => conn.pump_write(),
            None => return,
        };
        match outcome {
            WriteOutcome::Done => {
                let close = self.draining
                    || match self.conns.get(index, gen) {
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
                    self.close_conn(index);
                } else {
                    if let Some(conn) = self.conns.get(index, gen) {
                        conn.state = ConnState::Reading;
                        // A pipelined next request still in the socket is
                        // reported by level-triggered EPOLLIN on the next
                        // wait; one already in the connection's buffer has
                        // no event coming and is queued for this turn.
                        if conn.mid_frame() {
                            self.buffered.push((index, gen));
                        }
                    }
                    self.refresh_interest(index, gen);
                }
            }
            WriteOutcome::NeedMore => {
                self.refresh_interest(index, gen);
                self.arm_stall(index, gen, now);
            }
            WriteOutcome::Broken(_) => self.close_conn(index),
        }
    }

    /// Gives every connection that returned to `Reading` with input
    /// already buffered its read turn. A turn can end in a write (shed,
    /// bad frame) that flushes at once and queues the connection again, so
    /// this runs until the queue is dry.
    fn pump_buffered(&mut self, now: Instant) {
        while let Some((index, gen)) = self.buffered.pop() {
            self.pump_reading(index, gen, now);
        }
    }

    fn apply_completions(&mut self, now: Instant) {
        for c in self.completions.drain() {
            let ready = match self.conns.get(c.index, c.gen) {
                // A connection died mid-dispatch, or the slot was
                // recycled: the response has no recipient.
                None => false,
                Some(conn) if conn.state != ConnState::Dispatching => false,
                Some(conn) => {
                    conn.start_write(c.framed);
                    conn.close_after_write |= c.close_after_write;
                    conn.pending_metric = c.metric;
                    true
                }
            };
            if ready {
                self.pump_writing(c.index, c.gen, now);
            }
        }
    }

    fn fire_timers(&mut self, now: Instant) {
        for key in self.timers.expired(now) {
            match key {
                TimerKey::Evict => {
                    self.inner.sessions.evict_idle(&self.inner.metrics);
                    let cadence = self.inner.evict_cadence;
                    self.timers.schedule(now + cadence, TimerKey::Evict);
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
                TimerKey::Stall { index, gen } => {
                    let deadline = match self.conns.get(index, gen) {
                        None => continue,
                        Some(conn) => {
                            conn.timer_armed = false;
                            conn.stall_deadline
                        }
                    };
                    match deadline {
                        // Progress was made and the boundary reached; the
                        // entry is stale.
                        None => {}
                        Some(d) if d <= now => {
                            // No progress within the stall budget: the
                            // peer is stalled or hostile either way.
                            self.close_conn(index);
                        }
                        Some(d) => {
                            if let Some(conn) = self.conns.get(index, gen) {
                                conn.timer_armed = true;
                            }
                            self.timers.schedule(d, TimerKey::Stall { index, gen });
                        }
                    }
                }
            }
        }
    }

    fn begin_drain(&mut self) {
        self.draining = true;
        if let Some(listener) = self.listener.take() {
            let _ = self.epoll.delete(listener.as_raw_fd());
        }
        for (index, state) in self.conns.snapshot() {
            match state {
                // Nothing owed to this peer: drop it now.
                ConnState::Reading => self.close_conn(index),
                // In-flight work drains: the response is computed and
                // flushed, then the connection closes.
                ConnState::Dispatching | ConnState::Writing => {
                    if let Some(conn) = self.conns.get_at(index) {
                        conn.close_after_write = true;
                    }
                }
            }
        }
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
    listener.set_nonblocking(true)?;
    let epoll = Epoll::new()?;
    let notify = EventFd::new()?;
    epoll.add(listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)?;
    epoll.add(notify.fd(), EPOLLIN, TOKEN_NOTIFY)?;
    let completions = Arc::new(Completions {
        queue: Mutex::new(Vec::new()),
        notify,
    });
    let mut r = Reactor {
        epoll,
        listener: Some(listener),
        conns: Slab::new(),
        timers: TimerWheel::new(WHEEL_TICK, WHEEL_SLOTS),
        completions,
        inner,
        pool: ceal_par::ThreadPool::new(workers),
        wg: ceal_par::WaitGroup::new(),
        draining: false,
        buffered: Vec::new(),
    };
    r.timers
        .schedule(Instant::now() + r.inner.evict_cadence, TimerKey::Evict);

    let mut events = vec![sys::EpollEvent { events: 0, data: 0 }; EVENT_BATCH];
    loop {
        let now = Instant::now();
        // +1 ms so a just-under-due timer is not spun on; the wheel's
        // 25 ms ticks dwarf the rounding either way.
        let timeout_ms = match r.timers.next_timeout(now) {
            Some(t) => t.as_millis().min(60_000) as i32 + 1,
            None => 1_000,
        };
        let n = r.epoll.wait(&mut events, timeout_ms)?;
        let now = Instant::now();
        let mut notified = false;
        for ev in &events[..n] {
            let (data, flags) = (ev.data, ev.events);
            match data {
                TOKEN_LISTENER => r.accept_ready(now),
                TOKEN_NOTIFY => notified = true,
                _ => {
                    let index = (data & 0xFFFF_FFFF) as usize;
                    let gen = (data >> 32) as u32;
                    r.conn_event(index, gen, flags, now);
                }
            }
        }
        // Every push wakes the eventfd after it queues, and the eventfd is
        // level-triggered: a turn without its token has nothing to drain.
        if notified {
            r.apply_completions(now);
        }
        r.pump_buffered(now);
        r.fire_timers(now);
        if r.inner.shutdown.load(Ordering::Acquire) && !r.draining {
            r.begin_drain();
        }
        if r.draining && r.conns.live == 0 {
            break;
        }
    }
    // Workers still finishing requests for connections that died mid-
    // dispatch must complete before the pool (and eventfd) are dropped.
    r.wg.wait();
    Ok(())
}
