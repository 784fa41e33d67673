//! The circuit breaker in front of the server's one backend that can fail
//! repeatedly: cache persistence to disk.
//!
//! A breaker converts "keep hammering a dead backend" into "fail fast,
//! probe occasionally":
//!
//! - **Closed** (healthy): every call is allowed; `threshold` consecutive
//!   failures trip the breaker.
//! - **Open**: calls are refused without touching the backend. The cooldown
//!   before the next probe comes from an embedded
//!   [`RetryPolicy`](ceal_core::retry::RetryPolicy) — the nth open waits
//!   `delay_before(n + 1)`, so repeated trips back off exponentially with
//!   the same seeded jitter every other retry path in this workspace uses.
//! - **Half-open**: the cooldown elapsed and exactly one probe call is in
//!   flight. Success closes the breaker; failure re-opens it with a longer
//!   cooldown.
//!
//! State transitions are surfaced as `breaker.open` / `breaker.closed`
//! warn events on the server's [`Tracer`], and cumulative open counts feed
//! the `Metrics` and `Health` endpoints.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use ceal_core::retry::RetryPolicy;
use ceal_trace::{TraceContext, Tracer};
use parking_lot::Mutex;

use crate::wire::protocol::BreakerStatus;

#[derive(Debug, Clone, Copy, PartialEq)]
enum State {
    Closed,
    Open(Instant),
    HalfOpen,
}

struct Gate {
    state: State,
    consecutive: u64,
}

/// A named circuit breaker; see the module docs for the state machine.
pub struct CircuitBreaker {
    name: &'static str,
    threshold: u64,
    cooldowns: RetryPolicy,
    gate: Mutex<Gate>,
    opens: AtomicU64,
    tracer: Tracer,
}

impl CircuitBreaker {
    /// A breaker that trips after `threshold` consecutive failures and
    /// schedules half-open probes with `cooldowns`.
    pub fn new(
        name: &'static str,
        threshold: u64,
        cooldowns: RetryPolicy,
        tracer: Tracer,
    ) -> CircuitBreaker {
        CircuitBreaker {
            name,
            threshold: threshold.max(1),
            cooldowns,
            gate: Mutex::new(Gate {
                state: State::Closed,
                consecutive: 0,
            }),
            opens: AtomicU64::new(0),
            tracer,
        }
    }

    /// The server's breaker in front of cache persistence: it trips fast,
    /// because a full disk rarely heals in milliseconds.
    pub(crate) fn cache_persist(tracer: &Tracer) -> CircuitBreaker {
        let cooldowns = RetryPolicy {
            max_attempts: u32::MAX,
            base_delay: Duration::from_millis(1000),
            multiplier: 2.0,
            jitter: 0.2,
            seed: 0xB2EB,
            deadline: None,
        };
        CircuitBreaker::new("cache-persist", 3, cooldowns, tracer.clone())
    }

    /// Whether a call may proceed. An open breaker whose cooldown has
    /// elapsed transitions to half-open and admits the caller as the single
    /// probe; further callers are refused until the probe reports back.
    pub fn allow(&self) -> bool {
        let mut gate = self.gate.lock();
        match gate.state {
            State::Closed => true,
            State::HalfOpen => false,
            State::Open(since) => {
                let opens = self.opens.load(Ordering::Relaxed);
                // delay_before is 1-based and attempt 1 never waits, so the
                // nth open maps to attempt n+1; cap so the exponent can't
                // overflow into a 1-hour clamp forever.
                let cooldown = self.cooldowns.delay_before(opens.min(30) as u32 + 1);
                if since.elapsed() >= cooldown {
                    gate.state = State::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// The wrapped call succeeded: close the breaker and reset the failure
    /// streak.
    pub fn record_success(&self) {
        let mut gate = self.gate.lock();
        let was_broken = gate.state != State::Closed;
        gate.state = State::Closed;
        gate.consecutive = 0;
        drop(gate);
        if was_broken {
            self.tracer.warn(
                "breaker.closed",
                TraceContext::default(),
                &format!("{} breaker closed after successful probe", self.name),
                &[("breaker", self.name.into())],
            );
        }
    }

    /// The wrapped call failed: extend the streak, and trip to open when a
    /// half-open probe fails or the streak reaches the threshold.
    pub fn record_failure(&self) {
        let mut gate = self.gate.lock();
        gate.consecutive += 1;
        let trip = match gate.state {
            State::HalfOpen => true,
            State::Closed => gate.consecutive >= self.threshold,
            State::Open(_) => false,
        };
        if trip {
            gate.state = State::Open(Instant::now());
            let opens = self.opens.fetch_add(1, Ordering::Relaxed) + 1;
            let streak = gate.consecutive;
            drop(gate);
            self.tracer.warn(
                "breaker.open",
                TraceContext::default(),
                &format!(
                    "{} breaker opened after {streak} consecutive failures (open #{opens})",
                    self.name
                ),
                &[("breaker", self.name.into())],
            );
        }
    }

    /// Times this breaker has opened since startup.
    pub fn opens(&self) -> u64 {
        self.opens.load(Ordering::Relaxed)
    }

    /// Snapshot for the `Health` endpoint.
    pub fn status(&self) -> BreakerStatus {
        let gate = self.gate.lock();
        let state = match gate.state {
            State::Closed => "closed",
            State::Open(_) => "open",
            State::HalfOpen => "half-open",
        };
        BreakerStatus {
            state: state.into(),
            consecutive_failures: gate.consecutive,
            opens: self.opens.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_breaker(threshold: u64, cooldown_ms: u64) -> CircuitBreaker {
        let cooldowns = RetryPolicy {
            max_attempts: u32::MAX,
            base_delay: Duration::from_millis(cooldown_ms),
            multiplier: 1.0,
            jitter: 0.0,
            seed: 0,
            deadline: None,
        };
        CircuitBreaker::new("test", threshold, cooldowns, Tracer::disabled())
    }

    #[test]
    fn stays_closed_below_threshold() {
        let b = fast_breaker(3, 10);
        b.record_failure();
        b.record_failure();
        assert!(b.allow());
        assert_eq!(b.status().state, "closed");
        b.record_success();
        assert_eq!(b.status().consecutive_failures, 0);
    }

    #[test]
    fn trips_at_threshold_and_refuses() {
        let b = fast_breaker(3, 50);
        for _ in 0..3 {
            b.record_failure();
        }
        assert_eq!(b.status().state, "open");
        assert_eq!(b.opens(), 1);
        assert!(!b.allow(), "open breaker must refuse before cooldown");
    }

    #[test]
    fn half_open_admits_one_probe_then_closes_on_success() {
        let b = fast_breaker(1, 20);
        b.record_failure();
        assert!(!b.allow());
        std::thread::sleep(Duration::from_millis(30));
        assert!(b.allow(), "cooldown elapsed: probe admitted");
        assert_eq!(b.status().state, "half-open");
        assert!(!b.allow(), "only one probe at a time");
        b.record_success();
        assert_eq!(b.status().state, "closed");
        assert!(b.allow());
    }

    #[test]
    fn failed_probe_reopens_with_longer_cooldown() {
        let b = fast_breaker(1, 20);
        b.record_failure();
        std::thread::sleep(Duration::from_millis(30));
        assert!(b.allow());
        b.record_failure();
        assert_eq!(b.status().state, "open");
        assert_eq!(b.opens(), 2);
    }
}
