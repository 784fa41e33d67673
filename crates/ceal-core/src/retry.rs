//! Unified retry/backoff policy, shared by every layer that retries.
//!
//! The paper's testbed treats a crashed workflow run as a transient fault
//! worth retrying (§7.1); our reproduction retries in three places — the
//! core [`RetryingCollector`](crate::RetryingCollector), the serve client's
//! reconnect path, and ad-hoc test harnesses. All three now share one
//! [`RetryPolicy`]: exponential backoff with *seeded* jitter (so a retry
//! schedule is reproducible from the seed, like everything else in this
//! workspace) and an optional overall deadline.

use std::time::{Duration, Instant};

/// When and how often to retry a fallible operation.
///
/// Attempt 1 runs immediately; attempt `n ≥ 2` waits
/// `base_delay · multiplier^(n-2) · jitter_factor(n)` first, where the
/// jitter factor is drawn deterministically from `seed` in
/// `[1 − jitter, 1 + jitter]`.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts (the first try included). Clamped to at least 1.
    pub max_attempts: u32,
    /// Backoff before the second attempt. [`Duration::ZERO`] disables
    /// sleeping entirely (the collector's default: simulated measurements
    /// have no transport to wait out).
    pub base_delay: Duration,
    /// Exponential growth factor per further attempt; values below 1 are
    /// treated as 1 (constant backoff).
    pub multiplier: f64,
    /// Jitter half-width as a fraction of the delay, in `[0, 1]`.
    pub jitter: f64,
    /// Seed for the deterministic jitter stream.
    pub seed: u64,
    /// Overall wall-clock budget: once the next backoff would cross it,
    /// [`RetryPolicy::run`] gives up with `deadline_exceeded` set.
    pub deadline: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 5,
            base_delay: Duration::from_millis(50),
            multiplier: 2.0,
            jitter: 0.2,
            seed: 0,
            deadline: None,
        }
    }
}

impl RetryPolicy {
    /// A policy that retries up to `max_attempts` times with no sleeping —
    /// right for in-process oracles where a failed attempt costs budget,
    /// not time.
    pub fn no_delay(max_attempts: u32) -> Self {
        Self {
            max_attempts: max_attempts.max(1),
            base_delay: Duration::ZERO,
            ..Self::default()
        }
    }

    /// Deterministic jitter factor in `[1 − jitter, 1 + jitter]` for
    /// `attempt` (splitmix64 over the seed/attempt pair).
    fn jitter_factor(&self, attempt: u32) -> f64 {
        if self.jitter <= 0.0 {
            return 1.0;
        }
        let mut h = self
            .seed
            .wrapping_add((attempt as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
        1.0 + self.jitter.min(1.0) * (2.0 * unit - 1.0)
    }

    /// Backoff to wait before `attempt` (1-based; attempt 1 never waits).
    pub fn delay_before(&self, attempt: u32) -> Duration {
        if attempt <= 1 || self.base_delay.is_zero() {
            return Duration::ZERO;
        }
        let exp = self.multiplier.max(1.0).powi(attempt as i32 - 2);
        let secs = self.base_delay.as_secs_f64() * exp * self.jitter_factor(attempt);
        Duration::from_secs_f64(secs.clamp(0.0, 3600.0))
    }

    /// Runs `op` (which receives the 1-based attempt number) until it
    /// succeeds, attempts run out, or the deadline would be crossed,
    /// sleeping the backoff between attempts.
    pub fn run<T, E>(&self, mut op: impl FnMut(u32) -> Result<T, E>) -> Result<T, RetryError<E>> {
        let start = Instant::now();
        let max = self.max_attempts.max(1);
        let mut last: Option<E> = None;
        for attempt in 1..=max {
            if attempt > 1 {
                let wait = self.delay_before(attempt);
                if let Some(deadline) = self.deadline {
                    if start.elapsed() + wait >= deadline {
                        return Err(RetryError {
                            attempts: attempt - 1,
                            last: last.expect("attempt > 1 implies a recorded failure"),
                            deadline_exceeded: true,
                        });
                    }
                }
                if !wait.is_zero() {
                    std::thread::sleep(wait);
                }
            }
            match op(attempt) {
                Ok(v) => return Ok(v),
                Err(e) => last = Some(e),
            }
        }
        Err(RetryError {
            attempts: max,
            last: last.expect("max >= 1 implies at least one attempt"),
            deadline_exceeded: false,
        })
    }
}

/// Every attempt a [`RetryPolicy`] allowed has failed.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryError<E> {
    /// Attempts actually made.
    pub attempts: u32,
    /// The error from the final attempt.
    pub last: E,
    /// Whether the policy stopped early because the deadline would have
    /// been crossed (in which case `attempts < max_attempts`).
    pub deadline_exceeded: bool,
}

impl<E: std::fmt::Display> std::fmt::Display for RetryError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.deadline_exceeded {
            write!(
                f,
                "gave up after {} attempts (deadline exceeded): {}",
                self.attempts, self.last
            )
        } else {
            write!(f, "gave up after {} attempts: {}", self.attempts, self.last)
        }
    }
}

impl<E: std::fmt::Display + std::fmt::Debug> std::error::Error for RetryError<E> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_success_returns_immediately() {
        let policy = RetryPolicy::no_delay(5);
        let mut calls = 0;
        let out: Result<u32, RetryError<&str>> = policy.run(|_| {
            calls += 1;
            Ok(42)
        });
        assert_eq!(out.unwrap(), 42);
        assert_eq!(calls, 1);
    }

    #[test]
    fn retries_then_succeeds_on_scheduled_attempt() {
        let policy = RetryPolicy::no_delay(5);
        let out = policy.run(|attempt| {
            if attempt < 3 {
                Err("boom")
            } else {
                Ok(attempt)
            }
        });
        assert_eq!(out.unwrap(), 3);
    }

    #[test]
    fn exhaustion_reports_attempts_and_last_error() {
        let policy = RetryPolicy::no_delay(4);
        let err = policy
            .run::<(), _>(|attempt| Err(format!("fail #{attempt}")))
            .unwrap_err();
        assert_eq!(err.attempts, 4);
        assert_eq!(err.last, "fail #4");
        assert!(!err.deadline_exceeded);
        assert!(err.to_string().contains("gave up after 4 attempts"));
    }

    #[test]
    fn deadline_stops_before_sleeping_past_it() {
        let policy = RetryPolicy {
            max_attempts: 100,
            base_delay: Duration::from_secs(10),
            multiplier: 2.0,
            jitter: 0.0,
            seed: 0,
            deadline: Some(Duration::from_millis(5)),
        };
        let start = Instant::now();
        let err = policy.run::<(), _>(|_| Err("down")).unwrap_err();
        assert!(err.deadline_exceeded);
        assert_eq!(err.attempts, 1);
        // It must have refused the 10 s sleep, not served it.
        assert!(start.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn backoff_grows_exponentially_and_jitter_is_seeded() {
        let policy = RetryPolicy {
            max_attempts: 5,
            base_delay: Duration::from_millis(100),
            multiplier: 2.0,
            jitter: 0.2,
            seed: 7,
            deadline: None,
        };
        assert_eq!(policy.delay_before(1), Duration::ZERO);
        let d2 = policy.delay_before(2);
        let d3 = policy.delay_before(3);
        let d4 = policy.delay_before(4);
        // Within ±20% of 100 ms / 200 ms / 400 ms.
        assert!(d2 >= Duration::from_millis(80) && d2 <= Duration::from_millis(120));
        assert!(d3 >= Duration::from_millis(160) && d3 <= Duration::from_millis(240));
        assert!(d4 >= Duration::from_millis(320) && d4 <= Duration::from_millis(480));
        // Same seed → same schedule; different seed → (almost surely) not.
        assert_eq!(policy.clone().delay_before(2), d2);
        let other = RetryPolicy {
            seed: 8,
            ..policy.clone()
        };
        assert!(other.delay_before(2) != d2 || other.delay_before(3) != d3);
    }
}
