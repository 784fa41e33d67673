//! The reactor's deadline queue: a binary heap of `(deadline, key)`,
//! earliest on top.
//!
//! The set of things actually waiting is small — connections mid-frame,
//! mid-write or holding a poll, one eviction heartbeat, one fleet tick
//! while rounds are parked — so a heap is all it takes: the next deadline
//! is a peek, scheduling and each firing cost O(log n), and an entry fires
//! at its instant, never before.
//!
//! Cancellation is lazy: callers re-check a firing against the state it
//! guards and ignore stale ones instead of searching the heap.

use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::time::{Duration, Instant};

/// Schedules `key` to fire at `deadline`.
pub fn schedule<K: Ord>(heap: &mut BinaryHeap<Reverse<(Instant, K)>>, deadline: Instant, key: K) {
    heap.push(Reverse((deadline, key)));
}

/// How long until the earliest entry is due, from `now`: zero once it is
/// past due, `None` when nothing is scheduled.
pub fn next_timeout<K: Ord>(
    heap: &BinaryHeap<Reverse<(Instant, K)>>,
    now: Instant,
) -> Option<Duration> {
    let Reverse((due, _)) = heap.peek()?;
    Some(due.saturating_duration_since(now))
}

/// Removes and returns, earliest first, every key due at `now`.
pub fn expired<K: Ord>(heap: &mut BinaryHeap<Reverse<(Instant, K)>>, now: Instant) -> Vec<K> {
    let mut fired = Vec::new();
    while let Some(top) = heap.peek_mut() {
        if top.0 .0 > now {
            break;
        }
        let Reverse((_, key)) = PeekMut::pop(top);
        fired.push(key);
    }
    fired
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_after_deadline_not_before() {
        let mut heap = BinaryHeap::new();
        let now = Instant::now();
        schedule(&mut heap, now + Duration::from_millis(50), "a");
        assert!(expired(&mut heap, now).is_empty(), "not due yet");
        assert!(expired(&mut heap, now + Duration::from_millis(49)).is_empty());
        let fired = expired(&mut heap, now + Duration::from_millis(50));
        assert_eq!(fired, vec!["a"], "due at its instant");
        assert!(heap.is_empty());
    }

    /// A far deadline stays queued, untouched, while nearer ones fire.
    #[test]
    fn entries_beyond_one_rotation_wait_their_lap() {
        let mut heap = BinaryHeap::new();
        let now = Instant::now();
        schedule(&mut heap, now + Duration::from_millis(100), "far");
        schedule(&mut heap, now + Duration::from_millis(15), "near");
        let at = |ms| now + Duration::from_millis(ms);
        assert_eq!(expired(&mut heap, at(30)), vec!["near"]);
        assert!(expired(&mut heap, at(60)).is_empty());
        assert_eq!(expired(&mut heap, at(120)), vec!["far"]);
    }

    #[test]
    fn next_timeout_tracks_earliest_entry() {
        let mut heap = BinaryHeap::new();
        let now = Instant::now();
        assert!(next_timeout(&heap, now).is_none());
        schedule(&mut heap, now + Duration::from_millis(200), 1);
        schedule(&mut heap, now + Duration::from_millis(40), 2);
        assert_eq!(next_timeout(&heap, now), Some(Duration::from_millis(40)));
        // Past-due deadlines report zero, not an underflow.
        let late = next_timeout(&heap, now + Duration::from_secs(1)).unwrap();
        assert_eq!(late, Duration::ZERO);
    }

    /// A deadline ~497 days out is reported as that far, not wrapped into
    /// the past.
    #[test]
    fn next_timeout_survives_tick_indices_beyond_u32() {
        let mut heap = BinaryHeap::new();
        let now = Instant::now();
        let far = Duration::from_millis(10 * (u64::from(u32::MAX) + 7));
        schedule(&mut heap, now + far, 1);
        assert_eq!(next_timeout(&heap, now), Some(far));
    }

    #[test]
    fn many_entries_across_laps_all_fire_once() {
        let mut heap = BinaryHeap::new();
        let now = Instant::now();
        for i in 0..100u64 {
            schedule(&mut heap, now + Duration::from_millis(5 * i), i);
        }
        let mut fired = Vec::new();
        for step in 1..=60u64 {
            fired.extend(expired(&mut heap, now + Duration::from_millis(10 * step)));
        }
        assert_eq!(fired, (0..100).collect::<Vec<_>>(), "once each, in order");
        assert!(heap.is_empty());
    }
}
