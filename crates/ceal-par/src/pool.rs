//! A fixed-size work-sharing thread pool.
//!
//! Jobs are boxed closures pushed onto one queue behind a mutex; idle
//! workers wait on a condvar and pop them in order. Dropping the pool
//! closes the queue and joins all workers, which drain it first, so no job
//! submitted before the drop is lost. A [`WaitGroup`] lets callers block
//! until a batch of submitted jobs has completed without tearing the pool
//! down.

use crate::sync::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, PoisonError};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// The pool's jobs and whether its drop has closed them, under one lock: a
/// worker checks both and starts waiting atomically, so the close's wake
/// cannot fall between its check and its wait.
#[derive(Default)]
struct Queue {
    jobs: Mutex<(VecDeque<Job>, bool)>,
    ready: Condvar,
}

impl Queue {
    /// The next job, waiting while the queue is open and empty; `None` once
    /// it is closed and drained.
    fn pop(&self) -> Option<Job> {
        let mut jobs = self.jobs.lock();
        while jobs.0.is_empty() && !jobs.1 {
            jobs = self
                .ready
                .wait(jobs)
                .unwrap_or_else(PoisonError::into_inner);
        }
        jobs.0.pop_front()
    }
}

/// A fixed-size pool of worker threads executing submitted jobs FIFO.
pub struct ThreadPool {
    queue: Arc<Queue>,
    workers: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    /// Creates a pool with `size` worker threads (at least one).
    pub fn new(size: usize) -> Self {
        let queue = Arc::new(Queue::default());
        let workers = (0..size.max(1))
            .map(|i| {
                let queue = Arc::clone(&queue);
                std::thread::Builder::new()
                    .name(format!("ceal-pool-{i}"))
                    .spawn(move || {
                        while let Some(job) = queue.pop() {
                            job();
                        }
                    })
                    .expect("failed to spawn pool worker")
            })
            .collect();
        Self { queue, workers }
    }

    /// Number of worker threads.
    pub fn size(&self) -> usize {
        self.workers.len()
    }

    /// Submits a job for execution.
    pub fn execute<F: FnOnce() + Send + 'static>(&self, job: F) {
        self.queue.jobs.lock().0.push_back(Box::new(job));
        self.queue.ready.notify_one();
    }

    /// Submits a job tracked by `wg`; `wg.wait()` blocks until all tracked
    /// jobs (across any number of `execute_tracked` calls) have finished.
    pub fn execute_tracked<F: FnOnce() + Send + 'static>(&self, wg: &WaitGroup, job: F) {
        let token = wg.add();
        self.execute(move || {
            job();
            drop(token);
        });
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Closing the queue lets workers drain remaining jobs and exit.
        self.queue.jobs.lock().1 = true;
        self.queue.ready.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[derive(Default)]
struct WgState {
    count: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
}

/// Counts outstanding jobs; `wait` blocks until the count returns to zero.
#[derive(Clone, Default)]
pub struct WaitGroup {
    state: Arc<WgState>,
}

/// Token representing one outstanding job; dropping it decrements the count.
pub struct WgToken {
    state: Arc<WgState>,
}

impl WaitGroup {
    /// Creates an empty wait group.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers one outstanding job.
    pub fn add(&self) -> WgToken {
        self.state.count.fetch_add(1, Ordering::AcqRel);
        WgToken {
            state: Arc::clone(&self.state),
        }
    }

    /// Blocks until every registered job's token has been dropped.
    pub fn wait(&self) {
        let mut guard = self.state.lock.lock();
        while self.state.count.load(Ordering::Acquire) != 0 {
            guard = self
                .state
                .cv
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl Drop for WgToken {
    fn drop(&mut self) {
        if self.state.count.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _guard = self.state.lock.lock();
            self.state.cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::{Duration, Instant};

    #[test]
    fn executes_all_jobs_before_drop() {
        let counter = Arc::new(AtomicU64::new(0));
        {
            let pool = ThreadPool::new(4);
            for _ in 0..100 {
                let c = Arc::clone(&counter);
                pool.execute(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
        } // drop joins workers after draining
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    /// Dropping the pool must wake every worker wherever the close finds it
    /// in `pop`: before it locks, around its wait, or blocked. A worker the
    /// close does not wake keeps the drop joining it forever; the watchdog
    /// turns that hang into a failure.
    #[test]
    fn dropping_an_idle_pool_wakes_its_blocked_workers() {
        for i in 0..500u64 {
            let pool = ThreadPool::new(2);
            let until = Instant::now() + Duration::from_nanos(i % 200 * 50);
            while Instant::now() < until {
                std::hint::spin_loop();
            }
            let (dropped_tx, dropped) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                drop(pool);
                dropped_tx.send(()).unwrap();
            });
            // The watchdog: a lost wake leaves the drop joining forever.
            let done = dropped.recv_timeout(Duration::from_secs(5));
            assert!(done.is_ok(), "pool drop hung at iteration {i}");
        }
    }

    #[test]
    fn wait_group_blocks_until_batch_done() {
        let pool = ThreadPool::new(3);
        let wg = WaitGroup::new();
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..50 {
            let c = Arc::clone(&counter);
            pool.execute_tracked(&wg, move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        wg.wait();
        assert_eq!(counter.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn empty_wait_group_returns_immediately() {
        WaitGroup::new().wait();
    }

    #[test]
    fn pool_size_is_at_least_one() {
        assert_eq!(ThreadPool::new(0).size(), 1);
    }

    #[test]
    fn wait_group_reusable_across_batches() {
        let pool = ThreadPool::new(2);
        let wg = WaitGroup::new();
        let counter = Arc::new(AtomicU64::new(0));
        for batch in 0..3 {
            for _ in 0..10 {
                let c = Arc::clone(&counter);
                pool.execute_tracked(&wg, move || {
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
            wg.wait();
            assert_eq!(counter.load(Ordering::Relaxed), (batch + 1) * 10);
        }
    }
}
