//! A fixed-size work-sharing thread pool.
//!
//! Jobs are boxed closures pushed onto a crossbeam MPMC channel; worker
//! threads pop and run them. Dropping the pool closes the channel and joins
//! all workers, so no job submitted before the drop is lost. A [`WaitGroup`]
//! lets callers block until a batch of submitted jobs has completed without
//! tearing the pool down.

use crossbeam::channel::{unbounded, Sender};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-size pool of worker threads executing submitted jobs FIFO.
pub struct ThreadPool {
    sender: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    size: usize,
}

impl ThreadPool {
    /// Creates a pool with `size` worker threads (at least one).
    pub fn new(size: usize) -> Self {
        let size = size.max(1);
        let (sender, receiver) = unbounded::<Job>();
        let workers = (0..size)
            .map(|i| {
                let rx = receiver.clone();
                std::thread::Builder::new()
                    .name(format!("ceal-pool-{i}"))
                    .spawn(move || {
                        // The loop ends when every sender is dropped.
                        while let Ok(job) = rx.recv() {
                            job();
                        }
                    })
                    .expect("failed to spawn pool worker")
            })
            .collect();
        Self {
            sender: Some(sender),
            workers,
            size,
        }
    }

    /// Number of worker threads.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Submits a job for execution.
    pub fn execute<F: FnOnce() + Send + 'static>(&self, job: F) {
        self.sender
            .as_ref()
            .expect("pool sender present until drop")
            .send(Box::new(job))
            .expect("pool workers alive until drop");
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
        // Closing the channel lets workers drain remaining jobs and exit.
        self.sender.take();
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
        let mut guard = self.state.lock.lock().expect("wait-group mutex poisoned");
        while self.state.count.load(Ordering::Acquire) != 0 {
            guard = self
                .state
                .cv
                .wait(guard)
                .expect("wait-group mutex poisoned");
        }
    }
}

impl Drop for WgToken {
    fn drop(&mut self) {
        if self.state.count.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _guard = self.state.lock.lock().expect("wait-group mutex poisoned");
            self.state.cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

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
