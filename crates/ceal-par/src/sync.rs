//! `std::sync` locks that never report poisoning.
//!
//! A lock is poisoned when a thread panics while holding it. The service
//! contains such panics (a request that panics answers `internal` and the
//! server serves on), so a poisoned lock still guards data every caller
//! may use: each lock here hands back the guard either way.

use std::sync::{MutexGuard, PoisonError, RwLockReadGuard, RwLockWriteGuard, TryLockError};

/// A [`std::sync::Mutex`] whose lock hands back a poisoned guard.
#[derive(Default)]
pub struct Mutex<T>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// An unlocked mutex holding `value`.
    pub const fn new(value: T) -> Self {
        Self(std::sync::Mutex::new(value))
    }

    /// Locks, blocking until the mutex is free.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Locks if no other thread holds the mutex, else `None`.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(guard) => Some(guard),
            Err(TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }
}

/// A [`std::sync::RwLock`] whose guards come back from a poisoned lock.
pub struct RwLock<T>(std::sync::RwLock<T>);

impl<T> RwLock<T> {
    /// An unlocked lock holding `value`.
    pub const fn new(value: T) -> Self {
        Self(std::sync::RwLock::new(value))
    }

    /// Takes shared access, blocking while a writer holds the lock.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Takes exclusive access, blocking while anyone holds the lock.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Panics in a thread while `hold` keeps a guard of the lock alive.
    fn poison<L: Send + Sync + 'static>(lock: &Arc<L>, hold: fn(&L)) {
        let lock = Arc::clone(lock);
        let panicked = std::thread::spawn(move || hold(&lock)).join();
        assert!(panicked.is_err());
    }

    #[test]
    fn a_poisoned_mutex_hands_back_its_guard() {
        let m = Arc::new(Mutex::new(vec![1, 2, 3]));
        poison(&m, |m| {
            let _held = m.lock();
            panic!("poison the mutex");
        });
        assert!(m.0.is_poisoned());
        assert_eq!(*m.lock(), [1, 2, 3]);
        m.lock().push(4);
        assert_eq!(*m.try_lock().expect("a free poisoned mutex"), [1, 2, 3, 4]);
    }

    #[test]
    fn a_poisoned_rwlock_hands_back_its_guards() {
        let l = Arc::new(RwLock::new(String::from("kept")));
        poison(&l, |l| {
            let _held = l.write();
            panic!("poison the rwlock");
        });
        assert!(l.0.is_poisoned());
        assert_eq!(*l.read(), "kept");
        l.write().push_str(" and written");
        assert_eq!(*l.read(), "kept and written");
    }

    #[test]
    fn try_lock_on_a_held_mutex_is_none() {
        let m = Arc::new(Mutex::new(0u32));
        let (held_tx, held) = std::sync::mpsc::channel();
        let (release, release_rx) = std::sync::mpsc::channel::<()>();
        let holder = {
            let m = Arc::clone(&m);
            std::thread::spawn(move || {
                let _guard = m.lock();
                held_tx.send(()).unwrap();
                release_rx.recv().unwrap();
            })
        };
        held.recv().unwrap();
        assert!(m.try_lock().is_none());
        release.send(()).unwrap();
        holder.join().unwrap();
        assert!(m.try_lock().is_some());
    }
}
