//! The engine's locks: `std::sync` without lock poisoning.
//!
//! Every structure the engine guards with a lock is valid at each step of an
//! update (counters, caches, a catalog whose writers restore it on error), so
//! a thread that panics while holding one must not wedge every statement
//! behind it. That contract is stated here once: each acquisition recovers a
//! poisoned lock with `into_inner`. The guards are the std guards.

use std::sync::{self, PoisonError, TryLockError};
use std::time::Duration;

pub(crate) type MutexGuard<'a, T> = sync::MutexGuard<'a, T>;
pub(crate) type RwLockReadGuard<'a, T> = sync::RwLockReadGuard<'a, T>;
pub(crate) type RwLockWriteGuard<'a, T> = sync::RwLockWriteGuard<'a, T>;

#[derive(Debug, Default)]
pub(crate) struct Mutex<T>(sync::Mutex<T>);

impl<T> Mutex<T> {
    pub(crate) const fn new(value: T) -> Self {
        Mutex(sync::Mutex::new(value))
    }

    pub(crate) fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(guard) => Some(guard),
            Err(TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    pub(crate) fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

#[derive(Debug, Default)]
pub(crate) struct RwLock<T>(sync::RwLock<T>);

impl<T> RwLock<T> {
    pub(crate) const fn new(value: T) -> Self {
        RwLock(sync::RwLock::new(value))
    }

    pub(crate) fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Condition variable over [`Mutex`] guards; a wait recovers poison the same
/// way an acquisition does.
#[derive(Debug, Default)]
pub(crate) struct Condvar(sync::Condvar);

impl Condvar {
    pub(crate) const fn new() -> Self {
        Condvar(sync::Condvar::new())
    }

    pub(crate) fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        self.0.wait(guard).unwrap_or_else(PoisonError::into_inner)
    }

    /// Wait at most `timeout`; the caller re-checks its own deadline.
    pub(crate) fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        timeout: Duration,
    ) -> MutexGuard<'a, T> {
        let (guard, _timed_out) = self
            .0
            .wait_timeout(guard, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        guard
    }

    pub(crate) fn notify_all(&self) {
        self.0.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Panic on another thread while it holds whatever `hold` acquires.
    fn panic_holding<L: Send + Sync + 'static>(lock: &Arc<L>, hold: fn(&L)) {
        let lock = Arc::clone(lock);
        let worker = std::thread::spawn(move || hold(&lock));
        assert!(worker.join().is_err(), "the worker panics");
    }

    #[test]
    fn a_panic_under_a_lock_leaves_it_usable() {
        let mutex = Arc::new(Mutex::new(1));
        panic_holding(&mutex, |m| {
            let _held = m.lock();
            panic!("worker panicked holding the mutex");
        });
        *mutex.lock() += 1;
        assert_eq!(mutex.try_lock().map(|g| *g), Some(2));
        let cond = Condvar::new();
        let guard = cond.wait_timeout(mutex.lock(), Duration::from_millis(1));
        assert_eq!(*guard, 2);
        drop(guard);
        let mutex = Arc::try_unwrap(mutex).expect("the worker is gone");
        assert_eq!(mutex.into_inner(), 2);

        let rwlock = Arc::new(RwLock::new(1));
        panic_holding(&rwlock, |l| {
            let _held = l.write();
            panic!("worker panicked holding the write lock");
        });
        *rwlock.write() += 1;
        assert_eq!(*rwlock.read(), 2);
    }
}
