//! Poison-recovering lock acquisition for the server's infrastructure
//! mutexes.
//!
//! `std`'s mutex poisoning turns one panicked request into a cascading
//! outage: every later `.lock().expect(..)` on the same mutex panics
//! too, taking down unrelated connections. For the server's
//! *infrastructure* state — the job queue, the completion buffer,
//! per-ip counts, the shutdown waker — the data under the lock is a plain
//! collection that is never left half-updated across an await of user
//! code, so recovering the guard is strictly better than propagating
//! the panic. (Session engine
//! state is the exception and is handled separately: a poisoned
//! session is *shed*, not recovered — see `Handler::with_session`.)
//!
//! The method is named `lock_unpoisoned` (not a free helper) so lock
//! acquisitions keep the `receiver.method()` shape that `jim-lint`'s
//! lock-order rule keys on: `self.state.lock_unpoisoned()` still names
//! the mutex field at the call site.

use std::sync::{Condvar, Mutex, MutexGuard};

pub(crate) trait LockExt<T> {
    /// Acquire, recovering the guard from a poisoned mutex.
    fn lock_unpoisoned(&self) -> MutexGuard<'_, T>;
}

impl<T> LockExt<T> for Mutex<T> {
    fn lock_unpoisoned(&self) -> MutexGuard<'_, T> {
        self.lock().unwrap_or_else(|e| e.into_inner())
    }
}

pub(crate) trait CondvarExt {
    /// `Condvar::wait`, recovering the guard from a poisoned mutex.
    fn wait_unpoisoned<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T>;
}

impl CondvarExt for Condvar {
    fn wait_unpoisoned<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        self.wait(guard).unwrap_or_else(|e| e.into_inner())
    }
}
