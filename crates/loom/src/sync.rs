//! Drop-in `std::sync` shims: the same types and signatures the engine
//! already uses, but every acquisition, release, condvar operation, and
//! atomic access is a scheduling point when the calling thread belongs
//! to a running model.
//!
//! Each primitive wraps its real `std::sync` counterpart, so data is
//! still protected by a real lock and — crucially — poison semantics
//! are inherited rather than simulated: a model thread that panics
//! while holding a guard poisons the underlying std mutex, and the
//! engine's poison-recovery paths run unmodified. Outside a model
//! (TLS has no scheduler), every shim degrades to plain std behaviour.

use crate::sched;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::OnceLock;
use std::sync::RwLockWriteGuard as StdWriteGuard;
use std::sync::{Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdMutexGuard};
use std::sync::{RwLock as StdRwLock, RwLockReadGuard as StdReadGuard};
use std::time::Duration;

pub use std::sync::{Arc, LockResult, PoisonError};

/// Model resource ids are allocated lazily on first contention-relevant
/// use, so constructing a primitive stays `const`-friendly and cheap.
fn lazy_id(slot: &OnceLock<usize>) -> usize {
    *slot.get_or_init(sched::alloc_resource)
}

// ---------------------------------------------------------------------------
// Mutex

/// A mutual-exclusion lock whose acquisitions are scheduling points.
pub struct Mutex<T> {
    id: OnceLock<usize>,
    inner: StdMutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a new unlocked mutex.
    pub fn new(t: T) -> Self {
        Self {
            id: OnceLock::new(),
            inner: StdMutex::new(t),
        }
    }

    fn id(&self) -> usize {
        lazy_id(&self.id)
    }

    /// Acquires the lock, blocking the calling model thread until the
    /// scheduler can grant it. Returns `Err` wrapping a live guard when
    /// another thread panicked while holding the lock, exactly as std.
    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        if let Some((s, me)) = sched::current() {
            s.acquire_mutex(me, self.id());
        }
        wrap_guard(self, self.inner.lock())
    }

    /// Consumes the mutex, returning its data (poison surfaced as std).
    pub fn into_inner(self) -> LockResult<T> {
        self.inner
            .into_inner()
            .map_err(|p| PoisonError::new(p.into_inner()))
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mutex").finish_non_exhaustive()
    }
}

fn wrap_guard<'a, T>(
    lock: &'a Mutex<T>,
    r: LockResult<StdMutexGuard<'a, T>>,
) -> LockResult<MutexGuard<'a, T>> {
    match r {
        Ok(g) => Ok(MutexGuard {
            lock,
            inner: Some(g),
            defused: false,
        }),
        Err(p) => Err(PoisonError::new(MutexGuard {
            lock,
            inner: Some(p.into_inner()),
            defused: false,
        })),
    }
}

/// RAII guard for [`Mutex`]; dropping it is a scheduling point.
pub struct MutexGuard<'a, T> {
    lock: &'a Mutex<T>,
    inner: Option<StdMutexGuard<'a, T>>,
    /// Set by [`Condvar::wait`], which releases the lock itself.
    defused: bool,
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("defused guard dereferenced")
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("defused guard dereferenced")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        if self.defused {
            return;
        }
        // Release the real lock first (poisoning it if unwinding), then
        // tell the model — by the time another thread is scheduled, the
        // std mutex is free for it.
        drop(self.inner.take());
        if let Some((s, me)) = sched::current() {
            s.release_mutex(me, self.lock.id());
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            Some(g) => fmt::Debug::fmt(&**g, f),
            None => f.write_str("<defused>"),
        }
    }
}

// ---------------------------------------------------------------------------
// Condvar

/// A condition variable whose waits and notifies are scheduling points.
///
/// Model waits park on the scheduler (FIFO queue per condvar), not on
/// the real `std::sync::Condvar`, so lost-wakeup and wake-ordering
/// interleavings are explored deterministically.
#[derive(Default)]
pub struct Condvar {
    id: OnceLock<usize>,
    inner: StdCondvar,
}

impl Condvar {
    /// Creates a new condition variable.
    pub fn new() -> Self {
        Self::default()
    }

    fn id(&self) -> usize {
        lazy_id(&self.id)
    }

    /// Atomically releases `guard`'s mutex and waits to be notified,
    /// then re-acquires the mutex. Poison is reported exactly as std:
    /// `Err` wraps a live guard when the mutex was poisoned.
    pub fn wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
        let lock = guard.lock;
        if let Some((s, me)) = sched::current() {
            guard.defused = true;
            drop(guard.inner.take()); // free the real mutex
            drop(guard);
            s.cv_wait(me, self.id(), lock.id(), None);
            lock.lock()
        } else {
            guard.defused = true;
            let std_guard = guard.inner.take().expect("defused guard in wait");
            drop(guard);
            wrap_guard(lock, self.inner.wait(std_guard))
        }
    }

    /// [`Condvar::wait`] that also returns once `dur` has passed. Under a
    /// model, `dur` is model time (see [`crate::time::now`]), which
    /// stands still while any thread can run: the timeout fires only
    /// when every other live thread is blocked and no other timed wait
    /// is due sooner, and then the clock moves to its deadline.
    pub fn wait_timeout<'a, T>(
        &self,
        mut guard: MutexGuard<'a, T>,
        dur: Duration,
    ) -> LockResult<(MutexGuard<'a, T>, WaitTimeoutResult)> {
        let lock = guard.lock;
        guard.defused = true;
        let (relocked, timed_out) = if let Some((s, me)) = sched::current() {
            drop(guard.inner.take()); // free the real mutex
            drop(guard);
            let timed_out = s.cv_wait(me, self.id(), lock.id(), Some(dur));
            (lock.lock(), timed_out)
        } else {
            let std_guard = guard.inner.take().expect("defused guard in wait_timeout");
            drop(guard);
            match self.inner.wait_timeout(std_guard, dur) {
                Ok((g, t)) => (wrap_guard(lock, Ok(g)), t.timed_out()),
                Err(p) => {
                    let (g, t) = p.into_inner();
                    (wrap_guard(lock, Err(PoisonError::new(g))), t.timed_out())
                }
            }
        };
        let result = WaitTimeoutResult(timed_out);
        match relocked {
            Ok(g) => Ok((g, result)),
            Err(p) => Err(PoisonError::new((p.into_inner(), result))),
        }
    }

    /// Wakes one waiter (the longest-parked one, under a model).
    pub fn notify_one(&self) {
        if let Some((s, me)) = sched::current() {
            s.notify(me, self.id(), false);
        } else {
            self.inner.notify_one();
        }
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        if let Some((s, me)) = sched::current() {
            s.notify(me, self.id(), true);
        } else {
            self.inner.notify_all();
        }
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Condvar").finish_non_exhaustive()
    }
}

/// Whether a [`Condvar::wait_timeout`] returned because its time ran
/// out (std's type has no public constructor).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// True if the wait ended by timeout rather than a notify.
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

// ---------------------------------------------------------------------------
// RwLock

/// A reader-writer lock whose acquisitions are scheduling points.
pub struct RwLock<T> {
    id: OnceLock<usize>,
    inner: StdRwLock<T>,
}

impl<T> RwLock<T> {
    /// Creates a new unlocked reader-writer lock.
    pub fn new(t: T) -> Self {
        Self {
            id: OnceLock::new(),
            inner: StdRwLock::new(t),
        }
    }

    fn id(&self) -> usize {
        lazy_id(&self.id)
    }

    /// Acquires a shared read guard.
    pub fn read(&self) -> LockResult<RwLockReadGuard<'_, T>> {
        if let Some((s, me)) = sched::current() {
            s.acquire_read(me, self.id());
        }
        match self.inner.read() {
            Ok(g) => Ok(RwLockReadGuard {
                lock: self,
                inner: Some(g),
            }),
            Err(p) => Err(PoisonError::new(RwLockReadGuard {
                lock: self,
                inner: Some(p.into_inner()),
            })),
        }
    }

    /// Acquires the exclusive write guard.
    pub fn write(&self) -> LockResult<RwLockWriteGuard<'_, T>> {
        if let Some((s, me)) = sched::current() {
            s.acquire_write(me, self.id());
        }
        match self.inner.write() {
            Ok(g) => Ok(RwLockWriteGuard {
                lock: self,
                inner: Some(g),
            }),
            Err(p) => Err(PoisonError::new(RwLockWriteGuard {
                lock: self,
                inner: Some(p.into_inner()),
            })),
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RwLock").finish_non_exhaustive()
    }
}

/// Shared RAII guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T> {
    lock: &'a RwLock<T>,
    inner: Option<StdReadGuard<'a, T>>,
}

impl<T> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("read guard")
    }
}

impl<T> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        drop(self.inner.take());
        if let Some((s, me)) = sched::current() {
            s.release_read(me, self.lock.id());
        }
    }
}

/// Exclusive RAII guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T> {
    lock: &'a RwLock<T>,
    inner: Option<StdWriteGuard<'a, T>>,
}

impl<T> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("write guard")
    }
}

impl<T> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("write guard")
    }
}

impl<T> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        drop(self.inner.take());
        if let Some((s, me)) = sched::current() {
            s.release_write(me, self.lock.id());
        }
    }
}

// ---------------------------------------------------------------------------
// Atomics

/// Model-aware atomic integers and flags.
///
/// Each operation is a scheduling point, so interleavings around the
/// engine's epoch counter and stats are explored. Orderings are
/// accepted (and forwarded to the host atomic) but weak-memory
/// reordering is *not* modeled — the `condvar-discipline` lint checks
/// publish orderings statically instead.
pub mod atomic {
    use crate::sched;

    pub use std::sync::atomic::Ordering;

    macro_rules! atomic_shim {
        ($name:ident, $std:ident, $ty:ty) => {
            /// Model-aware wrapper over the std atomic of the same name:
            /// every operation is a scheduling point.
            #[derive(Debug, Default)]
            pub struct $name {
                inner: std::sync::atomic::$std,
            }

            impl $name {
                /// Creates a new atomic with the given initial value.
                pub fn new(v: $ty) -> Self {
                    Self {
                        inner: std::sync::atomic::$std::new(v),
                    }
                }

                /// Loads the value.
                pub fn load(&self, order: Ordering) -> $ty {
                    sched::yield_point();
                    self.inner.load(order)
                }

                /// Stores a value.
                pub fn store(&self, v: $ty, order: Ordering) {
                    sched::yield_point();
                    self.inner.store(v, order);
                }

                /// Swaps in a value, returning the previous one.
                pub fn swap(&self, v: $ty, order: Ordering) -> $ty {
                    sched::yield_point();
                    self.inner.swap(v, order)
                }
            }
        };
    }

    atomic_shim!(AtomicU64, AtomicU64, u64);
    atomic_shim!(AtomicUsize, AtomicUsize, usize);
    atomic_shim!(AtomicBool, AtomicBool, bool);

    macro_rules! atomic_arith {
        ($name:ident, $ty:ty) => {
            impl $name {
                /// Adds to the value, returning the previous one.
                pub fn fetch_add(&self, v: $ty, order: Ordering) -> $ty {
                    sched::yield_point();
                    self.inner.fetch_add(v, order)
                }

                /// Subtracts from the value, returning the previous one.
                pub fn fetch_sub(&self, v: $ty, order: Ordering) -> $ty {
                    sched::yield_point();
                    self.inner.fetch_sub(v, order)
                }
            }
        };
    }

    atomic_arith!(AtomicU64, u64);
    atomic_arith!(AtomicUsize, usize);
}
