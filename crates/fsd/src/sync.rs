//! Synchronization primitives for the engine, swappable for the
//! in-tree `loom` model checker.
//!
//! The threaded engine (`engine.rs`) takes all of its lock, condvar,
//! atomic, and thread types from this module instead of `std` directly.
//! In a normal build these re-exports *are* the std types — zero cost.
//! Under `--features loom` they become the model checker's shims, whose
//! every acquisition, wait, notify, atomic access, spawn, and join is a
//! scheduling point, so `tests/loom_engine.rs` can enumerate the
//! engine's epoch hand-off interleavings exhaustively (within a
//! preemption bound).
//!
//! `Arc`, `Instant`, and `Duration` intentionally stay `std` in both
//! configurations: the shutdown path's `Arc::try_unwrap` needs the real
//! type. The commit window's clock is read through [`now`], which under
//! `loom` is model time: it stands still while any model thread can run,
//! so a window opens only when every other thread is blocked and the
//! log-writer's timed wait times out — the same path in every replay of
//! a schedule. The pacer is disabled (`pace_scale: None`) in model
//! tests, so its host clock and sleeps never become a scheduling
//! concern.

#[cfg(feature = "loom")]
pub use loom::sync::atomic;
#[cfg(feature = "loom")]
pub use loom::sync::{Condvar, Mutex, MutexGuard, RwLock};
#[cfg(feature = "loom")]
pub use loom::thread;
#[cfg(feature = "loom")]
pub use loom::time::now;

#[cfg(not(feature = "loom"))]
pub use std::sync::atomic;
#[cfg(not(feature = "loom"))]
pub use std::sync::{Condvar, Mutex, MutexGuard, RwLock};
#[cfg(not(feature = "loom"))]
pub use std::thread;
/// The clock commit windows are timed by.
#[cfg(not(feature = "loom"))]
pub fn now() -> std::time::Instant {
    std::time::Instant::now()
}
