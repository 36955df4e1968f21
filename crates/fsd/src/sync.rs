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
//! type, and the pacer is disabled (`pace_scale: None`) in model tests
//! so wall-clock time never becomes a scheduling concern (the
//! commit-window wait is `thread::sleep`: a scheduling point there).

#[cfg(feature = "loom")]
pub use loom::sync::atomic;
#[cfg(feature = "loom")]
pub use loom::sync::{Condvar, Mutex, MutexGuard, RwLock};
#[cfg(feature = "loom")]
pub use loom::thread;

#[cfg(not(feature = "loom"))]
pub use std::sync::atomic;
#[cfg(not(feature = "loom"))]
pub use std::sync::{Condvar, Mutex, MutexGuard, RwLock};
#[cfg(not(feature = "loom"))]
pub use std::thread;
