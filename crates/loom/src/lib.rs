//! A miniature model checker for the workspace's threaded engine,
//! API-compatible with the subset of the `loom` crate the engine needs
//! (the build environment has no crates.io access, so it is grown
//! in-tree).
//!
//! # What it checks
//!
//! [`model`] runs a closure many times, each time under a different
//! thread interleaving. The closure builds its threads and locks from
//! this crate's shims ([`sync`], [`thread`]); every lock acquisition,
//! release, condvar operation, atomic access, spawn, and join is a
//! *scheduling point* where a cooperative scheduler picks which thread
//! runs next. Exactly one thread is ever runnable: real OS threads are
//! parked on a scheduler condvar until chosen, so an execution is a
//! deterministic sequence of scheduling decisions. The decision
//! sequences are enumerated depth-first with a preemption bound
//! ([`Model::preemption_bound`]) — the standard context-bounding result
//! is that most real concurrency bugs manifest within two preemptions —
//! and a schedule cap as a backstop.
//!
//! Time is part of the model ([`time`]): its clock stands still while
//! any thread can run, and a timed condvar wait times out only when
//! every live thread is blocked, so code that times itself by
//! [`time::now`] takes the same path in every replay of a schedule.
//!
//! A schedule **fails** if any thread panics (assertion failures
//! propagate out of [`model`]) or if the scheduler finds every live
//! thread blocked with no timed wait to time out (deadlock — reported
//! with a panic rather than a hang).
//!
//! # What it does not check
//!
//! Interleavings only: weak-memory reorderings are *not* modeled —
//! atomics execute with the host's (sequentially consistent under the
//! single-runnable-thread regime) semantics regardless of the
//! `Ordering` argument. The `cedar-lint` `condvar-discipline` rule
//! statically checks that publish atomics carry `Release`/`Acquire`
//! orderings instead.
//!
//! Poison semantics come for free: the shims wrap the real `std::sync`
//! primitives, so a thread that panics while holding a guard poisons
//! the underlying lock exactly as in production, and the engine's
//! poison-recovery paths run unmodified.

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod sched;
pub mod sync;
pub mod thread;
pub mod time;

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Exploration bounds for [`Model::check`].
#[derive(Clone, Copy, Debug)]
pub struct Model {
    /// Maximum forced preemptions per execution (a switch away from a
    /// thread that could have kept running). 2 catches the classic
    /// bugs; raise it for a deeper (much larger) search.
    pub preemption_bound: usize,
    /// Hard cap on explored schedules; hitting it stops with a note on
    /// stderr rather than failing.
    pub max_schedules: usize,
}

impl Default for Model {
    fn default() -> Self {
        Self {
            preemption_bound: 2,
            max_schedules: 10_000,
        }
    }
}

impl Model {
    /// Explores interleavings of `f` until the decision tree is
    /// exhausted or [`Model::max_schedules`] is hit. Panics (with the
    /// failing thread's payload) on the first schedule where a thread
    /// panics or the threads deadlock.
    pub fn check<F>(&self, f: F)
    where
        F: Fn() + Send + Sync + 'static,
    {
        let f = Arc::new(f);
        let mut prefix: Vec<usize> = Vec::new();
        let mut executions = 0usize;
        loop {
            executions += 1;
            let s = Arc::new(sched::Sched::new(prefix.clone(), self.preemption_bound));
            let root = s.register();
            let (s2, fr) = (Arc::clone(&s), Arc::clone(&f));
            let handle = std::thread::Builder::new()
                .name("loom-root".into())
                .spawn(move || {
                    sched::set_current(Some((Arc::clone(&s2), root)));
                    let r = catch_unwind(AssertUnwindSafe(|| fr()));
                    s2.finish(root, r.is_err());
                    if let Err(p) = r {
                        resume_unwind(p);
                    }
                })
                .expect("loom: cannot spawn root thread");
            let deadlocked = s.wait_all_done();
            let root_result = handle.join();
            if deadlocked {
                panic!(
                    "loom: deadlock detected (schedule {executions}): every live thread is blocked"
                );
            }
            if let Err(p) = root_result {
                eprintln!("loom: schedule {executions} failed");
                resume_unwind(p);
            }
            if s.unjoined_panic() {
                panic!(
                    "loom: a spawned thread panicked and was never joined (schedule {executions})"
                );
            }
            let trace = s.take_trace();
            // Depth-first backtrack: rerun with the deepest decision
            // that still has an unexplored alternative advanced by one.
            prefix = trace.iter().map(|&(choice, _)| choice).collect();
            let mut k = trace.len();
            loop {
                if k == 0 {
                    return; // Tree exhausted: all schedules pass.
                }
                k -= 1;
                let (choice, candidates) = trace[k];
                if choice + 1 < candidates {
                    prefix.truncate(k);
                    prefix.push(choice + 1);
                    break;
                }
            }
            if executions >= self.max_schedules {
                eprintln!(
                    "loom: stopping after {executions} schedules (cap reached; \
                     exploration incomplete)"
                );
                return;
            }
        }
    }
}

/// Explores interleavings of `f` with the default bounds — see
/// [`Model::check`].
pub fn model<F>(f: F)
where
    F: Fn() + Send + Sync + 'static,
{
    Model::default().check(f)
}
