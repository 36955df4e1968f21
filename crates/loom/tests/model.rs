//! Self-tests for the miniature model checker: it must catch the
//! classic bugs (lost update, lock-order deadlock), pass correct code,
//! explore condvar hand-offs, and preserve std poison semantics.

use loom::sync::atomic::{AtomicU64, Ordering};
use loom::sync::{Arc, Condvar, Mutex};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

#[test]
fn finds_lost_update_in_racy_increment() {
    // Non-atomic read-modify-write: two threads load, then store
    // load+1. The model must find the interleaving where both load 0
    // and the final value is 1.
    let r = catch_unwind(AssertUnwindSafe(|| {
        loom::model(|| {
            let c = Arc::new(AtomicU64::new(0));
            let hs: Vec<_> = (0..2)
                .map(|_| {
                    let c = Arc::clone(&c);
                    loom::thread::spawn(move || {
                        let v = c.load(Ordering::SeqCst);
                        c.store(v + 1, Ordering::SeqCst);
                    })
                })
                .collect();
            for h in hs {
                h.join().unwrap();
            }
            assert_eq!(c.load(Ordering::SeqCst), 2, "lost update");
        });
    }));
    assert!(r.is_err(), "model missed the lost-update race");
}

#[test]
fn mutex_protected_increment_is_exact() {
    // The same counter under a mutex: every interleaving must total 2.
    loom::model(|| {
        let c = Arc::new(Mutex::new(0u64));
        let hs: Vec<_> = (0..2)
            .map(|_| {
                let c = Arc::clone(&c);
                loom::thread::spawn(move || {
                    let mut g = c.lock().unwrap();
                    *g += 1;
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(*c.lock().unwrap(), 2);
    });
}

#[test]
fn detects_lock_order_deadlock() {
    // a-then-b in one thread, b-then-a in the other: the model must
    // find the schedule where each holds one and blocks on the other.
    let r = catch_unwind(AssertUnwindSafe(|| {
        loom::model(|| {
            let a = Arc::new(Mutex::new(()));
            let b = Arc::new(Mutex::new(()));
            let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
            let h = loom::thread::spawn(move || {
                let _ga = a2.lock().unwrap();
                let _gb = b2.lock().unwrap();
            });
            {
                let _gb = b.lock().unwrap();
                let _ga = a.lock().unwrap();
            }
            let _ = h.join();
        });
    }));
    let msg = r
        .err()
        .map(|p| {
            p.downcast_ref::<String>()
                .cloned()
                .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default()
        })
        .expect("model missed the deadlock");
    assert!(msg.contains("deadlock"), "unexpected failure: {msg}");
}

#[test]
fn condvar_handoff_completes_in_every_schedule() {
    // Producer flips a flag under the mutex and notifies; consumer
    // waits in a predicate loop. Must terminate whether the notify
    // lands before or after the consumer first checks.
    loom::model(|| {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let h = loom::thread::spawn(move || {
            let (m, cv) = &*p2;
            *m.lock().unwrap() = true;
            cv.notify_all();
        });
        let (m, cv) = &*pair;
        let mut g = m.lock().unwrap();
        while !*g {
            g = cv.wait(g).unwrap();
        }
        drop(g);
        h.join().unwrap();
    });
}

#[test]
fn a_timed_wait_times_out_only_when_nothing_else_can_run() {
    // Model time stands still while any thread can run: a timed wait
    // whose notifier can still run is woken by it, and one that nobody
    // notifies times out with the clock moved by exactly its timeout.
    const HOUR: Duration = Duration::from_secs(3600);
    let timeouts = Arc::new(std::sync::Mutex::new(0));
    let seen = Arc::clone(&timeouts);
    loom::model(move || {
        let began = loom::time::now();
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let h = loom::thread::spawn(move || {
            let (m, cv) = &*p2;
            *m.lock().unwrap() = true;
            cv.notify_all();
        });
        let (m, cv) = &*pair;
        let mut g = m.lock().unwrap();
        while !*g {
            let (next, t) = cv.wait_timeout(g, HOUR).unwrap();
            assert!(!t.timed_out(), "the notifier was runnable");
            g = next;
        }
        drop(g);
        h.join().unwrap();
        assert_eq!(loom::time::now(), began);

        let lone = Mutex::new(());
        let (_g, t) = cv.wait_timeout(lone.lock().unwrap(), HOUR).unwrap();
        assert!(t.timed_out());
        assert_eq!(loom::time::now() - began, HOUR);
        *seen.lock().unwrap() += 1;
    });
    assert!(*timeouts.lock().unwrap() > 1, "more than one schedule ran");
}

#[test]
fn panic_while_holding_guard_poisons_the_lock() {
    // A thread that dies holding the guard must leave the mutex
    // poisoned — the engine's plock recovery depends on this.
    loom::model(|| {
        let m = Arc::new(Mutex::new(7u64));
        let m2 = Arc::clone(&m);
        let h = loom::thread::spawn(move || {
            let _g = m2.lock().unwrap();
            panic!("die holding the lock");
        });
        assert!(h.join().is_err());
        match m.lock() {
            Ok(_) => panic!("lock should be poisoned"),
            Err(p) => assert_eq!(*p.into_inner(), 7),
        };
    });
}

#[test]
fn unjoined_panicked_thread_fails_the_model() {
    // A spawned thread that panics and is never joined must not pass
    // silently.
    let r = catch_unwind(AssertUnwindSafe(|| {
        loom::model(|| {
            let h = loom::thread::spawn(|| panic!("dropped on the floor"));
            // Forget the handle without joining.
            std::mem::forget(h);
        });
    }));
    assert!(r.is_err(), "unjoined panic went unnoticed");
}
