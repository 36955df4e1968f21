//! Model-checked epoch hand-off for the threaded FSD engine.
//!
//! Built only under `--features loom`, which swaps the engine's
//! `crate::sync` re-exports for the in-tree model checker's shims:
//!
//! ```text
//! cargo test -p cedar-fsd --features loom --test loom_engine
//! ```
//!
//! Each test runs a tiny engine workload under [`loom::Model`], which
//! enumerates thread interleavings (every lock, condvar, atomic, spawn,
//! and join is a scheduling point) depth-first with a preemption bound.
//! The properties checked are the ones a stress test can only sample:
//!
//! * **enqueue → force → publish → wake**: an acknowledged create is
//!   readable by its client and, after join, by everyone — in every
//!   explored schedule, including the ones where the writer wakes
//!   before/after the client parks on its slot.
//! * **shutdown drain**: shutdown completes queued work, never
//!   deadlocks against the writer, and hands back a volume holding
//!   every acknowledged file.
//! * **poison on crash**: a disk power-fail during a force poisons the
//!   engine (later submissions fail fast) in every schedule, and
//!   shutdown still returns the volume.
//! * **reads off the commit clock**: a read miss is served on its own
//!   thread, under the volume lease, while a commit waits for its
//!   window, and the commit still lands.
//! * **no read of an unforced epoch**: a miss racing a write whose
//!   force crashes returns the committed bytes or the crash, never the
//!   write's, whichever of the two leases the volume first.
//! * **a miss racing shutdown**: it returns its data, and the shutdown
//!   its volume (or `Busy` while the reader still holds the engine);
//!   nothing hangs.
//! * **a replicated ack**: a sync-mode create returns `Ok` only once the
//!   replica has applied its frame, while another thread takes the
//!   shipper's lock — the one lock the log-writer takes inside an epoch
//!   — and never finds a frame acknowledged but unapplied.
//!
//! The engine reads its commit windows off model time, which stands
//! still while any thread can run: a window opens only when every other
//! thread is blocked and the log-writer's timed wait times out.
//!
//! The schedule caps below bound CI time; the model prints a note when
//! a cap truncates exploration rather than silently passing.

#![cfg(feature = "loom")]

use cedar_disk::{CpuModel, CrashPlan, SimDisk};
use cedar_fsd::engine::{EngineConfig, FsdEngine};
use cedar_fsd::volume::FsdVolume;
use cedar_fsd::{FsdConfig, ReplMode, ReplSessionConfig};
use cedar_vol::fs::{CedarFsError, FileSystem, FsBackend};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn small_cfg() -> FsdConfig {
    FsdConfig {
        nt_pages: 96,
        log_sectors: 256,
        cpu: CpuModel::FREE,
        ..Default::default()
    }
}

fn small_vol() -> FsdVolume {
    FsdVolume::format(SimDisk::tiny(), small_cfg()).unwrap()
}

#[test]
fn epoch_handoff_acknowledged_create_is_readable() {
    loom::Model {
        preemption_bound: 2,
        max_schedules: 300,
    }
    .check(|| {
        let e = Arc::new(FsdEngine::start(small_vol(), EngineConfig::default()).unwrap());
        let e2 = Arc::clone(&e);
        let client = loom::thread::spawn(move || {
            // Acknowledge means the epoch forced: the write must be
            // readable by its own submitter immediately (read-your-
            // writes through the published map).
            e2.create("a", b"payload").unwrap();
            assert_eq!(e2.read("a").unwrap(), b"payload");
        });
        client.join().unwrap();
        // After the client joined, the publish must be visible to any
        // other thread too.
        assert_eq!(e.read("a").unwrap(), b"payload");
        let mut vol = FsdEngine::shutdown_arc(e).unwrap();
        assert_eq!(FsBackend::read(&mut vol, "a").unwrap(), b"payload");
    });
}

#[test]
fn two_clients_epochs_merge_without_loss() {
    loom::Model {
        preemption_bound: 2,
        max_schedules: 300,
    }
    .check(|| {
        let e = Arc::new(FsdEngine::start(small_vol(), EngineConfig::default()).unwrap());
        let hs: Vec<_> = [("c0/f", b"zero".as_slice()), ("c1/f", b"one".as_slice())]
            .into_iter()
            .map(|(name, data)| {
                let e = Arc::clone(&e);
                loom::thread::spawn(move || {
                    e.create(name, data).unwrap();
                    assert_eq!(e.read(name).unwrap(), data);
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        // Whatever order the two epochs committed in, neither write may
        // shadow the other in the published map.
        assert_eq!(e.read("c0/f").unwrap(), b"zero");
        assert_eq!(e.read("c1/f").unwrap(), b"one");
        drop(e);
    });
}

#[test]
fn shutdown_drains_and_returns_every_acknowledged_file() {
    loom::Model {
        preemption_bound: 2,
        max_schedules: 300,
    }
    .check(|| {
        let e = Arc::new(FsdEngine::start(small_vol(), EngineConfig::default()).unwrap());
        let e2 = Arc::clone(&e);
        let client = loom::thread::spawn(move || {
            e2.create("d/x", b"1").unwrap();
            e2.create("d/y", b"22").unwrap();
        });
        client.join().unwrap();
        // Shutdown must drain (both acknowledged creates durable) and
        // must not deadlock against the writer's wake protocol in any
        // schedule.
        let mut vol = FsdEngine::shutdown_arc(e).unwrap();
        assert_eq!(FsBackend::list(&mut vol, "d/").unwrap().len(), 2);
        assert!(vol.verify().is_ok());
    });
}

#[test]
fn crash_during_force_poisons_in_every_schedule() {
    loom::Model {
        preemption_bound: 2,
        max_schedules: 300,
    }
    .check(|| {
        let mut vol = small_vol();
        // The very next durable sector write power-fails the disk, so
        // the first epoch's force reports the crash.
        vol.disk_mut().schedule_crash(CrashPlan {
            after_sector_writes: 0,
            damaged_tail: 1,
        });
        let e = Arc::new(FsdEngine::start(vol, EngineConfig::default()).unwrap());
        let e2 = Arc::clone(&e);
        let client = loom::thread::spawn(move || {
            // The op's epoch never commits: the submitter gets the
            // crash error back, never a false Ok.
            assert!(e2.create("doomed", b"x").is_err());
        });
        client.join().unwrap();
        // The crash must have poisoned the engine — fail-fast, with no
        // schedule where a later submission sneaks through.
        assert!(e.poisoned().is_some());
        assert!(e.create("late", b"y").is_err());
        // The writer reports the error rather than dying: shutdown
        // still hands the volume back.
        assert!(FsdEngine::shutdown_arc(e).is_ok());
    });
}

/// A volume holding `name` as its committed version 1, published
/// uncached by any engine started over it: its first read misses.
fn committed_vol(name: &str, data: &[u8]) -> FsdVolume {
    let mut vol = small_vol();
    FsBackend::create(&mut vol, name, data).unwrap();
    vol.force().unwrap();
    vol
}

#[test]
fn a_read_miss_is_served_while_a_commit_waits_for_its_window() {
    loom::Model {
        preemption_bound: 2,
        max_schedules: 300,
    }
    .check(|| {
        let e = Arc::new(
            FsdEngine::start(committed_vol("old", b"cold"), EngineConfig::default()).unwrap(),
        );
        // The first window is open from the start; this sync takes it.
        e.sync().unwrap();
        let e2 = Arc::clone(&e);
        let client = loom::thread::spawn(move || {
            e2.create("new", b"hot").unwrap();
        });
        // Whether the create is queued yet or not, the miss completes on
        // this thread: the writer returned the lease before the sync
        // returned, and cannot take it back for the create's epoch
        // before its window opens, which it cannot while this thread
        // runs.
        assert_eq!(e.read("old").unwrap(), b"cold");
        assert_eq!(e.engine_stats().read_misses, 1);
        assert_eq!(e.engine_stats().epochs, 1);
        // The create commits when its window opens, and is published.
        client.join().unwrap();
        assert_eq!(e.read("new").unwrap(), b"hot");
        let mut vol = FsdEngine::shutdown_arc(e).unwrap();
        assert_eq!(FsBackend::read(&mut vol, "new").unwrap(), b"hot");
    });
}

#[test]
fn a_read_miss_never_sees_an_applied_but_unforced_epoch() {
    // Which order the two reach the volume in, counted over the
    // explored schedules: the model must have tried both.
    static READ_FIRST: AtomicUsize = AtomicUsize::new(0);
    static CRASH_FIRST: AtomicUsize = AtomicUsize::new(0);
    loom::Model {
        preemption_bound: 2,
        // The crash-first order needs two early preemptions, which the
        // depth-first search reaches only after a few thousand schedules.
        max_schedules: 5_000,
    }
    .check(|| {
        let mut vol = committed_vol("x", b"committed");
        // The empty version's leader sector lands; the force's first log
        // sector does not. Reading that version takes no disk I/O, so
        // nothing but the poison keeps a miss from it.
        vol.disk_mut().schedule_crash(CrashPlan {
            after_sector_writes: 1,
            damaged_tail: 0,
        });
        let e = Arc::new(FsdEngine::start(vol, EngineConfig::default()).unwrap());
        let e2 = Arc::clone(&e);
        let writer = loom::thread::spawn(move || e2.write("x", b""));
        let read = e.read("x");
        let crashed = CedarFsError::Disk(cedar_disk::DiskError::Crashed);
        if read == Ok(b"committed".to_vec()) {
            READ_FIRST.fetch_add(1, Ordering::Relaxed);
        } else {
            assert_eq!(read, Err(crashed.clone()));
            CRASH_FIRST.fetch_add(1, Ordering::Relaxed);
        }
        assert_eq!(writer.join().unwrap().err(), Some(crashed));
        assert!(FsdEngine::shutdown_arc(e).is_ok());
    });
    assert!(READ_FIRST.load(Ordering::Relaxed) > 0);
    assert!(CRASH_FIRST.load(Ordering::Relaxed) > 0);
}

#[test]
fn a_miss_racing_shutdown_returns_its_data_and_never_hangs() {
    // Schedules in which the shutdown found the reader done, and in
    // which it found the reader still holding the engine.
    static SHUT_DOWN: AtomicUsize = AtomicUsize::new(0);
    static REFUSED: AtomicUsize = AtomicUsize::new(0);
    loom::Model {
        preemption_bound: 2,
        max_schedules: 300,
    }
    .check(|| {
        let e = Arc::new(
            FsdEngine::start(committed_vol("old", b"cold"), EngineConfig::default()).unwrap(),
        );
        let e2 = Arc::clone(&e);
        // While the reader holds its handle, the shutdown is refused
        // with `Busy`; the reader's handle is then the engine's last,
        // and its drop stops the writer on the reader's thread.
        let reader = loom::thread::spawn(move || e2.read("old"));
        match FsdEngine::shutdown_arc(e) {
            Ok(mut vol) => {
                assert_eq!(FsBackend::read(&mut vol, "old").unwrap(), b"cold");
                SHUT_DOWN.fetch_add(1, Ordering::Relaxed);
            }
            Err(err) => {
                assert!(matches!(err, CedarFsError::Busy(_)), "{err:?}");
                REFUSED.fetch_add(1, Ordering::Relaxed);
            }
        }
        assert_eq!(reader.join().unwrap().unwrap(), b"cold");
    });
    assert!(SHUT_DOWN.load(Ordering::Relaxed) > 0);
    assert!(REFUSED.load(Ordering::Relaxed) > 0);
}

#[test]
fn a_sync_replicated_create_returns_only_after_the_replica_applied_it() {
    // Whether the lock was taken before or after the epoch shipped,
    // counted over the explored schedules: the model must try both.
    static BEFORE: AtomicUsize = AtomicUsize::new(0);
    static AFTER: AtomicUsize = AtomicUsize::new(0);
    loom::Model {
        preemption_bound: 2,
        max_schedules: 300,
    }
    .check(|| {
        let e = Arc::new(
            FsdEngine::start_replicated(
                small_vol(),
                EngineConfig::default(),
                small_cfg(),
                ReplSessionConfig::for_mode(ReplMode::Sync),
            )
            .unwrap(),
        );
        let e2 = Arc::clone(&e);
        let client = loom::thread::spawn(move || {
            e2.create("a", b"payload").unwrap();
            // Ok from a sync-mode create means the replica has applied
            // the frame: at this very point, not merely eventually.
            let (behind, applied) = e2
                .with_repl(|s| (s.frames_behind(), s.replica_stats().frames_applied))
                .unwrap();
            assert_eq!(behind, 0, "sync mode acked before the replica applied");
            assert_eq!(applied, 1);
        });
        // The writer ships under the shipper's lock inside its epoch;
        // taken from another thread, before, during or after that
        // epoch, the lock never shows a frame acknowledged but not
        // applied.
        let e3 = Arc::clone(&e);
        let observer = loom::thread::spawn(move || {
            let (behind, acked, applied) = e3
                .with_repl(|s| {
                    let stats = s.replica_stats();
                    (s.frames_behind(), s.acked_high(), stats.frames_applied)
                })
                .unwrap();
            assert_eq!(behind, 0);
            assert_eq!(acked > 0, applied > 0);
            let order = if applied > 0 { &AFTER } else { &BEFORE };
            order.fetch_add(1, Ordering::Relaxed);
        });
        observer.join().unwrap();
        client.join().unwrap();
        let e = Arc::try_unwrap(e).ok().unwrap();
        let (_vol, replica) = e.shutdown_replicated().unwrap();
        assert_eq!(replica.buffered(), 0);
        assert_eq!(replica.stats().frames_applied, 1);
    });
    assert!(BEFORE.load(Ordering::Relaxed) > 0);
    assert!(AFTER.load(Ordering::Relaxed) > 0);
}
