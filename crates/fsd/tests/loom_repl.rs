//! Model-checked log-writer → shipper epoch hand-off (ISSUE 10,
//! satellite 3).
//!
//! Built only under `--features loom` (same harness as
//! `loom_engine.rs`):
//!
//! ```text
//! cargo test -p cedar-fsd --features loom --test loom_repl
//! ```
//!
//! The property under check is the acknowledgement-ordering contract of
//! the replication modes: **a client is never released before the
//! mode's durability point**, in every explored interleaving of the
//! client, the log-writer, and the shipper — including schedules where
//! the shipper runs ahead, lags an entire epoch, or meets a partition
//! mid-force:
//!
//! * **sync hand-off**: when `create` returns `Ok`, the frame carrying
//!   it is already *applied* on the replica (`applied_high` covers it),
//!   in every schedule of the three threads.
//! * **partition during force**: with the link forced down while an
//!   epoch is committing, the client must observe the retryable `Link`
//!   error (never a false `Ok`), and the frame stays queued — healing
//!   and kicking the shipper ships it, in order, in every schedule.
//! * **shutdown drain**: `shutdown_replicated` never deadlocks against
//!   the writer/shipper pair, and the replica it returns has applied
//!   every acknowledged frame.

#![cfg(feature = "loom")]

use cedar_disk::{CpuModel, SimDisk};
use cedar_fsd::engine::{EngineConfig, FsdEngine};
use cedar_fsd::volume::FsdVolume;
use cedar_fsd::{FsdConfig, ReplMode, ShipperConfig};
use cedar_vol::fs::FileSystem;
use std::sync::Arc;

fn small_vol() -> FsdVolume {
    FsdVolume::format(
        SimDisk::tiny(),
        FsdConfig {
            nt_pages: 96,
            log_sectors: 256,
            cpu: CpuModel::FREE,
            ..Default::default()
        },
    )
    .unwrap()
}

fn small_fsd_cfg() -> FsdConfig {
    FsdConfig {
        nt_pages: 96,
        log_sectors: 256,
        cpu: CpuModel::FREE,
        ..Default::default()
    }
}

/// A zero-latency, unlimited-bandwidth link so the only variability the
/// model explores is thread scheduling, never simulated time.
fn instant_link(mode: ReplMode) -> ShipperConfig {
    let mut ship = ShipperConfig::for_mode(mode);
    ship.link.latency_us = 0;
    ship.link.bytes_per_sec = 0;
    ship.retry_attempts = 1;
    ship.backoff_us = 1;
    ship
}

#[test]
fn sync_ack_never_precedes_replica_apply() {
    loom::Model {
        preemption_bound: 2,
        max_schedules: 300,
    }
    .check(|| {
        let e = Arc::new(
            FsdEngine::start_replicated(
                small_vol(),
                EngineConfig::default(),
                small_fsd_cfg(),
                instant_link(ReplMode::Sync),
            )
            .unwrap(),
        );
        let e2 = Arc::clone(&e);
        let client = loom::thread::spawn(move || {
            e2.create("a", b"payload").unwrap();
            // The ack ordering under test: Ok from a sync-mode create
            // means the shipper has applied the frame — at this very
            // point, not merely eventually.
            let h = e2.repl_handle().unwrap();
            assert!(
                h.applied_high() >= h.enqueued_high(),
                "sync mode acked before the replica applied"
            );
        });
        client.join().unwrap();
        let e = Arc::try_unwrap(e).ok().unwrap();
        let (_vol, replica) = e.shutdown_replicated().unwrap();
        assert_eq!(replica.buffered(), 0);
        assert!(replica.stats().frames_applied >= 1);
    });
}

#[test]
fn semi_sync_ack_never_precedes_replica_receive() {
    loom::Model {
        preemption_bound: 2,
        max_schedules: 300,
    }
    .check(|| {
        let e = Arc::new(
            FsdEngine::start_replicated(
                small_vol(),
                EngineConfig::default(),
                small_fsd_cfg(),
                instant_link(ReplMode::SemiSync),
            )
            .unwrap(),
        );
        let e2 = Arc::clone(&e);
        let client = loom::thread::spawn(move || {
            e2.create("s", b"payload").unwrap();
            let h = e2.repl_handle().unwrap();
            assert!(
                h.shipped_high() >= h.enqueued_high(),
                "semi-sync mode acked before the replica received"
            );
        });
        client.join().unwrap();
        let e = Arc::try_unwrap(e).ok().unwrap();
        let (_vol, replica) = e.shutdown_replicated().unwrap();
        // Shutdown drain: received implies applied by the time the
        // replica is handed back.
        assert_eq!(replica.buffered(), 0);
    });
}

#[test]
fn partition_during_force_fails_client_then_heals_in_order() {
    loom::Model {
        preemption_bound: 2,
        max_schedules: 200,
    }
    .check(|| {
        let e = Arc::new(
            FsdEngine::start_replicated(
                small_vol(),
                EngineConfig::default(),
                small_fsd_cfg(),
                instant_link(ReplMode::Sync),
            )
            .unwrap(),
        );
        // Partition before the epoch ships: the client's commit is
        // durable on the primary but must NOT be acknowledged.
        e.repl_handle().unwrap().force_down();
        let e2 = Arc::clone(&e);
        let client = loom::thread::spawn(move || {
            let err = e2.create("p", b"x").unwrap_err();
            assert!(err.is_retryable(), "partition must surface retryable");
        });
        client.join().unwrap();
        let h = e.repl_handle().unwrap();
        assert!(h.applied_high() < h.enqueued_high());
        // Heal: the stalled frame ships (strict order) and the next
        // commit acks normally in every schedule.
        h.heal();
        e.create("q", b"y").unwrap();
        let h = e.repl_handle().unwrap();
        assert!(h.applied_high() >= h.enqueued_high());
        let e = Arc::try_unwrap(e).ok().unwrap();
        let (_vol, replica) = e.shutdown_replicated().unwrap();
        assert_eq!(replica.buffered(), 0);
    });
}
