//! Log-shipping replication: mode contracts, partition-tolerant
//! failover, and catch-up resync (ISSUE 10).
//!
//! The deterministic [`ReplSession`] tests pin the per-mode loss bounds
//! by comparing the promoted replica against the set of *acknowledged*
//! commits: sync and semi-sync must lose nothing acknowledged, async may
//! lose at most `max_lag_frames` commits. The threaded tests drive the
//! same protocol through [`FsdEngine::start_replicated`], including a
//! link failure surfacing as a retryable error on the client and a heal
//! that resumes shipping without losing frame order.

use cedar_disk::{CpuModel, LinkPlan, SimDisk};
use cedar_fsd::{
    EngineConfig, FsdConfig, FsdEngine, FsdVolume, ReplMode, ReplSession, ReplSessionConfig,
    ResyncKind, ShipperConfig,
};
use cedar_vol::fs::{CedarFsError, FileSystem};

fn config() -> FsdConfig {
    FsdConfig {
        nt_pages: 16,
        log_sectors: 128,
        cpu: CpuModel::FREE,
        ..FsdConfig::default()
    }
}

fn fresh() -> FsdVolume {
    FsdVolume::format(SimDisk::tiny(), config()).unwrap()
}

fn session(mode: ReplMode) -> ReplSession {
    ReplSession::new(fresh(), config(), ReplSessionConfig::for_mode(mode)).unwrap()
}

/// Creates `name` with deterministic content and commits it.
fn commit_file(s: &mut ReplSession, name: &str) -> Result<(), CedarFsError> {
    let data = format!("contents of {name}").into_bytes();
    s.primary_mut().create(name, &data).unwrap();
    s.commit()
}

fn assert_has(v: &mut FsdVolume, name: &str) {
    let mut f = v.open(name, None).unwrap();
    let data = v.read_file(&mut f).unwrap();
    assert_eq!(data, format!("contents of {name}").into_bytes(), "{name}");
}

#[test]
fn sync_round_trip_and_failover() {
    let mut s = session(ReplMode::Sync);
    for i in 0..8 {
        commit_file(&mut s, &format!("file-{i}")).unwrap();
    }
    assert_eq!(s.frames_behind(), 0, "sync never runs ahead of the ack");
    assert!(!s.lag_samples().is_empty());
    let out = s.failover().unwrap();
    let mut v = out.volume;
    for i in 0..8 {
        assert_has(&mut v, &format!("file-{i}"));
    }
    v.verify().unwrap();
}

#[test]
fn semi_sync_round_trip_and_failover() {
    let mut s = session(ReplMode::SemiSync);
    for i in 0..6 {
        commit_file(&mut s, &format!("semi-{i}")).unwrap();
    }
    let out = s.failover().unwrap();
    let mut v = out.volume;
    for i in 0..6 {
        assert_has(&mut v, &format!("semi-{i}"));
    }
    v.verify().unwrap();
}

#[test]
fn replication_carries_unlogged_data_pages_and_deletes() {
    // File data never goes through the log (§5.2) — the stream must
    // carry the raw data-area writes, and a later overwrite + delete
    // must land too.
    let mut s = session(ReplMode::Sync);
    commit_file(&mut s, "keep").unwrap();
    commit_file(&mut s, "doomed").unwrap();
    {
        let v = s.primary_mut();
        let mut f = v.open("keep", None).unwrap();
        v.write_page(&mut f, 0, b"rewritten page zero").unwrap();
        v.delete("doomed", None).unwrap();
    }
    s.commit().unwrap();
    let mut v = s.failover().unwrap().volume;
    let mut f = v.open("keep", None).unwrap();
    let page = v.read_page(&mut f, 0).unwrap();
    assert_eq!(&page[..19], b"rewritten page zero");
    assert!(v.open("doomed", None).is_err(), "delete must replicate");
    v.verify().unwrap();
}

#[test]
fn sync_partition_fails_commit_retryably_and_loses_nothing_acked() {
    let mut s = session(ReplMode::Sync);
    commit_file(&mut s, "acked").unwrap();
    s.link_mut().force_down();
    let err = commit_file(&mut s, "unacked").unwrap_err();
    assert!(err.is_retryable(), "link loss must be retryable: {err}");
    assert!(s.frames_behind() > 0);
    // Primary dies while partitioned: the unacknowledged commit is the
    // only casualty.
    let out = s.failover().unwrap();
    let mut v = out.volume;
    assert_has(&mut v, "acked");
    assert!(v.open("unacked", None).is_err());
    v.verify().unwrap();
}

#[test]
fn semi_sync_partition_fails_commit_retryably() {
    let mut s = session(ReplMode::SemiSync);
    commit_file(&mut s, "acked").unwrap();
    s.link_mut().force_down();
    let err = commit_file(&mut s, "unacked").unwrap_err();
    assert!(err.is_retryable());
    let mut v = s.failover().unwrap().volume;
    assert_has(&mut v, "acked");
    assert!(v.open("unacked", None).is_err());
}

#[test]
fn async_loss_is_bounded_by_max_lag_frames() {
    let mut cfg = ReplSessionConfig::for_mode(ReplMode::Async);
    cfg.max_lag_frames = 4;
    let mut s = ReplSession::new(fresh(), config(), cfg).unwrap();
    for i in 0..5 {
        commit_file(&mut s, &format!("before-{i}")).unwrap();
    }
    s.link_mut().force_down();
    // Up to max_lag_frames commits are acknowledged locally while the
    // link is down; the next one would exceed the bound and must fail.
    for i in 0..4 {
        commit_file(&mut s, &format!("lagged-{i}")).unwrap();
    }
    let err = commit_file(&mut s, "over-bound").unwrap_err();
    assert!(err.is_retryable());
    assert!(s.frames_behind() <= 4 + 1, "bound: lag + the failed frame");
    let out = s.failover().unwrap();
    let mut v = out.volume;
    // Everything shipped before the partition survives; the bounded
    // window of acknowledged-but-unshipped commits is the loss.
    for i in 0..5 {
        assert_has(&mut v, &format!("before-{i}"));
    }
    for i in 0..4 {
        assert!(v.open(&format!("lagged-{i}"), None).is_err());
    }
    v.verify().unwrap();
}

#[test]
fn resync_cursor_replay_after_partition() {
    let mut cfg = ReplSessionConfig::for_mode(ReplMode::Async);
    cfg.max_lag_frames = 16;
    cfg.retain_frames = 64;
    let mut s = ReplSession::new(fresh(), config(), cfg).unwrap();
    commit_file(&mut s, "pre").unwrap();
    s.link_mut().force_down();
    for i in 0..3 {
        commit_file(&mut s, &format!("during-{i}")).unwrap();
    }
    assert!(!s.needs_full_transfer());
    let out = s.resync().unwrap();
    assert_eq!(out.kind, ResyncKind::CursorReplay);
    assert_eq!(out.frames, 3);
    assert_eq!(s.frames_behind(), 0);
    commit_file(&mut s, "post").unwrap();
    let mut v = s.failover().unwrap().volume;
    for name in ["pre", "during-0", "during-1", "during-2", "post"] {
        assert_has(&mut v, name);
    }
    v.verify().unwrap();
}

#[test]
fn resync_falls_back_to_full_transfer_when_log_lapped() {
    let mut cfg = ReplSessionConfig::for_mode(ReplMode::Async);
    cfg.max_lag_frames = 16;
    cfg.retain_frames = 2;
    let mut s = ReplSession::new(fresh(), config(), cfg).unwrap();
    commit_file(&mut s, "pre").unwrap();
    s.link_mut().force_down();
    for i in 0..6 {
        commit_file(&mut s, &format!("during-{i}")).unwrap();
    }
    assert!(
        s.needs_full_transfer(),
        "retention bound of 2 must have evicted past the cursor"
    );
    let out = s.resync().unwrap();
    assert_eq!(out.kind, ResyncKind::FullTransfer);
    assert!(out.sectors > 0);
    assert_eq!(s.frames_behind(), 0);
    assert!(s.replica_stats().full_transfers >= 2, "install + reseed");
    commit_file(&mut s, "post").unwrap();
    let mut v = s.failover().unwrap().volume;
    for name in [
        "pre", "during-0", "during-1", "during-2", "during-3", "during-4", "during-5", "post",
    ] {
        assert_has(&mut v, name);
    }
    v.verify().unwrap();
}

#[test]
fn transient_drop_plan_is_retried_through() {
    let mut cfg = ReplSessionConfig::for_mode(ReplMode::Sync);
    // Drop the first and third sends; retries must carry each frame.
    cfg.link.drop_sends = vec![1, 3];
    let mut s = ReplSession::new(fresh(), config(), cfg).unwrap();
    for i in 0..4 {
        commit_file(&mut s, &format!("drop-{i}")).unwrap();
    }
    assert!(s.link_stats().dropped >= 2);
    let mut v = s.failover().unwrap().volume;
    for i in 0..4 {
        assert_has(&mut v, &format!("drop-{i}"));
    }
}

// ----- threaded engine + shipper ---------------------------------------------

#[test]
fn engine_replicated_sync_ships_every_ack() {
    let engine = FsdEngine::start_replicated(
        fresh(),
        EngineConfig::default(),
        config(),
        ShipperConfig::for_mode(ReplMode::Sync),
    )
    .unwrap();
    for i in 0..10 {
        let name = format!("eng-{i}");
        let data = format!("contents of {name}").into_bytes();
        engine.create(&name, &data).unwrap();
    }
    let handle = engine.repl_handle().unwrap();
    // Sync: acknowledged implies applied.
    assert_eq!(handle.applied_high(), handle.enqueued_high());
    let (mut primary, replica) = engine.shutdown_replicated().unwrap();
    primary.verify().unwrap();
    let (mut promoted, _report) = replica.promote().unwrap();
    for i in 0..10 {
        assert_has(&mut promoted, &format!("eng-{i}"));
    }
    promoted.verify().unwrap();
}

#[test]
fn engine_link_failure_is_retryable_and_heals_in_order() {
    let mut ship = ShipperConfig::for_mode(ReplMode::Sync);
    ship.retry_attempts = 1;
    ship.backoff_us = 100;
    let engine =
        FsdEngine::start_replicated(fresh(), EngineConfig::default(), config(), ship).unwrap();
    engine.create("before", b"contents of before").unwrap();

    let handle = engine.repl_handle().unwrap();
    handle.force_down();
    let err = engine
        .create("stalled", b"contents of stalled")
        .unwrap_err();
    assert!(err.is_retryable(), "stalled ship must be retryable: {err}");
    assert!(handle.failed().is_some());

    handle.heal();
    // New work after the heal drains the stalled frame first (strict
    // order), then its own.
    engine.create("after", b"contents of after").unwrap();
    assert_eq!(handle.applied_high(), handle.enqueued_high());
    assert!(handle.failed().is_none());

    let (_primary, replica) = engine.shutdown_replicated().unwrap();
    let (mut promoted, _) = replica.promote().unwrap();
    for name in ["before", "stalled", "after"] {
        let mut f = promoted.open(name, None).unwrap();
        let data = promoted.read_file(&mut f).unwrap();
        assert_eq!(data, format!("contents of {name}").into_bytes());
    }
    promoted.verify().unwrap();
}

#[test]
fn engine_async_mode_drains_on_shutdown() {
    let mut ship = ShipperConfig::for_mode(ReplMode::Async);
    ship.link = LinkPlan {
        latency_us: 2_000,
        bytes_per_sec: 1_000_000,
        ..LinkPlan::default()
    };
    let engine =
        FsdEngine::start_replicated(fresh(), EngineConfig::default(), config(), ship).unwrap();
    for i in 0..12 {
        let name = format!("async-{i}");
        engine
            .create(&name, format!("contents of {name}").as_bytes())
            .unwrap();
    }
    // Shutdown waits for the writer's drain and then the shipper's:
    // everything enqueued is applied by the time the replica returns.
    let (_primary, replica) = engine.shutdown_replicated().unwrap();
    assert_eq!(replica.buffered(), 0);
    let (mut promoted, _) = replica.promote().unwrap();
    for i in 0..12 {
        assert_has(&mut promoted, &format!("async-{i}"));
    }
    promoted.verify().unwrap();
}
