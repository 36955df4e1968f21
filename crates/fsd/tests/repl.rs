//! Log-shipping replication: mode contracts, partition-tolerant
//! failover, and catch-up resync (ISSUE 10).
//!
//! The deterministic tests hold a primary and its [`Shipper`], commit
//! as the engine's log-writer does (force, then ship), and pin the
//! per-mode loss bounds by comparing the promoted replica against the
//! set of *acknowledged* commits: sync and semi-sync must lose nothing
//! acknowledged, async may lose at most `max_lag_frames` commits. The
//! threaded tests drive the same shipper from the log-writer of
//! [`FsdEngine::start_replicated`], including a link failure surfacing
//! as a retryable error on the client, a heal that resumes shipping
//! without losing frame order, and a resync after a partition that
//! outlived the retained frames.

use cedar_disk::{CpuModel, CrashPlan, FaultPlan, LinkPlan, SimDisk, SECTOR_BYTES};
use cedar_fsd::log::{encode_record, PageTarget, DATA_START};
use cedar_fsd::{
    DataWrite, EngineConfig, FsdConfig, FsdEngine, FsdVolume, ReplFrame, ReplMode,
    ReplSessionConfig, Replica, ResyncKind, Shipper,
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

/// A fresh primary and a [`Shipper`] that installed its replica.
fn install(cfg: ReplSessionConfig) -> (FsdVolume, Shipper) {
    let mut p = fresh();
    let sh = Shipper::new(&mut p, config(), cfg).unwrap();
    (p, sh)
}

/// Creates `name` with deterministic content on the primary `p`, then
/// commits it: forces the log and ships what the force sealed.
fn commit_file(p: &mut FsdVolume, sh: &mut Shipper, name: &str) -> Result<(), CedarFsError> {
    let data = format!("contents of {name}").into_bytes();
    p.create(name, &data).unwrap();
    p.force()?;
    sh.ship(p)
}

fn assert_has(v: &mut FsdVolume, name: &str) {
    let mut f = v.open(name, None).unwrap();
    let data = v.read_file(&mut f).unwrap();
    assert_eq!(data, format!("contents of {name}").into_bytes(), "{name}");
}

#[test]
fn sync_round_trip_and_failover() {
    let (mut p, mut sh) = install(ReplSessionConfig::for_mode(ReplMode::Sync));
    for i in 0..8 {
        commit_file(&mut p, &mut sh, &format!("file-{i}")).unwrap();
    }
    assert_eq!(sh.frames_behind(), 0, "sync never runs ahead of the ack");
    assert!(!sh.lag_samples().is_empty());
    let out = sh.failover().unwrap();
    let mut v = out.volume;
    for i in 0..8 {
        assert_has(&mut v, &format!("file-{i}"));
    }
    v.verify().unwrap();
}

#[test]
fn semi_sync_round_trip_and_failover() {
    let (mut p, mut sh) = install(ReplSessionConfig::for_mode(ReplMode::SemiSync));
    for i in 0..6 {
        commit_file(&mut p, &mut sh, &format!("semi-{i}")).unwrap();
    }
    let out = sh.failover().unwrap();
    let mut v = out.volume;
    for i in 0..6 {
        assert_has(&mut v, &format!("semi-{i}"));
    }
    v.verify().unwrap();
}

/// The replica's machine loses power inside a frame's apply, and the
/// failover that follows cannot promote it: it hands the replica's disk
/// back with the crash, and that disk boots at a commit boundary — the
/// frame applied before is there, the one torn is not.
#[test]
fn a_failover_interrupted_by_a_crash_hands_back_a_disk_that_boots() {
    let (mut p, mut sh) = install(ReplSessionConfig::for_mode(ReplMode::SemiSync));
    commit_file(&mut p, &mut sh, "before").unwrap();
    sh.replica_disk_mut().schedule_crash(CrashPlan {
        after_sector_writes: 1,
        damaged_tail: 1,
    });
    let err = commit_file(&mut p, &mut sh, "torn").unwrap_err();
    assert!(err.is_crash(), "{err}");
    let Err((err, mut disk)) = sh.failover() else {
        panic!("a crashed replica promoted");
    };
    assert!(err.is_crash(), "{err}");
    disk.reboot();
    let (mut v, _) = FsdVolume::boot(disk, config()).unwrap();
    assert_has(&mut v, "before");
    assert!(v.open("torn", None).is_err(), "the torn frame's create");
    v.settle_vam().unwrap();
    v.verify().unwrap();
}

#[test]
fn replication_carries_unlogged_data_pages_and_deletes() {
    // File data never goes through the log (§5.2) — the stream must
    // carry the raw data-area writes, and a later overwrite + delete
    // must land too.
    let (mut p, mut sh) = install(ReplSessionConfig::for_mode(ReplMode::Sync));
    commit_file(&mut p, &mut sh, "keep").unwrap();
    commit_file(&mut p, &mut sh, "doomed").unwrap();
    {
        let mut f = p.open("keep", None).unwrap();
        p.write_page(&mut f, 0, b"rewritten page zero").unwrap();
        p.delete("doomed", None).unwrap();
    }
    p.force().unwrap();
    sh.ship(&mut p).unwrap();
    let mut v = sh.failover().unwrap().volume;
    let mut f = v.open("keep", None).unwrap();
    let page = v.read_page(&mut f, 0).unwrap();
    assert_eq!(&page[..19], b"rewritten page zero");
    assert!(v.open("doomed", None).is_err(), "delete must replicate");
    v.verify().unwrap();
}

#[test]
fn sync_partition_fails_commit_retryably_and_loses_nothing_acked() {
    let (mut p, mut sh) = install(ReplSessionConfig::for_mode(ReplMode::Sync));
    commit_file(&mut p, &mut sh, "acked").unwrap();
    sh.link_mut().force_down();
    let err = commit_file(&mut p, &mut sh, "unacked").unwrap_err();
    assert!(err.is_retryable(), "link loss must be retryable: {err}");
    assert!(sh.frames_behind() > 0);
    // Primary dies while partitioned: the unacknowledged commit is the
    // only casualty.
    let out = sh.failover().unwrap();
    let mut v = out.volume;
    assert_has(&mut v, "acked");
    assert!(v.open("unacked", None).is_err());
    v.verify().unwrap();
}

#[test]
fn semi_sync_partition_fails_commit_retryably() {
    let (mut p, mut sh) = install(ReplSessionConfig::for_mode(ReplMode::SemiSync));
    commit_file(&mut p, &mut sh, "acked").unwrap();
    sh.link_mut().force_down();
    let err = commit_file(&mut p, &mut sh, "unacked").unwrap_err();
    assert!(err.is_retryable());
    let mut v = sh.failover().unwrap().volume;
    assert_has(&mut v, "acked");
    assert!(v.open("unacked", None).is_err());
}

#[test]
fn async_loss_is_bounded_by_max_lag_frames() {
    let mut cfg = ReplSessionConfig::for_mode(ReplMode::Async);
    cfg.max_lag_frames = 4;
    let (mut p, mut sh) = install(cfg);
    for i in 0..5 {
        commit_file(&mut p, &mut sh, &format!("before-{i}")).unwrap();
    }
    sh.link_mut().force_down();
    // Up to max_lag_frames commits are acknowledged locally while the
    // link is down; the next one would exceed the bound and must fail.
    for i in 0..4 {
        commit_file(&mut p, &mut sh, &format!("lagged-{i}")).unwrap();
    }
    let err = commit_file(&mut p, &mut sh, "over-bound").unwrap_err();
    assert!(err.is_retryable());
    assert!(sh.frames_behind() <= 4 + 1, "bound: lag + the failed frame");
    let out = sh.failover().unwrap();
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
    let (mut p, mut sh) = install(cfg);
    commit_file(&mut p, &mut sh, "pre").unwrap();
    sh.link_mut().force_down();
    for i in 0..3 {
        commit_file(&mut p, &mut sh, &format!("during-{i}")).unwrap();
    }
    assert!(!sh.needs_full_transfer());
    let out = sh.resync(&mut p).unwrap();
    assert_eq!(out.kind, ResyncKind::CursorReplay);
    assert_eq!(out.frames, 3);
    assert_eq!(sh.frames_behind(), 0);
    commit_file(&mut p, &mut sh, "post").unwrap();
    let mut v = sh.failover().unwrap().volume;
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
    let (mut p, mut sh) = install(cfg);
    commit_file(&mut p, &mut sh, "pre").unwrap();
    sh.link_mut().force_down();
    for i in 0..6 {
        commit_file(&mut p, &mut sh, &format!("during-{i}")).unwrap();
    }
    assert!(
        sh.needs_full_transfer(),
        "retention bound of 2 must have evicted past the cursor"
    );
    let out = sh.resync(&mut p).unwrap();
    assert_eq!(out.kind, ResyncKind::FullTransfer);
    assert!(out.sectors > 0);
    assert_eq!(sh.frames_behind(), 0);
    assert!(sh.replica_stats().full_transfers >= 2, "install + reseed");
    commit_file(&mut p, &mut sh, "post").unwrap();
    let mut v = sh.failover().unwrap().volume;
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
    let (mut p, mut sh) = install(cfg);
    for i in 0..4 {
        commit_file(&mut p, &mut sh, &format!("drop-{i}")).unwrap();
    }
    assert!(sh.link_stats().dropped >= 2);
    let mut v = sh.failover().unwrap().volume;
    for i in 0..4 {
        assert_has(&mut v, &format!("drop-{i}"));
    }
}

#[test]
fn a_lapped_sync_session_sends_nothing_until_resync() {
    let mut cfg = ReplSessionConfig::for_mode(ReplMode::Sync);
    cfg.retain_frames = 2;
    let (mut p, mut sh) = install(cfg);
    commit_file(&mut p, &mut sh, "pre").unwrap();
    sh.link_mut().force_down();
    for i in 0..3 {
        assert!(commit_file(&mut p, &mut sh, &format!("during-{i}"))
            .unwrap_err()
            .is_retryable());
    }
    sh.link_mut().heal();
    let sends = sh.link_stats().sends;
    let err = commit_file(&mut p, &mut sh, "after").unwrap_err();
    assert!(
        err.is_retryable() && err.to_string().contains("resync"),
        "{err}"
    );
    assert_eq!(
        sh.link_stats().sends,
        sends,
        "a lapped cursor ships nothing"
    );
    assert_eq!(sh.frames_behind(), 4, "evicted frames count as lag");
    assert_eq!(sh.resync(&mut p).unwrap().kind, ResyncKind::FullTransfer);
    commit_file(&mut p, &mut sh, "post").unwrap();
    let mut v = sh.failover().unwrap().volume;
    for name in ["pre", "during-0", "during-1", "during-2", "after", "post"] {
        assert_has(&mut v, name);
    }
    v.verify().unwrap();
}

#[test]
fn a_replica_promoted_over_a_remapped_log_sector_reads_the_record_there() {
    // The append remaps its first sector to a spare. The replica's disk
    // is the primary's platter, remap table and spare included, so the
    // promoted replica's log scan reads the live record through the
    // spare, as a crashed primary's would.
    let mut v = fresh();
    let bad = v.next_log_sector();
    v.disk_mut()
        .set_fault_plan(&FaultPlan::none().with_grown(bad));
    v.create("remapped", b"contents of remapped").unwrap();
    v.force().unwrap();
    assert!(
        v.spare_entries().iter().any(|&(logical, _)| logical == bad),
        "the append remapped the grown log sector"
    );
    let cfg = ReplSessionConfig::for_mode(ReplMode::Sync);
    let sh = Shipper::new(&mut v, config(), cfg).unwrap();
    let mut promoted = sh.failover().unwrap().volume;
    assert_has(&mut promoted, "remapped");
    promoted.verify().unwrap();
}

#[test]
fn a_record_remapped_after_install_reaches_the_replica_through_the_spare() {
    // Both header copies of the next record go bad on the primary and
    // are remapped. The replica's own sectors are sound: only the
    // frame's remap table puts the headers where the primary's boot
    // page says they are, and a record with neither header is no record.
    let (mut p, mut sh) = install(ReplSessionConfig::for_mode(ReplMode::Sync));
    let header = p.next_log_sector();
    let grown = FaultPlan::none().with_grown(header).with_grown(header + 2);
    p.disk_mut().set_fault_plan(&grown);
    commit_file(&mut p, &mut sh, "remapped").unwrap();
    let remapped = p.spare_entries().iter().map(|&(logical, _)| logical);
    assert_eq!(
        remapped.collect::<Vec<_>>(),
        [header, header + 2],
        "the append remapped both headers"
    );
    let mut promoted = sh.failover().unwrap().volume;
    assert_has(&mut promoted, "remapped");
    promoted.verify().unwrap();
}

/// A frame whose record fails validation is refused whole: the data
/// write riding with it never reaches the replica's disk, and the cursor
/// stays where it was.
#[test]
fn a_frame_with_an_impossible_record_writes_nothing() {
    let mut p = fresh();
    let mut replica = Replica::install(&mut p, config()).unwrap();
    let cursor = replica.cursor();
    let layout = *p.layout();
    let unused = layout.data_areas()[1].1 - 1;
    let bytes = vec![0x5A; SECTOR_BYTES];
    let wild = PageTarget::NtSector {
        page: layout.nt_pages,
        sector: 0,
    };
    let frame = ReplFrame {
        id: cursor + 1,
        records: vec![(
            DATA_START,
            encode_record(&[(wild, vec![7; SECTOR_BYTES])], 1, 1, true).unwrap(),
        )],
        data: vec![DataWrite {
            addr: unused,
            data: Some(bytes.clone()),
            label: None,
        }],
        spare: Vec::new(),
    };
    assert!(replica.receive_apply(frame).is_err());
    assert_eq!(replica.cursor(), cursor);
    let (mut promoted, _) = replica.promote().unwrap();
    let written = promoted.disk_mut().peek_data(unused) == Some(&bytes[..]);
    assert!(
        !written,
        "the refused frame's data write reached sector {unused}"
    );
}

/// A record that would land outside the log's data area, here over the
/// log meta, is refused before anything is written: the promoted
/// replica still finds its log.
#[test]
fn a_frame_with_a_record_outside_the_log_data_area_writes_nothing() {
    let mut p = fresh();
    let mut replica = Replica::install(&mut p, config()).unwrap();
    let cursor = replica.cursor();
    let image = (
        PageTarget::NtSector { page: 0, sector: 0 },
        vec![7; SECTOR_BYTES],
    );
    let frame = ReplFrame {
        id: cursor + 1,
        records: vec![(0, encode_record(&[image], 1, 1, true).unwrap())],
        data: Vec::new(),
        spare: Vec::new(),
    };
    let refused = replica.receive_apply(frame).unwrap_err();
    assert!(
        refused.to_string().contains("outside the data area"),
        "{refused}"
    );
    assert_eq!(replica.cursor(), cursor);
    replica.promote().unwrap().0.verify().unwrap();
}

// ----- threaded engine, shipping from its log-writer ---------------------------

/// Creates `name` through the engine with the content `assert_has` expects.
fn engine_create(engine: &FsdEngine, name: &str) -> Result<(), CedarFsError> {
    let data = format!("contents of {name}").into_bytes();
    engine.create(name, &data).map(|_| ())
}

/// Frames sealed on the engine's primary and not yet applied.
fn behind(engine: &FsdEngine) -> usize {
    engine.with_repl(|s| s.frames_behind()).unwrap()
}

#[test]
fn engine_replicated_sync_ships_every_ack() {
    let engine = FsdEngine::start_replicated(
        fresh(),
        EngineConfig::default(),
        config(),
        ReplSessionConfig::for_mode(ReplMode::Sync),
    )
    .unwrap();
    for i in 0..10 {
        let name = format!("eng-{i}");
        let data = format!("contents of {name}").into_bytes();
        engine.create(&name, &data).unwrap();
    }
    // Sync: acknowledged implies applied.
    assert_eq!(behind(&engine), 0);
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
    let repl = ReplSessionConfig::for_mode(ReplMode::Sync);
    let engine =
        FsdEngine::start_replicated(fresh(), EngineConfig::default(), config(), repl).unwrap();
    engine.create("before", b"contents of before").unwrap();

    engine.with_repl(|s| s.link_mut().force_down()).unwrap();
    let err = engine
        .create("stalled", b"contents of stalled")
        .unwrap_err();
    assert!(err.is_retryable(), "stalled ship must be retryable: {err}");
    assert!(behind(&engine) > 0);

    engine.with_repl(|s| s.link_mut().heal()).unwrap();
    // New work after the heal drains the stalled frame first (strict
    // order), then its own.
    engine.create("after", b"contents of after").unwrap();
    assert_eq!(behind(&engine), 0);

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
    let mut repl = ReplSessionConfig::for_mode(ReplMode::Async);
    repl.link = LinkPlan {
        latency_us: 2_000,
        bytes_per_sec: 1_000_000,
        ..LinkPlan::default()
    };
    let engine =
        FsdEngine::start_replicated(fresh(), EngineConfig::default(), config(), repl).unwrap();
    for i in 0..12 {
        let name = format!("async-{i}");
        engine
            .create(&name, format!("contents of {name}").as_bytes())
            .unwrap();
    }
    // Shutdown waits for the writer's drain and then the shipper's:
    // everything sealed is applied by the time the replica returns.
    let (_primary, replica) = engine.shutdown_replicated().unwrap();
    assert_eq!(replica.buffered(), 0);
    let (mut promoted, _) = replica.promote().unwrap();
    for i in 0..12 {
        assert_has(&mut promoted, &format!("async-{i}"));
    }
    promoted.verify().unwrap();
}

#[test]
fn engine_replicated_semi_sync_round_trip_and_failover() {
    let engine = FsdEngine::start_replicated(
        fresh(),
        EngineConfig::default(),
        config(),
        ReplSessionConfig::for_mode(ReplMode::SemiSync),
    )
    .unwrap();
    for i in 0..6 {
        engine_create(&engine, &format!("esemi-{i}")).unwrap();
    }
    // Semi-sync: acknowledged implies received.
    assert_eq!(behind(&engine), 0);
    let (mut primary, replica) = engine.shutdown_replicated().unwrap();
    primary.verify().unwrap();
    let (mut promoted, _) = replica.promote().unwrap();
    for i in 0..6 {
        assert_has(&mut promoted, &format!("esemi-{i}"));
    }
    promoted.verify().unwrap();
}

#[test]
fn engine_async_loss_is_bounded_by_max_lag_frames() {
    let mut repl = ReplSessionConfig::for_mode(ReplMode::Async);
    repl.max_lag_frames = 4;
    let engine =
        FsdEngine::start_replicated(fresh(), EngineConfig::default(), config(), repl).unwrap();
    for i in 0..5 {
        engine_create(&engine, &format!("before-{i}")).unwrap();
    }
    assert_eq!(behind(&engine), 0, "a healthy link ships every epoch");
    engine.with_repl(|s| s.link_mut().force_down()).unwrap();
    // Up to max_lag_frames commits are acknowledged locally while the
    // link is down; the next one would exceed the bound and must fail.
    for i in 0..4 {
        engine_create(&engine, &format!("lagged-{i}")).unwrap();
    }
    let err = engine_create(&engine, "over-bound").unwrap_err();
    assert!(err.is_retryable(), "lag bound must fail retryably: {err}");
    assert!(behind(&engine) <= 4 + 1, "bound: lag + the failed frame");
    let (mut primary, replica) = engine.shutdown_replicated().unwrap();
    primary.verify().unwrap();
    let (mut promoted, _) = replica.promote().unwrap();
    // Everything shipped before the partition survives; the bounded
    // window of acknowledged-but-unshipped commits is the loss.
    for i in 0..5 {
        assert_has(&mut promoted, &format!("before-{i}"));
    }
    for i in 0..4 {
        assert!(promoted.open(&format!("lagged-{i}"), None).is_err());
    }
    promoted.verify().unwrap();
}

#[test]
fn engine_resync_falls_back_to_full_transfer_when_log_lapped() {
    let mut repl = ReplSessionConfig::for_mode(ReplMode::Async);
    repl.max_lag_frames = 16;
    repl.retain_frames = 2;
    let engine =
        FsdEngine::start_replicated(fresh(), EngineConfig::default(), config(), repl).unwrap();
    engine_create(&engine, "pre").unwrap();
    engine.with_repl(|s| s.link_mut().force_down()).unwrap();
    for i in 0..6 {
        engine_create(&engine, &format!("during-{i}")).unwrap();
    }
    assert!(
        engine.with_repl(|s| s.needs_full_transfer()).unwrap(),
        "retention bound of 2 must have evicted past the cursor"
    );
    let out = engine.resync().unwrap();
    assert_eq!(out.kind, ResyncKind::FullTransfer);
    assert!(out.sectors > 0);
    assert_eq!(behind(&engine), 0);
    let stats = engine.with_repl(|s| s.replica_stats()).unwrap();
    assert!(stats.full_transfers >= 2, "install + reseed");
    engine_create(&engine, "post").unwrap();
    let (_primary, replica) = engine.shutdown_replicated().unwrap();
    let (mut promoted, _) = replica.promote().unwrap();
    for name in [
        "pre", "during-0", "during-1", "during-2", "during-3", "during-4", "during-5", "post",
    ] {
        assert_has(&mut promoted, name);
    }
    promoted.verify().unwrap();
}

#[test]
fn engine_async_partition_past_retention_fails_until_resync() {
    let vol = fresh();
    let clock = vol.clock();
    let heal_at = clock.now() + 2_000_000;
    let mut repl = ReplSessionConfig::for_mode(ReplMode::Async);
    repl.retain_frames = 2;
    // A timed partition: it heals by itself, with no call to `heal`.
    repl.link.partitions = vec![(0, heal_at)];
    let max_lag = repl.max_lag_frames;
    let engine = FsdEngine::start_replicated(vol, EngineConfig::default(), config(), repl).unwrap();
    let mut names = Vec::new();
    let (mut acked, mut refused) = (0, 0);
    while clock.now() < heal_at {
        let name = format!("during-{}", names.len());
        match engine_create(&engine, &name) {
            // An async ack is local, but never past the lag bound, which
            // counts the frames retention evicted.
            Ok(()) => {
                acked += 1;
                assert!(behind(&engine) <= max_lag, "{name} acked past the bound");
            }
            Err(e) => {
                assert!(e.is_retryable(), "{e}");
                refused += 1;
            }
        }
        names.push(name);
        assert!(names.len() < 1_000, "the partition never healed");
    }
    assert!(engine.with_repl(|s| s.needs_full_transfer()).unwrap());
    assert_eq!(acked, max_lag, "{refused} refused");
    // Healed, but lapped: no create is acknowledged while the replica
    // stays frozen at its cursor, and each error names the way out.
    for i in 0..4 {
        let name = format!("after-{i}");
        let err = engine_create(&engine, &name).unwrap_err();
        assert!(
            err.is_retryable() && err.to_string().contains("resync"),
            "{err}"
        );
        names.push(name);
    }
    let stats = engine.with_repl(|s| s.replica_stats()).unwrap();
    assert_eq!(stats.frames_applied, 0, "nothing reached the replica");
    assert_eq!(behind(&engine), names.len());
    let out = engine.resync().unwrap();
    assert_eq!(out.kind, ResyncKind::FullTransfer);
    assert_eq!(behind(&engine), 0);
    engine_create(&engine, "post").unwrap();
    names.push("post".into());
    let (_primary, replica) = engine.shutdown_replicated().unwrap();
    let (mut promoted, _) = replica.promote().unwrap();
    for name in &names {
        assert_has(&mut promoted, name);
    }
    promoted.verify().unwrap();
}

#[test]
fn engine_resync_after_a_crash_returns_the_crash() {
    let mut vol = fresh();
    // The replica install writes nothing on a freshly formatted volume:
    // the first epoch's force is the one that power-fails the disk.
    vol.disk_mut().schedule_crash(CrashPlan {
        after_sector_writes: 0,
        damaged_tail: 1,
    });
    let mut repl = ReplSessionConfig::for_mode(ReplMode::Sync);
    repl.retain_frames = 2;
    let engine = FsdEngine::start_replicated(vol, EngineConfig::default(), config(), repl).unwrap();
    assert!(engine_create(&engine, "doomed").unwrap_err().is_crash());
    let err = engine.resync().unwrap_err();
    assert!(err.is_crash(), "{err}");
    let stats = engine.with_repl(|s| s.replica_stats()).unwrap();
    assert_eq!(stats.full_transfers, 1, "the install only: no reseed");
    let (_primary, replica) = engine.shutdown_replicated().unwrap();
    let (mut promoted, _) = replica.promote().unwrap();
    assert!(promoted.open("doomed", None).is_err());
    promoted.verify().unwrap();
}
