//! Crash-recovery semantics: after any crash, FSD recovers to the state
//! of the last log force (group-commit boundary). "Loss of up to a half a
//! second is not significant" (§5.4) — but nothing *else* may be lost,
//! and the name table must always be structurally intact.

use cedar_disk::{CpuModel, CrashPlan, IoPolicy, SimDisk};
use cedar_fsd::{FsdConfig, FsdVolume};

/// The crash-ordering tests run under both submission policies: the
/// scheduled (`Satf`, the default) log-force/writeback path reorders
/// writes within barrier windows, and recovery must hold regardless.
const POLICIES: [IoPolicy; 2] = [IoPolicy::InOrder, IoPolicy::Satf];

fn config_with(io_policy: IoPolicy) -> FsdConfig {
    FsdConfig {
        nt_pages: 16,
        log_sectors: 128,
        cpu: CpuModel::FREE,
        io_policy,
        ..FsdConfig::default()
    }
}

fn config() -> FsdConfig {
    config_with(IoPolicy::default())
}

fn tiny_with(io_policy: IoPolicy) -> FsdVolume {
    FsdVolume::format(SimDisk::tiny(), config_with(io_policy)).unwrap()
}

fn tiny() -> FsdVolume {
    tiny_with(IoPolicy::default())
}

/// Crashes the volume immediately and reboots it.
fn crash_and_recover(v: FsdVolume) -> (FsdVolume, cedar_fsd::RecoveryReport) {
    let mut disk = v.into_disk();
    disk.crash_now();
    disk.reboot();
    FsdVolume::boot(disk, config()).unwrap()
}

#[test]
fn forced_create_survives_crash() {
    let mut v = tiny();
    v.create("kept", b"forced data").unwrap();
    v.force().unwrap();
    let (mut v2, report) = crash_and_recover(v);
    assert!(report.records_replayed >= 1);
    assert!(report.vam_reconstructed, "no shutdown → VAM rebuilt");
    let mut f = v2.open("kept", None).unwrap();
    assert_eq!(v2.read_file(&mut f).unwrap(), b"forced data");
    v2.verify().unwrap();
}

#[test]
fn unforced_create_lost_cleanly() {
    let mut v = tiny();
    v.create("durable", b"old").unwrap();
    v.force().unwrap();
    let free_committed = v.free_sectors();
    v.create("ephemeral", b"never committed").unwrap();
    let (mut v2, _) = crash_and_recover(v);
    assert!(v2.open("durable", None).is_ok());
    assert!(v2.open("ephemeral", None).is_err());
    // The uncommitted file's sectors came back: VAM reconstruction sees
    // only the committed name table.
    assert!(
        v2.settle_vam().unwrap().is_some(),
        "boot left the walk owed"
    );
    assert_eq!(v2.free_sectors(), free_committed);
    v2.verify().unwrap();
}

#[test]
fn unforced_delete_resurrects() {
    let mut v = tiny();
    v.create("lazarus", &vec![2u8; 2048]).unwrap();
    v.force().unwrap();
    let free_committed = v.free_sectors();
    v.delete("lazarus", None).unwrap();
    // Crash before the delete commits: the file is still there, and the
    // rebuilt free map still holds its sectors allocated.
    let (mut v2, _) = crash_and_recover(v);
    let mut f = v2.open("lazarus", None).unwrap();
    assert_eq!(v2.read_file(&mut f).unwrap(), vec![2u8; 2048]);
    v2.settle_vam().unwrap();
    assert_eq!(v2.free_sectors(), free_committed);
}

#[test]
fn forced_delete_stays_deleted() {
    let mut v = tiny();
    v.create("gone", b"bye").unwrap();
    v.force().unwrap();
    v.delete("gone", None).unwrap();
    v.force().unwrap();
    let (mut v2, _) = crash_and_recover(v);
    assert!(v2.open("gone", None).is_err());
}

#[test]
fn crash_mid_log_force_keeps_previous_commit() {
    for policy in POLICIES {
        let mut v = tiny_with(policy);
        v.create("stable", b"v1").unwrap();
        v.force().unwrap();
        let free_committed = v.free_sectors();
        for i in 0..5 {
            v.create(&format!("burst{i}"), &vec![0u8; 700]).unwrap();
        }
        // The force's log write tears after 3 sectors.
        v.disk_mut().schedule_crash(CrashPlan {
            after_sector_writes: 3,
            damaged_tail: 1,
        });
        let err = v.force().unwrap_err();
        assert!(err.is_crash());
        let mut disk = v.into_disk();
        disk.reboot();
        let (mut v2, _) = FsdVolume::boot(disk, config_with(policy)).unwrap();
        // The torn record is ignored; the earlier commit is intact.
        assert!(v2.open("stable", None).is_ok());
        for i in 0..5 {
            assert!(
                v2.open(&format!("burst{i}"), None).is_err(),
                "burst{i} under {policy:?}"
            );
        }
        v2.settle_vam().unwrap();
        assert_eq!(
            v2.free_sectors(),
            free_committed,
            "torn force: the free map rolls back with the name table"
        );
        v2.verify().unwrap();
    }
}

#[test]
fn multi_page_tree_update_is_atomic_across_crash() {
    // §5.8 error class 1: "multi-page B-tree updates were not atomic" in
    // CFS; logging fixes it. Force a commit whose record spans many page
    // images (splits), then crash at every prefix of the log write.
    for policy in POLICIES {
        for crash_after in [0u64, 1, 2, 5, 9, 14, 20, 33] {
            let mut v = tiny_with(policy);
            for i in 0..60 {
                v.create(&format!("seed{i:02}"), b"s").unwrap();
            }
            v.force().unwrap();
            for i in 0..30 {
                v.create(&format!("burst{i:02}"), b"b").unwrap();
            }
            v.disk_mut().schedule_crash(CrashPlan {
                after_sector_writes: crash_after,
                damaged_tail: 1,
            });
            let _ = v.force(); // May or may not crash depending on record size.
            let mut disk = v.into_disk();
            disk.reboot();
            let (mut v2, _) = FsdVolume::boot(disk, config_with(policy)).unwrap();
            v2.verify().unwrap_or_else(|e| {
                panic!("tree corrupt after crash at {crash_after} under {policy:?}: {e}")
            });
            // All seeds are committed and present.
            for i in 0..60 {
                assert!(
                    v2.open(&format!("seed{i:02}"), None).is_ok(),
                    "seed{i:02} lost, crash at {crash_after} under {policy:?}"
                );
            }
            // The burst is all-or-nothing only per force; individual files may
            // exist iff the record landed. But the tree must be consistent and
            // every present file readable.
            for (name, _) in v2.list("burst").unwrap() {
                let mut f = v2.open(&name.name, Some(name.version)).unwrap();
                assert_eq!(v2.read_file(&mut f).unwrap(), b"b");
            }
        }
    }
}

#[test]
fn crash_during_home_flush_recovers() {
    // Drive the log around its thirds so home flushes happen, crashing
    // during one of them. Under the scheduled policy the flush's writes
    // execute nearest-first, so the crash tears a *reordered* window —
    // recovery must not care.
    for policy in POLICIES {
        let mut v = tiny_with(policy);
        for round in 0..14 {
            for i in 0..8 {
                v.create(&format!("r{round:02}f{i}"), b"data").unwrap();
            }
            v.force().unwrap();
        }
        // Now schedule a crash a few sector-writes into future activity
        // (which will include home flushes at third entries).
        v.disk_mut().schedule_crash(CrashPlan {
            after_sector_writes: 7,
            damaged_tail: 2,
        });
        let mut round = 14;
        loop {
            let mut crashed = false;
            for i in 0..8 {
                if v.create(&format!("r{round:02}f{i}"), b"data").is_err() {
                    crashed = true;
                    break;
                }
            }
            if crashed || v.force().is_err() {
                break;
            }
            round += 1;
            assert!(round < 100, "crash never fired under {policy:?}");
        }
        let mut disk = v.into_disk();
        disk.reboot();
        let (mut v2, _) = FsdVolume::boot(disk, config_with(policy)).unwrap();
        v2.verify().unwrap();
        // Everything committed before round 14 must be present and readable.
        for r in 0..14 {
            for i in 0..8 {
                let name = format!("r{r:02}f{i}");
                let mut f = v2
                    .open(&name, None)
                    .unwrap_or_else(|e| panic!("{name} lost under {policy:?}: {e}"));
                assert_eq!(v2.read_file(&mut f).unwrap(), b"data");
            }
        }
    }
}

#[test]
fn double_crash_during_recovery_is_survivable() {
    // Crash, begin recovery, crash during recovery's redo writes, then
    // recover again: redo is idempotent. `SimDisk` is `Clone`, so the
    // persistent image can be snapshotted the way a power cycle preserves
    // the platters.
    let mut v = tiny();
    for i in 0..20 {
        v.create(&format!("f{i:02}"), b"x").unwrap();
    }
    v.force().unwrap();
    let mut disk = v.into_disk();
    disk.crash_now();
    disk.reboot();
    // Try recovery with a crash at several points into its redo writes;
    // the torn image must recover fully on the next attempt — under
    // either submission policy (redo's home sweep is a scheduled batch).
    for policy in POLICIES {
        for crash_after in [0u64, 1, 3, 5, 10] {
            let mut attempt = disk.clone();
            attempt.schedule_crash(CrashPlan {
                after_sector_writes: crash_after,
                damaged_tail: 1,
            });
            let torn = match FsdVolume::try_boot(attempt, config_with(policy)) {
                // Recovery finished before the crash budget ran out — fine.
                Ok((mut v2, _)) => {
                    v2.verify().unwrap();
                    continue;
                }
                Err((e, torn)) => {
                    assert!(e.is_crash(), "crash at {crash_after} under {policy:?}: {e}");
                    torn
                }
            };
            let mut torn = torn;
            torn.reboot();
            let (mut v3, _) = FsdVolume::boot(torn, config_with(policy)).unwrap();
            v3.verify().unwrap();
            for i in 0..20 {
                assert!(v3.open(&format!("f{i:02}"), None).is_ok());
            }
        }
    }
}

#[test]
fn log_wraps_many_times_and_still_recovers() {
    let mut v = tiny();
    // Enough forced activity to lap the 128-sector log repeatedly.
    for round in 0..60 {
        v.create(&format!("wrap{round:03}"), b"w").unwrap();
        v.force().unwrap();
    }
    let free = v.free_sectors();
    let (mut v2, _) = crash_and_recover(v);
    v2.verify().unwrap();
    v2.settle_vam().unwrap();
    assert_eq!(v2.free_sectors(), free, "the rebuilt free map is exact");
    for round in 0..60 {
        assert!(v2.open(&format!("wrap{round:03}"), None).is_ok(), "{round}");
    }
}

#[test]
fn recovery_is_fast_compared_to_activity() {
    let mut v = tiny();
    for i in 0..100 {
        v.create(&format!("f{i:03}"), &vec![0u8; 1024]).unwrap();
    }
    v.force().unwrap();
    let (_, report) = crash_and_recover(v);
    // §5.9: redo "rarely takes more than two seconds".
    assert!(
        report.redo_us < 2_000_000,
        "redo took {} µs",
        report.redo_us
    );
}
