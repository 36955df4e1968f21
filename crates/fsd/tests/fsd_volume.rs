//! FSD volume behaviour: the paper's operational claims, tested one by
//! one against the public API.

use cedar_disk::{CpuModel, SimDisk, SECTOR_BYTES};
use cedar_fsd::{EntryKind, FsdConfig, FsdError, FsdVolume};

fn config() -> FsdConfig {
    FsdConfig {
        nt_pages: 16,
        log_sectors: 128,
        cpu: CpuModel::FREE,
        ..FsdConfig::default()
    }
}

fn tiny() -> FsdVolume {
    FsdVolume::format(SimDisk::tiny(), config()).unwrap()
}

#[test]
fn create_open_read_roundtrip() {
    let mut v = tiny();
    let data = b"hello fsd".to_vec();
    v.create("memo.txt", &data).unwrap();
    let mut f = v.open("memo.txt", None).unwrap();
    assert_eq!(f.name.version, 1);
    assert_eq!(f.byte_size(), data.len() as u64);
    assert_eq!(v.read_file(&mut f).unwrap(), data);
}

#[test]
fn versions_accumulate_and_resolve() {
    let mut v = tiny();
    v.create("f", b"one").unwrap();
    v.create("f", b"two").unwrap();
    let mut newest = v.open("f", None).unwrap();
    assert_eq!(newest.name.version, 2);
    assert_eq!(v.read_file(&mut newest).unwrap(), b"two");
    let mut old = v.open("f", Some(1)).unwrap();
    assert_eq!(v.read_file(&mut old).unwrap(), b"one");
}

#[test]
fn empty_file_has_leader_only() {
    let mut v = tiny();
    v.create("empty", b"").unwrap();
    let mut f = v.open("empty", None).unwrap();
    assert_eq!(f.pages(), 0);
    assert_eq!(v.read_file(&mut f).unwrap(), b"");
    assert_ne!(f.entry.leader_addr, 0);
}

#[test]
fn multi_page_roundtrip_and_page_reads() {
    let mut v = tiny();
    let data: Vec<u8> = (0..3000u32).map(|i| (i % 251) as u8).collect();
    v.create("big", &data).unwrap();
    let mut f = v.open("big", None).unwrap();
    assert_eq!(f.pages(), 6);
    assert_eq!(v.read_file(&mut f).unwrap(), data);
    let p2 = v.read_page(&mut f, 2).unwrap();
    assert_eq!(&p2[..], &data[1024..1536]);
    assert!(matches!(
        v.read_page(&mut f, 6),
        Err(FsdError::OutOfRange { .. })
    ));
}

#[test]
fn create_costs_one_synchronous_io() {
    // "A file create typically does one I/O synchronously: the
    // combination of the write of the leader and data pages." (§4)
    let mut v = tiny();
    v.create("warm", b"w").unwrap(); // Warm the name-table cache.
    let before = v.disk_stats();
    v.create("one-byte", b"x").unwrap();
    let delta = v.disk_stats().since(&before);
    assert_eq!(delta.total_ops(), 1, "{delta:?}");
    assert_eq!(delta.writes, 1);
    assert_eq!(delta.sectors_written, 2); // Leader + one data page.
}

#[test]
fn open_does_no_io() {
    let mut v = tiny();
    v.create("f", b"data").unwrap();
    let before = v.disk_stats();
    v.open("f", None).unwrap();
    let delta = v.disk_stats().since(&before);
    assert_eq!(delta.total_ops(), 0, "{delta:?}");
}

#[test]
fn delete_does_no_synchronous_io() {
    let mut v = tiny();
    v.create("f", &vec![1u8; 2048]).unwrap();
    let before = v.disk_stats();
    v.delete("f", None).unwrap();
    let delta = v.disk_stats().since(&before);
    assert_eq!(delta.total_ops(), 0, "{delta:?}");
    assert!(matches!(v.open("f", None), Err(FsdError::NotFound(_))));
}

#[test]
fn list_needs_no_per_file_io_and_returns_properties() {
    let mut v = tiny();
    for i in 0..20 {
        v.create(&format!("dir/f{i:02}"), &vec![0u8; 512 * (i % 3 + 1)])
            .unwrap();
    }
    let before = v.disk_stats();
    let l = v.list("dir/").unwrap();
    let delta = v.disk_stats().since(&before);
    assert_eq!(l.len(), 20);
    assert_eq!(l[0].1.byte_size, 512);
    assert_eq!(delta.total_ops(), 0, "{delta:?}");
}

#[test]
fn deleted_pages_not_reusable_until_commit() {
    // §5.5: "the pages are not really free until the delete is
    // committed... Pages in deleted files are kept in a shadow bitmap."
    let mut v = tiny();
    v.create("f", &vec![1u8; 4096]).unwrap();
    let free_after_create = v.free_sectors();
    v.delete("f", None).unwrap();
    assert_eq!(v.free_sectors(), free_after_create);
    v.force().unwrap();
    assert_eq!(v.free_sectors(), free_after_create + 9); // Leader + 8 data.
}

#[test]
fn a_create_lands_beside_the_file_just_read_and_after_a_reboot_first_fit() {
    // §6 prices every I/O by its seek: a create's one synchronous write
    // goes to the free run nearest where file data last moved, not to the
    // lowest hole on the disk. A rebooted volume has moved none yet.
    let mut v = tiny();
    let data = vec![7u8; 1024]; // Leader + 2 pages: 3 sectors.
    let files: Vec<_> = (0..12)
        .map(|i| v.create(&format!("f{i:02}"), &data).unwrap().entry)
        .collect();
    for w in files.windows(2) {
        assert_eq!(w[0].leader_addr + 3, w[1].leader_addr, "back to back");
    }
    for i in [1, 5, 9] {
        v.delete(&format!("f{i:02}"), None).unwrap();
    }
    v.force().unwrap();
    let hole = |i: usize| files[i].leader_addr;

    // f06 ends 3 sectors above f05's hole and 6 below f09's.
    let mut f = v.open("f06", None).unwrap();
    v.read_file(&mut f).unwrap();
    let made = v.create("n1", &data).unwrap().entry;
    assert_eq!(made.leader_addr, hole(5), "the hole ending nearest below");
    // f07 ends 3 sectors below f09's hole, far above f01's.
    let mut f = v.open("f07", None).unwrap();
    assert_eq!(v.read_pages(&mut f, 1, 1).unwrap(), data[512..]);
    let made = v.create("n2", &data).unwrap().entry;
    assert_eq!(made.leader_addr, hole(9), "the first hole above");

    v.shutdown().unwrap();
    let (mut v, _) = FsdVolume::boot(v.into_disk(), config()).unwrap();
    let made = v.create("n3", &data).unwrap().entry;
    assert_eq!(made.leader_addr, hole(1), "first fit from the front");
    v.verify().unwrap();
}

#[test]
fn group_commit_batches_many_updates_into_one_force() {
    let mut v = tiny();
    for i in 0..10 {
        v.create(&format!("f{i}"), b"x").unwrap();
    }
    let stats0 = v.commit_stats();
    v.force().unwrap();
    let stats = v.commit_stats();
    assert_eq!(stats.forces - stats0.forces, 1);
    // All ten creates' metadata rode in that one force.
    assert!(stats.images_logged > stats0.images_logged);
}

#[test]
fn commit_daemon_fires_on_interval() {
    let mut v = tiny();
    v.create("f", b"x").unwrap();
    let forces0 = v.commit_stats().forces;
    // Half a second of idle time passes; the next operation triggers the
    // deferred force.
    v.advance_time(600_000).unwrap();
    assert_eq!(v.commit_stats().forces, forces0 + 1);
}

#[test]
fn one_property_update_is_a_seven_sector_record() {
    // §5.4: "If this were the only update during a group commit period,
    // then it would be recorded as a one data page record. This is logged
    // in seven 512 byte sectors."
    let mut v = tiny();
    v.create_cached("[srv]cached.doc", b"remote bytes").unwrap();
    v.force().unwrap();
    let s0 = v.commit_stats();
    // Open updates only the last-used-time in one name-table sector.
    let f = v.open("[srv]cached.doc", None).unwrap();
    assert!(matches!(f.entry.kind, EntryKind::CachedRemote { .. }));
    v.force().unwrap();
    let s1 = v.commit_stats();
    assert_eq!(s1.records - s0.records, 1);
    assert_eq!(s1.images_logged - s0.images_logged, 1);
    assert_eq!(s1.log_sectors_written - s0.log_sectors_written, 7);
}

#[test]
fn leader_verified_on_first_access_piggybacked() {
    let mut v = tiny();
    v.create("f", b"abc").unwrap();
    let mut f = v.open("f", None).unwrap();
    let before = v.disk_stats();
    let data = v.read_page(&mut f, 0).unwrap();
    let delta = v.disk_stats().since(&before);
    assert_eq!(&data[..3], b"abc");
    // Leader + data page 0 in ONE transfer (§5.7).
    assert_eq!(delta.reads, 1);
    assert_eq!(delta.sectors_read, 2);
    // Second read: leader already verified, single sector.
    let before = v.disk_stats();
    v.read_page(&mut f, 0).unwrap();
    assert_eq!(v.disk_stats().since(&before).sectors_read, 1);
}

#[test]
fn corrupted_leader_caught_by_software_check() {
    let mut v = tiny();
    v.create("f", b"abc").unwrap();
    v.shutdown().unwrap();
    let mut f = v.open("f", None).unwrap();
    let leader_addr = f.entry.leader_addr;
    v.disk_mut().wild_write(leader_addr, 0x55);
    assert!(matches!(v.read_page(&mut f, 0), Err(FsdError::Check(_))));
}

#[test]
fn write_page_persists() {
    let mut v = tiny();
    v.create("f", &vec![0u8; 1024]).unwrap();
    let mut f = v.open("f", None).unwrap();
    v.write_page(&mut f, 1, &[9u8; 512]).unwrap();
    assert_eq!(v.read_page(&mut f, 1).unwrap(), vec![9u8; 512]);
}

#[test]
fn extend_and_truncate_roundtrip() {
    let mut v = tiny();
    v.create("f", &vec![7u8; 1024]).unwrap();
    let mut f = v.open("f", None).unwrap();
    v.extend(&mut f, 3).unwrap();
    assert_eq!(f.pages(), 5);
    v.write_page(&mut f, 4, &[3u8; 512]).unwrap();
    assert_eq!(v.read_page(&mut f, 4).unwrap(), vec![3u8; 512]);
    // Reopen: the entry in the name table reflects the extension.
    let f2 = v.open("f", None).unwrap();
    assert_eq!(f2.pages(), 5);
    v.truncate(&mut f, 1).unwrap();
    assert_eq!(f.pages(), 1);
    let f3 = v.open("f", None).unwrap();
    assert_eq!(f3.pages(), 1);
    assert_eq!(f3.byte_size(), 512);
}

/// An extend writes none of its new pages. One that takes the leader
/// sector of a deleted file whose tombstone has not gone home must not
/// leave that file's live leader there: a scavenge would read it as the
/// file's and bring a committed delete back.
#[test]
fn an_unwritten_extend_over_a_deleted_leader_leaves_it_dead() {
    let mut v = tiny();
    v.create("h", &[1u8; 512]).unwrap();
    let gone = v.create("f", &[2u8; 1024]).unwrap().entry.leader_addr;
    v.force().unwrap();
    v.delete("f", None).unwrap();
    v.force().unwrap();
    let mut h = v.open("h", None).unwrap();
    v.extend(&mut h, 3).unwrap();
    assert_eq!(h.entry.run_table.sector_of(1), Some(gone));
    v.force().unwrap();
    v.shutdown().unwrap();

    // Both log meta copies gone: the next boot scavenges.
    let meta = v.layout().log_start;
    let mut disk = v.into_disk();
    disk.damage_sector(meta);
    disk.damage_sector(meta + 2);
    disk.reboot();
    let (mut s, report) = FsdVolume::boot(disk, config()).unwrap();
    assert_eq!(report.rung, cedar_fsd::RecoveryRung::Scavenge);
    let names: Vec<String> = s
        .list("")
        .unwrap()
        .into_iter()
        .map(|(n, _)| n.name)
        .collect();
    assert_eq!(names, ["h"]);
}

#[test]
fn extended_file_leader_still_verifies() {
    let mut v = tiny();
    v.create("f", &vec![7u8; 512]).unwrap();
    let mut f = v.open("f", None).unwrap();
    v.extend(&mut f, 2).unwrap();
    // Fresh handle: leader check must pass against the *new* run table,
    // even before the new leader image reaches the disk.
    let mut f2 = v.open("f", None).unwrap();
    assert_eq!(v.read_page(&mut f2, 0).unwrap(), vec![7u8; 512]);
    // After shutdown the leader is home; verify from disk too.
    v.shutdown().unwrap();
    let mut f3 = v.open("f", None).unwrap();
    assert_eq!(v.read_page(&mut f3, 0).unwrap(), vec![7u8; 512]);
}

#[test]
fn symlink_entries_roundtrip() {
    let mut v = tiny();
    v.create_symlink("link", "[server]<dir>real.file!3")
        .unwrap();
    let f = v.open("link", None).unwrap();
    match &f.entry.kind {
        EntryKind::SymLink { target } => assert_eq!(target, "[server]<dir>real.file!3"),
        k => panic!("wrong kind {k:?}"),
    }
    let mut f = f;
    assert!(matches!(v.read_file(&mut f), Err(FsdError::WrongKind(_))));
}

#[test]
fn survives_clean_shutdown_and_boot() {
    let mut v = tiny();
    v.create("persist", b"forever").unwrap();
    let free = {
        v.force().unwrap();
        v.free_sectors()
    };
    v.shutdown().unwrap();
    let (mut v2, report) = FsdVolume::boot(v.into_disk(), config()).unwrap();
    assert!(!report.vam_reconstructed, "clean shutdown saved the VAM");
    assert_eq!(v2.free_sectors(), free);
    let mut f = v2.open("persist", None).unwrap();
    assert_eq!(v2.read_file(&mut f).unwrap(), b"forever");
    v2.verify().unwrap();
}

#[test]
fn uids_unique_across_boots() {
    let mut v = tiny();
    let f1 = v.create("a", b"1").unwrap();
    v.shutdown().unwrap();
    let (mut v2, _) = FsdVolume::boot(v.into_disk(), config()).unwrap();
    let f2 = v2.create("b", b"2").unwrap();
    assert_ne!(f1.entry.uid, f2.entry.uid);
}

#[test]
fn many_files_split_the_tree_and_survive_reboot() {
    let mut v = tiny();
    for i in 0..120 {
        v.create(&format!("dir/file{i:03}"), &vec![(i % 251) as u8; 512])
            .unwrap();
    }
    v.verify().unwrap();
    v.shutdown().unwrap();
    let (mut v2, _) = FsdVolume::boot(v.into_disk(), config()).unwrap();
    v2.verify().unwrap();
    assert_eq!(v2.list("dir/").unwrap().len(), 120);
    let mut f = v2.open("dir/file077", None).unwrap();
    assert_eq!(v2.read_file(&mut f).unwrap(), vec![77u8; 512]);
}

#[test]
fn nt_page_damage_in_one_copy_is_transparent() {
    let mut v = tiny();
    for i in 0..40 {
        v.create(&format!("f{i:02}"), b"x").unwrap();
    }
    v.shutdown().unwrap();
    let mut disk = v.into_disk();
    // Damage several sectors of name-table copy A.
    let layout = cedar_fsd::FsdLayout::compute(disk.geometry(), 16, 128);
    for p in 0..4 {
        disk.damage_sector(layout.nt_a_sector(p));
    }
    let (mut v2, _) = FsdVolume::boot(disk, config()).unwrap();
    v2.verify().unwrap();
    assert_eq!(v2.list("").unwrap().len(), 40);
}

#[test]
fn boot_page_damage_falls_back_to_replica() {
    let mut v = tiny();
    v.create("f", b"x").unwrap();
    v.shutdown().unwrap();
    let mut disk = v.into_disk();
    disk.damage_sector(0); // Boot copy A.
    let (mut v2, _) = FsdVolume::boot(disk, config()).unwrap();
    assert!(v2.open("f", None).is_ok());
}

#[test]
fn vam_save_damage_falls_back_to_replica() {
    let mut v = tiny();
    v.create("f", &vec![1u8; 1024]).unwrap();
    v.shutdown().unwrap();
    let free = v.free_sectors();
    let layout = *v.layout();
    let mut disk = v.into_disk();
    disk.damage_sector(layout.vam_a);
    let (v2, report) = FsdVolume::boot(disk, config()).unwrap();
    assert!(!report.vam_reconstructed);
    assert_eq!(v2.free_sectors(), free);
}

#[test]
fn keep_prunes_old_versions_on_create() {
    let mut v = tiny();
    v.create("doc", b"v1").unwrap();
    v.set_keep("doc", 2).unwrap();
    for i in 2..=6 {
        v.create("doc", format!("v{i}").as_bytes()).unwrap();
    }
    // Keep = 2: only versions 5 and 6 remain.
    let versions: Vec<u32> = v
        .list("doc")
        .unwrap()
        .into_iter()
        .map(|(n, _)| n.version)
        .collect();
    assert_eq!(versions, vec![5, 6]);
    assert!(v.open("doc", Some(4)).is_err());
    let mut newest = v.open("doc", None).unwrap();
    assert_eq!(v.read_file(&mut newest).unwrap(), b"v6");
    // The pruned versions' pages come back after the commit.
    let free_before = v.free_sectors();
    v.force().unwrap();
    assert!(v.free_sectors() >= free_before);
    v.verify().unwrap();
}

#[test]
fn keep_zero_retains_all_versions() {
    let mut v = tiny();
    for i in 1..=5 {
        v.create("doc", format!("v{i}").as_bytes()).unwrap();
    }
    assert_eq!(v.list("doc").unwrap().len(), 5);
}

#[test]
fn keep_is_inherited_by_new_versions() {
    let mut v = tiny();
    v.create("doc", b"v1").unwrap();
    v.set_keep("doc", 1).unwrap();
    v.create("doc", b"v2").unwrap();
    let newest = v.open("doc", None).unwrap();
    assert_eq!(newest.entry.keep, 1);
    assert_eq!(v.list("doc").unwrap().len(), 1, "only the newest survives");
}

#[test]
fn set_keep_on_missing_file_errors() {
    let mut v = tiny();
    assert!(matches!(v.set_keep("ghost", 3), Err(FsdError::NotFound(_))));
}

#[test]
fn a_page_range_past_u32_max_is_out_of_range() {
    // `page + count` wraps past the range check unless it is checked.
    let mut v = tiny();
    let data = vec![7u8; 2 * SECTOR_BYTES];
    v.create("f", &data).unwrap();
    let mut f = v.open("f", None).unwrap();
    assert!(matches!(
        v.read_pages(&mut f, u32::MAX, 2),
        Err(FsdError::OutOfRange { pages: 2, .. })
    ));
    assert!(matches!(
        v.write_pages(&mut f, u32::MAX, &[0u8; 2 * SECTOR_BYTES]),
        Err(FsdError::OutOfRange { pages: 2, .. })
    ));
    assert_eq!(v.read_file(&mut f).unwrap(), data);
}

/// A symbolic link has no leader page, so a rung-3 boot — both copies of
/// the log meta gone, the volume rebuilt from leaders alone — cannot
/// bring it back, committed or not, written home or not: the scavenger
/// lists links among its known losses (`scavenge.rs`), and that is the
/// bound. The files beside it come back whole, and the summary counts
/// only them: it has no leader of the link to report a loss against.
#[test]
fn a_committed_symlink_is_the_known_loss_of_a_rung_three_boot() {
    for clean in [false, true] {
        let mut v = tiny();
        v.create("docs/f", b"beside the link").unwrap();
        let link = v
            .create_symlink("docs/link", "[server]<dir>target")
            .unwrap();
        assert!(matches!(link.entry.kind, EntryKind::SymLink { .. }));
        v.force().unwrap();
        if clean {
            v.shutdown().unwrap();
        }
        let log = v.layout().log_start;
        let mut disk = v.into_disk();
        disk.crash_now();
        disk.damage_sector(log); // Log meta, copy A.
        disk.damage_sector(log + 2); // Copy B.
        disk.reboot();

        let (mut v, report) = FsdVolume::boot(disk, config()).unwrap();
        assert_eq!(report.rung, cedar_fsd::RecoveryRung::Scavenge, "{clean}");
        let summary = report.scavenge.expect("a rung-3 boot reports");
        assert_eq!(summary.files_rebuilt, 1, "{clean}");
        assert!(summary.losses.is_empty(), "{clean}: {:?}", summary.losses);
        assert!(
            matches!(v.open("docs/link", None), Err(FsdError::NotFound(_))),
            "{clean}: the link came back"
        );
        let mut f = v.open("docs/f", None).unwrap();
        assert_eq!(v.read_file(&mut f).unwrap(), b"beside the link");
        v.verify().unwrap();
    }
}
