//! Cross-crate integration tests asserting the *shape* of the paper's
//! headline results at test scale: who wins each comparison and by
//! roughly what kind of factor. The full-scale numbers come from the
//! `cedar-bench` binaries; these tests keep the shapes from regressing.

use cedar_fs_repro::cfs::{CfsConfig, CfsVolume};
use cedar_fs_repro::disk::{SimClock, SimDisk};
use cedar_fs_repro::ffs::{Ffs, FfsConfig};
use cedar_fs_repro::fsd::{FsdConfig, FsdVolume};

fn t300() -> SimDisk {
    SimDisk::trident_t300(SimClock::new())
}

#[test]
fn table3_shape_creates_and_list() {
    // CFS needs several times the I/Os of FSD for creates, and far more
    // for a property listing (Table 3).
    let mut cfs = CfsVolume::format(t300(), CfsConfig::default()).unwrap();
    let mut fsd = FsdVolume::format(t300(), FsdConfig::default()).unwrap();

    let cfs0 = cfs.disk_stats().total_ops();
    let fsd0 = fsd.disk_stats().total_ops();
    for i in 0..50 {
        cfs.create(&format!("d/f{i:02}"), b"x").unwrap();
        fsd.create(&format!("d/f{i:02}"), b"x").unwrap();
    }
    fsd.force().unwrap();
    let cfs_creates = cfs.disk_stats().total_ops() - cfs0;
    let fsd_creates = fsd.disk_stats().total_ops() - fsd0;
    assert!(
        cfs_creates > 3 * fsd_creates,
        "creates: CFS {cfs_creates} vs FSD {fsd_creates} (paper: 874 vs 149)"
    );

    let cfs0 = cfs.disk_stats().total_ops();
    let fsd0 = fsd.disk_stats().total_ops();
    assert_eq!(cfs.list("d/").unwrap().len(), 50);
    assert_eq!(fsd.list("d/").unwrap().len(), 50);
    let cfs_list = cfs.disk_stats().total_ops() - cfs0;
    let fsd_list = fsd.disk_stats().total_ops() - fsd0;
    assert!(
        cfs_list >= 50 && fsd_list <= 5,
        "list: CFS {cfs_list} (one header read per file) vs FSD {fsd_list} (paper: 146 vs 3)"
    );
}

#[test]
fn table4_shape_fsd_vs_ffs_creates() {
    // FSD creates cost about half the I/Os of the synchronous-metadata
    // FFS (Table 4: 149 vs 308).
    let mut fsd = FsdVolume::format(t300(), FsdConfig::default()).unwrap();
    let mut ffs = Ffs::format(t300(), FfsConfig::default()).unwrap();
    ffs.mkdir("d").unwrap();

    let fsd0 = fsd.disk_stats().total_ops();
    let ffs0 = ffs.disk_stats().total_ops();
    for i in 0..50 {
        fsd.create(&format!("d/f{i:02}"), b"one page").unwrap();
        ffs.create(&format!("d/f{i:02}"), b"one page").unwrap();
    }
    fsd.force().unwrap();
    ffs.sync().unwrap();
    let fsd_ops = fsd.disk_stats().total_ops() - fsd0;
    let ffs_ops = ffs.disk_stats().total_ops() - ffs0;
    assert!(
        ffs_ops as f64 > 1.5 * fsd_ops as f64,
        "creates: FFS {ffs_ops} vs FSD {fsd_ops} (paper ratio 2.07)"
    );
}

#[test]
fn table2_shape_recovery_ratio() {
    // FSD recovery must beat the CFS scavenge by a wide margin (Table 2:
    // 3600+ s vs 25 s).
    let mut fsd = FsdVolume::format(t300(), FsdConfig::default()).unwrap();
    let mut cfs = CfsVolume::format(t300(), CfsConfig::default()).unwrap();
    for i in 0..150 {
        fsd.create(&format!("f{i:03}"), &vec![1u8; 2000]).unwrap();
        cfs.create(&format!("f{i:03}"), &vec![1u8; 2000]).unwrap();
    }
    fsd.force().unwrap();

    let mut d = fsd.into_disk();
    d.crash_now();
    d.reboot();
    let (_, report) = FsdVolume::boot(d, FsdConfig::default()).unwrap();
    let fsd_time = report.total_us();

    let mut d = cfs.into_disk();
    d.crash_now();
    d.reboot();
    let (mut cfs, loaded) = CfsVolume::boot(d, CfsConfig::default()).unwrap();
    assert!(!loaded);
    let scavenge = cfs.scavenge().unwrap();

    assert!(
        scavenge.duration_us > 20 * fsd_time,
        "scavenge {} s vs FSD recovery {} s",
        scavenge.duration_us / 1_000_000,
        fsd_time / 1_000_000
    );
}

#[test]
fn fsck_sits_between_fsd_and_scavenge() {
    // §7: fsck ≈ 7 minutes, between FSD's seconds and the scavenge's hour.
    let mut fsd = FsdVolume::format(t300(), FsdConfig::default()).unwrap();
    let mut ffs = Ffs::format(t300(), FfsConfig::default()).unwrap();
    let mut cfs = CfsVolume::format(t300(), CfsConfig::default()).unwrap();
    ffs.mkdir("d").unwrap();
    for i in 0..100 {
        fsd.create(&format!("d/f{i:03}"), &vec![1u8; 2000]).unwrap();
        ffs.create(&format!("d/f{i:03}"), &vec![1u8; 2000]).unwrap();
        cfs.create(&format!("d/f{i:03}"), &vec![1u8; 2000]).unwrap();
    }
    fsd.force().unwrap();
    ffs.sync().unwrap();

    let mut d = fsd.into_disk();
    d.crash_now();
    d.reboot();
    let (_, report) = FsdVolume::boot(d, FsdConfig::default()).unwrap();
    let fsd_time = report.total_us();

    let mut d = ffs.into_disk();
    d.crash_now();
    d.reboot();
    let mut ffs = Ffs::mount(d, FfsConfig::default()).unwrap();
    let fsck = ffs.fsck().unwrap();

    let mut d = cfs.into_disk();
    d.crash_now();
    d.reboot();
    let (mut cfs, _) = CfsVolume::boot(d, CfsConfig::default()).unwrap();
    let scavenge = cfs.scavenge().unwrap();

    assert!(
        fsd_time < fsck.duration_us && fsck.duration_us < scavenge.duration_us,
        "ordering: FSD {}s < fsck {}s < scavenge {}s",
        fsd_time / 1_000_000,
        fsck.duration_us / 1_000_000,
        scavenge.duration_us / 1_000_000
    );
}

#[test]
fn group_commit_reduces_metadata_io() {
    // §5.4 in miniature: the same updates cost several times more I/O
    // when every operation commits alone.
    let run = |interval: u64| -> u64 {
        let mut vol = FsdVolume::format(t300(), FsdConfig::default()).unwrap();
        vol.set_commit_interval(interval);
        for i in 0..60 {
            vol.create_cached(&format!("c/f{i:02}"), b"cached").unwrap();
        }
        vol.force().unwrap();
        vol.disk_mut().reset_stats();
        for i in 0..60 {
            vol.open(&format!("c/f{i:02}"), None).unwrap();
            vol.advance_time(50_000).unwrap();
        }
        vol.force().unwrap();
        vol.disk_stats().total_ops()
    };
    let grouped = run(500_000);
    let solo = run(0);
    assert!(
        solo > 2 * grouped,
        "bulk touches: {solo} solo vs {grouped} grouped (paper factor 2.98)"
    );
}

#[test]
fn fsd_open_and_delete_do_no_io_where_cfs_must() {
    let mut cfs = CfsVolume::format(t300(), CfsConfig::default()).unwrap();
    let mut fsd = FsdVolume::format(t300(), FsdConfig::default()).unwrap();
    for i in 0..20 {
        cfs.create(&format!("f{i}"), b"data").unwrap();
        fsd.create(&format!("f{i}"), b"data").unwrap();
    }
    let cfs0 = cfs.disk_stats().total_ops();
    let fsd0 = fsd.disk_stats().total_ops();
    for i in 0..20 {
        cfs.open(&format!("f{i}"), None).unwrap();
        fsd.open(&format!("f{i}"), None).unwrap();
    }
    assert!(
        cfs.disk_stats().total_ops() - cfs0 >= 20,
        "CFS reads a header per open"
    );
    assert_eq!(fsd.disk_stats().total_ops() - fsd0, 0, "FSD opens are free");
}
