//! E-REC — the recovery-time measurements of §5.5, §5.9 and §7.
//!
//! * FSD log redo: "Recovery rarely takes more than two seconds";
//! * FSD VAM reconstruction: "typically twenty seconds" on a 300 MB
//!   volume, giving the 1–25 s total of §7;
//! * the CFS scavenge: "an hour or more on a 300 megabyte disk";
//! * 4.3 BSD fsck: "about seven minutes".
//!
//! All four run on identically sized simulated volumes populated with
//! the paper's file-size distribution, plus a sweep of FSD recovery
//! time against population.
//!
//! FSD's boot reads the log, resumes it and stops: the log's images go
//! home with their thirds, the first write pays the new epoch and the
//! first allocation the VAM walk, so every FSD figure here is taken over
//! `boot` **plus** `settle_redo` and `settle_vam` and reported twice:
//! *time to first read* (boot alone) and *full recovery* (boot, redo
//! settle and walk) — the paper's number. A third figure comes from a
//! second boot of the same crashed disk: *time to first write*, boot plus
//! one small create forced to the log, which pays the new epoch and is
//! served from the restart reserve.
//!
//! `--smoke` runs the 250- and 4000-file rows only and gates on
//! relations, not floors: time to first read and to first write follow
//! the log, not the population (the first write scans no file at all and
//! writes no name-table home), while full recovery follows the name table
//! and is its phases and nothing more; and boot writes nothing and costs
//! less than the redo it leaves owed.

use cedar_bench::{cfs_t300, disk_breakdown, ffs_t300, populate, Table};
use cedar_disk::{DiskStats, SimClock, SimDisk};
use cedar_fsd::{FsdConfig, RecoveryReport, RedoSettle, VamWalk};

const FILES: usize = 3000;

/// One FSD crash recovery, measured whole: boot, then what it owes.
struct FsdRecovery {
    report: RecoveryReport,
    /// The write half of redo and the walk, which boot leaves owed.
    settle: RedoSettle,
    walk: VamWalk,
    /// Disk activity of boot alone, and of boot, settle and walk together.
    boot_disk: DiskStats,
    disk: DiskStats,
    /// Simulated time `settle_redo` and `settle_vam` took, off the clock.
    settled_us: u64,
    /// [`SimDisk::platter_digest`] of the disk boot, settle and walk leave.
    platter: u64,
    /// A second boot of the same crashed disk: time from power-on to one
    /// small create forced, the files that create had walked, and
    /// whether it changed a name-table home sector.
    first_write_us: u64,
    first_write_scanned: u64,
    first_write_homed: bool,
}

impl FsdRecovery {
    /// Boot's share: the crash-to-first-read time.
    fn first_read_us(&self) -> u64 {
        self.report.total_us()
    }

    /// Log redo, read and written, whoever paid.
    fn redo_us(&self) -> u64 {
        self.report.redo_us + self.settle.us()
    }

    /// Loading or rebuilding the VAM, whoever paid.
    fn vam_us(&self) -> u64 {
        self.report.vam_us + self.walk.us()
    }

    /// The whole of crash recovery.
    fn full_us(&self) -> u64 {
        self.redo_us() + self.vam_us()
    }
}

fn secs(us: u64) -> f64 {
    us as f64 / 1e6
}

/// A digest of every name-table home sector, both copies, as they lie.
fn nt_homes(vol: &mut cedar_fsd::FsdVolume) -> u64 {
    use std::hash::{Hash, Hasher};
    let layout = *vol.layout();
    let disk = vol.disk_mut();
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for page in 0..layout.nt_pages {
        for home in [layout.nt_a_sector(page), layout.nt_b_sector(page)] {
            for s in home..home + cedar_fsd::NT_PAGE_SECTORS {
                disk.peek_data(s).hash(&mut h);
            }
        }
    }
    h.finish()
}

fn fsd_recovery(files: usize) -> FsdRecovery {
    let config = FsdConfig::default();
    let mut vol = cedar_fsd::FsdVolume::format(SimDisk::trident_t300(SimClock::new()), config)
        .expect("format");
    populate(&mut vol, "pop", files, 5);
    // A burst of recent activity leaves work in the log.
    for i in 0..40 {
        vol.create(&format!("recent/r{i:02}"), &vec![1u8; 2048])
            .unwrap();
    }
    vol.force().unwrap();
    let mut disk = vol.into_disk();
    disk.crash_now();
    disk.reboot();
    let crashed = disk.clone();
    let before = disk.stats();
    let (mut vol, report) = cedar_fsd::FsdVolume::boot(disk, config).unwrap();
    assert!(report.vam_reconstructed);
    let boot_disk = vol.disk_stats().since(&before);
    let booted = vol.clock().now();
    // Without these the rows below would improve by not doing the work.
    let settle = vol.settle_redo().expect("redo settle");
    let walk = vol.settle_vam().expect("VAM walk");
    let (settle, walk) = (settle.expect("owed by boot"), walk.expect("owed by boot"));
    let disk = vol.disk_stats().since(&before);
    let settled_us = vol.clock().now() - booted;
    let platter = vol.disk_mut().platter_digest();

    // The same crash again, and this time the client just writes.
    let powered_on = crashed.clock().now();
    let (mut vol, _) = cedar_fsd::FsdVolume::boot(crashed, config).unwrap();
    let homes = nt_homes(&mut vol);
    vol.create("recovery/first-write", &[1u8; 1000])
        .expect("first write");
    vol.force().expect("first force");
    let first_write_homed = nt_homes(&mut vol) != homes;
    FsdRecovery {
        report,
        settle,
        walk,
        boot_disk,
        disk,
        settled_us,
        platter,
        first_write_us: vol.clock().now() - powered_on,
        first_write_scanned: vol.vam_walk().map_or(0, |w| w.files_scanned),
        first_write_homed,
    }
}

/// The CI gate: two populations, eight relations.
fn smoke() {
    let small = fsd_recovery(250);
    let large = fsd_recovery(4000);
    for (files, r) in [(250, &small), (4000, &large)] {
        let pass = r.report.leaders;
        println!(
            "{files:>5} files: first read {:.2} s, first write {:.2} s, full recovery {:.2} s; \
             leaders {} kept, {} reallocated and skipped; platters {:016x}",
            secs(r.first_read_us()),
            secs(r.first_write_us),
            secs(r.full_us()),
            pass.kept,
            pass.reallocated,
            r.platter
        );
    }
    assert!(
        2 * large.first_write_us <= 5 * small.first_write_us,
        "time to first write grew with the population: {} µs at 4000 files vs {} µs at 250",
        large.first_write_us,
        small.first_write_us
    );
    assert!(
        2 * large.first_read_us() <= 5 * small.first_read_us(),
        "time to first read grew with the population: {} µs at 4000 files vs {} µs at 250",
        large.first_read_us(),
        small.first_read_us()
    );
    assert!(
        large.full_us() >= 5 * large.first_read_us(),
        "full recovery ({} µs) is no longer dominated by the walk boot defers ({} µs to first read)",
        large.full_us(),
        large.first_read_us()
    );
    for r in [&small, &large] {
        assert_eq!(
            r.first_write_scanned, 0,
            "the first write after the crash walked the name table"
        );
        assert!(
            !r.first_write_homed,
            "the first write after the crash boot wrote a name-table home sector: its record \
             entered a third of the resumed log (neither fixture's first record did), which \
             sends that third's owed images home"
        );
        assert_eq!(
            r.settled_us,
            r.settle.us() + r.walk.us(),
            "what boot leaves owed is more than the settle and the walk: \
             the reserve has begun to cost full recovery a write"
        );
        assert_eq!(
            r.boot_disk.sectors_written, 0,
            "the crash boot of an undamaged volume wrote to it"
        );
        assert!(
            r.first_read_us() < r.redo_us(),
            "boot's share ({} µs) is not less than the whole of redo ({} µs): \
             the home writes are back inside boot",
            r.first_read_us(),
            r.redo_us()
        );
    }
    println!(
        "smoke OK: first read and first write follow the log, full recovery follows the \
         name table, boot writes nothing"
    );
}

fn cfs_scavenge(files: usize) -> (cedar_cfs::scavenge::ScavengeReport, DiskStats) {
    let mut vol = cfs_t300();
    populate(&mut vol, "pop", files, 5);
    let mut disk = vol.into_disk();
    disk.crash_now();
    disk.reboot();
    let (mut vol, loaded) =
        cedar_cfs::CfsVolume::boot(disk, cedar_cfs::CfsConfig::default()).unwrap();
    assert!(!loaded);
    let before = vol.disk_stats();
    let report = vol.scavenge().unwrap();
    let stats = vol.disk_stats().since(&before);
    (report, stats)
}

fn ffs_fsck(files: usize) -> (cedar_ffs::FsckReport, DiskStats) {
    let mut fs = ffs_t300();
    populate(&mut fs, "pop", files, 5);
    let mut disk = fs.into_disk();
    disk.crash_now();
    disk.reboot();
    let before = disk.stats();
    let mut fs = cedar_ffs::Ffs::mount(disk, cedar_ffs::FfsConfig::default()).unwrap();
    let report = fs.fsck().unwrap();
    let stats = fs.disk_stats().since(&before);
    (report, stats)
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        return smoke();
    }
    println!("Reproducing the recovery-time comparison ({FILES} files on a 300 MB volume)");

    let fsd = fsd_recovery(FILES);
    let (ffs, ffs_disk) = ffs_fsck(FILES);
    let (cfs, cfs_disk) = cfs_scavenge(FILES);

    let mut t = Table::new(
        "Crash recovery on a moderately full 300 MB volume",
        &["system", "mechanism", "time", "paper"],
    );
    t.row(&[
        "FSD".into(),
        "log redo".into(),
        format!("{:.2} s", secs(fsd.redo_us())),
        "< 2 s".into(),
    ]);
    t.row(&[
        "FSD".into(),
        "VAM reconstruction".into(),
        format!("{:.1} s", secs(fsd.vam_us())),
        "~20 s".into(),
    ]);
    t.row(&[
        "FSD".into(),
        "total".into(),
        format!("{:.1} s", secs(fsd.full_us())),
        "1 - 25 s".into(),
    ]);
    t.row(&[
        "FSD".into(),
        "time to first read".into(),
        format!("{:.2} s", secs(fsd.first_read_us())),
        "-".into(),
    ]);
    t.row(&[
        "FSD".into(),
        "time to first write".into(),
        format!("{:.2} s", secs(fsd.first_write_us)),
        "-".into(),
    ]);
    t.row(&[
        "4.3 BSD".into(),
        "fsck".into(),
        format!("{:.0} s", ffs.duration_us as f64 / 1e6),
        "~420 s".into(),
    ]);
    t.row(&[
        "CFS".into(),
        "scavenge".into(),
        format!("{:.0} s", cfs.duration_us as f64 / 1e6),
        "3600+ s".into(),
    ]);
    t.print();
    println!(
        "\nFSD replayed {} log records ({} sector images); the scavenge \
         recovered {} files\nand relabelled {} orphan sectors.",
        fsd.report.records_replayed,
        fsd.report.images_redone,
        cfs.files_recovered,
        cfs.orphan_sectors
    );
    println!(
        "FSD by phase: redo {:.2} s = scan {:.2} (boot) + home writes {:.2} \
         + new epoch {:.2}; VAM walk {:.2} s = prefetch {:.2} + walk {:.2} ({} files)",
        secs(fsd.redo_us()),
        secs(fsd.report.redo_us),
        secs(fsd.settle.home_us),
        secs(fsd.settle.epoch_us),
        secs(fsd.walk.us()),
        secs(fsd.walk.prefetch_us),
        secs(fsd.walk.walk_us),
        fsd.walk.files_scanned
    );
    let pass = fsd.report.leaders;
    println!(
        "FSD leaders: {} logged, {} kept for their thirds, {} reallocated and skipped",
        pass.kept + pass.reallocated,
        pass.kept,
        pass.reallocated
    );
    println!("FSD recovered platters: {:016x}", fsd.platter);
    println!();
    println!("{}", disk_breakdown("FSD recovery ", &fsd.disk));
    println!("{}", disk_breakdown("4.3 BSD fsck ", &ffs_disk));
    println!("{}", disk_breakdown("CFS scavenge ", &cfs_disk));

    // The scaling sweep: VAM reconstruction grows with the name table,
    // not the volume.
    let mut t = Table::new(
        "FSD recovery time vs population (the \"1 to 25 seconds\" band)",
        &[
            "files",
            "redo (s)",
            "VAM rebuild (s)",
            "total (s)",
            "first read (s)",
            "first write (s)",
        ],
    );
    for files in [250, 1000, 2000, 4000] {
        let r = fsd_recovery(files);
        assert_eq!(r.first_write_scanned, 0, "{files} files");
        t.row(&[
            files.to_string(),
            format!("{:.2}", secs(r.redo_us())),
            format!("{:.1}", secs(r.vam_us())),
            format!("{:.1}", secs(r.full_us())),
            format!("{:.2}", secs(r.first_read_us())),
            format!("{:.2}", secs(r.first_write_us)),
        ]);
    }
    t.print();
}
