//! Crash recovery, side by side: the same crash hits an FSD volume and a
//! CFS volume; FSD recovers by log redo in seconds while CFS must
//! scavenge every label on the disk.
//!
//! Run with `cargo run --release --example crash_recovery`.

use cedar_fs_repro::cfs::{CfsConfig, CfsVolume};
use cedar_fs_repro::disk::{CrashPlan, SimClock, SimDisk};
use cedar_fs_repro::fsd::{FsdConfig, FsdVolume};

const FILES: usize = 800;

fn main() {
    println!("=== FSD: crash in the middle of a burst of creates ===");
    let disk = SimDisk::trident_t300(SimClock::new());
    let mut fsd = FsdVolume::format(disk, FsdConfig::default()).expect("format");
    for i in 0..FILES {
        fsd.create(&format!("work/file{i:04}"), &vec![7u8; 1500])
            .unwrap();
    }
    fsd.force().expect("commit the burst");
    // Ten more files after the last commit — then the machine dies with a
    // torn write (two damaged sectors, the paper's worst failure).
    for i in 0..10 {
        fsd.create(&format!("work/late{i}"), b"uncommitted")
            .unwrap();
    }
    fsd.disk_mut().schedule_crash(CrashPlan {
        after_sector_writes: 3,
        damaged_tail: 2,
    });
    let err = loop {
        // Keep working until the crash fires (it lands in a log force or
        // a data write — wherever the next sectors go).
        match fsd.create("work/doomed", b"x") {
            Ok(_) => continue,
            Err(e) => break e,
        }
    };
    println!("crash: {err}");

    let mut platters = fsd.into_disk();
    platters.reboot();
    let t0 = std::time::Instant::now();
    let (mut fsd, report) = FsdVolume::boot(platters, FsdConfig::default()).expect("boot");
    println!(
        "FSD recovery: {} log records replayed, {} sector images to redo,",
        report.records_replayed, report.images_redone
    );
    // Boot reads the log and serves reads at once, through its images;
    // writing them home waits for the first write, and the name-table
    // walk that rebuilds the VAM for the first create or delete. Pay both
    // here to see the whole of crash recovery.
    let settle = fsd
        .settle_redo()
        .expect("redo settle")
        .expect("a crash boot owes the settle");
    let walk = fsd
        .settle_vam()
        .expect("VAM walk")
        .expect("a crash boot owes the walk");
    let redo_us = report.redo_us + settle.us();
    println!(
        "  simulated {:.2} s redo + {:.1} s VAM rebuild = {:.1} s total (paper: 1-25 s)",
        redo_us as f64 / 1e6,
        walk.us() as f64 / 1e6,
        (report.total_us() + settle.us() + walk.us()) as f64 / 1e6
    );
    println!(
        "  first read possible after {:.2} s: the home sweep is deferred to the first write, \
         the rebuild past the first allocations (they come out of the restart reserve)",
        report.total_us() as f64 / 1e6
    );
    println!("  (host wall-clock: {:?})", t0.elapsed());
    fsd.verify().expect("name table intact");
    let survivors = fsd.list("work/").expect("list").len();
    println!(
        "  {survivors} files survive (the {FILES} committed ones; the post-commit burst is gone)"
    );
    assert!(survivors >= FILES);

    println!("\n=== CFS: the same crash forces a scavenge ===");
    let disk = SimDisk::trident_t300(SimClock::new());
    let mut cfs = CfsVolume::format(disk, CfsConfig::default()).expect("format");
    for i in 0..FILES {
        cfs.create(&format!("work/file{i:04}"), &vec![7u8; 1500])
            .unwrap();
    }
    let mut platters = cfs.into_disk();
    platters.crash_now();
    platters.reboot();
    let (mut cfs, vam_ok) = CfsVolume::boot(platters, CfsConfig::default()).expect("boot");
    println!(
        "CFS boots, but the VAM hint is {}",
        if vam_ok { "valid" } else { "stale" }
    );
    println!("  (no allocation is possible until the scavenger runs)");
    let report = cfs.scavenge().expect("scavenge");
    println!(
        "CFS scavenge: {} files recovered in simulated {:.0} s ({:.0}x slower than FSD)",
        report.files_recovered,
        report.duration_us as f64 / 1e6,
        report.duration_us as f64 / 1e6 / 25.0_f64.max(1.0)
    );
}
