//! A leader logged by the very force that enters a log third must still
//! reach its home sector.
//!
//! While a commit record is being appended, the leaders taken for it hold
//! *neither* image: the unlogged one has moved into the record and the
//! logged one is only marked once the append returns. If that append
//! enters a new third, the third-entry writeback runs in the middle — and
//! a writeback that prunes "entries with nothing left to write" drops
//! exactly those leaders, so their home writes never happen. Nothing
//! notices at first: a clean shutdown leaves the log full, and the next
//! boot's redo re-applies the leader from its record. Once the log has
//! lapped that record the home sector is the only copy, and it is stale.
//!
//! The script below walks into that window on purpose: one leader per
//! force (so about one force in three has its only leader in flight at a
//! third entry), then enough unrelated forces to lap the log, then a
//! clean shutdown and a boot that checks every leader against the name
//! table.

use cedar_disk::sched::IoPolicy;
use cedar_disk::{CpuModel, SimDisk, SECTOR_BYTES};
use cedar_fsd::{FsdConfig, FsdVolume};

const FILES: usize = 24;
const PAGES: u32 = 4;

fn config() -> FsdConfig {
    FsdConfig {
        nt_pages: 48,
        log_sectors: 183, // Thirds of exactly 60 sectors.
        cpu: CpuModel::FREE,
        ..FsdConfig::default()
    }
}

fn body(i: usize) -> Vec<u8> {
    vec![i as u8 + 1; PAGES as usize * SECTOR_BYTES]
}

/// `files` files under `dir`, each created and forced on its own: every
/// leader is home (create writes it) and nothing is staged.
fn populate(dir: &str, files: usize, policy: IoPolicy) -> FsdVolume {
    let mut disk = SimDisk::tiny();
    disk.set_io_policy(policy);
    let mut v = FsdVolume::format(disk, config()).unwrap();
    for i in 0..files {
        v.create(&format!("{dir}/f{i:02}"), &body(i)).unwrap();
        v.force().unwrap();
    }
    v
}

/// Laps the log with forces that touch none of `dir`'s leaders — so redo
/// can no longer put back a home write that was skipped — shuts down
/// cleanly, boots, and checks every file of `dir` against its home
/// leader (`read_file` does) and the bytes it was created with.
fn lap_reboot_and_check(mut v: FsdVolume, policy: IoPolicy, dir: &str, files: usize, pages: u32) {
    for i in 0..60 {
        v.create(&format!("lap/g{i:02}"), &[0xEE; 100]).unwrap();
        v.force().unwrap();
    }
    v.shutdown().unwrap();

    let (mut v, _) = FsdVolume::boot(v.into_disk(), config()).unwrap();
    let what = format!("{policy:?}, {files} files");
    for i in 0..files {
        let name = format!("{dir}/f{i:02}");
        let mut f = v
            .open(&name, None)
            .unwrap_or_else(|e| panic!("{what}, {name}: {e}"));
        assert_eq!(f.pages(), pages, "{what}, {name}");
        let got = v
            .read_file(&mut f)
            .unwrap_or_else(|e| panic!("{what}, {name}: {e}"));
        let kept = PAGES.min(pages) as usize * SECTOR_BYTES;
        assert_eq!(got.len(), pages as usize * SECTOR_BYTES, "{what}, {name}");
        assert_eq!(got[..kept], body(i)[..kept], "{what}, {name}");
    }
    v.verify().unwrap();
}

#[test]
fn a_leader_logged_by_the_force_that_enters_a_third_reaches_its_home() {
    for policy in [IoPolicy::InOrder, IoPolicy::Satf] {
        // (directory, pages each file ends with)
        for (dir, end_pages) in [("grow", PAGES + 2), ("shrink", PAGES - 2)] {
            let mut v = populate(dir, FILES, policy);
            // One restaged leader per force: the record being appended is
            // the only place its image lives while a third is entered.
            let entries_before = v.commit_stats().third_flush_pages;
            for i in 0..FILES {
                let mut f = v.open(&format!("{dir}/f{i:02}"), None).unwrap();
                if end_pages > PAGES {
                    v.extend(&mut f, end_pages - PAGES).unwrap();
                } else {
                    v.truncate(&mut f, end_pages).unwrap();
                }
                v.force().unwrap();
            }
            assert!(
                v.commit_stats().third_flush_pages > entries_before,
                "{policy:?} {dir}: the restaging forces never entered a third"
            );
            lap_reboot_and_check(v, policy, dir, FILES, end_pages);
        }
    }
}

/// The same window from the other side: the leader taken for the record
/// still has its *previous* image in the log, in the very third the
/// append enters. The writeback takes that image home, sees nothing
/// unlogged behind it and drops the map entry — and the image in flight
/// must be marked logged all the same. Every file is restaged once per
/// round, so a population about one log lap of forces long meets its own
/// old image at a third entry; the sweep over populations makes sure some
/// do whatever the record sizes are.
#[test]
fn a_leader_restaged_a_lap_after_its_last_image_reaches_its_home() {
    const ROUNDS: u32 = 4;
    let policy = IoPolicy::Satf;
    for files in 10..=20usize {
        let mut v = populate("again", files, policy);
        for _ in 0..ROUNDS {
            for i in 0..files {
                let mut f = v.open(&format!("again/f{i:02}"), None).unwrap();
                v.extend(&mut f, 1).unwrap();
                v.force().unwrap();
            }
        }
        lap_reboot_and_check(v, policy, "again", files, PAGES + ROUNDS);
    }
}
