//! The bytes on the platter are a function of the script: pinned digests
//! of three states of the tiny volume, under both I/O policies.
//!
//! * a freshly formatted volume;
//! * a clean shutdown after a session that churns small files through
//!   first fit (creates, deletes, creates again into the holes) and
//!   allocates two files of more than 32 pages from the end of the disk;
//! * the same session crashed in the middle of its last force, one
//!   sector torn.
//!
//! [`SimDisk::platter_digest`] folds every written sector's data and label
//! into one FNV-1a word. A change that claims to leave the on-disk format
//! and every allocation decision alone must leave these digests alone;
//! one that changes them on purpose re-pins them here, where a reviewer
//! sees it.

mod support;

use cedar_disk::{CrashPlan, IoPolicy, SimDisk};
use cedar_fsd::FsdVolume;
use support::{config, pages};

/// `(policy, [formatted, shut down, crashed mid-force])`. The session
/// boots the formatted disk, so its log carries on behind format's
/// records.
const PINNED: [(IoPolicy, [u64; 3]); 2] = [
    (
        IoPolicy::InOrder,
        [0xde92ba1d6ff63bd7, 0x48c60582ad7aaa6d, 0x9116708669172068],
    ),
    (
        IoPolicy::Satf,
        [0xde92ba1d6ff63bd7, 0xa271a4d08ad4e9cd, 0xc1012c29841c1d5f],
    ),
];

/// The session, short of its last force: small files back to back from
/// the front, every third deleted and committed, new small files first fit
/// into the holes, two big files from the end, and then deletes and a
/// truncate whose leader images the last force logs side by side.
fn session(v: &mut FsdVolume) {
    let mut leaders = Vec::new();
    for i in 0..12 {
        let f = v
            .create(&format!("s/{i:02}"), &pages(i, 1 + i % 4))
            .unwrap();
        leaders.push(f.entry.leader_addr);
    }
    v.force().unwrap();
    for i in (0..12).step_by(3) {
        v.delete(&format!("s/{i:02}"), None).unwrap();
    }
    v.force().unwrap();
    for i in 0..4 {
        let at = v.create(&format!("r/{i}"), &pages(20 + i, 1)).unwrap();
        let at = at.entry.leader_addr;
        assert!(
            at < leaders[11],
            "r/{i} at {at}: first fit reuses the holes"
        );
    }
    assert_eq!(v.open("r/0", None).unwrap().entry.leader_addr, leaders[0]);
    let (_, top) = v.layout().data_areas()[1];
    let big = v.create("b/0", &pages(30, 40)).unwrap();
    assert_eq!(big.entry.run_table.runs()[0].end(), top, "from the end");
    v.create("b/1", &pages(31, 33)).unwrap();
    for name in ["s/10", "s/01", "b/1", "s/07", "s/04"] {
        v.delete(name, None).unwrap();
    }
    let mut f = v.open("s/02", None).unwrap();
    v.truncate(&mut f, 1).unwrap();
}

/// The three digests of one run.
fn digests(policy: IoPolicy) -> [u64; 3] {
    let formatted = FsdVolume::format(SimDisk::tiny(), config(policy)).unwrap();
    let fresh = formatted.into_disk();

    let (mut v, _) = FsdVolume::boot(fresh.clone(), config(policy)).unwrap();
    session(&mut v);
    let before = v.disk_mut().stats().sectors_written;
    v.force().unwrap();
    let force = v.disk_mut().stats().sectors_written - before;
    assert!(force > 12, "the last force logs several images: {force}");
    v.shutdown().unwrap();
    let shut = v.into_disk();

    let (mut v, _) = FsdVolume::boot(fresh.clone(), config(policy)).unwrap();
    session(&mut v);
    v.disk_mut().schedule_crash(CrashPlan {
        after_sector_writes: force / 2,
        damaged_tail: 1,
    });
    assert!(v.force().unwrap_err().is_crash());
    let mut crashed = v.into_disk();
    crashed.crash_now();
    crashed.reboot();

    [
        fresh.platter_digest(),
        shut.platter_digest(),
        crashed.platter_digest(),
    ]
}

#[test]
fn one_script_leaves_one_platter() {
    for (policy, pinned) in PINNED {
        let first = digests(policy);
        assert_eq!(first, digests(policy), "{policy:?}: two runs differ");
        assert_eq!(
            first, pinned,
            "{policy:?}: the platter changed; re-pin only if the change meant to: {:#x?}",
            first
        );
    }
}
