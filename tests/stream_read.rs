//! The whole-file read path: `FsBackend::read` asks the disk for one
//! transfer per run of the file, so a file costs its transfer time and
//! not a lost revolution per 4 KB (EXPERIMENTS.md E-STREAM).

use cedar_fs_repro::cfs::{CfsConfig, CfsVolume};
use cedar_fs_repro::disk::{
    CpuModel, CrashPlan, DiskStats, DiskTiming, SimClock, SimDisk, SECTOR_BYTES,
};
use cedar_fs_repro::fsd::volume::MAX_RUNS;
use cedar_fs_repro::fsd::{FsdConfig, FsdError, FsdVolume};
use cedar_vol::fs::{CedarFsError, FsBackend, CHUNK_PAGES};
use cedar_workload::steps::content_for;
use proptest::prelude::*;

const MIB: u64 = 1 << 20;
const MIB_PAGES: u64 = MIB / SECTOR_BYTES as u64;

/// What a streamed MiB may cost on the T-300 with the Dorado's CPU: the
/// transfer, the per-sector CPU, one average seek and one revolution,
/// with a tenth over for dispatch, the name lookup and the
/// track-to-track crossings.
fn streamed_mib_bound_us(sectors: u64) -> u64 {
    let t = DiskTiming::TRIDENT_T300;
    let exact = sectors * t.sector_us()
        + sectors * CpuModel::DORADO.per_sector_us
        + t.average_seek_us(815)
        + t.revolution_us();
    exact + exact / 10
}

#[test]
fn fsd_streams_a_mib_in_one_request() {
    let mut v =
        FsdVolume::format(SimDisk::trident_t300(SimClock::new()), FsdConfig::default()).unwrap();
    let data = content_for("big", MIB);
    FsBackend::create(&mut v, "big", &data).unwrap();
    v.force().unwrap();

    let (s0, t0) = (v.disk_stats(), v.clock().now());
    assert_eq!(FsBackend::read(&mut v, "big").unwrap(), data);
    let d = v.disk_stats().since(&s0);
    assert_eq!(d.reads, 1, "leader piggybacked on the one run: {d:?}");
    assert_eq!(d.sectors_read, MIB_PAGES + 1);
    assert!(d.lost_revolutions <= 1, "{d:?}");
    let took = v.clock().now() - t0;
    assert!(
        took <= streamed_mib_bound_us(MIB_PAGES + 1),
        "streamed MiB took {took} µs"
    );

    // The page-level API is still there and still costs what 4 KB
    // requests cost on this disk: the CPU charge between two requests
    // carries the next sector past the head. Nobody should "fix" that in
    // the disk model.
    let mut f = v.open("big", None).unwrap();
    let s0 = v.disk_stats();
    let mut paged = Vec::new();
    for page in (0..f.pages()).step_by(CHUNK_PAGES as usize) {
        paged.extend(v.read_pages(&mut f, page, CHUNK_PAGES).unwrap());
    }
    assert_eq!(paged, data);
    let d = v.disk_stats().since(&s0);
    assert!(d.lost_revolutions >= 200, "{d:?}");
}

#[test]
fn cfs_streams_a_mib_in_one_request_per_run() {
    let mut v =
        CfsVolume::format(SimDisk::trident_t300(SimClock::new()), CfsConfig::default()).unwrap();
    let data = content_for("big", MIB);
    FsBackend::create(&mut v, "big", &data).unwrap();
    let runs = v.open("big", None).unwrap().header.run_table.runs().len() as u64;

    let (s0, t0) = (v.disk_stats(), v.clock().now());
    assert_eq!(FsBackend::read(&mut v, "big").unwrap(), data);
    let d = v.disk_stats().since(&s0);
    // The open reads the two header sectors; the data is one request per
    // run, as on FSD.
    assert_eq!(d.reads, 1 + runs, "{d:?}");
    assert_eq!(d.sectors_read, 2 + MIB_PAGES);
    assert!(d.lost_revolutions <= 1, "{d:?}");
    let took = v.clock().now() - t0;
    assert!(
        took <= streamed_mib_bound_us(MIB_PAGES + 2),
        "streamed MiB took {took} µs"
    );
}

#[test]
fn streamed_read_returns_acknowledged_bytes_after_a_crash() {
    // A MiB created and forced, then a crash in the middle of the next
    // operation's force: the boot replays the log and the streamed read
    // hands back every acknowledged byte.
    let config = FsdConfig::default;
    let mut v = FsdVolume::format(SimDisk::trident_t300(SimClock::new()), config()).unwrap();
    let data = content_for("big", MIB);
    FsBackend::create(&mut v, "big", &data).unwrap();
    v.force().unwrap();

    FsBackend::create(&mut v, "next", b"in flight").unwrap();
    v.disk_mut().schedule_crash(CrashPlan {
        after_sector_writes: 2,
        damaged_tail: 1,
    });
    assert!(v.force().is_err(), "the force must be cut short");
    let mut disk = v.into_disk();
    disk.reboot();

    let (mut v, report) = FsdVolume::boot(disk, config()).unwrap();
    assert!(report.records_replayed >= 1);
    FsBackend::open(&mut v, "big").unwrap(); // Name-table pages cached.
    let s0 = v.disk_stats();
    assert_eq!(FsBackend::read(&mut v, "big").unwrap(), data);
    assert_eq!(v.disk_stats().since(&s0).reads, 1);
    assert!(matches!(
        FsBackend::read(&mut v, "next"),
        Err(CedarFsError::NotFound(_))
    ));
}

// ----- fragmented volumes ------------------------------------------------------

/// A tiny FSD volume whose only free space is one hole per entry of
/// `holes` (each `holes[i]` sectors long, none adjacent to another).
fn fragmented(holes: &[u32]) -> FsdVolume {
    let mut v = FsdVolume::format(
        SimDisk::tiny(),
        FsdConfig {
            nt_pages: 48,
            log_sectors: 128,
            cpu: CpuModel::FREE,
            ..Default::default()
        },
    )
    .unwrap();
    // The half-second daemon stays out of the I/O counts.
    v.set_commit_interval(u64::MAX / 2);
    // Small files fill the area front to back, so wall / hole / wall /
    // hole ... lie side by side; a hole file of `h - 1` pages plus its
    // leader is `h` sectors.
    for (i, h) in holes.iter().enumerate() {
        v.create(&format!("wall/{i:02}"), b"w").unwrap();
        let pages = (*h - 1) as usize;
        v.create(&format!("hole/{i:02}"), &vec![0u8; pages * SECTOR_BYTES])
            .unwrap();
    }
    v.create("wall/end", b"w").unwrap();
    // Take everything else, in ever smaller pieces.
    let mut n = 0;
    for pages in [256usize, 64, 16, 4, 1, 0] {
        loop {
            match v.create(&format!("fill/{n:03}"), &vec![0u8; pages * SECTOR_BYTES]) {
                Ok(_) => n += 1,
                Err(FsdError::NoSpace) => break,
                Err(e) => panic!("filling the volume: {e}"),
            }
        }
    }
    for i in 0..holes.len() {
        v.delete(&format!("hole/{i:02}"), None).unwrap();
    }
    // Deleted pages are free once the delete has committed (§5.5).
    v.force().unwrap();
    assert_eq!(v.free_sectors(), holes.iter().sum::<u32>());
    v
}

/// Hole lengths and a file size in pages that fits them: either up to
/// `MAX_RUNS` holes of up to 32 sectors, or holes of one sector each —
/// the leader then takes a hole of its own and is not adjacent to data
/// page 0.
fn arb_layout() -> impl Strategy<Value = (Vec<u32>, u32)> {
    let pick = |(holes, frac): (Vec<u32>, u32)| {
        let room = holes.iter().sum::<u32>() - 1;
        (holes, room.min(300) * frac / 100)
    };
    prop_oneof![
        3 => (proptest::collection::vec(1u32..33, 2..MAX_RUNS + 1), 0u32..101).prop_map(pick),
        1 => (proptest::collection::vec(Just(1u32), 2..MAX_RUNS + 1), 50u32..101).prop_map(pick),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fragmented_files_stream_run_by_run(layout in arb_layout(), tail in 1usize..SECTOR_BYTES + 1) {
        let (holes, pages) = layout;
        let mut v = fragmented(&holes);
        // The last page is partly used unless the file is empty.
        let bytes = (pages as usize * SECTOR_BYTES).saturating_sub(SECTOR_BYTES - tail);
        let data = content_for("target", bytes as u64);
        let made = v.create("target", &data).unwrap();
        prop_assert_eq!(made.pages(), pages);
        let runs = made.entry.run_table.runs();
        let leader_adjacent = runs.first().is_some_and(|r| r.start == made.entry.leader_addr + 1);
        let expect_reads = match (runs.len() as u64, leader_adjacent) {
            (0, _) => 0,
            (n, true) => n,
            (n, false) => n + 1,
        };
        let leader_sectors = u64::from(pages > 0);

        FsBackend::open(&mut v, "target").unwrap(); // Name-table pages cached.
        let s0 = v.disk_stats();
        prop_assert_eq!(&FsBackend::read(&mut v, "target").unwrap(), &data);
        let d = v.disk_stats().since(&s0);
        prop_assert_eq!(d.reads, expect_reads, "runs {:?}", runs);
        prop_assert_eq!(d.sectors_read, u64::from(pages) + leader_sectors);
        prop_assert_eq!(d.writes, 0);

        // One handle verifies its leader once: the second whole-file read
        // moves the data sectors only.
        let mut f = v.open("target", None).unwrap();
        prop_assert_eq!(&v.read_file(&mut f).unwrap(), &data);
        let s0 = v.disk_stats();
        prop_assert_eq!(&v.read_file(&mut f).unwrap(), &data);
        let d = v.disk_stats().since(&s0);
        prop_assert_eq!((d.reads, d.sectors_read), (runs.len() as u64, u64::from(pages)));

        // Page by page on a fresh handle: the same bytes, the leader once.
        let mut f = v.open("target", None).unwrap();
        let s0 = v.disk_stats();
        let mut paged = Vec::new();
        for page in 0..pages {
            paged.extend(v.read_page(&mut f, page).unwrap());
        }
        paged.truncate(bytes);
        prop_assert_eq!(&paged, &data);
        let d = v.disk_stats().since(&s0);
        prop_assert_eq!(d.sectors_read, u64::from(pages) + leader_sectors);

        // As one page range on a fresh handle: the same bytes, the same
        // requests as the whole-file read.
        let mut f = v.open("target", None).unwrap();
        let s0 = v.disk_stats();
        let mut ranged = v.read_pages(&mut f, 0, pages).unwrap();
        ranged.truncate(bytes);
        prop_assert_eq!(&ranged, &data);
        let d = v.disk_stats().since(&s0);
        prop_assert_eq!((d.reads, d.sectors_read), (expect_reads, u64::from(pages) + leader_sectors));
    }
}

/// A file whose first run holds only its leader: every hole is one
/// sector, so data page 0 lies in a hole of its own. The whole-file read,
/// the page-range read and the page reads hand back the same bytes and
/// check the leader once per handle — after the data, there being no
/// transfer for it to ride on. The whole-file read's disk time is pinned
/// to the microsecond: the data run by run, then the leader.
#[test]
fn a_leader_apart_from_page_zero_is_checked_once_by_every_read() {
    const PAGES: u32 = 5;
    let mut v = fragmented(&[1; PAGES as usize + 1]);
    let data = content_for("target", u64::from(PAGES) * SECTOR_BYTES as u64 - 100);
    let made = v.create("target", &data).unwrap();
    let runs = made.entry.run_table.runs();
    assert_eq!(runs.len(), PAGES as usize);
    assert_ne!(runs[0].start, made.entry.leader_addr + 1);
    FsBackend::open(&mut v, "target").unwrap(); // Name-table pages cached.

    let mut f = v.open("target", None).unwrap();
    let s0 = v.disk_stats();
    assert_eq!(v.read_file(&mut f).unwrap(), data);
    assert_eq!(
        v.disk_stats().since(&s0),
        DiskStats {
            reads: 6,
            sectors_read: 6,
            short_seeks: 3,
            seek_us: 18_000,
            rotation_us: 16_902,
            transfer_us: 6_246,
            lost_revolutions: 2,
            lost_rev_us: 26_517,
            ..DiskStats::default()
        }
    );
    // The handle checked its leader: a second read moves the data only.
    let s0 = v.disk_stats();
    assert_eq!(v.read_file(&mut f).unwrap(), data);
    let d = v.disk_stats().since(&s0);
    assert_eq!((d.reads, d.sectors_read), (5, 5));

    let mut f = v.open("target", None).unwrap();
    let s0 = v.disk_stats();
    let mut ranged = v.read_pages(&mut f, 0, PAGES).unwrap();
    ranged.truncate(data.len());
    assert_eq!(ranged, data);
    let d = v.disk_stats().since(&s0);
    assert_eq!((d.reads, d.sectors_read), (6, 6));

    let mut f = v.open("target", None).unwrap();
    let s0 = v.disk_stats();
    let mut paged = Vec::new();
    for page in 0..PAGES {
        paged.extend(v.read_page(&mut f, page).unwrap());
    }
    paged.truncate(data.len());
    assert_eq!(paged, data);
    let d = v.disk_stats().since(&s0);
    assert_eq!((d.reads, d.sectors_read), (6, 6));
}
