//! E-SCAVENGE — recovery-scan scaling: serial vs pFSCK-style parallel.
//!
//! The paper's horror story is the hour-long CFS scavenge of a 300 MB
//! volume (§2, Table 2); the north star is millions of files. This
//! bench sweeps file count on scaled Trident-class volumes and times
//! the two whole-volume recovery scans both ways:
//!
//! * **FSD scavenge** (recovery rung 3): clean shutdown, then both log
//!   meta replicas destroyed — boot must rebuild the name table and
//!   the VAM from leader pages;
//! * **FSD VAM reconstruction** (rung 1 after a crash): log redo
//!   succeeds but the free map must be rebuilt from the name table.
//!
//! Serial runs use one decode worker; parallel runs spread decode,
//! entry verification and free-map sharding across [`WORKERS`] CPU
//! workers while the single simulated spindle keeps I/O serial. Both
//! legs boot clones of the *same* wounded disk, and the bench asserts
//! the recovered state is identical before trusting the times. CFS
//! rows show the same effect on the label-interpretation scavenger.
//!
//! The run writes `BENCH_scavenge_scale.json` and gates ≥2× combined
//! speedup at the largest file count.

use cedar_bench::report::{platter_json, Json};
use cedar_bench::{ms, FsBackend, Table};
use cedar_cfs::{CfsConfig, CfsVolume};
use cedar_disk::{DiskGeometry, DiskTiming, SimClock, SimDisk};
use cedar_fsd::{FsdConfig, FsdVolume, RecoveryReport, RecoveryRung};
use cedar_workload::populate_scale;

/// Decode/verify workers for the parallel legs.
const WORKERS: usize = 8;

/// Bytes per populated file: one data sector next to each leader.
const FILE_BYTES: usize = cedar_disk::SECTOR_BYTES;

/// Combined scavenge + VAM-rebuild speedup gate at the largest row
/// (×100, so 200 = 2×).
const SPEEDUP_FLOOR_X100: u64 = 200;

/// Name-table pages for a target population (≈11 entries per 1 KB
/// page, plus internal nodes and insert-time slack).
fn nt_pages_for(files: usize) -> u32 {
    (files / 6 + 64) as u32
}

/// A Trident-class geometry (19 heads × 38 sectors, T-300 timing) with
/// enough cylinders for `files` leader+data pairs plus both name-table
/// copies, the log, and slack.
fn scaled_trident(files: usize) -> DiskGeometry {
    let needed = files as u32 * 2 + nt_pages_for(files) * 2 * 2 + 4096;
    let per_cylinder = 19 * 38;
    DiskGeometry {
        cylinders: needed.div_ceil(per_cylinder).max(64),
        heads: 19,
        sectors_per_track: 38,
    }
}

fn fsd_config(files: usize, workers: usize) -> FsdConfig {
    FsdConfig {
        nt_pages: nt_pages_for(files),
        scavenge_workers: workers,
        ..FsdConfig::default()
    }
}

/// One population, four boots: (serial, parallel) × (scavenge rung,
/// VAM-rebuild rung), all from clones of the same wounded disks.
struct FsdRow {
    files: usize,
    serial_scavenge_us: u64,
    parallel_scavenge_us: u64,
    serial_vam_us: u64,
    parallel_vam_us: u64,
    host_secs: f64,
    /// The four recovered disks, in boot order.
    platters: Vec<u64>,
}

impl FsdRow {
    fn speedup_x100(&self) -> u64 {
        let serial = self.serial_scavenge_us + self.serial_vam_us;
        let parallel = self.parallel_scavenge_us + self.parallel_vam_us;
        serial * 100 / parallel.max(1)
    }
}

/// Boots, pays the VAM walk boot leaves owed (before the listing below
/// warms the cache the walk's prefetch is timed against) and checks the
/// population. Returns the report, the walk's simulated time — zero on
/// the scavenge rung, which rebuilds the map itself — and the digest of
/// the recovered platters.
fn boot_expecting(
    disk: SimDisk,
    config: FsdConfig,
    rung: RecoveryRung,
    files: usize,
) -> (RecoveryReport, u64, u64) {
    let (mut vol, report) = FsdVolume::boot(disk, config).expect("boot");
    assert_eq!(report.rung, rung, "expected recovery rung {rung:?}");
    let walk_us = vol.settle_vam().expect("VAM walk").map_or(0, |w| w.us());
    let listed = FsBackend::list(&mut vol, "pop").expect("list").len();
    assert_eq!(listed, files, "recovered volume lost files");
    (report, walk_us, vol.disk_mut().platter_digest())
}

fn fsd_row(files: usize) -> FsdRow {
    let host_start = std::time::Instant::now();
    let geometry = scaled_trident(files);
    let disk = SimDisk::new(geometry, DiskTiming::TRIDENT_T300, SimClock::new());
    let mut vol = FsdVolume::format(disk, fsd_config(files, 1)).expect("format");
    populate_scale(&mut vol, "pop", files, FILE_BYTES).expect("populate");
    vol.force().expect("force");

    // Crash leg: the log replays but the VAM must be rebuilt (rung 1).
    let mut crash_disk = vol.disk_mut().clone();
    crash_disk.crash_now();
    crash_disk.reboot();

    // Scavenge leg: clean shutdown, then both log meta replicas die.
    vol.shutdown().expect("shutdown");
    let meta_a = vol.layout().log_start;
    let meta_b = vol.layout().log_start + 2;
    let mut scav_disk = vol.into_disk();
    scav_disk.damage_sector(meta_a);
    scav_disk.damage_sector(meta_b);
    scav_disk.reboot();

    let parallel_crash = crash_disk.clone();
    let (sr, serial_vam_us, serial_crash) =
        boot_expecting(crash_disk, fsd_config(files, 1), RecoveryRung::Redo, files);
    assert!(sr.vam_reconstructed, "crash leg must rebuild the VAM");
    let (pr, parallel_vam_us, parallel_crash) = boot_expecting(
        parallel_crash,
        fsd_config(files, WORKERS),
        RecoveryRung::Redo,
        files,
    );
    assert!(pr.vam_reconstructed);

    let parallel_scav = scav_disk.clone();
    let (sr, _, serial_scav) = boot_expecting(
        scav_disk,
        fsd_config(files, 1),
        RecoveryRung::Scavenge,
        files,
    );
    let (pr, _, parallel_scav) = boot_expecting(
        parallel_scav,
        fsd_config(files, WORKERS),
        RecoveryRung::Scavenge,
        files,
    );
    let (ss, ps) = (
        sr.scavenge.as_ref().expect("serial scavenge summary"),
        pr.scavenge.as_ref().expect("parallel scavenge summary"),
    );
    assert_eq!(ss.leaders_found, ps.leaders_found);
    assert_eq!(ss.files_rebuilt, ps.files_rebuilt);
    assert_eq!(ss.tombstones, ps.tombstones);
    assert_eq!(ss.unreadable_sectors, ps.unreadable_sectors);
    assert_eq!(ss.losses, ps.losses);

    FsdRow {
        files,
        serial_scavenge_us: sr.scavenge_us,
        parallel_scavenge_us: pr.scavenge_us,
        serial_vam_us,
        parallel_vam_us,
        host_secs: host_start.elapsed().as_secs_f64(),
        platters: vec![serial_crash, parallel_crash, serial_scav, parallel_scav],
    }
}

struct CfsRow {
    files: usize,
    serial_us: u64,
    parallel_us: u64,
    /// The two scavenged disks, serial first.
    platters: Vec<u64>,
}

fn cfs_config(files: usize, workers: usize) -> CfsConfig {
    CfsConfig {
        nt_pages: nt_pages_for(files),
        cpu: cedar_disk::CpuModel::DORADO,
        scavenge_workers: workers,
    }
}

fn cfs_row(files: usize) -> CfsRow {
    let geometry = scaled_trident(files);
    let disk = SimDisk::new(geometry, DiskTiming::TRIDENT_T300, SimClock::new());
    let mut vol = CfsVolume::format(disk, cfs_config(files, 1)).expect("format");
    populate_scale(&mut vol, "pop", files, FILE_BYTES).expect("populate");
    let mut disk = vol.into_disk();
    disk.crash_now();
    disk.reboot();
    let parallel_disk = disk.clone();

    let (mut serial, loaded) = CfsVolume::boot(disk, cfs_config(files, 1)).expect("boot");
    assert!(!loaded, "crash must leave the name table unloadable");
    let sr = serial.scavenge().expect("serial scavenge");
    let (mut parallel, _) =
        CfsVolume::boot(parallel_disk, cfs_config(files, WORKERS)).expect("boot");
    let pr = parallel.scavenge().expect("parallel scavenge");

    assert_eq!(sr.files_recovered, pr.files_recovered);
    assert_eq!(sr.damaged_headers, pr.damaged_headers);
    assert_eq!(sr.orphan_sectors, pr.orphan_sectors);
    assert_eq!(sr.ios, pr.ios);
    assert_eq!(sr.files_recovered, files);

    CfsRow {
        files,
        serial_us: sr.duration_us,
        parallel_us: pr.duration_us,
        platters: vec![
            serial.disk_mut().platter_digest(),
            parallel.disk_mut().platter_digest(),
        ],
    }
}

fn main() {
    println!(
        "Scavenge & VAM-rebuild scaling, serial vs {WORKERS} workers \
         (single simulated spindle; times are simulated)"
    );

    let mut fsd_rows = Vec::new();
    let mut t = Table::new(
        "FSD recovery scans vs population",
        &[
            "files",
            "scavenge serial",
            "scavenge parallel",
            "VAM serial",
            "VAM parallel",
            "combined speedup",
            "host s",
        ],
    );
    for files in [1_000, 10_000, 100_000] {
        let row = fsd_row(files);
        t.row(&[
            row.files.to_string(),
            format!("{:.1} ms", ms(row.serial_scavenge_us)),
            format!("{:.1} ms", ms(row.parallel_scavenge_us)),
            format!("{:.1} ms", ms(row.serial_vam_us)),
            format!("{:.1} ms", ms(row.parallel_vam_us)),
            format!("{:.2}x", row.speedup_x100() as f64 / 100.0),
            format!("{:.1}", row.host_secs),
        ]);
        fsd_rows.push(row);
    }
    t.print();

    let mut cfs_rows = Vec::new();
    let mut t = Table::new(
        "CFS label-interpretation scavenge",
        &["files", "serial", "parallel", "speedup"],
    );
    for files in [1_000, 5_000] {
        let row = cfs_row(files);
        t.row(&[
            row.files.to_string(),
            format!("{:.1} ms", ms(row.serial_us)),
            format!("{:.1} ms", ms(row.parallel_us)),
            format!(
                "{:.2}x",
                row.serial_us as f64 / row.parallel_us.max(1) as f64
            ),
        ]);
        cfs_rows.push(row);
    }
    t.print();

    let largest = fsd_rows.last().expect("rows");
    let gate = largest.speedup_x100();
    assert!(
        gate >= SPEEDUP_FLOOR_X100,
        "combined scavenge+VAM speedup at {} files is {}.{:02}x, below the \
         {SPEEDUP_FLOOR_X100}/100 floor",
        largest.files,
        gate / 100,
        gate % 100,
    );

    let fsd = fsd_rows.iter().map(|r| {
        Json::inline()
            .field("files", r.files)
            .field("serial_scavenge_us", r.serial_scavenge_us)
            .field("parallel_scavenge_us", r.parallel_scavenge_us)
            .field("serial_vam_us", r.serial_vam_us)
            .field("parallel_vam_us", r.parallel_vam_us)
            .field("speedup_x100", r.speedup_x100())
            .field("platter_digest", platter_json(&r.platters))
    });
    let cfs = cfs_rows.iter().map(|r| {
        Json::inline()
            .field("files", r.files)
            .field("serial_us", r.serial_us)
            .field("parallel_us", r.parallel_us)
            .field("speedup_x100", r.serial_us * 100 / r.parallel_us.max(1))
            .field("platter_digest", platter_json(&r.platters))
    });
    let json = Json::block()
        .field("bench", "scavenge_scale")
        .field("workers", WORKERS)
        .field("fsd", Json::rows(fsd))
        .field("cfs", Json::rows(cfs))
        .field(
            "gate",
            Json::inline()
                .field("largest_files", largest.files)
                .field("speedup_x100", gate)
                .field("floor_x100", SPEEDUP_FLOOR_X100),
        )
        .render();
    std::fs::write("BENCH_scavenge_scale.json", json).expect("write BENCH_scavenge_scale.json");
    println!(
        "\nwrote BENCH_scavenge_scale.json (largest row: {} files, {:.2}x)",
        largest.files,
        gate as f64 / 100.0
    );
}
