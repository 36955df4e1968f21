//! Table 2 — "CFS to FSD Performance Measured in Wall Clock (times in
//! msec)".
//!
//! Reproduces every row: small/large create, open, open + read,
//! small/large delete, read page, and crash recovery, on the simulated
//! 300 MB Trident-class volume with Dorado CPU costs. The paper's
//! measured values are printed alongside for comparison; absolute times
//! differ with the hardware constants, the *shape* (who wins, by roughly
//! what factor) is the reproduction target.

use cedar_bench::report::f2;
use cedar_bench::{cfs_t300, disk_breakdown, fsd_t300, ms, populate, Table};
use cedar_disk::DiskStats;
use cedar_fsd::FsdVolume;

const POP_FILES: usize = 4000;
const SMALL_ITERS: usize = 40;
const LARGE_ITERS: usize = 12;
const MEGABYTE: usize = 1 << 20;

/// Measured mean simulated time per iteration, in microseconds.
fn mean_us(clock: &cedar_disk::SimClock, iters: usize, mut f: impl FnMut(usize)) -> u64 {
    let t0 = clock.now();
    for i in 0..iters {
        f(i);
    }
    (clock.now() - t0) / iters as u64
}

/// One timed row: the mean simulated time per operation, and how many
/// group-commit forces landed inside the window (FSD only: CFS writes
/// through and has no log to force).
#[derive(Clone, Copy)]
struct Timed {
    us: u64,
    forces: Option<u64>,
}

impl Timed {
    fn cfs(us: u64) -> Self {
        Self { us, forces: None }
    }
}

/// [`mean_us`] on the FSD volume, forced first: the window pays for the
/// commits its own operations make and for none made before it, and the
/// forces the 0.5 s group-commit timer fires inside it are counted.
fn fsd_mean_us(
    vol: &mut FsdVolume,
    iters: usize,
    mut f: impl FnMut(&mut FsdVolume, usize),
) -> Timed {
    vol.force().expect("force");
    let (clock, forces) = (vol.clock(), vol.commit_stats().forces);
    let us = mean_us(&clock, iters, |i| f(vol, i));
    let forces = Some(vol.commit_stats().forces - forces);
    Timed { us, forces }
}

struct Measured {
    small_create: Timed,
    large_create: Timed,
    open: Timed,
    open_read: Timed,
    small_delete: Timed,
    large_delete: Timed,
    read_page: Timed,
    /// The whole of crash recovery.
    recovery_s: f64,
    /// The part of it that stands between the crash and the first read
    /// (FSD only: boot without the deferred VAM walk).
    first_read_s: Option<f64>,
    disk: DiskStats,
}

fn measure_cfs() -> Measured {
    let mut vol = cfs_t300();
    let clock = vol.clock();
    populate(&mut vol, "pop", POP_FILES, 11);
    let big = vec![0u8; MEGABYTE];

    let small_create = mean_us(&clock, SMALL_ITERS, |i| {
        vol.create(&format!("dir/s{i:03}"), b"x").unwrap();
    });
    let large_create = mean_us(&clock, LARGE_ITERS, |i| {
        vol.create(&format!("dir/L{i:03}"), &big).unwrap();
    });
    // Opens, reads and deletes hit files scattered across the volume
    // (population order with a large stride), so the head genuinely
    // seeks — the condition behind the paper's absolute numbers.
    let scattered = |i: usize| format!("pop/pop{:05}", (i * 997) % POP_FILES);
    let open = mean_us(&clock, SMALL_ITERS, |i| {
        vol.open(&scattered(i), None).unwrap();
    });
    let open_read = mean_us(&clock, SMALL_ITERS, |i| {
        let f = vol.open(&scattered(i + 40), None).unwrap();
        if f.pages() > 0 {
            vol.read_page(&f, 0).unwrap();
        }
    });
    // Read page: random pages within one open 1 MB file — "the disk
    // hardware is the same, so a simple file read takes the same amount
    // of time, once the file is open" (§7).
    let reader = vol.open("dir/L000", None).unwrap();
    let read_page = mean_us(&clock, SMALL_ITERS, |i| {
        vol.read_page(&reader, (i as u32 * 509) % 2048).unwrap();
    });
    let small_delete = mean_us(&clock, SMALL_ITERS, |i| {
        vol.delete(&format!("dir/s{i:03}"), None).unwrap();
    });
    let large_delete = mean_us(&clock, LARGE_ITERS, |i| {
        vol.delete(&format!("dir/L{i:03}"), None).unwrap();
    });

    // Crash recovery: power fail, then a scavenge (the only repair CFS
    // has once the hint VAM is stale).
    let mut disk = vol.into_disk();
    disk.crash_now();
    disk.reboot();
    let (mut vol, vam_ok) =
        cedar_cfs::CfsVolume::boot(disk, cedar_cfs::CfsConfig::default()).expect("boot CFS");
    assert!(!vam_ok, "crash must invalidate the VAM hint");
    let report = vol.scavenge().expect("scavenge");
    let disk = vol.disk_stats();
    Measured {
        small_create: Timed::cfs(small_create),
        large_create: Timed::cfs(large_create),
        open: Timed::cfs(open),
        open_read: Timed::cfs(open_read),
        small_delete: Timed::cfs(small_delete),
        large_delete: Timed::cfs(large_delete),
        read_page: Timed::cfs(read_page),
        recovery_s: report.duration_us as f64 / 1e6,
        first_read_s: None,
        disk,
    }
}

fn measure_fsd() -> Measured {
    let mut vol = fsd_t300();
    populate(&mut vol, "pop", POP_FILES, 11);
    let big = vec![0u8; MEGABYTE];

    let small_create = fsd_mean_us(&mut vol, SMALL_ITERS, |vol, i| {
        vol.create(&format!("dir/s{i:03}"), b"x").unwrap();
    });
    let large_create = fsd_mean_us(&mut vol, LARGE_ITERS, |vol, i| {
        vol.create(&format!("dir/L{i:03}"), &big).unwrap();
    });
    let scattered = |i: usize| format!("pop/pop{:05}", (i * 997) % POP_FILES);
    let open = fsd_mean_us(&mut vol, SMALL_ITERS, |vol, i| {
        vol.open(&scattered(i), None).unwrap();
    });
    let open_read = fsd_mean_us(&mut vol, SMALL_ITERS, |vol, i| {
        let mut f = vol.open(&scattered(i + 40), None).unwrap();
        if f.pages() > 0 {
            vol.read_page(&mut f, 0).unwrap();
        }
    });
    let mut reader = vol.open("dir/L000", None).unwrap();
    vol.read_page(&mut reader, 0).unwrap(); // Leader verified outside the timing.
    let read_page = fsd_mean_us(&mut vol, SMALL_ITERS, |vol, i| {
        vol.read_page(&mut reader, (i as u32 * 509) % 2048).unwrap();
    });
    let small_delete = fsd_mean_us(&mut vol, SMALL_ITERS, |vol, i| {
        vol.delete(&format!("dir/s{i:03}"), None).unwrap();
    });
    let large_delete = fsd_mean_us(&mut vol, LARGE_ITERS, |vol, i| {
        vol.delete(&format!("dir/L{i:03}"), None).unwrap();
    });

    // Crash recovery: log redo plus VAM reconstruction (no shutdown).
    vol.force().expect("force");
    let mut disk = vol.into_disk();
    disk.crash_now();
    disk.reboot();
    // Boot leaves the log's images to go home with their thirds and the
    // VAM walk to the first allocation; the paper's row is the whole
    // recovery, so pay both here and time all three.
    let (mut vol, report) =
        cedar_fsd::FsdVolume::boot(disk, cedar_fsd::FsdConfig::default()).expect("boot FSD");
    assert!(report.vam_reconstructed);
    let settle = vol
        .settle_redo()
        .expect("redo settle")
        .expect("a crash boot owes the settle");
    let walk = vol
        .settle_vam()
        .expect("VAM walk")
        .expect("a crash boot owes the walk");
    let disk = vol.disk_stats();
    Measured {
        small_create,
        large_create,
        open,
        open_read,
        small_delete,
        large_delete,
        read_page,
        recovery_s: (report.total_us() + settle.us() + walk.us()) as f64 / 1e6,
        first_read_s: Some(report.total_us() as f64 / 1e6),
        disk,
    }
}

fn main() {
    println!("Reproducing Table 2: CFS vs FSD wall-clock times");
    println!(
        "(simulated Trident T-300, {POP_FILES} pre-existing files, Dorado CPU costs; \
         paper columns shown for comparison)"
    );
    let cfs = measure_cfs();
    let fsd = measure_fsd();

    let mut t = Table::new(
        "Table 2. CFS to FSD Performance Measured in Wall Clock (times in msec)",
        &[
            "operation",
            "CFS",
            "FSD",
            "speedup",
            "paper CFS",
            "paper FSD",
            "paper speedup",
            "FSD forces",
        ],
    );
    let mut row = |name: &str, c: Timed, f: Timed, pc: &str, pf: &str, ps: &str| {
        t.row(&[
            name.into(),
            f2(ms(c.us)),
            f2(ms(f.us)),
            format!("{:.2}x", c.us as f64 / f.us as f64),
            pc.into(),
            pf.into(),
            ps.into(),
            f.forces.map_or("-".into(), |n| n.to_string()),
        ]);
    };
    row(
        "Small create",
        cfs.small_create,
        fsd.small_create,
        "264",
        "70",
        "3.77",
    );
    row(
        "Large create",
        cfs.large_create,
        fsd.large_create,
        "7674",
        "2730",
        "2.81",
    );
    row("Open", cfs.open, fsd.open, "51.2", "11.7", "4.38");
    row(
        "Open + Read",
        cfs.open_read,
        fsd.open_read,
        "68.5",
        "35.4",
        "1.94",
    );
    row(
        "Small delete",
        cfs.small_delete,
        fsd.small_delete,
        "214",
        "15",
        "14.5",
    );
    row(
        "Large delete",
        cfs.large_delete,
        fsd.large_delete,
        "2692",
        "118",
        "22.8",
    );
    row("Read page", cfs.read_page, fsd.read_page, "41", "41", "1.0");
    t.row(&[
        "Crash recovery".into(),
        format!("{:.0} sec", cfs.recovery_s),
        format!("{:.1} sec", fsd.recovery_s),
        format!("{:.0}x", cfs.recovery_s / fsd.recovery_s),
        "3600+ sec".into(),
        "25 sec".into(),
        "100+".into(),
        "-".into(),
    ]);
    t.print();
    println!(
        "  (Each FSD row is timed after a force, so it pays for the commits its own operations\n   \
         make; \"FSD forces\" counts the group-commit forces that landed inside its window.)"
    );
    if let Some(s) = fsd.first_read_s {
        println!(
            "  (FSD serves its first read {s:.1} sec after the crash: boot only reads the log. The rest of\n   \
             the {:.1} sec waits: the log's images going home with their thirds, the name-table walk\n   \
             that rebuilds the VAM for an allocation the restart reserve cannot serve.)",
            fsd.recovery_s
        );
    }
    println!();
    println!(
        "{}",
        disk_breakdown("CFS (whole run incl. scavenge)", &cfs.disk)
    );
    println!(
        "{}",
        disk_breakdown("FSD (whole run incl. recovery)", &fsd.disk)
    );
}
