//! E-GC — the §5.4 group-commit measurements.
//!
//! "One benchmark measured the combination of logging and group commit as
//! reducing the number of I/O's for metadata by a factor of 2.98 during
//! these bulk operations; the total reduction was a factor of 2.34 for
//! all I/O's."
//!
//! The bulk workload of §5.4: property updates "normally localized to a
//! subdirectory" — here, opens of cached remote files (each refreshing a
//! last-used-time in the name table) interleaved with the replacement of
//! small output files. It runs twice on FSD: with the half-second group
//! commit, and with a commit interval of zero so every operation forces
//! its own log record (logging without grouping). The client "computes"
//! about 100 ms between operations, as the compiler behind the paper's
//! bulk updates did — the commit window batches whatever lands inside
//! half a second. Per-region disk accounting separates metadata traffic
//! (log + name table + boot/VAM) from data traffic; a deleted file's
//! tombstone — its logged leader image, written home when the log laps
//! past it before a create has taken the sector over — lands in the data
//! area but is metadata, and is counted there.
//!
//! Also reproduced: the §5.4 record sizes — one logged page is a
//! 7-sector record, records under load average tens of sectors (paper:
//! typically 33, max observed 83).

use cedar_bench::{disk_breakdown, Table};
use cedar_disk::{DiskStats, SimClock, SimDisk};
use cedar_fsd::{FsdConfig, FsdVolume, LeaderPage};

const CACHED: usize = 300;
const ROUNDS: usize = 3;

struct RunResult {
    metadata_ops: u64,
    data_ops: u64,
    total_ops: u64,
    records: u64,
    avg_record: f64,
    max_record: u64,
    disk: DiskStats,
    /// [`SimDisk::platter_digest`] of the disk the run ends on.
    platter: u64,
}

fn run_with_interval(commit_interval_us: u64) -> RunResult {
    run_with(commit_interval_us, 0)
}

fn run_with(commit_interval_us: u64, log_sectors: u32) -> RunResult {
    let mut vol = FsdVolume::format(
        SimDisk::trident_t300(SimClock::new()),
        FsdConfig {
            log_sectors,
            ..Default::default()
        },
    )
    .unwrap();
    vol.set_commit_interval(commit_interval_us);
    let l = *vol.layout();
    vol.disk_mut().set_regions(vec![
        (0, l.small_start, "meta"), // Boot pages + VAM save.
        (l.small_start, l.nt_a_start, "data"),
        (l.nt_a_start, l.central_end, "meta"), // NT copies + log.
        (l.central_end, l.total_sectors, "data"),
    ]);

    // Setup: the cache directory full of remote copies, plus outputs.
    for i in 0..CACHED {
        vol.create_cached(&format!("cache/Interface{i:03}.bcd"), &vec![0u8; 2048])
            .unwrap();
    }
    for i in 0..40 {
        vol.create(&format!("pkg/Out{i:02}.bcd"), &vec![0u8; 4096])
            .unwrap();
    }
    vol.force().unwrap();
    vol.disk_mut().reset_stats();
    vol.disk_mut().enable_write_journal();
    let stats0 = vol.commit_stats();

    // Measured: the bulk update. The client computes (~100 ms) between
    // file operations, as the compiler did — that pace is what decides
    // how many updates each half-second commit window batches.
    for _round in 0..ROUNDS {
        for i in 0..CACHED {
            // Consulting the cached copy refreshes its last-used-time.
            vol.open(&format!("cache/Interface{i:03}.bcd"), None)
                .unwrap();
            vol.advance_time(100_000).unwrap();
            if i % 8 == 0 {
                let out = format!("pkg/Out{:02}.bcd", (i / 8) % 40);
                vol.delete(&out, None).unwrap();
                vol.create(&out, &vec![0u8; 4096]).unwrap();
            }
        }
    }
    vol.force().unwrap();

    // Tombstones gone home: in the data area (the log's copies are in
    // the metadata area), and each a write of its own, since every file
    // here has data behind its leader.
    let in_data = |a| (l.small_start..l.nt_a_start).contains(&a) || a >= l.central_end;
    let tombstones = vol
        .disk_mut()
        .drain_write_journal()
        .iter()
        .filter(|w| in_data(w.addr))
        .filter_map(|w| w.data.as_deref())
        .filter(|d| LeaderPage::decode(d).is_ok_and(|l| l.deleted))
        .count() as u64;
    let regions = vol.disk_mut().region_ops().clone();
    let stats = vol.commit_stats();
    let total = vol.disk_stats().total_ops();
    let records = stats.records - stats0.records;
    RunResult {
        metadata_ops: regions.get("meta").unwrap_or(&0) + tombstones,
        data_ops: regions.get("data").unwrap_or(&0) - tombstones,
        total_ops: total,
        records,
        avg_record: (stats.log_sectors_written - stats0.log_sectors_written) as f64
            / records.max(1) as f64,
        max_record: stats.max_record_sectors,
        disk: vol.disk_stats(),
        platter: vol.disk_mut().platter_digest(),
    }
}

fn main() {
    println!("Reproducing the §5.4 group-commit measurements (bulk subdirectory update)");

    let grouped = run_with_interval(500_000);
    let ungrouped = run_with_interval(0);
    assert_eq!(
        grouped.data_ops, ungrouped.data_ops,
        "the data traffic must be identical; only metadata batching differs"
    );

    let mut t = Table::new(
        "Logging with vs without group commit (disk I/Os during the bulk update)",
        &[
            "traffic",
            "per-op commit",
            "group commit",
            "reduction",
            "paper",
        ],
    );
    t.row(&[
        "metadata I/Os".into(),
        ungrouped.metadata_ops.to_string(),
        grouped.metadata_ops.to_string(),
        format!(
            "{:.2}x",
            ungrouped.metadata_ops as f64 / grouped.metadata_ops.max(1) as f64
        ),
        "2.98x".into(),
    ]);
    t.row(&[
        "all I/Os".into(),
        ungrouped.total_ops.to_string(),
        grouped.total_ops.to_string(),
        format!(
            "{:.2}x",
            ungrouped.total_ops as f64 / grouped.total_ops.max(1) as f64
        ),
        "2.34x".into(),
    ]);
    t.print();
    println!();
    println!("{}", disk_breakdown("per-op commit", &ungrouped.disk));
    println!("{}", disk_breakdown("group commit ", &grouped.disk));
    println!("per-op commit: platters {:016x}", ungrouped.platter);
    println!("group commit : platters {:016x}", grouped.platter);

    let mut t = Table::new(
        "Log record sizes (sectors; a record with n pages is 2n + 5 sectors)",
        &["measure", "value", "paper"],
    );
    t.row(&[
        "records appended (grouped run)".into(),
        grouped.records.to_string(),
        "-".into(),
    ]);
    t.row(&[
        "smallest possible record".into(),
        "7".into(),
        "7 (one-page last-used-time update)".into(),
    ]);
    t.row(&[
        "average under load".into(),
        format!("{:.1}", grouped.avg_record),
        "33 (14 pages logged)".into(),
    ]);
    t.row(&[
        "largest observed".into(),
        grouped.max_record.to_string(),
        "83".into(),
    ]);
    t.print();

    // §5.4's closing remark, as an ablation: "These factors may be
    // improved somewhat by using a bigger log and lengthening the time
    // between commits."
    let mut t = Table::new(
        "Ablation: commit interval x log size (metadata I/Os for the same workload)",
        &["interval", "log", "metadata I/Os", "records"],
    );
    let mut platters = Vec::new();
    for (interval, label_i) in [
        (250_000u64, "0.25 s"),
        (500_000, "0.5 s"),
        (2_000_000, "2 s"),
    ] {
        for (log, label_l) in [(722u32, "1 cyl"), (1444, "2 cyl"), (4332, "6 cyl")] {
            let r = run_with(interval, log);
            t.row(&[
                label_i.into(),
                label_l.into(),
                r.metadata_ops.to_string(),
                r.records.to_string(),
            ]);
            platters.push(format!("{label_i}, {label_l}: platters {:016x}", r.platter));
        }
    }
    t.print();
    println!("\n{}", platters.join("\n"));
    println!(
        "
Longer intervals batch more updates per record; a bigger log defers
         third-entry home writes — both shrink metadata traffic, as §5.4 predicts."
    );
}
