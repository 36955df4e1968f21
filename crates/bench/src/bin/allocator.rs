//! E-SIZE — the §5.6 allocator measurements.
//!
//! Two claims: the file population's shape ("50% of files are less that
//! 4,000 bytes but use only 8% of the sectors"), and that splitting the
//! disk into big and small file areas curtails the fragmentation the old
//! single-area allocator suffered ("Large free blocks of space were
//! broken up by small files").
//!
//! The ablation churns small files (with a long-lived minority, the
//! files that pin fragmentation) over a volume under each policy and
//! then measures the free-space structure and how many extents a large
//! file needs. Under the split policy the churn moves the allocator's
//! cursor as FSD does, where file data last moved: it touches a random
//! live file before each create, so a small file goes beside it. The
//! single area keeps its own rotating cursor.

use cedar_bench::Table;
use cedar_disk::SECTOR_BYTES;
use cedar_vol::codec::fnv1a;
use cedar_vol::{AllocPolicy, Allocator, Run, RunTable, Vam};
use cedar_workload::sizes::{small_file_shares, SizeDistribution};

const AREA: u32 = 200_000; // Sectors of data area (~100 MB).

struct FragResult {
    free_extents: u32,
    largest_extent: u32,
    big_file_runs: f64,
    failures: u32,
    /// FNV-1a of the final free map ([`Vam::to_bytes`]).
    free_map: u64,
}

fn churn(policy: AllocPolicy) -> FragResult {
    let mut vam = Vam::new_all_allocated(AREA);
    vam.free_run(Run::new(0, AREA));
    let mut alloc = Allocator::new(policy, 0, AREA);
    let mut sizes = SizeDistribution::new(99);
    let mut live: Vec<RunTable> = Vec::new();
    let mut x: u64 = 42;
    let mut touch: u64 = 7;

    // Churn: create files from the paper's distribution; keep every
    // tenth forever; delete random victims to hold occupancy near 40 %.
    let mut failures = 0;
    for i in 0..30_000 {
        let pages = (sizes.sample() as u32).div_ceil(SECTOR_BYTES as u32).max(1);
        if matches!(policy, AllocPolicy::SplitAreas) && !live.is_empty() {
            touch = touch.wrapping_mul(6364136223846793005).wrapping_add(1);
            let read = &live[(touch >> 33) as usize % live.len()];
            alloc.set_cursor(read.runs().last().map_or(0, |r| r.end()));
        }
        match alloc.allocate(&mut vam, pages) {
            Ok(rt) => {
                if i % 10 != 0 {
                    live.push(rt); // Keepers (i % 10 == 0) drop the handle, staying allocated.
                }
            }
            Err(_) => failures += 1,
        }
        while vam.free_count() < AREA * 60 / 100 {
            if live.is_empty() {
                break;
            }
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let victim = (x >> 33) as usize % live.len();
            let rt = live.swap_remove(victim);
            alloc.free(&mut vam, &rt, false);
        }
    }

    // Measure: free-space structure and the cost of ten 1 MB files.
    let (free_extents, largest_extent) = vam.fragmentation(0, AREA);
    let mut total_runs = 0;
    let mut bigs = 0;
    for _ in 0..10 {
        if let Ok(rt) = alloc.allocate(&mut vam, 2048) {
            total_runs += rt.runs().len();
            bigs += 1;
            alloc.free(&mut vam, &rt, false);
        }
    }
    FragResult {
        free_extents,
        largest_extent,
        big_file_runs: total_runs as f64 / bigs.max(1) as f64,
        failures,
        free_map: fnv1a(&vam.to_bytes()),
    }
}

fn main() {
    println!("Reproducing the §5.6 allocator measurements");

    // The size distribution itself.
    let sizes = SizeDistribution::new(1987).sample_many(20_000);
    let (count_share, sector_share) = small_file_shares(&sizes);
    let mut t = Table::new(
        "File size distribution (20,000 samples)",
        &["measure", "value", "paper"],
    );
    t.row(&[
        "files under 4000 bytes".into(),
        format!("{:.0}%", count_share * 100.0),
        "50%".into(),
    ]);
    t.row(&[
        "sectors they occupy".into(),
        format!("{:.0}%", sector_share * 100.0),
        "8%".into(),
    ]);
    t.print();

    // The ablation.
    let single = churn(AllocPolicy::SingleArea);
    let split = churn(AllocPolicy::SplitAreas);
    let mut t = Table::new(
        "Fragmentation after churn at 40% occupancy (ablation: §5.6 policy)",
        &["measure", "single area (CFS)", "split areas (FSD)"],
    );
    t.row(&[
        "free extents".into(),
        single.free_extents.to_string(),
        split.free_extents.to_string(),
    ]);
    t.row(&[
        "largest free extent (sectors)".into(),
        single.largest_extent.to_string(),
        split.largest_extent.to_string(),
    ]);
    t.row(&[
        "runs per 1 MB file".into(),
        format!("{:.1}", single.big_file_runs),
        format!("{:.1}", split.big_file_runs),
    ]);
    t.row(&[
        "allocation failures".into(),
        single.failures.to_string(),
        split.failures.to_string(),
    ]);
    t.print();
    println!(
        "\nThe split policy keeps the big-file area contiguous: large files\n\
         allocate in one run where the single-area allocator scatters them."
    );
    println!("\nsingle area: free map {:016x}", single.free_map);
    println!("split areas: free map {:016x}", split.free_map);
}
