//! E-IOSCHED — rotation-aware scheduled submission vs naive in-order
//! submission on the MakeDo commit + writeback path.
//!
//! The §6 performance model prices every disk access as seek plus
//! rotation plus transfer (lost revolutions when the head just misses).
//! The
//! group commit's hot paths — the log force, the third-entry home-page
//! writeback, the shutdown sweep — all submit *batches* of requests, so
//! the `cedar_disk::sched` scheduler gets to reorder and coalesce
//! them where the in-order baseline pays a full seek + rotational wait
//! per request (both name-table replicas per page, ping-ponging between
//! the two copy regions). This bench runs the identical deterministic
//! MakeDo multi-client workload under both policies and attributes the
//! difference with the per-component breakdown.
//!
//! The policy is the disk's: each run sets it on the disk it formats.
//! The run writes `BENCH_io_sched.json` and asserts that scheduled is
//! not slower over the whole run and the ≥ 15% commit+writeback
//! improvement the design is sized for.

use cedar_bench::driver::{drive_clients, MultiClientRun};
use cedar_bench::report::{disk_breakdown, disk_breakdown_json, f2, platter_json, Json};
use cedar_bench::Table;
use cedar_disk::{DiskStats, IoPolicy, SimClock, SimDisk};
use cedar_fsd::{FsdConfig, FsdVolume};
use cedar_workload::{multi_client_workload, MultiClientParams};

/// One measured run of a policy.
struct PolicyRun {
    /// Disk-time delta over the whole run (setup, measured MakeDo phase,
    /// shutdown) — dominated by client reads and in-place data writes,
    /// which no scheduling can change.
    total: DiskStats,
    /// Disk-time delta over the commit + writeback window alone: the
    /// final group-commit force plus the home-page sweep (dirty
    /// name-table pages in both replicas, leaders, VAM) that `shutdown`
    /// performs. This is the batched path the scheduler targets and the
    /// number the ≥ 15% acceptance gate is on.
    commit_writeback: DiskStats,
    run: MultiClientRun,
    /// [`SimDisk::platter_digest`] of the disk the shutdown leaves.
    platter: u64,
}

/// One full run: format, MakeDo through the commit scheduler, controlled
/// shutdown. Identical op-for-op across policies.
fn run_policy(policy: IoPolicy, clients: usize, rounds: usize) -> PolicyRun {
    let mut disk = SimDisk::trident_t300(SimClock::new());
    disk.set_io_policy(policy);
    let vol = FsdVolume::format(disk, FsdConfig::default()).expect("format FSD");
    let before = vol.disk_stats();
    let scripts = multi_client_workload(MultiClientParams {
        clients,
        makedo: cedar_workload::MakeDoParams {
            rounds,
            ..Default::default()
        },
        ..Default::default()
    });
    let (mut vol, run) = drive_clients(vol, &scripts).expect("drive clients");
    let before_cw = vol.disk_stats();
    vol.shutdown().expect("shutdown");
    let after = vol.disk_stats();
    PolicyRun {
        total: after.since(&before),
        commit_writeback: after.since(&before_cw),
        run,
        platter: vol.disk_mut().platter_digest(),
    }
}

fn main() {
    let (clients, rounds) = (8, 2);
    println!("I/O scheduling: shortest positioning time first + coalescing vs in-order submission");
    println!("({clients} MakeDo clients, simulated T-300, group commit + writeback + shutdown)");

    let base = run_policy(IoPolicy::InOrder, clients, rounds);
    let sched = run_policy(IoPolicy::Satf, clients, rounds);
    assert_eq!(
        base.run.stats, sched.run.stats,
        "both policies must run the identical workload"
    );

    let mut t = Table::new(
        "Simulated disk time, MakeDo under group commit (§6 components)",
        &[
            "policy",
            "window",
            "busy (s)",
            "seek (s)",
            "rotation (s)",
            "lost-rev (s)",
            "transfer (s)",
            "ops",
            "seeks",
        ],
    );
    for (name, window, s) in [
        ("in-order", "whole run", &base.total),
        ("satf", "whole run", &sched.total),
        ("in-order", "commit+writeback", &base.commit_writeback),
        ("satf", "commit+writeback", &sched.commit_writeback),
    ] {
        t.row(&[
            name.to_string(),
            window.to_string(),
            format!("{:.3}", s.busy_us() as f64 / 1e6),
            format!("{:.3}", s.seek_us as f64 / 1e6),
            format!("{:.3}", s.rotation_us as f64 / 1e6),
            format!("{:.3}", s.lost_rev_us as f64 / 1e6),
            format!("{:.3}", s.transfer_us as f64 / 1e6),
            s.total_ops().to_string(),
            s.seeks.to_string(),
        ]);
    }
    t.print();
    println!();
    println!(
        "{}",
        disk_breakdown("in-order commit+writeback", &base.commit_writeback)
    );
    println!(
        "{}",
        disk_breakdown("satf     commit+writeback", &sched.commit_writeback)
    );

    let pct_lower = |b: &DiskStats, s: &DiskStats| {
        100.0 * (1.0 - s.busy_us() as f64 / b.busy_us().max(1) as f64)
    };
    let improvement = pct_lower(&base.commit_writeback, &sched.commit_writeback);
    let total_improvement = pct_lower(&base.total, &sched.total);
    println!(
        "\nscheduled busy time: {}% lower on commit+writeback, {}% lower whole-run",
        f2(improvement),
        f2(total_improvement)
    );

    let policy = |run: &PolicyRun| {
        Json::inline()
            .field("whole_run", disk_breakdown_json(&run.total))
            .field(
                "commit_writeback",
                disk_breakdown_json(&run.commit_writeback),
            )
            .field("platter_digest", platter_json(&[run.platter]))
    };
    let json = Json::block()
        .field("bench", "io_sched")
        .field("workload", "makedo")
        .field("clients", clients)
        .field("ops", base.run.report.ops)
        .field(
            "commit_writeback_improvement_pct",
            Json::fixed(improvement, 2),
        )
        .field(
            "whole_run_improvement_pct",
            Json::fixed(total_improvement, 2),
        )
        .field("in_order", policy(&base))
        .field("satf", policy(&sched))
        .render();
    print!("\nJSON:\n{json}");

    std::fs::write("BENCH_io_sched.json", &json).expect("write BENCH_io_sched.json");
    println!("\nwrote BENCH_io_sched.json");
    assert!(
        sched.total.busy_us() <= base.total.busy_us(),
        "scheduled whole-run busy time regressed above the in-order baseline"
    );
    assert!(
        improvement >= 15.0,
        "expected >= 15% commit+writeback improvement, measured {improvement:.2}%"
    );
}
