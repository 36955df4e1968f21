//! Crash-recovery semantics: after any crash, FSD recovers to the state
//! of the last log force (group-commit boundary). "Loss of up to a half a
//! second is not significant" (§5.4) — but nothing *else* may be lost,
//! and the name table must always be structurally intact.
//!
//! The tests that tear a force, a home flush or recovery itself are
//! scripts over the crash-sweep harness (`support`): each session is
//! crashed at every sector write, torn tails 0–2, under both submission
//! policies. The scheduled one reorders writes within barrier windows,
//! and recovery must hold regardless. Each is a volume-level script
//! (`support::OnVolume`): every point is booted and held to the shared
//! oracles, among them that every file committed before the session
//! reads back what it was created with and that the tree checks out.

mod support;

use cedar_disk::clock::Micros;
use cedar_disk::{CpuModel, IoPolicy, SimDisk};
use cedar_fsd::{FsdConfig, FsdError, FsdVolume, RecoveryReport, COMMIT_INTERVAL_US};
use cedar_vol::Vam;
use support::{Model, OnVolume, Point, Sweep};

fn config() -> FsdConfig {
    FsdConfig {
        nt_pages: 16,
        log_sectors: 128,
        cpu: CpuModel::FREE,
        ..FsdConfig::default()
    }
}

fn tiny_with(io_policy: IoPolicy) -> FsdVolume {
    let mut disk = SimDisk::tiny();
    disk.set_io_policy(io_policy);
    FsdVolume::format(disk, config()).unwrap()
}

fn tiny() -> FsdVolume {
    tiny_with(IoPolicy::default())
}

/// Crashes the volume immediately and reboots it.
fn crash_and_recover(v: FsdVolume) -> (FsdVolume, cedar_fsd::RecoveryReport) {
    let mut disk = v.into_disk();
    disk.crash_now();
    disk.reboot();
    FsdVolume::boot(disk, config()).unwrap()
}

#[test]
fn forced_create_survives_crash() {
    let mut v = tiny();
    v.create("kept", b"forced data").unwrap();
    v.force().unwrap();
    let (mut v2, report) = crash_and_recover(v);
    assert!(report.records_replayed >= 1);
    assert!(report.vam_reconstructed, "no shutdown → VAM rebuilt");
    let mut f = v2.open("kept", None).unwrap();
    assert_eq!(v2.read_file(&mut f).unwrap(), b"forced data");
    v2.verify().unwrap();
}

#[test]
fn unforced_create_lost_cleanly() {
    let mut v = tiny();
    v.create("durable", b"old").unwrap();
    v.force().unwrap();
    let free_committed = v.free_sectors();
    v.create("ephemeral", b"never committed").unwrap();
    let (mut v2, _) = crash_and_recover(v);
    assert!(v2.open("durable", None).is_ok());
    assert!(v2.open("ephemeral", None).is_err());
    // The uncommitted file's sectors came back: VAM reconstruction sees
    // only the committed name table.
    assert!(
        v2.settle_vam().unwrap().is_some(),
        "boot left the walk owed"
    );
    assert_eq!(v2.free_sectors(), free_committed);
    v2.verify().unwrap();
}

#[test]
fn unforced_delete_resurrects() {
    let mut v = tiny();
    v.create("lazarus", &vec![2u8; 2048]).unwrap();
    v.force().unwrap();
    let free_committed = v.free_sectors();
    v.delete("lazarus", None).unwrap();
    // Crash before the delete commits: the file is still there, and the
    // rebuilt free map still holds its sectors allocated.
    let (mut v2, _) = crash_and_recover(v);
    let mut f = v2.open("lazarus", None).unwrap();
    assert_eq!(v2.read_file(&mut f).unwrap(), vec![2u8; 2048]);
    v2.settle_vam().unwrap();
    assert_eq!(v2.free_sectors(), free_committed);
}

#[test]
fn forced_delete_stays_deleted() {
    let mut v = tiny();
    v.create("gone", b"bye").unwrap();
    v.force().unwrap();
    v.delete("gone", None).unwrap();
    v.force().unwrap();
    let (mut v2, _) = crash_and_recover(v);
    assert!(v2.open("gone", None).is_err());
}

#[test]
fn log_wraps_many_times_and_still_recovers() {
    let mut v = tiny();
    // Enough forced activity to lap the 128-sector log repeatedly.
    for round in 0..60 {
        v.create(&format!("wrap{round:03}"), b"w").unwrap();
        v.force().unwrap();
    }
    let free = v.free_sectors();
    let (mut v2, _) = crash_and_recover(v);
    v2.verify().unwrap();
    v2.settle_vam().unwrap();
    assert_eq!(v2.free_sectors(), free, "the rebuilt free map is exact");
    for round in 0..60 {
        assert!(v2.open(&format!("wrap{round:03}"), None).is_ok(), "{round}");
    }
}

#[test]
fn recovery_is_fast_compared_to_activity() {
    let mut v = tiny();
    for i in 0..100 {
        v.create(&format!("f{i:03}"), &vec![0u8; 1024]).unwrap();
    }
    v.force().unwrap();
    let (_, report) = crash_and_recover(v);
    // §5.9: redo "rarely takes more than two seconds".
    assert!(
        report.redo_us < 2_000_000,
        "redo took {} µs",
        report.redo_us
    );
}

fn names(what: &str, n: usize) -> Vec<String> {
    (0..n).map(|i| format!("{what}{i:02}")).collect()
}

/// Creates `names`, each holding `data`, and forces them as one group.
fn group(
    v: &mut FsdVolume,
    model: &mut Model,
    names: Vec<String>,
    data: &[u8],
) -> Result<(), FsdError> {
    for name in names {
        model.change(&name, Some(data.to_vec()));
        v.create(&name, data)?;
    }
    v.force()?;
    model.committed();
    Ok(())
}

/// `seeds` files committed, then `burst` creates of `len` bytes forced as
/// one group; every write of the creates and of the force is crashed.
struct Burst {
    seeds: usize,
    burst: usize,
    len: usize,
}

impl OnVolume for Burst {
    /// Free sectors once the seeds have committed.
    type Want = u32;

    fn label(&self) -> String {
        format!("{} after {} ", self.burst, self.seeds)
    }

    fn config(&self) -> FsdConfig {
        config()
    }

    fn interval(&self) -> Micros {
        COMMIT_INTERVAL_US
    }

    fn fixture(&self, policy: IoPolicy) -> (SimDisk, Model, u32) {
        let (mut v, mut model) = (tiny_with(policy), Model::default());
        group(&mut v, &mut model, names("seed", self.seeds), b"s").unwrap();
        let free_committed = v.free_sectors();
        v.shutdown().unwrap();
        (v.into_disk(), model, free_committed)
    }

    fn run(
        &self,
        v: &mut FsdVolume,
        _: &RecoveryReport,
        model: &mut Model,
        _: usize,
    ) -> Result<(), FsdError> {
        group(v, model, names("burst", self.burst), &vec![b'b'; self.len])
    }

    fn also(&self, v: &mut FsdVolume, _: &Model, free_committed: &u32, _: Vam, point: &Point) {
        // A record the crash tore is ignored whole.
        let landed = v.list("burst").unwrap().len();
        assert!(
            [0, self.burst].contains(&landed),
            "{point}: {landed} landed"
        );
        if landed == 0 {
            let free = v.free_sectors();
            assert_eq!(free, *free_committed, "{point}: the free map rolls back");
        }
    }
}

#[test]
fn crash_mid_log_force_keeps_previous_commit() {
    let burst = Burst {
        seeds: 1,
        burst: 5,
        len: 700,
    };
    Sweep::default().run(&burst).finish();
}

#[test]
fn multi_page_tree_update_is_atomic_across_crash() {
    // §5.8 error class 1: "multi-page B-tree updates were not atomic" in
    // CFS; logging fixes it. The group's record spans many page images
    // (splits).
    let splits = Burst {
        seeds: 60,
        burst: 30,
        len: 1,
    };
    Sweep::default().run(&splits).finish();
}

/// Eight creates to a force, as on a busy volume: six forces committed
/// and the volume shut down, then nine more on the log the boot resumed.
/// The thirteenth enters a third of the log that holds the only log copy
/// of name-table pages, which go home first (§5.3).
/// Every write of the nine is crashed; under the scheduled policy the
/// flush's writes execute nearest-first, so a crash tears a *reordered*
/// window.
struct HomeFlush;

fn round(r: usize) -> Vec<String> {
    names(&format!("r{r:02}f"), 8)
}

impl OnVolume for HomeFlush {
    type Want = ();

    fn config(&self) -> FsdConfig {
        config()
    }

    fn interval(&self) -> Micros {
        COMMIT_INTERVAL_US
    }

    fn fixture(&self, policy: IoPolicy) -> (SimDisk, Model, ()) {
        let (mut v, mut model) = (tiny_with(policy), Model::default());
        for r in 0..6 {
            group(&mut v, &mut model, round(r), b"data").unwrap();
        }
        v.shutdown().unwrap();
        (v.into_disk(), model, ())
    }

    fn run(
        &self,
        v: &mut FsdVolume,
        _: &RecoveryReport,
        model: &mut Model,
        _: usize,
    ) -> Result<(), FsdError> {
        let flushed = v.commit_stats().third_flush_pages;
        for r in 6..15 {
            group(v, model, round(r), b"data")?;
            let flushes = v.commit_stats().third_flush_pages > flushed;
            assert_eq!(flushes, r >= 12, "the thirteenth force flushes: {r}");
        }
        Ok(())
    }
}

#[test]
fn crash_during_home_flush_recovers() {
    Sweep::default().run(&HomeFlush).finish();
}

/// A crashed volume's recovery, the redo settle and the walk that
/// `settle_vam` pays, crashed at every write; and the recovery of a
/// crashed recovery crashed again. Redo is idempotent.
struct InRecovery;

impl OnVolume for InRecovery {
    type Want = ();
    const RESTARTS: bool = true;

    fn config(&self) -> FsdConfig {
        config()
    }

    fn interval(&self) -> Micros {
        COMMIT_INTERVAL_US
    }

    fn fixture(&self, policy: IoPolicy) -> (SimDisk, Model, ()) {
        let (mut v, mut model) = (tiny_with(policy), Model::default());
        group(&mut v, &mut model, names("f", 20), b"x").unwrap();
        let mut disk = v.into_disk();
        disk.crash_now();
        disk.reboot();
        (disk, model, ())
    }

    fn run(
        &self,
        v: &mut FsdVolume,
        _: &RecoveryReport,
        _: &mut Model,
        _: usize,
    ) -> Result<(), FsdError> {
        v.settle_vam().map(drop)
    }

    fn also(&self, _: &mut FsdVolume, _: &Model, _: &(), _: Vam, point: &Point) {
        if point.k.is_none() {
            assert!(point.w > 0, "recovery writes: W = {}", point.w);
        }
    }
}

#[test]
fn double_crash_during_recovery_is_survivable() {
    Sweep::default().run(&InRecovery).finish();
}
