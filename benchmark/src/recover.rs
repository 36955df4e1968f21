//! The restart leg: pull the plug on the simulated-pass volume, boot it,
//! and time the way back to the first read and the first durable write
//! on both clocks. Nothing acknowledged before the crash may be missing.

use crate::exec::{execute, is_write, name_of};
use crate::gen::{Generator, Op, PROBE, PROBE_BYTES};
use crate::trace::{Span, Trace};
use cedar_disk::{CrashPlan, SimDisk};
use cedar_fsd::{FsdConfig, FsdVolume, RecoveryReport, RecoveryRung};
use cedar_vol::fs::{FileInfo, FileSystem, SyncFs};
use cedar_workload::steps::content_for;
use cedar_workload::Step;
use std::collections::HashSet;
use std::time::Instant;

/// Ops issued after the last acknowledged force when the crash is to
/// tear a force: they are in flight, and recovery may keep or lose them.
const TAIL_OPS: usize = 24;
/// Sector writes of the torn force that still reach the disk.
const TORN_AFTER_SECTOR_WRITES: u64 = 6;
/// Files whose contents are read back in full after recovery.
const CONTENT_SAMPLES: usize = 64;
const FIRST_WRITE: &str = "recovery/first-write";

/// How the volume goes down.
pub enum Crash<'a> {
    /// Power fails between I/Os, right after the closing force.
    Clean,
    /// A few more ops from this stream, then power fails
    /// [`TORN_AFTER_SECTOR_WRITES`] sectors into the force that would
    /// have committed them, leaving one detectably damaged sector.
    TornForce(&'a mut dyn Generator),
}

/// What the restart leg measured.
#[derive(Debug, Default)]
pub struct Recovery {
    pub report: RecoveryReport,
    /// Simulated µs: around `FsdVolume::boot`, the first read after it,
    /// and the first create made durable by a force.
    pub boot_us: u64,
    pub first_read_us: u64,
    pub first_write_us: u64,
    /// Acknowledged files missing, altered or unreadable after recovery.
    pub lost_acked: u64,
    /// Harness-level failures (boot refused, crash did not fire, …).
    pub failed: u64,
    pub first_error: Option<String>,
    /// Host ms of each timed boot of a clone of the crashed disk.
    pub host_boot_ms: Vec<f64>,
    /// Traced run only: mean run-table length of the recovered files.
    pub runs_per_file: f64,
}

impl Recovery {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.first_error.get_or_insert(what);
    }
}

/// 1 redo, 2 replica scrub, 3 scavenge.
pub fn rung_number(rung: RecoveryRung) -> f64 {
    match rung {
        RecoveryRung::Redo => 1.0,
        RecoveryRung::ReplicaScrub => 2.0,
        RecoveryRung::Scavenge => 3.0,
    }
}

/// Acknowledged state that did not survive: names outside `in_flight`
/// on which the listing before the crash and the listing after recovery
/// disagree.
pub fn lost_acked(acked: &[FileInfo], recovered: &[FileInfo], in_flight: &HashSet<String>) -> u64 {
    let settled = |l: &[FileInfo]| -> Vec<FileInfo> {
        l.iter()
            .filter(|i| !in_flight.contains(&i.name))
            .cloned()
            .collect()
    };
    crate::exec::listing_mismatches(&settled(acked), &settled(recovered))
}

/// Records a restart-leg span that began at `began` and ends now.
fn span(trace: &mut Option<&mut Trace>, name: &str, sim_us: (u64, u64), began: Instant) {
    if let Some(t) = trace.as_deref_mut() {
        let host_ns = (t.host_ns_at(began), t.host_ns());
        t.push(Span {
            pass: "recovery",
            layer: "fsd.recovery",
            name: name.into(),
            sim_us,
            host_ns,
            ..Span::default()
        });
    }
}

/// Crashes `vol` (whose every op so far is forced and listed in
/// `acked`), boots it, and measures. `boots` clones of the crashed disk
/// are booted for the host-clock boot time.
pub fn crash_and_recover(
    vol: FsdVolume,
    cfg: FsdConfig,
    acked: &[FileInfo],
    crash: Crash<'_>,
    boots: usize,
    mut trace: Option<&mut Trace>,
) -> Recovery {
    let mut r = Recovery::default();
    let clock = vol.clock();
    let mut in_flight = HashSet::new();

    // ---- go down ----
    let mut disk = match crash {
        Crash::Clean => {
            let mut disk = vol.into_disk();
            disk.crash_now();
            disk
        }
        Crash::TornForce(stream) => {
            let fs = SyncFs::new(vol);
            for _ in 0..TAIL_OPS {
                let op = stream.next_op();
                if is_write(&op.step) {
                    in_flight.insert(name_of(&op.step).to_string());
                }
                if let Err(e) = execute(&fs, &op) {
                    r.fail(format!("in-flight op: {e}"));
                }
            }
            let mut vol = fs.into_inner();
            vol.disk_mut().schedule_crash(CrashPlan {
                after_sector_writes: TORN_AFTER_SECTOR_WRITES,
                damaged_tail: 1,
            });
            let forced = vol.force();
            let mut disk = vol.into_disk();
            if !disk.is_crashed() {
                r.fail(format!(
                    "the crash did not land inside the force ({forced:?})"
                ));
                disk.crash_now();
            }
            disk
        }
    };
    disk.reboot();
    let crashed = disk.clone();

    // ---- come back, on the simulated clock ----
    let began = Instant::now();
    let t0 = clock.now();
    let (vol, report) = match FsdVolume::boot(disk, cfg) {
        Ok(booted) => booted,
        Err(e) => {
            r.fail(format!("boot: {e}"));
            return r;
        }
    };
    let t1 = clock.now();
    r.boot_us = t1 - t0;
    span(&mut trace, "fsd.recovery.boot", (t0, t1), began);
    r.report = report;

    // First read: the probe file every population ends with, cold.
    let fs = SyncFs::new(vol);
    let probe = Op {
        step: Step::Read { name: PROBE.into() },
        expect: PROBE_BYTES,
    };
    let sim_start = clock.now();
    let began = Instant::now();
    if let Err(e) = execute(&fs, &probe) {
        r.lost_acked += 1;
        r.fail(format!("first read: {e}"));
    }
    r.first_read_us = clock.now() - sim_start;
    span(
        &mut trace,
        "fsd.recovery.first_read",
        (sim_start, clock.now()),
        began,
    );

    // First write: one small create, forced.
    let sim_start = clock.now();
    let began = Instant::now();
    let wrote = fs
        .create(FIRST_WRITE, &content_for(FIRST_WRITE, 1_000))
        .and_then(|_| fs.sync());
    if let Err(e) = wrote {
        r.fail(format!("first write: {e}"));
    }
    r.first_write_us = clock.now() - sim_start;
    span(
        &mut trace,
        "fsd.recovery.first_write",
        (sim_start, clock.now()),
        began,
    );

    // ---- is everything acknowledged still there? ----
    in_flight.insert(FIRST_WRITE.to_string());
    match fs.list("") {
        Ok(recovered) => {
            r.lost_acked += lost_acked(acked, &recovered, &in_flight);
            let settled: Vec<&FileInfo> = recovered
                .iter()
                .filter(|i| !in_flight.contains(&i.name))
                .collect();
            let stride = (settled.len() / CONTENT_SAMPLES).max(1);
            for file in settled.iter().step_by(stride) {
                let intact = fs
                    .read(&file.name)
                    .is_ok_and(|data| data == content_for(&file.name, file.bytes));
                r.lost_acked += u64::from(!intact);
            }
            if trace.is_some() {
                let runs: usize = fs.with(|vol| {
                    settled
                        .iter()
                        .filter_map(|f| vol.open(&f.name, None).ok())
                        .map(|f| f.entry.run_table.runs().len())
                        .sum()
                });
                r.runs_per_file = runs as f64 / settled.len().max(1) as f64;
            }
        }
        Err(e) => r.fail(format!("list after recovery: {e}")),
    }
    // The recovered volume goes before the clones come: two disk images
    // at the peak, not three.
    drop(fs);

    // ---- boot time on the host clock ----
    for _ in 0..boots {
        let clone: SimDisk = crashed.clone();
        let began = Instant::now();
        let booted = FsdVolume::boot(clone, cfg);
        r.host_boot_ms.push(began.elapsed().as_secs_f64() * 1e3);
        if let Err(e) = booted {
            r.fail(format!("timed boot: {e}"));
        }
    }
    r
}
