//! `fault_campaign` — the media-fault injection campaign (E-FAULT).
//!
//! Enumerates (media-fault shape × crash point × torn tail) over a
//! MakeDo workload on a tiny FSD volume and checks every recovered
//! volume against an in-memory [`MemFs`] model: the surviving state
//! must be exactly the last commit boundary, the boundary before it
//! (the crash tore the in-flight force), or the full live state (the
//! in-flight group landed whole). A separate block destroys both log
//! meta replicas after a clean shutdown so recovery has to climb past
//! replica repair to the leader-page scavenger — there the recovered
//! volume must equal the live model exactly.
//!
//! MakeDo file sizes are capped so the script fits the 1 MB campaign
//! volume; the script shape (names, versions, deletes, recreation
//! order) is unchanged.
//!
//! `--smoke` runs a reduced grid for CI. The full run writes
//! `BENCH_fault_campaign.json` and enforces the campaign gates:
//! at least 200 scenarios, zero failures, and every rung of the
//! escalation ladder (redo, replica scrub, scavenge) exercised.

use cedar_bench::campaign::{matches_model, setup_volume, tiny_config, tiny_makedo};
use cedar_bench::report::platter_json;
use cedar_bench::{CedarFsError, FsBackend, Table};
use cedar_disk::{CrashPlan, FaultPlan, Label, PageKind, SimDisk};
use cedar_fsd::{
    FsdConfig, FsdLayout, FsdVolume, RecoveryReport, RecoveryRung, ReplMode, ReplSessionConfig,
    Shipper,
};
use cedar_workload::steps::{run_step_backend, Step, WorkloadStats};
use cedar_workload::MemFs;
use std::collections::VecDeque;

/// Measured steps between explicit syncs (the commit boundaries the
/// oracle snapshots).
const SYNC_EVERY: usize = 7;

/// One media-fault shape, resolved against the live volume after the
/// setup phase (so log-cursor-relative targets are meaningful).
struct FaultKind {
    name: &'static str,
    plan: fn(&FsdVolume) -> FaultPlan,
}

/// The fault grid. Latent faults fail once and are repaired by the
/// first successful rewrite; transient faults only cost revolutions;
/// grown defects reject writes forever and must be remapped to spares.
const KINDS: &[FaultKind] = &[
    FaultKind {
        name: "clean",
        plan: |_| FaultPlan::none(),
    },
    FaultKind {
        name: "latent-boot",
        plan: |v| FaultPlan::none().with_latent(v.layout().boot_a),
    },
    FaultKind {
        name: "latent-nt",
        plan: |v| FaultPlan::none().with_latent(v.layout().nt_a_sector(1)),
    },
    FaultKind {
        name: "latent-nt-pair",
        plan: |v| {
            FaultPlan::none()
                .with_latent(v.layout().nt_a_sector(0))
                .with_latent(v.layout().nt_a_sector(2))
        },
    },
    FaultKind {
        name: "latent-log-meta",
        plan: |v| FaultPlan::none().with_latent(v.layout().log_start),
    },
    FaultKind {
        name: "latent-log-tail",
        plan: |v| FaultPlan::none().with_latent(v.next_log_sector()),
    },
    FaultKind {
        name: "latent-vam",
        plan: |v| FaultPlan::none().with_latent(v.layout().vam_a),
    },
    FaultKind {
        name: "transient-nt",
        plan: |v| FaultPlan::none().with_transient(v.layout().nt_a_sector(1), 2),
    },
    FaultKind {
        name: "transient-log",
        plan: |v| FaultPlan::none().with_transient(v.next_log_sector(), 1),
    },
    FaultKind {
        name: "latent-mixed",
        plan: |v| {
            let l = v.layout();
            FaultPlan::none()
                .with_latent(l.boot_a)
                .with_latent(l.nt_a_sector(3))
                .with_latent(l.log_start)
        },
    },
    FaultKind {
        name: "grown-log-next",
        plan: |v| FaultPlan::none().with_grown(v.next_log_sector()),
    },
    FaultKind {
        name: "grown-nt",
        plan: |v| FaultPlan::none().with_grown(v.layout().nt_a_sector(2)),
    },
    FaultKind {
        name: "grown-vam",
        plan: |v| FaultPlan::none().with_grown(v.layout().vam_a),
    },
];

/// What one scenario's recovery — boot and the settle of what boot
/// leaves owed — did, and which model boundary it matched.
struct Outcome {
    rung: RecoveryRung,
    matched: &'static str,
    scrubbed: u64,
    remapped: u64,
    /// Boot's share, and boot plus redo settle plus VAM walk.
    first_read_us: u64,
    full_us: u64,
    /// [`SimDisk::platter_digest`] of the settled disk.
    platter: u64,
}

/// Holds a booted volume to `check` twice: while the redo settle and the
/// VAM walk are still owed — every name-table read lays the log's images
/// over the wounded homes — and again once both are paid; the two
/// verdicts must agree. Rung, scrub and remap counts are taken over boot
/// *and* settle, the reads in between included: what boot's own sweep
/// used to repair is repaired by whichever of them touches it first.
fn settle_and_check(
    mut v: FsdVolume,
    report: &RecoveryReport,
    first_read_us: u64,
    mut check: impl FnMut(&mut FsdVolume) -> Result<&'static str, String>,
) -> Result<Outcome, String> {
    let at_boot = v.media_stats();
    v.verify()
        .map_err(|e| format!("verify failed while owed: {e}"))?;
    let owed = check(&mut v)?;
    let settle = v
        .settle_redo()
        .map_err(|e| format!("redo settle failed: {e}"))?;
    let walk = v
        .settle_vam()
        .map_err(|e| format!("VAM walk failed: {e}"))?;
    v.verify().map_err(|e| format!("verify failed: {e}"))?;
    let matched = check(&mut v)?;
    if owed != matched {
        return Err(format!(
            "the settle changed the visible state: {owed} became {matched}"
        ));
    }
    let settled = v.media_stats();
    let scrubbed = report.scrubbed_sectors - at_boot.0 + settled.0;
    let remapped = report.remapped_sectors - at_boot.1 + settled.1;
    Ok(Outcome {
        rung: match report.rung {
            RecoveryRung::Redo if scrubbed + remapped > 0 => RecoveryRung::ReplicaScrub,
            rung => rung,
        },
        matched,
        scrubbed,
        remapped,
        first_read_us,
        full_us: first_read_us + settle.map_or(0, |s| s.us()) + walk.map_or(0, |w| w.us()),
        platter: v.disk_mut().platter_digest(),
    })
}

/// Boots a wounded disk and runs [`settle_and_check`] over it.
fn recover_and_check(
    disk: SimDisk,
    config: FsdConfig,
    check: impl FnMut(&mut FsdVolume) -> Result<&'static str, String>,
) -> Result<Outcome, String> {
    let (v, report) = FsdVolume::boot(disk, config).map_err(|e| format!("boot failed: {e}"))?;
    settle_and_check(v, &report, report.total_us(), check)
}

/// [`recover_and_check`] for the scenarios that must reach rung 3.
fn scavenge_and_check(
    disk: SimDisk,
    workers: usize,
    check: impl FnMut(&mut FsdVolume) -> Result<&'static str, String>,
) -> Result<Outcome, String> {
    let config = FsdConfig {
        scavenge_workers: workers,
        ..tiny_config()
    };
    let outcome = recover_and_check(disk, config, check)?;
    if outcome.rung != RecoveryRung::Scavenge {
        return Err(format!("expected scavenge rung, got {:?}", outcome.rung));
    }
    Ok(outcome)
}

/// Per-kind tallies for the report table.
#[derive(Default)]
struct KindTally {
    scenarios: u64,
    redo: u64,
    scrub: u64,
    scavenge: u64,
    matched_committed: u64,
    matched_previous: u64,
    matched_live: u64,
    scrubbed: u64,
    remapped: u64,
    max_first_read_us: u64,
    max_full_us: u64,
    /// Each recovered scenario's settled platters, in run order.
    platters: Vec<u64>,
}

impl KindTally {
    fn absorb(&mut self, o: &Outcome) {
        self.scenarios += 1;
        match o.rung {
            RecoveryRung::Redo => self.redo += 1,
            RecoveryRung::ReplicaScrub => self.scrub += 1,
            RecoveryRung::Scavenge => self.scavenge += 1,
        }
        match o.matched {
            "committed" => self.matched_committed += 1,
            "previous" => self.matched_previous += 1,
            _ => self.matched_live += 1,
        }
        self.scrubbed += o.scrubbed;
        self.remapped += o.remapped;
        self.max_first_read_us = self.max_first_read_us.max(o.first_read_us);
        self.max_full_us = self.max_full_us.max(o.full_us);
        self.platters.push(o.platter);
    }
}

/// One crash scenario: install the fault plan, schedule the crash,
/// replay the measured phase with periodic syncs, then reboot and
/// check the recovered state against the commit-boundary models.
fn run_crash_scenario(
    kind: &FaultKind,
    crash_after: u64,
    damaged_tail: u8,
    setup: &[Step],
    measured: &[Step],
) -> Result<Outcome, String> {
    let (mut v, mut live) = setup_volume(setup)?;
    let plan = (kind.plan)(&v);
    v.disk_mut().set_fault_plan(&plan);
    v.disk_mut().schedule_crash(CrashPlan {
        after_sector_writes: crash_after,
        damaged_tail,
    });

    let mut committed = live.clone();
    let mut previous = committed.clone();
    let mut stats = WorkloadStats::default();
    let mut crashed = false;
    for (i, step) in measured.iter().enumerate() {
        match run_step_backend(step, &mut v, &mut stats) {
            Ok(()) => {
                run_step_backend(step, &mut live, &mut stats)
                    .map_err(|e| format!("model diverged on {step:?}: {e}"))?;
            }
            Err(e) if e.is_crash() => {
                crashed = true;
                break;
            }
            // The tiny volume may legitimately fill; skip the step on
            // both sides. A NotFound is only benign if the model agrees
            // the name is absent (its create was one of the skips).
            Err(CedarFsError::NoSpace) => {}
            Err(CedarFsError::NotFound(n)) if live.read(&n).is_err() => {}
            Err(e) => return Err(format!("non-crash failure on {step:?}: {e}")),
        }
        if i % SYNC_EVERY == SYNC_EVERY - 1 {
            match v.sync() {
                Ok(()) => {
                    previous = committed;
                    committed = live.clone();
                }
                Err(e) if e.is_crash() => {
                    crashed = true;
                    break;
                }
                Err(e) => return Err(format!("sync failed: {e}")),
            }
        }
    }
    if !crashed {
        v.disk_mut().crash_now();
    }

    let mut disk = v.into_disk();
    disk.reboot();
    recover_and_check(disk, tiny_config(), |v2| {
        if matches_model(v2, &committed) {
            Ok("committed")
        } else if matches_model(v2, &previous) {
            Ok("previous")
        } else if matches_model(v2, &live) {
            Ok("live")
        } else {
            Err("recovered state matches no commit boundary".into())
        }
    })
}

/// How a scavenge scenario wounds the cleanly shut-down disk.
struct ScavengeCase {
    name: &'static str,
    /// (soft-damage targets, hard-damage targets) resolved from the
    /// volume before shutdown; both log meta replicas always die.
    extra_soft: fn(&FsdVolume) -> Vec<u32>,
    hard_metas: bool,
    /// Scavenger decode/verify workers: 1 is the serial pipeline, more
    /// runs the parallel checker — same required outcome either way.
    workers: usize,
}

const SCAVENGE_CASES: &[ScavengeCase] = &[
    ScavengeCase {
        name: "soft-both-metas",
        extra_soft: |_| Vec::new(),
        hard_metas: false,
        workers: 1,
    },
    ScavengeCase {
        name: "hard-both-metas",
        extra_soft: |_| Vec::new(),
        hard_metas: true,
        workers: 1,
    },
    ScavengeCase {
        name: "metas+boot-a",
        extra_soft: |v| vec![v.layout().boot_a],
        hard_metas: false,
        workers: 1,
    },
    ScavengeCase {
        name: "metas+nt-page",
        extra_soft: |v| vec![v.layout().nt_a_sector(1)],
        hard_metas: false,
        workers: 1,
    },
    ScavengeCase {
        name: "parallel-scavenger",
        extra_soft: |v| vec![v.layout().nt_a_sector(1)],
        hard_metas: true,
        workers: 8,
    },
];

/// One scavenge scenario: run the whole script, shut down cleanly,
/// destroy both log meta replicas (plus the case's extras), and boot.
/// With no in-flight work the scavenged volume must equal the live
/// model exactly.
fn run_scavenge_scenario(
    case: &ScavengeCase,
    setup: &[Step],
    measured: &[Step],
) -> Result<Outcome, String> {
    let (mut v, mut live) = setup_volume(setup)?;
    let mut stats = WorkloadStats::default();
    for step in measured {
        match run_step_backend(step, &mut v, &mut stats) {
            Ok(()) => {
                run_step_backend(step, &mut live, &mut stats)
                    .map_err(|e| format!("model diverged on {step:?}: {e}"))?;
            }
            Err(CedarFsError::NoSpace) => {}
            Err(CedarFsError::NotFound(n)) if live.read(&n).is_err() => {}
            Err(e) => return Err(format!("workload failure on {step:?}: {e}")),
        }
    }
    let meta_a = v.layout().log_start;
    let meta_b = v.layout().log_start + 2;
    let extras = (case.extra_soft)(&v);
    v.shutdown().map_err(|e| format!("shutdown failed: {e}"))?;
    let mut disk = v.into_disk();
    if case.hard_metas {
        disk.hard_damage_sector(meta_a);
        disk.hard_damage_sector(meta_b);
    } else {
        disk.damage_sector(meta_a);
        disk.damage_sector(meta_b);
    }
    for s in extras {
        disk.damage_sector(s);
    }
    disk.reboot();
    scavenge_and_check(disk, case.workers, |v2| {
        if matches_model(v2, &live) {
            Ok("live")
        } else {
            Err("scavenged state does not equal the live model".into())
        }
    })
}

/// Out-of-band image rot (wild byte flips, label smashes) applied after
/// a clean shutdown — §5.8's "malicious" class, outside the
/// replica-covered fault model, so the gate is weaker than the boundary
/// oracle: the forced scavenge must rebuild a *verifying* tree (rot may
/// cost files, recorded as losses, but never consistency) and must not
/// panic or refuse a scavengeable image.
struct CorruptCase {
    name: &'static str,
    /// Rots the image; resolved against the pre-shutdown layout.
    rot: fn(&mut SimDisk, &FsdLayout),
    /// Scavenger workers for the forced-scavenge boot.
    workers: usize,
}

/// First data-area sector carrying the given label kind.
fn first_live(disk: &SimDisk, l: &FsdLayout, kind: PageKind) -> Option<u32> {
    let (start, end) = l.data_area();
    (start..end).find(|&a| disk.peek_label(a).kind == kind)
}

const CORRUPT_CASES: &[CorruptCase] = &[
    CorruptCase {
        name: "flip-leader-byte",
        rot: |d, l| {
            if let Some(a) = first_live(d, l, PageKind::Leader) {
                d.corrupt_byte(a, 40, 0x40);
            }
        },
        workers: 1,
    },
    CorruptCase {
        name: "flip-nt-both-copies",
        rot: |d, l| {
            d.corrupt_byte(l.nt_a_sector(1), 17, 0x10);
            d.corrupt_byte(l.nt_b_sector(1), 17, 0x10);
        },
        workers: 1,
    },
    CorruptCase {
        name: "smash-data-label",
        rot: |d, l| {
            if let Some(a) = first_live(d, l, PageKind::Data) {
                d.corrupt_label(a, Label::new(0xDEAD, 7, PageKind::Leader));
            }
        },
        workers: 1,
    },
    CorruptCase {
        name: "flip-log-record",
        rot: |d, l| d.corrupt_byte(l.log_start + 4, 9, 0x04),
        workers: 1,
    },
    CorruptCase {
        name: "parallel-rot-scavenge",
        rot: |d, l| {
            if let Some(a) = first_live(d, l, PageKind::Leader) {
                d.corrupt_byte(a, 8, 0x80);
            }
        },
        workers: 8,
    },
];

/// One corrupted-image scenario: run the whole script, shut down
/// cleanly, rot the image out-of-band, destroy both log meta replicas,
/// and boot. The scavenger trusted nothing but labels and
/// software-check pages, so it must land a verifying tree.
fn run_corrupt_scenario(
    case: &CorruptCase,
    setup: &[Step],
    measured: &[Step],
) -> Result<Outcome, String> {
    let (mut v, _live) = setup_volume(setup)?;
    let mut stats = WorkloadStats::default();
    for step in measured {
        match run_step_backend(step, &mut v, &mut stats) {
            Ok(()) | Err(CedarFsError::NoSpace) | Err(CedarFsError::NotFound(_)) => {}
            Err(e) => return Err(format!("workload failure on {step:?}: {e}")),
        }
    }
    let layout = *v.layout();
    v.shutdown().map_err(|e| format!("shutdown failed: {e}"))?;
    let mut disk = v.into_disk();
    (case.rot)(&mut disk, &layout);
    disk.damage_sector(layout.log_start);
    disk.damage_sector(layout.log_start + 2);
    disk.reboot();
    // The only oracle here is the tree check inside the helper.
    scavenge_and_check(disk, case.workers, |_| Ok("live"))
        .map_err(|e| format!("rot accepted but recovery went wrong: {e}"))
}

/// Replication failover block (ISSUE 10): the primary runs the measured
/// script under a media-fault plan and a scheduled crash while shipping
/// to a replica; when the primary dies, the replica is promoted and
/// must land on an *acknowledged* commit boundary within the mode's
/// loss bound — zero boundaries for sync and semi-sync, at most
/// [`REPL_MAX_LAG`] for async.
const REPL_MAX_LAG: usize = 4;

/// Acked-boundary snapshots kept for the promotion oracle.
const REPL_KEEP_BOUNDARIES: usize = REPL_MAX_LAG + 4;

fn run_repl_scenario(
    mode: ReplMode,
    kind: &FaultKind,
    crash_after: u64,
    damaged_tail: u8,
    setup: &[Step],
    measured: &[Step],
) -> Result<Outcome, String> {
    let (mut v, mut live) = setup_volume(setup)?;
    let mut cfg = ReplSessionConfig::for_mode(mode);
    cfg.max_lag_frames = REPL_MAX_LAG;
    let mut sh = Shipper::new(&mut v, tiny_config(), cfg)
        .map_err(|e| format!("replica install failed: {e}"))?;
    // Faults and the crash hit the primary only, after the install's
    // full-state transfer (the clone starts healthy).
    let plan = (kind.plan)(&v);
    v.disk_mut().set_fault_plan(&plan);
    v.disk_mut().schedule_crash(CrashPlan {
        after_sector_writes: crash_after,
        damaged_tail,
    });

    let mut boundaries: VecDeque<(u64, MemFs)> = VecDeque::new();
    let mut acked: u64 = 0;
    let mut stats = WorkloadStats::default();
    'steps: for (i, step) in measured.iter().enumerate() {
        match run_step_backend(step, &mut v, &mut stats) {
            Ok(()) => {
                run_step_backend(step, &mut live, &mut stats)
                    .map_err(|e| format!("model diverged on {step:?}: {e}"))?;
            }
            Err(e) if e.is_crash() => break 'steps,
            Err(CedarFsError::NoSpace) => {}
            Err(CedarFsError::NotFound(n)) if live.read(&n).is_err() => {}
            Err(e) => return Err(format!("non-crash failure on {step:?}: {e}")),
        }
        if i % SYNC_EVERY == SYNC_EVERY - 1 {
            match v
                .force()
                .map_err(CedarFsError::from)
                .and_then(|()| sh.ship(&mut v))
            {
                Ok(()) => {
                    acked += 1;
                    boundaries.push_back((acked, live.clone()));
                    while boundaries.len() > REPL_KEEP_BOUNDARIES {
                        boundaries.pop_front();
                    }
                }
                Err(e) if e.is_crash() => break 'steps,
                // A torn force can surface as a retryable shipping
                // refusal too; either way the boundary is unacked.
                Err(e) if e.is_retryable() => {}
                Err(e) => return Err(format!("commit failed: {e}")),
            }
        }
    }

    // The primary is dead (or the script ended): promote the replica.
    let out = sh.failover().map_err(|e| format!("failover failed: {e}"))?;
    let bound = match mode {
        ReplMode::Sync | ReplMode::SemiSync => 0,
        ReplMode::Async => REPL_MAX_LAG as u64,
    };
    settle_and_check(out.volume, &out.report, out.failover_us, |v2| {
        let loss = if acked == 0 {
            0
        } else {
            let mut newest_first = boundaries.iter().rev();
            match newest_first.find(|(_, model)| matches_model(v2, model)) {
                Some((id, _)) => acked - id,
                None => return Err("promoted state matches no acknowledged boundary".into()),
            }
        };
        if loss > bound {
            return Err(format!(
                "{} lost {loss} acknowledged boundaries (bound {bound})",
                mode.name()
            ));
        }
        Ok(if loss == 0 { "committed" } else { "previous" })
    })
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (setup, measured) = tiny_makedo(2, 11);

    // The grid. Crash points are measured in sector writes from the
    // end of setup; the tail tears 0..=2 trailing sectors. The points
    // around 45–132 land inside forces on this script, so some crashes
    // tear the in-flight commit record (matching `previous`) or cut it
    // exactly at the group boundary (matching `live`).
    let (kinds, crash_afters, tails): (Vec<&FaultKind>, Vec<u64>, Vec<u8>) = if smoke {
        let keep = [
            "clean",
            "latent-boot",
            "latent-nt",
            "latent-log-meta",
            "grown-log-next",
        ];
        (
            KINDS.iter().filter(|k| keep.contains(&k.name)).collect(),
            vec![10, 91],
            vec![0, 1, 2],
        )
    } else {
        (
            KINDS.iter().collect(),
            vec![3, 10, 25, 45, 70, 91, 117, 150],
            vec![0, 1, 2],
        )
    };

    let mut tallies: Vec<(&str, KindTally)> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    let mut overall = KindTally::default();

    for kind in &kinds {
        let mut tally = KindTally::default();
        for &crash_after in &crash_afters {
            for &tail in &tails {
                match run_crash_scenario(kind, crash_after, tail, &setup, &measured) {
                    Ok(o) => {
                        tally.absorb(&o);
                        overall.absorb(&o);
                    }
                    Err(e) => {
                        overall.scenarios += 1;
                        failures.push(format!(
                            "{} crash={crash_after} tail={tail}: {e}",
                            kind.name
                        ));
                    }
                }
            }
        }
        tallies.push((kind.name, tally));
    }

    let mut scavenge_tally = KindTally::default();
    for case in SCAVENGE_CASES {
        match run_scavenge_scenario(case, &setup, &measured) {
            Ok(o) => {
                scavenge_tally.absorb(&o);
                overall.absorb(&o);
            }
            Err(e) => {
                overall.scenarios += 1;
                failures.push(format!("scavenge {}: {e}", case.name));
            }
        }
    }
    tallies.push(("scavenge-block", scavenge_tally));

    let mut corrupt_tally = KindTally::default();
    for case in CORRUPT_CASES {
        match run_corrupt_scenario(case, &setup, &measured) {
            Ok(o) => {
                corrupt_tally.absorb(&o);
                overall.absorb(&o);
            }
            Err(e) => {
                overall.scenarios += 1;
                failures.push(format!("corrupt {}: {e}", case.name));
            }
        }
    }
    tallies.push(("corrupt-block", corrupt_tally));

    // Replication failover block: primary media faults + crashes per
    // acknowledgement mode, promoted replica checked against the acked
    // commit boundaries (loss bound per mode).
    let repl_keep = if smoke {
        vec!["clean", "latent-nt"]
    } else {
        vec![
            "clean",
            "latent-nt",
            "latent-log-meta",
            "grown-nt",
            "transient-nt",
        ]
    };
    let repl_crashes: Vec<u64> = if smoke { vec![45] } else { vec![25, 70, 117] };
    let repl_kinds: Vec<&FaultKind> = KINDS
        .iter()
        .filter(|k| repl_keep.contains(&k.name))
        .collect();
    let mut repl_scenarios = 0u64;
    for mode in ReplMode::ALL {
        let mut tally = KindTally::default();
        for kind in &repl_kinds {
            for &crash_after in &repl_crashes {
                for tail in [0u8, 1] {
                    repl_scenarios += 1;
                    match run_repl_scenario(mode, kind, crash_after, tail, &setup, &measured) {
                        Ok(o) => {
                            tally.absorb(&o);
                            overall.absorb(&o);
                        }
                        Err(e) => {
                            overall.scenarios += 1;
                            failures.push(format!(
                                "repl {} {} crash={crash_after} tail={tail}: {e}",
                                mode.name(),
                                kind.name
                            ));
                        }
                    }
                }
            }
        }
        match mode {
            ReplMode::Sync => tallies.push(("repl-sync", tally)),
            ReplMode::SemiSync => tallies.push(("repl-semi-sync", tally)),
            ReplMode::Async => tallies.push(("repl-async", tally)),
        }
    }

    let mut t = Table::new(
        "fault campaign (per fault kind)",
        &[
            "fault kind",
            "runs",
            "redo",
            "scrub",
            "scavenge",
            "=committed",
            "=previous",
            "=live",
            "scrubbed",
            "remapped",
            "max first read ms",
            "max full recovery ms",
        ],
    );
    for (name, k) in &tallies {
        t.row(&[
            (*name).to_string(),
            k.scenarios.to_string(),
            k.redo.to_string(),
            k.scrub.to_string(),
            k.scavenge.to_string(),
            k.matched_committed.to_string(),
            k.matched_previous.to_string(),
            k.matched_live.to_string(),
            k.scrubbed.to_string(),
            k.remapped.to_string(),
            format!("{:.3}", k.max_first_read_us as f64 / 1e3),
            format!("{:.3}", k.max_full_us as f64 / 1e3),
        ]);
    }
    println!();
    t.print();

    println!(
        "\n{} scenarios: {} redo / {} replica-scrub / {} scavenge; \
         {} sectors scrubbed, {} remapped; {} failures",
        overall.scenarios,
        overall.redo,
        overall.scrub,
        overall.scavenge,
        overall.scrubbed,
        overall.remapped,
        failures.len()
    );
    for f in &failures {
        println!("FAIL {f}");
    }

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"fault_campaign\",\n",
            "  \"workload\": \"makedo\",\n",
            "  \"scenarios\": {},\n",
            "  \"failures\": {},\n",
            "  \"rungs\": {{\"redo\": {}, \"replica_scrub\": {}, \"scavenge\": {}}},\n",
            "  \"matched\": {{\"committed\": {}, \"previous\": {}, \"live\": {}}},\n",
            "  \"scrubbed_sectors\": {},\n",
            "  \"remapped_sectors\": {},\n",
            "  \"max_first_read_us\": {},\n",
            "  \"max_full_recovery_us\": {},\n",
            "  \"platter_digest\": {}\n",
            "}}\n"
        ),
        overall.scenarios,
        failures.len(),
        overall.redo,
        overall.scrub,
        overall.scavenge,
        overall.matched_committed,
        overall.matched_previous,
        overall.matched_live,
        overall.scrubbed,
        overall.remapped,
        overall.max_first_read_us,
        overall.max_full_us,
        platter_json(&overall.platters),
    );
    print!("\nJSON:\n{json}");

    // Campaign gates: every scenario recovers to a commit boundary and
    // every rung of the escalation ladder is exercised.
    assert!(failures.is_empty(), "{} scenario failures", failures.len());
    assert!(
        overall.redo >= 1 && overall.scrub >= 1 && overall.scavenge >= 1,
        "escalation ladder not fully exercised: redo={} scrub={} scavenge={}",
        overall.redo,
        overall.scrub,
        overall.scavenge
    );
    assert!(
        repl_scenarios >= 12,
        "replication block too small: {repl_scenarios} scenarios"
    );
    if smoke {
        println!(
            "\nsmoke OK: {} scenarios, all rungs exercised, zero failures",
            overall.scenarios
        );
    } else {
        assert!(
            overall.scenarios >= 200,
            "campaign too small: {} scenarios",
            overall.scenarios
        );
        std::fs::write("BENCH_fault_campaign.json", &json)
            .expect("write BENCH_fault_campaign.json");
        println!("\nwrote BENCH_fault_campaign.json");
    }
}
