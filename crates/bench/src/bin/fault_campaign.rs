//! `fault_campaign` — the media-fault injection campaign (E-FAULT).
//!
//! Enumerates (media-fault shape × crash point × torn tail) over a
//! MakeDo workload on a tiny FSD volume and checks every recovered
//! volume against an in-memory [`cedar_workload::MemFs`] model: the
//! surviving state must be exactly the last commit boundary, the
//! boundary before it (the crash tore the in-flight force), or the full
//! live state (the in-flight group landed whole). A separate block
//! destroys both log meta replicas after a clean shutdown so recovery
//! has to climb past replica repair to the leader-page scavenger — there
//! the recovered volume must equal the live model exactly.
//!
//! MakeDo file sizes are capped so the script fits the 1 MB campaign
//! volume; the script shape (names, versions, deletes, recreation
//! order) is unchanged.
//!
//! The run writes `BENCH_fault_campaign.json` and enforces the campaign
//! gates: at least 200 scenarios, zero failures, and every rung of the
//! escalation ladder (redo, replica scrub, scavenge) exercised.

use cedar_bench::campaign::{
    lockstep, matches_model, replay, setup_volume, tiny_config, tiny_makedo, ReplicatedTrial,
    COMMIT_EVERY,
};
use cedar_bench::report::{platter_json, Json};
use cedar_bench::{FsBackend, Table};
use cedar_disk::{CrashPlan, FaultPlan, Label, PageKind, SimDisk};
use cedar_fsd::{
    FsdConfig, FsdLayout, FsdVolume, RecoveryReport, RecoveryRung, ReplMode, ReplSessionConfig,
};
use cedar_workload::steps::Step;

/// One media-fault shape, resolved against the live volume after the
/// setup phase (so log-cursor-relative targets are meaningful).
struct FaultKind {
    name: &'static str,
    plan: fn(&FsdVolume) -> FaultPlan,
}

impl FaultKind {
    const fn new(name: &'static str, plan: fn(&FsdVolume) -> FaultPlan) -> Self {
        Self { name, plan }
    }
}

/// The fault grid. Latent faults fail once and are repaired by the
/// first successful rewrite; transient faults only cost revolutions;
/// grown defects reject writes forever and must be remapped to spares.
const KINDS: &[FaultKind] = &[
    FaultKind::new("clean", |_| FaultPlan::none()),
    FaultKind::new("latent-boot", |v| {
        FaultPlan::none().with_latent(v.layout().boot_a)
    }),
    FaultKind::new("latent-nt", |v| {
        FaultPlan::none().with_latent(v.layout().nt_a_sector(1))
    }),
    FaultKind::new("latent-nt-pair", |v| {
        FaultPlan::none()
            .with_latent(v.layout().nt_a_sector(0))
            .with_latent(v.layout().nt_a_sector(2))
    }),
    FaultKind::new("latent-log-meta", |v| {
        FaultPlan::none().with_latent(v.layout().log_start)
    }),
    FaultKind::new("latent-log-tail", |v| {
        FaultPlan::none().with_latent(v.next_log_sector())
    }),
    FaultKind::new("latent-vam", |v| {
        FaultPlan::none().with_latent(v.layout().vam_a)
    }),
    FaultKind::new("transient-nt", |v| {
        FaultPlan::none().with_transient(v.layout().nt_a_sector(1), 2)
    }),
    FaultKind::new("transient-log", |v| {
        FaultPlan::none().with_transient(v.next_log_sector(), 1)
    }),
    FaultKind::new("latent-mixed", |v| {
        let l = v.layout();
        FaultPlan::none()
            .with_latent(l.boot_a)
            .with_latent(l.nt_a_sector(3))
            .with_latent(l.log_start)
    }),
    FaultKind::new("grown-log-next", |v| {
        FaultPlan::none().with_grown(v.next_log_sector())
    }),
    FaultKind::new("grown-nt", |v| {
        FaultPlan::none().with_grown(v.layout().nt_a_sector(2))
    }),
    FaultKind::new("grown-vam", |v| {
        FaultPlan::none().with_grown(v.layout().vam_a)
    }),
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

/// Installs `kind`'s faults on the volume and schedules its crash.
fn plant(v: &mut FsdVolume, kind: &FaultKind, crash_after: u64, damaged_tail: u8) {
    let plan = (kind.plan)(v);
    v.disk_mut().set_fault_plan(&plan);
    v.disk_mut().schedule_crash(CrashPlan {
        after_sector_writes: crash_after,
        damaged_tail,
    });
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
    plant(&mut v, kind, crash_after, damaged_tail);

    let mut committed = live.clone();
    let mut previous = committed.clone();
    let mut crashed = false;
    for (i, step) in measured.iter().enumerate() {
        if !lockstep(step, &mut v, &mut live)? {
            crashed = true;
            break;
        }
        if i % COMMIT_EVERY == COMMIT_EVERY - 1 {
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
    // The last sync's state first, then the one before it, then the
    // in-flight group landed whole.
    let candidates = [
        ("committed", committed),
        ("previous", previous),
        ("live", live),
    ];
    recover_and_check(disk, tiny_config(), |v2| {
        let (name, _) = candidates
            .iter()
            .find(|(_, model)| matches_model(v2, model))
            .ok_or("recovered state matches no commit boundary")?;
        Ok(*name)
    })
}

/// How a clean-shutdown scenario wounds the disk before its forced
/// scavenge boot, resolved against the pre-shutdown layout.
struct WoundCase {
    name: &'static str,
    /// Scavenger decode/verify workers: 1 is the serial pipeline, more
    /// runs the parallel checker — same required outcome either way.
    workers: usize,
    wound: fn(&mut SimDisk, &FsdLayout),
}

impl WoundCase {
    const fn new(name: &'static str, workers: usize, wound: fn(&mut SimDisk, &FsdLayout)) -> Self {
        Self {
            name,
            workers,
            wound,
        }
    }
}

/// Destroys both log meta replicas, soft or hard.
fn kill_metas(d: &mut SimDisk, l: &FsdLayout, hard: bool) {
    for meta in [l.log_start, l.log_start + 2] {
        if hard {
            d.hard_damage_sector(meta);
        } else {
            d.damage_sector(meta);
        }
    }
}

/// The scavenge block: both log meta replicas die (plus a case's
/// extras), so recovery has to climb to the leader-page scavenger; with
/// no in-flight work the scavenged volume must equal the live model.
const SCAVENGE_CASES: &[WoundCase] = &[
    WoundCase::new("soft-both-metas", 1, |d, l| kill_metas(d, l, false)),
    WoundCase::new("hard-both-metas", 1, |d, l| kill_metas(d, l, true)),
    WoundCase::new("metas+boot-a", 1, |d, l| {
        kill_metas(d, l, false);
        d.damage_sector(l.boot_a);
    }),
    WoundCase::new("metas+nt-page", 1, |d, l| {
        kill_metas(d, l, false);
        d.damage_sector(l.nt_a_sector(1));
    }),
    WoundCase::new("parallel-scavenger", 8, |d, l| {
        kill_metas(d, l, true);
        d.damage_sector(l.nt_a_sector(1));
    }),
];

/// First data-area sector carrying the given label kind.
fn first_live(disk: &SimDisk, l: &FsdLayout, kind: PageKind) -> Option<u32> {
    let (start, end) = l.data_area();
    (start..end).find(|&a| disk.peek_label(a).kind == kind)
}

/// The corrupt block: out-of-band image rot (wild byte flips, label
/// smashes), then both log meta replicas die — §5.8's "malicious"
/// class, outside the replica-covered fault model, so the gate is
/// weaker than the boundary oracle: the forced scavenge, trusting
/// nothing but labels and software-check pages, must rebuild a
/// *verifying* tree (rot may cost files, never consistency) and must not
/// panic or refuse a scavengeable image.
const CORRUPT_CASES: &[WoundCase] = &[
    WoundCase::new("flip-leader-byte", 1, |d, l| {
        if let Some(a) = first_live(d, l, PageKind::Leader) {
            d.corrupt_byte(a, 40, 0x40);
        }
        kill_metas(d, l, false);
    }),
    WoundCase::new("flip-nt-both-copies", 1, |d, l| {
        d.corrupt_byte(l.nt_a_sector(1), 17, 0x10);
        d.corrupt_byte(l.nt_b_sector(1), 17, 0x10);
        kill_metas(d, l, false);
    }),
    WoundCase::new("smash-data-label", 1, |d, l| {
        if let Some(a) = first_live(d, l, PageKind::Data) {
            d.corrupt_label(a, Label::new(0xDEAD, 7, PageKind::Leader));
        }
        kill_metas(d, l, false);
    }),
    WoundCase::new("flip-log-record", 1, |d, l| {
        d.corrupt_byte(l.log_start + 4, 9, 0x04);
        kill_metas(d, l, false);
    }),
    WoundCase::new("parallel-rot-scavenge", 8, |d, l| {
        if let Some(a) = first_live(d, l, PageKind::Leader) {
            d.corrupt_byte(a, 8, 0x80);
        }
        kill_metas(d, l, false);
    }),
];

/// One clean-shutdown scenario: run the whole script in lockstep, shut
/// down cleanly, wound the image and boot, which must reach rung 3 (the
/// scavenger). When `exact`, the scavenged volume must equal the live
/// model; otherwise the only oracle is the tree check inside
/// [`settle_and_check`].
fn run_wound_scenario(
    case: &WoundCase,
    exact: bool,
    setup: &[Step],
    measured: &[Step],
) -> Result<Outcome, String> {
    let (mut v, mut live) = setup_volume(setup)?;
    replay(measured, &mut v, &mut live)?;
    let layout = *v.layout();
    v.shutdown().map_err(|e| format!("shutdown failed: {e}"))?;
    let mut disk = v.into_disk();
    (case.wound)(&mut disk, &layout);
    disk.reboot();
    let config = FsdConfig {
        scavenge_workers: case.workers,
        ..tiny_config()
    };
    let outcome = recover_and_check(disk, config, |v2| {
        if !exact || matches_model(v2, &live) {
            Ok("live")
        } else {
            Err("scavenged state does not equal the live model".into())
        }
    })?;
    if outcome.rung != RecoveryRung::Scavenge {
        return Err(format!("expected scavenge rung, got {:?}", outcome.rung));
    }
    Ok(outcome)
}

/// Replication failover block: the primary runs the measured script
/// under a media-fault plan and a scheduled crash while shipping to a
/// replica; when the primary dies, the replica is promoted and must land
/// on an *acknowledged* commit boundary within the mode's loss bound —
/// zero boundaries for sync and semi-sync, at most [`REPL_MAX_LAG`] for
/// async.
const REPL_MAX_LAG: usize = 4;

/// Acked-boundary snapshots kept for the promotion oracle.
const REPL_KEEP_BOUNDARIES: usize = REPL_MAX_LAG + 4;

/// The fault kinds the replication block runs, at these crash points.
const REPL_KINDS: [&str; 5] = [
    "clean",
    "latent-nt",
    "latent-log-meta",
    "grown-nt",
    "transient-nt",
];
const REPL_CRASHES: [u64; 3] = [25, 70, 117];

fn run_repl_scenario(
    mode: ReplMode,
    kind: &FaultKind,
    crash_after: u64,
    damaged_tail: u8,
    setup: &[Step],
    measured: &[Step],
) -> Result<Outcome, String> {
    let mut cfg = ReplSessionConfig::for_mode(mode);
    cfg.max_lag_frames = REPL_MAX_LAG;
    let mut trial = ReplicatedTrial::new(setup, cfg, REPL_KEEP_BOUNDARIES)?;
    // Faults and the crash hit the primary only, after the install's
    // full-state transfer (the clone starts healthy).
    plant(&mut trial.primary, kind, crash_after, damaged_tail);
    trial.run(measured)?;

    // The primary is dead (or the script ended): promote the replica.
    let (out, acked) = trial.failover()?;
    let bound = match mode {
        ReplMode::Sync | ReplMode::SemiSync => 0,
        ReplMode::Async => REPL_MAX_LAG as u64,
    };
    settle_and_check(out.volume, &out.report, out.failover_us, |v2| {
        let loss = acked.loss(v2)?;
        if loss > bound {
            return Err(format!(
                "{} lost {loss} acknowledged boundaries (bound {bound})",
                mode.name()
            ));
        }
        Ok(if loss == 0 { "committed" } else { "previous" })
    })
}

/// One cell of the campaign's grid: its label, and its run.
type Cell<'a> = (String, Box<dyn Fn() -> Result<Outcome, String> + 'a>);

fn main() {
    let (setup, measured) = tiny_makedo(2, 11);
    let (s, m) = (&setup[..], &measured[..]);

    // The grid, one block a row of the table. Crash points are measured
    // in sector writes from the end of setup; the tail tears 0..=2
    // trailing sectors. The points around 45–132 land inside forces on
    // this script, so some crashes tear the in-flight commit record
    // (matching `previous`) or cut it exactly at the group boundary
    // (matching `live`).
    let crash_afters = [3, 10, 25, 45, 70, 91, 117, 150];
    let mut blocks: Vec<(String, Vec<Cell>)> = Vec::new();
    for kind in KINDS {
        let cells = crash_afters.iter().flat_map(|&at| {
            (0..=2).map(move |tail| -> Cell {
                let run = move || run_crash_scenario(kind, at, tail, s, m);
                (format!("crash={at} tail={tail}"), Box::new(run))
            })
        });
        blocks.push((kind.name.to_string(), cells.collect()));
    }
    for (block, cases, exact) in [
        ("scavenge-block", SCAVENGE_CASES, true),
        ("corrupt-block", CORRUPT_CASES, false),
    ] {
        let cells = cases.iter().map(|case| -> Cell {
            let run = move || run_wound_scenario(case, exact, s, m);
            (case.name.to_string(), Box::new(run))
        });
        blocks.push((block.to_string(), cells.collect()));
    }
    // Replication failover block: primary media faults + crashes per
    // acknowledgement mode, promoted replica checked against the acked
    // commit boundaries (loss bound per mode).
    for mode in ReplMode::ALL {
        let mut cells: Vec<Cell> = Vec::new();
        for kind in KINDS.iter().filter(|k| REPL_KINDS.contains(&k.name)) {
            for at in REPL_CRASHES {
                for tail in [0, 1] {
                    let run = move || run_repl_scenario(mode, kind, at, tail, s, m);
                    cells.push((
                        format!("{} crash={at} tail={tail}", kind.name),
                        Box::new(run),
                    ));
                }
            }
        }
        blocks.push((format!("repl-{}", mode.name().replace('_', "-")), cells));
    }
    let repl_scenarios: usize = blocks
        .iter()
        .filter(|(block, _)| block.starts_with("repl-"))
        .map(|(_, cells)| cells.len())
        .sum();

    let mut tallies: Vec<(String, KindTally)> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    let mut overall = KindTally::default();
    for (block, cells) in blocks {
        let mut tally = KindTally::default();
        for (label, run) in &cells {
            match run() {
                Ok(o) => {
                    tally.absorb(&o);
                    overall.absorb(&o);
                }
                Err(e) => {
                    overall.scenarios += 1;
                    failures.push(format!("{block} {label}: {e}"));
                }
            }
        }
        tallies.push((block, tally));
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
            name.clone(),
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

    let json = Json::block()
        .field("bench", "fault_campaign")
        .field("workload", "makedo")
        .field("scenarios", overall.scenarios)
        .field("failures", failures.len())
        .field(
            "rungs",
            Json::inline()
                .field("redo", overall.redo)
                .field("replica_scrub", overall.scrub)
                .field("scavenge", overall.scavenge),
        )
        .field(
            "matched",
            Json::inline()
                .field("committed", overall.matched_committed)
                .field("previous", overall.matched_previous)
                .field("live", overall.matched_live),
        )
        .field("scrubbed_sectors", overall.scrubbed)
        .field("remapped_sectors", overall.remapped)
        .field("max_first_read_us", overall.max_first_read_us)
        .field("max_full_recovery_us", overall.max_full_us)
        .field("platter_digest", platter_json(&overall.platters))
        .render();
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
    assert!(
        overall.scenarios >= 200,
        "campaign too small: {} scenarios",
        overall.scenarios
    );
    std::fs::write("BENCH_fault_campaign.json", &json).expect("write BENCH_fault_campaign.json");
    println!("\nwrote BENCH_fault_campaign.json");
}
