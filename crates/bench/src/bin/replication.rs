//! `replication` — log-shipping replication bench (E-REPL).
//!
//! Drives a primary and its [`Shipper`] (simulated link + replica)
//! under the MakeDo workload in each acknowledgement mode, committing
//! as the engine's log-writer does (force, then ship), and reports, per
//! mode:
//!
//! * **replication lag** percentiles (commit-seal to replica-apply, in
//!   simulated µs);
//! * **ack latency** percentiles (what the client pays per commit under
//!   the mode's durability point);
//! * **failover time** percentiles across crash trials at varying
//!   points of the script, with the promoted replica checked against
//!   the acknowledged commit-boundary [`MemFs`] models;
//! * **catch-up resync** outcomes: a partition healed by cursor replay
//!   and a longer one (tiny retention) forced onto the full-state
//!   transfer fallback.
//!
//! The loss-bound gates are asserted on every run: sync and semi-sync
//! lose **zero** acknowledged commits in every trial; async loses at
//! most `max_lag_frames` commit boundaries; both resync legs converge.
//!
//! `--smoke` runs a reduced grid for CI. The full run writes
//! `BENCH_replication.json`.

use cedar_bench::campaign::{matches_model, setup_volume, tiny_config, tiny_makedo};
use cedar_bench::report::platter_json;
use cedar_bench::{CedarFsError, FsBackend, Table};
use cedar_disk::Micros;
use cedar_fsd::{FsdVolume, ReplMode, ReplSessionConfig, ResyncKind, Shipper};
use cedar_workload::steps::{run_step_backend, Step, WorkloadStats};
use cedar_workload::MemFs;
use std::collections::VecDeque;

/// Measured steps between commits (the acknowledged boundaries).
const COMMIT_EVERY: usize = 7;

/// Commit-boundary snapshots kept for the failover oracle; must exceed
/// the async lag bound so the matched boundary is always retained.
const KEEP_BOUNDARIES: usize = 16;

fn pct(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Installs a replica of the set-up primary `v` and starts shipping.
fn install(v: &mut FsdVolume, cfg: ReplSessionConfig) -> Result<Shipper, String> {
    let mode = cfg.mode;
    Shipper::new(v, tiny_config(), cfg).map_err(|e| format!("install ({mode:?}): {e}"))
}

/// Runs `measured[..upto]` on the primary `v` and the model, committing
/// (force, then ship through `sh`) every [`COMMIT_EVERY`] steps.
/// Snapshots each *acknowledged* boundary `(id, model)` into
/// `boundaries`. Commit errors on a downed link are tolerated (the
/// boundary just is not acknowledged); any other failure is fatal.
#[allow(clippy::too_many_arguments)]
fn drive(
    v: &mut FsdVolume,
    sh: &mut Shipper,
    live: &mut MemFs,
    measured: &[Step],
    upto: usize,
    boundaries: &mut VecDeque<(u64, MemFs)>,
    acked: &mut u64,
    ack_samples: &mut Vec<Micros>,
    link_errors: &mut u64,
) -> Result<(), String> {
    let mut stats = WorkloadStats::default();
    for (i, step) in measured.iter().take(upto).enumerate() {
        match run_step_backend(step, v, &mut stats) {
            Ok(()) => {
                run_step_backend(step, live, &mut stats)
                    .map_err(|e| format!("model diverged on {step:?}: {e}"))?;
            }
            Err(CedarFsError::NoSpace) => {}
            Err(CedarFsError::NotFound(n)) if live.read(&n).is_err() => {}
            Err(e) => return Err(format!("step {step:?}: {e}")),
        }
        if i % COMMIT_EVERY == COMMIT_EVERY - 1 {
            let t0 = v.clock().now();
            match v
                .force()
                .map_err(CedarFsError::from)
                .and_then(|()| sh.ship(v))
            {
                Ok(()) => {
                    ack_samples.push(v.clock().now() - t0);
                    *acked += 1;
                    boundaries.push_back((*acked, live.clone()));
                    while boundaries.len() > KEEP_BOUNDARIES {
                        boundaries.pop_front();
                    }
                }
                Err(e) if e.is_retryable() => {
                    // Durable on the primary, not acknowledged: the
                    // loss-bound oracle must not count it.
                    *link_errors += 1;
                }
                Err(e) => return Err(format!("commit: {e}")),
            }
        }
    }
    Ok(())
}

/// Finds which acknowledged boundary the promoted volume matches and
/// returns the loss in boundaries behind the newest acknowledged one.
fn promoted_loss(
    promoted: &mut FsdVolume,
    boundaries: &VecDeque<(u64, MemFs)>,
    acked: u64,
) -> Result<u64, String> {
    if acked == 0 {
        return Ok(0);
    }
    for (id, model) in boundaries.iter().rev() {
        if matches_model(promoted, model) {
            return Ok(acked - id);
        }
    }
    Err("promoted replica matches no acknowledged boundary".into())
}

/// Per-mode aggregate for the table and the JSON.
#[derive(Default)]
struct ModeReport {
    commits: u64,
    link_errors: u64,
    lag: Vec<u64>,
    ack: Vec<u64>,
    failover: Vec<u64>,
    trials: u64,
    max_loss: u64,
    resync_replay_us: u64,
    resync_replay_frames: u64,
    resync_full_us: u64,
    resync_full_sectors: u64,
    /// Every promoted replica's platter digest, in the order promoted.
    platters: Vec<u64>,
}

/// Steady-state run: full script, healthy link; collects lag and ack
/// percentile samples, then one failover trial at the end.
fn steady_state(
    mode: ReplMode,
    setup: &[Step],
    measured: &[Step],
    rep: &mut ModeReport,
) -> Result<(), String> {
    let (mut v, mut live) = setup_volume(setup)?;
    let mut sh = install(&mut v, ReplSessionConfig::for_mode(mode))?;
    let mut boundaries = VecDeque::new();
    let mut acked = 0;
    drive(
        &mut v,
        &mut sh,
        &mut live,
        measured,
        measured.len(),
        &mut boundaries,
        &mut acked,
        &mut rep.ack,
        &mut rep.link_errors,
    )?;
    // Final commit so the tail of the script is acknowledged too.
    if v.force().is_ok() && sh.ship(&mut v).is_ok() {
        acked += 1;
        boundaries.push_back((acked, live.clone()));
    }
    rep.commits += acked;
    rep.lag.extend(sh.lag_samples().iter().copied());
    let out = sh.failover().map_err(|e| format!("failover: {e}"))?;
    rep.failover.push(out.failover_us);
    rep.trials += 1;
    let mut v = out.volume;
    v.verify().map_err(|e| format!("promoted verify: {e}"))?;
    let loss = promoted_loss(&mut v, &boundaries, acked)?;
    rep.max_loss = rep.max_loss.max(loss);
    rep.platters.push(v.disk_mut().platter_digest());
    Ok(())
}

/// Crash trial: run a prefix of the script, then fail the primary over
/// (under `partition` the link is down for the trailing commits first,
/// so async accumulates acknowledged-but-unshipped lag).
fn failover_trial(
    mode: ReplMode,
    setup: &[Step],
    measured: &[Step],
    upto: usize,
    partition: bool,
    rep: &mut ModeReport,
) -> Result<(), String> {
    let mut cfg = ReplSessionConfig::for_mode(mode);
    cfg.max_lag_frames = 4;
    let (mut v, mut live) = setup_volume(setup)?;
    let mut sh = install(&mut v, cfg)?;
    let mut boundaries = VecDeque::new();
    let mut acked = 0;
    let split = if partition {
        upto.saturating_sub(20)
    } else {
        upto
    };
    drive(
        &mut v,
        &mut sh,
        &mut live,
        measured,
        split,
        &mut boundaries,
        &mut acked,
        &mut rep.ack,
        &mut rep.link_errors,
    )?;
    if partition {
        sh.link_mut().force_down();
        let rest: Vec<Step> = measured[split..upto].to_vec();
        drive(
            &mut v,
            &mut sh,
            &mut live,
            &rest,
            rest.len(),
            &mut boundaries,
            &mut acked,
            &mut rep.ack,
            &mut rep.link_errors,
        )?;
    }
    rep.commits += acked;
    let out = sh.failover().map_err(|e| format!("failover: {e}"))?;
    rep.failover.push(out.failover_us);
    rep.trials += 1;
    let mut v = out.volume;
    v.verify().map_err(|e| format!("promoted verify: {e}"))?;
    let loss = promoted_loss(&mut v, &boundaries, acked)?;
    rep.max_loss = rep.max_loss.max(loss);
    rep.platters.push(v.disk_mut().platter_digest());
    Ok(())
}

/// Partition + heal: cursor replay resync, then a lapped-log partition
/// (tiny retention) that must fall back to full-state transfer. Both
/// must reconverge, serve later commits, and fail over losslessly.
fn resync_scenarios(
    mode: ReplMode,
    setup: &[Step],
    measured: &[Step],
    rep: &mut ModeReport,
) -> Result<(), String> {
    // Leg 1: short partition, cursor replay.
    let mut cfg = ReplSessionConfig::for_mode(mode);
    cfg.max_lag_frames = 64;
    cfg.retain_frames = 64;
    let (mut v, mut live) = setup_volume(setup)?;
    let mut sh = install(&mut v, cfg)?;
    let mut boundaries = VecDeque::new();
    let mut acked = 0;
    let mid = measured.len() / 2;
    drive(
        &mut v,
        &mut sh,
        &mut live,
        measured,
        mid,
        &mut boundaries,
        &mut acked,
        &mut rep.ack,
        &mut rep.link_errors,
    )?;
    sh.link_mut().force_down();
    let during: Vec<Step> = measured[mid..mid + 21.min(measured.len() - mid)].to_vec();
    drive(
        &mut v,
        &mut sh,
        &mut live,
        &during,
        during.len(),
        &mut boundaries,
        &mut acked,
        &mut rep.ack,
        &mut rep.link_errors,
    )?;
    let out = sh.resync(&mut v).map_err(|e| format!("resync: {e}"))?;
    if out.kind != ResyncKind::CursorReplay {
        return Err(format!("expected cursor replay, got {:?}", out.kind));
    }
    if sh.frames_behind() != 0 {
        return Err("cursor replay did not converge".into());
    }
    rep.resync_replay_us = rep.resync_replay_us.max(out.resync_us);
    rep.resync_replay_frames += out.frames;
    // Everything durable on the primary has now shipped: snapshot.
    acked += 1;
    boundaries.push_back((acked, live.clone()));
    rep.commits += acked;
    let out = sh.failover().map_err(|e| format!("failover: {e}"))?;
    let mut v = out.volume;
    v.verify().map_err(|e| format!("verify: {e}"))?;
    let loss = promoted_loss(&mut v, &boundaries, acked)?;
    if loss != 0 {
        return Err(format!("loss {loss} after converged resync"));
    }
    rep.platters.push(v.disk_mut().platter_digest());

    // Leg 2: retention of 2 frames, long partition — the log laps the
    // replica's cursor and only a full-state transfer reconverges.
    let mut cfg = ReplSessionConfig::for_mode(mode);
    cfg.max_lag_frames = 64;
    cfg.retain_frames = 2;
    let (mut v, mut live) = setup_volume(setup)?;
    let mut sh = install(&mut v, cfg)?;
    let mut boundaries = VecDeque::new();
    let mut acked = 0;
    sh.link_mut().force_down();
    drive(
        &mut v,
        &mut sh,
        &mut live,
        measured,
        measured.len().min(63),
        &mut boundaries,
        &mut acked,
        &mut rep.ack,
        &mut rep.link_errors,
    )?;
    if !sh.needs_full_transfer() {
        return Err("retention bound never lapped the cursor".into());
    }
    let out = sh.resync(&mut v).map_err(|e| format!("full resync: {e}"))?;
    if out.kind != ResyncKind::FullTransfer {
        return Err(format!("expected full transfer, got {:?}", out.kind));
    }
    if sh.frames_behind() != 0 {
        return Err("full transfer did not converge".into());
    }
    rep.resync_full_us = rep.resync_full_us.max(out.resync_us);
    rep.resync_full_sectors += out.sectors;
    acked += 1;
    boundaries.push_back((acked, live.clone()));
    rep.commits += acked;
    let out = sh.failover().map_err(|e| format!("failover: {e}"))?;
    let mut v = out.volume;
    v.verify().map_err(|e| format!("verify: {e}"))?;
    let loss = promoted_loss(&mut v, &boundaries, acked)?;
    if loss != 0 {
        return Err(format!("loss {loss} after full-transfer resync"));
    }
    rep.platters.push(v.disk_mut().platter_digest());
    Ok(())
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (setup, measured) = tiny_makedo(if smoke { 1 } else { 2 }, 17);

    // Crash points for the failover trials, as measured-step prefixes.
    let n = measured.len();
    let crash_points: Vec<usize> = if smoke {
        vec![n / 2, n]
    } else {
        vec![n / 4, n / 2, 3 * n / 4, n - 10, n]
    };

    let mut failures: Vec<String> = Vec::new();
    let mut reports: Vec<(ReplMode, ModeReport)> = Vec::new();

    for mode in ReplMode::ALL {
        let mut rep = ModeReport::default();
        if let Err(e) = steady_state(mode, &setup, &measured, &mut rep) {
            failures.push(format!("{} steady-state: {e}", mode.name()));
        }
        for &upto in &crash_points {
            for partition in [false, true] {
                if let Err(e) = failover_trial(mode, &setup, &measured, upto, partition, &mut rep) {
                    failures.push(format!(
                        "{} trial upto={upto} partition={partition}: {e}",
                        mode.name()
                    ));
                }
            }
        }
        if let Err(e) = resync_scenarios(mode, &setup, &measured, &mut rep) {
            failures.push(format!("{} resync: {e}", mode.name()));
        }
        rep.lag.sort_unstable();
        rep.ack.sort_unstable();
        rep.failover.sort_unstable();
        reports.push((mode, rep));
    }

    let mut t = Table::new(
        "replication (per mode)",
        &[
            "mode",
            "commits",
            "lag p50 µs",
            "lag p99 µs",
            "ack p50 µs",
            "ack p99 µs",
            "failover p50 µs",
            "failover p99 µs",
            "max loss",
            "replay µs",
            "full-xfer µs",
        ],
    );
    for (mode, r) in &reports {
        t.row(&[
            mode.name().to_string(),
            r.commits.to_string(),
            pct(&r.lag, 0.5).to_string(),
            pct(&r.lag, 0.99).to_string(),
            pct(&r.ack, 0.5).to_string(),
            pct(&r.ack, 0.99).to_string(),
            pct(&r.failover, 0.5).to_string(),
            pct(&r.failover, 0.99).to_string(),
            r.max_loss.to_string(),
            r.resync_replay_us.to_string(),
            r.resync_full_us.to_string(),
        ]);
    }
    println!();
    t.print();
    for f in &failures {
        println!("FAIL {f}");
    }

    let mut modes_json = String::new();
    for (i, (mode, r)) in reports.iter().enumerate() {
        if i > 0 {
            modes_json.push_str(",\n");
        }
        modes_json.push_str(&format!(
            concat!(
                "    \"{}\": {{\n",
                "      \"commits\": {},\n",
                "      \"link_errors\": {},\n",
                "      \"lag_us\": {{\"p50\": {}, \"p90\": {}, \"p99\": {}}},\n",
                "      \"ack_us\": {{\"p50\": {}, \"p90\": {}, \"p99\": {}}},\n",
                "      \"failover_us\": {{\"p50\": {}, \"p90\": {}, \"p99\": {}, \"trials\": {}}},\n",
                "      \"max_loss_boundaries\": {},\n",
                "      \"resync\": {{\"replay_us\": {}, \"replay_frames\": {}, \"full_us\": {}, \"full_sectors\": {}}},\n",
                "      \"platter_digest\": {}\n",
                "    }}"
            ),
            mode.name(),
            r.commits,
            r.link_errors,
            pct(&r.lag, 0.5),
            pct(&r.lag, 0.9),
            pct(&r.lag, 0.99),
            pct(&r.ack, 0.5),
            pct(&r.ack, 0.9),
            pct(&r.ack, 0.99),
            pct(&r.failover, 0.5),
            pct(&r.failover, 0.9),
            pct(&r.failover, 0.99),
            r.trials,
            r.max_loss,
            r.resync_replay_us,
            r.resync_replay_frames,
            r.resync_full_us,
            r.resync_full_sectors,
            platter_json(&r.platters),
        ));
    }
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"replication\",\n",
            "  \"workload\": \"makedo\",\n",
            "  \"failures\": {},\n",
            "  \"modes\": {{\n{}\n  }}\n",
            "}}\n"
        ),
        failures.len(),
        modes_json,
    );
    print!("\nJSON:\n{json}");

    // The gates: every scenario passes; the per-mode loss bounds hold
    // (zero acknowledged loss for sync and semi-sync, bounded lag for
    // async); both resync legs converged in every mode.
    assert!(failures.is_empty(), "{} scenario failures", failures.len());
    for (mode, r) in &reports {
        match mode {
            ReplMode::Sync | ReplMode::SemiSync => {
                assert_eq!(r.max_loss, 0, "{} lost acknowledged commits", mode.name())
            }
            ReplMode::Async => assert!(
                r.max_loss <= 4,
                "async loss {} exceeds the lag bound",
                r.max_loss
            ),
        }
        assert!(
            r.resync_replay_frames > 0,
            "{}: no cursor replay",
            mode.name()
        );
        assert!(
            r.resync_full_sectors > 0,
            "{}: no full transfer",
            mode.name()
        );
    }

    if smoke {
        println!("\nsmoke OK: all modes within loss bounds, both resync legs converged");
    } else {
        std::fs::write("BENCH_replication.json", &json).expect("write BENCH_replication.json");
        println!("\nwrote BENCH_replication.json");
    }
}
