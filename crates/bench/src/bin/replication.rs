//! `replication` — log-shipping replication bench (E-REPL).
//!
//! Drives a primary and its [`cedar_fsd::Shipper`] (simulated link +
//! replica) under the MakeDo workload in each acknowledgement mode,
//! committing as the engine's log-writer does (force, then ship), and
//! reports, per mode:
//!
//! * **replication lag** percentiles (commit-seal to replica-apply, in
//!   simulated µs);
//! * **ack latency** percentiles (what the client pays per commit under
//!   the mode's durability point);
//! * **failover time** percentiles across crash trials at varying
//!   points of the script, with the promoted replica checked against
//!   the acknowledged commit-boundary [`cedar_workload::MemFs`] models;
//! * **catch-up resync** outcomes: a partition healed by cursor replay
//!   and a longer one (tiny retention) forced onto the full-state
//!   transfer fallback.
//!
//! The loss-bound gates are asserted on every run: sync and semi-sync
//! lose **zero** acknowledged commits in every trial; async loses at
//! most `max_lag_frames` commit boundaries; both resync legs converge.
//!
//! The run writes `BENCH_replication.json`.

use cedar_bench::campaign::{tiny_makedo, ReplicatedTrial};
use cedar_bench::report::{platter_json, Json};
use cedar_bench::Table;
use cedar_disk::Micros;
use cedar_fsd::{LatencyStats, ReplMode, ReplSessionConfig, ResyncKind, ResyncOutcome};
use cedar_workload::steps::Step;

/// Acknowledged boundaries kept for the failover oracle; must exceed
/// the async lag bound so the matched boundary is always retained.
const KEEP_BOUNDARIES: usize = 16;

/// Per-mode aggregate for the table and the JSON.
#[derive(Default)]
struct ModeReport {
    commits: u64,
    link_errors: u64,
    lag: Vec<Micros>,
    ack: Vec<Micros>,
    failover: Vec<Micros>,
    trials: u64,
    max_loss: u64,
    resync_replay_us: u64,
    resync_replay_frames: u64,
    resync_full_us: u64,
    resync_full_sectors: u64,
    /// Every promoted replica's platter digest, in the order promoted.
    platters: Vec<u64>,
}

impl ModeReport {
    /// Books `trial`'s commits, fails it over, verifies the promoted
    /// volume and returns its loss. A failover `trial` counts toward the
    /// failover times and the worst loss; a resync leg's does not.
    fn promote(&mut self, trial: ReplicatedTrial, is_trial: bool) -> Result<u64, String> {
        self.commits += trial.acked();
        self.ack.extend(&trial.ack_us);
        self.link_errors += trial.link_errors;
        let (out, acked) = trial.failover()?;
        let mut v = out.volume;
        v.verify().map_err(|e| format!("promoted verify: {e}"))?;
        let loss = acked.loss(&mut v)?;
        if is_trial {
            self.failover.push(out.failover_us);
            self.trials += 1;
            self.max_loss = self.max_loss.max(loss);
        }
        self.platters.push(v.disk_mut().platter_digest());
        Ok(loss)
    }
}

/// Steady-state run: full script, healthy link; collects lag and ack
/// percentile samples, then one failover trial at the end.
fn steady_state(
    mode: ReplMode,
    setup: &[Step],
    measured: &[Step],
    rep: &mut ModeReport,
) -> Result<u64, String> {
    let cfg = ReplSessionConfig::for_mode(mode);
    let mut trial = ReplicatedTrial::new(setup, cfg, KEEP_BOUNDARIES)?;
    trial.run(measured)?;
    // Final commit so the tail of the script is acknowledged too (its
    // ack time is not sampled; unacknowledged, it is no boundary).
    let _ = trial.commit();
    rep.lag.extend(trial.shipper.lag_samples());
    rep.promote(trial, true)
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
) -> Result<u64, String> {
    let mut cfg = ReplSessionConfig::for_mode(mode);
    cfg.max_lag_frames = 4;
    let mut trial = ReplicatedTrial::new(setup, cfg, KEEP_BOUNDARIES)?;
    let split = if partition {
        upto.saturating_sub(20)
    } else {
        upto
    };
    trial.run(&measured[..split])?;
    if partition {
        trial.shipper.link_mut().force_down();
        trial.run(&measured[split..upto])?;
    }
    rep.promote(trial, true)
}

/// One partition-and-heal leg: `before` runs on a healthy link and
/// `during` with it down; the replica then resyncs, which it must do by
/// `want`, converge, and fail over losslessly.
fn resync_leg(
    mode: ReplMode,
    retain_frames: usize,
    setup: &[Step],
    (before, during): (&[Step], &[Step]),
    want: ResyncKind,
    rep: &mut ModeReport,
) -> Result<ResyncOutcome, String> {
    let mut cfg = ReplSessionConfig::for_mode(mode);
    cfg.max_lag_frames = 64;
    cfg.retain_frames = retain_frames;
    let mut trial = ReplicatedTrial::new(setup, cfg, KEEP_BOUNDARIES)?;
    trial.run(before)?;
    trial.shipper.link_mut().force_down();
    trial.run(during)?;
    if want == ResyncKind::FullTransfer && !trial.shipper.needs_full_transfer() {
        return Err("retention bound never lapped the cursor".into());
    }
    let out = trial
        .shipper
        .resync(&mut trial.primary)
        .map_err(|e| format!("resync: {e}"))?;
    if out.kind != want {
        return Err(format!("expected {want:?}, got {:?}", out.kind));
    }
    if trial.shipper.frames_behind() != 0 {
        return Err(format!("{want:?} did not converge"));
    }
    // Everything durable on the primary has now shipped.
    trial.acknowledge();
    let loss = rep.promote(trial, false)?;
    if loss != 0 {
        return Err(format!("loss {loss} after a converged {want:?}"));
    }
    Ok(out)
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
    let mid = measured.len() / 2;
    let legs = (
        &measured[..mid],
        &measured[mid..mid + 21.min(measured.len() - mid)],
    );
    let out = resync_leg(mode, 64, setup, legs, ResyncKind::CursorReplay, rep)?;
    rep.resync_replay_us = rep.resync_replay_us.max(out.resync_us);
    rep.resync_replay_frames += out.frames;
    // Leg 2: retention of 2 frames, long partition — the log laps the
    // replica's cursor and only a full-state transfer reconverges.
    let legs = (&[][..], &measured[..measured.len().min(63)]);
    let out = resync_leg(mode, 2, setup, legs, ResyncKind::FullTransfer, rep)?;
    rep.resync_full_us = rep.resync_full_us.max(out.resync_us);
    rep.resync_full_sectors += out.sectors;
    Ok(())
}

fn main() {
    let (setup, measured) = tiny_makedo(2, 17);

    // Crash points for the failover trials, as measured-step prefixes.
    let n = measured.len();
    let crash_points = [n / 4, n / 2, 3 * n / 4, n - 10, n];

    let mut failures: Vec<String> = Vec::new();
    let mut reports: Vec<(ReplMode, ModeReport)> = Vec::new();

    for mode in ReplMode::ALL {
        let mut rep = ModeReport::default();
        if let Err(e) = steady_state(mode, &setup, &measured, &mut rep) {
            failures.push(format!("{} steady-state: {e}", mode.name()));
        }
        for upto in crash_points {
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
    let pcts = |l: &LatencyStats| {
        Json::inline()
            .field("p50", l.p50_us)
            .field("p90", l.p90_us)
            .field("p99", l.p99_us)
    };
    let mut modes = Json::block();
    for (mode, r) in &reports {
        let [lag, ack, failover] =
            [&r.lag, &r.ack, &r.failover].map(|s| LatencyStats::from_samples(s));
        t.row(&[
            mode.name().to_string(),
            r.commits.to_string(),
            lag.p50_us.to_string(),
            lag.p99_us.to_string(),
            ack.p50_us.to_string(),
            ack.p99_us.to_string(),
            failover.p50_us.to_string(),
            failover.p99_us.to_string(),
            r.max_loss.to_string(),
            r.resync_replay_us.to_string(),
            r.resync_full_us.to_string(),
        ]);
        let resync = Json::inline()
            .field("replay_us", r.resync_replay_us)
            .field("replay_frames", r.resync_replay_frames)
            .field("full_us", r.resync_full_us)
            .field("full_sectors", r.resync_full_sectors);
        let report = Json::block()
            .field("commits", r.commits)
            .field("link_errors", r.link_errors)
            .field("lag_us", pcts(&lag))
            .field("ack_us", pcts(&ack))
            .field("failover_us", pcts(&failover).field("trials", r.trials))
            .field("max_loss_boundaries", r.max_loss)
            .field("resync", resync)
            .field("platter_digest", platter_json(&r.platters));
        modes = modes.field(mode.name(), report);
    }
    println!();
    t.print();
    for f in &failures {
        println!("FAIL {f}");
    }
    let json = Json::block()
        .field("bench", "replication")
        .field("workload", "makedo")
        .field("failures", failures.len())
        .field("modes", modes)
        .render();
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

    std::fs::write("BENCH_replication.json", &json).expect("write BENCH_replication.json");
    println!("\nwrote BENCH_replication.json");
}
