//! Multi-client drivers: the deterministic simulated-clock driver for
//! the group-commit scheduler, and the threaded driver that runs real
//! OS threads against the concurrent FSD engine.
//!
//! The **simulated driver** ([`drive_clients`]) models Dorado-style
//! concurrency: clients do not preempt each other, concurrency is the
//! *interleaving* of operation streams on the shared clock, and the
//! whole run is a deterministic function of the scripts — this is what
//! reproduces the paper's numbers.
//!
//! The **threaded driver** ([`drive_threads`]) spawns one
//! `std::thread` per client script, each holding a clone of the
//! `Arc` of one shared [`FsdEngine`]. Think times become real
//! (scaled) sleeps, the engine's pacer converts simulated disk time
//! into wall time, and the run answers the systems question the
//! simulation cannot: does throughput scale with threads until the
//! *disk* — not a lock — is the bottleneck?

use cedar_disk::Micros;
use cedar_fsd::{CommitScheduler, EngineStats, FsdEngine, FsdVolume, SchedReport};
use cedar_vol::fs::{CedarFsError, FileSystem, FsStats, SyncFs};
use cedar_workload::steps::{run_step, Step, WorkloadStats};
use cedar_workload::ClientScript;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Results of one simulated multi-client run.
#[derive(Clone, Debug)]
pub struct MultiClientRun {
    /// Workload totals over the measured phase.
    pub stats: WorkloadStats,
    /// The scheduler's commit accounting.
    pub report: SchedReport,
    /// Simulated duration of the measured phase, µs.
    pub duration_us: Micros,
}

/// Replays every script's setup phase directly on the volume (the
/// volume's own commit daemon is live here), forces, then drives the
/// measured phases interleaved through a [`CommitScheduler`]. Returns
/// the drained volume and the run results.
pub fn drive_clients(
    vol: FsdVolume,
    scripts: &[ClientScript],
) -> Result<(FsdVolume, MultiClientRun), CedarFsError> {
    let vol = populate_setup(vol, scripts)?;
    let mut fs = SyncFs::new(CommitScheduler::new(vol));
    let base = fs.get_mut().now();
    let mut cursor = vec![0usize; scripts.len()];
    let mut ready_at: Vec<Micros> = scripts
        .iter()
        .map(|c| base + c.steps.first().map_or(0, |t| t.think_us))
        .collect();
    let mut stats = WorkloadStats::default();
    loop {
        // Earliest-ready unfinished client; ties break to the lowest
        // index, keeping the schedule deterministic.
        let next = (0..scripts.len())
            .filter(|&i| cursor[i] < scripts[i].steps.len())
            .min_by_key(|&i| ready_at[i]);
        let Some(i) = next else { break };
        fs.get_mut().advance_to(ready_at[i])?;
        run_step(&scripts[i].steps[cursor[i]].step, &fs, &mut stats)?;
        cursor[i] += 1;
        if let Some(t) = scripts[i].steps.get(cursor[i]) {
            ready_at[i] = fs.get_mut().now() + t.think_us;
        }
    }
    let mut sched = fs.into_inner();
    sched.drain()?;
    let report = sched.report();
    let duration_us = sched.now() - base;
    Ok((
        sched.into_volume()?,
        MultiClientRun {
            stats,
            report,
            duration_us,
        },
    ))
}

/// Replays every script's setup phase on the raw volume and forces, so
/// a measured phase starts from a populated, committed state.
pub fn populate_setup(vol: FsdVolume, scripts: &[ClientScript]) -> Result<FsdVolume, CedarFsError> {
    let fs = SyncFs::new(vol);
    let mut setup_stats = WorkloadStats::default();
    for c in scripts {
        for s in &c.setup {
            run_step(s, &fs, &mut setup_stats)?;
        }
    }
    let mut vol = fs.into_inner();
    vol.force().map_err(CedarFsError::from)?;
    Ok(vol)
}

/// Results of one threaded run against the engine.
#[derive(Clone, Debug)]
pub struct ThreadedRun {
    /// Workload totals, merged across threads.
    pub stats: WorkloadStats,
    /// Engine counters at the end of the run.
    pub engine: EngineStats,
    /// Volume stats when the measured phase started.
    pub fs_before: FsStats,
    /// Volume stats when the measured phase ended.
    pub fs_after: FsStats,
    /// Wall-clock duration of the measured phase.
    pub wall: Duration,
    /// Operations retried after a retryable error.
    pub retries: u64,
}

impl ThreadedRun {
    /// Simulated disk busy time during the run, µs.
    pub fn disk_busy_us(&self) -> Micros {
        self.fs_after
            .disk
            .busy_us()
            .saturating_sub(self.fs_before.disk.busy_us())
    }

    /// Completed operations per wall-clock second.
    pub fn ops_per_sec(&self) -> f64 {
        let s = self.wall.as_secs_f64();
        if s > 0.0 {
            self.stats.steps as f64 / s
        } else {
            0.0
        }
    }

    /// Fraction of wall time the (paced) simulated disk was busy — the
    /// saturation signal. Only meaningful when the engine runs with a
    /// pacer; `pace_scale` converts busy µs of simulated time into wall
    /// time.
    pub fn disk_busy_fraction(&self, pace_scale: f64) -> f64 {
        let wall_s = self.wall.as_secs_f64();
        if wall_s > 0.0 {
            (self.disk_busy_us() as f64 * pace_scale / 1e6) / wall_s
        } else {
            0.0
        }
    }
}

/// How many times a retryable error is retried before surfacing.
const MAX_RETRIES: u32 = 8;

/// Runs one step with bounded retry on [`CedarFsError::is_retryable`]
/// failures (the concurrent path can see transient `Busy`/`NoSpace`).
fn run_step_retrying(
    step: &Step,
    fs: &dyn FileSystem,
    stats: &mut WorkloadStats,
    retries: &mut u64,
) -> Result<(), CedarFsError> {
    let mut attempt = 0;
    loop {
        match run_step(step, fs, stats) {
            Ok(()) => return Ok(()),
            Err(e) if e.is_retryable() && attempt < MAX_RETRIES => {
                attempt += 1;
                *retries += 1;
                std::thread::sleep(Duration::from_millis(1 << attempt.min(5)));
            }
            Err(e) => return Err(e),
        }
    }
}

/// Spawns one OS thread per script, each replaying its measured phase
/// through its own clone of the engine's `Arc`. `think_scale`
/// maps simulated think µs to wall time (use the engine's
/// `pace_scale` so client pauses and disk time share one timescale;
/// 0.0 disables think pauses).
pub fn drive_threads(
    engine: &Arc<FsdEngine>,
    scripts: &[ClientScript],
    think_scale: f64,
) -> Result<ThreadedRun, CedarFsError> {
    let fs_before = engine.stats();
    let started = Instant::now();
    let mut threads = Vec::with_capacity(scripts.len());
    for script in scripts.iter().cloned() {
        let fs: Arc<dyn FileSystem> = engine.clone();
        threads.push(std::thread::spawn(move || {
            let mut stats = WorkloadStats::default();
            let mut retries = 0u64;
            for t in &script.steps {
                if think_scale > 0.0 && t.think_us > 0 {
                    std::thread::sleep(Duration::from_secs_f64(
                        t.think_us as f64 * think_scale / 1e6,
                    ));
                }
                run_step_retrying(&t.step, &*fs, &mut stats, &mut retries)?;
            }
            Ok::<(WorkloadStats, u64), CedarFsError>((stats, retries))
        }));
    }
    let mut stats = WorkloadStats::default();
    let mut retries = 0u64;
    for t in threads {
        let (s, r) = t
            .join()
            .map_err(|_| CedarFsError::Corrupt("client thread panicked".into()))??;
        stats.absorb(&s);
        retries += r;
    }
    // One epoch-wait so the tail batch is committed and counted before
    // the clock stops.
    engine.sync()?;
    let wall = started.elapsed();
    Ok(ThreadedRun {
        stats,
        engine: engine.engine_stats(),
        fs_before,
        fs_after: engine.stats(),
        wall,
        retries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedar_disk::{CpuModel, SimClock, SimDisk};
    use cedar_fsd::{EngineConfig, FsdConfig};
    use cedar_workload::{multi_client_workload, MultiClientParams};

    fn vol() -> FsdVolume {
        FsdVolume::format(
            SimDisk::trident_t300(SimClock::new()),
            FsdConfig {
                log_sectors: 4096,
                cpu: CpuModel::DORADO,
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn run_is_deterministic() {
        let scripts = multi_client_workload(MultiClientParams {
            clients: 3,
            ..Default::default()
        });
        let (_, a) = drive_clients(vol(), &scripts).unwrap();
        let (_, b) = drive_clients(vol(), &scripts).unwrap();
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.report, b.report);
        assert_eq!(a.duration_us, b.duration_us);
        assert_eq!(
            a.stats.steps,
            scripts.iter().map(|c| c.steps.len() as u64).sum()
        );
    }

    #[test]
    fn more_clients_need_fewer_forces_per_op() {
        let per_op = |n: usize| {
            let scripts = multi_client_workload(MultiClientParams {
                clients: n,
                ..Default::default()
            });
            let (_, run) = drive_clients(vol(), &scripts).unwrap();
            assert!(run.report.ops > 0);
            run.report.forces_per_op
        };
        let (solo, grouped) = (per_op(1), per_op(8));
        assert!(
            grouped < solo,
            "8 clients {grouped}/op should beat 1 client {solo}/op"
        );
    }

    #[test]
    fn threaded_driver_completes_every_step() {
        let scripts = multi_client_workload(MultiClientParams {
            clients: 4,
            makedo: cedar_workload::MakeDoParams {
                sources: 2,
                interfaces: 3,
                rounds: 1,
                seed: 0,
            },
            ..Default::default()
        });
        let vol = populate_setup(vol(), &scripts).unwrap();
        let engine = Arc::new(FsdEngine::start(vol, EngineConfig::default()).unwrap());
        let run = drive_threads(&engine, &scripts, 0.0).unwrap();
        assert_eq!(
            run.stats.steps,
            scripts.iter().map(|c| c.steps.len() as u64).sum::<u64>()
        );
        assert!(run.engine.epochs > 0);
        assert!(run.disk_busy_us() > 0);
        let mut vol = FsdEngine::shutdown_arc(engine).unwrap();
        assert!(vol.verify().is_ok());
    }
}
