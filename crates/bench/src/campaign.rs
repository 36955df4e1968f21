//! What the fault campaign and the replication bench share: the tiny
//! volume they run MakeDo on, the lockstep step that keeps a volume and
//! its [`MemFs`] model together, the replicated trial (a primary
//! shipping to a replica, and the acknowledged boundaries its failover
//! is judged against), and the oracle that compares a recovered or
//! promoted volume with a model.

use cedar_disk::{CpuModel, Micros, SimDisk};
use cedar_fsd::{FailoverOutcome, FsdConfig, FsdVolume, ReplSessionConfig, Shipper};
use cedar_vol::fs::{CedarFsError, FsBackend};
use cedar_workload::steps::{run_step_backend, Step, WorkloadStats};
use cedar_workload::{makedo_workload, MakeDoParams, MemFs};
use std::collections::VecDeque;

/// Measured steps between commits: the boundaries the oracles keep.
pub const COMMIT_EVERY: usize = 7;

/// The tiny volume's configuration: free CPU (media behaviour and
/// shipping are under test, not timing), one scavenge worker.
pub fn tiny_config() -> FsdConfig {
    FsdConfig {
        nt_pages: 48,
        log_sectors: 128,
        cpu: CpuModel::FREE,
        ..FsdConfig::default()
    }
}

/// Largest file the tiny volume accepts without churn; MakeDo sizes
/// above this are clamped.
pub const MAX_FILE_BYTES: u64 = 2_500;

/// The MakeDo script (setup, measured) with create sizes clamped to
/// [`MAX_FILE_BYTES`]; names, versions, deletes and order are MakeDo's.
pub fn tiny_makedo(rounds: usize, seed: u64) -> (Vec<Step>, Vec<Step>) {
    let (setup, measured) = makedo_workload(MakeDoParams {
        sources: 5,
        interfaces: 8,
        rounds,
        seed,
    });
    let clamp = |steps: Vec<Step>| {
        steps
            .into_iter()
            .map(|s| match s {
                Step::Create { name, bytes } => Step::Create {
                    name,
                    bytes: bytes.min(MAX_FILE_BYTES),
                },
                other => other,
            })
            .collect()
    };
    (clamp(setup), clamp(measured))
}

/// Runs `step` on the volume and, when it succeeds there, on the model.
/// `NoSpace` skips it on both sides (the tiny volume may fill), and so
/// does a `NotFound` the model agrees with (its create was skipped).
/// `Ok(false)` means the volume crashed: the run stops there.
pub fn lockstep(step: &Step, v: &mut FsdVolume, model: &mut MemFs) -> Result<bool, String> {
    let mut stats = WorkloadStats::default();
    match run_step_backend(step, v, &mut stats) {
        Ok(()) => run_step_backend(step, model, &mut stats)
            .map_err(|e| format!("model diverged on {step:?}: {e}"))?,
        Err(e) if e.is_crash() => return Ok(false),
        Err(CedarFsError::NoSpace) => {}
        Err(CedarFsError::NotFound(n)) if model.read(&n).is_err() => {}
        Err(e) => return Err(format!("step {step:?} failed: {e}")),
    }
    Ok(true)
}

/// Runs every step of `steps` in [`lockstep`]; a crash is an error.
pub fn replay(steps: &[Step], v: &mut FsdVolume, model: &mut MemFs) -> Result<(), String> {
    for step in steps {
        if !lockstep(step, v, model)? {
            return Err(format!("unplanned crash on {step:?}"));
        }
    }
    Ok(())
}

/// Replays the setup phase on a fresh tiny volume and on the model,
/// then syncs. Returns the synced volume and model, or why it failed.
pub fn setup_volume(setup: &[Step]) -> Result<(FsdVolume, MemFs), String> {
    let mut v = FsdVolume::format(SimDisk::tiny(), tiny_config())
        .map_err(|e| format!("format failed: {e}"))?;
    let mut model = MemFs::default();
    replay(setup, &mut v, &mut model).map_err(|e| format!("setup: {e}"))?;
    v.sync().map_err(|e| format!("setup sync failed: {e}"))?;
    Ok((v, model))
}

/// A set-up primary shipping to its replica, in lockstep with its
/// model. A commit is a force, then a ship; each one the replica
/// acknowledges is kept as a boundary for the failover's oracle.
pub struct ReplicatedTrial {
    /// The primary, which faults and crashes are planned on.
    pub primary: FsdVolume,
    /// The replica, the link and the acknowledgement rule.
    pub shipper: Shipper,
    /// The primary's visible state as it should be.
    pub model: MemFs,
    /// Ack latency of each commit [`Self::run`] made, µs.
    pub ack_us: Vec<Micros>,
    /// Commits [`Self::run`] saw refused as retryable (a downed link):
    /// durable on the primary, not acknowledged.
    pub link_errors: u64,
    /// Boundaries acknowledged so far, and the newest `keep` of them,
    /// oldest first.
    acked: u64,
    boundaries: VecDeque<(u64, MemFs)>,
    keep: usize,
}

impl ReplicatedTrial {
    /// Sets up a tiny primary from `setup` and installs a replica of it
    /// under `cfg`; the oracle keeps the newest `keep` boundaries.
    pub fn new(setup: &[Step], cfg: ReplSessionConfig, keep: usize) -> Result<Self, String> {
        let (mut primary, model) = setup_volume(setup)?;
        let shipper = Shipper::new(&mut primary, tiny_config(), cfg)
            .map_err(|e| format!("replica install failed: {e}"))?;
        Ok(Self {
            primary,
            shipper,
            model,
            acked: 0,
            ack_us: Vec::new(),
            link_errors: 0,
            boundaries: VecDeque::new(),
            keep,
        })
    }

    /// Runs `steps` in [`lockstep`], committing after every
    /// [`COMMIT_EVERY`]-th of them. A crash, in a step or in a commit,
    /// stops the run; so does a failure, which is returned.
    pub fn run(&mut self, steps: &[Step]) -> Result<(), String> {
        for (i, step) in steps.iter().enumerate() {
            if !lockstep(step, &mut self.primary, &mut self.model)? {
                return Ok(());
            }
            if i % COMMIT_EVERY == COMMIT_EVERY - 1 {
                let t0 = self.primary.clock().now();
                match self.commit() {
                    Ok(()) => self.ack_us.push(self.primary.clock().now() - t0),
                    Err(e) if e.is_crash() => return Ok(()),
                    // A torn force can surface as a retryable shipping
                    // refusal too; either way the boundary is unacked.
                    Err(e) if e.is_retryable() => self.link_errors += 1,
                    Err(e) => return Err(format!("commit failed: {e}")),
                }
            }
        }
        Ok(())
    }

    /// One commit: forces the primary and ships what the force sealed.
    /// When the replica acknowledges it, the model is kept as the newest
    /// boundary.
    pub fn commit(&mut self) -> Result<(), CedarFsError> {
        self.primary.force()?;
        self.shipper.ship(&mut self.primary)?;
        self.acknowledge();
        Ok(())
    }

    /// Keeps the model as the newest acknowledged boundary without a
    /// commit: everything durable on the primary has shipped (a
    /// converged resync).
    pub fn acknowledge(&mut self) {
        self.acked += 1;
        self.boundaries.push_back((self.acked, self.model.clone()));
        if self.boundaries.len() > self.keep {
            self.boundaries.pop_front();
        }
    }

    /// Boundaries acknowledged so far.
    pub fn acked(&self) -> u64 {
        self.acked
    }

    /// Promotes the replica. Returns the promotion, its redo settle and
    /// VAM walk still owed, and the boundaries it is judged against.
    pub fn failover(self) -> Result<(FailoverOutcome, Acked), String> {
        let out = self
            .shipper
            .failover()
            .map_err(|(e, _)| format!("failover failed: {e}"))?;
        let (boundaries, newest) = (self.boundaries, self.acked);
        Ok((out, Acked { boundaries, newest }))
    }
}

/// The kept acknowledged boundaries of a [`ReplicatedTrial`], oldest
/// first, and the newest one's id.
pub struct Acked {
    boundaries: VecDeque<(u64, MemFs)>,
    newest: u64,
}

impl Acked {
    /// How many acknowledged boundaries the promoted volume `v` is
    /// behind the newest: the newest kept boundary it matches decides.
    /// Nothing acknowledged loses nothing.
    pub fn loss(&self, v: &mut FsdVolume) -> Result<u64, String> {
        if self.newest == 0 {
            return Ok(0);
        }
        let mut newest_first = self.boundaries.iter().rev();
        match newest_first.find(|(_, model)| matches_model(v, model)) {
            Some((id, _)) => Ok(self.newest - id),
            None => Err("promoted state matches no acknowledged boundary".into()),
        }
    }
}

/// True when the volume's visible state (names and newest contents)
/// equals the model's.
pub fn matches_model(fs: &mut FsdVolume, model: &MemFs) -> bool {
    let mut m = model.clone();
    let Ok(mut want) = m.list("") else {
        return false;
    };
    let Ok(mut got) = FsBackend::list(fs, "") else {
        return false;
    };
    want.sort_by(|a, b| a.name.cmp(&b.name));
    got.sort_by(|a, b| a.name.cmp(&b.name));
    want.len() == got.len()
        && want.iter().zip(&got).all(|(w, g)| {
            w.name == g.name
                && m.read(&w.name)
                    .is_ok_and(|d| FsBackend::read(fs, &g.name).ok() == Some(d))
        })
}
