//! The multi-client group-commit scheduler (§5.4).
//!
//! "When the log is forced, the process doing the force is not allowed
//! to proceed until the force is completed. … all of the transactions
//! that were committing during this period are written to the log
//! together, and the log is only forced once for all of these
//! transactions." FSD's volume already *accumulates* updates in cached
//! name-table pages; this module adds the missing piece — the commit
//! daemon that serves **many clients**, batching their metadata
//! operations and forcing the log once per batch.
//!
//! [`CommitScheduler`] wraps an [`FsdVolume`] and takes over all
//! forcing (the volume's own interval daemon is disabled). Operations
//! enter through [`CommitScheduler::submit`] and join the *pending
//! batch*; the batch is settled — one log force commits every
//! operation in it — when the first of three things happens:
//!
//! * the **window deadline**: [`COMMIT_INTERVAL_US`] (half a second)
//!   after the previous settle, the §5.4 group-commit clock tick;
//! * **backpressure**: the batch reaches [`MAX_BATCH_OPS`] operations;
//! * the **volume forces on its own** because the accumulated images
//!   approach a log third ([`FsdVolume::bulky_threshold`]) — the
//!   scheduler detects this and absorbs the batch into that force.
//!
//! Because everything runs on the simulated clock, the whole schedule —
//! interleavings, forces, latencies — is a deterministic function of
//! the client scripts. [`CommitScheduler::report`] distills it: forces
//! per operation (the quantity the paper's Table 3 bounds), batch
//! occupancy, and commit-latency percentiles.

use crate::volume::{CommitStats, FsdVolume, COMMIT_INTERVAL_US};
use crate::{FsdError, Result};
use cedar_disk::Micros;
use cedar_vol::fs::{CedarFsError, FileInfo, FsBackend, FsStats};

/// Backpressure bound: a batch settles as soon as this many operations
/// are pending, whatever the window. The threaded engine applies at most
/// this many per epoch.
pub const MAX_BATCH_OPS: usize = 256;

/// Why a batch was settled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Settle {
    /// The window deadline arrived.
    Window,
    /// The batch hit [`MAX_BATCH_OPS`].
    Backpressure,
    /// A client asked for durability ([`FsBackend::sync`]).
    Explicit,
    /// The volume forced on its own mid-operation (bulky batch).
    Internal,
}

/// Commit-latency distribution over the simulated clock, µs.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LatencyStats {
    /// Mean.
    pub mean_us: f64,
    /// Median.
    pub p50_us: Micros,
    /// 90th percentile.
    pub p90_us: Micros,
    /// 99th percentile.
    pub p99_us: Micros,
    /// Worst case.
    pub max_us: Micros,
}

impl LatencyStats {
    /// The distribution of `samples`, in any order: the mean, the
    /// nearest-rank percentiles (index `p × (n − 1)`, rounded) and the
    /// worst case. All zero when there are no samples.
    pub fn from_samples(samples: &[Micros]) -> Self {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let Some(&max_us) = sorted.last() else {
            return Self::default();
        };
        let pct = |p: f64| sorted[(p * (sorted.len() - 1) as f64).round() as usize];
        Self {
            mean_us: sorted.iter().sum::<Micros>() as f64 / sorted.len() as f64,
            p50_us: pct(0.50),
            p90_us: pct(0.90),
            p99_us: pct(0.99),
            max_us,
        }
    }
}

/// What the scheduler did, aggregated — the group-commit extension of
/// [`CommitStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SchedReport {
    /// Operations submitted (and committed).
    pub ops: u64,
    /// Log forces that actually wrote a record, per the volume.
    pub log_forces: u64,
    /// Log forces per operation — the number group commit drives down
    /// as concurrency rises.
    pub forces_per_op: f64,
    /// Batches settled at the window deadline.
    pub window_settles: u64,
    /// Batches settled by the [`MAX_BATCH_OPS`] backpressure bound.
    pub backpressure_settles: u64,
    /// Batches settled by an explicit client sync.
    pub explicit_settles: u64,
    /// Batches absorbed into a volume-initiated (bulky) force.
    pub internal_settles: u64,
    /// Window deadlines that passed with nothing pending.
    pub empty_windows: u64,
    /// Mean operations per settled batch.
    pub batch_mean: f64,
    /// Largest settled batch.
    pub batch_max: u64,
    /// Commit latency: submit → the force that made the op durable.
    pub latency: LatencyStats,
}

/// Group-commit scheduler over one [`FsdVolume`].
pub struct CommitScheduler {
    vol: FsdVolume,
    /// Start of the current window = time of the last settle (or tick).
    window_anchor: Micros,
    /// Submit times of operations not yet committed.
    pending: Vec<Micros>,
    baseline: CommitStats,
    ops: u64,
    window_settles: u64,
    backpressure_settles: u64,
    explicit_settles: u64,
    internal_settles: u64,
    empty_windows: u64,
    batch_sizes: Vec<u64>,
    latencies: Vec<Micros>,
}

impl CommitScheduler {
    /// Takes ownership of the volume and of all log forcing.
    pub fn new(mut vol: FsdVolume) -> Self {
        // Disable the volume's own interval daemon; forces now happen
        // only where the scheduler can account for them.
        vol.set_commit_interval(Micros::MAX);
        let window_anchor = vol.clock().now();
        let baseline = vol.commit_stats();
        Self {
            vol,
            window_anchor,
            pending: Vec::new(),
            baseline,
            ops: 0,
            window_settles: 0,
            backpressure_settles: 0,
            explicit_settles: 0,
            internal_settles: 0,
            empty_windows: 0,
            batch_sizes: Vec::new(),
            latencies: Vec::new(),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> Micros {
        self.vol.clock().now()
    }

    /// Read access to the volume. (There is deliberately no `&mut`
    /// accessor: mutations must go through [`Self::submit`] so the
    /// scheduler's accounting stays truthful.)
    pub fn volume(&self) -> &FsdVolume {
        &self.vol
    }

    /// Settles what is pending and hands the volume back.
    pub fn into_volume(mut self) -> Result<FsdVolume> {
        self.drain()?;
        Ok(self.vol)
    }

    /// Advances simulated time to `target`, firing every window
    /// deadline on the way exactly when it falls due — a deadline with
    /// work settles the batch; an empty one just starts the next
    /// window.
    pub fn advance_to(&mut self, target: Micros) -> Result<()> {
        loop {
            let deadline = self.window_anchor.saturating_add(COMMIT_INTERVAL_US);
            if deadline > target {
                break;
            }
            let now = self.now();
            if deadline > now {
                self.vol.clock().advance(deadline - now);
            }
            if self.pending.is_empty() {
                self.empty_windows += 1;
                self.window_anchor = deadline;
            } else {
                self.settle(Settle::Window)?;
            }
        }
        let now = self.now();
        if target > now {
            self.vol.clock().advance(target - now);
        }
        Ok(())
    }

    /// Runs one client operation against the volume as part of the
    /// current batch. The closure gets the volume with the commit
    /// daemon off; any error passes straight through. On success the
    /// operation joins the pending batch, to be committed by the next
    /// settle (its commit latency is measured to that point).
    pub fn submit<T, E: From<FsdError>>(
        &mut self,
        op: impl FnOnce(&mut FsdVolume) -> std::result::Result<T, E>,
    ) -> std::result::Result<T, E> {
        // A deadline may have fallen due since the last advance.
        if self.now() >= self.window_anchor.saturating_add(COMMIT_INTERVAL_US) {
            self.advance_to(self.now())?;
        }
        let forces_before = self.vol.commit_stats().forces;
        let submitted_at = self.now();
        let out = op(&mut self.vol)?;
        self.ops += 1;
        self.pending.push(submitted_at);
        if self.vol.commit_stats().forces > forces_before {
            // The volume's bulky-batch guard fired inside the
            // operation: everything pending (including this op) went
            // out with that force.
            self.record_settle(Settle::Internal);
        } else if self.pending.len() >= MAX_BATCH_OPS {
            self.settle(Settle::Backpressure)?;
        }
        Ok(out)
    }

    /// Commits the pending batch now (a client called `sync`).
    pub fn force_now(&mut self) -> Result<()> {
        self.settle(Settle::Explicit)
    }

    /// Final drain: commits whatever is still pending. Call once at the
    /// end of a run so the last partial batch is counted.
    pub fn drain(&mut self) -> Result<()> {
        if !self.pending.is_empty() {
            self.settle(Settle::Window)?;
        }
        Ok(())
    }

    fn settle(&mut self, why: Settle) -> Result<()> {
        self.vol.force()?;
        self.record_settle(why);
        Ok(())
    }

    /// Folds the just-forced batch into the statistics and opens the
    /// next window.
    fn record_settle(&mut self, why: Settle) {
        match why {
            Settle::Window => self.window_settles += 1,
            Settle::Backpressure => self.backpressure_settles += 1,
            Settle::Explicit => self.explicit_settles += 1,
            Settle::Internal => self.internal_settles += 1,
        }
        let now = self.now();
        self.batch_sizes.push(self.pending.len() as u64);
        for &at in &self.pending {
            self.latencies.push(now.saturating_sub(at));
        }
        self.pending.clear();
        self.window_anchor = now;
    }

    /// The run's aggregate statistics. (Latency covers committed
    /// operations; call [`Self::drain`] first to include the tail.)
    pub fn report(&self) -> SchedReport {
        let log_forces = self.vol.commit_stats().forces - self.baseline.forces;
        SchedReport {
            ops: self.ops,
            log_forces,
            forces_per_op: if self.ops == 0 {
                0.0
            } else {
                log_forces as f64 / self.ops as f64
            },
            window_settles: self.window_settles,
            backpressure_settles: self.backpressure_settles,
            explicit_settles: self.explicit_settles,
            internal_settles: self.internal_settles,
            empty_windows: self.empty_windows,
            batch_mean: if self.batch_sizes.is_empty() {
                0.0
            } else {
                self.batch_sizes.iter().sum::<u64>() as f64 / self.batch_sizes.len() as f64
            },
            batch_max: self.batch_sizes.iter().copied().max().unwrap_or(0),
            latency: LatencyStats::from_samples(&self.latencies),
        }
    }
}

/// The scheduled volume as a backend: every verb goes through
/// [`CommitScheduler::submit`] and `sync` settles the shared batch.
/// Clients share it the way they share any serial backend — a
/// `SyncFs<CommitScheduler>`, each holding a clone of its `Arc` where a
/// handle is wanted. (For a pipeline that actually runs clients in
/// parallel, see `crate::FsdEngine`; this exists for the deterministic
/// simulated-clock driver.)
impl FsBackend for CommitScheduler {
    fn kind(&self) -> &'static str {
        "fsd-sched"
    }

    fn create(&mut self, name: &str, data: &[u8]) -> std::result::Result<FileInfo, CedarFsError> {
        self.submit(|v| FsBackend::create(v, name, data))
    }

    fn open(&mut self, name: &str) -> std::result::Result<FileInfo, CedarFsError> {
        self.submit(|v| FsBackend::open(v, name))
    }

    fn read(&mut self, name: &str) -> std::result::Result<Vec<u8>, CedarFsError> {
        self.submit(|v| FsBackend::read(v, name))
    }

    fn write(&mut self, name: &str, data: &[u8]) -> std::result::Result<FileInfo, CedarFsError> {
        self.submit(|v| FsBackend::write(v, name, data))
    }

    fn delete(&mut self, name: &str) -> std::result::Result<(), CedarFsError> {
        self.submit(|v| FsBackend::delete(v, name))
    }

    fn list(&mut self, prefix: &str) -> std::result::Result<Vec<FileInfo>, CedarFsError> {
        self.submit(|v| FsBackend::list(v, prefix))
    }

    fn sync(&mut self) -> std::result::Result<(), CedarFsError> {
        Ok(self.force_now()?)
    }

    fn stats(&self) -> FsStats {
        FsBackend::stats(&self.vol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FsdConfig;
    use cedar_disk::{CpuModel, SimDisk};
    use cedar_vol::fs::{FileSystem, SyncFs};
    use std::sync::Arc;

    fn vol(log_sectors: u32) -> FsdVolume {
        FsdVolume::format(
            SimDisk::tiny(),
            FsdConfig {
                nt_pages: 64,
                log_sectors,
                cpu: CpuModel::FREE,
                ..Default::default()
            },
        )
        .unwrap()
    }

    fn sched(log_sectors: u32) -> CommitScheduler {
        CommitScheduler::new(vol(log_sectors))
    }

    #[test]
    fn batch_commits_once_at_the_window() {
        let mut s = sched(512);
        for i in 0..10 {
            s.submit(|v| v.create(&format!("d/f{i}"), b"x")).unwrap();
        }
        assert_eq!(s.report().log_forces, 0, "no force before the window");
        assert_eq!(s.pending.len(), 10);
        let deadline = s.window_anchor + COMMIT_INTERVAL_US;
        s.advance_to(deadline).unwrap();
        let r = s.report();
        assert_eq!(r.log_forces, 1, "one force for the whole batch");
        assert_eq!(r.window_settles, 1);
        assert_eq!(r.batch_max, 10);
        assert!(s.pending.is_empty());
        // Latency: first op waited the whole window (minus its own
        // submit offset), later ops less — bounded by the window plus
        // the force's own disk time.
        assert!(r.latency.max_us <= COMMIT_INTERVAL_US + 50_000, "{r:?}");
        assert!(r.latency.p50_us > 0);
    }

    #[test]
    fn empty_windows_do_not_force() {
        let mut s = sched(512);
        s.advance_to(s.now() + 5 * COMMIT_INTERVAL_US).unwrap();
        let r = s.report();
        assert_eq!(r.log_forces, 0);
        assert_eq!(r.empty_windows, 5);
        assert_eq!(r.window_settles, 0);
    }

    #[test]
    fn backpressure_settles_a_full_batch() {
        // A create opens each batch and listings, which dirty nothing,
        // fill it: the batch bound settles it, never the log's bulk.
        let mut s = sched(512);
        for i in 0..2 * MAX_BATCH_OPS + 1 {
            if i % MAX_BATCH_OPS == 0 {
                s.submit(|v| v.create(&format!("d/f{i}"), b"x")).unwrap();
            } else {
                s.submit(|v| v.list("d/")).unwrap();
            }
        }
        let r = s.report();
        assert_eq!(r.backpressure_settles, 2, "settled at both full batches");
        assert_eq!((r.window_settles, r.internal_settles), (0, 0));
        assert_eq!(r.log_forces, 2);
        assert_eq!(r.batch_max, MAX_BATCH_OPS as u64);
        assert_eq!(s.pending.len(), 1);
    }

    #[test]
    fn bulky_volume_force_is_absorbed() {
        // A tiny log forces internally long before 500 ms; the scheduler
        // must notice and not double-force.
        let mut s = sched(64);
        let threshold = s.volume().bulky_threshold();
        assert!(threshold < 20, "tiny log should have a small threshold");
        for i in 0..40 {
            s.submit(|v| v.create(&format!("d/file{i:02}"), b"data"))
                .unwrap();
        }
        let r = s.report();
        assert!(r.internal_settles >= 1, "{r:?}");
        assert_eq!(
            r.log_forces,
            r.internal_settles + r.window_settles + r.backpressure_settles,
            "every force is attributed: {r:?}"
        );
    }

    #[test]
    fn scheduled_volume_equals_unscheduled() {
        // The same script through the scheduler and through a plain
        // per-op-forced volume must leave identical visible contents.
        let names = ["a/x", "a/y", "b/z", "a/x"];
        let mut plain = vol(512);
        for n in &names {
            plain.create(n, n.as_bytes()).unwrap();
            plain.force().unwrap();
        }
        let mut s = sched(512);
        for n in &names {
            s.submit(|v| v.create(n, n.as_bytes())).unwrap();
        }
        let mut sv = s.into_volume().unwrap();
        for n in ["a/x", "a/y", "b/z"] {
            let a = FsBackend::read(&mut plain, n).unwrap();
            let b = FsBackend::read(&mut sv, n).unwrap();
            assert_eq!(a, b);
        }
        assert_eq!(
            FsBackend::list(&mut plain, "").unwrap(),
            FsBackend::list(&mut sv, "").unwrap()
        );
    }

    #[test]
    fn client_handles_share_one_batch() {
        let shared = Arc::new(SyncFs::new(sched(512)));
        let fs: Arc<dyn FileSystem> = shared.clone();
        let (c0, c1) = (Arc::clone(&fs), fs);
        c0.create("c00/f", b"zero").unwrap();
        c1.create("c01/f", b"one").unwrap();
        assert_eq!(shared.with(|s| s.pending.len()), 2);
        c1.sync().unwrap();
        let r = shared.with(|s| s.report());
        assert_eq!(r.explicit_settles, 1);
        assert_eq!(r.log_forces, 1, "both clients' ops in one force");
        assert_eq!(r.batch_max, 2);
        assert_eq!(c0.read("c01/f").unwrap(), b"one");
    }

    #[test]
    fn report_math_is_consistent() {
        let mut s = sched(512);
        for i in 0..6 {
            s.submit(|v| v.create(&format!("f{i}"), b"d")).unwrap();
            let t = s.now() + 40_000;
            s.advance_to(t).unwrap();
        }
        s.drain().unwrap();
        let r = s.report();
        assert_eq!(r.ops, 6);
        assert!(r.forces_per_op > 0.0 && r.forces_per_op <= 1.0);
        assert!(r.latency.p50_us <= r.latency.p90_us);
        assert!(r.latency.p90_us <= r.latency.p99_us);
        assert!(r.latency.p99_us <= r.latency.max_us);
        assert!(r.batch_mean >= 1.0);
    }

    #[test]
    fn latency_stats_take_nearest_rank_percentiles() {
        assert_eq!(LatencyStats::from_samples(&[]), LatencyStats::default());
        let samples: Vec<Micros> = (1..=100).rev().collect();
        let l = LatencyStats::from_samples(&samples);
        assert_eq!(l.mean_us, 50.5);
        // Indices 49.5, 89.1 and 98.01 round to 50, 89 and 98.
        assert_eq!((l.p50_us, l.p90_us, l.p99_us, l.max_us), (51, 90, 99, 100));
    }
}
