//! Replication's shipping half, [`Shipper`].
//!
//! [`Shipper`] is the one implementation of the shipping protocol: it
//! holds the replica, the simulated link and the queue of sealed frames,
//! and [`Shipper::ship`] runs the mode's acknowledgement rule for the
//! frames the primary's last force sealed. Whoever forces the primary
//! ships right after the force: the [`crate::FsdEngine`] log-writer,
//! inside its epoch, under the volume lease, before it releases the
//! epoch's clients; and the bench and the fault campaign, which hold
//! the primary and its [`Shipper`] side by side and step one commit at
//! a time, so every lag sample, retry, partition and failover is
//! reproducible. Frames seal at [`crate::FsdVolume::force`], ship
//! strictly in order, and the acknowledgement point is the mode's
//! durability point.
//!
//! Bounded retention is what makes resync interesting: the shipper keeps
//! at most [`ReplSessionConfig::retain_frames`] sealed-but-unshipped
//! frames (the stand-in for the primary's finite log). A partition that
//! outlives the buffer evicts frames, the replica's cursor is lapped,
//! and [`Shipper::resync`] must fall back from cursor replay to a
//! full-state transfer. Until it runs, a lapped shipper sends nothing
//! and keeps every frame it holds: each ship that must reach the replica
//! (every sync and semi-sync ship, an async one past its lag bound)
//! fails with the retryable [`CedarFsError::Link`] naming the resync,
//! and the lag it reports counts the evicted frames too.

use crate::repl::replica::{Replica, ReplicaApplyError, ReplicaStats};
use crate::repl::{ReplFrame, ReplMode};
use crate::volume::{FsdConfig, FsdVolume};
use cedar_disk::clock::Micros;
use cedar_disk::{Link, LinkPlan, LinkStats, SimClock, SimDisk, SECTOR_BYTES};
use cedar_vol::fs::CedarFsError;
use std::collections::{HashMap, VecDeque};

/// Full-transfer chunk size in sectors (128 KB on the wire at a time,
/// so bandwidth-limited links charge realistic serialization).
const TRANSFER_CHUNK_SECTORS: usize = 256;

/// [`Shipper`] configuration: the mode plus link fault/retry policy.
#[derive(Clone, Debug)]
pub struct ReplSessionConfig {
    /// Acknowledgement mode.
    pub mode: ReplMode,
    /// Link latency/bandwidth/fault plan.
    pub link: LinkPlan,
    /// Retries per frame after the first attempt.
    pub retry_attempts: u32,
    /// Initial retry backoff (doubles per attempt); simulated time
    /// advances by it, so a backoff can outlive a partition window.
    pub backoff_us: Micros,
    /// Sealed frames retained for cursor resync; older unshipped frames
    /// are evicted (the primary's log has finite capacity).
    pub retain_frames: usize,
    /// Async mode: a commit blocks once more than this many frames are
    /// behind the replica (evicted ones included).
    pub max_lag_frames: usize,
}

impl ReplSessionConfig {
    /// Defaults for `mode`: a healthy low-latency link, three retries
    /// with 2 ms backoff, 64 retained frames, 8-frame async lag bound.
    pub fn for_mode(mode: ReplMode) -> Self {
        Self {
            mode,
            link: LinkPlan {
                latency_us: 500,
                bytes_per_sec: 10_000_000,
                ..LinkPlan::default()
            },
            retry_attempts: 3,
            backoff_us: 2_000,
            retain_frames: 64,
            max_lag_frames: 8,
        }
    }
}

/// How a [`Shipper::resync`] converged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResyncKind {
    /// The replica's cursor was still covered by retained frames: the
    /// missing suffix was replayed over the link.
    CursorReplay,
    /// The retention buffer had lapped the cursor: full-state transfer.
    FullTransfer,
}

/// Result of a catch-up resync.
#[derive(Clone, Copy, Debug)]
pub struct ResyncOutcome {
    /// Which protocol leg converged.
    pub kind: ResyncKind,
    /// Frames replayed (cursor replay only).
    pub frames: u64,
    /// Sectors transferred (full transfer only).
    pub sectors: u64,
    /// Simulated time the resync took on the primary's clock.
    pub resync_us: Micros,
}

/// Result of promoting the replica after primary failure.
pub struct FailoverOutcome {
    /// The promoted, serving volume.
    pub volume: FsdVolume,
    /// Boot-time recovery report of the promotion.
    pub report: crate::recovery::RecoveryReport,
    /// Simulated promotion time (buffered frames' apply + crash boot) on
    /// the replica's clock.
    pub failover_us: Micros,
}

/// The shipping half of replication: the replica, the link and the
/// bounded queue of sealed frames, and the one implementation of the
/// modes' acknowledgement rule. Whoever forces the primary hands it to
/// [`Self::ship`] after the force.
pub struct Shipper {
    replica: Replica,
    link: Link,
    cfg: ReplSessionConfig,
    /// Sealed frames the replica has not yet received, oldest first.
    /// A frame leaves only once the replica took it, or by eviction.
    unshipped: VecDeque<ReplFrame>,
    /// Highest frame id sealed on the primary and collected here.
    sealed_high: u64,
    /// Primary-clock seal time per in-flight frame id (lag accounting).
    seal_times: HashMap<u64, Micros>,
    /// Commit-to-applied lag per frame, in simulated µs.
    lag_samples: Vec<Micros>,
    /// Highest frame id acknowledged at the mode's durability point.
    acked_high: u64,
}

impl Shipper {
    /// Installs a replica of `primary` (full-state transfer) and starts
    /// shipping with `cfg`. The primary gets its replication tap enabled.
    pub fn new(
        primary: &mut FsdVolume,
        config: FsdConfig,
        cfg: ReplSessionConfig,
    ) -> Result<Self, CedarFsError> {
        let replica = Replica::install(primary, config)?;
        let link = Link::new(cfg.link.clone());
        Ok(Self {
            sealed_high: replica.cursor(),
            replica,
            link,
            cfg,
            unshipped: VecDeque::new(),
            seal_times: HashMap::new(),
            lag_samples: Vec::new(),
            acked_high: 0,
        })
    }

    /// The link (fault injection: `force_down`, plan swaps).
    pub fn link_mut(&mut self) -> &mut Link {
        &mut self.link
    }

    /// The replica machine's disk (fault injection: a crash plan).
    pub fn replica_disk_mut(&mut self) -> &mut SimDisk {
        self.replica.disk_mut()
    }

    /// Replica-side counters.
    pub fn replica_stats(&self) -> ReplicaStats {
        self.replica.stats()
    }

    /// Link-side counters.
    pub fn link_stats(&self) -> LinkStats {
        self.link.stats()
    }

    /// Commit-to-applied lag samples collected so far (simulated µs).
    pub fn lag_samples(&self) -> &[Micros] {
        &self.lag_samples
    }

    /// Frames sealed on the primary but not yet applied by the replica,
    /// evicted ones included.
    pub fn frames_behind(&self) -> usize {
        (self.sealed_high - self.replica.cursor()) as usize
    }

    /// Highest frame id acknowledged at the mode's durability point.
    pub fn acked_high(&self) -> u64 {
        self.acked_high
    }

    /// Whether only a full-state transfer can reconverge the replica:
    /// retention evicted the frame its cursor needs next.
    pub fn needs_full_transfer(&self) -> bool {
        self.oldest_retained() > self.replica.high_water() + 1
    }

    /// Ships the frames `primary`'s last forces sealed, per the mode.
    /// `Ok` means they are acknowledged at the mode's durability point;
    /// a [`CedarFsError::Link`] error means they are durable on the
    /// primary but NOT acknowledged (retryable: heal the link and ship
    /// again, or call [`Self::resync`] — the only way on once retention
    /// has lapped the replica's cursor).
    pub fn ship(&mut self, primary: &mut FsdVolume) -> Result<(), CedarFsError> {
        self.collect_sealed(primary);
        let clock = primary.clock();
        match self.cfg.mode {
            ReplMode::Sync => {
                self.drain_unshipped(&clock, true)?;
            }
            ReplMode::SemiSync => {
                // Ack point: every frame received. The apply follows at
                // once, off the ack path.
                self.drain_unshipped(&clock, false)?;
                self.replica.apply_received().map_err(apply_err)?;
            }
            ReplMode::Async => {
                // Ack is local; ship opportunistically in the background
                // and only block (with retries) past the lag bound.
                self.try_drain_async(&clock);
                if self.frames_behind() > self.cfg.max_lag_frames {
                    self.drain_unshipped(&clock, true)?;
                }
            }
        }
        self.acked_high = self.sealed_high;
        Ok(())
    }

    /// Catch-up after a partition (heals a manual partition first): a
    /// log-cursor handshake decides between replaying retained frames
    /// and a full-state transfer when the retention buffer has lapped
    /// the replica's cursor.
    pub fn resync(&mut self, primary: &mut FsdVolume) -> Result<ResyncOutcome, CedarFsError> {
        self.link.heal();
        self.collect_sealed(primary);
        let clock = primary.clock();
        let t0 = clock.now();
        // The handshake: replica reports its high-water frame id; the
        // primary compares against the oldest change it can still replay.
        if self.needs_full_transfer() {
            let sectors = u64::from(primary.disk.materialized_sectors());
            self.ship_bytes(&clock, sectors as usize * SECTOR_BYTES)?;
            self.replica.reseed(primary)?;
            self.unshipped.clear();
            self.seal_times.clear();
            // The transfer carries what the reseed's own force sealed.
            self.sealed_high = self.replica.cursor();
            self.acked_high = self.sealed_high;
            Ok(ResyncOutcome {
                kind: ResyncKind::FullTransfer,
                frames: 0,
                sectors,
                resync_us: clock.now() - t0,
            })
        } else {
            let frames = self.unshipped.len() as u64;
            self.drain_unshipped(&clock, true)?;
            Ok(ResyncOutcome {
                kind: ResyncKind::CursorReplay,
                frames,
                sectors: 0,
                resync_us: clock.now() - t0,
            })
        }
    }

    /// Simulates primary failure: abandons the primary and promotes the
    /// replica at its current commit boundary. Anything unshipped is
    /// lost — which is exactly what the per-mode loss bounds quantify.
    /// A promotion interrupted by a crash hands the replica's disk back
    /// with the error ([`Replica::try_promote`]): it boots again at a
    /// commit boundary.
    #[allow(clippy::result_large_err)]
    pub fn failover(self) -> Result<FailoverOutcome, (CedarFsError, SimDisk)> {
        let clock = self.replica.clock();
        let t0 = clock.now();
        let (volume, report) = self
            .replica
            .try_promote()
            .map_err(|(e, disk)| (e.into(), disk))?;
        Ok(FailoverOutcome {
            failover_us: clock.now() - t0,
            volume,
            report,
        })
    }

    /// Ends shipping at a clean stop: one last sync drain of what
    /// `primary` sealed, then the replica. A frame the link still
    /// refuses stays behind; it was never acknowledged in sync mode.
    pub fn into_replica(mut self, primary: &mut FsdVolume) -> Replica {
        self.collect_sealed(primary);
        let _ = self.drain_unshipped(&primary.clock(), true);
        self.replica
    }

    // ----- internals ------------------------------------------------------------

    /// Moves newly sealed frames into the bounded unshipped queue,
    /// stamping seal times and evicting beyond the retention bound.
    fn collect_sealed(&mut self, primary: &mut FsdVolume) {
        let now = primary.clock().now();
        for frame in primary.take_repl_frames() {
            self.sealed_high = frame.id;
            self.seal_times.insert(frame.id, now);
            self.unshipped.push_back(frame);
        }
        while self.unshipped.len() > self.cfg.retain_frames {
            if let Some(f) = self.unshipped.pop_front() {
                self.seal_times.remove(&f.id);
            }
        }
    }

    /// Id of the oldest frame still held for the replica (the next to
    /// be sealed when none is).
    fn oldest_retained(&self) -> u64 {
        self.unshipped
            .front()
            .map_or(self.sealed_high + 1, |f| f.id)
    }

    /// Ships every unshipped frame in order with retry/backoff. When
    /// `apply` is set the replica applies each frame before the next
    /// ships (sync mode / resync replay); otherwise frames are only
    /// received (semi-sync ack point). `clock` is the primary's. A
    /// lapped cursor fails at once, before anything is sent: no queued
    /// frame can extend it.
    fn drain_unshipped(&mut self, clock: &SimClock, apply: bool) -> Result<(), CedarFsError> {
        if self.needs_full_transfer() {
            return Err(apply_err(ReplicaApplyError::Gap {
                expected: self.replica.high_water() + 1,
                got: self.oldest_retained(),
            }));
        }
        while let Some(front) = self.unshipped.front() {
            let wire = front.encoded_len();
            self.ship_with_retry(clock, wire)?;
            let frame = match self.unshipped.pop_front() {
                Some(f) => f,
                None => break,
            };
            let id = frame.id;
            if apply {
                let rc = self.replica.clock();
                let t0 = rc.now();
                self.replica.receive_apply(frame).map_err(apply_err)?;
                // The primary waits for the apply-then-ack in sync mode:
                // charge the replica's apply time to the primary's clock.
                clock.advance(rc.now() - t0);
            } else {
                self.replica.receive(frame).map_err(apply_err)?;
            }
            self.acked_high = self.acked_high.max(id);
            if let Some(sealed) = self.seal_times.remove(&id) {
                self.lag_samples.push(clock.now().saturating_sub(sealed));
            }
        }
        Ok(())
    }

    /// Best-effort async shipping: single attempt per frame, stop at the
    /// first link refusal, apply immediately. Sends
    /// nothing past a lapped cursor.
    fn try_drain_async(&mut self, clock: &SimClock) {
        if self.needs_full_transfer() {
            return;
        }
        while let Some(front) = self.unshipped.front() {
            let now = clock.now();
            let Ok(delay) = self.link.send(now, front.encoded_len()) else {
                return;
            };
            let Some(frame) = self.unshipped.pop_front() else {
                return;
            };
            let id = frame.id;
            // Background shipping does not stall the primary's clock;
            // lag still accounts the wire delay.
            if self.replica.receive_apply(frame).is_err() {
                return;
            }
            if let Some(sealed) = self.seal_times.remove(&id) {
                self.lag_samples.push((now + delay).saturating_sub(sealed));
            }
        }
    }

    /// One send with the retry/backoff policy. Advances the primary's
    /// `clock` by the wire delay (and by each backoff).
    fn ship_with_retry(&mut self, clock: &SimClock, bytes: usize) -> Result<(), CedarFsError> {
        let mut backoff = self.cfg.backoff_us.max(1);
        let mut attempt = 0;
        loop {
            match self.link.send(clock.now(), bytes) {
                Ok(delay) => {
                    clock.advance(delay);
                    return Ok(());
                }
                Err(_) if attempt < self.cfg.retry_attempts => {
                    attempt += 1;
                    clock.advance(backoff);
                    backoff = backoff.saturating_mul(2);
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Ships a bulk payload (full-state transfer) in chunks.
    fn ship_bytes(&mut self, clock: &SimClock, bytes: usize) -> Result<(), CedarFsError> {
        let chunk = TRANSFER_CHUNK_SECTORS * SECTOR_BYTES;
        let mut left = bytes;
        while left > 0 {
            let take = left.min(chunk);
            self.ship_with_retry(clock, take)?;
            left -= take;
        }
        Ok(())
    }
}

/// Maps a replica apply error to the filesystem error surface: gaps are
/// retryable link-level losses (heal + resync), redo failures keep their
/// own class.
pub(crate) fn apply_err(e: ReplicaApplyError) -> CedarFsError {
    match e {
        ReplicaApplyError::Gap { expected, got } => CedarFsError::Link(format!(
            "replica cursor gap (expected frame {expected}, got {got}); resync required"
        )),
        ReplicaApplyError::Fsd(e) => e.into(),
    }
}
