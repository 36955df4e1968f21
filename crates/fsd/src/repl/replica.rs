//! The replica volume: continuous redo of shipped frames.
//!
//! A replica is *not* a mounted [`FsdVolume`] — it is the primary's disk
//! image plus a redo engine, exactly as a crashed volume mid-recovery is
//! a disk plus the redo sweep. Shipped frames are applied with the same
//! write discipline as boot-time recovery ([`crate::recovery`]): raw
//! data-area writes first (they happened before the commit they ride
//! with), then each sealed record's images to their home locations —
//! name-table sectors to *both* copies, VAM sectors to both save areas,
//! leader images to their home address — all through the remap-aware
//! batched writer. Promotion is then literally a boot: the home copies
//! are current, the replica's own log is empty, and recovery's existing
//! machinery (VAM reconstruction, scavenge escalation) does the rest.

use crate::error::FsdError;
use crate::layout::FsdLayout;
use crate::log::{self, DATA_START};
use crate::recovery::RecoveryReport;
use crate::repl::{DataWrite, ReplFrame};
use crate::spare::{self, SpareMap};
use crate::volume::{FsdConfig, FsdVolume};
use crate::Result;
use cedar_disk::{SimClock, SimDisk};
use std::collections::{BTreeMap, VecDeque};

/// How the replica has been kept current: frames redone, and full-state
/// transfers (the tests read both to tell what reached the replica).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplicaStats {
    /// Frames fully applied to the home copies.
    pub frames_applied: u64,
    /// Full-state transfers (the initial install plus any lapped-log
    /// resync fallbacks).
    pub full_transfers: u64,
}

/// Why a frame could not be applied.
#[derive(Debug)]
pub enum ReplicaApplyError {
    /// The frame does not extend the replica's cursor — frames were lost
    /// in a partition and the session must resync.
    Gap {
        /// Frame id the replica needs next.
        expected: u64,
        /// Frame id that arrived.
        got: u64,
    },
    /// The redo write itself failed.
    Fsd(FsdError),
}

impl std::fmt::Display for ReplicaApplyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Gap { expected, got } => {
                write!(f, "frame gap: replica expected {expected}, got {got}")
            }
            Self::Fsd(e) => write!(f, "replica redo failed: {e}"),
        }
    }
}

impl From<FsdError> for ReplicaApplyError {
    fn from(e: FsdError) -> Self {
        Self::Fsd(e)
    }
}

/// A standby volume applying the primary's replication stream.
#[derive(Debug)]
pub struct Replica {
    disk: SimDisk,
    layout: FsdLayout,
    config: FsdConfig,
    /// Id of the last fully applied frame.
    cursor: u64,
    /// Frames received but not yet applied (the semi-sync durability
    /// point is entry into this buffer).
    received: VecDeque<ReplFrame>,
    stats: ReplicaStats,
}

impl Replica {
    /// Seeds a replica from the primary by full-state transfer.
    ///
    /// Protocol order matters: the primary is forced (all commits
    /// durable), the replication tap is enabled (or its pending frames
    /// discarded — the transfer already carries their effects), and only
    /// then is the disk image cloned. The clone is booted once on the
    /// replica's own clock and settled — recovery replays any live log
    /// and brings every home copy current — and the replica's log data
    /// area is then zeroed so no stale primary record can masquerade as
    /// live when the replica is eventually promoted.
    ///
    /// Returns the replica positioned at the primary's current frame
    /// cursor: the next sealed frame extends it with no gap.
    pub fn install(primary: &mut FsdVolume, config: FsdConfig) -> Result<Replica> {
        primary.force()?;
        if primary.repl_tap_enabled() {
            // Effects of any sealed-but-unshipped frames are in the disk
            // image we are about to clone.
            primary.take_repl_frames();
        } else {
            primary.enable_repl_tap()?;
        }
        primary.seal_repl_data_frame();
        primary.take_repl_frames();
        let cursor = primary.repl.as_ref().map(|t| t.next_frame - 1).unwrap_or(0);
        let fork = primary.disk.fork_with_clock(SimClock::new());
        let (mut vol, _report) = FsdVolume::boot(fork, config)?;
        vol.settle_redo()?;
        zero_log_data(&mut vol.disk, &vol.layout, &vol.spare)?;
        let layout = vol.layout;

        Ok(Replica {
            disk: vol.into_disk(),
            layout,
            config,
            cursor,
            received: VecDeque::new(),
            stats: ReplicaStats {
                full_transfers: 1,
                ..ReplicaStats::default()
            },
        })
    }

    /// Replaces this replica's disk state by a fresh full-state transfer
    /// from the primary (the lapped-log resync fallback). The receive
    /// buffer is discarded — its frames are subsumed by the transfer.
    pub fn reseed(&mut self, primary: &mut FsdVolume) -> Result<()> {
        let fresh = Replica::install(primary, self.config)?;
        self.disk = fresh.disk;
        self.layout = fresh.layout;
        self.config = fresh.config;
        self.cursor = fresh.cursor;
        self.received.clear();
        self.stats.full_transfers += 1;
        Ok(())
    }

    /// Id of the last applied frame (the resync handshake cursor).
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// Id of the newest frame the replica holds (applied or buffered).
    pub fn high_water(&self) -> u64 {
        self.received.back().map_or(self.cursor, |f| f.id)
    }

    /// Frames received but not yet applied.
    pub fn buffered(&self) -> usize {
        self.received.len()
    }

    /// Counters so far.
    pub fn stats(&self) -> ReplicaStats {
        self.stats
    }

    /// The replica machine's clock (independent of the primary's).
    pub fn clock(&self) -> SimClock {
        self.disk.clock()
    }

    /// Accepts a frame into the receive buffer — the semi-sync
    /// durability point. Rejects gaps: the stream is strictly ordered.
    pub fn receive(&mut self, frame: ReplFrame) -> std::result::Result<(), ReplicaApplyError> {
        let expected = self.high_water() + 1;
        if frame.id != expected {
            return Err(ReplicaApplyError::Gap {
                expected,
                got: frame.id,
            });
        }
        self.received.push_back(frame);
        Ok(())
    }

    /// Applies every buffered frame (continuous redo). Returns the
    /// number of frames applied.
    pub fn apply_received(&mut self) -> std::result::Result<usize, ReplicaApplyError> {
        let mut n = 0;
        while let Some(frame) = self.received.pop_front() {
            self.apply(&frame)?;
            n += 1;
        }
        Ok(n)
    }

    /// Receives and immediately applies one frame (the sync-mode path).
    pub fn receive_apply(
        &mut self,
        frame: ReplFrame,
    ) -> std::result::Result<(), ReplicaApplyError> {
        self.receive(frame)?;
        self.apply_received()?;
        Ok(())
    }

    /// Redoes one frame against the home copies: data writes first, then
    /// each record's images, with the same target routing as boot-time
    /// recovery.
    fn apply(&mut self, frame: &ReplFrame) -> std::result::Result<(), ReplicaApplyError> {
        debug_assert_eq!(frame.id, self.cursor + 1);
        self.apply_data(&frame.data).map_err(FsdError::Disk)?;

        // Decode every record up front (transport corruption must not
        // leave a half-applied frame), then route images through the
        // same `PageTarget::homes` as crash recovery: later images of
        // the same sector win, one sorted remap-aware sweep writes them
        // home.
        let mut final_images: BTreeMap<u32, Vec<u8>> = BTreeMap::new();
        for bytes in &frame.records {
            let rec = log::decode_record_bytes(bytes)?;
            for (target, img) in &rec.images {
                target.validate(&self.layout)?;
                // Leaders ride the same sweep: the reallocation lists are
                // not needed (unlike crash recovery's leader pass),
                // because frames apply in commit order, so a sector
                // reallocated later is rewritten later.
                for home in target.homes(&self.layout) {
                    final_images.insert(home, img.clone());
                }
            }
        }
        if !final_images.is_empty() {
            let mut remap = SpareMap::with_entries(&self.layout, &frame.spare);
            spare::write_home_batch(
                &mut self.disk,
                self.config.io_policy,
                &mut remap,
                final_images.into_iter().collect(),
            )?;
        }
        self.cursor = frame.id;
        self.stats.frames_applied += 1;
        Ok(())
    }

    /// Mirrors raw journal writes, coalescing contiguous same-shape runs
    /// into single transfers (label+data writes go in one pass, as on
    /// the primary).
    fn apply_data(&mut self, writes: &[DataWrite]) -> cedar_disk::Result<()> {
        let mut i = 0;
        while i < writes.len() {
            let w = &writes[i];
            let shape = (w.data.is_some(), w.label.is_some());
            let mut j = i + 1;
            while j < writes.len()
                && writes[j].addr == w.addr + (j - i) as u32
                && (writes[j].data.is_some(), writes[j].label.is_some()) == shape
            {
                j += 1;
            }
            let run = &writes[i..j];
            match shape {
                (true, true) => {
                    let bytes: Vec<u8> = run
                        .iter()
                        .flat_map(|w| w.data.as_deref().unwrap_or(&[]).to_vec())
                        .collect();
                    let labels: Vec<_> = run.iter().filter_map(|w| w.label).collect();
                    self.disk.write_with_labels(w.addr, &bytes, &labels)?;
                }
                (true, false) => {
                    let bytes: Vec<u8> = run
                        .iter()
                        .flat_map(|w| w.data.as_deref().unwrap_or(&[]).to_vec())
                        .collect();
                    self.disk.write(w.addr, &bytes)?;
                }
                (false, true) => {
                    let labels: Vec<_> = run.iter().filter_map(|w| w.label).collect();
                    self.disk.write_labels(w.addr, &labels, None)?;
                }
                (false, false) => {}
            }
            i = j;
        }
        Ok(())
    }

    /// Promotes the replica to a serving volume at its current commit
    /// boundary: any buffered frames are applied first, then the volume
    /// boots — home copies are current and the replica log is empty, so
    /// this is the fast recovery path (VAM reconstruction at worst).
    pub fn promote(mut self) -> Result<(FsdVolume, RecoveryReport)> {
        self.apply_received().map_err(|e| match e {
            ReplicaApplyError::Gap { expected, got } => FsdError::Check(format!(
                "buffered frame gap at promote: {expected} vs {got}"
            )),
            ReplicaApplyError::Fsd(e) => e,
        })?;
        FsdVolume::boot(self.disk, self.config)
    }
}

/// Zeroes the log *data* area (meta replicas stay) through the remap
/// table, so a promoted replica's record scan can never decode a stale
/// record inherited from the primary's image.
fn zero_log_data(disk: &mut SimDisk, layout: &FsdLayout, spare: &SpareMap) -> Result<()> {
    let lo = layout.log_start + DATA_START;
    let hi = layout.log_start + layout.log_sectors;
    let mut addr = lo;
    while addr < hi {
        let phys = spare.translate(addr);
        let mut len = 1u32;
        while addr + len < hi && spare.translate(addr + len) == phys + len {
            len += 1;
        }
        let zeros = vec![0u8; len as usize * cedar_disk::SECTOR_BYTES];
        disk.write(phys, &zeros).map_err(FsdError::Disk)?;
        addr += len;
    }
    Ok(())
}
