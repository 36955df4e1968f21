//! The replica volume: the primary's platter, one frame at a time.
//!
//! A replica is *not* a mounted [`FsdVolume`]: it is a disk kept equal
//! to the primary's platter at every frame boundary. Install forks the
//! forced primary's disk; each frame then writes the journal's writes
//! (file data, third-entry home writes, the log meta, boot pages) in the
//! primary's order, and after them each record's sealed bytes where the
//! primary's log holds them. No record's image goes home from here: the
//! log is the redo source on the replica as on the primary (§5.3), so a
//! crash inside an apply leaves what a crash inside a force leaves, and
//! promotion is an ordinary crash boot ([`FsdVolume::boot`] resumes the
//! log it scans). A shipped record is taken by the boot scan's rule
//! ([`log::decode_record_bytes`], then its list and targets validate),
//! and a frame is checked whole before any of it is written.

use crate::error::FsdError;
use crate::layout::FsdLayout;
use crate::log::{self, DATA_START};
use crate::recovery::RecoveryReport;
use crate::repl::{DataWrite, ReplFrame};
use crate::spare::SpareMap;
use crate::volume::{FsdConfig, FsdVolume};
use crate::Result;
use cedar_disk::{SimClock, SimDisk, SECTOR_BYTES};
use std::collections::VecDeque;

/// How the replica has been kept current: frames applied, and full-state
/// transfers (the tests read both to tell what reached the replica).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplicaStats {
    /// Frames fully written to the replica's disk.
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
    /// The frame was refused, or a write of its apply failed.
    Fsd(FsdError),
}

impl std::fmt::Display for ReplicaApplyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Gap { expected, got } => {
                write!(f, "frame gap: replica expected {expected}, got {got}")
            }
            Self::Fsd(e) => write!(f, "replica apply failed: {e}"),
        }
    }
}

impl From<FsdError> for ReplicaApplyError {
    fn from(e: FsdError) -> Self {
        Self::Fsd(e)
    }
}

/// A standby volume applying the primary's replication stream.
#[derive(Clone, Debug)]
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
    /// then is the disk image cloned, onto the replica's own clock. The
    /// clone is the primary's platter, live log and all: the frames that
    /// follow extend that log.
    ///
    /// Returns the replica positioned at the primary's current frame
    /// cursor: the next sealed frame extends it with no gap.
    pub fn install(primary: &mut FsdVolume, config: FsdConfig) -> Result<Replica> {
        primary.force()?;
        if !primary.repl_tap_enabled() {
            primary.enable_repl_tap()?;
        }
        // Effects of any sealed-but-unshipped frames are in the disk image
        // about to be cloned.
        primary.take_repl_frames();
        let cursor = primary.repl.as_ref().map(|t| t.next_frame - 1).unwrap_or(0);
        Ok(Replica {
            disk: primary.disk.fork_with_clock(SimClock::new()),
            layout: primary.layout,
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
        let stats = ReplicaStats {
            full_transfers: self.stats.full_transfers + 1,
            ..self.stats
        };
        *self = Replica { stats, ..fresh };
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

    /// The replica machine's disk (fault injection: a crash plan, a
    /// damaged sector).
    pub fn disk_mut(&mut self) -> &mut SimDisk {
        &mut self.disk
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

    /// Applies every buffered frame, oldest first. Returns the
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

    /// Writes one frame once every record in it is taken: the journal's
    /// writes first, in the primary's order, then each record's sealed
    /// bytes where the primary's log holds them. The records go last, as
    /// on the primary, where a force's third-entry home writes and log
    /// meta precede its record and file data precedes the force; a crash
    /// anywhere before the last record's end page leaves the commit
    /// before the frame, as it would on the primary.
    fn apply(&mut self, frame: &ReplFrame) -> std::result::Result<(), ReplicaApplyError> {
        debug_assert_eq!(frame.id, self.cursor + 1);
        // Every record is taken as the boot scan takes it before anything
        // is written, so a record boot would refuse leaves no half-written
        // frame.
        for (offset, bytes) in &frame.records {
            let rec = log::decode_record_bytes(bytes)?;
            rec.validate(&self.layout)?;
            for (target, _) in &rec.images {
                target.validate(&self.layout)?;
            }
            let end = offset.saturating_add(rec.sectors());
            if *offset < DATA_START || end > self.layout.log_sectors {
                return Err(FsdError::Check(format!(
                    "shipped record {} at log offsets {offset}..{end}: outside the data area",
                    rec.seq
                ))
                .into());
            }
        }
        self.apply_data(&frame.data).map_err(FsdError::Disk)?;
        let remap = SpareMap::with_entries(&self.layout, &frame.spare);
        for (offset, bytes) in &frame.records {
            let sectors = (bytes.len() / SECTOR_BYTES) as u32;
            for (at, phys, len) in remap.pieces(self.layout.log_start + offset, sectors) {
                let piece = at as usize * SECTOR_BYTES..(at + len) as usize * SECTOR_BYTES;
                self.disk
                    .write(phys, &bytes[piece])
                    .map_err(FsdError::Disk)?;
            }
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
    /// boots as a primary boots after a crash, resuming the log it
    /// scans.
    pub fn promote(self) -> Result<(FsdVolume, RecoveryReport)> {
        self.try_promote().map_err(|(e, _)| e)
    }

    /// Like [`Self::promote`], but hands the disk back alongside the
    /// error when the promotion is interrupted — a crash inside the
    /// apply of the buffered frames or inside the boot — as
    /// [`FsdVolume::try_boot`] does: the platters survive a power cycle,
    /// and the disk boots again at a commit boundary.
    #[allow(clippy::result_large_err)]
    pub fn try_promote(
        mut self,
    ) -> std::result::Result<(FsdVolume, RecoveryReport), (FsdError, SimDisk)> {
        match self.apply_received() {
            Ok(_) => FsdVolume::try_boot(self.disk, self.config),
            Err(ReplicaApplyError::Gap { expected, got }) => Err((
                FsdError::Check(format!(
                    "buffered frame gap at promote: {expected} vs {got}"
                )),
                self.disk,
            )),
            Err(ReplicaApplyError::Fsd(e)) => Err((e, self.disk)),
        }
    }
}
