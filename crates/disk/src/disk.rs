//! The simulated disk itself.
//!
//! # Timing model
//!
//! Every operation charges time against the shared [`SimClock`]:
//!
//! * a **seek** if the target cylinder differs from the current one
//!   (short seeks within [`DiskTiming::short_seek_cylinders`] are cheaper
//!   and counted separately, as in the paper's §6 model);
//! * **rotational latency** until the first target sector arrives under the
//!   head — derived from the clock, so "read then immediately rewrite the
//!   same sectors" naturally costs a revolution minus the transfer, exactly
//!   the effect the paper's scripts model ("Write header labels:
//!   (revolution − 3 page transfers), 2 page transfers", §6);
//! * **transfer time** per sector.
//!
//! Track and cylinder boundaries inside a transfer are handled the way a
//! well-formatted drive of the era behaves: head switches within a cylinder
//! are hidden by format skew (electronic, fast), and track-to-track moves
//! charge a short seek which cylinder skew absorbs rotationally. The
//! angular-position bookkeeping ignores skew when computing latency for a
//! *new* operation; the error is bounded by one sector time and documented
//! here rather than modeled.
//!
//! # Failure model
//!
//! Per §5.3 of the paper: at most one failure at a time, damaging one or two
//! consecutive sectors. A scheduled crash ([`SimDisk::schedule_crash`])
//! fires after a chosen number of further sector writes and may leave up to
//! two trailing sectors detectably damaged; everything earlier in the write
//! is durable, everything later never happened. Reading a damaged sector
//! fails; rewriting it repairs it.
//!
//! # Storage
//!
//! Sector data lives in chunks of [`CHUNK_SECTORS`] consecutive sectors,
//! each allocated zeroed on its first write and held by an [`Arc`]: a
//! clone and a [`SimDisk::fork_with_clock`] replica share every chunk
//! (a reboot keeps the store as it is), and a write copies a chunk only
//! while another disk still shares it. A `written` bitmap tells a
//! never-written sector from one written with zeros. The label plane
//! exists once a label other than [`Label::FREE`] is written (FSD never
//! writes one), and the damage and fault marks are sparse sets. A
//! transfer is still charged sector by sector — seek, rotation, cylinder
//! crossings, faults and crash points fire exactly where they did — and
//! then its data moves with one copy per chunk it touches.

use crate::clock::{Micros, SimClock};
use crate::error::DiskError;
use crate::fault::FaultPlan;
use crate::geometry::DiskGeometry;
use crate::label::Label;
use crate::sched::IoPolicy;
use crate::stats::DiskStats;
use crate::timing::DiskTiming;
use crate::{Result, SectorAddr, SECTOR_BYTES};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::sync::Arc;

/// Sectors per chunk of the data plane: one word of the `written`
/// bitmap, 32 KiB of sector bytes.
pub const CHUNK_SECTORS: usize = 64;
const CHUNK_BYTES: usize = CHUNK_SECTORS * SECTOR_BYTES;

/// The bytes of [`CHUNK_SECTORS`] consecutive sectors; a sector never
/// written holds zeros.
type Chunk = [u8; CHUNK_BYTES];

/// What a chunk never written reads as.
static ZEROS: Chunk = [0; CHUNK_BYTES];

/// `(chunk, first sector within it, sectors)` for each chunk the range
/// `start..start + n` touches, in address order.
fn chunk_runs(start: SectorAddr, n: usize) -> impl Iterator<Item = (usize, usize, usize)> {
    let (mut addr, end) = (start as usize, start as usize + n);
    std::iter::from_fn(move || {
        (addr < end).then(|| {
            let (chunk, off) = (addr / CHUNK_SECTORS, addr % CHUNK_SECTORS);
            let run = (CHUNK_SECTORS - off).min(end - addr);
            addr += run;
            (chunk, off, run)
        })
    })
}

/// The bits `off..off + run` of a `written` word.
fn run_mask(off: usize, run: usize) -> u64 {
    (u64::MAX >> (64 - run)) << off
}

/// A scheduled machine crash.
///
/// After `after_sector_writes` further sectors have been durably written,
/// the next sector write triggers the crash: up to `damaged_tail` sectors
/// (0, 1 or 2 — the paper's failure model) starting at the in-flight sector
/// are left detectably damaged, and all subsequent I/O fails with
/// [`DiskError::Crashed`] until [`SimDisk::reboot`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashPlan {
    /// Sector writes that still complete before the crash fires.
    pub after_sector_writes: u64,
    /// Trailing sectors left detectably damaged (0..=2).
    pub damaged_tail: u8,
}

/// The simulated disk.
#[derive(Clone, Debug)]
pub struct SimDisk {
    geometry: DiskGeometry,
    timing: DiskTiming,
    clock: SimClock,
    /// Sector data, [`CHUNK_SECTORS`] to a chunk, allocated zeroed on the
    /// chunk's first write. Clones share chunks; a write copies one only
    /// while it is shared.
    chunks: Vec<Option<Arc<Chunk>>>,
    /// One bit per sector, one word per chunk: the data field has been
    /// written (a sector written with zeros is not a blank one).
    written: Vec<u64>,
    /// The Trident label plane, allocated on the first non-free label
    /// (only CFS and FFS pay for it) and shared by clones until written.
    labels: Option<Arc<Vec<Label>>>,
    /// Detectably damaged sectors (torn write or injected flaw).
    damaged: BTreeSet<SectorAddr>,
    /// Latent flaws: each fails on first touch, then behaves like
    /// `damaged` (a rewrite repairs it). See [`crate::fault::FaultPlan`].
    latent: BTreeSet<SectorAddr>,
    /// Pending transient read retries (each costs a revolution).
    transient: BTreeMap<SectorAddr, u8>,
    /// Grown defects: permanently dead; rewriting does not repair.
    hard_bad: BTreeSet<SectorAddr>,
    current_cylinder: u32,
    stats: DiskStats,
    crash: Option<CrashPlan>,
    crashed: bool,
    /// Optional region classification: `(start, end, tag)` ranges; each
    /// operation is attributed to the region holding its first sector.
    regions: Vec<(SectorAddr, SectorAddr, &'static str)>,
    region_ops: std::collections::HashMap<&'static str, u64>,
    /// When present, every durably completed sector write (data or label)
    /// is appended here. The replication tap drains this to mirror
    /// unlogged data-area writes to the replica.
    journal: Option<Vec<JournalEntry>>,
    /// How [`crate::sched`] orders a batch handed to this disk.
    io_policy: IoPolicy,
}

/// One durably completed sector write, as recorded by the write journal
/// (see [`SimDisk::enable_write_journal`]). A data write carries the new
/// sector image and, if the pass also rewrote the label, the new label; a
/// label-only write carries just the label.
#[derive(Clone, Debug)]
pub struct JournalEntry {
    /// Sector address written.
    pub addr: SectorAddr,
    /// New data contents, if the data field was rewritten.
    pub data: Option<Vec<u8>>,
    /// New label, if the label field was rewritten.
    pub label: Option<Label>,
}

impl SimDisk {
    /// Creates a blank disk with the given geometry and timing, charging
    /// time to `clock`.
    ///
    /// # Panics
    ///
    /// Panics if the timing's `sectors_per_track` disagrees with the
    /// geometry's.
    pub fn new(geometry: DiskGeometry, timing: DiskTiming, clock: SimClock) -> Self {
        assert_eq!(
            geometry.sectors_per_track, timing.sectors_per_track,
            "geometry and timing disagree on sectors per track"
        );
        let chunks = (geometry.total_sectors() as usize).div_ceil(CHUNK_SECTORS);
        Self {
            geometry,
            timing,
            clock,
            chunks: vec![None; chunks],
            written: vec![0; chunks],
            labels: None,
            damaged: BTreeSet::new(),
            latent: BTreeSet::new(),
            transient: BTreeMap::new(),
            hard_bad: BTreeSet::new(),
            current_cylinder: 0,
            stats: DiskStats::default(),
            crash: None,
            crashed: false,
            regions: Vec::new(),
            region_ops: std::collections::HashMap::new(),
            journal: None,
            io_policy: IoPolicy::default(),
        }
    }

    /// Convenience constructor: tiny test disk on a fresh clock.
    pub fn tiny() -> Self {
        Self::new(DiskGeometry::TINY, DiskTiming::TINY, SimClock::new())
    }

    /// Convenience constructor: the paper's ~300 MB Trident-class volume.
    pub fn trident_t300(clock: SimClock) -> Self {
        Self::new(DiskGeometry::TRIDENT_T300, DiskTiming::TRIDENT_T300, clock)
    }

    /// The disk's geometry.
    pub fn geometry(&self) -> &DiskGeometry {
        &self.geometry
    }

    /// The disk's timing parameters.
    pub fn timing(&self) -> &DiskTiming {
        &self.timing
    }

    /// A handle to the simulation clock.
    pub fn clock(&self) -> SimClock {
        self.clock.clone()
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> DiskStats {
        self.stats
    }

    /// Resets the statistics counters (contents are untouched).
    pub fn reset_stats(&mut self) {
        self.stats = DiskStats::default();
        self.region_ops.clear();
    }

    /// Installs region labels for per-region I/O accounting. Each
    /// operation is attributed to the region containing its first sector;
    /// unmatched addresses count under `"other"`.
    pub fn set_regions(&mut self, regions: Vec<(SectorAddr, SectorAddr, &'static str)>) {
        self.regions = regions;
        self.region_ops.clear();
    }

    /// Operations per region since the last reset.
    pub fn region_ops(&self) -> &std::collections::HashMap<&'static str, u64> {
        &self.region_ops
    }

    /// How [`crate::sched`] orders the batches this disk is handed
    /// ([`IoPolicy::Satf`] unless [`Self::set_io_policy`] said otherwise).
    pub fn io_policy(&self) -> IoPolicy {
        self.io_policy
    }

    /// Replaces the batch scheduling policy. It is the controller's, not
    /// the platter's: it survives [`Self::reboot`] and
    /// [`Self::fork_with_clock`], but a saved image does not record it.
    pub fn set_io_policy(&mut self, policy: IoPolicy) {
        self.io_policy = policy;
    }

    fn attribute(&mut self, addr: SectorAddr) {
        if self.regions.is_empty() {
            return;
        }
        let tag = self
            .regions
            .iter()
            .find(|(s, e, _)| (*s..*e).contains(&addr))
            .map(|(_, _, t)| *t)
            .unwrap_or("other");
        *self.region_ops.entry(tag).or_insert(0) += 1;
    }

    // ----- timing internals -------------------------------------------------

    /// Charges seek + rotational latency so the head is at the start of
    /// sector `addr`, ready to transfer.
    fn position_to(&mut self, addr: SectorAddr) {
        let chs = self.geometry.to_chs(addr);
        let distance = self.current_cylinder.abs_diff(chs.cylinder);
        if distance > 0 {
            let t = self.timing.seek_us(distance);
            if distance <= self.timing.short_seek_cylinders {
                self.stats.short_seeks += 1;
            } else {
                self.stats.seeks += 1;
            }
            self.stats.seek_us += t;
            self.clock.advance(t);
            self.current_cylinder = chs.cylinder;
        }
        // Rotational wait until the target sector's leading edge arrives.
        // The angular revolution is the sector time times the sector
        // count, so that a full track of transfers lands exactly back at
        // angle zero (integer sector times don't quite divide the
        // nominal revolution).
        let sector_us = self.timing.sector_us();
        let rev = sector_us * self.timing.sectors_per_track as Micros;
        let target_angle = chs.sector as Micros * sector_us;
        let now_angle = self.clock.now() % rev;
        let wait = (target_angle + rev - now_angle) % rev;
        // Waits of ≥ ¾ revolution are the paper's §6 "lost revolution":
        // the sector just went by and the platter must come all the way
        // around. Classified separately so schedulers get the credit.
        if wait * 4 >= rev * 3 {
            self.stats.lost_revolutions += 1;
            self.stats.lost_rev_us += wait;
        } else {
            self.stats.rotation_us += wait;
        }
        self.clock.advance(wait);
    }

    /// The cylinder the head currently sits on.
    pub fn head_cylinder(&self) -> u32 {
        self.current_cylinder
    }

    /// Estimates, without charging anything, the positioning cost (seek +
    /// rotational wait) of starting a transfer at `addr` right now. The
    /// rotational wait accounts for the platter angle *after* the seek
    /// completes, exactly as a transfer is charged. Schedulers use this
    /// to pick the rotationally closest request.
    pub fn position_cost_us(&self, addr: SectorAddr) -> Micros {
        let chs = self.geometry.to_chs(addr);
        let distance = self.current_cylinder.abs_diff(chs.cylinder);
        let seek = if distance > 0 {
            self.timing.seek_us(distance)
        } else {
            0
        };
        let sector_us = self.timing.sector_us();
        let rev = sector_us * self.timing.sectors_per_track as Micros;
        let target_angle = chs.sector as Micros * sector_us;
        let now_angle = (self.clock.now() + seek) % rev;
        let wait = (target_angle + rev - now_angle) % rev;
        seek + wait
    }

    /// Charges transfer time for one sector and handles track/cylinder
    /// crossings *before* the sector at `addr` is transferred.
    fn charge_transfer(&mut self, addr: SectorAddr, first: bool) {
        if !first {
            let chs = self.geometry.to_chs(addr);
            if chs.cylinder != self.current_cylinder {
                // Track-to-track seek; cylinder skew absorbs the rotational
                // realignment.
                let t = self.timing.short_seek_us;
                self.stats.short_seeks += 1;
                self.stats.seek_us += t;
                self.clock.advance(t);
                self.current_cylinder = chs.cylinder;
            }
            // Head switches within a cylinder are hidden by format skew.
        }
        let t = self.timing.sector_us();
        self.stats.transfer_us += t;
        self.clock.advance(t);
    }

    fn check_range(&self, start: SectorAddr, n: usize) -> Result<()> {
        if self.crashed {
            return Err(DiskError::Crashed);
        }
        let end = start as u64 + n as u64;
        if n == 0 || end > self.geometry.total_sectors() as u64 {
            return Err(DiskError::OutOfRange(start));
        }
        Ok(())
    }

    /// Fails with [`DiskError::Crashed`] if the crash plan fires at
    /// `addr`, damaging up to `damaged_tail` sectors from there (bounded
    /// by `op_end`).
    fn maybe_crash(&mut self, addr: SectorAddr, op_end: SectorAddr) -> Result<()> {
        let Some(plan) = &mut self.crash else {
            return Ok(());
        };
        if plan.after_sector_writes > 0 {
            plan.after_sector_writes -= 1;
            return Ok(());
        }
        let tail = plan.damaged_tail.min(2) as u32;
        self.damaged.extend(addr..(addr + tail).min(op_end));
        self.crash = None;
        self.crashed = true;
        Err(DiskError::Crashed)
    }

    /// Fails with [`DiskError::LabelMismatch`] unless sector `addr`
    /// carries `want` (no check when `want` is `None`).
    fn check_label(&self, addr: SectorAddr, want: Option<Label>) -> Result<()> {
        let found = self.peek_label(addr);
        match want {
            Some(expected) if expected != found => Err(DiskError::LabelMismatch {
                addr,
                expected,
                found,
            }),
            _ => Ok(()),
        }
    }

    /// Passes sectors `start..start + n` under the head in order: charges
    /// each one's transfer, then runs `each` on it (its index in the
    /// request, its address), and stops at the first sector `each` fails.
    /// Returns how many sectors passed, and the failure.
    fn pass_under_head(
        &mut self,
        start: SectorAddr,
        n: usize,
        mut each: impl FnMut(&mut Self, usize, SectorAddr) -> Result<()>,
    ) -> (usize, Result<()>) {
        for i in 0..n {
            let addr = start + i as u32;
            self.charge_transfer(addr, i == 0);
            if let Err(e) = each(self, i, addr) {
                return (i, Err(e));
            }
        }
        (n, Ok(()))
    }

    /// Books the first `done` sectors from `start` as durably written:
    /// their new labels, the count, and the journal (with `data`'s sector
    /// images when the data field was written).
    fn book_written(
        &mut self,
        start: SectorAddr,
        done: usize,
        data: Option<&[u8]>,
        labels: Option<&[Label]>,
    ) {
        for (i, &label) in labels.into_iter().flatten().take(done).enumerate() {
            self.set_label(start + i as u32, label);
        }
        self.stats.sectors_written += done as u64;
        if let Some(journal) = &mut self.journal {
            journal.extend((0..done).map(|i| JournalEntry {
                addr: start + i as u32,
                data: data.map(|d| d[i * SECTOR_BYTES..(i + 1) * SECTOR_BYTES].to_vec()),
                label: labels.map(|l| l[i]),
            }));
        }
    }

    // ----- fault internals ---------------------------------------------------

    /// Consumes any pending transient fault at `addr`: the controller
    /// rereads the sector on the next revolution(s), so each retry costs
    /// one full revolution, charged as a lost revolution.
    fn retry_transient(&mut self, addr: SectorAddr) {
        let fails = self.transient.remove(&addr).unwrap_or(0).min(2);
        if fails == 0 {
            return;
        }
        let rev = self.timing.sector_us() * self.timing.sectors_per_track as Micros;
        for _ in 0..fails {
            self.stats.lost_revolutions += 1;
            self.stats.lost_rev_us += rev;
            self.stats.transient_retries += 1;
            self.clock.advance(rev);
        }
    }

    /// Applies fault semantics as sector `addr` passes under the head on
    /// a read: fires latent flaws, charges transient retries. Returns
    /// `true` if the sector must be treated as damaged.
    fn fault_on_read(&mut self, addr: SectorAddr) -> bool {
        if self.hard_bad.contains(&addr) {
            self.stats.media_faults += 1;
            return true;
        }
        if self.latent.remove(&addr) {
            self.damaged.insert(addr);
            self.stats.media_faults += 1;
            return true;
        }
        self.retry_transient(addr);
        self.damaged.contains(&addr)
    }

    /// Applies fault semantics for a write to sector `addr`: a grown
    /// defect rejects the write outright; a latent flaw is discovered by
    /// the write's verify pass (the write fails) but cleared, so a retry
    /// repairs the sector.
    fn fault_on_write(&mut self, addr: SectorAddr) -> Result<()> {
        if self.hard_bad.contains(&addr) {
            self.stats.media_faults += 1;
            return Err(DiskError::BadSector(addr));
        }
        if self.latent.remove(&addr) {
            self.damaged.insert(addr);
            self.stats.media_faults += 1;
            return Err(DiskError::BadSector(addr));
        }
        Ok(())
    }

    // ----- data I/O ---------------------------------------------------------

    /// Reads `n` sectors starting at `start`.
    ///
    /// Fails with [`DiskError::BadSector`] at the first damaged sector
    /// (time for the sectors scanned so far is still charged).
    pub fn read(&mut self, start: SectorAddr, n: usize) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        self.read_into(start, n, &mut out)?;
        Ok(out)
    }

    /// [`Self::read`], appending to `out`: a caller assembling a file
    /// from its runs pays for one buffer and one copy. On an error `out`
    /// holds the sectors that transferred before it.
    pub fn read_into(&mut self, start: SectorAddr, n: usize, out: &mut Vec<u8>) -> Result<()> {
        self.transfer_in(start, n, None, out)
    }

    /// One read request: position, then per sector charge the transfer,
    /// apply faults and check the label when `expected` is given; then
    /// copy the sectors that passed, one copy per chunk.
    fn transfer_in(
        &mut self,
        start: SectorAddr,
        n: usize,
        expected: Option<&[Label]>,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        self.check_range(start, n)?;
        self.stats.reads += 1;
        self.attribute(start);
        self.position_to(start);
        let (done, passed) = self.pass_under_head(start, n, |d, i, addr| {
            d.stats.sectors_read += 1;
            if d.fault_on_read(addr) {
                return Err(DiskError::BadSector(addr));
            }
            d.check_label(addr, expected.map(|e| e[i]))
        });
        self.copy_out(start, done, out);
        passed
    }

    /// Reads `n` sectors, tolerating damage: damaged sectors read as zeros
    /// and are flagged in the returned mask. Used by recovery code that
    /// reconstructs from redundant copies.
    pub fn read_allow_damage(
        &mut self,
        start: SectorAddr,
        n: usize,
    ) -> Result<(Vec<u8>, Vec<bool>)> {
        self.check_range(start, n)?;
        self.stats.reads += 1;
        self.attribute(start);
        self.position_to(start);
        let mut mask = Vec::with_capacity(n);
        self.pass_under_head(start, n, |d, _, addr| {
            d.stats.sectors_read += 1;
            mask.push(d.fault_on_read(addr));
            Ok(())
        })
        .1?;
        let mut out = Vec::with_capacity(n * SECTOR_BYTES);
        self.copy_out(start, n, &mut out);
        for (sector, _) in out
            .chunks_exact_mut(SECTOR_BYTES)
            .zip(&mask)
            .filter(|(_, &d)| d)
        {
            sector.fill(0);
        }
        Ok((out, mask))
    }

    /// Reads `n` sectors, verifying each sector's label against
    /// `expected` first — the Trident microcode check CFS relies on (§2).
    pub fn read_checked(
        &mut self,
        start: SectorAddr,
        n: usize,
        expected: &[Label],
    ) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        self.read_checked_into(start, n, expected, &mut out)?;
        Ok(out)
    }

    /// [`Self::read_checked`], appending to `out` as [`Self::read_into`]
    /// does.
    pub fn read_checked_into(
        &mut self,
        start: SectorAddr,
        n: usize,
        expected: &[Label],
        out: &mut Vec<u8>,
    ) -> Result<()> {
        if expected.len() != n {
            return Err(DiskError::BadRequest("one expected label per sector"));
        }
        self.transfer_in(start, n, Some(expected), out)
    }

    fn write_inner(
        &mut self,
        start: SectorAddr,
        data: &[u8],
        expected: Option<&[Label]>,
        new_labels: Option<&[Label]>,
    ) -> Result<()> {
        if !data.len().is_multiple_of(SECTOR_BYTES) {
            return Err(DiskError::BadRequest(
                "write length must be a whole number of sectors",
            ));
        }
        let n = data.len() / SECTOR_BYTES;
        if let Some(exp) = expected {
            if exp.len() != n {
                return Err(DiskError::BadRequest("one expected label per sector"));
            }
        }
        if let Some(labels) = new_labels {
            if labels.len() != n {
                return Err(DiskError::BadRequest("one new label per sector"));
            }
        }
        self.check_range(start, n)?;
        self.stats.writes += 1;
        self.attribute(start);
        self.position_to(start);
        let op_end = start + n as u32;
        // Each label is checked as its sector passes under the head,
        // before the data field is rewritten. A bad sector fails the
        // write there, and a crash stops it there; everything before it
        // in this transfer is durable.
        let (done, passed) = self.pass_under_head(start, n, |d, i, addr| {
            d.check_label(addr, expected.map(|e| e[i]))?;
            d.fault_on_write(addr)?;
            d.maybe_crash(addr, op_end)
        });
        let data = &data[..done * SECTOR_BYTES];
        self.copy_in(start, data);
        for addr in start..start + done as u32 {
            self.damaged.remove(&addr);
        }
        self.book_written(start, done, Some(data), new_labels);
        passed
    }

    /// Writes whole sectors starting at `start`. Labels are untouched.
    pub fn write(&mut self, start: SectorAddr, data: &[u8]) -> Result<()> {
        self.write_inner(start, data, None, None)
    }

    /// Writes whole sectors, first verifying each sector's existing label
    /// (the CFS "check label then write data in the same pass" microcode
    /// operation).
    pub fn write_checked(
        &mut self,
        start: SectorAddr,
        data: &[u8],
        expected: &[Label],
    ) -> Result<()> {
        self.write_inner(start, data, Some(expected), None)
    }

    /// Writes whole sectors and their labels together (file allocation in
    /// CFS writes the label and data fields of a sector in one pass).
    pub fn write_with_labels(
        &mut self,
        start: SectorAddr,
        data: &[u8],
        labels: &[Label],
    ) -> Result<()> {
        self.write_inner(start, data, None, Some(labels))
    }

    // ----- label-plane I/O ---------------------------------------------------

    /// Reads the labels of `n` sectors. Costs the same as a data read of the
    /// same range (the labels pass under the head at the same speed).
    pub fn read_labels(&mut self, start: SectorAddr, n: usize) -> Result<Vec<Label>> {
        self.check_range(start, n)?;
        self.stats.label_ops += 1;
        self.attribute(start);
        self.position_to(start);
        let mut out = Vec::with_capacity(n);
        self.pass_under_head(start, n, |d, _, addr| {
            out.push(d.peek_label(addr));
            Ok(())
        })
        .1?;
        Ok(out)
    }

    /// Rewrites the labels of `n` sectors, optionally verifying the old
    /// labels first. Data fields are untouched. This is how CFS claims and
    /// frees sectors.
    pub fn write_labels(
        &mut self,
        start: SectorAddr,
        labels: &[Label],
        expected: Option<&[Label]>,
    ) -> Result<()> {
        let n = labels.len();
        if expected.is_some_and(|exp| exp.len() != n) {
            return Err(DiskError::BadRequest("one expected label per sector"));
        }
        self.check_range(start, n)?;
        self.stats.label_ops += 1;
        self.attribute(start);
        self.position_to(start);
        let op_end = start + n as u32;
        let (done, passed) = self.pass_under_head(start, n, |d, i, addr| {
            d.check_label(addr, expected.map(|e| e[i]))?;
            d.maybe_crash(addr, op_end)
        });
        self.book_written(start, done, None, Some(labels));
        passed
    }

    // ----- write journal and replica forking ----------------------------------

    /// Starts recording every durably completed sector write (data and
    /// label passes) into an in-memory journal. Replication taps this to
    /// mirror unlogged data-area writes; see [`Self::drain_write_journal`].
    pub fn enable_write_journal(&mut self) {
        if self.journal.is_none() {
            self.journal = Some(Vec::new());
        }
    }

    /// Takes the accumulated [`JournalEntry`] list, leaving the journal
    /// enabled and empty. Returns an empty vec when journaling is off.
    pub fn drain_write_journal(&mut self) -> Vec<JournalEntry> {
        match &mut self.journal {
            Some(j) => std::mem::take(j),
            None => Vec::new(),
        }
    }

    /// Clones this disk's *logical* contents (sector data and labels) onto
    /// fresh media driven by an independent `clock`. Media-fault state
    /// (damage, latent and grown defects), pending crash plans, statistics
    /// and the write journal do NOT carry over: a full-state transfer ships
    /// bytes, not the donor's physical flaws. The batch scheduling policy
    /// does carry over: the fork is driven the way the donor was. This is
    /// how a replica is seeded and how the lapped-log full-transfer
    /// fallback works.
    pub fn fork_with_clock(&self, clock: SimClock) -> SimDisk {
        SimDisk {
            chunks: self.chunks.clone(),
            written: self.written.clone(),
            labels: self.labels.clone(),
            regions: self.regions.clone(),
            io_policy: self.io_policy,
            ..SimDisk::new(self.geometry, self.timing, clock)
        }
    }

    /// Number of sectors whose data field has ever been written (the
    /// payload a full-state transfer must ship).
    pub fn materialized_sectors(&self) -> u32 {
        self.written.iter().map(|w| w.count_ones()).sum()
    }

    // ----- faults and crashes -------------------------------------------------

    /// Schedules a crash (see [`CrashPlan`]).
    pub fn schedule_crash(&mut self, plan: CrashPlan) {
        self.crash = Some(plan);
    }

    /// Crashes the machine immediately (clean power-fail between I/Os).
    pub fn crash_now(&mut self) {
        self.crash = None;
        self.crashed = true;
    }

    /// Returns `true` if a crash has fired and the disk is offline.
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Brings the disk back online after a crash. Persistent state
    /// (sector data, labels, damage) and the scheduling policy survive;
    /// the head is left at cylinder 0 as after a power cycle.
    pub fn reboot(&mut self) {
        self.crashed = false;
        self.crash = None;
        self.current_cylinder = 0;
    }

    /// Marks a sector as detectably damaged (media flaw injection).
    pub fn damage_sector(&mut self, addr: SectorAddr) {
        assert!(
            addr < self.geometry.total_sectors(),
            "sector {addr} out of range"
        );
        self.damaged.insert(addr);
    }

    /// Marks a sector as a grown defect: permanently dead, rewriting does
    /// not repair it (the remap-to-spare case).
    pub fn hard_damage_sector(&mut self, addr: SectorAddr) {
        assert!(
            addr < self.geometry.total_sectors(),
            "sector {addr} out of range"
        );
        self.hard_bad.insert(addr);
    }

    /// Installs a media [`FaultPlan`]. Out-of-range addresses are ignored
    /// rather than rejected, so campaign generators can over-approximate.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) {
        let total = self.geometry.total_sectors();
        self.latent
            .extend(plan.latent.iter().filter(|&&a| a < total));
        for &(a, n) in plan.transient.iter().filter(|(a, _)| *a < total) {
            self.transient.insert(a, n.min(2));
        }
        self.hard_bad
            .extend(plan.grown.iter().filter(|&&a| a < total));
    }

    /// Simulates a wild write: sector data is overwritten out-of-band
    /// (no timing, no stats, label untouched) — the kind of memory-smash
    /// corruption the label plane exists to catch.
    pub fn wild_write(&mut self, addr: SectorAddr, byte: u8) {
        self.copy_in(addr, &[byte; SECTOR_BYTES]);
    }

    /// Flips one payload byte out-of-band (no timing, no stats, label and
    /// damage flags untouched) — single-byte rot for corrupted-image
    /// campaigns. A sector that was never written has no payload to rot;
    /// the call is then a no-op.
    pub fn corrupt_byte(&mut self, addr: SectorAddr, offset: usize, xor: u8) {
        if addr >= self.geometry.total_sectors() || !self.is_written(addr) {
            return;
        }
        let a = addr as usize;
        if let Some(chunk) = &mut self.chunks[a / CHUNK_SECTORS] {
            Arc::make_mut(chunk)[a % CHUNK_SECTORS * SECTOR_BYTES + offset % SECTOR_BYTES] ^= xor;
        }
    }

    /// Overwrites a sector's label out-of-band (corrupted-image
    /// campaigns): the self-certifying plane itself goes bad, the case
    /// the scavenger must survive without trusting anything else.
    pub fn corrupt_label(&mut self, addr: SectorAddr, label: Label) {
        if addr < self.geometry.total_sectors() {
            self.set_label(addr, label);
        }
    }

    // ----- the chunk store ------------------------------------------------------

    fn is_written(&self, addr: SectorAddr) -> bool {
        let a = addr as usize;
        self.written[a / CHUNK_SECTORS] >> (a % CHUNK_SECTORS) & 1 != 0
    }

    /// Appends sectors `start..start + n` to `out`, one copy per chunk
    /// (zeros where no chunk was ever written).
    fn copy_out(&self, start: SectorAddr, n: usize, out: &mut Vec<u8>) {
        out.reserve(n * SECTOR_BYTES);
        for (c, off, run) in chunk_runs(start, n) {
            match &self.chunks[c] {
                Some(chunk) => {
                    out.extend_from_slice(&chunk[off * SECTOR_BYTES..(off + run) * SECTOR_BYTES])
                }
                None => out.extend_from_slice(&ZEROS[..run * SECTOR_BYTES]),
            }
        }
    }

    /// Stores `data` (whole sectors) from `start` on and marks those
    /// sectors written, one copy per chunk. A chunk's first write
    /// allocates it zeroed; a chunk a clone still shares is copied first.
    fn copy_in(&mut self, start: SectorAddr, data: &[u8]) {
        let mut rest = data;
        for (c, off, run) in chunk_runs(start, data.len() / SECTOR_BYTES) {
            let (now, later) = rest.split_at(run * SECTOR_BYTES);
            rest = later;
            let chunk = self.chunks[c].get_or_insert_with(|| Arc::new([0; CHUNK_BYTES]));
            Arc::make_mut(chunk)[off * SECTOR_BYTES..(off + run) * SECTOR_BYTES]
                .copy_from_slice(now);
            self.written[c] |= run_mask(off, run);
        }
    }

    /// Sets one sector's label, allocating the label plane for the first
    /// label that is not [`Label::FREE`].
    fn set_label(&mut self, addr: SectorAddr, label: Label) {
        if self.labels.is_none() && label.is_free() {
            return;
        }
        let total = self.geometry.total_sectors() as usize;
        let plane = self
            .labels
            .get_or_insert_with(|| Arc::new(vec![Label::FREE; total]));
        Arc::make_mut(plane)[addr as usize] = label;
    }

    /// The sectors of every chunk that holds data, a non-free label or
    /// damage, in address order: the walks over what was written skip
    /// the rest of the platter a chunk at a time.
    pub(crate) fn nonblank_chunks(&self) -> impl Iterator<Item = Range<SectorAddr>> + '_ {
        let total = self.geometry.total_sectors();
        (0..self.chunks.len()).filter_map(move |c| {
            let first = (c * CHUNK_SECTORS) as SectorAddr;
            let sectors = first..(first + CHUNK_SECTORS as SectorAddr).min(total);
            let labelled = self.labels.as_ref().is_some_and(|plane| {
                plane[sectors.start as usize..sectors.end as usize]
                    .iter()
                    .any(|l| !l.is_free())
            });
            let nonblank = self.written[c] != 0
                || labelled
                || self.damaged.range(sectors.clone()).next().is_some();
            nonblank.then_some(sectors)
        })
    }

    // ----- test/peek helpers ---------------------------------------------------

    /// Reads a sector's contents without timing or stats (test helper).
    pub fn peek_data(&self, addr: SectorAddr) -> Option<&[u8]> {
        let a = addr as usize;
        let chunk = self.chunks[a / CHUNK_SECTORS].as_ref()?;
        let off = a % CHUNK_SECTORS * SECTOR_BYTES;
        self.is_written(addr)
            .then(|| &chunk[off..off + SECTOR_BYTES])
    }

    /// Reads a sector's label without timing or stats (test helper, and
    /// the scavenger's per-track bulk scan uses it via
    /// [`Self::read_labels`] instead).
    pub fn peek_label(&self, addr: SectorAddr) -> Label {
        self.labels
            .as_ref()
            .map_or(Label::FREE, |plane| plane[addr as usize])
    }

    /// A 64-bit FNV-1a digest of everything written to the platter: the
    /// address, data and label of every sector that holds data or a
    /// non-free label, in address order. Charges no time and touches no
    /// stats, so two runs of one script can be compared by one number.
    pub fn platter_digest(&self) -> u64 {
        const PRIME: u64 = 0x100000001b3;
        let fnv = |h: u64, bytes: &[u8]| {
            bytes
                .iter()
                .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(PRIME))
        };
        let mut h = 0xcbf29ce484222325;
        for addr in self.nonblank_chunks().flatten() {
            let (data, label) = (self.peek_data(addr), self.peek_label(addr));
            if data.is_none() && label.is_free() {
                continue;
            }
            h = fnv(h, &addr.to_le_bytes());
            h = fnv(h, &[u8::from(data.is_some())]);
            h = fnv(h, data.unwrap_or_default());
            h = fnv(h, &label.uid.to_le_bytes());
            h = fnv(h, &label.page.to_le_bytes());
            h = fnv(h, &[label.kind.into()]);
        }
        h
    }

    /// Returns whether a sector is damaged, without timing or stats.
    pub fn peek_damaged(&self, addr: SectorAddr) -> bool {
        self.damaged.contains(&addr)
    }

    /// Restores one sector's persistent state onto a blank disk (image
    /// loading).
    pub(crate) fn restore_sector(
        &mut self,
        addr: SectorAddr,
        data: Option<Vec<u8>>,
        label: Label,
        damaged: bool,
    ) {
        if let Some(d) = data {
            self.copy_in(addr, &d);
        }
        self.set_label(addr, label);
        if damaged {
            self.damaged.insert(addr);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::PageKind;

    fn sector_of(byte: u8) -> Vec<u8> {
        vec![byte; SECTOR_BYTES]
    }

    #[test]
    fn blank_disk_reads_zeros() {
        let mut d = SimDisk::tiny();
        let data = d.read(0, 2).unwrap();
        assert!(data.iter().all(|&b| b == 0));
    }

    #[test]
    fn platter_digest_follows_writes_and_charges_nothing() {
        let mut d = SimDisk::tiny();
        let blank = d.platter_digest();
        assert_eq!(blank, SimDisk::tiny().platter_digest());
        d.write(10, &sector_of(0xAB)).unwrap();
        let written = d.platter_digest();
        assert_ne!(written, blank);
        let (now, stats) = (d.clock().now(), d.stats());
        assert_eq!(d.platter_digest(), written);
        assert_eq!((d.clock().now(), d.stats()), (now, stats));
        // The label plane counts, and so does where a sector lies.
        d.write_labels(10, &[Label::new(7, 0, PageKind::Data)], None)
            .unwrap();
        assert_ne!(d.platter_digest(), written);
        let mut moved = SimDisk::tiny();
        moved.write(11, &sector_of(0xAB)).unwrap();
        assert_ne!(moved.platter_digest(), written);
    }

    #[test]
    fn write_then_read_roundtrips() {
        let mut d = SimDisk::tiny();
        let mut payload = sector_of(0xAB);
        payload.extend_from_slice(&sector_of(0xCD));
        d.write(10, &payload).unwrap();
        assert_eq!(d.read(10, 2).unwrap(), payload);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut d = SimDisk::tiny();
        let total = d.geometry().total_sectors();
        assert!(matches!(d.read(total, 1), Err(DiskError::OutOfRange(_))));
        assert!(matches!(
            d.read(total - 1, 2),
            Err(DiskError::OutOfRange(_))
        ));
        assert!(matches!(d.read(0, 0), Err(DiskError::OutOfRange(_))));
    }

    #[test]
    fn stats_count_ops_and_sectors() {
        let mut d = SimDisk::tiny();
        d.write(0, &sector_of(1)).unwrap();
        d.read(0, 1).unwrap();
        d.read_labels(0, 4).unwrap();
        let s = d.stats();
        assert_eq!(s.writes, 1);
        assert_eq!(s.reads, 1);
        assert_eq!(s.label_ops, 1);
        assert_eq!(s.sectors_written, 1);
        assert_eq!(s.sectors_read, 1);
        assert_eq!(s.total_ops(), 3);
    }

    #[test]
    fn io_advances_clock() {
        let mut d = SimDisk::tiny();
        let t0 = d.clock().now();
        d.read(100, 4).unwrap();
        assert!(d.clock().now() > t0);
    }

    #[test]
    fn same_cylinder_access_does_not_seek() {
        let mut d = SimDisk::tiny();
        d.read(0, 1).unwrap();
        let before = d.stats();
        d.read(2, 1).unwrap(); // Same cylinder 0.
        let delta = d.stats().since(&before);
        assert_eq!(delta.seeks + delta.short_seeks, 0);
        assert_eq!(delta.seek_us, 0);
    }

    #[test]
    fn cross_cylinder_access_seeks() {
        let mut d = SimDisk::tiny();
        d.read(0, 1).unwrap();
        let spc = d.geometry().sectors_per_cylinder();
        let before = d.stats();
        d.read(spc * 40, 1).unwrap(); // Cylinder 40: a long seek.
        let delta = d.stats().since(&before);
        assert_eq!(delta.seeks, 1);
        assert!(delta.seek_us > 0);
    }

    #[test]
    fn short_seek_classified_separately() {
        let mut d = SimDisk::tiny();
        d.read(0, 1).unwrap();
        let spc = d.geometry().sectors_per_cylinder();
        let before = d.stats();
        d.read(spc * 2, 1).unwrap(); // Two cylinders away.
        let delta = d.stats().since(&before);
        assert_eq!(delta.short_seeks, 1);
        assert_eq!(delta.seeks, 0);
        assert_eq!(delta.seek_us, d.timing().short_seek_us);
    }

    #[test]
    fn read_then_rewrite_costs_nearly_a_revolution() {
        // The paper's script: after reading sectors s..s+3, rewriting s
        // must wait (revolution − 3 transfers).
        let mut d = SimDisk::tiny();
        d.read(0, 3).unwrap();
        let before = d.stats();
        d.write(0, &sector_of(9).repeat(2)).unwrap();
        let delta = d.stats().since(&before);
        // The angular revolution: sector time × sectors per track.
        let rev = d.timing().sector_us() * d.timing().sectors_per_track as u64;
        let transfer3 = 3 * d.timing().sector_us();
        // 13/16 of a revolution: over the ¾ threshold, so it is booked
        // as a lost revolution rather than ordinary rotational latency.
        assert_eq!(delta.lost_rev_us, rev - transfer3);
        assert_eq!(delta.lost_revolutions, 1);
        assert_eq!(delta.rotation_us, 0);
    }

    #[test]
    fn short_rotational_wait_is_not_a_lost_revolution() {
        let mut d = SimDisk::tiny();
        d.read(0, 1).unwrap();
        let before = d.stats();
        d.read(3, 1).unwrap(); // Two sectors ahead of the head: short wait.
        let delta = d.stats().since(&before);
        assert_eq!(delta.rotation_us, 2 * d.timing().sector_us());
        assert_eq!(delta.lost_revolutions, 0);
        assert_eq!(delta.lost_rev_us, 0);
    }

    #[test]
    fn position_cost_estimate_matches_charged_cost() {
        let mut d = SimDisk::tiny();
        d.read(0, 1).unwrap();
        let spc = d.geometry().sectors_per_cylinder();
        for addr in [3u32, 9, spc * 7 + 5, spc * 40 + 1] {
            let est = d.position_cost_us(addr);
            let before = d.stats();
            let t0 = d.clock().now();
            d.read(addr, 1).unwrap();
            let charged = d.clock().now() - t0 - d.timing().sector_us();
            assert_eq!(est, charged, "estimate for sector {addr}");
            let delta = d.stats().since(&before);
            assert_eq!(est, delta.seek_us + delta.rotation_us + delta.lost_rev_us);
        }
    }

    #[test]
    fn sequential_multi_sector_transfer_has_no_rotation_gap() {
        let mut d = SimDisk::tiny();
        d.read(0, 1).unwrap();
        let before = d.stats();
        // Sector 1 is the very next sector under the head.
        d.read(1, 4).unwrap();
        let delta = d.stats().since(&before);
        assert_eq!(delta.rotation_us, 0);
        assert_eq!(delta.transfer_us, 4 * d.timing().sector_us());
    }

    #[test]
    fn transfer_across_cylinder_charges_track_to_track() {
        let mut d = SimDisk::tiny();
        let spc = d.geometry().sectors_per_cylinder();
        let start = spc - 2; // Last two sectors of cylinder 0.
        let before = d.stats();
        d.write(start, &sector_of(5).repeat(4)).unwrap(); // Crosses into cyl 1.
        let delta = d.stats().since(&before);
        assert_eq!(delta.short_seeks, 1);
    }

    #[test]
    fn label_roundtrip_and_check() {
        let mut d = SimDisk::tiny();
        let l = Label::new(42, 0, PageKind::Data);
        d.write_labels(5, &[l], Some(&[Label::FREE])).unwrap();
        assert_eq!(d.read_labels(5, 1).unwrap(), vec![l]);
        // Checked read with the right label succeeds...
        d.write(5, &sector_of(1)).unwrap();
        assert!(d.read_checked(5, 1, &[l]).is_ok());
        // ...and with the wrong label fails.
        let wrong = Label::new(43, 0, PageKind::Data);
        assert!(matches!(
            d.read_checked(5, 1, &[wrong]),
            Err(DiskError::LabelMismatch { addr: 5, .. })
        ));
    }

    #[test]
    fn write_labels_verifies_old_labels() {
        let mut d = SimDisk::tiny();
        let claimed = Label::new(1, 0, PageKind::Data);
        d.write_labels(3, &[claimed], Some(&[Label::FREE])).unwrap();
        // A second claim of the same sector must fail the free check.
        assert!(matches!(
            d.write_labels(3, &[Label::new(2, 0, PageKind::Data)], Some(&[Label::FREE])),
            Err(DiskError::LabelMismatch { .. })
        ));
    }

    #[test]
    fn wild_write_caught_by_label_check_only() {
        let mut d = SimDisk::tiny();
        let l = Label::new(9, 0, PageKind::Data);
        d.write_with_labels(8, &sector_of(7), &[l]).unwrap();
        d.wild_write(8, 0xFF);
        // Unchecked read returns garbage silently.
        assert_eq!(d.read(8, 1).unwrap()[0], 0xFF);
        // The label is *untouched* by the wild write, so a checked read
        // still passes label verification — labels catch wild writes that
        // land on the wrong sector (the common case), which the next test
        // shows.
        assert!(d.read_checked(8, 1, &[l]).is_ok());
    }

    #[test]
    fn misdirected_io_caught_by_label_check() {
        let mut d = SimDisk::tiny();
        let mine = Label::new(9, 0, PageKind::Data);
        let theirs = Label::new(10, 0, PageKind::Data);
        d.write_with_labels(8, &sector_of(7), &[theirs]).unwrap();
        // Software bug: we think sector 8 belongs to file 9.
        assert!(matches!(
            d.write_checked(8, &sector_of(1), &[mine]),
            Err(DiskError::LabelMismatch { .. })
        ));
        // The data was NOT overwritten: the check precedes the write.
        assert_eq!(d.read(8, 1).unwrap()[0], 7);
    }

    #[test]
    fn damaged_sector_fails_reads_until_rewritten() {
        let mut d = SimDisk::tiny();
        d.write(4, &sector_of(3)).unwrap();
        d.damage_sector(4);
        assert!(matches!(d.read(4, 1), Err(DiskError::BadSector(4))));
        let (data, mask) = d.read_allow_damage(4, 1).unwrap();
        assert!(mask[0]);
        assert!(data.iter().all(|&b| b == 0));
        d.write(4, &sector_of(6)).unwrap();
        assert_eq!(d.read(4, 1).unwrap()[0], 6);
    }

    #[test]
    fn scheduled_crash_tears_write_per_failure_model() {
        let mut d = SimDisk::tiny();
        // Crash after 2 more sector writes, damaging 1 trailing sector.
        d.schedule_crash(CrashPlan {
            after_sector_writes: 2,
            damaged_tail: 1,
        });
        let err = d.write(0, &sector_of(0xEE).repeat(5)).unwrap_err();
        assert_eq!(err, DiskError::Crashed);
        assert!(d.is_crashed());
        d.reboot();
        // Sectors 0 and 1 durable, 2 damaged, 3 and 4 never written.
        assert_eq!(d.read(0, 1).unwrap()[0], 0xEE);
        assert_eq!(d.read(1, 1).unwrap()[0], 0xEE);
        assert!(matches!(d.read(2, 1), Err(DiskError::BadSector(2))));
        assert_eq!(d.read(3, 1).unwrap()[0], 0);
        assert_eq!(d.read(4, 1).unwrap()[0], 0);
    }

    #[test]
    fn crash_with_two_damaged_tail_sectors() {
        let mut d = SimDisk::tiny();
        d.schedule_crash(CrashPlan {
            after_sector_writes: 0,
            damaged_tail: 2,
        });
        assert!(d.write(10, &sector_of(1).repeat(4)).is_err());
        d.reboot();
        assert!(d.peek_damaged(10));
        assert!(d.peek_damaged(11));
        assert!(!d.peek_damaged(12));
    }

    #[test]
    fn crash_damage_bounded_by_op_end() {
        let mut d = SimDisk::tiny();
        d.schedule_crash(CrashPlan {
            after_sector_writes: 0,
            damaged_tail: 2,
        });
        assert!(d.write(10, &sector_of(1)).is_err());
        d.reboot();
        assert!(d.peek_damaged(10));
        assert!(!d.peek_damaged(11)); // Outside the op: untouched.
    }

    #[test]
    fn io_after_crash_fails_until_reboot() {
        let mut d = SimDisk::tiny();
        d.crash_now();
        assert!(matches!(d.read(0, 1), Err(DiskError::Crashed)));
        assert!(matches!(d.write(0, &sector_of(0)), Err(DiskError::Crashed)));
        d.reboot();
        assert!(d.read(0, 1).is_ok());
    }

    #[test]
    fn reboot_homes_the_head() {
        let mut d = SimDisk::tiny();
        let spc = d.geometry().sectors_per_cylinder();
        d.read(spc * 30, 1).unwrap();
        d.crash_now();
        d.reboot();
        let before = d.stats();
        d.read(0, 1).unwrap(); // Head is home: no seek.
        assert_eq!(d.stats().since(&before).seek_us, 0);
    }

    #[test]
    fn the_policy_survives_clone_reboot_and_fork() {
        // Two writes Satf would swap (it takes the lower address first)
        // and InOrder runs as submitted: the journal tells them apart.
        let order = |d: &mut SimDisk| {
            let mut b = crate::IoBatch::new();
            for start in [40, 20] {
                b.push(crate::IoOp::Write {
                    start,
                    data: sector_of(1),
                });
            }
            d.enable_write_journal();
            crate::sched::execute(d, &b).unwrap();
            let journal = d.drain_write_journal();
            journal.iter().map(|e| e.addr).collect::<Vec<_>>()
        };
        assert_eq!(SimDisk::tiny().io_policy(), IoPolicy::Satf);
        assert_eq!(order(&mut SimDisk::tiny()), vec![20, 40]);
        let mut d = SimDisk::tiny();
        d.set_io_policy(IoPolicy::InOrder);
        let mut copies = vec![d.clone(), d.fork_with_clock(SimClock::new())];
        d.crash_now();
        d.reboot();
        copies.push(d);
        for mut c in copies {
            assert_eq!(c.io_policy(), IoPolicy::InOrder);
            assert_eq!(order(&mut c), vec![40, 20]);
        }
    }

    #[test]
    fn region_accounting_attributes_ops() {
        let mut d = SimDisk::tiny();
        d.set_regions(vec![(0, 100, "meta"), (100, 2048, "data")]);
        d.write(5, &sector_of(1)).unwrap();
        d.write(200, &sector_of(2)).unwrap();
        d.read(210, 2).unwrap();
        d.read_labels(50, 2).unwrap();
        assert_eq!(d.region_ops()["meta"], 2);
        assert_eq!(d.region_ops()["data"], 2);
        d.reset_stats();
        assert!(d.region_ops().is_empty());
    }

    #[test]
    fn latent_fault_fires_once_then_rewrite_repairs() {
        let mut d = SimDisk::tiny();
        d.write(20, &sector_of(9)).unwrap();
        d.set_fault_plan(&FaultPlan::none().with_latent(20));
        // First touch discovers the flaw...
        assert!(matches!(d.read(20, 1), Err(DiskError::BadSector(20))));
        assert!(d.peek_damaged(20));
        // ...and from then on it is an ordinary damaged sector: a rewrite
        // repairs it.
        d.write(20, &sector_of(7)).unwrap();
        assert_eq!(d.read(20, 1).unwrap()[0], 7);
        assert_eq!(d.stats().media_faults, 1);
    }

    #[test]
    fn latent_fault_discovered_by_write_fails_then_retry_succeeds() {
        let mut d = SimDisk::tiny();
        d.set_fault_plan(&FaultPlan::none().with_latent(21));
        assert!(matches!(
            d.write(21, &sector_of(1)),
            Err(DiskError::BadSector(21))
        ));
        // The flaw is now known; the retry repairs the sector.
        d.write(21, &sector_of(2)).unwrap();
        assert_eq!(d.read(21, 1).unwrap()[0], 2);
    }

    #[test]
    fn latent_fault_mid_transfer_keeps_prefix_durable() {
        let mut d = SimDisk::tiny();
        d.set_fault_plan(&FaultPlan::none().with_latent(12));
        assert!(matches!(
            d.write(10, &sector_of(4).repeat(4)),
            Err(DiskError::BadSector(12))
        ));
        assert_eq!(d.read(10, 2).unwrap()[0], 4); // Prefix durable.
        assert_eq!(d.peek_data(13), None); // Suffix never written.
    }

    #[test]
    fn transient_fault_retries_invisibly_but_charges_revolutions() {
        let mut d = SimDisk::tiny();
        d.write(30, &sector_of(3)).unwrap();
        d.set_fault_plan(&FaultPlan::none().with_transient(30, 2));
        let before = d.stats();
        assert_eq!(d.read(30, 1).unwrap()[0], 3); // Succeeds transparently.
        let delta = d.stats().since(&before);
        let rev = d.timing().sector_us() * d.timing().sectors_per_track as u64;
        assert_eq!(delta.transient_retries, 2);
        assert!(delta.lost_rev_us >= 2 * rev);
        // The fault is consumed: the next read is clean.
        let before = d.stats();
        d.read(30, 1).unwrap();
        assert_eq!(d.stats().since(&before).transient_retries, 0);
    }

    #[test]
    fn grown_defect_fails_reads_and_writes_permanently() {
        let mut d = SimDisk::tiny();
        d.write(40, &sector_of(1)).unwrap();
        d.set_fault_plan(&FaultPlan::none().with_grown(40));
        assert!(matches!(d.read(40, 1), Err(DiskError::BadSector(40))));
        // Rewriting does NOT repair a grown defect.
        assert!(matches!(
            d.write(40, &sector_of(2)),
            Err(DiskError::BadSector(40))
        ));
        assert!(matches!(d.read(40, 1), Err(DiskError::BadSector(40))));
        // A grown defect, not the damage a rewrite repairs.
        assert!(d.hard_bad.contains(&40) && !d.peek_damaged(40));
        // Damage-tolerant reads mask it instead of failing.
        let (_, mask) = d.read_allow_damage(40, 1).unwrap();
        assert!(mask[0]);
    }

    #[test]
    fn fault_plan_out_of_range_addresses_ignored() {
        let mut d = SimDisk::tiny();
        let total = d.geometry().total_sectors();
        d.set_fault_plan(&FaultPlan::none().with_latent(total + 5).with_grown(total));
        assert!(d.read(0, 1).is_ok());
    }

    #[test]
    fn clean_crash_boundary_with_zero_tail() {
        let mut d = SimDisk::tiny();
        d.schedule_crash(CrashPlan {
            after_sector_writes: 1,
            damaged_tail: 0,
        });
        assert!(d.write(0, &sector_of(5).repeat(3)).is_err());
        d.reboot();
        assert_eq!(d.read(0, 1).unwrap()[0], 5);
        assert!(!d.peek_damaged(1));
        assert_eq!(d.read(1, 1).unwrap()[0], 0); // Never written.
    }
}
