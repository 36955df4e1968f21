//! Bad-sector sparing and scrub-on-write.
//!
//! §5.8 of the paper classifies the errors Cedar volumes actually saw;
//! classes 2–5 all start from a bad sector in a file-system data
//! structure. The FSD's answer here has two levels:
//!
//! * **scrub**: a sector that fails once is assumed to be a latent media
//!   flaw — rewriting it repairs it (the Trident soft-error model). Every
//!   writer below retries failed sectors by rewriting them.
//! * **remap**: a sector that fails *again* after a rewrite is a grown
//!   (permanent) defect. It is remapped to a replacement sector in the
//!   spare region, and the `(logical, physical)` pair is recorded in the
//!   [`SpareMap`]. The table is persisted on the boot page
//!   ([`crate::layout::FsdBootPage::spare_map`]) so it is available
//!   before any other structure is read at boot.
//!
//! All metadata I/O translates logical addresses through the map. File
//! data sectors are *not* remapped — a dead data sector loses that page,
//! which the paper accepts (class 5) — and neither are the boot pages
//! themselves, which rely on replication instead (the map must be
//! readable before it can be applied).
//!
//! # The double-write discipline
//!
//! The boot page, the log meta page, the VAM save area and every
//! name-table page are written twice, on sectors that do not fail
//! together, and "when a page is read, both copies are read and checked"
//! (§5.1). `read_replicated` is that read, for all four: it is rung 2
//! of the recovery ladder ([`crate::recovery`]). Their writers address
//! both copies through [`Replicated::both`]; boot pages, whose copy A
//! must be durable before copy B starts, go through
//! `layout::write_replicas`.

use std::collections::HashMap;

use cedar_disk::sched::{self, IoBatch, IoOp, IoPolicy, OpResult};
use cedar_disk::{DiskError, SectorAddr, SimDisk, SECTOR_BYTES};

use crate::cache::OwedImages;
use crate::layout::{FsdLayout, Replicated};
use crate::{FsdError, Result};

/// Failures tolerated per logical sector before it is remapped: the
/// first may be a latent flaw the rewrite repairs, the second is a
/// grown defect.
const FAILS_BEFORE_REMAP: u8 = 2;

/// Rounds the retry engine will run before declaring the media
/// unrecoverable. Each round either finishes, repairs a latent flaw, or
/// consumes a spare slot, so this bound is far past any plausible plan.
pub(crate) const MAX_ROUNDS: usize = 64;

/// Maps one pushed write back to the logical sectors it covers, so a
/// per-sector failure can be attributed (`idx` is the op's index in the
/// batch; the op spans `len` sectors from `logical`, written at `phys`).
#[derive(Clone, Copy, Debug)]
pub struct OpTag {
    idx: usize,
    logical: SectorAddr,
    phys: SectorAddr,
    len: u32,
}

/// The bad-sector remap table plus the per-sector failure ledger that
/// decides when to grow it.
#[derive(Clone, Debug, Default)]
pub struct SpareMap {
    spare_start: SectorAddr,
    spare_len: u32,
    /// Half-open `[lo, hi)` address ranges eligible for remapping.
    remappable: Vec<(SectorAddr, SectorAddr)>,
    /// `(logical, physical)` redirections, unordered, at most one per
    /// logical sector.
    entries: Vec<(SectorAddr, SectorAddr)>,
    /// Spare slots consumed so far (slots are never reused: a re-remap
    /// whose spare sector also died takes a fresh one).
    slots_used: u32,
    /// The table changed since it was last written to the boot page.
    dirty: bool,
    /// Consecutive failures per logical sector, cleared by a successful
    /// rewrite.
    fails: HashMap<SectorAddr, u8>,
    /// Damaged sectors repaired in place by a rewrite.
    pub scrubbed: u64,
    /// Sectors redirected into the spare region.
    pub remapped: u64,
}

impl SpareMap {
    /// A map with sparing disabled: nothing is remappable and no spare
    /// slots exist. Translation is the identity; a second failure on any
    /// sector is fatal. For tests and tools that bypass the FSD layout.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// A map with an explicit spare region and remappable ranges
    /// (half-open `[lo, hi)`).
    pub fn new(
        spare_start: SectorAddr,
        spare_len: u32,
        remappable: Vec<(SectorAddr, SectorAddr)>,
    ) -> Self {
        Self {
            spare_start,
            spare_len,
            remappable,
            ..Self::default()
        }
    }

    /// An empty map for a freshly formatted volume on `layout`: the VAM
    /// save area and the central metadata region (both name-table copies
    /// and the log) are remappable; boot pages and file data are not.
    pub fn for_layout(layout: &FsdLayout) -> Self {
        Self::new(
            layout.spare_start,
            layout.spare_sectors,
            vec![
                (layout.vam_a, layout.spare_start),
                (layout.nt_a_start, layout.central_end),
            ],
        )
    }

    /// Rebuilds the map recorded on a boot page. The boot page is disk
    /// input: an entry whose logical sector is outside the remappable
    /// ranges or whose physical sector is outside the spare region would
    /// silently redirect reads anywhere on the volume, so such entries
    /// are dropped (the cost is re-reading a sector that then fails and
    /// is remapped afresh — the same path as a lost boot page).
    pub fn with_entries(layout: &FsdLayout, entries: &[(u32, u32)]) -> Self {
        let mut map = Self::for_layout(layout);
        let spare_end = layout.spare_start + layout.spare_sectors;
        map.entries = entries
            .iter()
            .filter(|&&(logical, phys)| {
                map.remappable
                    .iter()
                    .any(|&(lo, hi)| logical >= lo && logical < hi)
                    && phys >= layout.spare_start
                    && phys < spare_end
            })
            .copied()
            .collect();
        map.slots_used = map
            .entries
            .iter()
            .map(|&(_, phys)| phys.saturating_sub(layout.spare_start) + 1)
            .max()
            .unwrap_or(0);
        map
    }

    /// The physical sector behind `logical`.
    pub fn translate(&self, logical: SectorAddr) -> SectorAddr {
        self.entries
            .iter()
            .find(|&&(l, _)| l == logical)
            .map_or(logical, |&(_, p)| p)
    }

    /// Current remap table, for persisting onto the boot page.
    pub fn entries(&self) -> &[(SectorAddr, SectorAddr)] {
        &self.entries
    }

    /// Returns whether the table changed since the last call, clearing
    /// the flag. The caller must rewrite the boot page when `true`.
    pub fn take_dirty(&mut self) -> bool {
        std::mem::take(&mut self.dirty)
    }

    /// Records that a read found `logical` damaged, so the upcoming
    /// scrub rewrite is charged as a repair — and escalates to a remap
    /// if the rewrite fails too.
    pub fn note_damaged(&mut self, logical: SectorAddr) {
        self.fails.entry(logical).or_insert(FAILS_BEFORE_REMAP - 1);
    }

    /// Pushes the write of `data` at logical sector `logical_start` onto
    /// `batch`, split wherever the remap table makes the physical run
    /// discontiguous. Returns one tag per pushed op for [`Self::absorb`].
    pub fn push_write(
        &self,
        batch: &mut IoBatch,
        logical_start: SectorAddr,
        data: &[u8],
    ) -> Vec<OpTag> {
        assert_eq!(data.len() % SECTOR_BYTES, 0, "partial-sector write");
        let total = (data.len() / SECTOR_BYTES) as u32;
        let mut tags = Vec::new();
        let mut i = 0u32;
        while i < total {
            let phys = self.translate(logical_start + i);
            let mut len = 1u32;
            while i + len < total && self.translate(logical_start + i + len) == phys + len {
                len += 1;
            }
            let bytes =
                data[(i as usize) * SECTOR_BYTES..((i + len) as usize) * SECTOR_BYTES].to_vec();
            let idx = batch.push(IoOp::Write {
                start: phys,
                data: bytes,
            });
            tags.push(OpTag {
                idx,
                logical: logical_start + i,
                phys,
                len,
            });
            i += len;
        }
        tags
    }

    /// Folds one round of [`sched::execute_partial`] results into the
    /// ledger: successful writes clear (and count) any pending damage,
    /// `BadSector` failures charge the named sector and remap it once it
    /// exhausts its strikes. Returns `true` if any op must be retried.
    pub fn absorb(&mut self, results: &[OpResult], tags: &[OpTag]) -> Result<bool> {
        let mut retry = false;
        for t in tags {
            match &results[t.idx] {
                OpResult::Ok(_) => {
                    for s in 0..t.len {
                        if self.fails.remove(&(t.logical + s)).is_some() {
                            self.scrubbed += 1;
                        }
                    }
                }
                OpResult::Failed(DiskError::BadSector(phys)) => {
                    retry = true;
                    let logical = t.logical + (phys - t.phys);
                    let n = self.fails.entry(logical).or_insert(0);
                    *n = n.saturating_add(1);
                    if *n >= FAILS_BEFORE_REMAP {
                        self.remap(logical)?;
                    }
                }
                OpResult::Failed(e) => return Err(e.clone().into()),
                OpResult::Skipped => retry = true,
            }
        }
        Ok(retry)
    }

    /// Redirects `logical` to a fresh spare slot.
    fn remap(&mut self, logical: SectorAddr) -> Result<()> {
        if !self
            .remappable
            .iter()
            .any(|&(lo, hi)| (lo..hi).contains(&logical))
        {
            return Err(FsdError::Check(format!(
                "sector {logical} is permanently bad and not remappable"
            )));
        }
        if self.slots_used >= self.spare_len {
            return Err(FsdError::Check(format!(
                "spare region exhausted remapping sector {logical}"
            )));
        }
        let phys = self.spare_start + self.slots_used;
        self.slots_used += 1;
        match self.entries.iter_mut().find(|(l, _)| *l == logical) {
            Some(e) => e.1 = phys,
            None => self.entries.push((logical, phys)),
        }
        // The sector restarts with a clean record at its new home, so a
        // latent flaw in the spare sector gets its own rewrite chance.
        self.fails.remove(&logical);
        self.dirty = true;
        self.remapped += 1;
        Ok(())
    }

    /// [`SimDisk::read_allow_damage`] through the remap table: reads `n`
    /// logical sectors from `start`, splitting wherever the physical run
    /// is discontiguous, and reassembles data and damage mask in logical
    /// order.
    pub fn read_allow_damage(
        &self,
        disk: &mut SimDisk,
        start: SectorAddr,
        n: usize,
    ) -> cedar_disk::Result<(Vec<u8>, Vec<bool>)> {
        if self.entries.is_empty() {
            return disk.read_allow_damage(start, n);
        }
        let mut data = Vec::with_capacity(n * SECTOR_BYTES);
        let mut mask = Vec::with_capacity(n);
        let total = n as u32;
        let mut i = 0u32;
        while i < total {
            let phys = self.translate(start + i);
            let mut len = 1u32;
            while i + len < total && self.translate(start + i + len) == phys + len {
                len += 1;
            }
            let (d, m) = disk.read_allow_damage(phys, len as usize)?;
            data.extend_from_slice(&d);
            mask.extend_from_slice(&m);
            i += len;
        }
        Ok((data, mask))
    }
}

/// Writes home-location images (name-table pages, leader pages, VAM
/// save patches) after their log record is durable, translating through
/// the remap table and retrying per-sector failures: a first failure is
/// rewritten in place (latent-flaw repair), a second is remapped to the
/// spare region. Whole-image rewrites are idempotent — every sector is
/// exclusively owned by its page — so each round resubmits everything
/// not yet durable.
pub(crate) fn write_home_batch(
    disk: &mut SimDisk,
    policy: IoPolicy,
    spare: &mut SpareMap,
    writes: Vec<(SectorAddr, Vec<u8>)>,
) -> Result<()> {
    run_spared_writes(disk, policy, spare, &writes)
}

/// Read-path repair: rewrites replica sectors that a read found damaged
/// from the survivor copy's bytes. Deliberately a different entry point
/// from [`write_home_batch`]: scrubs restore *existing* committed state,
/// so they are legal before a log append (the wal-order rule keys on the
/// `write_home_batch` name for writes that must follow one).
pub(crate) fn scrub_batch(
    disk: &mut SimDisk,
    policy: IoPolicy,
    spare: &mut SpareMap,
    writes: Vec<(SectorAddr, Vec<u8>)>,
) -> Result<()> {
    run_spared_writes(disk, policy, spare, &writes)
}

/// Reads a replicated structure: both copies, checked, and whichever is
/// damaged repaired from the other before the caller sees a byte.
///
/// Both copies are read through the remap table and the images the log
/// still owes their sectors (`logged`, by copy-A home sector) are laid
/// over them — those are the committed bytes, whatever the platters say;
/// the damage masks stay as read. The image served is the first of
/// {copy A if it read clean, copy B if it read clean, the splice taking
/// each sector from A where A read or the log holds it and from B
/// otherwise} that `valid` accepts; `valid`'s answer for it comes back.
///
/// A copy that read clean and validates is left alone, served or not:
/// two good copies may differ (a crash between the A and B writes of a
/// boot page; a home write redo has yet to finish), and which is current
/// is not this function's to say. Any other copy — damaged somewhere, or
/// clean and refused by `valid` — is brought to the served image: each of
/// its sectors that is damaged or differs is marked, rewritten and
/// counted as a scrub, and one whose rewrite fails too is remapped. A
/// second media fault must not find the first still in place.
///
/// Errors are a crash, or typed: some sector is unreadable in both copies
/// and not in the log, or nothing readable passes `valid`; nothing has
/// been written then. A scrub that fails for any reason but a crash (no
/// spare slot left; a boot page, which nothing can remap — callers read
/// those with [`SpareMap::disabled`]) does not fail the read: the image
/// is in hand, and the `bool` tells the caller the damage is still on the
/// platters.
pub(crate) fn read_replicated<T>(
    disk: &mut SimDisk,
    policy: IoPolicy,
    spare: &mut SpareMap,
    pair: Replicated,
    logged: Option<&OwedImages>,
    valid: impl Fn(&[u8]) -> Option<T>,
) -> Result<(T, bool)> {
    let n = pair.sectors as usize;
    let (mut a, a_bad) = spare
        .read_allow_damage(disk, pair.a, n)
        .map_err(FsdError::Disk)?;
    let (mut b, b_bad) = spare
        .read_allow_damage(disk, pair.b, n)
        .map_err(FsdError::Disk)?;
    // Both reads asked for `n` sectors; a short buffer or mask would
    // slice out of bounds below.
    if a.len() != n * SECTOR_BYTES || b.len() != a.len() || a_bad.len() != n || b_bad.len() != n {
        return Err(FsdError::Check(format!(
            "{}: reading the copies at {} and {} returned a malformed buffer",
            pair.what, pair.a, pair.b
        )));
    }
    let sector = |i: usize| i * SECTOR_BYTES..(i + 1) * SECTOR_BYTES;
    let mut held = vec![false; n];
    for (i, in_log) in held.iter_mut().enumerate() {
        if let Some((image, _)) = logged.and_then(|l| l.get(&(pair.a + i as u32))) {
            a[sector(i)].copy_from_slice(image);
            b[sector(i)].copy_from_slice(image);
            *in_log = true;
        }
    }
    // Every copy that read clean is checked, served or not.
    let a_valid = (!a_bad.contains(&true)).then(|| valid(&a)).flatten();
    let b_valid = (!b_bad.contains(&true)).then(|| valid(&b)).flatten();
    let (a_good, b_good) = (a_valid.is_some(), b_valid.is_some());
    let splice;
    let (value, image) = if let Some(v) = a_valid {
        (v, &a)
    } else if let Some(v) = b_valid {
        (v, &b)
    } else {
        // Salvage sector by sector: the failure model says at most two
        // consecutive sectors die, so A and B never lose the same one.
        let mut mix = a.clone();
        for i in 0..n {
            if a_bad[i] && !held[i] {
                if b_bad[i] {
                    return Err(FsdError::Check(format!(
                        "{}: sector {i} lost in both copies ({} and {})",
                        pair.what,
                        pair.a + i as u32,
                        pair.b + i as u32
                    )));
                }
                mix[sector(i)].copy_from_slice(&b[sector(i)]);
            }
        }
        let Some(v) = valid(&mix) else {
            return Err(FsdError::Check(format!(
                "{}: neither copy ({} and {}) nor their splice is valid",
                pair.what, pair.a, pair.b
            )));
        };
        splice = mix;
        (v, &splice)
    };
    let mut writes = Vec::new();
    for i in 0..n {
        for (at, copy, bad, good) in [
            (pair.a + i as u32, &a, &a_bad, a_good),
            (pair.b + i as u32, &b, &b_bad, b_good),
        ] {
            if bad[i] || (!good && copy[sector(i)] != image[sector(i)]) {
                spare.note_damaged(at);
                writes.push((at, image[sector(i)].to_vec()));
            }
        }
    }
    match scrub_batch(disk, policy, spare, writes) {
        Ok(()) => Ok((value, false)),
        Err(e) if e.is_crash() => Err(e),
        Err(_) => Ok((value, true)),
    }
}

fn run_spared_writes(
    disk: &mut SimDisk,
    policy: IoPolicy,
    spare: &mut SpareMap,
    writes: &[(SectorAddr, Vec<u8>)],
) -> Result<()> {
    for _ in 0..MAX_ROUNDS {
        let mut batch = IoBatch::new();
        let mut tags = Vec::new();
        for (start, data) in writes {
            tags.append(&mut spare.push_write(&mut batch, *start, data));
        }
        if batch.is_empty() {
            return Ok(());
        }
        let results = sched::execute_partial(disk, policy, &batch)?;
        if !spare.absorb(&results, &tags)? {
            return Ok(());
        }
    }
    Err(FsdError::Check(
        "media-fault retry limit exceeded on home write".into(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedar_disk::{DiskGeometry, DiskTiming, FaultPlan, SimClock};
    use std::collections::BTreeMap;

    fn layout() -> FsdLayout {
        FsdLayout::compute(&DiskGeometry::TINY, 16, 128)
    }

    fn disk() -> SimDisk {
        SimDisk::new(DiskGeometry::TINY, DiskTiming::TINY, SimClock::new())
    }

    #[test]
    fn translate_is_identity_until_remapped() {
        let l = layout();
        let map = SpareMap::for_layout(&l);
        assert_eq!(map.translate(l.nt_a_start), l.nt_a_start);
        let map = SpareMap::with_entries(&l, &[(l.nt_a_start, l.spare_start)]);
        assert_eq!(map.translate(l.nt_a_start), l.spare_start);
        assert_eq!(map.translate(l.nt_a_start + 1), l.nt_a_start + 1);
    }

    #[test]
    fn with_entries_reserves_used_slots() {
        let l = layout();
        let map = SpareMap::with_entries(&l, &[(l.nt_a_start, l.spare_start + 3)]);
        assert_eq!(map.slots_used, 4);
    }

    #[test]
    fn latent_flaw_is_scrubbed_in_place() {
        let l = layout();
        let mut d = disk();
        let mut map = SpareMap::for_layout(&l);
        d.set_fault_plan(&FaultPlan::none().with_latent(l.nt_a_start + 1));
        let data = vec![7u8; 2 * SECTOR_BYTES];
        write_home_batch(
            &mut d,
            IoPolicy::InOrder,
            &mut map,
            vec![(l.nt_a_start, data)],
        )
        .unwrap();
        assert_eq!(map.scrubbed, 1);
        assert_eq!(map.remapped, 0);
        assert!(map.entries().is_empty());
        assert_eq!(
            d.read(l.nt_a_start, 2).unwrap(),
            vec![7u8; 2 * SECTOR_BYTES]
        );
    }

    #[test]
    fn grown_defect_is_remapped_to_spare() {
        let l = layout();
        let mut d = disk();
        let mut map = SpareMap::for_layout(&l);
        let bad = l.nt_a_start + 1;
        d.set_fault_plan(&FaultPlan::none().with_grown(bad));
        let data: Vec<u8> = (0..2 * SECTOR_BYTES).map(|i| i as u8).collect();
        write_home_batch(
            &mut d,
            IoPolicy::InOrder,
            &mut map,
            vec![(l.nt_a_start, data.clone())],
        )
        .unwrap();
        assert_eq!(map.remapped, 1);
        assert_eq!(map.entries(), &[(bad, l.spare_start)]);
        assert!(map.take_dirty());
        assert!(!map.take_dirty());
        // The image reads back whole through the map.
        let (got, mask) = map.read_allow_damage(&mut d, l.nt_a_start, 2).unwrap();
        assert_eq!(got, data);
        assert_eq!(mask, vec![false, false]);
    }

    #[test]
    fn unremappable_grown_defect_is_an_error() {
        let l = layout();
        let mut d = disk();
        let mut map = SpareMap::for_layout(&l);
        // A data sector in the big-file area: outside every remappable range.
        let bad = l.central_end + 5;
        d.set_fault_plan(&FaultPlan::none().with_grown(bad));
        let err = write_home_batch(
            &mut d,
            IoPolicy::InOrder,
            &mut map,
            vec![(bad, vec![1u8; SECTOR_BYTES])],
        )
        .unwrap_err();
        assert!(matches!(err, FsdError::Check(_)), "got {err:?}");
    }

    #[test]
    fn note_damaged_escalates_failed_scrub_to_remap() {
        let l = layout();
        let mut d = disk();
        let mut map = SpareMap::for_layout(&l);
        let bad = l.nt_b_start;
        d.set_fault_plan(&FaultPlan::none().with_grown(bad));
        // A read found the sector damaged; the scrub write then fails once
        // and the sector goes straight to the spare region.
        map.note_damaged(bad);
        scrub_batch(
            &mut d,
            IoPolicy::InOrder,
            &mut map,
            vec![(bad, vec![9u8; SECTOR_BYTES])],
        )
        .unwrap();
        assert_eq!(map.remapped, 1);
        assert_eq!(map.translate(bad), l.spare_start);
    }

    #[test]
    fn note_damaged_counts_successful_scrub() {
        let l = layout();
        let mut d = disk();
        let mut map = SpareMap::for_layout(&l);
        map.note_damaged(l.nt_a_start);
        scrub_batch(
            &mut d,
            IoPolicy::InOrder,
            &mut map,
            vec![(l.nt_a_start, vec![3u8; SECTOR_BYTES])],
        )
        .unwrap();
        assert_eq!(map.scrubbed, 1);
        assert_eq!(map.remapped, 0);
    }

    #[test]
    fn spare_exhaustion_is_an_error() {
        let l = layout();
        let mut d = disk();
        let mut map = SpareMap::for_layout(&l);
        map.spare_len = 1;
        d.set_fault_plan(
            &FaultPlan::none()
                .with_grown(l.nt_a_start)
                .with_grown(l.nt_a_start + 1),
        );
        let err = write_home_batch(
            &mut d,
            IoPolicy::InOrder,
            &mut map,
            vec![(l.nt_a_start, vec![0u8; 2 * SECTOR_BYTES])],
        )
        .unwrap_err();
        assert!(matches!(err, FsdError::Check(_)), "got {err:?}");
    }

    // ----- the pair reader, enumerated ----------------------------------

    const COPY_A: SectorAddr = 100;
    const COPY_B: SectorAddr = 200;

    /// One state of a replicated structure on the platters.
    #[derive(Clone, Copy, Debug)]
    struct PairCase {
        sectors: usize,
        /// Bit `i` set: sector `i` of the copy is detectably damaged.
        a_bad: u32,
        b_bad: u32,
        /// The copy (if any) that reads but holds another image.
        stale: Option<SectorAddr>,
        /// The sector (if any) whose committed image is still in the log:
        /// both home copies of it hold an older one.
        in_log: Option<usize>,
        policy: IoPolicy,
    }

    /// Sector `i` of the committed image.
    fn committed_sector(i: usize) -> Vec<u8> {
        vec![0xC0 + i as u8; SECTOR_BYTES]
    }

    fn committed(sectors: usize) -> Vec<u8> {
        (0..sectors).flat_map(committed_sector).collect()
    }

    /// The validator: only the committed image passes.
    fn is_committed(image: &[u8]) -> Option<Vec<u8>> {
        (image == committed(image.len() / SECTOR_BYTES)).then(|| image.to_vec())
    }

    impl PairCase {
        fn pair(&self) -> Replicated {
            Replicated {
                a: COPY_A,
                b: COPY_B,
                sectors: self.sectors as u32,
                what: "test pair",
            }
        }

        /// The platters in this state, and what the log holds.
        fn build(&self) -> (SimDisk, Option<OwedImages>) {
            let mut d = disk();
            for (at, bad) in [(COPY_A, self.a_bad), (COPY_B, self.b_bad)] {
                for i in 0..self.sectors {
                    let home = if self.in_log == Some(i) {
                        vec![0x0D; SECTOR_BYTES] // What the sweep has yet to replace.
                    } else if self.stale == Some(at) {
                        vec![0xEE; SECTOR_BYTES]
                    } else {
                        committed_sector(i)
                    };
                    d.write(at + i as u32, &home).unwrap();
                    if bad >> i & 1 == 1 {
                        d.damage_sector(at + i as u32);
                    }
                }
            }
            let logged = self
                .in_log
                .map(|i| BTreeMap::from([(COPY_A + i as u32, (committed_sector(i), 0))]));
            (d, logged)
        }

        /// `Some(sector writes of the repair)` when the read must serve
        /// the committed image, `None` when it must fail — worked out
        /// from the state alone, sector by sector.
        fn expected_repairs(&self) -> Option<u64> {
            let n = self.sectors;
            let in_log = |i| self.in_log == Some(i);
            let (a_bad, b_bad) = (|i| self.a_bad >> i & 1 == 1, |i| self.b_bad >> i & 1 == 1);
            // Whether what a copy shows for sector `i`, log image laid
            // over, is the committed sector (given that it reads).
            let a_shows = |i| in_log(i) || self.stale != Some(COPY_A);
            let b_shows = |i| in_log(i) || self.stale != Some(COPY_B);
            let (a_clean, b_clean) = (self.a_bad == 0, self.b_bad == 0);
            let a_valid = a_clean && (0..n).all(a_shows);
            let b_valid = b_clean && (0..n).all(b_shows);
            let lost = (0..n).any(|i| a_bad(i) && b_bad(i) && !in_log(i));
            let splice_valid = !lost
                && (0..n).all(|i| {
                    if !a_bad(i) || in_log(i) {
                        a_shows(i)
                    } else {
                        b_shows(i)
                    }
                });
            // A copy that is not good as it stands is brought to the
            // served image: its damaged sectors, and those that read but
            // show something else.
            (a_valid || b_valid || splice_valid).then(|| {
                (0..n)
                    .map(|i| {
                        u64::from(a_bad(i) || !(a_valid || a_shows(i)))
                            + u64::from(b_bad(i) || !(b_valid || b_shows(i)))
                    })
                    .sum()
            })
        }

        fn read(
            &self,
            d: &mut SimDisk,
            map: &mut SpareMap,
            logged: Option<&OwedImages>,
        ) -> Result<(Vec<u8>, bool)> {
            read_replicated(d, self.policy, map, self.pair(), logged, is_committed)
        }

        /// A read that must succeed, repair everything and leave nothing
        /// for the next one; returns the scrubs it counted.
        fn read_converges(&self, d: &mut SimDisk, logged: Option<&OwedImages>) -> u64 {
            let mut map = SpareMap::new(10, 16, vec![(COPY_A, COPY_B + 16)]);
            let (image, unrepaired) = self
                .read(d, &mut map, logged)
                .unwrap_or_else(|e| panic!("{self:?}: {e}"));
            assert_eq!(image, committed(self.sectors), "{self:?}");
            assert!(!unrepaired, "{self:?}");
            assert_eq!(map.remapped, 0, "{self:?}");
            for at in [COPY_A, COPY_B] {
                let (_, mask) = d.read_allow_damage(at, self.sectors).unwrap();
                assert!(
                    !mask.contains(&true),
                    "{self:?}: copy at {at} still damaged"
                );
            }
            let (scrubbed, writes) = (map.scrubbed, d.stats().writes);
            let (again, _) = self.read(d, &mut map, logged).unwrap();
            assert_eq!(again, image, "{self:?}");
            assert_eq!(
                (map.scrubbed, d.stats().writes),
                (scrubbed, writes),
                "{self:?}: a second read found something to repair"
            );
            scrubbed
        }
    }

    fn every_pair_case() -> Vec<PairCase> {
        let mut cases = Vec::new();
        for sectors in 1..=3usize {
            for a_bad in 0..1u32 << sectors {
                for b_bad in 0..1u32 << sectors {
                    for stale in [None, Some(COPY_A), Some(COPY_B)] {
                        for in_log in std::iter::once(None).chain((0..sectors).map(Some)) {
                            for policy in [IoPolicy::InOrder, IoPolicy::Satf] {
                                cases.push(PairCase {
                                    sectors,
                                    a_bad,
                                    b_bad,
                                    stale,
                                    in_log,
                                    policy,
                                });
                            }
                        }
                    }
                }
            }
        }
        cases
    }

    /// Every damage mask of A x every damage mask of B x {neither, A, B}
    /// readable but invalid x {no sector, each sector} still in the log x
    /// both policies, for structures of one, two and three sectors.
    #[test]
    fn pair_reader_serves_the_committed_image_or_fails_typed() {
        let (mut served, mut refused) = (0, 0);
        for case in every_pair_case() {
            let (mut d, logged) = case.build();
            match case.expected_repairs() {
                Some(repairs) => {
                    let scrubbed = case.read_converges(&mut d, logged.as_ref());
                    assert_eq!(scrubbed, repairs, "{case:?}");
                    served += 1;
                }
                None => {
                    let writes = d.stats().writes;
                    let mut map = SpareMap::disabled();
                    let err = case.read(&mut d, &mut map, logged.as_ref()).unwrap_err();
                    let lost = (0..case.sectors).any(|i| {
                        case.a_bad >> i & case.b_bad >> i & 1 == 1 && case.in_log != Some(i)
                    });
                    let wanted = if lost {
                        "lost in both copies"
                    } else {
                        "is valid"
                    };
                    assert!(
                        matches!(&err, FsdError::Check(m) if m.contains(wanted)),
                        "{case:?}: {err}"
                    );
                    assert_eq!(d.stats().writes, writes, "{case:?}: wrote before failing");
                    assert_eq!(map.scrubbed, 0, "{case:?}");
                    refused += 1;
                }
            }
        }
        assert_eq!(served + refused, 48 + 288 + 1536);
        assert!(served > 600 && refused > 1200, "{served} / {refused}");
    }

    /// The same states, crashed at every sector write of the repair with
    /// every torn tail: the read reports the crash, and the read after
    /// the reboot serves the committed image and finishes the repair.
    #[test]
    fn pair_reader_crashed_inside_its_scrub_converges_on_the_next_read() {
        let mut crashes = 0;
        for case in every_pair_case() {
            let Some(repairs) = case.expected_repairs() else {
                continue;
            };
            for at_write in 0..repairs {
                for damaged_tail in 0..=2u8 {
                    let (mut d, logged) = case.build();
                    d.schedule_crash(cedar_disk::CrashPlan {
                        after_sector_writes: at_write,
                        damaged_tail,
                    });
                    let mut map = SpareMap::disabled();
                    let err = case.read(&mut d, &mut map, logged.as_ref()).unwrap_err();
                    assert!(err.is_crash(), "{case:?} write {at_write}: {err}");
                    d.reboot();
                    case.read_converges(&mut d, logged.as_ref());
                    crashes += 1;
                }
            }
        }
        assert!(crashes > 4000, "{crashes}");
    }

    /// A repair that cannot stick — a dead sector and nowhere to remap it,
    /// which is every boot page's situation — does not fail the read: the
    /// image is served and the caller is told.
    #[test]
    fn pair_reader_reports_a_repair_that_could_not_stick() {
        let case = PairCase {
            sectors: 2,
            a_bad: 0,
            b_bad: 0,
            stale: None,
            in_log: None,
            policy: IoPolicy::InOrder,
        };
        let (mut d, _) = case.build();
        d.hard_damage_sector(COPY_A + 1);
        let mut map = SpareMap::disabled();
        let (image, unrepaired) = case.read(&mut d, &mut map, None).unwrap();
        assert_eq!(image, committed(2));
        assert!(unrepaired);
        assert_eq!((map.scrubbed, map.remapped), (0, 0));
    }

    #[test]
    fn push_write_splits_on_translation_boundaries() {
        let l = layout();
        let map = SpareMap::with_entries(&l, &[(l.nt_a_start + 1, l.spare_start)]);
        let mut batch = IoBatch::new();
        let tags = map.push_write(&mut batch, l.nt_a_start, &vec![0u8; 3 * SECTOR_BYTES]);
        // [a], [spare], [a+2]: three discontiguous physical runs.
        assert_eq!(tags.len(), 3);
        assert_eq!(batch.len(), 3);
    }
}
