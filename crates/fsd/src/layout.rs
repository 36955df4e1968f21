//! FSD on-disk layout and boot pages.
//!
//! ```text
//! 0           boot page copy A
//! 1           (blank — copies are never adjacent, §5.3)
//! 2           boot page copy B
//! 4 ..        VAM save area copy A, blank, copy B
//! small area  small-file data, from the front up, each beside the data
//!             the volume last touched (§5.6, §6)
//!  (reserve)  its last two cylinders' worth of free space, if any
//! NT copy A   ┐
//! log         ├ the hot metadata, preallocated near the central
//! NT copy B   ┘ cylinders to minimize head motion (§5.1, §5.3)
//! big area    big-file data, growing down from the end
//! ```
//!
//! "Two kinds of pages needed in booting could become bad: they are now
//! replicated" (§5.8): the boot page and the log meta page each live in
//! two non-adjacent sectors, as do the VAM save area and every page of
//! the name table. [`Replicated`] is the one description of such a pair
//! — where copy A is, where copy B is, how long each is — and the only
//! place outside this file that turns one into two addresses:
//! [`Replicated::both`] for the writers, and
//! `spare::read_replicated` for the read that checks both
//! copies and repairs one from the other.
//!
//! The boot page also names the **restart reserve**: one free run, sized
//! like the log, the nearest free space below name-table copy A — the
//! far end of the small area, where small files arrive last. While
//! the record stands the volume keeps its allocators out of the run, so
//! after a crash it is free *by construction* and the first allocation
//! can be served from it before the name-table walk has rebuilt the map
//! (`volume.rs` has the rules for keeping that true).

use cedar_disk::sched::{self, IoBatch, IoOp, OpResult};
use cedar_disk::{DiskGeometry, SectorAddr, SimDisk, SECTOR_BYTES};
use cedar_vol::codec::{Reader, Writer};
use cedar_vol::{Run, Vam};

use crate::NT_PAGE_SECTORS;

/// Magic number identifying an FSD boot page.
pub const BOOT_MAGIC: u32 = 0xF5D_B007;

/// Sectors reserved in the spare region for remapping grown defects
/// (§5.8's "bad pages in the file system's own data structures").
pub const SPARE_SECTORS: u32 = 16;

/// One double-written structure: `sectors` consecutive sectors starting
/// at `a`, and the same again at `b`, on sectors that do not fail
/// together (§5.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Replicated {
    /// First sector of copy A.
    pub a: SectorAddr,
    /// First sector of copy B.
    pub b: SectorAddr,
    /// Sectors per copy.
    pub sectors: u32,
    /// What the structure is called when a read of it fails.
    pub what: &'static str,
}

impl Replicated {
    /// The log meta page of the log region starting at `log_start`:
    /// offsets 0 and 2 of the region, a blank sector between them. The
    /// log knows where it starts, not the volume's layout.
    pub fn log_meta(log_start: SectorAddr) -> Self {
        Self {
            a: log_start,
            b: log_start + 2,
            sectors: 1,
            what: "log meta page",
        }
    }

    /// The write side: `image` addressed to both copies, A first.
    pub fn both(&self, image: Vec<u8>) -> [(SectorAddr, Vec<u8>); 2] {
        [(self.a, image.clone()), (self.b, image)]
    }
}

/// Computed sector layout of an FSD volume.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FsdLayout {
    /// Total sectors on the volume.
    pub total_sectors: u32,
    /// Boot page copy A (sector 0).
    pub boot_a: SectorAddr,
    /// Boot page copy B (sector 2).
    pub boot_b: SectorAddr,
    /// First sector of VAM save copy A.
    pub vam_a: SectorAddr,
    /// First sector of VAM save copy B.
    pub vam_b: SectorAddr,
    /// Sectors per VAM save copy.
    pub vam_sectors: u32,
    /// First sector of the spare region: replacement sectors that grown
    /// (permanent) defects in the metadata regions are remapped into.
    pub spare_start: SectorAddr,
    /// Sectors in the spare region.
    pub spare_sectors: u32,
    /// First sector of the small-file data area.
    pub small_start: SectorAddr,
    /// First sector of name-table region copy A.
    pub nt_a_start: SectorAddr,
    /// First sector of the log region.
    pub log_start: SectorAddr,
    /// Sectors in the log region (including its meta pages).
    pub log_sectors: u32,
    /// First sector of name-table region copy B.
    pub nt_b_start: SectorAddr,
    /// Logical name-table pages per copy.
    pub nt_pages: u32,
    /// One past the last sector of the central metadata region (the big
    /// area runs from here to the end of the volume).
    pub central_end: SectorAddr,
    /// Sectors in a full restart reserve: geometry-scaled like the log,
    /// two cylinders.
    pub reserve_sectors: u32,
}

impl FsdLayout {
    /// Computes the layout. Zero for `nt_pages` or `log_sectors` selects
    /// geometry-scaled defaults.
    pub fn compute(geometry: &DiskGeometry, nt_pages: u32, log_sectors: u32) -> Self {
        let total = geometry.total_sectors();
        let nt_pages = if nt_pages == 0 {
            (total / 256).clamp(16, 4096)
        } else {
            nt_pages
        };
        let log_sectors = if log_sectors == 0 {
            // Two cylinders' worth by default, at least 128 sectors.
            (2 * geometry.sectors_per_cylinder()).max(128)
        } else {
            log_sectors
        };

        let vam_bytes = 4 + (total as usize).div_ceil(64) * 8;
        let vam_sectors = vam_bytes.div_ceil(SECTOR_BYTES) as u32;
        let vam_a = 4;
        let vam_b = vam_a + vam_sectors + 1; // One blank between copies.
        let spare_start = vam_b + vam_sectors;
        let small_start = spare_start + SPARE_SECTORS;

        let nt_sectors = nt_pages * NT_PAGE_SECTORS;
        let central_len = 2 * nt_sectors + log_sectors;
        let center = total / 2;
        let nt_a_start = center.saturating_sub(central_len / 2).max(small_start + 1);
        let log_start = nt_a_start + nt_sectors;
        let nt_b_start = log_start + log_sectors;
        let central_end = nt_b_start + nt_sectors;
        assert!(
            central_end < total,
            "volume too small for FSD layout ({central_end} >= {total})"
        );
        assert!(nt_a_start > small_start, "no room for the small-file area");
        Self {
            total_sectors: total,
            boot_a: 0,
            boot_b: 2,
            vam_a,
            vam_b,
            vam_sectors,
            spare_start,
            spare_sectors: SPARE_SECTORS,
            small_start,
            nt_a_start,
            log_start,
            log_sectors,
            nt_b_start,
            nt_pages,
            central_end,
            reserve_sectors: 2 * geometry.sectors_per_cylinder(),
        }
    }

    /// Sector address of name-table page `page` in copy A.
    pub fn nt_a_sector(&self, page: u32) -> SectorAddr {
        assert!(page < self.nt_pages);
        self.nt_a_start + page * NT_PAGE_SECTORS
    }

    /// Sector address of name-table page `page` in copy B.
    pub fn nt_b_sector(&self, page: u32) -> SectorAddr {
        assert!(page < self.nt_pages);
        self.nt_b_start + page * NT_PAGE_SECTORS
    }

    /// The boot page pair (sectors 0 and 2).
    pub fn boot_pair(&self) -> Replicated {
        Replicated {
            a: self.boot_a,
            b: self.boot_b,
            sectors: 1,
            what: "boot page",
        }
    }

    /// The whole VAM save area, both copies.
    pub fn vam_pair(&self) -> Replicated {
        Replicated {
            a: self.vam_a,
            b: self.vam_b,
            sectors: self.vam_sectors,
            what: "VAM save area",
        }
    }

    /// Name-table page `page`, both copies.
    pub fn nt_pair(&self, page: u32) -> Replicated {
        Replicated {
            a: self.nt_a_sector(page),
            b: self.nt_b_sector(page),
            sectors: NT_PAGE_SECTORS,
            what: "name-table page",
        }
    }

    /// The data area bounds `[lo, hi)`; the central metadata region inside
    /// is excluded by being marked allocated in the VAM.
    pub fn data_area(&self) -> (SectorAddr, SectorAddr) {
        (self.small_start, self.total_sectors)
    }

    /// The two file-data areas `[lo, hi)`: small files below the central
    /// metadata region, big files above it (§5.6).
    pub fn data_areas(&self) -> [(SectorAddr, SectorAddr); 2] {
        [
            (self.small_start, self.nt_a_start),
            (self.central_end, self.total_sectors),
        ]
    }

    /// The free map of a volume with no files: everything outside the
    /// system areas is free (§5.5). Format starts from it; a VAM rebuild
    /// and the scavenger subtract what the name table or the recovered
    /// leaders claim.
    pub fn empty_vam(&self) -> Vam {
        let mut vam = Vam::new_all_allocated(self.total_sectors);
        for (lo, hi) in self.data_areas() {
            vam.free_run(Run::new(lo, hi - lo));
        }
        vam
    }

    /// Picks the restart reserve out of `vam`: the free run of
    /// [`Self::reserve_sectors`] nearest below name-table copy A. `None`
    /// when the small-file area has no such run left.
    pub(crate) fn carve_reserve(&self, vam: &Vam) -> Option<Run> {
        vam.find_last_free_run(self.reserve_sectors, self.small_start, self.nt_a_start)
    }

    /// Returns `true` if `addr` lies in a system region (boot, VAM save,
    /// name table or log) rather than the data area.
    pub fn is_system(&self, addr: SectorAddr) -> bool {
        addr < self.small_start || (self.nt_a_start..self.central_end).contains(&addr)
    }
}

/// Writes one page image to both of its replica sectors: copy A must be
/// durable before copy B starts (booting trusts A unless it is damaged,
/// §5.8), so a barrier separates the two writes. Every replicated-page
/// writer (boot pages at commit, the new-epoch bump of the redo settle)
/// goes through here so the A-barrier-B discipline lives in one place.
///
/// A first failure on a copy may be a latent flaw that the retry's
/// rewrite repairs; a second is a grown defect. Boot and VAM-save
/// sectors are not remappable (the spare map is *recorded on* the boot
/// page), so the page survives as long as at least one copy is durable —
/// booting falls back to the other copy.
pub(crate) fn write_replicas(
    disk: &mut SimDisk,
    pair: Replicated,
    bytes: Vec<u8>,
) -> crate::Result<()> {
    let targets = [pair.a, pair.b];
    let mut durable = [false; 2];
    let mut failures = [0u8; 2];
    loop {
        let mut batch = IoBatch::new();
        let mut slots = Vec::new();
        for (i, &at) in targets.iter().enumerate() {
            if durable[i] || failures[i] >= 2 {
                continue;
            }
            if !slots.is_empty() {
                batch.barrier();
            }
            batch.push(IoOp::Write {
                start: at,
                data: bytes.clone(),
            });
            slots.push(i);
        }
        if slots.is_empty() {
            break;
        }
        let results = sched::execute_partial(disk, &batch)?;
        for (r, &i) in results.iter().zip(&slots) {
            match r {
                OpResult::Ok(_) => durable[i] = true,
                OpResult::Failed(_) => failures[i] += 1,
                OpResult::Skipped => {}
            }
        }
    }
    if durable[0] || durable[1] {
        Ok(())
    } else {
        Err(crate::FsdError::Check(format!(
            "both replica sectors {} and {} are bad",
            pair.a, pair.b
        )))
    }
}

/// What the boot page says about the VAM save area — one byte on disk.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) enum SavedVam {
    /// The save area is stale: the free map must be rebuilt from the
    /// name table before anything is allocated or freed.
    #[default]
    Invalid,
    /// A controlled shutdown saved the VAM and nothing has changed it
    /// since (§5.5).
    Valid,
    /// The save area is stale *and* what recovery owed — the redo sweep
    /// or the name-table walk that would replace the save area — failed
    /// for a reason other than a crash: the name table is beyond replica
    /// repair, and the next boot must scavenge. The only state that
    /// describes this machine's media rather than the logical volume:
    /// replication ships it as [`Self::Invalid`].
    SettleFailed,
}

impl SavedVam {
    /// The on-disk byte: 0, 1, 2 in declaration order.
    fn to_byte(self) -> u8 {
        match self {
            Self::Invalid => 0,
            Self::Valid => 1,
            Self::SettleFailed => 2,
        }
    }
}

/// The FSD boot page, replicated at sectors 0 and 2.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FsdBootPage {
    /// Boots so far (part of uid generation and log-record validation).
    pub boot_count: u32,
    /// State of the VAM save area. The redo settle clears
    /// [`SavedVam::Valid`] on disk before anything changes the free map,
    /// so a crash at any later point — while a rebuild is owed, or in the
    /// middle of one — boots into the same state. A byte other than 0, 1
    /// or 2 rejects the copy, and so does anything but zero in the
    /// reserved byte behind it: volumes of the removed VAM-logging
    /// extension set it, and their logs hold images this code cannot
    /// replay.
    pub(crate) saved_vam: SavedVam,
    /// Bad-sector remap table: `(logical, physical)` pairs redirecting
    /// grown defects in the metadata regions into the spare region. Every
    /// metadata read and write translates through this table, so it must
    /// be readable before anything else — hence it lives on the boot page.
    pub spare_map: Vec<(u32, u32)>,
    /// The restart reserve: a run that holds no file and that no
    /// allocation may touch while this record is on disk. Appended after
    /// the remap table with a check word; zeros (a page written before
    /// the field existed) and anything that fails the check read as
    /// `None`, and [`Self::validate`] drops what the layout cannot vouch
    /// for — no record is always safe, it only costs the walk.
    pub(crate) reserve: Option<Run>,
}

/// The word stored behind a reserve record: a flipped bit in either field
/// must not read as another plausible run.
fn reserve_check(run: Run) -> u32 {
    BOOT_MAGIC ^ run.start ^ run.len.rotate_left(16)
}

impl FsdBootPage {
    /// Encodes into one sector.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u32(BOOT_MAGIC)
            .u32(self.boot_count)
            .u8(self.saved_vam.to_byte())
            .u8(0)
            .u16(u16::try_from(self.spare_map.len()).unwrap_or(u16::MAX));
        for &(logical, phys) in &self.spare_map {
            w.u32(logical).u32(phys);
        }
        if let Some(run) = self.reserve {
            w.u32(run.start).u32(run.len).u32(reserve_check(run));
        }
        let mut bytes = w.into_bytes();
        assert!(bytes.len() <= SECTOR_BYTES, "boot page overflows a sector");
        bytes.resize(SECTOR_BYTES, 0);
        bytes
    }

    /// Decodes from a sector.
    pub fn decode(bytes: &[u8]) -> Result<Self, String> {
        let mut r = Reader::new(bytes);
        if r.u32()? != BOOT_MAGIC {
            return Err("bad FSD boot page magic".into());
        }
        let boot_count = r.u32()?;
        let saved_vam = match r.u8()? {
            0 => SavedVam::Invalid,
            1 => SavedVam::Valid,
            2 => SavedVam::SettleFailed,
            other => return Err(format!("unknown saved-VAM state {other} on boot page")),
        };
        if r.u8()? != 0 {
            return Err("reserved byte set on boot page (a VAM-logging volume?)".into());
        }
        let n = r.u16()?;
        let mut spare_map = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let logical = r.u32()?;
            let phys = r.u32()?;
            spare_map.push((logical, phys));
        }
        let reserve = match (r.u32(), r.u32(), r.u32()) {
            (Ok(start), Ok(len), Ok(check)) => {
                let run = Run::new(start, len);
                (len != 0 && check == reserve_check(run)).then_some(run)
            }
            _ => None,
        };
        Ok(Self {
            boot_count,
            saved_vam,
            spare_map,
            reserve,
        })
    }

    /// Drops a reserve record the layout does not vouch for: the run must
    /// lie wholly inside one file-data area and be no longer than a full
    /// reserve. Never an error — a volume without a reserve walks first,
    /// as every volume did before there was one.
    pub(crate) fn validate(&mut self, layout: &FsdLayout) {
        self.reserve = self.reserve.filter(|run| {
            let inside = |&(lo, hi): &(SectorAddr, SectorAddr)| {
                run.start >= lo && run.start.checked_add(run.len).is_some_and(|end| end <= hi)
            };
            run.len <= layout.reserve_sectors && layout.data_areas().iter().any(inside)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_ordered_and_disjoint() {
        let l = FsdLayout::compute(&DiskGeometry::TRIDENT_T300, 0, 0);
        assert!(l.boot_b > l.boot_a + 1, "boot copies must not be adjacent");
        assert!(l.vam_b > l.vam_a + l.vam_sectors, "VAM copies not adjacent");
        assert_eq!(l.spare_start, l.vam_b + l.vam_sectors);
        assert_eq!(l.small_start, l.spare_start + l.spare_sectors);
        assert!(l.small_start < l.nt_a_start);
        assert_eq!(l.log_start, l.nt_a_start + l.nt_pages * 2);
        assert_eq!(l.nt_b_start, l.log_start + l.log_sectors);
        assert!(l.central_end < l.total_sectors);
    }

    #[test]
    fn metadata_sits_near_central_cylinders() {
        let g = DiskGeometry::TRIDENT_T300;
        let l = FsdLayout::compute(&g, 0, 0);
        let log_cyl = g.cylinder_of(l.log_start);
        let mid = g.cylinders / 2;
        assert!(
            log_cyl.abs_diff(mid) < 20,
            "log at cylinder {log_cyl}, center {mid}"
        );
    }

    #[test]
    fn nt_copies_have_independent_addresses() {
        let l = FsdLayout::compute(&DiskGeometry::TINY, 16, 128);
        for p in 0..16 {
            let a = l.nt_a_sector(p);
            let b = l.nt_b_sector(p);
            assert!(b > a + 1, "page {p} copies adjacent");
        }
    }

    #[test]
    fn no_pair_has_adjacent_or_overlapping_copies() {
        let l = FsdLayout::compute(&DiskGeometry::TINY, 16, 128);
        let mut pairs = vec![
            l.boot_pair(),
            Replicated::log_meta(l.log_start),
            l.vam_pair(),
        ];
        pairs.extend((0..l.nt_pages).map(|p| l.nt_pair(p)));
        for p in pairs {
            assert!(p.b > p.a + p.sectors, "{p:?}: a blank between the copies");
            let [(a, image_a), (b, image_b)] = p.both(vec![7]);
            assert_eq!((a, b, &image_a), (p.a, p.b, &image_b));
        }
    }

    #[test]
    fn empty_vam_frees_exactly_what_is_not_a_system_area() {
        let l = FsdLayout::compute(&DiskGeometry::TINY, 16, 128);
        let vam = l.empty_vam();
        for addr in 0..l.total_sectors {
            assert_eq!(vam.is_free(addr), !l.is_system(addr), "sector {addr}");
        }
    }

    #[test]
    fn is_system_covers_all_regions() {
        let l = FsdLayout::compute(&DiskGeometry::TINY, 16, 128);
        assert!(l.is_system(0));
        assert!(l.is_system(l.vam_a));
        assert!(l.is_system(l.spare_start));
        assert!(l.is_system(l.nt_a_start));
        assert!(l.is_system(l.log_start));
        assert!(l.is_system(l.nt_b_start));
        assert!(!l.is_system(l.small_start));
        assert!(!l.is_system(l.total_sectors - 1));
    }

    #[test]
    fn boot_page_roundtrip() {
        let b = FsdBootPage {
            boot_count: 9,
            saved_vam: SavedVam::Valid,
            spare_map: vec![(120, 40), (77, 41)],
            reserve: Some(Run::new(900, 64)),
        };
        assert_eq!(FsdBootPage::decode(&b.encode()).unwrap(), b);
    }

    #[test]
    fn boot_page_spare_map_fits_in_sector() {
        let b = FsdBootPage {
            boot_count: 1,
            saved_vam: SavedVam::Invalid,
            spare_map: (0..SPARE_SECTORS).map(|i| (1000 + i, 40 + i)).collect(),
            reserve: Some(Run::new(u32::MAX - 7, u32::MAX)),
        };
        let bytes = b.encode();
        assert_eq!(bytes.len(), SECTOR_BYTES);
        assert_eq!(FsdBootPage::decode(&bytes).unwrap(), b);
    }

    #[test]
    fn saved_vam_is_three_state_and_rejects_anything_else() {
        for state in [SavedVam::Invalid, SavedVam::Valid, SavedVam::SettleFailed] {
            let b = FsdBootPage {
                boot_count: 3,
                saved_vam: state,
                ..FsdBootPage::default()
            };
            let bytes = b.encode();
            assert_eq!(bytes[8], state.to_byte(), "the state is the ninth byte");
            assert_eq!(FsdBootPage::decode(&bytes).unwrap(), b);
        }
        let mut bytes = FsdBootPage::default().encode();
        bytes[8] = 3;
        assert!(FsdBootPage::decode(&bytes).is_err());
        bytes[8] = 0xFF;
        assert!(FsdBootPage::decode(&bytes).is_err());
    }

    #[test]
    fn a_reserve_record_is_checked_ranged_and_optional() {
        let l = FsdLayout::compute(&DiskGeometry::TINY, 16, 128);
        assert_eq!(l.reserve_sectors, 64);
        let carved = l.carve_reserve(&l.empty_vam()).unwrap();
        assert_eq!(carved, Run::new(l.nt_a_start - 64, 64));
        let page = |reserve| FsdBootPage {
            boot_count: 3,
            reserve,
            ..FsdBootPage::default()
        };
        let read = |bytes: &[u8]| {
            let mut b = FsdBootPage::decode(bytes).unwrap();
            b.validate(&l);
            b.reserve
        };
        let at = 12; // Behind an empty remap table.
        let bytes = page(Some(carved)).encode();
        assert_eq!(read(&bytes), Some(carved));
        // A page written before the field existed ends in zeros.
        assert_eq!(page(None).encode()[at..at + 12], [0u8; 12]);
        assert_eq!(read(&page(None).encode()), None);
        // No single flipped byte reads as another run.
        for i in at..at + 12 {
            for mask in [1u8, 0x10, 0x80, 0xFF] {
                let mut rotten = bytes.clone();
                rotten[i] ^= mask;
                assert_eq!(read(&rotten), None, "byte {i} ^ {mask:#x}");
            }
        }
        // A record that checks out is still held to the layout.
        for run in [
            Run::new(l.nt_a_start - 10, 64),  // Runs into the name table.
            Run::new(l.small_start - 1, 8),   // Starts in the spare region.
            Run::new(l.central_end, 65),      // Longer than a reserve.
            Run::new(l.total_sectors - 4, 8), // Off the end.
            Run::new(u32::MAX - 3, 8),        // Wraps.
        ] {
            assert_eq!(read(&page(Some(run)).encode()), None, "{run:?}");
        }
        let big_area = Run::new(l.central_end, 64);
        assert_eq!(read(&page(Some(big_area)).encode()), Some(big_area));
    }

    #[test]
    fn boot_page_rejects_garbage() {
        assert!(FsdBootPage::decode(&[0u8; SECTOR_BYTES]).is_err());
    }
}
