//! Run allocation policies.
//!
//! §5.6: the CFS allocator "performed adequately, except that it tended to
//! fragment the free space. Large free blocks of space were broken up by
//! small files." FSD "partitions the disk into big and small file areas to
//! curtail fragmentation... dynamic storage is grown starting from small
//! addresses, while the stack is grown from the end of memory towards
//! small addresses." The areas are only hints: allocation falls back to
//! the other area rather than failing.
//!
//! Within the small area a file goes beside the data its owner last
//! touched: the owner moves the allocator's cursor to where each
//! file-data transfer ends ([`Allocator::set_cursor`]), and a small file
//! takes the free run nearest it ([`Vam::find_nearest_free_run`]). §6
//! prices each I/O by its seek, and a create's one synchronous write is
//! such an I/O. An allocator whose cursor has not moved allocates first
//! fit from the front.

use crate::runtable::{Run, RunTable};
use crate::vam::Vam;
use cedar_disk::SectorAddr;
use std::fmt;

/// Allocation failures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllocError {
    /// Not enough free sectors in the data area.
    NoSpace,
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NoSpace => write!(f, "no space left in data area"),
        }
    }
}

impl std::error::Error for AllocError {}

/// Largest file, in pages, the split policy still counts as small. The
/// paper measures 50 % of files under 4000 bytes (8 pages); 32 pages
/// (16 KB) keeps cached remote copies and other small files in the front
/// area (§5.6).
pub const SMALL_FILE_PAGES: u32 = 32;

/// Which allocation policy to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllocPolicy {
    /// CFS style: one area, rotating first fit. Fragments under churn.
    SingleArea,
    /// FSD style: files of at most [`SMALL_FILE_PAGES`] pages take the
    /// free run nearest the cursor — where the volume last moved file
    /// data, the front of the data area until it has — and larger files
    /// allocate from the back, growing toward the front.
    SplitAreas,
}

/// A run allocator over a data area `[lo, hi)` of a [`Vam`].
#[derive(Clone, Debug)]
pub struct Allocator {
    policy: AllocPolicy,
    lo: SectorAddr,
    hi: SectorAddr,
    /// Rotating cursor of the single-area policy; under the split policy,
    /// where small files go: the owner moves it ([`Self::set_cursor`]).
    cursor: SectorAddr,
}

impl Allocator {
    /// Creates an allocator for the data area `[lo, hi)`.
    pub fn new(policy: AllocPolicy, lo: SectorAddr, hi: SectorAddr) -> Self {
        assert!(lo < hi, "empty data area");
        Self {
            policy,
            lo,
            hi,
            cursor: lo,
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> AllocPolicy {
        self.policy
    }

    /// The data-area bounds `[lo, hi)`.
    pub fn bounds(&self) -> (SectorAddr, SectorAddr) {
        (self.lo, self.hi)
    }

    /// The cursor: where the next small file (split policy) or the next
    /// rotating first fit (single area) starts looking.
    pub fn cursor(&self) -> SectorAddr {
        self.cursor
    }

    /// Moves the cursor to `at`, clamped into the data area. Under the
    /// split policy the next small file takes the free run nearest it.
    pub fn set_cursor(&mut self, at: SectorAddr) {
        self.cursor = at.clamp(self.lo, self.hi);
    }

    /// Allocates `pages` sectors for a file, marking them allocated in
    /// `vam` and returning the run table (contiguous when possible). On
    /// failure nothing is allocated.
    pub fn allocate(&mut self, vam: &mut Vam, pages: u32) -> Result<RunTable, AllocError> {
        if pages == 0 {
            return Ok(RunTable::new());
        }
        let runs = match self.policy {
            AllocPolicy::SingleArea => self.allocate_forward(vam, pages, self.lo, self.hi),
            AllocPolicy::SplitAreas => {
                if pages <= SMALL_FILE_PAGES {
                    // "Dynamic storage is grown starting from small
                    // addresses", and the next one beside the last data
                    // the owner touched: the create's one synchronous
                    // write pays the shortest seek there is (§6).
                    self.allocate_nearest(vam, pages)
                } else {
                    self.allocate_backward(vam, pages)
                }
            }
        }?;
        Ok(RunTable::from_runs(runs))
    }

    /// Allocates `pages` more sectors to extend an existing file, trying
    /// to continue contiguously after its last run.
    pub fn extend(
        &mut self,
        vam: &mut Vam,
        table: &mut RunTable,
        pages: u32,
    ) -> Result<(), AllocError> {
        if pages == 0 {
            return Ok(());
        }
        // Try the sectors immediately following the file's tail first.
        if let Some(last) = table.runs().last().copied() {
            let want = Run::new(last.end(), pages);
            if want.end() <= self.hi && vam.is_free_run(want) {
                vam.allocate_run(want);
                table.push(want);
                return Ok(());
            }
        }
        let grown = self.allocate(vam, pages)?;
        for r in grown.runs() {
            table.push(*r);
        }
        Ok(())
    }

    /// Frees every run of a table back to the VAM (or, when `shadow` is
    /// set, into the shadow bitmap for commit-deferred freeing, §5.5).
    pub fn free(&mut self, vam: &mut Vam, table: &RunTable, shadow: bool) {
        for r in table.runs() {
            if shadow {
                vam.shadow_free_run(*r);
            } else {
                vam.free_run(*r);
            }
        }
    }

    /// Forward first-fit from the rotating cursor; falls back to gathering
    /// the largest available fragments when no contiguous run exists.
    fn allocate_forward(
        &mut self,
        vam: &mut Vam,
        pages: u32,
        lo: SectorAddr,
        hi: SectorAddr,
    ) -> Result<Vec<Run>, AllocError> {
        if let Some(run) = vam.find_free_run(pages, lo, hi, self.cursor) {
            vam.allocate_run(run);
            self.cursor = if run.end() >= hi { lo } else { run.end() };
            return Ok(vec![run]);
        }
        self.gather_fragments(vam, pages, lo, hi)
    }

    /// The free run nearest the cursor (small files under the split
    /// policy); first fit from the front while the cursor is there.
    fn allocate_nearest(&mut self, vam: &mut Vam, pages: u32) -> Result<Vec<Run>, AllocError> {
        if let Some(run) = vam.find_nearest_free_run(pages, self.lo, self.hi, self.cursor) {
            vam.allocate_run(run);
            return Ok(vec![run]);
        }
        self.gather_fragments(vam, pages, self.lo, self.hi)
    }

    /// Backward allocation for big files: take the free run nearest the
    /// end of the area.
    fn allocate_backward(&mut self, vam: &mut Vam, pages: u32) -> Result<Vec<Run>, AllocError> {
        if let Some(run) = vam.find_last_free_run(pages, self.lo, self.hi) {
            vam.allocate_run(run);
            return Ok(vec![run]);
        }
        self.gather_fragments(vam, pages, self.lo, self.hi)
    }

    /// Last resort: satisfy the request from the largest free fragments.
    /// Rolls back on failure.
    fn gather_fragments(
        &mut self,
        vam: &mut Vam,
        pages: u32,
        lo: SectorAddr,
        hi: SectorAddr,
    ) -> Result<Vec<Run>, AllocError> {
        let mut runs: Vec<Run> = Vec::new();
        let mut remaining = pages;
        while remaining > 0 {
            let Some(run) = vam.find_largest_free_run(lo, hi, remaining) else {
                for r in &runs {
                    vam.free_run(*r);
                }
                return Err(AllocError::NoSpace);
            };
            vam.allocate_run(run);
            remaining -= run.len;
            runs.push(run);
        }
        Ok(runs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn open_vam(sectors: u32) -> Vam {
        let mut v = Vam::new_all_allocated(sectors);
        v.free_run(Run::new(0, sectors));
        v
    }

    #[test]
    fn zero_page_allocation_is_empty() {
        let mut vam = open_vam(100);
        let mut a = Allocator::new(AllocPolicy::SingleArea, 0, 100);
        assert_eq!(a.allocate(&mut vam, 0).unwrap(), RunTable::new());
    }

    #[test]
    fn single_area_allocates_contiguously_and_rotates() {
        let mut vam = open_vam(100);
        let mut a = Allocator::new(AllocPolicy::SingleArea, 0, 100);
        let t1 = a.allocate(&mut vam, 10).unwrap();
        let t2 = a.allocate(&mut vam, 10).unwrap();
        assert_eq!(t1.runs(), &[Run::new(0, 10)]);
        assert_eq!(t2.runs(), &[Run::new(10, 10)]);
        assert_eq!(vam.free_count(), 80);
    }

    #[test]
    fn split_areas_separate_small_and_big() {
        let mut vam = open_vam(1000);
        let mut a = Allocator::new(AllocPolicy::SplitAreas, 0, 1000);
        let small = a.allocate(&mut vam, 4).unwrap();
        let big = a.allocate(&mut vam, 200).unwrap();
        assert_eq!(small.runs(), &[Run::new(0, 4)]);
        assert_eq!(big.runs(), &[Run::new(800, 200)]); // At the very end.
        let small2 = a.allocate(&mut vam, 4).unwrap();
        assert_eq!(small2.runs(), &[Run::new(4, 4)]);
        let big2 = a.allocate(&mut vam, 100).unwrap();
        assert_eq!(big2.runs(), &[Run::new(700, 100)]);
    }

    #[test]
    fn a_small_file_takes_the_free_run_nearest_the_cursor() {
        let mut vam = Vam::new_all_allocated(1000);
        for hole in [Run::new(10, 4), Run::new(100, 4), Run::new(120, 4)] {
            vam.free_run(hole);
        }
        let mut a = Allocator::new(AllocPolicy::SplitAreas, 0, 1000);
        a.set_cursor(108); // 4 sectors above one hole's end, 12 below the next.
        assert_eq!(a.allocate(&mut vam, 4).unwrap().runs(), &[Run::new(100, 4)]);
        a.set_cursor(116); // 4 from each: the lower wins.
        vam.free_run(Run::new(108, 4));
        assert_eq!(a.allocate(&mut vam, 4).unwrap().runs(), &[Run::new(108, 4)]);
        a.set_cursor(5000); // Clamped to the area's end.
        assert_eq!(a.cursor(), 1000);
        assert_eq!(a.allocate(&mut vam, 4).unwrap().runs(), &[Run::new(120, 4)]);
        a.set_cursor(0);
        assert_eq!(a.allocate(&mut vam, 4).unwrap().runs(), &[Run::new(10, 4)]);
    }

    #[test]
    fn fragmented_area_served_from_fragments() {
        let mut vam = Vam::new_all_allocated(100);
        vam.free_run(Run::new(0, 5));
        vam.free_run(Run::new(50, 5));
        vam.free_run(Run::new(90, 3));
        let mut a = Allocator::new(AllocPolicy::SingleArea, 0, 100);
        let t = a.allocate(&mut vam, 12).unwrap();
        assert_eq!(t.pages(), 12);
        assert!(t.runs().len() >= 3);
        assert_eq!(vam.free_count(), 1);
    }

    #[test]
    fn no_space_rolls_back() {
        let mut vam = Vam::new_all_allocated(100);
        vam.free_run(Run::new(10, 5));
        let mut a = Allocator::new(AllocPolicy::SingleArea, 0, 100);
        assert_eq!(a.allocate(&mut vam, 6), Err(AllocError::NoSpace));
        // The 5 free sectors are still free.
        assert_eq!(vam.free_count(), 5);
    }

    #[test]
    fn extend_prefers_contiguous_tail() {
        let mut vam = open_vam(100);
        let mut a = Allocator::new(AllocPolicy::SingleArea, 0, 100);
        let mut t = a.allocate(&mut vam, 4).unwrap();
        a.extend(&mut vam, &mut t, 4).unwrap();
        assert_eq!(t.runs(), &[Run::new(0, 8)]); // Coalesced into one run.
    }

    #[test]
    fn extend_falls_back_when_tail_taken() {
        let mut vam = open_vam(100);
        let mut a = Allocator::new(AllocPolicy::SingleArea, 0, 100);
        let mut t = a.allocate(&mut vam, 4).unwrap();
        let _blocker = a.allocate(&mut vam, 4).unwrap(); // Takes sectors 4..8.
        a.extend(&mut vam, &mut t, 4).unwrap();
        assert_eq!(t.pages(), 8);
        assert_eq!(t.runs().len(), 2);
    }

    #[test]
    fn free_returns_pages() {
        let mut vam = open_vam(100);
        let mut a = Allocator::new(AllocPolicy::SingleArea, 0, 100);
        let t = a.allocate(&mut vam, 10).unwrap();
        a.free(&mut vam, &t, false);
        assert_eq!(vam.free_count(), 100);
    }

    #[test]
    fn shadow_free_defers_reuse() {
        let mut vam = open_vam(20);
        let mut a = Allocator::new(AllocPolicy::SingleArea, 0, 20);
        let t = a.allocate(&mut vam, 15).unwrap();
        a.free(&mut vam, &t, true);
        // Only 5 sectors usable before commit.
        assert_eq!(a.allocate(&mut vam, 10), Err(AllocError::NoSpace));
        vam.commit_shadow();
        assert!(a.allocate(&mut vam, 10).is_ok());
    }

    #[test]
    fn split_policy_resists_fragmentation_vs_single() {
        // The §5.6 claim in miniature: interleave small-file churn with
        // big-file allocation; the split policy keeps big files in fewer
        // runs.
        let frag_with = |policy: AllocPolicy| -> usize {
            let mut vam = open_vam(4000);
            let mut a = Allocator::new(policy, 0, 4000);
            // Small-file churn that drives the single-area rotating cursor
            // around the whole disk several times (2000 × 3 = 6000 sectors
            // allocated over a 4000-sector area) at modest occupancy.
            let mut smalls: Vec<RunTable> = Vec::new();
            let mut x: u64 = 42;
            for i in 0..2000 {
                let t = a.allocate(&mut vam, 3).unwrap();
                if i % 10 == 0 {
                    // A long-lived small file ("keeper"): under the
                    // rotating single-area policy these end up sprayed
                    // across the whole disk, pinning fragmentation.
                    continue;
                }
                smalls.push(t);
                if smalls.len() > 150 {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let victim = (x >> 33) as usize % smalls.len();
                    let t = smalls.swap_remove(victim);
                    a.free(&mut vam, &t, false);
                }
            }
            // Now allocate one big file into whatever the churn left.
            a.allocate(&mut vam, 256).unwrap().runs().len()
        };
        let single = frag_with(AllocPolicy::SingleArea);
        let split = frag_with(AllocPolicy::SplitAreas);
        assert!(
            split < single,
            "split areas should fragment less: split={split} single={single}"
        );
        assert_eq!(split, 1); // The big file lands in one run at the end.
    }
}
