//! The Volume Allocation Map.
//!
//! "The Cedar File Package keeps a bit vector as a hint for which disk
//! pages are free. This is called the Volume Allocation Map (VAM)." (§2).
//! In CFS the VAM is only a hint — labels are the truth. In FSD the VAM is
//! kept entirely in volatile memory during operation (§5.5) and either
//! saved at controlled shutdown or reconstructed from the name table; a
//! *shadow* bitmap holds the pages of deleted-but-uncommitted files, which
//! move to the VAM proper when the delete commits.
//!
//! Every search goes by run, a word at a time: [`Vam::next_addr`] and
//! [`Vam::prev_addr`] find the nearest free (or allocated) sector in 64-bit
//! steps, and the allocator's searches hop from one such boundary to the
//! next instead of testing each sector.
//!
//! What the map is asked most often costs what changed, not the size of
//! the volume: it keeps its free and shadow-held counts as runs change
//! them, so [`Vam::free_count`] and [`Vam::shadow_count`] read a field; a
//! commit moves the shadow from the words shadow frees touched, not by
//! sweeping both bitmaps; and a low-water mark — every sector below it is
//! allocated — lets the forward searches start past the allocated front
//! of the disk that small files fill first (§5.6), returning the very run
//! a search from the bottom would.

use crate::runtable::Run;
use cedar_disk::SectorAddr;

/// A free-page bitmap: bit set ⇒ sector free.
#[derive(Clone, Debug)]
pub struct Vam {
    words: Vec<u64>,
    sectors: u32,
    /// Pages freed by uncommitted deletes: not yet allocatable (§5.5).
    shadow: Vec<u64>,
    /// Set bits of `words`, and of `shadow`, below `sectors`.
    free: u32,
    shadowed: u32,
    /// The index of every non-zero word of `shadow`, once each.
    touched: Vec<usize>,
    /// Every sector below this one is allocated.
    low: SectorAddr,
}

/// Two maps are equal when their bitmaps are: the counts follow from
/// the bits, and the touched list and the mark are search aids.
impl PartialEq for Vam {
    fn eq(&self, other: &Self) -> bool {
        (self.sectors, &self.words, &self.shadow) == (other.sectors, &other.words, &other.shadow)
    }
}

impl Eq for Vam {}

impl Vam {
    /// Creates a VAM for `sectors` sectors, all marked allocated
    /// (callers free the regions that are actually available).
    pub fn new_all_allocated(sectors: u32) -> Self {
        let n = (sectors as usize).div_ceil(64);
        Self {
            words: vec![0; n],
            sectors,
            shadow: vec![0; n],
            free: 0,
            shadowed: 0,
            touched: Vec::new(),
            low: sectors,
        }
    }

    /// Number of sectors covered.
    pub fn sectors(&self) -> u32 {
        self.sectors
    }

    /// Returns `true` if `addr` is free (and not shadow-held).
    pub fn is_free(&self, addr: SectorAddr) -> bool {
        assert!(addr < self.sectors);
        let (w, b) = (addr as usize / 64, addr % 64);
        self.words[w] >> b & 1 == 1
    }

    /// Marks a run free (immediately allocatable).
    pub fn free_run(&mut self, run: Run) {
        assert!(
            run.end() <= self.sectors,
            "free of run {run:?} out of range"
        );
        let mut freed = 0;
        for_run_words(&mut self.words, run, |_, w, m| {
            freed += (m & !*w).count_ones();
            *w |= m;
        });
        self.free += freed;
        self.low = self.low.min(run.start);
    }

    /// Marks a run allocated.
    pub fn allocate_run(&mut self, run: Run) {
        assert!(
            run.end() <= self.sectors,
            "allocate of run {run:?} out of range"
        );
        let mut taken = 0;
        for_run_words(&mut self.words, run, |_, w, m| {
            taken += (m & *w).count_ones();
            *w &= !m;
        });
        self.free -= taken;
        // Everything below the mark was allocated already, and the run
        // reaches it: everything below the run's end is now.
        if run.start <= self.low {
            self.low = self.low.max(run.end());
        }
    }

    /// Records a run in the shadow bitmap: freed by a delete that has not
    /// yet committed, so not yet allocatable.
    pub fn shadow_free_run(&mut self, run: Run) {
        let (mut held, sectors) = (0, self.sectors);
        let touched = &mut self.touched;
        for_run_words(&mut self.shadow, run, |i, s, m| {
            if *s == 0 {
                touched.push(i);
            }
            held += (m & !*s & in_volume(sectors, i)).count_ones();
            *s |= m;
        });
        self.shadowed += held;
    }

    /// Takes over `old`'s shadow-held sectors as allocated and
    /// shadow-held here. A map rebuilt from the name table in the middle
    /// of a session sees the sectors of a deleted file as free, but until
    /// that delete commits they are not (§5.5): a crash brings the file
    /// back, and a create that had taken them would have written over it.
    pub fn carry_shadow_from(&mut self, old: &Vam) {
        assert_eq!(self.sectors, old.sectors, "VAM shadow across volumes");
        for &i in &old.touched {
            let (o, valid) = (old.shadow[i], in_volume(self.sectors, i));
            let (w, s) = (&mut self.words[i], &mut self.shadow[i]);
            self.free -= (*w & o & valid).count_ones();
            self.shadowed += (o & !*s & valid).count_ones();
            if *s == 0 {
                self.touched.push(i);
            }
            *w &= !o;
            *s |= o;
        }
    }

    /// Commits all shadow frees: "When a commit occurs, the pages marked
    /// free in the shadow bitmap are marked free in the VAM" (§5.5).
    pub fn commit_shadow(&mut self) {
        for i in std::mem::take(&mut self.touched) {
            let (s, valid) = (
                std::mem::take(&mut self.shadow[i]),
                in_volume(self.sectors, i),
            );
            let w = &mut self.words[i];
            self.free += (s & !*w & valid).count_ones();
            *w |= s;
            let first = (i * 64) as SectorAddr + s.trailing_zeros();
            self.low = self.low.min(first);
        }
        self.shadowed = 0;
    }

    /// Number of pages currently shadow-held.
    pub fn shadow_count(&self) -> u32 {
        self.shadowed
    }

    /// Number of free sectors.
    pub fn free_count(&self) -> u32 {
        self.free
    }

    /// The first address in `[from, hi)` that is free (`free`) or
    /// allocated (`!free`). Skips whole words; `hi` is clamped to the
    /// volume, so a bit past the last sector is never trusted. A search
    /// for a free sector starts at the low-water mark if `from` is below
    /// it: nothing below the mark is free.
    pub fn next_addr(&self, free: bool, from: SectorAddr, hi: SectorAddr) -> Option<SectorAddr> {
        let hi = hi.min(self.sectors);
        let from = if free { from.max(self.low) } else { from };
        if from >= hi {
            return None;
        }
        let flip = if free { 0 } else { u64::MAX };
        let mut w = from as usize / 64;
        let mut bits = (self.words[w] ^ flip) & (u64::MAX << (from % 64));
        loop {
            if bits != 0 {
                let a = (w * 64) as SectorAddr + bits.trailing_zeros();
                return (a < hi).then_some(a);
            }
            w += 1;
            if w * 64 >= hi as usize {
                return None;
            }
            bits = self.words[w] ^ flip;
        }
    }

    /// The last address in `[lo, hi)` that is free (`free`) or allocated
    /// (`!free`): [`Self::next_addr`] searching down from `hi`, and no
    /// further than the low-water mark for a free one.
    pub fn prev_addr(&self, free: bool, lo: SectorAddr, hi: SectorAddr) -> Option<SectorAddr> {
        let hi = hi.min(self.sectors);
        let lo = if free { lo.max(self.low) } else { lo };
        if lo >= hi {
            return None;
        }
        let flip = if free { 0 } else { u64::MAX };
        let last = hi - 1;
        let mut w = last as usize / 64;
        let mut bits = (self.words[w] ^ flip) & (u64::MAX >> (63 - last % 64));
        loop {
            if bits != 0 {
                let a = (w * 64) as SectorAddr + 63 - bits.leading_zeros();
                return (a >= lo).then_some(a);
            }
            if w * 64 <= lo as usize {
                return None;
            }
            w -= 1;
            bits = self.words[w] ^ flip;
        }
    }

    /// Returns `true` if every sector of `run` is free.
    pub fn is_free_run(&self, run: Run) -> bool {
        run.end() <= self.sectors && self.next_addr(false, run.start, run.end()).is_none()
    }

    /// The free extent starting at `start` (a free sector), cut at `hi`.
    fn extent_from(&self, start: SectorAddr, hi: SectorAddr) -> Run {
        let hi = hi.min(self.sectors);
        let end = self.next_addr(false, start, hi).unwrap_or(hi);
        Run::new(start, end - start)
    }

    /// The first run of `len` free sectors inside `[start, end)`.
    fn first_fit(&self, len: u32, start: SectorAddr, end: SectorAddr) -> Option<Run> {
        let mut at = start;
        while let Some(s) = self.next_addr(true, at, end) {
            let stop = s.checked_add(len).filter(|&e| e <= end)?;
            match self.next_addr(false, s, stop) {
                None => return Some(Run::new(s, len)),
                Some(taken) => at = taken,
            }
        }
        None
    }

    /// Finds a free run of exactly `len` sectors within `[lo, hi)`,
    /// scanning forward from `from` (clamped into the range). Returns the
    /// run without marking it allocated.
    pub fn find_free_run(
        &self,
        len: u32,
        lo: SectorAddr,
        hi: SectorAddr,
        from: SectorAddr,
    ) -> Option<Run> {
        let hi = hi.min(self.sectors);
        if len == 0 || lo >= hi {
            return None;
        }
        let from = from.clamp(lo, hi);
        self.first_fit(len, from, hi)
            .or_else(|| self.first_fit(len, lo, from.saturating_add(len).min(hi)))
    }

    /// Finds the free run of `len` sectors within `[lo, hi)` nearest `at`
    /// (clamped into the range): the first that starts at or after `at`,
    /// or the one that ends closest below it, whichever lies nearer —
    /// from `at` to its start, or from its end to `at` — and the lower on
    /// a tie. A run that straddles `at` is neither. With `at == lo` it is
    /// first fit from the front. Returns the run without marking it
    /// allocated.
    pub fn find_nearest_free_run(
        &self,
        len: u32,
        lo: SectorAddr,
        hi: SectorAddr,
        at: SectorAddr,
    ) -> Option<Run> {
        let hi = hi.min(self.sectors);
        if len == 0 || lo >= hi {
            return None;
        }
        let at = at.clamp(lo, hi);
        // Every run within `reach` of `at` lies in the window searched, so
        // the nearest found there is the nearest there is. The window
        // widens until it holds one, and a search costs the distance to
        // the run, not the length of the allocated space beyond it.
        let mut reach: u32 = 64;
        loop {
            let floor = at.saturating_sub(reach.saturating_add(len)).max(lo);
            let end = at.saturating_add(reach.saturating_add(len)).min(hi);
            let above = self.first_fit(len, at, end);
            match (self.find_last_free_run(len, floor, at), above) {
                (Some(b), Some(a)) if a.start - at < at - b.end() => return Some(a),
                (None, None) if (floor, end) != (lo, hi) => reach = reach.saturating_mul(4),
                (below, above) => return below.or(above),
            }
        }
    }

    /// Finds the free run of `len` sectors within `[lo, hi)` that ends
    /// closest to `hi` (big files grow down from the end of their area,
    /// §5.6). Returns the run without marking it allocated.
    pub fn find_last_free_run(&self, len: u32, lo: SectorAddr, hi: SectorAddr) -> Option<Run> {
        if len == 0 {
            return None;
        }
        let mut below = hi;
        while let Some(last) = self.prev_addr(true, lo, below) {
            let start = (last + 1).checked_sub(len).filter(|&s| s >= lo)?;
            match self.prev_addr(false, start, last) {
                None => return Some(Run::new(start, len)),
                Some(taken) => below = taken,
            }
        }
        None
    }

    /// Finds the *largest* free run within `[lo, hi)` of length at most
    /// `cap`: the first extent that reaches `cap`, else the first of the
    /// longest.
    pub fn find_largest_free_run(&self, lo: SectorAddr, hi: SectorAddr, cap: u32) -> Option<Run> {
        let mut best: Option<Run> = None;
        let mut at = lo;
        while let Some(s) = self.next_addr(true, at, hi) {
            let run = self.extent_from(s, hi.min(s.saturating_add(cap)));
            if run.len >= cap {
                return Some(run);
            }
            if run.len > best.map_or(0, |r| r.len) {
                best = Some(run);
            }
            at = run.end();
        }
        best
    }

    /// Counts free extents and the largest free extent in `[lo, hi)` —
    /// the fragmentation metrics for the allocator ablation (§5.6).
    pub fn fragmentation(&self, lo: SectorAddr, hi: SectorAddr) -> (u32, u32) {
        let (mut extents, mut largest) = (0, 0);
        let mut at = lo;
        while let Some(s) = self.next_addr(true, at, hi) {
            let run = self.extent_from(s, hi);
            extents += 1;
            largest = largest.max(run.len);
            at = run.end();
        }
        (extents, largest)
    }

    /// Serializes the bitmap (not the shadow — shadow state is volatile by
    /// definition) for the controlled-shutdown save (§5.5).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.words.len() * 8 + 4);
        out.extend_from_slice(&self.sectors.to_le_bytes());
        for w in &self.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Restores a bitmap saved by [`Self::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        if bytes.len() < 4 {
            return Err("VAM save truncated".into());
        }
        let sectors = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        let n = (sectors as usize).div_ceil(64);
        if bytes.len() < 4 + n * 8 {
            return Err("VAM save truncated".into());
        }
        let mut words = Vec::with_capacity(n);
        for i in 0..n {
            let at = 4 + i * 8;
            words.push(u64::from_le_bytes([
                bytes[at],
                bytes[at + 1],
                bytes[at + 2],
                bytes[at + 3],
                bytes[at + 4],
                bytes[at + 5],
                bytes[at + 6],
                bytes[at + 7],
            ]));
        }
        let free = words
            .iter()
            .enumerate()
            .map(|(i, w)| (w & in_volume(sectors, i)).count_ones())
            .sum();
        let mut vam = Self {
            words,
            sectors,
            shadow: vec![0; n],
            free,
            shadowed: 0,
            touched: Vec::new(),
            low: 0,
        };
        vam.low = vam.next_addr(true, 0, sectors).unwrap_or(sectors);
        Ok(vam)
    }
}

/// The bits of word `w` that stand for sectors of a `sectors`-sector
/// map: all of them but in a partial last word.
fn in_volume(sectors: u32, w: usize) -> u64 {
    let over = ((w as u64 + 1) * 64).saturating_sub(u64::from(sectors));
    u64::MAX
        .checked_shr(u32::try_from(over).unwrap_or(64))
        .unwrap_or(0)
}

/// A mask of `len` contiguous bits starting at `bit` (`bit + len ≤ 64`,
/// `len ≥ 1`).
fn mask(bit: u32, len: u32) -> u64 {
    let block = if len == 64 {
        u64::MAX
    } else {
        (1u64 << len) - 1
    };
    block << bit
}

/// Applies `f(index, word, mask)` for each 64-bit word `run` touches,
/// with `mask` selecting exactly the run's bits within that word — the
/// word-parallel loop shared by free, allocate, and shadow-free. A run
/// of S sectors costs ⌈S/64⌉ + 1 word operations instead of S bit
/// operations.
fn for_run_words(words: &mut [u64], run: Run, mut f: impl FnMut(usize, &mut u64, u64)) {
    let end = run.end();
    let mut a = run.start;
    while a < end {
        let word_end = (a / 64 + 1) * 64;
        let upto = end.min(word_end);
        let i = a as usize / 64;
        f(i, &mut words[i], mask(a % 64, upto - a));
        a = upto;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vam_with_free(sectors: u32, free: Run) -> Vam {
        let mut v = Vam::new_all_allocated(sectors);
        v.free_run(free);
        v
    }

    #[test]
    fn new_vam_is_fully_allocated() {
        let v = Vam::new_all_allocated(100);
        assert_eq!(v.free_count(), 0);
        assert!(!v.is_free(0));
    }

    #[test]
    fn free_then_allocate_roundtrip() {
        let mut v = Vam::new_all_allocated(100);
        v.free_run(Run::new(10, 5));
        assert_eq!(v.free_count(), 5);
        assert!(v.is_free(12));
        v.allocate_run(Run::new(10, 2));
        assert_eq!(v.free_count(), 3);
        assert!(!v.is_free(10));
        assert!(v.is_free(12));
    }

    #[test]
    fn find_free_run_scans_forward_with_wrap() {
        let mut v = Vam::new_all_allocated(128);
        v.free_run(Run::new(5, 3));
        v.free_run(Run::new(60, 10));
        // From 20, the forward scan finds 60.
        assert_eq!(v.find_free_run(4, 0, 128, 20), Some(Run::new(60, 4)));
        // A run of 3 from 70 wraps around to 5.
        assert_eq!(v.find_free_run(3, 0, 128, 70), Some(Run::new(5, 3)));
        // No run of 11 exists.
        assert_eq!(v.find_free_run(11, 0, 128, 0), None);
    }

    #[test]
    fn find_free_run_respects_bounds() {
        let v = vam_with_free(128, Run::new(5, 20));
        assert_eq!(v.find_free_run(4, 10, 128, 0), Some(Run::new(10, 4)));
        assert_eq!(v.find_free_run(4, 0, 8, 0), None); // Only 3 free below 8.
    }

    #[test]
    fn shadow_frees_not_allocatable_until_commit() {
        let mut v = Vam::new_all_allocated(64);
        v.shadow_free_run(Run::new(8, 4));
        assert_eq!(v.free_count(), 0);
        assert_eq!(v.shadow_count(), 4);
        assert_eq!(v.find_free_run(2, 0, 64, 0), None);
        v.commit_shadow();
        assert_eq!(v.free_count(), 4);
        assert_eq!(v.shadow_count(), 0);
        assert_eq!(v.find_free_run(2, 0, 64, 0), Some(Run::new(8, 2)));
    }

    #[test]
    fn last_free_run_ends_nearest_the_top() {
        let mut v = Vam::new_all_allocated(128);
        v.free_run(Run::new(5, 6));
        v.free_run(Run::new(60, 10));
        v.free_run(Run::new(100, 3));
        assert_eq!(v.find_last_free_run(3, 0, 128), Some(Run::new(100, 3)));
        assert_eq!(v.find_last_free_run(4, 0, 128), Some(Run::new(66, 4)));
        assert_eq!(v.find_last_free_run(4, 0, 68), Some(Run::new(64, 4)));
        assert_eq!(v.find_last_free_run(11, 0, 128), None);
        assert_eq!(v.find_last_free_run(6, 6, 128), Some(Run::new(64, 6)));
    }

    #[test]
    fn carried_shadow_is_allocated_until_it_commits() {
        let mut old = Vam::new_all_allocated(128);
        old.shadow_free_run(Run::new(60, 60));
        let mut rebuilt = Vam::new_all_allocated(128);
        rebuilt.free_run(Run::new(50, 78));
        rebuilt.carry_shadow_from(&old);
        assert_eq!((rebuilt.free_count(), rebuilt.shadow_count()), (18, 60));
        assert_eq!(rebuilt.find_free_run(11, 0, 128, 0), None);
        rebuilt.commit_shadow();
        assert_eq!(rebuilt.find_free_run(78, 0, 128, 0), Some(Run::new(50, 78)));
    }

    #[test]
    fn largest_free_run_found() {
        let mut v = Vam::new_all_allocated(128);
        v.free_run(Run::new(5, 3));
        v.free_run(Run::new(20, 9));
        v.free_run(Run::new(100, 6));
        assert_eq!(v.find_largest_free_run(0, 128, 100), Some(Run::new(20, 9)));
        // Cap short-circuits.
        assert_eq!(v.find_largest_free_run(0, 128, 2), Some(Run::new(5, 2)));
        // Empty region.
        assert_eq!(v.find_largest_free_run(40, 90, 10), None);
    }

    #[test]
    fn fragmentation_counts_extents() {
        let mut v = Vam::new_all_allocated(64);
        v.free_run(Run::new(0, 4));
        v.free_run(Run::new(10, 2));
        v.free_run(Run::new(62, 2));
        let (extents, largest) = v.fragmentation(0, 64);
        assert_eq!(extents, 3);
        assert_eq!(largest, 4);
    }

    #[test]
    fn save_restore_roundtrip() {
        let mut v = Vam::new_all_allocated(200);
        v.free_run(Run::new(3, 7));
        v.free_run(Run::new(150, 20));
        v.shadow_free_run(Run::new(100, 5)); // Volatile: not saved.
        let restored = Vam::from_bytes(&v.to_bytes()).unwrap();
        assert_eq!(restored.free_count(), v.free_count());
        assert_eq!(restored.shadow_count(), 0);
        assert!(restored.is_free(5));
        assert!(!restored.is_free(100));
    }

    #[test]
    fn mask_covers_word_boundaries() {
        assert_eq!(mask(0, 64), u64::MAX);
        assert_eq!(mask(0, 1), 1);
        assert_eq!(mask(63, 1), 1 << 63);
        assert_eq!(mask(4, 3), 0b111 << 4);
    }

    #[test]
    fn word_ops_cross_word_boundaries() {
        let mut v = Vam::new_all_allocated(256);
        // 60..=130 spans three words with partial ends.
        v.free_run(Run::new(60, 71));
        assert_eq!(v.free_count(), 71);
        assert!(!v.is_free(59));
        assert!(v.is_free(60));
        assert!(v.is_free(130));
        assert!(!v.is_free(131));
        v.allocate_run(Run::new(64, 64)); // exactly one full word
        assert_eq!(v.free_count(), 7);
        assert!(v.is_free(63));
        assert!(!v.is_free(64));
        assert!(!v.is_free(127));
        assert!(v.is_free(128));
    }

    #[test]
    fn from_bytes_rejects_truncation() {
        assert!(Vam::from_bytes(&[1, 2]).is_err());
        let v = Vam::new_all_allocated(200);
        let mut b = v.to_bytes();
        b.truncate(b.len() - 1);
        assert!(Vam::from_bytes(&b).is_err());
    }
}
