//! The name-table page cache and its logged page store.
//!
//! "Updates are applied to buffered copies of pages, but the copies are
//! not forced to disk — they are just written to the log." (§5.3). This
//! module provides:
//!
//! * [`NtCache`] — cached name-table pages. Each page tracks its current
//!   image, the *baseline* (the image as of its last log force or home
//!   write — what the group-commit code diffs against to log only changed
//!   sectors), which third of the log its newest log copy lives in, and
//!   whether the home copies on disk are stale;
//! * [`NtMeta`] — name-table logical page 0: the B-tree root pointer and
//!   the page-allocation bitmap. It travels through the same cache and
//!   log as every other page, which is what makes multi-page tree updates
//!   atomic;
//! * [`FsdNtStore`] — the [`PageStore`] the B-tree runs on: a miss
//!   falls through to the double-written home copies ("When a page is
//!   read, both copies are read and checked", §5.1) — the one reader of
//!   replicated structures, `spare::read_replicated`, with the page's
//!   [`crate::layout::Replicated`] pair and, after a boot, the sector
//!   images the log still owes it (`NtCache::owed`); writes touch only
//!   the cache and the pending-commit set.

use crate::layout::FsdLayout;
use crate::spare::{self, SpareMap};
use crate::{NT_PAGE_BYTES, NT_PAGE_SECTORS};
use cedar_btree::{PageId, PageStore, StoreError};
use cedar_disk::scan;
use cedar_disk::sched::IoPolicy;
use cedar_disk::{Cpu, DiskError, SectorAddr, SimDisk, SECTOR_BYTES};
use cedar_vol::codec::{Reader, Writer};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Name-table sector images a boot found in the log and no home write
/// has caught up with, by home sector (both copies of each), each with
/// the third its newest record starts in.
pub(crate) type OwedImages = BTreeMap<SectorAddr, (Vec<u8>, u8)>;

/// Magic number identifying the name-table meta page.
pub const NT_META_MAGIC: u32 = 0xF5D_3E7B;

/// Bytes of header (magic, root, word count) at the front of meta page 0.
const NT_META_HEADER_BYTES: usize = 10;

/// Bitmap words that fit in meta page 0 after the header.
pub const NT_META_P0_WORDS: usize = (NT_PAGE_BYTES - NT_META_HEADER_BYTES) / 8;

/// Bitmap words per continuation meta page (raw `u64`s, no header).
pub const NT_META_CONT_WORDS: usize = NT_PAGE_BYTES / 8;

/// A cached name-table page.
#[derive(Clone, Debug)]
pub struct CachedPage {
    /// Current content (may include uncommitted updates).
    pub image: Vec<u8>,
    /// Content as of the last log force or home write; `None` means the
    /// page was freshly allocated and every sector must be logged at the
    /// next force.
    pub baseline: Option<Vec<u8>>,
    /// The log third holding the page's newest log copy, if any.
    pub last_logged_third: Option<u8>,
    /// `true` when logged changes have not yet been written to the home
    /// copies.
    pub needs_home: bool,
}

/// The name-table page cache.
///
/// Unbounded: a page read or written stays resident until it is freed,
/// so "the 'dirty but logged' pages are kept in the cache" (§5.3).
#[derive(Debug, Default)]
pub struct NtCache {
    /// Cached pages by logical page id.
    pub pages: HashMap<PageId, CachedPage>,
    /// What the resumed log still owes the homes: a page read from them
    /// has these laid over it, and each goes home when the writer enters
    /// its third — unless its page went home whole first, or a later
    /// record logged the sector again.
    pub(crate) owed: OwedImages,
    /// Pages freed since the last force whose logged image had not gone
    /// home, with that image and the third holding it: the committed tree
    /// points at them until the force that logs the free commits, so a
    /// third entry inside that force still writes them home.
    pub(crate) freed: BTreeMap<PageId, (Vec<u8>, u8)>,
}

impl NtCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The name-table meta as last committed — decoded from the meta
    /// pages' baselines — if every one of them is cached (the thirds
    /// auditor's view of which pages the committed tree uses).
    #[cfg(debug_assertions)]
    pub(crate) fn committed_meta(&self, nt_pages: u32) -> Option<NtMeta> {
        let pages = (0..NtMeta::meta_pages_for(nt_pages) as PageId)
            .map(|id| self.pages.get(&id)?.baseline.clone())
            .collect::<Option<Vec<_>>>()?;
        NtMeta::decode_pages(&pages).ok()
    }
}

/// The decoded name-table meta record (logical page 0 and, on volumes
/// whose allocation bitmap outgrows one page, raw continuation pages
/// 1..K — all pre-marked allocated so the tree never claims them).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NtMeta {
    /// Root page of the name-table B-tree (always in page 0, at a fixed
    /// byte offset, so root-only readers never need the full bitmap).
    pub root: u32,
    /// Page-allocation bitmap (bit set ⇒ page in use; bits 0..K cover
    /// the meta pages themselves).
    pub bitmap: Vec<u64>,
}

impl NtMeta {
    /// Meta pages needed for a bitmap of `words` `u64` words.
    pub fn meta_pages_for_words(words: usize) -> usize {
        1 + words
            .saturating_sub(NT_META_P0_WORDS)
            .div_ceil(NT_META_CONT_WORDS)
    }

    /// Meta pages needed for a volume with `nt_pages` logical pages.
    pub fn meta_pages_for(nt_pages: u32) -> usize {
        Self::meta_pages_for_words((nt_pages as usize).div_ceil(64))
    }

    /// Meta pages this instance occupies.
    pub fn meta_pages(&self) -> usize {
        Self::meta_pages_for_words(self.bitmap.len())
    }

    /// Index of the meta page holding bitmap word `w`.
    pub fn meta_page_of_word(w: usize) -> usize {
        if w < NT_META_P0_WORDS {
            0
        } else {
            1 + (w - NT_META_P0_WORDS) / NT_META_CONT_WORDS
        }
    }

    /// A fresh meta record for `nt_pages` logical pages, with only the
    /// meta pages themselves allocated.
    pub fn new(nt_pages: u32) -> Self {
        let words = (nt_pages as usize).div_ceil(64);
        let mut bitmap = vec![0u64; words];
        for page in 0..Self::meta_pages_for_words(words) as u32 {
            bitmap[page as usize / 64] |= 1 << (page % 64);
        }
        Self { root: 0, bitmap }
    }

    /// Encodes a single-page meta into a full name-table page. Panics if
    /// the bitmap spills past page 0 — use [`NtMeta::encode_pages`] then.
    pub fn encode(&self) -> Vec<u8> {
        assert_eq!(self.meta_pages(), 1, "NT meta overflow — use encode_pages");
        self.encode_pages().swap_remove(0)
    }

    /// Encodes into one page image per meta page: page 0 carries the
    /// header plus the first [`NT_META_P0_WORDS`] words, continuation
    /// pages carry raw words (no word ever spans a page boundary).
    pub fn encode_pages(&self) -> Vec<Vec<u8>> {
        let mut pages = Vec::with_capacity(self.meta_pages());
        let head = self.bitmap.len().min(NT_META_P0_WORDS);
        let mut w = Writer::new();
        // The word count is bounded far below `u16::MAX` by the layout
        // (a saturated count would fail `decode_pages`'s page-count
        // check loudly rather than alias a smaller bitmap).
        w.u32(NT_META_MAGIC)
            .u32(self.root)
            .u16(u16::try_from(self.bitmap.len()).unwrap_or(u16::MAX));
        for word in &self.bitmap[..head] {
            w.u64(*word);
        }
        let mut p0 = w.into_bytes();
        p0.resize(NT_PAGE_BYTES, 0);
        pages.push(p0);
        for chunk in self.bitmap[head..].chunks(NT_META_CONT_WORDS) {
            let mut w = Writer::new();
            for word in chunk {
                w.u64(*word);
            }
            let mut p = w.into_bytes();
            p.resize(NT_PAGE_BYTES, 0);
            pages.push(p);
        }
        pages
    }

    /// Decodes a single-page meta from a name-table page.
    pub fn decode(bytes: &[u8]) -> Result<Self, String> {
        Self::decode_pages(std::slice::from_ref(&bytes.to_vec()))
    }

    /// Decodes from meta page images (page 0 first, then continuations).
    pub fn decode_pages(pages: &[Vec<u8>]) -> Result<Self, String> {
        let p0 = pages.first().ok_or_else(|| "empty NT meta".to_string())?;
        let mut r = Reader::new(p0);
        if r.u32()? != NT_META_MAGIC {
            return Err("bad NT meta magic".into());
        }
        let root = r.u32()?;
        let words = r.u16()? as usize;
        let need = Self::meta_pages_for_words(words);
        if pages.len() < need {
            return Err(format!(
                "NT meta: {words}-word bitmap spans {need} pages, got {}",
                pages.len()
            ));
        }
        let mut bitmap = Vec::with_capacity(words);
        for _ in 0..words.min(NT_META_P0_WORDS) {
            bitmap.push(r.u64()?);
        }
        for page in pages[1..need].iter() {
            let take = (words - bitmap.len()).min(NT_META_CONT_WORDS);
            let mut r = Reader::new(page);
            for _ in 0..take {
                bitmap.push(r.u64()?);
            }
        }
        Ok(Self { root, bitmap })
    }

    /// Reads just the root pointer from meta page 0. Valid whatever the
    /// bitmap's page span — the header never leaves page 0.
    pub fn decode_root(bytes: &[u8]) -> Result<u32, String> {
        let mut r = Reader::new(bytes);
        if r.u32()? != NT_META_MAGIC {
            return Err("bad NT meta magic".into());
        }
        r.u32()
    }

    /// Allocates a page from the bitmap.
    pub fn alloc(&mut self, nt_pages: u32) -> Option<u32> {
        for page in 1..nt_pages {
            let (w, b) = (page as usize / 64, page % 64);
            if self.bitmap[w] >> b & 1 == 0 {
                self.bitmap[w] |= 1 << b;
                return Some(page);
            }
        }
        None
    }

    /// Frees a page in the bitmap.
    pub fn free(&mut self, page: u32) {
        assert_ne!(page, 0, "cannot free the meta page");
        let (w, b) = (page as usize / 64, page % 64);
        self.bitmap[w] &= !(1 << b);
    }

    /// Returns `true` if the page is allocated.
    pub fn in_use(&self, page: u32) -> bool {
        let (w, b) = (page as usize / 64, page % 64);
        self.bitmap[w] >> b & 1 == 1
    }
}

fn to_store_err(e: DiskError) -> StoreError {
    match e {
        DiskError::Crashed => StoreError::Crashed,
        other => StoreError::Io(other.to_string()),
    }
}

/// The logged page store backing the FSD name-table B-tree.
pub struct FsdNtStore<'a> {
    /// The disk (reads, plus scrub rewrites of damaged replica sectors).
    pub disk: &'a mut SimDisk,
    /// CPU charger.
    pub cpu: &'a Cpu,
    /// Volume layout.
    pub layout: &'a FsdLayout,
    /// I/O policy for scrub rewrites.
    pub policy: IoPolicy,
    /// Bad-sector remap table: reads translate through it, and a scrub
    /// whose rewrite fails grows it.
    pub spare: &'a mut SpareMap,
    /// The page cache.
    pub cache: &'a mut NtCache,
    /// Pages dirtied since the last group commit.
    pub pending: &'a mut BTreeSet<PageId>,
}

impl FsdNtStore<'_> {
    /// Reads a page through the cache, falling back to the home copies.
    pub fn read_through(&mut self, id: PageId) -> Result<Vec<u8>, StoreError> {
        self.visit(id, <[u8]>::to_vec)
    }

    /// Hands page `id`'s image to `f`, borrowed from the cache — read
    /// from the home copies and cached first on a miss.
    fn visit<R>(&mut self, id: PageId, f: impl FnOnce(&[u8]) -> R) -> Result<R, StoreError> {
        if let Some(p) = self.cache.pages.get(&id) {
            return Ok(f(&p.image));
        }
        // "When a page is read, both copies are read and checked", the
        // sector images the log still owes the page laid over them. A
        // repair that could not stick (spare slots exhausted) is left to
        // the page's next home write.
        let (image, needs_home) = spare::read_replicated(
            self.disk,
            self.policy,
            self.spare,
            self.layout.nt_pair(id),
            Some(&self.cache.owed),
            |image| Some(image.to_vec()),
        )
        .map_err(|e| {
            if e.is_crash() {
                StoreError::Crashed
            } else {
                StoreError::Io(format!("page {id}: {e}"))
            }
        })?;
        let out = f(&image);
        self.cache.pages.insert(
            id,
            CachedPage {
                baseline: Some(image.clone()),
                image,
                last_logged_third: None,
                needs_home,
            },
        );
        Ok(out)
    }

    /// Batch-reads the home copies of `ids` into the cache with large
    /// coalesced transfers — the recovery-scan fast path for whole-table
    /// walks such as the VAM rebuild, replacing two seek+rotate round
    /// trips per page with one scheduled sweep per copy. Pages already
    /// cached, pages the log still owes a sector image, pages with
    /// sectors remapped into the spare region, and pages damaged in
    /// either copy are left to the usual dual-copy
    /// [`FsdNtStore::read_through`], which overlays, checks and scrubs
    /// on demand.
    pub fn prefetch_pages(&mut self, ids: &[PageId]) -> Result<(), StoreError> {
        let remapped: std::collections::HashSet<u32> = self
            .spare
            .entries()
            .iter()
            .map(|&(logical, _)| logical)
            .collect();
        let mut want: Vec<PageId> = ids
            .iter()
            .copied()
            .filter(|id| !self.cache.pages.contains_key(id))
            .filter(|&id| {
                (0..NT_PAGE_SECTORS).all(|i| {
                    let (a, b) = (
                        self.layout.nt_a_sector(id) + i,
                        self.layout.nt_b_sector(id) + i,
                    );
                    !remapped.contains(&a)
                        && !remapped.contains(&b)
                        && !self.cache.owed.contains_key(&a)
                })
            })
            .collect();
        want.sort_unstable();
        want.dedup();
        if want.is_empty() {
            return Ok(());
        }
        // One range per contiguous page run, per copy: reads never
        // conflict, so the whole batch is a single barrier-free window
        // the scheduler services nearest-first.
        let mut runs: Vec<(usize, usize)> = Vec::new(); // (index into want, pages)
        for (i, &id) in want.iter().enumerate() {
            match runs.last_mut() {
                Some((s, n)) if want[*s] + *n as u32 == id => *n += 1,
                _ => runs.push((i, 1)),
            }
        }
        let mut ranges: Vec<(u32, usize)> = Vec::with_capacity(runs.len() * 2);
        for &(s, n) in &runs {
            ranges.push((
                self.layout.nt_a_sector(want[s]),
                n * NT_PAGE_SECTORS as usize,
            ));
        }
        for &(s, n) in &runs {
            ranges.push((
                self.layout.nt_b_sector(want[s]),
                n * NT_PAGE_SECTORS as usize,
            ));
        }
        let chunks = scan::read_chunks(self.disk, self.policy, &ranges).map_err(to_store_err)?;
        let (a_chunks, b_chunks) = chunks.split_at(runs.len());
        for (ri, &(s, n)) in runs.iter().enumerate() {
            let (a, b) = (&a_chunks[ri], &b_chunks[ri]);
            // The chunk shapes came back from the I/O layer; a short one
            // would slice out of bounds below. Skip it — `read_through`
            // salvages on demand.
            let need = n * NT_PAGE_SECTORS as usize;
            if a.sectors() != need
                || b.sectors() != need
                || a.bytes.len() != need * SECTOR_BYTES
                || b.bytes.len() != need * SECTOR_BYTES
            {
                continue;
            }
            for j in 0..n {
                let lo = j * NT_PAGE_SECTORS as usize;
                let hi = lo + NT_PAGE_SECTORS as usize;
                if a.damaged[lo..hi].iter().any(|&d| d) || b.damaged[lo..hi].iter().any(|&d| d) {
                    continue; // read_through will salvage and scrub.
                }
                let image = a.bytes[lo * SECTOR_BYTES..hi * SECTOR_BYTES].to_vec();
                self.cache.pages.insert(
                    want[s + j],
                    CachedPage {
                        image: image.clone(),
                        baseline: Some(image),
                        last_logged_third: None,
                        needs_home: false,
                    },
                );
            }
        }
        Ok(())
    }

    /// Reads and decodes the full (possibly multi-page) NT meta.
    pub fn read_meta(&mut self) -> Result<NtMeta, StoreError> {
        let k = NtMeta::meta_pages_for(self.layout.nt_pages);
        let mut pages = Vec::with_capacity(k);
        for id in 0..k as u32 {
            pages.push(self.read_through(id)?);
        }
        NtMeta::decode_pages(&pages).map_err(StoreError::Io)
    }

    /// Writes every meta page back (cache-only, like any page write).
    pub fn write_meta(&mut self, meta: &NtMeta) -> Result<(), StoreError> {
        for (id, page) in meta.encode_pages().into_iter().enumerate() {
            self.write_page(id as u32, &page)?;
        }
        Ok(())
    }
}

impl PageStore for FsdNtStore<'_> {
    fn page_size(&self) -> usize {
        NT_PAGE_BYTES
    }

    fn with_page<R>(&mut self, id: PageId, f: impl FnOnce(&[u8]) -> R) -> Result<R, StoreError> {
        self.cpu.btree_nodes(1);
        self.visit(id, f)
    }

    fn write_page(&mut self, id: PageId, data: &[u8]) -> Result<(), StoreError> {
        self.cpu.btree_nodes(1);
        // No disk write: updates live in the cache until group commit
        // logs them (§5.3).
        match self.cache.pages.get_mut(&id) {
            Some(p) => p.image = data.to_vec(),
            None => {
                self.cache.pages.insert(
                    id,
                    CachedPage {
                        image: data.to_vec(),
                        baseline: None, // Fresh page: log every sector.
                        last_logged_third: None,
                        needs_home: false,
                    },
                );
            }
        }
        self.pending.insert(id);
        Ok(())
    }

    fn alloc_page(&mut self) -> Result<PageId, StoreError> {
        let mut meta = self.read_meta()?;
        let page = meta.alloc(self.layout.nt_pages).ok_or(StoreError::Full)?;
        // Only the meta page holding the flipped bit is dirtied.
        let idx = NtMeta::meta_page_of_word(page as usize / 64);
        let image = meta.encode_pages().swap_remove(idx);
        self.write_page(idx as u32, &image)?;
        Ok(page)
    }

    fn free_page(&mut self, id: PageId) -> Result<(), StoreError> {
        let mut meta = self.read_meta()?;
        meta.free(id);
        let idx = NtMeta::meta_page_of_word(id as usize / 64);
        let image = meta.encode_pages().swap_remove(idx);
        self.write_page(idx as u32, &image)?;
        if let Some(p) = self.cache.pages.remove(&id) {
            if let (true, Some(image), Some(third)) =
                (p.needs_home, p.baseline, p.last_logged_third)
            {
                self.cache.freed.insert(id, (image, third));
            }
        }
        self.pending.remove(&id);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedar_disk::{CpuModel, DiskGeometry};

    fn setup() -> (SimDisk, Cpu, FsdLayout) {
        let disk = SimDisk::tiny();
        let cpu = Cpu::new(disk.clock(), CpuModel::FREE);
        let layout = FsdLayout::compute(&DiskGeometry::TINY, 16, 128);
        (disk, cpu, layout)
    }

    #[test]
    fn meta_roundtrip_and_alloc() {
        let mut m = NtMeta::new(100);
        assert!(m.in_use(0));
        let p = m.alloc(100).unwrap();
        assert_eq!(p, 1);
        m.root = 7;
        let decoded = NtMeta::decode(&m.encode()).unwrap();
        assert_eq!(decoded, m);
        assert!(decoded.in_use(1));
    }

    #[test]
    fn meta_multi_page_roundtrip() {
        // 20 000 pages → 313 bitmap words → 3 meta pages.
        let mut m = NtMeta::new(20_000);
        assert_eq!(m.meta_pages(), 3);
        for p in 0..3 {
            assert!(m.in_use(p), "meta page {p} must be pre-allocated");
        }
        assert_eq!(m.alloc(20_000), Some(3));
        // Claim a page whose bitmap word lives on a continuation page.
        let far = 19_999;
        let (w, b) = (far as usize / 64, far % 64);
        m.bitmap[w] |= 1 << b;
        m.root = 9;
        let pages = m.encode_pages();
        assert_eq!(pages.len(), 3);
        let decoded = NtMeta::decode_pages(&pages).unwrap();
        assert_eq!(decoded, m);
        assert!(decoded.in_use(far));
        assert_eq!(NtMeta::decode_root(&pages[0]).unwrap(), 9);
        assert_eq!(NtMeta::meta_page_of_word(w), 2);
        // Page 0 alone is enough for the root but not the bitmap.
        assert!(NtMeta::decode_pages(&pages[..1]).is_err());
    }

    #[test]
    fn meta_single_page_layout_unchanged() {
        // Small volumes keep the one-page encoding bit for bit.
        let m = NtMeta::new(128);
        assert_eq!(m.meta_pages(), 1);
        assert_eq!(m.encode(), m.encode_pages().remove(0));
    }

    #[test]
    fn meta_free_and_exhaustion() {
        let mut m = NtMeta::new(3);
        assert_eq!(m.alloc(3), Some(1));
        assert_eq!(m.alloc(3), Some(2));
        assert_eq!(m.alloc(3), None);
        m.free(1);
        assert_eq!(m.alloc(3), Some(1));
    }

    #[test]
    fn writes_do_not_touch_disk() {
        let (mut disk, cpu, layout) = setup();
        let mut cache = NtCache::new();
        let mut pending = BTreeSet::new();
        let mut spare = SpareMap::for_layout(&layout);
        let mut store = FsdNtStore {
            disk: &mut disk,
            cpu: &cpu,
            layout: &layout,
            policy: IoPolicy::InOrder,
            spare: &mut spare,
            cache: &mut cache,
            pending: &mut pending,
        };
        store.write_page(3, &vec![7u8; NT_PAGE_BYTES]).unwrap();
        assert_eq!(store.disk.stats().writes, 0);
        assert!(store.pending.contains(&3));
        assert_eq!(
            store.with_page(3, <[u8]>::to_vec).unwrap(),
            vec![7u8; NT_PAGE_BYTES]
        );
        // Fresh page: baseline None → everything logs at next force.
        assert!(store.cache.pages[&3].baseline.is_none());
    }

    #[test]
    fn miss_reads_both_copies() {
        let (mut disk, cpu, layout) = setup();
        disk.write(layout.nt_a_sector(2), &vec![5u8; NT_PAGE_BYTES])
            .unwrap();
        disk.write(layout.nt_b_sector(2), &vec![5u8; NT_PAGE_BYTES])
            .unwrap();
        let mut cache = NtCache::new();
        let mut pending = BTreeSet::new();
        let mut spare = SpareMap::for_layout(&layout);
        let mut store = FsdNtStore {
            disk: &mut disk,
            cpu: &cpu,
            layout: &layout,
            policy: IoPolicy::InOrder,
            spare: &mut spare,
            cache: &mut cache,
            pending: &mut pending,
        };
        let before = store.disk.stats().reads;
        assert_eq!(
            store.with_page(2, <[u8]>::to_vec).unwrap(),
            vec![5u8; NT_PAGE_BYTES]
        );
        assert_eq!(store.disk.stats().reads - before, 2);
        // Second read hits the cache.
        let before = store.disk.stats().reads;
        store.with_page(2, |_| ()).unwrap();
        assert_eq!(store.disk.stats().reads, before);
    }

    #[test]
    fn damaged_copy_a_read_from_b() {
        let (mut disk, cpu, layout) = setup();
        disk.write(layout.nt_a_sector(2), &vec![1u8; NT_PAGE_BYTES])
            .unwrap();
        disk.write(layout.nt_b_sector(2), &vec![1u8; NT_PAGE_BYTES])
            .unwrap();
        disk.damage_sector(layout.nt_a_sector(2));
        let mut cache = NtCache::new();
        let mut pending = BTreeSet::new();
        let mut spare = SpareMap::for_layout(&layout);
        let mut store = FsdNtStore {
            disk: &mut disk,
            cpu: &cpu,
            layout: &layout,
            policy: IoPolicy::InOrder,
            spare: &mut spare,
            cache: &mut cache,
            pending: &mut pending,
        };
        assert_eq!(
            store.with_page(2, <[u8]>::to_vec).unwrap(),
            vec![1u8; NT_PAGE_BYTES]
        );
        // The damaged copy was scrubbed from its twin on the spot: no
        // pending home write remains and copy A reads clean again.
        assert!(!store.cache.pages[&2].needs_home);
        assert_eq!(store.spare.scrubbed, 1);
        assert_eq!(
            store.disk.read(layout.nt_a_sector(2), 1).unwrap(),
            vec![1u8; cedar_disk::SECTOR_BYTES]
        );
    }

    #[test]
    fn grown_defect_under_nt_read_is_remapped() {
        let (mut disk, cpu, layout) = setup();
        disk.write(layout.nt_a_sector(2), &vec![1u8; NT_PAGE_BYTES])
            .unwrap();
        disk.write(layout.nt_b_sector(2), &vec![1u8; NT_PAGE_BYTES])
            .unwrap();
        // A permanently dead sector in copy A: the scrub rewrite fails
        // too, so the sector is remapped into the spare region.
        disk.hard_damage_sector(layout.nt_a_sector(2));
        let mut cache = NtCache::new();
        let mut pending = BTreeSet::new();
        let mut spare = SpareMap::for_layout(&layout);
        let mut store = FsdNtStore {
            disk: &mut disk,
            cpu: &cpu,
            layout: &layout,
            policy: IoPolicy::InOrder,
            spare: &mut spare,
            cache: &mut cache,
            pending: &mut pending,
        };
        assert_eq!(
            store.with_page(2, <[u8]>::to_vec).unwrap(),
            vec![1u8; NT_PAGE_BYTES]
        );
        assert!(!store.cache.pages[&2].needs_home);
        assert_eq!(store.spare.remapped, 1);
        assert_eq!(
            store.spare.translate(layout.nt_a_sector(2)),
            layout.spare_start
        );
        // A fresh store built over the same spare map reads the page back
        // whole through the remap table.
        store.cache.pages.clear();
        assert_eq!(
            store.with_page(2, <[u8]>::to_vec).unwrap(),
            vec![1u8; NT_PAGE_BYTES]
        );
    }

    #[test]
    fn cross_copy_sector_salvage() {
        let (mut disk, cpu, layout) = setup();
        disk.write(layout.nt_a_sector(2), &vec![1u8; NT_PAGE_BYTES])
            .unwrap();
        disk.write(layout.nt_b_sector(2), &vec![1u8; NT_PAGE_BYTES])
            .unwrap();
        // Different sectors damaged in each copy: salvage combines them.
        disk.damage_sector(layout.nt_a_sector(2));
        disk.damage_sector(layout.nt_b_sector(2) + 1);
        let mut cache = NtCache::new();
        let mut pending = BTreeSet::new();
        let mut spare = SpareMap::for_layout(&layout);
        let mut store = FsdNtStore {
            disk: &mut disk,
            cpu: &cpu,
            layout: &layout,
            policy: IoPolicy::InOrder,
            spare: &mut spare,
            cache: &mut cache,
            pending: &mut pending,
        };
        assert_eq!(
            store.with_page(2, <[u8]>::to_vec).unwrap(),
            vec![1u8; NT_PAGE_BYTES]
        );
    }

    #[test]
    fn same_sector_lost_in_both_copies_is_io_error() {
        let (mut disk, cpu, layout) = setup();
        disk.damage_sector(layout.nt_a_sector(2));
        disk.damage_sector(layout.nt_b_sector(2));
        let mut cache = NtCache::new();
        let mut pending = BTreeSet::new();
        let mut spare = SpareMap::for_layout(&layout);
        let mut store = FsdNtStore {
            disk: &mut disk,
            cpu: &cpu,
            layout: &layout,
            policy: IoPolicy::InOrder,
            spare: &mut spare,
            cache: &mut cache,
            pending: &mut pending,
        };
        assert!(matches!(store.with_page(2, |_| ()), Err(StoreError::Io(_))));
    }

    #[test]
    fn alloc_free_through_meta_page() {
        let (mut disk, cpu, layout) = setup();
        let mut cache = NtCache::new();
        let mut pending = BTreeSet::new();
        let mut spare = SpareMap::for_layout(&layout);
        let mut store = FsdNtStore {
            disk: &mut disk,
            cpu: &cpu,
            layout: &layout,
            policy: IoPolicy::InOrder,
            spare: &mut spare,
            cache: &mut cache,
            pending: &mut pending,
        };
        // Seed the meta page in cache (as format does).
        store.write_page(0, &NtMeta::new(16).encode()).unwrap();
        let p = store.alloc_page().unwrap();
        assert_eq!(p, 1);
        let meta = NtMeta::decode(&store.with_page(0, <[u8]>::to_vec).unwrap()).unwrap();
        assert!(meta.in_use(1));
        store.free_page(p).unwrap();
        let meta = NtMeta::decode(&store.with_page(0, <[u8]>::to_vec).unwrap()).unwrap();
        assert!(!meta.in_use(1));
        // All of that happened without any disk writes.
        assert_eq!(store.disk.stats().writes, 0);
    }
}
