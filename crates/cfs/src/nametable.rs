//! The CFS file name table: entry encoding and the write-through page
//! store.
//!
//! Per Table 1, a CFS name-table entry for a local file holds only the
//! text name, version, keep, uid and the header page 0 disk address — the
//! interesting properties (length, dates) and the run table live in the
//! header sectors. Listing files therefore costs a header *read per file*
//! (Table 3: "list 100 files" is 146 I/Os in CFS and 3 in FSD).
//!
//! The page store is deliberately fragile, as the original was: pages are
//! written straight to disk, multi-sector and non-atomic, so a crash can
//! tear a page or land between the writes of a B-tree split (§5.3).

use crate::error::CfsError;
use crate::layout::{BootPage, CfsLayout, NT_PAGE_BYTES, NT_PAGE_SECTORS};
use cedar_btree::{PageId, PageStore, StoreError};
use cedar_disk::{Cpu, DiskError, Label, PageKind, SimDisk};
use cedar_vol::codec::{Reader, Writer};
use std::collections::HashMap;

/// A name-table entry (the value under a `name!version` key).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NtEntry {
    /// The file's unique id.
    pub uid: u64,
    /// Disk address of header page 0.
    pub header_addr: u32,
    /// Number of old versions to keep.
    pub keep: u32,
}

impl NtEntry {
    /// Encodes the entry.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64(self.uid).u32(self.header_addr).u32(self.keep);
        w.into_bytes()
    }

    /// Decodes an entry.
    pub fn decode(bytes: &[u8]) -> Result<Self, CfsError> {
        let mut r = Reader::new(bytes);
        let bad = |m: String| CfsError::Corrupt(format!("name table entry: {m}"));
        Ok(Self {
            uid: r.u64().map_err(bad)?,
            header_addr: r.u32().map_err(bad)?,
            keep: r.u32().map_err(bad)?,
        })
    }
}

/// The expected labels of name-table page `page`.
pub fn nt_labels(page: PageId) -> Vec<Label> {
    (0..NT_PAGE_SECTORS)
        .map(|i| Label::new(0, page * NT_PAGE_SECTORS + i, PageKind::NameTable))
        .collect()
}

fn to_store_err(e: DiskError) -> StoreError {
    match e {
        DiskError::Crashed => StoreError::Crashed,
        other => StoreError::Io(other.to_string()),
    }
}

/// The CFS name-table page store: write-through, label-checked, cached
/// in memory for reads.
pub struct CfsNtStore<'a> {
    /// The disk.
    pub disk: &'a mut SimDisk,
    /// CPU charger.
    pub cpu: &'a Cpu,
    /// Volume layout (for page addresses).
    pub layout: &'a CfsLayout,
    /// Page cache (all pages; write-through keeps it coherent).
    pub cache: &'a mut HashMap<PageId, Vec<u8>>,
    /// The boot page, holding the name-table page bitmap.
    pub boot: &'a mut BootPage,
    /// Set when the boot page must be rewritten (bitmap changed).
    pub boot_dirty: &'a mut bool,
}

impl PageStore for CfsNtStore<'_> {
    fn page_size(&self) -> usize {
        NT_PAGE_BYTES
    }

    fn with_page<R>(&mut self, id: PageId, f: impl FnOnce(&[u8]) -> R) -> Result<R, StoreError> {
        self.cpu.btree_nodes(1);
        if let Some(page) = self.cache.get(&id) {
            return Ok(f(page));
        }
        let data = self
            .disk
            .read_checked(
                self.layout.nt_sector(id),
                NT_PAGE_SECTORS as usize,
                &nt_labels(id),
            )
            .map_err(to_store_err)?;
        Ok(f(self.cache.entry(id).or_insert(data)))
    }

    fn write_page(&mut self, id: PageId, data: &[u8]) -> Result<(), StoreError> {
        self.cpu.btree_nodes(1);
        // Write-through: the multi-sector write is the tearable operation
        // §5.3 describes.
        self.disk
            .write_checked(self.layout.nt_sector(id), data, &nt_labels(id))
            .map_err(to_store_err)?;
        self.cache.insert(id, data.to_vec());
        Ok(())
    }

    fn alloc_page(&mut self) -> Result<PageId, StoreError> {
        match self.boot.alloc_nt_page(self.layout.nt_pages) {
            Some(p) => {
                *self.boot_dirty = true;
                Ok(p)
            }
            None => Err(StoreError::Full),
        }
    }

    fn free_page(&mut self, id: PageId) -> Result<(), StoreError> {
        self.boot.free_nt_page(id);
        self.cache.remove(&id);
        *self.boot_dirty = true;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedar_disk::{CpuModel, DiskGeometry, SimClock};

    #[test]
    fn entry_roundtrip() {
        let e = NtEntry {
            uid: 77,
            header_addr: 1234,
            keep: 1,
        };
        assert_eq!(NtEntry::decode(&e.encode()).unwrap(), e);
    }

    #[test]
    fn entry_decode_rejects_truncation() {
        assert!(NtEntry::decode(&[1, 2, 3]).is_err());
    }

    #[test]
    fn nt_labels_number_sectors_consecutively() {
        let ls = nt_labels(2);
        assert_eq!(ls.len(), 4);
        assert_eq!(ls[0].page, 8);
        assert_eq!(ls[3].page, 11);
        assert!(ls.iter().all(|l| l.kind == PageKind::NameTable));
    }

    #[test]
    fn store_roundtrips_through_disk_and_cache() {
        let clock = SimClock::new();
        let mut disk = SimDisk::tiny();
        let cpu = Cpu::new(clock, CpuModel::FREE);
        let layout = CfsLayout::compute(&DiskGeometry::TINY, 8);
        let mut cache = HashMap::new();
        let mut boot = BootPage::new(layout.nt_pages);
        let mut dirty = false;
        // Label the NT region first, as format() does.
        for p in 0..layout.nt_pages {
            disk.write_labels(layout.nt_sector(p), &nt_labels(p), None)
                .unwrap();
        }
        let mut store = CfsNtStore {
            disk: &mut disk,
            cpu: &cpu,
            layout: &layout,
            cache: &mut cache,
            boot: &mut boot,
            boot_dirty: &mut dirty,
        };
        let id = store.alloc_page().unwrap();
        assert!(*store.boot_dirty);
        let page = vec![0xAB; NT_PAGE_BYTES];
        store.write_page(id, &page).unwrap();
        assert_eq!(store.with_page(id, <[u8]>::to_vec).unwrap(), page);
        // A second read hits the cache: no new disk ops.
        let reads_before = store.disk.stats().reads;
        store.with_page(id, |_| ()).unwrap();
        assert_eq!(store.disk.stats().reads, reads_before);
    }

    #[test]
    fn store_alloc_exhaustion_is_full() {
        let clock = SimClock::new();
        let mut disk = SimDisk::tiny();
        let cpu = Cpu::new(clock, CpuModel::FREE);
        let layout = CfsLayout::compute(&DiskGeometry::TINY, 8);
        let mut cache = HashMap::new();
        let mut boot = BootPage::new(layout.nt_pages);
        let mut dirty = false;
        let mut store = CfsNtStore {
            disk: &mut disk,
            cpu: &cpu,
            layout: &layout,
            cache: &mut cache,
            boot: &mut boot,
            boot_dirty: &mut dirty,
        };
        for _ in 0..8 {
            store.alloc_page().unwrap();
        }
        assert_eq!(store.alloc_page(), Err(StoreError::Full));
    }
}
