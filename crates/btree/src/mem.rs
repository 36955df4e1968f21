//! An in-memory page store for tests and for volatile structures.

use crate::store::{PageId, PageStore, StoreError};
use std::collections::HashMap;

/// A [`PageStore`] backed by a hash map. Used by unit tests and as the
/// model in property tests; also handy for building throwaway trees.
#[derive(Clone, Debug)]
pub struct MemStore {
    page_size: usize,
    pages: HashMap<PageId, Vec<u8>>,
    free: Vec<PageId>,
    next: PageId,
    /// Counters useful in tests: (reads, writes, allocs, frees).
    pub ops: (u64, u64, u64, u64),
}

impl MemStore {
    /// Creates an empty store with the given page size.
    pub fn new(page_size: usize) -> Self {
        Self {
            page_size,
            pages: HashMap::new(),
            free: Vec::new(),
            next: 0,
            ops: (0, 0, 0, 0),
        }
    }

    /// Number of live (allocated, not freed) pages.
    pub fn live_pages(&self) -> usize {
        self.pages.len()
    }
}

impl PageStore for MemStore {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn with_page<R>(&mut self, id: PageId, f: impl FnOnce(&[u8]) -> R) -> Result<R, StoreError> {
        self.ops.0 += 1;
        self.pages
            .get(&id)
            .map(|page| f(page))
            .ok_or_else(|| StoreError::Io(format!("page {id} not allocated")))
    }

    fn write_page(&mut self, id: PageId, data: &[u8]) -> Result<(), StoreError> {
        assert_eq!(data.len(), self.page_size);
        self.ops.1 += 1;
        self.pages.insert(id, data.to_vec());
        Ok(())
    }

    fn alloc_page(&mut self) -> Result<PageId, StoreError> {
        self.ops.2 += 1;
        let id = self.free.pop().unwrap_or_else(|| {
            let id = self.next;
            self.next += 1;
            id
        });
        self.pages.insert(id, vec![0; self.page_size]);
        Ok(id)
    }

    fn free_page(&mut self, id: PageId) -> Result<(), StoreError> {
        self.ops.3 += 1;
        if self.pages.remove(&id).is_none() {
            return Err(StoreError::Io(format!("double free of page {id}")));
        }
        self.free.push(id);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_write_read_roundtrip() {
        let mut s = MemStore::new(256);
        let id = s.alloc_page().unwrap();
        s.write_page(id, &vec![7u8; 256]).unwrap();
        assert_eq!(s.with_page(id, <[u8]>::to_vec).unwrap(), vec![7u8; 256]);
    }

    #[test]
    fn free_page_recycled() {
        let mut s = MemStore::new(64);
        let a = s.alloc_page().unwrap();
        s.free_page(a).unwrap();
        let b = s.alloc_page().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn double_free_is_error() {
        let mut s = MemStore::new(64);
        let a = s.alloc_page().unwrap();
        s.free_page(a).unwrap();
        assert!(s.free_page(a).is_err());
    }

    #[test]
    fn read_unallocated_is_error() {
        let mut s = MemStore::new(64);
        assert!(s.with_page(99, |_| ()).is_err());
    }
}
