//! The page-store abstraction the B-tree runs on.

use std::fmt;

/// Identifier of a logical page within a store.
pub type PageId = u32;

/// Errors a page store can raise.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// The machine crashed mid-operation; the caller must unwind to
    /// recovery. Maps from `cedar_disk::DiskError::Crashed`.
    Crashed,
    /// The store is out of pages.
    Full,
    /// Any other I/O failure (bad sector with no surviving replica, etc.).
    Io(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Crashed => write!(f, "machine crashed"),
            Self::Full => write!(f, "page store is full"),
            Self::Io(msg) => write!(f, "page store I/O error: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// A store of fixed-size logical pages.
///
/// The B-tree reads and writes whole pages through this trait; allocation
/// of new pages (for splits) and freeing (for joins) also go through it.
/// Implementations decide durability: write-through (CFS), or
/// cache-then-log (FSD).
pub trait PageStore {
    /// Size in bytes of every logical page in this store.
    fn page_size(&self) -> usize;

    /// Reads a page and hands it to `f` in place: the bytes are exactly
    /// [`Self::page_size`] long and are borrowed, not copied, wherever
    /// the store holds the page. One call is one page read, whatever
    /// `f` does with it.
    fn with_page<R>(&mut self, id: PageId, f: impl FnOnce(&[u8]) -> R) -> Result<R, StoreError>;

    /// Writes a page. `data` is exactly [`Self::page_size`] bytes.
    fn write_page(&mut self, id: PageId, data: &[u8]) -> Result<(), StoreError>;

    /// Allocates a fresh page and returns its id. Its contents are
    /// unspecified until first written.
    fn alloc_page(&mut self) -> Result<PageId, StoreError>;

    /// Returns a page to the free pool.
    fn free_page(&mut self, id: PageId) -> Result<(), StoreError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(StoreError::Crashed.to_string(), "machine crashed");
        assert_eq!(StoreError::Full.to_string(), "page store is full");
        assert!(StoreError::Io("x".into()).to_string().contains('x'));
    }
}
