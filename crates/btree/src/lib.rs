//! A page-oriented B-tree over an abstract page store.
//!
//! Both Cedar file systems keep their file name table in a B-tree (§5.1 of
//! the paper). What differs is *how the pages reach the disk*:
//!
//! * **CFS** writes name-table pages synchronously and non-atomically — a
//!   crash in the middle of a split or join leaves the tree inconsistent,
//!   repaired only by the hour-long scavenge (§5.3);
//! * **FSD** applies updates to cached copies and writes the page images to
//!   a redo log, making multi-page updates atomic.
//!
//! This crate therefore separates the tree algorithms from page I/O: the
//! tree operates on a [`PageStore`], and each file system supplies a store
//! with its own durability semantics. Keys and values are arbitrary byte
//! strings ordered lexicographically; entries are variable length, as Cedar
//! file names are.

#![deny(unsafe_code)]

pub mod mem;
pub mod node;
pub mod store;
pub mod tree;

pub use mem::MemStore;
pub use node::{Node, MAX_ENTRY_FRACTION};
pub use store::{PageId, PageStore, StoreError};
pub use tree::{BTree, BTreeError, BuildEntry, CheckEntry, Entry, TakeEntry};

/// Result alias for tree operations.
pub type Result<T> = std::result::Result<T, BTreeError>;
