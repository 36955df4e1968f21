//! CFS error type.

use cedar_btree::BTreeError;
use cedar_disk::DiskError;
use cedar_vol::AllocError;
use std::fmt;

/// Errors from CFS operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CfsError {
    /// Underlying disk failure (including label mismatches and crashes).
    Disk(DiskError),
    /// The name table is structurally damaged — the condition that forces
    /// a scavenge.
    Corrupt(String),
    /// No such file.
    NotFound(String),
    /// A file with this name and version already exists.
    Exists(String),
    /// The volume is out of space.
    NoSpace,
    /// Invalid file name.
    BadName(String),
    /// Page number beyond the end of the file.
    OutOfRange {
        /// Requested logical page.
        page: u32,
        /// File length in pages.
        pages: u32,
    },
}

impl CfsError {
    /// Returns `true` if the error is the machine crashing (the caller
    /// should unwind to recovery, not report a failure).
    pub fn is_crash(&self) -> bool {
        matches!(self, Self::Disk(DiskError::Crashed))
    }
}

impl fmt::Display for CfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Disk(e) => write!(f, "disk: {e}"),
            Self::Corrupt(m) => write!(f, "name table corrupt (scavenge needed): {m}"),
            Self::NotFound(n) => write!(f, "file not found: {n}"),
            Self::Exists(n) => write!(f, "file exists: {n}"),
            Self::NoSpace => write!(f, "volume full"),
            Self::BadName(m) => write!(f, "bad file name: {m}"),
            Self::OutOfRange { page, pages } => {
                write!(f, "page {page} out of range (file has {pages})")
            }
        }
    }
}

impl std::error::Error for CfsError {}

impl From<DiskError> for CfsError {
    fn from(e: DiskError) -> Self {
        Self::Disk(e)
    }
}

impl From<BTreeError> for CfsError {
    fn from(e: BTreeError) -> Self {
        match e {
            BTreeError::Store(cedar_btree::StoreError::Crashed) => Self::Disk(DiskError::Crashed),
            BTreeError::Store(cedar_btree::StoreError::Full) => Self::NoSpace,
            BTreeError::Store(s) => Self::Corrupt(format!("name table store: {s}")),
            BTreeError::Corrupt(m) => Self::Corrupt(m),
            BTreeError::EntryTooLarge { size, max } => {
                Self::BadName(format!("entry too large: {size} > {max}"))
            }
        }
    }
}

impl From<AllocError> for CfsError {
    fn from(_: AllocError) -> Self {
        Self::NoSpace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_detection() {
        assert!(CfsError::from(DiskError::Crashed).is_crash());
        assert!(!CfsError::NoSpace.is_crash());
        assert!(!CfsError::from(DiskError::BadSector(3)).is_crash());
    }

    #[test]
    fn btree_crash_maps_to_disk_crash() {
        let e = CfsError::from(BTreeError::Store(cedar_btree::StoreError::Crashed));
        assert!(e.is_crash());
    }
}
