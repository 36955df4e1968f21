//! Shared harness code for the table/figure reproduction binaries.
//!
//! Every binary in `src/bin/` regenerates one table or in-text
//! measurement of the paper (the index lives in `DESIGN.md`); this
//! library holds what they share — volume construction on the paper's
//! 300 MB Trident-class disk, the `cedar_vol::fs::FileSystem` trait
//! everything is driven through, the multi-client scheduler driver,
//! and table rendering.

#![deny(unsafe_code)]

pub mod driver;
pub mod report;
pub mod setup;

pub use cedar_vol::fs::{CedarFsError, FileSystem, FsBackend, SyncFs};
pub use driver::{drive_clients, drive_threads, populate_setup, MultiClientRun, ThreadedRun};
pub use report::{disk_breakdown, disk_breakdown_json, Table};
pub use setup::{cfs_t300, ffs_t300, fsd_t300, ms, populate};
