//! FSD — "FS for Dragon", the paper's reimplemented Cedar file system.
//!
//! FSD keeps **all** file metadata in the file name table (name, version,
//! keep, uid, run table, byte size, create time — Table 1), double-writes
//! every name-table page on sectors with independent failure modes, and
//! recovers the table from a **physical redo log** instead of hardware
//! labels:
//!
//! * updates are applied to cached copies of name-table pages and the
//!   *changed sectors* are written to a circular log, two copies per
//!   record, in a torn-write-tolerant layout (§5.3);
//! * **group commit** batches all updates of the last half second into one
//!   log force (§5.4), so bulk metadata traffic costs a fraction of the
//!   I/Os (the paper measures 2.98× fewer metadata I/Os);
//! * the log is divided into **thirds**: entering a third flushes home the
//!   pages whose only log copy lives there, keeping 5/6 of the log usable
//!   with a trivially simple reclamation rule (§5.3);
//! * the free map (**VAM**) is purely volatile, saved only at controlled
//!   shutdown and otherwise reconstructed from the name table in seconds
//!   (§5.5); pages of deleted files sit in a *shadow* bitmap until the
//!   delete commits;
//! * every file carries a one-sector **leader page** used only as a
//!   software cross-check (uid, run-table preamble and checksum), verified
//!   by piggybacking its read on the first data access (§5.2, §5.7);
//! * file allocation splits the volume into small and big file areas to
//!   curtail fragmentation (§5.6).
//!
//! Crash recovery is a redo scan of the log plus, at worst, the VAM
//! rebuild — one to twenty-five seconds against the scavenger's hour.

#![deny(unsafe_code)]

#[cfg(debug_assertions)]
mod audit;
pub mod cache;
pub mod engine;
pub mod entry;
pub mod error;
pub mod fs_impl;
pub mod fscache;
pub mod layout;
pub mod leader;
pub mod log;
pub mod recovery;
pub mod repl;
pub mod scavenge;
pub mod sched;
pub mod spare;
pub mod sync;
pub mod volume;

pub use engine::{EngineConfig, EngineStats, FsdEngine};
pub use entry::{EntryKind, FileEntry};
pub use error::FsdError;
pub use fscache::{CachingFs, FileServer, MemServer};
pub use layout::FsdLayout;
pub use leader::LeaderPage;
pub use recovery::{LeaderPass, RecoveryReport, RecoveryRung, RedoSettle, VamWalk};
pub use repl::{
    DataWrite, FailoverOutcome, ReplFrame, ReplMode, ReplSession, ReplSessionConfig, Replica,
    ReplicaStats, ResyncKind, ResyncOutcome, Shipper,
};
pub use scavenge::ScavengeSummary;
pub use sched::{CommitScheduler, LatencyStats, SchedConfig, SchedReport};
pub use spare::SpareMap;
pub use volume::{FsdConfig, FsdFile, FsdVolume};

/// Result alias for FSD operations.
pub type Result<T> = std::result::Result<T, FsdError>;

/// Sectors per name-table logical page.
pub const NT_PAGE_SECTORS: u32 = 2;

/// Bytes per name-table logical page.
pub const NT_PAGE_BYTES: usize = NT_PAGE_SECTORS as usize * cedar_disk::SECTOR_BYTES;
