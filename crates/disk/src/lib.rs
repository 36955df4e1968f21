//! A deterministic simulated disk in the style of the Trident drives used by
//! the Xerox D-machines.
//!
//! This crate is the hardware substrate for the Cedar file-system
//! reproduction (Hagmann, SOSP 1987). It provides:
//!
//! * a sector-addressed store with explicit geometry
//!   (cylinders × heads × sectors-per-track, [`geometry::DiskGeometry`]);
//! * a timing model that charges seeks, short seeks, rotational latency and
//!   transfer time against a shared simulated clock
//!   ([`timing::DiskTiming`], [`clock::SimClock`]) — the paper's §6 analytic
//!   model is built from exactly these quantities;
//! * an optional per-sector *label* plane emulating the Trident label field
//!   that the old Cedar file system (CFS) used for robustness
//!   ([`label::Label`]);
//! * fault injection: bad sectors, and crash points that tear multi-sector
//!   writes according to the paper's failure model (§5.3: "when writing the
//!   last two pages, either both are transferred successfully, the last page
//!   is detectably damaged but the next to last is transferred successfully,
//!   or both pages are detectably damaged").
//!
//! All state is deterministic: the same sequence of operations produces the
//! same sector contents, the same I/O counts and the same simulated times.

#![deny(unsafe_code)]

pub mod clock;
pub mod cpu;
pub mod disk;
pub mod error;
pub mod fault;
pub mod geometry;
pub mod image;
pub mod label;
pub mod link;
pub mod scan;
pub mod sched;
pub mod stats;
pub mod timing;

pub use clock::{Micros, SimClock};
pub use cpu::{Cpu, CpuModel, WorkerCpu};
pub use disk::{CrashPlan, JournalEntry, SimDisk};
pub use error::DiskError;
pub use fault::FaultPlan;
pub use geometry::DiskGeometry;
pub use label::{Label, PageKind};
pub use link::{Link, LinkError, LinkPlan, LinkStats};
pub use scan::ScanChunk;
pub use sched::{IoBatch, IoOp, IoOutput, IoPolicy, OpResult};
pub use stats::DiskStats;
pub use timing::DiskTiming;

/// Size of one disk sector in bytes.
///
/// The Trident drives and the paper both use 512-byte sectors ("This is
/// logged in seven 512 byte sectors", §5.4).
pub const SECTOR_BYTES: usize = 512;

/// Bytes per sector, as `u64` (for byte-offset arithmetic).
pub const SECTOR_BYTES_U64: u64 = SECTOR_BYTES as u64;

/// A sector address: linear index into the volume.
pub type SectorAddr = u32;

/// Result alias for disk operations.
pub type Result<T> = std::result::Result<T, DiskError>;
