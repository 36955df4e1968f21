//! # cedar-fs-repro
//!
//! A reproduction of Robert Hagmann's **"Reimplementing the Cedar File
//! System Using Logging and Group Commit"** (SOSP 1987) as a Rust
//! workspace: the paper's file system (**FSD**), the old label-based
//! system it replaced (**CFS**), a 4.2/4.3-BSD-style **FFS** baseline,
//! the §6 analytic disk model, and a deterministic simulated disk that
//! stands in for the Dorado's Trident drive.
//!
//! This crate is the facade: it re-exports every workspace crate and
//! hosts the runnable examples and cross-crate integration tests.
//!
//! All three systems speak one two-level API (`cedar_vol::fs`): the
//! exclusive-borrow [`FsBackend`] trait every volume implements, and
//! the shared-reference, `Send + Sync` [`FileSystem`] service trait
//! that sessions and threads drive — one interface, one
//! `CedarFsError`, identical visible semantics (a conformance test
//! holds them to it). FSD additionally offers two concurrent services:
//! the §5.4 deterministic [`CommitScheduler`](cedar_fsd::CommitScheduler)
//! (itself an [`FsBackend`]: simulated clients share a
//! `SyncFs<CommitScheduler>`, one force per commit window) and the
//! threaded [`FsdEngine`](cedar_fsd::FsdEngine) (real OS threads feeding
//! one FIFO inbox that a dedicated log-writer drains into group-commit
//! epochs).
//!
//! [`FileSystem`]: cedar_vol::fs::FileSystem
//! [`FsBackend`]: cedar_vol::fs::FsBackend
//!
//! ## Quick start
//!
//! ```
//! use cedar_fs_repro::disk::{SimClock, SimDisk};
//! use cedar_fs_repro::fsd::{FsdConfig, FsdVolume};
//! use cedar_fs_repro::vol::fs::{FsBackend, SyncFs, FileSystem};
//!
//! // A simulated 300 MB Trident-class drive, formatted as an FSD volume.
//! let disk = SimDisk::trident_t300(SimClock::new());
//! let mut vol = FsdVolume::format(disk, FsdConfig::default()).unwrap();
//!
//! // Single-owner callers use the exclusive-borrow backend trait —
//! // the same verbs CFS and FFS implement.
//! let fs: &mut dyn FsBackend = &mut vol;
//! fs.create("docs/memo.tioga", b"group commit!").unwrap();
//! assert_eq!(fs.read("docs/memo.tioga").unwrap(), b"group commit!");
//! assert_eq!(fs.list("docs/").unwrap()[0].name, "docs/memo.tioga");
//!
//! // Make everything durable, then survive a crash.
//! fs.sync().unwrap();
//! let mut platters = vol.into_disk();
//! platters.crash_now();
//! platters.reboot();
//! let (mut vol, report) = FsdVolume::boot(platters, FsdConfig::default()).unwrap();
//! // Boot reads the log and serves reads at once, through its images;
//! // writing them home waits for the first write, and the name-table
//! // walk that rebuilds the free map for an allocation the restart
//! // reserve cannot serve — or for whoever asks.
//! let walk = vol.settle_vam().unwrap().expect("a crash boot owes the walk");
//! let redo = vol.redo_settle().expect("paid ahead of the walk");
//! assert!(
//!     report.total_us() + redo.us() + walk.us() < 30_000_000,
//!     "recovery in seconds, not hours"
//! );
//!
//! // Shared-reference service over any backend: wrap it in `SyncFs`
//! // and every method takes `&self` — ready for `Arc` + threads.
//! let fs = SyncFs::new(vol);
//! assert!(fs.open("docs/memo.tioga").is_ok());
//! ```
//!
//! ## Group commit across threads (§5.4)
//!
//! ```
//! use std::sync::Arc;
//! use cedar_fs_repro::disk::SimDisk;
//! use cedar_fs_repro::fsd::{EngineConfig, FsdConfig, FsdEngine, FsdVolume};
//! use cedar_fs_repro::vol::fs::FileSystem;
//!
//! let vol = FsdVolume::format(SimDisk::tiny(), FsdConfig::default()).unwrap();
//! let engine = Arc::new(FsdEngine::start(vol, EngineConfig::default()).unwrap());
//!
//! // Eight OS threads, each holding a clone of the shared engine's
//! // `Arc`; the log-writer thread batches their creates into shared
//! // forces.
//! let threads: Vec<_> = (0..8)
//!     .map(|client| {
//!         let fs: Arc<dyn FileSystem> = engine.clone();
//!         std::thread::spawn(move || fs.create(&format!("c{client}/out.bcd"), b"compiled"))
//!     })
//!     .collect();
//! for t in threads {
//!     t.join().unwrap().unwrap();
//! }
//! let stats = engine.engine_stats();
//! assert_eq!(stats.ops, 8);
//! assert!(stats.log_forces <= stats.ops); // batching shares forces
//! let vol = FsdEngine::shutdown_arc(engine).unwrap();
//! assert_eq!(FsdEngine::start(vol, EngineConfig::default()).unwrap().list("").unwrap().len(), 8);
//! ```
//!
//! See `DESIGN.md` for the system inventory and the experiment index, and
//! `EXPERIMENTS.md` for paper-vs-measured results of every table.

#![deny(unsafe_code)]

/// The simulated Trident-class disk: geometry, timing, labels, faults.
pub use cedar_disk as disk;

/// The page-oriented B-tree both name tables are built on.
pub use cedar_btree as btree;

/// Shared volume vocabulary: run tables, the VAM, allocation policies.
pub use cedar_vol as vol;

/// The old Cedar File System (labels + headers + scavenger) — baseline.
pub use cedar_cfs as cfs;

/// FSD, the paper's contribution: logging + group commit.
pub use cedar_fsd as fsd;

/// The BSD FFS-style baseline for Tables 4 and 5.
pub use cedar_ffs as ffs;

/// The §6 analytic performance model.
pub use cedar_model as model;

/// Deterministic workload generators (sizes, MakeDo).
pub use cedar_workload as workload;
