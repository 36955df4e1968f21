//! The unified file-system interface: a concurrent, shared-reference
//! API over every backend.
//!
//! All three systems in this repo — CFS (labels), FSD (logging + group
//! commit), and the FFS baseline — expose the same client-visible
//! operations: make a file, read it back, list by name, remove it.
//! Historically the shared trait took `&mut self`, which meant exactly
//! one client could hold the file system at a time; §5.4's group commit
//! exists precisely because *many concurrent clients* amortize forces,
//! so the exclusive borrow was a lie the simulated scheduler had to
//! paper over. The API is two traits:
//!
//! * [`FileSystem`] — the shared-reference, `Send + Sync` service
//!   interface. Every method takes `&self`, so client threads share one
//!   `Arc<dyn FileSystem>`: each holds a clone of the `Arc` (owned, no
//!   lifetime parameter, so it moves into a spawned thread) and submits
//!   operations concurrently. FSD implements it with a group-commit
//!   pipeline (`cedar_fsd`'s engine); CFS, FFS, and the in-memory model
//!   implement it with a plain internal mutex ([`SyncFs`]).
//! * [`FsBackend`] — the implementation-level trait with the
//!   exclusive-borrow signatures, which every volume implements (the
//!   simulated disk mutates on every access — even reads advance the
//!   clock and the stats). [`SyncFs`] lifts any `FsBackend` into a
//!   [`FileSystem`] by serializing operations behind one internal
//!   mutex: semantically correct everywhere, concurrent-fast nowhere.
//!   The FSD engine is the backend that actually spreads work across
//!   cores.
//!
//! # Contract
//!
//! Names are flat, path-like strings (`doc/plan.txt`). The trait hides
//! each backend's organization behind one rule: **after any sequence of
//! operations, the visible name → contents map is identical on every
//! backend.**
//!
//! * [`FileSystem::create`] makes `name`'s contents become `data`. On
//!   the versioned Cedar systems an existing name gains a new version;
//!   FFS replaces the file. Either way a subsequent `read` sees `data`.
//! * [`FileSystem::write`] is the explicit overwrite verb: the newest
//!   visible contents of `name` become `data`. It is a required method
//!   (no silent delegation): versioned backends document that overwrite
//!   means a new version, FFS that it means in-place replacement.
//! * [`FileSystem::list`] returns the newest version of every file whose
//!   full name starts with `prefix`, sorted by name — on FFS this walks
//!   subdirectories recursively so the flat-namespace systems and the
//!   directory-tree system produce the same listing.
//! * [`FileSystem::sync`] makes everything durable: FSD waits for the
//!   commit epoch, FFS flushes delayed writes, CFS (all-synchronous)
//!   does nothing.
//! * The logically read-only operations — [`FileSystem::open`],
//!   [`FileSystem::read`], [`FileSystem::list`], [`FileSystem::stats`] —
//!   take `&self` on every backend and, under the FSD engine, are served
//!   from the map the log-writer publishes once per commit epoch,
//!   without queueing behind writers.

use crate::name::MAX_NAME_LEN;
use cedar_disk::{DiskError, DiskStats, Micros};
use std::fmt;
use std::sync::{Mutex, MutexGuard};

/// A 4 KB request (eight sectors), the stream-buffer size of the era.
/// No backend uses it: [`FileSystem::read`] hands back the whole file,
/// so it asks the disk for whole runs, and a client that does read in
/// 4 KB requests finds each next sector just past the head and loses a
/// revolution per request (EXPERIMENTS.md E-STREAM). It remains the
/// request size of harnesses that measure exactly that cost.
pub const CHUNK_PAGES: u32 = 8;

/// One error type across every backend.
///
/// Each backend keeps its own internal error enum (they carry
/// backend-specific detail like CFS scavenge hints) and provides a
/// `From` impl into this one, so trait methods can use `?` directly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CedarFsError {
    /// Underlying (simulated) disk failure.
    Disk(DiskError),
    /// On-disk structure damage — name table, directory, or label.
    Corrupt(String),
    /// No such file.
    NotFound(String),
    /// The name already exists and the backend cannot version it.
    Exists(String),
    /// The volume is out of space.
    NoSpace,
    /// Malformed file name.
    BadName(String),
    /// A page or block index beyond the end of the file.
    OutOfRange(String),
    /// The entry exists but is the wrong kind (directory, symlink…).
    WrongKind(String),
    /// The service cannot take the operation right now (a concurrent
    /// engine shutting down, or a full submission queue). Retryable.
    Busy(String),
    /// The replication link failed (timeout, drop, or partition). The
    /// write is durable on the primary but not acknowledged at the
    /// replication mode's durability point. Retryable: links heal.
    Link(String),
}

impl fmt::Display for CedarFsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Disk(e) => write!(f, "disk: {e}"),
            Self::Corrupt(m) => write!(f, "corrupt: {m}"),
            Self::NotFound(n) => write!(f, "file not found: {n}"),
            Self::Exists(n) => write!(f, "file exists: {n}"),
            Self::NoSpace => write!(f, "volume full"),
            Self::BadName(m) => write!(f, "bad file name: {m}"),
            Self::OutOfRange(m) => write!(f, "out of range: {m}"),
            Self::WrongKind(m) => write!(f, "wrong entry kind: {m}"),
            Self::Busy(m) => write!(f, "busy: {m}"),
            Self::Link(m) => write!(f, "replication link: {m}"),
        }
    }
}

impl std::error::Error for CedarFsError {}

impl From<DiskError> for CedarFsError {
    fn from(e: DiskError) -> Self {
        Self::Disk(e)
    }
}

impl From<cedar_disk::LinkError> for CedarFsError {
    fn from(e: cedar_disk::LinkError) -> Self {
        Self::Link(e.to_string())
    }
}

/// Coarse classification of a [`CedarFsError`] for concurrent callers:
/// is retrying the same operation ever useful?
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorClass {
    /// The condition is transient — another attempt may succeed
    /// (a flaky sector the scrubber repairs, a full volume a concurrent
    /// delete may relieve, a momentarily saturated submission queue).
    Retryable,
    /// The condition is deterministic for this operation (missing name,
    /// malformed request, structural corruption, a crashed disk): a
    /// retry returns the same error, so surface it.
    Fatal,
}

impl CedarFsError {
    /// True when the error is the simulated power failure surfacing —
    /// callers treat this as "stop the run", not an operation failure.
    pub fn is_crash(&self) -> bool {
        matches!(self, Self::Disk(DiskError::Crashed))
    }

    /// The retry classification used by concurrent clients (threaded
    /// bench drivers retry [`ErrorClass::Retryable`] failures with a
    /// short backoff and surface [`ErrorClass::Fatal`] ones).
    pub fn class(&self) -> ErrorClass {
        match self {
            // A flagged-bad sector is repaired by rewrite/sparing; the
            // next attempt reads the replica or the remap.
            Self::Disk(DiskError::BadSector(_)) => ErrorClass::Retryable,
            // Crashes, label mismatches and malformed requests are
            // deterministic until recovery intervenes.
            Self::Disk(_) => ErrorClass::Fatal,
            Self::Corrupt(_) => ErrorClass::Fatal,
            Self::NotFound(_) | Self::Exists(_) => ErrorClass::Fatal,
            Self::NoSpace => ErrorClass::Retryable,
            Self::BadName(_) | Self::OutOfRange(_) | Self::WrongKind(_) => ErrorClass::Fatal,
            Self::Busy(_) => ErrorClass::Retryable,
            // Timeouts, drops and partitions are the transient failures
            // of a network: the retry/backoff loop in the shipper exists
            // precisely for these.
            Self::Link(_) => ErrorClass::Retryable,
        }
    }

    /// Shorthand for `self.class() == ErrorClass::Retryable`.
    pub fn is_retryable(&self) -> bool {
        self.class() == ErrorClass::Retryable
    }
}

/// Validates a client-visible file name (shared by backends that do not
/// already have a stricter rule).
pub fn validate_name(name: &str) -> Result<(), CedarFsError> {
    if name.is_empty() || name.len() > MAX_NAME_LEN || name.bytes().any(|b| b == 0) {
        return Err(CedarFsError::BadName(name.to_string()));
    }
    Ok(())
}

/// What a file looks like from the outside: the newest version's name,
/// version number (always 1 on FFS, which has no versions), and logical
/// length.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FileInfo {
    /// Full path-like name.
    pub name: String,
    /// Version number of the newest version (1-based).
    pub version: u32,
    /// Logical length in bytes.
    pub bytes: u64,
}

/// Snapshot of a volume's accumulated costs, for benchmark reporting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FsStats {
    /// Disk operation counts and time breakdown.
    pub disk: DiskStats,
    /// Simulated time on the volume's clock, µs.
    pub now_us: Micros,
    /// Free space the allocator may hand out now, in sectors (0 if the
    /// backend cannot say — which includes an FSD volume booted after a
    /// crash that has not allocated yet: its free map is rebuilt by the
    /// first create or delete, not by boot).
    pub free_sectors: u64,
}

/// The shared-reference service interface all file systems expose.
///
/// Object-safe and thread-safe: benches, workloads, and tests take
/// `&dyn FileSystem` (or clones of one `Arc<dyn FileSystem>`, one per
/// client thread) and run identically against every backend. Every
/// method takes `&self`; implementations supply their own interior
/// synchronization — a single mutex in [`SyncFs`], an inbox and a
/// log-writer thread in the FSD engine.
pub trait FileSystem: Send + Sync {
    /// Short backend tag ("cfs", "fsd", "ffs") for reports.
    fn kind(&self) -> &'static str;

    /// Makes `name`'s contents become `data` (new file, new version, or
    /// replacement — see the module docs). Returns the new instance.
    fn create(&self, name: &str, data: &[u8]) -> Result<FileInfo, CedarFsError>;

    /// Opens the newest version without reading data (property access /
    /// cache touch).
    fn open(&self, name: &str) -> Result<FileInfo, CedarFsError>;

    /// Reads the newest version fully: one disk transfer per run of the
    /// file, not one per buffer. An empty file reads as empty without
    /// I/O beyond the open; a name that is not a regular file (an FSD
    /// symbolic link, an FFS directory) is [`CedarFsError::WrongKind`].
    fn read(&self, name: &str) -> Result<Vec<u8>, CedarFsError>;

    /// Overwrites the visible contents of `name` with `data`. Required
    /// and explicit (no delegation default): Cedar backends document
    /// that overwrite creates a new version of an existing name, FFS
    /// that it replaces the file in place.
    fn write(&self, name: &str, data: &[u8]) -> Result<FileInfo, CedarFsError>;

    /// Deletes the newest version of `name` (the only version, for
    /// workloads that keep one; FFS unlinks the file).
    fn delete(&self, name: &str) -> Result<(), CedarFsError>;

    /// Newest version of every file whose full name starts with
    /// `prefix`, sorted by name.
    fn list(&self, prefix: &str) -> Result<Vec<FileInfo>, CedarFsError>;

    /// Makes all completed operations durable. Under the FSD engine this
    /// is an epoch wait: it returns once the current group-commit epoch
    /// has been forced.
    fn sync(&self) -> Result<(), CedarFsError>;

    /// Accumulated simulated costs (under a concurrent engine, as of the
    /// most recently committed epoch).
    fn stats(&self) -> FsStats;
}

/// The implementation-level backend interface: the same verbs with
/// exclusive-borrow signatures.
///
/// Every operation on a simulated volume mutates — reads advance the
/// shared clock, charge CPU, and update disk stats — so the natural
/// signature for a raw backend is `&mut self`. Backends implement this
/// trait; services expose [`FileSystem`] on top of it, either through
/// [`SyncFs`]'s internal mutex or through a real pipeline. Single-owner
/// callers (the CLI, recovery tests) may also call these methods
/// directly.
pub trait FsBackend {
    /// Short backend tag ("cfs", "fsd", "ffs") for reports.
    fn kind(&self) -> &'static str;
    /// See [`FileSystem::create`].
    fn create(&mut self, name: &str, data: &[u8]) -> Result<FileInfo, CedarFsError>;
    /// See [`FileSystem::open`].
    fn open(&mut self, name: &str) -> Result<FileInfo, CedarFsError>;
    /// See [`FileSystem::read`]. The volumes implement it as `open` plus
    /// their `read_file`; page-at-a-time access is their `read_pages`.
    fn read(&mut self, name: &str) -> Result<Vec<u8>, CedarFsError>;
    /// See [`FileSystem::write`].
    fn write(&mut self, name: &str, data: &[u8]) -> Result<FileInfo, CedarFsError>;
    /// See [`FileSystem::delete`].
    fn delete(&mut self, name: &str) -> Result<(), CedarFsError>;
    /// See [`FileSystem::list`].
    fn list(&mut self, prefix: &str) -> Result<Vec<FileInfo>, CedarFsError>;
    /// See [`FileSystem::sync`].
    fn sync(&mut self) -> Result<(), CedarFsError>;
    /// See [`FileSystem::stats`].
    fn stats(&self) -> FsStats;
}

/// Lifts any [`FsBackend`] into a [`FileSystem`] with one internal
/// mutex.
///
/// This is the simple concurrency story for the backends whose designs
/// are inherently serial (CFS writes synchronously in place, FFS has a
/// single buffer cache, the in-memory model needs no concurrency at
/// all): every operation takes the lock, so the conformance suite and
/// the benches drive them through the same shared-reference API the FSD
/// engine exposes — correct under threads, merely not parallel.
pub struct SyncFs<B> {
    inner: Mutex<B>,
}

impl<B> SyncFs<B> {
    /// Wraps a backend.
    pub fn new(backend: B) -> Self {
        Self {
            inner: Mutex::new(backend),
        }
    }

    /// Exclusive access to the wrapped backend without locking overhead.
    pub fn get_mut(&mut self) -> &mut B {
        // A poisoned lock only means a panicked client mid-operation;
        // the backend's own invariants are WAL-protected, so recover the
        // value rather than propagate the poison.
        match self.inner.get_mut() {
            Ok(b) => b,
            Err(p) => p.into_inner(),
        }
    }

    /// Unwraps the backend.
    pub fn into_inner(self) -> B {
        match self.inner.into_inner() {
            Ok(b) => b,
            Err(p) => p.into_inner(),
        }
    }

    /// Runs `f` with the backend locked (for raw-API access — forces,
    /// verification — while shared references are outstanding).
    pub fn with<T>(&self, f: impl FnOnce(&mut B) -> T) -> T {
        f(&mut self.lock())
    }

    fn lock(&self) -> MutexGuard<'_, B> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }
}

impl<B: FsBackend> From<B> for SyncFs<B> {
    fn from(backend: B) -> Self {
        Self::new(backend)
    }
}

impl<B: FsBackend + Send> FileSystem for SyncFs<B> {
    fn kind(&self) -> &'static str {
        // The tag is a static property of the backend type; taking the
        // lock for it keeps the trait object-safe and honest.
        self.lock().kind()
    }

    fn create(&self, name: &str, data: &[u8]) -> Result<FileInfo, CedarFsError> {
        self.lock().create(name, data)
    }

    fn open(&self, name: &str) -> Result<FileInfo, CedarFsError> {
        self.lock().open(name)
    }

    fn read(&self, name: &str) -> Result<Vec<u8>, CedarFsError> {
        self.lock().read(name)
    }

    fn write(&self, name: &str, data: &[u8]) -> Result<FileInfo, CedarFsError> {
        self.lock().write(name, data)
    }

    fn delete(&self, name: &str) -> Result<(), CedarFsError> {
        self.lock().delete(name)
    }

    fn list(&self, prefix: &str) -> Result<Vec<FileInfo>, CedarFsError> {
        self.lock().list(prefix)
    }

    fn sync(&self) -> Result<(), CedarFsError> {
        self.lock().sync()
    }

    fn stats(&self) -> FsStats {
        self.lock().stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn error_display_is_stable() {
        assert_eq!(
            CedarFsError::NotFound("a/b".into()).to_string(),
            "file not found: a/b"
        );
        assert_eq!(CedarFsError::NoSpace.to_string(), "volume full");
        assert!(CedarFsError::Disk(DiskError::Crashed).is_crash());
        assert!(!CedarFsError::NoSpace.is_crash());
    }

    #[test]
    fn name_validation() {
        assert!(validate_name("ok/name.txt").is_ok());
        assert!(validate_name("").is_err());
        assert!(validate_name("bad\0name").is_err());
    }

    #[test]
    fn error_classification() {
        assert_eq!(CedarFsError::NoSpace.class(), ErrorClass::Retryable);
        assert!(CedarFsError::Busy("queue".into()).is_retryable());
        assert!(CedarFsError::Disk(DiskError::BadSector(7)).is_retryable());
        assert!(CedarFsError::Link("timeout".into()).is_retryable());
        assert!(CedarFsError::from(cedar_disk::LinkError::Down).is_retryable());
        assert_eq!(
            CedarFsError::Disk(DiskError::Crashed).class(),
            ErrorClass::Fatal
        );
        assert_eq!(
            CedarFsError::NotFound("x".into()).class(),
            ErrorClass::Fatal
        );
        assert!(!CedarFsError::Corrupt("nt".into()).is_retryable());
    }

    /// A tiny in-module backend so the adapter and session plumbing can
    /// be tested without a real volume.
    #[derive(Default)]
    struct Toy {
        files: std::collections::BTreeMap<String, Vec<u8>>,
    }

    impl FsBackend for Toy {
        fn kind(&self) -> &'static str {
            "toy"
        }
        fn create(&mut self, name: &str, data: &[u8]) -> Result<FileInfo, CedarFsError> {
            validate_name(name)?;
            self.files.insert(name.into(), data.to_vec());
            Ok(FileInfo {
                name: name.into(),
                version: 1,
                bytes: data.len() as u64,
            })
        }
        fn open(&mut self, name: &str) -> Result<FileInfo, CedarFsError> {
            let d = self
                .files
                .get(name)
                .ok_or_else(|| CedarFsError::NotFound(name.into()))?;
            Ok(FileInfo {
                name: name.into(),
                version: 1,
                bytes: d.len() as u64,
            })
        }
        fn read(&mut self, name: &str) -> Result<Vec<u8>, CedarFsError> {
            self.files
                .get(name)
                .cloned()
                .ok_or_else(|| CedarFsError::NotFound(name.into()))
        }
        fn write(&mut self, name: &str, data: &[u8]) -> Result<FileInfo, CedarFsError> {
            self.create(name, data)
        }
        fn delete(&mut self, name: &str) -> Result<(), CedarFsError> {
            self.files
                .remove(name)
                .map(|_| ())
                .ok_or_else(|| CedarFsError::NotFound(name.into()))
        }
        fn list(&mut self, prefix: &str) -> Result<Vec<FileInfo>, CedarFsError> {
            Ok(self
                .files
                .iter()
                .filter(|(n, _)| n.starts_with(prefix))
                .map(|(n, d)| FileInfo {
                    name: n.clone(),
                    version: 1,
                    bytes: d.len() as u64,
                })
                .collect())
        }
        fn sync(&mut self) -> Result<(), CedarFsError> {
            Ok(())
        }
        fn stats(&self) -> FsStats {
            FsStats::default()
        }
    }

    #[test]
    fn syncfs_serves_threads() {
        let fs: Arc<dyn FileSystem> = Arc::new(SyncFs::new(Toy::default()));
        let handles: Vec<_> = (0..8)
            .map(|id| {
                let s = Arc::clone(&fs);
                std::thread::spawn(move || {
                    for i in 0..16 {
                        s.create(&format!("c{id}/f{i}"), b"data").unwrap();
                    }
                    s.read(&format!("c{id}/f0")).unwrap()
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), b"data");
        }
        assert_eq!(fs.list("").unwrap().len(), 8 * 16);
        assert_eq!(fs.list("c3/").unwrap().len(), 16);
    }

    #[test]
    fn syncfs_unwraps_and_reborrows() {
        let mut fs = SyncFs::new(Toy::default());
        fs.create("a", b"1").unwrap();
        assert_eq!(fs.get_mut().read("a").unwrap(), b"1");
        fs.with(|b| b.create("b", b"2")).unwrap();
        let inner = fs.into_inner();
        assert_eq!(inner.files.len(), 2);
    }
}
