//! The remote-file cache — the "FS" half of Cedar's file system.
//!
//! "The Cedar File Package and File System, FS, together implement the
//! abstraction of a named file" (§2), and FS keeps "cached copies of
//! remote files" among its name-table entries (§4). This module supplies
//! that layer on top of [`FsdVolume`]:
//!
//! * remote files are fetched from a [`FileServer`] and stored as
//!   `CachedRemote` entries, one local file per remote version — "New
//!   versions of files may be cached, but old versions are immutable
//!   (except that they may be flushed)" (§5.6);
//! * every cache hit refreshes the entry's last-used-time through the
//!   ordinary `open` path — the lazily committed property update that is
//!   §5.4's one-page log record example;
//! * cache pressure is relieved by flushing the least-recently-used
//!   copies.

use crate::entry::EntryKind;
use crate::error::FsdError;
use crate::volume::{FsdFile, FsdVolume};
use crate::Result;
use std::collections::HashMap;

/// A remote file server, as seen by the cache.
///
/// The real servers were Alpine/IFS machines over the Ethernet; the
/// simulation only needs the fetch interface.
pub trait FileServer {
    /// Highest version of `name` on the server, if it exists.
    fn newest_version(&mut self, name: &str) -> Option<u32>;
    /// Fetches a specific version's contents.
    fn fetch(&mut self, name: &str, version: u32) -> Option<Vec<u8>>;
}

/// An in-memory file server for tests and examples.
#[derive(Debug, Default)]
pub struct MemServer {
    /// name → contents per version (index 0 = version 1).
    files: HashMap<String, Vec<Vec<u8>>>,
    /// Fetches served (for asserting cache hits).
    pub fetches: u64,
}

impl MemServer {
    /// Creates an empty server.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores a new version of `name`, returning its version number.
    pub fn publish(&mut self, name: &str, data: &[u8]) -> u32 {
        let stack = self.files.entry(name.to_string()).or_default();
        stack.push(data.to_vec());
        u32::try_from(stack.len()).unwrap_or(u32::MAX)
    }
}

impl FileServer for MemServer {
    fn newest_version(&mut self, name: &str) -> Option<u32> {
        self.files
            .get(name)
            .map(|s| u32::try_from(s.len()).unwrap_or(u32::MAX))
    }

    fn fetch(&mut self, name: &str, version: u32) -> Option<Vec<u8>> {
        let data = self
            .files
            .get(name)?
            .get(version.checked_sub(1)? as usize)
            .cloned()?;
        self.fetches += 1;
        Some(data)
    }
}

/// The caching layer: a local FSD volume fronting a file server.
pub struct CachingFs<S: FileServer> {
    /// The local volume holding the cached copies.
    pub volume: FsdVolume,
    /// The remote server.
    pub server: S,
}

/// Local name of the cached copy of `name!version`.
fn cache_name(name: &str, version: u32) -> String {
    format!("cache/{name}@v{version}")
}

impl<S: FileServer> CachingFs<S> {
    /// Wraps a volume and a server.
    pub fn new(volume: FsdVolume, server: S) -> Self {
        Self { volume, server }
    }

    /// Opens the newest version of a remote file, fetching it into the
    /// cache on a miss. Returns the open file and whether it was a hit.
    /// Either way the copy's last-used-time is refreshed (lazily, via the
    /// group commit).
    pub fn open_remote(&mut self, name: &str) -> Result<(FsdFile, bool)> {
        let version = self
            .server
            .newest_version(name)
            .ok_or_else(|| FsdError::NotFound(format!("[server]{name}")))?;
        let local = cache_name(name, version);
        match self.volume.open(&local, None) {
            Ok(f) => Ok((f, true)),
            Err(FsdError::NotFound(_)) => {
                let data = self
                    .server
                    .fetch(name, version)
                    .ok_or_else(|| FsdError::NotFound(format!("[server]{name}!{version}")))?;
                self.volume.create_cached(&local, &data)?;
                let f = self.volume.open(&local, None)?;
                Ok((f, false))
            }
            Err(e) => Err(e),
        }
    }

    /// Reads the newest version of a remote file through the cache.
    pub fn read_remote(&mut self, name: &str) -> Result<Vec<u8>> {
        let (mut f, _) = self.open_remote(name)?;
        self.volume.read_file(&mut f)
    }

    /// Flushes least-recently-used cached copies until at least
    /// `min_free` data sectors are available (or the cache is empty).
    /// Returns how many copies were flushed. Old versions go first
    /// regardless of use, as Cedar's flusher preferred.
    pub fn flush_lru(&mut self, min_free: u32) -> Result<usize> {
        let mut flushed = 0;
        // The loop below decides on the free count: after a crash boot
        // that is 0 until the owed name-table walk has run.
        self.volume.settle_vam()?;
        // Shadow-held pages count: they become free at the commit below.
        while self.volume.free_sectors() + self.volume.shadow_sectors() < min_free {
            // Collect cached entries with their last-used-times.
            let mut candidates: Vec<(String, u32, u64)> = Vec::new();
            for (fname, entry) in self.volume.list("cache/")? {
                if let EntryKind::CachedRemote { last_used } = entry.kind {
                    candidates.push((fname.name.clone(), fname.version, last_used));
                }
            }
            let Some((name, version, _)) = candidates
                .into_iter()
                .min_by_key(|(_, _, last_used)| *last_used)
            else {
                break; // Nothing left to flush.
            };
            self.volume.delete(&name, Some(version))?;
            flushed += 1;
        }
        if flushed > 0 {
            // Make the flushes' space reusable now.
            self.volume.force()?;
        }
        Ok(flushed)
    }

    /// Number of cached copies currently held.
    pub fn cached_copies(&mut self) -> Result<usize> {
        Ok(self.volume.list("cache/")?.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::volume::FsdConfig;
    use cedar_disk::{CpuModel, SimDisk};

    fn setup() -> CachingFs<MemServer> {
        let vol = FsdVolume::format(
            SimDisk::tiny(),
            FsdConfig {
                nt_pages: 32,
                log_sectors: 128,
                cpu: CpuModel::FREE,
                ..FsdConfig::default()
            },
        )
        .unwrap();
        CachingFs::new(vol, MemServer::new())
    }

    #[test]
    fn miss_fetches_then_hits() {
        let mut fs = setup();
        fs.server.publish("Compiler.bcd", b"code v1");
        let (f, hit) = fs.open_remote("Compiler.bcd").unwrap();
        assert!(!hit);
        assert!(matches!(f.entry.kind, EntryKind::CachedRemote { .. }));
        assert_eq!(fs.server.fetches, 1);
        // Second open: served locally, no fetch.
        let (_, hit) = fs.open_remote("Compiler.bcd").unwrap();
        assert!(hit);
        assert_eq!(fs.server.fetches, 1);
        assert_eq!(fs.read_remote("Compiler.bcd").unwrap(), b"code v1");
        assert_eq!(fs.server.fetches, 1);
    }

    #[test]
    fn new_remote_version_fetched_old_immutable() {
        let mut fs = setup();
        fs.server.publish("doc", b"v1");
        fs.open_remote("doc").unwrap();
        fs.server.publish("doc", b"v2");
        let (_, hit) = fs.open_remote("doc").unwrap();
        assert!(!hit, "a newer remote version is a miss");
        assert_eq!(fs.read_remote("doc").unwrap(), b"v2");
        // Both versions are cached; the old one is immutable and intact.
        assert_eq!(fs.cached_copies().unwrap(), 2);
        let mut old = fs.volume.open(&cache_name("doc", 1), None).unwrap();
        assert_eq!(fs.volume.read_file(&mut old).unwrap(), b"v1");
    }

    #[test]
    fn missing_remote_file_errors() {
        let mut fs = setup();
        assert!(matches!(
            fs.open_remote("ghost"),
            Err(FsdError::NotFound(_))
        ));
    }

    #[test]
    fn hits_refresh_last_used_time() {
        let mut fs = setup();
        fs.server.publish("a", b"aa");
        fs.server.publish("b", b"bb");
        fs.open_remote("a").unwrap();
        fs.volume.clock().advance(1_000_000);
        fs.open_remote("b").unwrap();
        fs.volume.clock().advance(1_000_000);
        fs.open_remote("a").unwrap(); // "a" is now the most recent.
                                      // Probe through list(): an open would itself refresh the stamp.
        let lu = |fs: &mut CachingFs<MemServer>, n: &str| -> u64 {
            let want = cache_name(n, 1);
            fs.volume
                .list("cache/")
                .unwrap()
                .into_iter()
                .find(|(f, _)| f.name == want)
                .map(|(_, e)| match e.kind {
                    EntryKind::CachedRemote { last_used } => last_used,
                    _ => panic!("not cached"),
                })
                .expect("cached copy present")
        };
        assert!(lu(&mut fs, "a") > lu(&mut fs, "b"));
    }

    #[test]
    fn flush_lru_evicts_least_recent_first() {
        let mut fs = setup();
        for i in 0..6 {
            fs.server.publish(&format!("f{i}"), &vec![i as u8; 3000]);
            fs.open_remote(&format!("f{i}")).unwrap();
            fs.volume.clock().advance(500_000);
            // Touch again so ordering is by these stamps.
            fs.open_remote(&format!("f{i}")).unwrap();
        }
        let free = fs.volume.free_sectors();
        let flushed = fs.flush_lru(free + 12).unwrap();
        assert!(flushed >= 2);
        // The oldest-touched copies went first: f0 gone, f5 survives.
        assert!(fs.volume.open(&cache_name("f0", 1), None).is_err());
        assert!(fs.volume.open(&cache_name("f5", 1), None).is_ok());
        assert!(fs.volume.free_sectors() >= free + 12);
        // A flushed file simply refetches.
        let (_, hit) = fs.open_remote("f0").unwrap();
        assert!(!hit);
    }

    #[test]
    fn cache_state_survives_crash_when_committed() {
        let mut fs = setup();
        fs.server.publish("persist", b"bytes");
        fs.open_remote("persist").unwrap();
        fs.volume.force().unwrap();
        let server = std::mem::take(&mut fs.server);
        let mut disk = fs.volume.into_disk();
        disk.crash_now();
        disk.reboot();
        let (vol, _) = FsdVolume::boot(
            disk,
            FsdConfig {
                nt_pages: 32,
                log_sectors: 128,
                cpu: CpuModel::FREE,
                ..FsdConfig::default()
            },
        )
        .unwrap();
        let mut fs = CachingFs::new(vol, server);
        let fetches_before = fs.server.fetches;
        let (_, hit) = fs.open_remote("persist").unwrap();
        assert!(hit, "the committed cache entry survived the crash");
        assert_eq!(fs.server.fetches, fetches_before);
    }
}
