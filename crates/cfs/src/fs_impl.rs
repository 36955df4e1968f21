//! [`FsBackend`] implementation for [`CfsVolume`].
//!
//! CFS is the all-synchronous baseline: every operation is durable the
//! moment it returns, so [`FsBackend::sync`] is a no-op. Services wrap
//! the volume in `SyncFs` to expose the shared-reference `FileSystem`
//! trait (CFS has no concurrent pipeline of its own — its design is
//! inherently serial, writing labels and data synchronously in place).

use crate::error::CfsError;
use crate::volume::CfsVolume;
use cedar_vol::fs::{CedarFsError, FileInfo, FsBackend, FsStats};

impl From<CfsError> for CedarFsError {
    fn from(e: CfsError) -> Self {
        match e {
            CfsError::Disk(d) => CedarFsError::Disk(d),
            CfsError::Corrupt(m) => CedarFsError::Corrupt(m),
            CfsError::NotFound(n) => CedarFsError::NotFound(n),
            CfsError::Exists(n) => CedarFsError::Exists(n),
            CfsError::NoSpace => CedarFsError::NoSpace,
            CfsError::BadName(m) => CedarFsError::BadName(m),
            CfsError::OutOfRange { page, pages } => {
                CedarFsError::OutOfRange(format!("page {page} of {pages}"))
            }
        }
    }
}

impl FsBackend for CfsVolume {
    fn kind(&self) -> &'static str {
        "cfs"
    }

    fn create(&mut self, name: &str, data: &[u8]) -> Result<FileInfo, CedarFsError> {
        let f = CfsVolume::create(self, name, data)?;
        Ok(FileInfo {
            name: f.name.name.clone(),
            version: f.name.version,
            bytes: f.header.byte_size,
        })
    }

    fn open(&mut self, name: &str) -> Result<FileInfo, CedarFsError> {
        let f = CfsVolume::open(self, name, None)?;
        Ok(FileInfo {
            name: f.name.name.clone(),
            version: f.name.version,
            bytes: f.header.byte_size,
        })
    }

    fn read(&mut self, name: &str) -> Result<Vec<u8>, CedarFsError> {
        let f = CfsVolume::open(self, name, None)?;
        Ok(self.read_file(&f)?)
    }

    fn write(&mut self, name: &str, data: &[u8]) -> Result<FileInfo, CedarFsError> {
        // Cedar files are immutable: overwriting a name means creating
        // its next version, exactly what `create` does for an existing
        // name. The separate verb keeps the intent explicit at call
        // sites.
        FsBackend::create(self, name, data)
    }

    fn delete(&mut self, name: &str) -> Result<(), CedarFsError> {
        CfsVolume::delete(self, name, None)?;
        Ok(())
    }

    fn list(&mut self, prefix: &str) -> Result<Vec<FileInfo>, CedarFsError> {
        // The name table iterates in key order (name, then version
        // ascending), so the last header seen for a name is its newest
        // version.
        let mut out: Vec<FileInfo> = Vec::new();
        for h in CfsVolume::list(self, prefix)? {
            let info = FileInfo {
                name: h.name.name.clone(),
                version: h.name.version,
                bytes: h.byte_size,
            };
            match out.last_mut() {
                Some(last) if last.name == info.name => *last = info,
                _ => out.push(info),
            }
        }
        Ok(out)
    }

    fn sync(&mut self) -> Result<(), CedarFsError> {
        // All CFS writes are synchronous and in place (§2): there is
        // nothing buffered to flush.
        Ok(())
    }

    fn stats(&self) -> FsStats {
        FsStats {
            disk: self.disk_stats(),
            now_us: self.clock().now(),
            free_sectors: self.free_sectors() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CfsConfig;
    use cedar_disk::{CpuModel, SimDisk};
    use cedar_vol::fs::{FileSystem, SyncFs};

    fn vol() -> CfsVolume {
        CfsVolume::format(
            SimDisk::tiny(),
            CfsConfig {
                nt_pages: 32,
                cpu: CpuModel::FREE,
                scavenge_workers: 1,
            },
        )
        .unwrap()
    }

    #[test]
    fn backend_roundtrip_and_versioning() {
        let fs: &mut dyn FsBackend = &mut vol();
        assert_eq!(fs.kind(), "cfs");
        fs.create("d/a", b"one").unwrap();
        let info = fs.write("d/a", b"two").unwrap();
        assert_eq!(info.version, 2);
        assert_eq!(fs.read("d/a").unwrap(), b"two");
        // The listing shows only the newest version.
        let listing = fs.list("d/").unwrap();
        assert_eq!(listing.len(), 1);
        assert_eq!(listing[0].version, 2);
        assert_eq!(listing[0].bytes, 3);
        fs.delete("d/a").unwrap();
        assert_eq!(fs.read("d/a").unwrap(), b"one");
    }

    #[test]
    fn shared_reference_service_via_syncfs() {
        let fs = SyncFs::new(vol());
        let fs: &dyn FileSystem = &fs;
        fs.create("d/a", b"one").unwrap();
        assert_eq!(fs.open("d/a").unwrap().bytes, 3);
        assert!(fs.stats().disk.reads + fs.stats().disk.writes > 0);
    }

    #[test]
    fn errors_map_to_shared_enum() {
        let fs: &mut dyn FsBackend = &mut vol();
        match fs.read("absent") {
            Err(CedarFsError::NotFound(n)) => assert_eq!(n, "absent"),
            other => panic!("expected NotFound, got {other:?}"),
        }
    }
}
