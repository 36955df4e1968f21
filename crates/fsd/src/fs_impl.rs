//! [`FsBackend`] implementation for [`FsdVolume`].
//!
//! FSD batches metadata in the cached name table and makes it durable at
//! the group commit, so [`FsBackend::sync`] forces the log. This is the
//! raw single-owner backend; the concurrent shared-reference service is
//! [`crate::FsdEngine`], which owns the volume on a dedicated log-writer
//! thread and forms commit epochs across client threads.

use crate::error::FsdError;
use crate::volume::FsdVolume;
use cedar_vol::fs::{CedarFsError, FileInfo, FsBackend, FsStats};

impl From<FsdError> for CedarFsError {
    fn from(e: FsdError) -> Self {
        match e {
            FsdError::Disk(d) => CedarFsError::Disk(d),
            FsdError::Check(m) => CedarFsError::Corrupt(m),
            FsdError::NotFound(n) => CedarFsError::NotFound(n),
            FsdError::NoSpace => CedarFsError::NoSpace,
            FsdError::BadName(m) => CedarFsError::BadName(m),
            FsdError::OutOfRange { page, pages } => {
                CedarFsError::OutOfRange(format!("page {page} of {pages}"))
            }
            FsdError::WrongKind(k) => CedarFsError::WrongKind(k.to_string()),
        }
    }
}

impl FsBackend for FsdVolume {
    fn kind(&self) -> &'static str {
        "fsd"
    }

    fn create(&mut self, name: &str, data: &[u8]) -> Result<FileInfo, CedarFsError> {
        let f = FsdVolume::create(self, name, data)?;
        Ok(FileInfo {
            name: f.name.name.clone(),
            version: f.name.version,
            bytes: f.byte_size(),
        })
    }

    fn open(&mut self, name: &str) -> Result<FileInfo, CedarFsError> {
        let f = FsdVolume::open(self, name, None)?;
        Ok(FileInfo {
            name: f.name.name.clone(),
            version: f.name.version,
            bytes: f.byte_size(),
        })
    }

    fn read(&mut self, name: &str) -> Result<Vec<u8>, CedarFsError> {
        let mut f = FsdVolume::open(self, name, None)?;
        Ok(self.read_file(&mut f)?)
    }

    fn write(&mut self, name: &str, data: &[u8]) -> Result<FileInfo, CedarFsError> {
        // FSD files are immutable Cedar files: overwriting a name means
        // logging its next version, which `create` already does for an
        // existing name.
        FsBackend::create(self, name, data)
    }

    fn delete(&mut self, name: &str) -> Result<(), CedarFsError> {
        FsdVolume::delete(self, name, None)?;
        Ok(())
    }

    fn list(&mut self, prefix: &str) -> Result<Vec<FileInfo>, CedarFsError> {
        // Name-table order is (name, version ascending): keep the last
        // entry seen per name, i.e. the newest version.
        let mut out: Vec<FileInfo> = Vec::new();
        for (fname, entry) in FsdVolume::list(self, prefix)? {
            let info = FileInfo {
                name: fname.name.clone(),
                version: fname.version,
                bytes: entry.byte_size,
            };
            match out.last_mut() {
                Some(last) if last.name == info.name => *last = info,
                _ => out.push(info),
            }
        }
        Ok(out)
    }

    fn sync(&mut self) -> Result<(), CedarFsError> {
        self.force()?;
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
    use crate::FsdConfig;
    use cedar_disk::{CpuModel, SimDisk};

    fn vol() -> FsdVolume {
        FsdVolume::format(
            SimDisk::tiny(),
            FsdConfig {
                nt_pages: 48,
                log_sectors: 128,
                cpu: CpuModel::FREE,
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn backend_roundtrip_versioning_and_sync() {
        let mut v = vol();
        let fs: &mut dyn FsBackend = &mut v;
        assert_eq!(fs.kind(), "fsd");
        fs.create("d/a", b"one").unwrap();
        let info = fs.write("d/a", b"two!").unwrap();
        assert_eq!((info.version, info.bytes), (2, 4));
        assert_eq!(fs.read("d/a").unwrap(), b"two!");
        let listing = fs.list("d/").unwrap();
        assert_eq!(listing.len(), 1);
        assert_eq!(listing[0].version, 2);
        fs.sync().unwrap();
        assert!(v.commit_stats().forces >= 1);
    }

    #[test]
    fn errors_map_to_shared_enum() {
        let fs: &mut dyn FsBackend = &mut vol();
        assert!(matches!(
            fs.delete("missing"),
            Err(CedarFsError::NotFound(_))
        ));
    }
}
