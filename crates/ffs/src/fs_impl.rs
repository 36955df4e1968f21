//! [`FsBackend`] implementation for [`Ffs`].
//!
//! FFS organizes files in a directory tree and has no versions, so this
//! impl bridges the trait's flat versioned namespace: `create` makes
//! missing parent directories and replaces an existing file (version is
//! always 1), and `list` walks subdirectories recursively so a prefix
//! query sees the same names the flat backends report. Services wrap
//! the volume in `SyncFs` to expose the shared-reference `FileSystem`
//! trait (FFS has a single buffer cache, so its concurrency story is
//! one lock).

use crate::fs::Ffs;
use crate::inode::InodeKind;
use crate::{FfsError, Ino};
use cedar_vol::fs::{CedarFsError, FileInfo, FsBackend, FsStats};

impl From<FfsError> for CedarFsError {
    fn from(e: FfsError) -> Self {
        match e {
            FfsError::Disk(d) => CedarFsError::Disk(d),
            FfsError::Corrupt(m) => CedarFsError::Corrupt(m),
            FfsError::NotFound(p) => CedarFsError::NotFound(p),
            FfsError::NotADirectory(p) => CedarFsError::WrongKind(p),
            FfsError::Exists(p) => CedarFsError::Exists(p),
            FfsError::NoSpace => CedarFsError::NoSpace,
            FfsError::BadName(m) => CedarFsError::BadName(m),
            FfsError::OutOfRange => CedarFsError::OutOfRange("block beyond end of file".into()),
        }
    }
}

/// Makes every parent directory of `name` exist.
fn ensure_parents(fs: &mut Ffs, name: &str) -> Result<(), CedarFsError> {
    let comps: Vec<&str> = name.split('/').filter(|c| !c.is_empty()).collect();
    let mut path = String::new();
    for comp in comps.iter().take(comps.len().saturating_sub(1)) {
        if !path.is_empty() {
            path.push('/');
        }
        path.push_str(comp);
        match fs.lookup(&path) {
            Ok(_) => {}
            Err(FfsError::NotFound(_)) => {
                fs.mkdir(&path)?;
            }
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

impl FsBackend for Ffs {
    fn kind(&self) -> &'static str {
        "ffs"
    }

    fn create(&mut self, name: &str, data: &[u8]) -> Result<FileInfo, CedarFsError> {
        ensure_parents(self, name)?;
        match Ffs::create(self, name, data) {
            Ok(_) => {}
            // No versions: replacing the contents means replacing the file.
            Err(FfsError::Exists(_)) => {
                Ffs::unlink(self, name)?;
                Ffs::create(self, name, data)?;
            }
            Err(e) => return Err(e.into()),
        }
        Ok(FileInfo {
            name: name.trim_matches('/').to_string(),
            version: 1,
            bytes: data.len() as u64,
        })
    }

    fn open(&mut self, name: &str) -> Result<FileInfo, CedarFsError> {
        let f = Ffs::open(self, name)?;
        if f.inode.kind != InodeKind::File {
            return Err(CedarFsError::WrongKind(name.to_string()));
        }
        Ok(FileInfo {
            name: name.trim_matches('/').to_string(),
            version: 1,
            bytes: f.inode.size,
        })
    }

    fn read(&mut self, name: &str) -> Result<Vec<u8>, CedarFsError> {
        let f = Ffs::open(self, name)?;
        if f.inode.kind != InodeKind::File {
            return Err(CedarFsError::WrongKind(name.to_string()));
        }
        Ok(self.read_file(&f)?)
    }

    fn write(&mut self, name: &str, data: &[u8]) -> Result<FileInfo, CedarFsError> {
        // No versions on FFS: overwriting means replacing the file in
        // place, which is what `create` does for an existing name.
        FsBackend::create(self, name, data)
    }

    fn delete(&mut self, name: &str) -> Result<(), CedarFsError> {
        Ok(self.unlink(name)?)
    }

    fn list(&mut self, prefix: &str) -> Result<Vec<FileInfo>, CedarFsError> {
        // Depth-first walk from the root, reporting files whose full
        // path starts with the prefix (a prefix may end mid-component,
        // so filtering happens on the assembled path, not the walk).
        let mut stack: Vec<(Ino, String)> = vec![(crate::fs::ROOT_INO, String::new())];
        let mut out = Vec::new();
        while let Some((dir, at)) = stack.pop() {
            for (ino, entry) in self.read_dir(dir)? {
                let path = if at.is_empty() {
                    entry
                } else {
                    format!("{at}/{entry}")
                };
                let inode = self.read_inode(ino)?;
                match inode.kind {
                    InodeKind::Dir => stack.push((ino, path)),
                    InodeKind::File if path.starts_with(prefix) => out.push(FileInfo {
                        name: path,
                        version: 1,
                        bytes: inode.size,
                    }),
                    _ => {}
                }
            }
        }
        out.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(out)
    }

    fn sync(&mut self) -> Result<(), CedarFsError> {
        Ok(Ffs::sync(self)?)
    }

    fn stats(&self) -> FsStats {
        FsStats {
            disk: self.disk_stats(),
            now_us: self.clock().now(),
            free_sectors: self.free_sectors(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::FfsConfig;
    use cedar_disk::{CpuModel, SimDisk};

    fn vol() -> Ffs {
        Ffs::format(
            SimDisk::tiny(),
            FfsConfig {
                cpu: CpuModel::FREE,
            },
        )
        .unwrap()
    }

    #[test]
    fn backend_roundtrip_with_auto_mkdir_and_replace() {
        let fs: &mut dyn FsBackend = &mut vol();
        assert_eq!(fs.kind(), "ffs");
        // Parents spring into existence, as the flat backends' namespace
        // implies they must.
        fs.create("a/b/c.txt", b"one").unwrap();
        let info = fs.write("a/b/c.txt", b"two!").unwrap();
        assert_eq!((info.version, info.bytes), (1, 4));
        assert_eq!(fs.read("a/b/c.txt").unwrap(), b"two!");
        fs.delete("a/b/c.txt").unwrap();
        assert!(matches!(
            fs.read("a/b/c.txt"),
            Err(CedarFsError::NotFound(_))
        ));
    }

    #[test]
    fn list_walks_subdirectories() {
        let fs: &mut dyn FsBackend = &mut vol();
        fs.create("pkg/Source.mesa", b"m").unwrap();
        fs.create("pkg/deep/Inner.bcd", b"bb").unwrap();
        fs.create("cache/Other.bcd", b"o").unwrap();
        let names: Vec<String> = fs
            .list("pkg/")
            .unwrap()
            .into_iter()
            .map(|i| i.name)
            .collect();
        assert_eq!(names, vec!["pkg/Source.mesa", "pkg/deep/Inner.bcd"]);
        // Prefixes may end mid-component.
        assert_eq!(fs.list("pkg/S").unwrap().len(), 1);
        assert_eq!(fs.list("").unwrap().len(), 3);
    }

    #[test]
    fn errors_map_to_shared_enum() {
        let fs: &mut dyn FsBackend = &mut vol();
        assert!(matches!(fs.read("nope"), Err(CedarFsError::NotFound(_))));
        fs.create("d/f", b"x").unwrap();
        assert!(matches!(fs.read("d"), Err(CedarFsError::WrongKind(_))));
    }
}
