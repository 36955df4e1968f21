//! `fsck`: full-structure recovery for FFS.
//!
//! After a crash the bitmaps (written lazily) may disagree with the
//! inodes and directories (written synchronously). `fsck` walks every
//! inode-table block and every directory, rebuilds the bitmaps, clears
//! orphaned inodes, and rewrites the cylinder-group headers. On the
//! paper's 300 MB volume this takes about seven minutes (§7: "PARC's
//! VAX-11/785 recovers in about seven minutes (using fsck) while FSD
//! takes 1 to 25 seconds").

use crate::alloc::{block_to_slot, CgState};
use crate::fs::{Ffs, ROOT_INO};
use crate::inode::{Inode, InodeKind, PTRS_PER_BLOCK};
use crate::{Ino, Result};
use cedar_disk::clock::Micros;
use std::collections::HashSet;

/// What an fsck pass found and fixed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FsckReport {
    /// Live files found.
    pub files: u64,
    /// Live directories found (including the root).
    pub dirs: u64,
    /// Allocated inodes not reachable from the root (cleared).
    pub orphan_inodes: u64,
    /// Data blocks accounted to the rebuilt bitmaps.
    pub blocks_marked: u64,
    /// Simulated duration.
    pub duration_us: Micros,
    /// Disk operations performed.
    pub ios: u64,
}

impl Ffs {
    /// Runs a full consistency check and repair.
    pub fn fsck(&mut self) -> Result<FsckReport> {
        let mut report = FsckReport::default();
        let t0 = self.clock().now();
        let io0 = self.disk_stats().total_ops();
        self.cpu().op();
        // Cold cache, as after a reboot.
        self.drop_caches()?;

        let layout = *self.layout();

        // Phase 1: read every inode (sequential inode-table scan; the
        // cache turns 8 inodes into one block read).
        let mut allocated: Vec<(Ino, Inode)> = Vec::new();
        for ino in 0..layout.total_inodes() {
            let inode = self.read_inode(ino)?;
            self.cpu().entries(1);
            if inode.kind != InodeKind::Free && ino != ROOT_INO && ino != 0 {
                allocated.push((ino, inode));
            }
        }

        // Phase 2: walk the directory tree to find reachable inodes.
        let mut reachable: HashSet<Ino> = HashSet::new();
        reachable.insert(ROOT_INO);
        let mut stack = vec![ROOT_INO];
        while let Some(dir) = stack.pop() {
            for (ino, _name) in self.read_dir(dir)? {
                if !reachable.insert(ino) {
                    continue;
                }
                if self.read_inode(ino)?.kind == InodeKind::Dir {
                    stack.push(ino);
                }
            }
        }

        // Phase 3: rebuild the bitmaps from the reachable inodes.
        let mut cgs: Vec<CgState> = (0..layout.groups).map(|_| CgState::new(&layout)).collect();
        let mark_ino = |cgs: &mut [CgState], ino: Ino| {
            let g = layout.group_of_ino(ino) as usize;
            let slot = ino % layout.inodes_per_cg;
            cgs[g].inode_bitmap[slot as usize / 64] |= 1 << (slot % 64);
        };
        let mark_block = |cgs: &mut [CgState], report: &mut FsckReport, blk: u32| {
            if let Some((g, slot)) = block_to_slot(&layout, blk) {
                cgs[g as usize].block_bitmap[slot as usize / 64] |= 1 << (slot % 64);
                report.blocks_marked += 1;
            }
        };
        mark_ino(&mut cgs, 0); // Reserved invalid slot.
        mark_ino(&mut cgs, ROOT_INO);
        report.dirs += 1; // The root.
        let root_inode = self.read_inode(ROOT_INO)?;
        for i in 0..root_inode.blocks() as usize {
            let b = self.bmap(&root_inode, i)?;
            if b != 0 {
                mark_block(&mut cgs, &mut report, b);
            }
        }
        for (ino, inode) in allocated {
            if !reachable.contains(&ino) {
                report.orphan_inodes += 1;
                self.clear_inode(ino)?;
                continue;
            }
            mark_ino(&mut cgs, ino);
            match inode.kind {
                InodeKind::Dir => report.dirs += 1,
                InodeKind::File => report.files += 1,
                InodeKind::Free => {}
            }
            for i in 0..inode.blocks() as usize {
                let b = self.bmap(&inode, i)?;
                if b != 0 {
                    mark_block(&mut cgs, &mut report, b);
                }
            }
            if inode.indirect != 0 {
                mark_block(&mut cgs, &mut report, inode.indirect);
            }
            if inode.dindirect != 0 {
                mark_block(&mut cgs, &mut report, inode.dindirect);
                let l1 = self.read_block(inode.dindirect)?;
                for k in 0..PTRS_PER_BLOCK {
                    let p = u32::from_le_bytes([
                        l1[k * 4],
                        l1[k * 4 + 1],
                        l1[k * 4 + 2],
                        l1[k * 4 + 3],
                    ]);
                    if p != 0 {
                        mark_block(&mut cgs, &mut report, p);
                    }
                }
            }
        }

        // Phase 4: install and persist the rebuilt state.
        self.install_cgs(cgs);
        self.sync()?;

        report.duration_us = self.clock().now() - t0;
        report.ios = self.disk_stats().total_ops() - io0;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::FfsConfig;
    use cedar_disk::{CpuModel, SimDisk};

    fn tiny() -> Ffs {
        Ffs::format(
            SimDisk::tiny(),
            FfsConfig {
                cpu: CpuModel::FREE,
            },
        )
        .unwrap()
    }

    #[test]
    fn fsck_on_clean_volume_finds_everything() {
        let mut fs = tiny();
        fs.mkdir("d").unwrap();
        for i in 0..10 {
            fs.create(&format!("d/f{i}"), &vec![1u8; 1500]).unwrap();
        }
        fs.sync().unwrap();
        let report = fs.fsck().unwrap();
        assert_eq!(report.files, 10);
        assert_eq!(report.dirs, 2); // Root + d.
        assert_eq!(report.orphan_inodes, 0);
        assert!(report.blocks_marked >= 20); // 2 data blocks per file + dir.
                                             // Files still readable afterwards.
        let f = fs.open("d/f3").unwrap();
        assert_eq!(fs.read_file(&f).unwrap(), vec![1u8; 1500]);
    }

    #[test]
    fn fsck_rebuilds_bitmaps_after_crash() {
        let mut fs = tiny();
        fs.mkdir("d").unwrap();
        fs.create("d/keep", &vec![7u8; 3000]).unwrap();
        // Crash without sync: bitmaps on disk are stale (empty).
        let mut disk = fs.into_disk();
        disk.crash_now();
        disk.reboot();
        let mut fs2 = Ffs::mount(
            disk,
            FfsConfig {
                cpu: CpuModel::FREE,
            },
        )
        .unwrap();
        fs2.fsck().unwrap();
        // The file survived (metadata was synchronous) and new
        // allocations don't collide with it.
        for i in 0..20 {
            fs2.create(&format!("d/new{i}"), &vec![9u8; 2000]).unwrap();
        }
        let f = fs2.open("d/keep").unwrap();
        assert_eq!(fs2.read_file(&f).unwrap(), vec![7u8; 3000]);
    }

    #[test]
    fn fsck_clears_orphan_inodes() {
        let mut fs = tiny();
        fs.create("real", b"x").unwrap();
        // Fabricate an orphan: an allocated inode with no directory entry
        // (as a crash between inode write and directory write leaves).
        let orphan_ino = 7;
        let mut orphan = Inode::new(InodeKind::File, 0);
        orphan.size = 10;
        fs.write_inode_for_test(orphan_ino, &orphan).unwrap();
        let report = fs.fsck().unwrap();
        assert_eq!(report.orphan_inodes, 1);
        assert_eq!(fs.read_inode(orphan_ino).unwrap().kind, InodeKind::Free);
        assert!(fs.open("real").is_ok());
    }

    #[test]
    fn fsck_scales_with_volume_not_files() {
        // fsck reads every inode table block regardless of use — that is
        // why it takes minutes on a big volume.
        let mut fs = tiny();
        fs.create("one", b"x").unwrap();
        fs.sync().unwrap();
        let report = fs.fsck().unwrap();
        let inode_blocks = fs.layout().groups * fs.layout().inode_blocks_per_cg();
        assert!(
            report.ios as u32 >= inode_blocks / 2,
            "ios {} < {}",
            report.ios,
            inode_blocks
        );
    }
}
