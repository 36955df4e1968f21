//! FFS operations: create, open, read, unlink, list, sync.
//!
//! Metadata writes are **synchronous**, per the original: "Synchronous
//! writes require that the writes be performed in a particular order
//! before an operation can complete (e.g., a file create in UNIX writes
//! the inode to disk before returning)" (§5.3). Data and bitmap blocks
//! are delayed and flushed by [`Ffs::sync`]. Data is read and written
//! **block at a time** — with rotational interleave that is what caps
//! sequential bandwidth near 50 %.

use crate::alloc::{block_to_slot, slot_to_block, slot_to_ino, CgState};
use crate::inode::{Inode, InodeKind, NDIRECT, PTRS_PER_BLOCK};
use crate::layout::FfsLayout;
use crate::{
    BlockNo, FfsError, Ino, Result, BLOCK_BYTES, BLOCK_SECTORS, BLOCK_SECTORS_U64,
    BLOCK_SECTORS_US, INODE_BYTES,
};
use cedar_disk::{Cpu, CpuModel, DiskStats, SimClock, SimDisk};
use std::collections::{BTreeSet, HashMap};

/// The root directory's inode number.
pub const ROOT_INO: Ino = 1;

/// Longest directory-entry name.
pub const MAX_NAME: usize = 255;

/// Rotational interleave: free slots left between logically
/// consecutive data blocks (4.2 BSD shipped with 1).
pub const INTERLEAVE: u32 = 1;

/// Documented per-block CPU cost of the read path (buffer cache lookup,
/// copyout) — used by the Table 5 harness; the volume never charges it.
pub const READ_BLOCK_CPU_US: u64 = 950;

/// Per-block CPU cost of the write path (alloc + copyin), which made
/// 4.2 BSD writes nearly CPU-bound (Table 5: 95 % CPU) — used by the
/// Table 5 harness; the volume never charges it.
pub const WRITE_BLOCK_CPU_US: u64 = 1_650;

/// Configuration for an FFS volume.
#[derive(Clone, Copy, Debug)]
pub struct FfsConfig {
    /// CPU cost table for metadata operations.
    pub cpu: CpuModel,
}

impl Default for FfsConfig {
    fn default() -> Self {
        Self {
            cpu: CpuModel::DORADO,
        }
    }
}

/// An open file.
#[derive(Clone, Debug)]
pub struct FfsFile {
    /// The inode number.
    pub ino: Ino,
    /// A snapshot of the inode.
    pub inode: Inode,
}

/// A mounted FFS volume.
pub struct Ffs {
    disk: SimDisk,
    cpu: Cpu,
    layout: FfsLayout,
    /// Buffer cache: all blocks read or written.
    cache: HashMap<BlockNo, Vec<u8>>,
    /// Blocks with delayed writes pending.
    dirty: BTreeSet<BlockNo>,
    /// In-memory cylinder-group state (header blocks are delayed-written).
    cgs: Vec<CgState>,
    /// Groups whose bitmaps changed since the last sync.
    cg_dirty: Vec<bool>,
}

impl Ffs {
    // ----- lifecycle -----------------------------------------------------------

    /// Formats a blank disk.
    pub fn format(mut disk: SimDisk, config: FfsConfig) -> Result<Ffs> {
        let layout = FfsLayout::compute(disk.geometry());
        let cpu = Cpu::new(disk.clock(), config.cpu);
        disk.write(0, &layout.encode_superblock())?;
        let cgs: Vec<CgState> = (0..layout.groups).map(|_| CgState::new(&layout)).collect();
        let mut fs = Ffs {
            disk,
            cpu,
            layout,
            cache: HashMap::new(),
            dirty: BTreeSet::new(),
            cg_dirty: vec![true; cgs.len()],
            cgs,
        };
        // Reserve inode slots 0 (invalid) and 1 (root); create the root
        // directory.
        fs.cgs[0].alloc_inode_slot(&fs.layout);
        fs.cgs[0].alloc_inode_slot(&fs.layout);
        let now = fs.disk.clock().now();
        let mut root = Inode::new(InodeKind::Dir, now);
        root.nlink = 2;
        fs.write_inode(ROOT_INO, &root)?;
        fs.sync()?;
        Ok(fs)
    }

    /// Mounts an existing volume (reads the superblock and cg headers).
    pub fn mount(mut disk: SimDisk, config: FfsConfig) -> Result<Ffs> {
        let sb = disk.read(0, BLOCK_SECTORS_US)?;
        let layout = FfsLayout::decode_superblock(&sb).map_err(FfsError::Corrupt)?;
        let cpu = Cpu::new(disk.clock(), config.cpu);
        let mut fs = Ffs {
            disk,
            cpu,
            layout,
            cache: HashMap::new(),
            dirty: BTreeSet::new(),
            cgs: Vec::new(),
            cg_dirty: vec![false; layout.groups as usize],
        };
        for g in 0..layout.groups {
            let raw = fs.read_block(layout.cg_header(g))?;
            fs.cgs
                .push(CgState::decode(&raw).map_err(FfsError::Corrupt)?);
        }
        Ok(fs)
    }

    /// Flushes all delayed writes (data blocks, changed bitmaps).
    pub fn sync(&mut self) -> Result<()> {
        for g in 0..self.layout.groups {
            if !std::mem::take(&mut self.cg_dirty[g as usize]) {
                continue;
            }
            let block = self.layout.cg_header(g);
            let bytes = self.cgs[g as usize].encode(BLOCK_BYTES);
            self.cache.insert(block, bytes);
            self.dirty.insert(block);
        }
        let dirty: Vec<BlockNo> = std::mem::take(&mut self.dirty).into_iter().collect();
        for b in dirty {
            let bytes = self.cache[&b].clone();
            self.disk.write(b * BLOCK_SECTORS, &bytes)?;
        }
        Ok(())
    }

    // ----- accessors -----------------------------------------------------------

    /// The layout.
    pub fn layout(&self) -> &FfsLayout {
        &self.layout
    }

    /// The underlying disk.
    pub fn disk_mut(&mut self) -> &mut SimDisk {
        &mut self.disk
    }

    /// Disk statistics.
    pub fn disk_stats(&self) -> DiskStats {
        self.disk.stats()
    }

    /// Free data space, in sectors.
    pub fn free_sectors(&self) -> u64 {
        self.cgs
            .iter()
            .map(|cg| cg.free_blocks(&self.layout) as u64 * BLOCK_SECTORS_U64)
            .sum()
    }

    /// The clock.
    pub fn clock(&self) -> SimClock {
        self.disk.clock()
    }

    /// The CPU charger.
    pub fn cpu(&self) -> &Cpu {
        &self.cpu
    }

    /// Consumes the volume, returning the disk.
    pub fn into_disk(self) -> SimDisk {
        self.disk
    }

    /// Drops every cached block (simulates a cold buffer cache). Dirty
    /// delayed writes are flushed first so no data is lost.
    pub fn drop_caches(&mut self) -> Result<()> {
        let dirty: Vec<BlockNo> = std::mem::take(&mut self.dirty).into_iter().collect();
        for b in dirty {
            if let Some(bytes) = self.cache.get(&b).cloned() {
                self.disk.write(b * BLOCK_SECTORS, &bytes)?;
            }
        }
        self.cache.clear();
        Ok(())
    }

    // ----- block and inode I/O ---------------------------------------------------

    pub(crate) fn read_block(&mut self, b: BlockNo) -> Result<Vec<u8>> {
        if let Some(bytes) = self.cache.get(&b) {
            return Ok(bytes.clone());
        }
        let bytes = self.disk.read(b * BLOCK_SECTORS, BLOCK_SECTORS_US)?;
        self.cache.insert(b, bytes.clone());
        Ok(bytes)
    }

    /// Synchronous block write (metadata path).
    fn write_block_sync(&mut self, b: BlockNo, bytes: Vec<u8>) -> Result<()> {
        assert_eq!(bytes.len(), BLOCK_BYTES);
        self.disk.write(b * BLOCK_SECTORS, &bytes)?;
        self.cache.insert(b, bytes);
        self.dirty.remove(&b);
        Ok(())
    }

    /// Delayed block write (data and bitmap path).
    fn write_block_delayed(&mut self, b: BlockNo, bytes: Vec<u8>) {
        assert_eq!(bytes.len(), BLOCK_BYTES);
        self.cache.insert(b, bytes);
        self.dirty.insert(b);
    }

    /// Reads an inode.
    pub fn read_inode(&mut self, ino: Ino) -> Result<Inode> {
        let (block, off) = self.layout.inode_location(ino);
        let bytes = self.read_block(block)?;
        Inode::decode(&bytes[off..off + INODE_BYTES])
    }

    /// Clears an inode on disk (fsck orphan repair).
    pub(crate) fn clear_inode(&mut self, ino: Ino) -> Result<()> {
        self.write_inode(ino, &Inode::free())
    }

    /// Test hook: writes an inode directly (used to fabricate the orphan
    /// state a crash between inode and directory writes leaves behind).
    #[doc(hidden)]
    pub fn write_inode_for_test(&mut self, ino: Ino, inode: &Inode) -> Result<()> {
        let g = self.layout.group_of_ino(ino) as usize;
        let slot = ino % self.layout.inodes_per_cg;
        // Mark it allocated in the bitmap too, as a real create would.
        let (w, b) = (slot as usize / 64, slot % 64);
        self.cgs[g].inode_bitmap[w] |= 1 << b;
        self.write_inode(ino, inode)
    }

    /// Replaces the in-memory cylinder-group state (fsck rebuild).
    pub(crate) fn install_cgs(&mut self, cgs: Vec<CgState>) {
        self.cg_dirty = vec![true; cgs.len()];
        self.cgs = cgs;
    }

    /// Writes an inode **synchronously** — the UNIX consistency rule.
    fn write_inode(&mut self, ino: Ino, inode: &Inode) -> Result<()> {
        let (block, off) = self.layout.inode_location(ino);
        let mut bytes = self
            .cache
            .get(&block)
            .cloned()
            .unwrap_or_else(|| vec![0u8; BLOCK_BYTES]);
        bytes[off..off + INODE_BYTES].copy_from_slice(&inode.encode());
        self.write_block_sync(block, bytes)
    }

    // ----- allocation -------------------------------------------------------------

    fn alloc_inode(&mut self, preferred_group: u32) -> Result<Ino> {
        let groups = self.layout.groups;
        for i in 0..groups {
            let g = (preferred_group + i) % groups;
            if let Some(slot) = self.cgs[g as usize].alloc_inode_slot(&self.layout) {
                self.cg_dirty[g as usize] = true;
                return Ok(slot_to_ino(&self.layout, g, slot));
            }
        }
        Err(FfsError::NoSpace)
    }

    fn free_inode(&mut self, ino: Ino) {
        let g = self.layout.group_of_ino(ino);
        self.cgs[g as usize].free_inode_slot(ino % self.layout.inodes_per_cg);
        self.cg_dirty[g as usize] = true;
    }

    /// Allocates a data block near `prev` with rotational interleave.
    fn alloc_block(&mut self, preferred_group: u32, prev: Option<BlockNo>) -> Result<BlockNo> {
        let prev_slot = prev.and_then(|b| block_to_slot(&self.layout, b));
        let groups = self.layout.groups;
        for i in 0..groups {
            let g = (preferred_group + i) % groups;
            let prev_in_g = prev_slot.and_then(|(pg, s)| (pg == g).then_some(s));
            if let Some(slot) =
                self.cgs[g as usize].alloc_block_slot(&self.layout, prev_in_g, INTERLEAVE)
            {
                self.cg_dirty[g as usize] = true;
                return Ok(slot_to_block(&self.layout, g, slot));
            }
        }
        Err(FfsError::NoSpace)
    }

    fn free_block(&mut self, b: BlockNo) {
        if let Some((g, slot)) = block_to_slot(&self.layout, b) {
            self.cgs[g as usize].free_block_slot(slot);
            self.cg_dirty[g as usize] = true;
        }
    }

    // ----- block mapping ------------------------------------------------------------

    /// Maps logical block `i` of an inode to its disk block (0 = hole).
    pub fn bmap(&mut self, inode: &Inode, i: usize) -> Result<BlockNo> {
        if i < NDIRECT {
            return Ok(inode.direct[i]);
        }
        let i = i - NDIRECT;
        if i < PTRS_PER_BLOCK {
            if inode.indirect == 0 {
                return Ok(0);
            }
            let blk = self.read_block(inode.indirect)?;
            return Ok(u32::from_le_bytes(blk_ptr(&blk, i)));
        }
        let i = i - PTRS_PER_BLOCK;
        if i >= PTRS_PER_BLOCK * PTRS_PER_BLOCK || inode.dindirect == 0 {
            return Ok(0);
        }
        let l1 = self.read_block(inode.dindirect)?;
        let p = u32::from_le_bytes(blk_ptr(&l1, i / PTRS_PER_BLOCK));
        if p == 0 {
            return Ok(0);
        }
        let l2 = self.read_block(p)?;
        let j = i % PTRS_PER_BLOCK;
        Ok(u32::from_le_bytes(blk_ptr(&l2, j)))
    }

    /// Assigns disk block `b` as logical block `i`, allocating indirect
    /// blocks as needed (written synchronously — they are metadata).
    fn bmap_assign(&mut self, ino: Ino, inode: &mut Inode, i: usize, b: BlockNo) -> Result<()> {
        let g = self.layout.group_of_ino(ino);
        if i < NDIRECT {
            inode.direct[i] = b;
            return Ok(());
        }
        let i = i - NDIRECT;
        if i < PTRS_PER_BLOCK {
            if inode.indirect == 0 {
                inode.indirect = self.alloc_block(g, None)?;
                self.write_block_delayed(inode.indirect, vec![0u8; BLOCK_BYTES]);
            }
            let mut blk = self.read_block(inode.indirect)?;
            blk[i * 4..i * 4 + 4].copy_from_slice(&b.to_le_bytes());
            self.write_block_delayed(inode.indirect, blk);
            return Ok(());
        }
        let i = i - PTRS_PER_BLOCK;
        if inode.dindirect == 0 {
            inode.dindirect = self.alloc_block(g, None)?;
            self.write_block_delayed(inode.dindirect, vec![0u8; BLOCK_BYTES]);
        }
        let mut l1 = self.read_block(inode.dindirect)?;
        let k = i / PTRS_PER_BLOCK;
        let mut p = u32::from_le_bytes(blk_ptr(&l1, k));
        if p == 0 {
            p = self.alloc_block(g, None)?;
            self.write_block_delayed(p, vec![0u8; BLOCK_BYTES]);
            l1[k * 4..k * 4 + 4].copy_from_slice(&p.to_le_bytes());
            self.write_block_delayed(inode.dindirect, l1);
        }
        let mut l2 = self.read_block(p)?;
        let j = i % PTRS_PER_BLOCK;
        l2[j * 4..j * 4 + 4].copy_from_slice(&b.to_le_bytes());
        self.write_block_delayed(p, l2);
        Ok(())
    }

    // ----- directories ----------------------------------------------------------------

    fn read_file_bytes(&mut self, inode: &Inode) -> Result<Vec<u8>> {
        let mut out = Vec::with_capacity(inode.size as usize);
        for i in 0..inode.blocks() as usize {
            let b = self.bmap(inode, i)?;
            if b == 0 {
                out.extend_from_slice(&[0u8; BLOCK_BYTES]);
            } else {
                out.extend(self.read_block(b)?);
            }
        }
        out.truncate(inode.size as usize);
        Ok(out)
    }

    fn decode_dir(bytes: &[u8]) -> Result<Vec<(Ino, String)>> {
        let mut out = Vec::new();
        let mut at = 0;
        while at + 6 <= bytes.len() {
            let ino = u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]]);
            let len = u16::from_le_bytes([bytes[at + 4], bytes[at + 5]]) as usize;
            if ino == 0 && len == 0 {
                break; // End of directory stream.
            }
            if at + 6 + len > bytes.len() {
                return Err(FfsError::Corrupt("directory entry truncated".into()));
            }
            let name = String::from_utf8(bytes[at + 6..at + 6 + len].to_vec())
                .map_err(|_| FfsError::Corrupt("directory name not UTF-8".into()))?;
            out.push((ino, name));
            at += 6 + len;
        }
        Ok(out)
    }

    fn encode_dir(entries: &[(Ino, String)]) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        for (ino, name) in entries {
            let len = u16::try_from(name.len())
                .map_err(|_| FfsError::BadName(format!("name too long: {name:?}")))?;
            out.extend_from_slice(&ino.to_le_bytes());
            out.extend_from_slice(&len.to_le_bytes());
            out.extend_from_slice(name.as_bytes());
        }
        Ok(out)
    }

    /// Reads a directory's entries.
    pub(crate) fn read_dir(&mut self, ino: Ino) -> Result<Vec<(Ino, String)>> {
        let inode = self.read_inode(ino)?;
        if inode.kind != InodeKind::Dir {
            return Err(FfsError::NotADirectory(format!("inode {ino}")));
        }
        let bytes = self.read_file_bytes(&inode)?;
        let entries = Self::decode_dir(&bytes)?;
        self.cpu.entries(entries.len() as u64);
        Ok(entries)
    }

    /// Rewrites a directory's contents; changed blocks are written
    /// synchronously (directory updates order before the create returns).
    ///
    /// As in real FFS, a directory's size is always block-rounded and
    /// entries are self-terminating within the stream, so appending an
    /// entry into an existing block leaves the directory inode untouched
    /// on disk. The inode is (synchronously) rewritten only when blocks
    /// are added or removed — the case that must survive a crash.
    fn write_dir(&mut self, ino: Ino, entries: &[(Ino, String)]) -> Result<()> {
        let mut inode = self.read_inode(ino)?;
        let old_bytes = self.read_file_bytes(&inode)?;
        let bytes = Self::encode_dir(entries)?;
        let nblocks = bytes.len().div_ceil(BLOCK_BYTES).max(1);
        let g = self.layout.group_of_ino(ino);
        let mut prev = None;
        let mut inode_dirty = false;
        for i in 0..nblocks {
            let mut chunk = vec![0u8; BLOCK_BYTES];
            let lo = i * BLOCK_BYTES;
            let hi = (lo + BLOCK_BYTES).min(bytes.len());
            if lo < bytes.len() {
                chunk[..hi - lo].copy_from_slice(&bytes[lo..hi]);
            }
            let mut b = self.bmap(&inode, i)?;
            if b == 0 {
                b = self.alloc_block(g, prev)?;
                self.bmap_assign(ino, &mut inode, i, b)?;
                inode_dirty = true;
            }
            // Only write blocks whose full contents (including the zero
            // padding that terminates the entry stream) changed.
            let mut old_chunk = vec![0u8; BLOCK_BYTES];
            if lo < old_bytes.len() {
                let ohi = (lo + BLOCK_BYTES).min(old_bytes.len());
                old_chunk[..ohi - lo].copy_from_slice(&old_bytes[lo..ohi]);
            }
            if old_chunk != chunk {
                self.write_block_sync(b, chunk)?;
            }
            prev = Some(b);
        }
        // Free surplus blocks after a shrink.
        let old_blocks = inode.blocks() as usize;
        for i in nblocks..old_blocks {
            let b = self.bmap(&inode, i)?;
            if b != 0 {
                self.free_block(b);
            }
        }
        let new_size = (nblocks * BLOCK_BYTES) as u64;
        if inode.size != new_size {
            inode.size = new_size;
            inode_dirty = true;
        }
        if inode_dirty {
            // Block pointers changed: this must be durable before the
            // operation returns, or the new tail is unreachable.
            self.write_inode(ino, &inode)?;
        }
        Ok(())
    }

    /// Resolves a path to an inode number.
    pub fn lookup(&mut self, path: &str) -> Result<Ino> {
        let mut ino = ROOT_INO;
        for comp in path.split('/').filter(|c| !c.is_empty()) {
            self.cpu.btree_nodes(1); // Namei component cost.
            let entries = self.read_dir(ino)?;
            ino = entries
                .iter()
                .find(|(_, n)| n == comp)
                .map(|(i, _)| *i)
                .ok_or_else(|| FfsError::NotFound(path.to_string()))?;
        }
        Ok(ino)
    }

    fn split_parent(path: &str) -> Result<(&str, &str)> {
        let path = path.trim_matches('/');
        if path.is_empty() {
            return Err(FfsError::BadName("empty path".into()));
        }
        match path.rfind('/') {
            Some(i) => Ok((&path[..i], &path[i + 1..])),
            None => Ok(("", path)),
        }
    }

    fn validate_name(name: &str) -> Result<()> {
        if name.is_empty() || name.len() > MAX_NAME || name.bytes().any(|b| b == 0) {
            return Err(FfsError::BadName(name.to_string()));
        }
        Ok(())
    }

    // ----- operations ---------------------------------------------------------------

    /// Creates a directory.
    pub fn mkdir(&mut self, path: &str) -> Result<Ino> {
        self.cpu.op();
        let (parent_path, name) = Self::split_parent(path)?;
        Self::validate_name(name)?;
        let parent = self.lookup(parent_path)?;
        let mut entries = self.read_dir(parent)?;
        if entries.iter().any(|(_, n)| n == name) {
            return Err(FfsError::Exists(path.to_string()));
        }
        let g = self.layout.group_of_ino(parent);
        // FFS spreads directories across groups; simplest heuristic:
        // next group round-robin by current directory count.
        let ino = self.alloc_inode((g + 1) % self.layout.groups)?;
        let now = self.disk.clock().now();
        let mut inode = Inode::new(InodeKind::Dir, now);
        inode.nlink = 2;
        self.write_inode(ino, &inode)?;
        entries.push((ino, name.to_string()));
        self.write_dir(parent, &entries)?;
        Ok(ino)
    }

    /// Creates a file holding `data`. The §5.3 synchronous-write dance:
    /// inode first, then the directory block, then the data.
    pub fn create(&mut self, path: &str, data: &[u8]) -> Result<Ino> {
        self.cpu.op();
        let (parent_path, name) = Self::split_parent(path)?;
        Self::validate_name(name)?;
        let parent = self.lookup(parent_path)?;
        let mut entries = self.read_dir(parent)?;
        if entries.iter().any(|(_, n)| n == name) {
            return Err(FfsError::Exists(path.to_string()));
        }
        // Inode in the directory's group.
        let g = self.layout.group_of_ino(parent);
        let ino = self.alloc_inode(g)?;
        let my_group = self.layout.group_of_ino(ino);
        let now = self.disk.clock().now();
        let mut inode = Inode::new(InodeKind::File, now);
        inode.size = data.len() as u64;

        // Allocate and (delayed-)write the data blocks, interleaved.
        let nblocks = data.len().div_ceil(BLOCK_BYTES);
        let mut prev = None;
        let mut my_blocks = Vec::with_capacity(nblocks);
        for i in 0..nblocks {
            let b = self.alloc_block(my_group, prev)?;
            let mut chunk = vec![0u8; BLOCK_BYTES];
            let lo = i * BLOCK_BYTES;
            let hi = (lo + BLOCK_BYTES).min(data.len());
            chunk[..hi - lo].copy_from_slice(&data[lo..hi]);
            self.write_block_delayed(b, chunk);
            self.bmap_assign(ino, &mut inode, i, b)?;
            my_blocks.push(b);
            prev = Some(b);
        }
        self.cpu.sectors(nblocks as u64 * BLOCK_SECTORS_U64);

        // Synchronous: inode before directory, directory before return.
        self.write_inode(ino, &inode)?;
        entries.push((ino, name.to_string()));
        self.write_dir(parent, &entries)?;

        // The data itself goes out before return too (write + close),
        // block at a time.
        for b in my_blocks {
            if self.dirty.remove(&b) {
                let bytes = self.cache[&b].clone();
                self.disk.write(b * BLOCK_SECTORS, &bytes)?;
            }
        }
        Ok(ino)
    }

    /// Opens a file by path.
    pub fn open(&mut self, path: &str) -> Result<FfsFile> {
        self.cpu.op();
        let ino = self.lookup(path)?;
        let inode = self.read_inode(ino)?;
        Ok(FfsFile { ino, inode })
    }

    /// Reads a whole file, block at a time (each block is its own disk
    /// request — the 4.2 BSD I/O pattern the interleave exists for).
    pub fn read_file(&mut self, file: &FfsFile) -> Result<Vec<u8>> {
        self.cpu
            .sectors(file.inode.blocks() as u64 * BLOCK_SECTORS_U64);
        self.read_file_bytes(&file.inode)
    }

    /// Reads one logical block.
    pub fn read_block_of(&mut self, file: &FfsFile, i: usize) -> Result<Vec<u8>> {
        if i >= file.inode.blocks() as usize {
            return Err(FfsError::OutOfRange);
        }
        let b = self.bmap(&file.inode, i)?;
        self.cpu.sectors(BLOCK_SECTORS_U64);
        if b == 0 {
            Ok(vec![0u8; BLOCK_BYTES])
        } else {
            self.read_block(b)
        }
    }

    /// Removes a file.
    pub fn unlink(&mut self, path: &str) -> Result<()> {
        self.cpu.op();
        let (parent_path, name) = Self::split_parent(path)?;
        let parent = self.lookup(parent_path)?;
        let mut entries = self.read_dir(parent)?;
        let pos = entries
            .iter()
            .position(|(_, n)| n == name)
            .ok_or_else(|| FfsError::NotFound(path.to_string()))?;
        let (ino, _) = entries.remove(pos);
        let inode = self.read_inode(ino)?;
        if inode.kind == InodeKind::Dir {
            return Err(FfsError::NotADirectory(format!("{path} is a directory")));
        }
        // Free the blocks (bitmaps are delayed), clear the inode (sync),
        // rewrite the directory (sync).
        for i in 0..inode.blocks() as usize {
            let b = self.bmap(&inode, i)?;
            if b != 0 {
                self.free_block(b);
            }
        }
        if inode.indirect != 0 {
            self.free_block(inode.indirect);
        }
        if inode.dindirect != 0 {
            let l1 = self.read_block(inode.dindirect)?;
            for k in 0..PTRS_PER_BLOCK {
                let p = u32::from_le_bytes(blk_ptr(&l1, k));
                if p != 0 {
                    self.free_block(p);
                }
            }
            self.free_block(inode.dindirect);
        }
        self.write_inode(ino, &Inode::free())?;
        self.free_inode(ino);
        self.write_dir(parent, &entries)?;
        Ok(())
    }

    /// Lists a directory with each entry's inode (properties) — costing
    /// one inode-block read per ~8 files, clustered by cylinder group
    /// (the Table 4 "list 100 files = 9 I/Os" shape).
    pub fn list(&mut self, path: &str) -> Result<Vec<(String, Inode)>> {
        self.cpu.op();
        let dir = self.lookup(path)?;
        let entries = self.read_dir(dir)?;
        let mut out = Vec::with_capacity(entries.len());
        for (ino, name) in entries {
            out.push((name, self.read_inode(ino)?));
        }
        Ok(out)
    }

    /// Names in a directory without reading their inodes.
    pub fn list_names(&mut self, path: &str) -> Result<Vec<String>> {
        let dir = self.lookup(path)?;
        Ok(self.read_dir(dir)?.into_iter().map(|(_, n)| n).collect())
    }
}

fn blk_ptr(blk: &[u8], i: usize) -> [u8; 4] {
    [blk[i * 4], blk[i * 4 + 1], blk[i * 4 + 2], blk[i * 4 + 3]]
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn create_open_read_roundtrip() {
        let mut fs = tiny();
        fs.create("hello.txt", b"hi there").unwrap();
        let f = fs.open("hello.txt").unwrap();
        assert_eq!(fs.read_file(&f).unwrap(), b"hi there");
    }

    #[test]
    fn nested_directories() {
        let mut fs = tiny();
        fs.mkdir("usr").unwrap();
        fs.mkdir("usr/src").unwrap();
        fs.create("usr/src/main.c", b"int main(){}").unwrap();
        let f = fs.open("usr/src/main.c").unwrap();
        assert_eq!(fs.read_file(&f).unwrap(), b"int main(){}");
        assert!(matches!(
            fs.open("usr/bin/nope"),
            Err(FfsError::NotFound(_))
        ));
    }

    #[test]
    fn duplicate_create_rejected() {
        let mut fs = tiny();
        fs.create("f", b"1").unwrap();
        assert!(matches!(fs.create("f", b"2"), Err(FfsError::Exists(_))));
    }

    #[test]
    fn multi_block_file_roundtrip() {
        let mut fs = tiny();
        let data: Vec<u8> = (0..5000u32).map(|i| (i % 233) as u8).collect();
        fs.create("big", &data).unwrap();
        let f = fs.open("big").unwrap();
        assert_eq!(fs.read_file(&f).unwrap(), data);
        assert_eq!(fs.read_block_of(&f, 2).unwrap()[..], data[2048..3072]);
    }

    #[test]
    fn indirect_blocks_work() {
        let mut fs = tiny();
        // > 10 KB forces the single-indirect path.
        let data = vec![7u8; 15 * BLOCK_BYTES + 3];
        fs.create("indirect", &data).unwrap();
        let f = fs.open("indirect").unwrap();
        assert!(f.inode.indirect != 0);
        assert_eq!(fs.read_file(&f).unwrap(), data);
    }

    #[test]
    fn unlink_frees_space_and_name() {
        let mut fs = tiny();
        fs.create("f", &vec![1u8; 4096]).unwrap();
        fs.unlink("f").unwrap();
        assert!(matches!(fs.open("f"), Err(FfsError::NotFound(_))));
        // The space is reusable.
        fs.create("g", &vec![2u8; 4096]).unwrap();
        let f = fs.open("g").unwrap();
        assert_eq!(fs.read_file(&f).unwrap(), vec![2u8; 4096]);
    }

    #[test]
    fn list_returns_inodes() {
        let mut fs = tiny();
        fs.mkdir("d").unwrap();
        for i in 0..10 {
            fs.create(&format!("d/f{i}"), &vec![0u8; 100 * (i + 1)])
                .unwrap();
        }
        let l = fs.list("d").unwrap();
        assert_eq!(l.len(), 10);
        assert_eq!(l[0].1.size, 100);
        assert_eq!(l[9].1.size, 1000);
    }

    #[test]
    fn data_blocks_are_interleaved() {
        let mut fs = tiny();
        let data = vec![1u8; 4 * BLOCK_BYTES];
        fs.create("inter", &data).unwrap();
        let f = fs.open("inter").unwrap();
        let b0 = fs.bmap(&f.inode, 0).unwrap();
        let b1 = fs.bmap(&f.inode, 1).unwrap();
        let b2 = fs.bmap(&f.inode, 2).unwrap();
        assert_eq!(b1, b0 + 2, "one-slot rotational gap");
        assert_eq!(b2, b1 + 2);
    }

    #[test]
    fn create_costs_about_three_ios() {
        // Table 4: 100 small creates = 308 I/Os in 4.3 BSD.
        let mut fs = tiny();
        fs.mkdir("d").unwrap();
        fs.create("d/warm", b"w").unwrap();
        let before = fs.disk_stats();
        fs.create("d/file", b"x").unwrap();
        let delta = fs.disk_stats().since(&before);
        assert!(
            (3..=4).contains(&delta.total_ops()),
            "create cost {} I/Os: {delta:?}",
            delta.total_ops()
        );
    }

    #[test]
    fn survives_sync_and_mount() {
        let mut fs = tiny();
        fs.mkdir("d").unwrap();
        fs.create("d/keep", b"persisted").unwrap();
        fs.sync().unwrap();
        let disk = fs.into_disk();
        let mut fs2 = Ffs::mount(
            disk,
            FfsConfig {
                cpu: CpuModel::FREE,
            },
        )
        .unwrap();
        let f = fs2.open("d/keep").unwrap();
        assert_eq!(fs2.read_file(&f).unwrap(), b"persisted");
        // Allocation state survived: new files don't tramp old ones.
        fs2.create("d/new", &vec![9u8; 3000]).unwrap();
        let f = fs2.open("d/keep").unwrap();
        assert_eq!(fs2.read_file(&f).unwrap(), b"persisted");
    }

    #[test]
    fn empty_file() {
        let mut fs = tiny();
        fs.create("empty", b"").unwrap();
        let f = fs.open("empty").unwrap();
        assert_eq!(f.inode.size, 0);
        assert_eq!(fs.read_file(&f).unwrap(), b"");
    }

    #[test]
    fn bad_names_rejected() {
        let mut fs = tiny();
        assert!(fs.create("", b"").is_err());
        assert!(fs.create("/", b"").is_err());
        assert!(fs.create(&"x".repeat(300), b"").is_err());
    }
}
