//! The CFS volume: format, boot, and the file operations the paper
//! benchmarks (create, open, read, write, delete, list).
//!
//! Every metadata update is synchronous and in place. The exact I/O
//! sequence of a small create follows the §6 script:
//!
//! 1. verify the candidate pages are free (read their labels — the VAM is
//!    only a hint);
//! 2. write the header labels (claiming the header sectors);
//! 3. write the data labels;
//! 4. write the header;
//! 5. update the file name table (write-through B-tree);
//! 6. write the data;
//! 7. rewrite the header with the final byte count.

use crate::error::CfsError;
use crate::header::{FileHeader, HEADER_SECTORS};
use crate::layout::{BootPage, CfsLayout};
use crate::nametable::{nt_labels, CfsNtStore, NtEntry};
use crate::Result;
use cedar_btree::{BTree, PageId};
use cedar_disk::{Cpu, CpuModel, Label, PageKind, SimDisk, SECTOR_BYTES};
use cedar_disk::{DiskStats, SimClock};
use cedar_vol::{AllocPolicy, Allocator, FileName, Run, RunTable, Vam};
use std::collections::HashMap;

/// Configuration for formatting or booting a CFS volume.
#[derive(Clone, Copy, Debug)]
pub struct CfsConfig {
    /// Name-table pages (0 selects a geometry-scaled default).
    pub nt_pages: u32,
    /// CPU cost table.
    pub cpu: CpuModel,
    /// Simulated decode/verify CPUs for the scavenger's label- and
    /// header-interpretation stages. `1` (or `0`) is the historical
    /// serial scavenger; larger values charge the Mesa-style label
    /// interpretation (the dominant CPU cost, §5.3) to that many
    /// simulated CPUs, whose critical path advances the clock. They all
    /// run on the caller's thread.
    pub scavenge_workers: usize,
}

impl Default for CfsConfig {
    fn default() -> Self {
        Self {
            nt_pages: 0,
            cpu: CpuModel::DORADO,
            scavenge_workers: 1,
        }
    }
}

/// An open file handle.
#[derive(Clone, Debug)]
pub struct CfsFile {
    /// The file's name and version.
    pub name: FileName,
    /// The file's unique id.
    pub uid: u64,
    /// Disk address of header page 0.
    pub header_addr: u32,
    /// The decoded header (properties + run table).
    pub header: FileHeader,
}

impl CfsFile {
    /// File length in pages.
    pub fn pages(&self) -> u32 {
        self.header.run_table.pages()
    }
}

/// Builds the borrowed name-table store from disjoint volume fields.
macro_rules! nt_store {
    ($self:ident) => {
        CfsNtStore {
            disk: &mut $self.disk,
            cpu: &$self.cpu,
            layout: &$self.layout,
            cache: &mut $self.nt_cache,
            boot: &mut $self.boot,
            boot_dirty: &mut $self.boot_dirty,
        }
    };
}

/// A mounted CFS volume.
pub struct CfsVolume {
    disk: SimDisk,
    cpu: Cpu,
    layout: CfsLayout,
    boot: BootPage,
    boot_dirty: bool,
    tree: BTree,
    nt_cache: HashMap<PageId, Vec<u8>>,
    vam: Vam,
    alloc: Allocator,
    uid_counter: u32,
    /// Whether the on-disk boot page currently claims a valid VAM hint;
    /// the first mutation must clear it so a crash forces reconstruction.
    vam_hint_on_disk: bool,
    /// Scavenger decode/verify CPUs (from [`CfsConfig`]).
    pub(crate) scavenge_workers: usize,
}

impl CfsVolume {
    // ----- lifecycle -----------------------------------------------------------

    /// Formats a blank disk as a CFS volume.
    pub fn format(mut disk: SimDisk, config: CfsConfig) -> Result<CfsVolume> {
        let layout = CfsLayout::compute(disk.geometry(), config.nt_pages);
        let cpu = Cpu::new(disk.clock(), config.cpu);

        // Label the system areas. Boot + VAM get Boot labels; the name
        // table region gets NameTable labels, one page number per sector.
        let sys_labels: Vec<Label> = (0..layout.nt_start)
            .map(|i| Label::new(0, i, PageKind::Boot))
            .collect();
        disk.write_labels(0, &sys_labels, None)?;
        for p in 0..layout.nt_pages {
            disk.write_labels(layout.nt_sector(p), &nt_labels(p), None)?;
        }

        let mut vam = Vam::new_all_allocated(layout.total_sectors);
        let (dlo, dhi) = layout.data_area();
        vam.free_run(Run::new(dlo, dhi - dlo));

        let mut boot = BootPage::new(layout.nt_pages);
        boot.boot_count = 1;

        let mut vol = CfsVolume {
            alloc: Allocator::new(AllocPolicy::SingleArea, dlo, dhi),
            disk,
            cpu,
            layout,
            boot,
            boot_dirty: false,
            tree: BTree::open(0),
            nt_cache: HashMap::new(),
            vam,
            uid_counter: 0,
            vam_hint_on_disk: false,
            scavenge_workers: config.scavenge_workers,
        };
        let mut store = nt_store!(vol);
        vol.tree = BTree::create(&mut store)?;
        vol.boot.nt_root = vol.tree.root();
        vol.write_vam()?;
        vol.boot.vam_valid = true;
        vol.write_boot()?;
        vol.vam_hint_on_disk = true;
        Ok(vol)
    }

    /// Boots an existing CFS volume. Returns the volume and whether the
    /// VAM hint was valid (if not, the free map is empty and a
    /// [`Self::scavenge`](crate::scavenge) is needed before allocating).
    pub fn boot(mut disk: SimDisk, config: CfsConfig) -> Result<(CfsVolume, bool)> {
        let layout = CfsLayout::compute(disk.geometry(), config.nt_pages);
        let cpu = Cpu::new(disk.clock(), config.cpu);
        let raw = disk.read(layout.boot_sector, 1)?;
        let mut boot =
            BootPage::decode(&raw).map_err(|m| CfsError::Corrupt(format!("boot page: {m}")))?;
        boot.boot_count += 1;

        let vam_loaded = boot.vam_valid;
        let vam = if vam_loaded {
            let raw = disk.read(layout.vam_start, layout.vam_sectors as usize)?;
            Vam::from_bytes(&raw).map_err(CfsError::Corrupt)?
        } else {
            // Stale hint: start with nothing free; a scavenge rebuilds it.
            Vam::new_all_allocated(layout.total_sectors)
        };
        // Invalidate the hint: it is stale the moment we mutate anything.
        boot.vam_valid = false;

        let (dlo, dhi) = layout.data_area();
        let mut vol = CfsVolume {
            alloc: Allocator::new(AllocPolicy::SingleArea, dlo, dhi),
            tree: BTree::open(boot.nt_root),
            disk,
            cpu,
            layout,
            boot,
            boot_dirty: false,
            nt_cache: HashMap::new(),
            vam,
            uid_counter: 0,
            vam_hint_on_disk: false,
            scavenge_workers: config.scavenge_workers,
        };
        vol.write_boot()?;
        Ok((vol, vam_loaded))
    }

    /// Controlled shutdown: saves the VAM hint and marks it valid.
    pub fn shutdown(&mut self) -> Result<()> {
        self.write_vam()?;
        self.boot.vam_valid = true;
        self.write_boot()?;
        self.vam_hint_on_disk = true;
        Ok(())
    }

    // ----- accessors -----------------------------------------------------------

    /// The underlying disk (for stats and fault injection).
    pub fn disk_mut(&mut self) -> &mut SimDisk {
        &mut self.disk
    }

    /// Disk statistics so far.
    pub fn disk_stats(&self) -> DiskStats {
        self.disk.stats()
    }

    /// The simulation clock.
    pub fn clock(&self) -> SimClock {
        self.disk.clock()
    }

    /// The CPU charger (for %CPU accounting).
    pub fn cpu(&self) -> &Cpu {
        &self.cpu
    }

    /// The volume layout.
    pub fn layout(&self) -> &CfsLayout {
        &self.layout
    }

    /// Consumes the volume, returning the disk — used to simulate a crash
    /// (volatile state is dropped) followed by a reboot.
    pub fn into_disk(self) -> SimDisk {
        self.disk
    }

    /// Free data sectors according to the (hint) VAM.
    pub fn free_sectors(&self) -> u32 {
        self.vam.free_count()
    }

    /// Checks the structural invariants of the name table; an error here
    /// is the condition that forces a scavenge.
    pub fn verify(&mut self) -> Result<()> {
        let tree = self.tree;
        let mut store = nt_store!(self);
        tree.check_invariants(&mut store)?;
        Ok(())
    }

    // ----- internals -----------------------------------------------------------

    pub(crate) fn parts(
        &mut self,
    ) -> (
        &mut SimDisk,
        &Cpu,
        &CfsLayout,
        &mut Vam,
        &mut BootPage,
        &mut BTree,
    ) {
        (
            &mut self.disk,
            &self.cpu,
            &self.layout,
            &mut self.vam,
            &mut self.boot,
            &mut self.tree,
        )
    }

    /// Rewrites the boot page after a scavenge installed rebuilt state.
    pub(crate) fn finish_scavenge_boot_page(&mut self) -> Result<()> {
        self.write_boot()
    }

    pub(crate) fn rebuild_after_scavenge(
        &mut self,
        vam: Vam,
        mut boot: BootPage,
        tree: BTree,
        cache: HashMap<PageId, Vec<u8>>,
    ) {
        boot.boot_count = self.boot.boot_count;
        self.vam = vam;
        self.boot = boot;
        self.tree = tree;
        self.nt_cache = cache;
        self.boot_dirty = false;
        let (dlo, dhi) = self.layout.data_area();
        self.alloc = Allocator::new(AllocPolicy::SingleArea, dlo, dhi);
    }

    fn write_boot(&mut self) -> Result<()> {
        self.boot.nt_root = self.tree.root();
        self.disk
            .write(self.layout.boot_sector, &self.boot.encode())?;
        self.boot_dirty = false;
        Ok(())
    }

    /// Persists the boot page if the tree root or page bitmap changed
    /// during an operation. Ordered *after* the tree writes — the window
    /// a crash exploits in CFS.
    fn flush_boot_if_dirty(&mut self) -> Result<()> {
        if self.boot_dirty || self.boot.nt_root != self.tree.root() {
            self.write_boot()?;
        }
        Ok(())
    }

    /// Clears the on-disk VAM-valid flag before the first mutation after
    /// a format, boot or shutdown, so that a crash leaves the hint
    /// correctly marked stale.
    fn invalidate_vam_hint(&mut self) -> Result<()> {
        if self.vam_hint_on_disk {
            self.boot.vam_valid = false;
            self.write_boot()?;
            self.vam_hint_on_disk = false;
        }
        Ok(())
    }

    fn write_vam(&mut self) -> Result<()> {
        let mut bytes = self.vam.to_bytes();
        bytes.resize(self.layout.vam_sectors as usize * SECTOR_BYTES, 0);
        self.disk.write(self.layout.vam_start, &bytes)?;
        Ok(())
    }

    fn next_uid(&mut self) -> u64 {
        self.uid_counter += 1;
        ((self.boot.boot_count as u64) << 32) | self.uid_counter as u64
    }

    fn header_labels(uid: u64) -> Vec<Label> {
        (0..HEADER_SECTORS)
            .map(|i| Label::new(uid, i, PageKind::Header))
            .collect()
    }

    fn data_labels(uid: u64, first_page: u32, len: u32) -> Vec<Label> {
        (0..len)
            .map(|i| Label::new(uid, first_page + i, PageKind::Data))
            .collect()
    }

    /// Allocates and label-verifies `pages` sectors. The VAM is only a
    /// hint: any sector whose label is not `Free` is repaired in the VAM
    /// and the allocation retried (§2: "Free pages may be lost and file
    /// creation may be somewhat slow").
    fn claim_verified(&mut self, pages: u32) -> Result<RunTable> {
        if pages == 0 {
            return Ok(RunTable::new());
        }
        for _ in 0..8 {
            let rt = self.alloc.allocate(&mut self.vam, pages)?;
            let mut stale: Vec<u32> = Vec::new();
            for run in rt.runs() {
                let labels = self.disk.read_labels(run.start, run.len as usize)?;
                for (i, l) in labels.iter().enumerate() {
                    if !l.is_free() {
                        stale.push(run.start + i as u32);
                    }
                }
            }
            if stale.is_empty() {
                return Ok(rt);
            }
            // Return the claim, then pin the liars as allocated.
            for run in rt.runs() {
                self.vam.free_run(*run);
            }
            for a in stale {
                self.vam.allocate_run(Run::new(a, 1));
            }
        }
        Err(CfsError::NoSpace)
    }

    /// Allocates a header (contiguous pair) plus `data_pages` data
    /// sectors, preferring one combined run.
    fn allocate_file(&mut self, data_pages: u32) -> Result<(Run, RunTable)> {
        let rt = self.claim_verified(HEADER_SECTORS + data_pages)?;
        if rt.runs()[0].len >= HEADER_SECTORS {
            let first = rt.runs()[0];
            let header = Run::new(first.start, HEADER_SECTORS);
            let mut data = RunTable::new();
            if first.len > HEADER_SECTORS {
                data.push(Run::new(
                    first.start + HEADER_SECTORS,
                    first.len - HEADER_SECTORS,
                ));
            }
            for r in &rt.runs()[1..] {
                data.push(*r);
            }
            return Ok((header, data));
        }
        // Fragmented first run: give everything back and allocate the
        // header strictly contiguously, then the data.
        for r in rt.runs() {
            self.vam.free_run(*r);
        }
        let (lo, hi) = self.layout.data_area();
        let hr = self
            .vam
            .find_free_run(HEADER_SECTORS, lo, hi, lo)
            .ok_or(CfsError::NoSpace)?;
        self.vam.allocate_run(hr);
        let data = self.claim_verified(data_pages)?;
        Ok((hr, data))
    }

    /// The newest version of `name` and its raw name-table entry, in one
    /// walk of the tree routed by the end of the name's key range.
    fn newest(&mut self, name: &str) -> Result<Option<(FileName, Vec<u8>)>> {
        let (lo, hi) = FileName::versions_range(name);
        let tree = self.tree;
        let last = {
            let mut store = nt_store!(self);
            tree.last_in_range(&mut store, &lo, &hi)?
        };
        last.map(|(key, raw)| Ok((FileName::from_key(&key).map_err(CfsError::Corrupt)?, raw)))
            .transpose()
    }

    /// The name-table entry of the newest version of `name`, or of the
    /// version asked for.
    fn resolve(&mut self, name: &str, version: Option<u32>) -> Result<(FileName, NtEntry)> {
        let (fname, raw) = match version {
            Some(v) => {
                let fname = FileName::new(name, v).map_err(CfsError::BadName)?;
                let tree = self.tree;
                let got = {
                    let mut store = nt_store!(self);
                    tree.get(&mut store, &fname.to_key())?
                };
                let raw = got.ok_or_else(|| CfsError::NotFound(fname.to_string()))?;
                (fname, raw)
            }
            None => self
                .newest(name)?
                .ok_or_else(|| CfsError::NotFound(name.to_string()))?,
        };
        self.cpu.entries(1);
        Ok((fname, NtEntry::decode(&raw)?))
    }

    /// Highest existing version of `name` (0 if none).
    pub fn max_version(&mut self, name: &str) -> Result<u32> {
        Ok(self.newest(name)?.map_or(0, |(newest, _)| newest.version))
    }

    // ----- operations ------------------------------------------------------------

    /// Creates a new version of `name` holding `data`, returning the open
    /// file. Follows the paper's six-I/O create script (module docs).
    pub fn create(&mut self, name: &str, data: &[u8]) -> Result<CfsFile> {
        self.cpu.op();
        self.invalidate_vam_hint()?;
        FileName::new(name, 1).map_err(CfsError::BadName)?; // Validate early.
        let version = self.max_version(name)?.checked_add(1).ok_or_else(|| {
            CfsError::BadName(format!("{name}: no version number after {}", u32::MAX))
        })?;
        let fname = FileName::new(name, version).map_err(CfsError::BadName)?;
        let uid = self.next_uid();
        let data_pages = data.len().div_ceil(SECTOR_BYTES) as u32;

        // (1) Find and verify free pages.
        let (header_run, data_rt) = self.allocate_file(data_pages)?;

        // (2) Claim the header sectors by writing their labels.
        let hlabels = Self::header_labels(uid);
        self.disk.write_labels(
            header_run.start,
            &hlabels,
            Some(&vec![Label::FREE; HEADER_SECTORS as usize]),
        )?;

        // (3) Claim the data sectors.
        let mut page = 0u32;
        for run in data_rt.runs() {
            let labels = Self::data_labels(uid, page, run.len);
            self.disk.write_labels(
                run.start,
                &labels,
                Some(&vec![Label::FREE; run.len as usize]),
            )?;
            page += run.len;
        }

        // (4) Write the header (size still zero).
        let mut header = FileHeader {
            uid,
            name: fname.clone(),
            keep: 0,
            byte_size: 0,
            create_time: self.disk.clock().now(),
            run_table: data_rt.clone(),
        };
        self.cpu.entries(1);
        self.disk
            .write_checked(header_run.start, &header.encode(), &hlabels)?;

        // (5) Update the file name table.
        let entry = NtEntry {
            uid,
            header_addr: header_run.start,
            keep: 0,
        };
        let mut tree = self.tree;
        let inserted = {
            let mut store = nt_store!(self);
            tree.insert(&mut store, &fname.to_key(), &entry.encode())
        };
        match inserted {
            Ok(None) => {}
            Ok(Some(_)) => return Err(CfsError::Exists(fname.to_string())),
            Err(e) => {
                // A name the table has no page for: unclaim the sectors,
                // or they stay lost until the next scavenge.
                self.free_labels(uid, header_run.start, &data_rt)?;
                self.free_pages(header_run.start, &data_rt);
                return Err(e.into());
            }
        }
        self.tree = tree;
        self.flush_boot_if_dirty()?;

        // (6) Write the data.
        self.write_extents(uid, &data_rt, 0, data)?;

        // (7) Rewrite the header with the final byte count.
        header.byte_size = data.len() as u64;
        self.disk
            .write_checked(header_run.start, &header.encode(), &hlabels)?;

        Ok(CfsFile {
            name: fname,
            uid,
            header_addr: header_run.start,
            header,
        })
    }

    /// Writes `data` across the extents of `rt` starting at logical page
    /// `first_page`, one label-checked write per extent.
    fn write_extents(
        &mut self,
        uid: u64,
        rt: &RunTable,
        first_page: u32,
        data: &[u8],
    ) -> Result<()> {
        let mut page = 0u32;
        let mut offset = 0usize;
        self.cpu.sectors(data.len().div_ceil(SECTOR_BYTES) as u64);
        for run in rt.runs() {
            if offset >= data.len() {
                break;
            }
            let sectors = run.len as usize;
            let want = (data.len() - offset).min(sectors * SECTOR_BYTES);
            let mut buf = vec![0u8; sectors * SECTOR_BYTES];
            buf[..want].copy_from_slice(&data[offset..offset + want]);
            let labels = Self::data_labels(uid, first_page + page, run.len);
            self.disk.write_checked(run.start, &buf, &labels)?;
            offset += want;
            page += run.len;
        }
        Ok(())
    }

    /// Opens the newest (or a specific) version of `name`.
    pub fn open(&mut self, name: &str, version: Option<u32>) -> Result<CfsFile> {
        self.cpu.op();
        let (fname, entry) = self.resolve(name, version)?;
        // Read the header, label-checked: a wrong header here is how CFS
        // catches many bugs.
        let hlabels = Self::header_labels(entry.uid);
        let raw = self
            .disk
            .read_checked(entry.header_addr, HEADER_SECTORS as usize, &hlabels)?;
        let header = FileHeader::decode(&raw)?;
        if header.uid != entry.uid {
            return Err(CfsError::Corrupt(format!(
                "header uid {} does not match name table {}",
                header.uid, entry.uid
            )));
        }
        Ok(CfsFile {
            name: fname,
            uid: entry.uid,
            header_addr: entry.header_addr,
            header,
        })
    }

    /// Reads one page of an open file.
    pub fn read_page(&mut self, file: &CfsFile, page: u32) -> Result<Vec<u8>> {
        let sector = file
            .header
            .run_table
            .sector_of(page)
            .ok_or(CfsError::OutOfRange {
                page,
                pages: file.pages(),
            })?;
        self.cpu.sectors(1);
        Ok(self
            .disk
            .read_checked(sector, 1, &[Label::new(file.uid, page, PageKind::Data)])?)
    }

    /// Reads `count` consecutive pages, batching transfers along
    /// physical extents (label-checked).
    pub fn read_pages(&mut self, file: &CfsFile, page: u32, count: u32) -> Result<Vec<u8>> {
        let end = page
            .checked_add(count)
            .filter(|&end| end <= file.pages())
            .ok_or(CfsError::OutOfRange {
                page: page.saturating_add(count.saturating_sub(1)),
                pages: file.pages(),
            })?;
        let mut out = Vec::with_capacity(count as usize * SECTOR_BYTES);
        let mut at = page;
        while at < end {
            let extent = file.header.run_table.extent_at(at).ok_or_else(|| {
                CfsError::Corrupt(format!("page {at} missing from the run table"))
            })?;
            let take = extent.len.min(end - at);
            let labels = Self::data_labels(file.uid, at, take);
            self.disk
                .read_checked_into(extent.start, take as usize, &labels, &mut out)?;
            at += take;
        }
        self.cpu.sectors(count as u64);
        Ok(out)
    }

    /// Reads a whole file (one label-checked transfer per extent),
    /// truncated to its byte size.
    pub fn read_file(&mut self, file: &CfsFile) -> Result<Vec<u8>> {
        let mut out = Vec::with_capacity(file.pages() as usize * SECTOR_BYTES);
        let mut page = 0u32;
        for run in file.header.run_table.runs() {
            let labels = Self::data_labels(file.uid, page, run.len);
            self.disk
                .read_checked_into(run.start, run.len as usize, &labels, &mut out)?;
            page += run.len;
        }
        self.cpu.sectors(file.pages() as u64);
        out.truncate(file.header.byte_size as usize);
        Ok(out)
    }

    /// Overwrites one page of an open file.
    pub fn write_page(&mut self, file: &CfsFile, page: u32, data: &[u8]) -> Result<()> {
        assert!(data.len() <= SECTOR_BYTES);
        let sector = file
            .header
            .run_table
            .sector_of(page)
            .ok_or(CfsError::OutOfRange {
                page,
                pages: file.pages(),
            })?;
        self.invalidate_vam_hint()?;
        let mut buf = vec![0u8; SECTOR_BYTES];
        buf[..data.len()].copy_from_slice(data);
        self.cpu.sectors(1);
        self.disk
            .write_checked(sector, &buf, &[Label::new(file.uid, page, PageKind::Data)])?;
        Ok(())
    }

    /// Deletes a version of `name` (the newest when `version` is `None`).
    pub fn delete(&mut self, name: &str, version: Option<u32>) -> Result<()> {
        self.cpu.op();
        self.invalidate_vam_hint()?;
        let file = self.open(name, version)?;
        self.free_labels(file.uid, file.header_addr, &file.header.run_table)?;

        // Remove from the name table.
        let mut tree = self.tree;
        {
            let mut store = nt_store!(self);
            tree.delete(&mut store, &file.name.to_key())?;
        }
        self.tree = tree;
        self.flush_boot_if_dirty()?;

        // CFS has no commit concept: the pages are immediately reusable.
        self.free_pages(file.header_addr, &file.header.run_table);
        Ok(())
    }

    /// Frees a file's labels: header first, then each data run.
    fn free_labels(&mut self, uid: u64, header_addr: u32, data: &RunTable) -> Result<()> {
        let hlabels = Self::header_labels(uid);
        self.disk.write_labels(
            header_addr,
            &vec![Label::FREE; HEADER_SECTORS as usize],
            Some(&hlabels),
        )?;
        let mut page = 0u32;
        for run in data.runs() {
            let labels = Self::data_labels(uid, page, run.len);
            self.disk.write_labels(
                run.start,
                &vec![Label::FREE; run.len as usize],
                Some(&labels),
            )?;
            page += run.len;
        }
        Ok(())
    }

    /// Returns a file's pages to the (hint) VAM.
    fn free_pages(&mut self, header_addr: u32, data: &RunTable) {
        self.vam.free_run(Run::new(header_addr, HEADER_SECTORS));
        for run in data.runs() {
            self.vam.free_run(*run);
        }
    }

    /// Lists files under a name prefix *with their properties*. CFS must
    /// read every file's header for the properties — the I/O cost Table 3
    /// shows ("list 100 files": 146 I/Os vs FSD's 3).
    pub fn list(&mut self, prefix: &str) -> Result<Vec<FileHeader>> {
        self.cpu.op();
        let entries = self.list_names(prefix)?;
        let mut out = Vec::with_capacity(entries.len());
        for (_, e) in entries {
            let hlabels = Self::header_labels(e.uid);
            let raw = self
                .disk
                .read_checked(e.header_addr, HEADER_SECTORS as usize, &hlabels)?;
            out.push(FileHeader::decode(&raw)?);
            self.cpu.entries(1);
        }
        Ok(out)
    }

    /// Lists `name!version` entries under a prefix without reading
    /// headers (names only).
    pub fn list_names(&mut self, prefix: &str) -> Result<Vec<(FileName, NtEntry)>> {
        let (lo, hi) = FileName::prefix_range(prefix);
        let mut raw: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        let tree = self.tree;
        {
            let mut store = nt_store!(self);
            tree.for_each_range(&mut store, &lo, Some(&hi), &mut |k, v| {
                raw.push((k.to_vec(), v.to_vec()));
                true
            })?;
        }
        self.tree = tree;
        self.cpu.entries(raw.len() as u64);
        raw.into_iter()
            .map(|(k, v)| {
                Ok((
                    FileName::from_key(&k).map_err(CfsError::Corrupt)?,
                    NtEntry::decode(&v)?,
                ))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_volume() -> CfsVolume {
        let disk = SimDisk::tiny();
        CfsVolume::format(
            disk,
            CfsConfig {
                nt_pages: 16,
                cpu: CpuModel::FREE,
                scavenge_workers: 1,
            },
        )
        .unwrap()
    }

    #[test]
    fn create_open_read_roundtrip() {
        let mut v = tiny_volume();
        let data = b"hello cedar".to_vec();
        v.create("memo.txt", &data).unwrap();
        let f = v.open("memo.txt", None).unwrap();
        assert_eq!(f.name.version, 1);
        assert_eq!(f.header.byte_size, data.len() as u64);
        assert_eq!(v.read_file(&f).unwrap(), data);
    }

    #[test]
    fn a_page_range_past_u32_max_is_out_of_range() {
        // `page + count` wraps past the range check unless it is checked.
        let mut v = tiny_volume();
        let data = vec![7u8; 2 * SECTOR_BYTES];
        v.create("f", &data).unwrap();
        let f = v.open("f", None).unwrap();
        assert!(matches!(
            v.read_pages(&f, u32::MAX, 2),
            Err(CfsError::OutOfRange { pages: 2, .. })
        ));
        assert_eq!(v.read_pages(&f, 0, 2).unwrap(), data);
    }

    #[test]
    fn versions_accumulate() {
        let mut v = tiny_volume();
        v.create("f", b"one").unwrap();
        v.create("f", b"two").unwrap();
        let newest = v.open("f", None).unwrap();
        assert_eq!(newest.name.version, 2);
        assert_eq!(v.read_file(&newest).unwrap(), b"two");
        let old = v.open("f", Some(1)).unwrap();
        assert_eq!(v.read_file(&old).unwrap(), b"one");
    }

    #[test]
    fn open_missing_fails() {
        let mut v = tiny_volume();
        assert!(matches!(v.open("nope", None), Err(CfsError::NotFound(_))));
        assert!(matches!(
            v.open("nope", Some(3)),
            Err(CfsError::NotFound(_))
        ));
    }

    #[test]
    fn empty_file_works() {
        let mut v = tiny_volume();
        v.create("empty", b"").unwrap();
        let f = v.open("empty", None).unwrap();
        assert_eq!(f.pages(), 0);
        assert_eq!(v.read_file(&f).unwrap(), b"");
    }

    #[test]
    fn multi_page_file_roundtrip() {
        let mut v = tiny_volume();
        let data: Vec<u8> = (0..3000u32).map(|i| (i % 251) as u8).collect();
        v.create("big", &data).unwrap();
        let f = v.open("big", None).unwrap();
        assert_eq!(f.pages(), 6);
        assert_eq!(v.read_file(&f).unwrap(), data);
        // Individual page reads see the same bytes.
        let p2 = v.read_page(&f, 2).unwrap();
        assert_eq!(&p2[..], &data[1024..1536]);
    }

    #[test]
    fn read_page_out_of_range() {
        let mut v = tiny_volume();
        v.create("f", b"x").unwrap();
        let f = v.open("f", None).unwrap();
        assert!(matches!(
            v.read_page(&f, 5),
            Err(CfsError::OutOfRange { .. })
        ));
    }

    #[test]
    fn write_page_persists() {
        let mut v = tiny_volume();
        v.create("f", &vec![0u8; 1024]).unwrap();
        let f = v.open("f", None).unwrap();
        v.write_page(&f, 1, &[9u8; 512]).unwrap();
        assert_eq!(v.read_page(&f, 1).unwrap(), vec![9u8; 512]);
    }

    #[test]
    fn delete_frees_space_and_name() {
        let mut v = tiny_volume();
        let before = v.free_sectors();
        v.create("f", &vec![1u8; 2048]).unwrap();
        assert!(v.free_sectors() < before);
        v.delete("f", None).unwrap();
        assert_eq!(v.free_sectors(), before);
        assert!(matches!(v.open("f", None), Err(CfsError::NotFound(_))));
    }

    #[test]
    fn deleted_sectors_are_reusable() {
        let mut v = tiny_volume();
        v.create("a", &vec![1u8; 4096]).unwrap();
        v.delete("a", None).unwrap();
        // The same sectors get claimed again without label complaints.
        v.create("b", &vec![2u8; 4096]).unwrap();
        let f = v.open("b", None).unwrap();
        assert_eq!(v.read_file(&f).unwrap(), vec![2u8; 4096]);
    }

    #[test]
    fn list_returns_properties() {
        let mut v = tiny_volume();
        for i in 0..5 {
            v.create(&format!("dir/f{i}"), &vec![0u8; 512 * (i + 1)])
                .unwrap();
        }
        v.create("other/g", b"x").unwrap();
        let l = v.list("dir/").unwrap();
        assert_eq!(l.len(), 5);
        assert_eq!(l[0].name.name, "dir/f0");
        assert_eq!(l[0].byte_size, 512);
        assert_eq!(l[4].byte_size, 2560);
    }

    #[test]
    fn list_reads_one_header_per_file() {
        let mut v = tiny_volume();
        for i in 0..10 {
            v.create(&format!("d/f{i}"), b"x").unwrap();
        }
        let before = v.disk_stats();
        let l = v.list("d/").unwrap();
        assert_eq!(l.len(), 10);
        let delta = v.disk_stats().since(&before);
        // At least one read per file (headers), NT pages mostly cached.
        assert!(delta.reads >= 10, "reads = {}", delta.reads);
    }

    #[test]
    fn stale_vam_hint_repaired_by_label_verify() {
        let mut v = tiny_volume();
        let f = v.create("keep", b"data").unwrap();
        // Lie in the VAM: mark the file's sectors free.
        let hdr = f.header_addr;
        v.vam.free_run(Run::new(hdr, 2));
        for r in f.header.run_table.runs() {
            v.vam.free_run(*r);
        }
        // Creation verifies labels, discovers the lie, repairs the VAM and
        // retries elsewhere.
        v.create("new", b"fresh").unwrap();
        let kept = v.open("keep", None).unwrap();
        assert_eq!(v.read_file(&kept).unwrap(), b"data");
        let new = v.open("new", None).unwrap();
        assert_eq!(v.read_file(&new).unwrap(), b"fresh");
    }

    #[test]
    fn survives_clean_shutdown_and_boot() {
        let mut v = tiny_volume();
        v.create("persist", b"forever").unwrap();
        let free = v.free_sectors();
        v.shutdown().unwrap();
        let disk = v.into_disk();
        let (mut v2, vam_loaded) = CfsVolume::boot(
            disk,
            CfsConfig {
                nt_pages: 16,
                cpu: CpuModel::FREE,
                scavenge_workers: 1,
            },
        )
        .unwrap();
        assert!(vam_loaded);
        assert_eq!(v2.free_sectors(), free);
        let f = v2.open("persist", None).unwrap();
        assert_eq!(v2.read_file(&f).unwrap(), b"forever");
    }

    #[test]
    fn unclean_boot_reports_stale_vam() {
        let mut v = tiny_volume();
        v.create("f", b"x").unwrap();
        let mut disk = v.into_disk(); // No shutdown.
        disk.crash_now();
        disk.reboot();
        let (mut v2, vam_loaded) = CfsVolume::boot(
            disk,
            CfsConfig {
                nt_pages: 16,
                cpu: CpuModel::FREE,
                scavenge_workers: 1,
            },
        )
        .unwrap();
        assert!(!vam_loaded);
        // Files are still readable (name table intact)...
        let f = v2.open("f", None).unwrap();
        assert_eq!(v2.read_file(&f).unwrap(), b"x");
        // ...but nothing is allocatable until a scavenge.
        assert!(matches!(v2.create("g", b"y"), Err(CfsError::NoSpace)));
    }

    #[test]
    fn uids_unique_across_boots() {
        let mut v = tiny_volume();
        let f1 = v.create("a", b"1").unwrap();
        v.shutdown().unwrap();
        let (mut v2, _) = CfsVolume::boot(
            v.into_disk(),
            CfsConfig {
                nt_pages: 16,
                cpu: CpuModel::FREE,
                scavenge_workers: 1,
            },
        )
        .unwrap();
        let f2 = v2.create("b", b"2").unwrap();
        assert_ne!(f1.uid, f2.uid);
    }

    #[test]
    fn create_io_count_matches_script_shape() {
        // The paper's §6 script: a small create is "(at least) six I/O's".
        let mut v = tiny_volume();
        v.create("warm", b"w").unwrap(); // Warm the NT cache.
        let before = v.disk_stats();
        v.create("one-byte", b"x").unwrap();
        let delta = v.disk_stats().since(&before);
        assert!(
            (6..=9).contains(&delta.total_ops()),
            "create cost {} I/Os: {delta:?}",
            delta.total_ops()
        );
    }

    #[test]
    fn wild_write_detected_on_next_read() {
        let mut v = tiny_volume();
        v.create("f", b"data").unwrap();
        let f = v.open("f", None).unwrap();
        let sector = f.header.run_table.sector_of(0).unwrap();
        // A wild write smashes the sector's label.
        v.disk_mut()
            .write_labels(sector, &[Label::new(999, 0, PageKind::Data)], None)
            .unwrap();
        assert!(matches!(
            v.read_page(&f, 0),
            Err(CfsError::Disk(cedar_disk::DiskError::LabelMismatch { .. }))
        ));
    }
}
