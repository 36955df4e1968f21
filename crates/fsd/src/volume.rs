//! The FSD volume: format, file operations, and the group-commit engine.
//!
//! The §4 design in action:
//!
//! * **create** finds free pages in the volatile VAM, updates the file
//!   name table *in the cache*, and synchronously writes only the leader
//!   and data pages — typically one combined I/O ("A file create
//!   typically does one I/O synchronously: the combination of the write
//!   of the leader and data pages");
//! * **open** and **list** read the name table through the cache — no
//!   disk I/O once the relevant pages are resident, because every
//!   property lives in the entry (Table 1);
//! * **delete** removes the entry in the cache and parks the file's pages
//!   in the shadow bitmap until the commit makes the delete durable;
//! * the **log force** runs every half second of simulated time ("FSD
//!   forces its log twice a second", §5.4), at operation entry, whenever
//!   the pending set approaches the record size cap, or on client demand;
//! * what is **logged but not yet home** — name-table pages and leaders,
//!   and after a boot the sector images the resumed log still owes — is
//!   kept in one set of books and written home by one function,
//!   `collect_home_writes`: everything at shutdown, and at each log-third
//!   entry whatever has its only log copy in the third about to be
//!   reclaimed (§5.3).
//!
//! # The restart reserve
//!
//! One free run — [`FsdLayout::reserve_sectors`] long, the free space
//! nearest below name-table copy A — is recorded on the boot page and
//! kept out of both allocators' hands, so that after a crash it is free
//! *by construction* and the first allocation need not wait for the
//! name-table walk (`recovery.rs`). It stays free in the map: it is user
//! space, counted by [`FsdVolume::free_sectors`], saved with the VAM, and
//! only allocated last. Three rules keep the record true:
//!
//! * **held** — while a reserve is held, the two allocation sites hide it
//!   from the allocator for the length of the call, and nothing frees
//!   into it because no file lies in it;
//! * **cleared durably, then used** — an allocation that would otherwise
//!   fragment or fail, or the first change to the map while a walk is
//!   owed, takes the record off the boot page first and only then lets
//!   the allocator in (`release_reserve`; a redo settle paid *for* such an
//!   operation clears it with the new-epoch write it makes anyway);
//! * **recorded late, never early** — a run is chosen only from a map
//!   that is whole (after a walk, before a VAM save), is held in memory
//!   from that moment, and reaches the boot page with the next write of
//!   it: the save's own at shutdown, format and scavenge, or the one the
//!   next operation that changes the map makes first. A boot page behind
//!   memory names no reserve, which is always safe.

use crate::cache::{NtCache, NtMeta};
use crate::entry::{EntryKind, FileEntry};
use crate::error::FsdError;
use crate::layout::{FsdBootPage, FsdLayout, SavedVam};
use crate::leader::LeaderPage;
use crate::log::{Log, PageTarget, DATA_START, LISTED_RUNS_MAX};
use crate::spare::{self, SpareMap};
use crate::{Result, NT_PAGE_SECTORS};
use cedar_btree::{BTree, PageId};
use cedar_disk::clock::Micros;
use cedar_disk::sched::IoPolicy;
use cedar_disk::{
    Cpu, CpuModel, DiskStats, SectorAddr, SimClock, SimDisk, SECTOR_BYTES, SECTOR_BYTES_U64,
};
use cedar_vol::{AllocError, AllocPolicy, Allocator, FileName, Run, RunTable, Vam};
use std::collections::{BTreeMap, BTreeSet};

/// Most runs a file may occupy: bounded by the name-table entry budget.
pub const MAX_RUNS: usize = 16;

/// Files of at most this many pages allocate in the small area (§5.6).
const SMALL_FILE_PAGES: u32 = 32;

/// The group-commit interval in simulated microseconds: "The log is
/// written (if necessary) every half second" (§4). The volume's own
/// daemon defaults to it, and [`crate::CommitScheduler`]'s window is it.
pub const COMMIT_INTERVAL_US: Micros = 500_000;

/// Configuration for formatting or booting an FSD volume.
#[derive(Clone, Copy, Debug)]
pub struct FsdConfig {
    /// Name-table pages per copy (0 selects a geometry-scaled default).
    pub nt_pages: u32,
    /// Log region sectors (0 selects a geometry-scaled default).
    pub log_sectors: u32,
    /// CPU cost table.
    pub cpu: CpuModel,
    /// Group-commit force interval in simulated microseconds (default
    /// [`COMMIT_INTERVAL_US`]).
    pub commit_interval_us: Micros,
    /// I/O submission policy for multi-sector batch paths (log forces,
    /// home-page writeback, recovery scans). [`IoPolicy::InOrder`] is the
    /// measurement baseline; the default, shortest positioning time first,
    /// is what a controller that sees the whole queue can do.
    pub io_policy: IoPolicy,
    /// Simulated decode/verify CPUs for the recovery-scan paths
    /// (scavenge and VAM reconstruction). `1` (or `0`) is the serial
    /// pipeline; larger values model pFSCK-style parallel checking: the
    /// reader stage still owns the single spindle, but leader decoding
    /// and entry decoding and encoding are charged to this many
    /// simulated CPUs, whose critical path advances the clock
    /// ([`cedar_disk::Cpu::join_parallel`]). They all run on the
    /// caller's thread; only the simulated time differs.
    pub scavenge_workers: usize,
}

impl Default for FsdConfig {
    fn default() -> Self {
        Self {
            nt_pages: 0,
            log_sectors: 0,
            cpu: CpuModel::DORADO,
            commit_interval_us: COMMIT_INTERVAL_US,
            io_policy: IoPolicy::default(),
            scavenge_workers: 1,
        }
    }
}

/// An open file handle.
#[derive(Clone, Debug)]
pub struct FsdFile {
    /// The file's name and version.
    pub name: FileName,
    /// The full name-table entry (all properties inline).
    pub entry: FileEntry,
    /// Whether the leader page has been verified on this handle yet
    /// (done lazily, piggybacked on the first data access — §5.7).
    leader_verified: bool,
}

impl FsdFile {
    /// File length in pages.
    pub fn pages(&self) -> u32 {
        self.entry.run_table.pages()
    }

    /// The end of pages `page..page + count`, or `OutOfRange` when they
    /// pass the end of the file (or of `u32`).
    fn page_range_end(&self, page: u32, count: u32) -> Result<u32> {
        page.checked_add(count)
            .filter(|&end| end <= self.pages())
            .ok_or(FsdError::OutOfRange {
                page: page.saturating_add(count.saturating_sub(1)),
                pages: self.pages(),
            })
    }

    /// File length in bytes.
    pub fn byte_size(&self) -> u64 {
        self.entry.byte_size
    }
}

/// A leader image awaiting its home write.
#[derive(Clone, Debug, Default)]
pub(crate) struct LeaderState {
    /// Image changed since the last force (not yet in the log).
    pub(crate) unlogged: Option<Vec<u8>>,
    /// Image in the log and the third holding it.
    pub(crate) logged: Option<(Vec<u8>, u8)>,
}

impl LeaderState {
    /// An image the log holds in third `third`, nothing staged behind it.
    pub(crate) fn logged(image: Vec<u8>, third: u8) -> Self {
        Self {
            unlogged: None,
            logged: Some((image, third)),
        }
    }
}

/// Group-commit statistics (for the §5.4 measurements).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CommitStats {
    /// Log forces that wrote at least one record.
    pub forces: u64,
    /// Records appended.
    pub records: u64,
    /// Data pages (sector images) logged.
    pub images_logged: u64,
    /// Log sectors written (records only, 2n+5 each).
    pub log_sectors_written: u64,
    /// Name-table pages written home at third entries.
    pub third_flush_pages: u64,
    /// Largest record appended, in sectors (the paper observed 83).
    pub max_record_sectors: u64,
}

/// Builds the borrowed name-table store from disjoint volume fields.
macro_rules! nt_store {
    ($self:ident) => {
        $crate::cache::FsdNtStore {
            disk: &mut $self.disk,
            cpu: &$self.cpu,
            layout: &$self.layout,
            policy: $self.io_policy,
            spare: &mut $self.spare,
            cache: &mut $self.cache,
            pending: &mut $self.pending_pages,
        }
    };
}
pub(crate) use nt_store;

/// A mounted FSD volume.
pub struct FsdVolume {
    pub(crate) disk: SimDisk,
    pub(crate) cpu: Cpu,
    pub(crate) layout: FsdLayout,
    pub(crate) boot: FsdBootPage,
    pub(crate) tree: BTree,
    pub(crate) cache: NtCache,
    pub(crate) pending_pages: BTreeSet<PageId>,
    /// By sector, so `force` logs the staged images in address order and
    /// one script always leaves one platter.
    pub(crate) leaders: BTreeMap<u32, LeaderState>,
    /// Runs handed to new owners since the last force that logged
    /// anything. The next one lists them in its end pages, so that redo
    /// knows which logged leaders they overwrote without reading them.
    pub(crate) handed_out: Vec<Run>,
    pub(crate) log: Log,
    pub(crate) vam: Vam,
    pub(crate) alloc: Allocator,
    pub(crate) uid_counter: u32,
    pub(crate) last_force: Micros,
    pub(crate) commit_interval: Micros,
    /// The boot page on disk must be rewritten before the free map next
    /// changes: it calls the save area current, or a reserve chosen after
    /// a walk has not reached it yet.
    pub(crate) boot_page_owed: bool,
    /// A boot left the new epoch owed — the boot pages with the bumped
    /// boot count — and no write has paid it yet
    /// ([`Self::settle_redo`]).
    pub(crate) epoch_owed: bool,
    /// A boot booked the log's images for writeback and
    /// [`Self::settle_redo`] has not written the books home since (their
    /// thirds may have taken some or all of them home meanwhile).
    pub(crate) redo_owed: bool,
    /// The redo settle this session paid, if any.
    pub(crate) redo_settle: Option<crate::recovery::RedoSettle>,
    /// The saved VAM was unusable at boot and the name-table walk that
    /// replaces it has not run yet: `vam` marks free only what is known
    /// to be — nothing, until the reserve is handed over, then what is
    /// left of it and whatever has been freed and committed since. An
    /// allocation it cannot serve pays the walk.
    pub(crate) vam_owed: bool,
    /// The walk this session paid, if any.
    pub(crate) vam_walk: Option<crate::recovery::VamWalk>,
    /// Simulated decode CPUs for that walk ([`FsdConfig::scavenge_workers`]).
    pub(crate) scavenge_workers: usize,
    pub(crate) commit_stats: CommitStats,
    /// Submission order for batched I/O (log forces, home writeback).
    pub(crate) io_policy: IoPolicy,
    /// Bad-sector remap table (persisted on the boot page) plus the
    /// strike ledger deciding when a flaky sector gets remapped.
    pub(crate) spare: SpareMap,
    /// Replication tap: when present, every successful [`Self::force`]
    /// seals one [`crate::repl::ReplFrame`] (the commit records as written
    /// plus the data-area writes drained from the disk write journal)
    /// for the shipper to stream to a replica.
    pub(crate) repl: Option<crate::repl::ReplTap>,
}

impl FsdVolume {
    // ----- lifecycle -----------------------------------------------------------

    /// The volume skeleton `format`, `boot` and the scavenger all start
    /// from: nothing cached, nothing pending, nothing owed, and a free
    /// map that allows no allocation until the caller installs the real
    /// one (or leaves the walk that builds it owed).
    pub(crate) fn assemble(
        disk: SimDisk,
        cpu: Cpu,
        layout: FsdLayout,
        boot: FsdBootPage,
        mut log: Log,
        spare: SpareMap,
        config: &FsdConfig,
    ) -> FsdVolume {
        log.set_policy(config.io_policy);
        let (dlo, dhi) = layout.data_area();
        FsdVolume {
            log,
            alloc: Allocator::new(
                AllocPolicy::SplitAreas {
                    small_threshold: SMALL_FILE_PAGES,
                },
                dlo,
                dhi,
            ),
            last_force: disk.clock().now(),
            disk,
            cpu,
            layout,
            boot,
            tree: BTree::open(0),
            cache: NtCache::new(),
            pending_pages: BTreeSet::new(),
            leaders: BTreeMap::new(),
            handed_out: Vec::new(),
            vam: Vam::new_all_allocated(layout.total_sectors),
            uid_counter: 0,
            commit_interval: config.commit_interval_us,
            boot_page_owed: false,
            epoch_owed: false,
            redo_owed: false,
            redo_settle: None,
            vam_owed: false,
            vam_walk: None,
            scavenge_workers: config.scavenge_workers,
            commit_stats: CommitStats::default(),
            io_policy: config.io_policy,
            spare,
            repl: None,
        }
    }

    /// Formats a blank disk as an FSD volume.
    pub fn format(disk: SimDisk, config: FsdConfig) -> Result<FsdVolume> {
        let layout = FsdLayout::compute(disk.geometry(), config.nt_pages, config.log_sectors);
        let cpu = Cpu::new(disk.clock(), config.cpu);
        let boot = FsdBootPage {
            boot_count: 1,
            saved_vam: SavedVam::Invalid,
            spare_map: Vec::new(),
            reserve: None,
        };
        let log = Log::fresh(layout.log_start, layout.log_sectors, 1)?;
        let spare = SpareMap::for_layout(&layout);
        let mut vol = Self::assemble(disk, cpu, layout, boot, log, spare, &config);
        vol.vam = layout.empty_vam();
        vol.log.write_meta(&mut vol.disk, &mut vol.spare)?;

        // Seed the meta page and the empty tree — in cache only.
        {
            let mut store = nt_store!(vol);
            store.write_meta(&NtMeta::new(vol.layout.nt_pages))?;
            vol.tree = BTree::create(&mut store)?;
        }
        vol.update_meta_root()?;

        // Make the fresh volume fully durable: log it, write it home, save
        // the VAM, stamp the boot pages.
        vol.force()?;
        vol.sync_home_all()?;
        vol.save_vam_and_mark_valid()?;
        Ok(vol)
    }

    /// Controlled shutdown (§5.5): force the log, write all logged pages
    /// home, save the VAM and mark it valid.
    pub fn shutdown(&mut self) -> Result<()> {
        self.force()?;
        self.sync_home_all()?;
        self.save_vam_and_mark_valid()
    }

    // ----- accessors -----------------------------------------------------------

    /// The underlying disk (stats, fault injection).
    pub fn disk_mut(&mut self) -> &mut SimDisk {
        &mut self.disk
    }

    /// Disk statistics so far.
    pub fn disk_stats(&self) -> DiskStats {
        self.disk.stats()
    }

    /// Media-fault repair counters since mount: sectors scrubbed (a
    /// damaged replica rewritten in place from its survivor) and sectors
    /// remapped into the spare region.
    pub fn media_stats(&self) -> (u64, u64) {
        (self.spare.scrubbed, self.spare.remapped)
    }

    /// The persistent bad-sector remap table (logical home → spare slot).
    pub fn spare_entries(&self) -> &[(SectorAddr, SectorAddr)] {
        self.spare.entries()
    }

    /// Absolute sector where the next log record will start. Fault
    /// campaigns use this to aim media faults at the upcoming force.
    pub fn next_log_sector(&self) -> SectorAddr {
        self.layout.log_start + self.log.next_record_offset()
    }

    /// The simulation clock.
    pub fn clock(&self) -> SimClock {
        self.disk.clock()
    }

    /// The CPU charger.
    pub fn cpu(&self) -> &Cpu {
        &self.cpu
    }

    /// The volume layout.
    pub fn layout(&self) -> &FsdLayout {
        &self.layout
    }

    /// Group-commit statistics.
    pub fn commit_stats(&self) -> CommitStats {
        self.commit_stats
    }

    /// Replaces the commit-daemon interval. A scheduler layered above the
    /// volume (see [`crate::sched::CommitScheduler`]) sets this to
    /// `Micros::MAX` to take ownership of all forcing.
    pub fn set_commit_interval(&mut self, us: Micros) {
        self.commit_interval = us;
    }

    /// Conservative upper bound on the sector images the next force will
    /// log: every sector of every dirty name-table page plus every staged
    /// leader. The true record is usually smaller (only *changed* sectors
    /// are logged), so callers use this for backpressure, never capacity.
    pub fn pending_meta_images(&self) -> usize {
        self.pending_pages.len() * NT_PAGE_SECTORS as usize
            + self
                .leaders
                .values()
                .filter(|ls| ls.unlogged.is_some())
                .count()
    }

    /// Free data sectors (excluding shadow-held pages), a held reserve
    /// among them: it is user space, only allocated last. After a crash
    /// boot, while the name-table walk is still owed, this counts what is
    /// *known* free — 0 until the first allocation or free takes over the
    /// reserve, then what is left of it plus what has been freed and
    /// committed since; call [`Self::settle_vam`] first for the true
    /// count.
    pub fn free_sectors(&self) -> u32 {
        self.vam.free_count()
    }

    /// The restart reserve this volume holds — or, between a crash boot
    /// and the first operation that changes the map, has read off the
    /// boot page and will hand that operation. `None` once handed over or
    /// released, until a walk or a VAM save picks the next one.
    pub fn reserve(&self) -> Option<Run> {
        self.boot.reserve
    }

    /// Sectors freed by uncommitted deletes, waiting in the shadow bitmap
    /// for the next commit (§5.5).
    pub fn shadow_sectors(&self) -> u32 {
        self.vam.shadow_count()
    }

    /// Consumes the volume, returning the disk (crash simulation).
    pub fn into_disk(self) -> SimDisk {
        self.disk
    }

    /// Checks the name-table invariants, and that every entry decodes:
    /// its key as a name, its value as an entry and run table. The
    /// entries are decoded in the walk that checks the tree, and no CPU
    /// is charged for decoding them.
    pub fn verify(&mut self) -> Result<()> {
        let tree = self.tree;
        let mut store = nt_store!(self);
        tree.check_entries(&mut store, &mut |key, value| {
            let name = FileName::from_key(key).map_err(|e| format!("name table key: {e}"))?;
            FileEntry::decode(value).map_err(|e| format!("entry {name}: {e}"))?;
            Ok(())
        })?;
        Ok(())
    }

    // ----- replication tap ------------------------------------------------------

    /// Enables the replication tap: from now on every successful
    /// [`Self::force`] seals one [`crate::repl::ReplFrame`] carrying the
    /// commit's sealed log records plus the unlogged data-area writes
    /// mirrored from the disk write journal. Frames accumulate until
    /// [`Self::take_repl_frames`] drains them. A redo settle still owed
    /// is paid first, so no frame ever carries recovery's own writes.
    pub fn enable_repl_tap(&mut self) -> Result<()> {
        self.settle_redo()?;
        self.disk.enable_write_journal();
        // Anything already in the journal predates the replica's seed
        // image and must not ship twice.
        self.disk.drain_write_journal();
        self.repl = Some(crate::repl::ReplTap::new());
        Ok(())
    }

    /// Whether the replication tap is on.
    pub fn repl_tap_enabled(&self) -> bool {
        self.repl.is_some()
    }

    /// Drains the frames sealed since the last call (oldest first).
    pub fn take_repl_frames(&mut self) -> Vec<crate::repl::ReplFrame> {
        match self.repl.as_mut() {
            Some(tap) => std::mem::take(&mut tap.frames),
            None => Vec::new(),
        }
    }

    /// Seals a record-less frame from whatever the write journal holds
    /// (data writes between commits, shutdown home-write residue). No-op
    /// when the tap is off or nothing was written.
    pub fn seal_repl_data_frame(&mut self) {
        self.seal_repl_frame(Vec::new());
    }

    /// Seals one frame: `records` are this commit's sealed records at
    /// their log offsets, `data` is everything the write journal
    /// accumulated since the last seal outside the log's data area (the
    /// records carry that; the log meta ships like any other write).
    /// Addresses in the journal are physical, so a remapped log sector is
    /// recognized by reverse translation through the remap table.
    fn seal_repl_frame(&mut self, records: Vec<(u32, Vec<u8>)>) {
        if self.repl.is_none() {
            return;
        }
        let entries = self.disk.drain_write_journal();
        let log =
            self.layout.log_start + DATA_START..self.layout.log_start + self.layout.log_sectors;
        let data: Vec<crate::repl::DataWrite> = entries
            .into_iter()
            .filter(|e| !log.contains(&self.spare.logical(e.addr)))
            .map(|e| crate::repl::DataWrite {
                addr: e.addr,
                data: e.data.map(|d| self.boot_page_for_replica(e.addr, d)),
                label: e.label,
            })
            .collect();
        if records.is_empty() && data.is_empty() {
            return;
        }
        let spare = self.spare.entries().to_vec();
        let Some(tap) = self.repl.as_mut() else {
            return;
        };
        let frame = crate::repl::ReplFrame {
            id: tap.next_frame,
            records,
            data,
            spare,
        };
        tap.next_frame += 1;
        tap.frames.push(frame);
    }

    /// A journalled sector write as the replica should see it. Everything
    /// passes through unchanged except a boot page carrying the
    /// settle-failed note ([`Self::settle_vam`]): that note says *this*
    /// machine's name table is beyond repair, and the replica's is its
    /// own — mirrored verbatim, it would turn failover from a wounded
    /// primary into a scavenge. The replica is told the save area is
    /// stale, which is all the note says about the logical volume.
    fn boot_page_for_replica(&self, addr: SectorAddr, data: Vec<u8>) -> Vec<u8> {
        let boot = self.layout.boot_pair();
        if addr != boot.a && addr != boot.b {
            return data;
        }
        match FsdBootPage::decode(&data) {
            Ok(mut page) if page.saved_vam == SavedVam::SettleFailed => {
                page.saved_vam = SavedVam::Invalid;
                page.encode()
            }
            _ => data,
        }
    }

    // ----- group commit ---------------------------------------------------------

    /// Advances simulated time (an idle workstation) and lets the
    /// half-second commit daemon run.
    pub fn advance_time(&mut self, us: Micros) -> Result<()> {
        self.clock().advance(us);
        self.maybe_force()
    }

    /// Forces the log if the commit interval has elapsed — called at the
    /// top of every operation, standing in for the daemon.
    fn maybe_force(&mut self) -> Result<()> {
        if self.clock().now().saturating_sub(self.last_force) >= self.commit_interval {
            self.force()?;
        }
        Ok(())
    }

    /// Group commit (§5.4): logs every changed name-table sector and
    /// pending leader image accumulated since the last force, then
    /// releases shadow-freed pages. Clients may call this to make recent
    /// operations durable immediately.
    pub fn force(&mut self) -> Result<()> {
        self.last_force = self.clock().now();

        // Collect changed sector images: diff each dirty page against its
        // baseline so a page dirtied fifty times still logs once.
        let mut images: Vec<(PageTarget, Vec<u8>)> = Vec::new();
        // (page, index of its first image, every sector logged)
        let mut logged_pages: Vec<(PageId, usize, bool)> = Vec::new();
        for &id in &self.pending_pages {
            let Some(p) = self.cache.pages.get(&id) else {
                continue;
            };
            let first = images.len();
            for s in 0..NT_PAGE_SECTORS as usize {
                let range = s * SECTOR_BYTES..(s + 1) * SECTOR_BYTES;
                let changed = match &p.baseline {
                    None => true,
                    Some(base) => p.image[range.clone()] != base[range.clone()],
                };
                if changed {
                    images.push((
                        PageTarget::NtSector {
                            page: id,
                            sector: s as u32,
                        },
                        p.image[range].to_vec(),
                    ));
                }
            }
            let logged = images.len() - first;
            if logged > 0 {
                logged_pages.push((id, first, logged == NT_PAGE_SECTORS as usize));
            }
        }
        // From here until it is marked logged below, a leader taken for
        // this force holds no image of its own in the map
        // (`collect_home_writes` on what a third entry inside the append
        // may and may not do to it).
        for (&addr, ls) in &mut self.leaders {
            if let Some(img) = ls.unlogged.take() {
                images.push((PageTarget::Leader { addr }, img));
            }
        }
        self.pending_pages.clear();

        if images.is_empty() {
            // Nothing differs from the last committed state (e.g. a
            // create and delete of the same file cancelled out), so any
            // shadow frees are trivially durable, and what was
            // reallocated waits for a force with a record to list it in.
            // Data-page writes are synchronous and never logged, so they
            // may still need a (record-less) replication frame.
            self.vam.commit_shadow();
            self.seal_repl_data_frame();
            return Ok(());
        }
        self.cpu.sectors(images.len() as u64);

        // Append in record-sized chunks, remembering each image's third.
        // Each record's end pages carry its share of the reallocated
        // runs, so the group takes as many records as its images or its
        // list need, whichever is more. The records are filled front
        // first, leaving at least one image for each record still to
        // come; with more records than images, the first image is logged
        // again in each record the others cannot fill.
        let n = images.len();
        let max = self.log.max_images();
        let records = n
            .div_ceil(max)
            .max(self.handed_out.len().div_ceil(LISTED_RUNS_MAX));
        let start = |k: usize| (k * max).min((n + k).saturating_sub(records));
        let mut shares = self.handed_out.chunks(LISTED_RUNS_MAX);
        let policy = self.io_policy;
        let mut thirds: Vec<u8> = vec![0; n];
        let mut repl_records: Vec<(u32, Vec<u8>)> = Vec::new();
        for k in 0..records {
            let base = start(k);
            let chunk = &images[base..start(k + 1).max(base + 1)];
            let FsdVolume {
                ref mut log,
                ref mut disk,
                ref mut cache,
                ref mut leaders,
                ref layout,
                ref mut commit_stats,
                ref mut spare,
                #[cfg(debug_assertions)]
                ref handed_out,
                ..
            } = *self;
            let is_last = k + 1 == records;
            let share = shares.next().unwrap_or_default();
            #[cfg(debug_assertions)]
            let live = log.live_thirds();
            // Entering a third reclaims it: whatever has its only log
            // copy there goes home first (§5.3), as one scheduler window
            // inside the append.
            let (third, sealed) =
                log.append(disk, spare, chunk, is_last, share, |disk, spare, t| {
                    let (writes, pages) = collect_home_writes(layout, cache, leaders, Some(t))?;
                    commit_stats.third_flush_pages += pages;
                    spare::write_home_batch(disk, policy, spare, writes)?;
                    #[cfg(debug_assertions)]
                    crate::audit::third_entry(
                        disk, spare, layout, &live, t, &images, handed_out, cache,
                    );
                    Ok(())
                })?;
            if self.repl.is_some() {
                // Ship the sealed bytes the append just wrote, and where:
                // the replica decodes them with the same checks as
                // boot-time recovery and writes them to the same place in
                // its log.
                let offset = self.log.next_record_offset() - (sealed.len() / SECTOR_BYTES) as u32;
                repl_records.push((offset, sealed));
            }
            self.commit_stats.records += 1;
            self.commit_stats.images_logged += chunk.len() as u64;
            let sectors = 2 * chunk.len() as u64 + 5;
            self.commit_stats.log_sectors_written += sectors;
            self.commit_stats.max_record_sectors =
                self.commit_stats.max_record_sectors.max(sectors);
            thirds[base..base + chunk.len()].fill(third);
        }
        self.commit_stats.forces += 1;
        self.handed_out.clear();
        // The frees are committed: nothing points at those pages now.
        self.cache.freed.clear();

        // Mark the logged state.
        for (id, first, full) in logged_pages {
            if let Some(p) = self.cache.pages.get_mut(&id) {
                p.baseline = Some(p.image.clone());
                // The page's newest images are in the chunk holding its
                // last sector; conservatively tag it with its *first*
                // image's third (the earliest to be reclaimed).
                //
                // A partial log (some sectors unchanged this force) leaves
                // the newest image of the quiet sectors riding an *older*
                // third — a continuously-hot page (the allocation bitmap,
                // whose write frontier only advances) would otherwise keep
                // its tag on the newest third forever, never get flushed
                // by the reclaim sweep, and lose its quiet sectors once
                // the log lapped them. Keep the older tag in that case so
                // the full baseline goes home before that third reclaims;
                // advance it only when the whole page was logged or the
                // home copy is current.
                if full || p.last_logged_third.is_none() {
                    p.last_logged_third = Some(thirds[first]);
                }
                p.needs_home = true;
            }
        }
        for ((target, img), t) in images.into_iter().zip(thirds) {
            match target {
                // Unconditionally: if the append entered the third
                // holding this leader's *previous* logged image, the
                // writeback took that image home and, finding nothing
                // unlogged behind it, dropped the entry. The image just
                // logged still owes its home write.
                PageTarget::Leader { addr } => {
                    self.leaders.entry(addr).or_default().logged = Some((img, t));
                }
                // The log holds a newer image of the sector now: what a
                // resumed log owed it must not go home behind it.
                PageTarget::NtSector { .. } => {
                    for home in target.homes(&self.layout) {
                        self.cache.owed.remove(&home);
                    }
                }
            }
        }

        // The commit is durable: shadow-freed pages become allocatable
        // (§5.5).
        self.vam.commit_shadow();

        // Any sector remapped during this force must reach the boot page
        // before the remapped data matters to a reboot.
        if self.spare.take_dirty() {
            self.write_boot_pages()?;
        }

        // The commit is on disk: seal it (plus the interval's data-area
        // writes) as one replication frame.
        self.seal_repl_frame(repl_records);
        Ok(())
    }

    /// Writes home every page and leader with logged-but-unwritten state,
    /// and every image a resumed log owed (controlled shutdown, after
    /// format and a scavenge; [`Self::settle_redo`] writes the same
    /// window ahead of the new epoch). All home writes go to disjoint
    /// sectors, so they form one scheduler window: sorted, coalesced,
    /// taken nearest-first.
    pub(crate) fn sync_home_all(&mut self) -> Result<()> {
        let (writes, _) =
            collect_home_writes(&self.layout, &mut self.cache, &mut self.leaders, None)?;
        spare::write_home_batch(&mut self.disk, self.io_policy, &mut self.spare, writes)?;
        if self.spare.take_dirty() {
            self.write_boot_pages()?;
        }
        Ok(())
    }

    pub(crate) fn save_vam_and_mark_valid(&mut self) -> Result<()> {
        self.settle_vam()?;
        // The boot pages below carry the record.
        self.hold_reserve();
        // Both save-area copies in one window (at most one can be torn by
        // a crash; the boot pages marking them valid follow in a separate
        // submission, so validity never precedes durability).
        let mut bytes = self.vam.to_bytes();
        bytes.resize(self.layout.vam_sectors as usize * SECTOR_BYTES, 0);
        let writes = self.layout.vam_pair().both(bytes);
        spare::write_home_batch(
            &mut self.disk,
            self.io_policy,
            &mut self.spare,
            writes.into(),
        )?;
        self.boot.saved_vam = SavedVam::Valid;
        self.write_boot_pages()?;
        self.boot_page_owed = true;
        Ok(())
    }

    pub(crate) fn write_boot_pages(&mut self) -> Result<()> {
        self.boot.spare_map = self.spare.entries().to_vec();
        self.spare.take_dirty();
        crate::layout::write_replicas(
            &mut self.disk,
            self.io_policy,
            self.layout.boot_pair(),
            self.boot.encode(),
        )
    }

    /// Called by every operation about to change which sectors the name
    /// table claims, once it can no longer fail on its arguments: redo is
    /// settled, a reserve read at a crash boot is in the allocator's
    /// hands, and the boot page neither calls the save area current nor
    /// lags behind a reserve held in memory.
    fn invalidate_vam_hint(&mut self) -> Result<()> {
        if !self.map_change_owes_writes() {
            return Ok(());
        }
        self.settle_for_map_change()?;
        if self.boot_page_owed {
            self.boot.saved_vam = SavedVam::Invalid;
            self.write_boot_pages()?;
            self.boot_page_owed = false;
        }
        Ok(())
    }

    // ----- the restart reserve ------------------------------------------------------

    /// Holds a reserve if the map has room for one: keeps the run already
    /// held when the map (just loaded or rebuilt) agrees it is free, and
    /// picks a new one otherwise. Only ever called on a whole map.
    pub(crate) fn hold_reserve(&mut self) {
        let held = self.boot.reserve.filter(|&run| self.vam.is_free_run(run));
        let held = held.or_else(|| self.layout.carve_reserve(&self.vam));
        if held != self.boot.reserve {
            self.boot.reserve = held;
            self.boot_page_owed = true;
        }
    }

    /// Gives the reserve up to the allocator: the record leaves the boot
    /// page, durably, *before* the run becomes allocatable — a crash in
    /// between finds a volume without a reserve, never a reserve with a
    /// file in it.
    pub(crate) fn release_reserve(&mut self) -> Result<()> {
        let Some(run) = self.boot.reserve.take() else {
            return Ok(());
        };
        if let Err(e) = self.write_boot_pages() {
            self.boot.reserve = Some(run);
            return Err(e);
        }
        if self.vam_owed {
            self.vam.free_run(run);
        }
        Ok(())
    }

    /// One call into the allocator growing a table that had `had`, from
    /// the map in hand — the whole one minus a held reserve, or what is
    /// known free while the walk is owed. When that cannot serve the call
    /// in one run the map is widened and the call made again: an owed
    /// walk is paid, then a held reserve released. What comes back once
    /// neither is left is what the allocator always gave.
    fn allocate_with(
        &mut self,
        had: &RunTable,
        grow: impl Fn(&mut Allocator, &mut Vam) -> std::result::Result<RunTable, AllocError>,
    ) -> Result<RunTable> {
        loop {
            let hidden = self.boot.reserve;
            debug_assert!(hidden.is_none() || !self.vam_owed, "handed over first");
            if let Some(run) = hidden {
                self.vam.allocate_run(run);
            }
            let grown = grow(&mut self.alloc, &mut self.vam);
            if let Some(run) = hidden {
                self.vam.free_run(run);
            }
            let in_one_run = grown
                .as_ref()
                .is_ok_and(|rt| rt.runs().len() <= had.runs().len() + 1);
            if in_one_run || (hidden.is_none() && !self.vam_owed) {
                return Ok(grown?);
            }
            if let Ok(mut rt) = grown {
                for run in rt.truncate(had.pages()) {
                    self.vam.free_run(run);
                }
            }
            if self.vam_owed {
                self.settle_vam()?;
            } else {
                self.release_reserve()?;
            }
        }
    }

    // ----- internals -------------------------------------------------------------

    /// Uids carry the epoch, and the epoch starts with the first write.
    fn next_uid(&mut self) -> Result<u64> {
        self.settle_epoch()?;
        self.uid_counter += 1;
        Ok(((self.boot.boot_count as u64) << 32) | self.uid_counter as u64)
    }

    /// Keeps the meta page's root pointer in step with the tree (a
    /// cache-only write, committed with everything else).
    pub(crate) fn update_meta_root(&mut self) -> Result<()> {
        let root = self.tree.root();
        let mut store = nt_store!(self);
        let mut raw = store
            .read_through(0)
            .map_err(cedar_btree::BTreeError::Store)?;
        // The root lives at a fixed offset in page 0; patching it in
        // place leaves the (possibly multi-page) bitmap untouched.
        if NtMeta::decode_root(&raw).map_err(FsdError::Check)? != root {
            raw[4..8].copy_from_slice(&root.to_le_bytes());
            use cedar_btree::PageStore;
            store
                .write_page(0, &raw)
                .map_err(cedar_btree::BTreeError::Store)?;
        }
        Ok(())
    }

    /// The entry of the newest version of `name` (one walk of the tree,
    /// routed by the end of the name's key range) or of the version asked
    /// for.
    fn resolve(&mut self, name: &str, version: Option<u32>) -> Result<(FileName, FileEntry)> {
        let found = self.lookup(name, version)?;
        self.cpu.entries(1);
        Ok(found)
    }

    /// [`Self::resolve`]'s walk, uncharged.
    fn lookup(&mut self, name: &str, version: Option<u32>) -> Result<(FileName, FileEntry)> {
        let named = version.map(|v| FileName::new(name, v)).transpose();
        let named = named.map_err(FsdError::BadName)?;
        let tree = self.tree;
        let mut store = nt_store!(self);
        let found = match &named {
            Some(fname) => {
                let key = fname.to_key();
                tree.get(&mut store, &key)?.map(|raw| (key, raw))
            }
            None => {
                let (lo, hi) = FileName::versions_range(name);
                tree.last_in_range(&mut store, &lo, &hi)?
            }
        };
        let (key, raw) = found.ok_or_else(|| {
            FsdError::NotFound(named.map_or_else(|| name.to_string(), |f| f.to_string()))
        })?;
        Self::read_entry(&key, &raw)
    }

    /// Takes the entry of the newest version of `name`, or of the version
    /// asked for, out of the tree in the walk that finds it (the walk
    /// [`Self::lookup`] takes), and keeps the meta page's root in step
    /// with a tree that changed. An entry that does not decode stays in
    /// the tree: the delete fails having changed nothing.
    fn remove_entry(&mut self, name: &str, version: Option<u32>) -> Result<(FileName, FileEntry)> {
        let named = version.map(|v| FileName::new(name, v)).transpose();
        let named = named.map_err(FsdError::BadName)?;
        let mut read = None;
        let mut take = |key: &[u8], raw: &[u8]| {
            let entry = Self::read_entry(key, raw);
            let good = entry.is_ok();
            read = Some(entry);
            good
        };
        let mut tree = self.tree;
        let removed = {
            let mut store = nt_store!(self);
            match &named {
                Some(fname) => tree
                    .delete_if(&mut store, &fname.to_key(), &mut take)?
                    .is_some(),
                None => {
                    let (lo, hi) = FileName::versions_range(name);
                    tree.delete_routed(&mut store, &lo, &hi, &mut take)?
                        .is_some()
                }
            }
        };
        if removed {
            self.tree = tree;
            self.update_meta_root()?;
        }
        read.unwrap_or_else(|| {
            Err(FsdError::NotFound(
                named.map_or_else(|| name.to_string(), |f| f.to_string()),
            ))
        })
    }

    /// The file a name-table entry names, and the entry.
    fn read_entry(key: &[u8], raw: &[u8]) -> Result<(FileName, FileEntry)> {
        let fname = FileName::from_key(key).map_err(FsdError::Check)?;
        Ok((fname, FileEntry::decode(raw)?))
    }

    /// Enters `entry` as the next version of `name` in one walk of the
    /// tree: the walk that finds the newest version is the one that
    /// inserts after it. A file inherits that version's keep count
    /// (links keep none); the entry comes back as entered.
    fn put_next_version(
        &mut self,
        name: &str,
        mut entry: FileEntry,
    ) -> Result<(FileName, FileEntry)> {
        self.settle_epoch()?;
        let (lo, hi) = FileName::versions_range(name);
        let inherits = !matches!(entry.kind, EntryKind::SymLink { .. });
        let mut next = Err(FsdError::Check("the tree asked for no entry".into()));
        let mut tree = self.tree;
        {
            let cpu = &self.cpu;
            let mut store = nt_store!(self);
            tree.insert_routed(&mut store, &lo, &hi, &mut |newest| {
                if newest.is_some() {
                    cpu.entries(1); // Decoded for its keep count.
                }
                next = next_version(name, newest);
                let (fname, keep) = next.as_ref().ok()?;
                if inherits {
                    entry.keep = *keep;
                }
                Some((fname.to_key(), entry.encode()))
            })?;
        }
        self.tree = tree;
        self.cpu.entries(1);
        self.update_meta_root()?;
        Ok((next?.0, entry))
    }

    pub(crate) fn put_entry(&mut self, fname: &FileName, entry: &FileEntry) -> Result<()> {
        self.settle_epoch()?;
        let mut tree = self.tree;
        {
            let mut store = nt_store!(self);
            tree.insert(&mut store, &fname.to_key(), &entry.encode())?;
        }
        self.tree = tree;
        self.cpu.entries(1);
        self.update_meta_root()
    }

    /// Force early if the pending set is approaching a log third ("the
    /// log is forced long before" overflow, §5.3). The threshold scales
    /// with the log: a bigger log absorbs bigger batches, exactly the
    /// §5.4 "bigger log … improves these factors" lever.
    fn force_if_bulky(&mut self) -> Result<()> {
        if self.pending_meta_images() >= self.bulky_threshold() {
            self.force()?;
        }
        Ok(())
    }

    /// Pending-image level at which the volume forces on its own:
    /// three-quarters of a log third (conservatively estimated images
    /// stay well inside the third the force lands in).
    pub fn bulky_threshold(&self) -> usize {
        (self.log.third_capacity_images() * 3 / 4).max(2)
    }

    // ----- operations --------------------------------------------------------------

    /// Creates a new version of `name` holding `data`.
    pub fn create(&mut self, name: &str, data: &[u8]) -> Result<FsdFile> {
        self.create_kind(name, data, None)
    }

    /// Creates a cached copy of a remote file (entry kind
    /// `CachedRemote`, carrying a last-used-time — §5.4's example of data
    /// that tolerates lazy update).
    pub fn create_cached(&mut self, name: &str, data: &[u8]) -> Result<FsdFile> {
        let now = self.clock().now();
        self.create_kind(name, data, Some(EntryKind::CachedRemote { last_used: now }))
    }

    fn create_kind(&mut self, name: &str, data: &[u8], kind: Option<EntryKind>) -> Result<FsdFile> {
        self.maybe_force()?;
        self.cpu.op();
        // Validate before the hook: a create that fails on its name must
        // neither dirty the boot pages nor pay the settle.
        FileName::new(name, 1).map_err(FsdError::BadName)?;
        self.invalidate_vam_hint()?;
        let uid = self.next_uid()?;
        let data_pages = data.len().div_ceil(SECTOR_BYTES) as u32;

        // Leader + data in one allocation: the leader lands on the sector
        // before data page 0, making the §5.7 piggyback read free.
        let rt_all = self.allocate_with(&RunTable::new(), |alloc, vam| {
            alloc.allocate(vam, 1 + data_pages)
        })?;
        let give_back = |vam: &mut Vam| rt_all.runs().iter().for_each(|r| vam.free_run(*r));
        if rt_all.runs().len() > MAX_RUNS {
            give_back(&mut self.vam);
            return Err(FsdError::NoSpace);
        }
        let first = rt_all.runs()[0];
        let leader_addr = first.start;
        let mut run_table = RunTable::new();
        if first.len > 1 {
            run_table.push(Run::new(first.start + 1, first.len - 1));
        }
        for r in &rt_all.runs()[1..] {
            run_table.push(*r);
        }

        let entry = FileEntry {
            kind: kind.unwrap_or(EntryKind::Local),
            uid,
            keep: 0,
            byte_size: data.len() as u64,
            create_time: self.clock().now(),
            leader_addr,
            run_table,
        };

        // Update the name table — cache only, logged at the next force.
        // A name the table refuses (no page left for a split, no version
        // number left) costs the volume nothing: the runs go back.
        let (fname, entry) = match self.put_next_version(name, entry) {
            Ok(entered) => entered,
            Err(e) => {
                give_back(&mut self.vam);
                return Err(e);
            }
        };
        self.cancel_stale_leaders(rt_all.runs());

        // The one synchronous I/O: leader + leading data in a single
        // write, remaining extents after — before anything here can
        // force, so no group lists these runs while an old leader still
        // lies in them.
        let leader = LeaderPage::for_entry(&fname, &entry);
        let mut buf = leader.encode();
        let first_data = ((first.len - 1) as usize * SECTOR_BYTES).min(data.len());
        let mut chunk = data[..first_data].to_vec();
        chunk.resize((first.len - 1) as usize * SECTOR_BYTES, 0);
        buf.extend_from_slice(&chunk);
        self.disk.write(first.start, &buf)?;
        self.cpu.sectors(1 + data_pages as u64);
        let mut offset = first_data;
        for run in &rt_all.runs()[1..] {
            let want = (data.len() - offset).min(run.len as usize * SECTOR_BYTES);
            let mut chunk = data[offset..offset + want].to_vec();
            chunk.resize(run.len as usize * SECTOR_BYTES, 0);
            self.disk.write(run.start, &chunk)?;
            offset += want;
        }
        self.touched(rt_all.runs());
        self.enforce_keep(name, fname.version, entry.keep)?;

        self.force_if_bulky()?;
        Ok(FsdFile {
            name: fname,
            entry,
            leader_verified: true, // We just wrote it.
        })
    }

    /// Sets the keep count on every version of `name`: the number of old
    /// versions retained when new ones are created ("Both systems support
    /// versions for files", §5.3; the keep field appears in every Table 1
    /// entry). A keep of zero retains all versions.
    pub fn set_keep(&mut self, name: &str, keep: u32) -> Result<()> {
        self.maybe_force()?;
        self.cpu.op();
        let (lo, hi) = FileName::versions_range(name);
        let tree = self.tree;
        let versions = {
            let mut store = nt_store!(self);
            tree.collect_range(&mut store, &lo, Some(&hi))?
        };
        let Some((newest, _)) = versions.last() else {
            return Err(FsdError::NotFound(name.to_string()));
        };
        let newest = FileName::from_key(newest).map_err(FsdError::Check)?.version;
        for (key, raw) in versions {
            let fname = FileName::from_key(&key).map_err(FsdError::Check)?;
            self.cpu.entries(1);
            let mut entry = FileEntry::decode(&raw)?;
            entry.keep = keep;
            self.put_entry(&fname, &entry)?;
        }
        self.enforce_keep(name, newest, keep)?;
        self.force_if_bulky()?;
        Ok(())
    }

    /// Prunes versions older than the keep window ending at `newest`.
    fn enforce_keep(&mut self, name: &str, newest: u32, keep: u32) -> Result<()> {
        if keep == 0 || newest <= keep {
            return Ok(());
        }
        let (lo, hi) = FileName::versions_range(name);
        let mut stale: Vec<FileName> = Vec::new();
        let tree = self.tree;
        {
            let mut store = nt_store!(self);
            tree.for_each_range(&mut store, &lo, Some(&hi), &mut |k, _| {
                if let Ok(f) = FileName::from_key(k) {
                    if f.version + keep <= newest {
                        stale.push(f);
                    }
                }
                true
            })?;
        }
        for fname in stale {
            self.delete(&fname.name, Some(fname.version))?;
        }
        Ok(())
    }

    /// Creates a symbolic link to a remote file.
    pub fn create_symlink(&mut self, name: &str, target: &str) -> Result<FsdFile> {
        self.maybe_force()?;
        self.cpu.op();
        FileName::new(name, 1).map_err(FsdError::BadName)?;
        let entry = FileEntry {
            kind: EntryKind::SymLink {
                target: target.to_string(),
            },
            uid: self.next_uid()?,
            keep: 0,
            byte_size: 0,
            create_time: self.clock().now(),
            leader_addr: 0,
            run_table: RunTable::new(),
        };
        let (fname, entry) = self.put_next_version(name, entry)?;
        Ok(FsdFile {
            name: fname,
            entry,
            leader_verified: true, // Links have no leader.
        })
    }

    /// Opens the newest (or a specific) version of `name`. Usually does no
    /// I/O (§5.7): the entry carries everything, and the leader check is
    /// deferred to the first data access. Opening a cached remote copy
    /// refreshes its last-used-time — lazily, via the group commit.
    pub fn open(&mut self, name: &str, version: Option<u32>) -> Result<FsdFile> {
        self.maybe_force()?;
        self.cpu.op();
        let (fname, mut entry) = self.resolve(name, version)?;
        if let EntryKind::CachedRemote { last_used } = &mut entry.kind {
            *last_used = self.clock().now();
            self.put_entry(&fname, &entry)?;
        }
        Ok(FsdFile {
            name: fname,
            entry,
            leader_verified: false,
        })
    }

    /// Verifies the leader page, piggybacked with the first `extra`
    /// sectors after it when they are wanted anyway (§5.7); those sectors
    /// are appended to `out`.
    fn verify_leader(&mut self, file: &FsdFile, extra: usize, out: &mut Vec<u8>) -> Result<()> {
        // A leader awaiting its home write — staged by this session or
        // booked from the log at boot — is checked from memory.
        let staged = self.leaders.get(&file.entry.leader_addr).and_then(|ls| {
            ls.unlogged
                .clone()
                .or_else(|| ls.logged.as_ref().map(|(i, _)| i.clone()))
        });
        if let Some(img) = staged {
            let leader = LeaderPage::decode(&img)?;
            leader.verify(&file.name, &file.entry)?;
            if extra > 0 {
                self.disk
                    .read_into(file.entry.leader_addr + 1, extra, out)?;
            }
            return Ok(());
        }
        // One transfer: the leader lands in `out` ahead of the data and
        // is cut out again once checked.
        let at = out.len();
        self.disk
            .read_into(file.entry.leader_addr, 1 + extra, out)?;
        let leader = LeaderPage::decode(&out[at..at + SECTOR_BYTES])?;
        leader.verify(&file.name, &file.entry)?;
        out.drain(at..at + SECTOR_BYTES);
        Ok(())
    }

    /// Reads one page of an open file, verifying the leader on the
    /// handle's first access.
    pub fn read_page(&mut self, file: &mut FsdFile, page: u32) -> Result<Vec<u8>> {
        let sector = file
            .entry
            .run_table
            .sector_of(page)
            .ok_or(FsdError::OutOfRange {
                page,
                pages: file.pages(),
            })?;
        self.cpu.sectors(1);
        let mut out = Vec::new();
        if !file.leader_verified {
            file.leader_verified = true;
            if sector == file.entry.leader_addr + 1 {
                // The usual case: "the leader page is the previous
                // physical page on the disk" — one combined transfer.
                self.verify_leader(file, 1, &mut out)?;
                self.touched(&[Run::new(sector, 1)]);
                return Ok(out);
            }
            self.verify_leader(file, 0, &mut out)?;
        }
        self.disk.read_into(sector, 1, &mut out)?;
        self.touched(&[Run::new(sector, 1)]);
        Ok(out)
    }

    /// Reads a whole file, truncated to its byte size: one transfer per
    /// extent, the first piggybacked with the leader (§5.7), all into one
    /// buffer. A file with no pages costs no I/O — there is no data
    /// access for the leader check to ride on.
    pub fn read_file(&mut self, file: &mut FsdFile) -> Result<Vec<u8>> {
        if matches!(file.entry.kind, EntryKind::SymLink { .. }) {
            return Err(FsdError::WrongKind("regular file"));
        }
        // Room for the leader sector `verify_leader` reads along.
        let mut out = Vec::with_capacity((file.pages() as usize + 1) * SECTOR_BYTES);
        let runs: Vec<Run> = file.entry.run_table.runs().to_vec();
        for (i, run) in runs.iter().enumerate() {
            if i == 0 && !file.leader_verified && run.start == file.entry.leader_addr + 1 {
                file.leader_verified = true;
                self.verify_leader(file, run.len as usize, &mut out)?;
                continue;
            }
            self.disk.read_into(run.start, run.len as usize, &mut out)?;
        }
        self.touched(&runs);
        if !file.leader_verified && file.entry.leader_addr != 0 && !runs.is_empty() {
            file.leader_verified = true;
            self.verify_leader(file, 0, &mut out)?;
        }
        self.cpu.sectors(file.pages() as u64);
        out.truncate(file.entry.byte_size as usize);
        Ok(out)
    }

    /// Reads `count` consecutive logical pages, batching transfers along
    /// physical extents (the streaming read path; Table 5 drives this).
    pub fn read_pages(&mut self, file: &mut FsdFile, page: u32, count: u32) -> Result<Vec<u8>> {
        let end = file.page_range_end(page, count)?;
        let mut out = Vec::with_capacity(count as usize * SECTOR_BYTES);
        let mut at = page;
        // The last extent transferred.
        let mut last = None;
        if !file.leader_verified && file.entry.leader_addr != 0 {
            file.leader_verified = true;
            let piggyback = if page == 0 {
                // Piggyback the leader check on the first transfer (§5.7).
                file.entry
                    .run_table
                    .extent_at(page)
                    .filter(|e| e.start == file.entry.leader_addr + 1)
            } else {
                None
            };
            if let Some(extent) = piggyback {
                let take = extent.len.min(count);
                self.verify_leader(file, take as usize, &mut out)?;
                last = Some(Run::new(extent.start, take));
                at += take;
            } else {
                self.verify_leader(file, 0, &mut out)?;
            }
        }
        while at < end {
            let extent =
                file.entry.run_table.extent_at(at).ok_or_else(|| {
                    FsdError::Check(format!("page {at} missing from the run table"))
                })?;
            let take = extent.len.min(end - at);
            self.disk.read_into(extent.start, take as usize, &mut out)?;
            last = Some(Run::new(extent.start, take));
            at += take;
        }
        self.touched(last.as_slice());
        self.cpu.sectors(count as u64);
        Ok(out)
    }

    /// Writes `count` consecutive logical pages from `data`, batching
    /// transfers along physical extents.
    pub fn write_pages(&mut self, file: &mut FsdFile, page: u32, data: &[u8]) -> Result<()> {
        assert_eq!(data.len() % SECTOR_BYTES, 0);
        let count = (data.len() / SECTOR_BYTES) as u32;
        let end = file.page_range_end(page, count)?;
        let mut at = page;
        let mut off = 0usize;
        while at < end {
            let extent =
                file.entry.run_table.extent_at(at).ok_or_else(|| {
                    FsdError::Check(format!("page {at} missing from the run table"))
                })?;
            let take = extent.len.min(end - at) as usize;
            self.disk
                .write(extent.start, &data[off..off + take * SECTOR_BYTES])?;
            self.touched(&[Run::new(extent.start, take as u32)]);
            at += take as u32;
            off += take * SECTOR_BYTES;
        }
        self.cpu.sectors(count as u64);
        Ok(())
    }

    /// Overwrites one page of an open file.
    pub fn write_page(&mut self, file: &mut FsdFile, page: u32, data: &[u8]) -> Result<()> {
        assert!(data.len() <= SECTOR_BYTES);
        self.maybe_force()?;
        let sector = file
            .entry
            .run_table
            .sector_of(page)
            .ok_or(FsdError::OutOfRange {
                page,
                pages: file.pages(),
            })?;
        let mut buf = vec![0u8; SECTOR_BYTES];
        buf[..data.len()].copy_from_slice(data);
        self.cpu.sectors(1);
        // Piggyback a pending (already logged) leader home write when the
        // data write passes right by it (§5.3).
        let leader_addr = file.entry.leader_addr;
        if sector == leader_addr + 1 {
            if let Some(ls) = self.leaders.get_mut(&leader_addr) {
                if ls.unlogged.is_none() {
                    if let Some((img, _)) = ls.logged.take() {
                        let mut combined = img;
                        combined.extend_from_slice(&buf);
                        self.disk.write(leader_addr, &combined)?;
                        self.touched(&[Run::new(sector, 1)]);
                        self.leaders.remove(&leader_addr);
                        file.leader_verified = true;
                        return Ok(());
                    }
                }
            }
        }
        self.disk.write(sector, &buf)?;
        self.touched(&[Run::new(sector, 1)]);
        Ok(())
    }

    /// Extends an open file by `add_pages` pages (zero-filled). Metadata
    /// changes are logged; the new leader image is written home lazily.
    pub fn extend(&mut self, file: &mut FsdFile, add_pages: u32) -> Result<()> {
        self.maybe_force()?;
        self.cpu.op();
        self.invalidate_vam_hint()?;
        let had = &file.entry.run_table;
        let rt = self.allocate_with(had, |alloc, vam| {
            let mut rt = had.clone();
            alloc.extend(vam, &mut rt, add_pages)?;
            Ok(rt)
        })?;
        let grown = rt.clone().truncate(file.entry.run_table.pages());
        let give_back = |vam: &mut Vam| grown.iter().for_each(|r| vam.free_run(*r));
        if rt.runs().len() > MAX_RUNS {
            // Give back the new pages and refuse.
            give_back(&mut self.vam);
            return Err(FsdError::NoSpace);
        }
        // An extend writes none of the pages it hands out, so a leader
        // image still owed to one of them — a deleted file's tombstone —
        // would leave that file's live leader at home once cancelled, for
        // a scavenge to bring the file back. Such a sector is zeroed
        // before it is listed: redo leaves out what a list names because
        // the new owner has written over it.
        let owed: Vec<SectorAddr> = self
            .leaders
            .keys()
            .copied()
            .filter(|&addr| grown.iter().any(|r| r.contains(addr)))
            .collect();
        for addr in owed {
            self.cpu.sectors(1);
            if let Err(e) = self.disk.write(addr, &[0u8; SECTOR_BYTES]) {
                give_back(&mut self.vam);
                return Err(e.into());
            }
        }
        self.cancel_stale_leaders(&grown);
        file.entry.run_table = rt;
        file.entry.byte_size = file.pages() as u64 * SECTOR_BYTES_U64;
        let fname = file.name.clone();
        let entry = file.entry.clone();
        self.put_entry(&fname, &entry)?;
        self.stage_leader(&fname, &entry);
        self.force_if_bulky()?;
        Ok(())
    }

    /// Truncates an open file to `pages` pages. The freed pages go to the
    /// shadow bitmap until the commit (§5.5).
    pub fn truncate(&mut self, file: &mut FsdFile, pages: u32) -> Result<()> {
        self.maybe_force()?;
        self.cpu.op();
        self.invalidate_vam_hint()?;
        let removed = file.entry.run_table.truncate(pages);
        for r in removed {
            self.vam.shadow_free_run(r);
        }
        file.entry.byte_size = file.entry.byte_size.min(pages as u64 * SECTOR_BYTES_U64);
        let fname = file.name.clone();
        let entry = file.entry.clone();
        self.put_entry(&fname, &entry)?;
        self.stage_leader(&fname, &entry);
        Ok(())
    }

    /// File data has just moved through `runs`, in order: the next small
    /// file goes beside where the last of them ends (§6 prices each I/O
    /// by its seek). Log, name-table, boot-page and leader I/O leave the
    /// cursor where it is.
    fn touched(&mut self, runs: &[Run]) {
        if let Some(last) = runs.last() {
            self.alloc.set_cursor(last.end());
        }
    }

    /// Stages a new leader image for lazy (logged, then piggybacked or
    /// third-entry) writing.
    fn stage_leader(&mut self, name: &FileName, entry: &FileEntry) {
        if entry.leader_addr == 0 {
            return;
        }
        let img = LeaderPage::for_entry(name, entry).encode();
        self.leaders.entry(entry.leader_addr).or_default().unlogged = Some(img);
    }

    /// Drops staged leader images that fall inside freshly allocated
    /// runs: those sectors now belong to a new file, so a stale leader
    /// (or delete tombstone) write-back would corrupt its data. The runs
    /// are noted for the next force to list, which makes the same
    /// decision durable for redo — including for an image the map no
    /// longer holds but the log still does (one taken home beside a data
    /// write).
    fn cancel_stale_leaders(&mut self, runs: &[Run]) {
        self.leaders
            .retain(|&addr, _| !runs.iter().any(|r| r.contains(addr)));
        self.handed_out.extend_from_slice(runs);
    }

    /// Deletes a version of `name` (the newest when `version` is `None`)
    /// in one walk of the name table: the walk that finds the entry takes
    /// it out. Does no synchronous I/O: the entry leaves the cache copy
    /// of the name table and the pages wait in the shadow bitmap (§5.5).
    pub fn delete(&mut self, name: &str, version: Option<u32>) -> Result<()> {
        self.maybe_force()?;
        self.cpu.op();
        // A delete that fails on its arguments or on a damaged entry must
        // neither dirty the boot pages nor pay the settle, and a settle
        // that fails must leave the tree as it was: while one is owed —
        // the first map change of a session — the entry is read before
        // it is paid.
        if self.map_change_owes_writes() {
            self.lookup(name, version)?;
            self.invalidate_vam_hint()?;
        }
        let (fname, entry) = self.remove_entry(name, version)?;
        self.cpu.entries(1);
        if entry.leader_addr != 0 {
            self.vam.shadow_free_run(Run::new(entry.leader_addr, 1));
            // Stage a tombstone over the old leader so a later scavenge
            // (rebuilding the name table from leader pages) does not
            // resurrect the deleted file. Cancelled if the sector is
            // reallocated before it reaches the disk.
            let img = LeaderPage::tombstone(&fname, &entry).encode();
            self.leaders.entry(entry.leader_addr).or_default().unlogged = Some(img);
        }
        for r in entry.run_table.runs() {
            self.vam.shadow_free_run(*r);
        }
        self.force_if_bulky()?;
        Ok(())
    }

    /// Lists files under a name prefix with all their properties — no
    /// per-file I/O, since everything is in the name table (§5.1).
    pub fn list(&mut self, prefix: &str) -> Result<Vec<(FileName, FileEntry)>> {
        self.maybe_force()?;
        self.cpu.op();
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
        self.cpu.entries(raw.len() as u64);
        raw.into_iter()
            .map(|(k, v)| {
                Ok((
                    FileName::from_key(&k).map_err(FsdError::Check)?,
                    FileEntry::decode(&v)?,
                ))
            })
            .collect()
    }
}

/// The name the version after `newest` takes, and the keep count it
/// inherits.
fn next_version(name: &str, newest: Option<(&[u8], &[u8])>) -> Result<(FileName, u32)> {
    let (version, keep) = match newest {
        Some((key, raw)) => {
            let newest = FileName::from_key(key).map_err(FsdError::Check)?;
            let version = newest.version.checked_add(1).ok_or_else(|| {
                FsdError::BadName(format!(
                    "{name}: no version number after {}",
                    newest.version
                ))
            })?;
            (version, FileEntry::decode(raw)?.keep)
        }
        None => (1, 0),
    };
    let fname = FileName::new(name, version).map_err(FsdError::BadName)?;
    Ok((fname, keep))
}

/// Home-sector writes as [`spare::write_home_batch`] takes them.
type HomeWrites = Vec<(SectorAddr, Vec<u8>)>;

/// The one set of books for "logged, not yet home": takes the home
/// writes of every name-table page, owed sector image and leader the log
/// still protects — all of them (`third: None`: shutdown, format,
/// [`FsdVolume::settle_redo`]), or those whose only
/// log copy lives in third `t`, which is about to be reclaimed (§5.3) —
/// and marks them home. Returns the writes in logical order (both copies
/// of a page together, cached pages by id, then pages freed since the
/// last force, then owed sectors by address, then leaders: the order the
/// in-order policy executes and the scheduled one re-sorts; they target
/// disjoint sectors, so they are one window) and the number of cached
/// name-table pages among them.
///
/// A page that goes home whole takes the owed images of its sectors with
/// it: its baseline holds them, or something newer the log holds too. An
/// owed image written after it would put older bytes over newer ones.
///
/// A leader's map entry goes only when its logged image is taken here
/// and nothing unlogged waits behind it. An entry with *neither* image is
/// not garbage: inside a force, the leaders taken for the record being
/// appended look exactly like that until they are marked logged, and a
/// third entry in the middle of that append must leave them in the map.
/// One it cannot leave — its previous image sat in the third being
/// entered — `force` puts back when it marks the record's leaders. Lose
/// either and the image in flight never goes home, which no boot notices
/// until the log has lapped the record (`tests/leader_third_entry.rs`).
pub(crate) fn collect_home_writes(
    layout: &FsdLayout,
    cache: &mut NtCache,
    leaders: &mut BTreeMap<u32, LeaderState>,
    third: Option<u8>,
) -> Result<(HomeWrites, u64)> {
    let due = |logged_in: u8| third.is_none_or(|t| t == logged_in);
    let mut writes = HomeWrites::new();
    let mut pages = 0u64;
    let mut ids: Vec<PageId> = cache.pages.keys().copied().collect();
    ids.sort_unstable();
    // Pages going home whole: the cached ones, then those freed since the
    // last force.
    let mut whole: Vec<(PageId, Vec<u8>)> = Vec::new();
    for id in ids {
        let Some(p) = cache.pages.get_mut(&id) else {
            continue;
        };
        // A page with no tag has no log copy to lose: only the full sync
        // takes it (a scrub that could not stick left it `needs_home`).
        if third.is_some_and(|t| p.last_logged_third != Some(t)) {
            continue;
        }
        if p.needs_home {
            // Write the *baseline* (last committed image), never the
            // possibly-uncommitted current image.
            let Some(img) = p.baseline.as_ref() else {
                return Err(FsdError::Check(format!(
                    "page {id} needs a home write but has no baseline image"
                )));
            };
            whole.push((id, img.clone()));
            p.needs_home = false;
            pages += 1;
        }
        p.last_logged_third = None;
    }
    let (freed, kept) = std::mem::take(&mut cache.freed)
        .into_iter()
        .partition(|(_, (_, logged_in))| due(*logged_in));
    cache.freed = kept;
    whole.extend(freed.into_iter().map(|(id, (img, _))| (id, img)));
    for (id, img) in whole {
        let pair = layout.nt_pair(id);
        for s in 0..NT_PAGE_SECTORS {
            cache.owed.remove(&(pair.a + s));
            cache.owed.remove(&(pair.b + s));
        }
        writes.extend(pair.both(img));
    }
    let (owed, kept) = std::mem::take(&mut cache.owed)
        .into_iter()
        .partition(|(_, (_, logged_in))| due(*logged_in));
    cache.owed = kept;
    writes.extend(owed.into_iter().map(|(addr, (img, _))| (addr, img)));
    leaders.retain(|&addr, ls| match ls.logged.take_if(|(_, t)| due(*t)) {
        Some((img, _)) => {
            writes.push((addr, img));
            ls.unlogged.is_some()
        }
        None => true,
    });
    Ok((writes, pages))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{log, NT_PAGE_BYTES};
    use cedar_btree::PageStore;

    /// Regression: a page that stays hot in one sector while another
    /// sector goes quiet must survive a crash after the log laps. The
    /// per-sector diff in [`FsdVolume::force`] means the quiet sector's
    /// newest image rides an old third; if the page's flush tag advanced
    /// with every partial log, the reclaim sweep would never write it
    /// home and the lap would destroy the only copy. (Observed in the
    /// wild on the allocation bitmap, whose write frontier only moves
    /// forward — crash recovery came back with a weeks-old free map.)
    #[test]
    fn quiet_sector_of_hot_page_survives_log_lap_crash() {
        let config = FsdConfig {
            nt_pages: 16,
            log_sectors: 128,
            cpu: CpuModel::FREE,
            ..FsdConfig::default()
        };
        let mut v = FsdVolume::format(SimDisk::tiny(), config).unwrap();

        // An out-of-tree page: distinctive content in sector 0, a
        // counter in sector 1.
        let page: PageId = 12;
        let mut img = vec![0u8; NT_PAGE_BYTES];
        for (i, b) in img[..SECTOR_BYTES].iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        nt_store!(v).write_page(page, &img).unwrap();
        v.force().unwrap();
        let quiet = img[..SECTOR_BYTES].to_vec();

        // Dirty only sector 1 across enough forces to lap the 128-sector
        // log several times (each force appends one 7-sector record).
        let laps = 60u32;
        for i in 0..laps {
            img[SECTOR_BYTES..SECTOR_BYTES + 4].copy_from_slice(&i.to_le_bytes());
            nt_store!(v).write_page(page, &img).unwrap();
            v.force().unwrap();
        }

        let mut disk = v.into_disk();
        disk.crash_now();
        disk.reboot();
        let (mut v2, _) = FsdVolume::boot(disk, config).unwrap();
        let got = nt_store!(v2).read_through(page).unwrap();
        assert_eq!(
            &got[..SECTOR_BYTES],
            &quiet[..],
            "quiet sector lost across log lap + crash"
        );
        assert_eq!(
            &got[SECTOR_BYTES..SECTOR_BYTES + 4],
            &(laps - 1).to_le_bytes(),
            "hot sector not recovered to the last force"
        );
    }

    /// A name-table page freed while its newest logged image is not home
    /// is still the committed tree's until the force that logs the free
    /// commits. When that force enters the third holding the image, the
    /// image goes home first: a crash anywhere in the force — past the
    /// third's reclamation, before the free commits — finds the page as
    /// it was committed. Without that home write the page came back as
    /// whatever its home held before.
    #[test]
    fn a_page_freed_by_the_force_that_reclaims_its_third_goes_home_first() {
        let config = FsdConfig {
            nt_pages: 16,
            log_sectors: 128,
            cpu: CpuModel::FREE,
            ..FsdConfig::default()
        };
        let image: Vec<u8> = (0..NT_PAGE_BYTES).map(|i| (i % 253) as u8 | 1).collect();
        // The page's image logged in one third; then one-sector forces of
        // another page until the next one enters that third again: the
        // free, crashed after `k` sector writes.
        let session = |k: u64| {
            let mut v = FsdVolume::format(SimDisk::tiny(), config).unwrap();
            let (page, pad) = {
                let mut store = nt_store!(v);
                (store.alloc_page().unwrap(), store.alloc_page().unwrap())
            };
            nt_store!(v).write_page(page, &image).unwrap();
            v.force().unwrap();
            let layout = v.layout;
            let len = (layout.log_sectors - log::DATA_START) / 3;
            let third = |at: u32| (at - layout.log_start - log::DATA_START) / len;
            let logged_in = third(v.next_log_sector() - 1);
            let mut pad_image = vec![0u8; NT_PAGE_BYTES];
            for i in 1u32.. {
                pad_image[..4].copy_from_slice(&i.to_le_bytes());
                nt_store!(v).write_page(pad, &pad_image).unwrap();
                v.force().unwrap();
                let next = v.next_log_sector();
                let wraps = layout.log_start + layout.log_sectors < next + 7;
                let end = if wraps {
                    layout.log_start + log::DATA_START + 6
                } else {
                    next + 6
                };
                if third(end) == logged_in && third(next) != logged_in {
                    assert!(i > 3, "the log went round");
                    break;
                }
            }
            v.disk_mut().schedule_crash(cedar_disk::CrashPlan {
                after_sector_writes: k,
                damaged_tail: 0,
            });
            let freed = nt_store!(v).free_page(page);
            let forced = freed.map_err(|e| FsdError::Check(e.to_string()));
            let forced = forced.and_then(|()| v.force());
            let mut disk = v.into_disk();
            let fired = disk.is_crashed();
            disk.crash_now();
            disk.reboot();
            (disk, page, forced, fired)
        };
        let mut points = 0;
        for k in 0.. {
            let (disk, page, forced, fired) = session(k);
            let (mut v, _) = FsdVolume::boot(disk, config).unwrap();
            let meta = nt_store!(v).read_meta().unwrap();
            if meta.in_use(page) {
                let got = nt_store!(v).read_through(page).unwrap();
                assert!(
                    got == image,
                    "k = {k}: the committed page came back changed"
                );
            }
            points += 1;
            if !fired {
                forced.unwrap();
                assert!(!meta.in_use(page), "the free committed");
                break;
            }
        }
        assert!(points > 5, "{points} crash points");
    }

    /// A name out of version numbers is refused after its pages were
    /// allocated; they go back, and the table is as it was.
    #[test]
    fn a_create_past_the_last_version_number_gives_its_runs_back() {
        let config = FsdConfig {
            nt_pages: 16,
            log_sectors: 128,
            cpu: CpuModel::FREE,
            ..FsdConfig::default()
        };
        let mut v = FsdVolume::format(SimDisk::tiny(), config).unwrap();
        let last = v.create("f", b"v1").unwrap();
        let at_the_end = FileName::new("f", u32::MAX).unwrap();
        v.put_entry(&at_the_end, &last.entry).unwrap();
        let (free, listing) = (v.free_sectors(), v.list("").unwrap());

        let refused = v.create("f", &[7u8; 3000]);
        assert!(matches!(refused, Err(FsdError::BadName(_))), "{refused:?}");
        assert!(matches!(
            v.create_symlink("f", "elsewhere"),
            Err(FsdError::BadName(_))
        ));
        assert_eq!(v.free_sectors(), free);
        assert_eq!(v.list("").unwrap(), listing);
        assert_eq!(v.open("f", None).unwrap().name, at_the_end);
        assert_eq!(v.create("g", b"fine").unwrap().name.version, 1);
    }
}
