//! Crash recovery (§5.9): the log is read at boot, applied where a page
//! is first touched, and written home by the first write.
//!
//! "Recovery is fast and easy. There are two types of recovery. First, the
//! VAM can be reconstructed using the name table... Second, the file name
//! table and leaders are recovered from the log. The log is a physical
//! redo log and the algorithm to perform recovery is simple. Log records
//! are read and the copies of pages in the log are written to disk.
//! Recovery rarely takes more than two seconds on the current hardware."
//!
//! [`FsdVolume::boot`] reads — the boot page, the log meta, the live
//! record chain — and stops. It writes nothing. It resumes the log it
//! scanned ([`Log::resume`]): the next record goes behind the last
//! complete commit group, and the images the chain holds join the
//! writeback books the running volume keeps for its own records. The
//! newest image of each name-table sector goes into the cache's owed map
//! (`NtCache::owed`), the newest of each leader into the leader books,
//! each tagged with the third its record starts in. From
//! then on they go home like anything else the log protects: when the
//! writer next enters their third (§5.3), or at [`FsdVolume::settle_redo`]
//! and shutdown. Until then a name-table page that misses the cache is
//! read from its home copies with the owed images laid over them
//! ([`crate::cache::FsdNtStore::read_through`]), and a leader the books
//! hold is checked from its image: a reader sees exactly the bytes redo
//! would have put on the platters.
//!
//! Boot leaves two things owed, and serves every `open`, read and `list`
//! while it does:
//!
//! * **the new epoch** — the boot pages with the bumped boot count (uids
//!   carry it) and the saved VAM marked invalid. It is paid once, by the
//!   first write: anything that dirties a name-table page, stages a
//!   leader or draws a uid (create, delete, extend, truncate, a symbolic
//!   link, the last-used refresh of a cached copy), shutdown, turning the
//!   replication tap on, or [`FsdVolume::settle_redo`], which also writes
//!   everything owed home first. The first write pays only that one
//!   write of the boot pages;
//! * **the VAM walk** — when the saved free map is unusable, the
//!   name-table walk that rebuilds it (the first kind above, and the bulk
//!   of the paper's 25 seconds). The first allocation needs *a* free run,
//!   not the whole map, and the boot page names one: the **restart
//!   reserve**, which no allocation has touched since it was recorded
//!   (`volume.rs` has the rules). The first operation that allocates or
//!   frees takes it over — its record leaves the boot page with the new
//!   epoch's write, or with a write of its own when the epoch was paid
//!   earlier, and only then is the run marked free — and from there
//!   create and extend allocate from, and delete and truncate free into,
//!   a map that marks free only what is *known* to be: always a subset of
//!   the truth. The walk is paid by an allocation that map cannot serve
//!   in one run, by shutdown (the map is saved), by the cache flusher (it
//!   decides on the free count), or by [`FsdVolume::settle_vam`]; it
//!   carries the shadow bitmap of the map it replaces across, and ends by
//!   holding a reserve again — the recorded one if it is still standing,
//!   a new one otherwise. A boot page without a record (the reserve was
//!   taken over or released, or the volume predates it) is the same path
//!   with nothing to take over: the first allocation pays the walk.
//!
//! `boot` followed at once by `settle_vam` is the whole of FSD crash
//! recovery: the owed images written home in one sorted window, the new
//! epoch, the walk.
//!
//! The log's count and the boot count are two numbers. Every record
//! carries the count its meta names, which is set when the log is made
//! fresh (format, a rung-3 scavenge) and kept by every boot that resumes
//! it; the boot page's count rises with every session that writes. The
//! scan's rule, "consecutive sequence numbers, the meta's count", is the
//! same for a resumed chain: past its end, a record with that count and
//! a sequence number not below the next one can only be a non-terminal
//! member of the group the crash tore, and the resumed chain writes over
//! that group from its first record on ([`log::scan_records`]).
//!
//! Table 2's headline: crash recovery drops from 3600+ seconds (the CFS
//! scavenge) to 25 seconds worst case (log redo plus VAM rebuild).
//! Recovery is idempotent, and a crash while it is owed is the trivial
//! case: boot wrote nothing, so the next boot reads the same bytes. A
//! crash after the first write finds the resumed chain longer by what
//! that session committed, its homes rewritten as far as its third
//! entries got — each with an image the log no longer holds, or still
//! does — and lays the same images over them. A crash after the reserve
//! was taken over finds no record and walks first; a crash before finds
//! the record and the run as free as it ever was
//! (`tests/reserve_sweep.rs` enumerates both, and the walk in between).
//!
//! # The escalation ladder
//!
//! Media faults (§5.8) escalate recovery through three rungs, reported in
//! [`RecoveryReport::rung`]:
//!
//! 1. **Redo** — the plain log replay above; every structure read clean.
//! 2. **Replica scrub** — some replicated structure (boot page, log meta,
//!    log record sector, saved VAM, name-table page) had a damaged copy.
//!    The survivor serves the read and the damaged copy is rewritten from
//!    it; a sector that stays bad after the rewrite is remapped into the
//!    spare region ([`crate::spare::SpareMap`]). A home sector the log
//!    holds is scrubbed with the logged image, which is the committed one.
//!    For everything but the copies inside a log record this rung is one
//!    function, `spare::read_replicated`; the readers here are a
//!    [`crate::layout::Replicated`] pair and a validator each.
//! 3. **Scavenge** — the log (or the name table it protects) is beyond
//!    replica repair. The volume is rebuilt from leader pages alone
//!    ([`crate::scavenge`]), the way CFS recovered from hardware labels.
//!
//! What boot no longer does it can no longer escalate: home writes that
//! run out of spare sectors, boot pages that cannot be written, a
//! name-table page dead in both copies under the walk are all found
//! later. When [`FsdVolume::settle_redo`], the new epoch or the walk
//! fails for a reason other than a crash, the operation that triggered
//! it returns the typed error, what was owed stays owed — reads keep
//! working through the log's images — and the saved-VAM byte on the boot
//! pages records "settle failed": the next boot goes straight to rung 3,
//! without replaying the log. A session whose *walk* failed has started its epoch and can still
//! commit what needs no free map — a symbolic link, a cached copy's
//! refreshed last-used-time. Those commits do not survive the rung-3
//! boot: the scavenger rebuilds from leader pages alone. The note is
//! about this machine's media, so replication does not ship it: a replica
//! of a wounded primary is told only that the save area is stale.
use crate::cache::{NtMeta, OwedImages};
use crate::layout::{FsdBootPage, FsdLayout, SavedVam};
use crate::log::{self, Log, PageTarget};
use crate::scavenge::{self, ScavengeSummary};
use crate::spare::{self, SpareMap};
use crate::volume::{collect_home_writes, nt_store, FsdConfig, FsdVolume, LeaderState};
use crate::{FsdError, Result};
use cedar_btree::BTree;
use cedar_disk::clock::Micros;
use cedar_disk::{Cpu, SectorAddr, SimDisk};
use cedar_vol::{Run, Vam};
use std::collections::BTreeMap;

/// The highest recovery rung a boot had to climb to.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum RecoveryRung {
    /// Plain log redo; every structure read clean.
    #[default]
    Redo,
    /// At least one replicated structure was repaired from its survivor
    /// copy (scrubbed in place or remapped to a spare sector).
    ReplicaScrub,
    /// The log was beyond replica repair: the volume was rebuilt from
    /// leader pages.
    Scavenge,
}

/// One VAM reconstruction: the name-table walk of §5.5, whoever paid it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VamWalk {
    /// Files walked.
    pub files_scanned: u64,
    /// Simulated time reading the meta page and batch-reading every
    /// allocated name-table page into the cache.
    pub prefetch_us: Micros,
    /// Simulated time walking the tree from the cache, decoding the
    /// entries and building the free map.
    pub walk_us: Micros,
}

impl VamWalk {
    /// Simulated time of the whole walk.
    pub fn us(&self) -> Micros {
        self.prefetch_us + self.walk_us
    }
}

/// The settle a boot leaves owed, whoever paid it
/// ([`FsdVolume::redo_settle`]). The first write pays the new epoch and
/// nothing else: the images the resumed log still owes go home with
/// their thirds. [`FsdVolume::settle_redo`], when it comes first, writes
/// them all home ahead of the epoch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RedoSettle {
    /// Everything logged and not yet home, written home in one sorted
    /// window by `settle_redo`: zero when a write paid the settle.
    pub home_us: Micros,
    /// The new epoch: the boot pages with the bumped boot count, the
    /// saved VAM marked invalid, and — when the operation paying is about
    /// to change the map while the walk is owed — the restart reserve
    /// handed over.
    pub epoch_us: Micros,
}

/// What boot did with the log's leader images: every newest logged image
/// of a leader lands in exactly one bucket, decided from the end pages'
/// lists alone.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LeaderPass {
    /// Kept: no later group lists the sector, so the image joins the
    /// writeback books and goes home with its third.
    pub kept: u64,
    /// Left out: a later group lists the sector among the runs it handed
    /// to another file.
    pub reallocated: u64,
}

impl RedoSettle {
    /// Simulated time of the whole settle.
    pub fn us(&self) -> Micros {
        self.home_us + self.epoch_us
    }
}

/// What boot read off the log: the running log it resumes, and what that
/// log's records still owe the homes.
struct Resumed {
    log: Log,
    /// Name-table sector images, by home sector.
    owed: OwedImages,
    /// The leader images the books take over.
    leaders: BTreeMap<SectorAddr, LeaderState>,
}

/// What boot did. Everything here is boot's own share of recovery: the
/// new epoch is owed and will show up in [`FsdVolume::redo_settle`], and
/// when [`Self::vam_reconstructed`] is set so is the name-table walk
/// ([`FsdVolume::vam_walk`]), once something pays them.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Log records replayed.
    pub records_replayed: u64,
    /// Sector images the replayed records hold.
    pub images_redone: u64,
    /// The verdicts on the log's leader images.
    pub leaders: LeaderPass,
    /// The saved VAM was not usable (`false` means a properly saved VAM
    /// was loaded): a name-table walk is owed.
    pub vam_reconstructed: bool,
    /// Files walked by boot itself: always zero, because boot never
    /// walks — [`VamWalk::files_scanned`] has the count once the walk is
    /// paid.
    pub files_scanned: u64,
    /// Simulated time boot spent on log redo: reading the boot page and
    /// the log meta, scanning the record chain and booking its images.
    pub redo_us: Micros,
    /// Simulated time boot spent loading the saved VAM. Zero when the
    /// save area was stale and the walk is owed.
    pub vam_us: Micros,
    /// The highest rung of the escalation ladder this boot reached.
    pub rung: RecoveryRung,
    /// Damaged sectors rewritten in place from a surviving replica.
    pub scrubbed_sectors: u64,
    /// Permanently bad sectors remapped into the spare region.
    pub remapped_sectors: u64,
    /// Simulated time spent scavenging (rung 3 only).
    pub scavenge_us: Micros,
    /// What the scavenger found and lost (rung 3 only).
    pub scavenge: Option<ScavengeSummary>,
    /// The restart reserve the volume came up holding
    /// ([`FsdVolume::reserve`]): the run the boot page records, if it
    /// validates — after a crash, what the first allocation will be
    /// served from without the walk. When the saved map loaded and the
    /// page names none (or one the map disputes), the run picked from
    /// that map instead.
    pub reserve: Option<Run>,
}

impl RecoveryReport {
    /// Boot's share of recovery — the time to the first read. What it
    /// left owed is not in it: full recovery is this plus
    /// [`RedoSettle::us`] and [`VamWalk::us`] of what
    /// [`FsdVolume::settle_vam`] pays.
    pub fn total_us(&self) -> Micros {
        self.redo_us + self.vam_us + self.scavenge_us
    }
}

impl FsdVolume {
    /// Boots an FSD volume: reads the log and resumes it, its images
    /// booked for writeback, then loads the saved VAM or records that a
    /// name-table walk is owed — escalating to a replica scrub or a full
    /// scavenge when the media demands it. On undamaged media it writes
    /// nothing. The volume serves reads, opens and listings at once,
    /// through the log's images; the first write pays the new epoch
    /// ([`Self::redo_settle`]), the first operations that allocate or
    /// free work out of the restart reserve ([`RecoveryReport::reserve`]),
    /// and the walk waits for one of them to need more, for shutdown, or
    /// for [`Self::settle_vam`].
    pub fn boot(disk: SimDisk, config: FsdConfig) -> Result<(FsdVolume, RecoveryReport)> {
        Self::try_boot(disk, config).map_err(|(e, _)| e)
    }

    /// Like [`Self::boot`], but returns the disk alongside the error when
    /// recovery itself is interrupted (e.g. by a crash mid-redo) — the
    /// platters survive a power cycle, so the caller can boot again.
    // The Err variant intentionally hands the (large) SimDisk back to
    // the caller: the platters survive a power cycle mid-recovery.
    #[allow(clippy::result_large_err)]
    pub fn try_boot(
        mut disk: SimDisk,
        config: FsdConfig,
    ) -> std::result::Result<(FsdVolume, RecoveryReport), (FsdError, SimDisk)> {
        let layout = FsdLayout::compute(disk.geometry(), config.nt_pages, config.log_sectors);
        let cpu = Cpu::new(disk.clock(), config.cpu);
        let mut report = RecoveryReport::default();

        let (boot, spare, resumed) = match scan_phase(&mut disk, &layout, &cpu, &mut report) {
            Ok(x) => x,
            Err(e) if e.is_crash() => return Err((e, disk)),
            // Rung 3: the log chain (or a structure it needs) is
            // beyond replica repair — rebuild from leader pages.
            Err(e) => return scavenge::scavenge_boot(disk, config, report, e),
        };
        let vam_was_valid = boot.saved_vam == SavedVam::Valid;

        let mut vol = FsdVolume::assemble(disk, cpu, layout, boot, resumed.log, spare, &config);
        vol.cache.owed = resumed.owed;
        vol.leaders = resumed.leaders;
        (vol.epoch_owed, vol.redo_owed) = (true, true);

        match vol.finish_boot(vam_was_valid, &mut report) {
            Ok(()) => {
                report.scrubbed_sectors += vol.spare.scrubbed;
                report.remapped_sectors += vol.spare.remapped;
                if report.scrubbed_sectors + report.remapped_sectors > 0 {
                    report.rung = RecoveryRung::ReplicaScrub;
                }
                Ok((vol, report))
            }
            Err(e) if e.is_crash() => Err((e, vol.into_disk())),
            // Rung 3 from phase 2: the name-table root is beyond replica
            // repair.
            Err(e) => scavenge::scavenge_boot(vol.into_disk(), config, report, e),
        }
    }

    /// Phase 2: reattach the tree, then load the saved VAM or leave the
    /// walk owed. Writes nothing (a scrub of a damaged copy aside).
    fn finish_boot(&mut self, vam_was_valid: bool, report: &mut RecoveryReport) -> Result<()> {
        let raw = nt_store!(self)
            .read_through(0)
            .map_err(cedar_btree::BTreeError::Store)?;
        self.tree = BTree::open(NtMeta::decode_root(&raw).map_err(FsdError::Check)?);

        let t1 = self.clock().now();
        self.vam_owed = !vam_was_valid;
        if vam_was_valid {
            match read_saved_vam(&mut self.disk, &self.layout, &mut self.spare) {
                Ok(vam) => self.vam = vam,
                Err(e) if e.is_crash() => return Err(e),
                // §5.8, error class 4: "the VAM can have disk errors;
                // these are recovered by reconstructing the VAM."
                Err(_) => self.vam_owed = true,
            }
        }
        report.vam_reconstructed = self.vam_owed;
        // The record has passed `validate`; a map that loaded must agree.
        if !self.vam_owed {
            self.hold_reserve();
        }
        report.vam_us = self.clock().now() - t1;
        report.reserve = self.boot.reserve;
        Ok(())
    }

    /// Pays everything a boot leaves owed but the walk: writes home, in
    /// one sorted window, every image the log protects and the homes do
    /// not yet hold — what the resumed log owed and what this session
    /// logged — and then, if no write has paid it yet, the new epoch.
    /// `Some` with what it cost when it paid the epoch, `None` when that
    /// was paid before (the home writes, if the books were still owed,
    /// are then ordinary writeback, as at a third entry); idempotent, and
    /// a no-op on a volume no boot left anything owed. Shutdown, replica install and
    /// [`Self::settle_vam`] call it; recovery benchmarks call
    /// `settle_vam` straight after [`Self::boot`] to time the whole of
    /// crash recovery.
    ///
    /// A failure other than a crash (spare sectors exhausted under the
    /// home writes, boot pages unwritable) leaves what was owed owed —
    /// reads keep working through the log's images — and asks the next
    /// boot for a scavenge through the boot pages, as a failed walk does.
    pub fn settle_redo(&mut self) -> Result<Option<RedoSettle>> {
        let paid = self.pay_redo(false, true);
        self.note_failed_settle(paid)
    }

    /// What the first write after a boot pays before it changes anything:
    /// the new epoch, once — uids carry its boot count.
    pub(crate) fn settle_epoch(&mut self) -> Result<()> {
        let paid = self.pay_redo(false, false);
        self.note_failed_settle(paid).map(drop)
    }

    /// What an operation about to allocate or free needs of recovery:
    /// the new epoch, and — while the walk is owed — the reserve in the
    /// allocator's hands, its record off the boot page. An epoch paid
    /// here clears the record with its own write; one that something
    /// else paid earlier left it standing (nothing had touched the run,
    /// and a session that never allocates hands the reserve on to the
    /// next boot), so it is cleared now.
    ///
    /// What it writes is what [`Self::map_change_owes_writes`] names: the
    /// two change together.
    pub(crate) fn settle_for_map_change(&mut self) -> Result<()> {
        let paid = self.pay_redo(true, false);
        self.note_failed_settle(paid)?;
        if self.vam_owed {
            self.release_reserve()?;
        }
        Ok(())
    }

    /// Whether a map change has anything to write before it goes ahead:
    /// the new epoch, a remap the boot pages do not carry yet or the
    /// reserve's hand-over ([`Self::settle_for_map_change`]), or a boot
    /// page that calls the save area current. The first map change of a
    /// session pays them; later ones owe nothing, and skip the settle.
    pub(crate) fn map_change_owes_writes(&self) -> bool {
        self.epoch_owed
            || self.boot_page_owed
            || self.spare.is_dirty()
            || (self.vam_owed && self.boot.reserve.is_some())
    }

    /// The redo settle this session has paid, whoever triggered it.
    pub fn redo_settle(&self) -> Option<RedoSettle> {
        self.redo_settle
    }

    /// Pays everything recovery still owes: [`Self::settle_redo`], then
    /// the name-table walk — `Some` with what the walk cost, `None` when the
    /// map was already settled; idempotent.
    ///
    /// Until the walk has run, nothing may allocate outside what is known
    /// free — the reserve a crash boot found recorded, and whatever has
    /// been freed and committed since it was taken over. Create and
    /// extend call this when that cannot serve them in one run, and so do
    /// the VAM save at shutdown and the cache flusher, so no caller *has*
    /// to. The walk reads through the page cache, so name-table pages
    /// dirtied since boot are seen as they are in memory; sectors freed
    /// by deletes and truncates that have not committed stay shadow-held
    /// in the rebuilt map.
    ///
    /// A failure other than a crash leaves what failed owed and asks the
    /// next boot for a scavenge through the boot pages (once written the
    /// request stands until that boot); reads keep working in this
    /// session, but nothing it commits from here on — only operations
    /// that need no free map can — survives that scavenge.
    pub fn settle_vam(&mut self) -> Result<Option<VamWalk>> {
        self.settle_redo()?;
        let paid = self.pay_walk();
        self.note_failed_settle(paid)
    }

    /// Leaves the settle-failed note on the boot pages when `paid` is a
    /// failure other than a crash.
    fn note_failed_settle<T>(&mut self, paid: Result<T>) -> Result<T> {
        if let Err(e) = &paid {
            if !e.is_crash() && self.boot.saved_vam != SavedVam::SettleFailed {
                self.boot.saved_vam = SavedVam::SettleFailed;
                // Best effort: the caller gets the settle's error either
                // way, and if the note does not land the next session's
                // settle fails on the same sector and writes it again.
                let _ = self.write_boot_pages();
            }
        }
        paid
    }

    /// The walk this session has paid, whoever triggered it.
    pub fn vam_walk(&self) -> Option<VamWalk> {
        self.vam_walk
    }

    /// The settle itself: with `home`, everything logged and not yet
    /// home written home first (durable before the boot pages change),
    /// then the new epoch if it is owed. `hand_over`: the caller is about
    /// to change the free map, so while the walk is owed the reserve goes
    /// to the allocator and the new epoch's boot pages no longer name it.
    fn pay_redo(&mut self, hand_over: bool, home: bool) -> Result<Option<RedoSettle>> {
        let t0 = self.disk.clock().now();
        if home && self.redo_owed {
            // A failed write leaves the images owed: reads still lay them
            // over the homes, and the leader checks still find them.
            let cache = &self.cache;
            let books = (
                cache.owed.clone(),
                cache.freed.clone(),
                self.leaders.clone(),
            );
            let (writes, _) =
                collect_home_writes(&self.layout, &mut self.cache, &mut self.leaders, None)?;
            if let Err(e) = spare::write_home_batch(&mut self.disk, &mut self.spare, writes) {
                (self.cache.owed, self.cache.freed, self.leaders) = books;
                return Err(e);
            }
            self.redo_owed = false;
        }
        if !self.epoch_owed {
            // The epoch's write would have carried a remap the home
            // writes made.
            if self.spare.take_dirty() {
                self.write_boot_pages()?;
            }
            return Ok(None);
        }
        let t_home = self.disk.clock().now();
        // New epoch: bump the boot count, clear the VAM flag on disk and
        // record any sectors the home writes remapped. The log goes on
        // as it was: its records carry their own count.
        let old_epoch = self.boot.clone();
        self.boot.boot_count += 1;
        // A settle that failed before the epoch left its note: it stands.
        if self.boot.saved_vam != SavedVam::SettleFailed {
            self.boot.saved_vam = SavedVam::Invalid;
        }
        let handed_over = if hand_over && self.vam_owed {
            self.boot.reserve.take()
        } else {
            None
        };
        if let Err(e) = self.write_boot_pages() {
            self.boot = old_epoch;
            return Err(e);
        }
        self.boot_page_owed = false;
        // Durably unrecorded: only now is the run free in the map.
        if let Some(run) = handed_over {
            self.vam.free_run(run);
        }
        self.epoch_owed = false;
        let settle = RedoSettle {
            home_us: t_home - t0,
            epoch_us: self.disk.clock().now() - t_home,
        };
        self.redo_settle = Some(settle);
        Ok(Some(settle))
    }

    fn pay_walk(&mut self) -> Result<Option<VamWalk>> {
        if !self.vam_owed {
            return Ok(None);
        }
        let known_free = self.vam.clone();
        let walk = self.reconstruct_vam()?;
        // Deletes and truncates since the reserve was handed over may not
        // have committed yet; the tree the walk read no longer has them.
        self.vam.carry_shadow_from(&known_free);
        self.vam_owed = false;
        self.vam_walk = Some(walk);
        self.hold_reserve();
        Ok(Some(walk))
    }

    /// Rebuilds the VAM by walking the name table: everything in the data
    /// area is free except the pages the entries claim (§5.5).
    ///
    /// The tree walk is serial — it owns the spindle — and the entry
    /// decoding shards across [`FsdConfig::scavenge_workers`] simulated
    /// CPUs ([`Cpu::sharded`]); the runs are then allocated in tree order.
    fn reconstruct_vam(&mut self) -> Result<VamWalk> {
        let t_start = self.clock().now();
        let t_prefetched;
        let mut vam = self.layout.empty_vam();
        let mut entries: Vec<Vec<u8>> = Vec::new();
        let tree = self.tree;
        {
            let mut store = nt_store!(self);
            // Batch-read the whole allocated table up front: the walk
            // then runs from the cache instead of paying two seek+rotate
            // round trips per page.
            let meta = store.read_meta().map_err(cedar_btree::BTreeError::Store)?;
            let in_use: Vec<u32> = (0..self.layout.nt_pages)
                .filter(|&p| meta.in_use(p))
                .collect();
            store
                .prefetch_pages(&in_use)
                .map_err(cedar_btree::BTreeError::Store)?;
            t_prefetched = store.disk.clock().now();
            tree.for_each(&mut store, &mut |_, v| {
                entries.push(v.to_vec());
                true
            })?;
        }
        let files = entries.len() as u64;
        let decoded = self
            .cpu
            .sharded(self.scavenge_workers, entries.len(), |range, wcpu| {
                wcpu.entries(range.len() as u64);
                entries[range]
                    .iter()
                    .map(|raw| crate::entry::FileEntry::decode(raw))
                    .collect::<Vec<_>>()
            });
        for entry in decoded.into_iter().flatten() {
            let entry = entry?;
            if entry.leader_addr != 0 {
                vam.allocate_run(Run::new(entry.leader_addr, 1));
            }
            for r in entry.run_table.runs() {
                vam.allocate_run(*r);
            }
        }
        self.vam = vam;
        Ok(VamWalk {
            files_scanned: files,
            prefetch_us: t_prefetched - t_start,
            walk_us: self.clock().now() - t_prefetched,
        })
    }
}

/// Phase 1: read the boot page and the log, resume the log, and book its
/// images by home sector. Reads only — the books are written home by the
/// third entries to come, or by [`FsdVolume::settle_redo`].
fn scan_phase(
    disk: &mut SimDisk,
    layout: &FsdLayout,
    cpu: &Cpu,
    report: &mut RecoveryReport,
) -> Result<(FsdBootPage, SpareMap, Resumed)> {
    let t0 = disk.clock().now();

    // Boot page: copy A, falling back to copy B (§5.8, error class 5),
    // scrubbing a damaged copy back from the survivor. The remap table
    // lives here, so it is available before any other structure is read.
    let mut boot = read_boot_page(disk, layout, report)?;
    boot.validate(layout);
    if boot.saved_vam == SavedVam::SettleFailed {
        // The last session could not finish recovery for a reason other
        // than a crash and left this note: no point replaying a log into
        // a table that cannot be swept or walked — escalate to rung 3.
        return Err(FsdError::Check(
            "the last session could not settle (log redo or the VAM walk failed): \
             name table beyond replica repair"
                .into(),
        ));
    }
    let mut spare = SpareMap::with_entries(layout, &boot.spare_map);

    // Read the chain from the replicated meta pointer and keep the final
    // image of every touched sector in memory (records are in sequence
    // order, so the last image of a sector wins), tagged with the third
    // of the record that holds it: the third whose entry writes it home.
    let meta = Log::read_meta(disk, &mut spare, layout.log_start)?;
    let mut records = log::scan_records(disk, layout.log_start, layout.log_sectors, &spare, &meta)?;
    let log = Log::resume(layout.log_start, layout.log_sectors, &meta, &records)?;
    let mut owed = OwedImages::new();
    // Newest image of every leader: the image, its third, its group.
    let mut leader_images: BTreeMap<SectorAddr, (Vec<u8>, u8, usize)> = BTreeMap::new();
    // The runs each accepted group lists as handed to new owners, oldest
    // group first, and what the group being read has listed so far.
    let mut lists: Vec<Vec<Run>> = Vec::new();
    let mut listed = Vec::new();
    for rec in &mut records {
        rec.validate(layout)?;
        let (third, group) = (log.third_of(rec.offset), lists.len());
        for (target, img) in &rec.images {
            // Targets are four bytes off a log sector whose checksum
            // covers transmission damage, not a hostile image: an
            // impossible page/address must escalate to the scavenger
            // rather than panic in address math or write outside the
            // region the record claims (§5.8, error class 2).
            target.validate(layout)?;
            for home in target.homes(layout) {
                if let PageTarget::Leader { .. } = target {
                    leader_images.insert(home, (img.clone(), third, group));
                } else {
                    owed.insert(home, (img.clone(), third));
                }
            }
            report.images_redone += 1;
        }
        cpu.sectors(rec.images.len() as u64);
        listed.append(&mut rec.reallocated);
        if rec.group_end {
            lists.push(std::mem::take(&mut listed));
        }
    }
    let leaders = book_leaders(leader_images, &lists, &mut report.leaders);
    report.records_replayed = records.len() as u64;
    report.redo_us = disk.clock().now() - t0;
    Ok((boot, spare, Resumed { log, owed, leaders }))
}

/// Books the log's leader images for writeback, each logged in the third
/// of its newest record, and says what it did with each. It reads no
/// home.
///
/// A leader's sector may have been handed to another file after its
/// image was logged — as the new file's leader or as one of its data
/// pages, which are written synchronously and never logged — and then
/// the image must not go home. The running volume drops such a staged
/// image the moment it reallocates the sector, and every commit group
/// lists the runs it reallocated in its end pages. So an image is kept
/// unless a *strictly later* group lists its sector, when it is left
/// out: an image logged in the same group as the reallocation is the new
/// owner's. A group lists a run only once the new owner has written over
/// the old leader — a create writes its leader and data before anything
/// can force, and an extend zeroes a sector it takes while a leader
/// image is owed there — so a home left out holds no stale live leader.
/// A sector reallocated by an operation whose group never committed is
/// free again after recovery, and the image may go over it. What is kept
/// is the running volume's from here on: an allocation over it cancels
/// it ([`FsdVolume`]'s `cancel_stale_leaders`) and lists the run, as for
/// any leader it logged itself.
fn book_leaders(
    images: BTreeMap<SectorAddr, (Vec<u8>, u8, usize)>,
    lists: &[Vec<Run>],
    pass: &mut LeaderPass,
) -> BTreeMap<SectorAddr, LeaderState> {
    let mut books = BTreeMap::new();
    for (addr, (img, third, group)) in images {
        let later = &lists[group + 1..];
        if later.iter().flatten().any(|run| run.contains(addr)) {
            pass.reallocated += 1;
        } else {
            pass.kept += 1;
            books.insert(addr, LeaderState::logged(img, third));
        }
    }
    books
}

/// Reads the boot page. It is read before the remap table exists — the
/// table is *on* it — and its sectors are not remappable, so it goes
/// through the pair reader with a disabled map: replication is its only
/// defence, and a scrub rewrite that fails too is dropped.
fn read_boot_page(
    disk: &mut SimDisk,
    layout: &FsdLayout,
    report: &mut RecoveryReport,
) -> Result<FsdBootPage> {
    let mut unmapped = SpareMap::disabled();
    let (boot, _) =
        spare::read_replicated(disk, &mut unmapped, layout.boot_pair(), None, |bytes| {
            FsdBootPage::decode(bytes).ok()
        })?;
    report.scrubbed_sectors += unmapped.scrubbed;
    Ok(boot)
}

/// Reads the saved VAM: a whole clean copy if one validates, otherwise
/// the readable sectors of both spliced (both copies are written from one
/// image in one window, so any mix that passes the checksum is that
/// committed image). A scrub that cannot stick leaves the damage in
/// place: the map is in hand, and the caller can still rebuild it if the
/// save area worsens.
fn read_saved_vam(disk: &mut SimDisk, layout: &FsdLayout, spare: &mut SpareMap) -> Result<Vam> {
    let (vam, _) = spare::read_replicated(disk, spare, layout.vam_pair(), None, |bytes| {
        Vam::from_bytes(bytes).ok()
    })?;
    Ok(vam)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::leader::LeaderPage;
    use cedar_disk::{CpuModel, CrashPlan, DiskStats, SimClock};
    use proptest::prelude::*;

    fn t300_config(workers: usize) -> FsdConfig {
        FsdConfig {
            scavenge_workers: workers,
            ..FsdConfig::default()
        }
    }

    /// A T-300 with 257 committed files, 43 committed deletes and ten
    /// creates the crash loses.
    fn crashed_t300() -> SimDisk {
        let disk = SimDisk::trident_t300(SimClock::new());
        let mut v = FsdVolume::format(disk, t300_config(1)).unwrap();
        for i in 0..300usize {
            v.create(&format!("pin/f{i:03}"), &vec![i as u8; 1 + (i * 37) % 5000])
                .unwrap();
        }
        for i in (0..300usize).step_by(7) {
            v.delete(&format!("pin/f{i:03}"), None).unwrap();
        }
        v.force().unwrap();
        for i in 0..10usize {
            v.create(&format!("pin/late{i}"), &[7u8; 900]).unwrap();
        }
        let mut d = v.into_disk();
        d.crash_now();
        d.reboot();
        d
    }

    /// The free map rebuilt the slow, obvious way from a full listing.
    fn reference_vam(v: &mut FsdVolume) -> Vam {
        let mut vam = v.layout.empty_vam();
        for (_, entry) in v.list("").unwrap() {
            if entry.leader_addr != 0 {
                vam.allocate_run(Run::new(entry.leader_addr, 1));
            }
            for r in entry.run_table.runs() {
                vam.allocate_run(*r);
            }
        }
        vam
    }

    /// `boot` + `settle_vam` over one exact disk, pinned to the
    /// microsecond: clock, report and `DiskStats`. The constants are this
    /// tree's own. Boot scans 18 records holding 233 images and books all
    /// 43 logged leaders — tombstones of the committed deletes; no
    /// committed group reallocated their sectors — and reads no home to
    /// decide it. `settle_vam` then writes everything the log protects
    /// home in one sorted window, pays the new epoch (the boot pages
    /// alone: the log is resumed, not made fresh, so no log meta is
    /// written) and the walk. What the test was
    /// written for holds: everything boot defers is paid by `settle_vam`,
    /// phase by phase, and recovery appends nothing.
    #[test]
    fn boot_then_settle_is_the_eager_boot_to_the_microsecond() {
        const BOOTED_AT: Micros = 8_231_952;
        const SCAN_US: Micros = 345_366;
        const SETTLE: RedoSettle = RedoSettle {
            home_us: 225_132,
            epoch_us: 16_644,
        };
        const EAGER_DISK: DiskStats = DiskStats {
            reads: 20,
            writes: 47,
            label_ops: 0,
            sectors_read: 714,
            sectors_written: 185,
            seeks: 7,
            short_seeks: 6,
            seek_us: 164_800,
            rotation_us: 128_870,
            transfer_us: 393_762,
            lost_revolutions: 3,
            lost_rev_us: 44_322,
            transient_retries: 0,
            media_faults: 0,
        };
        // (workers, the walk, clock when everything is settled)
        for (workers, eager_vam_us, eager_done_at) in
            [(1, 414_264, 9_270_186), (8, 212_664, 9_068_586)]
        {
            let disk = crashed_t300();
            assert_eq!(disk.clock().now(), BOOTED_AT);
            let before = disk.stats();
            let (mut v, report) = FsdVolume::boot(disk, t300_config(workers)).unwrap();

            assert_eq!((report.records_replayed, report.images_redone), (18, 233));
            let leaders = LeaderPass {
                kept: 43,
                reallocated: 0,
            };
            assert_eq!(report.leaders, leaders);
            assert_eq!(report.redo_us, SCAN_US);
            assert_eq!(v.redo_settle(), None, "the write half of redo is owed");
            assert_eq!(v.disk_stats().since(&before).writes, 0, "boot only reads");
            assert!(report.vam_reconstructed, "the walk is owed");
            assert_eq!((report.files_scanned, report.vam_us), (0, 0));
            assert_eq!(v.free_sectors(), 0, "all-allocated until the walk");
            assert_eq!(v.vam_walk(), None);
            let first_read_at = v.clock().now();
            assert!(first_read_at < BOOTED_AT + 1_400_000);

            let walk = v.settle_vam().unwrap().expect("owed");
            let settle = v.redo_settle().expect("paid ahead of the walk");
            assert_eq!(settle, SETTLE);
            assert!(settle.home_us > 0 && settle.epoch_us > 0);
            assert_eq!(walk.files_scanned, 257);
            assert_eq!(walk.us(), eager_vam_us);
            assert_eq!(
                v.clock().now() - first_read_at,
                settle.us() + walk.us(),
                "the home writes, the epoch and the walk are the whole of the settle"
            );
            assert!(walk.prefetch_us > 0 && walk.walk_us > 0);
            assert_eq!(v.clock().now(), eager_done_at);
            assert_eq!(v.disk_stats().since(&before), EAGER_DISK);
            assert_eq!(v.free_sectors(), 575_933);
            assert_eq!(v.vam_walk(), Some(walk));

            // Idempotent: nothing more is owed, nothing more is paid.
            assert_eq!(v.settle_vam().unwrap(), None);
            assert_eq!(v.settle_redo().unwrap(), None);
            assert_eq!(v.redo_settle(), Some(settle));
            assert_eq!(v.clock().now(), eager_done_at);
            let reference = reference_vam(&mut v);
            assert_eq!(v.vam, reference);
        }
    }

    /// The runs each group of a crashed disk's chain lists, oldest
    /// group first.
    fn lists_of(disk: &mut SimDisk, config: FsdConfig) -> Result<Vec<Vec<Run>>> {
        let layout = FsdLayout::compute(disk.geometry(), config.nt_pages, config.log_sectors);
        let mut spare = SpareMap::for_layout(&layout);
        let meta = Log::read_meta(disk, &mut spare, layout.log_start)?;
        let (start, sectors) = (layout.log_start, layout.log_sectors);
        let records = log::scan_records(disk, start, sectors, &spare, &meta)?;
        let (mut lists, mut listed) = (Vec::new(), Vec::new());
        for mut rec in records {
            listed.append(&mut rec.reallocated);
            if rec.group_end {
                lists.push(std::mem::take(&mut listed));
            }
        }
        Ok(lists)
    }

    /// Boot decides every logged leader image from the lists — it writes
    /// nothing and reads no home — and books each one it keeps as logged,
    /// nothing staged behind it.
    #[test]
    fn boot_books_the_leaders_from_the_lists_alone() {
        let disk = crashed_t300();
        let before = disk.stats();
        let (v, report) = FsdVolume::boot(disk, t300_config(1)).unwrap();
        let boot = v.disk_stats().since(&before);
        assert_eq!(boot.sectors_written, 0);
        let pass = report.leaders;
        assert!(pass.kept > 20, "a pass worth checking");
        assert_eq!(pass.kept, v.leaders.len() as u64);
        for (addr, state) in &v.leaders {
            let (image, third) = state.logged.as_ref().expect("booked as logged");
            assert!(state.unlogged.is_none() && *third < 3, "{addr}");
            let leader = LeaderPage::decode(image).expect("a leader image");
            assert!(
                leader.deleted,
                "{addr}: the crash kept only deletes' leaders"
            );
        }
    }

    /// A log whose end pages carry no lists — as a volume wrote it before
    /// there were any — does not scan, and boot escalates to rung 3: the
    /// scavenger rebuilds a tree that verifies. It never boots as a log
    /// with its records dropped.
    #[test]
    fn a_log_without_lists_boots_at_rung_three() {
        let mut disk = crashed_t300();
        let config = t300_config(1);
        let layout = FsdLayout::compute(disk.geometry(), config.nt_pages, config.log_sectors);
        log::strip_lists(&mut disk, layout.log_start, layout.log_sectors);
        let err = lists_of(&mut disk.clone(), config).unwrap_err();
        assert!(err.to_string().contains("reallocation list"), "{err}");
        let (mut v, report) = FsdVolume::boot(disk, config).unwrap();
        assert_eq!(report.rung, RecoveryRung::Scavenge);
        assert_eq!(report.records_replayed, 0);
        v.verify().unwrap();
    }

    /// A group that hands out more runs than the records its images need
    /// can list takes one record more: the list is split, never dropped.
    /// With one run fewer the same script fits one record. Either way
    /// every group lists everything it handed out, the leader pass reads
    /// nothing, and the leader the crowded group's first create wrote over
    /// is left out.
    #[test]
    fn a_group_whose_list_overflows_one_record_takes_another() {
        let config = FsdConfig {
            nt_pages: 24,
            log_sectors: 300,
            ..FsdConfig::default()
        };
        for (files, records) in [(log::LISTED_RUNS_MAX + 1, 2), (log::LISTED_RUNS_MAX, 1)] {
            let mut v = FsdVolume::format(SimDisk::tiny(), config).unwrap();
            v.set_commit_interval(Micros::MAX);
            for name in ["o/a", "o/b", "o/c"] {
                v.create(name, &[3u8; 1000]).unwrap();
            }
            v.force().unwrap();
            let mut a = v.open("o/a", None).unwrap();
            v.truncate(&mut a, 1).unwrap();
            let freed = v.open("o/b", None).unwrap().entry.leader_addr;
            v.delete("o/b", None).unwrap();
            v.force().unwrap();
            // What is left of o/a ends where its freed page and o/b's
            // sectors begin: reading it makes them the nearest free run.
            v.read_file(&mut a).unwrap();
            // One run a create, the first over o/b's old leader.
            for i in 0..files {
                let f = v
                    .create(&format!("o/many/{i:02}"), &[i as u8; 300])
                    .unwrap();
                let run = Run::new(f.entry.leader_addr, 2);
                assert!(i > 0 || run.contains(freed), "{run:?} {freed}");
            }
            let before = v.commit_stats();
            v.force().unwrap();
            let after = v.commit_stats();
            let images = after.images_logged - before.images_logged;
            assert!(images <= v.log.max_images() as u64, "one record's images");
            assert_eq!(after.records - before.records, records, "{files} runs");
            let mut c = v.open("o/c", None).unwrap();
            v.truncate(&mut c, 1).unwrap();
            v.force().unwrap();
            let mut disk = v.into_disk();
            disk.crash_now();
            disk.reboot();

            let lists = lists_of(&mut disk.clone(), config).unwrap();
            let listed: Vec<usize> = lists.iter().map(Vec::len).collect();
            assert_eq!(listed[listed.len() - 2..], [files, 0], "{files} runs");
            let (mut v, report) = FsdVolume::boot(disk, config).unwrap();
            let before = v.disk_stats();
            v.settle_redo().unwrap().unwrap();
            assert_eq!(v.disk_stats().since(&before).reads, 0, "{files} runs");
            let want = LeaderPass {
                kept: 2,
                reallocated: 1,
            };
            assert_eq!(report.leaders, want, "{files} runs");
            v.settle_vam().unwrap();
            v.verify().unwrap();
            for name in ["o/a", "o/c", "o/many/00"] {
                let mut f = v.open(name, None).unwrap();
                v.read_file(&mut f)
                    .unwrap_or_else(|e| panic!("{files} runs: {name}: {e}"));
            }
        }
    }

    /// More runs than a group has images to carry them: one file extended
    /// by a page and truncated back, over and over, between two forces,
    /// logs a handful of images but hands out a run each time. The force
    /// cuts as many records as the list needs, logging its first image
    /// again in the ones the others cannot fill, and the group still
    /// lists every run.
    #[test]
    fn a_list_longer_than_its_images_can_carry_logs_an_image_again() {
        const CYCLES: usize = 3 * log::LISTED_RUNS_MAX + 1;
        let config = FsdConfig {
            nt_pages: 24,
            log_sectors: 300,
            ..FsdConfig::default()
        };
        let mut v = FsdVolume::format(SimDisk::tiny(), config).unwrap();
        v.set_commit_interval(Micros::MAX);
        v.create("f", &[1u8; 600]).unwrap();
        v.force().unwrap();
        let mut f = v.open("f", None).unwrap();
        for _ in 0..CYCLES {
            v.extend(&mut f, 1).unwrap();
            v.truncate(&mut f, 0).unwrap();
        }
        let before = v.commit_stats();
        let images = v.pending_meta_images() as u64;
        v.force().unwrap();
        let after = v.commit_stats();
        assert!(images < 4, "{images} images pending");
        assert_eq!(after.records - before.records, 4);
        assert_eq!(
            after.images_logged - before.images_logged,
            4,
            "one a record"
        );
        let mut disk = v.into_disk();
        disk.crash_now();
        disk.reboot();

        let lists = lists_of(&mut disk.clone(), config).unwrap();
        assert_eq!(lists.last().map(Vec::len), Some(CYCLES));
        let (mut v, report) = FsdVolume::boot(disk, config).unwrap();
        assert_eq!(report.rung, RecoveryRung::Redo);
        v.settle_vam().unwrap();
        v.verify().unwrap();
        let mut f = v.open("f", None).unwrap();
        assert_eq!(f.pages(), 0);
        assert!(v.read_file(&mut f).unwrap().is_empty());
    }

    #[derive(Clone, Debug)]
    enum Op {
        Create(u8, u16),
        Delete(u8),
        Extend(u8, u8),
        Truncate(u8, u8),
        Force,
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            4 => (0u8..12, 0u16..4000).prop_map(|(n, len)| Op::Create(n, len)),
            2 => (0u8..12).prop_map(Op::Delete),
            2 => (0u8..12, 1u8..6).prop_map(|(n, p)| Op::Extend(n, p)),
            2 => (0u8..12, 0u8..4).prop_map(|(n, p)| Op::Truncate(n, p)),
            1 => Just(Op::Force),
        ]
    }

    fn tiny_config(workers: usize) -> FsdConfig {
        FsdConfig {
            nt_pages: 24,
            log_sectors: 160,
            cpu: CpuModel::DORADO,
            scavenge_workers: workers,
        }
    }

    fn apply(v: &mut FsdVolume, op: &Op) -> Result<()> {
        let name = |n: &u8| format!("file{n:02}");
        let tolerated = |r: Result<()>| match r {
            Err(FsdError::NotFound(_) | FsdError::NoSpace) => Ok(()),
            other => other,
        };
        match op {
            Op::Create(n, len) => {
                tolerated(v.create(&name(n), &vec![*n; usize::from(*len)]).map(|_| ()))
            }
            Op::Delete(n) => tolerated(v.delete(&name(n), None)),
            Op::Extend(n, pages) => tolerated(
                v.open(&name(n), None)
                    .and_then(|mut f| v.extend(&mut f, u32::from(*pages))),
            ),
            Op::Truncate(n, pages) => tolerated(v.open(&name(n), None).and_then(|mut f| {
                let keep = f.pages().min(u32::from(*pages));
                v.truncate(&mut f, keep)
            })),
            Op::Force => v.force(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        // Any script, any crash point, one worker or eight: boot owes
        // the walk and does none of it; `settle_vam` pays exactly once,
        // for exactly what it reports; and the map it leaves is the
        // serial reference's, bit for bit.
        #[test]
        fn deferred_walk_rebuilds_the_reference_vam(
            ops in proptest::collection::vec(arb_op(), 1..40),
            crash_after in 0u64..250,
        ) {
            let mut v = FsdVolume::format(SimDisk::tiny(), tiny_config(1)).unwrap();
            v.disk_mut().schedule_crash(CrashPlan {
                after_sector_writes: crash_after,
                damaged_tail: (crash_after % 3) as u8,
            });
            for op in &ops {
                if let Err(e) = apply(&mut v, op) {
                    prop_assert!(e.is_crash(), "non-crash failure: {e}");
                    break;
                }
            }
            let mut crashed = v.into_disk();
            crashed.crash_now();
            crashed.reboot();

            let mut maps: Vec<Vam> = Vec::new();
            for workers in [1usize, 8] {
                let disk = crashed.clone();
                let (mut v, report) = FsdVolume::boot(disk, tiny_config(workers)).unwrap();
                let owed = report.vam_reconstructed;
                prop_assert_eq!(report.files_scanned, 0);
                prop_assert_eq!(v.redo_settle(), None);
                if owed {
                    prop_assert_eq!(report.vam_us, 0);
                    prop_assert_eq!(v.free_sectors(), 0);
                }
                let t0 = v.clock().now();
                let walk = v.settle_vam().unwrap();
                let settle = v.redo_settle().expect("every boot owes the settle");
                prop_assert_eq!(
                    settle.home_us + settle.epoch_us,
                    settle.us()
                );
                prop_assert_eq!(walk.is_some(), owed);
                prop_assert_eq!(
                    v.clock().now() - t0,
                    settle.us() + walk.map_or(0, |w| w.us())
                );
                prop_assert_eq!(v.vam_walk(), walk);
                let t1 = v.clock().now();
                prop_assert_eq!(v.settle_vam().unwrap(), None);
                prop_assert_eq!(v.clock().now(), t1);
                let reference = reference_vam(&mut v);
                prop_assert_eq!(&v.vam, &reference);
                maps.push(reference);
            }
            prop_assert_eq!(&maps[0], &maps[1]);
        }
    }
}
