//! The scavenger: last-rung recovery from leader pages alone.
//!
//! CFS "depended on the label check to catch errors" and could rebuild
//! its metadata from the per-sector hardware labels — at the cost of an
//! hour-long scan (§2, Table 2). FSD dropped the labels, so when *both*
//! the log and its replicated anchors are beyond repair there is nothing
//! for redo recovery to work with. The extended leader pages
//! ([`crate::leader`]) restore the CFS property in software: each one
//! carries the file's name key and full name-table entry under a
//! checksum, so a sweep of the data areas can rebuild the name table and
//! the free map from scratch.
//!
//! The scavenger is deliberately conservative:
//!
//! * a sector only counts as a leader if it decodes, its payload
//!   checksum holds, its embedded entry points back at the sector it was
//!   read from, and every run lies inside the data areas;
//! * delete tombstones are honoured — a deleted file whose tombstone
//!   reached the disk is not resurrected;
//! * when two leaders claim the same name or the same sectors, the
//!   higher uid (the later write) wins and the loss is reported;
//! * everything it cannot prove is reported in [`ScavengeSummary`], not
//!   silently dropped.
//!
//! Known, reported losses: symbolic links (no leader page), entries
//! whose leader home write had not happened by the crash (recovered at
//! their previous state), and files whose leader sector itself died.

use crate::cache::NtMeta;
use crate::entry::FileEntry;
use crate::layout::{FsdBootPage, FsdLayout, SavedVam};
use crate::leader::LeaderPage;
use crate::log::Log;
use crate::recovery::{RecoveryReport, RecoveryRung};
use crate::spare::SpareMap;
use crate::volume::{nt_store, FsdConfig, FsdVolume, MAX_RUNS};
use crate::{FsdError, Result};
use cedar_btree::BTree;
use cedar_disk::scan::{self, ScanChunk};
use cedar_disk::{Cpu, DiskError, SectorAddr, SimDisk, SECTOR_BYTES};
use cedar_vol::{FileName, Run, Vam};
use std::collections::{BTreeMap, HashSet};

/// What a scavenge found, rebuilt, and lost.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScavengeSummary {
    /// The redo-recovery error that forced the escalation.
    pub cause: String,
    /// Valid leader pages found in the data areas (live + tombstones).
    pub leaders_found: u64,
    /// Live files rebuilt into the fresh name table.
    pub files_rebuilt: u64,
    /// Delete tombstones honoured (files *not* resurrected).
    pub tombstones: u64,
    /// Data-area sectors that could not be read at all.
    pub unreadable_sectors: u64,
    /// Files dropped, with the reason (stale duplicate, overlapping
    /// claims, undecodable payload).
    pub losses: Vec<String>,
}

/// Rung 3 of recovery: rebuilds the volume from leader pages after
/// `cause` stopped the redo path. Consumes the disk like
/// [`FsdVolume::try_boot`] and extends its `report`.
#[allow(clippy::result_large_err)]
pub(crate) fn scavenge_boot(
    mut disk: SimDisk,
    config: FsdConfig,
    mut report: RecoveryReport,
    cause: FsdError,
) -> std::result::Result<(FsdVolume, RecoveryReport), (FsdError, SimDisk)> {
    let t0 = disk.clock().now();
    let layout = FsdLayout::compute(disk.geometry(), config.nt_pages, config.log_sectors);
    let cpu = Cpu::new(disk.clock(), config.cpu);

    // Best-effort boot-page read: the old boot count (so new uids stay
    // above every recovered one) and the remap table. Both have safe
    // fallbacks — uids also carry their epoch, and a lost remap table
    // only costs the remapped sectors, which the scan reports.
    let (old_boot_count, spare_entries) = match old_boot_hint(&mut disk, &layout) {
        Ok(x) => x,
        Err(e) => return Err((e, disk)),
    };
    let spare = SpareMap::with_entries(&layout, &spare_entries);

    let mut summary = ScavengeSummary {
        cause: cause.to_string(),
        ..Default::default()
    };
    // By name key: the stable sort by uid below then breaks ties the same
    // way every run.
    let mut found: BTreeMap<Vec<u8>, LeaderPage> = BTreeMap::new();
    if let Err(e) = scan_leaders(
        &mut disk,
        &cpu,
        &layout,
        config.scavenge_workers,
        &mut summary,
        &mut found,
    ) {
        return Err((e, disk));
    }

    // Dedup overlapping claims, newest (highest uid) first, honouring
    // tombstones; collect the files to rebuild and the epoch floor.
    let mut kept: Vec<LeaderPage> = found.into_values().collect();
    kept.sort_by_key(|l| std::cmp::Reverse(l.uid));
    let mut max_epoch = 0u32;
    let mut claimed: HashSet<SectorAddr> = HashSet::new();
    let mut files: Vec<(FileName, FileEntry)> = Vec::new();
    for l in kept {
        max_epoch = max_epoch.max((l.uid >> 32) as u32);
        if l.deleted {
            summary.tombstones += 1;
            continue;
        }
        let Ok(entry) = l.entry() else {
            summary
                .losses
                .push(format!("uid {}: undecodable leader payload", l.uid));
            continue;
        };
        let Ok(name) = l.file_name() else {
            summary
                .losses
                .push(format!("uid {}: undecodable leader name", l.uid));
            continue;
        };
        // The entry is a decoded disk payload: wild runs would balloon
        // the claimed-sector set and panic the VAM rebuild below.
        if !runs_sane(&layout, &entry) {
            summary.losses.push(format!(
                "{name}: entry claims sectors outside the data areas"
            ));
            continue;
        }
        let mut sectors: Vec<SectorAddr> = vec![entry.leader_addr];
        for r in entry.run_table.runs() {
            sectors.extend(r.start..r.end());
        }
        if sectors.iter().any(|s| claimed.contains(s)) {
            summary
                .losses
                .push(format!("{name}: sectors overlap a newer file"));
            continue;
        }
        claimed.extend(sectors);
        files.push((name, entry));
    }
    summary.files_rebuilt = files.len() as u64;
    let boot_count = old_boot_count.max(max_epoch) + 1;

    // Free map: everything in the data areas except what the recovered
    // files claim (the same §5.5 rule as a VAM rebuild).
    let mut vam = layout.empty_vam();
    for (_, entry) in &files {
        vam.allocate_run(Run::new(entry.leader_addr, 1));
        for r in entry.run_table.runs() {
            vam.allocate_run(*r);
        }
    }

    // A fresh volume over the scavenged state: the skeleton `format`
    // starts from, with the recovered VAM and entries.
    let log = match Log::fresh(layout.log_start, layout.log_sectors, boot_count) {
        Ok(log) => log,
        Err(e) => return Err((e, disk)),
    };
    let boot = FsdBootPage {
        boot_count,
        saved_vam: SavedVam::Invalid,
        spare_map: spare.entries().to_vec(),
        reserve: None,
    };
    let mut vol = FsdVolume::assemble(disk, cpu, layout, boot, log, spare, &config);
    vol.vam = vam;

    match rebuild(&mut vol, config, &files) {
        Ok(()) => {
            report.rung = RecoveryRung::Scavenge;
            report.scrubbed_sectors += vol.spare.scrubbed;
            report.remapped_sectors += vol.spare.remapped;
            report.scavenge_us = vol.clock().now() - t0;
            report.scavenge = Some(summary);
            report.reserve = vol.boot.reserve;
            Ok((vol, report))
        }
        Err(e) => Err((e, vol.into_disk())),
    }
}

/// Tracks per striding window. The scan plans its reads window by
/// window so the run tables of leaders merged *two* windows back can
/// stride the reader past file-interior sectors (see
/// [`window_ranges`]); eight tracks keeps the windows large enough for
/// the scheduler to work with while the pipeline stays two windows deep.
const TRACKS_PER_WINDOW: u32 = 8;

/// The decode output for one [`ScanChunk`]: leaders that prove they
/// belong at the sector they were read from, in sector order.
struct ChunkResult {
    scanned: u64,
    unreadable: u64,
    candidates: Vec<LeaderPage>,
}

/// Pure per-chunk decode/verify: the worker stage of the pipeline.
/// Address-local checks only (decode, checksum, self-pointing entry,
/// sane runs) — cross-file rules (duplicates, overlaps) need global
/// state and stay in the merge.
fn decode_chunk(layout: &FsdLayout, chunk: &ScanChunk) -> ChunkResult {
    let mut out = ChunkResult {
        scanned: chunk.sectors() as u64,
        unreadable: 0,
        candidates: Vec::new(),
    };
    for i in 0..chunk.sectors() {
        if chunk.damaged[i] {
            out.unreadable += 1;
            continue;
        }
        let sector = &chunk.bytes[i * SECTOR_BYTES..(i + 1) * SECTOR_BYTES];
        let Ok(leader) = LeaderPage::decode(sector) else {
            continue;
        };
        let Ok(entry) = leader.entry() else {
            continue;
        };
        // A logged or copied leader image elsewhere on disk points at
        // its true home, not at the sector it was read from.
        if entry.leader_addr == chunk.start + i as u32 && runs_sane(layout, &entry) {
            out.candidates.push(leader);
        }
    }
    out
}

/// Splits both data areas into striding windows of whole tracks.
fn build_windows(layout: &FsdLayout, window_sectors: u32) -> Vec<(SectorAddr, SectorAddr)> {
    let mut windows = Vec::new();
    for (lo, hi) in layout.data_areas() {
        let mut at = lo;
        while at < hi {
            let end = (at + window_sectors).min(hi);
            windows.push((at, end));
            at = end;
        }
    }
    windows
}

/// Read ranges for one window, striding past sectors the `skip` map
/// marks (a [`Vam`] reused as a bitmap: free ⇒ skip). Ranges are capped
/// at a track so chunks stay worker-sized.
fn window_ranges(
    skip: &Vam,
    lo: SectorAddr,
    hi: SectorAddr,
    max_len: u32,
) -> Vec<(SectorAddr, usize)> {
    let mut ranges = Vec::new();
    let mut at = lo;
    while let Some(start) = skip.next_addr(false, at, hi) {
        let cap = hi.min(start.saturating_add(max_len.max(1)));
        let end = skip.next_addr(true, start, cap).unwrap_or(cap);
        ranges.push((start, (end - start) as usize));
        at = end;
    }
    ranges
}

/// Folds one chunk's candidates into the global state, in sector order.
/// Live (non-tombstone) candidates also stride the skip map past their
/// file-interior sectors: those are data, not leaders, so windows ≥ two
/// ahead never read them. The window lag means a *stale* live leader
/// whose runs cover a newer file's leader sector can hide it — the
/// documented striding trade, impossible after a clean shutdown (home
/// leaders are synced) and acceptable for last-rung recovery.
fn merge_chunk(
    summary: &mut ScavengeSummary,
    found: &mut BTreeMap<Vec<u8>, LeaderPage>,
    layout: &FsdLayout,
    skip: &mut Vam,
    result: ChunkResult,
) {
    summary.unreadable_sectors += result.unreadable;
    for leader in result.candidates {
        // Candidates arrive runs_sane-checked by `decode_chunk`, but the
        // skip bitmap panics on out-of-range sectors, so this merge must
        // not depend on a gate in another function staying put.
        if !leader.deleted {
            if let Ok(entry) = leader.entry() {
                if runs_sane(layout, &entry) {
                    for r in entry.run_table.runs() {
                        skip.free_run(*r);
                    }
                }
            }
        }
        admit(summary, found, leader);
    }
}

/// Sweeps both data areas collecting provable leader pages; duplicates
/// by name key resolve to the higher uid.
///
/// One pipeline, two windows deep: read window i, decode it, then merge
/// window i−1 — so ranges for window i+1 see exactly the merges of
/// windows ≤ i−1. The worker count moves only the clock, never what is
/// read or merged. One worker charges decode CPU between reads, so the
/// platter turns under the head while it decodes. More charge chunk k to
/// worker k mod `workers`, off the clock, and join once at the end: the
/// decode hides behind the reads unless its critical path is longer.
fn scan_leaders(
    disk: &mut SimDisk,
    cpu: &Cpu,
    layout: &FsdLayout,
    workers: usize,
    summary: &mut ScavengeSummary,
    found: &mut BTreeMap<Vec<u8>, LeaderPage>,
) -> Result<()> {
    let t0 = disk.clock().now();
    let track = disk.geometry().sectors_per_track.max(1);
    let mut wcpus = cpu.workers(workers);
    let n = wcpus.len();
    let mut skip = Vam::new_all_allocated(layout.total_sectors);
    let mut pending: Vec<ChunkResult> = Vec::new();
    let mut k = 0usize;
    for (lo, hi) in build_windows(layout, track * TRACKS_PER_WINDOW) {
        let ranges = window_ranges(&skip, lo, hi, track);
        let chunks = scan::read_chunks(disk, &ranges).map_err(FsdError::Disk)?;
        let mut results = Vec::with_capacity(chunks.len());
        for chunk in &chunks {
            let r = decode_chunk(layout, chunk);
            let candidates = r.candidates.len() as u64;
            if n == 1 {
                cpu.sectors(r.scanned);
                cpu.entries(candidates);
            } else {
                wcpus[k % n].sectors(r.scanned);
                wcpus[k % n].entries(candidates);
            }
            k += 1;
            results.push(r);
        }
        for r in pending.drain(..) {
            merge_chunk(summary, found, layout, &mut skip, r);
        }
        pending = results;
    }
    for r in pending {
        merge_chunk(summary, found, layout, &mut skip, r);
    }
    if n > 1 {
        let worker_us: Vec<u64> = wcpus.into_iter().map(|w| w.into_us()).collect();
        cpu.join_parallel(t0, &worker_us);
    }
    Ok(())
}

/// Admits a verified candidate leader; resolves name-key duplicates to
/// the higher uid.
fn admit(
    summary: &mut ScavengeSummary,
    found: &mut BTreeMap<Vec<u8>, LeaderPage>,
    leader: LeaderPage,
) {
    summary.leaders_found += 1;
    match found.entry(leader.name_key.clone()) {
        std::collections::btree_map::Entry::Occupied(mut o) => {
            let (winner, loser) = if leader.uid > o.get().uid {
                (Some(leader), o.get().clone())
            } else {
                (None, leader)
            };
            if !loser.deleted {
                summary.losses.push(format!(
                    "{}: stale duplicate uid {} superseded",
                    loser
                        .file_name()
                        .map_or_else(|_| "<unnamed>".to_string(), |n| n.to_string()),
                    loser.uid
                ));
            }
            if let Some(w) = winner {
                o.insert(w);
            }
        }
        std::collections::btree_map::Entry::Vacant(v) => {
            v.insert(leader);
        }
    }
}

/// A recovered entry is only trusted if every sector it claims lies in
/// the data areas.
fn runs_sane(layout: &FsdLayout, entry: &FileEntry) -> bool {
    let areas = layout.data_areas();
    let in_data = |start, end| areas.iter().any(|&(lo, hi)| start >= lo && end <= hi);
    entry.run_table.runs().len() <= MAX_RUNS
        && in_data(entry.leader_addr, entry.leader_addr + 1)
        && entry
            .run_table
            .runs()
            .iter()
            .all(|r| r.len > 0 && in_data(r.start, r.end()))
}

/// Writes the scavenged state out as a fresh, fully durable volume:
/// empty log, new name table holding the recovered entries, saved VAM.
fn rebuild(vol: &mut FsdVolume, config: FsdConfig, files: &[(FileName, FileEntry)]) -> Result<()> {
    vol.log.write_meta(&mut vol.disk, &mut vol.spare)?;
    // Bottom-up bulk load: encode the recovered entries once, sort them
    // by key, and pack the tree leaves-first — one page write per node,
    // instead of N root-to-leaf insertions re-dirtying the same pages.
    // Entry encoding is embarrassingly parallel, so it shards across the
    // configured workers like the scan's decode stage; the output is the
    // concatenation of the shards.
    let mut pairs: Vec<(Vec<u8>, Vec<u8>)> = vol
        .cpu
        .sharded(config.scavenge_workers, files.len(), |range, wcpu| {
            wcpu.entries(range.len() as u64);
            files[range]
                .iter()
                .map(|(name, entry)| (name.to_key(), entry.encode()))
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();
    pairs.sort();
    {
        let mut store = nt_store!(vol);
        store.write_meta(&NtMeta::new(vol.layout.nt_pages))?;
        vol.tree = BTree::bulk_load(&mut store, &pairs)?;
    }
    vol.update_meta_root()?;
    vol.force()?;
    vol.sync_home_all()?;
    vol.save_vam_and_mark_valid()
}

/// Best-effort read of the old boot pages for the boot count and the
/// remap table; either copy serves, neither is required.
fn old_boot_hint(
    disk: &mut SimDisk,
    layout: &FsdLayout,
) -> Result<(u32, Vec<(SectorAddr, SectorAddr)>)> {
    let mut count = 0u32;
    let mut entries: Vec<(SectorAddr, SectorAddr)> = Vec::new();
    for addr in [layout.boot_a, layout.boot_b] {
        match disk.read(addr, 1) {
            Ok(bytes) => {
                if let Ok(b) = FsdBootPage::decode(&bytes) {
                    if b.boot_count >= count {
                        count = b.boot_count;
                        entries = b.spare_map;
                    }
                }
            }
            Err(DiskError::Crashed) => return Err(FsdError::Disk(DiskError::Crashed)),
            Err(_) => continue,
        }
    }
    Ok((count, entries))
}
