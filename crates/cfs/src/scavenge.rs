//! The scavenger: CFS's crash recovery.
//!
//! "It is possible to scavenge the file system: by reading the labels and
//! interpreting some of the disk sectors, file system structural
//! information, such as the free page map and the file name table, can be
//! reconstructed." (§2). The price is a full pass over every label on the
//! volume plus a random-access pass over every file header plus a rebuild
//! of the whole name table — "a slow operation (an hour or more on a 300
//! megabyte disk)" (§5.3). FSD's two-second log redo exists to kill this.
//!
//! Faithfully to the original (§5.8), the run tables are reconstructed
//! *from the labels*; the header contributes the name and properties. A
//! file whose header is lost loses its identity and its sectors are freed
//! (relabelled) as orphans.

use crate::error::CfsError;
use crate::header::{FileHeader, HEADER_SECTORS};
use crate::layout::BootPage;
use crate::nametable::{CfsNtStore, NtEntry};
use crate::volume::CfsVolume;
use crate::Result;
use cedar_btree::BTree;
use cedar_disk::scan::{read_chunks, ScanChunk};
use cedar_disk::sched::{self, IoBatch, IoOp};
use cedar_disk::{clock::Micros, Label, PageKind};
use cedar_vol::{Run, RunTable, Vam};
use std::collections::{BTreeMap, HashMap, HashSet};

/// What a scavenge found and did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScavengeReport {
    /// Files whose header and labels were recovered into the new name
    /// table.
    pub files_recovered: usize,
    /// Headers that were unreadable or undecodable (their files are lost).
    pub damaged_headers: usize,
    /// Sectors owned by no surviving file, relabelled free.
    pub orphan_sectors: u32,
    /// Simulated time the scavenge took.
    pub duration_us: Micros,
    /// Disk operations performed.
    pub ios: u64,
}

impl CfsVolume {
    /// Scavenges the volume: rebuilds the name table and the VAM from the
    /// labels and headers. This is the *only* recovery CFS has after a
    /// crash corrupts the name table or invalidates the VAM hint.
    pub fn scavenge(&mut self) -> Result<ScavengeReport> {
        let mut report = ScavengeReport::default();
        let workers = self.scavenge_workers;
        let (disk, cpu, layout, ..) = self.parts();
        let t0 = disk.clock().now();
        let io0 = disk.stats().total_ops();
        cpu.op();

        let geometry = *disk.geometry();
        let spt = geometry.sectors_per_track as usize;
        let total = geometry.total_sectors();

        // Pass 1: read every label. The per-track requests are submitted
        // as one batch; the scheduler coalesces the adjacent tracks into
        // maximal sequential transfers.
        let mut scan = IoBatch::new();
        let mut addr = 0u32;
        while addr < total {
            let n = spt.min((total - addr) as usize);
            scan.push(IoOp::ReadLabels { start: addr, n });
            addr += n as u32;
        }
        let mut labels: Vec<Label> = Vec::with_capacity(total as usize);
        for out in sched::execute(disk, &scan)? {
            labels.extend(
                out.into_labels()
                    .ok_or_else(|| CfsError::Corrupt("label scan output shape".into()))?,
            );
        }
        // Interpret: collect per-file sectors (page-numbered) and header
        // addresses. This is the scavenger's dominant CPU cost (the Mesa
        // label interpretation, §5.3), so the label snapshot shards into
        // contiguous address ranges, one worker each, charged as the
        // critical path; shards merge back in address order, so the
        // result does not depend on the worker count.
        let mut shards = cpu
            .sharded(workers, labels.len(), |range, wcpu| {
                wcpu.labels(range.len() as u64);
                interpret_labels(&labels[range.clone()], range.start as u32)
            })
            .into_iter();
        let (mut file_sectors, mut headers) = shards.next().unwrap_or_default();
        for (fs, hs) in shards {
            for (uid, mut v) in fs {
                file_sectors.entry(uid).or_default().append(&mut v);
            }
            headers.extend(hs);
        }

        // Pass 2: read every header (random access across the volume —
        // exactly where scheduling by position pays off). Labels were already
        // read in pass 1, so each header is validated against that
        // snapshot in memory; `ReadAllowDamage` keeps per-header
        // fallibility without aborting the batch.
        headers.retain(|&(_, haddr)| {
            if haddr + HEADER_SECTORS <= total {
                true
            } else {
                report.damaged_headers += 1;
                false
            }
        });
        let fetch: Vec<_> = headers
            .iter()
            .map(|&(_, haddr)| (haddr, HEADER_SECTORS as usize))
            .collect();
        let outs = read_chunks(disk, &fetch)?;
        // Decode/verify each header against the label snapshot — pure
        // per-header work, sharded across workers like the label pass.
        // The cross-file steps (run-table rebuild, liveness) stay in the
        // in-order merge below.
        let decoded: Vec<Option<FileHeader>> = cpu
            .sharded(workers, headers.len(), |range, wcpu| {
                headers[range.clone()]
                    .iter()
                    .zip(&outs[range])
                    .map(|(&(uid, haddr), out)| {
                        let h = decode_header(&labels, uid, haddr, out);
                        if h.is_some() {
                            wcpu.entries(1);
                        }
                        h
                    })
                    .collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect();
        let mut recovered: Vec<(FileHeader, u32)> = Vec::new();
        let mut live: HashSet<u64> = HashSet::new();
        for (&(uid, haddr), header) in headers.iter().zip(decoded) {
            let Some(header) = header else {
                report.damaged_headers += 1;
                continue;
            };
            // Rebuild the run table from the labels: the labels are the
            // ground truth for which sectors the file owns.
            let mut sectors = file_sectors.remove(&uid).unwrap_or_default();
            sectors.sort_unstable();
            let rt = RunTable::from_runs(sectors.iter().map(|&(_, addr)| Run::new(addr, 1)));
            let mut header = header;
            let label_pages = rt.pages();
            if label_pages < header.run_table.pages() {
                // Header claims more than the labels prove: trust labels,
                // shrink the byte count accordingly.
                header.byte_size = header
                    .byte_size
                    .min(label_pages as u64 * cedar_disk::SECTOR_BYTES_U64);
            }
            header.run_table = rt;
            live.insert(uid);
            recovered.push((header, haddr));
        }

        // Build the new VAM from the labels: everything not owned by a
        // surviving file (and outside the system areas) is free.
        let (dlo, dhi) = layout.data_area();
        let (vam, orphans) = vam_shard(&labels, &live, total, dlo, dhi);

        // Pass 3: relabel orphaned sectors free — all runs in one
        // scheduler window (they are disjoint by construction).
        report.orphan_sectors = u32::try_from(orphans.len()).unwrap_or(u32::MAX);
        let mut relabel = IoBatch::new();
        let mut i = 0;
        while i < orphans.len() {
            let start = orphans[i];
            let mut len = 1u32;
            while i + (len as usize) < orphans.len() && orphans[i + len as usize] == start + len {
                len += 1;
            }
            relabel.push(IoOp::WriteLabels {
                start,
                labels: vec![Label::FREE; len as usize],
                expected: None,
            });
            i += len as usize;
        }
        sched::execute(disk, &relabel)?;

        // Rewrite each recovered header (its run table may have been
        // corrected from the labels), then rebuild the name table
        // bottom-up: sort the entries once and bulk-load the B-tree —
        // one page write per node instead of N root-to-leaf insertions
        // in disk discovery order (part of why the real scavenger was
        // so slow).
        let mut boot = BootPage::new(layout.nt_pages);
        let mut cache = HashMap::new();
        let mut boot_dirty = false;
        let layout_copy = *layout;
        let mut pairs: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for (header, haddr) in &recovered {
            // Header addresses were derived from the label scan, but the
            // rewrite is a raw disk write: re-check the range so a bad
            // address degrades to a reported loss, not a wild write.
            if *haddr > total.saturating_sub(HEADER_SECTORS) {
                report.damaged_headers += 1;
                continue;
            }
            let entry = NtEntry {
                uid: header.uid,
                header_addr: *haddr,
                keep: header.keep,
            };
            let hlabels: Vec<Label> = (0..HEADER_SECTORS)
                .map(|i| Label::new(header.uid, i, PageKind::Header))
                .collect();
            disk.write_checked(*haddr, &header.encode(), &hlabels)?;
            pairs.insert(header.name.to_key(), entry.encode());
        }
        cpu.entries(pairs.len() as u64);
        let pairs: Vec<(Vec<u8>, Vec<u8>)> = pairs.into_iter().collect();
        let tree = {
            let mut store = CfsNtStore {
                disk,
                cpu,
                layout: &layout_copy,
                cache: &mut cache,
                boot: &mut boot,
                boot_dirty: &mut boot_dirty,
            };
            BTree::bulk_load(&mut store, &pairs)?
        };
        report.files_recovered = recovered.len();

        // Install the rebuilt state (the boot count carries forward inside
        // `rebuild_after_scavenge`).
        boot.nt_root = tree.root();
        self.rebuild_after_scavenge(vam, boot, tree, cache);
        self.finish_scavenge_boot_page()?;

        let clock = self.clock();
        report.duration_us = clock.now() - t0;
        report.ios = self.disk_stats().total_ops() - io0;
        Ok(report)
    }
}

/// Per-file data sectors `(page, addr)` keyed by uid, and header-page-0
/// `(uid, addr)` pairs.
type LabelShard = (HashMap<u64, Vec<(u32, u32)>>, Vec<(u64, u32)>);

/// Interprets one contiguous shard of the label snapshot (starting at
/// absolute address `base`); both halves of the result are in address
/// order within the shard.
fn interpret_labels(labels: &[Label], base: u32) -> LabelShard {
    let mut file_sectors: HashMap<u64, Vec<(u32, u32)>> = HashMap::new();
    let mut headers = Vec::new();
    for (i, label) in labels.iter().enumerate() {
        let addr = base + i as u32;
        match label.kind {
            PageKind::Data => {
                file_sectors
                    .entry(label.uid)
                    .or_default()
                    .push((label.page, addr));
            }
            PageKind::Header if label.page == 0 => headers.push((label.uid, addr)),
            _ => {}
        }
    }
    (file_sectors, headers)
}

/// Pure per-header validation and decode against the label snapshot:
/// every header sector's label must match and read clean.
fn decode_header(labels: &[Label], uid: u64, haddr: u32, out: &ScanChunk) -> Option<FileHeader> {
    let labels_ok = (0..HEADER_SECTORS)
        .all(|i| labels.get((haddr + i) as usize) == Some(&Label::new(uid, i, PageKind::Header)));
    if !labels_ok || out.damaged.iter().any(|&damaged| damaged) {
        return None;
    }
    FileHeader::decode(&out.bytes).ok()
}

/// Builds the free map and orphan list for the data area `lo..hi`:
/// free-labelled sectors are free, sectors owned by no surviving file
/// are orphans (freed and relabelled by the caller).
fn vam_shard(
    labels: &[Label],
    live: &HashSet<u64>,
    total_sectors: u32,
    lo: u32,
    hi: u32,
) -> (Vam, Vec<u32>) {
    let mut vam = Vam::new_all_allocated(total_sectors);
    let mut orphans = Vec::new();
    for addr in lo..hi {
        let label = labels[addr as usize];
        let orphan = match label.kind {
            PageKind::Free => {
                vam.free_run(Run::new(addr, 1));
                false
            }
            PageKind::Data | PageKind::Header | PageKind::Leader => !live.contains(&label.uid),
            _ => false,
        };
        if orphan {
            orphans.push(addr);
            vam.free_run(Run::new(addr, 1));
        }
    }
    (vam, orphans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::volume::CfsConfig;
    use cedar_disk::{CpuModel, SimDisk};

    fn tiny() -> CfsVolume {
        CfsVolume::format(
            SimDisk::tiny(),
            CfsConfig {
                nt_pages: 16,
                cpu: CpuModel::FREE,
                scavenge_workers: 1,
            },
        )
        .unwrap()
    }

    #[test]
    fn scavenge_recovers_files_after_name_table_loss() {
        let mut v = tiny();
        let mut datas = Vec::new();
        for i in 0..10 {
            let data = vec![i as u8 + 1; 700];
            v.create(&format!("dir/f{i}"), &data).unwrap();
            datas.push(data);
        }
        // Smash the whole name table region on disk, then reboot so the
        // in-memory page cache cannot mask the damage.
        let nt_start = v.layout().nt_start;
        let nt_len = v.layout().nt_pages * 4;
        for s in nt_start..nt_start + nt_len {
            v.disk_mut().wild_write(s, 0xFF);
        }
        let (mut v, _) = CfsVolume::boot(
            v.into_disk(),
            CfsConfig {
                nt_pages: 16,
                cpu: CpuModel::FREE,
                scavenge_workers: 1,
            },
        )
        .unwrap();
        assert!(v.open("dir/f0", None).is_err());

        let report = v.scavenge().unwrap();
        assert_eq!(report.files_recovered, 10);
        assert_eq!(report.damaged_headers, 0);
        for (i, data) in datas.iter().enumerate() {
            let f = v.open(&format!("dir/f{i}"), None).unwrap();
            assert_eq!(&v.read_file(&f).unwrap(), data);
        }
    }

    #[test]
    fn scavenge_frees_orphans() {
        let mut v = tiny();
        v.create("live", b"keep me").unwrap();
        // Simulate a crash mid-create: data labels claimed, no header.
        let orphan_uid = 0xDEAD;
        v.disk_mut()
            .write_labels(
                1000,
                &[
                    cedar_disk::Label::new(orphan_uid, 0, PageKind::Data),
                    cedar_disk::Label::new(orphan_uid, 1, PageKind::Data),
                ],
                None,
            )
            .unwrap();
        let report = v.scavenge().unwrap();
        assert_eq!(report.files_recovered, 1);
        assert_eq!(report.orphan_sectors, 2);
        // The orphan sectors are free again.
        assert_eq!(v.disk_mut().peek_label(1000), cedar_disk::Label::FREE);
    }

    #[test]
    fn scavenge_rebuilds_vam() {
        let mut v = tiny();
        v.create("a", &vec![1; 2048]).unwrap();
        v.create("b", &vec![2; 1024]).unwrap();
        let free_before = v.free_sectors();
        // Crash (no shutdown): VAM hint lost.
        let mut disk = v.into_disk();
        disk.crash_now();
        disk.reboot();
        let (mut v2, loaded) = CfsVolume::boot(
            disk,
            CfsConfig {
                nt_pages: 16,
                cpu: CpuModel::FREE,
                scavenge_workers: 1,
            },
        )
        .unwrap();
        assert!(!loaded);
        v2.scavenge().unwrap();
        assert_eq!(v2.free_sectors(), free_before);
        // And allocation works again.
        v2.create("c", b"new").unwrap();
    }

    #[test]
    fn scavenge_drops_files_with_damaged_headers() {
        let mut v = tiny();
        let f = v.create("victim", &vec![7; 1024]).unwrap();
        v.create("survivor", b"ok").unwrap();
        v.disk_mut().damage_sector(f.header_addr);
        let report = v.scavenge().unwrap();
        assert_eq!(report.damaged_headers, 1);
        assert_eq!(report.files_recovered, 1);
        assert!(v.open("victim", None).is_err());
        // The victim's data sectors were orphaned and freed.
        assert!(report.orphan_sectors >= 2);
        let s = v.open("survivor", None).unwrap();
        assert_eq!(v.read_file(&s).unwrap(), b"ok");
    }

    /// The parallel scavenger must beat the serial one by at least this
    /// factor on a label-interpretation-bound (Dorado CPU) volume.
    const PARALLEL_SPEEDUP_FLOOR: u64 = 2;

    #[test]
    fn scavenge_is_expensive_in_time() {
        let mut v = tiny();
        for i in 0..20 {
            v.create(&format!("f{i}"), &vec![0; 512]).unwrap();
        }
        let sector_us = v.disk_mut().timing().sector_us();
        let report = v.scavenge().unwrap();
        // Batched submission coalesces the label sweep into a handful of
        // transfers, but the cost floor stands: every sector's label
        // crosses the head, plus every header, plus the NT rebuild.
        assert!(report.ios >= 20, "ios = {}", report.ios);
        assert!(
            report.duration_us >= 2048 * sector_us,
            "duration = {}",
            report.duration_us
        );

        // Comparative gate: with real (Dorado) CPU costs the label
        // interpretation dominates, so spreading it across workers must
        // cut the simulated scavenge time by the configured factor —
        // while recovering exactly the same state.
        let mut serial = CfsVolume::format(
            SimDisk::tiny(),
            CfsConfig {
                nt_pages: 16,
                cpu: CpuModel::DORADO,
                scavenge_workers: 1,
            },
        )
        .unwrap();
        for i in 0..20 {
            serial
                .create(&format!("f{i}"), &vec![i as u8; 512])
                .unwrap();
        }
        let disk = serial.into_disk();
        let parallel_disk = disk.clone();
        let (mut serial, _) = CfsVolume::boot(
            disk,
            CfsConfig {
                nt_pages: 16,
                cpu: CpuModel::DORADO,
                scavenge_workers: 1,
            },
        )
        .unwrap();
        let (mut parallel, _) = CfsVolume::boot(
            parallel_disk,
            CfsConfig {
                nt_pages: 16,
                cpu: CpuModel::DORADO,
                scavenge_workers: 8,
            },
        )
        .unwrap();
        let sr = serial.scavenge().unwrap();
        let pr = parallel.scavenge().unwrap();
        assert_eq!(sr.files_recovered, pr.files_recovered);
        assert_eq!(sr.damaged_headers, pr.damaged_headers);
        assert_eq!(sr.orphan_sectors, pr.orphan_sectors);
        assert_eq!(sr.ios, pr.ios);
        assert!(
            sr.duration_us >= PARALLEL_SPEEDUP_FLOOR * pr.duration_us,
            "serial {} vs parallel {} — speedup below {}x",
            sr.duration_us,
            pr.duration_us,
            PARALLEL_SPEEDUP_FLOOR
        );
    }
}
