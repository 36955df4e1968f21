//! Every crash of one `Log::append`, enumerated (ROADMAP item 1's
//! `crash_sweep`, scoped to the one function that puts a commit record
//! on the platter).
//!
//! A log that already holds two committed records takes a third of `n`
//! images. Half (i) crashes that append after every possible number of
//! sector writes, with every torn-tail shape of the paper's failure
//! model, and reads the log back the way recovery does: the result is
//! the two old records, or those plus the *whole* new one — never an
//! error, never a partial record, never a lost old one, and always the
//! new one once `append` returned `Ok`. Half (ii) lets the append finish
//! and then damages each sector of the record, and each adjacent pair,
//! in turn (§5.3: "one or two consecutive sectors"): the record still
//! decodes byte-identically. Half (iii) is half (i) with the sector
//! going bad *during* the append instead of being remapped beforehand,
//! so the crash points run through the retry rounds as well.
//!
//! What can turn it red: the end page's checksum over the originals
//! already rejects any partially written record, so no *reordering* of
//! the record's sectors fails half (i) — the barrier in `append` adds
//! that an accepted record never depends on its copies. A wrong sector
//! *range* does fail it: a record written without `E'` goes red in half
//! (ii) the moment `E` is the damaged sector.

use cedar_disk::{CrashPlan, DiskGeometry, IoPolicy, SimDisk, SECTOR_BYTES};
use cedar_fsd::log::{scan_records, Log, PageTarget, DATA_START};
use cedar_fsd::{FsdLayout, SpareMap};

const POLICIES: [IoPolicy; 2] = [IoPolicy::InOrder, IoPolicy::Satf];

/// Thirds of 120 sectors: the largest record (48 images, 101 sectors)
/// fits behind the two old ones without entering a new third, so an
/// append is exactly its `2n + 5` sector writes.
const LOG_SECTORS: u32 = DATA_START + 3 * 120;

/// Which sector of the new record sits in the spare region (or, in half
/// (iii), is a grown defect the append has yet to discover).
#[derive(Clone, Copy, Debug, PartialEq)]
enum Remap {
    None,
    Original,
    Copy,
    End,
}

const REMAPS: [Remap; 4] = [Remap::None, Remap::Original, Remap::Copy, Remap::End];

impl Remap {
    /// The sector's offset inside an `n`-image record.
    fn offset(self, n: usize) -> Option<u32> {
        let n = n as u32;
        match self {
            Remap::None => None,
            Remap::Original => Some(3 + n / 2),
            Remap::Copy => Some(4 + n + n / 2),
            Remap::End => Some(3 + n),
        }
    }
}

fn layout() -> FsdLayout {
    FsdLayout::compute(&DiskGeometry::TINY, 16, LOG_SECTORS)
}

fn image(record: u8, i: usize) -> Vec<u8> {
    (0..SECTOR_BYTES)
        .map(|b| (b as u8).wrapping_mul(31) ^ record.wrapping_add(i as u8))
        .collect()
}

fn old_records() -> [Vec<(PageTarget, Vec<u8>)>; 2] {
    [
        vec![
            (PageTarget::NtSector { page: 5, sector: 0 }, image(1, 0)),
            (PageTarget::NtSector { page: 5, sector: 1 }, image(1, 1)),
        ],
        vec![(PageTarget::Leader { addr: 900 }, image(2, 0))],
    ]
}

fn new_record(n: usize) -> Vec<(PageTarget, Vec<u8>)> {
    (0..n)
        .map(|i| {
            let target = PageTarget::NtSector {
                page: i as u32 / 2,
                sector: i as u32 % 2,
            };
            (target, image(3, i))
        })
        .collect()
}

fn no_flush(_: &mut SimDisk, _: &mut SpareMap, _: u8) -> cedar_fsd::Result<()> {
    Ok(())
}

/// A disk whose log holds the two old records, the running log behind
/// them, and the spare map with `remap`'s sector of the coming
/// `n`-image record redirected.
fn two_committed(policy: IoPolicy, n: usize, remap: Remap) -> (SimDisk, Log, SpareMap) {
    let l = layout();
    // The two old records take 9 + 7 sectors, so the new one starts here.
    let pos = l.log_start + DATA_START + 16;
    let entries: Vec<(u32, u32)> = remap
        .offset(n)
        .map(|o| (pos + o, l.spare_start))
        .into_iter()
        .collect();
    let mut spare = SpareMap::with_entries(&l, &entries);
    assert_eq!(spare.entries().len(), entries.len());
    let mut disk = SimDisk::tiny();
    let mut log = Log::fresh(l.log_start, l.log_sectors, 1).unwrap();
    log.set_policy(policy);
    log.write_meta(&mut disk, &mut spare).unwrap();
    for images in old_records() {
        log.append(&mut disk, &mut spare, &images, true, &[], no_flush)
            .unwrap();
    }
    assert_eq!(l.log_start + log.next_record_offset(), pos);
    (disk, log, spare)
}

/// Appends `new` with `plan` armed and then pulls the plug. Returns
/// whether the append was acknowledged.
fn append_then_crash(
    disk: &mut SimDisk,
    log: &mut Log,
    spare: &mut SpareMap,
    new: &[(PageTarget, Vec<u8>)],
    plan: CrashPlan,
    ctx: &str,
) -> bool {
    disk.schedule_crash(plan);
    let acknowledged = match log.append(disk, spare, new, true, &[], no_flush) {
        Ok(_) => true,
        Err(e) => {
            assert!(e.is_crash(), "{ctx}: {e}");
            false
        }
    };
    disk.crash_now();
    disk.reboot();
    acknowledged
}

/// Reads the log back the way `redo_phase` does and checks it holds the
/// two old records, or those plus the whole of `new` — and `new` for
/// certain once its append was acknowledged.
fn assert_old_log_or_whole_record(
    disk: &mut SimDisk,
    policy: IoPolicy,
    spare: &mut SpareMap,
    new: &[(PageTarget, Vec<u8>)],
    acknowledged: bool,
    ctx: &str,
) {
    let l = layout();
    let meta = Log::read_meta(disk, policy, spare, l.log_start).unwrap();
    let records = scan_records(disk, policy, l.log_start, l.log_sectors, spare, &meta)
        .unwrap_or_else(|e| panic!("{ctx}: {e}"));
    let [old1, old2] = old_records();
    let mut expected: Vec<&[(PageTarget, Vec<u8>)]> = vec![&old1, &old2];
    if acknowledged || records.len() == 3 {
        expected.push(new);
    }
    assert_eq!(records.len(), expected.len(), "{ctx}: record count");
    for (i, (got, want)) in records.iter().zip(expected).enumerate() {
        assert_eq!(got.seq, i as u64 + 1, "{ctx}");
        assert!(got.group_end, "{ctx}");
        assert!(got.images == want, "{ctx}: record {} differs", i + 1);
    }
}

fn sizes() -> [usize; 4] {
    let max = Log::fresh(0, LOG_SECTORS, 1).unwrap().max_images();
    [1, 2, 7, max]
}

#[test]
fn a_crash_anywhere_in_an_append_leaves_the_old_log_or_the_whole_record() {
    for policy in POLICIES {
        for n in sizes() {
            let new = new_record(n);
            for remap in REMAPS {
                for after_sector_writes in 0..=2 * n as u64 + 5 {
                    for damaged_tail in 0..=2u8 {
                        let ctx = format!(
                            "{policy:?} n={n} {remap:?} crash after {after_sector_writes} \
                             sector writes, tail {damaged_tail}"
                        );
                        let (mut disk, mut log, mut spare) = two_committed(policy, n, remap);
                        let plan = CrashPlan {
                            after_sector_writes,
                            damaged_tail,
                        };
                        let acknowledged =
                            append_then_crash(&mut disk, &mut log, &mut spare, &new, plan, &ctx);
                        assert_eq!(
                            acknowledged,
                            after_sector_writes == 2 * n as u64 + 5,
                            "{ctx}: an append is 2n + 5 sector writes"
                        );
                        assert_old_log_or_whole_record(
                            &mut disk,
                            policy,
                            &mut spare,
                            &new,
                            acknowledged,
                            &ctx,
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn a_completed_record_survives_any_one_or_two_adjacent_bad_sectors() {
    let l = layout();
    for policy in POLICIES {
        for n in sizes() {
            let new = new_record(n);
            for remap in REMAPS {
                let (mut base, mut log, spare) = two_committed(policy, n, remap);
                let pos = l.log_start + log.next_record_offset();
                let mut spare_after = spare.clone();
                log.append(&mut base, &mut spare_after, &new, true, &[], no_flush)
                    .unwrap();
                let len = 2 * n as u32 + 5;
                for first in 0..len {
                    for width in 1..=2u32 {
                        if first + width > len {
                            continue;
                        }
                        let ctx = format!(
                            "{policy:?} n={n} {remap:?} damaged record sectors {first}..{}",
                            first + width
                        );
                        let mut disk = base.clone();
                        let mut spare = spare_after.clone();
                        for s in first..first + width {
                            disk.damage_sector(spare.translate(pos + s));
                        }
                        assert_old_log_or_whole_record(
                            &mut disk, policy, &mut spare, &new, true, &ctx,
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn a_crash_anywhere_in_an_append_that_is_remapping_a_sector_is_as_clean() {
    let l = layout();
    for policy in POLICIES {
        for n in sizes() {
            let new = new_record(n);
            for defect in REMAPS.into_iter().filter(|&r| r != Remap::None) {
                let mut appended = false;
                let mut after_sector_writes = 0;
                while !appended {
                    for damaged_tail in 0..=2u8 {
                        let ctx = format!(
                            "{policy:?} n={n} grown defect under {defect:?}, crash after \
                             {after_sector_writes} sector writes, tail {damaged_tail}"
                        );
                        let (mut disk, mut log, mut spare) = two_committed(policy, n, Remap::None);
                        let before = spare.clone();
                        let pos = l.log_start + log.next_record_offset();
                        disk.hard_damage_sector(pos + defect.offset(n).unwrap());
                        let plan = CrashPlan {
                            after_sector_writes,
                            damaged_tail,
                        };
                        appended =
                            append_then_crash(&mut disk, &mut log, &mut spare, &new, plan, &ctx);
                        assert!(!appended || spare.remapped == 1, "{ctx}");
                        // The remap reaches the boot page only after the
                        // append: recovery may hold either table.
                        for mut map in [spare, before] {
                            assert_old_log_or_whole_record(
                                &mut disk.clone(),
                                policy,
                                &mut map,
                                &new,
                                appended,
                                &ctx,
                            );
                        }
                    }
                    after_sector_writes += 1;
                }
                assert!(after_sector_writes > 2 * n as u64 + 5, "retries write more");
            }
        }
    }
}
