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

mod support;

use cedar_disk::{DiskGeometry, IoPolicy, SimDisk, SECTOR_BYTES};
use cedar_fsd::log::{scan_records, Log, PageTarget, DATA_START};
use cedar_fsd::{FsdLayout, SpareMap};
use support::{Point, Script, Sweep, POLICIES};

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
    disk.set_io_policy(policy);
    let mut log = Log::fresh(l.log_start, l.log_sectors, 1).unwrap();
    log.write_meta(&mut disk, &mut spare).unwrap();
    for images in old_records() {
        log.append(&mut disk, &mut spare, &images, true, &[], no_flush)
            .unwrap();
    }
    assert_eq!(l.log_start + log.next_record_offset(), pos);
    (disk, log, spare)
}

/// Reads the log back the way `redo_phase` does and checks it holds the
/// two old records, or those plus the whole of `new` — and `new` for
/// certain once its append was acknowledged.
fn assert_old_log_or_whole_record(
    disk: &mut SimDisk,
    spare: &mut SpareMap,
    new: &[(PageTarget, Vec<u8>)],
    acknowledged: bool,
    ctx: &str,
) {
    let l = layout();
    let meta = Log::read_meta(disk, spare, l.log_start).unwrap();
    let records = scan_records(disk, l.log_start, l.log_sectors, spare, &meta)
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

/// One append of `n` images over [`two_committed`]: with `remap`'s sector
/// of the record in the spare region or, when `grown`, going bad during
/// the append, so the crash points run through the retry rounds as well.
struct Append {
    n: usize,
    remap: Remap,
    grown: bool,
}

type State = (SimDisk, SpareMap);

impl Append {
    fn committed(&self, policy: IoPolicy) -> (SimDisk, Log, SpareMap) {
        let remap = if self.grown { Remap::None } else { self.remap };
        two_committed(policy, self.n, remap)
    }
}

impl Script for Append {
    type Memory = SpareMap;
    /// The spare map as the fixture left it on the boot page.
    type Want = SpareMap;

    fn label(&self) -> String {
        let grown = ["", "grown defect under "][usize::from(self.grown)];
        format!("n={} {grown}{:?} ", self.n, self.remap)
    }

    fn fixture(&self, policy: IoPolicy) -> (SimDisk, SpareMap, SpareMap) {
        let (mut disk, log, spare) = self.committed(policy);
        if self.grown {
            let pos = layout().log_start + log.next_record_offset();
            disk.hard_damage_sector(pos + self.remap.offset(self.n).unwrap());
        }
        (disk, spare.clone(), spare)
    }

    fn session(&self, (mut disk, mut spare): State, _: usize) -> State {
        // `Log` is not `Clone`: the fixture's running log, built again.
        let (_, mut log, _) = self.committed(disk.io_policy());
        let new = new_record(self.n);
        if let Err(e) = log.append(&mut disk, &mut spare, &new, true, &[], no_flush) {
            assert!(e.is_crash(), "{e}");
        }
        (disk, spare)
    }

    fn check(&self, (disk, spare): State, before: &SpareMap, point: &Point) {
        let (n, ctx, appended) = (self.n as u64, point.to_string(), point.acked == 1);
        // One past the last index a crash fires at.
        let after_sector_writes = point.w + 1;
        let maps = if self.grown {
            if point.k.is_none() {
                assert!(after_sector_writes > 2 * n + 5, "retries write more");
            }
            assert!(!appended || spare.remapped == 1, "{ctx}");
            // The remap reaches the boot page only after the append:
            // recovery may hold either table.
            vec![spare, before.clone()]
        } else {
            if point.k.is_none() {
                assert_eq!(
                    point.w,
                    2 * n + 5,
                    "{ctx}: an append is 2n + 5 sector writes"
                );
            }
            vec![spare]
        };
        for mut map in maps {
            let (disk, new) = (&mut disk.clone(), new_record(self.n));
            assert_old_log_or_whole_record(disk, &mut map, &new, appended, &ctx);
        }
    }
}

/// Sweeps an append of every size under every remap (`grown`: every
/// grown defect).
fn sweep_appends(grown: bool) {
    let mut sweep = Sweep::default();
    for (n, remap) in sizes().into_iter().flat_map(|n| REMAPS.map(|r| (n, r))) {
        if !grown || remap != Remap::None {
            sweep.run(&Append { n, remap, grown });
        }
    }
    sweep.finish();
}

#[test]
fn a_crash_anywhere_in_an_append_leaves_the_old_log_or_the_whole_record() {
    sweep_appends(false);
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
                        assert_old_log_or_whole_record(&mut disk, &mut spare, &new, true, &ctx);
                    }
                }
            }
        }
    }
}

#[test]
fn a_crash_anywhere_in_an_append_that_is_remapping_a_sector_is_as_clean() {
    sweep_appends(true);
}
