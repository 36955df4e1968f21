//! The thirds auditor: §5.3's safety rule, checked where it can break.
//!
//! A log record may be written over only when every image it holds is at
//! home or superseded. So whenever [`crate::log::Log::append`] is about
//! to enter a third, once that third's writeback is on the platters, the
//! records the third holds are read back by the boot scan's own rule and
//! each image is held against its homes ([`PageTarget::homes`]). An image
//! that is not there must be superseded: by a later record or the force
//! in flight, which log the same sector again; for a name-table page, by
//! a commit that freed the page (the committed tree no longer uses it);
//! or — for a leader — by a later group's list of runs handed to new
//! owners, whose new owner has written over the sector.
//!
//! A lost home write otherwise shows only when the log laps the record
//! and a crash finds the home stale. Debug builds only: the platters are
//! read with `SimDisk::peek_data`, which charges no time and touches no
//! stats, so release builds, every artifact and every simulated figure
//! are the same with the auditor as without it.

use crate::cache::NtCache;
use crate::layout::FsdLayout;
use crate::log::{self, PageTarget};
use crate::spare::SpareMap;
use cedar_disk::{SectorAddr, SimDisk};
use cedar_vol::Run;
use std::collections::BTreeSet;

/// Audits third `t` as the writer enters it: `live` is the log's live
/// records (offset, third) as they stood before the append, `in_flight`
/// the images of the force making it, `handed_out` the runs that force
/// lists, and `cache` the name-table cache, whose meta pages' baselines
/// say which pages the committed tree uses.
#[allow(clippy::too_many_arguments)]
pub(crate) fn third_entry(
    disk: &SimDisk,
    spare: &SpareMap,
    layout: &FsdLayout,
    live: &[(u32, u8)],
    t: u8,
    in_flight: &[(PageTarget, Vec<u8>)],
    handed_out: &[Run],
    cache: &NtCache,
) {
    let committed = cache.committed_meta(layout.nt_pages);
    let freed = |target: &PageTarget| match target {
        PageTarget::NtSector { page, .. } => committed.as_ref().is_some_and(|m| !m.in_use(*page)),
        PageTarget::Leader { .. } => false,
    };
    let homes = |images: &[(PageTarget, Vec<u8>)]| -> Vec<SectorAddr> {
        images.iter().flat_map(|(t, _)| t.homes(layout)).collect()
    };
    let mut later: BTreeSet<SectorAddr> = homes(in_flight).into_iter().collect();
    let mut listed: Vec<Run> = handed_out.to_vec();
    // Newest first, so that each record is held against those after it.
    for &(offset, third) in live.iter().rev() {
        let Ok(record) = log::peek_record(disk, spare, layout.log_start, offset) else {
            continue; // Media damage the scan would have to repair.
        };
        if third == t {
            for (target, image) in &record.images {
                for home in target.homes(layout) {
                    let at_home = disk.peek_data(spare.translate(home)) == Some(&image[..]);
                    let reallocated = matches!(target, PageTarget::Leader { .. })
                        && listed.iter().any(|run| run.contains(home));
                    assert!(
                        at_home || later.contains(&home) || reallocated || freed(target),
                        "thirds auditor: entering third {t}, record {} at offset {offset} \
                         holds {target:?}, whose home {home} holds something else and \
                         which nothing later supersedes",
                        record.seq
                    );
                }
            }
        }
        later.extend(homes(&record.images));
        listed.extend_from_slice(&record.reallocated);
    }
}
