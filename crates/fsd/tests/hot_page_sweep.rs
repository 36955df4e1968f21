//! A name-table page with one hot sector and one quiet one, through a
//! full lap of the log, crashed at every sector write over the
//! crash-sweep harness (`support`), restarts included.
//!
//! Two creates land ahead of a cached file's entry on one leaf, so one
//! force logs both of its sectors; then the cached file is opened and
//! the log forced until it has lapped that record. Each open refreshes
//! the entry's last-used time, in the leaf's second sector alone. The
//! first sector's newest image rides the lapped record only, so it must
//! be home first (§5.3): a flush tag that followed every partial log kept
//! the page from ever going home, and a crash after the lap brought back
//! the first sector's older home copy.

mod support;

use cedar_disk::{IoPolicy, SimDisk};
use cedar_fsd::{FsdError, FsdVolume, RecoveryReport};
use support::{content, Model, OnVolume, Sweep};

/// Sorts after every other name, so its entry is the leaf's last.
const HOT: &str = "z/hot";

struct HotPage;

impl OnVolume for HotPage {
    type Want = ();
    const RESTARTS: bool = true;

    fn fixture(&self, policy: IoPolicy) -> (SimDisk, Model, ()) {
        let mut v = support::format(policy);
        for i in 0..6 {
            v.create(&format!("a/f{i}"), &content(i, 700)).unwrap();
        }
        v.create_cached(HOT, &content(9, 300)).unwrap();
        let model = Model::of(&mut v);
        v.shutdown().unwrap();
        (v.into_disk(), model, ())
    }

    fn run(
        &self,
        v: &mut FsdVolume,
        _: &RecoveryReport,
        model: &mut Model,
        round: usize,
    ) -> Result<(), FsdError> {
        for i in 0..2 {
            let (name, data) = (format!("r{round}/n{i}"), content(20 + 2 * round + i, 500));
            model.change(&name, Some(data.clone()));
            v.create(&name, &data)?;
        }
        v.force()?;
        model.committed();
        // Until the log has wrapped and written over that record.
        let first = v.next_log_sector();
        let mut wrapped = false;
        while !wrapped || v.next_log_sector() < first {
            v.open(HOT, None)?;
            let (logged, at) = (v.commit_stats().images_logged, v.next_log_sector());
            v.force()?;
            assert_eq!(v.commit_stats().images_logged - logged, 1, "one hot sector");
            wrapped |= v.next_log_sector() < at;
        }
        Ok(())
    }
}

#[test]
fn every_crash_of_a_hot_page_through_a_log_lap_recovers() {
    Sweep::default().run(&HotPage).finish();
}
