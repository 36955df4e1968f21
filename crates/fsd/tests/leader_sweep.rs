//! Every crash of a session that reuses the sectors of logged leaders,
//! enumerated: what the leader pass of the next boot's redo settle writes
//! home, and what it leaves alone, must be what the session left behind.
//!
//! A logged leader image is replayed after a crash unless its sector has
//! been handed to another file since. The fixture is a clean tiny volume
//! whose small files lie back to back; the writing session boots it and
//!
//! ```text
//! deletes five files → force →
//!   creates one file whose leader lands on an old leader and one whose
//!   leader and data land on two more (a data page on an old leader) →
//!   extends a file over the deleted neighbour behind it, leader sector
//!   first, and writes the new pages → extends another by one page over
//!   its deleted neighbour's leader and never writes it → force →
//! truncates a file → force → writes its first page (the logged leader
//!   rides home with it) → deletes it → force → writes the first page
//!   again through the handle it still holds (its tombstone rides home
//!   the same way: the tombstone has left the volume's books but not the
//!   log) → creates a file over its sectors → force →
//! truncates another file → force
//! ```
//!
//! staying short of a log lap. A page extended and never written reads as
//! zeros: the extend wrote them over the deleted neighbour's own leader,
//! which must not be left live for a scavenge to read as that file's.
//!
//! The script runs over the crash-sweep harness (`support`), and every
//! point is held to the shared oracles: a file is read whole, leader
//! check included, and a rung-3 scavenge of the settled disk must bring
//! back no file a committed delete removed — a stale leader left live at
//! home would.
//!
//! The sweep was written while the leader pass still read every logged
//! leader's home sector to decide, and was green there once the log scan
//! kept to the log meta's epoch: before that, a crash just after the
//! session's first force landed replayed a record the previous epoch had
//! left right behind it, and a committed delete came back with its
//! tombstone for a leader.

mod support;

use cedar_disk::{IoPolicy, SimDisk, SECTOR_BYTES};
use cedar_fsd::{FsdError, FsdVolume, RecoveryReport};
use cedar_vol::Vam;
use std::collections::BTreeMap;
use support::{pages, Model, OnVolume, Point, Sweep};

/// The fixture's files in allocation order, with their pages: first fit
/// lays them back to back from the front of the small-file area.
const FIXTURE: [(&str, usize); 9] = [
    ("s/pre", 2),
    ("s/b", 1),
    ("s/a", 2),
    ("s/h", 1),
    ("s/f", 2),
    ("s/p", 2),
    ("s/t", 3),
    ("s/k0", 1),
    ("s/k1", 4),
];

struct Leaders;

impl OnVolume for Leaders {
    type Want = ();

    fn fixture(&self, policy: IoPolicy) -> (SimDisk, Model, ()) {
        let mut v = support::format(policy);
        let mut next = None;
        for (i, (name, n)) in FIXTURE.into_iter().enumerate() {
            let data = pages(i, n);
            let f = v.create(name, &data).unwrap();
            assert_eq!(f.pages() as usize, n);
            if let Some(at) = next {
                assert_eq!(f.entry.leader_addr, at, "{name} follows its neighbour");
            }
            next = Some(f.entry.leader_addr + 1 + f.pages());
        }
        v.force().unwrap();
        let model = Model::of(&mut v);
        v.shutdown().unwrap();
        (v.into_disk(), model, ())
    }

    /// The script of the module docs. Every reuse is checked to land
    /// where the script means it to.
    fn run(
        &self,
        v: &mut FsdVolume,
        _: &RecoveryReport,
        model: &mut Model,
        _: usize,
    ) -> Result<(), FsdError> {
        let leaders: BTreeMap<&str, u32> = ["s/pre", "s/b", "s/a", "s/f", "s/p", "s/k1"]
            .into_iter()
            .map(|name| (name, v.open(name, None).unwrap().entry.leader_addr))
            .collect();
        let forces = v.commit_stats().forces;
        let log_at = v.next_log_sector();

        for name in ["s/pre", "s/b", "s/a", "s/f", "s/k1"] {
            model.change(name, None);
            v.delete(name, None)?;
        }
        v.force()?;
        model.committed();

        // A new leader on an old one, then a leader and a data page on
        // two more: the three deleted neighbours' eight sectors, refilled.
        let n1 = pages(20, 2);
        model.change("s/n1", Some(n1.clone()));
        let e1 = v.create("s/n1", &n1)?.entry;
        let n2 = pages(21, 4);
        model.change("s/n2", Some(n2.clone()));
        let e2 = v.create("s/n2", &n2)?.entry;
        // A file grown over the deleted neighbour behind it, leader first.
        let mut h = v.open("s/h", None)?;
        let mut grown = v.read_file(&mut h)?;
        v.extend(&mut h, 3)?;
        let tail = pages(22, 3);
        grown.extend_from_slice(&tail);
        model.change("s/h", Some(grown));
        v.write_pages(&mut h, 1, &tail)?;
        // One grown over a deleted neighbour's leader and never written.
        let mut k0 = v.open("s/k0", None)?;
        let mut grown = v.read_file(&mut k0)?;
        v.extend(&mut k0, 1)?;
        grown.resize(grown.len() + SECTOR_BYTES, 0);
        model.change("s/k0", Some(grown));
        assert_eq!(e1.leader_addr, leaders["s/pre"]);
        assert_eq!(e2.leader_addr, leaders["s/b"]);
        assert!(e2.run_table.runs()[0].contains(leaders["s/a"]));
        assert_eq!(h.entry.run_table.sector_of(1), Some(leaders["s/f"]));
        assert_eq!(k0.entry.run_table.sector_of(1), Some(leaders["s/k1"]));
        v.force()?;
        model.committed();

        // A logged leader goes home with the data write beside it.
        let mut p = v.open("s/p", None)?;
        let first = pages(5, 1);
        model.change("s/p", Some(first.clone()));
        v.truncate(&mut p, 1)?;
        v.force()?;
        model.committed();
        let rewritten = pages(23, 1);
        model.writing("s/p", rewritten.clone());
        v.write_pages(&mut p, 0, &rewritten)?;
        model.written("s/p");
        // So does its tombstone, through the handle kept past the delete.
        model.change("s/p", None);
        v.delete("s/p", None)?;
        v.force()?;
        model.committed();
        v.write_pages(&mut p, 0, &pages(25, 1))?;
        // Reading h, which now ends where p began, makes p's sectors the
        // free run nearest the data the volume last touched.
        let end = h.entry.run_table.runs().last().map(|r| r.end());
        assert_eq!(end, Some(leaders["s/p"]), "h ends where p began");
        v.read_file(&mut h)?;
        let n3 = pages(24, 2);
        model.change("s/n3", Some(n3.clone()));
        let e3 = v.create("s/n3", &n3)?.entry;
        assert_eq!(
            e3.leader_addr, leaders["s/p"],
            "over the piggybacked tombstone"
        );
        v.force()?;
        model.committed();

        let mut t = v.open("s/t", None)?;
        model.change("s/t", Some(pages(6, 1)));
        v.truncate(&mut t, 1)?;
        v.force()?;
        model.committed();

        assert_eq!(
            v.commit_stats().forces - forces,
            6,
            "only the script forced"
        );
        assert!(v.next_log_sector() > log_at, "the log never wrapped");
        Ok(())
    }

    fn also(&self, _: &mut FsdVolume, _: &Model, _: &(), _: Vam, point: &Point) {
        if point.k.is_none() {
            let w = point.w;
            assert!(w > 60, "a settle, three creates and six forces: {w}");
        }
    }
}

#[test]
fn every_crash_of_a_session_that_reuses_logged_leader_sectors_recovers() {
    Sweep::default().run(&Leaders).finish();
}
