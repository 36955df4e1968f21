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
//! staying short of a log lap. A page extended and never written holds
//! whatever the extend left in its sector, so its bytes are not checked;
//! what is checked is that the deleted neighbour's own leader is not
//! among them, live, for a scavenge to read as that file's.
//!
//! The script is replayed once to count its sector writes `W`; then, for
//! every write index `0..=W` × every torn-tail shape × both policies, it
//! runs with the crash armed and the plug is pulled wherever it fires. The next boot is settled (`settle_vam`) and
//! must show that every file holds a content it was acknowledged or in
//! flight with — read whole, leader check included — that the tree
//! checks out, and that a rung-3 scavenge of a clone of the settled disk
//! (both log meta copies destroyed) brings back no file a committed
//! delete removed: a stale leader left live at home would.
//!
//! The sweep was written while the leader pass still read every logged
//! leader's home sector to decide, and was green there once the log scan
//! kept to the log meta's epoch: before that, a crash just after the
//! session's first force landed replayed a record the previous epoch had
//! left right behind it, and a committed delete came back with its
//! tombstone for a leader.

use cedar_disk::clock::Micros;
use cedar_disk::{CpuModel, CrashPlan, IoPolicy, SimDisk, SECTOR_BYTES};
use cedar_fsd::{FsdConfig, FsdError, FsdVolume, RecoveryRung};
use std::collections::{BTreeMap, BTreeSet};

const POLICIES: [IoPolicy; 2] = [IoPolicy::InOrder, IoPolicy::Satf];

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

fn config(policy: IoPolicy) -> FsdConfig {
    FsdConfig {
        nt_pages: 24,
        log_sectors: 183,
        cpu: CpuModel::DORADO,
        io_policy: policy,
        commit_interval_us: Micros::MAX,
        ..FsdConfig::default()
    }
}

fn content(tag: usize, pages: usize) -> Vec<u8> {
    (0..pages * SECTOR_BYTES)
        .map(|b| (b * 7 + tag * 13) as u8 | 1)
        .collect()
}

/// What each name may hold after a crash: every state it has been in
/// since its last acknowledged change, oldest first (`None`: absent).
#[derive(Clone, Default)]
struct Model {
    states: BTreeMap<String, Vec<Option<Vec<u8>>>>,
    /// Changes waiting for the next force.
    in_flight: BTreeSet<String>,
    /// Names whose unlogged data write the crash may have torn: they may
    /// also read back as a media error.
    torn_ok: BTreeSet<String>,
    /// Names grown by pages nothing wrote: their bytes from this offset
    /// on may be anything.
    unwritten: BTreeMap<String, usize>,
}

impl Model {
    fn change(&mut self, name: &str, state: Option<Vec<u8>>) {
        let states = self.states.entry(name.to_string());
        states.or_insert_with(|| vec![None]).push(state);
        self.in_flight.insert(name.to_string());
    }

    fn committed(&mut self) {
        for name in std::mem::take(&mut self.in_flight) {
            let states = self.states.get_mut(&name).expect("changed");
            states.drain(..states.len() - 1);
        }
    }

    /// A data write into a committed file is under way.
    fn writing(&mut self, name: &str, state: Vec<u8>) {
        assert!(!self.in_flight.contains(name), "{name} is also in flight");
        self.states.get_mut(name).expect("exists").push(Some(state));
        self.torn_ok.insert(name.to_string());
    }

    /// It returned: synchronous, so durable.
    fn written(&mut self, name: &str) {
        let states = self.states.get_mut(name).expect("exists");
        states.drain(..states.len() - 1);
        self.torn_ok.remove(name);
    }

    /// Deleted, and the delete committed: no state but absence.
    fn gone(&self, name: &str) -> bool {
        self.states.get(name).is_some_and(|s| s == &[None])
    }

    /// Whether `found` is one of the states `name` may be in.
    fn allows(&self, name: &str, found: &Option<Vec<u8>>) -> bool {
        let written = self.unwritten.get(name).copied().unwrap_or(usize::MAX);
        self.states[name].iter().any(|state| match (state, found) {
            (Some(state), Some(found)) if state.len() == found.len() => {
                let n = written.min(state.len());
                state[..n] == found[..n]
            }
            (state, found) => state == found,
        })
    }
}

fn fixture(policy: IoPolicy) -> (SimDisk, Model) {
    let mut v = FsdVolume::format(SimDisk::tiny(), config(policy)).unwrap();
    let mut model = Model::default();
    let mut next = None;
    for (i, (name, pages)) in FIXTURE.into_iter().enumerate() {
        let data = content(i, pages);
        let f = v.create(name, &data).unwrap();
        assert_eq!(f.pages() as usize, pages);
        if let Some(at) = next {
            assert_eq!(f.entry.leader_addr, at, "{name} follows its neighbour");
        }
        next = Some(f.entry.leader_addr + 1 + f.pages());
        model.change(name, Some(data));
    }
    v.force().unwrap();
    model.committed();
    v.shutdown().unwrap();
    (v.into_disk(), model)
}

/// The sector a file's leader lies on.
fn leader_of(v: &mut FsdVolume, name: &str) -> u32 {
    v.open(name, None).unwrap().entry.leader_addr
}

/// Runs the script of the module docs until `plan` fires (or to the end)
/// and pulls the plug. `model` follows what was acknowledged and what was
/// in flight; `checked` asks the uninterrupted run to prove that every
/// reuse landed where the script means it to.
fn script(
    mut disk: SimDisk,
    policy: IoPolicy,
    plan: Option<CrashPlan>,
    model: &mut Model,
    checked: bool,
) -> SimDisk {
    if let Some(plan) = plan {
        disk.schedule_crash(plan);
    }
    let mut v = match FsdVolume::try_boot(disk, config(policy)) {
        Ok((v, _)) => v,
        Err((e, mut disk)) => {
            assert!(e.is_crash(), "boot: {e}");
            disk.crash_now();
            disk.reboot();
            return disk;
        }
    };
    let ran = (|| {
        let leaders: BTreeMap<&str, u32> = ["s/pre", "s/b", "s/a", "s/f", "s/p", "s/k1"]
            .into_iter()
            .map(|name| (name, leader_of(&mut v, name)))
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
        let n1 = content(20, 2);
        model.change("s/n1", Some(n1.clone()));
        let e1 = v.create("s/n1", &n1)?.entry;
        let n2 = content(21, 4);
        model.change("s/n2", Some(n2.clone()));
        let e2 = v.create("s/n2", &n2)?.entry;
        // A file grown over the deleted neighbour behind it, leader first.
        let mut h = v.open("s/h", None)?;
        let mut grown = v.read_file(&mut h)?;
        v.extend(&mut h, 3)?;
        let tail = content(22, 3);
        grown.extend_from_slice(&tail);
        model.change("s/h", Some(grown));
        v.write_pages(&mut h, 1, &tail)?;
        // One grown over a deleted neighbour's leader and never written.
        let mut k0 = v.open("s/k0", None)?;
        let mut grown = v.read_file(&mut k0)?;
        model.unwritten.insert("s/k0".into(), grown.len());
        v.extend(&mut k0, 1)?;
        grown.resize(grown.len() + SECTOR_BYTES, 0);
        model.change("s/k0", Some(grown));
        if checked {
            assert_eq!(e1.leader_addr, leaders["s/pre"]);
            assert_eq!(e2.leader_addr, leaders["s/b"]);
            assert!(e2.run_table.runs()[0].contains(leaders["s/a"]));
            assert_eq!(h.entry.run_table.sector_of(1), Some(leaders["s/f"]));
            assert_eq!(k0.entry.run_table.sector_of(1), Some(leaders["s/k1"]));
        }
        v.force()?;
        model.committed();

        // A logged leader goes home with the data write beside it.
        let mut p = v.open("s/p", None)?;
        let first = content(5, 1);
        model.change("s/p", Some(first.clone()));
        v.truncate(&mut p, 1)?;
        v.force()?;
        model.committed();
        let rewritten = content(23, 1);
        model.writing("s/p", rewritten.clone());
        v.write_page(&mut p, 0, &rewritten)?;
        model.written("s/p");
        // So does its tombstone, through the handle kept past the delete.
        model.change("s/p", None);
        v.delete("s/p", None)?;
        v.force()?;
        model.committed();
        v.write_page(&mut p, 0, &content(25, 1))?;
        let n3 = content(24, 2);
        model.change("s/n3", Some(n3.clone()));
        let e3 = v.create("s/n3", &n3)?.entry;
        if checked {
            assert_eq!(
                e3.leader_addr, leaders["s/p"],
                "over the piggybacked tombstone"
            );
        }
        v.force()?;
        model.committed();

        let mut t = v.open("s/t", None)?;
        model.change("s/t", Some(content(6, 1)));
        v.truncate(&mut t, 1)?;
        v.force()?;
        model.committed();

        if checked {
            assert_eq!(
                v.commit_stats().forces - forces,
                6,
                "only the script forced"
            );
            assert!(v.next_log_sector() > log_at, "the log never wrapped");
        }
        Ok::<(), FsdError>(())
    })();
    if let Err(e) = &ran {
        assert!(e.is_crash(), "script: {e}");
    }
    model.in_flight.clear();
    let mut disk = v.into_disk();
    disk.crash_now();
    disk.reboot();
    disk
}

/// Boots and settles `disk` and holds what it finds against `model`.
fn check(disk: SimDisk, policy: IoPolicy, model: &Model, ctx: &str) {
    let (mut v, _) = FsdVolume::boot(disk, config(policy)).unwrap_or_else(|e| panic!("{ctx}: {e}"));
    v.settle_vam().unwrap_or_else(|e| panic!("{ctx}: {e}"));
    let listing = v.list("").unwrap_or_else(|e| panic!("{ctx}: {e}"));
    let mut seen: BTreeMap<String, Result<Vec<u8>, FsdError>> = BTreeMap::new();
    for (name, _) in &listing {
        let read = v
            .open(&name.name, Some(name.version))
            .and_then(|mut f| v.read_file(&mut f));
        seen.insert(name.name.clone(), read);
    }
    for (name, states) in &model.states {
        let found = match seen.remove(name) {
            None => None,
            Some(Ok(data)) => Some(data),
            Some(Err(e)) if model.torn_ok.contains(name) && matches!(e, FsdError::Disk(_)) => {
                continue;
            }
            Some(Err(e)) => panic!("{ctx}: {name}: {e}"),
        };
        assert!(
            model.allows(name, &found),
            "{ctx}: {name} is {} and matches none of its {} possible states",
            found.map_or("absent".into(), |d| format!("{} bytes", d.len())),
            states.len()
        );
    }
    assert!(seen.is_empty(), "{ctx}: unknown files {:?}", seen.keys());
    v.verify().unwrap_or_else(|e| panic!("{ctx}: {e}"));

    // The leader homes as the settle left them, read by the scavenger.
    let mut clone = v.disk_mut().clone();
    let meta = v.layout().log_start;
    clone.damage_sector(meta);
    clone.damage_sector(meta + 2);
    clone.reboot();
    let (mut s, report) =
        FsdVolume::boot(clone, config(policy)).unwrap_or_else(|e| panic!("{ctx}: scavenge: {e}"));
    assert_eq!(report.rung, RecoveryRung::Scavenge, "{ctx}");
    for (name, _) in s.list("").unwrap() {
        assert!(
            !model.gone(&name.name),
            "{ctx}: the scavenger brought back {name}, whose delete had committed"
        );
    }
}

#[test]
fn every_crash_of_a_session_that_reuses_logged_leader_sectors_recovers() {
    for policy in POLICIES {
        let (fixture, committed) = fixture(policy);
        let before = fixture.stats().sectors_written;
        let mut model = committed.clone();
        let done = script(fixture.clone(), policy, None, &mut model, true);
        let w = done.stats().sectors_written - before;
        assert!(w > 60, "a settle, three creates and six forces: {w}");
        check(done, policy, &model, &format!("{policy:?} uninterrupted"));

        for k in 0..=w {
            for damaged_tail in 0..=2u8 {
                let plan = CrashPlan {
                    after_sector_writes: k,
                    damaged_tail,
                };
                let ctx = format!("{policy:?} k={k} tail={damaged_tail}");
                let mut model = committed.clone();
                let disk = script(fixture.clone(), policy, Some(plan), &mut model, false);
                check(disk, policy, &model, &ctx);
            }
        }
    }
}
