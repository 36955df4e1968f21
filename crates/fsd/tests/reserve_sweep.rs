//! Every crash of a restart that goes on to *write*, enumerated: the
//! session after a crash allocates, frees, walks the name table in the
//! middle of all that, fills the volume and shuts down (ROADMAP item 2:
//! "a crash while the VAM walk is owed / inside the first allocation's
//! walk").
//!
//! The fixture is a nearly full tiny volume crashed inside a log force.
//! The script
//!
//! ```text
//! boot → read → create → force → delete → create → extend →
//! settle_vam → create → create (more than is left in one piece) → shutdown
//! ```
//!
//! runs over the crash-sweep harness (`support`); its restarts cover a
//! boot that follows a session which had already begun to allocate.
//!
//! The oracle, after the last boot and `settle_vam`: the shared ones,
//! every file at version 1, and the free map — read back from the save
//! area a clean shutdown writes — equal bit for bit to one built
//! independently from the full listing.
//!
//! The sweep knows nothing about *how* the first create after a crash
//! finds its sectors; it was written, and was green, while that create
//! still paid the whole name-table walk.

mod support;

use cedar_disk::{IoPolicy, SimDisk, SECTOR_BYTES};
use cedar_fsd::{FsdError, FsdVolume, RecoveryReport};
use cedar_vol::{Run, Vam};
use support::{base, claims, config, content, tear_last_force, Model, OnVolume, Point, Sweep, OFF};

const PROBE: &str = "base/f11";

/// The crashed volume: thirty small files with every fifth deleted, one
/// file extended and one truncated after their creates, two files that
/// between them leave less free space outside the last two cylinders of
/// the small-file area than the script's last create asks for, and a
/// force torn by the crash over a create and a delete it loses.
fn crashed(policy: IoPolicy) -> SimDisk {
    let mut v = support::format(policy);
    for i in 0..30 {
        v.create(&base(i), &content(i, 600 + (i * 211) % 1500))
            .unwrap();
        v.create_symlink(&format!("links/l{i:02}"), "[server]<dir>target")
            .unwrap();
        if i % 3 == 2 {
            v.force().unwrap();
        }
    }
    for i in (0..30).step_by(5) {
        v.delete(&base(i), None).unwrap();
    }
    v.force().unwrap();
    v.create("fill/a", &content(40, 879 * SECTOR_BYTES))
        .unwrap();
    v.create("fill/b", &content(41, 599 * SECTOR_BYTES))
        .unwrap();
    v.force().unwrap();
    let mut grown = v.open(&base(21), None).unwrap();
    v.extend(&mut grown, 2).unwrap();
    let mut cut = v.open(&base(22), None).unwrap();
    v.truncate(&mut cut, 1).unwrap();
    v.force().unwrap();

    tear_last_force(v, 42)
}

struct Reserve;

impl OnVolume for Reserve {
    type Want = ();
    const RESTARTS: bool = true;

    /// The crashed volume, and its committed files and deletes as read
    /// off a settled boot.
    fn fixture(&self, policy: IoPolicy) -> (SimDisk, Model, ()) {
        let crashed = crashed(policy);
        let (mut v, report) = FsdVolume::boot(crashed.clone(), config()).unwrap();
        v.set_commit_interval(OFF);
        assert!(report.records_replayed > 0 && report.vam_reconstructed);
        v.settle_vam().unwrap();
        let listing = v.list("").unwrap();
        assert!(listing.iter().all(|(n, _)| !n.name.starts_with("lost/")));
        assert!(listing.iter().any(|(n, _)| n.name == base(16)));
        let mut model = Model::of(&mut v);
        for i in (0..30).step_by(5) {
            model.change(&base(i), None);
        }
        model.committed();
        let free: u32 = v.free_sectors();
        assert!(free < 250, "the fixture is meant to be nearly full: {free}");
        (crashed, model, ())
    }

    /// One restart, `round` keeping its names apart from an earlier one's.
    fn run(
        &self,
        v: &mut FsdVolume,
        report: &RecoveryReport,
        model: &mut Model,
        round: usize,
    ) -> Result<(), FsdError> {
        let name = |what: &str| format!("r{round}/{what}");
        let victim = base([3, 4][round]);
        let mut f = v.open(PROBE, None)?;
        v.read_file(&mut f)?;
        v.list("")?;

        let a = content(50 + round, 1200);
        model.change(&name("a"), Some(a.clone()));
        let first = v.create(&name("a"), &a)?.entry;
        // A reserve found at a crash boot serves the first create whole
        // and without the walk; one held by a map that loaded keeps the
        // create out; a boot that found none walks first, as ever.
        let within = |c: &Run, r: Run| r.start <= c.start && c.end() <= r.end();
        let apart = |c: &Run, r: Run| c.end() <= r.start || r.end() <= c.start;
        match (report.reserve, report.vam_reconstructed) {
            (Some(r), true) => {
                assert!(v.vam_walk().is_none(), "round {round}: walked");
                assert!(claims(&first).iter().all(|c| within(c, r)), "{first:?}");
            }
            (Some(r), false) => assert!(claims(&first).iter().all(|c| apart(c, r))),
            (None, owed) => assert_eq!(v.vam_walk().is_some(), owed, "round {round}"),
        }
        v.force()?;
        model.committed();

        model.change(&victim, None);
        v.delete(&victim, None)?;

        let mut b = content(60 + round, 700);
        model.change(&name("b"), Some(b.clone()));
        let mut file = v.create(&name("b"), &b)?;
        // The new pages hold whatever the sectors held: nothing commits
        // the longer file before they are written.
        let tail = content(65 + round, 2 * SECTOR_BYTES);
        b.resize(2 * SECTOR_BYTES, 0);
        b.extend_from_slice(&tail);
        model.change(&name("b"), Some(b));
        v.extend(&mut file, 2)?;
        v.write_pages(&mut file, 2, &tail)?;

        v.settle_vam()?;

        let c = content(70 + round, 1100);
        model.change(&name("c"), Some(c.clone()));
        v.create(&name("c"), &c)?;

        // More than the volume has left in one piece, wherever it looks.
        let big = content(80 + round, 99 * SECTOR_BYTES);
        model.change(&name("big"), Some(big.clone()));
        match v.create(&name("big"), &big) {
            Err(FsdError::NoSpace) => {
                model.states.remove(&name("big"));
            }
            other => drop(other?),
        }
        v.shutdown()?;
        model.committed();
        Ok(())
    }

    fn also(&self, v: &mut FsdVolume, model: &Model, _: &(), reference: Vam, point: &Point) {
        let ctx = &point.to_string();
        if point.k.is_none() {
            let w = point.w;
            assert!(w > 150, "recovery, five creates and a shutdown: {w}");
            assert!(
                model.states.contains_key("r0/big"),
                "the last create fits the first time round"
            );
        }
        let layout = *v.layout();
        for (name, entry) in v.list("").unwrap_or_else(|e| panic!("{ctx}: {e}")) {
            if entry.leader_addr != 0 {
                assert_eq!(name.version, 1, "{ctx}: {name}");
            }
        }

        // The map itself, bit for bit, as a clean shutdown saves it.
        v.shutdown().unwrap_or_else(|e| panic!("{ctx}: {e}"));
        let disk = v.disk_mut();
        let saved: Vec<u8> = (0..layout.vam_sectors)
            .flat_map(|i| disk.peek_data(layout.vam_a + i).expect("saved").to_vec())
            .collect();
        let saved = Vam::from_bytes(&saved).unwrap_or_else(|e| panic!("{ctx}: {e}"));
        assert!(saved == reference, "{ctx}: the rebuilt map differs");
    }
}

#[test]
fn every_crash_of_a_restart_that_allocates_frees_and_walks_recovers() {
    Sweep::default().run(&Reserve).finish();
}

/// Reading is free: a crashed volume booted, read and dropped any number
/// of times still holds its reserve for the boot that finally writes.
#[test]
fn a_boot_that_wrote_nothing_leaves_the_reserve_intact() {
    let mut disk = crashed(IoPolicy::Satf);
    // The first boot scrubs the sector the crash tore in the log.
    let mut written = None;
    let mut recorded = None;
    for _ in 0..3 {
        let (mut v, report) = FsdVolume::boot(disk, config()).unwrap();
        v.set_commit_interval(OFF);
        let reserve = report.reserve.expect("the fixture was formatted with one");
        assert_eq!(reserve.len, v.layout().reserve_sectors);
        assert_eq!(reserve.end(), v.layout().nt_a_start, "nothing came near it");
        assert_eq!(*recorded.get_or_insert(reserve), reserve);
        assert_eq!(v.reserve(), Some(reserve));
        let mut f = v.open(PROBE, None).unwrap();
        v.read_file(&mut f).unwrap();
        v.list("").unwrap();
        disk = v.into_disk();
        disk.crash_now();
        disk.reboot();
        let so_far = disk.stats().sectors_written;
        assert_eq!(*written.get_or_insert(so_far), so_far);
    }
}

/// In normal operation the reserve is nobody's: creates, extends, big
/// files and churn over a formatted volume never land in it and never
/// move it — until the volume has nothing else left to give.
#[test]
fn steady_state_never_allocates_inside_the_reserve_until_nothing_else_is_left() {
    let mut v = support::format(IoPolicy::Satf);
    let reserve = v.reserve().expect("format sets one aside");
    let outside = |v: &mut FsdVolume, what: &str| {
        for (name, entry) in v.list("").unwrap() {
            for c in claims(&entry) {
                assert!(
                    c.end() <= reserve.start || reserve.end() <= c.start,
                    "{what}: {name} holds {c:?} inside the reserve {reserve:?}"
                );
            }
        }
        assert_eq!(v.reserve(), Some(reserve), "{what}");
    };
    for i in 0..40 {
        let mut f = v
            .create(&base(i), &content(i, 300 + (i * 977) % 9000))
            .unwrap();
        if i % 3 == 0 {
            v.extend(&mut f, 1 + (i as u32 % 4)).unwrap();
        }
        if i % 4 == 3 {
            v.delete(&base(i - 2), None).unwrap();
        }
        if i % 5 == 4 {
            v.force().unwrap();
        }
    }
    outside(&mut v, "small-file churn");
    // Big files grow down from the end, past the metadata, toward it.
    v.create("big/a", &content(90, 700 * SECTOR_BYTES)).unwrap();
    // The second no longer fits above the metadata and ends right below
    // the reserve; it does not grow into it.
    let mut below = v.create("big/b", &content(91, 300 * SECTOR_BYTES)).unwrap();
    let tail = *below.entry.run_table.runs().last().unwrap();
    assert_eq!(tail.end(), reserve.start, "{tail:?}");
    v.extend(&mut below, 2).unwrap();
    v.force().unwrap();
    outside(&mut v, "big files");
    v.shutdown().unwrap();
    let (mut v, report) = FsdVolume::boot(v.into_disk(), config()).unwrap();
    v.set_commit_interval(OFF);
    assert_eq!(
        (report.reserve, report.vam_reconstructed),
        (Some(reserve), false)
    );
    v.create("after/boot", &content(93, 2000)).unwrap();
    outside(&mut v, "after a clean boot");

    // Fill what is left; the create that no longer fits in one piece
    // elsewhere gives the reserve up — on the boot page first.
    let mut n = 0;
    while v.reserve().is_some() {
        let writes = v.disk_stats().writes;
        let free = v.free_sectors();
        match v.create(&format!("fill/{n:03}"), &content(n, 30 * SECTOR_BYTES)) {
            Ok(_) => assert_eq!(v.free_sectors(), free - 31),
            Err(e) => panic!("fill/{n:03} with {free} sectors free: {e}"),
        }
        if v.reserve().is_none() {
            let since = v.disk_stats().writes - writes;
            assert!(since >= 3, "both boot pages, then the file: {since}");
        }
        n += 1;
    }
    v.force().unwrap();
    v.verify().unwrap();
}
