//! Every crash between power-on and the first durable write, enumerated
//! — and reads issued while recovery is still under way (ROADMAP items 1
//! and 6: the `crash_sweep` extended to operations during recovery).
//!
//! A crashed volume holds, committed in the log and *not* at home: pages
//! dirtied by creates and deletes, a file extended and one truncated
//! after their creates (the logged leader is newer than the home one), a
//! deleted pair whose sectors a later create reused — one old leader
//! sector under the new file's leader, one under its data (the two ways a
//! reallocation list keeps the leader pass off a sector) — a log that
//! has lapped its region, and a
//! torn tail record. The reference is that disk booted with everything
//! settled at once.
//!
//! The script `boot → read three files → list → create → force` runs
//! over the crash-sweep harness (`support`), restarts included. After
//! each point the disk is booted again and — before anything settles —
//! its listing and bytes are compared with the reference; then it is
//! settled, its free space compared, and the shared oracles run.
//!
//! Where the writes sit was not this test's business when it was
//! written — it drives the public surface only, and was green while
//! recovery still wrote inside `boot`. Since recovery's writes moved
//! into the first create it also holds boot to that: on media no crash
//! has damaged, power-on, boot and any amount of reading write nothing.

mod support;

use cedar_disk::{IoPolicy, SimDisk, SECTOR_BYTES};
use cedar_fsd::{FsdVolume, LeaderPage};
use cedar_vol::FileName;
use std::collections::BTreeMap;
use support::{base, claimed, config, content, oracles, tear_last_force, Listing, Model};
use support::{Point, Script, Sweep};

const NEW: &str = "restart/new";
/// Read by the script: the extended file, the truncated one, and the one
/// whose data lies over a deleted file's leader.
const PROBES: [&str; 3] = ["base/f31", "base/f32", "reuse/big"];

/// The crashed volume of the module docs.
fn crashed(policy: IoPolicy) -> SimDisk {
    let mut v = FsdVolume::format(SimDisk::tiny(), config(policy)).unwrap();
    let mut laps = 0;
    let mut force = |v: &mut FsdVolume| {
        let before = v.next_log_sector();
        v.force().unwrap();
        laps += u32::from(v.next_log_sector() < before);
    };
    for i in 0..36 {
        v.create(&base(i), &content(i, 600 + (i * 211) % 1500))
            .unwrap();
        v.create_symlink(&format!("links/l{i:02}"), "[server]<dir>target")
            .unwrap();
        if i % 2 == 1 {
            force(&mut v);
        }
    }
    for i in (0..30).step_by(5) {
        v.delete(&base(i), None).unwrap();
        force(&mut v);
    }

    // Logged leaders newer than the home ones.
    let mut grown = v.open(PROBES[0], None).unwrap();
    let old_pages = grown.pages();
    v.extend(&mut grown, 2).unwrap();
    v.write_pages(&mut grown, old_pages, &content(90, 2 * SECTOR_BYTES))
        .unwrap();
    let mut cut = v.open(PROBES[1], None).unwrap();
    assert!(cut.pages() > 1);
    v.truncate(&mut cut, 1).unwrap();
    force(&mut v);

    // Two neighbours deleted and committed, then one file over both.
    let (a, b) = (v.open(&base(12), None), v.open(&base(13), None));
    let (a, b) = (a.unwrap().entry, b.unwrap().entry);
    assert_eq!(
        a.leader_addr + 1 + a.run_table.pages(),
        b.leader_addr,
        "f12 and f13 were allocated back to back"
    );
    v.delete(&base(12), None).unwrap();
    v.delete(&base(13), None).unwrap();
    force(&mut v);
    let pages = a.run_table.pages() + 1 + b.run_table.pages();
    let big = v
        .create(PROBES[2], &content(91, pages as usize * SECTOR_BYTES))
        .unwrap()
        .entry;
    assert_eq!(big.leader_addr, a.leader_addr, "first fit refills the hole");
    assert!(
        big.run_table
            .runs()
            .iter()
            .any(|r| r.contains(b.leader_addr)),
        "f13's old leader sector now holds data"
    );
    force(&mut v);
    // The tail: a few operations whose force is torn inside the record's
    // first window — both headers down, no end page. A force that enters
    // a third writes homes and the log meta first, so keep this one clear
    // of the boundary: the tear is meant for the record.
    let (log_start, log_sectors) = (v.layout().log_start, v.layout().log_sectors);
    let third = (log_sectors - 3) / 3;
    while (v.next_log_sector() - log_start - 3) % third + 25 > third {
        v.create_symlink("links/pad", "[server]<dir>target")
            .unwrap();
        force(&mut v);
    }
    assert!(laps >= 1, "the log must have lapped its region");
    let disk = tear_last_force(v, 92);
    let records = log_start + 3..log_start + log_sectors;
    // The one damaged sector of the volume is the record's: nothing a
    // later boot or read will find and scrub.
    let damaged = (0..disk.geometry().total_sectors()).filter(|&s| disk.peek_damaged(s));
    let damaged: Vec<u32> = damaged.collect();
    assert!(
        matches!(damaged[..], [s] if records.contains(&s)),
        "{damaged:?}"
    );

    // The home copy of the extended file's leader is the stale one.
    let home = disk.peek_data(grown.entry.leader_addr).expect("written");
    let home = LeaderPage::decode(home).expect("a leader");
    assert!(home.verify(&grown.name, &grown.entry).is_err());
    disk
}

/// What a fully recovered volume must show.
struct Reference {
    listing: Listing,
    bytes: BTreeMap<FileName, Vec<u8>>,
    /// Free sectors plus the sectors the listing claims: a constant of
    /// the volume, whatever has been created since.
    data_sectors: u32,
}

fn without_new(listing: Listing) -> Listing {
    let mut listing = listing;
    listing.retain(|(n, _)| n.name != NEW);
    listing
}

fn contents(v: &mut FsdVolume, listing: &Listing, ctx: &str) -> BTreeMap<FileName, Vec<u8>> {
    let mut bytes = BTreeMap::new();
    for (name, entry) in listing {
        if entry.leader_addr == 0 {
            continue; // A symbolic link.
        }
        let read = v
            .open(&name.name, Some(name.version))
            .and_then(|mut f| v.read_file(&mut f));
        bytes.insert(
            name.clone(),
            read.unwrap_or_else(|e| panic!("{ctx}: {name}: {e}")),
        );
    }
    bytes
}

struct Restart;

impl Script for Restart {
    type Memory = Model;
    type Want = Reference;
    const RESTARTS: bool = true;

    /// The crashed volume, the reference, and the model the shared
    /// oracles hold every point against: the reference's files, and the
    /// deletes the fixture committed.
    fn fixture(&self, policy: IoPolicy) -> (SimDisk, Model, Reference) {
        let crashed = crashed(policy);
        let (mut v, report) = FsdVolume::boot(crashed.clone(), config(policy)).unwrap();
        assert!(report.records_replayed > 0 && report.images_redone > 0);
        v.settle_vam().unwrap().expect("a crash boot owes the walk");
        let listing = v.list("").unwrap();
        assert!(listing.iter().all(|(n, _)| !n.name.starts_with("lost/")));
        assert!(listing.iter().any(|(n, _)| n.name == base(16)));
        let bytes = contents(&mut v, &listing, "reference");
        let pages = 2 * SECTOR_BYTES;
        assert!(bytes[&FileName::new(PROBES[0], 1).unwrap()].ends_with(&content(90, pages)));
        v.verify().unwrap();
        let mut model = Model::of(&mut v);
        for i in (0..30).step_by(5).chain([12, 13]) {
            model.change(&base(i), None);
        }
        model.committed();
        let data_sectors = v.free_sectors() + claimed(&listing);
        let want = Reference {
            listing,
            bytes,
            data_sectors,
        };
        (crashed, model, want)
    }

    /// `boot → read three files → list → create → force`.
    fn session(&self, state: (SimDisk, Model), policy: IoPolicy, _: usize) -> (SimDisk, Model) {
        support::session(state, config(policy), |v, _, model| {
            for name in PROBES {
                let mut f = v.open(name, None)?;
                v.read_file(&mut f)?;
            }
            v.list("")?;
            model.change(NEW, Some(content(93, 1200)));
            v.create(NEW, &content(93, 1200))?;
            v.force()?;
            model.committed();
            Ok(())
        })
    }

    /// Boots the disk and holds it against the reference: first while
    /// nothing has settled, then settled. Undamaged: no crash so far left
    /// a damaged sector for a read to scrub.
    fn check(&self, (disk, model): (SimDisk, Model), want: &Reference, point: &Point) {
        let (acked, undamaged) = (point.acked, point.tail == 0);
        let (ctx, policy) = (&point.to_string(), point.policy);
        if point.k.is_none() {
            let w = point.w;
            assert!(w > 40, "the script writes recovery plus a create: {w}");
        }
        let power_on = disk.stats().sectors_written;
        let mut v = support::boot(disk, config(policy), ctx);
        let listing = v.list("").unwrap_or_else(|e| panic!("{ctx}: {e}"));
        let new_versions = listing.iter().filter(|(n, _)| n.name == NEW).count() as u32;
        assert!(
            new_versions >= acked,
            "{ctx}: an acknowledged create is gone"
        );
        assert_eq!(without_new(listing.clone()), want.listing, "{ctx}: listing");
        let mut bytes = contents(&mut v, &listing, ctx);
        bytes.retain(|n, data| {
            assert!(n.name != NEW || *data == content(93, 1200), "{ctx}: {n}");
            n.name != NEW
        });
        assert_eq!(bytes, want.bytes, "{ctx}: contents");
        if undamaged {
            let written = v.disk_stats().sectors_written - power_on;
            assert_eq!(written, 0, "{ctx}: boot and reads wrote");
        }

        oracles(&mut v, config(policy), &model, ctx);
        assert_eq!(
            v.free_sectors() + claimed(&listing),
            want.data_sectors,
            "{ctx}: free map"
        );
        // And it is a working volume.
        v.create("restart/after", b"recovered").unwrap();
        v.force().unwrap();
    }
}

#[test]
fn every_crash_between_power_on_and_the_first_durable_write_recovers() {
    Sweep::default().run(&Restart).finish();
}
