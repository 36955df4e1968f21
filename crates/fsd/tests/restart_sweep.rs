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
//! Since boot resumes the log, the first create writes no home either:
//! the owed images wait for their thirds (`resumed_lap_sweep.rs` crashes
//! the session that laps them home).

mod support;

use cedar_disk::{IoPolicy, SimDisk, SECTOR_BYTES};
use cedar_fsd::FsdVolume;
use cedar_vol::FileName;
use std::collections::BTreeMap;
use support::{base, claimed, config, content, crashed_restart, oracles};
use support::{Listing, Model, Point, Script, Sweep};

const NEW: &str = "restart/new";
use support::RESTART_PROBES as PROBES;

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
        let crashed = crashed_restart(policy, 0);
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
            // Boot pages (two), the create's leader and data, its
            // record (two transfers of seven sectors): no home at all.
            assert_eq!(w, 15, "the first write pays the epoch, not the sweep");
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
