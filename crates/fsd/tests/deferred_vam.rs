//! What boot leaves owed (ISSUES 15, 19 and 22): boot reads the log and
//! serves reads — through the log's images, before the free map exists —
//! without writing a sector; the first write pays the redo settle, and
//! the first operations that allocate or free are served from the
//! restart reserve, so the name-table walk waits for an allocation the
//! reserve cannot serve, for shutdown or for `settle_vam`, each exactly
//! once; and a settle or a walk that cannot finish sends the next boot
//! to the scavenger instead of stranding the volume.
//!
//! The phase-by-phase and microsecond account of boot + settle is pinned
//! next to the code, in `recovery.rs`'s unit tests, and every crash
//! point of a restart is enumerated in `restart_sweep.rs`; these tests
//! drive the public surface.

mod support;

use cedar_disk::{CpuModel, IoPolicy, SimDisk};
use cedar_fsd::{
    EngineConfig, EntryKind, FsdConfig, FsdEngine, FsdError, FsdVolume, RecoveryRung, Replica,
};
use cedar_vol::fs::FileSystem;
use support::{Model, Point, Script, Sweep};

const FILES: usize = 120;

fn config() -> FsdConfig {
    FsdConfig {
        nt_pages: 48,
        log_sectors: 160,
        cpu: CpuModel::DORADO,
        ..FsdConfig::default()
    }
}

fn config_as(policy: IoPolicy) -> FsdConfig {
    FsdConfig {
        io_policy: policy,
        ..config()
    }
}

fn name(i: usize) -> String {
    format!("dir{}/file{i:03}", i % 4)
}

/// Committed files under `dir<d>/`.
fn in_dir(d: usize) -> usize {
    (0..FILES - 3).filter(|i| i % 4 == d).count()
}

fn content(i: usize) -> Vec<u8> {
    vec![(i % 251) as u8; 200 + (i * 97) % 3000]
}

/// A volume with [`FILES`] committed files (three versions of `kept`
/// among them), a few creates the crash loses, and the plug pulled.
fn crashed() -> SimDisk {
    crashed_as(IoPolicy::default())
}

fn crashed_as(policy: IoPolicy) -> SimDisk {
    let mut v = FsdVolume::format(SimDisk::tiny(), config_as(policy)).unwrap();
    for i in 0..FILES - 3 {
        v.create(&name(i), &content(i)).unwrap();
    }
    for round in 0..3 {
        v.create("kept", &[round; 700]).unwrap();
    }
    v.force().unwrap();
    for i in 0..4 {
        v.create(&format!("lost{i}"), &[9u8; 600]).unwrap();
    }
    let mut d = v.into_disk();
    d.crash_now();
    d.reboot();
    d
}

fn boot(disk: &SimDisk) -> FsdVolume {
    boot_as(disk, IoPolicy::default())
}

fn boot_as(disk: &SimDisk, policy: IoPolicy) -> FsdVolume {
    let before = disk.stats();
    let (v, report) = FsdVolume::boot(disk.clone(), config_as(policy)).unwrap();
    assert!(report.vam_reconstructed, "a crash boot owes the walk");
    assert_eq!((report.files_scanned, report.vam_us), (0, 0));
    assert_eq!(v.vam_walk(), None);
    assert_eq!(v.redo_settle(), None, "and the redo settle");
    // Boot scrubs a sector a crash tore; on undamaged media it writes
    // nothing.
    if (0..disk.geometry().total_sectors()).all(|s| !disk.peek_damaged(s)) {
        assert_eq!(v.disk_stats().since(&before).sectors_written, 0);
    }
    v
}

/// Boot, then settle at once: what every other path is compared with.
fn eager(disk: &SimDisk) -> FsdVolume {
    let mut v = boot(disk);
    assert!(v.settle_vam().unwrap().is_some());
    v
}

#[test]
fn a_read_only_session_never_walks_and_the_first_creates_come_out_of_the_reserve() {
    let disk = crashed();
    let before = disk.stats();
    let mut v = boot(&disk);

    for i in [0, 17, 58, FILES - 4] {
        let mut f = v.open(&name(i), None).unwrap();
        assert_eq!(v.read_file(&mut f).unwrap(), content(i), "{}", name(i));
    }
    assert_eq!(v.list("dir2/").unwrap().len(), in_dir(2));
    assert!(matches!(v.open("lost0", None), Err(FsdError::NotFound(_))));
    v.advance_time(2_000_000).unwrap();
    v.force().unwrap();
    let read_only = v.disk_stats().since(&before);
    assert!(read_only.sectors_read > 0);
    assert_eq!(read_only.sectors_written, 0, "reads write nothing");
    assert_eq!(v.redo_settle(), None, "and settle nothing");

    // A link needs the new epoch (its uid, its log record), not a map.
    v.create_symlink("link", "[server]target").unwrap();
    let settle = v.redo_settle().expect("the first write pays the settle");
    v.force().unwrap();
    assert_eq!(v.redo_settle(), Some(settle), "exactly once");

    assert_eq!(v.vam_walk(), None, "nothing above needs a free map");
    let reserve = v
        .reserve()
        .expect("and the settle left the reserve recorded");
    assert_eq!(reserve.len, v.layout().reserve_sectors);
    assert_eq!(v.free_sectors(), 0, "nothing is known free yet");

    // The first create takes the reserve over and is served from it.
    let first = v.create("first", b"after the crash").unwrap().entry;
    assert_eq!(v.vam_walk(), None, "the first create does not walk");
    assert_eq!(v.reserve(), None, "the reserve is the allocator's now");
    assert_eq!(first.leader_addr, reserve.start);
    assert_eq!(
        first.run_table.runs(),
        [cedar_vol::Run::new(reserve.start + 1, 1)]
    );
    assert_eq!(v.free_sectors(), reserve.len - 2);
    v.create("second", b"no walk either").unwrap();
    v.delete("first", None).unwrap();
    assert_eq!(
        v.free_sectors(),
        reserve.len - 4,
        "shadow-held until the commit"
    );
    v.force().unwrap();
    assert_eq!(v.free_sectors(), reserve.len - 2);
    assert_eq!(v.vam_walk(), None);

    // The walk is still owed, and paid once: every committed entry, the
    // link and the create that outlived the delete.
    let walk = v.settle_vam().unwrap().expect("owed");
    assert_eq!(walk.files_scanned, FILES as u64 + 2);
    assert_eq!(v.free_sectors(), eager(&disk).free_sectors() - 2);
    assert_eq!(v.settle_vam().unwrap(), None);
    assert_eq!(v.vam_walk(), Some(walk));
    v.verify().unwrap();
}

/// Whichever mutation comes first pays the redo settle and takes the
/// reserve over — not the walk — and once the walk is paid the free map
/// is the one boot + `settle_vam` + the same mutation leaves, both sides
/// having forced. Shutdown saves the map, so it pays the walk itself.
/// (The clocks differ: the mutation's own lookup runs before the settle,
/// not after, so the half-second daemon lands elsewhere — between
/// `set_keep`'s two deletes, for one.)
#[test]
fn every_mutation_pays_the_settle_and_only_shutdown_the_walk() {
    type Mutation = fn(&mut FsdVolume);
    // (what, the mutation, entries it removes before the walk sees them)
    let mutations: [(&str, Mutation, u64); 5] = [
        ("delete", |v| v.delete(&name(5), None).unwrap(), 1),
        (
            "extend",
            |v| {
                let mut f = v.open(&name(6), None).unwrap();
                v.extend(&mut f, 3).unwrap();
            },
            0,
        ),
        (
            "truncate",
            |v| {
                let mut f = v.open(&name(7), None).unwrap();
                v.truncate(&mut f, 1).unwrap();
            },
            0,
        ),
        // Prunes two of the three versions: a delete underneath.
        ("set_keep", |v| v.set_keep("kept", 1).unwrap(), 2),
        ("shutdown", |v| v.shutdown().unwrap(), 0),
    ];
    let disk = crashed();
    for (what, mutate, removed) in mutations {
        let mut lazy = boot(&disk);
        mutate(&mut lazy);
        // Redo was paid, once.
        let settle = lazy.redo_settle();
        assert!(settle.is_some(), "{what} did not settle redo");
        assert_eq!(lazy.settle_redo().unwrap(), None, "{what}");
        assert_eq!(lazy.redo_settle(), settle, "{what}");
        if what == "shutdown" {
            assert!(lazy.reserve().is_some(), "saved with the map");
        } else {
            assert_eq!(lazy.vam_walk(), None, "{what} walked");
            assert_eq!(lazy.reserve(), None, "{what} left the reserve recorded");
        }
        let walk = lazy.settle_vam().unwrap().or(lazy.vam_walk());
        let scanned = walk.expect("paid by now").files_scanned;
        assert_eq!(scanned, FILES as u64 - removed, "{what}");

        let mut reference = eager(&disk);
        mutate(&mut reference);
        lazy.force().unwrap();
        reference.force().unwrap();
        assert_eq!(lazy.free_sectors(), reference.free_sectors(), "{what}");
        assert_eq!(lazy.shadow_sectors(), reference.shadow_sectors(), "{what}");
        lazy.verify().unwrap();
    }
}

/// What needs the new epoch but no free map pays the redo settle — the
/// sweep is on the platters before anything else is — and leaves the
/// walk owed.
#[test]
fn a_write_that_needs_no_free_map_pays_the_redo_settle_and_not_the_walk() {
    type Write = fn(&mut FsdVolume);
    let writes: [(&str, Write); 3] = [
        ("symlink + force", |v| {
            v.create_symlink("link", "[server]target").unwrap();
            v.force().unwrap();
        }),
        // The last-used refresh dirties a page; the daemon logs it.
        ("cached open + daemon", |v| {
            v.open("cache/c07", None).unwrap();
            v.advance_time(600_000).unwrap();
        }),
        // No frame ever carries the settle's own writes.
        ("replication tap", |v| {
            v.enable_repl_tap().unwrap();
            v.seal_repl_data_frame();
            assert!(v.take_repl_frames().is_empty());
        }),
    ];
    let mut v = FsdVolume::format(SimDisk::tiny(), config()).unwrap();
    for i in 0..40 {
        v.create_cached(&format!("cache/c{i:02}"), &content(i))
            .unwrap();
    }
    v.force().unwrap();
    let mut disk = v.into_disk();
    disk.crash_now();
    disk.reboot();
    let reference = eager(&disk).list("").unwrap().len();

    for (what, write) in writes {
        let mut v = boot(&disk);
        let before = v.disk_stats();
        write(&mut v);
        let settle = v.redo_settle();
        assert!(settle.is_some(), "{what} did not settle redo");
        assert_eq!(v.vam_walk(), None, "{what} walked");
        assert!(v.disk_stats().since(&before).sectors_written > 0, "{what}");
        // Once: the next writes find nothing owed.
        v.create_symlink("later", "[server]target").unwrap();
        v.force().unwrap();
        assert_eq!(v.settle_redo().unwrap(), None, "{what}");
        assert_eq!(v.redo_settle(), settle, "{what}");

        // What it committed is in the new epoch's log, over swept homes.
        let mut d = v.into_disk();
        d.crash_now();
        d.reboot();
        let mut v = boot(&d);
        let links = usize::from(what.starts_with("symlink")) + 1;
        assert_eq!(v.list("").unwrap().len(), reference + links, "{what}");
        v.verify().unwrap();
    }
}

/// A page cached from the log's images before the settle and dirtied
/// after it is diffed against the right baseline: only what the new
/// write changed reaches the new log, and the sectors it left alone are
/// at home by then — the old log, their only other copy, is gone.
#[test]
fn a_page_read_before_the_settle_and_dirtied_after_it_logs_the_right_baseline() {
    let disk = crashed();
    let mut v = boot(&disk);
    let mut expected: Vec<String> = v
        .list("")
        .unwrap()
        .iter()
        .map(|(n, _)| n.to_string())
        .collect();
    assert_eq!(v.redo_settle(), None, "the whole table was read while owed");

    let f = v.create(&name(50), b"a second version").unwrap();
    assert_eq!(f.name.version, 2);
    v.force().unwrap();
    let logged = v.commit_stats().images_logged;
    assert!(
        (1..=8).contains(&logged),
        "a diff against the committed image, not whole fresh pages: {logged}"
    );

    let mut d = v.into_disk();
    d.crash_now();
    d.reboot();
    let mut v = boot(&d);
    expected.push(f.name.to_string());
    expected.sort();
    let mut got: Vec<String> = v
        .list("")
        .unwrap()
        .iter()
        .map(|(n, _)| n.to_string())
        .collect();
    got.sort();
    assert_eq!(got, expected);
    for i in [0, 50, 51, FILES - 4] {
        let mut f = v.open(&name(i), Some(1)).unwrap();
        assert_eq!(v.read_file(&mut f).unwrap(), content(i), "{}", name(i));
    }
    v.settle_vam().unwrap();
    v.verify().unwrap();
}

#[test]
fn pages_dirtied_before_the_walk_are_walked_from_memory() {
    let mut v = FsdVolume::format(SimDisk::tiny(), config()).unwrap();
    for i in 0..40 {
        v.create_cached(&format!("cache/c{i:02}"), &content(i))
            .unwrap();
    }
    v.force().unwrap();
    let mut disk = v.into_disk();
    disk.crash_now();
    disk.reboot();

    let mut v = boot(&disk);
    v.advance_time(10_000).unwrap();
    // Opening a cached copy refreshes its last-used-time: a name-table
    // page is now dirty in memory, unforced, and the walk is still owed.
    let touched = v.open("cache/c07", None).unwrap().entry.kind;
    assert!(matches!(touched, EntryKind::CachedRemote { last_used } if last_used > 10_000));
    assert!(v.pending_meta_images() > 0);
    assert_eq!(v.vam_walk(), None);

    let walk = v.settle_vam().unwrap().expect("owed");
    assert_eq!(walk.files_scanned, 40);
    assert_eq!(v.free_sectors(), eager(&disk).free_sectors());
    // The walk's prefetch did not put the home copy back over the page.
    let (_, entry) = v
        .list("cache/c07")
        .unwrap()
        .pop()
        .expect("the cached copy is listed");
    assert_eq!(entry.kind, touched);
    v.verify().unwrap();
}

fn listing(v: &mut FsdVolume) -> Vec<String> {
    let l = v.list("").unwrap();
    l.iter().map(|(n, _)| n.to_string()).collect()
}

/// A read, then the first create after a crash, crashed at every write
/// index over the crash-sweep harness (`support`). At `k = 0` the crash
/// lands while the walk is owed, and deferral has written nothing; most
/// other points fall in the redo settle the create pays first, ahead of
/// the walk.
struct FirstCreate;

impl Script for FirstCreate {
    type Memory = Model;
    /// The settled volume's listing and free sectors.
    type Want = (Vec<String>, u32);

    fn fixture(&self, policy: IoPolicy) -> (SimDisk, Model, Self::Want) {
        let disk = crashed_as(policy);
        let mut reference = boot_as(&disk, policy);
        assert!(reference.settle_vam().unwrap().is_some());
        let want = (listing(&mut reference), reference.free_sectors());
        (disk, Model::of(&mut reference), want)
    }

    fn session(&self, state: (SimDisk, Model), policy: IoPolicy, _: usize) -> (SimDisk, Model) {
        support::session(state, config_as(policy), |v, _, _| {
            let mut f = v.open(&name(3), None)?;
            v.read_file(&mut f)?;
            v.create("doomed", &[1u8; 2000]).map(drop)
        })
    }

    fn check(&self, (d, model): (SimDisk, Model), (expected, free): &Self::Want, point: &Point) {
        let mut v = boot_as(&d, point.policy);
        assert_eq!(listing(&mut v), *expected);
        assert_eq!(v.settle_vam().unwrap().unwrap().files_scanned, FILES as u64);
        assert_eq!(v.free_sectors(), *free);
        v.verify().unwrap();
        support::oracles(&mut v, config_as(point.policy), &model, &point.to_string());
    }
}

#[test]
fn a_crash_while_owed_or_inside_the_first_create_owes_the_same_walk() {
    Sweep::default().run(&FirstCreate).finish();
}

/// A name-table leaf dead in both copies used to be found by boot's own
/// walk, which escalated to the scavenger on the spot. Now the walk that
/// finds it belongs to whoever pays it — here `settle_vam`, as shutdown
/// or an allocation the reserve cannot serve would: that gets a typed
/// error, and the boot pages carry the escalation to the next boot.
#[test]
fn a_dead_leaf_page_fails_whoever_pays_the_walk_and_scavenges_the_next_boot() {
    // Redo rewrites (and so heals) every page the log covers, so the
    // wound has to sit on a page the log does not hold: write the whole
    // table home with a clean shutdown, then crash after one more create
    // that touches only the last leaf.
    let mut v = FsdVolume::format(SimDisk::tiny(), config()).unwrap();
    for i in 0..FILES {
        v.create(&name(i), &content(i)).unwrap();
    }
    v.shutdown().unwrap();
    let (mut v, _) = FsdVolume::boot(v.into_disk(), config()).unwrap();
    v.create("zzz-last", b"invalidates the saved VAM").unwrap();
    v.force().unwrap();
    let mut disk = v.into_disk();
    disk.crash_now();
    disk.reboot();
    let layout = *boot(&disk).layout();
    let probe = name(0);
    let mut exercised = 0;
    for page in 1..layout.nt_pages {
        let mut wounded = disk.clone();
        for s in 0..2 {
            wounded.damage_sector(layout.nt_a_sector(page) + s);
            wounded.damage_sector(layout.nt_b_sector(page) + s);
        }
        let Ok((mut v, report)) = FsdVolume::boot(wounded, config()) else {
            continue;
        };
        // Only pages off boot's and the probe's path are interesting: a
        // dead root already escalates inside boot, as before.
        if report.rung == RecoveryRung::Scavenge {
            continue;
        }
        let Ok(mut f) = v.open(&probe, None) else {
            continue;
        };
        assert_eq!(v.read_file(&mut f).unwrap(), content(0));
        let err = match v.settle_vam() {
            // The page was not part of the tree at all.
            Ok(_) => continue,
            Err(e) => e,
        };
        exercised += 1;
        assert!(!err.is_crash(), "a typed media error, not a crash: {err}");
        assert_eq!(v.vam_walk(), None, "the walk stays owed");
        // The session keeps serving what it can, and keeps refusing what
        // needs the whole map.
        let mut f = v.open(&probe, None).unwrap();
        assert_eq!(v.read_file(&mut f).unwrap(), content(0));
        assert!(v.settle_vam().is_err());
        assert!(v.shutdown().is_err());

        // Next boot: rung 3 without being told, and a writable volume.
        let mut d = v.into_disk();
        d.crash_now();
        d.reboot();
        let (mut v, report) = FsdVolume::boot(d, config()).unwrap();
        assert_eq!(report.rung, RecoveryRung::Scavenge, "page {page}");
        let cause = &report.scavenge.as_ref().unwrap().cause;
        assert!(cause.contains("VAM walk failed"), "{cause}");
        v.verify().unwrap();
        assert_eq!(v.settle_vam().unwrap(), None, "the scavenger built the map");
        assert!(v.reserve().is_some(), "and set a reserve aside");
        v.create("after", b"needs a free map").unwrap();
        let mut f = v.open(&probe, None).unwrap();
        assert_eq!(v.read_file(&mut f).unwrap(), content(0));
        v.verify().unwrap();

        // And the boot after that is an ordinary one again.
        v.shutdown().unwrap();
        let (_, report) = FsdVolume::boot(v.into_disk(), config()).unwrap();
        assert_eq!(report.rung, RecoveryRung::Redo);
        assert!(!report.vam_reconstructed);
    }
    assert!(exercised >= 2, "only {exercised} leaf pages exercised");
}

/// The home sweep used to run inside boot, which escalated to the
/// scavenger when it ran out of spare sectors, and then inside the first
/// write. Now the images go home with their thirds, or all at once in
/// `settle_redo`: that gets the typed error, what was owed stays owed —
/// reads go on through the log's images — and the boot pages carry the
/// escalation to the next boot. A write after it cannot take the note
/// back.
#[test]
fn a_settle_out_of_spare_sectors_fails_and_scavenges_the_next_boot() {
    // A log big enough to hold every page image since the format, so the
    // settle has a whole tree's worth of homes to write.
    let config = FsdConfig {
        log_sectors: 600,
        ..config()
    };
    let mut v = FsdVolume::format(SimDisk::tiny(), config).unwrap();
    for i in 0..FILES {
        v.create(&name(i), &content(i)).unwrap();
    }
    v.force().unwrap();
    let mut disk = v.into_disk();
    disk.crash_now();
    disk.reboot();

    // The homes the sweep will write are the ones that differ from a
    // fully recovered image. Kill two more of them than there are
    // spares, from the table's last page down: the sweep remaps in
    // address order, so the two it cannot place are on the last page —
    // past the end of the scavenger's tightly packed rebuild, which
    // inherits the remap table for the rest.
    let (mut settled, _) = FsdVolume::boot(disk.clone(), config).unwrap();
    let listing = settled.list("").unwrap();
    settled.shutdown().unwrap();
    let layout = *settled.layout();
    let settled = settled.into_disk();
    let mut stale: Vec<u32> = (0..layout.nt_pages)
        .flat_map(|p| [layout.nt_a_sector(p), layout.nt_a_sector(p) + 1])
        .filter(|&s| disk.peek_data(s) != settled.peek_data(s))
        .collect();
    let spares = cedar_fsd::layout::SPARE_SECTORS as usize;
    assert!(
        stale.len() >= spares + 2,
        "only {} stale homes",
        stale.len()
    );
    for s in stale.split_off(stale.len() - spares - 2) {
        disk.hard_damage_sector(s);
    }

    let before = disk.stats();
    let (mut v, report) = FsdVolume::boot(disk, config).unwrap();
    assert!(report.rung < RecoveryRung::Scavenge);
    let err = v
        .settle_redo()
        .expect_err("the home writes run out of spare sectors");
    assert!(!err.is_crash(), "a typed media error, not a crash: {err}");
    assert_eq!(v.redo_settle(), None, "the epoch stays owed");
    assert_eq!(v.spare_entries().len(), spares);
    // The session keeps serving everything, through the log's images.
    assert_eq!(v.list("").unwrap(), listing);
    for i in [0, 57, FILES - 1] {
        let mut f = v.open(&name(i), None).unwrap();
        assert_eq!(v.read_file(&mut f).unwrap(), content(i), "{}", name(i));
    }
    // A write pays the epoch, which leaves the note standing; what it
    // commits does not survive the scavenge (a link has no leader).
    v.create_symlink("link", "[server]target").unwrap();
    let epoch = v.redo_settle().expect("the link paid the epoch");
    assert_eq!(epoch.home_us, 0);
    assert!(v.shutdown().is_err());
    assert!(v.disk_stats().since(&before).sectors_written > 0);

    // Next boot: rung 3 without being told, and a writable volume.
    let mut d = v.into_disk();
    d.crash_now();
    d.reboot();
    let (mut v, report) = FsdVolume::boot(d, config).unwrap();
    assert_eq!(report.rung, RecoveryRung::Scavenge);
    let cause = &report.scavenge.as_ref().unwrap().cause;
    assert!(cause.contains("could not settle"), "{cause}");
    v.verify().unwrap();
    assert_eq!(v.list("").unwrap().len(), FILES);
    v.create("after", b"needs the sweep").unwrap();
    let mut f = v.open(&name(57), None).unwrap();
    assert_eq!(v.read_file(&mut f).unwrap(), content(57));
    v.verify().unwrap();

    // And the boot after that is an ordinary one again.
    v.shutdown().unwrap();
    let (_, report) = FsdVolume::boot(v.into_disk(), config).unwrap();
    assert_eq!(report.rung, RecoveryRung::Redo);
    assert!(!report.vam_reconstructed);
}

#[test]
fn an_engine_started_on_an_owed_volume_serves_reads_and_pays_in_its_first_write() {
    let disk = crashed();
    let engine = FsdEngine::start(boot(&disk), EngineConfig::default()).unwrap();
    assert_eq!(engine.stats().free_sectors, 0, "nothing has walked yet");
    assert_eq!(engine.read(&name(11)).unwrap(), content(11));
    assert_eq!(engine.list("dir1/").unwrap().len(), in_dir(1));
    assert_eq!(engine.open("kept").unwrap().version, 3);

    engine.create("fresh", b"the log-writer pays").unwrap();
    assert!(
        engine.stats().free_sectors > 0,
        "what is left of the reserve"
    );
    assert_eq!(engine.read("fresh").unwrap(), b"the log-writer pays");
    let mut v = engine.shutdown().unwrap();
    assert!(v.redo_settle().is_some(), "the settle, not the walk");
    assert_eq!(v.vam_walk(), None);
    let walk = v.settle_vam().unwrap().expect("still owed");
    assert_eq!(walk.files_scanned, FILES as u64 + 1);
    v.verify().unwrap();
}

#[test]
fn a_promoted_replica_reads_and_creates_without_a_walk() {
    let mut primary = FsdVolume::format(SimDisk::tiny(), config()).unwrap();
    for i in 0..30 {
        primary.create(&name(i), &content(i)).unwrap();
    }
    let mut replica = Replica::install(&mut primary, config()).unwrap();
    primary.create("shipped", b"after the install").unwrap();
    primary.force().unwrap();
    for frame in primary.take_repl_frames() {
        replica.receive_apply(frame).unwrap();
    }

    let (mut v, report) = replica.promote().unwrap();
    assert!(report.vam_reconstructed, "failover owes the walk");
    assert_eq!((report.files_scanned, report.vam_us), (0, 0));
    let mut f = v.open("shipped", None).unwrap();
    assert_eq!(v.read_file(&mut f).unwrap(), b"after the install");
    assert_eq!(v.vam_walk(), None);
    // The primary's reserve came over with its boot page, and the
    // primary never allocated inside it.
    let reserve = report.reserve.expect("shipped verbatim");
    let created = v.create("new-primary", b"out of the reserve").unwrap();
    assert_eq!(created.entry.leader_addr, reserve.start);
    assert_eq!(v.vam_walk(), None, "failover's first create does not walk");
    assert_eq!(v.settle_vam().unwrap().unwrap().files_scanned, 32);
    v.verify().unwrap();
}

/// The walk-failed note is about the primary's own platters. The boot
/// pages it is written on are mirrored to the replica like every other
/// unlogged write, so the note has to be taken off on the way out: a
/// replica whose name table is whole must not be sent to the scavenger
/// — least of all in the one case replication exists for.
#[test]
fn a_replica_of_a_wounded_primary_promotes_without_a_scavenge() {
    let disk = crashed();
    let layout = *boot(&disk).layout();
    let mut exercised = 0;
    for page in 1..layout.nt_pages {
        let mut primary = boot(&disk);
        let mut replica = Replica::install(&mut primary, config()).unwrap();
        for s in 0..2 {
            primary
                .disk_mut()
                .damage_sector(layout.nt_a_sector(page) + s);
            primary
                .disk_mut()
                .damage_sector(layout.nt_b_sector(page) + s);
        }
        if primary.settle_vam().is_ok() {
            continue; // Not a page of the tree.
        }
        // The wounded session can still commit what needs no free map.
        if primary.create_symlink("link", "[server]target").is_err() {
            continue; // The link's own leaf is the dead one.
        }
        primary.force().unwrap();
        primary.seal_repl_data_frame();
        let frames = primary.take_repl_frames();
        let ships_a_boot_page = |f: &cedar_fsd::ReplFrame| {
            let mut writes = f.data.iter();
            writes.any(|w| w.addr == layout.boot_a || w.addr == layout.boot_b)
        };
        assert!(
            frames.iter().any(ships_a_boot_page),
            "the note's boot-page write is in the stream"
        );
        for frame in frames {
            replica.receive_apply(frame).unwrap();
        }
        exercised += 1;

        let (mut v, report) = replica.promote().unwrap();
        assert!(report.rung < RecoveryRung::Scavenge, "page {page}");
        assert!(
            report.vam_reconstructed,
            "the replica owes an ordinary walk"
        );
        v.open("link", None).unwrap();
        v.create("after", b"out of the reserve").unwrap();
        let walk = v.settle_vam().unwrap().expect("owed, and payable here");
        assert_eq!(walk.files_scanned, FILES as u64 + 2);
        v.verify().unwrap();

        // The primary itself still scavenges when it comes back.
        let mut d = primary.into_disk();
        d.crash_now();
        d.reboot();
        let (_, report) = FsdVolume::boot(d, config()).unwrap();
        assert_eq!(report.rung, RecoveryRung::Scavenge, "page {page}");
    }
    assert!(exercised >= 2, "only {exercised} leaf pages exercised");
}

/// ISSUE 15 bugfix: `delete` and `create` used to clear the saved-VAM
/// flag before looking at their arguments.
#[test]
fn an_op_that_fails_on_its_arguments_neither_invalidates_nor_walks() {
    let mut v = FsdVolume::format(SimDisk::tiny(), config()).unwrap();
    let before = v.disk_stats();
    assert!(matches!(
        v.delete("missing", None),
        Err(FsdError::NotFound(_))
    ));
    assert!(matches!(v.create("", b"x"), Err(FsdError::BadName(_))));
    assert_eq!(v.disk_stats().since(&before).total_ops(), 0, "zero I/O");
    let mut d = v.into_disk();
    d.crash_now();
    d.reboot();
    let (_, report) = FsdVolume::boot(d, config()).unwrap();
    assert!(!report.vam_reconstructed, "the saved VAM is still good");

    // After a crash boot the same two mistakes leave the walk owed.
    let mut v = boot(&crashed());
    assert!(matches!(
        v.delete("missing", None),
        Err(FsdError::NotFound(_))
    ));
    assert!(matches!(v.create("", b"x"), Err(FsdError::BadName(_))));
    assert_eq!(v.vam_walk(), None);
    assert_eq!(v.free_sectors(), 0);
}
