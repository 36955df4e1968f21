//! The crash-sweep harness: one enumerator and one library of oracles
//! for the tests that crash a script at each of its sector writes (§5.3:
//! a force torn anywhere, with one or two consecutive sectors damaged,
//! recovers to a commit boundary).
//!
//! A [`Script`] is a fixture, a session run on it until it ends or an
//! armed crash fires, and the checks after the last session. For each
//! policy, set on the disk the fixture formats (the disk keeps it
//! through every clone, crash and reboot), [`Sweep::run`] replays the
//! uncrashed session to count its sector writes `W` (a replay from a
//! second fixture must end on the same platter digest), then crashes it
//! at every `k ∈ 0..=W` with torn tails 0–2: the crash must fire exactly
//! when `k < W`. A session that boots whatever disk it is handed
//! ([`Script::RESTARTS`]) also has the restart of each crashed restart
//! with `k % 5 == tail` crashed, at `0` and `W/2`. A failing point neither stops the sweep nor skips its restarts:
//! [`Sweep::finish`] panics once, with the count, the first few and the
//! replay command. [`oracles`] are the checks every volume-level script
//! shares, and [`OnVolume`] is the volume-level script itself: boot, the
//! session, boot again, the oracles.

// Each sweep uses its own part of this module.
#![allow(dead_code)]

use cedar_disk::clock::Micros;
use cedar_disk::{CpuModel, CrashPlan, IoPolicy, SimDisk, SECTOR_BYTES};
use cedar_fsd::{
    FileEntry, FsdConfig, FsdError, FsdVolume, LeaderPage, RecoveryReport, RecoveryRung,
};
use cedar_vol::{FileName, Run, Vam};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{self, AssertUnwindSafe};
use std::{fmt, sync::Once};

/// Two legal orders of the writes inside one barrier window: the log
/// protocol must not depend on which one the disk runs.
pub const POLICIES: [IoPolicy; 2] = [IoPolicy::InOrder, IoPolicy::Satf];

/// The sweeps' tiny volume.
pub fn config() -> FsdConfig {
    FsdConfig {
        nt_pages: 24,
        log_sectors: 183,
        cpu: CpuModel::DORADO,
        ..FsdConfig::default()
    }
}

/// The sweeps' commit interval: switched off, so a script's own forces
/// are its only commit points and the in-flight windows are as wide as
/// they can be. A volume comes up from every format and boot at the
/// default interval; [`format`], [`session`] and [`boot`] set this one.
pub const OFF: Micros = Micros::MAX;

/// The sweeps' tiny volume on a blank disk scheduling under `policy`,
/// its commit interval [`OFF`].
pub fn format(policy: IoPolicy) -> FsdVolume {
    let mut disk = SimDisk::tiny();
    disk.set_io_policy(policy);
    let mut v = FsdVolume::format(disk, config()).unwrap();
    v.set_commit_interval(OFF);
    v
}

/// `len` bytes of file content, distinct per `tag`.
pub fn content(tag: usize, len: usize) -> Vec<u8> {
    (0..len).map(|b| (b * 7 + tag * 13) as u8 | 1).collect()
}

pub fn pages(tag: usize, pages: usize) -> Vec<u8> {
    content(tag, pages * SECTOR_BYTES)
}

pub fn base(i: usize) -> String {
    format!("base/f{i:02}")
}

/// The end of a crashed fixture: a create (`lost/a`, content `tag`) and
/// a delete (`base/f16`) whose force the crash tears after four sector
/// writes, one sector damaged. Both are lost.
pub fn tear_last_force(mut v: FsdVolume, tag: usize) -> SimDisk {
    v.create("lost/a", &content(tag, 700)).unwrap();
    v.delete(&base(16), None).unwrap();
    v.disk_mut().schedule_crash(CrashPlan {
        after_sector_writes: 4,
        damaged_tail: 1,
    });
    let torn = v.force().expect_err("the crash lands inside the force");
    assert!(torn.is_crash(), "{torn}");
    let mut disk = v.into_disk();
    disk.reboot();
    disk
}

/// Read by the restart scripts: the extended file, the truncated one,
/// and the one whose data lies over a deleted file's leader.
pub const RESTART_PROBES: [&str; 3] = ["base/f31", "base/f32", "reuse/big"];

/// A crashed volume that owes its restart everything a log can: pages
/// dirtied by creates and deletes; a file extended and one truncated
/// after their creates (the logged leader is newer than the home one); a
/// deleted pair whose sectors a later create reused, one old leader
/// sector under the new file's leader and one under its data (the two
/// ways a reallocation list keeps a logged leader off a sector); a log
/// that has lapped its region; and a torn tail record
/// ([`tear_last_force`]), torn at least `into_third` sectors into the
/// third the writer is in (0: wherever there is room for it).
pub fn crashed_restart(policy: IoPolicy, into_third: u32) -> SimDisk {
    let mut v = format(policy);
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
    let mut grown = v.open(RESTART_PROBES[0], None).unwrap();
    let old_pages = grown.pages();
    v.extend(&mut grown, 2).unwrap();
    v.write_pages(&mut grown, old_pages, &content(90, 2 * SECTOR_BYTES))
        .unwrap();
    let mut cut = v.open(RESTART_PROBES[1], None).unwrap();
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
    // Reading f11, which ends where f12 began, makes the hole the free
    // run nearest the data the volume last touched.
    let mut left = v.open(&base(11), None).unwrap();
    let end = left.entry.run_table.runs().last().map(|r| r.end());
    assert_eq!(end, Some(a.leader_addr), "f11 ends where f12 began");
    v.read_file(&mut left).unwrap();
    let pages = a.run_table.pages() + 1 + b.run_table.pages();
    let big = v
        .create(
            RESTART_PROBES[2],
            &content(91, pages as usize * SECTOR_BYTES),
        )
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
    let room = |at: u32| (into_third..=third - 25).contains(&((at - log_start - 3) % third));
    while !room(v.next_log_sector()) {
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

pub type Listing = Vec<(FileName, FileEntry)>;

/// The sectors an entry claims: its leader, then its runs.
pub fn claims(entry: &FileEntry) -> Vec<Run> {
    let leader = (entry.leader_addr != 0).then(|| Run::new(entry.leader_addr, 1));
    let runs = entry.run_table.runs().iter().copied();
    leader.into_iter().chain(runs).collect()
}

/// Sectors a listing claims: each file's leader and its pages.
pub fn claimed(listing: &Listing) -> u32 {
    let sectors = |e: &FileEntry| u32::from(e.leader_addr != 0) + e.run_table.pages();
    listing.iter().map(|(_, e)| sectors(e)).sum()
}

/// One crash-sweep scenario. A session's state is the platters and its
/// `Memory`: the model its checks hold them against, or what they are
/// read back with.
pub trait Script {
    type Memory: Clone;
    /// What the checks compare with, built once with the fixture.
    type Want;
    /// A session boots whatever disk it is handed, so a crashed restart
    /// can be restarted and crashed again.
    const RESTARTS: bool = false;

    /// Names the variant in a failure report.
    fn label(&self) -> String {
        String::new()
    }

    /// The platters the sessions start from, on a disk scheduling under
    /// `policy`.
    fn fixture(&self, policy: IoPolicy) -> (SimDisk, Self::Memory, Self::Want);

    /// Runs session `round` (`1`: the restart of a crashed restart) until
    /// it ends or the armed crash fires; any error must be the crash's.
    fn session(&self, state: (SimDisk, Self::Memory), round: usize) -> (SimDisk, Self::Memory);

    /// Checks the state once the plug was pulled and the power is back.
    fn check(&self, state: (SimDisk, Self::Memory), want: &Self::Want, point: &Point);
}

/// The volume-level script, the shape most sweeps take: a session boots
/// whatever disk it is handed and runs [`OnVolume::run`] on the volume
/// ([`session`]); a check boots the disk again and holds it to the
/// shared [`oracles`], then to [`OnVolume::also`]. Every `OnVolume` is a
/// [`Script`] whose memory is a [`Model`].
pub trait OnVolume {
    /// What [`Self::also`] compares with, built once with the fixture.
    type Want;
    /// As [`Script::RESTARTS`].
    const RESTARTS: bool = false;

    /// Names the variant in a failure report.
    fn label(&self) -> String {
        String::new()
    }

    /// The volume's configuration.
    fn config(&self) -> FsdConfig {
        config()
    }

    /// The commit interval a session runs at.
    fn interval(&self) -> Micros {
        OFF
    }

    fn fixture(&self, policy: IoPolicy) -> (SimDisk, Model, Self::Want);

    /// Session `round` on the booted volume; an error must be the
    /// crash's.
    fn run(
        &self,
        v: &mut FsdVolume,
        report: &RecoveryReport,
        model: &mut Model,
        round: usize,
    ) -> Result<(), FsdError>;

    /// The script's own checks, after the shared oracles; `free` is the
    /// free map they built from the listing.
    fn also(
        &self,
        _v: &mut FsdVolume,
        _model: &Model,
        _want: &Self::Want,
        _free: Vam,
        _point: &Point,
    ) {
    }
}

impl<S: OnVolume> Script for S {
    type Memory = Model;
    type Want = S::Want;
    const RESTARTS: bool = S::RESTARTS;

    fn label(&self) -> String {
        OnVolume::label(self)
    }

    fn fixture(&self, policy: IoPolicy) -> (SimDisk, Model, S::Want) {
        OnVolume::fixture(self, policy)
    }

    fn session(&self, state: (SimDisk, Model), round: usize) -> (SimDisk, Model) {
        session(state, self.config(), self.interval(), |v, report, model| {
            self.run(v, report, model, round)
        })
    }

    fn check(&self, (disk, model): (SimDisk, Model), want: &S::Want, point: &Point) {
        let (ctx, config) = (&point.to_string(), self.config());
        let mut v = boot(disk, config, self.interval(), ctx);
        let free = oracles(&mut v, config, self.interval(), &model, ctx);
        self.also(&mut v, &model, want, free, point);
    }
}

/// Where a sweep crashed the script.
#[derive(Clone, Debug, Default)]
pub struct Point {
    pub label: String,
    pub policy: IoPolicy,
    /// Sector writes of the uncrashed session.
    pub w: u64,
    /// The first session's crash point; `None`: the uncrashed replay.
    pub k: Option<u64>,
    /// The second session's, in the restart of a crashed restart.
    pub again: Option<u64>,
    pub tail: u8,
    /// Sessions that ran to their end.
    pub acked: u32,
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{:?}", self.label, self.policy)?;
        match (self.k, self.again) {
            (None, _) => write!(f, " uninterrupted"),
            (Some(k), None) => write!(f, " k={k} tail={}", self.tail),
            (Some(k), Some(k2)) => write!(f, " k={k} tail={} k'={k2}", self.tail),
        }
    }
}

thread_local! {
    /// `Some` while a sweep point runs on this thread: its panic message
    /// goes here instead of to the output.
    static CAUGHT: RefCell<Option<String>> = const { RefCell::new(None) };
}

/// The failing points of every script a test sweeps.
#[derive(Default)]
pub struct Sweep {
    points: u64,
    failed: u64,
    first: Vec<String>,
}

impl Sweep {
    pub fn run<S: Script>(&mut self, script: &S) -> &mut Self {
        for policy in POLICIES {
            let (disk, memory, want) = script.fixture(policy);
            assert_eq!(
                disk.io_policy(),
                policy,
                "the fixture formats under the sweep's policy"
            );
            // One session with `plan` armed, the plug pulled, the power
            // back; and whether the crash fired.
            let session = |disk: &SimDisk, memory: &S::Memory, round, plan| {
                let mut disk = disk.clone();
                if let Some(plan) = plan {
                    disk.schedule_crash(plan);
                }
                let (mut disk, memory) = script.session((disk, memory.clone()), round);
                let fired = disk.is_crashed();
                disk.crash_now();
                disk.reboot();
                (disk, memory, fired)
            };
            let (done, left, _) = session(&disk, &memory, 0, None);
            let mut at = Point::default();
            (at.label, at.policy, at.acked) = (script.label(), policy, 1);
            at.w = done.stats().sectors_written - disk.stats().sectors_written;
            self.catch(at.to_string(), || {
                let (disk, memory, _) = script.fixture(policy);
                let (twice, _, _) = session(&disk, &memory, 0, None);
                let digests = (done.platter_digest(), twice.platter_digest());
                assert_eq!(digests.0, digests.1, "two uncrashed replays, two platters");
                script.check((done, left), &want, &at);
            });
            let w = at.w;
            for (k, tail) in (0..=w).flat_map(|k| (0..=2).map(move |tail| (k, tail))) {
                let plan = |after_sector_writes| {
                    let damaged_tail = tail;
                    Some(CrashPlan {
                        after_sector_writes,
                        damaged_tail,
                    })
                };
                let mut at = at.clone();
                (at.k, at.tail) = (Some(k), tail);
                let restart = S::RESTARTS && k % 5 == u64::from(tail);
                // Kept ahead of the checks, so that the restarts run, and
                // count, whether or not this point passes.
                let mut crashed = None;
                self.catch(at.to_string(), || {
                    let (disk, memory, fired) = session(&disk, &memory, 0, plan(k));
                    crashed = restart.then(|| (disk.clone(), memory.clone(), fired));
                    assert_eq!(fired, k < w, "a crash armed at k < W fires, at W not");
                    at.acked = u32::from(!fired);
                    script.check((disk, memory), &want, &at);
                });
                for k2 in [0, w / 2].into_iter().filter(|_| restart) {
                    at.again = Some(k2);
                    self.catch(at.to_string(), || {
                        let (disk, memory, fired) = crashed.as_ref().expect("the session ended");
                        let (disk, memory, again) = session(disk, memory, 1, plan(k2));
                        at.acked = u32::from(!fired) + u32::from(!again);
                        script.check((disk, memory), &want, &at);
                    });
                }
            }
        }
        self
    }

    /// Panics if any point failed.
    pub fn finish(&self) {
        let thread = std::thread::current();
        let (test, krate) = (thread.name().unwrap_or_default(), env!("CARGO_CRATE_NAME"));
        assert!(
            self.failed == 0,
            "{} of {} crash points failed; the first:\n{}\nreplay: cargo test --release \
             -p cedar-fsd --test {krate} -- --exact {test}",
            self.failed,
            self.points,
            self.first.join("\n"),
        );
    }

    /// Runs one point; a panic inside is counted and kept, not raised.
    fn catch(&mut self, point: String, f: impl FnOnce()) {
        static QUIET: Once = Once::new();
        QUIET.call_once(|| {
            let loud = panic::take_hook();
            panic::set_hook(Box::new(move |info| {
                let caught = CAUGHT.with_borrow_mut(|c| c.as_mut().map(|c| *c = info.to_string()));
                if caught.is_none() {
                    loud(info);
                }
            }));
        });
        self.points += 1;
        CAUGHT.set(Some(String::new()));
        let result = panic::catch_unwind(AssertUnwindSafe(f));
        let message = CAUGHT.take().unwrap_or_default().replace('\n', " ");
        if result.is_err() {
            self.failed += 1;
            if self.first.len() < 5 {
                self.first.push(format!("  {point}: {message}"));
            }
        }
    }
}

/// What each name may hold after a crash: every state it has been in
/// since its last acknowledged change, oldest first (`None`: absent). A
/// crash leaves what was in flight undecided for good; a later session's
/// commit decides only its own. A name the model has not heard of did
/// not exist.
#[derive(Clone, Default)]
pub struct Model {
    pub states: BTreeMap<String, Vec<Option<Vec<u8>>>>,
    /// Changes waiting for the next force.
    pub in_flight: BTreeSet<String>,
    /// Names whose unlogged data write the crash may have torn: they may
    /// also read back as a media error.
    pub torn_ok: BTreeSet<String>,
}

impl Model {
    /// The files of `v`, committed, symbolic links aside.
    pub fn of(v: &mut FsdVolume) -> Model {
        let mut model = Model::default();
        for (name, entry) in v.list("").unwrap() {
            if entry.leader_addr != 0 {
                let mut f = v.open(&name.name, Some(name.version)).unwrap();
                let data = v.read_file(&mut f).unwrap();
                model.states.insert(name.name, vec![Some(data)]);
            }
        }
        model
    }

    pub fn change(&mut self, name: &str, state: Option<Vec<u8>>) {
        let states = self.states.entry(name.to_string());
        states.or_insert_with(|| vec![None]).push(state);
        self.in_flight.insert(name.to_string());
    }

    pub fn committed(&mut self) {
        for name in std::mem::take(&mut self.in_flight) {
            if let Some(states) = self.states.get_mut(&name) {
                states.drain(..states.len() - 1);
            }
        }
    }

    /// A data write into a committed file is under way.
    pub fn writing(&mut self, name: &str, state: Vec<u8>) {
        assert!(!self.in_flight.contains(name), "{name} is also in flight");
        self.states.get_mut(name).expect("exists").push(Some(state));
        self.torn_ok.insert(name.to_string());
    }

    /// It returned: synchronous, so durable.
    pub fn written(&mut self, name: &str) {
        let states = self.states.get_mut(name).expect("exists");
        states.drain(..states.len() - 1);
        self.torn_ok.remove(name);
    }

    /// Deleted, and the delete committed: no state but absence.
    pub fn gone(&self, name: &str) -> bool {
        self.states.get(name).is_some_and(|s| s == &[None])
    }

    /// Whether `found` is one of the states `name` may be in.
    pub fn allows(&self, name: &str, found: &Option<Vec<u8>>) -> bool {
        self.states[name].contains(found)
    }
}

/// A volume-level session: boots the disk (the crash may fire inside
/// boot) and runs `script` on the volume at commit `interval`. What was
/// in flight when it stopped stays undecided in the model.
pub fn session(
    (disk, mut model): (SimDisk, Model),
    config: FsdConfig,
    interval: Micros,
    script: impl FnOnce(&mut FsdVolume, &RecoveryReport, &mut Model) -> Result<(), FsdError>,
) -> (SimDisk, Model) {
    let disk = match FsdVolume::try_boot(disk, config) {
        Err((e, disk)) => {
            assert!(e.is_crash(), "boot: {e}");
            disk
        }
        Ok((mut v, report)) => {
            v.set_commit_interval(interval);
            if let Err(e) = script(&mut v, &report, &mut model) {
                assert!(e.is_crash(), "script: {e}");
            }
            model.in_flight.clear();
            v.into_disk()
        }
    };
    (disk, model)
}

/// Boots `disk`, which must boot, at commit `interval`.
pub fn boot(disk: SimDisk, config: FsdConfig, interval: Micros, ctx: &str) -> FsdVolume {
    let (mut v, _) = FsdVolume::boot(disk, config).unwrap_or_else(|e| panic!("{ctx}: {e}"));
    v.set_commit_interval(interval);
    v
}

/// The shared oracles. Settles `v`, then: no sector is claimed twice and
/// free + claimed is the layout's constant; every file holds a state it
/// was acknowledged or in flight with; the tree checks out; and a rung-3
/// scavenge of a clone brings back no committed delete. Returns the free
/// map built from the listing. The clone runs at `v`'s commit `interval`.
pub fn oracles(
    v: &mut FsdVolume,
    config: FsdConfig,
    interval: Micros,
    model: &Model,
    ctx: &str,
) -> Vam {
    v.settle_vam().unwrap_or_else(|e| panic!("{ctx}: {e}"));
    let listing: Listing = v.list("").unwrap_or_else(|e| panic!("{ctx}: {e}"));
    let layout = *v.layout();

    // No sector belongs to two files, and the map says so.
    let mut owner: BTreeMap<u32, &FileName> = BTreeMap::new();
    let mut reference = layout.empty_vam();
    for (name, entry) in &listing {
        for run in claims(entry) {
            for sector in run.start..run.end() {
                assert!(
                    !layout.is_system(sector),
                    "{ctx}: {name} claims system sector {sector}"
                );
                if let Some(other) = owner.insert(sector, name) {
                    panic!("{ctx}: sector {sector} is claimed by {other} and by {name}");
                }
            }
            reference.allocate_run(run);
        }
    }
    assert_eq!(
        v.free_sectors(),
        reference.free_count(),
        "{ctx}: free count"
    );

    // Every file holds something it was acknowledged or in flight with.
    let mut seen: BTreeMap<String, Result<Vec<u8>, FsdError>> = BTreeMap::new();
    for (name, entry) in &listing {
        if entry.leader_addr == 0 {
            continue; // A symbolic link.
        }
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
    clone.damage_sector(layout.log_start);
    clone.damage_sector(layout.log_start + 2);
    clone.reboot();
    let (mut s, report) =
        FsdVolume::boot(clone, config).unwrap_or_else(|e| panic!("{ctx}: scavenge: {e}"));
    s.set_commit_interval(interval);
    assert_eq!(report.rung, RecoveryRung::Scavenge, "{ctx}");
    for (name, _) in s.list("").unwrap() {
        assert!(
            !model.gone(&name.name),
            "{ctx}: the scavenger brought back {name}, whose delete had committed"
        );
    }
    reference
}
