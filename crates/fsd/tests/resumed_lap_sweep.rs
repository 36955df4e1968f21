//! Every crash of the session that laps a resumed log, enumerated.
//!
//! Boot resumes the log it scanned: the first write appends behind the
//! last complete commit group, and the images the old records hold go
//! home when the writer next enters their third (§5.3), not before. The
//! fixture is `restart_sweep`'s crashed volume (`support::crashed_restart`)
//! torn a third of the way into a third, so that its chain holds
//! name-table sector images and leader images in all three thirds. The session boots it and creates, deletes and forces
//! until the writer has entered every third once and wrapped: every owed
//! image goes home with its third, some under a page that went home
//! whole first (the creates land next to the fixture's files, on the
//! pages the log owes), some overtaken by a newer record of their sector.
//!
//! Each point, and each restart of a crashed restart, is held against
//! `restart_sweep`'s oracles — the listing and the bytes before anything
//! settles — then against the shared ones (`support::oracles`, which
//! settle the walk) and the free space the reference volume has.

mod support;

use cedar_disk::{IoPolicy, SimDisk};
use cedar_fsd::log::{scan_records, Log, PageTarget, DATA_START};
use cedar_fsd::{FsdLayout, FsdVolume, SpareMap};
use std::collections::{BTreeMap, BTreeSet};
use support::{base, claimed, config, content, crashed_restart, oracles, Listing, Model, OFF};
use support::{Point, Script, Sweep};

/// Forces in the session: enough to lap the log once from wherever the
/// crash left the writer (the session asserts it did).
const FORCES: usize = 14;

/// The third of the log the next record starts in.
fn third(v: &FsdVolume) -> u32 {
    let layout = v.layout();
    let len = (layout.log_sectors - DATA_START) / 3;
    ((v.next_log_sector() - layout.log_start - DATA_START) / len).min(2)
}

/// The listing and the bytes of every file in it, links aside.
fn snapshot(v: &mut FsdVolume, ctx: &str) -> (Listing, BTreeMap<String, Vec<u8>>) {
    let listing = v.list("").unwrap_or_else(|e| panic!("{ctx}: {e}"));
    let mut bytes = BTreeMap::new();
    for (name, entry) in &listing {
        if entry.leader_addr == 0 {
            continue;
        }
        let read = v
            .open(&name.name, Some(name.version))
            .and_then(|mut f| v.read_file(&mut f));
        let data = read.unwrap_or_else(|e| panic!("{ctx}: {name}: {e}"));
        bytes.insert(name.name.clone(), data);
    }
    (listing, bytes)
}

struct ResumedLap;

impl Script for ResumedLap {
    type Memory = Model;
    /// Free sectors plus the sectors the listing claims, of the settled
    /// reference: a constant of the volume.
    type Want = u32;
    const RESTARTS: bool = true;

    fn fixture(&self, policy: IoPolicy) -> (SimDisk, Model, u32) {
        let mut crashed = crashed_restart(policy, 20);
        // The chain the restart owes: records in every third, name-table
        // sectors and leaders among their images.
        let c = config();
        let layout = FsdLayout::compute(crashed.geometry(), c.nt_pages, c.log_sectors);
        let mut spare = SpareMap::for_layout(&layout);
        let meta = Log::read_meta(&mut crashed, &mut spare, layout.log_start).unwrap();
        let (start, sectors) = (layout.log_start, layout.log_sectors);
        let chain = scan_records(&mut crashed, start, sectors, &spare, &meta).unwrap();
        let len = (sectors - DATA_START) / 3;
        let thirds: BTreeSet<u32> = chain
            .iter()
            .map(|r| (r.offset - DATA_START) / len)
            .collect();
        assert_eq!(thirds.len(), 3, "owed in every third: {thirds:?}");
        let images = chain.iter().flat_map(|r| &r.images);
        let leaders = images.filter(|(t, _)| matches!(t, PageTarget::Leader { .. }));
        assert!(leaders.count() > 0, "leaders owed");

        let mut v = support::boot(crashed.clone(), config(), OFF, "reference");
        v.settle_vam().unwrap().expect("a crash boot owes the walk");
        let model = Model::of(&mut v);
        let listing = v.list("").unwrap();
        let data_sectors = v.free_sectors() + claimed(&listing);
        (crashed, model, data_sectors)
    }

    /// Boot, then forces of two creates and a delete each — the creates
    /// next to the fixture's files, the deletes of fixture files that are
    /// still there — until the log has lapped.
    fn session(&self, state: (SimDisk, Model), round: usize) -> (SimDisk, Model) {
        support::session(state, config(), OFF, |v, _, model| {
            let mut entered = BTreeSet::new();
            let mut wrapped = false;
            for f in 0..FORCES {
                for k in 0..2 {
                    let i = 2 * f + k;
                    let name = format!("{}r{round}", base(i % 36));
                    let data = content(100 + i, 300 + (i * 173) % 1400);
                    model.change(&name, Some(data.clone()));
                    v.create(&name, &data)?;
                }
                let gone = base(2 * f + 1);
                if v.open(&gone, None).is_ok() {
                    model.change(&gone, None);
                    v.delete(&gone, None)?;
                }
                let (before, at) = (v.next_log_sector(), third(v));
                v.force()?;
                model.committed();
                wrapped |= v.next_log_sector() < before;
                entered.insert(at);
            }
            assert!(wrapped && entered.len() == 3, "no lap: {entered:?}");
            Ok(())
        })
    }

    fn check(&self, (disk, model): (SimDisk, Model), data_sectors: &u32, point: &Point) {
        let ctx = &point.to_string();
        if point.k.is_none() {
            assert_eq!(point.w, 291, "{ctx}: the session's sector writes moved");
        }
        let mut v = support::boot(disk, config(), OFF, ctx);
        // Before anything settles: what the owed images and the homes
        // show together is a state the model allows.
        let (listing, mut bytes) = snapshot(&mut v, ctx);
        for (name, states) in &model.states {
            let found = bytes.remove(name);
            assert!(
                model.allows(name, &found),
                "{ctx}: {name} before the settle matches none of its {} states",
                states.len()
            );
        }
        assert!(bytes.is_empty(), "{ctx}: unknown files {:?}", bytes.keys());
        oracles(&mut v, config(), OFF, &model, ctx);
        assert_eq!(
            snapshot(&mut v, ctx).0,
            listing,
            "{ctx}: the settle moved the listing"
        );
        assert_eq!(
            v.free_sectors() + claimed(&listing),
            *data_sectors,
            "{ctx}: free map"
        );
    }
}

#[test]
fn every_crash_of_a_session_that_laps_the_resumed_log_recovers() {
    Sweep::default().run(&ResumedLap).finish();
}
