//! Every crash of a replica applying a frame, enumerated: a replica is
//! a volume too, and a crash inside its apply must leave it at a commit
//! boundary, as a crash inside a force leaves the primary.
//!
//! The fixture is a tiny volume with six committed files and a replica
//! installed from it, then one frame of thirty creates sealed by one
//! force: one record and the creates' data writes. The frame reaches the
//! replica two ways:
//!
//! - `Sync`: `receive_apply`, the sync ship's path;
//! - `SemiSync`: buffered by `receive` at the fixture, then applied by
//!   `try_promote`, as a failover promotes: the buffered frame's apply,
//!   then the crash boot. A crash inside either hands the disk back.
//!
//! The apply runs over the crash-sweep harness (`support`): crashed at
//! every sector write, torn tails 0–2, both policies. Each point boots
//! the replica's disk as `promote` does and holds it to the shared
//! oracles (the six files read back, the tree checks out, the free map
//! is exact, a rung-3 scavenge of a clone resurrects nothing). The frame
//! lands whole or not at all, and whole once the replica's cursor has
//! passed it or the promotion has finished.

mod support;

use cedar_disk::{CpuModel, IoPolicy, SimDisk, SECTOR_BYTES};
use cedar_fsd::repl::replica::ReplicaApplyError;
use cedar_fsd::{FsdConfig, FsdVolume, ReplFrame, Replica};
use support::{content, oracles, Model, Point, Script, Sweep, OFF};

/// The files committed before the replica is installed.
const FILES: usize = 6;

/// The creates the frame carries.
const BURST: usize = 30;

/// The replication tests' volume.
fn config() -> FsdConfig {
    FsdConfig {
        nt_pages: 16,
        log_sectors: 128,
        cpu: CpuModel::FREE,
        ..FsdConfig::default()
    }
}

fn burst(i: usize) -> String {
    format!("burst/b{i:02}")
}

/// How the frame reaches the replica.
#[derive(Clone, Copy, Debug)]
enum Ship {
    /// Received and applied at once.
    Sync,
    /// Buffered at receipt, applied by promotion.
    SemiSync,
}

struct ReplicaApply(Ship);

/// The replica (holding a blank disk in place of the one swept), the
/// model, the frame as sealed, and whether the frame is known applied.
type Memory = (Replica, Model, ReplFrame, bool);

impl Script for ReplicaApply {
    type Memory = Memory;
    type Want = ();

    fn label(&self) -> String {
        format!("{:?} ", self.0)
    }

    /// The replica's disk; the model holds the six files committed and
    /// the thirty in flight.
    fn fixture(&self, policy: IoPolicy) -> (SimDisk, Memory, ()) {
        let mut disk = SimDisk::tiny();
        disk.set_io_policy(policy);
        let mut primary = FsdVolume::format(disk, config()).unwrap();
        // The commit interval off: the fixture's force is its only
        // commit point.
        primary.set_commit_interval(OFF);
        for i in 0..FILES {
            let name = format!("base/f{i}");
            primary.create(&name, &content(i, 700)).unwrap();
        }
        let mut replica = Replica::install(&mut primary, config()).unwrap();
        let mut model = Model::of(&mut primary);
        assert_eq!(model.states.len(), FILES);
        for i in 0..BURST {
            let data = content(100 + i, 300);
            model.change(&burst(i), Some(data.clone()));
            primary.create(&burst(i), &data).unwrap();
        }
        primary.force().unwrap();
        let mut frames = primary.take_repl_frames();
        assert_eq!(frames.len(), 1, "one force seals one frame");
        let frame = frames.remove(0);
        assert_eq!(frame.records.len(), 1, "one record");
        if let Ship::SemiSync = self.0 {
            replica.receive(frame.clone()).unwrap();
        }
        let disk = std::mem::replace(replica.disk_mut(), SimDisk::tiny());
        (disk, (replica, model, frame, false), ())
    }

    fn session(&self, (disk, memory): (SimDisk, Memory), _: usize) -> (SimDisk, Memory) {
        let (mut replica, model, frame, _) = memory;
        let (disk, applied) = match self.0 {
            Ship::Sync => {
                *replica.disk_mut() = disk;
                if let Err(e) = replica.receive_apply(frame.clone()) {
                    let crashed = matches!(&e, ReplicaApplyError::Fsd(e) if e.is_crash());
                    assert!(crashed, "apply: {e}");
                }
                let applied = replica.cursor() >= frame.id;
                (
                    std::mem::replace(replica.disk_mut(), SimDisk::tiny()),
                    applied,
                )
            }
            Ship::SemiSync => {
                let mut promoting = replica.clone();
                *promoting.disk_mut() = disk;
                match promoting.try_promote() {
                    Ok((v, _)) => (v.into_disk(), true),
                    Err((e, disk)) => {
                        assert!(e.is_crash(), "promote: {e}");
                        (disk, false)
                    }
                }
            }
        };
        (disk, (replica, model, frame, applied))
    }

    /// Boots the disk as `promote` does, then the frame's atomicity and
    /// the shared oracles.
    fn check(&self, (disk, (_, model, frame, applied)): (SimDisk, Memory), _: &(), point: &Point) {
        let (ctx, config) = (&point.to_string(), config());
        if point.k.is_none() {
            let record: usize = frame.records.iter().map(|(_, r)| r.len()).sum();
            let w = frame.data.len() + record / SECTOR_BYTES;
            assert_eq!(
                point.w, w as u64,
                "{ctx}: the journal's writes and the record, no home"
            );
        }
        let mut v = support::boot(disk, config, OFF, ctx);
        let listing = v.list("").unwrap_or_else(|e| panic!("{ctx}: list: {e}"));
        let landed = listing
            .iter()
            .filter(|(n, _)| n.name.starts_with("burst/"))
            .count();
        assert!(
            [0, BURST].contains(&landed),
            "{ctx}: {landed} of the frame's {BURST} creates landed"
        );
        if applied {
            assert_eq!(landed, BURST, "{ctx}: a frame applied is not there");
        }
        oracles(&mut v, config, OFF, &model, ctx);
    }
}

#[test]
fn every_crash_of_a_replica_applying_a_frame_leaves_a_commit_boundary() {
    Sweep::default()
        .run(&ReplicaApply(Ship::Sync))
        .run(&ReplicaApply(Ship::SemiSync))
        .finish();
}
