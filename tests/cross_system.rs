//! Cross-system equivalence through the unified `FileSystem` trait: one
//! workload, every backend, the same observable contents — the file
//! systems differ in cost and robustness, never in semantics.
//!
//! The conformance harness replays a script against the in-memory model
//! (`cedar_workload::MemFs`) and against CFS, FSD, FFS, the FSD
//! group-commit scheduler, and the threaded FSD engine, then compares
//! the *visible state*: the sorted (name, length, contents) of every
//! live file. All backends are driven through the shared-reference
//! service trait — raw volumes ride behind a `SyncFs` mutex adapter.

use cedar_fs_repro::cfs::{CfsConfig, CfsVolume};
use cedar_fs_repro::disk::{CpuModel, SimDisk};
use cedar_fs_repro::ffs::{Ffs, FfsConfig};
use cedar_fs_repro::fsd::{CommitScheduler, EngineConfig, FsdConfig, FsdEngine, FsdVolume};
use cedar_vol::fs::{CedarFsError, FileSystem, FsBackend, SyncFs};
use cedar_workload::steps::{content_for, run, Step};
use cedar_workload::{makedo_workload, MakeDoParams, MemFs};
use std::sync::Arc;

fn cfs() -> CfsVolume {
    CfsVolume::format(
        SimDisk::tiny(),
        CfsConfig {
            nt_pages: 64,
            cpu: CpuModel::FREE,
            ..Default::default()
        },
    )
    .unwrap()
}

fn fsd() -> FsdVolume {
    FsdVolume::format(
        SimDisk::tiny(),
        FsdConfig {
            nt_pages: 96,
            log_sectors: 256,
            cpu: CpuModel::FREE,
            ..Default::default()
        },
    )
    .unwrap()
}

fn ffs() -> Ffs {
    Ffs::format(
        SimDisk::tiny(),
        FfsConfig {
            cpu: CpuModel::FREE,
        },
    )
    .unwrap()
}

/// Everything a client can observe: each live file's name, logical
/// length, and full contents, sorted by name. (Version numbers are
/// excluded — FFS has none.)
fn visible_state(fs: &dyn FileSystem) -> Vec<(String, u64, Vec<u8>)> {
    let infos = fs.list("").unwrap();
    infos
        .into_iter()
        .map(|i| {
            let data = fs.read(&i.name).unwrap();
            assert_eq!(data.len() as u64, i.bytes, "{}: length vs contents", i.name);
            (i.name, i.bytes, data)
        })
        .collect()
}

/// A script touching every trait verb, shaped so versioned and
/// version-less backends agree on the outcome (no delete of a
/// multi-version name).
fn conformance_script() -> Vec<Step> {
    let c = |name: &str, bytes: u64| Step::Create {
        name: name.into(),
        bytes,
    };
    vec![
        c("pkg/a.mesa", 700),
        c("pkg/b.mesa", 3000),
        c("etc/conf", 40),
        Step::Read {
            name: "pkg/a.mesa".into(),
        },
        Step::Touch {
            name: "pkg/b.mesa".into(),
        },
        // Overwrite: a new version on Cedar, a replacement on FFS —
        // either way the newest contents win.
        c("pkg/a.mesa", 900),
        Step::List {
            prefix: "pkg/".into(),
        },
        Step::Delete {
            name: "etc/conf".into(),
        },
        c("pkg/sub/c.bcd", 5000),
        Step::List { prefix: "".into() },
    ]
}

#[test]
fn conformance_script_equivalent_on_all_backends() {
    let script = conformance_script();

    let model = SyncFs::new(MemFs::default());
    run(&script, &model).unwrap();
    let want = visible_state(&model);
    assert_eq!(want.len(), 3, "a.mesa, b.mesa, sub/c.bcd");

    let cfs = SyncFs::new(cfs());
    let fsd = SyncFs::new(fsd());
    let ffs = SyncFs::new(ffs());
    let backends: [&dyn FileSystem; 3] = [&cfs, &fsd, &ffs];
    for fs in backends {
        let kind = fs.kind();
        run(&script, fs).unwrap();
        fs.sync().unwrap();
        assert_eq!(visible_state(fs), want, "visible state on {kind}");
        // The deleted single-version name is gone on every backend.
        assert!(
            matches!(fs.read("etc/conf"), Err(CedarFsError::NotFound(_))),
            "etc/conf must be deleted on {kind}"
        );
        // Contents equal the deterministic generator output.
        assert_eq!(
            fs.read("pkg/a.mesa").unwrap(),
            content_for("pkg/a.mesa", 900)
        );
    }

    // The scheduler is a fourth backend: same script, batch-committed,
    // same visible state.
    let sched = SyncFs::new(CommitScheduler::new(fsd2()));
    run(&script, &sched).unwrap();
    let vol = SyncFs::new(sched.into_inner().into_volume().unwrap());
    assert_eq!(visible_state(&vol), want, "visible state via scheduler");

    // And the threaded engine is a fifth: same script through the
    // log-writer pipeline, then read back from the raw volume it
    // returns.
    let engine = Arc::new(FsdEngine::start(fsd2(), EngineConfig::default()).unwrap());
    run(&script, engine.as_ref()).unwrap();
    assert_eq!(
        visible_state(engine.as_ref()),
        want,
        "visible state via engine"
    );
    let vol = SyncFs::new(FsdEngine::shutdown_arc(engine).unwrap());
    assert_eq!(visible_state(&vol), want, "visible state after engine");
}

/// A second FSD volume for the scheduler leg (fresh disk, same config).
fn fsd2() -> FsdVolume {
    fsd()
}

#[test]
fn makedo_final_state_identical_across_systems() {
    let params = MakeDoParams {
        sources: 8,
        interfaces: 12,
        rounds: 1,
        seed: 4,
    };
    let (setup, measured) = makedo_workload(params);

    let model = SyncFs::new(MemFs::default());
    run(&setup, &model).unwrap();
    run(&measured, &model).unwrap();
    let want = visible_state(&model);

    let cfs = SyncFs::new(cfs());
    let fsd = SyncFs::new(fsd());
    let ffs = SyncFs::new(ffs());
    let backends: [&dyn FileSystem; 3] = [&cfs, &fsd, &ffs];
    for fs in backends {
        let kind = fs.kind();
        run(&setup, fs).unwrap();
        run(&measured, fs).unwrap();
        assert_eq!(visible_state(fs), want, "final state on {kind}");
        assert_eq!(fs.list("pkg/").unwrap().len(), 16, "{kind}"); // Sources + outputs.
    }
}

#[test]
fn contents_survive_any_systems_full_cycle() {
    // Write → shutdown/sync → reboot → read, each system through its own
    // persistence path, all yielding the written bytes. (Boot and mount
    // are backend-specific, so this test uses the raw backend APIs.)
    let data = content_for("cycle", 7000);

    let mut cfs = CfsVolume::format(SimDisk::tiny(), CfsConfig::default()).unwrap();
    FsBackend::create(&mut cfs, "cycle", &data).unwrap();
    cfs.shutdown().unwrap();
    let (mut cfs, _) = CfsVolume::boot(cfs.into_disk(), CfsConfig::default()).unwrap();
    assert_eq!(FsBackend::read(&mut cfs, "cycle").unwrap(), data);

    let fsd_config = || FsdConfig {
        nt_pages: 64,
        log_sectors: 256,
        ..Default::default()
    };
    let mut fsd = FsdVolume::format(SimDisk::tiny(), fsd_config()).unwrap();
    FsBackend::create(&mut fsd, "cycle", &data).unwrap();
    fsd.shutdown().unwrap();
    let (mut fsd, _) = FsdVolume::boot(fsd.into_disk(), fsd_config()).unwrap();
    assert_eq!(FsBackend::read(&mut fsd, "cycle").unwrap(), data);

    let mut ffs = Ffs::format(SimDisk::tiny(), FfsConfig::default()).unwrap();
    FsBackend::create(&mut ffs, "cycle", &data).unwrap();
    FsBackend::sync(&mut ffs).unwrap();
    let mut ffs = Ffs::mount(ffs.into_disk(), FfsConfig::default()).unwrap();
    assert_eq!(FsBackend::read(&mut ffs, "cycle").unwrap(), data);
}

#[test]
fn read_of_an_empty_file_and_of_a_link() {
    // An empty file reads as empty everywhere. On FSD it costs no I/O at
    // all: the open is served from the cached name table and there is no
    // data access for the leader check to ride on (§5.7).
    let cfs = SyncFs::new(cfs());
    let fsd = SyncFs::new(fsd());
    let ffs = SyncFs::new(ffs());
    let backends: [&dyn FileSystem; 3] = [&cfs, &fsd, &ffs];
    for fs in backends {
        fs.create("d/empty", b"").unwrap();
        assert_eq!(fs.read("d/empty").unwrap(), b"", "{}", fs.kind());
    }
    let mut fsd = fsd.into_inner();
    fsd.force().unwrap(); // The leader is on disk only, not awaiting a write.
    let before = fsd.disk_stats();
    assert_eq!(FsBackend::read(&mut fsd, "d/empty").unwrap(), b"");
    assert_eq!(fsd.disk_stats().since(&before).total_ops(), 0);

    // A symbolic link is not a file: reading it is `WrongKind`, as
    // reading a directory is on FFS.
    fsd.create_symlink("d/link", "[server]<dir>target").unwrap();
    assert!(matches!(
        FsBackend::read(&mut fsd, "d/link"),
        Err(CedarFsError::WrongKind(_))
    ));
    assert_eq!(FsBackend::open(&mut fsd, "d/link").unwrap().bytes, 0);
}

#[test]
fn workload_steps_replay_deterministically() {
    // Two identical FSD volumes fed the same steps end in identical disk
    // states (the foundation of every measurement in this repo).
    let build = || {
        let vol = SyncFs::new(
            FsdVolume::format(
                SimDisk::tiny(),
                FsdConfig {
                    nt_pages: 64,
                    log_sectors: 256,
                    ..Default::default()
                },
            )
            .unwrap(),
        );
        let steps = vec![
            Step::Create {
                name: "a/x".into(),
                bytes: 900,
            },
            Step::Create {
                name: "a/y".into(),
                bytes: 3000,
            },
            Step::Delete { name: "a/x".into() },
            Step::List {
                prefix: "a/".into(),
            },
        ];
        run(&steps, &vol).unwrap();
        let mut vol = vol.into_inner();
        vol.force().unwrap();
        (vol.disk_stats(), vol.clock().now(), vol.free_sectors())
    };
    assert_eq!(build(), build());
}
