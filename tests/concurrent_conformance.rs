//! Concurrency conformance for the threaded FSD engine.
//!
//! Two obligations the single-threaded conformance suite cannot check:
//!
//! * **Equivalence under real interleaving** — N OS threads, each
//!   holding a clone of one shared engine's `Arc`, replay disjoint-namespace
//!   MakeDo scripts while mirroring every step into a mutex-wrapped
//!   in-memory model. Because namespaces are disjoint, any
//!   linearization of the two histories must agree file-by-file; the
//!   visible state (every live file's name, length, contents) is
//!   compared at group-commit boundaries — after the final `sync` and
//!   again on the raw volume the engine hands back at shutdown.
//!
//! * **Crash honesty** — group commit may *delay* durability but must
//!   never lie about it. With a machine crash scheduled mid-run, an
//!   operation the engine acknowledged (returned `Ok` — which happens
//!   only after its epoch's log force) must still be there after
//!   reboot + recovery; unacknowledged operations may vanish, and the
//!   recovered tree must verify clean.

use cedar_fs_repro::disk::{CpuModel, CrashPlan, SimClock, SimDisk};
use cedar_fs_repro::fsd::{EngineConfig, FsdConfig, FsdEngine, FsdVolume};
use cedar_vol::fs::{FileSystem, FsBackend, SyncFs};
use cedar_workload::steps::{content_for, run_step, WorkloadStats};
use cedar_workload::{multi_client_workload, MakeDoParams, MemFs, MultiClientParams};
use std::sync::Arc;

/// Everything a client can observe: each live file's name, logical
/// length, and full contents, sorted by name.
fn visible_state(fs: &dyn FileSystem) -> Vec<(String, u64, Vec<u8>)> {
    let infos = fs.list("").unwrap();
    infos
        .into_iter()
        .map(|i| {
            let data = fs.read(&i.name).unwrap();
            (i.name, i.bytes, data)
        })
        .collect()
}

#[test]
fn threaded_engine_matches_model_at_commit_boundaries() {
    let scripts = multi_client_workload(MultiClientParams {
        clients: 8,
        makedo: MakeDoParams {
            sources: 2,
            interfaces: 3,
            rounds: 1,
            seed: 7,
        },
        ..Default::default()
    });

    // Replay every setup phase on both trees, sequentially, so the
    // measured phase starts from one agreed state.
    let mut vol = FsdVolume::format(
        SimDisk::trident_t300(SimClock::new()),
        FsdConfig {
            log_sectors: 4096,
            cpu: CpuModel::FREE,
            ..Default::default()
        },
    )
    .unwrap();
    let model = Arc::new(SyncFs::new(MemFs::default()));
    let mut setup_stats = WorkloadStats::default();
    for c in &scripts {
        for s in &c.setup {
            run_step(s, model.as_ref(), &mut setup_stats).unwrap();
            let mut ignored = WorkloadStats::default();
            let sync = SyncFs::new(vol);
            run_step(s, &sync, &mut ignored).unwrap();
            vol = sync.into_inner();
        }
    }
    vol.force().unwrap();

    // One OS thread per client, each mirroring its steps into the
    // model as it drives the engine. Namespaces are disjoint, so the
    // mirrored history is a valid linearization of the threaded one.
    let engine = Arc::new(FsdEngine::start(vol, EngineConfig::default()).unwrap());
    let threads: Vec<_> = scripts
        .iter()
        .cloned()
        .map(|script| {
            let fs: Arc<dyn FileSystem> = engine.clone();
            let model = Arc::clone(&model);
            std::thread::spawn(move || {
                let mut stats = WorkloadStats::default();
                let mut mirror = WorkloadStats::default();
                for t in &script.steps {
                    run_step(&t.step, fs.as_ref(), &mut stats).unwrap();
                    run_step(&t.step, model.as_ref(), &mut mirror).unwrap();
                }
                // Read-your-writes inside the thread, before any
                // global barrier: this thread's namespace must already
                // be visible to it.
                let mine = fs.list(&script.prefix).unwrap();
                let want = model.list(&script.prefix).unwrap();
                assert_eq!(mine.len(), want.len(), "{}", script.prefix);
                stats.steps
            })
        })
        .collect();
    let total: u64 = threads.into_iter().map(|t| t.join().unwrap()).sum();
    assert_eq!(
        total,
        scripts.iter().map(|c| c.steps.len() as u64).sum::<u64>()
    );

    // Group-commit boundary #1: after a sync epoch, the engine's view
    // equals the model's.
    engine.sync().unwrap();
    assert!(engine.engine_stats().epochs > 0);
    let want = visible_state(model.as_ref());
    assert_eq!(visible_state(engine.as_ref()), want, "engine vs model");

    // Boundary #2: the raw volume the engine hands back — and hence
    // what a reboot would recover — shows the same state.
    let vol = FsdEngine::shutdown_arc(engine).unwrap();
    let after = SyncFs::new(vol);
    assert_eq!(visible_state(&after), want, "volume after shutdown");
    let mut vol = after.into_inner();
    vol.verify().unwrap();
}

#[test]
fn acknowledged_writes_survive_log_writer_crash() {
    let mut vol = FsdVolume::format(
        SimDisk::tiny(),
        FsdConfig {
            nt_pages: 96,
            log_sectors: 256,
            cpu: CpuModel::FREE,
            ..Default::default()
        },
    )
    .unwrap();
    // The machine dies mid-run: after 30 more durable sector writes the
    // next write crashes the disk, leaving one damaged trailing sector
    // (the paper's failure model).
    vol.disk_mut().schedule_crash(CrashPlan {
        after_sector_writes: 30,
        damaged_tail: 1,
    });

    let engine = Arc::new(FsdEngine::start(vol, EngineConfig::default()).unwrap());
    let threads: Vec<_> = (0..4)
        .map(|t| {
            let fs: Arc<dyn FileSystem> = engine.clone();
            std::thread::spawn(move || {
                let mut acked = Vec::new();
                for i in 0..10 {
                    let name = format!("t{t}/f{i:02}");
                    match fs.create(&name, &content_for(&name, 120)) {
                        Ok(_) => acked.push(name),
                        // First crash error: the epoch never committed;
                        // every later submission fails fast on poison.
                        Err(_) => break,
                    }
                }
                acked
            })
        })
        .collect();
    let acked: Vec<String> = threads
        .into_iter()
        .flat_map(|t| t.join().unwrap())
        .collect();
    assert!(
        engine.poisoned().is_some(),
        "the scheduled crash must poison the engine"
    );
    assert!(!acked.is_empty(), "some epochs commit before the crash");
    assert!(acked.len() < 40, "the crash fires mid-run, not after");
    // Poisoned engines refuse new work with the original crash error.
    assert!(engine.create("late", b"x").is_err());

    // The writer thread survives the crash (it reports errors, it does
    // not panic), so shutdown still hands the volume back.
    let vol = FsdEngine::shutdown_arc(engine).unwrap();
    let mut disk = vol.into_disk();
    disk.reboot();
    let (mut vol, _report) = FsdVolume::boot(
        disk,
        FsdConfig {
            nt_pages: 96,
            log_sectors: 256,
            cpu: CpuModel::FREE,
            ..Default::default()
        },
    )
    .unwrap();
    vol.verify().unwrap();
    // Every acknowledged create was group-committed before its `Ok`,
    // so recovery must replay it to a commit boundary that includes it.
    for name in &acked {
        assert_eq!(
            FsBackend::read(&mut vol, name).unwrap(),
            content_for(name, 120),
            "acknowledged {name} must survive crash + recovery"
        );
    }
}
