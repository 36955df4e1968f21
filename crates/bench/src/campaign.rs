//! What the fault campaign and the replication bench share: the tiny
//! volume they run MakeDo on, its setup replay, and the oracle that
//! compares a recovered or promoted volume with a [`MemFs`] model.

use cedar_disk::{CpuModel, SimDisk};
use cedar_fsd::{FsdConfig, FsdVolume};
use cedar_vol::fs::FsBackend;
use cedar_workload::steps::{run_step_backend, Step, WorkloadStats};
use cedar_workload::{makedo_workload, MakeDoParams, MemFs};

/// The tiny volume's configuration: free CPU (media behaviour and
/// shipping are under test, not timing), one scavenge worker.
pub fn tiny_config() -> FsdConfig {
    FsdConfig {
        nt_pages: 48,
        log_sectors: 128,
        cpu: CpuModel::FREE,
        ..FsdConfig::default()
    }
}

/// Largest file the tiny volume accepts without churn; MakeDo sizes
/// above this are clamped.
pub const MAX_FILE_BYTES: u64 = 2_500;

/// The MakeDo script (setup, measured) with create sizes clamped to
/// [`MAX_FILE_BYTES`]; names, versions, deletes and order are MakeDo's.
pub fn tiny_makedo(rounds: usize, seed: u64) -> (Vec<Step>, Vec<Step>) {
    let (setup, measured) = makedo_workload(MakeDoParams {
        sources: 5,
        interfaces: 8,
        rounds,
        seed,
    });
    let clamp = |steps: Vec<Step>| {
        steps
            .into_iter()
            .map(|s| match s {
                Step::Create { name, bytes } => Step::Create {
                    name,
                    bytes: bytes.min(MAX_FILE_BYTES),
                },
                other => other,
            })
            .collect()
    };
    (clamp(setup), clamp(measured))
}

/// Replays the setup phase on a fresh tiny volume and on the model,
/// then syncs. Returns the synced volume and model, or why it failed.
pub fn setup_volume(setup: &[Step]) -> Result<(FsdVolume, MemFs), String> {
    let mut v = FsdVolume::format(SimDisk::tiny(), tiny_config())
        .map_err(|e| format!("format failed: {e}"))?;
    let mut live = MemFs::default();
    let mut stats = WorkloadStats::default();
    for step in setup {
        run_step_backend(step, &mut v, &mut stats)
            .map_err(|e| format!("setup step failed: {e}"))?;
        run_step_backend(step, &mut live, &mut stats)
            .map_err(|e| format!("model setup step failed: {e}"))?;
    }
    v.sync().map_err(|e| format!("setup sync failed: {e}"))?;
    Ok((v, live))
}

/// True when the volume's visible state (names and newest contents)
/// equals the model's.
pub fn matches_model(fs: &mut FsdVolume, model: &MemFs) -> bool {
    let mut m = model.clone();
    let mut want = match m.list("") {
        Ok(w) => w,
        Err(_) => return false,
    };
    let mut got = match FsBackend::list(fs, "") {
        Ok(g) => g,
        Err(_) => return false,
    };
    want.sort_by(|a, b| a.name.cmp(&b.name));
    got.sort_by(|a, b| a.name.cmp(&b.name));
    if want.len() != got.len() {
        return false;
    }
    for (w, g) in want.iter().zip(&got) {
        if w.name != g.name {
            return false;
        }
        let want_data = match m.read(&w.name) {
            Ok(d) => d,
            Err(_) => return false,
        };
        match FsBackend::read(fs, &g.name) {
            Ok(d) if d == want_data => {}
            _ => return false,
        }
    }
    true
}
