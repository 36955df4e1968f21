//! Standard benchmark volumes: the paper's ~300 MB Trident-class disk
//! with Dorado CPU costs, optionally populated "moderately full".

use cedar_cfs::{CfsConfig, CfsVolume};
use cedar_disk::{CpuModel, SimClock, SimDisk};
use cedar_ffs::{Ffs, FfsConfig};
use cedar_fsd::{FsdConfig, FsdVolume};
use cedar_workload::SizeDistribution;

/// Formats a CFS volume on a fresh T-300.
pub fn cfs_t300() -> CfsVolume {
    CfsVolume::format(
        SimDisk::trident_t300(SimClock::new()),
        CfsConfig {
            nt_pages: 0,
            cpu: CpuModel::DORADO,
            scavenge_workers: 1,
        },
    )
    .expect("format CFS")
}

/// Formats an FSD volume on a fresh T-300.
pub fn fsd_t300() -> FsdVolume {
    FsdVolume::format(SimDisk::trident_t300(SimClock::new()), FsdConfig::default())
        .expect("format FSD")
}

/// Formats an FFS volume on a fresh T-300.
pub fn ffs_t300() -> Ffs {
    Ffs::format(SimDisk::trident_t300(SimClock::new()), FfsConfig::default()).expect("format FFS")
}

/// Populates a volume with `files` files drawn from the paper's size
/// distribution under `prefix`, through the
/// [`cedar_vol::fs::FsBackend`] trait — population happens before any
/// concurrent service starts, so the exclusive-borrow API is the
/// honest one. Returns the names.
pub fn populate(
    fs: &mut dyn cedar_vol::fs::FsBackend,
    prefix: &str,
    files: usize,
    seed: u64,
) -> Vec<String> {
    let mut sizes = SizeDistribution::new(seed);
    let mut names = Vec::with_capacity(files);
    for i in 0..files {
        let name = format!("{prefix}/pop{i:05}");
        let bytes = sizes.sample() as usize;
        fs.create(&name, &vec![0u8; bytes])
            .unwrap_or_else(|e| panic!("populate {name} ({bytes} B): {e}"));
        names.push(name);
    }
    names
}

/// Microseconds to a printable milliseconds value.
pub fn ms(us: u64) -> f64 {
    us as f64 / 1000.0
}
