//! Backend prelude for the benchmark binaries: the [`FileSystem`] trait,
//! its error type, and the three volume types, one `use` away for the
//! `src/bin/` table generators.

pub use cedar_cfs::CfsVolume;
pub use cedar_ffs::Ffs;
pub use cedar_fsd::FsdVolume;
pub use cedar_vol::fs::{CedarFsError, FileInfo, FileSystem, FsBackend, FsStats, Session, SyncFs};

#[cfg(test)]
mod tests {
    use super::*;
    use cedar_disk::{CpuModel, SimDisk};
    use cedar_workload::{makedo_workload, steps::run, MakeDoParams};

    #[test]
    fn makedo_replays_on_all_three_file_systems() {
        let params = MakeDoParams {
            sources: 5,
            interfaces: 8,
            rounds: 1,
            seed: 3,
        };
        let (setup, measured) = makedo_workload(params);

        let cfs = CfsVolume::format(
            SimDisk::tiny(),
            cedar_cfs::CfsConfig {
                nt_pages: 32,
                cpu: CpuModel::FREE,
                scavenge_workers: 1,
            },
        )
        .unwrap();
        let fsd = FsdVolume::format(
            SimDisk::tiny(),
            cedar_fsd::FsdConfig {
                nt_pages: 48,
                log_sectors: 128,
                cpu: CpuModel::FREE,
                ..Default::default()
            },
        )
        .unwrap();
        let ffs = Ffs::format(
            SimDisk::tiny(),
            cedar_ffs::FfsConfig {
                cpu: CpuModel::FREE,
                ..Default::default()
            },
        )
        .unwrap();

        let cfs = SyncFs::new(cfs);
        let fsd = SyncFs::new(fsd);
        let ffs = SyncFs::new(ffs);
        let backends: [&dyn FileSystem; 3] = [&cfs, &fsd, &ffs];
        for fs in backends {
            let s = run(&setup, fs).unwrap();
            let m = run(&measured, fs).unwrap();
            assert_eq!(s.steps, setup.len() as u64, "{}", fs.kind());
            assert_eq!(m.steps, measured.len() as u64, "{}", fs.kind());
        }
    }
}
