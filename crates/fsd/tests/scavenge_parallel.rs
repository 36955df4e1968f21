//! Property test: the parallel scavenger is *observationally identical*
//! to the serial one. For any operation stream, any replica-covered
//! fault plan, and a scavenge-forcing boot (clean shutdown, then both
//! log meta replicas destroyed), booting with one worker and with eight
//! must produce the same summary, the same surviving files with the
//! same contents, and the same free map — only the simulated clock may
//! differ. Parallelism here is a CPU-scheduling choice, never a
//! semantic one. Zero workers means one.

use cedar_disk::{CpuModel, FaultPlan, SimClock, SimDisk};
use cedar_fsd::{FsdConfig, FsdVolume, RecoveryRung};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn config_with(workers: usize) -> FsdConfig {
    FsdConfig {
        nt_pages: 24,
        log_sectors: 160,
        cpu: CpuModel::FREE,
        scavenge_workers: workers,
    }
}

#[derive(Clone, Debug)]
enum Op {
    Create(u8, Vec<u8>),
    Delete(u8),
    Force,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u8..16, proptest::collection::vec(any::<u8>(), 0..1500))
            .prop_map(|(n, d)| Op::Create(n, d)),
        2 => (0u8..16).prop_map(Op::Delete),
        1 => Just(Op::Force),
    ]
}

fn name(n: u8) -> String {
    format!("file{n:02}")
}

/// Everything observable about a recovered volume except timing:
/// (name, version) → content, plus the free-sector count.
fn observe(v: &mut FsdVolume) -> (BTreeMap<(String, u32), Vec<u8>>, u32) {
    let mut state = BTreeMap::new();
    for (n, _) in v.list("").unwrap() {
        let mut f = v.open(&n.name, Some(n.version)).unwrap();
        let data = v.read_file(&mut f).unwrap();
        state.insert((n.name.clone(), n.version), data);
    }
    (state, v.free_sectors())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn parallel_scavenge_equals_serial(
        ops in proptest::collection::vec(arb_op(), 1..40),
        workers in 0usize..9,
        nt_faults in proptest::collection::vec(any::<u8>(), 0..3),
    ) {
        let mut v = FsdVolume::format(SimDisk::tiny(), config_with(1)).unwrap();
        // Latent flaws on name-table copy A: replica-covered, so the
        // scavenger must salvage identically regardless of worker count.
        let mut plan = FaultPlan::none();
        for &f in &nt_faults {
            plan = plan.with_latent(v.layout().nt_a_sector(u32::from(f) % v.layout().nt_pages));
        }
        v.disk_mut().set_fault_plan(&plan);

        for op in &ops {
            match op {
                Op::Create(n, data) => match v.create(&name(*n), data) {
                    Ok(_) | Err(cedar_fsd::FsdError::NoSpace) => {}
                    Err(e) => return Err(TestCaseError::fail(format!("create: {e}"))),
                },
                Op::Delete(n) => match v.delete(&name(*n), None) {
                    Ok(()) | Err(cedar_fsd::FsdError::NotFound(_)) => {}
                    Err(e) => return Err(TestCaseError::fail(format!("delete: {e}"))),
                },
                Op::Force => v.force().unwrap(),
            }
        }

        // Force the scavenge rung: shut down cleanly, then destroy both
        // log meta replicas so redo has nothing to anchor on.
        v.shutdown().unwrap();
        let (meta_a, meta_b) = (v.layout().log_start, v.layout().log_start + 2);
        let mut serial_disk = v.into_disk();
        serial_disk.damage_sector(meta_a);
        serial_disk.damage_sector(meta_b);
        serial_disk.reboot();
        let mut parallel_disk = serial_disk.clone();
        parallel_disk.reboot();

        let (mut sv, sr) = FsdVolume::boot(serial_disk, config_with(1)).unwrap();
        let (mut pv, pr) = FsdVolume::boot(parallel_disk, config_with(workers)).unwrap();
        prop_assert_eq!(sr.rung, RecoveryRung::Scavenge);
        prop_assert_eq!(pr.rung, RecoveryRung::Scavenge);
        let ss = sr.scavenge.as_ref().expect("serial summary");
        let ps = pr.scavenge.as_ref().expect("parallel summary");
        prop_assert_eq!(ss.leaders_found, ps.leaders_found);
        prop_assert_eq!(ss.files_rebuilt, ps.files_rebuilt);
        prop_assert_eq!(ss.tombstones, ps.tombstones);
        prop_assert_eq!(ss.unreadable_sectors, ps.unreadable_sectors);
        prop_assert_eq!(&ss.losses, &ps.losses);

        sv.verify().unwrap();
        pv.verify().unwrap();
        let (s_state, s_free) = observe(&mut sv);
        let (p_state, p_free) = observe(&mut pv);
        prop_assert_eq!(s_state, p_state);
        prop_assert_eq!(s_free, p_free);
    }
}

/// The gated scavenge rows hide the workers' decode CPU behind the
/// reads. Here a sector's decode costs more than its read, so the join
/// sets the clock: two boots of one wounded image at eight workers must
/// agree on the simulated time too, which pins that the worker each
/// chunk charges is fixed by the chunk, not by whoever ran it.
#[test]
fn a_scan_whose_decode_outlasts_its_reads_times_the_same_every_boot() {
    let mut v = FsdVolume::format(SimDisk::tiny(), config_with(1)).unwrap();
    for n in 0..12u8 {
        v.create(&name(n), &vec![n; 300 * usize::from(n)]).unwrap();
    }
    v.delete(&name(3), None).unwrap();
    v.shutdown().unwrap();
    let (meta_a, meta_b) = (v.layout().log_start, v.layout().log_start + 2);
    let image = v.into_disk();
    let boot = |workers: usize, cpu: CpuModel| {
        // A fresh clock per boot: each starts at the same instant with
        // the head at the same place.
        let mut disk = image.fork_with_clock(SimClock::new());
        disk.damage_sector(meta_a);
        disk.damage_sector(meta_b);
        let config = FsdConfig {
            cpu,
            ..config_with(workers)
        };
        let (v, report) = FsdVolume::boot(disk, config).unwrap();
        assert_eq!(report.rung, RecoveryRung::Scavenge);
        let summary = report.scavenge.expect("scavenge summary");
        (report.scavenge_us, summary, v.into_disk().platter_digest())
    };
    let slow_decode = CpuModel {
        per_sector_us: 20_000,
        ..CpuModel::FREE
    };
    let first = boot(8, slow_decode);
    assert_eq!(first, boot(8, slow_decode));
    let serial = boot(1, slow_decode);
    assert_eq!((&first.1, first.2), (&serial.1, serial.2));
    assert!(
        first.0 < serial.0,
        "8 workers {} vs 1 {}",
        first.0,
        serial.0
    );
    let reads_only = boot(8, CpuModel::FREE).0;
    assert!(
        first.0 > reads_only,
        "the join {} vs the reads {}",
        first.0,
        reads_only
    );
}
