//! Property test: the scavenger is a *total* repair. For any operation
//! sequence, destroying the entire name table and scavenging yields
//! exactly the same files with the same contents and the same free map —
//! "by reading the labels and interpreting some of the disk sectors, file
//! system structural information ... can be reconstructed" (§2).

use cedar_cfs::{CfsConfig, CfsVolume};
use cedar_disk::{CpuModel, SimDisk};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn config() -> CfsConfig {
    config_with(1)
}

fn config_with(workers: usize) -> CfsConfig {
    CfsConfig {
        nt_pages: 32,
        cpu: CpuModel::FREE,
        scavenge_workers: workers,
    }
}

#[derive(Clone, Debug)]
enum Op {
    Create(u8, u16),
    Delete(u8),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0u8..16, 1u16..4000).prop_map(|(n, b)| Op::Create(n, b)),
        1 => (0u8..16).prop_map(Op::Delete),
    ]
}

fn name(n: u8) -> String {
    format!("dir/file{n:02}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn scavenge_rebuilds_exactly(ops in proptest::collection::vec(arb_op(), 1..40)) {
        let mut vol = CfsVolume::format(SimDisk::tiny(), config()).unwrap();
        // name → stack of version contents.
        let mut model: BTreeMap<String, Vec<Vec<u8>>> = BTreeMap::new();

        for op in &ops {
            match op {
                Op::Create(n, bytes) => {
                    let data: Vec<u8> = (0..*bytes).map(|i| (i % 251) as u8).collect();
                    match vol.create(&name(*n), &data) {
                        Ok(_) => model.entry(name(*n)).or_default().push(data),
                        Err(cedar_cfs::CfsError::NoSpace) => {}
                        Err(e) => return Err(TestCaseError::fail(format!("create: {e}"))),
                    }
                }
                Op::Delete(n) => match vol.delete(&name(*n), None) {
                    Ok(()) => {
                        let empty = {
                            let stack = model.entry(name(*n)).or_default();
                            stack.pop();
                            stack.is_empty()
                        };
                        if empty {
                            model.remove(&name(*n));
                        }
                    }
                    Err(cedar_cfs::CfsError::NotFound(_)) => {
                        model.remove(&name(*n));
                    }
                    Err(e) => return Err(TestCaseError::fail(format!("delete: {e}"))),
                },
            }
        }
        let free_before = vol.free_sectors();

        // Obliterate the name table on disk, reboot (cache gone), scavenge.
        let nt_start = vol.layout().nt_start;
        let nt_len = vol.layout().nt_pages * 4;
        for s in nt_start..nt_start + nt_len {
            vol.disk_mut().wild_write(s, 0xDE);
        }
        let mut disk = vol.into_disk();
        disk.crash_now();
        disk.reboot();
        let (mut vol, _) = CfsVolume::boot(disk, config()).unwrap();
        let report = vol.scavenge().unwrap();

        // Exactly the model's files come back.
        let total_versions: usize = model.values().map(|v| v.len()).sum();
        prop_assert_eq!(report.files_recovered, total_versions);
        prop_assert_eq!(vol.free_sectors(), free_before);
        vol.verify().unwrap();
        for (fname, stack) in &model {
            let listing = vol.list_names("").unwrap();
            let versions: Vec<u32> = listing
                .iter()
                .filter(|(n, _)| &n.name == fname)
                .map(|(n, _)| n.version)
                .collect();
            prop_assert_eq!(versions.len(), stack.len(), "{}", fname);
            let mut sorted = versions.clone();
            sorted.sort_unstable();
            for (i, ver) in sorted.iter().enumerate() {
                let f = vol.open(fname, Some(*ver)).unwrap();
                let got = vol.read_file(&f).unwrap();
                prop_assert_eq!(&got, &stack[i], "{}!{}", fname, ver);
            }
        }
    }

    #[test]
    fn parallel_scavenge_equals_serial(
        ops in proptest::collection::vec(arb_op(), 1..40),
        workers in 0usize..9,
    ) {
        let mut vol = CfsVolume::format(SimDisk::tiny(), config()).unwrap();
        for op in &ops {
            match op {
                Op::Create(n, bytes) => {
                    let data: Vec<u8> = (0..*bytes).map(|i| (i % 251) as u8).collect();
                    match vol.create(&name(*n), &data) {
                        Ok(_) | Err(cedar_cfs::CfsError::NoSpace) => {}
                        Err(e) => return Err(TestCaseError::fail(format!("create: {e}"))),
                    }
                }
                Op::Delete(n) => match vol.delete(&name(*n), None) {
                    Ok(()) | Err(cedar_cfs::CfsError::NotFound(_)) => {}
                    Err(e) => return Err(TestCaseError::fail(format!("delete: {e}"))),
                },
            }
        }

        // Obliterate the name table, crash, and scavenge the same image
        // twice — one worker vs many. Everything but the simulated clock
        // and I/O tally must agree.
        let nt_start = vol.layout().nt_start;
        let nt_len = vol.layout().nt_pages * 4;
        for s in nt_start..nt_start + nt_len {
            vol.disk_mut().wild_write(s, 0xDE);
        }
        let mut serial_disk = vol.into_disk();
        serial_disk.crash_now();
        serial_disk.reboot();
        let mut parallel_disk = serial_disk.clone();
        parallel_disk.reboot();

        let (mut sv, _) = CfsVolume::boot(serial_disk, config()).unwrap();
        let (mut pv, _) = CfsVolume::boot(parallel_disk, config_with(workers)).unwrap();
        let sr = sv.scavenge().unwrap();
        let pr = pv.scavenge().unwrap();
        prop_assert_eq!(sr.files_recovered, pr.files_recovered);
        prop_assert_eq!(sr.damaged_headers, pr.damaged_headers);
        prop_assert_eq!(sr.orphan_sectors, pr.orphan_sectors);

        sv.verify().unwrap();
        pv.verify().unwrap();
        prop_assert_eq!(sv.free_sectors(), pv.free_sectors());
        let s_list = sv.list_names("").unwrap();
        let p_list = pv.list_names("").unwrap();
        prop_assert_eq!(&s_list, &p_list);
        for (n, _) in &s_list {
            let sf = sv.open(&n.name, Some(n.version)).unwrap();
            let pf = pv.open(&n.name, Some(n.version)).unwrap();
            prop_assert_eq!(
                sv.read_file(&sf).unwrap(),
                pv.read_file(&pf).unwrap(),
                "{}!{}", n.name, n.version
            );
        }
    }
}
