//! Property tests for the FFS baseline: it behaves like a map of paths
//! to contents under arbitrary operation sequences, and fsck after a
//! crash never loses a completed file.

use cedar_disk::{CpuModel, SimDisk};
use cedar_ffs::{Ffs, FfsConfig, FfsError};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn config() -> FfsConfig {
    FfsConfig {
        cpu: CpuModel::FREE,
    }
}

#[derive(Clone, Debug)]
enum Op {
    Create(u8, u16),
    Unlink(u8),
    Read(u8),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0u8..12, 1u16..6000).prop_map(|(n, b)| Op::Create(n, b)),
        1 => (0u8..12).prop_map(Op::Unlink),
        2 => (0u8..12).prop_map(Op::Read),
    ]
}

fn name(n: u8) -> String {
    format!("d/file{n:02}")
}

fn content(n: u8, bytes: u16) -> Vec<u8> {
    (0..bytes).map(|i| (i as u8) ^ n).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn behaves_like_a_path_map(ops in proptest::collection::vec(arb_op(), 1..60)) {
        let mut fs = Ffs::format(SimDisk::tiny(), config()).unwrap();
        fs.mkdir("d").unwrap();
        let mut model: BTreeMap<String, Vec<u8>> = BTreeMap::new();

        for op in &ops {
            match op {
                Op::Create(n, bytes) => {
                    let data = content(*n, *bytes);
                    match fs.create(&name(*n), &data) {
                        Ok(_) => {
                            prop_assert!(!model.contains_key(&name(*n)));
                            model.insert(name(*n), data);
                        }
                        Err(FfsError::Exists(_)) => {
                            prop_assert!(model.contains_key(&name(*n)));
                        }
                        Err(FfsError::NoSpace) => {}
                        Err(e) => return Err(TestCaseError::fail(format!("create: {e}"))),
                    }
                }
                Op::Unlink(n) => match fs.unlink(&name(*n)) {
                    Ok(()) => {
                        prop_assert!(model.remove(&name(*n)).is_some());
                    }
                    Err(FfsError::NotFound(_)) => {
                        prop_assert!(!model.contains_key(&name(*n)));
                    }
                    Err(e) => return Err(TestCaseError::fail(format!("unlink: {e}"))),
                },
                Op::Read(n) => match fs.open(&name(*n)) {
                    Ok(f) => {
                        let got = fs.read_file(&f).unwrap();
                        prop_assert_eq!(Some(&got), model.get(&name(*n)));
                    }
                    Err(FfsError::NotFound(_)) => {
                        prop_assert!(!model.contains_key(&name(*n)));
                    }
                    Err(e) => return Err(TestCaseError::fail(format!("open: {e}"))),
                },
            }
        }

        // Final listing matches the model exactly.
        let mut listed: Vec<String> =
            fs.list_names("d").unwrap().iter().map(|n| format!("d/{n}")).collect();
        listed.sort();
        let want: Vec<String> = model.keys().cloned().collect();
        prop_assert_eq!(listed, want);
    }

    #[test]
    fn fsck_after_crash_keeps_every_completed_file(
        files in proptest::collection::vec((0u8..20, 100u16..4000), 1..15),
    ) {
        let mut fs = Ffs::format(SimDisk::tiny(), config()).unwrap();
        fs.mkdir("d").unwrap();
        let mut model: BTreeMap<String, Vec<u8>> = BTreeMap::new();
        for (n, bytes) in &files {
            let data = content(*n, *bytes);
            if fs.create(&name(*n), &data).is_ok() {
                model.insert(name(*n), data);
            }
        }
        // Power fail without sync: the delayed bitmaps are stale.
        let mut disk = fs.into_disk();
        disk.crash_now();
        disk.reboot();
        let mut fs = Ffs::mount(disk, config()).unwrap();
        fs.fsck().unwrap();
        // Every completed create survives with its contents (metadata was
        // synchronous), and allocation works again without collisions.
        for (path, want) in &model {
            let f = fs.open(path).unwrap();
            prop_assert_eq!(&fs.read_file(&f).unwrap(), want, "{}", path);
        }
        for i in 0..10 {
            if fs.create(&format!("d/new{i}"), &vec![0xEE; 2000]).is_err() {
                break;
            }
        }
        for (path, want) in &model {
            let f = fs.open(path).unwrap();
            prop_assert_eq!(&fs.read_file(&f).unwrap(), want, "{} after refill", path);
        }
    }
}
