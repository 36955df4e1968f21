//! The page verbs of FSD and CFS under arguments a caller gets wrong:
//! pages and counts at 0 and at `u32::MAX`, buffers of 0, 1, 511, 513
//! and 4 097 bytes, through `read_page`, `read_pages` and `write_pages`.
//!
//! No call may panic: each runs under `catch_unwind`. A refused call
//! returns `OutOfRange` naming the file's length, and leaves the volume
//! verifying and the file's bytes as they were. An accepted call agrees
//! with a model of the file's pages: a read returns the modelled bytes,
//! a write replaces whole pages, its last one zero-padded.

use cedar_fs_repro::cfs::{CfsConfig, CfsError, CfsVolume};
use cedar_fs_repro::disk::{SimDisk, SECTOR_BYTES};
use cedar_fs_repro::fsd::{FsdConfig, FsdError, FsdVolume};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The buffer lengths every write draws from: empty, a byte, a sector
/// less one, a sector and one, eight sectors and one.
const LENS: [usize; 5] = [0, 1, 511, 513, 4097];

/// The files of every fixture and their sizes in bytes.
const FILES: [(&str, usize); 4] = [("empty", 0), ("one", 100), ("nine", 4200), ("grown", 700)];

/// FSD's `grown` is extended by this many pages after its create, and
/// the new leader image is forced into the log: a write over its first
/// page carries that image home (§5.3).
const GROWN_BY: u32 = 3;

#[derive(Clone, Copy, Debug)]
enum Op {
    ReadPage { page: u32 },
    ReadPages { page: u32, count: u32 },
    WritePages { page: u32, len: usize, fill: u8 },
}

/// Why a call was refused, for both systems.
#[derive(Debug, PartialEq)]
enum Refusal {
    OutOfRange { pages: u32 },
    Other(String),
}

/// What a test needs of a volume's page surface.
trait Surface {
    /// The pages of `name`.
    fn pages(&mut self, name: &str) -> u32;
    /// `op` on a fresh handle of `name`: the bytes a read returns, or
    /// nothing for a write.
    fn call(&mut self, name: &str, op: Op) -> Result<Option<Vec<u8>>, Refusal>;
    fn verify(&mut self);
}

impl Surface for FsdVolume {
    fn pages(&mut self, name: &str) -> u32 {
        self.open(name, None).unwrap().pages()
    }

    fn call(&mut self, name: &str, op: Op) -> Result<Option<Vec<u8>>, Refusal> {
        let mut f = self.open(name, None).unwrap();
        let got = match op {
            Op::ReadPage { page } => self.read_page(&mut f, page).map(Some),
            Op::ReadPages { page, count } => self.read_pages(&mut f, page, count).map(Some),
            Op::WritePages { page, len, fill } => self
                .write_pages(&mut f, page, &payload(len, fill))
                .map(|()| None),
        };
        got.map_err(|e| match e {
            FsdError::OutOfRange { pages, .. } => Refusal::OutOfRange { pages },
            e => Refusal::Other(e.to_string()),
        })
    }

    fn verify(&mut self) {
        FsdVolume::verify(self).unwrap();
    }
}

impl Surface for CfsVolume {
    fn pages(&mut self, name: &str) -> u32 {
        self.open(name, None).unwrap().pages()
    }

    fn call(&mut self, name: &str, op: Op) -> Result<Option<Vec<u8>>, Refusal> {
        let f = self.open(name, None).unwrap();
        let got = match op {
            Op::ReadPage { page } => self.read_page(&f, page).map(Some),
            Op::ReadPages { page, count } => self.read_pages(&f, page, count).map(Some),
            Op::WritePages { page, len, fill } => self
                .write_pages(&f, page, &payload(len, fill))
                .map(|()| None),
        };
        got.map_err(|e| match e {
            CfsError::OutOfRange { pages, .. } => Refusal::OutOfRange { pages },
            e => Refusal::Other(e.to_string()),
        })
    }

    fn verify(&mut self) {
        CfsVolume::verify(self).unwrap();
    }
}

fn payload(len: usize, fill: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31) ^ fill)
        .collect()
}

/// Every file's bytes, page-padded, as its create left them.
fn fixture_model(mut pages_of: impl FnMut(&str) -> u32) -> BTreeMap<&'static str, Vec<u8>> {
    FILES
        .iter()
        .map(|&(name, bytes)| {
            let mut data = payload(bytes, name.len() as u8);
            data.resize(pages_of(name) as usize * SECTOR_BYTES, 0);
            (name, data)
        })
        .collect()
}

fn fsd_fixture() -> (FsdVolume, BTreeMap<&'static str, Vec<u8>>) {
    let mut v = FsdVolume::format(SimDisk::tiny(), FsdConfig::default()).unwrap();
    for (name, bytes) in FILES {
        v.create(name, &payload(bytes, name.len() as u8)).unwrap();
    }
    let mut grown = v.open("grown", None).unwrap();
    v.extend(&mut grown, GROWN_BY).unwrap();
    v.force().unwrap();
    let model = fixture_model(|name| v.open(name, None).unwrap().pages());
    (v, model)
}

fn cfs_fixture() -> (CfsVolume, BTreeMap<&'static str, Vec<u8>>) {
    let mut v = CfsVolume::format(SimDisk::tiny(), CfsConfig::default()).unwrap();
    for (name, bytes) in FILES {
        v.create(name, &payload(bytes, name.len() as u8)).unwrap();
    }
    let model = fixture_model(|name| v.open(name, None).unwrap().pages());
    (v, model)
}

/// A page or count: at or near 0, past every fixture file's end, or at
/// the end of `u32`.
fn arb_u32() -> impl Strategy<Value = u32> {
    prop_oneof![
        2 => 0u32..3,
        2 => 3u32..12,
        1 => Just(u32::MAX),
        1 => Just(u32::MAX - 1),
        1 => (u32::MAX - 9)..u32::MAX,
    ]
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        arb_u32().prop_map(|page| Op::ReadPage { page }),
        (arb_u32(), arb_u32()).prop_map(|(page, count)| Op::ReadPages { page, count }),
        (arb_u32(), 0usize..LENS.len(), any::<u8>()).prop_map(|(page, len, fill)| {
            Op::WritePages {
                page,
                len: LENS[len],
                fill,
            }
        }),
    ]
}

fn arb_script() -> impl Strategy<Value = Vec<(usize, Op)>> {
    proptest::collection::vec((0usize..FILES.len(), arb_op()), 1..16)
}

/// Runs `script` on `v`, holding each call to the model.
fn run<S: Surface>(v: &mut S, model: &mut BTreeMap<&'static str, Vec<u8>>, script: &[(usize, Op)]) {
    for &(file, op) in script {
        let name = FILES[file].0;
        let pages = v.pages(name);
        let (page, count) = match op {
            Op::ReadPage { page } => (page, 1),
            Op::ReadPages { page, count } => (page, count),
            Op::WritePages { page, len, .. } => (page, len.div_ceil(SECTOR_BYTES) as u32),
        };
        let in_range = page.checked_add(count).is_some_and(|end| end <= pages);
        let got = catch_unwind(AssertUnwindSafe(|| v.call(name, op)))
            .unwrap_or_else(|_| panic!("{op:?} on {name} ({pages} pages) panicked"));
        let bytes = model.get_mut(name).unwrap();
        let at = page as usize * SECTOR_BYTES;
        match got {
            Ok(Some(read)) => {
                assert!(in_range, "{op:?} on {name} ({pages} pages) read {read:?}");
                assert_eq!(
                    read,
                    bytes[at..at + count as usize * SECTOR_BYTES],
                    "{op:?}"
                );
            }
            Ok(None) => {
                assert!(in_range, "{op:?} on {name} ({pages} pages) wrote");
                let Op::WritePages { len, fill, .. } = op else {
                    unreachable!("reads return bytes")
                };
                let mut written = payload(len, fill);
                written.resize(count as usize * SECTOR_BYTES, 0);
                bytes[at..at + written.len()].copy_from_slice(&written);
            }
            Err(refusal) => {
                assert!(!in_range, "{op:?} on {name} ({pages} pages): {refusal:?}");
                assert_eq!(refusal, Refusal::OutOfRange { pages }, "{op:?}");
                v.verify();
            }
        }
        let whole = Op::ReadPages {
            page: 0,
            count: pages,
        };
        assert_eq!(
            v.call(name, whole).unwrap().as_deref(),
            Some(&model[name][..]),
            "{name} after {op:?}"
        );
    }
    v.verify();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fsd_page_verbs_refuse_or_match_the_model(script in arb_script()) {
        let (mut v, mut model) = fsd_fixture();
        run(&mut v, &mut model, &script);
    }

    #[test]
    fn cfs_page_verbs_refuse_or_match_the_model(script in arb_script()) {
        let (mut v, mut model) = cfs_fixture();
        run(&mut v, &mut model, &script);
    }
}

/// The cases the strategies reach only by chance, once each on both
/// systems: every buffer length at the first and the last page, and
/// page ranges that wrap `u32`.
#[test]
fn the_edges_of_the_page_surface() {
    let mut script = Vec::new();
    for file in 0..FILES.len() {
        for len in LENS {
            for page in [0, 1, 8, u32::MAX] {
                script.push((
                    file,
                    Op::WritePages {
                        page,
                        len,
                        fill: 0xA5,
                    },
                ));
            }
        }
        for (page, count) in [
            (0, 0),
            (0, u32::MAX),
            (1, u32::MAX),
            (u32::MAX, 1),
            (u32::MAX, 0),
        ] {
            script.push((file, Op::ReadPages { page, count }));
        }
        for page in [0, u32::MAX] {
            script.push((file, Op::ReadPage { page }));
        }
    }
    let (mut v, mut model) = fsd_fixture();
    run(&mut v, &mut model, &script);
    let (mut v, mut model) = cfs_fixture();
    run(&mut v, &mut model, &script);
}
