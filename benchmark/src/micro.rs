//! Host-clock micro-drivers for the layers under the volume: the
//! simulated disk's own cost per sector, the B-tree on a memory store at
//! the churn workloads' key count, and log-record encoding. Each is the
//! median of a few repetitions and is recorded as a span.

use crate::stats::median;
use crate::trace::{Span, Trace};
use cedar_btree::{BTree, MemStore};
use cedar_disk::{SimClock, SimDisk, SECTOR_BYTES};
use cedar_fsd::log::{encode_record, PageTarget};
use cedar_fsd::NT_PAGE_BYTES;
use cedar_vol::fs::CHUNK_PAGES;
use cedar_vol::FileName;
use std::hint::black_box;

const REPS: usize = 5;
const DISK_SECTORS: usize = 16_384;
const BTREE_KEYS: usize = 20_000;
const LOG_IMAGES: usize = 16;
const LOG_RECORDS: usize = 500;

/// The micro-drivers' results, all host nanoseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct Micro {
    pub disk_write_ns_per_sector: f64,
    pub disk_read_ns_per_sector: f64,
    pub btree_insert_ns: f64,
    pub btree_get_ns: f64,
    pub btree_scan_ns_per_entry: f64,
    pub log_encode_ns_per_image: f64,
}

/// Times `body` [`REPS`] times, records each as a span, and returns the
/// median nanoseconds per unit of work.
fn timed(
    trace: &mut Trace,
    layer: &'static str,
    name: &str,
    units: usize,
    mut body: impl FnMut(usize),
) -> f64 {
    let per_unit: Vec<f64> = (0..REPS)
        .map(|rep| {
            let began = trace.host_ns();
            body(rep);
            let ended = trace.host_ns();
            trace.push(Span {
                op: rep as u64,
                pass: "micro",
                layer,
                name: name.into(),
                host_ns: (began, ended),
                counters: vec![("units", units as u64)],
                ..Span::default()
            });
            (ended - began) as f64 / units as f64
        })
        .collect();
    median(&per_unit)
}

/// Runs every micro-driver, its work divided by `div` (the `--smoke`
/// scale).
pub fn run(trace: &mut Trace, div: usize) -> Micro {
    let mut m = Micro::default();
    let (disk_sectors, btree_keys, log_records) =
        (DISK_SECTORS / div, BTREE_KEYS / div, LOG_RECORDS / div);

    // disk: sequential 4 KB transfers, as the volume's data path issues.
    let chunk = vec![0xA5u8; CHUNK_PAGES as usize * SECTOR_BYTES];
    // Every repetition takes a stretch of its own, so each write is the
    // first to its sector, as a populating volume's are.
    let mut disk = SimDisk::trident_t300(SimClock::new());
    let stretch = |rep: usize| {
        let base = (rep * disk_sectors) as u32;
        (base..base + disk_sectors as u32).step_by(CHUNK_PAGES as usize)
    };
    m.disk_write_ns_per_sector = timed(trace, "disk", "disk.write", disk_sectors, |rep| {
        for at in stretch(rep) {
            disk.write(at, &chunk).expect("micro disk write");
        }
    });
    m.disk_read_ns_per_sector = timed(trace, "disk", "disk.read", disk_sectors, |rep| {
        for at in stretch(rep) {
            black_box(
                disk.read(at, CHUNK_PAGES as usize)
                    .expect("micro disk read"),
            );
        }
    });
    drop(disk);

    // btree: name-table-sized pages, mail-like keys, entry-sized values.
    let keys: Vec<Vec<u8>> = (0..btree_keys)
        .map(|i| {
            // A fixed odd multiplier scatters insertion order over the key space.
            let k = (i * 7_919) % btree_keys;
            FileName::new(&format!("mbox{:03}/m{k:07}", k % 200), 1)
                .expect("valid name")
                .to_key()
        })
        .collect();
    let value = [0x5Au8; 64];
    let mut trees: Vec<(MemStore, BTree)> = (0..REPS)
        .map(|_| {
            let mut store = MemStore::new(NT_PAGE_BYTES);
            let tree = BTree::create(&mut store).expect("micro btree create");
            (store, tree)
        })
        .collect();
    m.btree_insert_ns = timed(trace, "btree", "btree.insert", btree_keys, |rep| {
        let (store, tree) = &mut trees[rep];
        for key in &keys {
            tree.insert(store, key, &value).expect("micro btree insert");
        }
    });
    m.btree_get_ns = timed(trace, "btree", "btree.get", btree_keys, |rep| {
        let (store, tree) = &mut trees[rep];
        for key in &keys {
            black_box(tree.get(store, key).expect("micro btree get"));
        }
    });
    m.btree_scan_ns_per_entry = timed(trace, "btree", "btree.scan", btree_keys, |rep| {
        let (store, tree) = &mut trees[rep];
        let mut seen = 0usize;
        tree.for_each(store, &mut |_, _| {
            seen += 1;
            true
        })
        .expect("micro btree scan");
        assert_eq!(black_box(seen), btree_keys);
    });
    drop(trees);

    // fsd.log: sealing a record of name-table sector images.
    let images: Vec<(PageTarget, Vec<u8>)> = (0..LOG_IMAGES as u32)
        .map(|i| {
            let target = PageTarget::NtSector {
                page: i / 2,
                sector: i % 2,
            };
            (target, vec![i as u8; SECTOR_BYTES])
        })
        .collect();
    m.log_encode_ns_per_image = timed(
        trace,
        "fsd.log",
        "fsd.log.encode",
        LOG_IMAGES * log_records,
        |_| {
            for seq in 0..log_records as u64 {
                black_box(encode_record(black_box(&images), seq, 1, true).expect("micro encode"));
            }
        },
    );
    m
}
