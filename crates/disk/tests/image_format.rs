//! The image file format (`VERSION 1`) is frozen: a scripted tiny disk
//! saves to a pinned hash, and save → load → save reproduces the file
//! byte for byte.

use cedar_disk::{CrashPlan, Label, PageKind, SimClock, SimDisk, SECTOR_BYTES};

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("cedar-image-format-{}-{name}", std::process::id()));
    p
}

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf29ce484222325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100000001b3)
    })
}

/// Data with and without labels, a sector written with zeros, labels on
/// never-written sectors, an injected flaw on a blank sector, a torn
/// two-sector crash tail and a wild write, spread over several tracks
/// and the disk's last sector.
fn scripted() -> SimDisk {
    let mut d = SimDisk::tiny();
    let total = d.geometry().total_sectors();
    let pattern: Vec<u8> = (0..SECTOR_BYTES * 5).map(|i| (i * 7 % 251) as u8).collect();
    d.write(3, &pattern).unwrap();
    d.write(40, &vec![0; SECTOR_BYTES]).unwrap();
    let labels: Vec<Label> = (0..3).map(|p| Label::new(77, p, PageKind::Data)).collect();
    d.write_with_labels(100, &pattern[..SECTOR_BYTES * 3], &labels)
        .unwrap();
    d.write_labels(500, &[Label::new(5, 9, PageKind::Header); 2], None)
        .unwrap();
    d.write(total - 1, &[0xEE; SECTOR_BYTES]).unwrap();
    d.damage_sector(700);
    d.wild_write(1200, 0x5A);
    d.corrupt_byte(3, 17, 0xFF);
    d.schedule_crash(CrashPlan {
        after_sector_writes: 2,
        damaged_tail: 2,
    });
    assert!(d.write(1000, &pattern).is_err());
    d.reboot();
    d
}

#[test]
fn a_scripted_tiny_disk_saves_to_the_pinned_image() {
    let path = tmp("pinned");
    scripted().save_image(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(
        (bytes.len(), fnv(&bytes)),
        (PINNED_LEN, PINNED_FNV),
        "the image format moved: got ({}, {:#x})",
        bytes.len(),
        fnv(&bytes)
    );
}

/// Taken from the per-sector store the chunked one replaced.
const PINNED_LEN: usize = 7066;
const PINNED_FNV: u64 = 0xf25d4c36ba5a5c9a;

#[test]
fn save_load_save_is_byte_identical() {
    let (first, second) = (tmp("first"), tmp("second"));
    let d = scripted();
    d.save_image(&first).unwrap();
    let loaded = SimDisk::load_image(&first, SimClock::new()).unwrap();
    loaded.save_image(&second).unwrap();
    let (a, b) = (
        std::fs::read(&first).unwrap(),
        std::fs::read(&second).unwrap(),
    );
    std::fs::remove_file(&first).ok();
    std::fs::remove_file(&second).ok();
    assert_eq!(a, b);
    assert_eq!(loaded.platter_digest(), d.platter_digest());
}
