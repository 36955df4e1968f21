//! Quickstart: format an FSD volume on the simulated Trident drive,
//! create and read files, watch the group commit work, shut down and
//! boot again.
//!
//! Run with `cargo run --example quickstart`.

use cedar_fs_repro::disk::{SimClock, SimDisk};
use cedar_fs_repro::fsd::{FsdConfig, FsdVolume};

fn main() {
    // A ~300 MB Trident-T300-class drive on a fresh simulated clock.
    let disk = SimDisk::trident_t300(SimClock::new());
    let mut vol = FsdVolume::format(disk, FsdConfig::default()).expect("format");
    println!(
        "formatted: {} free sectors, log of {} sectors near the central cylinders",
        vol.free_sectors(),
        vol.layout().log_sectors
    );

    // Create a few files. Each create costs ONE synchronous disk write
    // (leader + data together); the name-table updates sit in the cache
    // until the next half-second group commit.
    let before = vol.disk_stats();
    for i in 0..10 {
        vol.create(
            &format!("docs/note{i}.tioga"),
            format!("note {i}").as_bytes(),
        )
        .expect("create");
    }
    let delta = vol.disk_stats().since(&before);
    println!(
        "10 creates: {} disk ops ({} sectors written) — metadata is in the cache",
        delta.total_ops(),
        delta.sectors_written
    );

    // Open + list do no I/O at all: every property lives in the name table.
    let before = vol.disk_stats();
    let listing = vol.list("docs/").expect("list");
    println!(
        "list docs/: {} files, {} disk ops",
        listing.len(),
        vol.disk_stats().since(&before).total_ops()
    );
    for (name, entry) in listing.iter().take(3) {
        println!("  {name}  {} bytes  uid {:x}", entry.byte_size, entry.uid);
    }

    // Read a file back; the leader page check piggybacks on the transfer.
    let mut f = vol.open("docs/note3.tioga", None).expect("open");
    let data = vol.read_file(&mut f).expect("read");
    println!("note3 contains {:?}", String::from_utf8_lossy(&data));

    // Versions: creating the same name again makes version 2.
    vol.create("docs/note3.tioga", b"note 3, revised")
        .expect("create v2");
    let newest = vol.open("docs/note3.tioga", None).expect("open newest");
    println!(
        "newest version of note3 is !{} ({} bytes)",
        newest.name.version,
        newest.byte_size()
    );

    // The commit daemon: half a second of simulated time passes, the log
    // is forced, and the deletes below become reusable space.
    vol.delete("docs/note9.tioga", None).expect("delete");
    let free_before = vol.free_sectors();
    vol.advance_time(600_000).expect("idle tick");
    println!(
        "after the 0.5 s group commit: {} sectors freed by the delete",
        vol.free_sectors() - free_before
    );

    // Controlled shutdown saves the VAM; boot is then instant.
    vol.shutdown().expect("shutdown");
    let disk = vol.into_disk();
    let (mut vol, report) = FsdVolume::boot(disk, FsdConfig::default()).expect("boot");
    // Boot only reads: writing the log's images home is owed to the first
    // write, and had this been a crash a name-table walk would be owed
    // too, to whatever outgrows the restart reserve. `settle_redo` and
    // `settle_vam` pay on demand;
    // the second says `None` when, as here, the saved VAM was good.
    let settle = vol.settle_redo().expect("redo settle");
    let walk = vol.settle_vam().expect("VAM walk");
    println!(
        "rebooted: replayed {} log records, VAM {} ({} ms to first read, {} ms total)",
        report.records_replayed,
        if walk.is_some() {
            "reconstructed"
        } else {
            "loaded from the save area"
        },
        report.total_us() / 1000,
        (report.total_us() + settle.map_or(0, |s| s.us()) + walk.map_or(0, |w| w.us())) / 1000
    );
    assert!(vol.open("docs/note3.tioga", None).is_ok());
    println!("all files intact.");
}
