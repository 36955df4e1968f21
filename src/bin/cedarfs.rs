//! `cedarfs` — a command-line tool around the FSD library.
//!
//! The volume lives in a host-file disk image; every invocation boots it
//! (reading the log; a command that writes then pays FSD's log-redo
//! recovery), performs the operation, and — by default — shuts down
//! cleanly. `--crash` skips the shutdown, leaving
//! the image exactly as a power failure would, so the next invocation
//! demonstrates recovery.
//!
//! ```text
//! cedarfs format  vol.img [--tiny]
//! cedarfs put     vol.img <name> <host-file> [--crash]
//! cedarfs get     vol.img <name> [host-file]
//! cedarfs ls      vol.img [prefix]
//! cedarfs rm      vol.img <name> [--crash]
//! cedarfs stat    vol.img
//! ```

use cedar_fs_repro::disk::{SimClock, SimDisk, SECTOR_BYTES_U64};
use cedar_fs_repro::fsd::{FsdConfig, FsdVolume, RecoveryReport};
use cedar_fs_repro::vol::fs::{CedarFsError, FsBackend};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  cedarfs format  <image> [--tiny]\n  \
         cedarfs put     <image> <name> <host-file> [--crash]\n  \
         cedarfs get     <image> <name> [host-file]\n  \
         cedarfs ls      <image> [prefix]\n  \
         cedarfs rm      <image> <name> [--crash]\n  \
         cedarfs stat    <image>\n\n\
         --crash skips the clean shutdown, leaving the image as a power\n\
         failure would; the next invocation runs FSD crash recovery."
    );
    ExitCode::from(2)
}

fn boot(image: &str) -> Result<(FsdVolume, RecoveryReport), String> {
    let disk =
        SimDisk::load_image(image, SimClock::new()).map_err(|e| format!("open {image}: {e}"))?;
    let (vol, r) = FsdVolume::boot(disk, FsdConfig::default()).map_err(|e| format!("boot: {e}"))?;
    report_boot(&r);
    Ok((vol, r))
}

fn secs(us: u64) -> f64 {
    us as f64 / 1e6
}

/// Says where boot's time went, one line per phase, on any boot that
/// replayed, scavenged or owes something.
fn report_boot(r: &RecoveryReport) {
    if r.records_replayed == 0 && !r.vam_reconstructed && r.scavenge.is_none() {
        return;
    }
    eprintln!(
        "recovery: {} log records replayed, VAM {}; {:.2} s to first read (simulated)",
        r.records_replayed,
        if r.scavenge.is_some() {
            "rebuilt by the scavenger"
        } else if !r.vam_reconstructed {
            "loaded"
        } else if r.reserve.is_some() {
            "walk owed to whatever outgrows the reserve"
        } else {
            "walk owed to the first allocation"
        },
        secs(r.total_us())
    );
    if r.redo_us > 0 {
        eprintln!(
            "  log scan    {:.2} s  ({} records, {} sector images owed to their thirds)",
            secs(r.redo_us),
            r.records_replayed,
            r.images_redone
        );
        let pass = r.leaders;
        eprintln!(
            "  leaders     booked by boot  ({} kept, {} reallocated and skipped)",
            pass.kept, pass.reallocated
        );
    }
    if r.vam_us > 0 {
        eprintln!("  saved VAM   {:.2} s", secs(r.vam_us));
    }
    if let Some(sc) = &r.scavenge {
        eprintln!("  scavenge    {:.2} s  ({})", secs(r.scavenge_us), sc.cause);
    }
    // The boot page names a run or it does not. With a walk owed, none
    // means a crashed session's first allocation took it over (or the
    // volume was last written by a build that set none aside); with the
    // map loaded, that the volume had no room for one when it was saved.
    match (r.reserve, r.vam_reconstructed) {
        (Some(run), _) => eprintln!("  reserve: {} @ {}, intact", run.len, run.start),
        (None, true) => eprintln!("  reserve: consumed"),
        (None, false) => eprintln!("  reserve: none"),
    }
}

/// Pays what boot left owed — the redo settle (everything the log holds
/// written home, then the new epoch), then the VAM walk — and says what
/// each phase cost. Commands that write call this before they
/// start; read-only commands ([`read_only`]) leave it to [`finish`],
/// whose shutdown needs both.
///
/// A settle that finds the name table beyond replica repair asks the
/// next boot for a scavenge through the boot pages. That boot is taken
/// here, on the disk in memory: the command carries on against the
/// rebuilt volume and `finish` saves it. Returning the error instead
/// would leave the image without the request, to fail the same way every
/// time.
fn settle(mut vol: FsdVolume, r: &RecoveryReport) -> Result<FsdVolume, String> {
    let paid = vol
        .settle_redo()
        .and_then(|redo| Ok((redo, vol.settle_vam()?)));
    match paid {
        Ok((redo, walk)) => {
            if let Some(s) = redo {
                eprintln!("  home writes {:.2} s", secs(s.home_us));
                eprintln!("  new epoch   {:.2} s", secs(s.epoch_us));
            }
            if let Some(w) = walk {
                eprintln!(
                    "  VAM walk    {:.2} s  (prefetch {:.2} s + walk {:.2} s, {} files): \
                     VAM reconstructed from the name table, {:.2} s in all",
                    secs(w.us()),
                    secs(w.prefetch_us),
                    secs(w.walk_us),
                    w.files_scanned,
                    secs(r.total_us() + vol.redo_settle().map_or(0, |s| s.us()) + w.us())
                );
            }
            Ok(vol)
        }
        Err(e) if e.is_crash() => Err(format!("recovery: {e}")),
        Err(e) => {
            eprintln!("recovery: {e}; booting again to scavenge");
            let (vol, r) = FsdVolume::boot(vol.into_disk(), FsdConfig::default())
                .map_err(|e| format!("scavenge: {e}"))?;
            report_boot(&r);
            Ok(vol)
        }
    }
}

/// Runs a read-only command: it needs neither the homes current nor a
/// free map, so it goes ahead of everything boot left owed. If it fails while the walk is still owed it
/// may have met a name-table page that only the walk — and the scavenge
/// behind it — can put right, so the walk is paid and the command tried
/// once more.
fn read_only<T>(
    mut vol: FsdVolume,
    r: &RecoveryReport,
    op: impl Fn(&mut FsdVolume) -> Result<T, CedarFsError>,
) -> Result<(FsdVolume, T), String> {
    match op(&mut vol) {
        Ok(t) => Ok((vol, t)),
        Err(_) if r.vam_reconstructed && vol.vam_walk().is_none() => {
            let mut vol = settle(vol, r)?;
            let t = op(&mut vol).map_err(|e| e.to_string())?;
            Ok((vol, t))
        }
        Err(e) => Err(e.to_string()),
    }
}

fn finish(mut vol: FsdVolume, r: &RecoveryReport, image: &str, crash: bool) -> Result<(), String> {
    if crash {
        vol.force().map_err(|e| format!("force: {e}"))?;
        eprintln!("(simulating a crash: no clean shutdown)");
        let mut disk = vol.into_disk();
        disk.crash_now();
        disk.reboot();
        disk.save_image(image)
            .map_err(|e| format!("save {image}: {e}"))
    } else {
        let mut vol = settle(vol, r)?;
        vol.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        vol.into_disk()
            .save_image(image)
            .map_err(|e| format!("save {image}: {e}"))
    }
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags: Vec<&str> = args
        .iter()
        .map(|s| s.as_str())
        .filter(|a| a.starts_with("--"))
        .collect();
    let pos: Vec<&str> = args
        .iter()
        .map(|s| s.as_str())
        .filter(|a| !a.starts_with("--"))
        .collect();
    let crash = flags.contains(&"--crash");
    let takes: &[&str] = match pos.first() {
        Some(&"format") => &["--tiny"],
        Some(&"put") | Some(&"rm") => &["--crash"],
        _ => &[],
    };
    if flags.iter().any(|f| !takes.contains(f)) {
        return Err("bad arguments".into());
    }

    match pos.as_slice() {
        ["format", image] => {
            let disk = if flags.contains(&"--tiny") {
                SimDisk::tiny()
            } else {
                SimDisk::trident_t300(SimClock::new())
            };
            let mut vol = FsdVolume::format(disk, FsdConfig::default())
                .map_err(|e| format!("format: {e}"))?;
            vol.shutdown().map_err(|e| format!("shutdown: {e}"))?;
            vol.into_disk()
                .save_image(image)
                .map_err(|e| format!("save {image}: {e}"))?;
            println!("formatted {image}");
            Ok(())
        }
        ["put", image, name, host] => {
            let data = std::fs::read(host).map_err(|e| format!("read {host}: {e}"))?;
            let (vol, r) = boot(image)?;
            let mut vol = settle(vol, &r)?;
            // File operations go through the unified `FsBackend` trait —
            // the same interface the benches and conformance tests use.
            let f = FsBackend::create(&mut vol, name, &data).map_err(|e| format!("create: {e}"))?;
            println!("{} <- {} ({} bytes)", f.name, host, data.len());
            finish(vol, &r, image, crash)
        }
        ["get", image, name] | ["get", image, name, _] => {
            let (vol, r) = boot(image)?;
            let (vol, data) = read_only(vol, &r, |v| FsBackend::read(v, name))
                .map_err(|e| format!("read {name}: {e}"))?;
            match pos.get(3) {
                Some(host) => {
                    std::fs::write(host, &data).map_err(|e| format!("write {host}: {e}"))?;
                    println!("{name} -> {host} ({} bytes)", data.len());
                }
                None => {
                    use std::io::Write;
                    std::io::stdout()
                        .write_all(&data)
                        .map_err(|e| e.to_string())?;
                }
            }
            finish(vol, &r, image, false)
        }
        ["ls", image] | ["ls", image, _] => {
            let prefix = pos.get(2).copied().unwrap_or("");
            let (vol, r) = boot(image)?;
            let (vol, listing) = read_only(vol, &r, |v| FsBackend::list(v, prefix))
                .map_err(|e| format!("list: {e}"))?;
            for f in &listing {
                println!("{:>10}  v{:<3}  {}", f.bytes, f.version, f.name);
            }
            eprintln!("{} entries", listing.len());
            finish(vol, &r, image, false)
        }
        ["rm", image, name] => {
            let (vol, r) = boot(image)?;
            let mut vol = settle(vol, &r)?;
            FsBackend::delete(&mut vol, name).map_err(|e| format!("delete: {e}"))?;
            println!("removed {name}");
            finish(vol, &r, image, crash)
        }
        ["stat", image] => {
            // `free_sectors` counts only what is known free while a
            // walk is owed.
            let (vol, r) = boot(image)?;
            let vol = settle(vol, &r)?;
            let l = vol.layout();
            let g = *SimDisk::load_image(image, SimClock::new())
                .map_err(|e| e.to_string())?
                .geometry();
            println!(
                "geometry: {} cylinders x {} heads x {} sectors ({} MB)",
                g.cylinders,
                g.heads,
                g.sectors_per_track,
                g.total_sectors() as u64 * SECTOR_BYTES_U64 / 1_000_000
            );
            println!(
                "layout: log {} sectors @ {}, name table {} pages x2 (@ {} and {})",
                l.log_sectors, l.log_start, l.nt_pages, l.nt_a_start, l.nt_b_start
            );
            println!(
                "free: {} sectors ({} MB)",
                vol.free_sectors(),
                vol.free_sectors() as u64 * SECTOR_BYTES_U64 / 1_000_000
            );
            finish(vol, &r, image, false)
        }
        _ => Err("bad arguments".into()),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            if e == "bad arguments" {
                return usage();
            }
            eprintln!("cedarfs: {e}");
            ExitCode::FAILURE
        }
    }
}
