//! Saving and loading disk images to host files.
//!
//! A [`crate::SimDisk`] is an in-memory object; persisting it lets tools
//! (like the `cedarfs` CLI) keep a volume across process runs, move
//! images between machines, or archive the state of an experiment.
//!
//! The format is a simple stream: header (magic, geometry, timing), then
//! one record per *materialized* sector (address, label, damage flag,
//! data). Never-written sectors are omitted, so an image's size tracks
//! its contents rather than the volume capacity.

use crate::clock::SimClock;
use crate::disk::SimDisk;
use crate::geometry::DiskGeometry;
use crate::label::{Label, PageKind};
use crate::timing::DiskTiming;
use crate::SECTOR_BYTES;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

const IMAGE_MAGIC: &[u8; 8] = b"CEDARIMG";
const VERSION: u32 = 1;

fn io_err(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn put_u32(w: &mut impl Write, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn put_u64(w: &mut impl Write, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn get_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn get_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

impl SimDisk {
    /// Writes the disk's persistent state (geometry, timing, sector
    /// contents, labels, damage flags) to a host file. Volatile state —
    /// the clock, statistics, head position, crash plans — is not saved,
    /// matching what survives a power cycle.
    pub fn save_image(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        w.write_all(IMAGE_MAGIC)?;
        put_u32(&mut w, VERSION)?;
        let g = self.geometry();
        put_u32(&mut w, g.cylinders)?;
        put_u32(&mut w, g.heads)?;
        put_u32(&mut w, g.sectors_per_track)?;
        let t = self.timing();
        put_u32(&mut w, t.rpm)?;
        put_u32(&mut w, t.short_seek_cylinders)?;
        put_u64(&mut w, t.short_seek_us)?;
        put_u64(&mut w, t.seek_base_us)?;
        put_u64(&mut w, t.seek_per_sqrt_cyl_us)?;
        put_u64(&mut w, 0)?; // Reserved: a head-switch time nothing charged.

        for addr in self.nonblank_chunks().flatten() {
            let data = self.peek_data(addr);
            let label = self.peek_label(addr);
            let damaged = self.peek_damaged(addr);
            if data.is_none() && label.is_free() && !damaged {
                continue; // Pristine sector: omitted.
            }
            put_u32(&mut w, addr)?;
            put_u64(&mut w, label.uid)?;
            put_u32(&mut w, label.page)?;
            w.write_all(&[
                u8::from(label.kind),
                u8::from(damaged),
                u8::from(data.is_some()),
            ])?;
            if let Some(d) = data {
                w.write_all(d)?;
            }
        }
        put_u32(&mut w, u32::MAX)?; // Terminator.
        w.flush()
    }

    /// Loads a disk image saved by [`Self::save_image`], attaching it to
    /// `clock`. The image holds no scheduling policy: the disk comes up
    /// [`IoPolicy::Satf`](crate::IoPolicy::Satf).
    pub fn load_image(path: impl AsRef<Path>, clock: SimClock) -> io::Result<SimDisk> {
        let mut r = BufReader::new(std::fs::File::open(path)?);
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != IMAGE_MAGIC {
            return Err(io_err("not a cedar disk image".into()));
        }
        let version = get_u32(&mut r)?;
        if version != VERSION {
            return Err(io_err(format!("unsupported image version {version}")));
        }
        let geometry = DiskGeometry {
            cylinders: get_u32(&mut r)?,
            heads: get_u32(&mut r)?,
            sectors_per_track: get_u32(&mut r)?,
        };
        let timing = DiskTiming {
            rpm: get_u32(&mut r)?,
            sectors_per_track: geometry.sectors_per_track,
            short_seek_cylinders: get_u32(&mut r)?,
            short_seek_us: get_u64(&mut r)?,
            seek_base_us: get_u64(&mut r)?,
            seek_per_sqrt_cyl_us: get_u64(&mut r)?,
        };
        get_u64(&mut r)?; // The reserved word.
        let mut disk = SimDisk::new(geometry, timing, clock);
        loop {
            let addr = get_u32(&mut r)?;
            if addr == u32::MAX {
                break;
            }
            if addr >= geometry.total_sectors() {
                return Err(io_err(format!("sector {addr} beyond volume")));
            }
            let uid = get_u64(&mut r)?;
            let page = get_u32(&mut r)?;
            let mut flags = [0u8; 3];
            r.read_exact(&mut flags)?;
            let kind = match flags[0] {
                0 => PageKind::Free,
                1 => PageKind::Header,
                2 => PageKind::Data,
                3 => PageKind::Leader,
                4 => PageKind::NameTable,
                5 => PageKind::Log,
                6 => PageKind::Boot,
                k => return Err(io_err(format!("bad page kind {k}"))),
            };
            let mut data = None;
            if flags[2] != 0 {
                let mut buf = vec![0u8; SECTOR_BYTES];
                r.read_exact(&mut buf)?;
                data = Some(buf);
            }
            disk.restore_sector(addr, data, Label::new(uid, page, kind), flags[1] != 0);
        }
        Ok(disk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CrashPlan;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("cedar-image-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn roundtrip_preserves_contents_labels_and_damage() {
        let mut d = SimDisk::tiny();
        d.write(10, &vec![0xAB; SECTOR_BYTES * 2]).unwrap();
        d.write_labels(10, &[Label::new(7, 0, PageKind::Data)], None)
            .unwrap();
        d.schedule_crash(CrashPlan {
            after_sector_writes: 0,
            damaged_tail: 1,
        });
        let _ = d.write(20, &vec![1; SECTOR_BYTES]);
        d.reboot();

        let path = tmp("roundtrip");
        d.save_image(&path).unwrap();
        let mut loaded = SimDisk::load_image(&path, SimClock::new()).unwrap();
        std::fs::remove_file(&path).ok();

        assert_eq!(loaded.read(10, 2).unwrap(), vec![0xAB; SECTOR_BYTES * 2]);
        assert_eq!(loaded.peek_label(10), Label::new(7, 0, PageKind::Data));
        assert!(loaded.peek_damaged(20));
        assert_eq!(loaded.read(100, 1).unwrap(), vec![0; SECTOR_BYTES]);
        assert_eq!(loaded.geometry(), d.geometry());
        assert_eq!(loaded.timing(), d.timing());
    }

    #[test]
    fn image_size_tracks_contents_not_capacity() {
        let d = SimDisk::tiny();
        let path = tmp("empty");
        d.save_image(&path).unwrap();
        let blank = std::fs::metadata(&path).unwrap().len();
        std::fs::remove_file(&path).ok();
        assert!(blank < 200, "blank image is tiny, got {blank} bytes");
    }

    #[test]
    fn rejects_garbage_files() {
        let path = tmp("garbage");
        std::fs::write(&path, b"definitely not an image").unwrap();
        assert!(SimDisk::load_image(&path, SimClock::new()).is_err());
        std::fs::remove_file(&path).ok();
    }
}
