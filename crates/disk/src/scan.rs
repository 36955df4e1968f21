//! Batched reads for the scavenger's scan.
//!
//! pFSCK-style checking splits a recovery scan into a *reader* stage —
//! large barrier-free read batches planned by [`crate::sched`] — and a
//! decode/verify stage charged to simulated worker CPUs
//! ([`crate::WorkerCpu`]). The reader half lives here:
//!
//! * [`ScanChunk`] is the unit the decoders take: one contiguous sector
//!   range with raw bytes and per-sector damage flags.
//! * [`read_chunks`] turns a list of disjoint ranges into one
//!   damage-tolerant batch read (a single barrier-free window — reads
//!   never conflict — so the scheduler can order the whole sweep, under
//!   the disk's own [`SimDisk::io_policy`]).

use crate::sched::{self, IoBatch, IoOp};
use crate::{DiskError, Result, SectorAddr, SimDisk};

/// One contiguous stretch of sectors read by the scan's reader stage.
#[derive(Clone, Debug)]
pub struct ScanChunk {
    /// Address of the first sector in the chunk.
    pub start: SectorAddr,
    /// Raw data, [`crate::SECTOR_BYTES`] per sector. Damaged sectors
    /// read as zeroes.
    pub bytes: Vec<u8>,
    /// Per-sector damage flags (media flaw or torn write).
    pub damaged: Vec<bool>,
}

impl ScanChunk {
    /// Number of sectors in the chunk.
    pub fn sectors(&self) -> usize {
        self.damaged.len()
    }
}

/// Reads every range in `ranges` as one damage-tolerant batch and
/// returns one [`ScanChunk`] per range, in submission order.
///
/// Reads never conflict, so the whole batch is a single barrier-free
/// window: on a disk scheduling [`IoPolicy::Satf`](crate::IoPolicy::Satf)
/// the scheduler coalesces adjacent ranges and takes the transfers
/// nearest-first, regardless of submission order.
pub fn read_chunks(disk: &mut SimDisk, ranges: &[(SectorAddr, usize)]) -> Result<Vec<ScanChunk>> {
    let mut batch = IoBatch::new();
    for &(start, n) in ranges {
        batch.push(IoOp::ReadAllowDamage { start, n });
    }
    let outputs = sched::execute(disk, &batch)?;
    let mut chunks = Vec::with_capacity(ranges.len());
    for (out, &(start, _)) in outputs.into_iter().zip(ranges) {
        let (bytes, damaged) = out
            .into_data_mask()
            .ok_or(DiskError::BadRequest("read produced no data"))?;
        chunks.push(ScanChunk {
            start,
            bytes,
            damaged,
        });
    }
    Ok(chunks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_chunks_returns_one_chunk_per_range() {
        let mut disk = SimDisk::tiny();
        let data = vec![0xA5u8; crate::SECTOR_BYTES * 2];
        disk.write(40, &data).unwrap();
        let chunks = read_chunks(&mut disk, &[(40, 2), (8, 1)]).unwrap();
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[0].start, 40);
        assert_eq!(chunks[0].sectors(), 2);
        assert_eq!(chunks[0].bytes, data);
        assert!(chunks[0].damaged.iter().all(|&d| !d));
        assert_eq!(chunks[1].start, 8);
        assert_eq!(chunks[1].sectors(), 1);
    }

    #[test]
    fn read_chunks_flags_damaged_sectors() {
        let mut disk = SimDisk::tiny();
        disk.damage_sector(41);
        let chunks = read_chunks(&mut disk, &[(40, 3)]).unwrap();
        assert_eq!(chunks[0].damaged, vec![false, true, false]);
    }
}
