//! The FSD log: a circular physical redo log divided into thirds.
//!
//! # Record format (§5.3)
//!
//! "Each log entry is comprised of a header page, a blank page, a copy of
//! the header page, the data pages being logged, an end page, copies of
//! the data pages being logged, and a copy of the end page. The same data
//! is never written to adjacent pages."
//!
//! ```text
//! offset:   0   1     2    3 .. 3+n-1   3+n   4+n .. 3+2n   4+2n
//! content:  H  blank  H'   D₁ .. Dₙ      E     D₁' .. Dₙ'     E'
//! ```
//!
//! A record with `n` data pages occupies `2n + 5` sectors — the paper's
//! arithmetic exactly: one logged page is a 7-sector record, 14 pages a
//! 33-sector record, 39 pages the observed 83-sector maximum.
//!
//! Failure of the write at any point is detectable: the end pages must
//! match the header (sequence number, boot count, page count, checksum),
//! and any single or double damaged sector is correctable from its copy
//! because copies are never adjacent to their originals.
//!
//! # End pages
//!
//! `E` and `E'` are one 512-byte image: magic, sequence number, boot
//! count, page count and the data checksum take 26 bytes, and the tail
//! behind them names the runs the volume handed to new owners since the
//! last group it logged ([`LogRecord::reallocated`]):
//!
//! ```text
//! bytes:  0 .. 26      26         27 .. 29   29 .. 29+8k               29+8k .. +8
//! field:  end proper   complete   count k    k × (start u32, len u32)  check word
//! ```
//!
//! The check word is the FNV-1a of the complete flag, the count and the
//! runs. The list is part of every record, an empty one included. A
//! group's list is spread over its records' end pages in order, at most
//! [`LISTED_RUNS_MAX`] runs to a record, and a group whose list is longer
//! than its images' records can hold is cut into as many records as the
//! list needs (`FsdVolume::force`). A tail whose flag is not 1, whose
//! count is larger than that, or whose check word disagrees makes its
//! copy of the end page a bad copy, like a damaged sector: the other copy
//! commits the record, and a record with no good copy fails the scan,
//! just as one whose data page is damaged in both copies does. So does a
//! log written before the tail existed (its tails are zeros): it boots at
//! rung 3. Redo uses the lists to write logged leaders home without
//! reading the homes (`recovery.rs`, the leader pass).
//!
//! # Write order
//!
//! [`Log::append`] puts the record on the platter in the order it lies
//! there, as two back-to-back transfers with one write barrier between
//! them: `[H ␣ H' D₁..Dₙ]`, then `[E D₁'..Dₙ' E']`. The second starts on
//! the sector where the first ended, so a force waits once — for the
//! header to come round — and never for `E`. An end page can therefore
//! exist only if both headers and every original `Dᵢ` are durable: an
//! accepted record always decodes from its originals, the copies are for
//! media damage after the fact, and a crash inside the second transfer
//! tears only `E`, a `Dᵢ'` or `E'`. `tests/append_sweep.rs` enumerates
//! every crash point of an append against exactly that statement.
//!
//! # Thirds (§5.3)
//!
//! "The log is divided into thirds... When the current log write is about
//! to enter a new third... Any pages logged in this new third, but not
//! logged in a later third, are written to the file name table by the
//! logging code... This simple algorithm averages 5/6ths of the log in
//! use." A pointer to the first valid record in the oldest third lives in
//! page zero of the log region, replicated in page two
//! ([`Replicated::log_meta`]; read, checked and repaired like every
//! replicated structure by `spare::read_replicated`). The copies
//! *inside* a record are a different geometry — `D` and `D'` in one
//! extent, judged against the end page — and stay with `decode_record`,
//! the one rule by which the scan, a replica and the thirds auditor take
//! a record. Where a logged image goes home is [`PageTarget::homes`].

use crate::error::FsdError;
use crate::layout::{FsdLayout, Replicated};
use crate::spare::{self, SpareMap};
use crate::Result;
use cedar_disk::scan::read_chunks;
use cedar_disk::sched::{self, IoBatch};
use cedar_disk::{SectorAddr, SimDisk, SECTOR_BYTES};
use cedar_vol::codec::{fnv1a, Reader, Writer};
use cedar_vol::Run;
use std::collections::VecDeque;

/// First data offset inside the log region (0 = meta A, 1 = blank,
/// 2 = meta B).
pub const DATA_START: u32 = 3;

/// Hard cap on data pages per record (bounded by header capacity).
pub const MAX_IMAGES_HARD: usize = 48;

/// Bytes of an end page ahead of its tail: magic, sequence number, boot
/// count, page count, checksum.
const END_BYTES: usize = 26;

/// Most runs one record's end pages list: what the tail holds behind its
/// flag, count and check word, at eight bytes a run.
pub const LISTED_RUNS_MAX: usize = (SECTOR_BYTES - END_BYTES - 3 - 8) / 8;

/// The tail's flag for a list that is all there.
const LIST_COMPLETE: u8 = 1;

const HDR_MAGIC: u32 = 0xF5D_0106;
const END_MAGIC: u32 = 0xF5D_E0D5;
const META_MAGIC: u32 = 0xF5D_3E7A;

/// Where a logged sector image is (re)written during recovery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PageTarget {
    /// Sector `sector` of name-table logical page `page` — recovery
    /// writes it to *both* name-table copies.
    NtSector {
        /// Logical name-table page.
        page: u32,
        /// Sector index within the page.
        sector: u32,
    },
    /// A leader page at an absolute sector address.
    Leader {
        /// The leader's sector.
        addr: SectorAddr,
    },
}

impl PageTarget {
    /// The home sectors of a logged image: both copies of a name-table
    /// sector, the one address of a leader. The only place
    /// that turns a target into addresses: boot's index of the log, the
    /// force's owed-map upkeep and the thirds auditor route through it.
    /// Call [`Self::validate`] first on a target read off a disk or a
    /// link.
    pub fn homes(&self, layout: &FsdLayout) -> impl Iterator<Item = SectorAddr> {
        let (a, b) = match *self {
            Self::NtSector { page, sector } => {
                let pair = layout.nt_pair(page);
                (pair.a + sector, Some(pair.b + sector))
            }
            Self::Leader { addr } => (addr, None),
        };
        std::iter::once(a).chain(b)
    }

    /// Checks that the decoded target addresses a sector this volume
    /// actually has. A target is four bytes read off a possibly-corrupt
    /// log sector; without this check a wild `page` panics in the
    /// layout's range asserts and a wild `addr` steers a redo write
    /// outside the data area — during the one phase that must not fail.
    pub fn validate(&self, layout: &FsdLayout) -> Result<()> {
        let ok = match self {
            Self::NtSector { page, sector } => {
                *page < layout.nt_pages && *sector < crate::NT_PAGE_SECTORS
            }
            Self::Leader { addr } => !layout.is_system(*addr) && *addr < layout.total_sectors,
        };
        if ok {
            Ok(())
        } else {
            Err(FsdError::Check(format!(
                "log record targets an impossible sector: {self:?}"
            )))
        }
    }
}

/// A decoded log record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogRecord {
    /// Where the scan found its header, as an offset within the log
    /// region. Not part of the record's bytes: [`Log::resume`] rebuilds
    /// the running log's books from it.
    pub offset: u32,
    /// Sequence number (consecutive along the chain).
    pub seq: u64,
    /// The log's count: the one its meta names, carried by every record
    /// the log holds. It is set when the log is made fresh (format, a
    /// rung-3 scavenge) and a log resumed after a restart keeps it, so it
    /// is not the boot page's count, which rises every session that
    /// writes.
    pub boot_count: u32,
    /// `true` on the last record of a group commit. A force larger than
    /// one record spans several; recovery drops a trailing group whose
    /// terminator never landed, keeping every force atomic.
    pub group_end: bool,
    /// The logged sector images.
    pub images: Vec<(PageTarget, Vec<u8>)>,
    /// This record's share of the runs its group names as handed to new
    /// owners since the group before it.
    pub reallocated: Vec<Run>,
}

impl LogRecord {
    /// Sectors the record fills in the log: `2n + 5` for `n` images.
    pub fn sectors(&self) -> u32 {
        u32::try_from(2 * self.images.len() + 5).unwrap_or(u32::MAX)
    }

    /// Checks that every run the record lists lies wholly inside one
    /// file-data area. The list is disk input like a target, and a wild
    /// run fails the scan the same way ([`PageTarget::validate`]).
    pub fn validate(&self, layout: &FsdLayout) -> Result<()> {
        let inside = |run: &&Run| {
            layout.data_areas().iter().any(|&(lo, hi)| {
                run.start >= lo && run.start.checked_add(run.len).is_some_and(|end| end <= hi)
            })
        };
        match self.reallocated.iter().find(|run| !inside(run)) {
            None => Ok(()),
            Some(run) => Err(FsdError::Check(format!(
                "log record {} lists a run outside the data areas: {run:?}",
                self.seq
            ))),
        }
    }
}

/// The replicated log meta page: where recovery starts reading. It is
/// written when the log is made fresh and whenever the writer enters a
/// third; a restart resumes the log it points into and writes nothing
/// here until then.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LogMeta {
    /// Offset (within the log region) of the first valid record.
    pub oldest_offset: u32,
    /// Sequence number of that record.
    pub oldest_seq: u64,
    /// The log's count: every record of the chain carries it. Named
    /// `boot_count` for the boot count of the session that made the log
    /// fresh; sessions that resume the log leave it alone.
    pub boot_count: u32,
}

impl LogMeta {
    fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u32(META_MAGIC)
            .u32(self.oldest_offset)
            .u64(self.oldest_seq)
            .u32(self.boot_count);
        let mut b = w.into_bytes();
        b.resize(SECTOR_BYTES, 0);
        b
    }

    fn decode(bytes: &[u8]) -> std::result::Result<Self, String> {
        let mut r = Reader::new(bytes);
        if r.u32()? != META_MAGIC {
            return Err("bad log meta magic".into());
        }
        Ok(Self {
            oldest_offset: r.u32()?,
            oldest_seq: r.u64()?,
            boot_count: r.u32()?,
        })
    }

    /// Checks that the decoded scan start lies inside the log's data
    /// area. The magic guards against reading a non-meta page, not
    /// against a corrupted offset field on a genuine one: an offset past
    /// the region would otherwise seed the record scan (and its `2n + 5`
    /// stride arithmetic) with garbage.
    pub fn validate(&self, log_size: u32) -> Result<()> {
        if self.oldest_offset >= DATA_START && self.oldest_offset < log_size {
            Ok(())
        } else {
            Err(FsdError::Check(format!(
                "log meta oldest_offset {} outside data area {}..{}",
                self.oldest_offset, DATA_START, log_size
            )))
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct LiveRecord {
    offset: u32,
    seq: u64,
}

/// The in-memory state of the running log.
#[derive(Debug)]
pub struct Log {
    /// First sector of the log region on disk.
    start: SectorAddr,
    /// Total sectors in the region (meta + data).
    size: u32,
    boot_count: u32,
    write_pos: u32,
    next_seq: u64,
    current_third: u8,
    live: VecDeque<LiveRecord>,
    oldest: (u32, u64),
    max_images: usize,
}

impl Log {
    /// Creates a fresh, empty log whose records carry `boot_count`: at
    /// format time, and when a rung-3 scavenge rebuilds the volume
    /// without the log. Every other boot resumes the log it scanned
    /// ([`Self::resume`]). Call [`Self::write_meta`] afterwards to persist
    /// the pointer. Fails if the region cannot hold even a one-page
    /// record per third.
    pub fn fresh(start: SectorAddr, size: u32, boot_count: u32) -> Result<Self> {
        let third_len = size.saturating_sub(DATA_START) / 3;
        let max_images = MAX_IMAGES_HARD.min(((third_len.saturating_sub(5)) / 2) as usize);
        if max_images < 1 {
            return Err(FsdError::Check(format!(
                "log region too small: {size} sectors"
            )));
        }
        Ok(Self {
            start,
            size,
            boot_count,
            write_pos: DATA_START,
            next_seq: 1,
            current_third: 0,
            live: VecDeque::new(),
            oldest: (DATA_START, 1),
            max_images,
        })
    }

    /// The running log a restart carries on with: the chain `records`
    /// that [`scan_records`] read from `meta`, every one of them still
    /// live in the third it starts in. The next record goes behind the
    /// last one, with the next sequence number and the meta's count —
    /// over the first record of a group the crash tore, if there was one,
    /// and with that record's sequence number, so nothing of that group
    /// can join the chain again. An empty chain resumes where the meta
    /// points. Writes nothing.
    pub fn resume(
        start: SectorAddr,
        size: u32,
        meta: &LogMeta,
        records: &[LogRecord],
    ) -> Result<Self> {
        let mut log = Self::fresh(start, size, meta.boot_count)?;
        log.oldest = (meta.oldest_offset, meta.oldest_seq);
        log.live = records
            .iter()
            .map(|r| LiveRecord {
                offset: r.offset,
                seq: r.seq,
            })
            .collect();
        (log.write_pos, log.next_seq) = match records.last() {
            Some(r) => (r.offset + r.sectors(), r.seq + 1),
            None => (meta.oldest_offset, meta.oldest_seq),
        };
        // The third holding the last sector written: entered already.
        log.current_third = log.third_of(log.write_pos - u32::from(!records.is_empty()));
        Ok(log)
    }

    /// The live records, oldest first: where each starts and in which
    /// third (what the thirds auditor reads back).
    #[cfg(debug_assertions)]
    pub(crate) fn live_thirds(&self) -> Vec<(u32, u8)> {
        let third = |r: &LiveRecord| (r.offset, self.third_of(r.offset));
        self.live.iter().map(third).collect()
    }

    /// Largest number of images a single record may carry on this log.
    pub fn max_images(&self) -> usize {
        self.max_images
    }

    /// Sequence number the next append will use.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Sector images that fit into one third of the log as a single
    /// record chain (each image costs two sectors plus five of record
    /// overhead).
    pub fn third_capacity_images(&self) -> usize {
        ((self.third_len().saturating_sub(5)) / 2) as usize
    }

    /// Log-region offset where the next record will start (fault-injection
    /// campaigns aim media faults at upcoming log writes with this).
    pub fn next_record_offset(&self) -> u32 {
        self.write_pos
    }

    /// Sectors of log data area currently holding live records
    /// (for the 5/6-utilization measurement).
    pub fn live_span_sectors(&self) -> u32 {
        match (self.live.front(), self.live.back()) {
            (Some(f), Some(_)) => {
                if self.write_pos >= f.offset {
                    self.write_pos - f.offset
                } else {
                    (self.size - f.offset) + (self.write_pos - DATA_START)
                }
            }
            _ => 0,
        }
    }

    /// Total data-area sectors.
    pub fn data_sectors(&self) -> u32 {
        self.size - DATA_START
    }

    fn third_len(&self) -> u32 {
        (self.size - DATA_START) / 3
    }

    /// The third of the log region `offset` lies in.
    pub(crate) fn third_of(&self, offset: u32) -> u8 {
        let t = offset.saturating_sub(DATA_START) / self.third_len().max(1);
        u8::try_from(t).unwrap_or(2).min(2)
    }

    /// Writes the replicated meta pages (offsets 0 and 2 of the region).
    /// Both copies go out in one window (they are identical, so their
    /// relative order is immaterial); a sector that fails is rewritten
    /// and, if it fails again, remapped through `spare`.
    pub fn write_meta(&self, disk: &mut SimDisk, spare: &mut SpareMap) -> Result<()> {
        let meta = LogMeta {
            oldest_offset: self.oldest.0,
            oldest_seq: self.oldest.1,
            boot_count: self.boot_count,
        };
        let writes = Replicated::log_meta(self.start).both(meta.encode());
        spare::scrub_batch(disk, spare, writes.into())
    }

    /// Reads the meta page: both copies, through
    /// `spare::read_replicated` — a damaged or undecodable copy is
    /// rewritten from the other on the way, so a second media fault
    /// cannot strand the volume with a single copy.
    pub fn read_meta(
        disk: &mut SimDisk,
        spare: &mut SpareMap,
        log_start: SectorAddr,
    ) -> Result<LogMeta> {
        let pair = Replicated::log_meta(log_start);
        let (meta, _) =
            spare::read_replicated(disk, spare, pair, None, |bytes| LogMeta::decode(bytes).ok())?;
        Ok(meta)
    }

    /// Appends one record, its end pages listing `reallocated` (see
    /// [`encode_record`]). `flush` is called once for each third
    /// the record *enters* (reclaiming it), before the record is written —
    /// the volume uses it to write home every page whose only log copy
    /// lives in that third.
    ///
    /// Returns `(third, sealed)` where `third` is the third the
    /// record starts in (the page-tracking tag) and `sealed` is the record
    /// as [`encode_record`] laid it out for the platter — the bytes the
    /// replication stream ships.
    pub fn append(
        &mut self,
        disk: &mut SimDisk,
        spare: &mut SpareMap,
        images: &[(PageTarget, Vec<u8>)],
        group_end: bool,
        reallocated: &[Run],
        mut flush: impl FnMut(&mut SimDisk, &mut SpareMap, u8) -> Result<()>,
    ) -> Result<(u8, Vec<u8>)> {
        let n = images.len();
        if n == 0 || n > self.max_images {
            return Err(FsdError::Check(format!(
                "record of {n} images (this log takes 1..={})",
                self.max_images
            )));
        }
        let len = 2 * n as u32 + 5;
        let mut pos = self.write_pos;
        if pos + len > self.size {
            pos = DATA_START;
        }
        let t_start = self.third_of(pos);
        let t_end = self.third_of(pos + len - 1);
        let mut entered = Vec::new();
        if t_start != self.current_third {
            entered.push(t_start);
        }
        if t_end != t_start {
            entered.push(t_end);
        }
        for &t in &entered {
            flush(disk, spare, t)?;
            // Drop live records in the reclaimed third.
            while let Some(front) = self.live.front() {
                if self.third_of(front.offset) == t {
                    self.live.pop_front();
                } else {
                    break;
                }
            }
            self.oldest = self
                .live
                .front()
                .map(|r| (r.offset, r.seq))
                .unwrap_or((pos, self.next_seq));
            self.write_meta(disk, spare)?;
            self.current_third = t;
        }

        let seq = self.next_seq;
        let end = RecordEnd {
            group_end,
            reallocated,
        };
        let bytes = encode_record(images, seq, self.boot_count, end)?;
        debug_assert_eq!(bytes.len(), len as usize * SECTOR_BYTES);
        // "Data spread over the disk can be logically and atomically
        // updated with a single disk write to the log." The record goes
        // out as two back-to-back transfers in platter order with a
        // barrier between them: `[H ␣ H' D₁..Dₙ]`, then `[E D₁'..Dₙ' E']`
        // starting on the very sector where the first one ended, so the
        // head never waits for `E` to come round again. The invariant:
        // an end page can only exist if window 1 — both headers and every
        // original `Dᵢ` — is wholly durable, so an accepted record always
        // decodes from its originals (`decode_record` takes them first
        // and checks them against the end page's checksum); the copies
        // are for media damage after the fact, and a crash inside window
        // 2 tears only `E`, `Dᵢ'` or `E'`. That is the paper's own
        // single-write layout and exposure (`E` lands before the copies
        // there too), and it holds under any reordering of window 2's
        // pieces when a remapped sector splits it.
        let n = n as u32;
        let first_sector = self.start + pos;
        // Media faults inside the record are retried by rewriting the
        // window they struck — every sector is exclusively owned by the
        // record, so the rewrite is idempotent — escalating a twice-failed
        // sector into a spare-region remap. The barrier holds in every
        // round, and two rules keep the invariant through the retries.
        // Once window 1 is durable it is never written again: a retry on
        // behalf of a bad copy must not put the originals back under the
        // head, where a crash could tear a `Dᵢ` whose `Dᵢ'` is the sector
        // that failed, with `E` already standing. And once an original
        // has faulted, the copies move in front of the barrier: that
        // original may end up remapped, and the remap reaches the boot
        // page only after the append, so recovery may find it unreadable
        // and must be able to count on its copy wherever `E` exists.
        let mut window1_durable = false;
        let mut copies_first = false;
        let mut done = false;
        for _ in 0..spare::MAX_ROUNDS {
            let mut batch = IoBatch::new();
            // Record sectors `lo..hi`, split around any remapped one.
            let push = |batch: &mut IoBatch, lo: u32, hi: u32| {
                let bytes = &bytes[lo as usize * SECTOR_BYTES..hi as usize * SECTOR_BYTES];
                spare.push_write(batch, first_sector + lo, bytes)
            };
            // Window 1: H, blank, H', D₁..Dₙ.
            let mut first = Vec::new();
            if !window1_durable {
                first = push(&mut batch, 0, 3 + n);
                if copies_first {
                    first.extend(push(&mut batch, 4 + n, 4 + 2 * n));
                }
            }
            batch.barrier();
            // Window 2: the commit record E, the copies D₁'..Dₙ', and E'.
            let second = if copies_first {
                let mut ends = push(&mut batch, 3 + n, 4 + n);
                ends.extend(push(&mut batch, 4 + 2 * n, 5 + 2 * n));
                ends
            } else {
                push(&mut batch, 3 + n, 5 + 2 * n)
            };
            let results = sched::execute_partial(disk, &batch)?;
            if spare.absorb(&results, &first)? {
                copies_first = true;
            } else {
                window1_durable = true;
            }
            if !spare.absorb(&results, &second)? && window1_durable {
                done = true;
                break;
            }
        }
        if !done {
            return Err(FsdError::Check(
                "media-fault retry limit exceeded on log append".into(),
            ));
        }
        self.next_seq += 1;
        self.live.push_back(LiveRecord { offset: pos, seq });
        if self.live.len() == 1 {
            self.oldest = (pos, seq);
        }
        self.write_pos = pos + len;
        Ok((t_start, bytes))
    }
}

/// How a record ends: whether it closes its commit group, and its share
/// of the runs the group handed to new owners. A bare `bool` is a record
/// whose share is empty.
#[derive(Clone, Copy, Debug)]
pub struct RecordEnd<'a> {
    /// The record is the last of its group.
    pub group_end: bool,
    /// What its end pages list.
    pub reallocated: &'a [Run],
}

impl From<bool> for RecordEnd<'_> {
    fn from(group_end: bool) -> Self {
        Self {
            group_end,
            reallocated: &[],
        }
    }
}

/// Encodes a record into its `2n + 5` sector on-disk form, its end pages
/// listing `end.reallocated`. Fails on an oversized record, an image that
/// is not exactly one sector, or a share longer than [`LISTED_RUNS_MAX`].
pub fn encode_record<'a>(
    images: &[(PageTarget, Vec<u8>)],
    seq: u64,
    boot_count: u32,
    end: impl Into<RecordEnd<'a>>,
) -> Result<Vec<u8>> {
    let RecordEnd {
        group_end,
        reallocated,
    } = end.into();
    let n = images.len();
    let n16 = u16::try_from(n)
        .ok()
        .filter(|_| n <= MAX_IMAGES_HARD)
        .ok_or_else(|| FsdError::Check(format!("record of {n} images exceeds the hard cap")))?;
    let mut data = Vec::with_capacity(n * SECTOR_BYTES);
    for (_, img) in images {
        if img.len() != SECTOR_BYTES {
            return Err(FsdError::Check(format!(
                "logged image must be one sector, got {} bytes",
                img.len()
            )));
        }
        data.extend_from_slice(img);
    }
    let checksum = fnv1a(&data);

    let mut header = Writer::new();
    header
        .u32(HDR_MAGIC)
        .u64(seq)
        .u32(boot_count)
        .u8(u8::from(group_end))
        .u16(n16);
    for (t, _) in images {
        match t {
            PageTarget::NtSector { page, sector } => {
                header.u8(0).u32(*page).u32(*sector);
            }
            PageTarget::Leader { addr } => {
                header.u8(1).u32(*addr).u32(0);
            }
        }
    }
    let mut header = header.into_bytes();
    debug_assert!(header.len() <= SECTOR_BYTES, "header overflow");
    header.resize(SECTOR_BYTES, 0);

    let mut end = Writer::new();
    end.u32(END_MAGIC)
        .u64(seq)
        .u32(boot_count)
        .u16(n16)
        .u64(checksum);
    let k = reallocated.len();
    let k16 = u16::try_from(k)
        .ok()
        .filter(|_| k <= LISTED_RUNS_MAX)
        .ok_or_else(|| FsdError::Check(format!("{k} runs overflow an end page")))?;
    let mut list = Writer::new();
    list.u8(LIST_COMPLETE).u16(k16);
    for run in reallocated {
        list.u32(run.start).u32(run.len);
    }
    let list = list.into_bytes();
    end.bytes(&list).u64(fnv1a(&list));
    let mut end = end.into_bytes();
    end.resize(SECTOR_BYTES, 0);

    let mut out = Vec::with_capacity((2 * n + 5) * SECTOR_BYTES);
    out.extend_from_slice(&header); // H
    out.extend_from_slice(&[0u8; SECTOR_BYTES]); // blank
    out.extend_from_slice(&header); // H'
    out.extend_from_slice(&data); // D₁..Dₙ
    out.extend_from_slice(&end); // E
    out.extend_from_slice(&data); // D₁'..Dₙ'
    out.extend_from_slice(&end); // E'
    Ok(out)
}

/// The one rule by which a log record is taken: by the boot scan off the
/// log region, by a replica from the bytes shipped to it, by the thirds
/// auditor off the platters. `sectors(first, n)` hands over the record's
/// sectors `first..first + n` with a damage flag for each, or `None` where
/// they would run past what the reader holds: the three header sectors
/// first, and the other `2n + 2` only once a header is accepted.
///
/// The header is the first of `H`, `H'` that reads and decodes, and it
/// must carry `expected` (sequence number, count) when that is given. An
/// end page is a copy of `E`, `E'` that reads, decodes and names the
/// header's record; each data page comes from its original, or from its
/// copy where the original is damaged. An end page must seal the data
/// with its checksum, and the first sealing end page whose list decodes
/// gives the list.
///
/// `Ok(Err(why))` says no record starts here: the end of the log, a torn
/// write, a record another lap or epoch left, both headers lost. `Err` is
/// a failed read, or a record an end page commits whose data page or list
/// is damaged in both copies. The record comes back at offset 0.
fn decode_record(
    expected: Option<(u64, u32)>,
    mut sectors: impl FnMut(u32, u32) -> Result<Option<(Vec<u8>, Vec<bool>)>>,
) -> Result<std::result::Result<LogRecord, String>> {
    let past = || Ok(Err("the record runs past the sectors at hand".into()));
    // Header pair: H at +0, H' at +2 (never both lost under the 1–2
    // consecutive sector failure model).
    let Some((head, head_mask)) = sectors(0, 3)? else {
        return past();
    };
    let header_at = |i: usize| {
        if head_mask[i] {
            return Err(format!("header copy at +{i} damaged"));
        }
        decode_header(sector(&head, i))
    };
    let header = match header_at(0).or_else(|_| header_at(2)) {
        Ok(h) if expected.is_none_or(|e| e == (h.seq, h.boot_count)) => h,
        Ok(h) => return Ok(Err(format!("record {} is not the one expected", h.seq))),
        Err(why) => return Ok(Err(why)),
    };
    // Bounded by decode_header's MAX_IMAGES_HARD check.
    let n = header.targets.len();
    // Body: D₁..Dₙ, E, D₁'..Dₙ', E'.
    let Some((body, mask)) = sectors(3, u32::try_from(2 * n + 2).unwrap_or(u32::MAX))? else {
        return past();
    };
    // A copy that is unreadable, or that decodes as some other record's
    // end page, is a bad copy: it must not hide the other one.
    let ends: Vec<DecodedEnd> = [n, 2 * n + 1]
        .into_iter()
        .filter(|&i| !mask[i])
        .filter_map(|i| decode_end(sector(&body, i)).ok())
        .filter(|e| e.seq == header.seq && e.boot_count == header.boot_count && e.n == n)
        .collect();
    if ends.is_empty() {
        return Ok(Err("no end page: a torn record".into()));
    }
    // Reconstruct each data page from the original or its copy.
    let mut data = Vec::with_capacity(n * SECTOR_BYTES);
    for i in 0..n {
        let Some(page) = [i, n + 1 + i].into_iter().find(|&at| !mask[at]) else {
            return Err(FsdError::Check(format!(
                "log record {}: data page {i} and its copy both damaged",
                header.seq
            )));
        };
        data.extend_from_slice(sector(&body, page));
    }
    // So is a copy whose checksum does not seal the data.
    let checksum = fnv1a(&data);
    let mut sealed = ends.iter().filter(|e| e.checksum == checksum).peekable();
    if sealed.peek().is_none() {
        // Torn mid-record: stale bytes where data should be.
        return Ok(Err("no end page seals the data".into()));
    }
    // And so is one whose list does not decode. An end page is one
    // sector, so a crash cannot leave it written with its list torn: a
    // sealed record with no good list is damage, as both copies of a
    // data page lost are.
    let Some(reallocated) = sealed.find_map(|e| decode_list(e.tail)) else {
        return Err(FsdError::Check(format!(
            "log record {}: bad reallocation list in both end pages",
            header.seq
        )));
    };
    let images = header
        .targets
        .iter()
        .enumerate()
        .map(|(i, t)| (*t, sector(&data, i).to_vec()))
        .collect();
    Ok(Ok(LogRecord {
        offset: 0,
        seq: header.seq,
        boot_count: header.boot_count,
        group_end: header.group_end,
        images,
        reallocated,
    }))
}

/// Sector `i` of `bytes`.
fn sector(bytes: &[u8], i: usize) -> &[u8] {
    &bytes[i * SECTOR_BYTES..(i + 1) * SECTOR_BYTES]
}

/// Decodes one sealed record from the bytes [`encode_record`] produced,
/// by the rule the boot scan takes a record by, every sector read clean:
/// the replica side of log shipping turns a shipped record back into
/// `(target, image)` pairs with it. Any record the scan would not take, or
/// bytes longer than the record, are rejected. The record's `offset` is
/// 0: it came over a link, not out of a log region.
pub fn decode_record_bytes(bytes: &[u8]) -> Result<LogRecord> {
    let fail = |m: String| FsdError::Check(format!("shipped record rejected: {m}"));
    let clean = |first: u32, n: u32| {
        let range = first as usize * SECTOR_BYTES..(first + n) as usize * SECTOR_BYTES;
        Ok(bytes
            .get(range)
            .map(|b| (b.to_vec(), vec![false; n as usize])))
    };
    let record = decode_record(None, clean)
        .map_err(|e| fail(e.to_string()))?
        .map_err(fail)?;
    if bytes.len() != record.sectors() as usize * SECTOR_BYTES {
        return Err(fail("bytes run past the record".into()));
    }
    Ok(record)
}

struct DecodedHeader {
    seq: u64,
    boot_count: u32,
    group_end: bool,
    targets: Vec<PageTarget>,
}

fn decode_header(bytes: &[u8]) -> std::result::Result<DecodedHeader, String> {
    let mut r = Reader::new(bytes);
    if r.u32()? != HDR_MAGIC {
        return Err("bad header magic".into());
    }
    let seq = r.u64()?;
    let boot_count = r.u32()?;
    let group_end = r.u8()? != 0;
    let n = r.u16()? as usize;
    if n > MAX_IMAGES_HARD {
        return Err("impossible page count".into());
    }
    let mut targets = Vec::with_capacity(n);
    for _ in 0..n {
        let kind = r.u8()?;
        let a = r.u32()?;
        let b = r.u32()?;
        targets.push(match kind {
            0 => PageTarget::NtSector { page: a, sector: b },
            1 => PageTarget::Leader { addr: a },
            k => return Err(format!("bad target kind {k}")),
        });
    }
    Ok(DecodedHeader {
        seq,
        boot_count,
        group_end,
        targets,
    })
}

/// An end page's proper, and its tail undecoded: the list is read only
/// from the copy that commits the record.
struct DecodedEnd<'a> {
    seq: u64,
    boot_count: u32,
    n: usize,
    checksum: u64,
    tail: &'a [u8],
}

fn decode_end(bytes: &[u8]) -> std::result::Result<DecodedEnd<'_>, String> {
    let mut r = Reader::new(bytes);
    if r.u32()? != END_MAGIC {
        return Err("bad end magic".into());
    }
    Ok(DecodedEnd {
        seq: r.u64()?,
        boot_count: r.u32()?,
        n: r.u16()? as usize,
        checksum: r.u64()?,
        tail: r.bytes(r.remaining())?,
    })
}

/// The runs an end page's tail lists, if the list is complete and
/// passes its check word.
fn decode_list(tail: &[u8]) -> Option<Vec<Run>> {
    let mut r = Reader::new(tail);
    if r.u8().ok()? != LIST_COMPLETE {
        return None;
    }
    let k = usize::from(r.u16().ok()?);
    if k > LISTED_RUNS_MAX {
        return None;
    }
    let mut runs = Vec::with_capacity(k);
    for _ in 0..k {
        runs.push(Run::new(r.u32().ok()?, r.u32().ok()?));
    }
    let listed = &tail[..tail.len() - r.remaining()];
    (r.u64().ok()? == fnv1a(listed)).then_some(runs)
}

/// The record whose header is at `offset`, read off the platters as they
/// lie — through the remap table, without charging time or touching the
/// stats — if the scan would take it there; a sector never written counts
/// as damaged. The thirds auditor's reader; a record it cannot read back
/// is an error for the auditor to pass over.
#[cfg(debug_assertions)]
pub(crate) fn peek_record(
    disk: &SimDisk,
    spare: &SpareMap,
    log_start: SectorAddr,
    offset: u32,
) -> Result<LogRecord> {
    let peek = |first: u32, n: u32| {
        let (mut bytes, mut damaged) = (Vec::new(), Vec::new());
        for i in first..first + n {
            let at = disk.peek_data(spare.translate(log_start + offset + i));
            bytes.extend_from_slice(at.unwrap_or(&[0; SECTOR_BYTES]));
            damaged.push(at.is_none());
        }
        Ok(Some((bytes, damaged)))
    };
    let record = decode_record(None, peek)?.map_err(FsdError::Check)?;
    Ok(LogRecord { offset, ..record })
}

/// Read-ahead buffer for the recovery scan: instead of issuing one small
/// read per record probe, the log region is pulled in track-sized chunks,
/// batched and coalesced through the scheduler, and probes are then
/// served from memory. Chunks load lazily, so the scan still reads only
/// as far as the live chain reaches (plus one chunk of slack).
struct ScanBuffer {
    log_start: SectorAddr,
    log_size: u32,
    chunk: u32,
    data: Vec<u8>,
    mask: Vec<bool>,
    loaded: Vec<bool>,
}

impl ScanBuffer {
    fn new(disk: &SimDisk, log_start: SectorAddr, log_size: u32) -> Self {
        let chunk = disk.geometry().sectors_per_track.max(1);
        let chunks = log_size.div_ceil(chunk) as usize;
        Self {
            log_start,
            log_size,
            chunk,
            data: vec![0u8; log_size as usize * SECTOR_BYTES],
            mask: vec![false; log_size as usize],
            loaded: vec![false; chunks],
        }
    }

    /// Loads every not-yet-resident chunk covering `offset..offset + n`
    /// in one batched submission (adjacent chunks coalesce into single
    /// transfers). Chunk reads split wherever the remap table makes the
    /// physical run discontiguous, so a remapped log sector is read from
    /// its spare-region home.
    fn ensure(&mut self, disk: &mut SimDisk, spare: &SpareMap, offset: u32, n: u32) -> Result<()> {
        let lo = offset / self.chunk;
        let hi = (offset + n - 1) / self.chunk;
        // Each piece's physical range, and the log offset it fills.
        let mut ranges: Vec<(SectorAddr, usize)> = Vec::new();
        let mut offsets: Vec<usize> = Vec::new();
        let mut chunks: Vec<u32> = Vec::new();
        for c in lo..=hi {
            if self.loaded[c as usize] {
                continue;
            }
            let s = c * self.chunk;
            let e = (s + self.chunk).min(self.log_size);
            for (i, phys, len) in spare.pieces(self.log_start + s, e - s) {
                ranges.push((phys, len as usize));
                offsets.push((s + i) as usize);
            }
            chunks.push(c);
        }
        if ranges.is_empty() {
            return Ok(());
        }
        // Indexed rather than zipped: the offset is the scan's own, not
        // bytes off the disk, and `disk-taint` keeps them apart that way.
        for (i, piece) in read_chunks(disk, &ranges)?.into_iter().enumerate() {
            let s = offsets[i];
            let (bytes, dmg) = (piece.bytes, piece.damaged);
            // The transfer length came back from the I/O layer; a short or
            // oversized chunk would slice out of bounds below.
            if bytes.len() != dmg.len() * SECTOR_BYTES
                || dmg.len() > self.mask.len().saturating_sub(s)
            {
                return Err(FsdError::Check(
                    "log scan returned a malformed chunk".into(),
                ));
            }
            self.data[s * SECTOR_BYTES..s * SECTOR_BYTES + bytes.len()].copy_from_slice(&bytes);
            self.mask[s..s + dmg.len()].copy_from_slice(&dmg);
        }
        for c in chunks {
            self.loaded[c as usize] = true;
        }
        Ok(())
    }

    /// Reads `n` sectors at `offset` (within the log region), with the
    /// same damage semantics as `SimDisk::read_allow_damage`.
    fn read(
        &mut self,
        disk: &mut SimDisk,
        spare: &SpareMap,
        offset: u32,
        n: u32,
    ) -> Result<(Vec<u8>, Vec<bool>)> {
        self.ensure(disk, spare, offset, n)?;
        let s = offset as usize;
        let e = s + n as usize;
        Ok((
            self.data[s * SECTOR_BYTES..e * SECTOR_BYTES].to_vec(),
            self.mask[s..e].to_vec(),
        ))
    }
}

/// The record at `offset` if the scan takes it there (`decode_record`,
/// `expected` being its sequence number and count), or `None`. A record
/// whose end page commits it but whose data page or list is damaged in
/// both copies is a `Check` error.
fn read_record_at(
    disk: &mut SimDisk,
    spare: &SpareMap,
    buf: &mut ScanBuffer,
    log_size: u32,
    offset: u32,
    expected: (u64, u32),
) -> Result<Option<LogRecord>> {
    if offset > log_size.saturating_sub(5) {
        return Ok(None);
    }
    let record = decode_record(Some(expected), |first, n| {
        if offset + first + n > log_size {
            return Ok(None);
        }
        buf.read(disk, spare, offset + first, n).map(Some)
    })?;
    Ok(record.ok().map(|r| LogRecord { offset, ..r }))
}

/// Scans the live record chain starting from the meta pointer — the core
/// of crash recovery. Records are returned oldest first. A record joins
/// the chain when it carries the next sequence number and the meta's
/// count. A fresh log starts its sequence numbers again at one over the
/// records of the log before, so a count of its own keeps those out. A
/// resumed log ([`Log::resume`]) keeps its count, and past the chain's
/// end a record with that count and a sequence number not below the next
/// can only be a non-terminal member of the group a crash tore: the
/// crash stopped that force, and the resumed chain writes over it from
/// its first record on. Such a record joins only a group that never
/// terminates, which is dropped. The read-ahead is submitted under the
/// disk's policy, like every other batch of the volume.
pub fn scan_records(
    disk: &mut SimDisk,
    log_start: SectorAddr,
    log_size: u32,
    spare: &SpareMap,
    meta: &LogMeta,
) -> Result<Vec<LogRecord>> {
    let mut buf = ScanBuffer::new(disk, log_start, log_size);
    let mut records = Vec::new();
    // The meta page is disk input: a corrupted offset must fail typed
    // here, not seed the record-stride arithmetic below.
    meta.validate(log_size)?;
    let mut pos = meta.oldest_offset;
    let mut expected = meta.oldest_seq;
    let epoch = meta.boot_count;
    loop {
        if pos + 5 > log_size {
            pos = DATA_START;
        }
        let mut next = read_record_at(disk, spare, &mut buf, log_size, pos, (expected, epoch))?;
        if next.is_none() && pos != DATA_START {
            // The writer may have wrapped where we did not expect it.
            pos = DATA_START;
            next = read_record_at(disk, spare, &mut buf, log_size, pos, (expected, epoch))?;
        }
        let Some(rec) = next else {
            break;
        };
        pos += rec.sectors();
        records.push(rec);
        expected += 1;
    }
    // Atomic group commit: drop a trailing group whose terminator never
    // made it to disk.
    while records.last().is_some_and(|r| !r.group_end) {
        records.pop();
    }
    Ok(records)
}

/// Zeroes the tail of every end page in the log region, out of band: the
/// log as a volume wrote it before the end pages carried lists, record
/// for record. Such a log does not scan.
#[cfg(test)]
pub(crate) fn strip_lists(disk: &mut SimDisk, log_start: SectorAddr, log_size: u32) {
    for addr in log_start + DATA_START..log_start + log_size {
        let Some(bytes) = disk.peek_data(addr) else {
            continue;
        };
        if bytes[..4] != END_MAGIC.to_le_bytes() {
            continue;
        }
        let tail: Vec<(usize, u8)> = (END_BYTES..SECTOR_BYTES)
            .map(|i| (i, bytes[i]))
            .filter(|&(_, b)| b != 0)
            .collect();
        for (i, b) in tail {
            disk.corrupt_byte(addr, i, b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedar_disk::{CrashPlan, DiskGeometry, DiskTiming, IoPolicy, SimClock};

    const LOG_START: u32 = 100;
    const LOG_SIZE: u32 = 303; // Thirds of 100 sectors each.

    fn disk() -> SimDisk {
        SimDisk::new(DiskGeometry::TINY, DiskTiming::TINY, SimClock::new())
    }

    fn img(tag: u8) -> Vec<u8> {
        vec![tag; SECTOR_BYTES]
    }

    fn nt(page: u32, sector: u32, tag: u8) -> (PageTarget, Vec<u8>) {
        (PageTarget::NtSector { page, sector }, img(tag))
    }

    fn no_flush(_: &mut SimDisk, _: &mut SpareMap, _: u8) -> Result<()> {
        Ok(())
    }

    #[test]
    fn record_sector_arithmetic_matches_paper() {
        // One data page → 7 sectors; 14 pages → 33; 39 pages → 83 (§5.4).
        for (n, sectors) in [(1usize, 7usize), (14, 33), (39, 83)] {
            let images: Vec<_> = (0..n).map(|i| nt(i as u32, 0, i as u8)).collect();
            let bytes = encode_record(&images, 1, 1, true).unwrap();
            assert_eq!(bytes.len() / SECTOR_BYTES, sectors);
        }
    }

    #[test]
    fn end_pages_carry_a_list_of_up_to_fifty_nine_runs() {
        assert_eq!(LISTED_RUNS_MAX, 59);
        let images = [nt(1, 0, 7)];
        let listed = |reallocated: &[Run]| {
            let end = RecordEnd {
                group_end: true,
                reallocated,
            };
            let bytes = encode_record(&images, 4, 2, end)?;
            Ok::<_, FsdError>(decode_record_bytes(&bytes)?.reallocated)
        };
        let full: Vec<Run> = (0..59).map(|i| Run::new(1000 + 3 * i, 2)).collect();
        assert_eq!(listed(&full).unwrap(), full);
        assert_eq!(listed(&[]).unwrap(), Vec::new());
        let over: Vec<Run> = (0..60).map(|i| Run::new(1000 + 3 * i, 2)).collect();
        assert!(listed(&over).is_err());
    }

    /// A listed run must lie wholly inside one file-data area, or the
    /// record fails the scan like a wild target does.
    #[test]
    fn a_listed_run_outside_the_data_areas_fails_validation() {
        let layout = FsdLayout::compute(&DiskGeometry::TINY, 24, 160);
        let [(small, metadata), (_, end)] = layout.data_areas();
        let record = |run| LogRecord {
            offset: DATA_START,
            seq: 1,
            boot_count: 1,
            group_end: true,
            images: Vec::new(),
            reallocated: vec![Run::new(small, 1), run],
        };
        for run in [Run::new(small, 2), Run::new(end - 1, 1)] {
            record(run).validate(&layout).unwrap();
        }
        for run in [
            Run::new(0, 1),
            Run::new(metadata - 1, 2),
            Run::new(end - 1, 2),
            Run::new(u32::MAX, 2),
        ] {
            let err = record(run).validate(&layout).unwrap_err();
            assert!(matches!(err, FsdError::Check(_)), "{run:?}: {err}");
        }
    }

    /// The list is a field of every record: end pages whose tail is
    /// zeros, as the log wrote them before the lists, do not decode.
    #[test]
    fn a_record_without_a_list_is_rejected() {
        let mut bytes = encode_record(&[nt(1, 0, 7)], 4, 2, true).unwrap();
        for end in [4, 6] {
            bytes[end * SECTOR_BYTES + END_BYTES..(end + 1) * SECTOR_BYTES].fill(0);
        }
        let err = decode_record_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("bad reallocation list"), "{err}");
    }

    /// Sectors and their damage flags, as [`decode_record`] asks for them.
    type Sectors = Result<Option<(Vec<u8>, Vec<bool>)>>;

    /// The reader [`decode_record`] asks for sectors: `bytes` a record's
    /// sectors, bit `i` of `mask` the damage flag of sector `i`.
    fn masked(bytes: &[u8], mask: u64) -> impl FnMut(u32, u32) -> Sectors + '_ {
        move |first, n| {
            let range = first as usize * SECTOR_BYTES..(first + n) as usize * SECTOR_BYTES;
            let flags = (first..first + n).map(|i| mask >> i & 1 == 1).collect();
            Ok(bytes.get(range).map(|b| (b.to_vec(), flags)))
        }
    }

    /// Sector `i` of `bytes`, to overwrite.
    fn sector_mut(bytes: &mut [u8], i: usize) -> &mut [u8] {
        &mut bytes[i * SECTOR_BYTES..(i + 1) * SECTOR_BYTES]
    }

    /// A record of `n` images tagged from `tag`, with a one-run list.
    fn record_of(n: u8, seq: u64, tag: u8) -> (Vec<u8>, LogRecord) {
        let images: Vec<_> = (0..n).map(|i| nt(u32::from(i), 0, tag + i)).collect();
        let listed = [Run::new(1000 + u32::from(tag), 4)];
        let end = RecordEnd {
            group_end: true,
            reallocated: &listed,
        };
        let bytes = encode_record(&images, seq, 2, end).unwrap();
        let record = LogRecord {
            offset: 0,
            seq,
            boot_count: 2,
            group_end: true,
            images,
            reallocated: listed.to_vec(),
        };
        (bytes, record)
    }

    /// §5.8's failure model: the damage is one run of one or two adjacent
    /// sectors, or none.
    fn inside_the_model(mask: u64) -> bool {
        mask == 0 || matches!(mask >> mask.trailing_zeros(), 0b1 | 0b11)
    }

    /// Every one of the `2^(2n + 5)` damage masks over a record of one to
    /// three data pages. Inside §5.8's model the record decodes whole,
    /// from whichever copies survive: no two adjacent sectors hold the
    /// same page. Outside it the decoder takes the record whole, says no
    /// record is there, or names the record it cannot take — a data page
    /// lost in both copies — and never takes another record's bytes: a
    /// damaged sector holds here the sector another record put in its
    /// place, so a decoder that read one would return that record's data.
    #[test]
    fn the_decoder_takes_a_record_whole_or_not_at_all_under_every_damage_mask() {
        for n in 1..=3u8 {
            let (bytes, want) = record_of(n, 9, 10);
            let (other, _) = record_of(n, 8, 40);
            let sectors = 2 * usize::from(n) + 5;
            let mut taken_outside = 0;
            for mask in 0..1u64 << sectors {
                let mut rotten = bytes.clone();
                for i in (0..sectors).filter(|&i| mask >> i & 1 == 1) {
                    sector_mut(&mut rotten, i).copy_from_slice(sector(&other, i));
                }
                for expected in [None, Some((9, 2))] {
                    let got = decode_record(expected, masked(&rotten, mask));
                    match got {
                        Ok(Ok(record)) => {
                            assert_eq!(record, want, "n {n}, mask {mask:b}");
                            taken_outside += usize::from(!inside_the_model(mask));
                        }
                        _ if inside_the_model(mask) => panic!("n {n}, mask {mask:b}: {got:?}"),
                        Ok(Err(_)) => {}
                        Err(FsdError::Check(why)) => {
                            assert!(why.starts_with("log record 9: "), "mask {mask:b}: {why}")
                        }
                        Err(e) => panic!("n {n}, mask {mask:b}: {e}"),
                    }
                }
            }
            // Redundancy reaches past the model: a header, an end page
            // and one copy of each data page are enough.
            assert!(taken_outside > 0, "n {n}");
        }
    }

    /// Where the log laps itself a record is written over one the last
    /// lap left, whose sectors are whole and checksum-valid. Every
    /// mixture of the two, sector by sector and nothing flagged damaged —
    /// the new record torn anywhere, the old one of any length — is taken
    /// as the new record or the old one whole, or as no record: never
    /// the new header with a stale data or end page. Asked for the new
    /// record's sequence number, the old one is refused too.
    #[test]
    fn a_stale_sector_from_the_previous_lap_is_refused() {
        for n in 1..=3u8 {
            let (new, want) = record_of(n, 20, 10);
            let sectors = 2 * usize::from(n) + 5;
            for old_n in 1..=3u8 {
                let (mut old, stale) = record_of(old_n, 11, 40);
                assert_eq!(
                    decode_record(None, masked(&old, 0)).unwrap(),
                    Ok(stale.clone())
                );
                // The sectors of it that lie under the new record.
                old.resize(new.len(), 0);
                for mix in 0..1u64 << sectors {
                    let mut bytes = new.clone();
                    for i in (0..sectors).filter(|&i| mix >> i & 1 == 1) {
                        sector_mut(&mut bytes, i).copy_from_slice(sector(&old, i));
                    }
                    for expected in [None, Some((20, 2))] {
                        let got = decode_record(expected, masked(&bytes, 0)).unwrap();
                        let old_whole = expected.is_none() && old_n <= n;
                        match got {
                            Ok(record) if record == want => {}
                            Ok(record) if old_whole && record == stale => {}
                            Ok(record) => panic!("n {n}, old {old_n}, mix {mix:b}: {record:?}"),
                            Err(_) => {}
                        }
                    }
                }
            }
            assert_eq!(
                decode_record(Some((20, 2)), masked(&new, 0)).unwrap(),
                Ok(want)
            );
        }
    }

    /// The three readers of a record — the boot scan, a replica decoding
    /// the shipped bytes, the thirds auditor peeking at the platters —
    /// take the same record: a group spread over two records, name-table
    /// and leader targets, lists, and a record a crash cut short in its
    /// second window, right behind `E`.
    #[cfg(debug_assertions)]
    #[test]
    fn the_scan_the_replica_and_the_auditor_read_a_record_alike() {
        let mut d = disk();
        let mut sp = SpareMap::disabled();
        let mut log = Log::fresh(LOG_START, LOG_SIZE, 1).unwrap();
        log.write_meta(&mut d, &mut sp).unwrap();
        let leader = |addr, tag| (PageTarget::Leader { addr }, img(tag));
        let records = [
            (
                vec![nt(5, 0, 1), leader(900, 2)],
                false,
                vec![Run::new(1000, 4)],
            ),
            (
                vec![nt(5, 1, 3)],
                true,
                vec![Run::new(1010, 2), Run::new(1020, 1)],
            ),
            (vec![leader(901, 4), nt(6, 3, 5)], true, vec![]),
            (
                vec![nt(7, 2, 6), leader(902, 7)],
                true,
                vec![Run::new(1030, 8)],
            ),
        ];
        let mut sealed = Vec::new();
        for (images, group_end, listed) in &records[..3] {
            let append = log.append(&mut d, &mut sp, images, *group_end, listed, no_flush);
            sealed.push(append.unwrap().1);
        }
        // The last record: window 1 and `E` land, `D₁' D₂' E'` do not.
        let (images, group_end, listed) = &records[3];
        let torn_at = LOG_START + log.next_record_offset();
        d.schedule_crash(CrashPlan {
            after_sector_writes: 3 + 2 + 1,
            damaged_tail: 0,
        });
        let append = log.append(&mut d, &mut sp, images, *group_end, listed, no_flush);
        assert!(append.unwrap_err().is_crash());
        d.reboot();
        assert!(d.peek_data(torn_at + 5).is_some() && d.peek_data(torn_at + 6).is_none());
        let end = RecordEnd {
            group_end: *group_end,
            reallocated: listed,
        };
        sealed.push(encode_record(images, 4, 1, end).unwrap());

        macro_rules! fields {
            ($r:expr) => {
                (
                    $r.seq,
                    $r.boot_count,
                    $r.group_end,
                    $r.images.clone(),
                    $r.reallocated.clone(),
                )
            };
        }
        let meta = Log::read_meta(&mut d, &mut sp, LOG_START).unwrap();
        let scanned = scan_records(&mut d, LOG_START, LOG_SIZE, &sp, &meta).unwrap();
        assert_eq!(scanned.len(), 4);
        for ((rec, bytes), (images, group_end, listed)) in scanned.iter().zip(&sealed).zip(&records)
        {
            let want = fields!(rec);
            assert_eq!(want.3, *images);
            assert_eq!((want.2, &want.4), (*group_end, listed));
            assert_eq!(fields!(decode_record_bytes(bytes).unwrap()), want);
            let peeked = peek_record(&d, &sp, LOG_START, rec.offset).unwrap();
            assert_eq!(fields!(peeked), want, "record {}", rec.seq);
        }
    }

    #[test]
    fn append_then_scan_roundtrip() {
        let mut d = disk();
        let mut sp = SpareMap::disabled();
        let mut log = Log::fresh(LOG_START, LOG_SIZE, 1).unwrap();
        log.write_meta(&mut d, &mut sp).unwrap();
        log.append(
            &mut d,
            &mut sp,
            &[nt(5, 0, 0xAA), nt(5, 1, 0xBB)],
            true,
            &[],
            no_flush,
        )
        .unwrap();
        log.append(
            &mut d,
            &mut sp,
            &[(PageTarget::Leader { addr: 900 }, img(0xCC))],
            true,
            &[],
            no_flush,
        )
        .unwrap();
        let meta = Log::read_meta(&mut d, &mut sp, LOG_START).unwrap();
        let recs = scan_records(&mut d, LOG_START, LOG_SIZE, &sp, &meta).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].seq, 1);
        assert_eq!(recs[0].images.len(), 2);
        assert_eq!(
            recs[0].images[0].0,
            PageTarget::NtSector { page: 5, sector: 0 }
        );
        assert_eq!(recs[1].images[0].0, PageTarget::Leader { addr: 900 });
        assert_eq!(recs[1].images[0].1, img(0xCC));
    }

    #[test]
    fn a_record_is_two_writes_and_the_only_wait_is_for_the_header() {
        for policy in [IoPolicy::InOrder, IoPolicy::Satf] {
            let mut d = disk();
            let mut sp = SpareMap::disabled();
            d.set_io_policy(policy);
            let mut log = Log::fresh(LOG_START, LOG_SIZE, 1).unwrap();
            log.write_meta(&mut d, &mut sp).unwrap();
            for n in [1u32, 7, 20] {
                let images: Vec<_> = (0..n).map(|i| nt(i, 0, i as u8)).collect();
                let header = LOG_START + log.next_record_offset();
                let seek = d
                    .timing()
                    .seek_us(d.head_cylinder().abs_diff(d.geometry().cylinder_of(header)));
                let wait_for_header = d.position_cost_us(header) - seek;
                let before = d.stats();
                log.append(&mut d, &mut sp, &images, true, &[], no_flush)
                    .unwrap();
                let delta = d.stats().since(&before);
                assert_eq!(delta.writes, 2, "{policy:?} n={n}");
                assert_eq!(delta.sectors_written, 2 * n as u64 + 5);
                // [E D' E'] starts on the sector where [H ␣ H' D] ended,
                // so it waits for nothing. (None of these three records
                // changes cylinder inside its first transfer.)
                assert_eq!(
                    delta.rotation_us + delta.lost_rev_us,
                    wait_for_header,
                    "{policy:?} n={n}: {delta:?}"
                );
            }
        }
    }

    #[test]
    fn scan_reads_under_the_disks_policy() {
        // One 20-image record spans three tracks of the tiny disk: the
        // scheduler coalesces the read-ahead chunks into one transfer,
        // in-order submission reads them one by one.
        let reads_under = |policy: IoPolicy| {
            let mut d = disk();
            let mut sp = SpareMap::disabled();
            let mut log = Log::fresh(LOG_START, LOG_SIZE, 1).unwrap();
            log.write_meta(&mut d, &mut sp).unwrap();
            let images: Vec<_> = (0..20).map(|i| nt(i, 0, i as u8)).collect();
            log.append(&mut d, &mut sp, &images, true, &[], no_flush)
                .unwrap();
            d.set_io_policy(policy);
            let meta = Log::read_meta(&mut d, &mut sp, LOG_START).unwrap();
            let before = d.stats();
            let recs = scan_records(&mut d, LOG_START, LOG_SIZE, &sp, &meta).unwrap();
            assert_eq!(recs.len(), 1);
            d.stats().since(&before).reads
        };
        assert!(reads_under(IoPolicy::InOrder) > reads_under(IoPolicy::Satf));
    }

    #[test]
    fn empty_log_scans_to_nothing() {
        let mut d = disk();
        let mut sp = SpareMap::disabled();
        let log = Log::fresh(LOG_START, LOG_SIZE, 1).unwrap();
        log.write_meta(&mut d, &mut sp).unwrap();
        let meta = Log::read_meta(&mut d, &mut sp, LOG_START).unwrap();
        assert!(scan_records(&mut d, LOG_START, LOG_SIZE, &sp, &meta)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn meta_survives_first_copy_damage() {
        let mut d = disk();
        let mut sp = SpareMap::disabled();
        let log = Log::fresh(LOG_START, LOG_SIZE, 1).unwrap();
        log.write_meta(&mut d, &mut sp).unwrap();
        d.damage_sector(LOG_START);
        let meta = Log::read_meta(&mut d, &mut sp, LOG_START).unwrap();
        assert_eq!(meta.oldest_offset, DATA_START);
    }

    #[test]
    fn read_meta_scrubs_damaged_copy_back() {
        let mut d = disk();
        let mut sp = SpareMap::disabled();
        let log = Log::fresh(LOG_START, LOG_SIZE, 1).unwrap();
        log.write_meta(&mut d, &mut sp).unwrap();
        d.damage_sector(LOG_START);
        Log::read_meta(&mut d, &mut sp, LOG_START).unwrap();
        // The damaged copy A was rewritten from copy B: both copies now
        // read clean, so a follow-on fault on copy B is survivable.
        assert_eq!(sp.scrubbed, 1);
        let (_, mask) = d.read_allow_damage(LOG_START, 1).unwrap();
        assert_eq!(mask, vec![false]);
    }

    #[test]
    fn both_meta_copies_lost_is_a_check_error() {
        let mut d = disk();
        let mut sp = SpareMap::disabled();
        let log = Log::fresh(LOG_START, LOG_SIZE, 1).unwrap();
        log.write_meta(&mut d, &mut sp).unwrap();
        d.hard_damage_sector(LOG_START);
        d.hard_damage_sector(LOG_START + 2);
        let err = Log::read_meta(&mut d, &mut sp, LOG_START).unwrap_err();
        assert!(matches!(err, FsdError::Check(_)), "{err}");
    }

    #[test]
    fn append_remaps_grown_log_sector_and_commits() {
        use cedar_disk::FaultPlan;
        let mut d = disk();
        // Spare slots at sectors 10..14; the whole log region remappable.
        let mut sp = SpareMap::new(10, 4, vec![(LOG_START, LOG_START + LOG_SIZE)]);
        let mut log = Log::fresh(LOG_START, LOG_SIZE, 1).unwrap();
        log.write_meta(&mut d, &mut sp).unwrap();
        // A grown defect under D₁ of the first record (offset 3 + 3).
        d.set_fault_plan(&FaultPlan::none().with_grown(LOG_START + DATA_START + 3));
        log.append(
            &mut d,
            &mut sp,
            &[nt(1, 0, 0x5A), nt(2, 0, 0x6B)],
            true,
            &[],
            no_flush,
        )
        .unwrap();
        assert_eq!(sp.remapped, 1);
        // The record replays whole through the remap table.
        let meta = Log::read_meta(&mut d, &mut sp, LOG_START).unwrap();
        let recs = scan_records(&mut d, LOG_START, LOG_SIZE, &sp, &meta).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].images[0].1, img(0x5A));
    }

    #[test]
    fn append_scrubs_latent_log_sector() {
        use cedar_disk::FaultPlan;
        let mut d = disk();
        let mut sp = SpareMap::disabled();
        let mut log = Log::fresh(LOG_START, LOG_SIZE, 1).unwrap();
        log.write_meta(&mut d, &mut sp).unwrap();
        // A latent flaw under the end page: discovered by the write,
        // repaired by the rewrite, no remap needed.
        d.set_fault_plan(&FaultPlan::none().with_latent(LOG_START + DATA_START + 5));
        log.append(
            &mut d,
            &mut sp,
            &[nt(1, 0, 0x11), nt(2, 0, 0x22)],
            true,
            &[],
            no_flush,
        )
        .unwrap();
        assert_eq!(sp.scrubbed, 1);
        assert_eq!(sp.remapped, 0);
        let meta = Log::read_meta(&mut d, &mut sp, LOG_START).unwrap();
        let recs = scan_records(&mut d, LOG_START, LOG_SIZE, &sp, &meta).unwrap();
        assert_eq!(recs.len(), 1);
    }

    #[test]
    fn single_damaged_data_sector_recovered_from_copy() {
        let mut d = disk();
        let mut sp = SpareMap::disabled();
        let mut log = Log::fresh(LOG_START, LOG_SIZE, 1).unwrap();
        log.write_meta(&mut d, &mut sp).unwrap();
        log.append(
            &mut d,
            &mut sp,
            &[nt(1, 0, 0x11), nt(2, 0, 0x22)],
            true,
            &[],
            no_flush,
        )
        .unwrap();
        // Damage the first data original (record at offset 3; D₁ at +3).
        d.damage_sector(LOG_START + DATA_START + 3);
        let meta = Log::read_meta(&mut d, &mut sp, LOG_START).unwrap();
        let recs = scan_records(&mut d, LOG_START, LOG_SIZE, &sp, &meta).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].images[0].1, img(0x11));
    }

    #[test]
    fn two_adjacent_damaged_sectors_recovered() {
        let mut d = disk();
        let mut sp = SpareMap::disabled();
        let mut log = Log::fresh(LOG_START, LOG_SIZE, 1).unwrap();
        log.write_meta(&mut d, &mut sp).unwrap();
        log.append(
            &mut d,
            &mut sp,
            &[nt(1, 0, 0x11), nt(2, 0, 0x22)],
            true,
            &[],
            no_flush,
        )
        .unwrap();
        // The paper's failure model: two consecutive sectors die. Take out
        // D₂ and E (offsets +4 and +5 of the record at 3).
        d.damage_sector(LOG_START + DATA_START + 4);
        d.damage_sector(LOG_START + DATA_START + 5);
        let meta = Log::read_meta(&mut d, &mut sp, LOG_START).unwrap();
        let recs = scan_records(&mut d, LOG_START, LOG_SIZE, &sp, &meta).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].images[1].1, img(0x22));
    }

    #[test]
    fn header_damage_recovered_from_copy() {
        let mut d = disk();
        let mut sp = SpareMap::disabled();
        let mut log = Log::fresh(LOG_START, LOG_SIZE, 1).unwrap();
        log.write_meta(&mut d, &mut sp).unwrap();
        log.append(&mut d, &mut sp, &[nt(1, 0, 3)], true, &[], no_flush)
            .unwrap();
        d.damage_sector(LOG_START + DATA_START); // H
        let meta = Log::read_meta(&mut d, &mut sp, LOG_START).unwrap();
        assert_eq!(
            scan_records(&mut d, LOG_START, LOG_SIZE, &sp, &meta)
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn torn_record_write_is_not_replayed() {
        let mut d = disk();
        let mut sp = SpareMap::disabled();
        let mut log = Log::fresh(LOG_START, LOG_SIZE, 1).unwrap();
        log.write_meta(&mut d, &mut sp).unwrap();
        log.append(&mut d, &mut sp, &[nt(1, 0, 1)], true, &[], no_flush)
            .unwrap();
        // Second append crashes after 4 sectors (H, blank, H', D₁) — the
        // end page never lands.
        d.schedule_crash(CrashPlan {
            after_sector_writes: 4,
            damaged_tail: 1,
        });
        let err = log
            .append(
                &mut d,
                &mut sp,
                &[nt(2, 0, 2), nt(3, 0, 3)],
                true,
                &[],
                no_flush,
            )
            .unwrap_err();
        assert!(err.is_crash());
        d.reboot();
        let meta = Log::read_meta(&mut d, &mut sp, LOG_START).unwrap();
        let recs = scan_records(&mut d, LOG_START, LOG_SIZE, &sp, &meta).unwrap();
        assert_eq!(recs.len(), 1, "only the first record survives");
        assert_eq!(recs[0].seq, 1);
    }

    #[test]
    fn wraparound_chain_scans_correctly() {
        let mut d = disk();
        let mut sp = SpareMap::disabled();
        let mut log = Log::fresh(LOG_START, LOG_SIZE, 1).unwrap();
        log.write_meta(&mut d, &mut sp).unwrap();
        // Each 10-image record is 25 sectors; 300/25 = 12 per lap. Write
        // 30: the log wraps twice.
        for i in 0..30u8 {
            let images: Vec<_> = (0..10).map(|j| nt(j, 0, i)).collect();
            log.append(&mut d, &mut sp, &images, true, &[], no_flush)
                .unwrap();
        }
        let meta = Log::read_meta(&mut d, &mut sp, LOG_START).unwrap();
        let recs = scan_records(&mut d, LOG_START, LOG_SIZE, &sp, &meta).unwrap();
        assert!(!recs.is_empty());
        // The chain is consecutive and ends at the newest record.
        for w in recs.windows(2) {
            assert_eq!(w[1].seq, w[0].seq + 1);
        }
        assert_eq!(recs.last().unwrap().seq, 30);
        assert_eq!(recs.last().unwrap().images[0].1, img(29));
    }

    #[test]
    fn flush_called_once_per_entered_third() {
        let mut d = disk();
        let mut sp = SpareMap::disabled();
        let mut log = Log::fresh(LOG_START, LOG_SIZE, 1).unwrap();
        log.write_meta(&mut d, &mut sp).unwrap();
        let mut entered: Vec<u8> = Vec::new();
        // 25-sector records; third boundaries at offsets 3, 103, 203.
        for i in 0..13u8 {
            let images: Vec<_> = (0..10).map(|j| nt(j, 0, i)).collect();
            log.append(&mut d, &mut sp, &images, true, &[], |_, _, t| {
                entered.push(t);
                Ok(())
            })
            .unwrap();
        }
        // Offsets: 3,28,53,78 (third 0), 103.. (enters 1 — record at 103
        // was already in third 1 after spanning? offsets 3+25k: 103 starts
        // third 1, 203 third 2, 303 wraps → third 0 again.
        assert!(entered.contains(&1));
        assert!(entered.contains(&2));
        assert_eq!(entered.iter().filter(|&&t| t == 1).count(), 1);
    }

    #[test]
    fn log_utilization_approaches_five_sixths() {
        let mut d = disk();
        let mut sp = SpareMap::disabled();
        let mut log = Log::fresh(LOG_START, LOG_SIZE, 1).unwrap();
        log.write_meta(&mut d, &mut sp).unwrap();
        let mut samples = Vec::new();
        for i in 0..200u32 {
            let images: Vec<_> = (0..10).map(|j| nt(j, 0, i as u8)).collect();
            log.append(&mut d, &mut sp, &images, true, &[], no_flush)
                .unwrap();
            if i > 50 {
                samples.push(log.live_span_sectors() as f64 / log.data_sectors() as f64);
            }
        }
        let avg = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!(
            (0.6..0.95).contains(&avg),
            "steady-state log utilization {avg:.2} should be near 5/6"
        );
    }

    #[test]
    fn stale_records_from_previous_lap_not_replayed() {
        let mut d = disk();
        let mut sp = SpareMap::disabled();
        let mut log = Log::fresh(LOG_START, LOG_SIZE, 1).unwrap();
        log.write_meta(&mut d, &mut sp).unwrap();
        for i in 0..20u8 {
            let images: Vec<_> = (0..10).map(|j| nt(j, 0, i)).collect();
            log.append(&mut d, &mut sp, &images, true, &[], no_flush)
                .unwrap();
        }
        let meta = Log::read_meta(&mut d, &mut sp, LOG_START).unwrap();
        let recs = scan_records(&mut d, LOG_START, LOG_SIZE, &sp, &meta).unwrap();
        // Every replayed record must carry a seq >= the meta pointer's.
        assert!(recs.iter().all(|r| r.seq >= meta.oldest_seq));
        // And the newest record is present.
        assert_eq!(recs.last().unwrap().seq, 20);
    }

    /// A new epoch's log starts at the front with sequence number one
    /// again. Its first record is exactly as long as the old epoch's
    /// first, so the old second record (sequence two) sits right where
    /// the new chain ends — and is not part of it.
    #[test]
    fn a_fresh_epoch_does_not_chain_into_the_last_ones_records() {
        let mut d = disk();
        let mut sp = SpareMap::disabled();
        let mut old = Log::fresh(LOG_START, LOG_SIZE, 1).unwrap();
        old.write_meta(&mut d, &mut sp).unwrap();
        for tag in [1, 2] {
            old.append(
                &mut d,
                &mut sp,
                &[nt(1, 0, tag), nt(2, 0, tag)],
                true,
                &[],
                no_flush,
            )
            .unwrap();
        }
        let mut new = Log::fresh(LOG_START, LOG_SIZE, 2).unwrap();
        new.write_meta(&mut d, &mut sp).unwrap();
        new.append(
            &mut d,
            &mut sp,
            &[nt(3, 0, 9), nt(4, 0, 9)],
            true,
            &[],
            no_flush,
        )
        .unwrap();
        let meta = Log::read_meta(&mut d, &mut sp, LOG_START).unwrap();
        let recs = scan_records(&mut d, LOG_START, LOG_SIZE, &sp, &meta).unwrap();
        let chain: Vec<(u64, u32)> = recs.iter().map(|r| (r.seq, r.boot_count)).collect();
        assert_eq!(chain, [(1, 2)]);
    }

    /// The log a restart resumes: the chain on `d`, carried on.
    fn resumed(d: &mut SimDisk, sp: &mut SpareMap) -> (Log, Vec<LogRecord>) {
        let meta = Log::read_meta(d, sp, LOG_START).unwrap();
        let recs = scan_records(d, LOG_START, LOG_SIZE, sp, &meta).unwrap();
        (
            Log::resume(LOG_START, LOG_SIZE, &meta, &recs).unwrap(),
            recs,
        )
    }

    fn chain(d: &mut SimDisk, sp: &mut SpareMap) -> Vec<(u64, u32, u8)> {
        let (_, recs) = resumed(d, sp);
        let first_tag = |r: &LogRecord| r.images[0].1[0];
        recs.iter()
            .map(|r| (r.seq, r.offset, first_tag(r)))
            .collect()
    }

    fn page_images(n: u32, tag: u8) -> Vec<(PageTarget, Vec<u8>)> {
        (0..n).map(|j| nt(j, 0, tag)).collect()
    }

    /// A session that committed record 1 and then crashed inside a group
    /// of three five-image records (15 sectors each): the first two are
    /// on the platters, whole and non-terminal; the third is torn.
    fn torn_group() -> (SimDisk, SpareMap) {
        let mut d = disk();
        let mut sp = SpareMap::disabled();
        let mut log = Log::fresh(LOG_START, LOG_SIZE, 1).unwrap();
        log.write_meta(&mut d, &mut sp).unwrap();
        log.append(&mut d, &mut sp, &[nt(9, 0, 1)], true, &[], no_flush)
            .unwrap();
        for tag in [2, 3] {
            log.append(&mut d, &mut sp, &page_images(5, tag), false, &[], no_flush)
                .unwrap();
        }
        d.schedule_crash(CrashPlan {
            after_sector_writes: 6,
            damaged_tail: 1,
        });
        let torn = log.append(&mut d, &mut sp, &page_images(5, 4), true, &[], no_flush);
        assert!(torn.unwrap_err().is_crash());
        d.reboot();
        assert_eq!(
            chain(&mut d, &mut sp),
            [(1, DATA_START, 1)],
            "the group is dropped"
        );
        (d, sp)
    }

    /// The resumed chain goes on behind the last complete group, over the
    /// torn group's first record and with its sequence number; a record
    /// shorter than that one ends where no record with the next sequence
    /// number starts, and the scan ends at it.
    #[test]
    fn a_resumed_record_shorter_than_the_torn_groups_first_ends_the_chain() {
        let (mut d, mut sp) = torn_group();
        let (mut log, _) = resumed(&mut d, &mut sp);
        assert_eq!(
            (log.next_record_offset(), log.next_seq()),
            (DATA_START + 7, 2)
        );
        log.append(&mut d, &mut sp, &[nt(7, 0, 5)], true, &[], no_flush)
            .unwrap();
        d.crash_now();
        d.reboot();
        let new = (2, DATA_START + 7, 5);
        assert_eq!(chain(&mut d, &mut sp), [(1, DATA_START, 1), new]);
    }

    /// The same with lengths that line up: the resumed record is as long
    /// as the torn group's first, so that group's second record — whole,
    /// non-terminal, sequence number 3 — sits exactly where the chain
    /// expects its next record. The scan takes it, finds nothing behind
    /// it, and drops it with the group it belongs to, which never
    /// terminates. A resumed record that opens a group of its own goes
    /// with it when the crash comes before that group's end.
    #[test]
    fn a_stale_record_where_the_next_is_expected_is_dropped_with_its_group() {
        for group_end in [true, false] {
            let (mut d, mut sp) = torn_group();
            let (mut log, _) = resumed(&mut d, &mut sp);
            let at = log.next_record_offset();
            log.append(
                &mut d,
                &mut sp,
                &page_images(5, 5),
                group_end,
                &[],
                no_flush,
            )
            .unwrap();
            d.crash_now();
            d.reboot();
            // The stale record, where sequence number 3 is expected.
            let next = LOG_START + at + 15;
            let bytes: Vec<u8> = (next..next + 15)
                .flat_map(|s| d.peek_data(s).unwrap().to_vec())
                .collect();
            let stale = decode_record_bytes(&bytes).unwrap();
            assert_eq!((stale.seq, stale.group_end), (3, false));
            let mut want = vec![(1, DATA_START, 1)];
            if group_end {
                want.push((2, at, 5));
            }
            assert_eq!(chain(&mut d, &mut sp), want, "group_end {group_end}");
        }
    }

    /// A resumed log whose next record does not fit before the end of the
    /// region wraps to the front, enters third 0 and reclaims it: `flush`
    /// is called for it once, and the chain goes on at the front.
    #[test]
    fn a_resumed_record_that_does_not_fit_wraps_into_third_zero() {
        let mut d = disk();
        let mut sp = SpareMap::disabled();
        let mut log = Log::fresh(LOG_START, LOG_SIZE, 1).unwrap();
        log.write_meta(&mut d, &mut sp).unwrap();
        // Twelve 25-sector records fill the region to its last sector.
        for tag in 0..12u8 {
            log.append(&mut d, &mut sp, &page_images(10, tag), true, &[], no_flush)
                .unwrap();
        }
        assert_eq!(log.next_record_offset(), LOG_SIZE);
        d.crash_now();
        d.reboot();

        let (mut log, recs) = resumed(&mut d, &mut sp);
        assert_eq!((log.next_record_offset(), log.next_seq()), (LOG_SIZE, 13));
        assert_eq!(recs.len(), 12);
        let mut entered = Vec::new();
        let images = page_images(1, 99);
        log.append(&mut d, &mut sp, &images, true, &[], |_, _, t| {
            entered.push(t);
            Ok(())
        })
        .unwrap();
        assert_eq!(entered, [0]);
        let chain = chain(&mut d, &mut sp);
        assert_eq!(chain.last(), Some(&(13, DATA_START, 99)));
        let third_one = DATA_START + (LOG_SIZE - DATA_START) / 3;
        assert_eq!(chain[0].1, third_one, "third 0 reclaimed");
    }

    #[test]
    fn oversized_record_rejected() {
        let mut d = disk();
        let mut sp = SpareMap::disabled();
        let mut log = Log::fresh(LOG_START, LOG_SIZE, 1).unwrap();
        let images: Vec<_> = (0..49).map(|j| nt(j, 0, 0)).collect();
        let err = log
            .append(&mut d, &mut sp, &images, true, &[], no_flush)
            .unwrap_err();
        assert!(matches!(err, FsdError::Check(_)), "{err}");
    }

    #[test]
    fn too_small_region_rejected() {
        let err = Log::fresh(LOG_START, DATA_START + 6, 1).unwrap_err();
        assert!(matches!(err, FsdError::Check(_)), "{err}");
    }
}
