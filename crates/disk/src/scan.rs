//! Pipelined scan support for the parallel scavenger.
//!
//! pFSCK-style checking splits a recovery scan into a *reader* stage —
//! large barrier-free read batches planned by [`crate::sched`] — and N
//! decode/verify workers. The two halves meet here:
//!
//! * [`ScanChannel`] is a bounded multi-producer/multi-consumer queue
//!   built on [`crate::sync`] primitives (so the in-tree `loom` model
//!   checker can enumerate its interleavings under `--features loom`).
//!   The bound is the pipeline depth: the reader blocks when the
//!   workers fall behind, workers block when the reader does, and
//!   `close` drains cleanly in either direction.
//! * [`ScanChunk`] is the unit that flows through it: one contiguous
//!   sector range with raw bytes and per-sector damage flags, stamped
//!   with its submission sequence number so downstream merges can
//!   restore address order no matter which worker finished first.
//! * [`read_chunks`] turns a list of disjoint ranges into one
//!   damage-tolerant batch read (a single barrier-free window — reads
//!   never conflict — so the scheduler can order the whole sweep).

use crate::sched::{self, IoBatch, IoOp, IoPolicy};
use crate::sync::{Condvar, Mutex, MutexGuard};
use crate::{DiskError, Result, SectorAddr, SimDisk};
use std::collections::VecDeque;

/// One contiguous stretch of sectors read by the scan's reader stage.
#[derive(Clone, Debug)]
pub struct ScanChunk {
    /// Submission sequence number within the scan, restoring address
    /// order after out-of-order parallel processing.
    pub seq: usize,
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
/// returns one [`ScanChunk`] per range, in submission order (`seq`
/// numbered from `first_seq`).
///
/// Reads never conflict, so the whole batch is a single barrier-free
/// window: under [`IoPolicy::Satf`] the scheduler coalesces adjacent
/// ranges and takes the transfers nearest-first, regardless of
/// submission order.
pub fn read_chunks(
    disk: &mut SimDisk,
    policy: IoPolicy,
    ranges: &[(SectorAddr, usize)],
    first_seq: usize,
) -> Result<Vec<ScanChunk>> {
    let mut batch = IoBatch::new();
    for &(start, n) in ranges {
        batch.push(IoOp::ReadAllowDamage { start, n });
    }
    let outputs = sched::execute(disk, policy, &batch)?;
    let mut chunks = Vec::with_capacity(ranges.len());
    for (i, (out, &(start, _))) in outputs.into_iter().zip(ranges).enumerate() {
        let (bytes, damaged) = out
            .into_data_mask()
            .ok_or(DiskError::BadRequest("read produced no data"))?;
        chunks.push(ScanChunk {
            seq: first_seq + i,
            start,
            bytes,
            damaged,
        });
    }
    Ok(chunks)
}

struct ChannelState<T> {
    queue: VecDeque<T>,
    closed: bool,
}

/// A bounded hand-off queue between the scan's reader and its workers.
///
/// `send` blocks while the queue is at capacity (backpressure: the
/// reader cannot run unboundedly ahead of the decoders); `recv` blocks
/// while it is empty. After [`ScanChannel::close`], `send` refuses new
/// items and `recv` drains what remains, then returns `None` — the
/// workers' termination signal.
pub struct ScanChannel<T> {
    state: Mutex<ChannelState<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

/// Locks the channel mutex, recovering from poison. A worker that
/// panics mid-`recv` must not wedge the reader or its peers: the queue
/// holds only plain data chunks, which a panicking peer cannot leave
/// half-mutated, so continuing past poison is sound. The loom model
/// (`tests/loom_scan.rs`) checks the hand-off under crashing schedules.
fn plock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

impl<T> ScanChannel<T> {
    /// Creates a channel holding at most `capacity` items (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            state: Mutex::new(ChannelState {
                queue: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueues `item`, blocking while the channel is full. Returns
    /// `false` (dropping the item) if the channel is closed.
    pub fn send(&self, item: T) -> bool {
        let mut state = plock(&self.state);
        while !state.closed && state.queue.len() >= self.capacity {
            state = match self.not_full.wait(state) {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
        }
        if state.closed {
            return false;
        }
        state.queue.push_back(item);
        drop(state);
        self.not_empty.notify_one();
        true
    }

    /// Dequeues the next item, blocking while the channel is open and
    /// empty. Returns `None` once the channel is closed and drained.
    pub fn recv(&self) -> Option<T> {
        let mut state = plock(&self.state);
        loop {
            if let Some(item) = state.queue.pop_front() {
                drop(state);
                self.not_full.notify_one();
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = match self.not_empty.wait(state) {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
        }
    }

    /// Closes the channel: pending items remain receivable, further
    /// sends are refused, and every blocked sender and receiver wakes.
    pub fn close(&self) {
        plock(&self.state).closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Whether the channel has been closed.
    pub fn is_closed(&self) -> bool {
        plock(&self.state).closed
    }
}

#[cfg(all(test, not(feature = "loom")))]
mod tests {
    use super::*;
    use crate::sync::thread;
    use std::sync::Arc;

    #[test]
    fn channel_roundtrip_in_order() {
        let ch = ScanChannel::new(4);
        assert!(ch.send(1));
        assert!(ch.send(2));
        ch.close();
        assert!(!ch.send(3));
        assert_eq!(ch.recv(), Some(1));
        assert_eq!(ch.recv(), Some(2));
        assert_eq!(ch.recv(), None);
        assert_eq!(ch.recv(), None);
    }

    #[test]
    fn channel_backpressure_blocks_sender_until_recv() {
        let ch = Arc::new(ScanChannel::new(1));
        assert!(ch.send(10u32));
        let ch2 = Arc::clone(&ch);
        let sender = thread::spawn(move || ch2.send(20));
        // The consumer drains both items; the blocked sender must wake.
        assert_eq!(ch.recv(), Some(10));
        assert_eq!(ch.recv(), Some(20));
        assert!(sender.join().unwrap());
    }

    #[test]
    fn close_wakes_blocked_receiver() {
        let ch = Arc::new(ScanChannel::<u32>::new(2));
        let ch2 = Arc::clone(&ch);
        let receiver = thread::spawn(move || ch2.recv());
        ch.close();
        assert_eq!(receiver.join().unwrap(), None);
        assert!(ch.is_closed());
    }

    #[test]
    fn read_chunks_returns_one_chunk_per_range() {
        let mut disk = SimDisk::tiny();
        let data = vec![0xA5u8; crate::SECTOR_BYTES * 2];
        disk.write(40, &data).unwrap();
        let chunks = read_chunks(&mut disk, IoPolicy::Satf, &[(40, 2), (8, 1)], 7).unwrap();
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[0].seq, 7);
        assert_eq!(chunks[0].start, 40);
        assert_eq!(chunks[0].sectors(), 2);
        assert_eq!(chunks[0].bytes, data);
        assert!(chunks[0].damaged.iter().all(|&d| !d));
        assert_eq!(chunks[1].seq, 8);
        assert_eq!(chunks[1].start, 8);
        assert_eq!(chunks[1].sectors(), 1);
    }

    #[test]
    fn read_chunks_flags_damaged_sectors() {
        let mut disk = SimDisk::tiny();
        disk.damage_sector(41);
        let chunks = read_chunks(&mut disk, IoPolicy::InOrder, &[(40, 3)], 0).unwrap();
        assert_eq!(chunks[0].damaged, vec![false, true, false]);
    }
}
