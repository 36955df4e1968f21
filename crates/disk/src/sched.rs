//! Batched request submission with write barriers and rotation-aware
//! scheduling.
//!
//! The paper's §6 performance model is built from seeks, short seeks,
//! rotational latencies, lost revolutions and transfer time — quantities
//! that only a controller seeing *several* requests at once can trade
//! against each other. This module is that controller: callers build an
//! [`IoBatch`] of read/write requests separated by explicit **write
//! barriers**, and [`execute`] runs each barrier-delimited window
//! shortest-positioning-time-first (Jacobson & Wilkes 1991): physically
//! adjacent same-kind requests are coalesced into single transfers, and
//! after *each* transfer the next one is whichever pending transfer costs
//! the fewest microseconds of seek + rotation from where the head is now.
//! An address-ordered sweep visits the heads of a cylinder one after
//! another and waits half a revolution for each; choosing by position
//! takes them in the order they come round.
//!
//! The order is the disk's to choose, not the caller's: every batch runs
//! under its disk's [`SimDisk::io_policy`], so the file systems above
//! hand batches over and never name a policy. A bench or test that
//! measures [`IoPolicy::InOrder`], the submission-order baseline, sets it
//! on the disk it formats.
//!
//! A request is one of the four transfers the file systems submit: FSD
//! writes its log, home pages and replicated structures ([`IoOp::Write`])
//! and reads them damage-tolerantly ([`IoOp::ReadAllowDamage`]); the CFS
//! scavenger also reads and rewrites the label plane
//! ([`IoOp::ReadLabels`], [`IoOp::WriteLabels`]). CFS's label-checked
//! data I/O goes to [`SimDisk`] directly, one request at a time.
//!
//! # Ordering and crash semantics
//!
//! Requests *within* a window may execute in any order and may be merged;
//! requests in different windows never reorder across the barrier between
//! them. Because the simulator's [`CrashPlan`](crate::CrashPlan) fires
//! after a fixed number of *executed* sector writes, a crash scheduled
//! mid-batch lands inside exactly one window: every earlier window is
//! fully durable, every later window never started, and only the crash
//! window itself exposes the reordering. This is the contract the FSD
//! log relies on — headers and data sectors in one window, a barrier,
//! then the commit record and the copies.
//!
//! Two requests whose sector ranges overlap have a data dependency, so
//! the scheduler inserts an *implicit* barrier between them: submission
//! order is program order for conflicting requests, exactly as on the
//! real channel.
//!
//! # Error semantics
//!
//! [`execute`] aborts on the first failing request. Requests scheduled
//! before the failure (in *executed* order, not submission order) have
//! taken effect; later ones have not. Callers that need op-granular
//! error isolation — the scrub/remap paths that want to know *which*
//! sector went bad and resubmit the rest — use [`execute_partial`]: it
//! returns one [`OpResult`] per request, re-probing a failed coalesced
//! group one request at a time to attribute the damage, finishing the
//! rest of the window, and marking every request in later windows
//! [`OpResult::Skipped`] (the barrier contract: nothing after a barrier
//! may become durable while something before it failed). Every transfer
//! — a lone request, a coalesced group, a re-probe — runs through one
//! routine, so a re-probe writes exactly what the first attempt would.

use crate::disk::SimDisk;
use crate::error::DiskError;
use crate::label::Label;
use crate::{Result, SectorAddr, SECTOR_BYTES};
use std::borrow::Cow;

/// How a disk executes the batches it is handed
/// ([`SimDisk::set_io_policy`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum IoPolicy {
    /// Execute requests exactly in submission order, one `SimDisk` call
    /// each — the naive baseline the bench compares against.
    InOrder,
    /// Shortest access time first within each barrier window:
    /// adjacent-request coalescing, then always the transfer the head
    /// can reach soonest (seek + rotation), ties to the lower address.
    #[default]
    Satf,
}

/// One request in a batch: the four `SimDisk` transfers the file systems
/// submit through the scheduler (see the module docs).
#[derive(Clone, Debug)]
pub enum IoOp {
    /// `SimDisk::read_allow_damage(start, n)`.
    ReadAllowDamage { start: SectorAddr, n: usize },
    /// `SimDisk::read_labels(start, n)`.
    ReadLabels { start: SectorAddr, n: usize },
    /// `SimDisk::write(start, &data)`.
    Write { start: SectorAddr, data: Vec<u8> },
    /// `SimDisk::write_labels(start, &labels, expected)`.
    WriteLabels {
        start: SectorAddr,
        labels: Vec<Label>,
        expected: Option<Vec<Label>>,
    },
}

impl IoOp {
    /// First sector of the request.
    pub fn start(&self) -> SectorAddr {
        match self {
            IoOp::ReadAllowDamage { start, .. }
            | IoOp::ReadLabels { start, .. }
            | IoOp::Write { start, .. }
            | IoOp::WriteLabels { start, .. } => *start,
        }
    }

    /// Number of sectors the request touches (data rounded up).
    pub fn sectors(&self) -> u64 {
        match self {
            IoOp::ReadAllowDamage { n, .. } | IoOp::ReadLabels { n, .. } => *n as u64,
            IoOp::Write { data, .. } => data.len().div_ceil(SECTOR_BYTES) as u64,
            IoOp::WriteLabels { labels, .. } => labels.len() as u64,
        }
    }

    /// Whether the request mutates the platter (data or label plane).
    pub fn is_write(&self) -> bool {
        matches!(self, IoOp::Write { .. } | IoOp::WriteLabels { .. })
    }

    /// Coalescing class: two adjacent requests merge into one transfer
    /// only if they are the same kind of channel operation.
    fn kind(&self) -> u8 {
        match self {
            IoOp::ReadAllowDamage { .. } => 0,
            IoOp::ReadLabels { .. } => 1,
            IoOp::Write { .. } => 2,
            // Label writes with and without a verify pass are different
            // channel programs; keep them apart.
            IoOp::WriteLabels { expected: None, .. } => 3,
            IoOp::WriteLabels {
                expected: Some(_), ..
            } => 4,
        }
    }

    fn range(&self) -> (u64, u64) {
        let s = self.start() as u64;
        (s, s + self.sectors())
    }

    fn overlaps(&self, other: &IoOp) -> bool {
        let (a0, a1) = self.range();
        let (b0, b1) = other.range();
        a0 < b1 && b0 < a1
    }
}

/// The result of one request, index-aligned with the submission order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IoOutput {
    /// A write completed.
    Done,
    /// Data plus per-sector damage mask from `ReadAllowDamage`.
    DataMask(Vec<u8>, Vec<bool>),
    /// Labels from `ReadLabels`.
    Labels(Vec<Label>),
}

impl IoOutput {
    /// Extracts `DataMask`; `None` means the caller mismatched request
    /// and output shapes (a submission bug, surfaced as a typed error).
    pub fn into_data_mask(self) -> Option<(Vec<u8>, Vec<bool>)> {
        match self {
            IoOutput::DataMask(d, m) => Some((d, m)),
            _ => None,
        }
    }

    /// Extracts `Labels`, `None` on a shape mismatch.
    pub fn into_labels(self) -> Option<Vec<Label>> {
        match self {
            IoOutput::Labels(l) => Some(l),
            _ => None,
        }
    }
}

#[derive(Clone, Debug)]
enum Item {
    Op(IoOp),
    Barrier,
}

/// An ordered list of requests and barriers awaiting execution.
#[derive(Clone, Debug, Default)]
pub struct IoBatch {
    items: Vec<Item>,
    ops: usize,
}

impl IoBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a request; returns its index into [`execute`]'s output.
    pub fn push(&mut self, op: IoOp) -> usize {
        self.items.push(Item::Op(op));
        self.ops += 1;
        self.ops - 1
    }

    /// Appends a write barrier: nothing submitted after it may execute
    /// before everything submitted before it is durable.
    pub fn barrier(&mut self) {
        if !self.items.is_empty() {
            self.items.push(Item::Barrier);
        }
    }

    /// Number of requests (barriers excluded).
    pub fn len(&self) -> usize {
        self.ops
    }

    /// Whether the batch holds no requests.
    pub fn is_empty(&self) -> bool {
        self.ops == 0
    }

    /// The requests in submission order, barriers dropped.
    fn requests(&self) -> Vec<&IoOp> {
        self.items
            .iter()
            .filter_map(|it| match it {
                Item::Op(op) => Some(op),
                Item::Barrier => None,
            })
            .collect()
    }
}

/// Splits a batch into its barrier-delimited windows, including the
/// implicit barriers inserted between overlapping requests. Each window
/// is a list of request indices in submission order. Public so the
/// equivalence property tests can reason about exactly the windows the
/// scheduler will use.
pub fn windows(batch: &IoBatch) -> Vec<Vec<usize>> {
    let mut out: Vec<Vec<usize>> = Vec::new();
    let mut current: Vec<usize> = Vec::new();
    let mut current_ops: Vec<&IoOp> = Vec::new();
    let mut idx = 0usize;
    for item in &batch.items {
        match item {
            Item::Barrier => {
                if !current.is_empty() {
                    out.push(std::mem::take(&mut current));
                    current_ops.clear();
                }
            }
            Item::Op(op) => {
                if current_ops.iter().any(|prev| prev.overlaps(op)) {
                    out.push(std::mem::take(&mut current));
                    current_ops.clear();
                }
                current.push(idx);
                current_ops.push(op);
                idx += 1;
            }
        }
    }
    if !current.is_empty() {
        out.push(current);
    }
    out
}

/// The per-request outcome of [`execute_partial`], index-aligned with
/// submission order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OpResult {
    /// The request completed.
    Ok(IoOutput),
    /// The request failed (the error names the offending sector for
    /// `BadSector`/`LabelMismatch`); requests it was coalesced with were
    /// re-probed individually and have their own results.
    Failed(DiskError),
    /// The request sits after a barrier behind a failure and was never
    /// attempted.
    Skipped,
}

impl OpResult {
    /// The failure, if any.
    pub fn error(&self) -> Option<&DiskError> {
        match self {
            OpResult::Failed(e) => Some(e),
            _ => None,
        }
    }
}

/// Executes a batch under the disk's [`SimDisk::io_policy`], returning
/// one [`OpResult`] per request: failing requests are isolated instead
/// of aborting the batch, so callers can scrub/remap the named sector and
/// resubmit. Only [`DiskError::Crashed`] (the machine is gone) aborts the
/// whole call.
///
/// A failed coalesced transfer is re-probed one member request at a
/// time to attribute the damage; data-plane requests are idempotent, so
/// the re-probe is safe. Remaining requests in the same window still
/// run; every request in later windows is [`OpResult::Skipped`].
pub fn execute_partial(disk: &mut SimDisk, batch: &IoBatch) -> Result<Vec<OpResult>> {
    let ops = batch.requests();
    let mut results: Vec<OpResult> = vec![OpResult::Skipped; batch.ops];
    let mut outputs: Vec<Option<IoOutput>> = vec![None; batch.ops];
    let mut failed = false;
    for window in windows(batch) {
        if failed {
            break; // Later windows stay Skipped.
        }
        let mut pending = plan_window(disk.io_policy(), &ops, &window);
        while let Some(group) = next_group(disk, &ops, &mut pending) {
            let mut tries = vec![group];
            while let Some(group) = tries.pop() {
                match run_group(disk, &ops, &group, &mut outputs) {
                    Ok(()) => {
                        for &i in &group {
                            results[i] = OpResult::Ok(outputs[i].take().unwrap_or(IoOutput::Done));
                        }
                    }
                    Err(DiskError::Crashed) => return Err(DiskError::Crashed),
                    // Re-probe the coalesced members one at a time, in
                    // address order, to find out which of them hit the
                    // bad sector.
                    Err(_) if group.len() > 1 => tries.extend(group.iter().rev().map(|&i| vec![i])),
                    Err(e) => {
                        results[group[0]] = OpResult::Failed(e);
                        failed = true;
                    }
                }
            }
        }
    }
    Ok(results)
}

/// Executes a batch under the disk's [`SimDisk::io_policy`], returning
/// one [`IoOutput`] per request in submission order.
pub fn execute(disk: &mut SimDisk, batch: &IoBatch) -> Result<Vec<IoOutput>> {
    let mut outputs: Vec<Option<IoOutput>> = vec![None; batch.ops];
    let ops = batch.requests();
    for window in windows(batch) {
        let mut pending = plan_window(disk.io_policy(), &ops, &window);
        while let Some(group) = next_group(disk, &ops, &mut pending) {
            run_group(disk, &ops, &group, &mut outputs)?;
        }
    }
    // Every request lands in exactly one window, so every slot is filled;
    // the fallback keeps this path panic-free.
    Ok(outputs
        .into_iter()
        .map(|o| o.unwrap_or(IoOutput::Done))
        .collect())
}

/// Plans one window into the transfers it will take.
/// [`IoPolicy::InOrder`] keeps every request a transfer of its own, in
/// submission order; [`IoPolicy::Satf`] sorts by address and coalesces
/// adjacent same-kind requests.
fn plan_window(policy: IoPolicy, ops: &[&IoOp], window: &[usize]) -> Vec<Vec<usize>> {
    if policy == IoPolicy::InOrder {
        return window.iter().map(|&i| vec![i]).collect();
    }
    // Stable sort: equal addresses keep submission order (they cannot
    // overlap — an implicit barrier would have split them — but empty
    // requests can share a start).
    let mut order: Vec<usize> = window.to_vec();
    order.sort_by_key(|&i| ops[i].start());

    // Greedy coalescing pass over the sorted requests.
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for &i in &order {
        let op = ops[i];
        let fits = groups.last().and_then(|g| g.last()).is_some_and(|&j| {
            let last = ops[j];
            last.kind() == op.kind() && last.range().1 == op.range().0 && op.sectors() > 0
        });
        match groups.last_mut() {
            Some(g) if fits => g.push(i),
            _ => groups.push(vec![i]),
        }
    }
    groups
}

/// Takes the transfer to run next out of a window's `pending` list: the
/// first under [`IoPolicy::InOrder`]; under [`IoPolicy::Satf`] the one
/// whose first sector costs the fewest microseconds of seek + rotation
/// from where the head is *now* — asked again after every transfer, so
/// the heads of a cylinder are served as they come round instead of in
/// address order. The estimate is exact (nothing moves the clock between
/// two transfers of a batch), and equal costs go to the lower address
/// (`pending` is address-sorted and `min_by_key` keeps the first).
fn next_group(disk: &SimDisk, ops: &[&IoOp], pending: &mut Vec<Vec<usize>>) -> Option<Vec<usize>> {
    let pick = match disk.io_policy() {
        IoPolicy::InOrder => 0,
        IoPolicy::Satf => {
            (0..pending.len()).min_by_key(|&g| disk.position_cost_us(ops[pending[g][0]].start()))?
        }
    };
    (pick < pending.len()).then(|| pending.remove(pick))
}

/// Executes one transfer — a single request, or adjacent same-kind ones
/// coalesced — as a single `SimDisk` operation and splits the result
/// back onto the member requests.
fn run_group(
    disk: &mut SimDisk,
    ops: &[&IoOp],
    group: &[usize],
    outputs: &mut [Option<IoOutput>],
) -> Result<()> {
    let first = ops[group[0]];
    let start = first.start();
    let counts: Vec<usize> = group.iter().map(|&i| ops[i].sectors() as usize).collect();
    let total: usize = counts.iter().sum();
    match first {
        IoOp::ReadAllowDamage { .. } => {
            let (data, mask) = disk.read_allow_damage(start, total)?;
            let pieces = split(data, &counts, SECTOR_BYTES)
                .into_iter()
                .zip(split(mask, &counts, 1));
            for (&i, (d, m)) in group.iter().zip(pieces) {
                outputs[i] = Some(IoOutput::DataMask(d, m));
            }
        }
        IoOp::ReadLabels { .. } => {
            let labels = disk.read_labels(start, total)?;
            for (&i, l) in group.iter().zip(split(labels, &counts, 1)) {
                outputs[i] = Some(IoOutput::Labels(l));
            }
        }
        IoOp::Write { .. } => {
            let data = joined(ops, group, |op| match op {
                IoOp::Write { data, .. } => data.as_slice(),
                _ => &[],
            });
            disk.write(start, &data)?;
            mark_done(group, outputs);
        }
        IoOp::WriteLabels { expected, .. } => {
            let labels = joined(ops, group, |op| match op {
                IoOp::WriteLabels { labels, .. } => labels.as_slice(),
                _ => &[],
            });
            // Checked and unchecked label writes never coalesce, so the
            // first member speaks for the group.
            let expected = expected.as_ref().map(|_| {
                joined(ops, group, |op| match op {
                    IoOp::WriteLabels {
                        expected: Some(e), ..
                    } => e.as_slice(),
                    _ => &[],
                })
            });
            disk.write_labels(start, &labels, expected.as_deref())?;
            mark_done(group, outputs);
        }
    }
    Ok(())
}

/// The members' payloads end to end, for one transfer. A group of one
/// lends its own buffer: the single-request path copies nothing.
fn joined<'a, T: Clone>(
    ops: &[&'a IoOp],
    group: &[usize],
    part: impl Fn(&'a IoOp) -> &'a [T],
) -> Cow<'a, [T]> {
    match group {
        [i] => Cow::Borrowed(part(ops[*i])),
        _ => {
            let parts: Vec<&[T]> = group.iter().map(|&i| part(ops[i])).collect();
            Cow::Owned(parts.concat())
        }
    }
}

/// Cuts one transfer's result into the members' pieces, `unit` elements
/// per sector. A group of one gets the whole result, uncopied.
fn split<T: Clone>(whole: Vec<T>, counts: &[usize], unit: usize) -> Vec<Vec<T>> {
    if let [_] = counts {
        return vec![whole];
    }
    let mut off = 0usize;
    counts
        .iter()
        .map(|&n| {
            let piece = whole[off..off + n * unit].to_vec();
            off += n * unit;
            piece
        })
        .collect()
}

fn mark_done(group: &[usize], outputs: &mut [Option<IoOutput>]) {
    for &i in group {
        outputs[i] = Some(IoOutput::Done);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{Micros, SimClock};
    use crate::geometry::{Chs, DiskGeometry};
    use crate::timing::DiskTiming;
    use crate::{CrashPlan, DiskStats};

    fn sector_of(byte: u8) -> Vec<u8> {
        vec![byte; SECTOR_BYTES]
    }

    #[test]
    fn adjacent_writes_coalesce_into_one_transfer() {
        let mut d = SimDisk::tiny();
        let mut b = IoBatch::new();
        b.push(IoOp::Write {
            start: 20,
            data: sector_of(1),
        });
        b.push(IoOp::Write {
            start: 21,
            data: sector_of(2),
        });
        b.push(IoOp::Write {
            start: 22,
            data: sector_of(3),
        });
        execute(&mut d, &b).unwrap();
        let s = d.stats();
        assert_eq!(s.writes, 1, "three adjacent writes become one transfer");
        assert_eq!(s.sectors_written, 3);
        assert_eq!(d.peek_data(20).unwrap()[0], 1);
        assert_eq!(d.peek_data(21).unwrap()[0], 2);
        assert_eq!(d.peek_data(22).unwrap()[0], 3);
    }

    #[test]
    fn scattered_reads_return_submission_order_results() {
        let mut d = SimDisk::tiny();
        d.write(40, &sector_of(4)).unwrap();
        d.write(7, &sector_of(7)).unwrap();
        let mut b = IoBatch::new();
        let hi = b.push(IoOp::ReadAllowDamage { start: 40, n: 1 });
        let lo = b.push(IoOp::ReadAllowDamage { start: 7, n: 1 });
        let out = execute(&mut d, &b).unwrap();
        assert_eq!(out[hi].clone().into_data_mask().unwrap().0[0], 4);
        assert_eq!(out[lo].clone().into_data_mask().unwrap().0[0], 7);
    }

    #[test]
    fn coalesced_damage_tolerant_reads_split_back_per_request() {
        let mut d = SimDisk::tiny();
        for a in 20..23 {
            d.write(a, &sector_of(a as u8)).unwrap();
        }
        d.damage_sector(21);
        let mut b = IoBatch::new();
        let r: Vec<usize> = (20..23)
            .map(|a| b.push(IoOp::ReadAllowDamage { start: a, n: 1 }))
            .collect();
        let out = execute(&mut d, &b).unwrap();
        assert_eq!(d.stats().reads, 1, "three adjacent reads become one");
        let got: Vec<(u8, Vec<bool>)> = r
            .iter()
            .map(|&i| {
                let (data, mask) = out[i].clone().into_data_mask().unwrap();
                assert_eq!(data.len(), SECTOR_BYTES);
                (data[0], mask)
            })
            .collect();
        assert_eq!(
            got,
            vec![(20, vec![false]), (0, vec![true]), (22, vec![false])],
            "the damaged sector reads as zeros and is flagged"
        );
    }

    #[test]
    fn barrier_orders_windows_under_crash() {
        // Window 1 writes a far address, window 2 one under the head.
        // The scheduler would take the cheap one first if they shared a
        // window; the barrier must keep the expensive write strictly
        // earlier, so a crash after one sector leaves exactly that one
        // written.
        let mut d = SimDisk::tiny();
        assert!(d.position_cost_us(3) < d.position_cost_us(100));
        d.schedule_crash(CrashPlan {
            after_sector_writes: 1,
            damaged_tail: 0,
        });
        let mut b = IoBatch::new();
        b.push(IoOp::Write {
            start: 100,
            data: sector_of(9),
        });
        b.barrier();
        b.push(IoOp::Write {
            start: 3,
            data: sector_of(8),
        });
        assert!(execute(&mut d, &b).is_err());
        d.reboot();
        assert_eq!(d.peek_data(100).unwrap()[0], 9, "window 1 durable");
        assert!(d.peek_data(3).is_none(), "window 2 never started");
    }

    #[test]
    fn overlapping_writes_get_an_implicit_barrier() {
        let mut d = SimDisk::tiny();
        let mut b = IoBatch::new();
        b.push(IoOp::Write {
            start: 5,
            data: sector_of(1),
        });
        b.push(IoOp::Write {
            start: 5,
            data: sector_of(2),
        });
        assert_eq!(windows(&b).len(), 2);
        execute(&mut d, &b).unwrap();
        assert_eq!(d.peek_data(5).unwrap()[0], 2, "program order wins");
    }

    #[test]
    fn window_starts_at_rotationally_nearest_request() {
        // Head parks just past sector 5 (after reading 0..6). Requests at
        // sectors 2 and 8 on the same cylinder: ascending order would eat
        // a near-full revolution reaching 2 first; the scheduler grabs 8
        // on the fly and comes round to 2.
        let run = |policy: IoPolicy| {
            let mut d = SimDisk::tiny();
            d.set_io_policy(policy);
            d.read(0, 6).unwrap();
            let mut b = IoBatch::new();
            b.push(IoOp::Write {
                start: 2,
                data: sector_of(1),
            });
            b.push(IoOp::Write {
                start: 8,
                data: sector_of(2),
            });
            execute(&mut d, &b).unwrap();
            d.stats().busy_us()
        };
        assert!(
            run(IoPolicy::Satf) < run(IoPolicy::InOrder),
            "rotation-aware start must beat submission order here"
        );
    }

    #[test]
    fn heads_of_a_cylinder_are_served_as_they_come_round() {
        // Six 2-sector writes on six heads of one T-300 cylinder, each
        // starting six sectors *before* the one on the head above it.
        // Address order finds every next request just gone by; taken by
        // position they all pass under the heads within one revolution.
        let g = DiskGeometry::TRIDENT_T300;
        let rev = DiskTiming::TRIDENT_T300.sector_us() * g.sectors_per_track as Micros;
        let run = |policy: IoPolicy| {
            let mut d = SimDisk::trident_t300(SimClock::new());
            d.set_io_policy(policy);
            let mut b = IoBatch::new();
            let mut nearest = Micros::MAX;
            for head in 0..6 {
                let start = g.to_addr(Chs {
                    cylinder: 400,
                    head,
                    sector: 6 * (5 - head),
                });
                nearest = nearest.min(d.position_cost_us(start));
                b.push(IoOp::Write {
                    start,
                    data: vec![head as u8; 2 * SECTOR_BYTES],
                });
            }
            execute(&mut d, &b).unwrap();
            (d.stats(), nearest)
        };
        let (satf, nearest) = run(IoPolicy::Satf);
        assert_eq!(satf.writes, 6, "nothing here is adjacent");
        assert!(
            satf.busy_us() <= satf.transfer_us + nearest + rev,
            "transfer + initial positioning + at most one revolution: {satf:?}"
        );
        // Submission order is address order here.
        let (by_address, _) = run(IoPolicy::InOrder);
        assert_eq!(by_address.transfer_us, satf.transfer_us);
        assert!(
            by_address.rotation_us + by_address.lost_rev_us >= 3 * rev,
            "address order waits out most of a revolution per head: {by_address:?}"
        );
    }

    #[test]
    fn equal_cost_candidates_resolve_to_the_lower_address() {
        // The same sector on the two heads of a cylinder: equally far in
        // both seek and angle, so only the tie-break orders them.
        let g = DiskGeometry::TINY;
        let at = |head| {
            g.to_addr(Chs {
                cylinder: 0,
                head,
                sector: 9,
            })
        };
        let mut d = SimDisk::tiny();
        assert_eq!(d.position_cost_us(at(0)), d.position_cost_us(at(1)));
        d.enable_write_journal();
        let mut b = IoBatch::new();
        for head in [1, 0] {
            b.push(IoOp::Write {
                start: at(head),
                data: sector_of(head as u8),
            });
        }
        execute(&mut d, &b).unwrap();
        let order: Vec<SectorAddr> = d.drain_write_journal().iter().map(|e| e.addr).collect();
        assert_eq!(order, vec![at(0), at(1)]);
    }

    #[test]
    fn in_order_policy_matches_direct_calls() {
        let mut direct = SimDisk::tiny();
        let mut batched = SimDisk::tiny();
        batched.set_io_policy(IoPolicy::InOrder);
        direct.write(10, &sector_of(1)).unwrap();
        direct.write(30, &sector_of(2)).unwrap();
        let d1 = direct.read_allow_damage(10, 1).unwrap();
        let mut b = IoBatch::new();
        b.push(IoOp::Write {
            start: 10,
            data: sector_of(1),
        });
        b.push(IoOp::Write {
            start: 30,
            data: sector_of(2),
        });
        let r = b.push(IoOp::ReadAllowDamage { start: 10, n: 1 });
        let out = execute(&mut batched, &b).unwrap();
        assert_eq!(out[r].clone().into_data_mask().unwrap(), d1);
        assert_eq!(direct.stats(), batched.stats());
        assert_eq!(direct.clock().now(), batched.clock().now());
    }

    #[test]
    fn mixed_kinds_do_not_coalesce() {
        let mut d = SimDisk::tiny();
        let mut b = IoBatch::new();
        b.push(IoOp::Write {
            start: 12,
            data: sector_of(1),
        });
        b.push(IoOp::WriteLabels {
            start: 13,
            labels: vec![Label::FREE],
            expected: None,
        });
        execute(&mut d, &b).unwrap();
        let s = d.stats();
        assert_eq!(s.writes, 1);
        assert_eq!(s.label_ops, 1);
    }

    #[test]
    fn coalesced_label_reads_split_back_per_request() {
        let mut d = SimDisk::tiny();
        let l = Label::new(3, 1, crate::label::PageKind::Data);
        d.write_labels(16, &[l, l, l, l], None).unwrap();
        let mut b = IoBatch::new();
        let a = b.push(IoOp::ReadLabels { start: 16, n: 2 });
        let c = b.push(IoOp::ReadLabels { start: 18, n: 2 });
        let out = execute(&mut d, &b).unwrap();
        assert_eq!(
            d.stats().label_ops,
            2,
            "one setup write + one coalesced read"
        );
        assert_eq!(out[a].clone().into_labels().unwrap(), vec![l, l]);
        assert_eq!(out[c].clone().into_labels().unwrap(), vec![l, l]);
    }

    #[test]
    fn explicit_barriers_split_windows() {
        let mut b = IoBatch::new();
        b.barrier(); // Leading barrier: no-op.
        b.push(IoOp::ReadAllowDamage { start: 0, n: 1 });
        b.push(IoOp::ReadAllowDamage { start: 5, n: 1 });
        b.barrier();
        b.barrier(); // Double barrier: still one split.
        b.push(IoOp::ReadAllowDamage { start: 9, n: 1 });
        assert_eq!(windows(&b), vec![vec![0, 1], vec![2]]);
    }

    #[test]
    fn execute_partial_isolates_bad_sector_in_coalesced_group() {
        let mut d = SimDisk::tiny();
        for a in 20..23 {
            d.write(a, &sector_of(a as u8)).unwrap();
        }
        d.hard_damage_sector(21);
        let before = d.stats();
        let mut b = IoBatch::new();
        let w: Vec<usize> = (20..23)
            .map(|a| {
                b.push(IoOp::Write {
                    start: a,
                    data: sector_of(a as u8 + 100),
                })
            })
            .collect();
        let out = execute_partial(&mut d, &b).unwrap();
        assert_eq!(out[w[0]], OpResult::Ok(IoOutput::Done));
        assert_eq!(out[w[1]].error(), Some(&DiskError::BadSector(21)));
        assert_eq!(out[w[2]], OpResult::Ok(IoOutput::Done));
        assert_eq!(d.peek_data(20).unwrap()[0], 120);
        assert_eq!(d.peek_data(22).unwrap()[0], 122);
        // One coalesced write that puts down sector 20 and fails at 21,
        // then one write per member.
        assert_eq!(
            d.stats().since(&before),
            DiskStats {
                writes: 4,
                sectors_written: 3,
                transfer_us: 5205,
                lost_revolutions: 2,
                lost_rev_us: 28107,
                media_faults: 2,
                ..DiskStats::default()
            }
        );
        assert_eq!(d.clock().now(), 40599);
    }

    #[test]
    fn execute_partial_skips_windows_after_a_failure() {
        let mut d = SimDisk::tiny();
        d.hard_damage_sector(40);
        let mut b = IoBatch::new();
        let w0 = b.push(IoOp::Write {
            start: 40,
            data: sector_of(1),
        });
        let w1 = b.push(IoOp::Write {
            start: 50,
            data: sector_of(2),
        });
        b.barrier();
        let w2 = b.push(IoOp::Write {
            start: 60,
            data: sector_of(3),
        });
        let out = execute_partial(&mut d, &b).unwrap();
        assert_eq!(out[w0].error(), Some(&DiskError::BadSector(40)));
        // Same window: still attempted.
        assert_eq!(out[w1], OpResult::Ok(IoOutput::Done));
        assert_eq!(d.peek_data(50).unwrap()[0], 2);
        // Post-barrier window: never started.
        assert_eq!(out[w2], OpResult::Skipped);
        assert!(d.peek_data(60).is_none());
    }

    #[test]
    fn execute_partial_mid_write_failure_keeps_executed_prefix() {
        let mut d = SimDisk::tiny();
        d.hard_damage_sector(31);
        let mut b = IoBatch::new();
        let w0 = b.push(IoOp::Write {
            start: 30,
            data: sector_of(7),
        });
        let w1 = b.push(IoOp::Write {
            start: 31,
            data: sector_of(8),
        });
        let out = execute_partial(&mut d, &b).unwrap();
        // The coalesced transfer failed at 31; the re-probe shows 30
        // succeeded and is durable.
        assert_eq!(out[w0], OpResult::Ok(IoOutput::Done));
        assert_eq!(out[w1].error(), Some(&DiskError::BadSector(31)));
        assert_eq!(d.peek_data(30).unwrap()[0], 7);
    }

    #[test]
    fn execute_partial_crash_still_aborts() {
        let mut d = SimDisk::tiny();
        d.schedule_crash(CrashPlan {
            after_sector_writes: 0,
            damaged_tail: 0,
        });
        let mut b = IoBatch::new();
        b.push(IoOp::Write {
            start: 5,
            data: sector_of(1),
        });
        assert_eq!(execute_partial(&mut d, &b), Err(DiskError::Crashed));
    }

    #[test]
    fn execute_partial_all_ok_matches_execute() {
        let mut d1 = SimDisk::tiny();
        let mut d2 = SimDisk::tiny();
        let mut b = IoBatch::new();
        b.push(IoOp::Write {
            start: 10,
            data: sector_of(1),
        });
        b.barrier();
        b.push(IoOp::ReadAllowDamage { start: 10, n: 1 });
        let full = execute(&mut d1, &b).unwrap();
        let partial = execute_partial(&mut d2, &b).unwrap();
        for (f, p) in full.into_iter().zip(partial) {
            assert_eq!(OpResult::Ok(f), p);
        }
        assert_eq!(d1.clock().now(), d2.clock().now());
    }

    #[test]
    fn empty_batch_is_fine() {
        let mut d = SimDisk::tiny();
        let b = IoBatch::new();
        assert!(b.is_empty());
        assert!(execute(&mut d, &b).unwrap().is_empty());
        assert_eq!(d.stats().total_ops(), 0);
    }
}
