//! Property tests for the I/O scheduler (`cedar_disk::sched`).
//!
//! Three properties pin the scheduler's correctness:
//!
//! 1. **Equivalence** — for random request batches with random barrier
//!    placement, scheduled execution yields the same per-request results and
//!    a byte-identical disk image (data, label plane, damage plane) as
//!    naive in-order execution, and never costs more simulated time.
//! 2. **Crash containment** — with a random [`CrashPlan`], the post-crash
//!    image under the scheduler is one that in-order execution could have
//!    reached within a single window: every window before the crash is
//!    fully durable, every window after it never started, and each sector
//!    of the crash window holds either its pre- or post-window value (or
//!    is detectably damaged, ≤ 2 sectors). Reordering never leaks across
//!    a barrier.
//! 3. **Exactly once** — wherever the head is parked and whatever the
//!    platter angle when the batch is submitted, every request executes
//!    exactly once: the pick after each transfer neither drops a request
//!    nor runs one twice.

use cedar_disk::sched::{execute, windows, IoBatch, IoOp, IoPolicy};
use cedar_disk::{CrashPlan, DiskError, Label, PageKind, SimDisk, SECTOR_BYTES};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

const TOTAL: u32 = 2048; // TINY geometry.

/// A generator-friendly batch item.
#[derive(Clone, Debug)]
enum GenItem {
    Write(u32, u8, u8),       // start, sectors, fill byte
    ReadAllowDamage(u32, u8), // start, sectors
    ReadLabels(u32, u8),
    WriteLabels(u32, u8, u32), // start, sectors, file id
    Barrier,
}

fn arb_item() -> impl Strategy<Value = GenItem> {
    prop_oneof![
        (0u32..TOTAL, 1u8..8, any::<u8>()).prop_map(|(s, n, b)| GenItem::Write(s, n, b)),
        (0u32..TOTAL, 1u8..8).prop_map(|(s, n)| GenItem::ReadAllowDamage(s, n)),
        (0u32..TOTAL, 1u8..8).prop_map(|(s, n)| GenItem::ReadLabels(s, n)),
        (0u32..TOTAL, 1u8..6, 1u32..64).prop_map(|(s, n, f)| GenItem::WriteLabels(s, n, f)),
        Just(GenItem::Barrier),
    ]
}

/// Lowers generator items to a batch, returning the flat request list in
/// submission order alongside it (index-aligned with `windows()`).
fn build(items: &[GenItem]) -> (IoBatch, Vec<IoOp>) {
    let mut batch = IoBatch::new();
    let mut flat = Vec::new();
    let clamp = |s: u32, n: u8| (s, (n as u32).min(TOTAL - s) as usize);
    for item in items {
        let op = match item {
            GenItem::Barrier => {
                batch.barrier();
                continue;
            }
            GenItem::Write(s, n, b) => {
                let (s, n) = clamp(*s, *n);
                if n == 0 {
                    continue;
                }
                IoOp::Write {
                    start: s,
                    data: vec![*b; n * SECTOR_BYTES],
                }
            }
            GenItem::ReadAllowDamage(s, n) => {
                let (s, n) = clamp(*s, *n);
                if n == 0 {
                    continue;
                }
                IoOp::ReadAllowDamage { start: s, n }
            }
            GenItem::ReadLabels(s, n) => {
                let (s, n) = clamp(*s, *n);
                if n == 0 {
                    continue;
                }
                IoOp::ReadLabels { start: s, n }
            }
            GenItem::WriteLabels(s, n, f) => {
                let (s, n) = clamp(*s, *n);
                if n == 0 {
                    continue;
                }
                let labels: Vec<Label> = (0..n)
                    .map(|i| Label::new(*f as u64, i as u32, PageKind::Data))
                    .collect();
                IoOp::WriteLabels {
                    start: s,
                    labels,
                    expected: None,
                }
            }
        };
        batch.push(op.clone());
        flat.push(op);
    }
    (batch, flat)
}

/// A disk pre-populated with a deterministic pattern so reads and images
/// have something to disagree about.
fn populated_disk() -> SimDisk {
    let mut d = SimDisk::tiny();
    for s in (0..TOTAL).step_by(5) {
        let n = 3.min(TOTAL - s) as usize;
        d.write(s, &vec![(s % 251) as u8; n * SECTOR_BYTES])
            .unwrap();
    }
    d.write_labels(100, &[Label::new(7, 0, PageKind::Leader); 8], None)
        .unwrap();
    d
}

/// One sector's mutable planes, one byte of data sufficing because every
/// generated write is a uniform fill.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct ModelSector {
    data: Option<u8>,
    label: Label,
}

fn snapshot(d: &SimDisk) -> Vec<ModelSector> {
    (0..TOTAL)
        .map(|a| ModelSector {
            data: d.peek_data(a).map(|bytes| bytes[0]),
            label: d.peek_label(a),
        })
        .collect()
}

fn apply(state: &mut [ModelSector], op: &IoOp) {
    match op {
        IoOp::Write { start, data } => {
            for (i, chunk) in data.chunks(SECTOR_BYTES).enumerate() {
                state[*start as usize + i].data = Some(chunk[0]);
            }
        }
        IoOp::WriteLabels { start, labels, .. } => {
            for (i, l) in labels.iter().enumerate() {
                state[*start as usize + i].label = *l;
            }
        }
        _ => {} // Reads don't mutate.
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn scheduled_execution_is_equivalent_to_in_order(
        items in proptest::collection::vec(arb_item(), 1..40),
    ) {
        let (batch, _) = build(&items);
        let mut a = populated_disk();
        a.set_io_policy(IoPolicy::InOrder);
        let mut b = populated_disk();
        let out_a = execute(&mut a, &batch).unwrap();
        let out_b = execute(&mut b, &batch).unwrap();
        prop_assert_eq!(&out_a, &out_b, "per-request results must match");
        prop_assert_eq!(snapshot(&a), snapshot(&b), "disk images must match");
        for addr in 0..TOTAL {
            prop_assert!(!a.peek_damaged(addr) && !b.peek_damaged(addr));
        }
        // No perf assertion here: the pick is a heuristic and adversarial
        // two-request windows can beat it. The io_sched bench pins the
        // aggregate win on real workloads.
    }

    #[test]
    fn crash_containment_respects_barrier_windows(
        items in proptest::collection::vec(arb_item(), 1..30),
        budget in 0u64..40,
        tail in 0u8..3,
    ) {
        let (batch, flat) = build(&items);
        let mut d = populated_disk();
        let pre = snapshot(&d);
        d.schedule_crash(CrashPlan { after_sector_writes: budget, damaged_tail: tail });
        let result = execute(&mut d, &batch);
        d.reboot();

        // Replay the batch on the model, window by window: states[w] is
        // the model just before window w runs.
        let wins = windows(&batch);
        let mut states: Vec<Vec<ModelSector>> = vec![pre];
        for win in &wins {
            let mut next = states.last().unwrap().clone();
            for &i in win {
                apply(&mut next, &flat[i]);
            }
            states.push(next);
        }

        if result.is_ok() {
            // The budget outlasted the batch: image is exactly the final
            // model and nothing is damaged.
            let want = states.last().unwrap();
            let got = snapshot(&d);
            for a in 0..TOTAL as usize {
                prop_assert!(!d.peek_damaged(a as u32), "no crash, no damage");
                prop_assert_eq!(got[a], want[a], "sector {}", a);
            }
        } else {
            prop_assert!(matches!(result, Err(DiskError::Crashed)));
            let got = snapshot(&d);
            // Some window W must explain the image.
            let explains = |w: usize| -> bool {
                let before = &states[w];
                let after = &states[w + 1];
                let touched: BTreeSet<u32> = wins[w]
                    .iter()
                    .filter(|&&i| flat[i].is_write())
                    .flat_map(|&i| {
                        flat[i].start()..flat[i].start() + flat[i].sectors() as u32
                    })
                    .collect();
                let mut damaged = 0u32;
                for a in 0..TOTAL {
                    let ai = a as usize;
                    if d.peek_damaged(a) {
                        // Damage only ever lands inside the crash window.
                        if !touched.contains(&a) {
                            return false;
                        }
                        damaged += 1;
                        continue;
                    }
                    if touched.contains(&a) {
                        if got[ai] != before[ai] && got[ai] != after[ai] {
                            return false;
                        }
                    } else if got[ai] != before[ai] {
                        return false;
                    }
                }
                damaged <= 2
            };
            prop_assert!(
                (0..wins.len()).any(explains),
                "crashed image is not explainable by any single window"
            );
        }
    }

    #[test]
    fn every_request_executes_exactly_once_from_any_head_position(
        items in proptest::collection::vec(arb_item(), 1..40),
        parked in 0u32..TOTAL,
        spin in 0u64..40_000,
    ) {
        let (batch, flat) = build(&items);
        let mut d = populated_disk();
        d.read(parked, 1).unwrap();
        d.clock().advance(spin);
        d.enable_write_journal();
        let before = d.stats();
        execute(&mut d, &batch).unwrap();
        let delta = d.stats().since(&before);

        // Writes: the journal holds one entry per sector pass, data and
        // label passes apart.
        let mut want: BTreeMap<(u32, bool), u32> = BTreeMap::new();
        let mut sectors_read = 0u64;
        for op in &flat {
            let range = op.start()..op.start() + op.sectors() as u32;
            match op {
                IoOp::Write { .. } => range.for_each(|a| *want.entry((a, true)).or_default() += 1),
                IoOp::WriteLabels { .. } => {
                    range.for_each(|a| *want.entry((a, false)).or_default() += 1)
                }
                IoOp::ReadLabels { .. } => {} // Counted by transfer time alone.
                _ => sectors_read += op.sectors(),
            }
        }
        let mut got: BTreeMap<(u32, bool), u32> = BTreeMap::new();
        for e in d.drain_write_journal() {
            *got.entry((e.addr, e.data.is_some())).or_default() += 1;
        }
        prop_assert_eq!(got, want, "sector writes");
        prop_assert_eq!(delta.sectors_read, sectors_read, "sectors read");
        let sectors: u64 = flat.iter().map(IoOp::sectors).sum();
        prop_assert_eq!(delta.transfer_us, sectors * d.timing().sector_us(), "sectors transferred");
    }
}
