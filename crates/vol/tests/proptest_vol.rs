//! Property tests for the volume substrates: the allocator never hands
//! out a sector twice, the VAM's arithmetic is exact, its searches find
//! the runs a sector-by-sector walk finds, and run tables agree with
//! their flattened form under every operation sequence.

use cedar_vol::alloc::SMALL_FILE_PAGES;
use cedar_vol::{AllocPolicy, Allocator, Run, RunTable, Vam};
use proptest::prelude::*;
use std::collections::HashSet;

const AREA: u32 = 4096;

#[derive(Clone, Debug)]
enum AllocOp {
    Alloc(u32),
    FreeOldest,
    FreeNewest,
}

fn arb_ops() -> impl Strategy<Value = Vec<AllocOp>> {
    proptest::collection::vec(
        prop_oneof![
            3 => (1u32..200).prop_map(AllocOp::Alloc),
            1 => Just(AllocOp::FreeOldest),
            1 => Just(AllocOp::FreeNewest),
        ],
        1..120,
    )
}

fn arb_policy() -> impl Strategy<Value = AllocPolicy> {
    prop_oneof![Just(AllocPolicy::SingleArea), Just(AllocPolicy::SplitAreas),]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn allocator_never_double_allocates(ops in arb_ops(), policy in arb_policy()) {
        let mut vam = Vam::new_all_allocated(AREA);
        vam.free_run(Run::new(0, AREA));
        let mut alloc = Allocator::new(policy, 0, AREA);
        let mut live: Vec<RunTable> = Vec::new();
        let mut owned: HashSet<u32> = HashSet::new();

        for op in &ops {
            match op {
                AllocOp::Alloc(pages) => {
                    match alloc.allocate(&mut vam, *pages) {
                        Ok(rt) => {
                            prop_assert_eq!(rt.pages(), *pages);
                            for r in rt.runs() {
                                prop_assert!(r.end() <= AREA, "run out of bounds: {:?}", r);
                                for a in r.start..r.end() {
                                    prop_assert!(
                                        owned.insert(a),
                                        "sector {a} allocated twice"
                                    );
                                }
                            }
                            live.push(rt);
                        }
                        Err(_) => {
                            // Full is acceptable; nothing must have leaked.
                        }
                    }
                }
                AllocOp::FreeOldest | AllocOp::FreeNewest => {
                    let rt = if matches!(op, AllocOp::FreeOldest) {
                        if live.is_empty() { continue; }
                        live.remove(0)
                    } else {
                        match live.pop() {
                            Some(rt) => rt,
                            None => continue,
                        }
                    };
                    alloc.free(&mut vam, &rt, false);
                    for r in rt.runs() {
                        for a in r.start..r.end() {
                            owned.remove(&a);
                        }
                    }
                }
            }
            // The VAM's free count always complements the owned set.
            prop_assert_eq!(vam.free_count() as usize, AREA as usize - owned.len());
        }
    }

    #[test]
    fn shadow_commit_preserves_totals(
        frees in proptest::collection::vec((0u32..AREA, 1u32..16), 1..30),
    ) {
        let mut vam = Vam::new_all_allocated(AREA);
        let mut expected = 0u32;
        let mut marked: HashSet<u32> = HashSet::new();
        for (start, len) in frees {
            let end = (start + len).min(AREA);
            for a in start..end {
                if marked.insert(a) {
                    expected += 1;
                }
            }
            vam.shadow_free_run(Run::new(start, end - start));
        }
        prop_assert_eq!(vam.free_count(), 0);
        vam.commit_shadow();
        prop_assert_eq!(vam.free_count(), expected);
        prop_assert_eq!(vam.shadow_count(), 0);
    }

    #[test]
    fn find_free_run_returns_free_sectors(
        holes in proptest::collection::vec((0u32..AREA, 1u32..32), 1..20),
        want in 1u32..24,
        from in 0u32..AREA,
    ) {
        let mut vam = Vam::new_all_allocated(AREA);
        for (start, len) in &holes {
            let end = (*start + *len).min(AREA);
            vam.free_run(Run::new(*start, end - *start));
        }
        if let Some(run) = vam.find_free_run(want, 0, AREA, from) {
            prop_assert_eq!(run.len, want);
            for a in run.start..run.end() {
                prop_assert!(vam.is_free(a));
            }
        }
    }

    #[test]
    fn run_table_matches_flat_model(
        runs in proptest::collection::vec((0u32..100_000, 1u32..40), 0..20),
        truncate_at in 0u32..400,
    ) {
        let mut rt = RunTable::new();
        let mut flat: Vec<u32> = Vec::new();
        for (start, len) in runs {
            rt.push(Run::new(start, len));
            flat.extend(start..start + len);
        }
        prop_assert_eq!(rt.pages() as usize, flat.len());
        for (page, &sector) in flat.iter().enumerate() {
            prop_assert_eq!(rt.sector_of(page as u32), Some(sector));
            // extent_at starts at the same sector and stays contiguous.
            let e = rt.extent_at(page as u32).unwrap();
            prop_assert_eq!(e.start, sector);
            for k in 0..e.len as usize {
                prop_assert_eq!(flat.get(page + k).copied(), Some(sector + k as u32));
            }
        }
        prop_assert_eq!(rt.sector_of(flat.len() as u32), None);

        // Truncation removes exactly the tail.
        let mut rt2 = rt.clone();
        let removed = rt2.truncate(truncate_at);
        let keep = (truncate_at as usize).min(flat.len());
        prop_assert_eq!(rt2.pages() as usize, keep);
        let removed_flat: Vec<u32> = removed
            .iter()
            .flat_map(|r| r.start..r.end())
            .collect();
        prop_assert_eq!(&removed_flat, &flat[keep..]);

        // Encode/decode roundtrip.
        let bytes = rt.encode();
        let decoded =
            RunTable::decode(&mut cedar_vol::codec::Reader::new(&bytes)).unwrap();
        prop_assert_eq!(decoded, rt);
    }
}

/// Reference bit-at-a-time VAM over a plain bool vector — the old
/// implementation, kept as the oracle for the word-parallel mask path.
#[derive(Clone)]
struct BitVam {
    free: Vec<bool>,
    shadow: Vec<bool>,
}

impl BitVam {
    fn new(sectors: u32) -> Self {
        Self {
            free: vec![false; sectors as usize],
            shadow: vec![false; sectors as usize],
        }
    }

    fn apply(&mut self, op: &VamOp) {
        match *op {
            VamOp::Free(r) => {
                for a in r.start..r.end() {
                    self.free[a as usize] = true;
                }
            }
            VamOp::Allocate(r) => {
                for a in r.start..r.end() {
                    self.free[a as usize] = false;
                }
            }
            VamOp::ShadowFree(r) => {
                for a in r.start..r.end() {
                    self.shadow[a as usize] = true;
                }
            }
            VamOp::CommitShadow => {
                for (f, s) in self.free.iter_mut().zip(self.shadow.iter_mut()) {
                    *f |= *s;
                    *s = false;
                }
            }
        }
    }
}

#[derive(Clone, Debug)]
enum VamOp {
    Free(Run),
    Allocate(Run),
    ShadowFree(Run),
    CommitShadow,
}

fn arb_run(sectors: u32) -> impl Strategy<Value = Run> {
    (0..sectors, 1u32..200).prop_map(move |(start, len)| {
        let len = len.min(sectors - start);
        Run::new(start, len.max(1))
    })
}

fn arb_vam_ops(sectors: u32) -> impl Strategy<Value = Vec<VamOp>> {
    proptest::collection::vec(
        prop_oneof![
            4 => arb_run(sectors).prop_map(VamOp::Free),
            3 => arb_run(sectors).prop_map(VamOp::Allocate),
            2 => arb_run(sectors).prop_map(VamOp::ShadowFree),
            1 => Just(VamOp::CommitShadow),
        ],
        1..80,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    // The word-parallel mask path in `Vam` agrees bit-for-bit with the
    // per-sector reference under arbitrary op sequences (runs placed
    // anywhere relative to word boundaries, including the ragged last
    // word).
    #[test]
    fn word_path_equals_bit_path(
        sectors in 65u32..1500,
        ops in arb_vam_ops(1500),
    ) {
        let mut vam = Vam::new_all_allocated(sectors);
        let mut oracle = BitVam::new(sectors);
        for op in &ops {
            // Clip the op's run into range for this volume size.
            let clipped = |r: Run| -> Option<Run> {
                if r.start >= sectors { return None; }
                Some(Run::new(r.start, r.len.min(sectors - r.start)))
            };
            let op = match *op {
                VamOp::Free(r) => match clipped(r) { Some(r) => VamOp::Free(r), None => continue },
                VamOp::Allocate(r) => match clipped(r) { Some(r) => VamOp::Allocate(r), None => continue },
                VamOp::ShadowFree(r) => match clipped(r) { Some(r) => VamOp::ShadowFree(r), None => continue },
                VamOp::CommitShadow => VamOp::CommitShadow,
            };
            match op {
                VamOp::Free(r) => vam.free_run(r),
                VamOp::Allocate(r) => vam.allocate_run(r),
                VamOp::ShadowFree(r) => vam.shadow_free_run(r),
                VamOp::CommitShadow => vam.commit_shadow(),
            }
            oracle.apply(&op);
        }
        prop_assert_eq!(
            vam.free_count() as usize,
            oracle.free.iter().filter(|&&f| f).count()
        );
        prop_assert_eq!(
            vam.shadow_count() as usize,
            oracle.shadow.iter().filter(|&&s| s).count()
        );
        for a in 0..sectors {
            prop_assert_eq!(vam.is_free(a), oracle.free[a as usize], "sector {}", a);
        }
    }
}

/// The four VAM searches and the two word-level primitives under them,
/// one sector at a time through `is_free`: the reference the allocator's
/// searches must agree with run for run.
mod bitwise {
    use cedar_vol::{Run, Vam};

    pub fn next_addr(vam: &Vam, free: bool, from: u32, hi: u32) -> Option<u32> {
        (from..hi).find(|&a| vam.is_free(a) == free)
    }

    pub fn prev_addr(vam: &Vam, free: bool, lo: u32, hi: u32) -> Option<u32> {
        (lo..hi).rev().find(|&a| vam.is_free(a) == free)
    }

    pub fn find_free_run(vam: &Vam, len: u32, lo: u32, hi: u32, from: u32) -> Option<Run> {
        if len == 0 || lo >= hi {
            return None;
        }
        let scan = |start: u32, end: u32| -> Option<Run> {
            let mut run = 0;
            for a in start..end {
                run = if vam.is_free(a) { run + 1 } else { 0 };
                if run == len {
                    return Some(Run::new(a + 1 - len, len));
                }
            }
            None
        };
        let from = from.clamp(lo, hi);
        scan(from, hi).or_else(|| scan(lo, (from + len).min(hi)))
    }

    /// Every free run of `len` inside `[lo, hi)` that starts at or after
    /// `at`, or ends at or below it, measured from `at`: the nearest, the
    /// lower of two as near.
    pub fn find_nearest_free_run(vam: &Vam, len: u32, lo: u32, hi: u32, at: u32) -> Option<Run> {
        if len == 0 || lo >= hi {
            return None;
        }
        let at = at.clamp(lo, hi);
        let distance = |s: u32| match s {
            s if s >= at => Some(s - at),
            s if s + len <= at => Some(at - (s + len)),
            _ => None,
        };
        (lo..hi)
            .filter(|&s| s + len <= hi && (s..s + len).all(|a| vam.is_free(a)))
            .filter_map(|s| distance(s).map(|d| (d, s)))
            .min()
            .map(|(_, s)| Run::new(s, len))
    }

    pub fn find_last_free_run(vam: &Vam, len: u32, lo: u32, hi: u32) -> Option<Run> {
        if len == 0 || lo >= hi {
            return None;
        }
        let mut run = 0;
        for a in (lo..hi).rev() {
            run = if vam.is_free(a) { run + 1 } else { 0 };
            if run == len {
                return Some(Run::new(a, len));
            }
        }
        None
    }

    /// Free extents of `[lo, hi)` in address order.
    fn extents(vam: &Vam, lo: u32, hi: u32) -> Vec<Run> {
        let mut out: Vec<Run> = Vec::new();
        for a in lo..hi {
            if !vam.is_free(a) {
                continue;
            }
            match out.last_mut() {
                Some(r) if r.end() == a => r.len += 1,
                _ => out.push(Run::new(a, 1)),
            }
        }
        out
    }

    pub fn find_largest_free_run(vam: &Vam, lo: u32, hi: u32, cap: u32) -> Option<Run> {
        let extents = extents(vam, lo, hi);
        if let Some(r) = extents.iter().find(|r| r.len >= cap) {
            return Some(Run::new(r.start, cap));
        }
        // The first of the longest.
        extents.into_iter().rev().max_by_key(|r| r.len)
    }

    pub fn fragmentation(vam: &Vam, lo: u32, hi: u32) -> (u32, u32) {
        let extents = extents(vam, lo, hi);
        let largest = extents.iter().map(|r| r.len).max().unwrap_or(0);
        (extents.len() as u32, largest)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    // Every search over a random map returns what the sector-by-sector
    // reference returns: bounds on and off word edges, runs spanning
    // words, the partial last word, `len == 0` and `lo >= hi` included.
    #[test]
    fn vam_searches_match_the_bitwise_reference(
        sectors in 1u32..700,
        start_free in any::<bool>(),
        ops in proptest::collection::vec((any::<bool>(), any::<u32>(), 1u32..200), 0..40),
        queries in proptest::collection::vec(
            (any::<u32>(), any::<u32>(), any::<u32>(), 0u32..150),
            1..48,
        ),
    ) {
        let mut vam = Vam::new_all_allocated(sectors);
        if start_free {
            vam.free_run(Run::new(0, sectors));
        }
        for (free, start, len) in ops {
            let start = start % sectors;
            let run = Run::new(start, len.min(sectors - start));
            if free { vam.free_run(run) } else { vam.allocate_run(run) }
        }
        // An address in `0..=sectors`, a third of them next to a word edge.
        let at = |x: u32| -> u32 {
            if x.is_multiple_of(3) {
                let edge = (x >> 8) % (sectors / 64 + 2) * 64;
                (edge + (x >> 2) % 3).saturating_sub(1).min(sectors)
            } else {
                x % (sectors + 1)
            }
        };
        for (a, b, c, n) in queries {
            let (lo, hi, from) = (at(a), at(b), at(c));
            prop_assert_eq!(
                vam.find_free_run(n, lo, hi, from),
                bitwise::find_free_run(&vam, n, lo, hi, from),
                "find_free_run({}, {}, {}, {}) on {} sectors", n, lo, hi, from, sectors
            );
            prop_assert_eq!(
                vam.find_last_free_run(n, lo, hi),
                bitwise::find_last_free_run(&vam, n, lo, hi),
                "find_last_free_run({}, {}, {}) on {} sectors", n, lo, hi, sectors
            );
            prop_assert_eq!(
                vam.find_nearest_free_run(n, lo, hi, from),
                bitwise::find_nearest_free_run(&vam, n, lo, hi, from),
                "find_nearest_free_run({}, {}, {}, {}) on {} sectors", n, lo, hi, from, sectors
            );
            prop_assert_eq!(
                vam.find_largest_free_run(lo, hi, n),
                bitwise::find_largest_free_run(&vam, lo, hi, n),
                "find_largest_free_run({}, {}, {}) on {} sectors", lo, hi, n, sectors
            );
            prop_assert_eq!(
                vam.fragmentation(lo, hi),
                bitwise::fragmentation(&vam, lo, hi),
                "fragmentation({}, {}) on {} sectors", lo, hi, sectors
            );
            for free in [true, false] {
                prop_assert_eq!(
                    vam.next_addr(free, lo, hi),
                    bitwise::next_addr(&vam, free, lo, hi),
                    "next_addr({}, {}, {}) on {} sectors", free, lo, hi, sectors
                );
                prop_assert_eq!(
                    vam.prev_addr(free, lo, hi),
                    bitwise::prev_addr(&vam, free, lo, hi),
                    "prev_addr({}, {}, {}) on {} sectors", free, lo, hi, sectors
                );
            }
            if lo <= hi {
                let run = Run::new(lo, hi - lo);
                prop_assert_eq!(
                    vam.is_free_run(run),
                    bitwise::next_addr(&vam, false, lo, hi).is_none(),
                    "is_free_run({:?}) on {} sectors", run, sectors
                );
            }
        }
    }
}

/// Bits past the last sector live in the map's last word. A shadow free
/// that runs off the end sets them, and its commit makes them "free":
/// no search may hand one out, or count it into a run.
#[test]
fn a_tail_bit_past_the_last_sector_is_never_in_a_run() {
    let mut vam = Vam::new_all_allocated(100);
    vam.shadow_free_run(Run::new(90, 38));
    assert_eq!(vam.shadow_count(), 10);
    vam.commit_shadow();
    assert_eq!(vam.free_count(), 10);
    assert_eq!(vam.find_free_run(11, 0, 100, 0), None);
    assert_eq!(vam.find_free_run(10, 0, 100, 95), Some(Run::new(90, 10)));
    assert_eq!(vam.find_last_free_run(10, 0, 100), Some(Run::new(90, 10)));
    assert_eq!(vam.find_last_free_run(11, 0, 100), None);
    assert_eq!(
        vam.find_largest_free_run(0, 100, 64),
        Some(Run::new(90, 10))
    );
    assert_eq!(vam.fragmentation(0, 100), (1, 10));
    // Bounds past the volume are cut at its last sector.
    assert_eq!(vam.next_addr(true, 100, 128), None);
    assert_eq!(vam.prev_addr(true, 0, 128), Some(99));
    assert_eq!(vam.find_free_run(11, 0, 128, 0), None);
    assert_eq!(vam.find_last_free_run(10, 0, 128), Some(Run::new(90, 10)));
    assert_eq!(vam.fragmentation(0, 128), (1, 10));
    assert!(!vam.is_free_run(Run::new(95, 10)));
}

#[derive(Clone, Debug)]
enum HistOp {
    /// The allocator takes this many pages.
    Alloc(u32),
    Free(u32, u32),
    Allocate(u32, u32),
    ShadowFree(u32, u32),
    Commit,
    /// The map is rebuilt from what the name table would show (every
    /// free or shadow-held sector free), taking over the shadow.
    Carry,
    /// The map is saved and restored, losing the shadow.
    Reload,
    /// The owner moves the allocator's cursor (file data just moved
    /// there).
    Touch(u32),
}

fn arb_hist_op() -> impl Strategy<Value = HistOp> {
    prop_oneof![
        4 => (1u32..40).prop_map(HistOp::Alloc),
        3 => (any::<u32>(), 1u32..90).prop_map(|(s, l)| HistOp::Free(s, l)),
        2 => (any::<u32>(), 1u32..90).prop_map(|(s, l)| HistOp::Allocate(s, l)),
        3 => (any::<u32>(), 1u32..90).prop_map(|(s, l)| HistOp::ShadowFree(s, l)),
        2 => Just(HistOp::Commit),
        1 => Just(HistOp::Carry),
        1 => Just(HistOp::Reload),
        2 => any::<u32>().prop_map(HistOp::Touch),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // Whatever history a map has been through — allocations beside a
    // cursor the owner moves, frees, shadow frees and their commits, a
    // rebuild that carries the shadow, a save and restore — its counts
    // are the popcounts of a per-sector model and every search returns
    // what the sector-by-sector reference returns. A small file under the
    // split policy takes the reference's run nearest the cursor, and a
    // search from the area's front returns what first fit returns.
    #[test]
    fn counts_and_searches_match_the_model_over_any_history(
        sectors in 1u32..700,
        policy in arb_policy(),
        ops in proptest::collection::vec(arb_hist_op(), 1..60),
        queries in proptest::collection::vec(
            (any::<u32>(), any::<u32>(), any::<u32>(), 0u32..40),
            1..8,
        ),
    ) {
        let mut vam = Vam::new_all_allocated(sectors);
        let mut model = BitVam::new(sectors);
        let mut alloc = Allocator::new(policy, 0, sectors);
        let run = |start: u32, len: u32| {
            let start = start % sectors;
            Run::new(start, len.min(sectors - start))
        };
        for op in &ops {
            match *op {
                HistOp::Alloc(pages) => {
                    let small = match policy {
                        AllocPolicy::SplitAreas => pages <= SMALL_FILE_PAGES,
                        AllocPolicy::SingleArea => false,
                    };
                    let nearest = bitwise::find_nearest_free_run(&vam, pages, 0, sectors, alloc.cursor());
                    let got = alloc.allocate(&mut vam, pages);
                    if let (true, Some(want)) = (small, nearest) {
                        let got = got.as_ref().map(|rt| rt.runs().to_vec());
                        prop_assert_eq!(got, Ok(vec![want]), "{} pages from cursor {}", pages, alloc.cursor());
                    }
                    if let Ok(rt) = got {
                        for r in rt.runs() {
                            for a in r.start..r.end() {
                                prop_assert!(model.free[a as usize], "sector {} handed out allocated", a);
                            }
                            model.apply(&VamOp::Allocate(*r));
                        }
                    }
                }
                HistOp::Free(s, l) => {
                    vam.free_run(run(s, l));
                    model.apply(&VamOp::Free(run(s, l)));
                }
                HistOp::Allocate(s, l) => {
                    vam.allocate_run(run(s, l));
                    model.apply(&VamOp::Allocate(run(s, l)));
                }
                HistOp::ShadowFree(s, l) => {
                    vam.shadow_free_run(run(s, l));
                    model.apply(&VamOp::ShadowFree(run(s, l)));
                }
                HistOp::Commit => {
                    vam.commit_shadow();
                    model.apply(&VamOp::CommitShadow);
                }
                HistOp::Carry => {
                    let mut rebuilt = Vam::new_all_allocated(sectors);
                    for a in 0..sectors {
                        if model.free[a as usize] || model.shadow[a as usize] {
                            rebuilt.free_run(Run::new(a, 1));
                        }
                    }
                    rebuilt.carry_shadow_from(&vam);
                    vam = rebuilt;
                    for (f, s) in model.free.iter_mut().zip(&model.shadow) {
                        *f = *f && !*s;
                    }
                }
                HistOp::Reload => {
                    vam = Vam::from_bytes(&vam.to_bytes()).unwrap();
                    model.shadow.iter_mut().for_each(|s| *s = false);
                }
                HistOp::Touch(at) => {
                    alloc.set_cursor(at % (sectors + 1));
                    prop_assert_eq!(alloc.cursor(), at % (sectors + 1));
                }
            }
            let popcount = |bits: &[bool]| bits.iter().filter(|&&b| b).count() as u32;
            prop_assert_eq!(vam.free_count(), popcount(&model.free), "after {:?}", op);
            prop_assert_eq!(vam.shadow_count(), popcount(&model.shadow), "after {:?}", op);
            for a in 0..sectors {
                prop_assert_eq!(vam.is_free(a), model.free[a as usize], "sector {} after {:?}", a, op);
            }
            for &(a, b, c, n) in &queries {
                let (lo, hi, from) = (a % (sectors + 1), b % (sectors + 1), c % (sectors + 1));
                prop_assert_eq!(
                    vam.find_free_run(n, lo, hi, from),
                    bitwise::find_free_run(&vam, n, lo, hi, from),
                    "find_free_run({}, {}, {}, {}) after {:?}", n, lo, hi, from, op
                );
                prop_assert_eq!(
                    vam.find_largest_free_run(lo, hi, n),
                    bitwise::find_largest_free_run(&vam, lo, hi, n),
                    "find_largest_free_run({}, {}, {}) after {:?}", lo, hi, n, op
                );
                prop_assert_eq!(
                    vam.find_last_free_run(n, lo, hi),
                    bitwise::find_last_free_run(&vam, n, lo, hi),
                    "find_last_free_run({}, {}, {}) after {:?}", n, lo, hi, op
                );
                prop_assert_eq!(vam.fragmentation(lo, hi), bitwise::fragmentation(&vam, lo, hi));
                prop_assert_eq!(
                    vam.find_nearest_free_run(n, lo, hi, from),
                    bitwise::find_nearest_free_run(&vam, n, lo, hi, from),
                    "find_nearest_free_run({}, {}, {}, {}) after {:?}", n, lo, hi, from, op
                );
                prop_assert_eq!(
                    vam.find_nearest_free_run(n, lo, hi, lo),
                    bitwise::find_free_run(&vam, n, lo, hi, lo),
                    "nearest from the front is first fit: ({}, {}, {}) after {:?}", n, lo, hi, op
                );
            }
        }
    }
}
