//! The chunk store against a per-sector reference.
//!
//! `RefDisk` keeps the store `SimDisk` had before its data moved into
//! shared chunks: one state record per sector, a boxed array behind each
//! written one, clones that copy everything. Its timing is the same
//! sector-by-sector model. Random sequences of transfers, label passes,
//! crashes, media faults, out-of-band corruption, clones, forks and image
//! round trips run against both; after every step the results, errors,
//! statistics, clocks, write journals, every sector's bytes, label and
//! damage flag, and the platter digests must agree.

use cedar_disk::{
    CrashPlan, DiskError, DiskGeometry, DiskStats, DiskTiming, FaultPlan, JournalEntry, Label,
    Micros, PageKind, SectorAddr, SimClock, SimDisk, SECTOR_BYTES,
};
use proptest::prelude::*;

// ----- the reference: one record per sector ---------------------------------

#[derive(Clone, Debug, Default)]
struct SectorState {
    data: Option<Box<[u8; SECTOR_BYTES]>>,
    label: Label,
    damaged: bool,
    latent: bool,
    transient_fails: u8,
    hard_bad: bool,
}

#[derive(Clone, Debug)]
struct RefDisk {
    geometry: DiskGeometry,
    timing: DiskTiming,
    clock: SimClock,
    sectors: Vec<SectorState>,
    current_cylinder: u32,
    stats: DiskStats,
    crash: Option<CrashPlan>,
    crashed: bool,
    journal: Option<Vec<JournalEntry>>,
}

type Res<T> = Result<T, DiskError>;

impl RefDisk {
    fn new(geometry: DiskGeometry, timing: DiskTiming, clock: SimClock) -> Self {
        Self {
            geometry,
            timing,
            clock,
            sectors: vec![SectorState::default(); geometry.total_sectors() as usize],
            current_cylinder: 0,
            stats: DiskStats::default(),
            crash: None,
            crashed: false,
            journal: None,
        }
    }

    fn position_to(&mut self, addr: SectorAddr) {
        let chs = self.geometry.to_chs(addr);
        let distance = self.current_cylinder.abs_diff(chs.cylinder);
        if distance > 0 {
            let t = self.timing.seek_us(distance);
            if distance <= self.timing.short_seek_cylinders {
                self.stats.short_seeks += 1;
            } else {
                self.stats.seeks += 1;
            }
            self.stats.seek_us += t;
            self.clock.advance(t);
            self.current_cylinder = chs.cylinder;
        }
        let sector_us = self.timing.sector_us();
        let rev = sector_us * self.timing.sectors_per_track as Micros;
        let target_angle = chs.sector as Micros * sector_us;
        let wait = (target_angle + rev - self.clock.now() % rev) % rev;
        if wait * 4 >= rev * 3 {
            self.stats.lost_revolutions += 1;
            self.stats.lost_rev_us += wait;
        } else {
            self.stats.rotation_us += wait;
        }
        self.clock.advance(wait);
    }

    fn charge_transfer(&mut self, addr: SectorAddr, first: bool) {
        if !first {
            let chs = self.geometry.to_chs(addr);
            if chs.cylinder != self.current_cylinder {
                let t = self.timing.short_seek_us;
                self.stats.short_seeks += 1;
                self.stats.seek_us += t;
                self.clock.advance(t);
                self.current_cylinder = chs.cylinder;
            }
        }
        let t = self.timing.sector_us();
        self.stats.transfer_us += t;
        self.clock.advance(t);
    }

    fn check_range(&self, start: SectorAddr, n: usize) -> Res<()> {
        if self.crashed {
            return Err(DiskError::Crashed);
        }
        if n == 0 || start as u64 + n as u64 > self.geometry.total_sectors() as u64 {
            return Err(DiskError::OutOfRange(start));
        }
        Ok(())
    }

    fn maybe_crash(&mut self, addr: SectorAddr, op_end: SectorAddr) -> bool {
        let Some(plan) = &mut self.crash else {
            return false;
        };
        if plan.after_sector_writes > 0 {
            plan.after_sector_writes -= 1;
            return false;
        }
        let tail = plan.damaged_tail.min(2) as u32;
        for a in addr..(addr + tail).min(op_end) {
            self.sectors[a as usize].damaged = true;
        }
        self.crash = None;
        self.crashed = true;
        true
    }

    fn fault_on_read(&mut self, addr: SectorAddr) -> bool {
        let s = &mut self.sectors[addr as usize];
        if s.hard_bad {
            self.stats.media_faults += 1;
            return true;
        }
        if s.latent {
            s.latent = false;
            s.damaged = true;
            self.stats.media_faults += 1;
            return true;
        }
        let fails = s.transient_fails.min(2);
        s.transient_fails = 0;
        let rev = self.timing.sector_us() * self.timing.sectors_per_track as Micros;
        for _ in 0..fails {
            self.stats.lost_revolutions += 1;
            self.stats.lost_rev_us += rev;
            self.stats.transient_retries += 1;
            self.clock.advance(rev);
        }
        self.sectors[addr as usize].damaged
    }

    fn fault_on_write(&mut self, addr: SectorAddr) -> Option<DiskError> {
        let s = &mut self.sectors[addr as usize];
        if s.hard_bad {
            self.stats.media_faults += 1;
            return Some(DiskError::BadSector(addr));
        }
        if s.latent {
            s.latent = false;
            s.damaged = true;
            self.stats.media_faults += 1;
            return Some(DiskError::BadSector(addr));
        }
        None
    }

    fn read_into(
        &mut self,
        start: SectorAddr,
        n: usize,
        expected: Option<&[Label]>,
        out: &mut Vec<u8>,
    ) -> Res<()> {
        self.check_range(start, n)?;
        self.stats.reads += 1;
        self.position_to(start);
        for i in 0..n {
            let addr = start + i as u32;
            self.charge_transfer(addr, i == 0);
            self.stats.sectors_read += 1;
            if self.fault_on_read(addr) {
                return Err(DiskError::BadSector(addr));
            }
            let s = &self.sectors[addr as usize];
            if let Some(want) = expected.map(|e| e[i]) {
                if s.label != want {
                    return Err(DiskError::LabelMismatch {
                        addr,
                        expected: want,
                        found: s.label,
                    });
                }
            }
            match &s.data {
                Some(d) => out.extend_from_slice(&d[..]),
                None => out.extend_from_slice(&[0; SECTOR_BYTES]),
            }
        }
        Ok(())
    }

    fn read_allow_damage(&mut self, start: SectorAddr, n: usize) -> Res<(Vec<u8>, Vec<bool>)> {
        self.check_range(start, n)?;
        self.stats.reads += 1;
        self.position_to(start);
        let (mut out, mut mask) = (Vec::new(), Vec::new());
        for i in 0..n {
            let addr = start + i as u32;
            self.charge_transfer(addr, i == 0);
            self.stats.sectors_read += 1;
            let dmg = self.fault_on_read(addr);
            mask.push(dmg);
            match (&self.sectors[addr as usize].data, dmg) {
                (Some(d), false) => out.extend_from_slice(&d[..]),
                _ => out.extend_from_slice(&[0; SECTOR_BYTES]),
            }
        }
        Ok((out, mask))
    }

    fn write(
        &mut self,
        start: SectorAddr,
        data: &[u8],
        expected: Option<&[Label]>,
        new_labels: Option<&[Label]>,
    ) -> Res<()> {
        let n = data.len() / SECTOR_BYTES;
        self.check_range(start, n)?;
        self.stats.writes += 1;
        self.position_to(start);
        let op_end = start + n as u32;
        for i in 0..n {
            let addr = start + i as u32;
            self.charge_transfer(addr, i == 0);
            if let Some(exp) = expected {
                let found = self.sectors[addr as usize].label;
                if found != exp[i] {
                    return Err(DiskError::LabelMismatch {
                        addr,
                        expected: exp[i],
                        found,
                    });
                }
            }
            if let Some(e) = self.fault_on_write(addr) {
                return Err(e);
            }
            if self.maybe_crash(addr, op_end) {
                return Err(DiskError::Crashed);
            }
            let s = &mut self.sectors[addr as usize];
            let mut buf = [0u8; SECTOR_BYTES];
            buf.copy_from_slice(&data[i * SECTOR_BYTES..(i + 1) * SECTOR_BYTES]);
            s.data = Some(Box::new(buf));
            s.damaged = false;
            if let Some(labels) = new_labels {
                s.label = labels[i];
            }
            self.stats.sectors_written += 1;
            if let Some(journal) = &mut self.journal {
                journal.push(JournalEntry {
                    addr,
                    data: Some(buf.to_vec()),
                    label: new_labels.map(|l| l[i]),
                });
            }
        }
        Ok(())
    }

    fn read_labels(&mut self, start: SectorAddr, n: usize) -> Res<Vec<Label>> {
        self.check_range(start, n)?;
        self.stats.label_ops += 1;
        self.position_to(start);
        let mut out = Vec::new();
        for i in 0..n {
            let addr = start + i as u32;
            self.charge_transfer(addr, i == 0);
            out.push(self.sectors[addr as usize].label);
        }
        Ok(out)
    }

    fn write_labels(
        &mut self,
        start: SectorAddr,
        labels: &[Label],
        expected: Option<&[Label]>,
    ) -> Res<()> {
        let n = labels.len();
        self.check_range(start, n)?;
        self.stats.label_ops += 1;
        self.position_to(start);
        let op_end = start + n as u32;
        for i in 0..n {
            let addr = start + i as u32;
            self.charge_transfer(addr, i == 0);
            if let Some(exp) = expected {
                let found = self.sectors[addr as usize].label;
                if found != exp[i] {
                    return Err(DiskError::LabelMismatch {
                        addr,
                        expected: exp[i],
                        found,
                    });
                }
            }
            if self.maybe_crash(addr, op_end) {
                return Err(DiskError::Crashed);
            }
            self.sectors[addr as usize].label = labels[i];
            self.stats.sectors_written += 1;
            if let Some(journal) = &mut self.journal {
                journal.push(JournalEntry {
                    addr,
                    data: None,
                    label: Some(labels[i]),
                });
            }
        }
        Ok(())
    }

    fn fork_with_clock(&self, clock: SimClock) -> RefDisk {
        let mut fork = RefDisk::new(self.geometry, self.timing, clock);
        for (t, s) in fork.sectors.iter_mut().zip(&self.sectors) {
            t.data = s.data.clone();
            t.label = s.label;
        }
        fork
    }

    fn set_fault_plan(&mut self, plan: &FaultPlan) {
        for &a in &plan.latent {
            if let Some(s) = self.sectors.get_mut(a as usize) {
                s.latent = true;
            }
        }
        for &(a, n) in &plan.transient {
            if let Some(s) = self.sectors.get_mut(a as usize) {
                s.transient_fails = n.min(2);
            }
        }
        for &a in &plan.grown {
            if let Some(s) = self.sectors.get_mut(a as usize) {
                s.hard_bad = true;
            }
        }
    }

    fn platter_digest(&self) -> u64 {
        let mut h = 0xcbf29ce484222325;
        for (addr, s) in self.sectors.iter().enumerate() {
            if s.data.is_none() && s.label.is_free() {
                continue;
            }
            let l = s.label;
            h = fnv(h, &(addr as u32).to_le_bytes());
            h = fnv(h, &[u8::from(s.data.is_some())]);
            h = fnv(h, s.data.as_deref().map_or(&[][..], |d| &d[..]));
            h = fnv(h, &l.uid.to_le_bytes());
            h = fnv(h, &l.page.to_le_bytes());
            h = fnv(h, &[l.kind.into()]);
        }
        h
    }

    /// The `VERSION 1` image the per-sector store saved.
    fn image(&self) -> Vec<u8> {
        let mut w = b"CEDARIMG".to_vec();
        let (g, t) = (self.geometry, self.timing);
        for v in [1, g.cylinders, g.heads, g.sectors_per_track, t.rpm] {
            w.extend_from_slice(&v.to_le_bytes());
        }
        w.extend_from_slice(&t.short_seek_cylinders.to_le_bytes());
        for v in [t.short_seek_us, t.seek_base_us, t.seek_per_sqrt_cyl_us, 0] {
            w.extend_from_slice(&v.to_le_bytes());
        }
        for (addr, s) in self.sectors.iter().enumerate() {
            if s.data.is_none() && s.label.is_free() && !s.damaged {
                continue;
            }
            w.extend_from_slice(&(addr as u32).to_le_bytes());
            w.extend_from_slice(&s.label.uid.to_le_bytes());
            w.extend_from_slice(&s.label.page.to_le_bytes());
            w.extend_from_slice(&[
                s.label.kind.into(),
                s.damaged.into(),
                s.data.is_some().into(),
            ]);
            if let Some(d) = &s.data {
                w.extend_from_slice(&d[..]);
            }
        }
        w.extend_from_slice(&u32::MAX.to_le_bytes());
        w
    }

    /// What loading an image leaves: the persistent state only.
    fn reloaded(&self, clock: SimClock) -> RefDisk {
        let mut fresh = RefDisk::new(self.geometry, self.timing, clock);
        for (t, s) in fresh.sectors.iter_mut().zip(&self.sectors) {
            t.data = s.data.clone();
            t.label = s.label;
            t.damaged = s.damaged;
        }
        fresh
    }
}

fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x100000001b3))
}

// ----- the operations --------------------------------------------------------

#[derive(Clone, Debug)]
enum Op {
    /// `(start, sectors, fill)`: a plain write (see `payload`).
    Write(u32, u8, u8),
    /// `(start, sectors, fill, uid)`.
    WriteWithLabels(u32, u8, u8, u8),
    /// `(start, sectors, fill, right)`: checked against the sectors'
    /// labels, or against labels that are off by one page.
    WriteChecked(u32, u8, u8, bool),
    ReadInto(u32, u8),
    ReadChecked(u32, u8, bool),
    ReadAllowDamage(u32, u8),
    ReadLabels(u32, u8),
    /// `(start, sectors, uid, checked)`: uid 0 frees.
    WriteLabels(u32, u8, u8, bool),
    Crash(u8, u8),
    Reboot,
    Damage(u32),
    Faults(u32, u32, u8, u32),
    WildWrite(u32, u8),
    CorruptByte(u32, u16, u8),
    Clone,
    Fork,
    SaveLoad,
    /// Which pair the next operations go to.
    Switch(u8),
}

fn arb_op(total: u32) -> impl Strategy<Value = Op> {
    let at = move || 0..total;
    prop_oneof![
        6 => (at(), 1u8..80, any::<u8>()).prop_map(|(s, n, b)| Op::Write(s, n, b)),
        3 => (at(), 1u8..40, any::<u8>(), 0u8..4).prop_map(|(s, n, b, u)| Op::WriteWithLabels(s, n, b, u)),
        2 => (at(), 1u8..20, any::<u8>(), any::<bool>()).prop_map(|(s, n, b, r)| Op::WriteChecked(s, n, b, r)),
        5 => (at(), 1u8..90).prop_map(|(s, n)| Op::ReadInto(s, n)),
        2 => (at(), 1u8..20, any::<bool>()).prop_map(|(s, n, r)| Op::ReadChecked(s, n, r)),
        2 => (at(), 1u8..70).prop_map(|(s, n)| Op::ReadAllowDamage(s, n)),
        2 => (at(), 1u8..70).prop_map(|(s, n)| Op::ReadLabels(s, n)),
        2 => (at(), 1u8..40, 0u8..4, any::<bool>()).prop_map(|(s, n, u, c)| Op::WriteLabels(s, n, u, c)),
        2 => (0u8..40, 0u8..3).prop_map(|(a, t)| Op::Crash(a, t)),
        2 => Just(Op::Reboot),
        1 => at().prop_map(Op::Damage),
        2 => (at(), at(), 0u8..4, at()).prop_map(|(l, t, n, g)| Op::Faults(l, t, n, g)),
        1 => (at(), any::<u8>()).prop_map(|(a, b)| Op::WildWrite(a, b)),
        1 => (at(), any::<u16>(), 1u8..255).prop_map(|(a, o, x)| Op::CorruptByte(a, o, x)),
        1 => Just(Op::Clone),
        1 => Just(Op::Fork),
        1 => Just(Op::SaveLoad),
        2 => any::<u8>().prop_map(Op::Switch),
    ]
}

/// `n` sectors of distinct bytes per sector and per offset; all zeros
/// for one fill in eight, so that sectors written with zeros are common.
fn payload(n: usize, fill: u8) -> Vec<u8> {
    (0..n * SECTOR_BYTES)
        .map(|i| {
            if fill.is_multiple_of(8) {
                0
            } else {
                fill ^ (i / SECTOR_BYTES) as u8 ^ (i % 251) as u8
            }
        })
        .collect()
}

fn labels(start: u32, n: usize, uid: u8) -> Vec<Label> {
    (0..n as u32)
        .map(|i| match uid {
            0 => Label::FREE,
            u => Label::new(u as u64, start + i, PageKind::Data),
        })
        .collect()
}

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("cedar-differential-{}-{name}", std::process::id()));
    p
}

/// Runs one op on a pair; the results must agree.
fn step(d: &mut SimDisk, r: &mut RefDisk, op: &Op) {
    let total = d.geometry().total_sectors();
    let clip = |s: u32, n: u8| (n as u32).min(total - s) as usize;
    match *op {
        Op::Write(s, n, b) => {
            let data = payload(clip(s, n), b);
            assert_eq!(d.write(s, &data), r.write(s, &data, None, None));
        }
        Op::WriteWithLabels(s, n, b, u) => {
            let n = clip(s, n);
            let (data, l) = (payload(n, b), labels(s, n, u));
            assert_eq!(
                d.write_with_labels(s, &data, &l),
                r.write(s, &data, None, Some(&l))
            );
        }
        Op::WriteChecked(s, n, b, right) => {
            let n = clip(s, n);
            let data = payload(n, b);
            let mut want: Vec<Label> = (s..s + n as u32).map(|a| d.peek_label(a)).collect();
            if !right {
                want[n / 2].page += 1;
            }
            assert_eq!(
                d.write_checked(s, &data, &want),
                r.write(s, &data, Some(&want), None)
            );
        }
        Op::ReadInto(s, n) => {
            let n = clip(s, n);
            let (mut a, mut b) = (vec![7; 3], vec![7; 3]);
            assert_eq!(d.read_into(s, n, &mut a), r.read_into(s, n, None, &mut b));
            assert!(a == b, "read_into({s}, {n}) bytes differ");
        }
        Op::ReadChecked(s, n, right) => {
            let n = clip(s, n);
            let mut want: Vec<Label> = (s..s + n as u32).map(|a| d.peek_label(a)).collect();
            if !right {
                want[n - 1].uid += 1;
            }
            let mut b = Vec::new();
            let got = r.read_into(s, n, Some(&want), &mut b).map(|()| b);
            assert!(d.read_checked(s, n, &want) == got, "read_checked({s}, {n})");
        }
        Op::ReadAllowDamage(s, n) => {
            let n = clip(s, n);
            assert!(
                d.read_allow_damage(s, n) == r.read_allow_damage(s, n),
                "read_allow_damage({s}, {n})"
            );
        }
        Op::ReadLabels(s, n) => {
            let n = clip(s, n);
            assert_eq!(d.read_labels(s, n), r.read_labels(s, n));
        }
        Op::WriteLabels(s, n, u, checked) => {
            let n = clip(s, n);
            let new = labels(s, n, u);
            let old: Vec<Label> = (s..s + n as u32).map(|a| d.peek_label(a)).collect();
            let exp = checked.then_some(&old[..]);
            assert_eq!(d.write_labels(s, &new, exp), r.write_labels(s, &new, exp));
        }
        Op::Crash(after, tail) => {
            let plan = CrashPlan {
                after_sector_writes: after as u64,
                damaged_tail: tail,
            };
            d.schedule_crash(plan);
            r.crash = Some(plan);
        }
        Op::Reboot => {
            d.reboot();
            (r.crashed, r.crash, r.current_cylinder) = (false, None, 0);
        }
        Op::Damage(a) => {
            d.damage_sector(a);
            r.sectors[a as usize].damaged = true;
        }
        Op::Faults(l, t, n, g) => {
            let plan = FaultPlan::none()
                .with_latent(l)
                .with_transient(t, n)
                .with_grown(g)
                .with_latent(total + l);
            d.set_fault_plan(&plan);
            r.set_fault_plan(&plan);
        }
        Op::WildWrite(a, b) => {
            d.wild_write(a, b);
            r.sectors[a as usize].data = Some(Box::new([b; SECTOR_BYTES]));
        }
        Op::CorruptByte(a, o, x) => {
            d.corrupt_byte(a, o as usize, x);
            if let Some(data) = r.sectors[a as usize].data.as_mut() {
                data[o as usize % SECTOR_BYTES] ^= x;
            }
        }
        Op::Clone | Op::Fork | Op::SaveLoad | Op::Switch(_) => unreachable!(),
    }
    assert_eq!(d.stats(), r.stats, "after {op:?}");
    assert_eq!(d.clock().now(), r.clock.now(), "after {op:?}");
    let entry = |e: JournalEntry| (e.addr, e.data, e.label);
    let journal: Vec<_> = d.drain_write_journal().into_iter().map(entry).collect();
    let want: Vec<_> = r
        .journal
        .iter_mut()
        .flat_map(std::mem::take)
        .map(entry)
        .collect();
    assert!(journal == want, "journals differ after {op:?}");
}

/// Every sector's bytes, label and damage flag, the data count and the
/// platter digest agree.
fn same_platter(d: &SimDisk, r: &RefDisk, when: &str) {
    for (addr, s) in r.sectors.iter().enumerate() {
        let a = addr as u32;
        assert!(
            d.peek_data(a) == s.data.as_deref().map(|b| &b[..]),
            "sector {a} bytes differ {when}"
        );
        assert_eq!(d.peek_label(a), s.label, "sector {a} label {when}");
        assert_eq!(d.peek_damaged(a), s.damaged, "sector {a} damage {when}");
    }
    let materialized = r.sectors.iter().filter(|s| s.data.is_some()).count();
    assert_eq!(d.materialized_sectors() as usize, materialized, "{when}");
    assert_eq!(d.platter_digest(), r.platter_digest(), "digest {when}");
}

/// T-300-like proportions at test size: tracks of 13 sectors that no
/// chunk boundary lines up with, and a last chunk cut short.
const ODD: DiskGeometry = DiskGeometry {
    cylinders: 50,
    heads: 3,
    sectors_per_track: 13,
};

fn run(geometry: DiskGeometry, ops: &[Op], name: &str) {
    let timing = DiskTiming {
        sectors_per_track: geometry.sectors_per_track,
        ..DiskTiming::TINY
    };
    let mut d = SimDisk::new(geometry, timing, SimClock::new());
    d.enable_write_journal();
    let mut r = RefDisk::new(geometry, timing, SimClock::new());
    r.journal = Some(Vec::new());
    let mut pairs = vec![(d, r)];
    let mut at = 0;
    for (i, op) in ops.iter().enumerate() {
        let when = format!("after op {i} ({op:?}) on pair {at}");
        match *op {
            Op::Switch(k) => at = k as usize % pairs.len(),
            Op::Clone if pairs.len() < 4 => {
                let copy = pairs[at].clone();
                pairs.push(copy);
            }
            Op::Fork if pairs.len() < 4 => {
                let (d, r) = &pairs[at];
                let mut fork = (
                    d.fork_with_clock(SimClock::new()),
                    r.fork_with_clock(SimClock::new()),
                );
                fork.0.enable_write_journal();
                fork.1.journal = Some(Vec::new());
                pairs.push(fork);
            }
            Op::Clone | Op::Fork => {}
            Op::SaveLoad => {
                let path = tmp(name);
                let (d, r) = &mut pairs[at];
                d.save_image(&path).unwrap();
                let saved = std::fs::read(&path).unwrap();
                assert!(saved == r.image(), "images differ {when}");
                *d = SimDisk::load_image(&path, SimClock::new()).unwrap();
                std::fs::remove_file(&path).ok();
                *r = r.reloaded(SimClock::new());
                d.enable_write_journal();
                r.journal = Some(Vec::new());
            }
            _ => {
                let (d, r) = &mut pairs[at];
                step(d, r, op);
            }
        }
        // Every platter is compared in full every few steps and at the
        // end; a write that leaks into a clone stays visible until then.
        if i % 6 == 5 || i + 1 == ops.len() {
            for (k, (d, r)) in pairs.iter().enumerate() {
                same_platter(d, r, &format!("{when}, checking pair {k}"));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn the_chunk_store_matches_the_per_sector_reference(
        ops in proptest::collection::vec(arb_op(ODD.total_sectors()), 1..160),
    ) {
        run(ODD, &ops, "odd");
    }

    #[test]
    fn the_chunk_store_matches_the_per_sector_reference_on_the_tiny_disk(
        ops in proptest::collection::vec(arb_op(DiskGeometry::TINY.total_sectors()), 1..160),
    ) {
        run(DiskGeometry::TINY, &ops, "tiny");
    }
}
