//! Corrupted-image property test (§4's robustness claim, pushed past
//! §5.8's failure model): build a live volume, crash or cleanly shut it
//! down, then rot the image out-of-band — byte flips in leader pages,
//! name-table pages, log records, boot/VAM sectors, and label-plane
//! smashes — and boot. Recovery must either land a structurally
//! consistent tree or fail with a typed [`cedar_fsd::FsdError`]; it must
//! never panic, and (because every decoded length is range-checked
//! before it sizes an allocation) never allocate absurdly. When the
//! in-place ladder accepts rotten state, a forced scavenge — which
//! trusts nothing but labels and software-check pages — must still
//! rebuild a verifying tree. Serial and 8-way-parallel scavenges must
//! agree on the outcome. Whatever tree recovery lands is then edited —
//! one seeded name created, another deleted — so the name table's
//! in-place edit paths run over the rotten image too: each edit ends
//! `Ok` or typed, and `verify()` runs after them.

use cedar_disk::{CpuModel, Label, PageKind, SimDisk, SECTOR_BYTES};
use cedar_fsd::layout::FsdBootPage;
use cedar_fsd::log::{decode_record_bytes, encode_record, PageTarget};
use cedar_fsd::{FsdConfig, FsdLayout, FsdVolume, RecoveryRung};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn config_with(workers: usize) -> FsdConfig {
    FsdConfig {
        nt_pages: 24,
        log_sectors: 160,
        cpu: CpuModel::FREE,
        scavenge_workers: workers,
    }
}

/// One out-of-band corruption: `(region, sector offset, byte offset,
/// flavor)`. `flavor` picks the xor mask / fake label so shrinking keeps
/// cases minimal.
type Rot = (u8, u16, u16, u8);

/// Sectors in the data area carrying the given label kind — the live
/// structures a blind flip would rarely hit on a mostly-empty volume.
fn live_sectors(disk: &SimDisk, l: &FsdLayout, kind: PageKind) -> Vec<u32> {
    let (start, end) = l.data_area();
    (start..end)
        .filter(|&a| disk.peek_label(a).kind == kind)
        .collect()
}

fn pick(list: &[u32], off: u16) -> Option<u32> {
    if list.is_empty() {
        None
    } else {
        Some(list[usize::from(off) % list.len()])
    }
}

fn apply_rot(disk: &mut SimDisk, l: &FsdLayout, rot: Rot) {
    let (region, off, byteoff, flavor) = rot;
    let xor = flavor | 1; // Never a no-op flip.
    let addr = match region % 7 {
        // Name-table pages: run tables and names rot under intact labels.
        0 => Some(l.nt_a_sector(u32::from(off) % l.nt_pages)),
        // Log records and log meta: redo's own input goes bad.
        1 => Some(l.log_start + u32::from(off) % l.log_sectors),
        // A live leader page: the software-check page itself.
        2 => pick(&live_sectors(disk, l, PageKind::Leader), off),
        // A live data page: committed file content.
        3 => pick(&live_sectors(disk, l, PageKind::Data), off),
        // Boot page A: the spare map and VAM-validity hints.
        4 => Some(l.boot_a),
        // Saved VAM copy A.
        5 => Some(l.vam_a + u32::from(off) % l.vam_sectors),
        // The self-certifying plane itself: a wild label on a live page.
        _ => {
            let kinds = [
                PageKind::Free,
                PageKind::Leader,
                PageKind::Data,
                PageKind::NameTable,
                PageKind::Log,
                PageKind::Boot,
                PageKind::Header,
            ];
            let kind = if flavor % 2 == 0 {
                PageKind::Leader
            } else {
                PageKind::Data
            };
            let fake = kinds[usize::from(flavor) % kinds.len()];
            if let Some(a) = pick(&live_sectors(disk, l, kind), off) {
                let label = Label::new(
                    u64::from(flavor).wrapping_mul(0x9E37),
                    u32::from(byteoff),
                    fake,
                );
                disk.corrupt_label(a, label);
            }
            return;
        }
    };
    if let Some(a) = addr {
        disk.corrupt_byte(a, usize::from(byteoff), xor);
    }
}

/// Listing plus per-file read *outcomes* (content, or "typed error") —
/// reads over rotten sectors may fail, but they must fail typed and
/// identically across worker counts.
type Observed = BTreeMap<(String, u32), Option<Vec<u8>>>;

fn observe(v: &mut FsdVolume) -> Result<(Observed, u32), TestCaseError> {
    let listing = match v.list("") {
        Ok(l) => l,
        Err(e) => return Err(TestCaseError::fail(format!("list after verify: {e}"))),
    };
    let mut state = Observed::new();
    for (n, _) in listing {
        let content = v
            .open(&n.name, Some(n.version))
            .and_then(|mut f| v.read_file(&mut f))
            .ok();
        state.insert((n.name.clone(), n.version), content);
    }
    Ok((state, v.free_sectors()))
}

/// Two seeded names: one to create a version of, one to delete.
type Edit<'a> = (&'a str, &'a str);

/// Edits a tree recovery landed: creates a version of one seeded name
/// and deletes another, each walking the name table's edit paths over
/// whatever rot recovery let through. Each must end `Ok` or with a typed
/// error — never a panic — and then `verify()` runs; after two edits
/// that succeeded, the tree must still verify.
fn edit_then_verify(v: &mut FsdVolume, (create, delete): Edit<'_>) -> Result<(), TestCaseError> {
    let created = v.create(create, &[7u8; 300]).is_ok();
    let deleted = v.delete(delete, None).is_ok();
    let verified = v.verify();
    if created && deleted {
        if let Err(e) = verified {
            return Err(TestCaseError::fail(format!(
                "create {create} and delete {delete} left a tree that fails verify: {e}"
            )));
        }
    }
    Ok(())
}

/// Boots the rotten image and walks the ladder to a verdict:
/// `Ok(Some(state))` — a structurally consistent tree (possibly after a
/// forced scavenge when the in-place rungs accepted or rejected rotten
/// state); `Ok(None)` — recovery refused the image with a typed error
/// end to end. Panics and post-scavenge inconsistency are test failures.
/// A landed tree then takes `edit`.
fn recover(
    disk: &SimDisk,
    workers: usize,
    edit: Edit<'_>,
) -> Result<Option<(Observed, u32)>, TestCaseError> {
    let mut first = disk.clone();
    first.reboot();
    if let Ok((mut v, _report)) = FsdVolume::boot(first, config_with(workers)) {
        // Lookups walk the name table before anything has vouched for
        // it, reading each node in place: over rotten pages they answer
        // or fail typed, never panic.
        for n in 0u8..12 {
            let name = format!("file{n:02}");
            let _ = v.open(&name, None);
            let _ = v.open(&name, Some(1));
        }
        // Boot leaves the VAM walk owed; pay it, so the free map that
        // `observe` compares across worker counts is the rebuilt one.
        match v.settle_vam() {
            Ok(_) => {
                if v.verify().is_ok() {
                    let landed = observe(&mut v)?;
                    edit_then_verify(&mut v, edit)?;
                    return Ok(Some(landed));
                }
            }
            // Rot the walk cannot get past: typed error now, and the boot
            // pages must send the next boot to the scavenger on their own.
            Err(_) => {
                let mut again = v.into_disk();
                again.reboot();
                if let Ok((mut v, report)) = FsdVolume::boot(again, config_with(workers)) {
                    prop_assert_eq!(report.rung, RecoveryRung::Scavenge);
                    if v.verify().is_ok() {
                        let landed = observe(&mut v)?;
                        edit_then_verify(&mut v, edit)?;
                        return Ok(Some(landed));
                    }
                }
            }
        }
        // The fast rungs decoded rotten-but-plausible state (§5.8 calls
        // this the "malicious crash" class); fall through to the rung
        // that rebuilds from labels alone.
    }
    forced_scavenge(disk, workers, edit)
}

/// Destroys both log-meta replicas so redo has nothing to anchor on and
/// the ladder must bottom out in a full scavenge over the rotten image.
/// If the scavenger accepts the volume, the tree it built must verify —
/// it trusted nothing but labels and software-check pages, so rot can
/// cost files (recorded as losses) but never consistency.
fn forced_scavenge(
    disk: &SimDisk,
    workers: usize,
    edit: Edit<'_>,
) -> Result<Option<(Observed, u32)>, TestCaseError> {
    let cfg = config_with(workers);
    let meta_a = FsdLayout::compute(disk.geometry(), cfg.nt_pages, cfg.log_sectors).log_start;
    let mut scav = disk.clone();
    scav.damage_sector(meta_a);
    scav.damage_sector(meta_a + 2);
    scav.reboot();
    match FsdVolume::boot(scav, cfg) {
        Ok((mut v, report)) => {
            prop_assert_eq!(report.rung, RecoveryRung::Scavenge);
            if let Err(e) = v.verify() {
                return Err(TestCaseError::fail(format!(
                    "scavenge accepted an inconsistent tree: {e}"
                )));
            }
            let landed = observe(&mut v)?;
            edit_then_verify(&mut v, edit)?;
            Ok(Some(landed))
        }
        // A typed refusal (e.g. both boot pages rotten) is a legitimate
        // end state — the volume is telling the operator it needs help.
        Err(_) => Ok(None),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn corrupted_images_recover_or_fail_typed(
        seeds in proptest::collection::vec((0u8..12, 1usize..900), 1..8),
        rots in proptest::collection::vec(
            (any::<u8>(), any::<u16>(), any::<u16>(), any::<u8>()), 1..6),
        clean_shutdown in any::<bool>(),
    ) {
        let mut v = FsdVolume::format(SimDisk::tiny(), config_with(1)).unwrap();
        for &(n, len) in &seeds {
            let data = vec![n.wrapping_mul(37); len];
            match v.create(&format!("file{n:02}"), &data) {
                Ok(_) | Err(cedar_fsd::FsdError::NoSpace) => {}
                Err(e) => return Err(TestCaseError::fail(format!("create: {e}"))),
            }
        }
        v.force().unwrap();
        // Leave an uncommitted tail so the log holds live records.
        match v.create("tail00", &[9u8; 700]) {
            Ok(_) | Err(cedar_fsd::FsdError::NoSpace) => {}
            Err(e) => return Err(TestCaseError::fail(format!("tail create: {e}"))),
        }
        if clean_shutdown {
            v.shutdown().unwrap();
        } else {
            v.disk_mut().crash_now();
        }

        let layout = *v.layout();
        let mut disk = v.into_disk();
        for &rot in &rots {
            apply_rot(&mut disk, &layout, rot);
        }

        // The in-place ladder, serial vs parallel; whatever tree it
        // lands then takes a create and a delete.
        let (create, delete) = (
            format!("file{:02}", seeds[0].0),
            format!("file{:02}", seeds[seeds.len() - 1].0),
        );
        let edit = (create.as_str(), delete.as_str());
        let serial = recover(&disk, 1, edit)?;
        let parallel = recover(&disk, 8, edit)?;
        prop_assert_eq!(serial, parallel);

        // And the bottom rung unconditionally: every rotten image must
        // survive a full scavenge, whatever the fast rungs thought.
        let s_scav = forced_scavenge(&disk, 1, edit)?;
        let p_scav = forced_scavenge(&disk, 8, edit)?;
        prop_assert_eq!(s_scav, p_scav);
    }
}

/// The reserve record decides which sectors the first create after a
/// crash writes over, so rot in it must read as *no reserve*, never as
/// another run: every byte of the field, on either boot copy and on
/// both, under several masks. The create that follows either comes out
/// of the true reserve (copy A intact) or pays the walk; no file is
/// written over either way.
#[test]
fn a_rotten_reserve_record_is_never_trusted() {
    // Magic, boot count, two state bytes, an empty remap table's length.
    const RESERVE_AT: usize = 12;
    let cfg = config_with(1);
    let mut v = FsdVolume::format(SimDisk::tiny(), cfg).unwrap();
    for n in 0..24usize {
        v.create(&format!("file{n:02}"), &vec![n as u8; 300 + n * 97])
            .unwrap();
    }
    v.force().unwrap();
    let layout = *v.layout();
    let reserve = v.reserve().expect("format sets one aside");
    let mut crashed = v.into_disk();
    crashed.crash_now();
    crashed.reboot();

    let mut walked = 0;
    for at in RESERVE_AT..RESERVE_AT + 12 {
        for mask in [0x01u8, 0x08, 0x40, 0xFF] {
            for copies in [
                &[layout.boot_a][..],
                &[layout.boot_b],
                &[layout.boot_a, layout.boot_b],
            ] {
                let ctx = format!("byte {at} ^ {mask:#x} on {copies:?}");
                let mut disk = crashed.clone();
                for &copy in copies {
                    disk.corrupt_byte(copy, at, mask);
                }
                let (mut v, report) = FsdVolume::boot(disk, cfg).expect(&ctx);
                let trusted = copies[0] != layout.boot_a;
                assert_eq!(report.reserve, trusted.then_some(reserve), "{ctx}");
                v.create("after", &[7u8; 2000]).expect(&ctx);
                assert_eq!(v.vam_walk().is_none(), trusted, "{ctx}");
                walked += usize::from(!trusted);
                v.force().expect(&ctx);
                v.settle_vam().expect(&ctx);
                v.verify().expect(&ctx);
                let mut owner = BTreeMap::new();
                for (name, entry) in v.list("").expect(&ctx) {
                    let runs = entry.run_table.runs().to_vec();
                    let leader = cedar_vol::Run::new(entry.leader_addr, 1);
                    for sector in runs.iter().chain([&leader]).flat_map(|r| r.start..r.end()) {
                        if let Some(other) = owner.insert(sector, name.clone()) {
                            panic!("{ctx}: sector {sector} belongs to {other} and {name}");
                        }
                    }
                    let n = name
                        .name
                        .strip_prefix("file")
                        .map(|n| n.parse::<usize>().unwrap());
                    if let Some(n) = n {
                        let mut f = v.open(&name.name, None).expect(&ctx);
                        assert_eq!(
                            v.read_file(&mut f).expect(&ctx),
                            vec![n as u8; 300 + n * 97],
                            "{ctx}: {name}"
                        );
                    }
                }
            }
        }
    }
    assert_eq!(walked, 12 * 4 * 2);
}

/// The list of reallocated runs on a record's end pages lets redo leave a
/// logged leader out without reading its home, so rot in it must never
/// steer the pass: every byte of the list and its check word, under two
/// masks, on `E`, on `E'` and on both. A copy whose list is rotten is a
/// bad copy. With the other one intact the record replays from it: the
/// truncated file's new leader goes home, and the file created over a
/// deleted one's leader keeps its data. With both rotten the record is
/// damaged as one whose data page is lost in both copies is: boot
/// escalates to rung 3, and the scavenged tree verifies.
#[test]
fn a_rotten_reallocation_list_is_never_trusted() {
    const TAIL_AT: usize = 26; // Magic, sequence, boot count, page count, checksum.
    let cfg = config_with(1);
    let mut v = FsdVolume::format(SimDisk::tiny(), cfg).unwrap();
    for name in ["cut", "gone"] {
        v.create(name, &[5u8; 1500]).unwrap();
    }
    v.force().unwrap();
    let mut cut = v.open("cut", None).unwrap();
    v.truncate(&mut cut, 1).unwrap();
    let freed = v.open("gone", None).unwrap().entry.leader_addr;
    v.delete("gone", None).unwrap();
    v.force().unwrap();
    // What is left of `cut` ends at its freed tail, which runs on into
    // the deleted file: reading it makes that the nearest free run.
    v.read_file(&mut cut).unwrap();
    // The last group: one create over the deleted file's leader.
    let at = v.next_log_sector();
    let over = v.create("over", &[6u8; 700]).unwrap();
    let claimed = cedar_vol::Run::new(over.entry.leader_addr, 1 + over.pages());
    assert!(claimed.contains(freed), "first fit refills the hole");
    v.force().unwrap();
    assert!(v.next_log_sector() > at, "one record, not wrapped");
    let mut crashed = v.into_disk();
    crashed.crash_now();
    crashed.reboot();

    let header = crashed.peek_data(at).expect("written");
    let n = u32::from(u16::from_le_bytes([header[17], header[18]]));
    let (end, end_copy) = (at + 3 + n, at + 4 + 2 * n);
    let tail = &crashed.peek_data(end).expect("written")[TAIL_AT..];
    assert_eq!(tail[0], 1, "a complete list");
    let listed = 3 + 8 * usize::from(u16::from_le_bytes([tail[1], tail[2]])) + 8;
    let (mut v, intact) = FsdVolume::boot(crashed.clone(), cfg).unwrap();
    v.settle_vam().unwrap();
    let intact_pass = intact.leaders;
    assert_eq!(intact_pass.reallocated, 1, "the tombstone under \"over\"");

    let mut scavenged = 0;
    for at in TAIL_AT..TAIL_AT + listed {
        for mask in [0x01u8, 0x80] {
            for copies in [&[end][..], &[end_copy], &[end, end_copy]] {
                let ctx = format!("byte {at} ^ {mask:#x} on {copies:?}");
                let mut disk = crashed.clone();
                for &copy in copies {
                    disk.corrupt_byte(copy, at, mask);
                }
                let (mut v, report) = FsdVolume::boot(disk, cfg).expect(&ctx);
                v.settle_vam().expect(&ctx);
                v.verify().expect(&ctx);
                if copies.len() == 2 {
                    assert_eq!(report.rung, RecoveryRung::Scavenge, "{ctx}");
                    scavenged += 1;
                    continue;
                }
                assert_eq!(report.rung, RecoveryRung::Redo, "{ctx}");
                assert_eq!(report.records_replayed, intact.records_replayed, "{ctx}");
                assert_eq!(report.leaders, intact_pass, "{ctx}");
                for (name, data) in [("cut", vec![5u8; 512]), ("over", vec![6u8; 700])] {
                    let mut f = v.open(name, None).expect(&ctx);
                    assert_eq!(v.read_file(&mut f).expect(&ctx), data, "{ctx}: {name}");
                }
                assert!(v.open("gone", None).is_err(), "{ctx}");
            }
        }
    }
    assert_eq!(scavenged, 2 * listed);
}

/// An end page that decodes but is not this record's seal — a flipped
/// bit in its magic, sequence number, boot count, page count or data
/// checksum — is a bad copy, exactly like an unreadable one: the other
/// copy commits the record. Every byte of the 26-byte end proper, on `E`
/// alone and on `E'` alone, of a session's first record: each boot
/// replays the whole chain, and every acknowledged file reads back.
#[test]
fn a_rotten_end_page_leaves_its_copy_to_commit_the_record() {
    const END_PROPER: usize = 26; // Magic, sequence, boot count, page count, checksum.
    let cfg = config_with(1);
    let files = [("first", 1200), ("second", 700), ("later", 900)];
    let mut v = FsdVolume::format(SimDisk::tiny(), cfg).unwrap();
    let at = v.next_log_sector();
    for &(name, len) in &files[..2] {
        v.create(name, &vec![len as u8; len]).unwrap();
    }
    v.force().unwrap();
    let (name, len) = files[2];
    v.create(name, &vec![len as u8; len]).unwrap();
    v.force().unwrap();
    let mut crashed = v.into_disk();
    crashed.crash_now();
    crashed.reboot();

    let (_, intact) = FsdVolume::boot(crashed.clone(), cfg).unwrap();
    assert!(intact.records_replayed >= 2, "{intact:?}");
    let header = crashed.peek_data(at).expect("written");
    let n = u32::from(u16::from_le_bytes([header[17], header[18]]));
    let (end, end_copy) = (at + 3 + n, at + 4 + 2 * n);
    for byte in 0..END_PROPER {
        for copy in [end, end_copy] {
            let ctx = format!("byte {byte} of {copy} (E at {end}, E' at {end_copy})");
            let mut disk = crashed.clone();
            disk.corrupt_byte(copy, byte, 0x01);
            let (mut v, report) = FsdVolume::boot(disk, cfg).expect(&ctx);
            assert_eq!(
                report.records_replayed, intact.records_replayed,
                "{ctx}: {report:?}"
            );
            for &(name, len) in &files {
                let mut f = v.open(name, None).expect(&ctx);
                assert_eq!(
                    v.read_file(&mut f).expect(&ctx),
                    vec![len as u8; len],
                    "{ctx}: {name}"
                );
            }
            v.settle_vam().expect(&ctx);
            v.verify().expect(&ctx);
        }
    }
}

/// What the removed §5.3 VAM-logging extension wrote is rejected, never
/// misread. Its flag was the boot page's tenth byte — now a reserved
/// zero held to the rule of the saved-VAM byte beside it — and its
/// sector images were log target kind 2. A volume it formatted takes the
/// unreadable-boot-page path (the scavenger rebuilds from the leaders)
/// instead of booting and taking its kind-2 records for the end of the
/// log.
#[test]
fn what_the_removed_vam_logging_extension_wrote_is_rejected_not_misread() {
    const RESERVED_AT: usize = 9; // Behind the magic, the boot count and the saved-VAM byte.
    let cfg = config_with(1);
    let mut v = FsdVolume::format(SimDisk::tiny(), cfg).unwrap();
    v.create("kept", &[5u8; 1200]).unwrap();
    v.shutdown().unwrap();
    let layout = *v.layout();
    let clean = v.into_disk();
    let decode = |disk: &SimDisk, copy| FsdBootPage::decode(disk.peek_data(copy).expect("written"));

    // One copy: the other serves the boot and the scrub rewrites this one.
    let mut disk = clean.clone();
    disk.corrupt_byte(layout.boot_a, RESERVED_AT, 1);
    assert!(decode(&disk, layout.boot_a).is_err());
    let (v, report) = FsdVolume::boot(disk, cfg).unwrap();
    assert_eq!(report.rung, RecoveryRung::ReplicaScrub);
    let disk = v.into_disk();
    assert_eq!(
        disk.peek_data(layout.boot_a),
        disk.peek_data(layout.boot_b),
        "copy A was rewritten from copy B"
    );

    // Both: each is rejected by name, and the boot escalates.
    let mut disk = clean;
    for copy in [layout.boot_a, layout.boot_b] {
        disk.corrupt_byte(copy, RESERVED_AT, 1);
        let err = decode(&disk, copy).unwrap_err();
        assert!(err.contains("reserved"), "{err}");
    }
    let (mut v, report) = FsdVolume::boot(disk, cfg).unwrap();
    assert_eq!(report.rung, RecoveryRung::Scavenge);
    let mut f = v.open("kept", None).unwrap();
    assert_eq!(v.read_file(&mut f).unwrap(), [5u8; 1200]);

    const KIND_AT: usize = 19; // Magic, sequence, boot count, group end, image count.
    let image = (
        PageTarget::NtSector { page: 1, sector: 0 },
        vec![7u8; SECTOR_BYTES],
    );
    let mut record = encode_record(&[image], 9, 3, true).unwrap();
    for header in [0, 2] {
        let kind = &mut record[header * SECTOR_BYTES + KIND_AT];
        assert_eq!(*kind, 0, "a name-table sector's kind");
        *kind = 2;
    }
    let err = decode_record_bytes(&record).unwrap_err();
    assert!(err.to_string().contains("bad target kind 2"), "{err}");
}
