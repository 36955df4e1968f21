//! The ratchet guarantees and the mutation table, proven against the
//! real workspace:
//!
//! 1. The tree as committed is clean under the checked-in allowlist
//!    (`cedar-lint --workspace` exits 0 — this is the CI gate).
//! 2. The ratchet actually bites: copying the workspace aside and adding
//!    one new `unwrap()` to a covered crate produces a `panic-ratchet`
//!    finding under the same allowlist.
//! 3. Each flow rule sees its own seeded defect in the real source, and
//!    nothing else (the mutation table at the bottom).

use cedar_analyze::allowlist::Allowlist;
use cedar_analyze::source::SourceFile;
use cedar_analyze::{run, Analysis, Config, Finding};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// The real workspace root (two levels above this crate).
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root")
        .to_path_buf()
}

#[test]
fn real_workspace_is_clean_under_checked_in_allowlist() {
    let root = workspace_root();
    let allow = Allowlist::load(&root.join("cedar-lint.allow")).expect("allowlist");
    let report = run(&root, &Config::cedar(), &allow).expect("analysis");
    assert!(report.ok(), "workspace has findings:\n{}", report.human());
}

/// Copies every workspace `.rs` file (and the allowlist) into `dst`,
/// preserving relative paths and skipping fixture trees.
fn copy_workspace(root: &Path, dst: &Path) {
    let mut stack = vec![root.join("crates"), root.join("src"), root.join("tests")];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let p = entry.path();
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|e| e == "rs") {
                let rel = p.strip_prefix(root).expect("inside root");
                if rel.to_string_lossy().contains("fixtures") {
                    continue;
                }
                let to = dst.join(rel);
                std::fs::create_dir_all(to.parent().expect("parent")).expect("mkdir");
                std::fs::copy(&p, &to).expect("copy source file");
            }
        }
    }
    std::fs::copy(root.join("cedar-lint.allow"), dst.join("cedar-lint.allow"))
        .expect("copy allowlist");
}

#[test]
fn ratchet_catches_a_new_unwrap_in_a_covered_crate() {
    let root = workspace_root();
    let dst = std::env::temp_dir().join(format!("cedar-lint-ratchet-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dst);
    copy_workspace(&root, &dst);

    // Inject one new panic site into cedar-fsd's library code.
    std::fs::write(
        dst.join("crates/fsd/src/injected.rs"),
        "pub fn oops(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n",
    )
    .expect("write injected file");

    let allow = Allowlist::load(&dst.join("cedar-lint.allow")).expect("allowlist");
    let report = run(&dst, &Config::cedar(), &allow).expect("analysis");
    let caught = report.findings.iter().any(|f| {
        f.rule == "panic-ratchet" && f.file == "crates/fsd/src/injected.rs" && f.item == "oops"
    });
    let human = report.human();
    let _ = std::fs::remove_dir_all(&dst);
    assert!(caught, "injected unwrap was not flagged:\n{human}");
}

#[test]
fn taint_ratchet_catches_a_new_unvalidated_decode_in_recovery() {
    let root = workspace_root();
    let dst = std::env::temp_dir().join(format!("cedar-lint-taint-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dst);
    copy_workspace(&root, &dst);

    // Splice a decode-steers-sink flow into the real recovery module.
    let rec = dst.join("crates/fsd/src/recovery.rs");
    let mut body = std::fs::read_to_string(&rec).expect("read recovery.rs");
    body.push_str(
        "\npub fn lint_probe(layout: &FsdLayout, buf: &[u8]) -> u32 {\n    \
         let header = decode_header(buf);\n    \
         layout.nt_a_sector(header.page, 0)\n}\n",
    );
    std::fs::write(&rec, body).expect("write recovery.rs");

    let allow = Allowlist::load(&dst.join("cedar-lint.allow")).expect("allowlist");
    let report = run(&dst, &Config::cedar(), &allow).expect("analysis");
    let caught = report.findings.iter().any(|f| {
        f.rule == "disk-taint" && f.file == "crates/fsd/src/recovery.rs" && f.item == "lint_probe"
    });
    let human = report.human();
    let _ = std::fs::remove_dir_all(&dst);
    assert!(caught, "injected tainted sink was not flagged:\n{human}");
}

// ---- seeded mutations ------------------------------------------------------

/// One edit to one real workspace file.
enum Edit {
    /// Append the text to the end of the file.
    Append(&'static str),
    /// Replace the first `anchor` found after the first `after` (both
    /// quoted source text, never line numbers — a seed whose anchor has
    /// been refactored away must fail loudly, not pass vacuously).
    Replace {
        after: &'static str,
        anchor: &'static str,
        with: &'static str,
    },
}

/// A seeded defect: the edit, the rule that must see it, and the exact
/// `(rule, item, snippet)` findings it must add in that file under the
/// rule's family.
struct Seed {
    row: u32,
    rule: &'static str,
    file: &'static str,
    edit: Edit,
    expect: &'static [(&'static str, &'static str, &'static str)],
}

const VOLUME: &str = "crates/fsd/src/volume.rs";
const ENGINE: &str = "crates/fsd/src/engine.rs";
const MAYBE_FORCE: &str = "fn maybe_force(&mut self) -> Result<()> {";
const RECOVERY: &str = "crates/fsd/src/recovery.rs";
const SCAN_PHASE: &str = "fn scan_phase(";
const READ_META: &str = "let meta = Log::read_meta(disk, &mut spare, layout.log_start)?;";

/// The mutation table (EXPERIMENTS.md E-LINT). A rule is only
/// believed once it has a row here: the per-rule fixtures cannot catch a
/// refactor of the *real* code that blinds a rule, because nobody
/// refactors a fixture.
const SEEDS: &[Seed] = &[
    Seed {
        row: 1,
        rule: "wal-order",
        file: VOLUME,
        edit: Edit::Append(
            "impl FsdVolume { pub fn lint_probe(&mut self) -> Result<()> { self.sync_home_all() } }\n",
        ),
        expect: &[("wal-order", "lint_probe", "sync_home_all(..) reaches unlogged write")],
    },
    Seed {
        row: 2,
        rule: "repl-order",
        file: VOLUME,
        edit: Edit::Append(
            "impl FsdVolume { pub fn lint_probe(&mut self) { self.seal_repl_frame(Vec::new()); } }\n",
        ),
        expect: &[("repl-order", "lint_probe", "seal_repl_frame(..) unlogged")],
    },
    Seed {
        row: 3,
        rule: "repl-order",
        file: "crates/fsd/src/repl/session.rs",
        edit: Edit::Append("fn lint_probe(c: bool) { if c { write_home_batch(1, 2, 3, 4); } }\n"),
        expect: &[("repl-order", "lint_probe", "write_home_batch(..) in ship layer")],
    },
    // The barrier between a log record's body and its end pages (§4).
    Seed {
        row: 4,
        rule: "barrier-discipline",
        file: "crates/fsd/src/log.rs",
        edit: Edit::Replace {
            after: "// Window 1: H, blank, H'",
            anchor: "batch.barrier();",
            with: "",
        },
        expect: &[("barrier-discipline", "append", "execute(batch) without barrier")],
    },
    Seed {
        row: 5,
        rule: "barrier-discipline",
        file: "crates/fsd/src/layout.rs",
        edit: Edit::Replace {
            after: "pub(crate) fn write_replicas(",
            anchor: "batch.barrier();",
            with: "",
        },
        expect: &[("barrier-discipline", "write_replicas", "execute(batch) without barrier")],
    },
    Seed {
        row: 6,
        rule: "batch-io",
        file: VOLUME,
        edit: Edit::Replace {
            after: "",
            anchor: "pub(crate) fn sync_home_all(&mut self) -> Result<()> {",
            with: "pub(crate) fn sync_home_all(&mut self) -> Result<()> {\n\
                   if self.vam_owed { self.disk.read(7, 1)?; }",
        },
        expect: &[("batch-io", "sync_home_all", "disk.read()")],
    },
    // One home read beside the settle's one window of home writes: seen
    // in the settle.
    Seed {
        row: 17,
        rule: "batch-io",
        file: "crates/fsd/src/recovery.rs",
        edit: Edit::Replace {
            after: "fn pay_redo(",
            anchor: "let t_home = self.disk.clock().now();",
            with: "let t_home = self.disk.clock().now();\n\
                   if self.vam_owed { self.disk.read(7, 1)?; }",
        },
        expect: &[("batch-io", "pay_redo", "disk.read()")],
    },
    // A second, hand-rolled read of one copy of a replicated structure
    // put back beside the one reader: the boot scan does not touch the
    // disk itself.
    Seed {
        row: 18,
        rule: "batch-io",
        file: "crates/fsd/src/recovery.rs",
        edit: Edit::Replace {
            after: "fn scan_phase(",
            anchor: "let mut spare = SpareMap::with_entries(layout, &boot.spare_map);",
            with: "let mut spare = SpareMap::with_entries(layout, &boot.spare_map);\n\
                   if boot.boot_count == 0 { disk.read(layout.boot_b, 1)?; }",
        },
        expect: &[("batch-io", "scan_phase", "disk.read()")],
    },
    // The check that fails the scan on a reallocation list that could
    // steer the leader pass (every run inside a data area, its end
    // computed without overflow), run over nothing: the field is then
    // decoded and never validated.
    Seed {
        row: 19,
        rule: "decode-coverage",
        file: "crates/fsd/src/log.rs",
        edit: Edit::Replace {
            after: "impl LogRecord {",
            anchor: "match self.reallocated.iter().find(|run| !inside(run)) {",
            with: "match [].iter().find(|run| !inside(run)) {",
        },
        expect: &[("decode-coverage", "LogRecord", "reallocated")],
    },
    // The taint family on the boot scan: the log meta is decoded from
    // disk and nothing here has checked it yet.
    Seed {
        row: 20,
        rule: "disk-taint",
        file: RECOVERY,
        edit: Edit::Replace {
            after: SCAN_PHASE,
            anchor: READ_META,
            with: "let meta = Log::read_meta(disk, &mut spare, layout.log_start)?;\n\
                   let _lint_probe = Vec::<u8>::with_capacity(meta.oldest_offset as usize);",
        },
        expect: &[("disk-taint", "scan_phase", "with_capacity(arg 0)")],
    },
    Seed {
        row: 21,
        rule: "taint-arith",
        file: RECOVERY,
        edit: Edit::Replace {
            after: SCAN_PHASE,
            anchor: READ_META,
            with: "let meta = Log::read_meta(disk, &mut spare, layout.log_start)?;\n\
                   let live = meta.oldest_offset;\n\
                   let _end = live + layout.log_sectors;",
        },
        expect: &[("taint-arith", "scan_phase", "live + ..")],
    },
    // A name a `for` pattern binds carries its iterator's taint.
    Seed {
        row: 22,
        rule: "disk-taint",
        file: RECOVERY,
        edit: Edit::Replace {
            after: SCAN_PHASE,
            anchor: READ_META,
            with: "let meta = Log::read_meta(disk, &mut spare, layout.log_start)?;\n\
                   for page in 0..meta.oldest_offset { layout.nt_a_sector(page); }",
        },
        expect: &[
            ("disk-taint", "scan_phase", "nt_a_sector(arg 0)"),
            ("disk-taint", "scan_phase", "nt_a_sector(..) unvalidated"),
        ],
    },
    // ... and one an `if let` pattern binds, its scrutinee's.
    Seed {
        row: 23,
        rule: "disk-taint",
        file: RECOVERY,
        edit: Edit::Replace {
            after: SCAN_PHASE,
            anchor: READ_META,
            with: "let meta = Log::read_meta(disk, &mut spare, layout.log_start)?;\n\
                   if let Some(page) = meta.oldest_offset.checked_sub(1) {\n\
                   layout.nt_a_sector(page);\n\
                   }",
        },
        expect: &[
            ("disk-taint", "scan_phase", "nt_a_sector(arg 0)"),
            ("disk-taint", "scan_phase", "nt_a_sector(..) unvalidated"),
        ],
    },
    // The bounds check on a chunk the log scan's read-ahead gets back,
    // deleted: its length and damage mask then size two copies and the
    // offsets beside them.
    Seed {
        row: 24,
        rule: "disk-taint",
        file: "crates/fsd/src/log.rs",
        edit: Edit::Replace {
            after: "let (bytes, dmg) = (piece.bytes, piece.damaged);",
            anchor: "if bytes.len() != dmg.len() * SECTOR_BYTES\n                \
                     || dmg.len() > self.mask.len().saturating_sub(s)\n            {",
            with: "if false {",
        },
        expect: &[
            ("disk-taint", "ensure", "copy_from_slice(arg 0)"),
            ("taint-arith", "ensure", "bytes + .."),
            ("taint-arith", "ensure", "dmg + .."),
        ],
    },
    Seed {
        row: 7,
        rule: "error-flow",
        file: VOLUME,
        edit: Edit::Replace {
            after: "pub fn shutdown(&mut self) -> Result<()> {",
            anchor: "self.force()?;",
            with: "let _ = self.force();",
        },
        expect: &[("error-flow", "shutdown", "let _ = .force(..)")],
    },
    // The same discard one `if` deep, in the commit daemon's stand-in.
    Seed {
        row: 8,
        rule: "error-flow",
        file: VOLUME,
        edit: Edit::Replace {
            after: MAYBE_FORCE,
            anchor: "self.force()?;",
            with: "let _ = self.force();",
        },
        expect: &[("error-flow", "maybe_force", "let _ = .force(..)")],
    },
    Seed {
        row: 9,
        rule: "error-flow",
        file: VOLUME,
        edit: Edit::Replace {
            after: MAYBE_FORCE,
            anchor: "self.force()?;",
            with: "self.force().ok();",
        },
        expect: &[("error-flow", "maybe_force", ".force(..).ok()")],
    },
    Seed {
        row: 10,
        rule: "lock-graph",
        file: ENGINE,
        edit: Edit::Append(
            "fn lint_probe(shared: &EngineShared, vol: &mut FsdVolume) {\n\
             let g = plock(&shared.inbox); if g.stop { let _r = vol.force(); } }\n",
        ),
        expect: &[("lock-graph", "lint_probe", "g held across force()")],
    },
    Seed {
        row: 11,
        rule: "lock-graph",
        file: ENGINE,
        edit: Edit::Append(
            "fn lint_probe_a(shared: &EngineShared) {\n\
             let a = plock(&shared.stats); let b = plock(&shared.inbox); }\n\
             fn lint_probe_b(shared: &EngineShared) {\n\
             let a = plock(&shared.inbox); let b = plock(&shared.stats); }\n",
        ),
        expect: &[("lock-graph", "lint_probe_b", "cycle:inbox->stats")],
    },
    // A *local* closure that shadows the blocking workspace fn of the
    // same name, bound one `if` deep: a call to it is not a call to the
    // workspace fn, so nothing may fire.
    Seed {
        row: 12,
        rule: "lock-graph",
        file: ENGINE,
        edit: Edit::Append(
            "fn lint_probe(shared: &EngineShared, c: bool) -> u32 {\n\
             let g = plock(&shared.inbox);\n\
             if c { let process_batch = || 1; return process_batch(); }\n\
             0 }\n",
        ),
        expect: &[],
    },
    Seed {
        row: 13,
        rule: "thread-roles",
        file: ENGINE,
        edit: Edit::Append("fn lint_probe(shared: &EngineShared) { let raw = &shared.inbox; }\n"),
        expect: &[("thread-roles", "lint_probe", "field inbox unsynchronized")],
    },
    Seed {
        row: 14,
        rule: "condvar-discipline",
        file: ENGINE,
        edit: Edit::Append("fn lint_probe(shared: &EngineShared) { shared.wake.notify_all(); }\n"),
        expect: &[("condvar-discipline", "lint_probe", "wake.notify_all without lock")],
    },
    Seed {
        row: 15,
        rule: "condvar-discipline",
        file: ENGINE,
        edit: Edit::Append(
            "impl Slot { fn lint_probe(&self) {\n\
             let s = plock(&self.state); let _g = self.cv.wait(s); } }\n",
        ),
        expect: &[("condvar-discipline", "lint_probe", "cv.wait outside loop")],
    },
    Seed {
        row: 16,
        rule: "condvar-discipline",
        file: ENGINE,
        edit: Edit::Replace {
            after: "es.batch_max = es.batch_max.max(batch_len);",
            anchor: "shared.epoch.fetch_add(1, Ordering::AcqRel);",
            with: "shared.epoch.fetch_add(1, Ordering::Relaxed);",
        },
        expect: &[("condvar-discipline", "publish_epoch", "epoch.fetch_add ordering")],
    },
];

fn apply_edit(seed: &Seed, src: &str) -> String {
    match seed.edit {
        Edit::Append(text) => format!("{src}\n{text}"),
        Edit::Replace {
            after,
            anchor,
            with,
        } => {
            let from = src.find(after).unwrap_or_else(|| {
                panic!(
                    "row {}: context {after:?} is gone from {}",
                    seed.row, seed.file
                )
            });
            let at = from
                + src[from..].find(anchor).unwrap_or_else(|| {
                    panic!(
                        "row {}: anchor {anchor:?} is gone from {}",
                        seed.row, seed.file
                    )
                });
            format!("{}{with}{}", &src[..at], &src[at + anchor.len()..])
        }
    }
}

type Key = (String, String, String, String);
/// The family (name and pass) that emits `rule`.
fn family_of(rule: &str) -> (&'static str, cedar_analyze::CheckFn) {
    let (name, _, check) = cedar_analyze::FAMILIES
        .iter()
        .find(|(_, ids, _)| ids.contains(&rule))
        .unwrap_or_else(|| panic!("no family emits rule {rule}"));
    (name, *check)
}

fn keys(findings: Vec<Finding>) -> BTreeSet<Key> {
    findings.iter().map(Finding::key).collect()
}

#[test]
fn seeded_mutations_of_the_real_workspace_are_each_caught_exactly() {
    let root = workspace_root();
    let config = Config::cedar();
    let mut files = cedar_analyze::workspace::load_workspace(&root, &config).expect("load");
    // Findings the unedited tree already has under each family (no
    // allowlist here), so a row asserts only what its edit added.
    let mut baseline: BTreeMap<&str, BTreeSet<Key>> = BTreeMap::new();
    let mut table = String::new();
    let mut red = Vec::new();
    for seed in SEEDS {
        let (family, check) = family_of(seed.rule);
        let base = baseline
            .entry(family)
            .or_insert_with(|| keys(check(&Analysis::new(&files, &config))))
            .clone();
        let idx = files
            .iter()
            .position(|f| f.rel == seed.file)
            .unwrap_or_else(|| panic!("row {}: {} is gone", seed.row, seed.file));
        let src = std::fs::read_to_string(root.join(seed.file)).expect("read target");
        let edited = SourceFile::parse(
            seed.file.to_string(),
            files[idx].crate_key.clone(),
            files[idx].is_aux,
            &apply_edit(seed, &src),
        );
        let original = std::mem::replace(&mut files[idx], edited);
        assert!(
            files[idx].parse_error.is_none(),
            "row {}: the edited file does not parse: {:?}",
            seed.row,
            files[idx].parse_error
        );
        let got: BTreeSet<Key> = keys(check(&Analysis::new(&files, &config)))
            .difference(&base)
            .cloned()
            .collect();
        files[idx] = original;
        let want: BTreeSet<Key> = seed
            .expect
            .iter()
            .map(|(rule, item, snippet)| {
                (
                    rule.to_string(),
                    seed.file.to_string(),
                    item.to_string(),
                    snippet.to_string(),
                )
            })
            .collect();
        let verdict = if got == want { "green" } else { "RED" };
        table.push_str(&format!(
            "row {:>2} {:<18} {verdict}\n",
            seed.row, seed.rule
        ));
        if got != want {
            table.push_str(&format!("       want {want:?}\n       got  {got:?}\n"));
            red.push(seed.row);
        }
    }
    println!("{table}");
    assert!(red.is_empty(), "rows {red:?} are red:\n{table}");
}
