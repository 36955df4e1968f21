//! End-to-end fixture tests: the full rule set over tiny synthetic
//! workspaces under `tests/fixtures/`, one per rule family, each with a
//! deliberate violation — plus a clean control tree that must produce no
//! findings. The main workspace scan skips these trees (`/fixtures/` in
//! the path), so the violations here never reach CI.

use cedar_analyze::allowlist::Allowlist;
use cedar_analyze::{run, Config, Finding};
use std::path::{Path, PathBuf};

fn fixture_root(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join(name)
}

fn findings(name: &str) -> Vec<Finding> {
    run(&fixture_root(name), &Config::cedar(), &Allowlist::empty())
        .expect("fixture analysis")
        .findings
}

#[test]
fn clean_fixture_has_no_findings() {
    let f = findings("clean");
    assert!(f.is_empty(), "clean fixture should pass every rule: {f:#?}");
}

#[test]
fn layering_fixture_flags_all_three_violations() {
    let f = findings("layering");
    assert!(f.iter().all(|x| x.rule == "layering"), "{f:#?}");
    // Upward import: vol must not use cedar_fsd.
    assert!(
        f.iter()
            .any(|x| x.file == "crates/vol/src/lib.rs" && x.snippet == "use cedar_fsd"),
        "{f:#?}"
    );
    // Raw sector I/O above the volume layer.
    assert!(
        f.iter()
            .any(|x| x.file == "crates/bench/src/lib.rs" && x.message.contains("FileSystem")),
        "{f:#?}"
    );
    // Log-region addressing outside cedar_fsd::{log, recovery}.
    assert!(
        f.iter()
            .any(|x| x.file == "crates/fsd/src/volume.rs" && x.snippet.contains("log_start")),
        "{f:#?}"
    );
}

#[test]
fn walorder_fixture_flags_only_the_unlogged_path() {
    let f = findings("walorder");
    assert_eq!(f.len(), 1, "{f:#?}");
    assert_eq!(f[0].rule, "wal-order");
    assert_eq!(f[0].item, "unprotected_op");
    assert!(f[0].message.contains("write-ahead"), "{}", f[0].message);
}

#[test]
fn scavenge_exemption_is_scoped_to_the_scavenge_file() {
    // The scavenger rewrites home sectors from leader pages with no log
    // append — by construction the log is what was lost — so scavenge.rs
    // sits in `wal_exempt_files`. The exemption must be scoped: the same
    // unlogged write through a non-exempt helper still fires.
    let f = findings("scavenge");
    assert_eq!(f.len(), 1, "{f:#?}");
    assert_eq!(f[0].rule, "wal-order");
    assert_eq!(f[0].item, "unprotected_op");
    // Neither the exempt path nor the logged control path fires.
    assert!(f.iter().all(|x| x.item != "op_via_scavenge"), "{f:#?}");
    assert!(f.iter().all(|x| x.item != "protected_op"), "{f:#?}");
}

#[test]
fn barrier_fixture_flags_unbarriered_execute_and_raw_io() {
    let f = findings("barrier");
    assert_eq!(f.len(), 2, "{f:#?}");
    assert!(
        f.iter()
            .any(|x| x.rule == "barrier-discipline" && x.item == "append"),
        "{f:#?}"
    );
    assert!(
        f.iter()
            .any(|x| x.rule == "batch-io" && x.item == "sync_home_all"),
        "{f:#?}"
    );
    // The barriered control path stays clean.
    assert!(f.iter().all(|x| x.item != "write_meta"), "{f:#?}");
}

#[test]
fn errorflow_fixture_flags_discard_and_catch_all() {
    let f = findings("errorflow");
    assert_eq!(f.len(), 2, "{f:#?}");
    assert!(f.iter().all(|x| x.rule == "error-flow"), "{f:#?}");
    assert!(
        f.iter()
            .any(|x| x.item == "force" && x.snippet.contains(".ok()")),
        "{f:#?}"
    );
    assert!(f.iter().any(|x| x.item == "classify"), "{f:#?}");
}

#[test]
fn sarif_output_matches_fixture_findings() {
    let report = run(
        &fixture_root("errorflow"),
        &Config::cedar(),
        &Allowlist::empty(),
    )
    .expect("fixture analysis");
    let s = report.sarif();
    assert!(s.contains("\"version\":\"2.1.0\""), "{s}");
    assert!(s.contains("{\"id\":\"error-flow\"}"), "{s}");
    assert!(s.contains("\"uri\":\"crates/fsd/src/log.rs\""), "{s}");
    // Every finding's line appears as a 1-based SARIF region.
    for f in &report.findings {
        assert!(
            s.contains(&format!("\"startLine\":{}", f.line.max(1))),
            "missing region for {f:#?} in {s}"
        );
    }
    assert_eq!(
        s.matches("\"ruleId\":\"error-flow\"").count(),
        report.findings.len(),
        "{s}"
    );
}

#[test]
fn allowlist_ratchets_the_new_rule_families_too() {
    // The flow-rule findings can be burned into the shrink-only
    // allowlist like any legacy family…
    let base = findings("errorflow");
    assert!(!base.is_empty());
    let allow = Allowlist::parse(&Allowlist::emit(&base)).expect("emitted allowlist parses");
    let report = run(&fixture_root("errorflow"), &Config::cedar(), &allow).expect("allowed run");
    assert!(report.ok(), "{:#?}", report.findings);
    // …and once the sites are fixed, the entries go stale and fail the
    // run until deleted (the ratchet only shrinks).
    let stale = run(&fixture_root("clean"), &Config::cedar(), &allow).expect("stale run");
    assert!(!stale.ok());
    assert!(
        stale.findings.iter().all(|f| f.rule == "stale-allowlist"),
        "{:#?}",
        stale.findings
    );
}

#[test]
fn panics_fixture_flags_covered_crate_only() {
    let f = findings("panics");
    // One finding: the non-test unwrap in fsd. The unwrap in the test
    // module and the one in the uncovered `workload` crate are exempt.
    assert_eq!(f.len(), 1, "{f:#?}");
    assert_eq!(f[0].rule, "panic-ratchet");
    assert_eq!(f[0].file, "crates/fsd/src/lib.rs");
    assert_eq!(f[0].item, "risky");
}

#[test]
fn concurrency_fixture_flags_cycle_callee_hold_wait_and_ordering() {
    let f = findings("concurrency");
    // Cross-file acquisition-order cycle: `forward` in lib.rs vs
    // `reverse` in sched.rs — one finding naming both sites.
    let cycle = f
        .iter()
        .find(|x| x.rule == "lock-graph" && x.snippet.starts_with("cycle:"))
        .expect("cycle finding");
    assert!(
        cycle.message.contains("crates/fsd/src/lib.rs:2"),
        "{}",
        cycle.message
    );
    assert!(
        cycle.message.contains("crates/fsd/src/sched.rs"),
        "{}",
        cycle.message
    );
    // `drain` holds a guard while calling `settle`, which blocks on
    // `force()` one call deep — caught interprocedurally.
    assert!(
        f.iter().any(|x| x.rule == "lock-graph"
            && x.item == "drain"
            && x.snippet.contains("held across settle()")
            && x.message.contains("force()")),
        "{f:#?}"
    );
    // `bad_wait` waits outside a predicate loop; the loop in `good_wait`
    // is the sanctioned shape and stays clean.
    assert!(
        f.iter().any(|x| x.rule == "condvar-discipline"
            && x.item == "bad_wait"
            && x.snippet.contains("outside loop")),
        "{f:#?}"
    );
    assert!(f.iter().all(|x| x.item != "good_wait"), "{f:#?}");
    // `publish` stores the epoch Relaxed before the wake.
    assert!(
        f.iter().any(|x| x.rule == "condvar-discipline"
            && x.item == "publish"
            && x.snippet.contains("epoch.store ordering")),
        "{f:#?}"
    );
    assert_eq!(f.len(), 4, "{f:#?}");
}

#[test]
fn consts_fixture_flags_duplicated_literal_not_definition() {
    let f = findings("consts");
    assert_eq!(f.len(), 1, "{f:#?}");
    assert_eq!(f[0].rule, "const-consistency");
    assert_eq!(f[0].file, "crates/cfs/src/lib.rs");
    assert!(f[0].message.contains("SECTOR_BYTES"), "{}", f[0].message);
}

#[test]
fn casts_fixture_flags_len_and_layout_const_casts() {
    let f = findings("casts");
    assert!(f.iter().all(|x| x.rule == "cast-safety"), "{f:#?}");
    assert!(f.iter().any(|x| x.snippet == "len() as u16"), "{f:#?}");
    assert!(
        f.iter().any(|x| x.snippet == "SECTOR_BYTES as u32"),
        "{f:#?}"
    );
}

#[test]
fn unsafety_fixture_flags_missing_attr_and_undocumented_unsafe() {
    let f = findings("unsafety");
    assert!(f.iter().all(|x| x.rule == "unsafe-hygiene"), "{f:#?}");
    // Both violations are in the disk crate; the SAFETY-commented unsafe
    // in vol (which also carries the deny attribute) is clean.
    assert!(
        f.iter().all(|x| x.file == "crates/disk/src/lib.rs"),
        "{f:#?}"
    );
    assert!(
        f.iter()
            .any(|x| x.snippet.contains("missing #![deny(unsafe_code)]")),
        "{f:#?}"
    );
    assert!(
        f.iter()
            .any(|x| x.snippet.contains("unsafe without SAFETY")),
        "{f:#?}"
    );
}

#[test]
fn taint_fixture_flags_sink_arith_and_coverage_but_not_sanitized() {
    let f = findings("taint");
    // A raw decode steering layout address math.
    assert!(
        f.iter().any(|x| x.rule == "disk-taint"
            && x.file == "crates/fsd/src/recovery.rs"
            && x.item == "tainted_index"
            && x.message.contains("nt_a_sector")),
        "{f:#?}"
    );
    // The same decode reaching unchecked `+` arithmetic.
    assert!(
        f.iter().any(|x| x.rule == "taint-arith"
            && x.item == "tainted_arith"
            && x.snippet.contains('+')),
        "{f:#?}"
    );
    // `LogMeta.oldest_offset` has no validator in the fixture; every
    // `PageTarget` field is covered by one, so only LogMeta fires.
    assert!(
        f.iter().any(|x| x.rule == "decode-coverage"
            && x.file == "crates/fsd/src/log.rs"
            && x.item == "LogMeta"
            && x.snippet == "oldest_offset"),
        "{f:#?}"
    );
    assert!(
        f.iter().all(|x| x.item != "PageTarget"),
        "validator-covered fields must stay quiet: {f:#?}"
    );
    // The dominating bounds check in `sanitized_ok` launders the taint.
    assert!(f.iter().all(|x| x.item != "sanitized_ok"), "{f:#?}");
    // Each address-steered I/O sink, called without a scheduling policy
    // (the disk holds it), is steered by its batch or its pair.
    for (item, snippet) in [
        ("tainted_home_batch", "write_home_batch(arg 2)"),
        ("tainted_scrub_batch", "scrub_batch(arg 2)"),
        ("tainted_pair", "read_replicated(arg 2)"),
        ("tainted_batch", "execute(arg 1)"),
        ("tainted_partial_batch", "execute_partial(arg 1)"),
    ] {
        assert!(
            f.iter()
                .any(|x| x.rule == "disk-taint" && x.item == item && x.snippet == snippet),
            "{item}: {f:#?}"
        );
    }
    assert_eq!(f.len(), 8, "{f:#?}");
}
