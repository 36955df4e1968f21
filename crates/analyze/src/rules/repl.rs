//! repl-order: log-shipping discipline for the replication subsystem.
//!
//! Two invariants keep the replica a prefix of the primary:
//!
//! 1. **Seal after append.** A record-carrying replication frame may be
//!    sealed for shipping only after the `Log::append` covering those
//!    records — the shipped frame is a copy of what the local log made
//!    durable, never a preview of it. Checked flow-sensitively with the
//!    wal-order walker: every path from a `pub` fn in
//!    `repl_entry_files` that reaches a `repl_seal_fns` call must first
//!    pass a `wal_append_calls` event. The data-only seal
//!    (`repl_opaque_fns`) is exempt by design: data pages are written
//!    direct-to-disk unlogged (§5.2), so their frames carry no records
//!    and have no append to follow.
//! 2. **Redo-path confinement.** The shipping layer (`repl_ship_files`:
//!    session, shipper, frame types) moves bytes; it must never write
//!    home/leader/name-table sectors itself. Replica-side home writes
//!    belong exclusively to the redo path in `repl/replica.rs`, which
//!    routes them through the same `write_home_batch` the recovery scan
//!    uses. Any `repl_write_fns` call in a ship file, or one a same-crate
//!    helper it calls makes, is a finding: a `Confinement`.

use crate::{Analysis, Finding};

use super::walorder::{flow_check, FlowSpec};
use super::Confinement;

/// Runs the repl-order rule.
pub fn check(a: &Analysis<'_>) -> Vec<Finding> {
    let config = a.config;
    let mut out = flow_check(
        &a.cg,
        &FlowSpec {
            rule: "repl-order",
            entry: &|f, def| def.is_pub && config.repl_entry_files.contains(&f.rel.as_str()),
            exempt_files: &config.wal_exempt_files,
            establish: &config.wal_append_calls,
            require: &config.repl_seal_fns,
            opaque_fns: &config.repl_opaque_fns,
            must: true,
            direct: |name, _| {
                (
                    format!("{name}(..) unlogged"),
                    format!(
                        "replication frame sealed (`{name}`) without a dominating \
                         `Log::append` on this path — a shipped record must be a \
                         copy of what the local log already holds, so the seal \
                         must follow the append of the same record"
                    ),
                )
            },
            via_msg: Some(|name, site| {
                format!(
                    "call to `{name}` reaches a record-carrying frame seal \
                     with no dominating `Log::append` on this path: {site}"
                )
            }),
        },
    );
    // Ship confinement: the session/shipper move frames, the replica's
    // redo path is the only writer. Unlike the flow walker this covers
    // private fns and all paths — confinement is structural, not
    // path-sensitive.
    let ship = Confinement {
        rule: "repl-order",
        scope: &|f, _| config.repl_ship_files.contains(&f.rel.as_str()),
        calls: &config.repl_write_fns,
        on_disk: false,
        direct: |name| {
            (
                format!("{name}(..) in ship layer"),
                format!(
                    "home-sector write (`{name}`) in the replication shipping \
                     layer — replica-side home writes are confined to the redo \
                     path in `repl/replica.rs`"
                ),
            )
        },
        fallbacks: &[],
        via: |name| {
            (
                format!("{name}() writes homes in ship layer"),
                format!(
                    "`{name}` makes a home-sector write and is called from \
                     the replication shipping layer — replica-side home \
                     writes are confined to the redo path in \
                     `repl/replica.rs`"
                ),
            )
        },
    };
    out.extend(ship.check(a));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::source::SourceFile;

    fn vol(src: &str) -> SourceFile {
        SourceFile::parse("crates/fsd/src/volume.rs".into(), "fsd".into(), false, src)
    }

    fn ship(src: &str) -> SourceFile {
        SourceFile::parse(
            "crates/fsd/src/repl/session.rs".into(),
            "fsd".into(),
            false,
            src,
        )
    }

    fn run(files: Vec<SourceFile>) -> Vec<Finding> {
        check(&Analysis::new(&files, &Config::cedar()))
    }

    #[test]
    fn seal_after_append_is_clean() {
        let f = vol("impl FsdVolume {\n\
             pub fn force(&mut self) {\n\
               while self.more() { self.log.append(1); }\n\
               self.seal_repl_frame(1, 2, 3);\n\
             }\n\
             fn seal_repl_frame(&mut self, _r: u32, _a: u64, _b: u64) {}\n\
             }\n");
        assert!(run(vec![f]).is_empty());
    }

    #[test]
    fn seal_without_append_flagged() {
        let f = vol("impl FsdVolume {\n\
             pub fn leaky(&mut self) { self.seal_repl_frame(1, 2, 3); }\n\
             fn seal_repl_frame(&mut self, _r: u32, _a: u64, _b: u64) {}\n\
             }\n");
        let out = run(vec![f]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "repl-order");
        assert_eq!(out[0].item, "leaky");
        assert!(out[0].message.contains("Log::append"));
    }

    #[test]
    fn seal_on_one_branch_does_not_dominate() {
        let f = vol("impl FsdVolume {\n\
             pub fn racy(&mut self, c: bool) {\n\
               if c { self.log.append(1); }\n\
               self.seal_repl_frame(1, 2, 3);\n\
             }\n\
             fn seal_repl_frame(&mut self, _r: u32, _a: u64, _b: u64) {}\n\
             }\n");
        assert_eq!(run(vec![f]).len(), 1);
    }

    #[test]
    fn data_only_seal_is_exempt() {
        // The record-less data frame has no append to follow: the helper
        // is opaque, both as an entry fn and through call sites.
        let f = vol("impl FsdVolume {\n\
             pub fn force(&mut self) {\n\
               if self.empty { self.seal_repl_data_frame(); return; }\n\
               self.log.append(1);\n\
               self.seal_repl_frame(1, 2, 3);\n\
             }\n\
             pub fn seal_repl_data_frame(&mut self) { self.seal_repl_frame(0, 0, 0); }\n\
             fn seal_repl_frame(&mut self, _r: u32, _a: u64, _b: u64) {}\n\
             }\n");
        assert!(run(vec![f]).is_empty());
    }

    #[test]
    fn unlogged_seal_via_helper_flagged_at_call_site() {
        let f = vol("impl FsdVolume {\n\
             pub fn op(&mut self) { self.ship_now(); }\n\
             fn ship_now(&mut self) { self.seal_repl_frame(1, 2, 3); }\n\
             fn seal_repl_frame(&mut self, _r: u32, _a: u64, _b: u64) {}\n\
             }\n");
        let out = run(vec![f]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].item, "op");
        assert!(out[0].message.contains("ship_now"));
    }

    #[test]
    fn ship_layer_home_write_flagged() {
        let f = ship(
            "impl ReplSession {\n\
             fn sneaky(&mut self) { write_home_batch(1, 2, 3, 4); }\n\
             }\nfn write_home_batch(_a: u32, _b: u32, _c: u32, _d: u32) {}\n",
        );
        let out = run(vec![f]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "repl-order");
        assert_eq!(out[0].item, "sneaky");
        assert!(out[0].message.contains("redo"));
    }

    #[test]
    fn ship_layer_raw_write_method_flagged() {
        let f = ship(
            "impl ReplSession {\n\
             fn patch(&mut self) { self.disk.write(7, &[0u8]); }\n\
             }\n",
        );
        assert_eq!(run(vec![f]).len(), 1);
    }

    #[test]
    fn replica_redo_path_is_allowed() {
        let rep = SourceFile::parse(
            "crates/fsd/src/repl/replica.rs".into(),
            "fsd".into(),
            false,
            "impl Replica {\n\
             pub fn apply(&mut self) { write_home_batch(1, 2, 3, 4); }\n\
             }\nfn write_home_batch(_a: u32, _b: u32, _c: u32, _d: u32) {}\n",
        );
        assert!(run(vec![rep]).is_empty());
    }

    #[test]
    fn ship_layer_call_to_a_home_writing_helper_flagged() {
        let helper = SourceFile::parse(
            "crates/fsd/src/recovery.rs".into(),
            "fsd".into(),
            false,
            "pub fn replay(x: u32) { write_home_batch(x, 2, 3, 4); }\n",
        );
        let f = ship(
            "impl ReplSession {\n\
             fn catch_up(&mut self) { replay(1); }\n\
             }\n",
        );
        let out = run(vec![helper, f]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].item, "catch_up");
        assert_eq!(out[0].snippet, "replay() writes homes in ship layer");
    }

    #[test]
    fn ship_layer_link_send_is_not_a_write() {
        let f = ship(
            "impl ReplSession {\n\
             fn pump(&mut self) { self.link.send(1, 2); }\n\
             }\n",
        );
        assert!(run(vec![f]).is_empty());
    }
}
