//! Layering rule: the import DAG, raw-sector-I/O confinement, and
//! log-region addressing.
//!
//! * Only `cedar-disk` exposes raw sector I/O, and only the volume-layer
//!   crates may call it. Crates above the volume layer (`bench`,
//!   `workload`, the CLI) must go through the `FileSystem` trait.
//! * The import graph, built from `use` declarations in non-test library
//!   code, must match the declared layer cake.
//! * Only `cedar_fsd::{log, recovery}` may address log-region sectors:
//!   a raw disk call whose arguments mention `log_start`/`log_sectors`
//!   anywhere else is a finding (the paper's "only the logging code
//!   touches the log" discipline, §5.3).
//!
//! The batch-io check (raw disk calls on the multi-sector commit paths)
//! moved to `rules::barrier`, which re-bases it on the AST and the call
//! graph.

use crate::config::Config;
use crate::lexer::TokKind;
use crate::rules::{matching_paren, method_call_at, receiver_path};
use crate::source::SourceFile;
use crate::{Analysis, Finding};

/// Runs the layering checks.
pub fn check(a: &Analysis<'_>) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in a.files {
        check_imports(f, a.config, &mut out);
        check_raw_io(f, a.config, &mut out);
        check_log_region(f, a.config, &mut out);
    }
    out
}

/// Workspace crates recognizable in `use` paths.
const WORKSPACE_CRATES: &[&str] = &[
    "cedar_disk",
    "cedar_btree",
    "cedar_vol",
    "cedar_cfs",
    "cedar_fsd",
    "cedar_ffs",
    "cedar_model",
    "cedar_workload",
    "cedar_bench",
    "cedar_analyze",
    "cedar_fs_repro",
];

fn check_imports(f: &SourceFile, config: &Config, out: &mut Vec<Finding>) {
    let Some(allowed) = config.allowed_imports.get(f.crate_key.as_str()) else {
        return; // Unmapped crate: unconstrained.
    };
    let toks = &f.tokens;
    for i in 0..toks.len() {
        if !toks[i].is_ident("use") {
            continue;
        }
        if f.is_test_line(toks[i].line) {
            continue; // Test code may import anything (dev-deps).
        }
        let Some(first) = toks.get(i + 1) else {
            continue;
        };
        if first.kind != TokKind::Ident {
            continue;
        }
        let target = first.text.as_str();
        if !WORKSPACE_CRATES.contains(&target) && target != "proptest" {
            continue;
        }
        let self_name = format!("cedar_{}", f.crate_key);
        if target == self_name {
            continue; // `use cedar_x::…` from inside crate x (unusual but fine).
        }
        if !allowed.contains(&target) {
            out.push(Finding {
                rule: "layering",
                file: f.rel.clone(),
                line: first.line,
                item: f.enclosing_fn(first.line).to_string(),
                snippet: format!("use {target}"),
                message: format!(
                    "crate `{}` must not import `{target}`: the layer map allows {:?}",
                    f.crate_key, allowed
                ),
            });
        }
    }
}

fn check_raw_io(f: &SourceFile, config: &Config, out: &mut Vec<Finding>) {
    if config.raw_io_crates.iter().any(|c| *c == f.crate_key) {
        return;
    }
    // Unmapped crates (fixtures aside, there are none) are still checked:
    // raw I/O above the volume layer is the violation.
    let io: Vec<&str> = config.io_methods.clone();
    let toks = &f.tokens;
    for i in 0..toks.len() {
        let Some((method, name_idx)) = method_call_at(toks, i, &io) else {
            continue;
        };
        if f.is_test_line(toks[name_idx].line) {
            continue;
        }
        let recv = receiver_path(toks, i);
        if recv
            .last()
            .is_none_or(|s| s != "disk" && !s.ends_with("_disk"))
        {
            continue; // Not a disk receiver (e.g. Vec::read on a file).
        }
        out.push(Finding {
            rule: "layering",
            file: f.rel.clone(),
            line: toks[name_idx].line,
            item: f.enclosing_fn(toks[name_idx].line).to_string(),
            snippet: format!("{}.{method}()", recv.join(".")),
            message: format!(
                "raw sector I/O (`{method}`) in crate `{}`: layers above the \
                 volume layer must go through the `FileSystem` trait",
                f.crate_key
            ),
        });
    }
}

fn check_log_region(f: &SourceFile, config: &Config, out: &mut Vec<Finding>) {
    if config.log_region_files.iter().any(|p| *p == f.rel) {
        return;
    }
    let io: Vec<&str> = config.io_methods.clone();
    let toks = &f.tokens;
    for i in 0..toks.len() {
        let Some((method, name_idx)) = method_call_at(toks, i, &io) else {
            continue;
        };
        if f.is_test_line(toks[name_idx].line) {
            continue;
        }
        let recv = receiver_path(toks, i);
        if recv
            .last()
            .is_none_or(|s| s != "disk" && !s.ends_with("_disk"))
        {
            continue;
        }
        let open = name_idx + 1;
        let close = matching_paren(toks, open);
        let bad = toks[open..=close].iter().find(|t| {
            t.kind == TokKind::Ident && config.log_region_idents.iter().any(|id| t.text == *id)
        });
        if let Some(tok) = bad {
            out.push(Finding {
                rule: "layering",
                file: f.rel.clone(),
                line: toks[name_idx].line,
                item: f.enclosing_fn(toks[name_idx].line).to_string(),
                snippet: format!("disk.{method}(..{}..)", tok.text),
                message: format!(
                    "log-region sector addressing (`{}`) outside \
                     cedar_fsd::{{log, recovery}}: only the log module may \
                     touch log sectors (§5.3 discipline)",
                    tok.text
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(files: &[SourceFile], config: &Config) -> Vec<Finding> {
        super::check(&Analysis::new(files, config))
    }

    fn file(rel: &str, krate: &str, src: &str) -> SourceFile {
        SourceFile::parse(rel.into(), krate.into(), false, src)
    }

    #[test]
    fn upward_import_flagged() {
        let f = file(
            "crates/vol/src/lib.rs",
            "vol",
            "use cedar_fsd::FsdVolume;\n",
        );
        let out = check(&[f], &Config::cedar());
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("must not import"));
    }

    #[test]
    fn allowed_import_clean() {
        let f = file("crates/vol/src/lib.rs", "vol", "use cedar_disk::SimDisk;\n");
        assert!(check(&[f], &Config::cedar()).is_empty());
    }

    #[test]
    fn test_code_imports_exempt() {
        let f = file(
            "crates/vol/src/lib.rs",
            "vol",
            "#[cfg(test)]\nmod tests {\n  use cedar_fsd::FsdVolume;\n}\n",
        );
        assert!(check(&[f], &Config::cedar()).is_empty());
    }

    #[test]
    fn raw_io_above_volume_layer_flagged() {
        let f = file(
            "crates/bench/src/lib.rs",
            "bench",
            "fn peek(disk: &mut SimDisk) { let _ = disk.read_labels(0, 1); }\n",
        );
        let out = check(&[f], &Config::cedar());
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("FileSystem"));
    }

    #[test]
    fn raw_io_in_volume_layer_clean() {
        let f = file(
            "crates/cfs/src/volume.rs",
            "cfs",
            "fn go(&mut self) { self.disk.write(0, &[0u8]); }\n",
        );
        assert!(check(&[f], &Config::cedar()).is_empty());
    }

    #[test]
    fn non_disk_receiver_ignored() {
        let f = file(
            "crates/bench/src/lib.rs",
            "bench",
            "fn go(file: &mut F) { file.read(0, 1); buf.write(x, y); }\n",
        );
        assert!(check(&[f], &Config::cedar()).is_empty());
    }

    #[test]
    fn log_region_addressing_outside_log_module_flagged() {
        let f = file(
            "crates/fsd/src/volume.rs",
            "fsd",
            "fn bad(&mut self) { self.disk.write(self.layout.log_start + 1, &b); }\n",
        );
        let out = check(&[f], &Config::cedar());
        assert_eq!(out.len(), 1);
        assert!(out[0].snippet.contains("log_start"));
    }

    #[test]
    fn log_region_addressing_in_log_module_clean() {
        let f = file(
            "crates/fsd/src/log.rs",
            "fsd",
            "fn ok(disk: &mut SimDisk, log_start: u32) { disk.write(log_start, &b); }\n",
        );
        assert!(check(&[f], &Config::cedar()).is_empty());
    }
}
