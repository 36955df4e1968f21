//! Layering rule: the import DAG, raw-sector-I/O confinement, and
//! log-region addressing.
//!
//! * Only `cedar-disk` exposes raw sector I/O, and only the volume-layer
//!   crates may call it. Crates above the volume layer (`bench`,
//!   `workload`, the CLI) must go through the `FileSystem` trait: a
//!   `Confinement`, the spec batch-io and ship confinement use too.
//! * The import graph, built from `use` declarations in non-test library
//!   code, must match the declared layer cake.
//! * Only `cedar_fsd::{log, recovery}` may address log-region sectors:
//!   a raw disk call whose arguments mention `log_start`/`log_sectors`
//!   anywhere else is a finding (the paper's "only the logging code
//!   touches the log" discipline, §5.3).

use crate::ast::{self, Expr};
use crate::config::Config;
use crate::lexer::TokKind;
use crate::source::SourceFile;
use crate::{Analysis, Finding};

use super::{is_disk, Confinement};

/// Runs the layering checks.
pub fn check(a: &Analysis<'_>) -> Vec<Finding> {
    let config = a.config;
    let mut out = Vec::new();
    for f in a.files {
        check_imports(f, config, &mut out);
    }
    // Unmapped crates (fixtures aside, there are none) are still checked:
    // raw I/O above the volume layer is the violation.
    let raw_io = Confinement {
        rule: "layering",
        scope: &|f, _| !config.raw_io_crates.contains(&f.crate_key.as_str()),
        calls: &config.io_methods,
        on_disk: true,
        direct: |name| {
            (
                format!("disk.{name}()"),
                format!(
                    "raw sector I/O (`{name}`) above the volume layer: those \
                     layers must go through the `FileSystem` trait"
                ),
            )
        },
        fallbacks: &[],
        via: |name| {
            (
                format!("{name}() raw io"),
                format!(
                    "`{name}` performs raw sector I/O and is called above the \
                     volume layer: go through the `FileSystem` trait"
                ),
            )
        },
    };
    out.extend(raw_io.check(a));
    out.extend(check_log_region(a));
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
            out.push(Finding::new(
                "layering",
                &f.rel,
                first.line,
                f.enclosing_fn(first.line),
                format!("use {target}"),
                format!(
                    "crate `{}` must not import `{target}`: the layer map allows {:?}",
                    f.crate_key, allowed
                ),
            ));
        }
    }
}

/// Log-region addressing outside the log module: a raw disk call whose
/// arguments name a log-region ident.
fn check_log_region(a: &Analysis<'_>) -> Vec<Finding> {
    let config = a.config;
    let mut out = Vec::new();
    for (_, f, def) in a.cg.iter() {
        let Some(body) = &def.body else { continue };
        if config.log_region_files.contains(&f.rel.as_str()) {
            continue;
        }
        ast::each_expr_in(body, |e| {
            let Expr::MethodCall {
                recv,
                method,
                args,
                line,
            } = e
            else {
                return;
            };
            if f.is_test_line(*line)
                || !config.io_methods.contains(&method.as_str())
                || !is_disk(recv)
            {
                return;
            }
            let mut named: Option<String> = None;
            for arg in args {
                ast::each_expr(arg, |x| {
                    let name = match x {
                        Expr::MethodCall { method, .. } => Some(method.as_str()),
                        _ => x.last_name(),
                    };
                    let name = name.filter(|n| config.log_region_idents.contains(n));
                    named = named.take().or(name.map(str::to_string));
                });
            }
            if let Some(id) = named {
                out.push(Finding::new(
                    "layering",
                    &f.rel,
                    *line,
                    &def.name,
                    format!("disk.{method}(..{id}..)"),
                    format!(
                        "log-region sector addressing (`{id}`) outside \
                         cedar_fsd::{{log, recovery}}: only the log module may \
                         touch log sectors (§5.3 discipline)"
                    ),
                ));
            }
        });
    }
    out
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
