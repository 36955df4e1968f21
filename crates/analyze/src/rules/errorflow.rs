//! error-flow: no silent `Result` discards on the force/flush/recovery
//! paths, and no catch-all match arms swallowing disk/fs error variants.
//!
//! A dropped write error on the commit path is a lost durability
//! guarantee: the caller believes the record is on disk. Three shapes are
//! flagged inside the configured files:
//!
//! * `let _ = <expr containing a Result-returning call>` — discards the
//!   error.
//! * `<result call>.ok()` — same discard, expression form.
//! * A `match` that names `DiskError`/`FsdError` variants in some arms
//!   and then swallows the rest with `_ =>` or `Err(_) =>` — new error
//!   variants added later would be silently absorbed.
//!
//! Replica/torn-record probe fns (`read_meta`, `scan_records`, …) treat
//! errors as data by design and are listed in `error_flow_fallback_fns`.
//!
//! Result-ness is decided by the workspace call graph (`returns_result`
//! on the resolved definition) for plain calls and `self` method calls,
//! and by the configured I/O/force/must-handle method lists otherwise.

use crate::ast::{self, Expr, Stmt, Visit};
use crate::callgraph::CallGraph;
use crate::config::Config;
use crate::source::SourceFile;
use crate::{Analysis, Finding};

/// Runs the error-flow rule.
pub fn check(a: &Analysis<'_>) -> Vec<Finding> {
    let (cg, config) = (&a.cg, a.config);
    let mut out = Vec::new();
    for f in a.files {
        if !config.error_flow_files.iter().any(|p| *p == f.rel) {
            continue;
        }
        for def in &f.ast.fns {
            if Config::lists(&config.error_flow_fallback_fns, &f.rel, &def.name)
                || f.is_test_line(def.line)
            {
                continue;
            }
            let Some(body) = &def.body else { continue };
            Scan {
                cg,
                config,
                file: f,
                item: &def.name,
                out: &mut out,
            }
            .block(body);
        }
    }
    out
}

struct Scan<'a> {
    cg: &'a CallGraph<'a>,
    config: &'a Config,
    file: &'a SourceFile,
    item: &'a str,
    out: &'a mut Vec<Finding>,
}

impl Visit for Scan<'_> {
    fn stmt(&mut self, s: &Stmt) {
        if let Stmt::Let {
            wild: true,
            init: Some(e),
            line,
            ..
        } = s
        {
            if !self.file.is_test_line(*line) {
                if let Some(desc) = self.find_result_call(e) {
                    self.out.push(Finding::new(
                        "error-flow",
                        &self.file.rel,
                        *line,
                        self.item,
                        format!("let _ = {desc}"),
                        format!(
                            "`let _ =` discards the `Result` of `{desc}` \
                             on a force/flush/recovery path — propagate \
                             it or handle the error explicitly"
                        ),
                    ));
                }
            }
        }
        ast::walk_stmt(self, s);
    }

    fn expr(&mut self, e: &Expr) {
        match e {
            Expr::MethodCall {
                recv,
                method,
                args,
                line,
            } if method == "ok" && args.is_empty() && !self.file.is_test_line(*line) => {
                if let Some(desc) = self.result_call_desc(recv) {
                    self.out.push(Finding::new(
                        "error-flow",
                        &self.file.rel,
                        *line,
                        self.item,
                        format!("{desc}.ok()"),
                        format!(
                            "`.ok()` swallows the error of `{desc}` on a \
                             force/flush/recovery path — propagate it or handle \
                             the error explicitly"
                        ),
                    ));
                }
            }
            Expr::Match { arms, line, .. } if !self.file.is_test_line(*line) => {
                let named: Vec<&str> = self
                    .config
                    .error_type_idents
                    .iter()
                    .filter(|id| arms.iter().any(|a| a.pat.iter().any(|t| t == *id)))
                    .copied()
                    .collect();
                for arm in arms {
                    if !named.is_empty() && is_catch_all(&arm.pat) {
                        self.out.push(Finding::new(
                            "error-flow",
                            &self.file.rel,
                            arm.line,
                            self.item,
                            format!("_ => (match naming {})", named.join("/")),
                            format!(
                                "catch-all arm in a match that names {} variants: \
                                 a new error variant would be silently swallowed — \
                                 name the remaining variants instead",
                                named.join("/")
                            ),
                        ));
                    }
                }
            }
            _ => {}
        }
        ast::walk_expr(self, e);
    }
}

/// `_ =>` or `Err(_) =>` (ignoring a trailing guard-free shape).
fn is_catch_all(pat: &[String]) -> bool {
    let t: Vec<&str> = pat.iter().map(|s| s.as_str()).collect();
    matches!(t.as_slice(), ["_"] | ["Err", "(", "_", ")"])
}

impl Scan<'_> {
    /// If `e` is directly a call whose `Result` matters here, a short
    /// description of it.
    fn result_call_desc(&self, e: &Expr) -> Option<String> {
        let returns_result = |name: &str| {
            let defs = self.cg.resolve(&self.file.crate_key, name);
            defs.iter().any(|&n| self.cg.nodes[n].def.returns_result)
        };
        match e {
            Expr::Call { func, .. } => {
                let name = func.last_name()?;
                returns_result(name).then(|| format!("{name}(..)"))
            }
            Expr::MethodCall { recv, method, .. } => {
                let listed = self.config.io_methods.iter().any(|m| *m == method)
                    || self.config.force_methods.iter().any(|m| *m == method)
                    || self.config.error_must_handle.iter().any(|m| *m == method);
                if listed {
                    Some(format!(".{method}(..)"))
                } else if recv.last_name() == Some("self") && returns_result(method) {
                    Some(format!("self.{method}(..)"))
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    /// First Result-returning call anywhere inside `e`.
    fn find_result_call(&self, e: &Expr) -> Option<String> {
        let mut found = None;
        ast::each_expr(e, |x| {
            if found.is_none() {
                found = self.result_call_desc(x);
            }
        });
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn logfile(src: &str) -> SourceFile {
        SourceFile::parse("crates/fsd/src/log.rs".into(), "fsd".into(), false, src)
    }

    fn run(files: Vec<SourceFile>) -> Vec<Finding> {
        check(&Analysis::new(&files, &Config::cedar()))
    }

    #[test]
    fn let_underscore_discard_flagged() {
        let f = logfile(
            "impl Log {\n  fn force(&mut self, disk: &mut SimDisk) {\n\
               let _ = disk.write(0, &buf);\n\
             }\n}\n",
        );
        let out = run(vec![f]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "error-flow");
        assert!(out[0].snippet.contains("let _ ="));
    }

    #[test]
    fn let_underscore_discard_inside_an_if_flagged() {
        let f = logfile(
            "impl Log {\n  fn force(&mut self, disk: &mut SimDisk, dirty: bool) {\n\
               if dirty {\n\
                 let _ = disk.write(0, &buf);\n\
               }\n\
             }\n}\n",
        );
        let out = run(vec![f]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].snippet, "let _ = .write(..)");
    }

    #[test]
    fn ok_discard_flagged() {
        let f = logfile(
            "impl Log {\n  fn force(&mut self, disk: &mut SimDisk) {\n\
               disk.write(0, &buf).ok();\n\
             }\n}\n",
        );
        let out = run(vec![f]);
        assert_eq!(out.len(), 1);
        assert!(out[0].snippet.contains(".ok()"));
    }

    #[test]
    fn workspace_result_fn_discard_flagged() {
        let f = logfile(
            "fn encode(x: u8) -> Result<u8, ()> { Ok(x) }\n\
             fn commit() { let _ = encode(1); }\n",
        );
        let out = run(vec![f]);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("encode"));
    }

    #[test]
    fn question_mark_propagation_clean() {
        let f = logfile(
            "impl Log {\n  fn force(&mut self, disk: &mut SimDisk) -> Result<(), E> {\n\
               disk.write(0, &buf)?;\n\
               Ok(())\n\
             }\n}\n",
        );
        assert!(run(vec![f]).is_empty());
    }

    #[test]
    fn fallback_reader_exempt() {
        let f = logfile(
            "impl Log {\n  fn read_meta(&mut self, disk: &mut SimDisk) {\n\
               let _ = disk.read(0, 1);\n\
             }\n}\n",
        );
        assert!(run(vec![f]).is_empty());
    }

    #[test]
    fn unconfigured_file_clean() {
        let f = SourceFile::parse(
            "crates/cfs/src/volume.rs".into(),
            "cfs".into(),
            false,
            "fn f(disk: &mut SimDisk) { let _ = disk.write(0, &b); }\n",
        );
        assert!(run(vec![f]).is_empty());
    }

    #[test]
    fn non_result_discard_clean() {
        let f = logfile("fn f(x: &T) { let _ = x.len(); let _ = &x; }\n");
        assert!(run(vec![f]).is_empty());
    }

    #[test]
    fn catch_all_swallowing_disk_error_flagged() {
        let f = logfile(
            "fn classify(e: DiskError) -> u8 {\n\
               match e {\n\
                 DiskError::Crashed => 1,\n\
                 _ => 0,\n\
               }\n\
             }\n",
        );
        let out = run(vec![f]);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("DiskError"));
    }

    #[test]
    fn err_wild_arm_beside_named_variants_flagged() {
        let f = logfile(
            "fn probe(r: Result<u8, DiskError>) -> u8 {\n\
               match r {\n\
                 Ok(v) => v,\n\
                 Err(DiskError::Crashed) => 1,\n\
                 Err(_) => 0,\n\
               }\n\
             }\n",
        );
        assert_eq!(run(vec![f]).len(), 1);
    }

    #[test]
    fn exhaustive_match_clean() {
        let f = logfile(
            "fn classify(e: DiskError) -> u8 {\n\
               match e {\n\
                 DiskError::Crashed => 1,\n\
                 DiskError::BadRequest => 0,\n\
               }\n\
             }\n",
        );
        assert!(run(vec![f]).is_empty());
    }

    #[test]
    fn match_without_error_idents_clean() {
        let f = logfile("fn pick(x: Option<u8>) -> u8 { match x { Some(v) => v, _ => 0 } }\n");
        assert!(run(vec![f]).is_empty());
    }
}
