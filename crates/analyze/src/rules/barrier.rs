//! barrier-discipline and batch-io: commit-window ordering on the disk
//! scheduler paths.
//!
//! * **batch-io** (re-based from PR 4's token scan onto the AST): inside
//!   the configured multi-sector commit/recovery fns, a raw disk call —
//!   direct (on the disk, or on a wrapper that is handed the disk, such
//!   as the remap-translating `spare.read_allow_damage(disk, ..)`), or
//!   via a plain same-crate callee that performs one — bypasses
//!   `cedar_disk::sched` batching (write barriers + scheduling). The
//!   deliberate copy-by-copy reader of replicated structures is listed in
//!   `batch_io_fallback_fns`.
//! * **barrier-discipline**: in the configured commit fns, every `IoBatch`
//!   local that is submitted via `execute` must have called `barrier()`
//!   first — the commit record must sit in its own post-barrier window
//!   (§4: the end pages are written only after the body windows are on
//!   disk).

use crate::ast::{self, Expr, Stmt, Visit};
use crate::callgraph::CallGraph;
use crate::config::Config;
use crate::source::SourceFile;
use crate::{Analysis, Finding};

/// Runs both checks.
pub fn check(a: &Analysis<'_>) -> Vec<Finding> {
    let (cg, config) = (&a.cg, a.config);
    // Which call-graph nodes directly perform raw disk I/O (depth 1 only:
    // going deeper through name-based resolution invites false positives).
    let raw_direct: Vec<bool> = cg
        .iter()
        .map(|(_, file, def)| {
            let Some(body) = &def.body else { return false };
            let mut raw = false;
            ast::each_expr_in(body, |e| {
                if let Expr::MethodCall { line, .. } = e {
                    if is_raw_io(config, e) && !file.is_test_line(*line) {
                        raw = true;
                    }
                }
            });
            raw
        })
        .collect();

    let mut out = Vec::new();
    for f in a.files {
        check_batch_io(f, config, cg, &raw_direct, &mut out);
        check_barriers(f, config, &mut out);
    }
    out
}

fn is_disk(e: &Expr) -> bool {
    e.last_name()
        .is_some_and(|s| s == "disk" || s.ends_with("_disk"))
}

/// A raw sector-I/O call: one of the configured methods on the disk, or
/// on a receiver that is handed the disk as its first argument.
fn is_raw_io(config: &Config, e: &Expr) -> bool {
    let Expr::MethodCall {
        recv, method, args, ..
    } = e
    else {
        return false;
    };
    config.io_methods.iter().any(|m| *m == method)
        && (is_disk(recv) || args.first().is_some_and(is_disk))
}

fn check_batch_io(
    f: &SourceFile,
    config: &Config,
    cg: &CallGraph<'_>,
    raw_direct: &[bool],
    out: &mut Vec<Finding>,
) {
    let Some((_, fns)) = config.batch_io_fns.iter().find(|(rel, _)| *rel == f.rel) else {
        return;
    };
    for def in &f.ast.fns {
        if !fns.iter().any(|n| *n == def.name) {
            continue;
        }
        let Some(body) = &def.body else { continue };
        ast::each_expr_in(body, |e| {
            let (name, line, direct) = match e {
                Expr::MethodCall { method, line, .. } if is_raw_io(config, e) => {
                    (method.clone(), *line, true)
                }
                // Indirect: plain call to a same-crate fn that does raw I/O.
                Expr::Call { func, line, .. } => match func.last_name() {
                    Some(n) => (n.to_string(), *line, false),
                    None => return,
                },
                Expr::MethodCall {
                    recv, method, line, ..
                } if recv.last_name() == Some("self") => (method.clone(), *line, false),
                _ => return,
            };
            if f.is_test_line(line) {
                return;
            }
            if direct {
                out.push(Finding {
                    rule: "batch-io",
                    file: f.rel.clone(),
                    line,
                    item: def.name.clone(),
                    snippet: format!("disk.{name}()"),
                    message: format!(
                        "raw `{name}` on a multi-sector commit/recovery path: \
                         submit through a `cedar_disk::sched` batch so write \
                         barriers and scheduling apply"
                    ),
                });
                return;
            }
            if config.batch_io_fallback_fns.iter().any(|n| *n == name) {
                return;
            }
            let reaches_raw = cg
                .resolve_in_crate(&f.crate_key, &name)
                .iter()
                .any(|&n| raw_direct[n]);
            if reaches_raw {
                out.push(Finding {
                    rule: "batch-io",
                    file: f.rel.clone(),
                    line,
                    item: def.name.clone(),
                    snippet: format!("{name}() raw io"),
                    message: format!(
                        "`{name}` performs raw sector I/O and is called on a \
                         multi-sector commit/recovery path: batch it through \
                         `cedar_disk::sched`, or list it as a deliberate \
                         fallback reader"
                    ),
                });
            }
        });
    }
}

fn check_barriers(f: &SourceFile, config: &Config, out: &mut Vec<Finding>) {
    let Some((_, fns)) = config.barrier_fns.iter().find(|(rel, _)| *rel == f.rel) else {
        return;
    };
    for def in &f.ast.fns {
        if !fns.iter().any(|n| *n == def.name) || f.is_test_line(def.line) {
            continue;
        }
        let Some(body) = &def.body else { continue };
        Batches {
            file: f,
            item: &def.name,
            known: Vec::new(),
            barriered: Vec::new(),
            out,
        }
        .block(body);
    }
}

/// Follows a commit fn's `IoBatch` locals in evaluation order: created
/// (a `let` at any depth — the retry loops build one per round), then
/// barriered, then executed.
struct Batches<'a> {
    file: &'a SourceFile,
    item: &'a str,
    known: Vec<String>,
    barriered: Vec<String>,
    out: &'a mut Vec<Finding>,
}

impl Batches<'_> {
    /// An `execute` call: its batch must have been barriered by now.
    fn execute(&mut self, call: &Expr, line: u32) {
        let Some(name) = batch_arg(call) else { return };
        if !self.known.contains(&name) || self.barriered.contains(&name) {
            return;
        }
        self.out.push(Finding {
            rule: "barrier-discipline",
            file: self.file.rel.clone(),
            line,
            item: self.item.to_string(),
            snippet: format!("execute({name}) without barrier"),
            message: format!(
                "`IoBatch` `{name}` is submitted with no \
                 `barrier()` before it: the commit record must \
                 be in its own post-barrier window (§4), or \
                 the disk may reorder it ahead of the data"
            ),
        });
    }
}

impl Visit for Batches<'_> {
    fn stmt(&mut self, s: &Stmt) {
        ast::walk_stmt(self, s);
        if let Stmt::Let {
            names,
            init: Some(e),
            ..
        } = s
        {
            if names.len() == 1 && creates_batch(e) {
                self.known.push(names[0].clone());
            }
        }
    }

    fn expr(&mut self, e: &Expr) {
        match e {
            Expr::MethodCall {
                recv, method, line, ..
            } => {
                if let Some(batch) = recv.last_name() {
                    if method == "barrier" {
                        self.barriered.push(batch.to_string());
                    } else if method == "execute" || method == "execute_partial" {
                        // `disk.execute(&batch)` form.
                        self.execute(e, *line);
                    }
                }
            }
            Expr::Call { func, line, .. }
                if matches!(func.last_name(), Some("execute" | "execute_partial")) =>
            {
                self.execute(e, *line);
            }
            _ => {}
        }
        ast::walk_expr(self, e);
    }
}

/// True when the expression contains an `IoBatch::new()` construction.
fn creates_batch(e: &Expr) -> bool {
    let mut found = false;
    ast::each_expr(e, |x| {
        if let Expr::Call { func, .. } = x {
            if let Expr::Path { segs, .. } = func.as_ref() {
                found |=
                    matches!(segs.as_slice(), [.., ty, new] if ty == "IoBatch" && new == "new");
            }
        }
    });
    found
}

/// The batch-naming argument of an `execute` call: the last plain-path
/// argument (`sched::execute(&mut disk, policy, &batch)` → `batch`).
fn batch_arg(call: &Expr) -> Option<String> {
    let args = match call {
        Expr::Call { args, .. } | Expr::MethodCall { args, .. } => args,
        _ => return None,
    };
    args.iter()
        .rev()
        .find_map(|a| a.last_name().map(|s| s.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(rel: &str, krate: &str, src: &str) -> SourceFile {
        SourceFile::parse(rel.into(), krate.into(), false, src)
    }

    fn run(files: Vec<SourceFile>) -> Vec<Finding> {
        check(&Analysis::new(&files, &Config::cedar()))
    }

    #[test]
    fn raw_io_on_batch_path_flagged() {
        let f = file(
            "crates/fsd/src/volume.rs",
            "fsd",
            "impl FsdVolume {\n  fn sync_home_all(&mut self) { self.disk.write(a, &b); }\n}\n",
        );
        let out = run(vec![f]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "batch-io");
        assert!(out[0].message.contains("sched"));
    }

    /// The loop the leader pass ran until it read its homes as one
    /// window: the disk goes in as an argument, not as the receiver.
    #[test]
    fn raw_io_through_a_wrapper_handed_the_disk_flagged() {
        let f = file(
            "crates/fsd/src/recovery.rs",
            "fsd",
            "fn redo_leaders(disk: &mut SimDisk, spare: &SpareMap) {\n  \
             for a in addrs { spare.read_allow_damage(disk, a, 1); }\n}\n",
        );
        let out = run(vec![f]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].snippet, "disk.read_allow_damage()");
    }

    #[test]
    fn raw_io_outside_batch_fns_in_same_file_clean() {
        let f = file(
            "crates/fsd/src/volume.rs",
            "fsd",
            "impl FsdVolume {\n  fn read_page(&mut self, s: u32) { self.disk.read(s, 1); }\n}\n",
        );
        assert!(run(vec![f]).is_empty());
    }

    #[test]
    fn indirect_raw_io_via_same_crate_helper_flagged() {
        let f = file(
            "crates/fsd/src/recovery.rs",
            "fsd",
            "pub fn scan_phase(disk: &mut SimDisk) { probe_sector(disk); }\n\
             fn probe_sector(disk: &mut SimDisk) { disk.read(7, 1); }\n",
        );
        let out = run(vec![f]);
        assert_eq!(out.len(), 1);
        assert!(out[0].snippet.contains("probe_sector"));
    }

    #[test]
    fn fallback_reader_exempt_from_indirect_check() {
        let f = file(
            "crates/fsd/src/recovery.rs",
            "fsd",
            "pub fn scan_phase(disk: &mut SimDisk) { read_replicated(disk); }\n\
             fn read_replicated(disk: &mut SimDisk) { disk.read(0, 1); }\n",
        );
        assert!(run(vec![f]).is_empty());
    }

    #[test]
    fn single_sector_fallback_reader_clean() {
        let f = file(
            "crates/fsd/src/log.rs",
            "fsd",
            "impl Log {\n  fn read_meta(&mut self, disk: &mut SimDisk) { disk.read(a, 1); }\n}\n",
        );
        assert!(run(vec![f]).is_empty());
    }

    #[test]
    fn batch_path_in_unlisted_file_clean() {
        let f = file(
            "crates/cfs/src/volume.rs",
            "cfs",
            "impl CfsVolume {\n  fn force(&mut self) { self.disk.write(a, &b); }\n}\n",
        );
        assert!(run(vec![f]).is_empty());
    }

    #[test]
    fn execute_without_barrier_flagged() {
        let f = file(
            "crates/fsd/src/log.rs",
            "fsd",
            "impl Log {\n  fn append(&mut self, disk: &mut SimDisk) {\n\
               let mut batch = IoBatch::new();\n\
               batch.push(op);\n\
               sched::execute(disk, policy, &batch);\n\
             }\n}\n",
        );
        let out = run(vec![f]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "barrier-discipline");
        assert!(out[0].message.contains("post-barrier"));
    }

    #[test]
    fn batch_created_inside_a_loop_is_followed() {
        // The shape `Log::append` has had since its media-fault retry
        // loop: one batch per round, bound below the fn's top level.
        let f = file(
            "crates/fsd/src/log.rs",
            "fsd",
            "impl Log {\n  fn append(&mut self, disk: &mut SimDisk) {\n\
               loop {\n\
                 let mut batch = IoBatch::new();\n\
                 batch.push(op);\n\
                 let r = sched::execute_partial(disk, policy, &batch);\n\
               }\n\
             }\n}\n",
        );
        let out = run(vec![f]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "barrier-discipline");
        assert_eq!(out[0].snippet, "execute(batch) without barrier");
    }

    #[test]
    fn execute_partial_without_barrier_flagged() {
        // The partial-success variant carries the same ordering
        // obligation as `execute`: skipping the barrier before the
        // commit window is a violation either way.
        let f = file(
            "crates/fsd/src/log.rs",
            "fsd",
            "impl Log {\n  fn append(&mut self, disk: &mut SimDisk) {\n\
               let mut batch = IoBatch::new();\n\
               batch.push(op);\n\
               let r = sched::execute_partial(disk, policy, &batch);\n\
             }\n}\n",
        );
        let out = run(vec![f]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "barrier-discipline");
        assert!(out[0].snippet.contains("batch"));
    }

    #[test]
    fn execute_partial_after_barrier_clean() {
        let f = file(
            "crates/fsd/src/log.rs",
            "fsd",
            "impl Log {\n  fn append(&mut self, disk: &mut SimDisk) {\n\
               let mut batch = IoBatch::new();\n\
               batch.push(op);\n\
               batch.barrier();\n\
               batch.push(end);\n\
               let r = sched::execute_partial(disk, policy, &batch);\n\
             }\n}\n",
        );
        assert!(run(vec![f]).is_empty());
    }

    #[test]
    fn execute_after_barrier_clean() {
        let f = file(
            "crates/fsd/src/log.rs",
            "fsd",
            "impl Log {\n  fn append(&mut self, disk: &mut SimDisk) {\n\
               let mut batch = IoBatch::new();\n\
               batch.push(op);\n\
               batch.barrier();\n\
               batch.push(end);\n\
               sched::execute(disk, policy, &batch);\n\
             }\n}\n",
        );
        assert!(run(vec![f]).is_empty());
    }

    #[test]
    fn unconfigured_fn_may_skip_barrier() {
        // `write_meta` deliberately writes two identical replicas with no
        // barrier; only configured fns carry the obligation.
        let f = file(
            "crates/fsd/src/log.rs",
            "fsd",
            "impl Log {\n  fn write_meta(&mut self, disk: &mut SimDisk) {\n\
               let mut batch = IoBatch::new();\n\
               batch.push(op);\n\
               sched::execute(disk, policy, &batch);\n\
             }\n}\n",
        );
        assert!(run(vec![f]).is_empty());
    }
}
