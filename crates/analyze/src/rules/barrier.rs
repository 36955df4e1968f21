//! barrier-discipline and batch-io: commit-window ordering on the disk
//! scheduler paths.
//!
//! * **batch-io** (re-based from PR 4's token scan onto the AST): inside
//!   the configured multi-sector commit/recovery fns, a raw disk call —
//!   direct, or via a plain same-crate callee that performs one — bypasses
//!   `cedar_disk::sched` batching (write barriers + C-SCAN). Deliberate
//!   single-sector replica/fallback readers are listed in
//!   `batch_io_fallback_fns`.
//! * **barrier-discipline**: in the configured commit fns, every `IoBatch`
//!   local that is submitted via `execute` must have called `barrier()`
//!   first — the commit record must sit in its own post-barrier window
//!   (§4: the end pages are written only after the body windows are on
//!   disk).

use crate::ast::{Block, Expr, Stmt};
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
            crate::ast::each_expr_in(body, |e| {
                if let Expr::MethodCall {
                    recv, method, line, ..
                } = e
                {
                    if config.io_methods.iter().any(|m| *m == method)
                        && is_disk_recv(recv)
                        && !file.is_test_line(*line)
                    {
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

fn is_disk_recv(recv: &Expr) -> bool {
    recv.last_name()
        .is_some_and(|s| s == "disk" || s.ends_with("_disk"))
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
        crate::ast::each_expr_in(body, |e| {
            let (name, line, direct) = match e {
                Expr::MethodCall {
                    recv, method, line, ..
                } if config.io_methods.iter().any(|m| *m == method) && is_disk_recv(recv) => {
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
                         barriers and C-SCAN ordering apply"
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

/// Events on a commit fn's batch locals, in evaluation order.
enum Ev {
    New(String),
    Barrier(String),
    Execute(String, u32),
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
        let mut evs = Vec::new();
        collect_block(body, &mut evs);
        let mut barriered: Vec<&str> = Vec::new();
        let mut known: Vec<&str> = Vec::new();
        for ev in &evs {
            match ev {
                Ev::New(name) => known.push(name),
                Ev::Barrier(name) => barriered.push(name),
                Ev::Execute(name, line) => {
                    if known.iter().any(|k| k == name) && !barriered.iter().any(|b| b == name) {
                        out.push(Finding {
                            rule: "barrier-discipline",
                            file: f.rel.clone(),
                            line: *line,
                            item: def.name.clone(),
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
            }
        }
    }
}

fn collect_block(b: &Block, evs: &mut Vec<Ev>) {
    for s in &b.stmts {
        match s {
            Stmt::Let {
                names,
                init,
                else_block,
                ..
            } => {
                if let Some(e) = init {
                    collect_expr(e, evs);
                    if names.len() == 1 && creates_batch(e) {
                        evs.push(Ev::New(names[0].clone()));
                    }
                }
                if let Some(eb) = else_block {
                    collect_block(eb, evs);
                }
            }
            Stmt::Expr(e) => collect_expr(e, evs),
        }
    }
}

/// True when the expression contains an `IoBatch::new()` construction.
fn creates_batch(e: &Expr) -> bool {
    let mut found = false;
    crate::ast::each_expr(e, |x| {
        if let Expr::Call { func, .. } = x {
            if let Expr::Path { segs, .. } = func.as_ref() {
                if segs.len() >= 2
                    && segs[segs.len() - 2] == "IoBatch"
                    && segs[segs.len() - 1] == "new"
                {
                    found = true;
                }
            }
        }
    });
    found
}

fn collect_expr(e: &Expr, evs: &mut Vec<Ev>) {
    crate::ast::each_expr(e, |x| match x {
        Expr::MethodCall {
            recv, method, line, ..
        } => {
            let Some(name) = recv.last_name() else { return };
            if method == "barrier" {
                evs.push(Ev::Barrier(name.to_string()));
            } else if method == "execute" || method == "execute_partial" {
                // `disk.execute(&batch)` form.
                if let Some(arg) = batch_arg(x) {
                    evs.push(Ev::Execute(arg, *line));
                }
            }
        }
        Expr::Call { func, line, .. }
            if matches!(func.last_name(), Some("execute" | "execute_partial")) =>
        {
            if let Some(arg) = batch_arg(x) {
                evs.push(Ev::Execute(arg, *line));
            }
        }
        _ => {}
    });
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
            "pub fn redo_phase(disk: &mut SimDisk) { probe_sector(disk); }\n\
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
            "pub fn redo_phase(disk: &mut SimDisk) { read_boot_page(disk); }\n\
             fn read_boot_page(disk: &mut SimDisk) { disk.read(0, 1); }\n",
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
