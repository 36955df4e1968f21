//! wal-order: write-ahead discipline on the commit path, and the one
//! walker under every ordering rule.
//!
//! Hagmann's protocol (§4): a home/leader/name-table sector may be written
//! only after the redo-log record covering it is on disk. This rule checks
//! that statically: starting from every unrestricted-`pub` fn in the
//! configured entry files (the `FsdVolume` public API), every call path
//! that reaches a home-sector write (`wal_write_fns`) must first pass a
//! log-append event (`wal_append_calls`), in evaluation order. The same
//! walker, under another `FlowSpec`, checks `repl-order` (a frame seal
//! follows the append) and `barrier-discipline` (a barrier in the batch
//! before it is submitted).
//!
//! Flow semantics, chosen to match how the commit path is actually shaped:
//!
//! * `if`/`match` merge over the non-diverging branches (a branch ending
//!   in `return`/`panic!` does not vote): with AND for a rule that must
//!   hold on every path, with OR for one that may hold on any.
//! * Loop bodies are assumed to execute at least once (the log force
//!   appends in a chunk loop).
//! * Closure arguments to an establishing call run under its protection
//!   (`Log::append(.., |disk, t| flush(..))` is the pattern that writes
//!   third entries inside the commit unit). Other closures neither
//!   establish nor lose protection for their definer.
//! * Through calls (a rule may look at each entry's own body only): a
//!   call to a function that ends every path established counts as the
//!   event; a call to a function containing an unprotected obligation is
//!   a violation at the call site (reported with the callee's site).
//!
//! Recovery files are exempt from wal-order: redo writes homes *from* the
//! log, which is the protection.

use crate::ast::{self, Expr, FnDef, Stmt, Visit};
use crate::callgraph::CallGraph;
use crate::flow::{self, Paths};
use crate::source::SourceFile;
use crate::{Analysis, Finding};

/// Per-function flow summary.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Summary {
    /// Every fall-through path ends with the condition established.
    establishes: bool,
    /// First unprotected obligation reachable inside this fn (description
    /// used in call-site messages).
    unprot: Option<String>,
}

/// An ordering rule the flow walker enforces: on the paths through each
/// entry fn, every `require` call comes after an `establish` event.
pub(crate) struct FlowSpec<'a> {
    /// Rule id stamped on findings.
    pub rule: &'static str,
    /// Which fns are checked entries, by file and definition.
    pub entry: &'a dyn Fn(&SourceFile, &FnDef) -> bool,
    /// Files exempt from the rule entirely.
    pub exempt_files: &'a [&'static str],
    /// (receiver, method) pairs that establish the condition.
    pub establish: &'a [(&'static str, &'static str)],
    /// Calls that require the condition to be in force.
    pub require: &'a [&'static str],
    /// Functions the rule treats as opaque: their bodies are not
    /// summarized and calls to them propagate nothing (deliberate
    /// carve-outs like the data-only frame seal).
    pub opaque_fns: &'a [&'static str],
    /// The condition survives a join if it held on every live branch
    /// (`true`) or on any (`false`).
    pub must: bool,
    /// Snippet and message for a `require` call made without the
    /// condition, from the call's name and arguments.
    pub direct: fn(&str, &[Expr]) -> (String, String),
    /// Message for a call that reaches one through a callee (callee site
    /// description appended); `None` keeps the rule inside each entry's
    /// own body.
    pub via_msg: Option<fn(&str, &str) -> String>,
}

/// Runs the wal-order rule.
pub fn check(a: &Analysis<'_>) -> Vec<Finding> {
    let config = a.config;
    flow_check(
        &a.cg,
        &FlowSpec {
            rule: "wal-order",
            entry: &|f, def| def.is_pub && config.wal_entry_files.contains(&f.rel.as_str()),
            exempt_files: &config.wal_exempt_files,
            establish: &config.wal_append_calls,
            require: &config.wal_write_fns,
            opaque_fns: &[],
            must: true,
            direct: |name, _| {
                (
                    format!("{name}(..) unlogged"),
                    format!(
                        "home-sector write (`{name}`) without a dominating \
                         `Log::append` on this path — the write-ahead rule (§4) \
                         requires the redo record on disk before the home write"
                    ),
                )
            },
            via_msg: Some(|name, site| {
                format!(
                    "call to `{name}` reaches a home-sector write with \
                     no dominating `Log::append` on this path: {site}"
                )
            }),
        },
    )
}

/// Walks one call-graph node with the given summaries; `None` for test
/// code, bodyless declarations, and the exempt files and opaque fns,
/// which are neither summarized nor entries.
fn walk_node<'a>(
    cg: &'a CallGraph<'a>,
    spec: &'a FlowSpec<'a>,
    sums: &'a [Summary],
    node: usize,
) -> Option<Walker<'a>> {
    let (file, def) = (cg.file_of(node), cg.nodes[node].def);
    if spec.exempt_files.contains(&file.rel.as_str())
        || spec.opaque_fns.contains(&def.name.as_str())
    {
        return None;
    }
    let mut w = Walker {
        cg,
        spec,
        sums,
        file,
        item: &def.name,
        logged: false,
        diverged: false,
        viols: Vec::new(),
    };
    w.block(cg.rule_body(node)?);
    Some(w)
}

/// Runs a `FlowSpec` ordering rule over the workspace.
pub(crate) fn flow_check(cg: &CallGraph<'_>, spec: &FlowSpec<'_>) -> Vec<Finding> {
    let sums = match spec.via_msg {
        Some(_) => flow::summaries(cg, |node, sums| {
            let Some(w) = walk_node(cg, spec, sums, node) else {
                return Summary::default();
            };
            Summary {
                establishes: w.logged,
                unprot: w
                    .viols
                    .first()
                    .map(|v| format!("`{}` at {}:{} (in `{}`)", v.snippet, v.file, v.line, v.item)),
            }
        }),
        None => vec![Summary::default(); cg.nodes.len()],
    };
    // Findings: re-walk the entry fns with converged summaries.
    let mut out = Vec::new();
    for (node, file, def) in cg.iter() {
        if !(spec.entry)(file, def) {
            continue;
        }
        if let Some(w) = walk_node(cg, spec, &sums, node) {
            out.extend(w.viols);
        }
    }
    out
}

struct Walker<'a> {
    cg: &'a CallGraph<'a>,
    spec: &'a FlowSpec<'a>,
    sums: &'a [Summary],
    file: &'a SourceFile,
    item: &'a str,
    /// The condition currently in force on this path.
    logged: bool,
    /// This path has left the function (return / panic-family macro).
    diverged: bool,
    viols: Vec<Finding>,
}

impl Paths for Walker<'_> {
    type State = bool;

    fn path(&mut self) -> (&mut bool, &mut bool) {
        (&mut self.logged, &mut self.diverged)
    }

    fn join(&self, into: &mut bool, other: &bool) {
        if self.spec.must {
            *into &= *other;
        } else {
            *into |= *other;
        }
    }
}

impl Walker<'_> {
    fn violation(&mut self, line: u32, (snippet, message): (String, String)) {
        let f = Finding::new(
            self.spec.rule,
            &self.file.rel,
            line,
            self.item,
            snippet,
            message,
        );
        f.push_once(&mut self.viols);
    }

    /// Applies the events of a call once its arguments are evaluated:
    /// the obligation check, then callee-summary propagation.
    fn call_events(&mut self, name: &str, args: &[Expr], line: u32, resolve: bool) {
        if self.file.is_test_line(line) {
            return;
        }
        if self.spec.require.contains(&name) {
            if !self.logged {
                self.violation(line, (self.spec.direct)(name, args));
            }
            return;
        }
        let Some(via_msg) = self.spec.via_msg else {
            return;
        };
        if !resolve || self.spec.opaque_fns.contains(&name) {
            return;
        }
        let mut establishes = false;
        for &node in self.cg.resolve(&self.file.crate_key, name) {
            let s = &self.sums[node];
            if !self.logged {
                if let Some(site) = &s.unprot {
                    let snippet = format!("{name}(..) reaches unlogged write");
                    self.violation(line, (snippet, via_msg(name, site)));
                }
            }
            establishes |= s.establishes;
        }
        if establishes {
            self.logged = true;
        }
    }
}

/// Everything not overridden here — operand sequences, blocks, loops
/// (whose bodies are assumed to run at least once) — is a plain
/// left-to-right walk.
impl Visit for Walker<'_> {
    fn stmt(&mut self, s: &Stmt) {
        match s {
            // A let-else's else block always diverges; treat it as a side
            // branch that does not affect the main path.
            Stmt::Let {
                init,
                else_block: Some(eb),
                ..
            } => {
                if let Some(e) = init {
                    self.expr(e);
                }
                self.branch(|w| w.block(eb));
            }
            _ => ast::walk_stmt(self, s),
        }
    }

    fn expr(&mut self, e: &Expr) {
        match e {
            Expr::Macro { name, .. } => self.diverged |= flow::macro_diverges(name),
            Expr::Call { func, args, line } => {
                ast::walk_expr(self, e);
                if let Some(name) = func.last_name() {
                    self.call_events(name, args, *line, true);
                }
            }
            Expr::MethodCall {
                recv,
                method,
                args,
                line,
            } => {
                self.expr(recv);
                let establishes = self
                    .spec
                    .establish
                    .iter()
                    .any(|(r, m)| *m == method && recv.last_name().is_some_and(|n| n == *r));
                // Closure args of an establishing call (the third-entry
                // flush callback) run under its protection.
                if establishes {
                    self.logged = true;
                }
                for a in args {
                    self.expr(a);
                }
                // Methods resolve through the call graph only on `self`
                // (receiver typing is beyond a name-based graph).
                if !establishes {
                    self.call_events(method, args, *line, recv.last_name() == Some("self"));
                }
            }
            Expr::If {
                cond, then, alt, ..
            } => {
                self.expr(cond);
                let t = self.branch(|w| w.block(then)).1;
                let a = match alt {
                    Some(alt) => self.branch(|w| w.expr(alt)).1,
                    None => self.fallthrough(),
                };
                self.merge(vec![t, a]);
            }
            Expr::Match {
                scrutinee, arms, ..
            } => {
                self.expr(scrutinee);
                let ends = arms
                    .iter()
                    .map(|arm| self.branch(|w| w.expr(&arm.body)).1)
                    .collect();
                self.merge(ends);
            }
            Expr::Closure { body, .. } => {
                // Checked under the current protection, but its effects do
                // not escape to the definer (it may never run).
                self.branch(|w| w.expr(body));
            }
            Expr::Ret { .. } => {
                ast::walk_expr(self, e);
                self.diverged = true;
            }
            _ => ast::walk_expr(self, e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;

    fn vol(src: &str) -> SourceFile {
        SourceFile::parse("crates/fsd/src/volume.rs".into(), "fsd".into(), false, src)
    }

    fn run(files: Vec<SourceFile>) -> Vec<Finding> {
        check(&Analysis::new(&files, &Config::cedar()))
    }

    #[test]
    fn append_then_write_is_clean() {
        let f = vol("impl FsdVolume {\n\
             pub fn commit(&mut self) { self.log.append(1); write_home_batch(2); }\n\
             }\nfn write_home_batch(_x: u32) {}\n");
        assert!(run(vec![f]).is_empty());
    }

    #[test]
    fn unlogged_direct_write_flagged() {
        let f = vol("impl FsdVolume {\n\
             pub fn sloppy(&mut self) { write_home_batch(2); }\n\
             }\nfn write_home_batch(_x: u32) {}\n");
        let out = run(vec![f]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "wal-order");
        assert_eq!(out[0].item, "sloppy");
        assert!(out[0].message.contains("write-ahead"));
    }

    #[test]
    fn unlogged_write_via_helper_flagged_at_call_site() {
        let f = vol("impl FsdVolume {\n\
             pub fn op(&mut self) { self.sync_all(); }\n\
             fn sync_all(&mut self) { write_home_batch(2); }\n\
             }\nfn write_home_batch(_x: u32) {}\n");
        let out = run(vec![f]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].item, "op");
        assert!(out[0].message.contains("sync_all"));
    }

    #[test]
    fn force_before_helper_protects_it() {
        let f = vol("impl FsdVolume {\n\
             pub fn shutdown(&mut self) { self.force(); self.sync_all(); }\n\
             pub fn force(&mut self) { self.log.append(1); }\n\
             fn sync_all(&mut self) { write_home_batch(2); }\n\
             }\nfn write_home_batch(_x: u32) {}\n");
        assert!(run(vec![f]).is_empty());
    }

    #[test]
    fn one_branch_append_does_not_protect_merge() {
        let f = vol("impl FsdVolume {\n\
             pub fn racy(&mut self, c: bool) {\n\
               if c { self.log.append(1); }\n\
               write_home_batch(2);\n\
             }\n}\nfn write_home_batch(_x: u32) {}\n");
        let out = run(vec![f]);
        assert_eq!(out.len(), 1, "append on one branch must not dominate");
    }

    #[test]
    fn diverging_branch_does_not_veto() {
        let f = vol("impl FsdVolume {\n\
             pub fn ok_path(&mut self) -> Result<(), ()> {\n\
               if self.empty { return Ok(()); }\n\
               self.log.append(1);\n\
               write_home_batch(2);\n\
               Ok(())\n\
             }\n}\nfn write_home_batch(_x: u32) {}\n");
        assert!(run(vec![f]).is_empty());
    }

    #[test]
    fn append_in_loop_protects_after() {
        let f = vol("impl FsdVolume {\n\
             pub fn force(&mut self) {\n\
               while self.more() { self.log.append(1); }\n\
               write_home_batch(2);\n\
             }\n}\nfn write_home_batch(_x: u32) {}\n");
        assert!(run(vec![f]).is_empty());
    }

    #[test]
    fn closure_arg_of_append_is_protected() {
        let f = vol("impl FsdVolume {\n\
             pub fn force(&mut self) {\n\
               self.log.append(1, |d, t| write_home_batch(t));\n\
             }\n}\nfn write_home_batch(_x: u8) {}\n");
        assert!(run(vec![f]).is_empty());
    }

    #[test]
    fn plain_closure_write_is_flagged() {
        let f = vol("impl FsdVolume {\n\
             pub fn lazy(&mut self) {\n\
               self.defer(|| write_home_batch(2));\n\
             }\n}\nfn write_home_batch(_x: u32) {}\n");
        assert_eq!(run(vec![f]).len(), 1);
    }

    #[test]
    fn private_and_recovery_fns_not_entries() {
        let f = vol("impl FsdVolume {\n\
             pub(crate) fn internal(&mut self) { write_home_batch(2); }\n\
             fn helper(&mut self) { write_home_batch(2); }\n\
             }\nfn write_home_batch(_x: u32) {}\n");
        let rec = SourceFile::parse(
            "crates/fsd/src/recovery.rs".into(),
            "fsd".into(),
            false,
            "pub fn redo(x: u32) { write_home_batch(x); }\n",
        );
        assert!(run(vec![f, rec]).is_empty());
    }

    #[test]
    fn vec_append_is_not_a_log_append() {
        let f = vol("impl FsdVolume {\n\
             pub fn nope(&mut self, mut v: Vec<u8>) {\n\
               self.scratch.append(&mut v);\n\
               write_home_batch(2);\n\
             }\n}\nfn write_home_batch(_x: u32) {}\n");
        assert_eq!(run(vec![f]).len(), 1, "only `log.append` establishes");
    }
}
