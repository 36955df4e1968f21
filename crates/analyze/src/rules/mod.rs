//! The rule families. Each module exposes `check(&Analysis) ->
//! Vec<Finding>` and is listed once, in [`crate::FAMILIES`].
//!
//! A rule that follows code is a set of overrides on [`crate::ast::Visit`]
//! (the one place that knows each node's children and their evaluation
//! order — statements at every depth included); one that needs
//! per-function summaries gets them from [`crate::flow::summaries`] over
//! the run's one call graph, and one that is path-sensitive implements
//! [`crate::flow::Paths`] for its branch/merge. Only the taint
//! interpreter walks `Expr` by hand, because every arm returns a value.
//!
//! Two specs carry most of the protocol rules. An ordering rule ("this
//! call only after that event") is a `walorder::FlowSpec`: wal-order,
//! repl-order's seal and barrier-discipline. A confinement rule ("no call
//! named N in scope S") is a `Confinement`: raw I/O above the volume
//! layer, batch-io and repl-order's ship confinement.

pub mod barrier;
pub mod casts;
pub mod concurrency;
pub mod consts;
pub mod errorflow;
pub mod layering;
pub mod panics;
pub mod repl;
pub mod taint;
pub mod unsafety;
pub mod walorder;

use crate::ast::{self, Expr, FnDef};
use crate::source::SourceFile;
use crate::{Analysis, Finding};

/// A confinement rule: no call named in `calls` inside the `scope` fns,
/// directly or through one same-crate helper whose own body makes one,
/// except the listed fallback helpers.
pub(crate) struct Confinement<'a> {
    /// Rule id stamped on findings.
    pub rule: &'static str,
    /// Which fns are confined, by file and definition.
    pub scope: &'a dyn Fn(&SourceFile, &FnDef) -> bool,
    /// The forbidden call names.
    pub calls: &'a [&'static str],
    /// Only a method call on a disk, or on a receiver handed the disk as
    /// its first argument, is forbidden.
    pub on_disk: bool,
    /// Snippet and message for a forbidden call in scope.
    pub direct: fn(&str) -> (String, String),
    /// Helpers exempt from the one-helper-deep check.
    pub fallbacks: &'a [&'static str],
    /// Snippet and message for a call to a helper that makes one.
    pub via: fn(&str) -> (String, String),
}

impl Confinement<'_> {
    /// The name of the forbidden call `e` is, if it is one.
    fn forbidden<'e>(&self, e: &'e Expr) -> Option<&'e str> {
        let (name, disk) = match e {
            Expr::Call { func, .. } => (func.last_name()?, false),
            Expr::MethodCall {
                recv, method, args, ..
            } => (
                method.as_str(),
                is_disk(recv) || args.first().is_some_and(is_disk),
            ),
            _ => return None,
        };
        (self.calls.contains(&name) && (disk || !self.on_disk)).then_some(name)
    }

    /// Runs the rule over the workspace.
    pub(crate) fn check(&self, a: &Analysis<'_>) -> Vec<Finding> {
        // Which nodes make a forbidden call themselves (one helper deep
        // only: going deeper through name-based resolution invites false
        // positives).
        let direct: Vec<bool> =
            a.cg.iter()
                .map(|(_, file, def)| {
                    let mut found = false;
                    if let Some(body) = &def.body {
                        ast::each_expr_in(body, |e| {
                            found |= self.forbidden(e).is_some() && !file.is_test_line(e.line());
                        });
                    }
                    found
                })
                .collect();
        let mut out = Vec::new();
        for (_, file, def) in a.cg.iter() {
            let Some(body) = def.body.as_ref().filter(|_| (self.scope)(file, def)) else {
                continue;
            };
            ast::each_expr_in(body, |e| {
                if file.is_test_line(e.line()) {
                    return;
                }
                let helper = |name: &str| {
                    !self.fallbacks.contains(&name)
                        && a.cg
                            .resolve_in_crate(&file.crate_key, name)
                            .iter()
                            .any(|&n| direct[n])
                };
                let (snippet, message) = match (self.forbidden(e), same_crate_callee(e)) {
                    (Some(name), _) => (self.direct)(name),
                    (None, Some(name)) if helper(name) => (self.via)(name),
                    _ => return,
                };
                out.push(Finding::new(
                    self.rule,
                    &file.rel,
                    e.line(),
                    &def.name,
                    snippet,
                    message,
                ));
            });
        }
        out
    }
}

/// The callee a name-based graph can resolve: a plain call, or a method
/// on `self` (receiver typing is beyond it).
fn same_crate_callee(e: &Expr) -> Option<&str> {
    match e {
        Expr::Call { func, .. } => func.last_name(),
        Expr::MethodCall { recv, method, .. } if recv.last_name() == Some("self") => {
            Some(method.as_str())
        }
        _ => None,
    }
}

pub(crate) fn is_disk(e: &Expr) -> bool {
    e.last_name()
        .is_some_and(|s| s == "disk" || s.ends_with("_disk"))
}
