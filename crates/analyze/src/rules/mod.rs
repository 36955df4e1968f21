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

use crate::lexer::{Tok, TokKind};

/// Walks backward from `i` (exclusive) collecting a dotted receiver path
/// like `self.disk` or `sched.vol.disk`; returns its segments in source
/// order. Stops at anything that is not `ident . ident . …`.
pub(crate) fn receiver_path(toks: &[Tok], i: usize) -> Vec<String> {
    let mut segs: Vec<String> = Vec::new();
    let mut j = i;
    while let Some(k) = j.checked_sub(1) {
        let t = &toks[k];
        if t.kind != TokKind::Ident {
            break;
        }
        segs.push(t.text.clone());
        // Continue only through a `.` (fields) or `::` (paths).
        let Some(k2) = k.checked_sub(1) else { break };
        if toks[k2].is_punct('.') {
            j = k2;
        } else if toks[k2].is_punct(':') && k2 >= 1 && toks[k2 - 1].is_punct(':') {
            j = k2 - 1;
        } else {
            break;
        }
    }
    segs.reverse();
    segs
}

/// Index of the matching `)` for the `(` at `open` (or the last token).
pub(crate) fn matching_paren(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    toks.len().saturating_sub(1)
}

/// True if tokens `i..` begin a method call `.name(` with `name` in `set`,
/// returning the name index. `i` must point at the `.`.
pub(crate) fn method_call_at<'a>(
    toks: &'a [Tok],
    i: usize,
    set: &[&str],
) -> Option<(&'a str, usize)> {
    if !toks[i].is_punct('.') {
        return None;
    }
    let name = toks.get(i + 1)?;
    if name.kind != TokKind::Ident || !set.iter().any(|m| name.text == *m) {
        return None;
    }
    if !toks.get(i + 2)?.is_punct('(') {
        return None;
    }
    Some((name.text.as_str(), i + 1))
}
