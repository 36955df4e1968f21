//! Workspace-wide call graph over the parsed ASTs.
//!
//! Resolution is by function name with per-crate preference: a call site in
//! crate `c` to name `f` resolves to the definitions of `f` in `c` if any
//! exist, otherwise to every workspace definition of `f`. Multiple
//! candidates are returned (conservative union) — flow rules must treat an
//! ambiguous call as possibly reaching any of them.
//!
//! Only non-aux library files contribute definitions; test helpers and
//! bench drivers never shadow library functions.

use crate::ast::{Block, FnDef};
use crate::source::SourceFile;
use std::collections::HashMap;

/// One function node: which file it came from and its definition.
#[derive(Clone, Copy, Debug)]
pub struct FnNode<'a> {
    /// Index into the file slice the graph was built from.
    pub file_idx: usize,
    /// The parsed definition.
    pub def: &'a FnDef,
}

/// Name-indexed view of every function definition in the workspace.
pub struct CallGraph<'a> {
    /// All nodes, in (file, source) order.
    pub nodes: Vec<FnNode<'a>>,
    files: &'a [SourceFile],
    by_crate_name: HashMap<&'a str, HashMap<&'a str, Vec<usize>>>,
    by_name: HashMap<&'a str, Vec<usize>>,
}

impl<'a> CallGraph<'a> {
    /// Builds the graph from non-aux files (their parse results).
    pub fn build(files: &'a [SourceFile]) -> Self {
        let mut nodes = Vec::new();
        let mut by_crate_name: HashMap<&'a str, HashMap<&'a str, Vec<usize>>> = HashMap::new();
        let mut by_name: HashMap<&'a str, Vec<usize>> = HashMap::new();
        for (file_idx, f) in files.iter().enumerate() {
            if f.is_aux {
                continue;
            }
            for def in &f.ast.fns {
                let idx = nodes.len();
                nodes.push(FnNode { file_idx, def });
                by_crate_name
                    .entry(f.crate_key.as_str())
                    .or_default()
                    .entry(def.name.as_str())
                    .or_default()
                    .push(idx);
                by_name.entry(def.name.as_str()).or_default().push(idx);
            }
        }
        Self {
            nodes,
            files,
            by_crate_name,
            by_name,
        }
    }

    /// The file a node was defined in.
    pub fn file_of(&self, node: usize) -> &'a SourceFile {
        &self.files[self.nodes[node].file_idx]
    }

    /// Resolves a call to `name` made from `from_crate`: same-crate
    /// definitions win; otherwise any workspace definition. Empty when the
    /// name is not defined in the workspace (std / primitive call).
    pub fn resolve<'s>(&'s self, from_crate: &str, name: &str) -> &'s [usize] {
        let local = self.resolve_in_crate(from_crate, name);
        if !local.is_empty() {
            return local;
        }
        self.by_name.get(name).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Resolves within one crate only (no global fallback).
    pub fn resolve_in_crate<'s>(&'s self, krate: &str, name: &str) -> &'s [usize] {
        self.by_crate_name
            .get(krate)
            .and_then(|m| m.get(name))
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Iterates `(node index, file, def)` over all nodes.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &'a SourceFile, &'a FnDef)> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (i, &self.files[n.file_idx], n.def))
    }

    /// The body a flow rule walks for `node`: `None` for bodyless
    /// declarations and for test code, which no rule summarizes.
    pub fn rule_body(&self, node: usize) -> Option<&'a Block> {
        let def = self.nodes[node].def;
        if self.file_of(node).is_test_line(def.line) {
            return None;
        }
        def.body.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn file(rel: &str, krate: &str, src: &str) -> SourceFile {
        SourceFile::parse(rel.into(), krate.into(), false, src)
    }

    #[test]
    fn same_crate_resolution_wins() {
        let files = vec![
            file("crates/a/src/lib.rs", "a", "pub fn go() {}\nfn helper() {}"),
            file("crates/b/src/lib.rs", "b", "fn helper() {}"),
        ];
        let g = CallGraph::build(&files);
        let a_helper = g.resolve("a", "helper");
        assert_eq!(a_helper.len(), 1);
        assert_eq!(g.file_of(a_helper[0]).crate_key, "a");
        // Cross-crate fallback: crate `c` has no `helper`, sees both.
        assert_eq!(g.resolve("c", "helper").len(), 2);
        // Unknown names resolve to nothing.
        assert!(g.resolve("a", "read_to_string").is_empty());
    }

    #[test]
    fn aux_files_do_not_define_nodes() {
        let files = vec![SourceFile::parse(
            "crates/a/tests/t.rs".into(),
            "a".into(),
            true,
            "fn helper() {}",
        )];
        let g = CallGraph::build(&files);
        assert!(g.nodes.is_empty());
    }
}
