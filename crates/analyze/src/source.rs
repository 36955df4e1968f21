//! Per-file source model: lexed tokens plus structural annotations the
//! rules need — which lines are test code, and which function each token
//! falls in.

use crate::ast::Ast;
use crate::lexer::{lex, Comment, Tok, TokKind};
use crate::parser;
use std::path::Path;

/// A lexed workspace file with structural annotations.
#[derive(Clone, Debug)]
pub struct SourceFile {
    /// Path relative to the workspace root, with `/` separators.
    pub rel: String,
    /// Workspace crate key (`disk`, `fsd`, …, `root` for the facade crate).
    pub crate_key: String,
    /// True for files under `tests/`, `benches/`, or `examples/` — compiled
    /// only with dev-dependencies, exempt from library-code rules.
    pub is_aux: bool,
    /// Code tokens.
    pub tokens: Vec<Tok>,
    /// Stripped comments (for `// SAFETY:` checks).
    pub comments: Vec<Comment>,
    /// Parsed AST (empty on parse failure; see `parse_error`).
    pub ast: Ast,
    /// Parse failure, if any — surfaced as a `parse-error` finding.
    pub parse_error: Option<(u32, String)>,
    /// Line ranges (inclusive) covered by `#[cfg(test)]` items or
    /// `#[test]` functions.
    test_spans: Vec<(u32, u32)>,
    /// Function spans: (name, first line, last line), innermost last.
    fn_spans: Vec<(String, u32, u32)>,
}

impl SourceFile {
    /// Lexes and annotates one file.
    pub fn parse(rel: String, crate_key: String, is_aux: bool, src: &str) -> Self {
        let lexed = lex(src);
        let test_spans = find_test_spans(&lexed.tokens);
        let fn_spans = find_fn_spans(&lexed.tokens);
        let (ast, parse_error) = match parser::parse(&lexed.tokens) {
            Ok(ast) => (ast, None),
            Err(e) => (Ast::default(), Some((e.line, e.message))),
        };
        Self {
            rel,
            crate_key,
            is_aux,
            tokens: lexed.tokens,
            comments: lexed.comments,
            ast,
            parse_error,
            test_spans,
            fn_spans,
        }
    }

    /// True if `line` is inside test-only code (or the whole file is aux).
    pub fn is_test_line(&self, line: u32) -> bool {
        self.is_aux
            || self
                .test_spans
                .iter()
                .any(|&(a, b)| (a..=b).contains(&line))
    }

    /// Name of the innermost function containing `line`, or `"-"`.
    pub fn enclosing_fn(&self, line: u32) -> &str {
        self.fn_spans
            .iter()
            .filter(|&&(_, a, b)| (a..=b).contains(&line))
            .min_by_key(|&&(_, a, b)| b - a)
            .map(|(n, _, _)| n.as_str())
            .unwrap_or("-")
    }

    /// Iterates function spans (name, start line, end line).
    pub fn fn_spans(&self) -> &[(String, u32, u32)] {
        &self.fn_spans
    }

    /// True if a comment containing `needle` ends within `within` lines
    /// above `line` (or on `line` itself).
    pub fn has_comment_above(&self, line: u32, within: u32, needle: &str) -> bool {
        self.comments
            .iter()
            .any(|c| c.end_line <= line && c.end_line + within >= line && c.text.contains(needle))
    }
}

/// Parses a Rust integer literal's value (`512`, `0x200`, `1_024usize`).
/// Returns `None` for floats or malformed text.
pub fn int_value(text: &str) -> Option<u128> {
    let t: String = text.chars().filter(|&c| c != '_').collect();
    let t = t
        .trim_end_matches(|c: char| c.is_ascii_alphabetic())
        .to_string();
    // Stripping alphabetic suffixes from a hex literal also strips hex
    // digits, so handle prefixed forms from the raw (underscore-free) text.
    let raw: String = text.chars().filter(|&c| c != '_').collect();
    if let Some(h) = raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        let h = strip_int_suffix(h, 16);
        return u128::from_str_radix(h, 16).ok();
    }
    if let Some(o) = raw.strip_prefix("0o") {
        return u128::from_str_radix(strip_int_suffix(o, 8), 8).ok();
    }
    if let Some(bn) = raw.strip_prefix("0b") {
        return u128::from_str_radix(strip_int_suffix(bn, 2), 2).ok();
    }
    if t.contains('.') {
        return None;
    }
    t.parse().ok()
}

/// Strips a type suffix (`u32`, `usize`, `i8`…) from the digits of a
/// literal in the given base.
fn strip_int_suffix(digits: &str, base: u32) -> &str {
    for suffix in [
        "usize", "isize", "u128", "i128", "u64", "i64", "u32", "i32", "u16", "i16", "u8", "i8",
    ] {
        if let Some(d) = digits.strip_suffix(suffix) {
            // Only strip when what remains is still a valid number — `0x8`
            // must not lose its lone digit to a bogus suffix match.
            if !d.is_empty() && d.chars().all(|c| c.is_digit(base)) {
                return d;
            }
        }
    }
    digits
}

/// Finds line spans of `#[cfg(test)]` items and `#[test]` functions.
fn find_test_spans(toks: &[Tok]) -> Vec<(u32, u32)> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_punct('#') && i + 1 < toks.len() && toks[i + 1].is_punct('[') {
            // Collect the attribute tokens to the matching `]`.
            let mut j = i + 2;
            let mut depth = 1;
            let mut attr = Vec::new();
            while j < toks.len() && depth > 0 {
                if toks[j].is_punct('[') {
                    depth += 1;
                } else if toks[j].is_punct(']') {
                    depth -= 1;
                }
                if depth > 0 {
                    attr.push(&toks[j]);
                }
                j += 1;
            }
            let is_test_attr = match attr.first() {
                Some(t) if t.is_ident("test") => true,
                Some(t) if t.is_ident("cfg") => attr.iter().any(|t| t.is_ident("test")),
                _ => false,
            };
            if is_test_attr {
                // The attributed item runs to its closing brace (or `;`).
                if let Some((start, end)) = item_span(toks, j) {
                    spans.push((toks[i].line, end));
                    let _ = start;
                }
            }
            i = j;
        } else {
            i += 1;
        }
    }
    spans
}

/// From `i` (start of an item after its attributes), returns the item's
/// (start line, end line): to the matching `}` of its first brace block,
/// or to a `;` that appears before any brace.
fn item_span(toks: &[Tok], i: usize) -> Option<(u32, u32)> {
    let start = toks.get(i)?.line;
    let mut j = i;
    while j < toks.len() {
        if toks[j].is_punct(';') {
            return Some((start, toks[j].line));
        }
        if toks[j].is_punct('{') {
            let mut depth = 1;
            let mut k = j + 1;
            while k < toks.len() && depth > 0 {
                if toks[k].is_punct('{') {
                    depth += 1;
                } else if toks[k].is_punct('}') {
                    depth -= 1;
                }
                k += 1;
            }
            let end = toks.get(k.saturating_sub(1)).map(|t| t.line)?;
            return Some((start, end));
        }
        j += 1;
    }
    None
}

/// Finds (name, start line, end line) for every `fn` item.
fn find_fn_spans(toks: &[Tok]) -> Vec<(String, u32, u32)> {
    let mut spans = Vec::new();
    for i in 0..toks.len() {
        if !toks[i].is_ident("fn") {
            continue;
        }
        let Some(name_tok) = toks.get(i + 1) else {
            continue;
        };
        if name_tok.kind != TokKind::Ident {
            continue; // `fn(` in a function-pointer type.
        }
        if let Some((start, end)) = item_span(toks, i) {
            spans.push((name_tok.text.clone(), start, end));
        }
    }
    spans
}

/// Classifies a workspace-relative path into (crate key, is_aux).
/// Returns `None` for paths outside any crate's source tree.
pub fn classify(rel: &str) -> Option<(String, bool)> {
    let parts: Vec<&str> = rel.split('/').collect();
    match parts.as_slice() {
        ["crates", krate, "src", ..] => Some(((*krate).to_string(), false)),
        ["crates", krate, kind, ..] if matches!(*kind, "tests" | "benches" | "examples") => {
            Some(((*krate).to_string(), true))
        }
        ["src", ..] => Some(("root".to_string(), false)),
        [kind, ..] if matches!(*kind, "tests" | "benches" | "examples") => {
            Some(("root".to_string(), true))
        }
        _ => None,
    }
}

/// Reads and parses one file under `root` given its relative path.
pub fn load(root: &Path, rel: &str) -> std::io::Result<SourceFile> {
    let src = std::fs::read_to_string(root.join(rel))?;
    let (crate_key, is_aux) = classify(rel).unwrap_or_else(|| ("root".to_string(), true));
    Ok(SourceFile::parse(rel.to_string(), crate_key, is_aux, &src))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_spans_cover_cfg_test_mod() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n  fn b() { x.unwrap(); }\n}\nfn c() {}\n";
        let f = SourceFile::parse("crates/x/src/l.rs".into(), "x".into(), false, src);
        assert!(!f.is_test_line(1));
        assert!(f.is_test_line(2));
        assert!(f.is_test_line(4));
        assert!(!f.is_test_line(6));
    }

    #[test]
    fn test_attr_fn_is_test() {
        let src = "#[test]\nfn t() {\n  boom();\n}\nfn lib() {}\n";
        let f = SourceFile::parse("crates/x/src/l.rs".into(), "x".into(), false, src);
        assert!(f.is_test_line(3));
        assert!(!f.is_test_line(5));
    }

    #[test]
    fn enclosing_fn_finds_innermost() {
        let src = "fn outer() {\n  fn inner() {\n    x();\n  }\n}\n";
        let f = SourceFile::parse("crates/x/src/l.rs".into(), "x".into(), false, src);
        assert_eq!(f.enclosing_fn(3), "inner");
        assert_eq!(f.enclosing_fn(1), "outer");
    }

    #[test]
    fn int_values_parse() {
        assert_eq!(int_value("512"), Some(512));
        assert_eq!(int_value("0x200"), Some(512));
        assert_eq!(int_value("1_024usize"), Some(1024));
        assert_eq!(int_value("0b1000"), Some(8));
        assert_eq!(int_value("3.5"), None);
        assert_eq!(int_value("0x8"), Some(8));
    }

    #[test]
    fn classify_paths() {
        assert_eq!(
            classify("crates/fsd/src/log.rs"),
            Some(("fsd".into(), false))
        );
        assert_eq!(
            classify("crates/fsd/tests/t.rs"),
            Some(("fsd".into(), true))
        );
        assert_eq!(classify("src/lib.rs"), Some(("root".into(), false)));
        assert_eq!(classify("examples/q.rs"), Some(("root".into(), true)));
        assert_eq!(classify("target/debug/x.rs"), None);
    }

    #[test]
    fn aux_files_are_all_test() {
        let f = SourceFile::parse("crates/x/tests/t.rs".into(), "x".into(), true, "fn a() {}");
        assert!(f.is_test_line(1));
    }
}
