//! Panic-freedom ratchet: no `unwrap()/expect()/panic!()` (nor
//! `todo!/unimplemented!`) in non-test library code of the covered crates.
//!
//! The crash path must degrade into typed errors, not aborts — a panic in
//! recovery code aborts mid-redo and leaves the volume needing a scavenge,
//! exactly what the log exists to prevent. Existing sites are accepted via
//! the checked-in allowlist, which only shrinks.

use crate::{Analysis, Finding};

/// Runs the panic ratchet.
pub fn check(a: &Analysis<'_>) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in a.files {
        if f.is_aux || !a.config.panic_crates.iter().any(|c| *c == f.crate_key) {
            continue;
        }
        let toks = &f.tokens;
        for i in 0..toks.len() {
            let t = &toks[i];
            if f.is_test_line(t.line) {
                continue;
            }
            // `.unwrap()` / `.expect(` — exact method names only, so
            // `unwrap_or`, `unwrap_or_else`, `unwrap_err` don't match.
            let is_dot_call = |name: &str| {
                t.is_ident(name)
                    && i >= 1
                    && toks[i - 1].is_punct('.')
                    && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
            };
            let bang_macro =
                |name: &str| t.is_ident(name) && toks.get(i + 1).is_some_and(|n| n.is_punct('!'));
            let snippet = if is_dot_call("unwrap") {
                Some("unwrap()")
            } else if is_dot_call("expect") {
                Some("expect()")
            } else if bang_macro("panic") {
                Some("panic!")
            } else if bang_macro("todo") {
                Some("todo!")
            } else if bang_macro("unimplemented") {
                Some("unimplemented!")
            } else {
                None
            };
            if let Some(snippet) = snippet {
                out.push(Finding::new(
                    "panic-ratchet",
                    &f.rel,
                    t.line,
                    f.enclosing_fn(t.line),
                    snippet,
                    format!(
                        "`{snippet}` in non-test library code: return a typed \
                         error instead (recovery code must never abort mid-redo)"
                    ),
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::source::SourceFile;

    fn check(files: &[SourceFile], config: &Config) -> Vec<Finding> {
        super::check(&Analysis::new(files, config))
    }

    fn file(src: &str) -> SourceFile {
        SourceFile::parse("crates/fsd/src/x.rs".into(), "fsd".into(), false, src)
    }

    #[test]
    fn unwrap_in_lib_code_flagged() {
        let out = check(&[file("fn f() { x.unwrap(); }\n")], &Config::cedar());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].snippet, "unwrap()");
        assert_eq!(out[0].item, "f");
    }

    #[test]
    fn unwrap_variants_not_flagged() {
        let src = "fn f() { x.unwrap_or(0); y.unwrap_or_else(|| 1); z.unwrap_or_default(); }\n";
        assert!(check(&[file(src)], &Config::cedar()).is_empty());
    }

    #[test]
    fn expect_and_panic_flagged() {
        let src = "fn f() { x.expect(\"m\"); panic!(\"boom\"); todo!(); }\n";
        let out = check(&[file(src)], &Config::cedar());
        let snips: Vec<_> = out.iter().map(|f| f.snippet.as_str()).collect();
        assert_eq!(snips, vec!["expect()", "panic!", "todo!"]);
    }

    #[test]
    fn test_code_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n  fn t() { x.unwrap(); panic!(); }\n}\n";
        assert!(check(&[file(src)], &Config::cedar()).is_empty());
    }

    #[test]
    fn strings_and_comments_exempt() {
        let src = "fn f() { let s = \".unwrap()\"; } // then .unwrap() it\n";
        assert!(check(&[file(src)], &Config::cedar()).is_empty());
    }

    #[test]
    fn uncovered_crate_exempt() {
        let f = SourceFile::parse(
            "crates/bench/src/x.rs".into(),
            "bench".into(),
            false,
            "fn f() { x.unwrap(); }\n",
        );
        assert!(check(&[f], &Config::cedar()).is_empty());
    }

    #[test]
    fn expect_fn_call_not_method_not_flagged() {
        // A free function named `expect` (no preceding dot) is not the
        // Option/Result method.
        let src = "fn f() { expect(1); }\n";
        assert!(check(&[file(src)], &Config::cedar()).is_empty());
    }
}
