//! Unsafe hygiene: every covered crate's `lib.rs` must carry
//! `#![deny(unsafe_code)]` (or `forbid`), and any `unsafe` block that does
//! exist must have a `// SAFETY:` comment within three lines above it.

use crate::config::Config;
use crate::source::SourceFile;
use crate::{Analysis, Finding};

/// Runs the unsafe-hygiene checks.
pub fn check(a: &Analysis<'_>) -> Vec<Finding> {
    let mut out = Vec::new();
    check_deny_attr(a.files, a.config, &mut out);
    check_safety_comments(a.files, &mut out);
    out
}

/// The `lib.rs` path for a crate key.
fn lib_path(krate: &str) -> String {
    if krate == "root" {
        "src/lib.rs".to_string()
    } else {
        format!("crates/{krate}/src/lib.rs")
    }
}

fn check_deny_attr(files: &[SourceFile], config: &Config, out: &mut Vec<Finding>) {
    for krate in &config.deny_unsafe_crates {
        let want = lib_path(krate);
        let Some(f) = files.iter().find(|f| f.rel == want) else {
            continue; // Crate absent from this tree (fixture workspaces).
        };
        if !has_deny_unsafe(f) {
            out.push(Finding::new(
                "unsafe-hygiene",
                &f.rel,
                1,
                "-",
                "missing #![deny(unsafe_code)]",
                format!(
                    "crate `{krate}` is unsafe-free but does not say so: add \
                     `#![deny(unsafe_code)]` to {want}"
                ),
            ));
        }
    }
}

/// True if the file carries an inner `#![deny(unsafe_code)]` or
/// `#![forbid(unsafe_code)]` attribute.
fn has_deny_unsafe(f: &SourceFile) -> bool {
    let toks = &f.tokens;
    (0..toks.len()).any(|i| {
        toks[i].is_punct('#')
            && toks.get(i + 1).is_some_and(|t| t.is_punct('!'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct('['))
            && toks
                .get(i + 3)
                .is_some_and(|t| t.is_ident("deny") || t.is_ident("forbid"))
            && toks.get(i + 4).is_some_and(|t| t.is_punct('('))
            && toks.get(i + 5).is_some_and(|t| t.is_ident("unsafe_code"))
    })
}

fn check_safety_comments(files: &[SourceFile], out: &mut Vec<Finding>) {
    for f in files {
        for t in &f.tokens {
            if !t.is_ident("unsafe") || f.is_test_line(t.line) {
                continue;
            }
            if f.has_comment_above(t.line, 3, "SAFETY:") {
                continue;
            }
            out.push(Finding::new(
                "unsafe-hygiene",
                &f.rel,
                t.line,
                f.enclosing_fn(t.line),
                "unsafe without SAFETY comment",
                "`unsafe` without a `// SAFETY:` comment within three \
                          lines above: document the invariant that makes it sound",
            ));
        }
    }
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
    fn missing_deny_attr_flagged() {
        let f = file("crates/disk/src/lib.rs", "disk", "pub mod disk;\n");
        let out = check(&[f], &Config::cedar());
        assert!(out
            .iter()
            .any(|f| f.snippet.contains("missing #![deny(unsafe_code)]")
                && f.file == "crates/disk/src/lib.rs"));
    }

    #[test]
    fn deny_attr_satisfies() {
        let f = file(
            "crates/disk/src/lib.rs",
            "disk",
            "#![deny(unsafe_code)]\npub mod disk;\n",
        );
        let out = check(&[f], &Config::cedar());
        assert!(!out.iter().any(|f| f.file == "crates/disk/src/lib.rs"));
    }

    #[test]
    fn forbid_also_satisfies() {
        let f = file(
            "crates/disk/src/lib.rs",
            "disk",
            "#![forbid(unsafe_code)]\npub mod disk;\n",
        );
        assert!(!check(&[f], &Config::cedar())
            .iter()
            .any(|f| f.file == "crates/disk/src/lib.rs"));
    }

    #[test]
    fn unsafe_without_safety_comment_flagged() {
        let f = file(
            "crates/disk/src/x.rs",
            "disk",
            "fn f() { unsafe { core::hint::unreachable_unchecked() } }\n",
        );
        let out = check(&[f], &Config::cedar());
        assert!(out.iter().any(|f| f.snippet.contains("SAFETY")));
    }

    #[test]
    fn unsafe_with_safety_comment_clean() {
        let f = file(
            "crates/disk/src/x.rs",
            "disk",
            "fn f() {\n    // SAFETY: n is always in bounds here.\n    unsafe { go(n) }\n}\n",
        );
        assert!(!check(&[f], &Config::cedar())
            .iter()
            .any(|f| f.snippet.contains("SAFETY")));
    }
}
