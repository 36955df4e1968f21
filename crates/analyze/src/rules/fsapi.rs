//! fs-api: the shared-reference service contract.
//!
//! The concurrent redesign rests on an obligation the compiler only
//! half-enforces: the public `FileSystem` service trait takes `&self` on
//! every method, so N sessions can share one service. A `&mut self`
//! method added to the trait would silently push the whole workspace
//! back to the exclusive-borrow world (every impl and every
//! `Arc<dyn FileSystem>` call site would churn), so the trait's own file
//! is linted: no `&mut self` inside the configured trait block. The
//! exclusive-borrow verbs belong on `FsBackend`.
//!
//! The guard-across-blocking-call check that used to live here is now
//! interprocedural and belongs to [`crate::rules::concurrency`].

use crate::lexer::{Tok, TokKind};
use crate::source::SourceFile;
use crate::{Analysis, Finding};

/// Runs the fs-api checks.
pub fn check(a: &Analysis<'_>) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in a.files {
        if f.rel == a.config.fs_trait.0 {
            out.extend(trait_takes_shared_self(f, a.config.fs_trait.1));
        }
    }
    out
}

/// Flags `&mut self` method signatures inside the configured trait.
fn trait_takes_shared_self(f: &SourceFile, trait_name: &str) -> Vec<Finding> {
    let toks = &f.tokens;
    let mut out = Vec::new();
    let mut i = 0;
    while i + 1 < toks.len() {
        if toks[i].is_ident("trait") && toks[i + 1].is_ident(trait_name) {
            let Some(open) = (i..toks.len()).find(|&j| toks[j].is_punct('{')) else {
                break;
            };
            let close = matching_brace(toks, open);
            let mut j = open;
            while j < close {
                if toks[j].is_ident("fn")
                    && toks.get(j + 1).is_some_and(|t| t.kind == TokKind::Ident)
                    && toks.get(j + 2).is_some_and(|t| t.is_punct('('))
                    && toks.get(j + 3).is_some_and(|t| t.is_punct('&'))
                    && toks.get(j + 4).is_some_and(|t| t.is_ident("mut"))
                    && toks.get(j + 5).is_some_and(|t| t.is_ident("self"))
                {
                    let method = toks[j + 1].text.clone();
                    out.push(Finding {
                        rule: "fs-api",
                        file: f.rel.clone(),
                        line: toks[j + 1].line,
                        item: method.clone(),
                        snippet: format!("fn {method}(&mut self"),
                        message: format!(
                            "`{trait_name}::{method}` takes `&mut self`: the \
                             service trait is shared-reference by contract \
                             (sessions on N threads hold `Arc<dyn \
                             {trait_name}>`); exclusive-borrow verbs belong \
                             on `FsBackend`"
                        ),
                    });
                }
                j += 1;
            }
            i = close;
        }
        i += 1;
    }
    out
}

/// Index of the matching `}` for the `{` at `open` (or the last token).
fn matching_brace(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    toks.len().saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;

    fn check(files: &[SourceFile], config: &Config) -> Vec<Finding> {
        super::check(&Analysis::new(files, config))
    }

    fn trait_file(src: &str) -> SourceFile {
        SourceFile::parse("crates/vol/src/fs.rs".into(), "vol".into(), false, src)
    }

    #[test]
    fn mut_self_in_service_trait_flagged() {
        let src = "pub trait FileSystem {\n\
                   fn open(&self, name: &str) -> u32;\n\
                   fn create(&mut self, name: &str) -> u32;\n\
                   }\n";
        let out = check(&[trait_file(src)], &Config::cedar());
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].item, "create");
        assert!(out[0].snippet.contains("&mut self"));
    }

    #[test]
    fn mut_self_outside_the_trait_is_fine() {
        // `FsBackend` (and inherent impls) keep the exclusive verbs.
        let src = "pub trait FileSystem { fn open(&self) -> u32; }\n\
                   pub trait FsBackend { fn create(&mut self) -> u32; }\n\
                   impl Thing { fn poke(&mut self) {} }\n";
        assert!(check(&[trait_file(src)], &Config::cedar()).is_empty());
    }
}
