//! Cast-safety: flag truncating `as` casts in sector/page arithmetic.
//!
//! Three patterns, in the covered crates' non-test code:
//!
//! 1. `.len() as u8|u16|u32` — a length cast that silently truncates on a
//!    large buffer; use `try_from` (or return a typed error).
//! 2. `LAYOUT_CONST as T` outside the constant's defining file — width
//!    adaptation of `SECTOR_BYTES`/`BLOCK_SECTORS`/… belongs next to the
//!    definition (e.g. a `BLOCK_SECTORS_US` companion), not scattered at
//!    use sites where a geometry change can overflow unnoticed.
//! 3. `expr as u8|u16` (expression or identifier receiver) — a narrowing
//!    cast to ≤16 bits; use `u8::from`/`u16::try_from` so intent (lossless
//!    vs saturating) is explicit.

use crate::lexer::TokKind;
use crate::{Analysis, Finding};

const NARROW: &[&str] = &["u8", "u16", "i8", "i16"];
const LEN_NARROW: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

/// Runs the cast-safety check.
pub fn check(a: &Analysis<'_>) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in a.files {
        if f.is_aux || !a.config.cast_crates.iter().any(|c| *c == f.crate_key) {
            continue;
        }
        let toks = &f.tokens;
        for i in 0..toks.len() {
            if !toks[i].is_ident("as") || i == 0 || f.is_test_line(toks[i].line) {
                continue;
            }
            let Some(target) = toks.get(i + 1) else {
                continue;
            };
            if target.kind != TokKind::Ident {
                continue;
            }
            let tgt = target.text.as_str();
            let prev = &toks[i - 1];
            let line = toks[i].line;
            let item = f.enclosing_fn(line).to_string();

            // Pattern 1: `.len() as <narrow>`.
            let is_len_call = i >= 4
                && prev.is_punct(')')
                && toks[i - 2].is_punct('(')
                && toks[i - 3].is_ident("len")
                && toks[i - 4].is_punct('.');
            if is_len_call && LEN_NARROW.contains(&tgt) {
                out.push(Finding::new(
                    "cast-safety",
                    &f.rel,
                    line,
                    item,
                    format!("len() as {tgt}"),
                    format!(
                        "`.len() as {tgt}` truncates silently on a large \
                         buffer: use `{tgt}::try_from(...)` and surface the error"
                    ),
                ));
                continue;
            }

            // Pattern 2: `LAYOUT_CONST as T` outside the defining file.
            if prev.kind == TokKind::Ident {
                if let Some((name, defs)) = a
                    .config
                    .cast_const_idents
                    .iter()
                    .find(|(name, _)| prev.text == *name)
                {
                    if !defs.iter().any(|p| *p == f.rel) {
                        out.push(Finding::new(
                            "cast-safety",
                            &f.rel,
                            line,
                            item,
                            format!("{name} as {tgt}"),
                            format!(
                                "`{name} as {tgt}` at a use site: define a \
                                 width-correct companion constant next to \
                                 `{name}` instead of re-casting it here"
                            ),
                        ));
                        continue;
                    }
                }
            }

            // Pattern 3: generic narrowing cast to <= 16 bits.
            if NARROW.contains(&tgt) && (prev.is_punct(')') || prev.kind == TokKind::Ident) {
                let what = if prev.is_punct(')') {
                    "(..)".to_string()
                } else {
                    prev.text.clone()
                };
                out.push(Finding::new(
                    "cast-safety",
                    &f.rel,
                    line,
                    item,
                    format!("{what} as {tgt}"),
                    format!(
                        "narrowing cast `{what} as {tgt}`: use `{tgt}::from` \
                         (lossless) or `{tgt}::try_from` so truncation cannot \
                         hide in sector/page arithmetic"
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

    fn file(rel: &str, krate: &str, src: &str) -> SourceFile {
        SourceFile::parse(rel.into(), krate.into(), false, src)
    }

    #[test]
    fn len_cast_flagged() {
        let f = file(
            "crates/ffs/src/x.rs",
            "ffs",
            "fn f() { let n = b.len() as u16; }\n",
        );
        let out = check(&[f], &Config::cedar());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].snippet, "len() as u16");
    }

    #[test]
    fn len_as_u64_clean() {
        let f = file(
            "crates/ffs/src/x.rs",
            "ffs",
            "fn f() { let n = b.len() as u64; }\n",
        );
        assert!(check(&[f], &Config::cedar()).is_empty());
    }

    #[test]
    fn layout_const_recast_flagged() {
        let f = file(
            "crates/ffs/src/fs.rs",
            "ffs",
            "fn f() { let n = BLOCK_SECTORS as usize * 4; }\n",
        );
        let out = check(&[f], &Config::cedar());
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("companion constant"));
    }

    #[test]
    fn layout_const_cast_in_defining_file_clean() {
        let f = file(
            "crates/ffs/src/lib.rs",
            "ffs",
            "pub const BLOCK_BYTES: usize = BLOCK_SECTORS as usize * SECTOR_BYTES;\n",
        );
        assert!(check(&[f], &Config::cedar()).is_empty());
    }

    #[test]
    fn narrow_expr_cast_flagged() {
        let f = file(
            "crates/cfs/src/x.rs",
            "cfs",
            "fn f() { let b = valid as u8; }\n",
        );
        let out = check(&[f], &Config::cedar());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].snippet, "valid as u8");
    }

    #[test]
    fn widening_casts_clean() {
        let f = file(
            "crates/cfs/src/x.rs",
            "cfs",
            "fn f() { let a = n as u64; let b = m as usize; }\n",
        );
        assert!(check(&[f], &Config::cedar()).is_empty());
    }

    #[test]
    fn test_code_and_uncovered_crates_exempt() {
        let t = file(
            "crates/cfs/src/x.rs",
            "cfs",
            "#[cfg(test)]\nmod tests {\n fn t() { let b = v.len() as u8; }\n}\n",
        );
        assert!(check(&[t], &Config::cedar()).is_empty());
        let w = file(
            "crates/workload/src/x.rs",
            "workload",
            "fn f() { let b = x as u8; }\n",
        );
        assert!(check(&[w], &Config::cedar()).is_empty());
    }
}
