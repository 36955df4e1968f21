//! Const-consistency: flag integer literals that duplicate a layout
//! constant (`512` for `SECTOR_BYTES`, `1024`/`128` for the FFS block and
//! inode sizes) outside the constant's defining file.
//!
//! Hand-copied layout values are how geometry drift starts: change the
//! sector size in one place and the volume silently computes wrong
//! addresses everywhere the literal was duplicated.

use crate::lexer::TokKind;
use crate::source::int_value;
use crate::{Analysis, Finding};

/// Runs the const-consistency check.
pub fn check(a: &Analysis<'_>) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in a.files {
        if f.is_aux {
            continue;
        }
        for t in &f.tokens {
            if t.kind != TokKind::Num || f.is_test_line(t.line) {
                continue;
            }
            let Some(v) = int_value(&t.text) else {
                continue;
            };
            for kc in &a.config.known_consts {
                if kc.value != v {
                    continue;
                }
                if !kc.crates.is_empty() && !kc.crates.iter().any(|c| *c == f.crate_key) {
                    continue;
                }
                if kc.defining_files.iter().any(|p| *p == f.rel) {
                    continue;
                }
                out.push(Finding::new(
                    "const-consistency",
                    &f.rel,
                    t.line,
                    f.enclosing_fn(t.line),
                    format!("literal {}", t.text),
                    format!(
                        "literal `{}` duplicates `{}`: use the constant so the \
                         layout has a single point of truth",
                        t.text, kc.const_name
                    ),
                ));
                break; // One finding per literal even if values collide.
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
    fn duplicated_sector_size_flagged() {
        let f = file(
            "crates/vol/src/x.rs",
            "vol",
            "fn f() { let b = vec![0u8; 512]; }\n",
        );
        let out = check(&[f], &Config::cedar());
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("SECTOR_BYTES"));
    }

    #[test]
    fn hex_spelling_also_flagged() {
        let f = file("crates/vol/src/x.rs", "vol", "const N: usize = 0x200;\n");
        assert_eq!(check(&[f], &Config::cedar()).len(), 1);
    }

    #[test]
    fn defining_file_exempt() {
        let f = file(
            "crates/disk/src/lib.rs",
            "disk",
            "pub const SECTOR_BYTES: usize = 512;\n",
        );
        assert!(check(&[f], &Config::cedar()).is_empty());
    }

    #[test]
    fn crate_scoped_const_only_applies_in_scope() {
        // 128 is INODE_BYTES only within ffs; other crates may use 128.
        let vol = file("crates/vol/src/x.rs", "vol", "fn f() { let n = 128; }\n");
        assert!(check(&[vol], &Config::cedar()).is_empty());
        let ffs = file("crates/ffs/src/x.rs", "ffs", "fn f() { let n = 128; }\n");
        assert_eq!(check(&[ffs], &Config::cedar()).len(), 1);
    }

    #[test]
    fn test_code_exempt() {
        let f = file(
            "crates/vol/src/x.rs",
            "vol",
            "#[cfg(test)]\nmod tests {\n fn t() { assert_eq!(SECTOR_BYTES, 512); }\n}\n",
        );
        assert!(check(&[f], &Config::cedar()).is_empty());
    }

    #[test]
    fn unrelated_values_clean() {
        let f = file(
            "crates/vol/src/x.rs",
            "vol",
            "fn f() { let n = 513 + 100; }\n",
        );
        assert!(check(&[f], &Config::cedar()).is_empty());
    }
}
