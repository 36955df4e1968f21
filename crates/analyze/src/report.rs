//! Finding presentation: a human-readable table grouped by rule, plus
//! hand-rolled JSON and SARIF 2.1.0 encodings (no serde — the analyzer is
//! dependency-free). The SARIF output is the machine-readable interchange
//! form CI uploads as an artifact, so code-review tooling can annotate
//! findings in place.

use crate::Finding;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A completed analysis run.
#[derive(Clone, Debug)]
pub struct Report {
    /// Findings in deterministic (rule, file, line) order — unallowed
    /// findings plus stale-allowlist entries.
    pub findings: Vec<Finding>,
    /// Number of files scanned.
    pub n_files: usize,
    /// Per-family wall time in milliseconds, in execution order (empty
    /// unless the caller recorded timings — keeps the growing analyzer
    /// debuggable as families are added).
    pub timings: Vec<(String, u128)>,
}

impl Report {
    /// Assembles a report from unallowed and stale findings.
    pub fn new(kept: Vec<Finding>, stale: Vec<Finding>, n_files: usize) -> Self {
        let mut findings = kept;
        findings.extend(stale);
        findings.sort_by(|a, b| {
            (a.rule, &a.file, a.line, &a.snippet).cmp(&(b.rule, &b.file, b.line, &b.snippet))
        });
        Self {
            findings,
            n_files,
            timings: Vec::new(),
        }
    }

    /// True if the run is clean (exit code 0).
    pub fn ok(&self) -> bool {
        self.findings.is_empty()
    }

    /// Human-readable table, grouped by rule, with per-family wall time
    /// when the run recorded it.
    pub fn human(&self) -> String {
        let mut out = String::new();
        if !self.timings.is_empty() {
            let cells: Vec<String> = self
                .timings
                .iter()
                .map(|(fam, ms)| format!("{fam} {ms}ms"))
                .collect();
            let _ = writeln!(out, "rule timings: {}", cells.join(", "));
        }
        if self.ok() {
            let _ = writeln!(
                out,
                "cedar-lint: {} files scanned, no findings",
                self.n_files
            );
            return out;
        }
        let mut by_rule: BTreeMap<&str, Vec<&Finding>> = BTreeMap::new();
        for f in &self.findings {
            by_rule.entry(f.rule).or_default().push(f);
        }
        for (rule, group) in &by_rule {
            let _ = writeln!(out, "{rule} ({} finding(s))", group.len());
            for f in group {
                let loc = if f.line == 0 {
                    f.file.clone()
                } else {
                    format!("{}:{}", f.file, f.line)
                };
                let _ = writeln!(out, "  {loc} [{}] {}", f.item, f.message);
            }
        }
        let _ = writeln!(
            out,
            "cedar-lint: {} files scanned, {} finding(s) across {} rule(s)",
            self.n_files,
            self.findings.len(),
            by_rule.len()
        );
        out
    }

    /// JSON encoding of the report.
    pub fn json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"files_scanned\":{},\"ok\":{},\"findings\":[",
            self.n_files,
            self.ok()
        );
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"item\":\"{}\",\
                 \"snippet\":\"{}\",\"message\":\"{}\"}}",
                escape(f.rule),
                escape(&f.file),
                f.line,
                escape(&f.item),
                escape(&f.snippet),
                escape(&f.message)
            );
        }
        out.push_str("]}");
        out
    }

    /// SARIF 2.1.0 encoding: one run, one result per finding. The driver
    /// advertises the full [`crate::rule_ids`] registry (plus any ad-hoc
    /// rule a finding carries), so clean runs still tell downstream
    /// tooling which checks ran. Findings without a line
    /// (allowlist-level) report line 1 — SARIF regions are 1-based.
    pub fn sarif(&self) -> String {
        let mut rules: Vec<&str> = crate::rule_ids().collect();
        rules.extend(self.findings.iter().map(|f| f.rule));
        rules.sort_unstable();
        rules.dedup();
        let mut out = String::from("{");
        out.push_str("\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",");
        out.push_str("\"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{");
        out.push_str("\"name\":\"cedar-lint\",\"rules\":[");
        for (i, r) in rules.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"id\":\"{}\"}}", escape(r));
        }
        out.push_str("]}},\"results\":[");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"ruleId\":\"{}\",\"level\":\"error\",\
                 \"message\":{{\"text\":\"{}\"}},\"locations\":[{{\
                 \"physicalLocation\":{{\"artifactLocation\":{{\"uri\":\"{}\"}},\
                 \"region\":{{\"startLine\":{}}}}}}}]}}",
                escape(f.rule),
                escape(&f.message),
                escape(&f.file),
                f.line.max(1)
            );
        }
        out.push_str("]}]}");
        out
    }
}

/// JSON string escaping.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, file: &str, line: u32) -> Finding {
        Finding {
            rule,
            file: file.into(),
            line,
            item: "f".into(),
            snippet: "s".into(),
            message: "m \"quoted\"".into(),
        }
    }

    #[test]
    fn clean_report() {
        let r = Report::new(vec![], vec![], 10);
        assert!(r.ok());
        assert!(r.human().contains("no findings"));
        assert!(r.json().contains("\"ok\":true"));
    }

    #[test]
    fn findings_sorted_and_grouped() {
        let r = Report::new(
            vec![
                finding("cast-safety", "b.rs", 2),
                finding("cast-safety", "a.rs", 9),
            ],
            vec![finding("stale-allowlist", "z.rs", 0)],
            3,
        );
        assert!(!r.ok());
        assert_eq!(r.findings[0].file, "a.rs");
        let human = r.human();
        assert!(human.contains("cast-safety (2 finding(s))"));
        assert!(human.contains("stale-allowlist (1 finding(s))"));
        // Line-0 findings render without a :0 suffix.
        assert!(human.contains("  z.rs ["));
    }

    #[test]
    fn json_escapes_quotes() {
        let r = Report::new(vec![finding("x", "a.rs", 1)], vec![], 1);
        assert!(r.json().contains("m \\\"quoted\\\""));
    }

    #[test]
    fn sarif_shape_and_rule_dedup() {
        let r = Report::new(
            vec![
                finding("wal-order", "a.rs", 3),
                finding("wal-order", "b.rs", 7),
            ],
            vec![],
            2,
        );
        let s = r.sarif();
        assert!(s.contains("\"version\":\"2.1.0\""));
        assert!(s.contains("\"name\":\"cedar-lint\""));
        // One rule entry despite two findings.
        assert_eq!(s.matches("{\"id\":\"wal-order\"}").count(), 1);
        assert_eq!(s.matches("\"ruleId\":\"wal-order\"").count(), 2);
        assert!(s.contains("\"uri\":\"a.rs\""));
        assert!(s.contains("\"startLine\":3"));
    }

    #[test]
    fn sarif_clamps_line_zero() {
        let r = Report::new(vec![finding("x", "a.rs", 0)], vec![], 1);
        assert!(r.sarif().contains("\"startLine\":1"));
    }

    #[test]
    fn sarif_clean_run_has_empty_results_but_full_rule_registry() {
        let s = Report::new(vec![], vec![], 4).sarif();
        assert!(s.contains("\"results\":[]"));
        // Every registered rule id is advertised even with no findings —
        // including the concurrency family.
        for id in crate::rule_ids() {
            assert!(s.contains(&format!("{{\"id\":\"{id}\"}}")), "missing {id}");
        }
    }
}
