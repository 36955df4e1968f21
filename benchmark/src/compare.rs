//! `compare A.json B.json`: applies `BENCHMARK.json`'s bounds to two
//! results files, one row for every pairing of end-to-end metric and
//! workload.
//!
//! Simulated-clock metrics repeat exactly for a seed, so between two runs
//! at the same seed any difference at all is a change in behaviour; the
//! declared bound is for runs at different seeds. Host-clock metrics may
//! worsen by their bound; they are best-of-N figures, and one whose best
//! sample leads its runner-up by more than that bound in either run is
//! reported as unresolved, not as unchanged.

use crate::decl::{is_sim_clock, Declared};
use crate::json::Json;

/// One row's judgement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Identical,
    Differs,
    Within,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn agrees(self) -> bool {
        matches!(self, Verdict::Identical | Verdict::Within)
    }
}

/// Judges new value `b` against base `a`. `spread` is the larger of the
/// two runs' leads of the best sample over the runner-up
/// ([`crate::stats::Best::lead`]).
pub fn judge(
    sim_clock: bool,
    higher_is_better: bool,
    bound: f64,
    a: f64,
    b: f64,
    spread: f64,
) -> Verdict {
    if sim_clock {
        return if a == b {
            Verdict::Identical
        } else {
            Verdict::Differs
        };
    }
    let worse_by = if higher_is_better { a - b } else { b - a } / a.abs();
    if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Within
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn value(results: &Json, workload: &str, section: &str, metric: &str) -> Option<f64> {
    results
        .get("workloads")?
        .get(workload)?
        .get(section)?
        .get(metric)?
        .get("value")?
        .as_f64()
}

/// Prints the comparison; `Ok(true)` when every row agrees.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let declared = Declared::load()?;
    let (a, b) = (load(path_a)?, load(path_b)?);
    let same_seed = a.get("seed") == b.get("seed");
    println!("base {path_a}  new {path_b}  (same seed: {same_seed})");
    println!(
        "{:<12} {:<16} {:>14} {:>14} {:>8}  {:>6}  verdict",
        "workload", "metric", "base", "new", "new/base", "bound"
    );
    let mut all_agree = true;
    for workload in &declared.workloads {
        for m in &declared.end_to_end {
            let (Some(va), Some(vb)) = (
                value(&a, workload, "end_to_end", &m.name),
                value(&b, workload, "end_to_end", &m.name),
            ) else {
                println!(
                    "{workload:<12} {:<16} missing from one of the files",
                    m.name
                );
                all_agree = false;
                continue;
            };
            let spread_of = |r: &Json| {
                r.get("workloads")
                    .and_then(|w| w.get(workload))
                    .and_then(|w| w.get("spread"))
                    .and_then(|s| s.get(&m.name))
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0)
            };
            let spread = spread_of(&a).max(spread_of(&b));
            // Exactness is only owed between runs of the same traffic.
            let exact = is_sim_clock(&m.name) && same_seed;
            let verdict = judge(exact, m.higher_is_better, m.bound, va, vb, spread);
            all_agree &= verdict.agrees();
            let bound = if exact {
                "exact".to_string()
            } else {
                format!("{:.0}%", m.bound * 100.0)
            };
            println!(
                "{workload:<12} {:<16} {va:>14.6} {vb:>14.6} {:>8.4}  {bound:>6}  {verdict:?}{}",
                m.name,
                vb / va,
                if verdict == Verdict::Unresolved {
                    format!(" (best sample leads by {:.1}%)", spread * 100.0)
                } else {
                    String::new()
                }
            );
        }
    }
    Ok(all_agree)
}
