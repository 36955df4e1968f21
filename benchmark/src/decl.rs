//! What `BENCHMARK.json` declares. The file is the only list of metric
//! names, units, directions and bounds; the harness checks what it emits
//! against it instead of carrying a second copy.

use crate::json::Json;
use std::collections::BTreeMap;

pub const BENCHMARK_JSON: &str = "BENCHMARK.json";

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Share of the base value by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: f64,
}

#[derive(Clone, Debug, Default)]
pub struct Declared {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Declared {
    /// Reads `BENCHMARK.json` from the current directory — the benchmark
    /// runs from the root of a checkout.
    pub fn load() -> Result<Declared, String> {
        let text = std::fs::read_to_string(BENCHMARK_JSON)
            .map_err(|e| format!("{BENCHMARK_JSON}: {e} (run from the root of the checkout)"))?;
        let doc = Json::parse(&text).map_err(|e| format!("{BENCHMARK_JSON}: {e}"))?;
        let metrics = |key: &str| -> Vec<Metric> {
            doc.get(key)
                .map_or(&[][..], Json::as_arr)
                .iter()
                .map(|m| Metric {
                    name: m
                        .get("name")
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .into(),
                    unit: m
                        .get("unit")
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .into(),
                    higher_is_better: m.get("better").and_then(Json::as_str) == Some("higher"),
                    bound: m.get("bound").and_then(Json::as_f64).unwrap_or(0.0),
                })
                .collect()
        };
        Ok(Declared {
            workloads: doc
                .get("workloads")
                .map_or(&[][..], Json::as_arr)
                .iter()
                .filter_map(|w| w.get("name").and_then(Json::as_str).map(String::from))
                .collect(),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        })
    }

    /// Unit of every declared metric.
    pub fn units(&self) -> BTreeMap<String, String> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .map(|m| (m.name.clone(), m.unit.clone()))
            .collect()
    }

    /// Declared-but-not-emitted and emitted-but-undeclared names of one
    /// section, as a message; `None` when the two sets are equal.
    pub fn mismatch<'a>(
        section: &[Metric],
        emitted: impl Iterator<Item = &'a str>,
    ) -> Option<String> {
        let emitted: Vec<&str> = emitted.collect();
        let missing: Vec<&str> = section
            .iter()
            .map(|m| m.name.as_str())
            .filter(|n| !emitted.contains(n))
            .collect();
        let undeclared: Vec<&str> = emitted
            .iter()
            .copied()
            .filter(|n| section.iter().all(|m| m.name != *n))
            .collect();
        (!missing.is_empty() || !undeclared.is_empty()).then(|| {
            format!("declared but not emitted: {missing:?}; emitted but undeclared: {undeclared:?}")
        })
    }
}

/// Whether an end-to-end metric is simulated time or a count — exact for
/// a given seed — rather than host time.
pub fn is_sim_clock(name: &str) -> bool {
    name.starts_with("sim_") || matches!(name, "ios_per_op" | "write_amp" | "space_amp")
}
