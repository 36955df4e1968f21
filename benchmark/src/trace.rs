//! Spans recorded by the harness around the calls it makes into the
//! system, held in memory and written as JSON lines when the run ends.
//!
//! Spans *inside* the crates wait for `cedar_obs` (ROADMAP item 2); until
//! then a layer's time is what the harness can bracket from outside.

use crate::json::Json;
use std::io::Write;
use std::time::Instant;

/// One span. `parent` 0 means none; `op` is the index of the generated
/// op in its stream, shared by the spans of one request so passes over
/// the identical stream can be joined on it. [`Trace::push`] assigns
/// `span`.
#[derive(Clone, Debug, Default)]
pub struct Span {
    pub span: u64,
    pub parent: u64,
    pub op: u64,
    pub pass: &'static str,
    pub layer: &'static str,
    pub name: String,
    pub client: usize,
    pub sim_us: (u64, u64),
    pub host_ns: (u64, u64),
    pub counters: Vec<(&'static str, u64)>,
}

/// The span buffer of one run.
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Self {
        Self::new()
    }
}

impl Trace {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            // Room for the longest traced run, so recording a span never
            // reallocates inside a timed region.
            spans: Vec::with_capacity(1 << 17),
        }
    }

    /// Nanoseconds since the trace began.
    pub fn host_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Nanoseconds from the trace's origin to `at`.
    pub fn host_ns_at(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span and returns the id it was given (for children to
    /// name as their parent).
    pub fn push(&mut self, span: Span) -> u64 {
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span { span: id, ..span });
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &std::path::Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let num = |n: u64| Json::Num(n as f64);
        for s in &self.spans {
            let line = Json::obj([
                ("span", num(s.span)),
                ("parent", num(s.parent)),
                ("op", num(s.op)),
                ("workload", Json::Str(workload.into())),
                ("pass", Json::Str(s.pass.into())),
                ("layer", Json::Str(s.layer.into())),
                ("name", Json::Str(s.name.clone())),
                ("client", num(s.client as u64)),
                ("sim_start_us", num(s.sim_us.0)),
                ("sim_end_us", num(s.sim_us.1)),
                ("host_start_ns", num(s.host_ns.0)),
                ("host_end_ns", num(s.host_ns.1)),
                (
                    "counters",
                    Json::obj(s.counters.iter().map(|&(k, v)| (k, num(v)))),
                ),
            ]);
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}
