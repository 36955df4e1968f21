//! `cedar-analyze`: an in-tree static invariant checker for the Cedar FS
//! workspace.
//!
//! The paper's reliability story rests on protocol obligations the Rust
//! compiler cannot see: the log append must precede the home write, only
//! the log module may address log-region sectors, the name table is
//! always double-written, recovery must never panic mid-redo. This crate
//! states those obligations as machine-checked rules over the workspace
//! source. It is dependency-free (no crates.io access, so no `syn`): a
//! hand-rolled lexer feeds both the token-level rules and a
//! recursive-descent parser ([`parser`]) whose lightweight AST ([`ast`])
//! and workspace call graph ([`callgraph`]) power the flow-sensitive
//! rules. A file the parser cannot handle is itself a finding
//! (`parse-error`) — nothing silently escapes analysis.
//!
//! The flow rules stand on three shared pieces: [`ast::Visit`], the one
//! traversal (each rule is a set of overrides on it, and statements are
//! visited at every depth); [`flow`], the per-function summary solver
//! and the branch/merge skeleton of a path-sensitive walk; and
//! [`Analysis`], the files, the call graph (built once per run) and the
//! configuration every family's `check` receives. [`FAMILIES`] is the
//! one table of family name, rule ids and pass. Ordering rules are one
//! `FlowSpec` each on `wal-order`'s walker, confinement rules one
//! `Confinement` each ([`rules`]).
//!
//! Rule families (each finding carries its rule id):
//!
//! * **layering** — import DAG between workspace crates, raw sector I/O
//!   confined to the volume layer (a confinement), log-region addressing
//!   confined to `cedar_fsd::{log, recovery}`.
//! * **wal-order** — every call path from a public `FsdVolume` op to a
//!   home-sector write must be dominated by a `Log::append`/force in the
//!   same commit unit (the §4 write-ahead rule, checked as a fixpoint
//!   over per-function summaries).
//! * **repl-order** — a record-carrying replication frame is sealed only
//!   after the append that logged it (ordering), and the shipping layer
//!   never writes home sectors (confinement).
//! * **barrier-discipline** / **batch-io** — on a configured commit path
//!   the submit of an `IoBatch` comes after its `barrier()` (ordering);
//!   raw disk calls (direct or one helper deep) on the multi-sector hot
//!   paths must go through `cedar_disk::sched` batches (confinement).
//! * **error-flow** — no `let _ =`/`.ok()` discards of `Result` on
//!   force/flush/recovery paths, and no `_ =>` arms swallowing
//!   `DiskError`/`FsdError` variants.
//! * **panic-ratchet** — no `unwrap()/expect()/panic!()` in non-test
//!   library code; existing sites live in a checked-in allowlist that only
//!   shrinks (new sites and stale entries both fail) and covers every
//!   rule family.
//! * **lock-graph** — an interprocedural lock graph: held-lock sets are
//!   threaded through the call graph (fixpoint over function summaries),
//!   so acquisition-order cycles across files and guards live across a
//!   blocking call (`force`, condvar waits, channel recv, join) anywhere
//!   in the callee chain are findings. The condvar hand-off
//!   (`cvar.wait(guard)`) is the sanctioned exception.
//! * **thread-roles** — the engine's shared structs get a field access
//!   matrix: every touch of a shared field is through its owning
//!   `Mutex`/`RwLock`, an atomic method, or an `Arc` clone; and functions
//!   taking the writer-owned volume are unreachable from client entry
//!   points.
//! * **condvar-discipline** — every `Condvar` wait sits in a
//!   predicate-rechecking loop, every notify is preceded by a state
//!   write under the paired mutex, and the publish atomics use
//!   `Release`/`Acquire` orderings.
//! * **const-consistency** — integer literals duplicating layout constants
//!   (`SECTOR_BYTES`, FFS block/inode sizes) instead of deriving them.
//! * **cast-safety** — truncating `as` casts in sector/page arithmetic
//!   (`.len() as u16`, narrowing casts of computed values, width-changing
//!   casts of layout constants).
//! * **unsafe-hygiene** — every library crate declares
//!   `#![deny(unsafe_code)]` (or `forbid`); any `unsafe` elsewhere needs a
//!   `// SAFETY:` comment.
//! * **disk-taint** / **decode-coverage** / **taint-arith** — bytes
//!   decoded from raw disk reads are tracked interprocedurally (fixpoint
//!   taint summaries over the call graph) and must pass a recognized
//!   sanitizer — dominating bounds check, `validate`/`runs_sane`, bounded
//!   accessor — before steering a recovery sink (layout address math,
//!   allocation lengths, VAM ops, batched I/O addresses); every
//!   configured on-disk struct field must be covered by a validator, and
//!   unchecked `+`/`*`/`<<` on tainted sector arithmetic is a finding.
//!
//! The `cedar-lint` binary scans the workspace (including this crate),
//! prints a human table, JSON, or SARIF 2.1.0 (`--format`), and exits
//! nonzero on findings — it is a tier-1 CI gate (see `ci.sh`).

#![deny(unsafe_code)]

pub mod allowlist;
pub mod ast;
pub mod callgraph;
pub mod config;
pub mod flow;
pub mod lexer;
pub mod parser;
pub mod report;
pub mod rules;
pub mod source;
pub mod workspace;

pub use config::Config;
pub use report::Report;

/// Everything a rule pass reads: the loaded workspace, its call graph
/// (built once per run) and the rule configuration.
pub struct Analysis<'a> {
    /// Every workspace source file, in deterministic order.
    pub files: &'a [source::SourceFile],
    /// Name-indexed call graph over the non-aux files.
    pub cg: callgraph::CallGraph<'a>,
    /// Rule scopes and lists.
    pub config: &'a Config,
}

impl<'a> Analysis<'a> {
    /// Indexes `files` for the rule passes.
    pub fn new(files: &'a [source::SourceFile], config: &'a Config) -> Self {
        Self {
            files,
            cg: callgraph::CallGraph::build(files),
            config,
        }
    }
}

/// A rule family's pass.
pub type CheckFn = for<'a> fn(&Analysis<'a>) -> Vec<Finding>;

/// The rule families in execution order, as the CLI groups them
/// (`cedar-lint --rule <family>`): family name, the rule ids its pass can
/// emit, and the pass. The filter accepts either a family name or any
/// one of its rule ids.
pub const FAMILIES: &[(&str, &[&str], CheckFn)] = &[
    ("layering", &["layering"], rules::layering::check),
    ("panics", &["panic-ratchet"], rules::panics::check),
    ("consts", &["const-consistency"], rules::consts::check),
    ("casts", &["cast-safety"], rules::casts::check),
    ("unsafety", &["unsafe-hygiene"], rules::unsafety::check),
    ("walorder", &["wal-order"], rules::walorder::check),
    ("repl", &["repl-order"], rules::repl::check),
    (
        "barrier",
        &["barrier-discipline", "batch-io"],
        rules::barrier::check,
    ),
    ("errorflow", &["error-flow"], rules::errorflow::check),
    (
        "concurrency",
        &["lock-graph", "thread-roles", "condvar-discipline"],
        rules::concurrency::check,
    ),
    (
        "taint",
        &["disk-taint", "decode-coverage", "taint-arith"],
        rules::taint::check,
    ),
];

/// Every rule id the analyzer can emit: the families' ids plus the two
/// the driver raises itself. SARIF output advertises this full set even
/// on clean runs, so downstream tooling sees which checks ran, not just
/// which fired.
pub fn rule_ids() -> impl Iterator<Item = &'static str> {
    FAMILIES
        .iter()
        .flat_map(|(_, ids, _)| ids.iter().copied())
        .chain(["parse-error", "stale-allowlist"])
}

/// One finding: a rule violation at a source location.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Rule id — one of [`rule_ids`].
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Enclosing function (or `-`).
    pub item: String,
    /// Short normalized snippet used as the allowlist key.
    pub snippet: String,
    /// Human explanation.
    pub message: String,
}

impl Finding {
    /// A finding of `rule` at `line` of `file`, inside `item`.
    pub fn new(
        rule: &'static str,
        file: impl Into<String>,
        line: u32,
        item: impl Into<String>,
        snippet: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Self {
            rule,
            file: file.into(),
            line,
            item: item.into(),
            snippet: snippet.into(),
            message: message.into(),
        }
    }

    /// Pushes the finding unless `out` already holds one of the same rule,
    /// line and snippet: a walker that reaches a site along two paths
    /// reports it once.
    pub fn push_once(self, out: &mut Vec<Finding>) {
        if !out
            .iter()
            .any(|f| f.rule == self.rule && f.line == self.line && f.snippet == self.snippet)
        {
            out.push(self);
        }
    }

    /// Allowlist key: identifies a site independent of line numbers.
    pub fn key(&self) -> (String, String, String, String) {
        (
            self.rule.to_string(),
            self.file.clone(),
            self.item.clone(),
            self.snippet.clone(),
        )
    }
}

/// Checker errors (I/O and usage — rules themselves never error).
#[derive(Debug)]
pub enum AnalyzeError {
    /// Filesystem error reading the workspace.
    Io(String),
    /// The root does not look like the expected workspace.
    BadRoot(String),
    /// Allowlist file is malformed.
    BadAllowlist(String),
}

impl std::fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(m) => write!(f, "i/o error: {m}"),
            Self::BadRoot(m) => write!(f, "bad workspace root: {m}"),
            Self::BadAllowlist(m) => write!(f, "bad allowlist: {m}"),
        }
    }
}

impl std::error::Error for AnalyzeError {}

/// Runs every rule over the workspace at `root`, applies the allowlist,
/// and returns the report. `allow` is the parsed allowlist (empty for
/// none).
pub fn run(
    root: &std::path::Path,
    config: &Config,
    allow: &allowlist::Allowlist,
) -> Result<Report, AnalyzeError> {
    run_filtered(root, config, allow, None)
}

/// Like [`run`], restricted to one rule family when `filter` is given
/// (a [`FAMILIES`] name or any rule id inside one). Partial runs skip
/// the stale-allowlist check — entries for unexecuted rules would all
/// look stale — but `parse-error` findings are always included: a file
/// the parser cannot handle escapes *every* family.
pub fn run_filtered(
    root: &std::path::Path,
    config: &Config,
    allow: &allowlist::Allowlist,
    filter: Option<&str>,
) -> Result<Report, AnalyzeError> {
    let selected = |fam: &str, ids: &[&str]| match filter {
        None => true,
        Some(name) => fam == name || ids.contains(&name),
    };
    if !FAMILIES.iter().any(|(fam, ids, _)| selected(fam, ids)) {
        return Err(AnalyzeError::BadRoot(format!(
            "unknown rule family `{}` (families: {})",
            filter.unwrap_or_default(),
            FAMILIES
                .iter()
                .map(|(f, ..)| *f)
                .collect::<Vec<_>>()
                .join(", ")
        )));
    }
    let files = workspace::load_workspace(root, config)?;
    let mut findings = Vec::new();
    // A file the parser cannot handle silently escapes the flow rules, so
    // a parse failure is itself a finding.
    for f in &files {
        if let Some((line, msg)) = &f.parse_error {
            findings.push(Finding::new(
                "parse-error",
                &f.rel,
                *line,
                f.enclosing_fn(*line),
                "parse error",
                format!(
                    "cedar-lint's parser failed here ({msg}); the flow rules \
                     skipped this file — fix the parser or simplify the construct"
                ),
            ));
        }
    }
    let analysis = Analysis::new(&files, config);
    let mut timings = Vec::new();
    for (fam, ids, check) in FAMILIES {
        if !selected(fam, ids) {
            continue;
        }
        let t0 = std::time::Instant::now();
        findings.extend(check(&analysis));
        timings.push((fam.to_string(), t0.elapsed().as_millis()));
    }
    let (kept, stale) = allow.apply(findings);
    let stale = if filter.is_some() { Vec::new() } else { stale };
    let mut report = Report::new(kept, stale, files.len());
    report.timings = timings;
    Ok(report)
}
